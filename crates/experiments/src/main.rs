//! `experiments` — regenerates every table and figure of *Heat Behind the
//! Meter* (HPCA 2021) from the workspace simulator.
//!
//! ```text
//! experiments <id>... [--days N] [--warmup-days N] [--seed N] [--out DIR] [--jobs N]
//!                     [--trace DIR] [--timings] [--timings-json FILE]
//! experiments all [--days N] ...
//! experiments simulate --policy NAME [--days N] [--warmup-days N] [--seed N]
//!                      [--util F] [--attack-load-kw F] [--battery-kwh F]
//!                      [--threshold-c F] [--cap-w F]
//! experiments client [--addr HOST:PORT] <create|list|step|perturb|state|metrics|delete> ...
//! experiments whatif --policy NAME [--fork-at SLOT] [--slots N] [--variant key=value[,...]]...
//! experiments surrogate <fit|validate|sweep> --model FILE [...]
//! ```
//!
//! Each experiment prints a summary table and writes the full data series
//! to `<out>/<id>.csv`. `--days` shortens the measured horizon (the paper
//! uses a year; smoke runs are fine with 30–60 days).
//!
//! `simulate` runs a single declarative scenario through the shared
//! [`hbm_core::scenario`] code path and prints one flat-JSON metrics line —
//! byte-identical to the body `hbm-serve` returns for the same
//! configuration (see `docs/SERVICE.md`).
//!
//! `client` drives a running `hbm-serve` daemon's sessionful experiment
//! API over TCP — create, step, perturb, inspect, and delete long-lived
//! experiments without writing HTTP by hand (see [`client`]).
//!
//! `whatif` forks one scenario at a chosen slot into a control branch
//! plus per-`--variant` branches ([`hbm_core::StateTree`]) and prints a
//! lockstep comparison — where the futures diverge and how their
//! outcomes differ — without re-simulating the shared prefix (see
//! [`whatif`]).
//!
//! `surrogate` fits, validates, and error-sweeps the polynomial
//! surrogate tier for heat-matrix extraction (see [`surrogate_cmd`] and
//! `docs/SURROGATE.md`); the fitted artifact plugs into `hbm-serve
//! --surrogate`.
//!
//! `--jobs N` runs independent experiments on up to `N` threads (0 = one
//! per core); sweeps inside an experiment parallelize too, all drawing
//! from the same thread budget. Every simulation is seeded per run, and
//! each experiment's console output is buffered and flushed in submission
//! order, so tables stay uninterleaved and CSVs are byte-identical
//! whatever `--jobs` is.
//!
//! `--trace DIR` additionally writes one JSONL telemetry trace per traced
//! run (currently fig8, fig9, and the defense residual detector) plus a
//! `manifest.json` run manifest; `--timings` aggregates wall-clock spans
//! around the hot kernels and prints a report (`--timings-json FILE` also
//! writes them as criterion-shaped JSON). See `docs/TELEMETRY.md`.

mod client;
mod common;
mod figs_attack;
mod figs_defense;
mod figs_extra;
mod figs_infra;
mod figs_perf;
mod figs_sense;
mod surrogate_cmd;
mod whatif;

use common::{Options, Sink};

type Runner = fn(&Options, &mut Sink);

const EXPERIMENTS: &[(&str, Runner)] = &[
    ("table1", figs_infra::table1),
    ("fig5b", figs_infra::fig5b),
    ("fig6b", figs_infra::fig6b),
    ("fig7a", figs_infra::fig7a),
    ("fig7b", figs_infra::fig7b),
    ("fig8", figs_attack::fig8),
    ("fig9", figs_attack::fig9),
    ("fig10", figs_attack::fig10),
    ("fig11a", figs_sense::fig11a),
    ("fig11bc", figs_attack::fig11bc),
    ("fig11d", figs_attack::fig11d),
    ("fig12a", figs_sense::fig12a),
    ("fig12b", figs_sense::fig12b),
    ("fig12c", figs_sense::fig12c),
    ("fig12d", figs_sense::fig12d),
    ("fig12e", figs_sense::fig12e),
    ("fig13a", figs_infra::fig13a),
    ("fig13b", figs_attack::fig13b),
    ("fig14a", figs_infra::fig14a),
    ("fig14b", figs_perf::fig14b),
    ("fig15", figs_perf::fig15),
    ("cost", figs_attack::cost),
    ("defense", figs_defense::defense),
    ("ablation", figs_extra::ablation),
    ("defense_roc", figs_extra::defense_roc),
    ("latency_validation", figs_extra::latency_validation),
    ("placement", figs_extra::placement),
    ("outlet_only", figs_extra::outlet_only),
    ("setpoint", figs_extra::setpoint),
];

fn usage() {
    eprintln!("usage: experiments <id>... | all   [--days N] [--warmup-days N] [--seed N] [--out DIR] [--jobs N] [--trace DIR] [--timings] [--timings-json FILE]");
    eprintln!("       experiments simulate --policy NAME [--days N] [--warmup-days N] [--seed N] [--util F] [--attack-load-kw F] [--battery-kwh F] [--threshold-c F] [--cap-w F]");
    eprintln!("       experiments client [--addr HOST:PORT] <create|list|step|perturb|state|metrics|delete> ...");
    eprintln!("       experiments whatif --policy NAME [--fork-at SLOT] [--slots N] [--variant key=value[,...]]...");
    eprintln!("       experiments surrogate <fit|validate|sweep> --model FILE [...]");
    eprintln!("available experiments:");
    for (name, _) in EXPERIMENTS {
        eprintln!("  {name}");
    }
}

/// A subcommand that is not an experiment id: its name, the harness-wide
/// flags it rejects, its usage printer and its runner. The shared option
/// parser accepts `--out`, `--jobs`, `--trace` and `--timings[-json]` for
/// every command line, but a subcommand that writes no CSVs, runs one lane
/// or records no spans would silently ignore them — so it fails loudly
/// (exit 2 with its usage) instead. A runner error also exits 2 with usage.
struct Subcommand {
    name: &'static str,
    rejects: &'static [&'static str],
    usage: fn(),
    run: fn(&Options, &[String]) -> Result<(), String>,
}

const HARNESS_FLAGS: &[&str] = &["--out", "--jobs", "--trace", "--timings", "--timings-json"];

const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "simulate",
        rejects: HARNESS_FLAGS,
        usage,
        run: run_simulate,
    },
    Subcommand {
        name: "whatif",
        rejects: HARNESS_FLAGS,
        usage: || eprintln!("{}", whatif::USAGE),
        run: whatif::run_whatif,
    },
    // Surrogate fits record spans, so the timing flags are honored.
    Subcommand {
        name: "surrogate",
        rejects: &["--out", "--jobs", "--trace"],
        usage: || eprintln!("{}", surrogate_cmd::USAGE),
        run: run_surrogate,
    },
    Subcommand {
        name: "client",
        rejects: &[],
        usage: || eprintln!("{}", client::USAGE),
        run: client::run_client,
    },
];

/// `experiments simulate ...`: one declarative scenario, one flat-JSON
/// metrics line on stdout. The scenario is built, keyed, run, and
/// serialized by [`hbm_core::scenario`] — exactly the code path behind
/// `hbm-serve`'s `POST /v1/simulate`, so the printed line is
/// byte-identical to the served response body for the same configuration.
fn run_simulate(opts: &Options, args: &[String]) -> Result<(), String> {
    let mut scenario = hbm_core::Scenario::new("");
    scenario.days = opts.days;
    scenario.warmup_days = opts.warmup_days;
    scenario.seed = opts.seed;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let mut take_f64 = |name: &str| -> Result<f64, String> {
            take(name)?.parse().map_err(|e| format!("{name}: {e}"))
        };
        match arg.as_str() {
            "--policy" => scenario.policy = take("--policy")?,
            "--util" => scenario.utilization = Some(take_f64("--util")?),
            "--attack-load-kw" => scenario.attack_load_kw = Some(take_f64("--attack-load-kw")?),
            "--battery-kwh" => scenario.battery_kwh = Some(take_f64("--battery-kwh")?),
            "--threshold-c" => scenario.threshold_c = Some(take_f64("--threshold-c")?),
            "--cap-w" => scenario.cap_w = Some(take_f64("--cap-w")?),
            other => return Err(format!("unknown simulate argument {other:?}")),
        }
    }
    if scenario.policy.is_empty() {
        return Err("simulate requires --policy NAME".into());
    }
    let report = scenario.run()?;
    println!(
        "{}",
        hbm_core::scenario::metrics_json(&scenario.config_canonical(), &report.metrics)
    );
    Ok(())
}

/// `experiments surrogate ...` with its kernel timing report when
/// `--timings` is set.
fn run_surrogate(opts: &Options, args: &[String]) -> Result<(), String> {
    if opts.timings {
        hbm_telemetry::timing::set_timings_enabled(true);
        for span in ["surrogate.fit", "surrogate.predict", "heat_matrix.extract"] {
            hbm_telemetry::timing::declare_span(span);
        }
    }
    surrogate_cmd::run_surrogate(opts, args)?;
    if let Err(e) = print_timing_report(opts) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    Ok(())
}

/// With `--timings`, prints the kernel timing report and writes it to
/// `--timings-json FILE` if given.
fn print_timing_report(opts: &Options) -> Result<(), String> {
    if !opts.timings {
        return Ok(());
    }
    println!("\n=== kernel timing report ===");
    println!("{}", hbm_telemetry::timing::render_timing_report());
    if let Some(path) = &opts.timings_json {
        let json = hbm_telemetry::timing::timing_report_bench_json();
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(path, json + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("  [json] {}", path.display());
    }
    Ok(())
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (opts, ids) = match Options::parse(&raw) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            std::process::exit(2);
        }
    };
    if ids.is_empty() {
        usage();
        std::process::exit(2);
    }
    if let Some(cmd) = SUBCOMMANDS.iter().find(|c| c.name == ids[0]) {
        if let Some(flag) = raw.iter().find(|a| cmd.rejects.contains(&a.as_str())) {
            eprintln!("error: {} does not support {flag}", cmd.name);
            (cmd.usage)();
            std::process::exit(2);
        }
        if let Err(e) = (cmd.run)(&opts, &ids[1..]) {
            eprintln!("error: {e}");
            (cmd.usage)();
            std::process::exit(2);
        }
        return;
    }

    // Expand and validate up front so an unknown id fails before any work.
    let mut runs: Vec<(&str, Runner)> = Vec::new();
    for id in &ids {
        if id == "all" {
            runs.extend(EXPERIMENTS.iter().copied());
            continue;
        }
        match EXPERIMENTS.iter().find(|(name, _)| name == id) {
            Some(&entry) => runs.push(entry),
            None => {
                eprintln!("error: unknown experiment {id:?} (try `experiments` with no args for the list)");
                std::process::exit(2);
            }
        }
    }

    hbm_par::configure_threads(opts.jobs.max(1));
    if opts.timings {
        hbm_telemetry::timing::set_timings_enabled(true);
        // Pre-register the well-known kernel spans so the report always
        // names them, even for experiments that never enter a kernel
        // (e.g. fig9 uses the zone model, not the CFD model).
        for span in [
            "cfd.substep",
            "heat_matrix.convolve",
            "heat_matrix.extract",
            "matrix.scatter",
            "zone.step",
            "sim.step",
            "rl.batch_update",
            "rl.q_update",
            "surrogate.fit",
            "surrogate.predict",
        ] {
            hbm_telemetry::timing::declare_span(span);
        }
    }
    let start = std::time::Instant::now();
    let count = runs.len();
    if opts.jobs <= 1 {
        // Serial path streams each experiment's output as it runs.
        let mut sink = Sink::new();
        for (_, f) in runs {
            f(&opts, &mut sink);
            sink.flush_to_stdout();
        }
    } else {
        // Parallel path: run buffered, then flush whole experiments in
        // submission order so tables never interleave.
        let sinks = hbm_par::par_map(runs, |(_, f)| {
            let mut sink = Sink::new();
            f(&opts, &mut sink);
            sink
        });
        for mut sink in sinks {
            sink.flush_to_stdout();
        }
    }
    if let Err(e) = print_timing_report(&opts) {
        common::IO_ERRORS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        eprintln!("error: {e}");
    }
    write_manifest(&opts, &ids, start.elapsed().as_millis() as u64);
    eprintln!(
        "\n[{count} experiment(s) in {:.1?}, --jobs {}]",
        start.elapsed(),
        opts.jobs
    );
    let io_errors = common::IO_ERRORS.load(std::sync::atomic::Ordering::Relaxed);
    if io_errors > 0 {
        eprintln!("error: {io_errors} output file(s) could not be written");
        std::process::exit(1);
    }
}

/// Emits `manifest.json` alongside the CSVs (and into the trace directory,
/// when tracing) so every run records what produced it.
fn write_manifest(opts: &Options, ids: &[String], wall_clock_ms: u64) {
    let mut manifest = hbm_telemetry::RunManifest::new("experiments", opts.seed);
    manifest.hash_config(&opts.config_canonical(ids));
    manifest
        .param("ids", ids.join("+"))
        .param("days", opts.days.to_string())
        .param("warmup_days", opts.warmup_days.to_string())
        .param("timings", opts.timings.to_string())
        .param("trace", opts.trace.is_some().to_string());
    for (name, version) in [
        ("hbm-experiments", env!("CARGO_PKG_VERSION")),
        ("hbm-core", hbm_core::VERSION),
        ("hbm-telemetry", hbm_telemetry::VERSION),
    ] {
        manifest.crate_version(name, version);
    }
    manifest.jobs = opts.jobs as u64;
    manifest.wall_clock_ms = wall_clock_ms;
    for dir in std::iter::once(&opts.out_dir).chain(opts.trace.as_ref()) {
        if let Err(e) = manifest.write_to_dir(dir) {
            common::IO_ERRORS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            eprintln!("error: cannot write manifest to {}: {e}", dir.display());
        }
    }
}
