//! `hbm-perfbench` — the measurement half of the repository benchmark.
//!
//! ```text
//! hbm-perfbench <fleet|layers> --seed N --seconds S --threads P
//!               --work DIR --out FILE [--trace 0|1]
//! ```
//!
//! Each mode drives the workspace crates through their public API and
//! writes one JSON report to `--out`: raw timing samples, counters, and
//! the raw observations the output checks need (lane metrics, response
//! statuses, twin-replay metrics). It judges nothing itself:
//! `perfbench/run.py` computes the quantiles, runs the checks, and counts
//! failures, so that logic lives (and is tested) in one place. With
//! `--trace 1` the mode also writes its span log to `<out>.spans.jsonl`.

mod fleet;
mod layers;
mod report;
mod serve;
mod spans;

use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

/// Parsed command line, shared by every mode.
pub struct Args {
    pub mode: String,
    pub seed: u64,
    pub seconds: Duration,
    pub threads: usize,
    pub work: PathBuf,
    pub out: PathBuf,
    pub trace: bool,
}

const USAGE: &str = "usage: hbm-perfbench <fleet|layers> --seed N --seconds S --threads P \
--work DIR --out FILE [--trace 0|1]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut it = raw.iter();
    let mode = it.next().ok_or("missing mode")?.clone();
    if !["fleet", "layers"].contains(&mode.as_str()) {
        return Err(format!("unknown mode {mode:?}"));
    }
    let (mut seed, mut seconds, mut threads, mut work, mut out, mut trace) =
        (None, None, None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let secs = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds =
                    Some(Duration::try_from_secs_f64(secs).map_err(|e| format!("--seconds: {e}"))?)
            }
            "--threads" => {
                threads = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--work" => work = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let threads = threads.ok_or("--threads is required")?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if threads == 0 || threads > nproc {
        return Err(format!(
            "--threads {threads} must be between 1 and nproc ({nproc}): the load generator \
             never uses more threads or connections than there are cores"
        ));
    }
    Ok(Args {
        mode,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        threads,
        work: work.ok_or("--work is required")?,
        out: out.ok_or("--out is required")?,
        trace,
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    hbm_par::configure_threads(args.threads);
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("error: cannot create {}: {e}", args.work.display());
        std::process::exit(1);
    }
    let (report, spans) = match args.mode.as_str() {
        "fleet" => fleet::run(&args),
        _ => layers::run(&args),
    };
    let written = std::fs::File::create(&args.out).and_then(|file| {
        let mut out = std::io::BufWriter::new(file);
        report.write_json(&mut out)?;
        out.flush()
    });
    if let Err(e) = written {
        eprintln!("error: cannot write {}: {e}", args.out.display());
        std::process::exit(1);
    }
    if args.trace {
        let path = PathBuf::from(format!("{}.spans.jsonl", args.out.display()));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
