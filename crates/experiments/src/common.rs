//! Shared plumbing for the experiment harness: run-length options, CSV
//! output, table printing, and simulation helpers.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use hbm_core::{scenario, Metrics, SimReport, Simulation};

/// Count of I/O failures (CSV, manifest, timings JSON) across the whole
/// run; the driver exits nonzero when any write failed, so automation
/// never mistakes a partially written results directory for a clean run.
pub static IO_ERRORS: AtomicUsize = AtomicUsize::new(0);

/// Records one I/O failure: counted for the exit code and echoed through
/// the sink so the message lands next to the experiment that hit it.
pub fn io_error(out: &mut Sink, message: String) {
    IO_ERRORS.fetch_add(1, Ordering::Relaxed);
    out.line(format!("error: {message}"));
}

/// Global experiment options parsed from the command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Measured horizon, days (the paper uses a year).
    pub days: u64,
    /// Learning warm-up horizon for Foresighted, days.
    pub warmup_days: u64,
    /// Base seed.
    pub seed: u64,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Worker threads for the experiment harness (1 = serial,
    /// 0 = one per available core).
    pub jobs: usize,
    /// Directory for per-step JSONL telemetry traces (`--trace DIR`;
    /// `None` disables recording entirely).
    pub trace: Option<PathBuf>,
    /// Whether to collect and print kernel timing spans (`--timings`).
    pub timings: bool,
    /// Optional file for the span timings as criterion-shaped JSON
    /// (`--timings-json FILE`; implies `--timings`).
    pub timings_json: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            days: 365,
            warmup_days: 180,
            seed: 1,
            out_dir: PathBuf::from("results"),
            jobs: 1,
            trace: None,
            timings: false,
            timings_json: None,
        }
    }
}

impl Options {
    /// Parses `--days N`, `--warmup-days N`, `--seed N`, `--out DIR`,
    /// `--jobs N`, `--trace DIR`, `--timings`, and `--timings-json FILE`
    /// from the raw argument list, returning the remaining positional
    /// arguments.
    pub fn parse(args: &[String]) -> Result<(Options, Vec<String>), String> {
        let mut opts = Options::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut take = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match arg.as_str() {
                "--days" => {
                    opts.days = take("--days")?
                        .parse()
                        .map_err(|e| format!("--days: {e}"))?
                }
                "--warmup-days" => {
                    opts.warmup_days = take("--warmup-days")?
                        .parse()
                        .map_err(|e| format!("--warmup-days: {e}"))?
                }
                "--seed" => {
                    opts.seed = take("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--out" => opts.out_dir = PathBuf::from(take("--out")?),
                "--trace" => opts.trace = Some(PathBuf::from(take("--trace")?)),
                "--timings" => opts.timings = true,
                "--timings-json" => {
                    opts.timings_json = Some(PathBuf::from(take("--timings-json")?));
                    opts.timings = true;
                }
                "--jobs" => {
                    opts.jobs = take("--jobs")?
                        .parse()
                        .map_err(|e| format!("--jobs: {e}"))?;
                    if opts.jobs == 0 {
                        opts.jobs = std::thread::available_parallelism()
                            .map(|n| n.get())
                            .unwrap_or(1);
                    }
                }
                other => rest.push(other.to_string()),
            }
        }
        Ok((opts, rest))
    }

    /// Measured slots.
    pub fn slots(&self) -> u64 {
        self.days * 24 * 60
    }

    /// Warm-up slots.
    pub fn warmup_slots(&self) -> u64 {
        self.warmup_days * 24 * 60
    }

    /// Canonical one-line description of the run configuration, hashed into
    /// the manifest's `config_hash`. Delegates to the shared
    /// [`hbm_core::scenario`] form so CLI and `hbm-serve` keys never drift.
    pub fn config_canonical(&self, ids: &[String]) -> String {
        scenario::config_canonical_base(&ids.join("+"), self.days, self.warmup_days, self.seed)
    }
}

/// Opens a per-run JSONL trace sink at `<trace>/<name>.jsonl`, or `None`
/// when tracing is off (the untraced path costs one branch per slot).
///
/// Each run owns its own file, so `--jobs N` workers never contend and the
/// traces are byte-identical whatever the thread count.
pub fn trace_recorder(opts: &Options, name: &str) -> Option<Box<hbm_telemetry::JsonlRecorder>> {
    let dir = opts.trace.as_ref()?;
    let path = dir.join(format!("{name}.jsonl"));
    match hbm_telemetry::JsonlRecorder::create(&path) {
        Ok(rec) => Some(Box::new(rec)),
        Err(e) => {
            eprintln!("warning: cannot create trace {}: {e}", path.display());
            None
        }
    }
}

/// Buffered console output of one experiment.
///
/// Runners write here instead of stdout so experiments running on worker
/// threads don't interleave their tables; the driver flushes each buffer
/// whole, in submission order. CSV files are still written immediately
/// (each experiment owns its own files, so parallel runs don't conflict).
#[derive(Debug, Default)]
pub struct Sink {
    lines: Vec<String>,
}

impl Sink {
    /// An empty buffer.
    pub fn new() -> Self {
        Sink::default()
    }

    /// Appends one output line.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Writes the buffered lines to stdout and clears the buffer.
    pub fn flush_to_stdout(&mut self) {
        use std::io::Write;
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for line in self.lines.drain(..) {
            let _ = writeln!(out, "{line}");
        }
    }
}

/// `println!` into a [`Sink`]: `outln!(out, "fmt {}", x)` or `outln!(out)`.
#[macro_export]
macro_rules! outln {
    ($sink:expr) => { $sink.line(String::new()) };
    ($sink:expr, $($fmt:tt)*) => { $sink.line(format!($($fmt)*)) };
}

/// Writes rows as CSV into `<out>/<name>.csv` and echoes where it went.
/// A failed write is reported through [`io_error`], so the run still
/// completes its remaining experiments but exits nonzero.
pub fn write_csv(opts: &Options, out: &mut Sink, name: &str, header: &str, rows: &[String]) {
    if let Err(e) = fs::create_dir_all(&opts.out_dir) {
        io_error(
            out,
            format!("cannot create {}: {e}", opts.out_dir.display()),
        );
        return;
    }
    let path = opts.out_dir.join(format!("{name}.csv"));
    match write_rows(&path, header, rows) {
        Ok(()) => out.line(format!("  [csv] {}", path.display())),
        Err(e) => io_error(out, format!("cannot write {}: {e}", path.display())),
    }
}

fn write_rows(path: &std::path::Path, header: &str, rows: &[String]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(fs::File::create(path)?);
    writeln!(f, "{header}")?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    f.flush()
}

/// Prints a section heading.
pub fn heading(out: &mut Sink, title: &str) {
    out.line(String::new());
    out.line(format!("=== {title} ==="));
}

/// Warms up the lanes of `sims` flagged `true` through the sharded batch
/// engine and hands every simulation back in input order. Dropping the
/// warm-up run's reports performs exactly the metric reset
/// [`Simulation::warmup`] does, so each lane continues bit-identically to a
/// scalar `warmup` call (the batch determinism contract).
pub fn warmup_sims_batch(sims: Vec<(Simulation, bool)>, warmup_slots: u64) -> Vec<Simulation> {
    let mut lanes: Vec<Option<Simulation>> = Vec::with_capacity(sims.len());
    let mut warm = Vec::new();
    let mut warm_at = Vec::new();
    for (i, (sim, needs_warmup)) in sims.into_iter().enumerate() {
        if needs_warmup && warmup_slots > 0 {
            warm_at.push(i);
            warm.push(sim);
            lanes.push(None);
        } else {
            lanes.push(Some(sim));
        }
    }
    if !warm.is_empty() {
        let warmed = hbm_core::run_sharded(warm, warmup_slots).sims;
        for (i, sim) in warm_at.into_iter().zip(warmed) {
            lanes[i] = Some(sim);
        }
    }
    lanes.into_iter().map(|s| s.expect("lane")).collect()
}

/// Runs pre-built simulations through the sharded batch engine: the lanes
/// flagged `true` (learning policies) warm up together first via
/// [`warmup_sims_batch`], then every lane runs the measured horizon in
/// lockstep. Reports come back in input order, byte-identical to running
/// each simulation alone through [`scenario::run_policy`] — this is the batched
/// counterpart the flat experiment sweeps ride.
pub fn run_sims_batch(
    sims: Vec<(Simulation, bool)>,
    warmup_slots: u64,
    slots: u64,
) -> Vec<SimReport> {
    let warmed = warmup_sims_batch(sims, warmup_slots);
    hbm_core::run_sharded(warmed, slots).reports
}

/// One-line metrics summary.
pub fn summary_line(name: &str, m: &Metrics) -> String {
    format!(
        "{name:12}  attack {:5.2} h/day   emergencies {:6.3} % of time ({} events)   avg dT {:5.3} K   latency x{:4.2}   outages {}",
        m.attack_hours_per_day(),
        100.0 * m.emergency_fraction(),
        m.emergency_events,
        m.avg_delta_t().as_celsius(),
        m.mean_emergency_degradation(),
        m.outage_events,
    )
}
