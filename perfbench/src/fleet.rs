//! `fleet_myopic`: 1000 myopic lanes with distinct seeds and traces,
//! stepped through `hbm_core::run_sharded` on `--threads` shards.

use std::time::{Duration, Instant};

use hbm_core::{run_sharded, BatchSim, ColoConfig, MyopicPolicy, SimReport, Simulation};
use hbm_units::Power;

use crate::report::{LaneCheck, Report};
use crate::spans::Spans;
use crate::Args;

pub const LANES: usize = 1000;
/// Two simulated days per lane trace (wrapping): 1000 distinct traces
/// plus the batch engine's packed copy is ~46 MB, above any last-level
/// cache, as a real fleet's working set would be.
pub const TRACE_SLOTS: usize = 2 * 1440;
/// Slots per `run_sharded` call: one simulated day.
const CALL_SLOTS: u64 = 1440;
const SETUP_REPS: usize = 9;
/// Lanes re-run through the scalar engine for the output check.
const CHECKED_LANES: usize = 8;

pub fn lane_seed(seed: u64, lane: usize) -> u64 {
    seed.wrapping_mul(1_000_003)
        .wrapping_add(1 + lane as u64 * 1_299_721)
}

pub fn lane_sim(seed: u64, lane: usize) -> Simulation {
    let config = ColoConfig::paper_default().with_trace_len(TRACE_SLOTS);
    Simulation::new(
        config,
        Box::new(MyopicPolicy::new(Power::from_kilowatts(7.4))),
        lane_seed(seed, lane),
    )
}

pub fn build_fleet(seed: u64) -> Vec<Simulation> {
    (0..LANES).map(|i| lane_sim(seed, i)).collect()
}

/// Steps the fleet in `CALL_SLOTS` calls until `budget` has elapsed,
/// pushing each call's host time per fleet slot into `series` and its end,
/// in seconds since the window opened, into `<series>.at_s`.
fn step_for(
    sims: &mut Vec<Simulation>,
    budget: Duration,
    series: &str,
    report: &mut Report,
    spans: &mut Spans,
    last: &mut Vec<SimReport>,
) -> u64 {
    let started = Instant::now();
    let at = format!("{series}.at_s");
    let mut calls = 0;
    while calls == 0 || started.elapsed() < budget {
        let t0 = Instant::now();
        let run = run_sharded(std::mem::take(sims), CALL_SLOTS);
        let t1 = Instant::now();
        spans.record("fleet.run_sharded", calls, None, t0, t1, CALL_SLOTS);
        *sims = run.sims;
        *last = run.reports;
        report.push(
            series,
            "ms",
            (t1 - t0).as_secs_f64() * 1e3 / CALL_SLOTS as f64,
        );
        report.push(&at, "s", (t1 - started).as_secs_f64());
        calls += 1;
    }
    calls
}

pub fn run(args: &Args) -> (Report, Spans) {
    let mut report = Report::default();
    let mut spans = Spans::new(args.trace);

    // Set-up: build the 1000 scenarios and one batch over them.
    let mut sims = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(sims);
        let t0 = Instant::now();
        let batch = BatchSim::new(build_fleet(args.seed));
        report.push("setup_s", "s", t0.elapsed().as_secs_f64());
        sims = batch.into_sims();
    }

    let mut last = Vec::new();
    let calls = if args.trace {
        // Same loop with and without spans; the ratio is the overhead.
        let half = args.seconds / 2;
        let mut off = Spans::new(false);
        let a = step_for(&mut sims, half, "op_ms", &mut report, &mut off, &mut last);
        a + step_for(
            &mut sims,
            half,
            "op_ms_traced",
            &mut report,
            &mut spans,
            &mut last,
        )
    } else {
        step_for(
            &mut sims,
            args.seconds,
            "op_ms",
            &mut report,
            &mut spans,
            &mut last,
        )
    };
    report.ops = calls;
    report.value("lanes", "count", LANES as f64);

    // Check (untimed): spread-out lanes re-run through the scalar engine,
    // with the same metric resets, must match the batch bit for bit.
    let stride = LANES / CHECKED_LANES;
    for k in 0..CHECKED_LANES {
        let lane = k * stride + (args.seed as usize % stride);
        let mut sim = lane_sim(args.seed, lane);
        sim.run((calls - 1) * CALL_SLOTS);
        sim.take_report();
        let scalar = sim.run(CALL_SLOTS);
        report.lanes.push(LaneCheck {
            lane,
            batch: format!("{:?}", last[lane].metrics),
            scalar: format!("{:?}", scalar.metrics),
        });
    }
    (report, spans)
}
