//! The `zone.step` and `batch.zone` spans count computed sub-steps, so their
//! cost per unit stays a per-sub-step cost when the zone integrator skips
//! the sub-steps after a bitwise fixed point. This file is its own test
//! binary, so no other test records into the process-wide span registry
//! while it runs.

use hbm_telemetry::timing;
use hbm_thermal::{ZoneLanes, ZoneModel};
use hbm_units::{Duration, Power};

fn units_of(name: &str) -> u64 {
    timing::timing_report()
        .iter()
        .find(|s| s.name == name)
        .map_or(0, |s| s.units)
}

#[test]
fn spans_count_computed_substeps() {
    timing::set_timings_enabled(true);
    let minute = Duration::from_minutes(1.0);

    // At supply and below capacity, the first sub-step is a fixed point and
    // the other eleven are skipped. An overload moves the inlet in all twelve.
    timing::reset_timings();
    let mut zone = ZoneModel::paper_default();
    zone.step(Power::from_kilowatts(6.0), minute);
    assert_eq!(units_of("zone.step"), 1);
    zone.step(Power::from_kilowatts(8.5), minute);
    assert_eq!(units_of("zone.step"), 13);
    // A 62.5 s step at rest still computes its final 2.5 s sub-step.
    let mut rested = ZoneModel::paper_default();
    rested.step(Power::ZERO, Duration::from_seconds(62.5));
    assert_eq!(units_of("zone.step"), 15);

    // Lanes skip per 256-lane block: a block of 256 lanes at rest computes
    // one sweep, a partial block with one overloaded lane computes all twelve.
    timing::reset_timings();
    let mut lanes = ZoneLanes::from_models(&vec![ZoneModel::paper_default(); 300]);
    let mut loads = vec![6_000.0; 300];
    loads[299] = 8_500.0;
    lanes.step_all(&loads, minute);
    assert_eq!(units_of("batch.zone"), 256 + 12 * 44);
    timing::set_timings_enabled(false);
}
