//! Bit-identity of the zone integrator's fixed-point skip.
//!
//! `hbm_thermal::ZoneModel::step` and `ZoneLanes::step_all` stop computing a
//! slot's sub-steps once one leaves the inlet bit-identical. The oracle is
//! the full-schedule loop they replaced
//! (`hbm_bench::full_schedule::FullScheduleZone`), which computes every
//! sub-step. Cases cover inlets at supply, one ulp above it, mid-transient
//! and above the derate onset; loads of zero, below, at, a hair above and
//! well above capacity; step lengths below, at and off a multiple of the
//! 5 s sub-step; and random cooling parameters. Pull-down tails shrink the
//! per-sub-step change through every magnitude down to zero, so a rule that
//! skipped on a merely *small* change would diverge here.
//!
//! A rule that also skipped the final, shorter sub-step of a slot would
//! pass these cases: rounding is monotone, so a fixed point at `h` is one at
//! every shorter `h` too. The schedule unit test in `hbm_thermal::zone` and
//! the span-unit test pin that the shorter sub-step is still computed.

use hbm_bench::full_schedule::FullScheduleZone;
use hbm_thermal::{CoolingSystem, ZoneLanes, ZoneModel};
use hbm_units::{Duration, Power, Temperature};
use proptest::prelude::*;

/// One step of a generated sequence: `(load kind, load fraction, dt kind,
/// random dt in seconds)`.
type StepSpec = (usize, f64, usize, f64);

fn step_sequence() -> impl Strategy<Value = Vec<StepSpec>> {
    prop::collection::vec((0usize..6, 0.0..1.0f64, 0usize..5, 0.5..180.0f64), 1..80)
}

/// The IT load of one step, relative to the nameplate capacity.
fn load_watts(capacity_w: f64, kind: usize, frac: f64) -> f64 {
    match kind {
        0 => 0.0,
        1 => capacity_w * 0.999 * frac,
        2 => capacity_w,
        // A hair over capacity: sub-step changes of 1e-11..1e-7 K.
        3 => capacity_w + 1e-3 * frac,
        4 => capacity_w * (1.0 + 0.5 * frac),
        // Below capacity again, so runs of these settle back to supply.
        _ => capacity_w * (0.5 + 0.4 * frac),
    }
}

/// The length of one step: whole slot, exact multiple of the sub-step,
/// shorter than one sub-step, arbitrary, and a slot plus a half sub-step.
fn step_seconds(kind: usize, random_s: f64) -> f64 {
    match kind {
        0 => 60.0,
        1 => 15.0,
        2 => random_s / 40.0,
        3 => random_s,
        _ => 62.5,
    }
}

/// The starting inlet: at supply, one and a few ulps above it, somewhere
/// above it, or above the derate onset.
fn start_inlet(cooling: &CoolingSystem, kind: usize, offset_k: f64) -> Temperature {
    let supply = cooling.supply.as_celsius();
    Temperature::from_celsius(match kind {
        0 => supply,
        1 => f64::from_bits(supply.to_bits() + 1),
        2 => f64::from_bits(supply.to_bits() + 7),
        3 => supply + offset_k,
        _ => cooling.derate_onset.as_celsius() + offset_k,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn zone_step_matches_full_schedule_oracle(
        plant in (1_000.0..20_000.0f64, 15.0..30.0f64, 0.0..10.0f64, 0.0..0.2f64, 0.0..1.0f64),
        heat_capacity in 5_000.0..80_000.0f64,
        pulldown in 50.0..20_000.0f64,
        start in (0usize..5, 0.0..12.0f64),
        steps in step_sequence(),
    ) {
        let (capacity_w, supply_c, onset_margin, derate, min_fraction) = plant;
        let cooling = CoolingSystem {
            capacity: Power::from_watts(capacity_w),
            supply: Temperature::from_celsius(supply_c),
            derate_onset: Temperature::from_celsius(supply_c + onset_margin),
            derate_per_kelvin: derate,
            min_capacity_fraction: min_fraction,
        };
        let mut zone = ZoneModel::new(cooling, heat_capacity, pulldown);
        let mut oracle = FullScheduleZone::new(cooling, heat_capacity, pulldown);
        let inlet = start_inlet(&cooling, start.0, start.1);
        zone.set_inlet(inlet);
        oracle.set_inlet(inlet);
        prop_assert_eq!(zone.inlet().as_celsius().to_bits(), oracle.inlet().as_celsius().to_bits());

        for (k, &(load_kind, frac, dt_kind, random_s)) in steps.iter().enumerate() {
            let load = Power::from_watts(load_watts(capacity_w, load_kind, frac));
            let dt = Duration::from_seconds(step_seconds(dt_kind, random_s));
            let got = zone.step(load, dt);
            let want = oracle.step(load, dt);
            prop_assert_eq!(
                got.as_celsius().to_bits(),
                want.as_celsius().to_bits(),
                "step {}: {} W for {} s gave {} °C, oracle {} °C",
                k,
                load.as_watts(),
                dt.as_seconds(),
                got.as_celsius(),
                want.as_celsius()
            );
        }
    }
}

/// A zone in the middle of a slow pull-down changes by less than any small
/// threshold long before it stops changing; every one of those sub-steps
/// must still be computed.
#[test]
fn pull_down_tail_matches_oracle_to_the_last_ulp() {
    let cooling = CoolingSystem::paper_default();
    let mut zone = ZoneModel::paper_default();
    let mut oracle = FullScheduleZone::new(cooling, 40_000.0, 700.0);
    let minute = Duration::from_minutes(1.0);
    zone.step(Power::from_kilowatts(10.0), Duration::from_minutes(3.0));
    oracle.step(Power::from_kilowatts(10.0), Duration::from_minutes(3.0));
    let mut previous = None;
    let mut settled = None;
    for k in 0..80 {
        let got = zone.step(Power::from_kilowatts(6.0), minute);
        let want = oracle.step(Power::from_kilowatts(6.0), minute);
        assert_eq!(
            got.as_celsius().to_bits(),
            want.as_celsius().to_bits(),
            "slot {k}: {got} vs oracle {want}"
        );
        let bits = got.as_celsius().to_bits();
        if settled.is_none() && previous == Some(bits) {
            settled = Some(bits);
        }
        previous = Some(bits);
    }
    // The tail ends within a few ulps of supply, where a sub-step's change
    // rounds away: that is the state most idle slots of a year-long run
    // start from.
    let bits = settled.expect("the pull-down never settled");
    let supply = cooling.supply.as_celsius().to_bits();
    assert!(
        bits >= supply && bits - supply < 64,
        "settled {} ulps above supply",
        bits - supply
    );
}

/// `ZoneLanes::step_all` skips per 256-lane cache block, `ZoneModel::step`
/// per zone: every lane must still match its own scalar zone and the
/// full-schedule oracle. Three blocks (the last one partial):
///
/// * block 0 mixes lanes at rest with moving lanes in every slot;
/// * block 1 settles partway through the first slot (its pull-down
///   overshoots, so every lane is clamped to supply by the first
///   sub-step), then rests until one of its lanes is overloaded alone;
/// * block 2 is overloaded, then pulls down together through ever smaller
///   changes until it rests, then cycles lanes through idle, underload and
///   overload at different phases.
///
/// Every tenth slot is 62.5 s long and every tenth 3 s.
#[test]
fn lanes_match_scalar_zones_and_oracle_across_blocks() {
    const LANES: usize = 700;
    let mut zones = Vec::with_capacity(LANES);
    let mut oracles = Vec::with_capacity(LANES);
    for lane in 0..LANES {
        let cooling = CoolingSystem::paper_default()
            .with_capacity(Power::from_watts(7_000.0 + (lane % 7) as f64 * 250.0));
        let (heat_capacity, pulldown, rise) = match lane / 256 {
            0 => (40_000.0, 700.0, 0.0),
            1 => (
                40_000.0,
                10_000.0 + lane as f64,
                0.05 + 0.02 * (lane % 5) as f64,
            ),
            _ => (
                30_000.0 + (lane % 3) as f64 * 5_000.0,
                600.0,
                (lane % 4) as f64,
            ),
        };
        let mut zone = ZoneModel::new(cooling, heat_capacity, pulldown);
        let mut oracle = FullScheduleZone::new(cooling, heat_capacity, pulldown);
        let inlet = Temperature::from_celsius(27.0 + rise);
        zone.set_inlet(inlet);
        oracle.set_inlet(inlet);
        zones.push(zone);
        oracles.push(oracle);
    }
    let mut lanes = ZoneLanes::from_models(&zones);

    let mut loads = vec![0.0; LANES];
    for slot in 0..60usize {
        for (lane, load) in loads.iter_mut().enumerate() {
            let capacity = zones[lane].cooling().capacity.as_watts();
            *load = match lane / 256 {
                0 if lane % 2 == 0 => 0.6 * capacity,
                0 => capacity + 300.0 * ((lane + slot) % 3) as f64,
                1 if lane == 300 && (20..26).contains(&slot) => capacity + 1_500.0,
                1 => 0.8 * capacity,
                _ if slot < 3 => capacity + 100.0 * (lane % 9) as f64,
                _ if slot < 50 => 0.08 * (lane % 8) as f64 * capacity,
                _ => match (lane + slot) % 8 {
                    0 | 1 => 0.0,
                    2..=4 => 0.7 * capacity,
                    _ => capacity + 400.0,
                },
            };
        }
        let dt = Duration::from_seconds(match slot % 10 {
            7 => 62.5,
            9 => 3.0,
            _ => 60.0,
        });
        lanes.step_all(&loads, dt);
        for lane in 0..LANES {
            let got = lanes.inlet_celsius()[lane].to_bits();
            let scalar = zones[lane].step(Power::from_watts(loads[lane]), dt);
            let want = oracles[lane].step(Power::from_watts(loads[lane]), dt);
            assert_eq!(
                scalar.as_celsius().to_bits(),
                want.as_celsius().to_bits(),
                "lane {lane} slot {slot}: scalar zone left the oracle"
            );
            assert_eq!(
                got,
                want.as_celsius().to_bits(),
                "lane {lane} slot {slot}: lanes {} vs oracle {}",
                f64::from_bits(got),
                want.as_celsius()
            );
        }
    }
}
