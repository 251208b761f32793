//! Lumped-capacitance zone model of the contained container air.

use hbm_units::{Duration, Power, Temperature, TemperatureDelta};

use crate::CoolingSystem;

/// Fast single-zone thermal model used for year-long simulations.
///
/// With hot/cold-aisle containment all servers see (approximately) one inlet
/// temperature, so the container air can be treated as a single thermal mass
/// `C_th`:
///
/// ```text
/// C_th · dT/dt = P_it − Q_cool(T, P_it)
/// Q_cool = min(effective_capacity(T), P_it + G·(T − T_sup)⁺)
/// ```
///
/// * While `P_it` is below capacity the AC removes all server heat **plus**
///   up to `G·(T − T_sup)` of stored heat, pulling the inlet back to the
///   setpoint within minutes.
/// * While `P_it` exceeds the (possibly derated) capacity the surplus
///   integrates into the air mass, raising the inlet.
/// * The inlet never drops below the supply setpoint.
///
/// Default calibration: `C_th = 40 kJ/K` (≈ container air plus light
/// structure), so 1 kW of overload raises the inlet by the 5 K emergency
/// margin in 200 s — within the "< 4 minutes" the paper reports (Fig. 11a) —
/// and `G = 700 W/K`, consistent with the CFD model's loop airflow
/// (`ṁ·c_p ≈ 0.68 kW/K`), a ≈60 s pull-down time constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneModel {
    cooling: CoolingSystem,
    /// Thermal capacitance of the zone air, J/K.
    heat_capacity_j_per_k: f64,
    /// Pull-down conductance, W/K.
    pulldown_w_per_k: f64,
    /// Integration sub-step.
    substep: Duration,
    inlet: Temperature,
}

impl ZoneModel {
    /// Creates a zone model at thermal equilibrium (inlet = supply).
    ///
    /// # Panics
    ///
    /// Panics if `cooling` fails validation or parameters are non-positive.
    pub fn new(cooling: CoolingSystem, heat_capacity_j_per_k: f64, pulldown_w_per_k: f64) -> Self {
        cooling.validate().expect("invalid cooling system");
        assert!(
            heat_capacity_j_per_k > 0.0 && heat_capacity_j_per_k.is_finite(),
            "heat capacity must be positive"
        );
        assert!(
            pulldown_w_per_k > 0.0 && pulldown_w_per_k.is_finite(),
            "pull-down conductance must be positive"
        );
        ZoneModel {
            cooling,
            heat_capacity_j_per_k,
            pulldown_w_per_k,
            substep: Duration::from_seconds(5.0),
            inlet: cooling.supply,
        }
    }

    /// The paper-calibrated 8 kW container.
    pub fn paper_default() -> Self {
        ZoneModel::new(CoolingSystem::paper_default(), 40_000.0, 700.0)
    }

    /// The scaled-down 14-server prototype of Appendix A (3 kW cooling),
    /// with a smaller sealed-room air mass.
    pub fn prototype() -> Self {
        ZoneModel::new(CoolingSystem::prototype(), 25_000.0, 150.0)
    }

    /// The cooling plant in use.
    pub fn cooling(&self) -> &CoolingSystem {
        &self.cooling
    }

    /// Current server inlet temperature.
    pub fn inlet(&self) -> Temperature {
        self.inlet
    }

    /// Inlet rise above the supply setpoint.
    pub fn rise(&self) -> TemperatureDelta {
        (self.inlet - self.cooling.supply).positive_part()
    }

    /// Resets the inlet to a given temperature (e.g. after an outage).
    pub fn set_inlet(&mut self, inlet: Temperature) {
        assert!(inlet.is_finite(), "inlet temperature must be finite");
        self.inlet = inlet.max(self.cooling.supply);
    }

    /// Advances the model by `dt` with a constant IT (heat) load, returning
    /// the inlet temperature at the end of the step.
    ///
    /// Integrates internally with sub-steps for stability; `dt` can be a full
    /// 1-minute simulation slot. Once a sub-step leaves the inlet
    /// bit-identical, the rest of the slot's equal-length sub-steps are
    /// skipped (see `run_substeps`); the result is unchanged. Emits the
    /// `zone.step` telemetry span with one unit per computed sub-step.
    ///
    /// # Panics
    ///
    /// Panics if `it_load` is negative or `dt` is non-positive.
    pub fn step(&mut self, it_load: Power, dt: Duration) -> Temperature {
        assert!(it_load >= Power::ZERO, "IT load must be non-negative");
        assert!(dt > Duration::ZERO, "step duration must be positive");
        let started = hbm_telemetry::timing::start();
        let load_w = it_load.as_watts();
        let substeps = run_substeps(dt.as_seconds(), self.substep.as_seconds(), |h| {
            let before = self.inlet.as_celsius();
            let after = substep_inlet_celsius(
                before,
                load_w,
                h,
                self.cooling.capacity.as_watts(),
                self.cooling.supply.as_celsius(),
                self.cooling.derate_onset.as_celsius(),
                self.cooling.derate_per_kelvin,
                self.cooling.min_capacity_fraction,
                self.heat_capacity_j_per_k,
                self.pulldown_w_per_k,
            );
            self.inlet = Temperature::from_celsius(after);
            after.to_bits() != before.to_bits()
        });
        hbm_telemetry::timing::record_span_units("zone.step", started, substeps);
        self.inlet
    }

    /// Analytic time for the inlet to rise from the supply setpoint to
    /// `threshold` under a constant cooling `overload` (heat beyond
    /// capacity), ignoring derating. Used as the Fig. 11(a) reference curve.
    ///
    /// # Panics
    ///
    /// Panics if `overload` is non-positive.
    pub fn time_to_reach(&self, threshold: Temperature, overload: Power) -> Duration {
        assert!(overload > Power::ZERO, "overload must be positive");
        let margin = (threshold - self.cooling.supply)
            .positive_part()
            .as_celsius();
        Duration::from_seconds(self.heat_capacity_j_per_k * margin / overload.as_watts())
    }

    /// Like [`ZoneModel::time_to_reach`] but starting from a given inlet
    /// temperature (the Fig. 11a "already running hotter" curves).
    ///
    /// # Panics
    ///
    /// Panics if `overload` is non-positive.
    pub fn time_to_reach_from(
        &self,
        start: Temperature,
        threshold: Temperature,
        overload: Power,
    ) -> Duration {
        assert!(overload > Power::ZERO, "overload must be positive");
        let margin = (threshold - start).positive_part().as_celsius();
        Duration::from_seconds(self.heat_capacity_j_per_k * margin / overload.as_watts())
    }
}

/// Runs the sub-step schedule of one step of `dt_s` seconds: sub-steps of
/// `h = remaining.min(substep_s)` until `remaining` is spent. `sweep(h)`
/// advances the state by one sub-step and returns whether any inlet changed
/// its bits. Returns the number of sweeps computed.
///
/// This is the one place the fixed-point rule lives, for both
/// [`ZoneModel::step`] and [`ZoneLanes::step_all`]. The sub-step kernel is a
/// pure function of `(inlet, load, h, params)`, so once a sweep leaves every
/// inlet bit-identical, every later sweep with the same `h` would too: those
/// are skipped. The schedule itself still runs in full, so a final partial
/// `h` (a `dt` that is not a multiple of the sub-step) is still computed.
#[inline(always)]
fn run_substeps(dt_s: f64, substep_s: f64, mut sweep: impl FnMut(f64) -> bool) -> u64 {
    let mut computed = 0;
    let mut remaining = dt_s;
    // The `h` of a sweep that moved nothing; NaN (equal to no `h`) until then.
    let mut at_rest_h = f64::NAN;
    while remaining > 0.0 {
        let h = remaining.min(substep_s);
        if h.to_bits() != at_rest_h.to_bits() {
            computed += 1;
            if !sweep(h) {
                at_rest_h = h;
            }
        }
        remaining -= h;
    }
    computed
}

/// One explicit-Euler sub-step of the lumped-capacitance zone ODE, on raw
/// `f64` state.
///
/// This is the single source of truth for the zone dynamics: both
/// [`ZoneModel::step`] (scalar, one container) and [`ZoneLanes::step_all`]
/// (SoA, a whole batch of containers) call it, so the two paths apply
/// exactly the same IEEE-754 operation sequence and stay bit-identical. The
/// body is branch-free element-wise arithmetic (`max`/`min` compile to SIMD
/// min/max), which is what lets the batch loop auto-vectorize.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn substep_inlet_celsius(
    inlet_c: f64,
    it_load_w: f64,
    h: f64,
    capacity_w: f64,
    supply_c: f64,
    derate_onset_c: f64,
    derate_per_kelvin: f64,
    min_capacity_fraction: f64,
    heat_capacity_j_per_k: f64,
    pulldown_w_per_k: f64,
) -> f64 {
    let excess = (inlet_c - derate_onset_c).max(0.0);
    let fraction = (1.0 - derate_per_kelvin * excess).max(min_capacity_fraction);
    let capacity = capacity_w * fraction;
    let rise = (inlet_c - supply_c).max(0.0);
    let removable = it_load_w + pulldown_w_per_k * rise;
    let q_cool = removable.min(capacity);
    let net = it_load_w - q_cool; // may be negative (cooling down)
    let delta = net * h / heat_capacity_j_per_k;
    (inlet_c + delta).max(supply_c)
}

/// Structure-of-arrays batch of zone models advanced in lockstep.
///
/// Each lane is one container's lumped-capacitance model; lanes are fully
/// independent and may carry different cooling plants and calibrations. All
/// per-lane state and parameters live in contiguous `f64` arrays so the
/// sub-step sweep in [`step_all`](Self::step_all) is a tight vectorizable
/// loop over the batch dimension instead of pointer-chasing `ZoneModel`
/// structs.
///
/// Lane `i` evolves bit-identically to a standalone [`ZoneModel`] given the
/// same load sequence: both call the same sub-step kernel, and lanes do not
/// interact.
#[derive(Debug, Clone, Default)]
pub struct ZoneLanes {
    inlet_c: Vec<f64>,
    capacity_w: Vec<f64>,
    supply_c: Vec<f64>,
    derate_onset_c: Vec<f64>,
    derate_per_kelvin: Vec<f64>,
    min_capacity_fraction: Vec<f64>,
    heat_capacity_j_per_k: Vec<f64>,
    pulldown_w_per_k: Vec<f64>,
    substep_s: f64,
}

impl ZoneLanes {
    /// Creates an empty batch.
    pub fn new() -> Self {
        ZoneLanes::default()
    }

    /// Appends one lane initialized from `model` (parameters and current
    /// inlet temperature are copied).
    pub fn push(&mut self, model: &ZoneModel) {
        if self.inlet_c.is_empty() {
            self.substep_s = model.substep.as_seconds();
        } else {
            assert_eq!(
                self.substep_s,
                model.substep.as_seconds(),
                "all lanes must share the integration sub-step"
            );
        }
        self.inlet_c.push(model.inlet.as_celsius());
        self.capacity_w.push(model.cooling.capacity.as_watts());
        self.supply_c.push(model.cooling.supply.as_celsius());
        self.derate_onset_c
            .push(model.cooling.derate_onset.as_celsius());
        self.derate_per_kelvin.push(model.cooling.derate_per_kelvin);
        self.min_capacity_fraction
            .push(model.cooling.min_capacity_fraction);
        self.heat_capacity_j_per_k.push(model.heat_capacity_j_per_k);
        self.pulldown_w_per_k.push(model.pulldown_w_per_k);
    }

    /// Builds a batch from a slice of zone models.
    pub fn from_models(models: &[ZoneModel]) -> Self {
        let mut lanes = ZoneLanes::new();
        for model in models {
            lanes.push(model);
        }
        lanes
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.inlet_c.len()
    }

    /// Whether the batch has no lanes.
    pub fn is_empty(&self) -> bool {
        self.inlet_c.is_empty()
    }

    /// Per-lane inlet temperatures, °C.
    pub fn inlet_celsius(&self) -> &[f64] {
        &self.inlet_c
    }

    /// Per-lane supply setpoints, °C.
    pub fn supply_celsius(&self) -> &[f64] {
        &self.supply_c
    }

    /// Inlet temperature of one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn inlet(&self, lane: usize) -> Temperature {
        Temperature::from_celsius(self.inlet_c[lane])
    }

    /// Advances every lane by `dt` with its constant IT load from
    /// `it_loads_w` (watts, one entry per lane), sub-stepping exactly like
    /// [`ZoneModel::step`]. A cache block of lanes skips the rest of the
    /// slot's equal-length sub-steps once one sweep leaves all its inlets
    /// bit-identical (see `run_substeps`). Emits the `batch.zone`
    /// telemetry span with one unit per computed lane-sub-step.
    ///
    /// # Panics
    ///
    /// Panics if `it_loads_w` length differs from the lane count or `dt` is
    /// non-positive.
    pub fn step_all(&mut self, it_loads_w: &[f64], dt: Duration) {
        assert_eq!(it_loads_w.len(), self.len(), "one IT load per lane");
        assert!(dt > Duration::ZERO, "step duration must be positive");
        let started = hbm_telemetry::timing::start();
        // Cache-blocked loop nest: a slot integrates many sub-steps, and one
        // full-batch sweep touches nine f64 columns — far more than L1. Runs
        // all sub-steps over one block of lanes before moving on, so a
        // block's columns (9 × BLOCK × 8 B ≈ 18 KiB) stay cache-hot for the
        // whole slot. Lanes are independent, so the per-lane arithmetic (and
        // the sub-step schedule `h = remaining.min(substep_s)`) is exactly
        // the sweep order's — results are bit-identical.
        const BLOCK: usize = 256;
        let mut lane_substeps: u64 = 0;
        let mut start = 0;
        while start < self.len() {
            let end = (start + BLOCK).min(self.len());
            let sweeps = run_substeps(dt.as_seconds(), self.substep_s, |h| {
                // Zipped iteration (rather than indexing nine separate
                // `Vec`s) lets the compiler drop the per-access bounds
                // checks and keep the branch-free kernel vectorized over the
                // lane dimension; the XOR/OR of the old and new bits is
                // branch-free too.
                let lanes = self.inlet_c[start..end]
                    .iter_mut()
                    .zip(&it_loads_w[start..end])
                    .zip(&self.capacity_w[start..end])
                    .zip(&self.supply_c[start..end])
                    .zip(&self.derate_onset_c[start..end])
                    .zip(&self.derate_per_kelvin[start..end])
                    .zip(&self.min_capacity_fraction[start..end])
                    .zip(&self.heat_capacity_j_per_k[start..end])
                    .zip(&self.pulldown_w_per_k[start..end]);
                let mut moved = 0u64;
                for ((((((((inlet, &load), &cap), &sup), &onset), &dpk), &minf), &hc), &pwk) in
                    lanes
                {
                    let after =
                        substep_inlet_celsius(*inlet, load, h, cap, sup, onset, dpk, minf, hc, pwk);
                    moved |= after.to_bits() ^ inlet.to_bits();
                    *inlet = after;
                }
                moved != 0
            });
            lane_substeps += sweeps * (end - start) as u64;
            start = end;
        }
        hbm_telemetry::timing::record_span_units("batch.zone", started, lane_substeps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minutes_until(zone: &mut ZoneModel, load: Power, threshold: Temperature) -> f64 {
        let step = Duration::from_seconds(5.0);
        let mut t = 0.0;
        while zone.inlet() < threshold {
            zone.step(load, step);
            t += 5.0 / 60.0;
            assert!(t < 120.0, "never reached {threshold}");
        }
        t
    }

    #[test]
    fn equilibrium_below_capacity() {
        let mut zone = ZoneModel::paper_default();
        for _ in 0..60 {
            zone.step(Power::from_kilowatts(6.0), Duration::from_minutes(1.0));
        }
        assert_eq!(zone.inlet(), Temperature::from_celsius(27.0));
    }

    #[test]
    fn one_kilowatt_overload_crosses_32c_within_four_minutes() {
        let mut zone = ZoneModel::paper_default();
        let t = minutes_until(
            &mut zone,
            Power::from_kilowatts(9.0),
            Temperature::from_celsius(32.0),
        );
        assert!((2.0..4.0).contains(&t), "crossed in {t} min");
    }

    #[test]
    fn bigger_overload_is_faster() {
        let t1 = minutes_until(
            &mut ZoneModel::paper_default(),
            Power::from_kilowatts(8.5),
            Temperature::from_celsius(32.0),
        );
        let t2 = minutes_until(
            &mut ZoneModel::paper_default(),
            Power::from_kilowatts(10.0),
            Temperature::from_celsius(32.0),
        );
        assert!(t2 < t1);
    }

    #[test]
    fn recovers_to_setpoint_after_overload() {
        let mut zone = ZoneModel::paper_default();
        zone.step(Power::from_kilowatts(10.0), Duration::from_minutes(2.5));
        assert!(zone.inlet() > Temperature::from_celsius(31.0));
        // Drop to a light load; should pull back to 27 °C within ~10 min.
        for _ in 0..10 {
            zone.step(Power::from_kilowatts(4.0), Duration::from_minutes(1.0));
        }
        assert!(zone.inlet() < Temperature::from_celsius(27.5));
    }

    #[test]
    fn never_cools_below_supply() {
        let mut zone = ZoneModel::paper_default();
        for _ in 0..100 {
            zone.step(Power::ZERO, Duration::from_minutes(1.0));
            assert!(zone.inlet() >= Temperature::from_celsius(27.0));
        }
    }

    #[test]
    fn derating_produces_runaway_under_sustained_overload() {
        // Total heat just above nameplate: once hot, derating makes the
        // effective overload grow, so the inlet should reach the 45 °C
        // shutdown limit rather than plateau.
        let mut zone = ZoneModel::paper_default();
        zone.step(Power::from_kilowatts(10.3), Duration::from_minutes(4.0));
        let t = minutes_until(
            &mut zone,
            Power::from_kilowatts(8.2),
            Temperature::from_celsius(45.0),
        );
        assert!(t < 30.0, "runaway took {t} min");
    }

    #[test]
    fn analytic_time_matches_simulation() {
        let zone = ZoneModel::paper_default();
        let analytic = zone
            .time_to_reach(Temperature::from_celsius(32.0), Power::from_kilowatts(1.0))
            .as_minutes();
        let simulated = minutes_until(
            &mut ZoneModel::paper_default(),
            Power::from_kilowatts(9.0),
            Temperature::from_celsius(32.0),
        );
        assert!(
            (analytic - simulated).abs() < 0.3,
            "analytic {analytic} vs simulated {simulated}"
        );
    }

    #[test]
    fn hotter_start_reaches_threshold_sooner() {
        let zone = ZoneModel::paper_default();
        let from_27 = zone.time_to_reach_from(
            Temperature::from_celsius(27.0),
            Temperature::from_celsius(32.0),
            Power::from_kilowatts(1.0),
        );
        let from_29 = zone.time_to_reach_from(
            Temperature::from_celsius(29.0),
            Temperature::from_celsius(32.0),
            Power::from_kilowatts(1.0),
        );
        assert!(from_29 < from_27);
    }

    #[test]
    fn lanes_match_scalar_models_bitwise() {
        let mut models = vec![
            ZoneModel::paper_default(),
            ZoneModel::prototype(),
            ZoneModel::new(
                CoolingSystem::paper_default().with_capacity(Power::from_kilowatts(9.5)),
                35_000.0,
                600.0,
            ),
        ];
        let mut lanes = ZoneLanes::from_models(&models);
        let dt = Duration::from_minutes(1.0);
        for k in 0..200u64 {
            // Mix of overload, underload and idle, different per lane.
            let loads: Vec<f64> = (0..models.len())
                .map(|i| ((k + i as u64) % 5) as f64 * 2_500.0)
                .collect();
            for (model, &w) in models.iter_mut().zip(loads.iter()) {
                model.step(Power::from_watts(w), dt);
            }
            lanes.step_all(&loads, dt);
            for (i, model) in models.iter().enumerate() {
                assert_eq!(
                    lanes.inlet_celsius()[i].to_bits(),
                    model.inlet().as_celsius().to_bits(),
                    "lane {i} diverged at slot {k}"
                );
            }
        }
    }

    #[test]
    fn lanes_expose_supply_and_inlet() {
        let lanes = ZoneLanes::from_models(&[ZoneModel::paper_default()]);
        assert_eq!(lanes.len(), 1);
        assert!(!lanes.is_empty());
        assert_eq!(lanes.supply_celsius(), &[27.0]);
        assert_eq!(lanes.inlet(0), Temperature::from_celsius(27.0));
    }

    /// The `h` of every sweep `run_substeps` computes when the sweep moves
    /// the state for its first `moving` calls and then rests.
    fn computed_schedule(dt_s: f64, moving: usize) -> Vec<f64> {
        let mut hs = Vec::new();
        let computed = run_substeps(dt_s, 5.0, |h| {
            hs.push(h);
            hs.len() <= moving
        });
        assert_eq!(computed, hs.len() as u64);
        hs
    }

    #[test]
    fn schedule_skips_only_equal_length_substeps_after_a_fixed_point() {
        assert_eq!(computed_schedule(60.0, usize::MAX), vec![5.0; 12]);
        assert_eq!(computed_schedule(60.0, 0), vec![5.0]);
        assert_eq!(computed_schedule(60.0, 3), vec![5.0; 4]);
        assert_eq!(computed_schedule(3.0, 0), vec![3.0]);
        // The final partial sub-step has a different `h`, so it is computed
        // even after the full-length ones came to rest.
        assert_eq!(computed_schedule(62.5, 0), vec![5.0, 2.5]);
        assert_eq!(computed_schedule(12.5, 1), vec![5.0, 5.0, 2.5]);
        let mut full = vec![5.0; 12];
        full.push(2.5);
        assert_eq!(computed_schedule(62.5, usize::MAX), full);
    }

    #[test]
    fn step_is_substep_invariant() {
        let mut coarse = ZoneModel::paper_default();
        let mut fine = ZoneModel::paper_default();
        coarse.step(Power::from_kilowatts(9.5), Duration::from_minutes(3.0));
        for _ in 0..36 {
            fine.step(Power::from_kilowatts(9.5), Duration::from_seconds(5.0));
        }
        assert!(
            (coarse.inlet() - fine.inlet()).abs() < TemperatureDelta::from_celsius(0.01),
            "coarse {} vs fine {}",
            coarse.inlet(),
            fine.inlet()
        );
    }
}
