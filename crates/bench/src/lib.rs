//! Criterion benchmark harness for the paper's tables and figures.
//!
//! Besides the (empty) crate root, this library carries three reference
//! implementations kept verbatim as benchmark baselines and equivalence
//! oracles for the optimized kernels in `hbm-thermal`:
//!
//! * [`nested`] — the pre-optimization `Vec<Vec<f64>>` CFD-lite kernel;
//! * [`gather`] — the pre-scatter heat-matrix convolution that re-summed
//!   `receivers × lags × sources` every step;
//! * [`full_schedule`] — the zone model integrator that computed every
//!   sub-step of a slot, before the fixed-point skip.
#![forbid(unsafe_code)]

pub mod gather {
    //! The original gather-convolution heat-matrix kernel, kept verbatim
    //! (minus the API it doesn't need) as the benchmark baseline and
    //! equivalence oracle for `hbm_thermal::HeatMatrixModel`'s
    //! scatter-on-arrival rewrite. Do not optimize this copy.
    //!
    //! The two kernels evaluate the same convolution in different summation
    //! orders (gather: newest age first; scatter: arrival order), so
    //! equivalence is asserted at 1e-9, not bit-for-bit — the policy is
    //! documented in `docs/PERFORMANCE.md`.

    use hbm_thermal::{HeatMatrix, HeatMatrixModel};
    use hbm_units::Power;

    /// Linear-superposition model evaluated with the pre-rewrite per-step
    /// gather: every step re-sums all `filled` history ages for every
    /// receiver.
    #[derive(Debug, Clone)]
    pub struct GatherHeatMatrixModel {
        matrix: HeatMatrix,
        /// The matrix's responses transposed to `[receiver][lag][source]`,
        /// so the convolution's inner (source) loop walks contiguous memory.
        resp_by_receiver: Vec<f64>,
        baseline_powers: Vec<Power>,
        baseline_inlets: Vec<f64>,
        supply_celsius: f64,
        /// Ring buffer of power deviations, `lags × servers` watts; slot
        /// `head` holds the newest step, ages increase from there.
        history: Vec<f64>,
        /// Ring slot of the newest deviation.
        head: usize,
        /// Number of valid history steps (≤ lag count).
        filled: usize,
    }

    impl GatherHeatMatrixModel {
        /// Creates the reference model around an operating point.
        ///
        /// # Panics
        ///
        /// Panics if vector lengths mismatch the matrix.
        pub fn new(
            matrix: HeatMatrix,
            baseline_powers: Vec<Power>,
            baseline_inlets: Vec<f64>,
            supply_celsius: f64,
        ) -> Self {
            let n = matrix.server_count();
            let lags = matrix.lag_count();
            assert_eq!(baseline_powers.len(), n);
            assert_eq!(baseline_inlets.len(), n);
            let mut resp_by_receiver = vec![0.0; n * n * lags];
            for source in 0..n {
                for receiver in 0..n {
                    for lag in 0..lags {
                        resp_by_receiver[(receiver * lags + lag) * n + source] =
                            matrix.response(source, receiver, lag);
                    }
                }
            }
            GatherHeatMatrixModel {
                matrix,
                resp_by_receiver,
                baseline_powers,
                baseline_inlets,
                supply_celsius,
                history: vec![0.0; lags * n],
                head: 0,
                filled: 0,
            }
        }

        /// Builds the reference model at the same operating point as an
        /// optimized [`HeatMatrixModel`].
        pub fn from_model(model: &HeatMatrixModel) -> Self {
            Self::new(
                model.matrix().clone(),
                model.baseline_powers().to_vec(),
                model.baseline_inlets_celsius().to_vec(),
                model.supply_celsius(),
            )
        }

        /// The deviation vector recorded `age` steps ago (0 = newest).
        fn history_slice(&self, age: usize) -> &[f64] {
            let n = self.matrix.server_count();
            let slot = (self.head + age) % self.matrix.lag_count();
            &self.history[slot * n..(slot + 1) * n]
        }

        /// Advances one lag step and returns the predicted inlets, °C.
        ///
        /// # Panics
        ///
        /// Panics if `powers.len()` mismatches the server count.
        pub fn step(&mut self, powers: &[Power]) -> Vec<f64> {
            let n = self.matrix.server_count();
            assert_eq!(powers.len(), n, "one power per server required");
            let lags = self.matrix.lag_count();

            // Rotate the ring backward: yesterday's newest slot becomes
            // age 1.
            self.head = (self.head + lags - 1) % lags;
            let newest = &mut self.history[self.head * n..(self.head + 1) * n];
            for (slot, (&p, &b)) in newest
                .iter_mut()
                .zip(powers.iter().zip(&self.baseline_powers))
            {
                *slot = (p - b).as_watts();
            }
            self.filled = (self.filled + 1).min(lags);

            (0..n)
                .map(|receiver| {
                    let mut t = self.baseline_inlets[receiver];
                    for age in 0..self.filled {
                        let dev = self.history_slice(age);
                        let resp = &self.resp_by_receiver[(receiver * lags + age) * n..][..n];
                        for (source, &dw) in dev.iter().enumerate() {
                            if dw != 0.0 {
                                t += resp[source] * dw;
                            }
                        }
                    }
                    t.max(self.supply_celsius)
                })
                .collect()
        }

        /// Clears the convolution history (back to the operating point).
        pub fn reset(&mut self) {
            self.filled = 0;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use hbm_thermal::{CfdConfig, CoolingSystem};
        use hbm_units::{Duration, Temperature};

        fn small_config() -> CfdConfig {
            CfdConfig {
                racks: 1,
                servers_per_rack: 4,
                cooling: CoolingSystem {
                    capacity: Power::from_kilowatts(0.8),
                    supply: Temperature::from_celsius(27.0),
                    derate_onset: Temperature::from_celsius(33.0),
                    derate_per_kelvin: 0.05,
                    min_capacity_fraction: 0.65,
                },
                per_server_flow_kg_s: 0.018,
                leakage_fraction: 0.06,
                cell_mass_kg: 0.5,
                plenum_mass_kg: 1.0,
            }
        }

        #[test]
        fn reference_matches_the_scatter_rewrite() {
            let config = small_config();
            let baseline = vec![Power::from_watts(150.0); 4];
            let mut scatter = HeatMatrixModel::from_cfd(
                &config,
                &baseline,
                Power::from_watts(120.0),
                Duration::from_minutes(5.0),
                Duration::from_minutes(1.0),
            );
            let mut reference = GatherHeatMatrixModel::from_model(&scatter);
            let mut out = vec![0.0; 4];
            for step in 0..50 {
                let powers: Vec<Power> = (0..4)
                    .map(|s| {
                        Power::from_watts(150.0 + 50.0 * ((s * 7 + step * 13) % 16) as f64 / 16.0)
                    })
                    .collect();
                let want = reference.step(&powers);
                scatter.step_into(&powers, &mut out);
                for (s, (&a, &b)) in want.iter().zip(&out).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-9,
                        "step {step} server {s}: gather {a} vs scatter {b}"
                    );
                }
            }
        }

        #[test]
        fn reference_matches_the_scatter_rewrite_across_reset() {
            let config = small_config();
            let baseline = vec![Power::from_watts(150.0); 4];
            let mut scatter = HeatMatrixModel::from_cfd(
                &config,
                &baseline,
                Power::from_watts(120.0),
                Duration::from_minutes(5.0),
                Duration::from_minutes(1.0),
            );
            let mut reference = GatherHeatMatrixModel::from_model(&scatter);
            let mut hot = baseline.clone();
            hot[1] += Power::from_watts(333.0);
            let mut out = vec![0.0; 4];
            for step in 0..20 {
                if step == 7 {
                    scatter.reset();
                    reference.reset();
                }
                let powers = if step % 3 == 0 { &hot } else { &baseline };
                let want = reference.step(powers);
                scatter.step_into(powers, &mut out);
                for (s, (&a, &b)) in want.iter().zip(&out).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-9,
                        "step {step} server {s}: gather {a} vs scatter {b}"
                    );
                }
            }
        }
    }
}

pub mod nested {
    //! The original nested-`Vec` CFD-lite kernel, kept verbatim (minus the
    //! public API it doesn't need) as the benchmark baseline for
    //! `hbm_thermal::CfdModel`. Do not optimize this copy.

    use hbm_thermal::CfdConfig;
    use hbm_units::{Duration, Power, Temperature};

    /// Specific heat of air, J/(kg·K).
    const CP_AIR: f64 = 1005.0;

    /// Transient CFD-lite state with the pre-rewrite `[rack][height]`
    /// nested-`Vec` layout and per-substep buffer clones.
    #[derive(Debug, Clone)]
    pub struct NestedCfdModel {
        config: CfdConfig,
        cold: Vec<Vec<f64>>,
        hot: Vec<Vec<f64>>,
        duct: f64,
        ret: f64,
        dt: f64,
    }

    impl NestedCfdModel {
        /// Creates a model at thermal equilibrium, exactly as
        /// `CfdModel::new` does.
        ///
        /// # Panics
        ///
        /// Panics if `config` fails validation.
        pub fn new(config: CfdConfig) -> Self {
            config.validate().expect("invalid CFD configuration");
            let sup = config.cooling.supply.as_celsius();
            let max_flow = config.servers_per_rack as f64
                * config.per_server_flow_kg_s
                * (1.0 - config.leakage_fraction)
                + config.per_server_flow_kg_s;
            let dt = (0.4 * config.cell_mass_kg / max_flow).min(0.5);
            NestedCfdModel {
                cold: vec![vec![sup; config.servers_per_rack]; config.racks],
                hot: vec![vec![sup; config.servers_per_rack]; config.racks],
                duct: sup,
                ret: sup,
                dt,
                config,
            }
        }

        /// Mean server inlet temperature.
        pub fn mean_inlet(&self) -> Temperature {
            let n = self.config.server_count() as f64;
            let sum: f64 = self.cold.iter().flatten().sum();
            Temperature::from_celsius(sum / n)
        }

        /// Advances the model by `span` with constant per-server powers.
        ///
        /// # Panics
        ///
        /// Panics if `powers.len()` differs from the server count.
        pub fn step(&mut self, powers: &[Power], span: Duration) {
            assert_eq!(
                powers.len(),
                self.config.server_count(),
                "one power per server required"
            );
            let mut remaining = span.as_seconds();
            while remaining > 0.0 {
                let h = remaining.min(self.dt);
                self.substep(powers, h);
                remaining -= h;
            }
        }

        fn substep(&mut self, powers: &[Power], h: f64) {
            let cfg = &self.config;
            let m = cfg.per_server_flow_kg_s;
            let lam = cfg.leakage_fraction;
            let keep = 1.0 - lam;
            let n_h = cfg.servers_per_rack;
            let rack_supply = n_h as f64 * m * keep;
            let cell_mass = cfg.cell_mass_kg;

            let ac_flow = cfg.ac_flow_kg_s();
            let capacity = cfg.cooling.effective_capacity(self.mean_inlet());
            let sup = cfg.cooling.supply.as_celsius();
            let q_needed = ac_flow * CP_AIR * (self.ret - sup).max(0.0);
            let q = q_needed.min(capacity.as_watts());
            let ac_out = self.ret - q / (ac_flow * CP_AIR);

            let duct_next = self.duct + h * ac_flow / cfg.plenum_mass_kg * (ac_out - self.duct);

            let mut cold_next = self.cold.clone();
            let mut hot_next = self.hot.clone();
            let mut return_inflow_temp = 0.0;

            for r in 0..cfg.racks {
                for i in 0..n_h {
                    let s = r * n_h + i;
                    let p = powers[s].as_watts();
                    let t_in = self.cold[r][i];
                    let t_out = t_in + p / (m * CP_AIR);

                    let below_t = if i == 0 {
                        self.duct
                    } else {
                        self.cold[r][i - 1]
                    };
                    let inflow_below = if i == 0 {
                        rack_supply
                    } else {
                        (n_h - i) as f64 * m * keep
                    };
                    let d_cold = inflow_below * (below_t - t_in) + lam * m * (t_out - t_in);
                    cold_next[r][i] = t_in + h * d_cold / cell_mass;

                    let t_hot = self.hot[r][i];
                    let hot_below_t = if i == 0 { t_hot } else { self.hot[r][i - 1] };
                    let hot_inflow_below = if i == 0 { 0.0 } else { i as f64 * m * keep };
                    let d_hot =
                        keep * m * (t_out - t_hot) + hot_inflow_below * (hot_below_t - t_hot);
                    hot_next[r][i] = t_hot + h * d_hot / cell_mass;
                }
                return_inflow_temp += self.hot[r][n_h - 1];
            }

            let mean_top = return_inflow_temp / cfg.racks as f64;
            let ret_next = self.ret + h * ac_flow / cfg.plenum_mass_kg * (mean_top - self.ret);

            self.cold = cold_next;
            self.hot = hot_next;
            self.duct = duct_next;
            self.ret = ret_next;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use hbm_thermal::CfdModel;

        #[test]
        fn reference_matches_the_flat_rewrite() {
            let config = CfdConfig::paper_default();
            let mut nested = NestedCfdModel::new(config);
            let mut flat = CfdModel::new(config);
            let n = config.server_count();
            for step in 0..50 {
                let powers: Vec<Power> = (0..n)
                    .map(|s| {
                        Power::from_watts(150.0 + 50.0 * ((s * 7 + step * 13) % 16) as f64 / 16.0)
                    })
                    .collect();
                nested.step(&powers, Duration::from_minutes(0.5));
                flat.step(&powers, Duration::from_minutes(0.5));
                let a = nested.mean_inlet().as_celsius();
                let b = flat.mean_inlet().as_celsius();
                assert!(
                    (a - b).abs() <= 1e-12,
                    "step {step}: nested {a} vs flat {b}"
                );
            }
        }
    }
}

pub mod full_schedule {
    //! The original zone-model integration loop, which computes every
    //! sub-step of a step, kept verbatim (minus the telemetry span and the
    //! API it doesn't need) as the bit-identity oracle for
    //! `hbm_thermal::ZoneModel::step` and `ZoneLanes::step_all`, which skip
    //! the sub-steps after a bitwise fixed point. Do not optimize this copy.

    use hbm_thermal::CoolingSystem;
    use hbm_units::{Duration, Power, Temperature};

    /// Lumped-capacitance zone model that integrates every 5 s sub-step.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct FullScheduleZone {
        cooling: CoolingSystem,
        heat_capacity_j_per_k: f64,
        pulldown_w_per_k: f64,
        substep: Duration,
        inlet: Temperature,
    }

    impl FullScheduleZone {
        /// Creates a zone at thermal equilibrium (inlet = supply), with the
        /// same parameters as `ZoneModel::new`.
        ///
        /// # Panics
        ///
        /// Panics if `cooling` fails validation.
        pub fn new(
            cooling: CoolingSystem,
            heat_capacity_j_per_k: f64,
            pulldown_w_per_k: f64,
        ) -> Self {
            cooling.validate().expect("invalid cooling system");
            FullScheduleZone {
                cooling,
                heat_capacity_j_per_k,
                pulldown_w_per_k,
                substep: Duration::from_seconds(5.0),
                inlet: cooling.supply,
            }
        }

        /// Current server inlet temperature.
        pub fn inlet(&self) -> Temperature {
            self.inlet
        }

        /// Resets the inlet, clamped to the supply setpoint like
        /// `ZoneModel::set_inlet`.
        pub fn set_inlet(&mut self, inlet: Temperature) {
            self.inlet = inlet.max(self.cooling.supply);
        }

        /// Advances the model by `dt` with a constant IT load, computing
        /// every sub-step.
        pub fn step(&mut self, it_load: Power, dt: Duration) -> Temperature {
            assert!(it_load >= Power::ZERO, "IT load must be non-negative");
            assert!(dt > Duration::ZERO, "step duration must be positive");
            let mut remaining = dt.as_seconds();
            while remaining > 0.0 {
                let h = remaining.min(self.substep.as_seconds());
                self.advance_seconds(it_load, h);
                remaining -= h;
            }
            self.inlet
        }

        fn advance_seconds(&mut self, it_load: Power, h: f64) {
            self.inlet = Temperature::from_celsius(substep_inlet_celsius(
                self.inlet.as_celsius(),
                it_load.as_watts(),
                h,
                self.cooling.capacity.as_watts(),
                self.cooling.supply.as_celsius(),
                self.cooling.derate_onset.as_celsius(),
                self.cooling.derate_per_kelvin,
                self.cooling.min_capacity_fraction,
                self.heat_capacity_j_per_k,
                self.pulldown_w_per_k,
            ));
        }
    }

    /// One explicit-Euler sub-step of the lumped-capacitance zone ODE.
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
}
