//! The slotted colocation simulator.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use hbm_battery::Battery;
use hbm_power::EmergencyProtocol;
use hbm_sidechannel::VoltageSideChannel;
use hbm_telemetry::{ChannelValue, Recorder, Sample};
use hbm_thermal::ZoneModel;
use hbm_units::{Duration, Energy, Power, Temperature};
use hbm_workload::{generate_shared, PowerTrace};

use crate::{AttackAction, AttackPolicy, ColoConfig, Metrics, Observation, Transition};

/// One slot of recorded simulator state (drives the snapshot figures
/// 8, 9, and 13).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotRecord {
    /// Slot index.
    pub slot: u64,
    /// Benign tenants' desired aggregate power.
    pub benign_demand: Power,
    /// Benign tenants' actual (possibly capped) power.
    pub benign_actual: Power,
    /// Total power the operator's meters registered.
    pub metered_total: Power,
    /// Total actual heat-producing power.
    pub actual_total: Power,
    /// Battery-fed attack load this slot (zero unless attacking).
    pub attack_load: Power,
    /// Attacker battery state of charge at the end of the slot.
    pub battery_soc: f64,
    /// The attacker's side-channel estimate (incl. its own subscription).
    pub estimated_total: Power,
    /// Action the attacker took.
    pub action: AttackAction,
    /// Server inlet temperature at the end of the slot.
    pub inlet: Temperature,
    /// Whether capping was enforced during this slot.
    pub capping: bool,
    /// Whether the colocation was down during this slot.
    pub outage: bool,
}

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Name of the attack policy that ran.
    pub policy: String,
    /// Aggregated metrics.
    pub metrics: Metrics,
}

/// Everything not yet known when the policy acted; completed (and fed to
/// [`AttackPolicy::learn`]) at the start of the next slot, when the next
/// side-channel estimate exists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PendingTransition {
    pub(crate) observation: Observation,
    pub(crate) action: AttackAction,
    pub(crate) inlet: Temperature,
    pub(crate) next_battery_soc: f64,
    pub(crate) next_battery_stored: Energy,
}

/// A [`Simulation`] decomposed into its owned components, so the batch
/// engine can host the same state in its structure-of-arrays layout and
/// hand it back unchanged. Field-for-field mirror of [`Simulation`].
pub(crate) struct SimParts {
    pub(crate) config: ColoConfig,
    pub(crate) trace: Arc<PowerTrace>,
    pub(crate) zone: ZoneModel,
    pub(crate) protocol: EmergencyProtocol,
    pub(crate) battery: Battery,
    pub(crate) side_channel: VoltageSideChannel,
    pub(crate) policy: Box<dyn AttackPolicy>,
    pub(crate) slot_index: u64,
    pub(crate) metrics: Metrics,
    pub(crate) pending: Option<PendingTransition>,
    pub(crate) outage_remaining: Option<Duration>,
    pub(crate) prev_capping: bool,
    pub(crate) estimate_filter: Option<Power>,
    pub(crate) recorder: Option<Box<dyn Recorder>>,
}

/// Slots per simulated day at a given slot length (shared by the scalar
/// and batch engines so both bucket transitions into the same days).
pub(crate) fn slots_per_day_at(slot: Duration) -> u64 {
    (Duration::from_days(1.0) / slot).round().max(1.0) as u64
}

/// Emits one telemetry sample for a finished slot. Channel names mirror
/// the figure CSV columns (`docs/TELEMETRY.md`). Shared by
/// [`Simulation::step`] and the batch engine so traced slots look
/// identical regardless of which engine produced them.
pub(crate) fn emit_sample(rec: &mut dyn Recorder, r: &SlotRecord, raw_estimate: Power) {
    let action = match r.action {
        AttackAction::Attack => "attack",
        AttackAction::Charge => "charge",
        AttackAction::Standby => "standby",
    };
    let channels: [(&'static str, ChannelValue); 12] = [
        ("benign_kw", r.benign_demand.as_kilowatts().into()),
        ("benign_actual_kw", r.benign_actual.as_kilowatts().into()),
        ("metered_kw", r.metered_total.as_kilowatts().into()),
        ("actual_kw", r.actual_total.as_kilowatts().into()),
        ("attack_kw", r.attack_load.as_kilowatts().into()),
        ("soc", r.battery_soc.into()),
        ("est_kw", r.estimated_total.as_kilowatts().into()),
        ("raw_est_kw", raw_estimate.as_kilowatts().into()),
        ("inlet_c", r.inlet.as_celsius().into()),
        ("capping", r.capping.into()),
        ("outage", r.outage.into()),
        ("action", ChannelValue::Str(action)),
    ];
    rec.record(&Sample {
        step: r.slot,
        channels: &channels,
    });
}

/// The edge-colocation simulator (see the crate docs for the slot
/// sequence).
///
/// Fields are `pub(crate)` so the checkpoint module (`crate::state`) can
/// serialize and restore the dynamic state bit-exactly.
pub struct Simulation {
    pub(crate) config: ColoConfig,
    /// The benign workload trace. Behind an [`Arc`] because it is the one
    /// large piece of *static* state: simulators built from one trace
    /// config ([`hbm_workload::generate_shared`]) and their forks share it
    /// instead of copying megabytes of samples each.
    pub(crate) trace: Arc<PowerTrace>,
    pub(crate) zone: ZoneModel,
    pub(crate) protocol: EmergencyProtocol,
    pub(crate) battery: Battery,
    pub(crate) side_channel: VoltageSideChannel,
    pub(crate) policy: Box<dyn AttackPolicy>,
    pub(crate) slot_index: u64,
    pub(crate) metrics: Metrics,
    pub(crate) pending: Option<PendingTransition>,
    pub(crate) outage_remaining: Option<Duration>,
    pub(crate) prev_capping: bool,
    /// EMA state of the attacker's filtered side-channel estimate.
    pub(crate) estimate_filter: Option<Power>,
    /// Optional per-slot telemetry sink. `None` costs one branch per slot;
    /// recording itself never touches any simulation RNG, so traced and
    /// untraced runs produce identical trajectories.
    pub(crate) recorder: Option<Box<dyn Recorder>>,
}

impl Simulation {
    /// Builds a simulator from a configuration, an attack policy, and a
    /// seed (which controls the workload trace and the side channel; the
    /// policy carries its own RNG).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ColoConfig::validate`].
    pub fn new(config: ColoConfig, policy: Box<dyn AttackPolicy>, seed: u64) -> Self {
        config.validate().expect("invalid colocation config");
        let mut trace_config = config.trace;
        trace_config.seed = trace_config.seed.wrapping_add(seed);
        // Every simulator built from this trace config aliases one trace
        // for as long as any of them is alive.
        let trace = generate_shared(&trace_config);
        let zone = ZoneModel::new(
            config.cooling,
            config.zone_heat_capacity_j_per_k,
            config.zone_pulldown_w_per_k,
        );
        let protocol = config.protocol.clone();
        let battery = Battery::full(config.battery);
        let side_channel = VoltageSideChannel::new(config.side_channel, seed.wrapping_mul(31) + 7);
        let slot = config.slot;
        Simulation {
            config,
            trace,
            zone,
            protocol,
            battery,
            side_channel,
            policy,
            slot_index: 0,
            metrics: Metrics::new(slot),
            pending: None,
            outage_remaining: None,
            prev_capping: false,
            estimate_filter: None,
            recorder: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ColoConfig {
        &self.config
    }

    /// The benign workload trace in use.
    pub fn trace(&self) -> &PowerTrace {
        &self.trace
    }

    /// Current inlet temperature.
    pub fn inlet(&self) -> Temperature {
        self.zone.inlet()
    }

    /// Current attacker battery state of charge.
    pub fn battery_soc(&self) -> f64 {
        self.battery.state_of_charge()
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The attack policy (downcast via [`AttackPolicy::as_any`] to inspect
    /// a concrete type, e.g. the learnt Foresighted policy for Fig. 10).
    pub fn policy(&self) -> &dyn AttackPolicy {
        self.policy.as_ref()
    }

    /// Mutable access to the attack policy.
    pub fn policy_mut(&mut self) -> &mut dyn AttackPolicy {
        self.policy.as_mut()
    }

    /// Attaches a telemetry recorder; every subsequent slot emits one
    /// [`Sample`] (see `docs/TELEMETRY.md` for the channel schema).
    ///
    /// Recording observes state the simulator computes anyway and never
    /// touches any RNG, so attaching a recorder cannot perturb the run.
    /// Attach after [`Simulation::warmup`] to trace only measured slots.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Detaches and returns the recorder, flushing it first.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        if let Some(rec) = self.recorder.as_mut() {
            rec.flush();
        }
        self.recorder.take()
    }

    /// Runs `slots` slots and returns the accumulated report.
    pub fn run(&mut self, slots: u64) -> SimReport {
        for _ in 0..slots {
            self.step();
        }
        self.report()
    }

    /// Runs `slots` slots, recording every slot (for snapshot figures).
    pub fn run_recorded(&mut self, slots: u64) -> (SimReport, Vec<SlotRecord>) {
        let mut records = Vec::with_capacity(slots as usize);
        for _ in 0..slots {
            records.push(self.step());
        }
        (self.report(), records)
    }

    /// Runs `slots` slots for learning warm-up, then discards the metrics
    /// (the paper initializes its Q tables offline before the measured
    /// year).
    pub fn warmup(&mut self, slots: u64) {
        for _ in 0..slots {
            self.step();
        }
        self.metrics = Metrics::new(self.config.slot);
    }

    /// The report for everything simulated so far.
    pub fn report(&self) -> SimReport {
        SimReport {
            policy: self.policy.name().to_string(),
            metrics: self.metrics.clone(),
        }
    }

    /// Simulates one slot and returns its record.
    pub fn step(&mut self) -> SlotRecord {
        let started = hbm_telemetry::timing::start();
        let (record, raw_estimate) = self.step_inner();
        hbm_telemetry::timing::record_span("sim.step", started);
        if self.recorder.is_some() {
            self.record_slot(&record, raw_estimate);
        }
        record
    }

    /// Emits one telemetry sample for a finished slot (see [`emit_sample`]).
    fn record_slot(&mut self, r: &SlotRecord, raw_estimate: Power) {
        if let Some(rec) = self.recorder.as_mut() {
            emit_sample(rec.as_mut(), r, raw_estimate);
        }
    }

    /// The slot body; returns the record plus the unfiltered side-channel
    /// estimate (zero during outages, when nothing can be sensed).
    fn step_inner(&mut self) -> (SlotRecord, Power) {
        let slot = self.config.slot;
        let k = self.slot_index;
        self.slot_index += 1;
        self.metrics.slots += 1;

        // ------ Outage downtime: everything is off. ------
        if let Some(remaining) = self.outage_remaining {
            let inlet = self.zone.step(Power::ZERO, slot);
            self.metrics.outage_slots += 1;
            self.metrics.inlet_histogram.add(inlet.as_celsius());
            let left = remaining - slot;
            if left > Duration::ZERO {
                self.outage_remaining = Some(left);
            } else {
                self.outage_remaining = None;
                self.protocol.reset();
            }
            self.pending = None; // the attacker's episode is over
            self.prev_capping = false;
            return (
                SlotRecord {
                    slot: k,
                    benign_demand: Power::ZERO,
                    benign_actual: Power::ZERO,
                    metered_total: Power::ZERO,
                    actual_total: Power::ZERO,
                    attack_load: Power::ZERO,
                    battery_soc: self.battery.state_of_charge(),
                    estimated_total: Power::ZERO,
                    action: AttackAction::Standby,
                    inlet,
                    capping: false,
                    outage: true,
                },
                Power::ZERO,
            );
        }

        let capping = self.protocol.state().is_capping();

        // ------ Benign tenants. ------
        let benign_demand = self.trace.get(k as usize);
        let benign_limit = if capping {
            self.config.benign_emergency_cap()
        } else {
            self.config.benign_capacity()
        };
        let benign_actual = benign_demand.min(benign_limit);

        // ------ Attacker: observe, decide, act. ------
        let raw_estimate =
            self.side_channel.estimate(benign_actual) + self.config.attacker_capacity;
        let alpha = self.config.estimate_ema_alpha;
        let estimated_total = match self.estimate_filter {
            // Capped slots carry no information about the underlying demand;
            // freeze the filter so the attacker's view of the load survives
            // the 5-minute capping episodes.
            Some(prev) if capping => prev,
            Some(prev) => prev * (1.0 - alpha) + raw_estimate * alpha,
            None => raw_estimate,
        };
        self.estimate_filter = Some(estimated_total);
        let observation = Observation {
            slot: k,
            battery_soc: self.battery.state_of_charge(),
            battery_stored: self.battery.stored(),
            estimated_total,
            inlet: self.zone.inlet(),
            capping,
        };

        // Complete last slot's transition now that the new estimate exists.
        if let Some(p) = self.pending.take() {
            let transition = Transition {
                observation: p.observation,
                action: p.action,
                inlet: p.inlet,
                next_battery_soc: p.next_battery_soc,
                next_battery_stored: p.next_battery_stored,
                next_estimated_total: estimated_total,
                next_capping: capping,
                day: p.observation.slot / self.slots_per_day(),
            };
            self.policy.learn(&transition);
        }

        let action = self.policy.decide(&observation);
        let attacker_metered_limit = if capping {
            self.config.attacker_emergency_cap()
        } else {
            self.config.attacker_capacity
        };

        let (attacker_metered, attacker_actual, battery_attack) = match action {
            AttackAction::Attack => {
                let metered = attacker_metered_limit;
                let delivered = self.battery.discharge(self.config.attack_load, slot);
                (metered, metered + delivered, delivered)
            }
            AttackAction::Charge => {
                let headroom = (attacker_metered_limit - self.config.standby_power).positive_part();
                let drawn = self
                    .battery
                    .charge(self.config.battery.max_charge_rate.min(headroom), slot);
                let standby = self.config.standby_power.min(attacker_metered_limit);
                // Charging draws extra metered power; only conversion losses
                // of it become heat — the rest is stored chemistry.
                let loss = drawn * (1.0 - self.config.battery.charge_efficiency);
                (standby + drawn, standby + loss, Power::ZERO)
            }
            AttackAction::Standby => {
                let standby = self.config.standby_power.min(attacker_metered_limit);
                (standby, standby, Power::ZERO)
            }
        };

        // ------ Physics. ------
        let metered_total = benign_actual + attacker_metered;
        let actual_total = benign_actual + attacker_actual;
        let inlet = self.zone.step(actual_total, slot);

        // ------ Operator protocol. ------
        let next_state = self.protocol.step(inlet, slot);
        if next_state.is_outage() {
            self.metrics.outage_events += 1;
            self.outage_remaining = Some(self.config.outage_downtime);
        }
        let capping_next = next_state.is_capping();
        if capping_next && !self.prev_capping {
            self.metrics.emergency_events += 1;
        }
        self.prev_capping = capping_next;

        // ------ Metrics. ------
        if capping {
            self.metrics.emergency_slots += 1;
            let u_inst = (benign_demand / self.config.benign_capacity()).clamp(0.0, 1.0);
            let load_frac = self.config.latency.rated_load() * u_inst;
            let degradation = self
                .config
                .latency
                .degradation(self.config.emergency_cap_fraction(), load_frac);
            self.metrics.degradation_sum += degradation;
            self.metrics.degradation_slots += 1;
        }
        if battery_attack > Power::ZERO {
            self.metrics.attack_slots += 1;
            self.metrics.attack_energy += battery_attack * slot;
        }
        self.metrics.delta_t_sum += (inlet - self.config.cooling.supply).positive_part();
        self.metrics.inlet_histogram.add(inlet.as_celsius());
        self.metrics.attacker_metered_energy += attacker_metered * slot;
        self.metrics.attacker_actual_energy += attacker_actual * slot;

        // ------ Defer the learning feedback to the next slot. ------
        self.pending = Some(PendingTransition {
            observation,
            action,
            inlet,
            next_battery_soc: self.battery.state_of_charge(),
            next_battery_stored: self.battery.stored(),
        });

        (
            SlotRecord {
                slot: k,
                benign_demand,
                benign_actual,
                metered_total,
                actual_total,
                attack_load: battery_attack,
                battery_soc: self.battery.state_of_charge(),
                estimated_total,
                action,
                inlet,
                capping,
                outage: false,
            },
            raw_estimate,
        )
    }

    fn slots_per_day(&self) -> u64 {
        slots_per_day_at(self.config.slot)
    }

    /// The report for everything simulated so far, taking the metrics *by
    /// move*: the simulation's own metrics are reset to empty (as after
    /// [`Simulation::warmup`]), and the report carries the originals without
    /// a clone. This is the hot exit path for fleet-scale runs, where
    /// cloning a [`Metrics`] (histogram included) per site adds up.
    pub fn take_report(&mut self) -> SimReport {
        let metrics = std::mem::replace(&mut self.metrics, Metrics::new(self.config.slot));
        SimReport {
            policy: self.policy.name().to_string(),
            metrics,
        }
    }

    /// A deep copy of the live simulation that continues bit-identically
    /// and independently: every piece of dynamic state (zone, protocol,
    /// battery, side-channel RNG, policy tables, metrics, pending learning
    /// transition) is cloned, while the immutable workload trace is shared
    /// via [`Arc`]. The fork starts without a recorder.
    ///
    /// This is the cheap branching primitive behind [`crate::StateTree`]
    /// and the serve layer's `/fork` endpoint: forking costs a state copy
    /// (a few kB plus the policy's Q tables), not a rebuild-from-scenario
    /// plus checkpoint round trip.
    pub fn fork(&self) -> Simulation {
        Simulation {
            config: self.config.clone(),
            trace: Arc::clone(&self.trace),
            zone: self.zone,
            protocol: self.protocol.clone(),
            battery: self.battery.clone(),
            side_channel: self.side_channel.clone(),
            policy: self.policy.clone_policy(),
            slot_index: self.slot_index,
            metrics: self.metrics.clone(),
            pending: self.pending,
            outage_remaining: self.outage_remaining,
            prev_capping: self.prev_capping,
            estimate_filter: self.estimate_filter,
            recorder: None,
        }
    }

    /// Decomposes the simulation into its components (batch-engine intake).
    pub(crate) fn into_parts(self) -> SimParts {
        SimParts {
            config: self.config,
            trace: self.trace,
            zone: self.zone,
            protocol: self.protocol,
            battery: self.battery,
            side_channel: self.side_channel,
            policy: self.policy,
            slot_index: self.slot_index,
            metrics: self.metrics,
            pending: self.pending,
            outage_remaining: self.outage_remaining,
            prev_capping: self.prev_capping,
            estimate_filter: self.estimate_filter,
            recorder: self.recorder,
        }
    }

    /// Rebuilds a simulation from components (batch-engine hand-back).
    pub(crate) fn from_parts(parts: SimParts) -> Simulation {
        Simulation {
            config: parts.config,
            trace: parts.trace,
            zone: parts.zone,
            protocol: parts.protocol,
            battery: parts.battery,
            side_channel: parts.side_channel,
            policy: parts.policy,
            slot_index: parts.slot_index,
            metrics: parts.metrics,
            pending: parts.pending,
            outage_remaining: parts.outage_remaining,
            prev_capping: parts.prev_capping,
            estimate_filter: parts.estimate_filter,
            recorder: parts.recorder,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MyopicPolicy, OneShotPolicy, RandomPolicy};
    use hbm_battery::BatterySpec;
    use hbm_power::ServerSpec;

    fn short_config() -> ColoConfig {
        ColoConfig::paper_default().with_trace_len(7 * 1440)
    }

    fn myopic(threshold_kw: f64) -> Box<dyn AttackPolicy> {
        Box::new(MyopicPolicy::new(Power::from_kilowatts(threshold_kw)))
    }

    #[test]
    fn no_attack_no_emergency() {
        // Myopic with an unreachable threshold never attacks; subscriptions
        // fit the cooling capacity, so no emergencies occur.
        let mut sim = Simulation::new(short_config(), myopic(99.0), 1);
        let report = sim.run(2 * 1440);
        assert_eq!(report.metrics.attack_slots, 0);
        assert_eq!(report.metrics.emergency_slots, 0);
        assert_eq!(report.metrics.outage_events, 0);
        assert!(report.metrics.avg_delta_t().as_celsius() < 0.05);
    }

    #[test]
    fn myopic_attack_creates_emergencies() {
        let mut sim = Simulation::new(short_config(), myopic(7.4), 1);
        let report = sim.run(7 * 1440);
        assert!(report.metrics.attack_slots > 0, "must find opportunities");
        assert!(
            report.metrics.emergency_slots > 0,
            "well-timed attacks must trigger emergencies"
        );
        assert_eq!(report.metrics.outage_events, 0, "1 kW cannot cause outage");
    }

    #[test]
    fn metered_stays_within_capacity() {
        let mut sim = Simulation::new(short_config(), myopic(7.0), 3);
        let (_, records) = sim.run_recorded(3 * 1440);
        for r in &records {
            assert!(
                r.metered_total <= Power::from_kilowatts(8.0) + Power::from_watts(1e-6),
                "metered power may never exceed capacity, got {}",
                r.metered_total
            );
        }
    }

    #[test]
    fn behind_the_meter_load_appears_only_during_attack() {
        let mut sim = Simulation::new(short_config(), myopic(7.2), 4);
        let (_, records) = sim.run_recorded(3 * 1440);
        let mut attacked = false;
        for r in &records {
            let gap = r.actual_total - r.metered_total;
            if r.action == AttackAction::Attack && r.attack_load > Power::ZERO {
                attacked = true;
                assert!(
                    gap > Power::ZERO,
                    "attack slots must show behind-the-meter load"
                );
            } else if r.action == AttackAction::Charge {
                // While charging, actual heat is *below* the metered draw —
                // the stored energy is not heat (visible in Fig. 9).
                assert!(
                    gap < Power::ZERO,
                    "charging slots must show actual below metered, gap {gap}"
                );
            } else {
                assert!(
                    gap.abs() <= Power::from_watts(20.0),
                    "standby slots must be nearly meter-accurate, gap {gap}"
                );
            }
        }
        assert!(attacked);
    }

    #[test]
    fn battery_drains_and_recharges() {
        let mut sim = Simulation::new(short_config(), myopic(7.2), 5);
        let (_, records) = sim.run_recorded(3 * 1440);
        let min_soc = records.iter().map(|r| r.battery_soc).fold(1.0, f64::min);
        let last_soc = records.last().unwrap().battery_soc;
        assert!(min_soc < 0.9, "battery must actually discharge");
        assert!(
            last_soc > min_soc - 1e-9,
            "battery must recharge afterwards"
        );
    }

    #[test]
    fn random_policy_fails_to_create_emergencies() {
        // Fig. 9 / Fig. 11c: Random (8 % attack probability) spreads its
        // battery budget over mostly-low-load slots.
        let config = short_config();
        let policy = RandomPolicy::new(0.08, config.attack_load, config.slot, 11);
        let mut sim = Simulation::new(config, Box::new(policy), 1);
        let report = sim.run(7 * 1440);
        assert!(report.metrics.attack_slots > 0);
        assert_eq!(
            report.metrics.emergency_slots, 0,
            "random timing should not produce emergencies"
        );
    }

    #[test]
    fn one_shot_attack_causes_outage() {
        // Fig. 8: a 3 kW battery-backed load launched at high benign load
        // drives the inlet past 45 °C despite the operator's capping.
        let mut config = short_config();
        config.battery = BatterySpec::one_shot();
        config.attack_load = Power::from_kilowatts(3.0);
        let policy = OneShotPolicy::new(Power::from_kilowatts(7.6));
        let mut sim = Simulation::new(config, Box::new(policy), 1);
        let report = sim.run(3 * 1440);
        assert!(
            report.metrics.outage_events >= 1,
            "one-shot attack must shut the colocation down"
        );
        assert!(report.metrics.outage_slots > 0);
    }

    #[test]
    fn emergency_caps_benign_power() {
        let mut sim = Simulation::new(short_config(), myopic(7.2), 1);
        let (_, records) = sim.run_recorded(7 * 1440);
        let capped: Vec<_> = records.iter().filter(|r| r.capping).collect();
        assert!(!capped.is_empty());
        for r in capped {
            assert!(
                r.benign_actual <= Power::from_kilowatts(4.32) + Power::from_watts(1e-6),
                "capped benign power {} exceeds 36×120 W",
                r.benign_actual
            );
        }
    }

    #[test]
    fn degradation_recorded_during_emergencies() {
        let mut sim = Simulation::new(short_config(), myopic(7.2), 8);
        let report = sim.run(7 * 1440);
        if report.metrics.emergency_slots > 0 {
            let d = report.metrics.mean_emergency_degradation();
            assert!(d > 1.5, "capping must hurt tail latency, got {d}");
        }
    }

    #[test]
    fn estimate_filter_freezes_during_capping() {
        // Capped slots carry no information about the underlying demand;
        // the attacker's filtered estimate must hold its pre-emergency
        // value through the 5-minute capping episodes.
        let mut sim = Simulation::new(short_config(), myopic(7.4), 1);
        let (_, records) = sim.run_recorded(7 * 1440);
        let mut checked = 0;
        for w in records.windows(2) {
            if w[0].capping && w[1].capping && !w[1].outage {
                assert_eq!(
                    w[0].estimated_total, w[1].estimated_total,
                    "estimate must freeze across capped slots"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no capped windows exercised");
    }

    #[test]
    fn deterministic_given_seeds() {
        let run = || {
            let mut sim = Simulation::new(short_config(), myopic(7.4), 9);
            sim.run(1440).metrics
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn warmup_discards_metrics_but_keeps_time() {
        let mut sim = Simulation::new(short_config(), myopic(7.4), 10);
        sim.warmup(1440);
        assert_eq!(sim.metrics().slots, 0);
        let report = sim.run(1440);
        assert_eq!(report.metrics.slots, 1440);
    }

    #[test]
    fn attacker_peak_is_consistent_with_server_specs() {
        // 4 × 450 W attack servers = 0.8 kW subscribed + 1 kW battery.
        let spec = ServerSpec::attacker_repeated();
        let config = ColoConfig::paper_default();
        assert_eq!(
            spec.peak * config.attacker_servers as f64,
            config.attacker_capacity + config.attack_load
        );
    }
}
