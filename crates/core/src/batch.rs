//! Batched fleet-scale simulation engine.
//!
//! [`BatchSim`] advances a whole batch of scenarios in lockstep: per-slot
//! state lives in structure-of-arrays form so the hot kernels — the zone
//! thermal sub-steps ([`ZoneLanes`]), the side channel's Box–Muller noise
//! pass ([`box_muller_slice`]), and an all-foresighted fleet's Q-learning
//! (packed `[lane × state × action]` tables plus schedule column sweeps,
//! see [`ForesightedLanes`]) — run as tight, SIMD-friendly inner loops over
//! the batch dimension instead of re-entering one `Simulation` at a time.
//!
//! # Determinism contract
//!
//! Lane `i` of a batch produces **bit-identical** trajectories, records, and
//! metrics to running the same [`Simulation`] alone:
//!
//! * every lane applies exactly the op-for-op IEEE-754 sequence of
//!   [`Simulation::step`] (the shared kernels are the single source of truth
//!   for the math);
//! * lanes never interact — each carries its own trace, side-channel RNG,
//!   battery, protocol, and policy;
//! * sharding ([`run_sharded`]) partitions lanes contiguously and merges
//!   order-independent per-slot down counts, so results are byte-identical
//!   at any thread count, including fully sequential.
//!
//! Telemetry: each batch slot emits one `batch.step` span (one unit per
//! lane), with the zone pass nested under `batch.zone`.

use std::sync::Arc;

use hbm_battery::Battery;
use hbm_power::EmergencyProtocol;
use hbm_rl::{epsilon_sweep, learning_rate_sweep, EpsilonSchedule, LearningRate};
use hbm_sidechannel::math::box_muller_slice;
use hbm_sidechannel::{ChannelLanes, VoltageSideChannel, NORMALS_PER_ESTIMATE};
use hbm_telemetry::Recorder;
use hbm_thermal::{ZoneLanes, ZoneModel};
use hbm_units::{Duration, Energy, Power, Temperature};
use hbm_workload::PowerTrace;
use rand::rngs::StdRng;
use rand::RngExt;

use crate::attacker::{can_attack, Campaign, ForesightedLaneParams};
use crate::sim::{emit_sample, slots_per_day_at, PendingTransition, SimParts};
use crate::{
    AttackAction, AttackPolicy, ColoConfig, ForesightedPolicy, Learner, Metrics, MyopicPolicy,
    Observation, SimReport, Simulation, SlotRecord, Transition,
};

/// Slots of every lane's trace staged per refill of the trace window.
const TRACE_BLOCK: usize = 64;

/// Lane-major histogram counts for a batch whose lanes all share one
/// histogram shape (`lanes × bins` in one allocation, plus under/overflow
/// columns). The binning arithmetic replicates [`Histogram::add`] op for op
/// (`width` holds the value `Histogram::width` recomputes on every call).
struct PackedHistograms {
    lo: f64,
    hi: f64,
    width: f64,
    bins: usize,
    counts: Vec<u64>,
    underflow: Vec<u64>,
    overflow: Vec<u64>,
}

impl PackedHistograms {
    #[inline]
    fn add(&mut self, lane: usize, x: f64) {
        if x < self.lo {
            self.underflow[lane] += 1;
        } else if x >= self.hi {
            self.overflow[lane] += 1;
        } else {
            let idx = ((x - self.lo) / self.width) as usize;
            let idx = idx.min(self.bins - 1);
            self.counts[lane * self.bins + idx] += 1;
        }
    }
}

/// Per-slot metric accumulators as SoA columns, one entry per lane.
///
/// [`Metrics`] is the user-facing result type, but updating it in place
/// keeps phase 6 bouncing between each lane's multi-cache-line struct and
/// its separately allocated histogram bins. The batch instead accumulates
/// into dense columns — seeded from each lane's starting `Metrics`, so every
/// addition happens in the scalar path's exact order and the running sums
/// stay bit-identical — and flows them back with
/// [`fold_into`](MetricLanes::fold_into) when reports or scenarios leave the
/// batch. Columns with unit-typed counterparts store the raw repr
/// (kilowatt-hours for [`Energy`], Celsius degrees for
/// [`hbm_units::TemperatureDelta`]); the unit wrappers are plain `f64`
/// newtypes, so arithmetic on the raw values is the same IEEE-754 sequence.
struct MetricLanes {
    slots: Vec<u64>,
    emergency_slots: Vec<u64>,
    emergency_events: Vec<u64>,
    outage_events: Vec<u64>,
    outage_slots: Vec<u64>,
    attack_slots: Vec<u64>,
    attack_energy_kwh: Vec<f64>,
    delta_t_sum_c: Vec<f64>,
    degradation_sum: Vec<f64>,
    degradation_slots: Vec<u64>,
    attacker_metered_kwh: Vec<f64>,
    attacker_actual_kwh: Vec<f64>,
    /// Packed inlet histograms when every lane shares one shape; `None`
    /// falls back to adding into each lane's `Metrics` directly.
    hist: Option<PackedHistograms>,
}

impl MetricLanes {
    fn from_metrics(metrics: &[Metrics]) -> MetricLanes {
        let h0 = &metrics[0].inlet_histogram;
        let uniform = metrics.iter().all(|m| {
            let h = &m.inlet_histogram;
            h.lo() == h0.lo() && h.hi() == h0.hi() && h.counts().len() == h0.counts().len()
        });
        let hist = uniform.then(|| {
            let bins = h0.counts().len();
            let mut counts = Vec::with_capacity(bins * metrics.len());
            for m in metrics {
                counts.extend_from_slice(m.inlet_histogram.counts());
            }
            PackedHistograms {
                lo: h0.lo(),
                hi: h0.hi(),
                width: h0.width(),
                bins,
                counts,
                underflow: metrics
                    .iter()
                    .map(|m| m.inlet_histogram.underflow())
                    .collect(),
                overflow: metrics
                    .iter()
                    .map(|m| m.inlet_histogram.overflow())
                    .collect(),
            }
        });
        MetricLanes {
            slots: metrics.iter().map(|m| m.slots).collect(),
            emergency_slots: metrics.iter().map(|m| m.emergency_slots).collect(),
            emergency_events: metrics.iter().map(|m| m.emergency_events).collect(),
            outage_events: metrics.iter().map(|m| m.outage_events).collect(),
            outage_slots: metrics.iter().map(|m| m.outage_slots).collect(),
            attack_slots: metrics.iter().map(|m| m.attack_slots).collect(),
            attack_energy_kwh: metrics
                .iter()
                .map(|m| m.attack_energy.as_kilowatt_hours())
                .collect(),
            delta_t_sum_c: metrics.iter().map(|m| m.delta_t_sum.as_celsius()).collect(),
            degradation_sum: metrics.iter().map(|m| m.degradation_sum).collect(),
            degradation_slots: metrics.iter().map(|m| m.degradation_slots).collect(),
            attacker_metered_kwh: metrics
                .iter()
                .map(|m| m.attacker_metered_energy.as_kilowatt_hours())
                .collect(),
            attacker_actual_kwh: metrics
                .iter()
                .map(|m| m.attacker_actual_energy.as_kilowatt_hours())
                .collect(),
            hist,
        }
    }

    /// Writes the columns back into the lanes' `Metrics` (overwriting the
    /// fields the columns are authoritative for).
    fn fold_into(&self, metrics: &mut [Metrics]) {
        for (i, m) in metrics.iter_mut().enumerate() {
            m.slots = self.slots[i];
            m.emergency_slots = self.emergency_slots[i];
            m.emergency_events = self.emergency_events[i];
            m.outage_events = self.outage_events[i];
            m.outage_slots = self.outage_slots[i];
            m.attack_slots = self.attack_slots[i];
            m.attack_energy = Energy::from_kilowatt_hours(self.attack_energy_kwh[i]);
            m.delta_t_sum = hbm_units::TemperatureDelta::from_celsius(self.delta_t_sum_c[i]);
            m.degradation_sum = self.degradation_sum[i];
            m.degradation_slots = self.degradation_slots[i];
            m.attacker_metered_energy = Energy::from_kilowatt_hours(self.attacker_metered_kwh[i]);
            m.attacker_actual_energy = Energy::from_kilowatt_hours(self.attacker_actual_kwh[i]);
            if let Some(h) = &self.hist {
                m.inlet_histogram.set_counts(
                    &h.counts[i * h.bins..(i + 1) * h.bins],
                    h.underflow[i],
                    h.overflow[i],
                );
            }
        }
    }
}

/// A placeholder record for lanes that have not stepped yet.
fn blank_record() -> SlotRecord {
    SlotRecord {
        slot: 0,
        benign_demand: Power::ZERO,
        benign_actual: Power::ZERO,
        metered_total: Power::ZERO,
        actual_total: Power::ZERO,
        attack_load: Power::ZERO,
        battery_soc: 0.0,
        estimated_total: Power::ZERO,
        action: AttackAction::Standby,
        inlet: Temperature::from_celsius(0.0),
        capping: false,
        outage: false,
    }
}

fn blank_observation() -> Observation {
    Observation {
        slot: 0,
        battery_soc: 0.0,
        battery_stored: Energy::ZERO,
        estimated_total: Power::ZERO,
        inlet: Temperature::from_celsius(0.0),
        capping: false,
    }
}

/// A batch of simulations advanced in lockstep over structure-of-arrays
/// state (see the module docs for the determinism contract).
///
/// Build one from fully constructed [`Simulation`]s with [`BatchSim::new`],
/// Per-lane decision constants of an all-myopic batch, in the raw
/// representations `MyopicPolicy::decide` compares on (watts for the load
/// threshold, kilowatt-hours for the arming energy). Replaying its three
/// comparisons against these columns gives the exact same action sequence
/// as the trait-object call.
struct MyopicLanes {
    thresholds_w: Vec<f64>,
    arm_kwh: Vec<f64>,
}

/// Packed learner storage of an all-foresighted batch, one learner kind for
/// every lane (mixed kinds fall back to virtual dispatch).
enum LearnerLanes {
    Batch(hbm_rl::BatchLanes),
    Standard(hbm_rl::StandardLanes),
}

/// Devirtualized state of an all-[`ForesightedPolicy`] batch: per-lane
/// Q-tables packed into one contiguous `[lane × state × action]` matrix
/// (via `hbm_rl`'s lane containers), ε/learning-rate schedule evaluations
/// as packed column sweeps, and the campaign/RNG state the scalar policy
/// keeps privately hoisted into per-lane columns.
///
/// `learn_lane` and `decide_lane` replicate [`ForesightedPolicy::learn`] /
/// [`ForesightedPolicy::decide`] **op for op** — same state encoding, same
/// allowed-action order, same conditional RNG draws, same greedy comparison
/// sequence — so lane `i` stays bit-identical to the scalar policy it was
/// packed from (the batch determinism contract). The packed state is
/// authoritative while batched and synced back in
/// [`BatchSim::into_sims`].
struct ForesightedLanes {
    learner: LearnerLanes,
    params: Vec<ForesightedLaneParams>,
    campaigns: Vec<Campaign>,
    rngs: Vec<StdRng>,
    /// `decide`'s day divisor, `(1 day / slot)` truncated — deliberately
    /// *not* the rounded [`slots_per_day_at`] that `learn` transitions use
    /// (the scalar policy computes the two differently, and bit-identity
    /// means replicating both).
    decide_slots_per_day: Vec<u64>,
    /// Per-lane schedule columns for the packed sweeps.
    epsilons: Vec<EpsilonSchedule>,
    learning_rates: Vec<LearningRate>,
    /// Per-slot sweep scratch (preallocated; the steady loop allocates
    /// nothing).
    decide_days: Vec<u64>,
    learn_days: Vec<u64>,
    eps_col: Vec<f64>,
    delta_col: Vec<f64>,
    /// Day values the cached ε/δ columns were last evaluated at (0 =
    /// never; real day indices start at 1). The schedules are pure
    /// functions of the day index, so a cached column entry stays exact
    /// until its lane's day moves — the sweeps then run compacted over
    /// just the moved lanes.
    swept_decide_days: Vec<u64>,
    swept_learn_days: Vec<u64>,
    /// Gather/scatter scratch for the compacted sweeps (preallocated).
    sweep_idx: Vec<usize>,
    sweep_days: Vec<u64>,
    sweep_eps: Vec<EpsilonSchedule>,
    sweep_rates: Vec<LearningRate>,
    sweep_out: Vec<f64>,
}

impl ForesightedLanes {
    /// Packs an all-foresighted policy set. `None` when any lane is not a
    /// [`ForesightedPolicy`], the lanes mix learner kinds, or the table
    /// shapes disagree — those batches keep the virtual dispatch path.
    fn from_policies(policies: &[Box<dyn AttackPolicy>]) -> Option<ForesightedLanes> {
        let ps: Vec<&ForesightedPolicy> = policies
            .iter()
            .map(|p| p.as_any().downcast_ref::<ForesightedPolicy>())
            .collect::<Option<_>>()?;
        let learner = match ps[0].learner() {
            Learner::Batch(_) => {
                let agents: Vec<&hbm_rl::BatchQLearning> = ps
                    .iter()
                    .map(|p| match p.learner() {
                        Learner::Batch(a) => Some(a),
                        Learner::Standard(_) => None,
                    })
                    .collect::<Option<_>>()?;
                LearnerLanes::Batch(hbm_rl::BatchLanes::from_agents(&agents)?)
            }
            Learner::Standard(_) => {
                let agents: Vec<&hbm_rl::QLearning> = ps
                    .iter()
                    .map(|p| match p.learner() {
                        Learner::Standard(a) => Some(a),
                        Learner::Batch(_) => None,
                    })
                    .collect::<Option<_>>()?;
                LearnerLanes::Standard(hbm_rl::StandardLanes::from_agents(&agents)?)
            }
        };
        let params: Vec<ForesightedLaneParams> = ps.iter().map(|p| p.lane_params()).collect();
        let lanes = ps.len();
        Some(ForesightedLanes {
            learner,
            campaigns: ps.iter().map(|p| p.campaign()).collect(),
            rngs: ps
                .iter()
                .map(|p| StdRng::from_state(p.rng_state()))
                .collect(),
            decide_slots_per_day: params
                .iter()
                .map(|p| (Duration::from_days(1.0) / p.slot) as u64)
                .collect(),
            epsilons: params.iter().map(|p| p.epsilon).collect(),
            learning_rates: params.iter().map(|p| p.learning_rate).collect(),
            params,
            decide_days: vec![0; lanes],
            learn_days: vec![0; lanes],
            eps_col: vec![0.0; lanes],
            delta_col: vec![0.0; lanes],
            swept_decide_days: vec![0; lanes],
            swept_learn_days: vec![0; lanes],
            sweep_idx: Vec::with_capacity(lanes),
            sweep_days: Vec::with_capacity(lanes),
            sweep_eps: Vec::with_capacity(lanes),
            sweep_rates: Vec::with_capacity(lanes),
            sweep_out: Vec::with_capacity(lanes),
        })
    }

    /// Evaluates every lane's ε and δ schedules for this slot as two packed
    /// column sweeps, memoized by day. The schedules are pure functions of
    /// the day index, so eagerly evaluating lanes that end up not consuming
    /// the value (teacher phase, campaign early returns, no pending
    /// transition, outage) is value-neutral, and a cached entry can be
    /// reused verbatim until the lane's day moves; where a lane *does*
    /// consume it, the sweep element is bit-identical to the scalar `at`
    /// call it replaces (property-pinned in `hbm-rl`).
    ///
    /// Must run before any pending transition is taken: the δ column is
    /// derived from the pendings' observation slots.
    fn sweep_schedules(
        &mut self,
        records: &[SlotRecord],
        pendings: &[Option<PendingTransition>],
        slots_per_day: u64,
    ) {
        for i in 0..self.params.len() {
            // decide: `day = obs.slot / (1 day / slot) + 1` (un-rounded).
            self.decide_days[i] = records[i].slot / self.decide_slots_per_day[i] + 1;
            // learn: `δ = learning_rate.at(t.day + 1)` with
            // `t.day = pending.observation.slot / slots_per_day` (rounded).
            self.learn_days[i] = pendings[i]
                .as_ref()
                .map_or(0, |p| p.observation.slot / slots_per_day)
                + 1;
        }
        // ε: re-evaluate only the lanes whose decide day moved (about once
        // per simulated day per lane); the cached column entries are exact
        // for unmoved days, so the packed sweep runs compacted.
        self.sweep_idx.clear();
        self.sweep_days.clear();
        self.sweep_eps.clear();
        for i in 0..self.decide_days.len() {
            if self.decide_days[i] != self.swept_decide_days[i] {
                self.sweep_idx.push(i);
                self.sweep_days.push(self.decide_days[i]);
                self.sweep_eps.push(self.epsilons[i]);
            }
        }
        if !self.sweep_idx.is_empty() {
            self.sweep_out.clear();
            self.sweep_out.resize(self.sweep_idx.len(), 0.0);
            epsilon_sweep(&self.sweep_eps, &self.sweep_days, &mut self.sweep_out);
            for (k, &i) in self.sweep_idx.iter().enumerate() {
                self.eps_col[i] = self.sweep_out[k];
                self.swept_decide_days[i] = self.decide_days[i];
            }
        }
        // δ: same compaction keyed on the learn day (moves when a lane's
        // pending transition is re-armed).
        self.sweep_idx.clear();
        self.sweep_days.clear();
        self.sweep_rates.clear();
        for i in 0..self.learn_days.len() {
            if self.learn_days[i] != self.swept_learn_days[i] {
                self.sweep_idx.push(i);
                self.sweep_days.push(self.learn_days[i]);
                self.sweep_rates.push(self.learning_rates[i]);
            }
        }
        if !self.sweep_idx.is_empty() {
            self.sweep_out.clear();
            self.sweep_out.resize(self.sweep_idx.len(), 0.0);
            learning_rate_sweep(&self.sweep_rates, &self.sweep_days, &mut self.sweep_out);
            for (k, &i) in self.sweep_idx.iter().enumerate() {
                self.delta_col[i] = self.sweep_out[k];
                self.swept_learn_days[i] = self.learn_days[i];
            }
        }
    }

    /// [`ForesightedPolicy::learn`] on lane `i`, against the packed tables.
    fn learn_lane(&mut self, i: usize, t: &Transition) {
        let p = self.params[i];
        if !p.learning_enabled {
            return;
        }
        let s = p.state_of(
            t.observation.battery_soc,
            t.observation.estimated_total,
            t.observation.inlet,
        );
        let s_next = p.state_of(t.next_battery_soc, t.next_estimated_total, t.inlet);
        let stored_ok = can_attack(t.next_battery_stored, p.attack_load, p.slot);
        let allowed_next = p.allowed_for_soc(t.next_battery_soc, stored_ok);
        let reward = p.reward(t.inlet, t.action);
        // The sweep evaluated this lane's δ from the same pending this
        // transition was built from.
        debug_assert_eq!(self.learn_days[i], t.day + 1);
        let delta = self.delta_col[i];
        match &mut self.learner {
            LearnerLanes::Batch(l) => l.update(
                i,
                s,
                t.action.index(),
                reward,
                s_next,
                &allowed_next,
                |s, a| p.post_state(s, a),
                delta,
            ),
            LearnerLanes::Standard(l) => {
                l.update(i, s, t.action.index(), reward, s_next, &allowed_next, delta)
            }
        }
    }

    /// [`ForesightedPolicy::decide`] on lane `i`, against the packed tables
    /// and hoisted campaign/RNG columns.
    fn decide_lane(&mut self, i: usize, obs: &Observation) -> AttackAction {
        let p = self.params[i];
        if obs.capping {
            if let Campaign::Attacking { launch_est } = self.campaigns[i] {
                self.campaigns[i] = Campaign::Recharging { launch_est };
            }
            return AttackAction::Standby;
        }
        let s = p.state_of(obs.battery_soc, obs.estimated_total, obs.inlet);
        let stored_ok = can_attack(obs.battery_stored, p.attack_load, p.slot);

        let load_collapsed =
            |launch_est: Power| obs.estimated_total < launch_est - Power::from_kilowatts(0.4);
        let ineffective =
            obs.estimated_total + p.attack_load < p.capacity + Power::from_kilowatts(0.25);
        match self.campaigns[i] {
            Campaign::Attacking { launch_est } => {
                if load_collapsed(launch_est) || ineffective {
                    self.campaigns[i] = Campaign::Idle;
                } else if !stored_ok {
                    self.campaigns[i] = Campaign::Recharging { launch_est };
                } else {
                    return AttackAction::Attack;
                }
            }
            Campaign::Recharging { launch_est } => {
                if load_collapsed(launch_est) || ineffective {
                    self.campaigns[i] = Campaign::Idle;
                } else if obs.battery_soc >= p.min_launch_soc && stored_ok {
                    self.campaigns[i] = Campaign::Attacking { launch_est };
                    return AttackAction::Attack;
                } else {
                    return AttackAction::Charge;
                }
            }
            Campaign::Idle => {}
        }

        let allowed = p.allowed_for_soc(obs.battery_soc, stored_ok);
        let day = self.decide_days[i];
        debug_assert_eq!(day, obs.slot / self.decide_slots_per_day[i] + 1);

        if p.learning_enabled && day <= p.teacher_days {
            return if obs.estimated_total >= p.teacher_threshold
                && obs.battery_soc >= p.min_launch_soc
                && stored_ok
            {
                self.campaigns[i] = Campaign::Attacking {
                    launch_est: obs.estimated_total,
                };
                AttackAction::Attack
            } else if obs.battery_soc < 1.0 {
                AttackAction::Charge
            } else {
                AttackAction::Standby
            };
        }

        let eps = if p.learning_enabled {
            self.eps_col[i]
        } else {
            0.0
        };
        // Same conditional draws as the scalar policy: no RNG output is
        // consumed unless ε is strictly positive, and the index draw only
        // happens on the explore branch.
        let a = if eps > 0.0 && self.rngs[i].random::<f64>() < eps {
            allowed[self.rngs[i].random_range(0..allowed.len())]
        } else {
            match &self.learner {
                LearnerLanes::Batch(l) => {
                    l.select_greedy(i, s, &allowed, |s, a| p.post_state(s, a))
                }
                LearnerLanes::Standard(l) => l.select_greedy(i, s, &allowed),
            }
        };
        let action = AttackAction::from_index(a);
        if action == AttackAction::Attack {
            self.campaigns[i] = Campaign::Attacking {
                launch_est: obs.estimated_total,
            };
        }
        action
    }

    /// Flows lane `i`'s packed state (tables, RNG, campaign) back into the
    /// scalar policy it was packed from.
    fn sync_into_policy(&self, i: usize, policy: &mut ForesightedPolicy) {
        match (&self.learner, policy.learner_mut()) {
            (LearnerLanes::Batch(l), Learner::Batch(agent)) => {
                l.sync_into(i, agent)
                    .expect("lane shape matches its source");
            }
            (LearnerLanes::Standard(l), Learner::Standard(agent)) => {
                l.sync_into(i, agent)
                    .expect("lane shape matches its source");
            }
            _ => unreachable!("lane learner kind matches the policy it was packed from"),
        }
        policy.restore_rng(self.rngs[i].state());
        policy.set_campaign(self.campaigns[i]);
    }
}

/// drive it with [`step_all`](BatchSim::step_all) or
/// [`run`](BatchSim::run), then collect results with
/// [`take_reports`](BatchSim::take_reports) and hand the scenarios back with
/// [`into_sims`](BatchSim::into_sims).
pub struct BatchSim {
    // ---- Per-lane scenario components (AoS; cold per slot). ----
    configs: Vec<ColoConfig>,
    traces: Vec<Arc<PowerTrace>>,
    /// Parameter template per lane; live inlet state is in `zones`.
    zone_models: Vec<ZoneModel>,
    protocols: Vec<EmergencyProtocol>,
    batteries: Vec<Battery>,
    side_channels: Vec<VoltageSideChannel>,
    policies: Vec<Box<dyn AttackPolicy>>,
    slot_indices: Vec<u64>,
    /// Per-lane result metrics. The per-slot accumulators live in
    /// `metric_lanes` while batched and are folded back in before metrics
    /// leave the batch (`take_reports` / `into_sims`).
    metrics: Vec<Metrics>,
    metric_lanes: MetricLanes,
    pendings: Vec<Option<PendingTransition>>,
    outage_remainings: Vec<Option<Duration>>,
    prev_cappings: Vec<bool>,
    /// The attacker's EMA estimate filter, split into SoA columns (value in
    /// watts + initialized flag) so the dense path can update every lane in
    /// one packed pass; `Option<Power>` is materialized on
    /// [`into_sims`](BatchSim::into_sims).
    filter_w: Vec<f64>,
    filter_set: Vec<bool>,
    recorders: Vec<Option<Box<dyn Recorder>>>,
    /// Cached [`AttackPolicy::wants_learn`]; lanes with `false` skip the
    /// pending-transition bookkeeping entirely.
    wants_learn: Vec<bool>,
    /// Set when every lane runs a [`MyopicPolicy`]: its `decide` is three
    /// scalar comparisons on values the step loop already holds, so the
    /// whole fleet skips the observation build and the trait-object call.
    myopic: Option<MyopicLanes>,
    /// Set when every lane runs a [`ForesightedPolicy`] with one learner
    /// kind and one table shape: Q-tables pack into a single contiguous
    /// lane-major matrix, schedule evaluations become packed column sweeps,
    /// and learn/decide run without the trait-object call (see
    /// [`ForesightedLanes`]). The packed state is authoritative while
    /// batched; [`into_sims`](BatchSim::into_sims) syncs it back.
    foresighted: Option<ForesightedLanes>,

    // ---- Per-lane config invariants, hoisted into dense arrays. ----
    // `ColoConfig` spans several cache lines per lane; the hot phases only
    // need these scalars, so precomputing them once (the same derivation
    // `Simulation::step` performs per slot — identical values) turns the
    // per-slot config traffic into sequential one-value-per-lane loads.
    benign_caps: Vec<Power>,
    benign_emergency_caps: Vec<Power>,
    attacker_caps: Vec<Power>,
    /// `attacker_caps` in raw watts, for the packed filter pass.
    attacker_caps_w: Vec<f64>,
    attacker_emergency_caps: Vec<Power>,
    ema_alphas: Vec<f64>,
    standby_powers: Vec<Power>,
    attack_loads: Vec<Power>,
    max_charge_rates: Vec<Power>,
    charge_efficiencies: Vec<f64>,
    supplies: Vec<Temperature>,
    outage_downtimes: Vec<Duration>,
    /// Per-lane wrapping cursor into the trace: the first slot not yet
    /// staged in `trace_window`, advanced a block at a time by the refill.
    trace_positions: Vec<u32>,
    /// The next `TRACE_BLOCK` slots of every lane's trace, one lanes-wide
    /// row per slot (`[row · lanes + i]`), so phase 1 reads one contiguous
    /// row instead of gathering from `lanes` separate heap allocations.
    /// Lanes advance in lockstep (every lane, every slot, outage or not),
    /// so one row counter serves lanes of any trace length and phase.
    trace_window: Vec<Power>,
    /// Row of `trace_window` the next slot reads; `TRACE_BLOCK` means the
    /// window is spent and refills before that slot.
    window_row: usize,

    // ---- SoA hot state. ----
    zones: ZoneLanes,
    /// Side-channel RNG/wander/params in column-wise form; the authoritative
    /// noise state while batched (`side_channels` holds the cold template,
    /// re-synced on [`into_sims`](BatchSim::into_sims)).
    sc_lanes: ChannelLanes,

    // ---- Shared batch invariants. ----
    slot: Duration,
    slots_per_day: u64,

    // ---- Preallocated per-slot scratch (no steady-state allocations). ----
    /// Lane indices not in outage downtime this slot.
    active: Vec<u32>,
    /// Per-lane IT heat load fed to the zone pass, watts.
    loads_w: Vec<f64>,
    /// Packed side-channel uniforms/normals, `NORMALS_PER_ESTIMATE` per
    /// active lane. Draw-major (`u[k·lanes + i]`) on the dense path,
    /// lane-major compacted over `active` on the mixed path; the Box–Muller
    /// pass is element-wise, so both layouts share the buffers.
    u1: Vec<f64>,
    u2: Vec<f64>,
    z: Vec<f64>,
    /// Benign actuals in watts (dense-path input to the packed estimate).
    benign_w: Vec<f64>,
    /// Per-lane capping flags for the slot (written by phase 1, read by the
    /// packed filter pass).
    cappings: Vec<bool>,
    /// Raw estimates in watts (dense-path output of the packed estimate).
    est_w: Vec<f64>,
    raw_estimates: Vec<Power>,
    att_metered: Vec<Power>,
    att_actual: Vec<Power>,
    observations: Vec<Observation>,
    records: Vec<SlotRecord>,
}

impl BatchSim {
    /// Builds a batch from fully constructed simulations (one lane each).
    ///
    /// # Panics
    ///
    /// Panics if `sims` is empty or the scenarios disagree on the slot
    /// length (the batch advances all lanes by one shared slot at a time).
    pub fn new(sims: Vec<Simulation>) -> BatchSim {
        assert!(!sims.is_empty(), "batch needs at least one scenario");
        let lanes = sims.len();
        let mut configs = Vec::with_capacity(lanes);
        let mut traces = Vec::with_capacity(lanes);
        let mut zone_models = Vec::with_capacity(lanes);
        let mut protocols = Vec::with_capacity(lanes);
        let mut batteries = Vec::with_capacity(lanes);
        let mut side_channels = Vec::with_capacity(lanes);
        let mut policies = Vec::with_capacity(lanes);
        let mut slot_indices = Vec::with_capacity(lanes);
        let mut metrics = Vec::with_capacity(lanes);
        let mut pendings = Vec::with_capacity(lanes);
        let mut outage_remainings = Vec::with_capacity(lanes);
        let mut prev_cappings = Vec::with_capacity(lanes);
        let mut filter_w = Vec::with_capacity(lanes);
        let mut filter_set = Vec::with_capacity(lanes);
        let mut recorders = Vec::with_capacity(lanes);
        for sim in sims {
            let parts = sim.into_parts();
            configs.push(parts.config);
            traces.push(parts.trace);
            zone_models.push(parts.zone);
            protocols.push(parts.protocol);
            batteries.push(parts.battery);
            side_channels.push(parts.side_channel);
            policies.push(parts.policy);
            slot_indices.push(parts.slot_index);
            metrics.push(parts.metrics);
            pendings.push(parts.pending);
            outage_remainings.push(parts.outage_remaining);
            prev_cappings.push(parts.prev_capping);
            filter_w.push(parts.estimate_filter.map_or(0.0, |p| p.as_watts()));
            filter_set.push(parts.estimate_filter.is_some());
            recorders.push(parts.recorder);
        }
        let slot = configs[0].slot;
        assert!(
            configs.iter().all(|c| c.slot == slot),
            "all lanes must share the slot length"
        );
        let metric_lanes = MetricLanes::from_metrics(&metrics);
        let zones = ZoneLanes::from_models(&zone_models);
        let sc_lanes = ChannelLanes::from_channels(&side_channels);
        let wants_learn = policies.iter().map(|p| p.wants_learn()).collect();
        let myopic = policies
            .iter()
            .map(|p| p.as_any().downcast_ref::<MyopicPolicy>())
            .collect::<Option<Vec<_>>>()
            .map(|ps| MyopicLanes {
                thresholds_w: ps.iter().map(|p| p.threshold().as_watts()).collect(),
                arm_kwh: ps
                    .iter()
                    .map(|p| p.arm_energy().as_kilowatt_hours())
                    .collect(),
            });
        let foresighted = if myopic.is_some() {
            None
        } else {
            ForesightedLanes::from_policies(&policies)
        };
        let benign_caps = configs.iter().map(|c| c.benign_capacity()).collect();
        let benign_emergency_caps = configs.iter().map(|c| c.benign_emergency_cap()).collect();
        let attacker_caps: Vec<Power> = configs.iter().map(|c| c.attacker_capacity).collect();
        let attacker_caps_w = attacker_caps.iter().map(|p| p.as_watts()).collect();
        let attacker_emergency_caps = configs.iter().map(|c| c.attacker_emergency_cap()).collect();
        let ema_alphas = configs.iter().map(|c| c.estimate_ema_alpha).collect();
        let standby_powers = configs.iter().map(|c| c.standby_power).collect();
        let attack_loads = configs.iter().map(|c| c.attack_load).collect();
        let max_charge_rates = configs.iter().map(|c| c.battery.max_charge_rate).collect();
        let charge_efficiencies = configs
            .iter()
            .map(|c| c.battery.charge_efficiency)
            .collect();
        let supplies = configs.iter().map(|c| c.cooling.supply).collect();
        let outage_downtimes = configs.iter().map(|c| c.outage_downtime).collect();
        let trace_positions: Vec<u32> = slot_indices
            .iter()
            .zip(&traces)
            .map(|(&k, t)| (k % t.len() as u64) as u32)
            .collect();
        BatchSim {
            configs,
            traces,
            zone_models,
            protocols,
            batteries,
            side_channels,
            policies,
            slot_indices,
            metrics,
            metric_lanes,
            pendings,
            outage_remainings,
            prev_cappings,
            filter_w,
            filter_set,
            recorders,
            wants_learn,
            myopic,
            foresighted,
            benign_caps,
            benign_emergency_caps,
            attacker_caps,
            attacker_caps_w,
            attacker_emergency_caps,
            ema_alphas,
            standby_powers,
            attack_loads,
            max_charge_rates,
            charge_efficiencies,
            supplies,
            outage_downtimes,
            trace_positions,
            trace_window: vec![Power::ZERO; TRACE_BLOCK * lanes],
            window_row: TRACE_BLOCK,
            zones,
            sc_lanes,
            slot,
            slots_per_day: slots_per_day_at(slot),
            active: Vec::with_capacity(lanes),
            loads_w: vec![0.0; lanes],
            u1: vec![0.0; lanes * NORMALS_PER_ESTIMATE],
            u2: vec![0.0; lanes * NORMALS_PER_ESTIMATE],
            z: vec![0.0; lanes * NORMALS_PER_ESTIMATE],
            benign_w: vec![0.0; lanes],
            cappings: vec![false; lanes],
            est_w: vec![0.0; lanes],
            raw_estimates: vec![Power::ZERO; lanes],
            att_metered: vec![Power::ZERO; lanes],
            att_actual: vec![Power::ZERO; lanes],
            observations: vec![blank_observation(); lanes],
            records: vec![blank_record(); lanes],
        }
    }

    /// Number of lanes (scenarios) in the batch.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the batch is empty (never true for constructed batches).
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The shared slot length.
    pub fn slot(&self) -> Duration {
        self.slot
    }

    /// Whether this batch devirtualized its learning lanes — true only for
    /// an all-[`ForesightedPolicy`] batch with one learner kind and one
    /// table shape. Tests assert on this so a silent fallback to virtual
    /// dispatch (still correct, just slower) cannot hide.
    pub fn learning_devirtualized(&self) -> bool {
        self.foresighted.is_some()
    }

    /// The last slot's records, one per lane ([`blank`](SlotRecord) before
    /// the first [`step_all`](BatchSim::step_all)).
    pub fn records(&self) -> &[SlotRecord] {
        &self.records
    }

    /// Advances every lane by one slot and returns the number of lanes that
    /// spent the slot in outage downtime.
    ///
    /// Phase structure (matching [`Simulation::step`] per lane, op for op):
    ///
    /// 1. slot bookkeeping and benign tenants (scalar sweep);
    /// 2. side-channel uniform draws, compacted over non-outage lanes;
    /// 3. one packed Box–Muller pass over all lanes' normals (vectorized);
    /// 4. estimate → learn → decide → act (virtual dispatch per lane;
    ///    all-myopic and all-foresighted fleets devirtualize — the latter
    ///    with packed Q-table lanes and schedule column sweeps);
    /// 5. zone thermal pass over the whole batch ([`ZoneLanes::step_all`]);
    /// 6. protocol, metrics, and record finalization (scalar sweep).
    pub fn step_all(&mut self) -> u32 {
        let started = hbm_telemetry::timing::start();
        let slot = self.slot;
        let lanes = self.len();
        self.active.clear();
        // ---- Phase 1: slot bookkeeping + benign tenants. ----
        if self.window_row == TRACE_BLOCK {
            self.refill_trace_window();
        }
        let row_at = self.window_row * lanes;
        self.window_row += 1;
        for i in 0..lanes {
            let k = self.slot_indices[i];
            self.slot_indices[i] += 1;
            let benign_demand = self.trace_window[row_at + i];
            if self.outage_remainings[i].is_some() {
                // Outage downtime: everything is off; the zone pass cools
                // the lane at zero load and phase 6 finishes the books.
                self.loads_w[i] = 0.0;
                self.benign_w[i] = 0.0;
                self.raw_estimates[i] = Power::ZERO;
                self.records[i] = SlotRecord {
                    slot: k,
                    benign_demand: Power::ZERO,
                    benign_actual: Power::ZERO,
                    metered_total: Power::ZERO,
                    actual_total: Power::ZERO,
                    attack_load: Power::ZERO,
                    battery_soc: self.batteries[i].state_of_charge(),
                    estimated_total: Power::ZERO,
                    action: AttackAction::Standby,
                    inlet: Temperature::from_celsius(0.0), // phase 6
                    capping: false,
                    outage: true,
                };
            } else {
                self.active.push(i as u32);
                // `prev_cappings` is invariantly the protocol's capping
                // state as of the end of the previous slot (phase 6 and the
                // outage path both maintain it), so the protocol struct
                // itself stays untouched until phase 6.
                let capping = self.prev_cappings[i];
                debug_assert_eq!(capping, self.protocols[i].state().is_capping());
                let benign_limit = if capping {
                    self.benign_emergency_caps[i]
                } else {
                    self.benign_caps[i]
                };
                let benign_actual = benign_demand.min(benign_limit);
                // Dense columns feeding the packed estimate + filter passes.
                self.benign_w[i] = benign_actual.as_watts();
                self.cappings[i] = capping;
                let r = &mut self.records[i];
                r.slot = k;
                r.benign_demand = benign_demand;
                r.benign_actual = benign_actual;
                r.capping = capping;
                r.outage = false;
            }
        }

        // ---- Phase 2: side-channel uniforms. ----
        // Hoisting the draws ahead of the estimate is value-identical: the
        // uniforms are input-independent and drawn in the same RNG order.
        let n_active = self.active.len();
        let dense = n_active == lanes;
        if dense {
            // Every lane participates: one packed xoshiro sweep over the
            // whole batch (draw-major layout).
            self.sc_lanes.draw_all(&mut self.u1, &mut self.u2);
        } else {
            let mut tmp = [0.0; 2 * NORMALS_PER_ESTIMATE];
            for j in 0..n_active {
                let i = self.active[j] as usize;
                self.sc_lanes.draw_uniforms_lane(i, &mut tmp);
                let at = j * NORMALS_PER_ESTIMATE;
                self.u1[at..at + NORMALS_PER_ESTIMATE]
                    .copy_from_slice(&tmp[..NORMALS_PER_ESTIMATE]);
                self.u2[at..at + NORMALS_PER_ESTIMATE]
                    .copy_from_slice(&tmp[NORMALS_PER_ESTIMATE..]);
            }
        }

        // ---- Phase 3: packed Box–Muller across the whole batch. ----
        let packed = n_active * NORMALS_PER_ESTIMATE;
        box_muller_slice(
            &self.u1[..packed],
            &self.u2[..packed],
            &mut self.z[..packed],
        );

        // ---- Phase 4: estimate, learn, decide, act. ----
        if dense {
            // Packed measurement-model pass over all lanes (inputs were laid
            // down column-wise by phase 1), then a packed raw-estimate + EMA
            // filter pass. Per lane these are the exact f64 sequences of the
            // scalar path below — `Power` arithmetic is plain arithmetic on
            // watts — just strip-mined over the batch.
            self.sc_lanes
                .estimate_all(&self.benign_w, &self.z, &mut self.est_w);
            for i in 0..lanes {
                let raw_estimate = self.est_w[i] + self.attacker_caps_w[i];
                let alpha = self.ema_alphas[i];
                let filtered = if !self.filter_set[i] {
                    raw_estimate
                } else if self.cappings[i] {
                    // Capped slots carry no information about the underlying
                    // demand; freeze the filter (see Simulation::step_inner).
                    self.filter_w[i]
                } else {
                    self.filter_w[i] * (1.0 - alpha) + raw_estimate * alpha
                };
                self.filter_w[i] = filtered;
                self.filter_set[i] = true;
                self.est_w[i] = raw_estimate;
            }
        }
        if let Some(fl) = &mut self.foresighted {
            // Packed ε/δ schedule sweeps for the whole fleet, before any
            // pending transition is taken (the δ column reads them).
            fl.sweep_schedules(&self.records, &self.pendings, self.slots_per_day);
        }
        for j in 0..n_active {
            let i = self.active[j] as usize;
            let k = self.records[i].slot;
            let benign_actual = self.records[i].benign_actual;
            let capping = self.records[i].capping;

            let (raw_estimate, estimated_total) = if dense {
                (
                    Power::from_watts(self.est_w[i]),
                    Power::from_watts(self.filter_w[i]),
                )
            } else {
                let at = j * NORMALS_PER_ESTIMATE;
                let mut z4 = [0.0; NORMALS_PER_ESTIMATE];
                z4.copy_from_slice(&self.z[at..at + NORMALS_PER_ESTIMATE]);
                let raw = self.sc_lanes.estimate_lane(i, benign_actual, &z4);
                let raw_estimate = raw + self.attacker_caps[i];
                let alpha = self.ema_alphas[i];
                let estimated_total = if !self.filter_set[i] {
                    raw_estimate
                } else if capping {
                    Power::from_watts(self.filter_w[i])
                } else {
                    Power::from_watts(self.filter_w[i]) * (1.0 - alpha) + raw_estimate * alpha
                };
                self.filter_w[i] = estimated_total.as_watts();
                self.filter_set[i] = true;
                (raw_estimate, estimated_total)
            };
            let action = if let Some(my) = &self.myopic {
                // All-myopic fleet: replay `MyopicPolicy::decide`'s three
                // comparisons directly (same order, same raw-unit
                // representations), skipping the observation build and the
                // indirect call. Myopic never learns, so the learn path
                // below is dead for every lane of such a batch.
                if capping {
                    AttackAction::Standby
                } else if estimated_total.as_watts() >= my.thresholds_w[i]
                    && self.batteries[i].stored().as_kilowatt_hours() >= my.arm_kwh[i]
                {
                    AttackAction::Attack
                } else if self.batteries[i].state_of_charge() < 1.0 {
                    AttackAction::Charge
                } else {
                    AttackAction::Standby
                }
            } else {
                let observation = Observation {
                    slot: k,
                    battery_soc: self.batteries[i].state_of_charge(),
                    battery_stored: self.batteries[i].stored(),
                    estimated_total,
                    inlet: self.zones.inlet(i),
                    capping,
                };

                // Non-learning lanes never have a pending transition and
                // never read `observations` back (phase 6 skips them too),
                // so the whole learn path — including the 100-byte
                // `pendings` sweep — collapses to this one flag test.
                if self.wants_learn[i] {
                    if let Some(p) = self.pendings[i].take() {
                        let transition = Transition {
                            observation: p.observation,
                            action: p.action,
                            inlet: p.inlet,
                            next_battery_soc: p.next_battery_soc,
                            next_battery_stored: p.next_battery_stored,
                            next_estimated_total: estimated_total,
                            next_capping: capping,
                            day: p.observation.slot / self.slots_per_day,
                        };
                        match &mut self.foresighted {
                            Some(fl) => fl.learn_lane(i, &transition),
                            None => self.policies[i].learn(&transition),
                        }
                    }
                    self.observations[i] = observation;
                }

                match &mut self.foresighted {
                    Some(fl) => fl.decide_lane(i, &observation),
                    None => self.policies[i].decide(&observation),
                }
            };
            let attacker_metered_limit = if capping {
                self.attacker_emergency_caps[i]
            } else {
                self.attacker_caps[i]
            };
            let (attacker_metered, attacker_actual, battery_attack) = match action {
                AttackAction::Attack => {
                    let metered = attacker_metered_limit;
                    let delivered = self.batteries[i].discharge(self.attack_loads[i], slot);
                    (metered, metered + delivered, delivered)
                }
                AttackAction::Charge => {
                    let headroom =
                        (attacker_metered_limit - self.standby_powers[i]).positive_part();
                    let drawn =
                        self.batteries[i].charge(self.max_charge_rates[i].min(headroom), slot);
                    let standby = self.standby_powers[i].min(attacker_metered_limit);
                    let loss = drawn * (1.0 - self.charge_efficiencies[i]);
                    (standby + drawn, standby + loss, Power::ZERO)
                }
                AttackAction::Standby => {
                    let standby = self.standby_powers[i].min(attacker_metered_limit);
                    (standby, standby, Power::ZERO)
                }
            };

            let metered_total = benign_actual + attacker_metered;
            let actual_total = benign_actual + attacker_actual;
            self.loads_w[i] = actual_total.as_watts();
            self.att_metered[i] = attacker_metered;
            self.att_actual[i] = attacker_actual;
            self.raw_estimates[i] = raw_estimate;
            let r = &mut self.records[i];
            r.metered_total = metered_total;
            r.actual_total = actual_total;
            r.attack_load = battery_attack;
            r.battery_soc = self.batteries[i].state_of_charge();
            r.estimated_total = estimated_total;
            r.action = action;
        }

        // ---- Phase 5: zone thermal pass over the whole batch. ----
        self.zones.step_all(&self.loads_w, slot);

        // ---- Phase 6: protocol, metrics, record finalization. ----
        let mut down: u32 = 0;
        for i in 0..lanes {
            let inlet = self.zones.inlet(i);
            let inlet_c = inlet.as_celsius();
            self.records[i].inlet = inlet;
            self.metric_lanes.slots[i] += 1;
            if self.records[i].outage {
                down += 1;
                self.metric_lanes.outage_slots[i] += 1;
                match &mut self.metric_lanes.hist {
                    Some(h) => h.add(i, inlet_c),
                    None => self.metrics[i].inlet_histogram.add(inlet_c),
                }
                let left = self.outage_remainings[i].expect("outage lane") - slot;
                if left > Duration::ZERO {
                    self.outage_remainings[i] = Some(left);
                } else {
                    self.outage_remainings[i] = None;
                    self.protocols[i].reset();
                }
                self.pendings[i] = None; // the attacker's episode is over
                self.prev_cappings[i] = false;
            } else {
                let capping = self.records[i].capping;
                let next_state = self.protocols[i].step(inlet, slot);
                if next_state.is_outage() {
                    self.metric_lanes.outage_events[i] += 1;
                    self.outage_remainings[i] = Some(self.outage_downtimes[i]);
                }
                let capping_next = next_state.is_capping();
                if capping_next && !self.prev_cappings[i] {
                    self.metric_lanes.emergency_events[i] += 1;
                }
                self.prev_cappings[i] = capping_next;

                if capping {
                    self.metric_lanes.emergency_slots[i] += 1;
                    let u_inst =
                        (self.records[i].benign_demand / self.benign_caps[i]).clamp(0.0, 1.0);
                    let load_frac = self.configs[i].latency.rated_load() * u_inst;
                    let degradation = self.configs[i]
                        .latency
                        .degradation(self.configs[i].emergency_cap_fraction(), load_frac);
                    self.metric_lanes.degradation_sum[i] += degradation;
                    self.metric_lanes.degradation_slots[i] += 1;
                }
                let battery_attack = self.records[i].attack_load;
                if battery_attack > Power::ZERO {
                    self.metric_lanes.attack_slots[i] += 1;
                    self.metric_lanes.attack_energy_kwh[i] +=
                        (battery_attack * slot).as_kilowatt_hours();
                }
                self.metric_lanes.delta_t_sum_c[i] +=
                    (inlet - self.supplies[i]).positive_part().as_celsius();
                match &mut self.metric_lanes.hist {
                    Some(h) => h.add(i, inlet_c),
                    None => self.metrics[i].inlet_histogram.add(inlet_c),
                }
                self.metric_lanes.attacker_metered_kwh[i] +=
                    (self.att_metered[i] * slot).as_kilowatt_hours();
                self.metric_lanes.attacker_actual_kwh[i] +=
                    (self.att_actual[i] * slot).as_kilowatt_hours();

                if self.wants_learn[i] {
                    self.pendings[i] = Some(PendingTransition {
                        observation: self.observations[i],
                        action: self.records[i].action,
                        inlet,
                        next_battery_soc: self.batteries[i].state_of_charge(),
                        next_battery_stored: self.batteries[i].stored(),
                    });
                }
            }
            if let Some(rec) = self.recorders[i].as_mut() {
                emit_sample(rec.as_mut(), &self.records[i], self.raw_estimates[i]);
            }
        }
        hbm_telemetry::timing::record_span_units("batch.step", started, lanes as u64);
        down
    }

    /// Stages the next `TRACE_BLOCK` slots of every lane's trace into
    /// `trace_window`, advancing each lane's cursor and wrapping at its own
    /// trace length. Reuses the window's allocation.
    fn refill_trace_window(&mut self) {
        let lanes = self.len();
        for (i, trace) in self.traces.iter().enumerate() {
            let samples = trace.samples();
            let mut pos = self.trace_positions[i] as usize;
            // Column `i` of the window: exactly `TRACE_BLOCK` rows.
            for cell in self.trace_window[i..].iter_mut().step_by(lanes) {
                *cell = samples[pos];
                pos = if pos + 1 == samples.len() { 0 } else { pos + 1 };
            }
            self.trace_positions[i] = pos as u32;
        }
        self.window_row = 0;
    }

    /// Runs `slots` slots and returns the per-slot count of lanes that were
    /// down (in outage downtime) — the fleet availability signal.
    pub fn run(&mut self, slots: u64) -> Vec<u32> {
        let mut down = Vec::with_capacity(slots as usize);
        for _ in 0..slots {
            down.push(self.step_all());
        }
        down
    }

    /// Like [`run`](BatchSim::run), but additionally collects every lane's
    /// per-slot [`SlotRecord`]s, lane-major (`records[i][t]`) — what the
    /// experiment harness needs to post-process a batched
    /// [`Simulation::run_recorded`] equivalent.
    pub fn run_recorded(&mut self, slots: u64) -> (Vec<u32>, Vec<Vec<SlotRecord>>) {
        let mut down = Vec::with_capacity(slots as usize);
        let mut records: Vec<Vec<SlotRecord>> = (0..self.len())
            .map(|_| Vec::with_capacity(slots as usize))
            .collect();
        for _ in 0..slots {
            down.push(self.step_all());
            for (lane, record) in records.iter_mut().zip(&self.records) {
                lane.push(*record);
            }
        }
        (down, records)
    }

    /// Per-lane reports, taking each lane's metrics *by move* (the lane
    /// continues with fresh metrics, as after [`Simulation::warmup`]).
    pub fn take_reports(&mut self) -> Vec<SimReport> {
        self.metric_lanes.fold_into(&mut self.metrics);
        let reports = (0..self.len())
            .map(|i| SimReport {
                policy: self.policies[i].name().to_string(),
                metrics: std::mem::replace(&mut self.metrics[i], Metrics::new(self.slot)),
            })
            .collect();
        // Re-seed the columns from the fresh (zeroed) metrics.
        self.metric_lanes = MetricLanes::from_metrics(&self.metrics);
        reports
    }

    /// Disassembles the batch back into standalone simulations, each
    /// carrying its full state (zone inlet synced from the SoA lanes) so it
    /// can keep stepping scalar from exactly where the batch left off.
    pub fn into_sims(mut self) -> Vec<Simulation> {
        let lanes = self.len();
        // The column-wise RNG/wander/metric state is authoritative while
        // batched; flow it back before handing the scenarios out. Same for
        // a devirtualized foresighted fleet's packed tables/RNG/campaigns.
        self.sc_lanes.sync_back(&mut self.side_channels);
        self.metric_lanes.fold_into(&mut self.metrics);
        if let Some(fl) = self.foresighted.take() {
            for i in 0..lanes {
                let policy = self.policies[i]
                    .as_any_mut()
                    .downcast_mut::<ForesightedPolicy>()
                    .expect("foresighted lanes only pack ForesightedPolicy");
                fl.sync_into_policy(i, policy);
            }
        }
        let mut sims = Vec::with_capacity(lanes);
        for i in (0..lanes).rev() {
            let mut zone = self.zone_models[i];
            zone.set_inlet(self.zones.inlet(i));
            let parts = SimParts {
                config: self.configs.pop().expect("lane"),
                trace: self.traces.pop().expect("lane"),
                zone,
                protocol: self.protocols.pop().expect("lane"),
                battery: self.batteries.pop().expect("lane"),
                side_channel: self.side_channels.pop().expect("lane"),
                policy: self.policies.pop().expect("lane"),
                slot_index: self.slot_indices[i],
                metrics: self.metrics.pop().expect("lane"),
                pending: self.pendings.pop().expect("lane"),
                outage_remaining: self.outage_remainings[i],
                prev_capping: self.prev_cappings[i],
                estimate_filter: self.filter_set[i].then(|| Power::from_watts(self.filter_w[i])),
                recorder: self.recorders.pop().expect("lane"),
            };
            sims.push(Simulation::from_parts(parts));
        }
        sims.reverse();
        sims
    }
}

/// Outcome of a sharded batch run ([`run_sharded`]).
pub struct BatchRun {
    /// The scenarios, in input order, ready to keep stepping (their metrics
    /// were moved into `reports`).
    pub sims: Vec<Simulation>,
    /// Per-scenario reports, in input order.
    pub reports: Vec<SimReport>,
    /// Per-slot count of scenarios that were down across the whole batch.
    pub down_per_slot: Vec<u32>,
}

/// Runs `sims` for `slots` slots through the batch engine, sharded across
/// the `hbm_par` thread budget.
///
/// Lanes are partitioned into contiguous shards (one per available worker,
/// probed via [`hbm_par::reserve_threads`]) and each shard advances in
/// lockstep via its own [`BatchSim`]; [`hbm_par::par_map`] returns shard
/// results in input order and the per-slot down counts merge by addition.
/// Because lanes never interact, the results are **byte-identical at any
/// thread count** — a budget of one simply runs the shards sequentially.
pub fn run_sharded(sims: Vec<Simulation>, slots: u64) -> BatchRun {
    let lanes = sims.len();
    if lanes == 0 {
        return BatchRun {
            sims,
            reports: Vec::new(),
            down_per_slot: vec![0; slots as usize],
        };
    }
    let outcomes = hbm_par::par_map(shard_lanes(sims), |shard| {
        let mut batch = BatchSim::new(shard);
        let down = batch.run(slots);
        let reports = batch.take_reports();
        (batch.into_sims(), reports, down)
    });
    let mut sims = Vec::with_capacity(lanes);
    let mut reports = Vec::with_capacity(lanes);
    let mut down_per_slot = vec![0u32; slots as usize];
    for (shard_sims, shard_reports, shard_down) in outcomes {
        sims.extend(shard_sims);
        reports.extend(shard_reports);
        for (acc, d) in down_per_slot.iter_mut().zip(shard_down) {
            *acc += d;
        }
    }
    BatchRun {
        sims,
        reports,
        down_per_slot,
    }
}

/// Outcome of a sharded recorded batch run ([`run_sharded_recorded`]).
pub struct BatchRunRecorded {
    /// The scenarios, in input order, ready to keep stepping.
    pub sims: Vec<Simulation>,
    /// Per-scenario reports, in input order.
    pub reports: Vec<SimReport>,
    /// Per-scenario, per-slot records (`records[i][t]`), in input order.
    pub records: Vec<Vec<SlotRecord>>,
    /// Per-slot count of scenarios that were down across the whole batch.
    pub down_per_slot: Vec<u32>,
}

/// [`run_sharded`] plus every lane's per-slot [`SlotRecord`]s — the batched
/// counterpart of [`Simulation::run_recorded`], with the same determinism
/// contract (byte-identical at any thread count).
pub fn run_sharded_recorded(sims: Vec<Simulation>, slots: u64) -> BatchRunRecorded {
    let lanes = sims.len();
    if lanes == 0 {
        return BatchRunRecorded {
            sims,
            reports: Vec::new(),
            records: Vec::new(),
            down_per_slot: vec![0; slots as usize],
        };
    }
    let outcomes = hbm_par::par_map(shard_lanes(sims), |shard| {
        let mut batch = BatchSim::new(shard);
        let (down, records) = batch.run_recorded(slots);
        let reports = batch.take_reports();
        (batch.into_sims(), reports, records, down)
    });
    let mut sims = Vec::with_capacity(lanes);
    let mut reports = Vec::with_capacity(lanes);
    let mut records = Vec::with_capacity(lanes);
    let mut down_per_slot = vec![0u32; slots as usize];
    for (shard_sims, shard_reports, shard_records, shard_down) in outcomes {
        sims.extend(shard_sims);
        reports.extend(shard_reports);
        records.extend(shard_records);
        for (acc, d) in down_per_slot.iter_mut().zip(shard_down) {
            *acc += d;
        }
    }
    BatchRunRecorded {
        sims,
        reports,
        records,
        down_per_slot,
    }
}

/// Partitions lanes into contiguous shards, one per worker the `hbm_par`
/// budget grants (probed, then released so `par_map` can re-borrow the same
/// threads for the actual work).
fn shard_lanes(sims: Vec<Simulation>) -> Vec<Vec<Simulation>> {
    let lanes = sims.len();
    let workers = {
        let lease = hbm_par::reserve_threads(lanes.saturating_sub(1));
        (lease.granted() + 1).min(lanes)
    };
    let quotient = lanes / workers;
    let remainder = lanes % workers;
    let mut shards: Vec<Vec<Simulation>> = Vec::with_capacity(workers);
    let mut iter = sims.into_iter();
    for s in 0..workers {
        let take = quotient + usize::from(s < remainder);
        shards.push(iter.by_ref().take(take).collect());
    }
    shards
}
