//! Packed per-lane learner storage for batched (lockstep) simulation.
//!
//! `hbm_core::BatchSim` steps many scenarios in lockstep over
//! structure-of-arrays state. Its learning lanes keep every lane's
//! Q-table in **one contiguous `[lane × state × action]` matrix**
//! ([`QTableLanes`]) so greedy selection is a dense row scan and TD
//! updates touch a single allocation, instead of chasing one boxed
//! learner per lane through virtual dispatch.
//!
//! The contract mirrors the rest of the batch engine: every per-lane
//! operation replicates the corresponding scalar learner's
//! floating-point sequence **op for op**, so a batched lane stays
//! bit-identical to the scalar [`BatchQLearning`] / [`QLearning`] /
//! [`DoubleQLearning`] it was packed from. Lanes are built by copying
//! scalar learners in ([`BatchLanes::from_agents`] and friends) and
//! synced back out (`sync_into`) when the batch hands its simulations
//! back.
//!
//! Schedule evaluation is packed the same way:
//! [`epsilon_sweep`] / [`learning_rate_sweep`] evaluate per-lane
//! schedules over contiguous day/output columns, bit-identical per
//! element to the scalar [`EpsilonSchedule::at`] /
//! [`LearningRate::at`] calls they replace (property-pinned in
//! `tests/properties.rs`). Exploration *draws* are deliberately not
//! packed: whether a lane consumes RNG output is branch-dependent in
//! the scalar policy, so hoisting draws into a column pass would
//! desynchronize the per-lane streams.

use rand::RngExt;

use crate::{BatchQLearning, DoubleQLearning, EpsilonSchedule, LearningRate, QLearning, QTable};

/// Per-lane Q-tables packed into one contiguous `[lane × state × action]`
/// value matrix (plus matching visit counts).
///
/// Lane `l`'s table occupies `values[l·states·actions ..]`; within a lane
/// the layout is row-major exactly like [`QTable`], so
/// [`QTableLanes::row`] hands out the same contiguous slice
/// [`QTable::row`] would.
#[derive(Debug, Clone, PartialEq)]
pub struct QTableLanes {
    lanes: usize,
    states: usize,
    actions: usize,
    values: Vec<f64>,
    visits: Vec<u64>,
}

impl QTableLanes {
    /// Packs the given tables column-wise. Returns `None` when the slice
    /// is empty or the tables disagree on shape (mixed shapes fall back
    /// to scalar dispatch in the batch engine).
    pub fn from_tables(tables: &[&QTable]) -> Option<Self> {
        let first = tables.first()?;
        let (states, actions) = (first.state_count(), first.action_count());
        if tables
            .iter()
            .any(|t| t.state_count() != states || t.action_count() != actions)
        {
            return None;
        }
        let mut values = Vec::with_capacity(tables.len() * states * actions);
        let mut visits = Vec::with_capacity(tables.len() * states * actions);
        for t in tables {
            values.extend_from_slice(t.values());
            visits.extend_from_slice(t.visits());
        }
        Some(QTableLanes {
            lanes: tables.len(),
            states,
            actions,
            values,
            visits,
        })
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// States per lane.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Actions per lane.
    pub fn actions(&self) -> usize {
        self.actions
    }

    #[inline]
    fn base(&self, lane: usize, s: usize) -> usize {
        debug_assert!(lane < self.lanes, "lane index out of range");
        assert!(s < self.states, "state index out of range");
        (lane * self.states + s) * self.actions
    }

    /// Lane `lane`'s action-value row for state `s` — the same contiguous
    /// slice [`QTable::row`] exposes, found by one multiply.
    #[inline]
    pub fn row(&self, lane: usize, s: usize) -> &[f64] {
        let base = self.base(lane, s);
        &self.values[base..base + self.actions]
    }

    /// [`QTable::blend`] on lane `lane`: `Q ← (1−δ)Q + δ·target`, same
    /// assert, same floating-point expression.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or `δ` is outside `(0, 1]`.
    #[inline]
    pub fn blend(&mut self, lane: usize, s: usize, a: usize, target: f64, delta: f64) {
        assert!(
            delta > 0.0 && delta <= 1.0,
            "learning rate must be in (0, 1]"
        );
        assert!(a < self.actions, "action index out of range");
        let i = self.base(lane, s) + a;
        self.values[i] = (1.0 - delta) * self.values[i] + delta * target;
        self.visits[i] += 1;
    }

    /// [`QTable::best_action`] on lane `lane` (ties toward the earliest
    /// entry of `allowed`, identical comparison sequence).
    ///
    /// # Panics
    ///
    /// Panics if `allowed` is empty or contains out-of-range actions.
    #[inline]
    pub fn best_action(&self, lane: usize, s: usize, allowed: &[usize]) -> usize {
        assert!(!allowed.is_empty(), "no allowed actions");
        let row = self.row(lane, s);
        let mut best = allowed[0];
        let mut best_v = row[allowed[0]];
        for &a in &allowed[1..] {
            let v = row[a];
            if v > best_v {
                best = a;
                best_v = v;
            }
        }
        best
    }

    /// [`QTable::max`] on lane `lane`.
    #[inline]
    pub fn max(&self, lane: usize, s: usize, allowed: &[usize]) -> f64 {
        self.row(lane, s)[self.best_action(lane, s, allowed)]
    }

    /// Writes lane `lane` back into a scalar table via [`QTable::restore`].
    ///
    /// # Errors
    ///
    /// Returns a message if the table's shape differs from the lanes'.
    pub fn sync_into(&self, lane: usize, table: &mut QTable) -> Result<(), String> {
        let len = self.states * self.actions;
        let base = lane * len;
        table.restore(
            &self.values[base..base + len],
            &self.visits[base..base + len],
        )
    }
}

/// Packed lanes of [`BatchQLearning`] agents (the paper's post-decision
/// variant): one `[lane × state × action]` Q matrix plus one
/// `[lane × post_state]` V matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchLanes {
    q: QTableLanes,
    v: Vec<f64>,
    post_states: usize,
    gamma: Vec<f64>,
}

impl BatchLanes {
    /// Packs the given agents. Returns `None` when the slice is empty or
    /// the agents disagree on any table shape.
    pub fn from_agents(agents: &[&BatchQLearning]) -> Option<Self> {
        let tables: Vec<&QTable> = agents.iter().map(|a| a.q_table()).collect();
        let q = QTableLanes::from_tables(&tables)?;
        let post_states = agents[0].post_values().len();
        if agents.iter().any(|a| a.post_values().len() != post_states) {
            return None;
        }
        let mut v = Vec::with_capacity(agents.len() * post_states);
        for a in agents {
            v.extend_from_slice(a.post_values());
        }
        Some(BatchLanes {
            q,
            v,
            post_states,
            gamma: agents.iter().map(|a| a.gamma()).collect(),
        })
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.gamma.len()
    }

    /// [`BatchQLearning::select_greedy`] on lane `lane`: a dense row scan
    /// of `Q(s, ·) + γ·V(f(s, ·))` with the scalar agent's exact
    /// comparison sequence (`best_v` starts at −∞ and the full `allowed`
    /// list is scanned).
    ///
    /// # Panics
    ///
    /// Panics if `allowed` is empty or `post` returns an out-of-range
    /// index.
    #[inline]
    pub fn select_greedy<F>(&self, lane: usize, s: usize, allowed: &[usize], post: F) -> usize
    where
        F: Fn(usize, usize) -> usize,
    {
        assert!(!allowed.is_empty(), "no allowed actions");
        let row = self.q.row(lane, s);
        let v = &self.v[lane * self.post_states..(lane + 1) * self.post_states];
        let gamma = self.gamma[lane];
        let mut best = allowed[0];
        let mut best_v = f64::NEG_INFINITY;
        for &a in allowed {
            let value = row[a] + gamma * v[post(s, a)];
            if value > best_v {
                best = a;
                best_v = value;
            }
        }
        best
    }

    /// [`BatchQLearning::state_value`] on lane `lane` (Eqn. 6), same
    /// map/fold reduction order as the scalar agent.
    ///
    /// # Panics
    ///
    /// Panics if `allowed` is empty or `post` returns an out-of-range
    /// index.
    #[inline]
    pub fn state_value<F>(&self, lane: usize, s: usize, allowed: &[usize], post: F) -> f64
    where
        F: Fn(usize, usize) -> usize,
    {
        assert!(!allowed.is_empty(), "no allowed actions");
        let row = self.q.row(lane, s);
        let v = &self.v[lane * self.post_states..(lane + 1) * self.post_states];
        let gamma = self.gamma[lane];
        allowed
            .iter()
            .map(|&a| row[a] + gamma * v[post(s, a)])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// [`BatchQLearning::update`] on lane `lane` (Eqns. 5 and 7), same
    /// blend/bootstrap order and the same `rl.batch_update` timing span
    /// as the scalar agent.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range, `allowed_next` is empty, or
    /// `delta` is outside `(0, 1]`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn update<F>(
        &mut self,
        lane: usize,
        s: usize,
        a: usize,
        reward: f64,
        s_next: usize,
        allowed_next: &[usize],
        post: F,
        delta: f64,
    ) where
        F: Fn(usize, usize) -> usize,
    {
        assert!(
            delta > 0.0 && delta <= 1.0,
            "learning rate must be in (0, 1]"
        );
        let started = hbm_telemetry::timing::start();
        self.q.blend(lane, s, a, reward, delta);
        let c_next = self.state_value(lane, s_next, allowed_next, &post);
        let p = lane * self.post_states + post(s, a);
        self.v[p] = (1.0 - delta) * self.v[p] + delta * c_next;
        hbm_telemetry::timing::record_span("rl.batch_update", started);
    }

    /// Writes lane `lane` back into a scalar agent (tables and
    /// post-state values).
    ///
    /// # Errors
    ///
    /// Returns a message if the agent's shape differs from the lanes'.
    pub fn sync_into(&self, lane: usize, agent: &mut BatchQLearning) -> Result<(), String> {
        self.q.sync_into(lane, agent.q_table_mut())?;
        let base = lane * self.post_states;
        let out = agent.post_values_mut();
        if out.len() != self.post_states {
            return Err(format!(
                "post-state shape mismatch: expected {}, got {}",
                self.post_states,
                out.len()
            ));
        }
        out.copy_from_slice(&self.v[base..base + self.post_states]);
        Ok(())
    }
}

/// Packed lanes of classic [`QLearning`] agents.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardLanes {
    q: QTableLanes,
    gamma: Vec<f64>,
}

impl StandardLanes {
    /// Packs the given agents. Returns `None` when the slice is empty or
    /// the tables disagree on shape.
    pub fn from_agents(agents: &[&QLearning]) -> Option<Self> {
        let tables: Vec<&QTable> = agents.iter().map(|a| a.table()).collect();
        Some(StandardLanes {
            q: QTableLanes::from_tables(&tables)?,
            gamma: agents.iter().map(|a| a.gamma()).collect(),
        })
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.gamma.len()
    }

    /// [`QLearning::select_greedy`] on lane `lane`.
    #[inline]
    pub fn select_greedy(&self, lane: usize, s: usize, allowed: &[usize]) -> usize {
        self.q.best_action(lane, s, allowed)
    }

    /// [`QLearning::update`] on lane `lane`, same Bellman target and the
    /// same `rl.q_update` timing span as the scalar agent.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range, `allowed_next` is empty, or
    /// `delta` is outside `(0, 1]`.
    #[inline]
    pub fn update(
        &mut self,
        lane: usize,
        s: usize,
        a: usize,
        reward: f64,
        s_next: usize,
        allowed_next: &[usize],
        delta: f64,
    ) {
        let started = hbm_telemetry::timing::start();
        let target = reward + self.gamma[lane] * self.q.max(lane, s_next, allowed_next);
        self.q.blend(lane, s, a, target, delta);
        hbm_telemetry::timing::record_span("rl.q_update", started);
    }

    /// Writes lane `lane` back into a scalar agent.
    ///
    /// # Errors
    ///
    /// Returns a message if the agent's table shape differs from the
    /// lanes'.
    pub fn sync_into(&self, lane: usize, agent: &mut QLearning) -> Result<(), String> {
        self.q.sync_into(lane, agent.table_mut())
    }
}

/// Packed lanes of [`DoubleQLearning`] agents: two `[lane × state ×
/// action]` matrices sharing the coin-flip update rule.
#[derive(Debug, Clone, PartialEq)]
pub struct DoubleLanes {
    a: QTableLanes,
    b: QTableLanes,
    gamma: Vec<f64>,
}

impl DoubleLanes {
    /// Packs the given agents. Returns `None` when the slice is empty or
    /// the tables disagree on shape.
    pub fn from_agents(agents: &[&DoubleQLearning]) -> Option<Self> {
        let tables_a: Vec<&QTable> = agents.iter().map(|x| x.table_a()).collect();
        let tables_b: Vec<&QTable> = agents.iter().map(|x| x.table_b()).collect();
        Some(DoubleLanes {
            a: QTableLanes::from_tables(&tables_a)?,
            b: QTableLanes::from_tables(&tables_b)?,
            gamma: agents.iter().map(|x| x.gamma()).collect(),
        })
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.gamma.len()
    }

    /// [`DoubleQLearning::select_greedy`] on lane `lane` (argmax of the
    /// summed tables, same comparison sequence).
    ///
    /// # Panics
    ///
    /// Panics if `allowed` is empty.
    #[inline]
    pub fn select_greedy(&self, lane: usize, s: usize, allowed: &[usize]) -> usize {
        assert!(!allowed.is_empty(), "no allowed actions");
        let row_a = self.a.row(lane, s);
        let row_b = self.b.row(lane, s);
        let mut best = allowed[0];
        let mut best_v = f64::NEG_INFINITY;
        for &x in allowed {
            let v = row_a[x] + row_b[x];
            if v > best_v {
                best = x;
                best_v = v;
            }
        }
        best
    }

    /// [`DoubleQLearning::update`] on lane `lane`; the coin flip consumes
    /// `rng` exactly like the scalar agent (one `bool` draw per update).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range, `allowed_next` is empty, or
    /// `delta` is outside `(0, 1]`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn update<R: RngExt + ?Sized>(
        &mut self,
        lane: usize,
        s: usize,
        a: usize,
        reward: f64,
        s_next: usize,
        allowed_next: &[usize],
        delta: f64,
        rng: &mut R,
    ) {
        let flip: bool = rng.random();
        let (learner, evaluator) = if flip {
            (&mut self.a, &self.b)
        } else {
            (&mut self.b, &self.a)
        };
        let chosen = learner.best_action(lane, s_next, allowed_next);
        let target = reward + self.gamma[lane] * evaluator.row(lane, s_next)[chosen];
        learner.blend(lane, s, a, target, delta);
    }

    /// Writes lane `lane` back into a scalar agent (both tables).
    ///
    /// # Errors
    ///
    /// Returns a message if either table's shape differs from the lanes'.
    pub fn sync_into(&self, lane: usize, agent: &mut DoubleQLearning) -> Result<(), String> {
        self.a.sync_into(lane, agent.table_a_mut())?;
        self.b.sync_into(lane, agent.table_b_mut())
    }
}

/// Packed column sweep of per-lane ε schedules: `out[i] =
/// schedules[i].at(days[i])`, bit-identical per element to the scalar
/// [`EpsilonSchedule::at`] calls it replaces.
///
/// # Panics
///
/// Panics if the slices disagree on length.
pub fn epsilon_sweep(schedules: &[EpsilonSchedule], days: &[u64], out: &mut [f64]) {
    assert!(
        schedules.len() == days.len() && days.len() == out.len(),
        "sweep columns must agree on length"
    );
    for ((o, sched), &day) in out.iter_mut().zip(schedules).zip(days) {
        *o = sched.at(day);
    }
}

/// Packed column sweep of per-lane learning-rate schedules: `out[i] =
/// schedules[i].at(days[i])`, bit-identical per element to the scalar
/// [`LearningRate::at`] calls it replaces.
///
/// # Panics
///
/// Panics if the slices disagree on length.
pub fn learning_rate_sweep(schedules: &[LearningRate], days: &[u64], out: &mut [f64]) {
    assert!(
        schedules.len() == days.len() && days.len() == out.len(),
        "sweep columns must agree on length"
    );
    for ((o, sched), &day) in out.iter_mut().zip(schedules).zip(days) {
        *o = sched.at(day);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_post(s: usize, a: usize) -> usize {
        (s + a) % 4
    }

    /// Drives a packed lane and its scalar source through the same
    /// experience stream and demands bit-identical tables throughout.
    #[test]
    fn batch_lanes_track_scalar_agents_bitwise() {
        let mut scalars: Vec<BatchQLearning> = (0..3)
            .map(|i| {
                let mut a = BatchQLearning::new(4, 3, 4, 0.9);
                a.q_table_mut().set(1, 2, 0.25 * i as f64);
                a.post_values_mut()[2] = -0.5 * i as f64;
                a
            })
            .collect();
        let refs: Vec<&BatchQLearning> = scalars.iter().collect();
        let mut lanes = BatchLanes::from_agents(&refs).expect("uniform shapes pack");

        let mut rng = StdRng::seed_from_u64(7);
        for step in 0..200 {
            let s = step % 4;
            let allowed = [0usize, 1, 2];
            let reward = rng.random::<f64>() - 0.4;
            let s_next = (step + 1) % 4;
            let delta = (1.0 / (1.0 + step as f64 / 20.0)).max(0.05);
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                assert_eq!(
                    lanes.select_greedy(lane, s, &allowed, toy_post),
                    scalar.select_greedy(s, &allowed, toy_post)
                );
                assert_eq!(
                    lanes.state_value(lane, s, &allowed, toy_post).to_bits(),
                    scalar.state_value(s, &allowed, toy_post).to_bits()
                );
                let a = scalar.select_greedy(s, &allowed, toy_post);
                scalar.update(s, a, reward, s_next, &allowed, toy_post, delta);
                lanes.update(lane, s, a, reward, s_next, &allowed, toy_post, delta);
            }
        }

        for (lane, scalar) in scalars.iter_mut().enumerate() {
            let mut copy = BatchQLearning::new(4, 3, 4, 0.9);
            lanes.sync_into(lane, &mut copy).expect("shapes match");
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(copy.q_table().values()),
                bits(scalar.q_table().values())
            );
            assert_eq!(copy.q_table().visits(), scalar.q_table().visits());
            assert_eq!(bits(copy.post_values()), bits(scalar.post_values()));
        }
    }

    #[test]
    fn standard_lanes_track_scalar_agents_bitwise() {
        let mut scalars: Vec<QLearning> = (0..2).map(|_| QLearning::new(3, 2, 0.95)).collect();
        let refs: Vec<&QLearning> = scalars.iter().collect();
        let mut lanes = StandardLanes::from_agents(&refs).expect("uniform shapes pack");
        let mut rng = StdRng::seed_from_u64(11);
        for step in 0..200 {
            let s = step % 3;
            let s_next = (step + 1) % 3;
            let reward = rng.random::<f64>() * 2.0 - 1.0;
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                assert_eq!(
                    lanes.select_greedy(lane, s, &[0, 1]),
                    scalar.select_greedy(s, &[0, 1])
                );
                let a = scalar.select_greedy(s, &[0, 1]);
                scalar.update(s, a, reward, s_next, &[0, 1], 0.1);
                lanes.update(lane, s, a, reward, s_next, &[0, 1], 0.1);
            }
        }
        for (lane, scalar) in scalars.iter().enumerate() {
            let mut copy = QLearning::new(3, 2, 0.95);
            lanes.sync_into(lane, &mut copy).expect("shapes match");
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(copy.table().values()), bits(scalar.table().values()));
            assert_eq!(copy.table().visits(), scalar.table().visits());
        }
    }

    /// The double-Q coin flip must consume the RNG exactly like the
    /// scalar agent: identical seeds on both sides, identical tables out.
    #[test]
    fn double_lanes_track_scalar_agents_bitwise() {
        let mut scalars: Vec<DoubleQLearning> =
            (0..2).map(|_| DoubleQLearning::new(3, 2, 0.9)).collect();
        let refs: Vec<&DoubleQLearning> = scalars.iter().collect();
        let mut lanes = DoubleLanes::from_agents(&refs).expect("uniform shapes pack");
        let mut scalar_rngs: Vec<StdRng> = (0..2).map(StdRng::seed_from_u64).collect();
        let mut lane_rngs: Vec<StdRng> = (0..2).map(StdRng::seed_from_u64).collect();
        let mut env = StdRng::seed_from_u64(42);
        for step in 0..200 {
            let s = step % 3;
            let s_next = (step + 1) % 3;
            let reward = env.random::<f64>() - 0.5;
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                assert_eq!(
                    lanes.select_greedy(lane, s, &[0, 1]),
                    scalar.select_greedy(s, &[0, 1])
                );
                let a = scalar.select_greedy(s, &[0, 1]);
                scalar.update(s, a, reward, s_next, &[0, 1], 0.2, &mut scalar_rngs[lane]);
                lanes.update(
                    lane,
                    s,
                    a,
                    reward,
                    s_next,
                    &[0, 1],
                    0.2,
                    &mut lane_rngs[lane],
                );
            }
        }
        for (lane, scalar) in scalars.iter().enumerate() {
            let mut copy = DoubleQLearning::new(3, 2, 0.9);
            lanes.sync_into(lane, &mut copy).expect("shapes match");
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(copy.table_a().values()),
                bits(scalar.table_a().values())
            );
            assert_eq!(
                bits(copy.table_b().values()),
                bits(scalar.table_b().values())
            );
        }
    }

    #[test]
    fn mismatched_shapes_refuse_to_pack() {
        let a = BatchQLearning::new(4, 3, 4, 0.9);
        let b = BatchQLearning::new(4, 3, 5, 0.9);
        assert!(BatchLanes::from_agents(&[&a, &b]).is_none());
        let c = QLearning::new(4, 3, 0.9);
        let d = QLearning::new(5, 3, 0.9);
        assert!(StandardLanes::from_agents(&[&c, &d]).is_none());
        assert!(QTableLanes::from_tables(&[]).is_none());
    }

    #[test]
    fn schedule_sweeps_match_scalar_calls() {
        let eps = [
            EpsilonSchedule::paper_default(),
            EpsilonSchedule {
                initial: 0.05,
                decay: 0.90,
                floor: 0.002,
            },
            EpsilonSchedule::greedy(),
        ];
        let lrs = [
            LearningRate::paper_default(),
            LearningRate::Constant(0.3),
            LearningRate::Polynomial { exponent: 0.5 },
        ];
        let days = [0u64, 1, 61, 100_000];
        for &day in &days {
            let day_col = [day; 3];
            let mut out = [0.0; 3];
            epsilon_sweep(&eps, &day_col, &mut out);
            for (o, e) in out.iter().zip(&eps) {
                assert_eq!(o.to_bits(), e.at(day).to_bits());
            }
            learning_rate_sweep(&lrs, &day_col, &mut out);
            for (o, l) in out.iter().zip(&lrs) {
                assert_eq!(o.to_bits(), l.at(day).to_bits());
            }
        }
    }
}
