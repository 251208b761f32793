//! Branching what-if exploration: fork a live run at slot *t*, perturb
//! each branch, and advance all branches in lockstep on [`BatchSim`] lanes.
//!
//! A [`StateTree`] is rooted at a frozen copy of a simulation (the *base*)
//! together with the [`Scenario`] that built it. Each branch is either a
//! plain [`Simulation::fork`] of the base (empty perturbation — the
//! control lane) or a rebuild from the perturbed scenario with the base's
//! binary [`Snapshot`] transplanted in — the same rebuild-and-restore
//! recipe the serve layer's perturb operation uses, so a branch is always
//! equivalent to *some* standalone scenario restored at slot *t*.
//!
//! Because every branch starts from the identical dynamic state, the tree
//! can answer the questions a sweep-from-slot-0 cannot answer cheaply:
//! *when* does a variant first diverge from the control
//! ([`StateTree::first_divergence`]), and how do per-branch outcomes
//! distribute ([`StateTree::outcomes`]).

use crate::scenario::{Perturbation, Scenario};
use crate::state::Snapshot;
use crate::{BatchSim, Metrics, Simulation, SlotRecord};

/// Metadata of one branch of a [`StateTree`].
#[derive(Debug, Clone)]
struct BranchMeta {
    label: String,
    scenario: Scenario,
}

/// The outcome of one branch after [`StateTree::run`], for distribution
/// queries and reports.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchOutcome {
    /// The branch label given to [`StateTree::branch`].
    pub label: String,
    /// The branch's effective canonical configuration string.
    pub config_canonical: String,
    /// Slots advanced since the fork point.
    pub slots_run: u64,
    /// The branch's metric accumulators (fork-point totals included).
    pub metrics: Metrics,
    /// Final inlet temperature, °C.
    pub inlet_c: f64,
    /// Final battery state of charge.
    pub battery_soc: f64,
}

/// A fork point plus its branches, advanced in lockstep.
///
/// ```
/// use hbm_core::{Perturbation, Scenario, StateTree};
///
/// let scenario = {
///     let mut s = Scenario::new("myopic");
///     s.days = 1;
///     s.warmup_days = 0;
///     s
/// };
/// let (mut sim, _) = scenario.build_sim().unwrap();
/// sim.run(120); // advance to the fork point
///
/// let mut tree = StateTree::new(sim.fork(), scenario);
/// tree.branch("control", &Perturbation::default()).unwrap();
/// let hotter = Perturbation {
///     attack_load_kw: Some(2.0),
///     ..Perturbation::default()
/// };
/// tree.branch("attack-2kw", &hotter).unwrap();
/// tree.run(240);
/// assert_eq!(tree.outcomes().len(), 2);
/// ```
pub struct StateTree {
    base: Simulation,
    base_snapshot: Snapshot,
    base_scenario: Scenario,
    fork_slot: u64,
    branches: Vec<BranchMeta>,
    sims: Vec<Simulation>,
    records: Vec<Vec<SlotRecord>>,
}

impl StateTree {
    /// Roots a tree at `base` (typically a [`Simulation::fork`] of a live
    /// run, taken so the original can keep stepping) built from
    /// `scenario`. The fork point is the base's current slot.
    pub fn new(base: Simulation, scenario: Scenario) -> StateTree {
        let base_snapshot = base.snapshot();
        let fork_slot = base.slot_index;
        StateTree {
            base,
            base_snapshot,
            base_scenario: scenario,
            fork_slot,
            branches: Vec::new(),
            sims: Vec::new(),
            records: Vec::new(),
        }
    }

    /// The slot index all branches fork from.
    pub fn fork_slot(&self) -> u64 {
        self.fork_slot
    }

    /// The scenario the tree was rooted with — the base every branch
    /// perturbation applies to.
    pub fn scenario(&self) -> &Scenario {
        &self.base_scenario
    }

    /// Number of branches.
    pub fn len(&self) -> usize {
        self.branches.len()
    }

    /// Whether no branch has been added yet.
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }

    /// The branch labels, in creation order.
    pub fn labels(&self) -> Vec<&str> {
        self.branches.iter().map(|b| b.label.as_str()).collect()
    }

    /// Adds a branch and returns its index. An empty perturbation forks
    /// the base directly (a state copy); a non-empty one rebuilds from the
    /// perturbed scenario and transplants the base's snapshot — the same
    /// recipe as a serve-layer perturb, so the branch behaves exactly like
    /// that standalone scenario restored at the fork slot.
    ///
    /// # Errors
    ///
    /// Returns a message for an invalid perturbed configuration or a
    /// state-shape mismatch.
    pub fn branch(
        &mut self,
        label: impl Into<String>,
        perturbation: &Perturbation,
    ) -> Result<usize, String> {
        let effective = perturbation.apply(&self.base_scenario);
        let sim = if perturbation.is_empty() {
            self.base.fork()
        } else {
            // The warm-up flag is irrelevant here: the transplanted
            // snapshot already carries the warmed-up tables. Unless the
            // perturbation changes the workload itself, the rebuild gets
            // the live base's shared trace back instead of regenerating it.
            let (mut sim, _needs_warmup) = effective.build_sim()?;
            sim.restore(&self.base_snapshot)?;
            sim
        };
        self.branches.push(BranchMeta {
            label: label.into(),
            scenario: effective,
        });
        self.sims.push(sim);
        self.records.push(Vec::new());
        Ok(self.branches.len() - 1)
    }

    /// Advances every branch by `slots` slots in lockstep on [`BatchSim`]
    /// lanes, appending each branch's per-slot records. May be called
    /// repeatedly to extend the horizon.
    pub fn run(&mut self, slots: u64) {
        if self.sims.is_empty() || slots == 0 {
            return;
        }
        let sims = std::mem::take(&mut self.sims);
        let mut batch = BatchSim::new(sims);
        for _ in 0..slots {
            batch.step_all();
            for (lane, r) in batch.records().iter().enumerate() {
                self.records[lane].push(*r);
            }
        }
        self.sims = batch.into_sims();
    }

    /// The per-slot records of branch `i` since the fork point.
    pub fn records(&self, i: usize) -> &[SlotRecord] {
        &self.records[i]
    }

    /// The first absolute slot index at which any branch's record differs
    /// from branch 0's, or `None` while all branches agree (fewer than two
    /// branches always agree). Only slots every branch has run are
    /// compared.
    pub fn first_divergence(&self) -> Option<u64> {
        let first = self.records.first()?;
        if self.records.len() < 2 {
            return None;
        }
        let horizon = self.records.iter().map(Vec::len).min().unwrap_or(0);
        (0..horizon)
            .find(|&k| self.records[1..].iter().any(|r| r[k] != first[k]))
            .map(|k| self.fork_slot + k as u64)
    }

    /// Per-branch outcomes, in branch order.
    pub fn outcomes(&self) -> Vec<BranchOutcome> {
        self.branches
            .iter()
            .zip(&self.sims)
            .zip(&self.records)
            .map(|((meta, sim), records)| BranchOutcome {
                label: meta.label.clone(),
                config_canonical: meta.scenario.config_canonical(),
                slots_run: records.len() as u64,
                metrics: sim.metrics().clone(),
                inlet_c: sim.inlet().as_celsius(),
                battery_soc: sim.battery_soc(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Perturbation;

    fn scenario() -> Scenario {
        let mut s = Scenario::new("myopic");
        s.days = 2;
        s.warmup_days = 0;
        s.seed = 7;
        s
    }

    #[test]
    fn control_branch_matches_uninterrupted_run() {
        let s = scenario();
        let (mut sim, _) = s.build_sim().unwrap();
        sim.run(300);

        let mut tree = StateTree::new(sim.fork(), s.clone());
        tree.branch("control", &Perturbation::default()).unwrap();
        tree.run(200);

        let (_, straight) = sim.run_recorded(200);
        assert_eq!(tree.records(0), &straight[..]);
        assert_eq!(tree.first_divergence(), None);
    }

    #[test]
    fn perturbed_branch_diverges_and_reports_outcomes() {
        let s = scenario();
        let (mut sim, _) = s.build_sim().unwrap();
        sim.run(300);

        let mut tree = StateTree::new(sim.fork(), s);
        assert_eq!(tree.fork_slot(), 300);
        tree.branch("control", &Perturbation::default()).unwrap();
        let hotter = Perturbation {
            attack_load_kw: Some(3.0),
            battery_kwh: Some(1.0),
            ..Perturbation::default()
        };
        tree.branch("heavy-attack", &hotter).unwrap();
        tree.run(1440);

        let div = tree
            .first_divergence()
            .expect("a 3 kW variant must diverge");
        assert!(div >= 300, "divergence slot {div} must be after the fork");
        let outcomes = tree.outcomes();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].label, "control");
        assert_eq!(outcomes[1].label, "heavy-attack");
        assert!(outcomes[1].config_canonical.contains("attack_load_kw=3"));
        assert_eq!(outcomes[0].slots_run, 1440);
        assert!(
            outcomes[1].metrics.attack_energy > outcomes[0].metrics.attack_energy,
            "the heavy branch must inject more battery energy"
        );
    }

    #[test]
    fn invalid_perturbation_is_an_error_not_a_panic() {
        let s = scenario();
        let (sim, _) = s.build_sim().unwrap();
        let mut tree = StateTree::new(sim, s);
        let bad = Perturbation {
            utilization: Some(1.5),
            ..Perturbation::default()
        };
        assert!(tree.branch("bad", &bad).is_err());
        assert!(tree.is_empty());
    }
}
