//! The batch engine's determinism contract: every lane of a [`BatchSim`]
//! produces byte-identical records, metrics, and reports to running the
//! same [`Simulation`] alone, and the sharded runner is thread-count
//! invariant.

use hbm_battery::BatterySpec;
use hbm_core::{
    run_sharded, BatchSim, ColoConfig, ForesightedPolicy, MyopicPolicy, OneShotPolicy,
    RandomPolicy, SimReport, Simulation, SlotRecord,
};
use hbm_units::Power;

/// A policy/config mix covering every slot-body path: attacking and quiet
/// myopic, random, the learning foresighted attacker, and a one-shot
/// scenario that drives its site through outage downtime.
fn scenarios() -> Vec<Simulation> {
    let base = ColoConfig::paper_default().with_trace_len(7 * 1440);
    let mut outage = base.clone();
    outage.battery = BatterySpec::one_shot();
    outage.attack_load = Power::from_kilowatts(3.0);
    vec![
        Simulation::new(
            base.clone(),
            Box::new(MyopicPolicy::new(Power::from_kilowatts(7.4))),
            1,
        ),
        Simulation::new(
            base.clone(),
            Box::new(MyopicPolicy::new(Power::from_kilowatts(99.0))),
            2,
        ),
        Simulation::new(
            base.clone(),
            Box::new(RandomPolicy::new(0.08, base.attack_load, base.slot, 11)),
            3,
        ),
        Simulation::new(
            base.clone(),
            Box::new(ForesightedPolicy::paper_default(14.0, 4)),
            4,
        ),
        Simulation::new(
            outage,
            Box::new(OneShotPolicy::new(Power::from_kilowatts(7.6))),
            1,
        ),
    ]
}

fn sequential_reference(slots: u64) -> Vec<(SimReport, Vec<SlotRecord>)> {
    scenarios()
        .into_iter()
        .map(|mut sim| sim.run_recorded(slots))
        .collect()
}

#[test]
fn batch_matches_sequential_slot_for_slot() {
    const SLOTS: u64 = 3 * 1440;
    let reference = sequential_reference(SLOTS);
    assert!(
        reference.last().unwrap().0.metrics.outage_slots > 0,
        "the one-shot lane must exercise the outage path"
    );

    let mut batch = BatchSim::new(scenarios());
    for k in 0..SLOTS {
        batch.step_all();
        for (i, (_, records)) in reference.iter().enumerate() {
            let want = records[k as usize];
            let got = batch.records()[i];
            assert_eq!(got, want, "lane {i} diverged at slot {k}");
            // PartialEq on f64 admits -0.0 == 0.0; pin the hot physics
            // channels down to the bit.
            assert_eq!(
                got.inlet.as_celsius().to_bits(),
                want.inlet.as_celsius().to_bits(),
                "lane {i} inlet bits diverged at slot {k}"
            );
            assert_eq!(
                got.estimated_total.as_kilowatts().to_bits(),
                want.estimated_total.as_kilowatts().to_bits(),
                "lane {i} estimate bits diverged at slot {k}"
            );
        }
    }

    let reports = batch.take_reports();
    for (i, (want, _)) in reference.iter().enumerate() {
        assert_eq!(reports[i], want.clone(), "lane {i} report diverged");
    }
}

/// A batch whose every lane is a [`MyopicPolicy`] takes the devirtualized
/// decide fast path (the mixed batch above never does), so the fleet-shaped
/// case needs its own slot-for-slot check. Thresholds straddle the trace so
/// attacking, charging, and idle lanes are all present.
#[test]
fn all_myopic_batch_matches_sequential() {
    const SLOTS: u64 = 2 * 1440;
    let base = ColoConfig::paper_default().with_trace_len(7 * 1440);
    let make = || -> Vec<Simulation> {
        [6.8, 7.4, 99.0]
            .iter()
            .enumerate()
            .map(|(i, &kw)| {
                Simulation::new(
                    base.clone(),
                    Box::new(MyopicPolicy::new(Power::from_kilowatts(kw))),
                    1 + i as u64,
                )
            })
            .collect()
    };

    let reference: Vec<(SimReport, Vec<SlotRecord>)> = make()
        .into_iter()
        .map(|mut sim| sim.run_recorded(SLOTS))
        .collect();
    assert!(
        reference.iter().any(|(r, _)| r.metrics.attack_slots > 0),
        "at least one myopic lane must actually attack"
    );

    let mut batch = BatchSim::new(make());
    for k in 0..SLOTS {
        batch.step_all();
        for (i, (_, records)) in reference.iter().enumerate() {
            assert_eq!(
                batch.records()[i],
                records[k as usize],
                "myopic lane {i} diverged at slot {k}"
            );
        }
    }
    let reports = batch.take_reports();
    for (i, (want, _)) in reference.iter().enumerate() {
        assert_eq!(reports[i], want.clone(), "myopic lane {i} report diverged");
    }
}

/// Builds an all-foresighted fleet covering every decide path: a lane still
/// in its teacher phase, lanes past it (teacher disabled, so ε-greedy
/// exploration and the packed greedy scan run from slot 0), and a frozen
/// evaluation lane (no learning, no exploration). All lanes use the paper's
/// batch learner, so the fleet devirtualizes onto packed Q-table lanes.
fn foresighted_fleet() -> Vec<Simulation> {
    let base = ColoConfig::paper_default().with_trace_len(7 * 1440);
    let mut sims = Vec::new();
    for (i, (w, teacher, learning)) in [
        (14.0, true, true),
        (9.0, false, true),
        (22.0, false, true),
        (0.0, false, false),
    ]
    .into_iter()
    .enumerate()
    {
        let mut policy = ForesightedPolicy::paper_default(w, 4 + i as u64);
        if !teacher {
            policy.set_teacher(Power::from_kilowatts(7.56), 0);
        }
        policy.set_learning(learning);
        sims.push(Simulation::new(
            base.clone(),
            Box::new(policy),
            4 + i as u64,
        ));
    }
    sims
}

/// A batch whose every lane is a [`ForesightedPolicy`] devirtualizes onto
/// packed Q-table lanes and schedule column sweeps; the mixed batch above
/// never does, so the learning fleet needs its own slot-for-slot check.
#[test]
fn all_foresighted_batch_matches_sequential() {
    const SLOTS: u64 = 3 * 1440;
    let reference: Vec<(SimReport, Vec<SlotRecord>)> = foresighted_fleet()
        .into_iter()
        .map(|mut sim| sim.run_recorded(SLOTS))
        .collect();
    assert!(
        reference.iter().any(|(r, _)| r.metrics.attack_slots > 0),
        "at least one foresighted lane must actually attack"
    );

    let mut batch = BatchSim::new(foresighted_fleet());
    assert!(
        batch.learning_devirtualized(),
        "an all-foresighted batch-learner fleet must take the packed fast path"
    );
    for k in 0..SLOTS {
        batch.step_all();
        for (i, (_, records)) in reference.iter().enumerate() {
            let want = records[k as usize];
            let got = batch.records()[i];
            assert_eq!(got, want, "foresighted lane {i} diverged at slot {k}");
            assert_eq!(
                got.estimated_total.as_kilowatts().to_bits(),
                want.estimated_total.as_kilowatts().to_bits(),
                "foresighted lane {i} estimate bits diverged at slot {k}"
            );
        }
    }
    let reports = batch.take_reports();
    for (i, (want, _)) in reference.iter().enumerate() {
        assert_eq!(
            reports[i],
            want.clone(),
            "foresighted lane {i} report diverged"
        );
    }
}

/// Same contract for the classic-Q ablation learner: all-standard fleets
/// pack onto `StandardLanes` (mixing learner kinds falls back to virtual
/// dispatch, checked here too).
#[test]
fn all_foresighted_standard_q_batch_matches_sequential() {
    const SLOTS: u64 = 2 * 1440;
    let base = ColoConfig::paper_default().with_trace_len(7 * 1440);
    let make = || -> Vec<Simulation> {
        [9.0, 14.0]
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let mut policy = ForesightedPolicy::paper_default(w, 21 + i as u64);
                policy.set_teacher(Power::from_kilowatts(7.56), 0);
                let policy = policy.with_standard_q();
                Simulation::new(base.clone(), Box::new(policy), 21 + i as u64)
            })
            .collect()
    };

    let reference: Vec<(SimReport, Vec<SlotRecord>)> = make()
        .into_iter()
        .map(|mut sim| sim.run_recorded(SLOTS))
        .collect();

    let mut batch = BatchSim::new(make());
    assert!(
        batch.learning_devirtualized(),
        "an all-standard-Q fleet must take the packed fast path"
    );
    for k in 0..SLOTS {
        batch.step_all();
        for (i, (_, records)) in reference.iter().enumerate() {
            assert_eq!(
                batch.records()[i],
                records[k as usize],
                "standard-Q lane {i} diverged at slot {k}"
            );
        }
    }
    let reports = batch.take_reports();
    for (i, (want, _)) in reference.iter().enumerate() {
        assert_eq!(
            reports[i],
            want.clone(),
            "standard-Q lane {i} report diverged"
        );
    }

    // Mixed learner kinds cannot share one packed matrix; the batch must
    // fall back to virtual dispatch (correctness is covered by the mixed
    // batch tests above).
    let mut mixed = make();
    mixed.push(Simulation::new(
        base,
        Box::new(ForesightedPolicy::paper_default(14.0, 30)),
        30,
    ));
    assert!(!BatchSim::new(mixed).learning_devirtualized());
}

/// The packed learner/RNG/campaign state is authoritative while batched;
/// `into_sims` must flow it back so scalar stepping continues bit-exactly.
#[test]
fn foresighted_batch_hands_back_resumable_sims() {
    const HALF: u64 = 1440;
    let full: Vec<SimReport> = foresighted_fleet()
        .into_iter()
        .map(|mut sim| sim.run(2 * HALF))
        .collect();

    let mut batch = BatchSim::new(foresighted_fleet());
    assert!(batch.learning_devirtualized());
    batch.run(HALF);
    let resumed: Vec<SimReport> = batch
        .into_sims()
        .iter_mut()
        .map(|sim| sim.run(HALF))
        .collect();
    assert_eq!(
        resumed, full,
        "scalar stepping must continue bit-exactly from the packed learning state"
    );
}

#[test]
fn sharded_foresighted_run_is_thread_count_invariant() {
    const SLOTS: u64 = 2 * 1440;
    let reports_ref: Vec<SimReport> = foresighted_fleet()
        .into_iter()
        .map(|mut sim| sim.run(SLOTS))
        .collect();

    // 1 = fully sequential; 3 splits the 4 lanes unevenly; 16 grants more
    // workers than lanes. All three must be byte-identical.
    for threads in [1usize, 3, 16] {
        hbm_par::configure_threads(threads);
        let run = run_sharded(foresighted_fleet(), SLOTS);
        assert_eq!(
            run.reports, reports_ref,
            "foresighted reports diverged at {threads} threads"
        );
    }
    hbm_par::configure_threads(1);
}

#[test]
fn batch_hands_back_resumable_sims() {
    const HALF: u64 = 1440;
    let full: Vec<SimReport> = scenarios()
        .into_iter()
        .map(|mut sim| sim.run(2 * HALF))
        .collect();

    let mut batch = BatchSim::new(scenarios());
    batch.run(HALF);
    let resumed: Vec<SimReport> = batch
        .into_sims()
        .iter_mut()
        .map(|sim| sim.run(HALF))
        .collect();
    assert_eq!(
        resumed, full,
        "scalar stepping must continue bit-exactly from where the batch left off"
    );
}

#[test]
fn sharded_run_is_thread_count_invariant() {
    const SLOTS: u64 = 2 * 1440;
    let reference = sequential_reference(SLOTS);
    let reports_ref: Vec<SimReport> = reference.iter().map(|(r, _)| r.clone()).collect();
    let down_ref: Vec<u32> = (0..SLOTS as usize)
        .map(|k| {
            reference
                .iter()
                .filter(|(_, records)| records[k].outage)
                .count() as u32
        })
        .collect();

    // 1 = fully sequential; 4 splits the 5 lanes unevenly; 16 grants more
    // workers than lanes. All three must be byte-identical.
    for threads in [1usize, 4, 16] {
        hbm_par::configure_threads(threads);
        let run = run_sharded(scenarios(), SLOTS);
        assert_eq!(
            run.reports, reports_ref,
            "reports diverged at {threads} threads"
        );
        assert_eq!(
            run.down_per_slot, down_ref,
            "down counts diverged at {threads} threads"
        );
        assert_eq!(run.sims.len(), reports_ref.len());
    }
    hbm_par::configure_threads(1);
}

/// Lanes with different trace lengths (including one shorter than a trace
/// window block) and different starting slots, some warmed up first. The
/// batch stages every lane's trace through one shared window, so this pins
/// refills, per-lane wraps, and a hand-back mid-block to the scalar run.
fn ragged_scenarios() -> Vec<Simulation> {
    let mut sims = Vec::new();
    for (i, (len, warmup)) in [
        (100, 0),
        (100, 37),
        (1440, 13),
        (1440, 1439),
        (7 * 1440, 0),
        (7 * 1440, 7 * 1440 - 200),
    ]
    .into_iter()
    .enumerate()
    {
        let config = ColoConfig::paper_default().with_trace_len(len);
        let seed = 40 + i as u64;
        let policy: Box<dyn hbm_core::AttackPolicy> = match i % 3 {
            0 => Box::new(MyopicPolicy::new(Power::from_kilowatts(7.4))),
            1 => Box::new(ForesightedPolicy::paper_default(14.0, seed)),
            _ => Box::new(RandomPolicy::new(
                0.08,
                config.attack_load,
                config.slot,
                seed,
            )),
        };
        let mut sim = Simulation::new(config, policy, seed);
        sim.warmup(warmup);
        sims.push(sim);
    }
    sims
}

#[test]
fn ragged_batch_matches_sequential_slot_for_slot() {
    // Not a multiple of the window block: the first batch hands its lanes
    // back mid-block and a second batch picks them up.
    const FIRST: u64 = 1000;
    const SLOTS: u64 = 1500;
    let reference: Vec<(SimReport, Vec<SlotRecord>)> = ragged_scenarios()
        .into_iter()
        .map(|mut sim| sim.run_recorded(SLOTS))
        .collect();

    let check = |batch: &BatchSim, k: u64| {
        for (i, (_, records)) in reference.iter().enumerate() {
            let want = records[k as usize];
            let got = batch.records()[i];
            assert_eq!(got, want, "ragged lane {i} diverged at slot {k}");
            assert_eq!(
                got.benign_demand.as_watts().to_bits(),
                want.benign_demand.as_watts().to_bits(),
                "ragged lane {i} demand bits diverged at slot {k}"
            );
            assert_eq!(
                got.inlet.as_celsius().to_bits(),
                want.inlet.as_celsius().to_bits(),
                "ragged lane {i} inlet bits diverged at slot {k}"
            );
        }
    };
    let mut batch = BatchSim::new(ragged_scenarios());
    for k in 0..FIRST {
        batch.step_all();
        check(&batch, k);
    }
    let mut batch = BatchSim::new(batch.into_sims());
    for k in FIRST..SLOTS {
        batch.step_all();
        check(&batch, k);
    }
    let reports = batch.take_reports();
    for (i, (want, _)) in reference.iter().enumerate() {
        assert_eq!(reports[i], want.clone(), "ragged lane {i} report diverged");
    }
}
