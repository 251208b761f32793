//! Thermal-substrate benchmarks (Figs. 7a, 11a, 14a): the zone model, the
//! CFD-lite transient, heat-matrix extraction, and end-to-end simulator
//! throughput.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use hbm_bench::gather::GatherHeatMatrixModel;
use hbm_bench::nested::NestedCfdModel;
use hbm_core::{
    BatchSim, ColoConfig, ForesightedPolicy, MyopicPolicy, Perturbation, Scenario, Simulation,
    StateTree,
};
use hbm_surrogate::{
    ExtractionSettings, FitOptions, SurrogateDomain, SurrogateModel, SurrogateQuery,
};
use hbm_telemetry::MemoryRecorder;
use hbm_thermal::{
    clear_heat_matrix_cache, extract_heat_matrix, CfdConfig, CfdModel, HeatMatrixModel, ZoneModel,
};
use hbm_units::{Duration, Power, Temperature};

fn zone_model(c: &mut Criterion) {
    c.bench_function("zone_step_one_minute", |b| {
        let mut zone = ZoneModel::paper_default();
        b.iter(|| {
            zone.step(
                black_box(Power::from_kilowatts(8.5)),
                Duration::from_minutes(1.0),
            )
        });
    });

    // The at-rest path: below capacity at supply, the first sub-step is a
    // bitwise fixed point and the other eleven are skipped. The 8.5 kW
    // overload above never settles, so it pins the transient path.
    c.bench_function("zone_step_one_minute_steady", |b| {
        let mut zone = ZoneModel::paper_default();
        b.iter(|| {
            zone.step(
                black_box(Power::from_kilowatts(6.0)),
                Duration::from_minutes(1.0),
            )
        });
    });

    c.bench_function("zone_fig11a_overload_sweep", |b| {
        let zone = ZoneModel::paper_default();
        let t32 = Temperature::from_celsius(32.0);
        b.iter(|| {
            let mut total = Duration::ZERO;
            for kw in [0.25, 0.5, 1.0, 1.5, 2.0, 3.0] {
                total += zone.time_to_reach(t32, Power::from_kilowatts(black_box(kw)));
            }
            total
        });
    });

    c.bench_function("zone_fig14a_prototype_overload", |b| {
        b.iter_batched(
            ZoneModel::prototype,
            |mut zone| {
                let load = zone.cooling().capacity + Power::from_kilowatts(1.5);
                zone.step(black_box(load), Duration::from_minutes(5.0))
            },
            BatchSize::SmallInput,
        );
    });
}

fn cfd_model(c: &mut Criterion) {
    c.bench_function("cfd_step_one_minute_40_servers", |b| {
        let config = CfdConfig::paper_default();
        let mut cfd = CfdModel::new(config);
        let powers = vec![Power::from_watts(195.0); config.server_count()];
        b.iter(|| {
            cfd.step(black_box(&powers), Duration::from_minutes(1.0));
            cfd.mean_inlet()
        });
    });

    // Same kernel with the telemetry spans live: the delta against the run
    // above is the full cost of `--timings` instrumentation (one clock
    // read pair plus a mutex-guarded map update per step).
    c.bench_function("cfd_step_one_minute_40_servers_timed", |b| {
        let config = CfdConfig::paper_default();
        let mut cfd = CfdModel::new(config);
        let powers = vec![Power::from_watts(195.0); config.server_count()];
        hbm_telemetry::timing::set_timings_enabled(true);
        b.iter(|| {
            cfd.step(black_box(&powers), Duration::from_minutes(1.0));
            cfd.mean_inlet()
        });
        hbm_telemetry::timing::set_timings_enabled(false);
        hbm_telemetry::timing::reset_timings();
    });

    // The pre-rewrite nested-Vec kernel, same work as above: this is the
    // baseline the flat-buffer CfdModel is measured against.
    c.bench_function("cfd_step_one_minute_40_servers_nested_baseline", |b| {
        let config = CfdConfig::paper_default();
        let mut cfd = NestedCfdModel::new(config);
        let powers = vec![Power::from_watts(195.0); config.server_count()];
        b.iter(|| {
            cfd.step(black_box(&powers), Duration::from_minutes(1.0));
            cfd.mean_inlet()
        });
    });

    c.bench_function("heat_matrix_model_step_40_servers", |b| {
        let config = CfdConfig::paper_default();
        let n = config.server_count();
        let baseline = vec![Power::from_watts(150.0); n];
        let mut model = HeatMatrixModel::from_cfd(
            &config,
            &baseline,
            Power::from_watts(300.0),
            Duration::from_minutes(10.0),
            Duration::from_minutes(1.0),
        );
        let mut excursion = baseline.clone();
        excursion[3] = Power::from_watts(420.0);
        b.iter(|| model.step(black_box(&excursion)));
    });

    // Allocation-free entry point with a reused output buffer — the shape
    // hot loops are expected to use.
    c.bench_function("heat_matrix_model_step_into_40_servers", |b| {
        let config = CfdConfig::paper_default();
        let n = config.server_count();
        let baseline = vec![Power::from_watts(150.0); n];
        let mut model = HeatMatrixModel::from_cfd(
            &config,
            &baseline,
            Power::from_watts(300.0),
            Duration::from_minutes(10.0),
            Duration::from_minutes(1.0),
        );
        let mut excursion = baseline.clone();
        excursion[3] = Power::from_watts(420.0);
        let mut out = vec![0.0; n];
        b.iter(|| {
            model.step_into(black_box(&excursion), &mut out);
            out[0]
        });
    });

    // The pre-scatter gather kernel, same work as above: the baseline the
    // scatter-on-arrival HeatMatrixModel is measured against.
    c.bench_function("heat_matrix_model_step_40_servers_gather_baseline", |b| {
        let config = CfdConfig::paper_default();
        let n = config.server_count();
        let baseline = vec![Power::from_watts(150.0); n];
        let model = HeatMatrixModel::from_cfd(
            &config,
            &baseline,
            Power::from_watts(300.0),
            Duration::from_minutes(10.0),
            Duration::from_minutes(1.0),
        );
        let mut reference = GatherHeatMatrixModel::from_model(&model);
        let mut excursion = baseline.clone();
        excursion[3] = Power::from_watts(420.0);
        b.iter(|| reference.step(black_box(&excursion)));
    });

    let mut group = c.benchmark_group("matrix");
    group.sample_size(10);
    let small = CfdConfig {
        racks: 1,
        servers_per_rack: 4,
        ..CfdConfig::paper_default()
    };
    let baseline = vec![Power::from_watts(150.0); 4];
    let extract = |config: &CfdConfig| {
        extract_heat_matrix(
            black_box(config),
            &baseline,
            Power::from_watts(120.0),
            Duration::from_minutes(5.0),
            Duration::from_minutes(1.0),
        )
    };
    group.bench_function("heat_matrix_extraction_4_servers_cold", |b| {
        // Clearing per iteration keeps this measuring the actual CFD
        // spike-response extraction, not the memoized lookup.
        b.iter_batched(
            clear_heat_matrix_cache,
            |()| extract(&small),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("heat_matrix_extraction_4_servers_cached", |b| {
        let _ = extract(&small); // prime the cache
        b.iter(|| extract(&small));
    });
    group.finish();
}

/// Surrogate-tier predict against the extraction it replaces: the same
/// 4-server family, 120 W spike, and 1-minute lag schedule as the `matrix`
/// group, so `surrogate/predict_4_servers` reads directly against
/// `matrix/heat_matrix_extraction_4_servers_cold` in BENCH_thermal.json.
fn surrogate(c: &mut Criterion) {
    let mut group = c.benchmark_group("surrogate");
    let settings = ExtractionSettings {
        config: CfdConfig {
            racks: 1,
            servers_per_rack: 4,
            ..CfdConfig::paper_default()
        },
        spike: Power::from_watts(120.0),
        window: Duration::from_minutes(5.0),
        lag_step: Duration::from_minutes(1.0),
    };
    let domain = SurrogateDomain {
        lo: [100.0, 24.0, 0.02],
        hi: [200.0, 30.0, 0.12],
    };
    let model =
        SurrogateModel::fit(settings, domain, FitOptions::default()).expect("bench surrogate fits");
    let query = SurrogateQuery {
        baseline_w: 150.0,
        supply_c: 27.0,
        leakage: 0.08,
    };
    group.bench_function("predict_4_servers", |b| {
        b.iter(|| model.predict(black_box(&query)));
    });
    group.finish();
}

/// End-to-end steady-loop throughput: one simulated minute-slot per
/// iteration (median_ns → slots/sec is printed by
/// `scripts/bench_summary.sh`). The paper-default colocation (40 servers),
/// learning attacker, wrapping two-day trace.
fn sim_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_step_slots_per_sec");
    group.sample_size(20);

    group.bench_function("recorder_off", |b| {
        let config = ColoConfig::paper_default().with_trace_len(2 * 1440);
        let mut sim = Simulation::new(
            config,
            Box::new(ForesightedPolicy::paper_default(14.0, 1)),
            1,
        );
        sim.warmup(1440);
        b.iter(|| black_box(sim.step()));
    });

    group.bench_function("recorder_on", |b| {
        let config = ColoConfig::paper_default().with_trace_len(2 * 1440);
        let mut sim = Simulation::new(
            config,
            Box::new(ForesightedPolicy::paper_default(14.0, 1)),
            1,
        );
        sim.warmup(1440);
        sim.set_recorder(Box::new(MemoryRecorder::new()));
        b.iter(|| black_box(sim.step()));
    });

    group.finish();
}

/// Fleet-scale aggregate throughput: one iteration advances all 1000 sites
/// by one slot, so aggregate slots/sec = 1000 × 1e9 / median_ns (the
/// headline `scripts/bench_summary.sh` prints). The batched engine and the
/// independent baseline step identical fleets — Fleet's seed schedule, the
/// myopic always-on attacker — so the ratio is pure engine speedup.
fn fleet_throughput(c: &mut Criterion) {
    const SITES: usize = 1000;
    let fleet = || -> Vec<Simulation> {
        let config = ColoConfig::paper_default().with_trace_len(2 * 1440);
        (0..SITES)
            .map(|i| {
                let seed = 1u64.wrapping_add(1 + i as u64 * 1299721);
                Simulation::new(
                    config.clone(),
                    Box::new(MyopicPolicy::new(Power::from_kilowatts(7.4))),
                    seed,
                )
            })
            .collect()
    };

    let mut group = c.benchmark_group("fleet_slots_per_sec");
    group.sample_size(10);

    group.bench_function("batched", |b| {
        let mut batch = BatchSim::new(fleet());
        b.iter(|| black_box(batch.step_all()));
    });

    group.bench_function("independent_baseline", |b| {
        let mut sims = fleet();
        b.iter(|| {
            let mut down = 0u32;
            for sim in &mut sims {
                down += u32::from(sim.step().outage);
            }
            black_box(down)
        });
    });

    group.finish();
}

/// Learning-fleet aggregate throughput: the same shape as
/// `fleet_slots_per_sec`, but every site runs the foresighted Q-learning
/// attacker with the teacher phase disabled, so each slot performs the
/// full learning step — ε/learning-rate schedule evaluation, ε-greedy
/// action selection, and the TD update. The batched engine packs all 1000
/// Q-tables into one lane-major matrix and sweeps the schedules as packed
/// columns; the independent baseline steps the identical fleet through the
/// scalar learner, so the ratio is pure learning-lane speedup.
fn learning_fleet_throughput(c: &mut Criterion) {
    const SITES: usize = 1000;
    let fleet = || -> Vec<Simulation> {
        let config = ColoConfig::paper_default().with_trace_len(2 * 1440);
        (0..SITES)
            .map(|i| {
                let seed = 1u64.wrapping_add(1 + i as u64 * 1299721);
                let mut policy = ForesightedPolicy::paper_default(14.0, seed);
                policy.set_teacher(Power::from_kilowatts(7.56), 0);
                Simulation::new(config.clone(), Box::new(policy), seed)
            })
            .collect()
    };

    let mut group = c.benchmark_group("learning_fleet_slots_per_sec");
    group.sample_size(10);

    group.bench_function("batched", |b| {
        let mut batch = BatchSim::new(fleet());
        assert!(batch.learning_devirtualized());
        b.iter(|| black_box(batch.step_all()));
    });

    group.bench_function("independent", |b| {
        let mut sims = fleet();
        b.iter(|| {
            let mut down = 0u32;
            for sim in &mut sims {
                down += u32::from(sim.step().outage);
            }
            black_box(down)
        });
    });

    group.finish();
}

/// What-if branching cost: answering "what if the attack intensifies at
/// slot 7200?" by forking the live run (`Simulation::fork` + a
/// [`StateTree`] branch stepped 60 slots) versus re-simulating the whole
/// 7200-slot prefix from slot 0 and then stepping the same 60 slots. The
/// ratio of the two medians is the fork speedup `scripts/perf_guard.sh`
/// gates (the fork must stay ≥ cheap relative to the rerun).
fn fork_vs_rerun(c: &mut Criterion) {
    const FORK_SLOT: u64 = 7200;
    const BRANCH_SLOTS: u64 = 60;
    let scenario = {
        let mut s = Scenario::new("myopic");
        s.days = 6;
        s.warmup_days = 0;
        s.seed = 1;
        s
    };
    let hotter = Perturbation {
        attack_load_kw: Some(3.0),
        battery_kwh: Some(1.0),
        ..Perturbation::default()
    };

    let mut group = c.benchmark_group("fork_vs_rerun");
    group.sample_size(10);

    group.bench_function("fork", |b| {
        let (mut trunk, _) = scenario.build_sim().expect("bench scenario builds");
        trunk.run(FORK_SLOT);
        b.iter(|| {
            let mut tree = StateTree::new(trunk.fork(), scenario.clone());
            tree.branch("hotter", &hotter).expect("branch applies");
            tree.run(BRANCH_SLOTS);
            black_box(tree.first_divergence())
        });
    });

    group.bench_function("rerun", |b| {
        b.iter(|| {
            let (mut sim, _) = scenario.build_sim().expect("bench scenario builds");
            sim.run(FORK_SLOT + BRANCH_SLOTS);
            black_box(sim.metrics().slots)
        });
    });

    group.finish();
}

criterion_group!(
    benches,
    zone_model,
    cfd_model,
    surrogate,
    sim_throughput,
    fleet_throughput,
    learning_fleet_throughput,
    fork_vs_rerun
);
criterion_main!(benches);
