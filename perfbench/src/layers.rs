//! The traced per-layer profile: every layer is timed by calling its
//! public functions from here, on inputs recorded from real runs.
//!
//! * Scalar slot replay: paper-default myopic and foresighted runs are
//!   timed slot by slot, then a recorded run's inputs are replayed through
//!   the side channel, policy, battery, zone and protocol calls.
//! * Fleet kernels: `BatchSim::step_all` on one 1000-lane shard, then the
//!   recorded per-slot inputs replayed through the packed lane kernels,
//!   plus shard skew with one `BatchSim` per thread.
//! * Thermal and workload set-up kernels.
//! * Serve: captured request bytes replayed through parse → route →
//!   supervisor → write on a checkpointing twin supervisor, the
//!   checkpoint pieces, and a short live session for client round trips.
//!
//! Per-call timings come from blocks of calls (one span per block, with
//! the call count as its `units`); each block yields one per-call sample,
//! so the reported quantiles are over blocks.

use std::hint::black_box;
use std::io::{Cursor, Read};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use hbm_battery::Battery;
use hbm_core::{
    AttackAction, BatchSim, ColoConfig, Observation, Perturbation, Scenario, Simulation,
    SlotRecord, Transition,
};
use hbm_serve::experiment::{Supervisor, SupervisorConfig};
use hbm_serve::store::ExperimentStore;
use hbm_serve::{http, routes};
use hbm_sidechannel::math::box_muller_slice;
use hbm_sidechannel::{ChannelLanes, VoltageSideChannel, NORMALS_PER_ESTIMATE};
use hbm_thermal::{
    clear_heat_matrix_cache, extract_heat_matrix, CfdConfig, CfdModel, HeatMatrixModel, ZoneLanes,
    ZoneModel,
};
use hbm_units::{Duration as SimDuration, Power};
use hbm_workload::{generate, TraceConfig};

use crate::fleet;
use crate::report::Report;
use crate::serve::{self, Kind};
use crate::spans::Spans;
use crate::Args;

/// Calls per timed block.
const BLOCK: usize = 64;
/// Fewest and most timed blocks (or ops) per measured piece; the cap keeps
/// the span log small.
const MIN_OPS: u64 = 10;
const MAX_OPS: u64 = 2000;

/// Whether a time-boxed loop that has run `op` times should go on.
fn more(op: u64, started: Instant, budget: Duration) -> bool {
    op < MIN_OPS || (op < MAX_OPS && started.elapsed() < budget)
}

/// Times `f` as one child span of `parent` covering `units` calls and
/// pushes the per-call time (in `scale` units of a second) into `series`.
#[allow(clippy::too_many_arguments)]
fn timed<T>(
    report: &mut Report,
    spans: &mut Spans,
    name: &'static str,
    unit: &'static str,
    scale: f64,
    op: u64,
    parent: Option<usize>,
    units: usize,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = Instant::now();
    let out = black_box(f());
    let t1 = Instant::now();
    if units > 0 {
        spans.record(name, op, parent, t0, t1, units as u64);
        report.push(name, unit, (t1 - t0).as_secs_f64() * scale / units as f64);
    }
    out
}

pub fn run(args: &Args) -> (Report, Spans) {
    let mut report = Report::default();
    let mut spans = Spans::new(args.trace);
    let s = args.seconds.as_secs_f64();
    let part = |share: f64| Duration::from_secs_f64(s * share);
    scalar_replay(args.seed, part(0.2), &mut report, &mut spans);
    fleet_kernels(args, part(0.25), &mut report, &mut spans);
    thermal_and_workload(args.seed, part(0.1), &mut report, &mut spans);
    serve_pipeline(args, part(0.2), &mut report, &mut spans);
    let session = serve::session(args.seed, args.threads, &args.work, part(0.25), &mut spans);
    report.merge(session);
    (report, spans)
}

/// Times blocks of `Simulation::step` until `budget` elapses.
fn time_slots(
    sim: &mut Simulation,
    name: &'static str,
    budget: Duration,
    r: &mut Report,
    sp: &mut Spans,
) {
    let started = Instant::now();
    let mut op = 0;
    while more(op, started, budget) {
        timed(r, sp, name, "ns", 1e9, op, None, BLOCK, || {
            for _ in 0..BLOCK {
                black_box(sim.step());
            }
        });
        op += 1;
    }
}

fn scalar_replay(seed: u64, budget: Duration, r: &mut Report, sp: &mut Spans) {
    let mut myopic = Scenario::new("myopic");
    myopic.seed = seed + 1;
    let (mut sim, _) = myopic.build_sim().expect("myopic scenario builds");
    time_slots(&mut sim, "core.sim.slot_ns.myopic", budget / 4, r, sp);

    let mut foresighted = Scenario::new("foresighted");
    foresighted.seed = seed + 1;
    foresighted.warmup_days = 2;
    let (mut sim, warm) = foresighted
        .build_sim()
        .expect("foresighted scenario builds");
    if warm {
        sim.warmup(foresighted.warmup_slots());
    }
    let config = sim.config().clone();
    let mut policy = sim.policy().clone_policy();
    let mut recorder = sim.fork();
    time_slots(&mut sim, "core.sim.slot_ns.foresighted", budget / 4, r, sp);
    let (_, records) = recorder.run_recorded(4 * 1440);

    let slot = config.slot;
    let mut channel = VoltageSideChannel::new(config.side_channel, (seed + 1).wrapping_mul(31) + 7);
    let mut battery = Battery::full(config.battery);
    let mut zone = ZoneModel::new(
        config.cooling,
        config.zone_heat_capacity_j_per_k,
        config.zone_pulldown_w_per_k,
    );
    let mut protocol = config.protocol.clone();
    let observe = |t: usize| -> Observation {
        let prev = &records[t.saturating_sub(1)];
        let soc = if t == 0 { 1.0 } else { prev.battery_soc };
        Observation {
            slot: records[t].slot,
            battery_soc: soc,
            battery_stored: config.battery.capacity * soc,
            estimated_total: records[t].estimated_total,
            inlet: prev.inlet,
            capping: records[t].capping,
        }
    };
    let started = Instant::now();
    let mut op = 0u64;
    'replay: loop {
        for block in records.chunks(BLOCK).enumerate() {
            if !more(op, started, budget / 2) {
                break 'replay;
            }
            replay_block(
                block,
                &records,
                &config,
                slot,
                op,
                &observe,
                (&mut channel, policy.as_mut(), &mut battery),
                (&mut zone, &mut protocol),
                r,
                sp,
            );
            op += 1;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn replay_block(
    (b, block): (usize, &[SlotRecord]),
    records: &[SlotRecord],
    config: &ColoConfig,
    slot: SimDuration,
    op: u64,
    observe: &dyn Fn(usize) -> Observation,
    (channel, policy, battery): (
        &mut VoltageSideChannel,
        &mut dyn hbm_core::AttackPolicy,
        &mut Battery,
    ),
    (zone, protocol): (&mut ZoneModel, &mut hbm_power::EmergencyProtocol),
    r: &mut Report,
    sp: &mut Spans,
) {
    let first = b * BLOCK;
    let live: Vec<usize> = (first..first + block.len())
        .filter(|&t| !records[t].outage)
        .collect();
    let learnable: Vec<usize> = live
        .iter()
        .copied()
        .filter(|&t| t > 0 && !records[t - 1].outage)
        .collect();
    let root = sp.open("core.sim.replay", op, Instant::now());
    let parent = Some(root);
    timed(
        r,
        sp,
        "sidechannel.estimate_ns",
        "ns",
        1e9,
        op,
        parent,
        live.len(),
        || {
            for &t in &live {
                black_box(channel.estimate(records[t].benign_actual));
            }
        },
    );
    timed(
        r,
        sp,
        "rl.learn_ns",
        "ns",
        1e9,
        op,
        parent,
        learnable.len(),
        || {
            for &t in &learnable {
                let p = &records[t - 1];
                let transition = Transition {
                    observation: observe(t - 1),
                    action: p.action,
                    inlet: p.inlet,
                    next_battery_soc: p.battery_soc,
                    next_battery_stored: config.battery.capacity * p.battery_soc,
                    next_estimated_total: records[t].estimated_total,
                    next_capping: records[t].capping,
                    day: p.slot / 1440,
                };
                policy.learn(&transition);
            }
        },
    );
    timed(
        r,
        sp,
        "rl.decide_ns",
        "ns",
        1e9,
        op,
        parent,
        live.len(),
        || {
            for &t in &live {
                black_box(policy.decide(&observe(t)));
            }
        },
    );
    timed(
        r,
        sp,
        "battery.step_ns",
        "ns",
        1e9,
        op,
        parent,
        live.len(),
        || {
            for &t in &live {
                let rec = &records[t];
                let limit = if rec.capping {
                    config.attacker_emergency_cap()
                } else {
                    config.attacker_capacity
                };
                match rec.action {
                    AttackAction::Attack => {
                        black_box(battery.discharge(config.attack_load, slot));
                    }
                    AttackAction::Charge => {
                        let headroom = (limit - config.standby_power).positive_part();
                        let rate = config.battery.max_charge_rate.min(headroom);
                        black_box(battery.charge(rate, slot));
                    }
                    AttackAction::Standby => {}
                }
                if battery.is_empty() {
                    battery.set_stored(config.battery.capacity);
                }
            }
        },
    );
    timed(
        r,
        sp,
        "thermal.zone_step_ns",
        "ns",
        1e9,
        op,
        parent,
        block.len(),
        || {
            for rec in block {
                black_box(zone.step(rec.actual_total, slot));
            }
        },
    );
    timed(
        r,
        sp,
        "power.protocol_step_ns",
        "ns",
        1e9,
        op,
        parent,
        live.len(),
        || {
            for &t in &live {
                if protocol.step(records[t].inlet, slot).is_outage() {
                    protocol.reset();
                }
            }
        },
    );
    sp.close(root, Instant::now());
}

fn fleet_kernels(args: &Args, budget: Duration, r: &mut Report, sp: &mut Spans) {
    let mut sims = fleet::build_fleet(args.seed);
    for _ in 0..3 {
        let t0 = Instant::now();
        let batch = BatchSim::new(sims);
        r.push("core.batch.new_ms", "ms", t0.elapsed().as_secs_f64() * 1e3);
        sims = batch.into_sims();
    }

    // One shard of all lanes: time every step_all and record its inputs.
    let lanes = sims.len();
    let config = ColoConfig::paper_default().with_trace_len(fleet::TRACE_SLOTS);
    let slot = config.slot;
    let mut batch = BatchSim::new(sims);
    let mut benign_w: Vec<Vec<f64>> = Vec::new();
    let mut loads_w: Vec<Vec<f64>> = Vec::new();
    let started = Instant::now();
    let mut op = 0;
    while more(op, started, budget / 3) {
        timed(
            r,
            sp,
            "core.batch.step_all_us",
            "us",
            1e6,
            op,
            None,
            1,
            || batch.step_all(),
        );
        let records = batch.records();
        benign_w.push(records.iter().map(|x| x.benign_actual.as_watts()).collect());
        loads_w.push(records.iter().map(|x| x.actual_total.as_watts()).collect());
        op += 1;
    }
    let sims = batch.into_sims();

    // Replay the recorded slots through the packed kernels.
    let channels: Vec<VoltageSideChannel> = (0..lanes)
        .map(|i| {
            VoltageSideChannel::new(
                config.side_channel,
                fleet::lane_seed(args.seed, i).wrapping_mul(31) + 7,
            )
        })
        .collect();
    let mut sc = ChannelLanes::from_channels(&channels);
    let template = ZoneModel::new(
        config.cooling,
        config.zone_heat_capacity_j_per_k,
        config.zone_pulldown_w_per_k,
    );
    let mut zones = ZoneLanes::from_models(&vec![template; lanes]);
    let n = lanes * NORMALS_PER_ESTIMATE;
    let (mut u1, mut u2, mut z) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut est = vec![0.0; lanes];
    let started = Instant::now();
    let mut op = 0u64;
    'replay: loop {
        for (benign, loads) in benign_w.iter().zip(&loads_w) {
            if !more(op, started, budget / 3) {
                break 'replay;
            }
            let root = sp.open("core.batch.replay", op, Instant::now());
            let p = Some(root);
            timed(
                r,
                sp,
                "sidechannel.lanes.draw_all_us",
                "us",
                1e6,
                op,
                p,
                1,
                || sc.draw_all(&mut u1, &mut u2),
            );
            timed(
                r,
                sp,
                "sidechannel.math.box_muller_us",
                "us",
                1e6,
                op,
                p,
                1,
                || box_muller_slice(&u1, &u2, &mut z),
            );
            timed(
                r,
                sp,
                "sidechannel.lanes.estimate_all_us",
                "us",
                1e6,
                op,
                p,
                1,
                || sc.estimate_all(benign, &z, &mut est),
            );
            timed(
                r,
                sp,
                "thermal.zone_lanes.step_all_us",
                "us",
                1e6,
                op,
                p,
                1,
                || zones.step_all(loads, slot),
            );
            sp.close(root, Instant::now());
            op += 1;
        }
    }

    // Shard skew: one BatchSim per thread, released together each round.
    let threads = args.threads;
    let per = lanes.div_ceil(threads);
    let mut rest = sims;
    let mut shards = Vec::new();
    while !rest.is_empty() {
        let tail = rest.split_off(per.min(rest.len()));
        shards.push(BatchSim::new(rest));
        rest = tail;
    }
    const ROUNDS: usize = 100;
    const ROUND_SLOTS: usize = 16;
    let barrier = std::sync::Barrier::new(shards.len());
    let walls: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter_mut()
            .map(|shard| {
                let barrier = &barrier;
                scope.spawn(move || {
                    (0..ROUNDS)
                        .map(|_| {
                            barrier.wait();
                            let t0 = Instant::now();
                            for _ in 0..ROUND_SLOTS {
                                black_box(shard.step_all());
                            }
                            t0.elapsed().as_secs_f64()
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    for round in 0..ROUNDS {
        let times: Vec<f64> = walls.iter().map(|w| w[round]).collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let max = times.iter().cloned().fold(0.0, f64::max);
        r.push("par.shard_skew", "ratio", max / mean);
    }
}

fn thermal_and_workload(seed: u64, budget: Duration, r: &mut Report, sp: &mut Spans) {
    let cfd = CfdConfig::paper_default();
    let baseline = vec![Power::from_watts(150.0); cfd.server_count()];
    let spike = Power::from_watts(300.0);
    let (window, lag) = (
        SimDuration::from_minutes(10.0),
        SimDuration::from_minutes(1.0),
    );
    for op in 0..3 {
        clear_heat_matrix_cache();
        timed(
            r,
            sp,
            "thermal.extract_cold_ms",
            "ms",
            1e3,
            op,
            None,
            1,
            || extract_heat_matrix(&cfd, &baseline, spike, window, lag),
        );
    }
    let started = Instant::now();
    let mut model = CfdModel::new(cfd);
    let mut matrix = HeatMatrixModel::from_cfd(&cfd, &baseline, spike, window, lag);
    let mut excursion = baseline.clone();
    excursion[3] = Power::from_watts(420.0);
    let mut out = vec![0.0; baseline.len()];
    // A span shorter than the CFD time step is exactly one substep.
    let substep = SimDuration::from_seconds(1e-3);
    let mut op = 0;
    while more(op, started, budget / 2) {
        timed(
            r,
            sp,
            "thermal.cfd_substep_us",
            "us",
            1e6,
            op,
            None,
            BLOCK,
            || {
                for _ in 0..BLOCK {
                    model.step(&excursion, substep);
                }
            },
        );
        timed(
            r,
            sp,
            "thermal.matrix_step_ns",
            "ns",
            1e9,
            op,
            None,
            BLOCK,
            || {
                for _ in 0..BLOCK {
                    matrix.step_into(&excursion, &mut out);
                }
            },
        );
        op += 1;
    }
    let started = Instant::now();
    let mut op = 0;
    while more(op, started, budget / 2) {
        let config = TraceConfig::paper_default_year(seed + op);
        timed(
            r,
            sp,
            "workload.generate_ms",
            "ms",
            1e3,
            op,
            None,
            1,
            || generate(&config),
        );
        op += 1;
    }
}

/// A loopback socket the write replay sends into, drained by a thread.
fn sink_socket() -> (TcpStream, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let writer = TcpStream::connect(addr).expect("connect loopback");
    let (mut reader, _) = listener.accept().expect("accept loopback");
    let drain = std::thread::spawn(move || {
        let mut buf = [0u8; 64 * 1024];
        while matches!(reader.read(&mut buf), Ok(n) if n > 0) {}
    });
    (writer, drain)
}

fn serve_pipeline(args: &Args, budget: Duration, r: &mut Report, sp: &mut Spans) {
    let dir = args.work.join("layers-store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = ExperimentStore::open(&dir).expect("open the replay store");
    let twin = Supervisor::new(SupervisorConfig::default(), Some(store));
    let scenario = Scenario::from_flat_json(&serve::scenario_body(args.seed, 0)).expect("scenario");
    let id = twin.create(scenario.clone()).expect("twin create").id;
    let (mut sink, drain) = sink_socket();

    let started = Instant::now();
    let mut op = 0u64;
    let mut c = 0;
    while c < serve::FORK_EVERY || more(op, started, budget / 2) {
        for request in serve::cycle(&id, c) {
            let bytes = request.bytes();
            let root = sp.open("serve.pipeline", op, Instant::now());
            let p = Some(root);
            let parse = match request.kind {
                Kind::Step => "serve.http.parse_us.step",
                Kind::State => "serve.http.parse_us.state",
                Kind::Metrics => "serve.http.parse_us.metrics",
                Kind::Perturb => "serve.http.parse_us.perturb",
                Kind::Fork => "serve.http.parse_us.fork",
                Kind::BranchStep => "serve.http.parse_us.branch_step",
                Kind::BranchDelete => "serve.http.parse_us.branch_delete",
            };
            let parsed = timed(r, sp, parse, "us", 1e6, op, p, 1, || {
                http::read_request(&mut Cursor::new(&bytes))
            });
            let parsed = parsed
                .expect("captured request parses")
                .expect("one request");
            timed(r, sp, "serve.routes.route_ns", "ns", 1e9, op, p, 1, || {
                matches!(
                    routes::route(&parsed.method, &parsed.target),
                    routes::RouteMatch::Ok { .. }
                )
            });
            let body = supervise(&twin, &id, &request, r, sp, op, p);
            timed(r, sp, "serve.http.write_us", "us", 1e6, op, p, 1, || {
                http::write_response(&mut sink, 200, &[], body.as_bytes())
            })
            .expect("write into the loopback sink");
            sp.close(root, Instant::now());
            op += 1;
        }
        c += 1;
    }
    twin.flush();
    drop(sink);
    drain.join().expect("drain thread");

    // Checkpoint pieces on a stepped session simulation.
    let (mut sim, _) = scenario.build_sim().expect("scenario builds");
    let store = ExperimentStore::open(&dir.join("checkpoints")).expect("open store");
    let scenario_json = scenario.to_flat_json();
    let started = Instant::now();
    let mut op = 0u64;
    while more(op, started, budget / 2) {
        for _ in 0..serve::STEP_SLOTS {
            sim.step();
        }
        let root = sp.open("serve.checkpoint", op, Instant::now());
        let p = Some(root);
        let snap = timed(r, sp, "core.state.snapshot_us", "us", 1e6, op, p, 1, || {
            sim.snapshot()
        });
        let json = timed(r, sp, "core.state.to_json_us", "us", 1e6, op, p, 1, || {
            snap.to_json()
        });
        timed(r, sp, "serve.store.save_us", "us", 1e6, op, p, 1, || {
            store.save("exp-000001", 0, op, 0, &scenario_json, &json)
        })
        .expect("checkpoint save");
        sp.close(root, Instant::now());
        op += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs one request's supervisor call, timed; returns a response body of
/// the server's shape.
fn supervise(
    twin: &Supervisor,
    id: &str,
    request: &serve::Op,
    r: &mut Report,
    sp: &mut Spans,
    op: u64,
    p: Option<usize>,
) -> String {
    let name = match request.kind {
        Kind::Step => "serve.supervisor.step_us",
        Kind::State => "serve.supervisor.state_us",
        Kind::Metrics => "serve.supervisor.metrics_us",
        Kind::Perturb => "serve.supervisor.perturb_us",
        Kind::Fork => "serve.supervisor.fork_us",
        Kind::BranchStep => "serve.supervisor.branch_step_us",
        Kind::BranchDelete => "serve.supervisor.branch_delete_us",
    };
    let body = timed(r, sp, name, "us", 1e6, op, p, 1, || match request.kind {
        Kind::State => twin.state_of(id).map(|s| s + "\n"),
        Kind::Metrics => twin.metrics_of(id).map(|(m, _)| m + "\n"),
        Kind::Step => twin.step(id, serve::STEP_SLOTS).map(|o| {
            format!(
                "{{\"id\":\"{}\",\"stepped\":{},\"slots\":{}}}\n",
                o.id, o.stepped, o.slots
            )
        }),
        Kind::Perturb => {
            let pert = Perturbation::from_flat_json(&request.body).map_err(|e| (400, e))?;
            twin.perturb(id, &pert).map(|s| s + "\n")
        }
        Kind::Fork | Kind::BranchStep | Kind::BranchDelete => {
            serve::apply(twin, id, request.kind, 0).map(|()| format!("{{\"id\":\"{id}\"}}\n"))
        }
    });
    body.expect("twin supervisor call succeeds")
}
