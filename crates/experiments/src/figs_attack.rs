//! Attack-evaluation figures: 8, 9, 10, 11b–d, 13b, and the §VI-C cost
//! estimate.

use hbm_battery::BatterySpec;
use hbm_core::{
    AttackAction, AttackPolicy, ColoConfig, CostModel, ForesightedPolicy, MyopicPolicy,
    OneShotPolicy, RandomPolicy, Simulation, SlotRecord,
};
use hbm_units::Power;
use hbm_workload::TraceShape;

use crate::common::{
    heading, run_sims_batch, summary_line, trace_recorder, warmup_sims_batch, write_csv, Options,
    Sink,
};
use crate::outln;

/// Fig. 8: one-shot attack demonstration (30-minute window).
pub fn fig8(opts: &Options, out: &mut Sink) {
    heading(out, "Fig. 8 — one-shot attack demonstration");
    let mut config = ColoConfig::paper_default();
    config.battery = BatterySpec::one_shot();
    config.attack_load = Power::from_kilowatts(3.0);
    let policy = OneShotPolicy::new(Power::from_kilowatts(7.6));
    let mut sim = Simulation::new(config, Box::new(policy), opts.seed);
    if let Some(rec) = trace_recorder(opts, "fig8") {
        sim.set_recorder(rec);
    }
    let (report, records) = sim.run_recorded(3 * 1440);
    drop(sim.take_recorder());
    let trigger = records
        .iter()
        .position(|r| r.attack_load > Power::ZERO)
        .unwrap_or(0);
    let start = trigger.saturating_sub(18);
    let window = &records[start..(start + 30).min(records.len())];
    let mut rows = Vec::new();
    for (i, r) in window.iter().enumerate() {
        rows.push(record_row(i, r));
        if i % 2 == 0 {
            outln!(
                out,
                "  t={i:2} min  metered {:5.2} kW  actual {:5.2} kW  inlet {:6.2} °C{}{}",
                r.metered_total.as_kilowatts(),
                r.actual_total.as_kilowatts(),
                r.inlet.as_celsius(),
                if r.capping { "  [capping]" } else { "" },
                if r.outage { "  [OUTAGE]" } else { "" },
            );
        }
    }
    outln!(
        out,
        "  outages: {} (paper: inlet passes 45 °C despite capping)",
        report.metrics.outage_events
    );
    write_csv(opts, out, "fig8", RECORD_HEADER, &rows);
}

/// Fig. 9: 4-hour snapshot of repeated attacks under the three policies.
pub fn fig9(opts: &Options, out: &mut Sink) {
    heading(
        out,
        "Fig. 9 — 4 h snapshot of repeated attacks (3 policies)",
    );
    let config = ColoConfig::paper_default();
    let policies: Vec<(&str, Box<dyn AttackPolicy>, bool)> = vec![
        (
            "random",
            Box::new(RandomPolicy::new(
                0.08,
                config.attack_load,
                config.slot,
                opts.seed,
            )),
            false,
        ),
        (
            "myopic",
            Box::new(MyopicPolicy::new(Power::from_kilowatts(7.4))),
            false,
        ),
        (
            "foresighted",
            Box::new(ForesightedPolicy::paper_default(14.0, opts.seed)),
            true,
        ),
    ];
    // The three policy runs are independent lanes of one sharded batch:
    // warm up the learning lane, attach the trace recorders (after warm-up,
    // so the JSONL lines up with the recorded days), then record every lane
    // in lockstep.
    let names: Vec<&str> = policies.iter().map(|(name, _, _)| *name).collect();
    let lanes: Vec<(Simulation, bool)> = policies
        .into_iter()
        .map(|(_, policy, warmup)| (Simulation::new(config.clone(), policy, opts.seed), warmup))
        .collect();
    let mut sims = warmup_sims_batch(lanes, opts.warmup_slots());
    for (sim, name) in sims.iter_mut().zip(&names) {
        if let Some(rec) = trace_recorder(opts, &format!("fig9_{name}")) {
            sim.set_recorder(rec);
        }
    }
    // Record a few days, then pick the most "interesting" 4-hour window
    // (most capping slots, then most attack slots) — the paper likewise
    // shows a snapshot "when the total power/cooling load is relatively
    // higher".
    let mut run = hbm_core::run_sharded_recorded(sims, 4 * 1440);
    for sim in run.sims.iter_mut() {
        drop(sim.take_recorder());
    }
    let results = names.into_iter().zip(run.records).map(|(name, all)| {
        let window_len = 4 * 60;
        let score = |w: &[SlotRecord]| {
            let capping = w.iter().filter(|r| r.capping).count();
            let attacks = w.iter().filter(|r| r.attack_load > Power::ZERO).count();
            capping * 1000 + attacks
        };
        let start = (0..all.len() - window_len)
            .step_by(30)
            .max_by_key(|&s| score(&all[s..s + window_len]))
            .unwrap_or(0);
        let records = &all[start..start + window_len];
        let rows: Vec<String> = records
            .iter()
            .enumerate()
            .map(|(i, r)| record_row(i, r))
            .collect();
        let attacks = records
            .iter()
            .filter(|r| r.attack_load > Power::ZERO)
            .count();
        let emergencies = records
            .windows(2)
            .filter(|w| w[1].capping && !w[0].capping)
            .count();
        (name, attacks, emergencies, rows)
    });
    for (name, attacks, emergencies, rows) in results {
        outln!(
            out,
            "  {name:12} attack slots {attacks:3}/240, emergencies in window: {emergencies}"
        );
        write_csv(opts, out, &format!("fig9_{name}"), RECORD_HEADER, &rows);
    }
    outln!(
        out,
        "  (metered vs actual traces in the CSVs show the behind-the-meter gap)"
    );
}

const RECORD_HEADER: &str =
    "minute,benign_kw,metered_kw,actual_kw,attack_kw,soc,est_kw,inlet_c,capping,outage";

fn record_row(i: usize, r: &SlotRecord) -> String {
    format!(
        "{i},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.2},{},{}",
        r.benign_demand.as_kilowatts(),
        r.metered_total.as_kilowatts(),
        r.actual_total.as_kilowatts(),
        r.attack_load.as_kilowatts(),
        r.battery_soc,
        r.estimated_total.as_kilowatts(),
        r.inlet.as_celsius(),
        u8::from(r.capping),
        u8::from(r.outage),
    )
}

/// Fig. 10: the attack policy learnt by Foresighted for two weights.
pub fn fig10(opts: &Options, out: &mut Sink) {
    heading(
        out,
        "Fig. 10 — learnt Foresighted policy structure (w = 9 and w = 14)",
    );
    let config = ColoConfig::paper_default();
    // The two weights learn independently; train them as lanes of one
    // sharded batch (one packed Q-table matrix), then read each learnt
    // policy back out of the returned simulations.
    let weights = [9.0, 14.0];
    let sims: Vec<Simulation> = weights
        .iter()
        .map(|&w| {
            let policy = ForesightedPolicy::paper_default(w, opts.seed);
            Simulation::new(config.clone(), Box::new(policy), opts.seed)
        })
        .collect();
    let sims = hbm_core::run_sharded(sims, opts.warmup_slots()).sims;
    let results = weights.iter().zip(&sims).map(|(&w, sim)| {
        let p = sim
            .policy()
            .as_any()
            .downcast_ref::<ForesightedPolicy>()
            .expect("foresighted policy");
        let matrix = p.policy_matrix();
        let loads = p.load_bin_centers_kw();
        let mut lines = Vec::new();
        lines.push(format!(
            "  w = {w}: (columns = estimated load bins, rows = battery level high→low)"
        ));
        let mut header = String::from("        ");
        for l in loads.iter().step_by(2) {
            header.push_str(&format!("{l:5.1} "));
        }
        lines.push(header);
        let mut rows = Vec::new();
        for (b, row) in matrix.iter().enumerate().rev() {
            let soc = p.battery_bin_centers()[b];
            let line: String = row
                .iter()
                .map(|a| match a {
                    AttackAction::Attack => 'A',
                    AttackAction::Charge => 'C',
                    AttackAction::Standby => '.',
                })
                .collect();
            lines.push(format!("  b={soc:4.2}  {line}"));
            for (u, a) in row.iter().enumerate() {
                rows.push(format!("{w},{soc:.2},{:.2},{a}", loads[u]));
            }
        }
        (w, lines, rows)
    });
    for (w, lines, rows) in results {
        for line in lines {
            out.line(line);
        }
        write_csv(
            opts,
            out,
            &format!("fig10_w{}", w as u32),
            "w,battery_soc,load_kw,action",
            &rows,
        );
    }
    outln!(
        out,
        "  structural property: attack (A) concentrates where both battery and load are high"
    );
}

/// Figs. 11b and 11c: average ΔT and attack-induced emergency time versus
/// daily attack time, for all three policies.
pub fn fig11bc(opts: &Options, out: &mut Sink) {
    heading(
        out,
        "Figs. 11b/11c — ΔT and emergency time vs daily attack time",
    );
    let config = ColoConfig::paper_default();
    let mut rows = Vec::new();

    outln!(
        out,
        "  policy        knob        attack h/day   avg dT (K)   emergency %"
    );

    // All 18 policy/knob combinations are independent year-long runs — the
    // heaviest sweep in the harness, and the flattest to batch: every
    // combination becomes one lane of a sharded `BatchSim`, with the seven
    // foresighted lanes sharing a packed Q-table matrix.
    let mut jobs: Vec<(&str, String, Box<dyn AttackPolicy>, bool)> = Vec::new();
    for p in [0.0, 0.03, 0.08, 0.15] {
        let policy = RandomPolicy::new(p, config.attack_load, config.slot, opts.seed);
        jobs.push(("random", format!("p={p}"), Box::new(policy), false));
    }
    for threshold in [8.0, 7.8, 7.6, 7.4, 7.2, 7.0, 6.5] {
        let policy = MyopicPolicy::new(Power::from_kilowatts(threshold));
        jobs.push((
            "myopic",
            format!("thr={threshold}"),
            Box::new(policy),
            false,
        ));
    }
    for w in [0.0, 2.0, 5.0, 9.0, 14.0, 22.0, 30.0] {
        let policy = ForesightedPolicy::paper_default(w, opts.seed);
        jobs.push(("foresighted", format!("w={w}"), Box::new(policy), true));
    }
    let mut labels: Vec<(&str, String)> = Vec::new();
    let mut lanes: Vec<(Simulation, bool)> = Vec::new();
    for (policy_name, knob, policy, warmup) in jobs {
        labels.push((policy_name, knob));
        lanes.push((Simulation::new(config.clone(), policy, opts.seed), warmup));
    }
    let reports = run_sims_batch(lanes, opts.warmup_slots(), opts.slots());
    for ((policy, knob), report) in labels.into_iter().zip(reports) {
        let m = &report.metrics;
        outln!(
            out,
            "  {policy:12} {knob:>10}   {:10.2}   {:9.3}   {:9.3}",
            m.attack_hours_per_day(),
            m.avg_delta_t().as_celsius(),
            100.0 * m.emergency_fraction()
        );
        rows.push(format!(
            "{policy},{knob},{:.3},{:.4},{:.4}",
            m.attack_hours_per_day(),
            m.avg_delta_t().as_celsius(),
            100.0 * m.emergency_fraction()
        ));
    }
    write_csv(
        opts,
        out,
        "fig11bc",
        "policy,knob,attack_h_per_day,avg_dt_k,emergency_pct",
        &rows,
    );
}

/// Fig. 11d: normalized 95th-percentile response time during emergencies.
pub fn fig11d(opts: &Options, out: &mut Sink) {
    heading(
        out,
        "Fig. 11d — tenants' normalized 95p response time during emergencies",
    );
    let config = ColoConfig::paper_default();
    run_degradation(opts, out, &config, "fig11d");
}

/// Fig. 13b: same metric under the alternate (google) trace.
pub fn fig13b(opts: &Options, out: &mut Sink) {
    heading(
        out,
        "Fig. 13b — tenant performance during emergencies (alternate trace)",
    );
    let mut config = ColoConfig::paper_default();
    config.trace.shape = TraceShape::Google;
    run_degradation(opts, out, &config, "fig13b");
}

fn run_degradation(opts: &Options, out: &mut Sink, config: &ColoConfig, name: &str) {
    let mut rows = Vec::new();
    let mut names = Vec::new();
    let mut lanes: Vec<(Simulation, bool)> = Vec::new();
    for (pname, policy, warmup) in hbm_core::scenario::default_policies(config, opts.seed) {
        names.push(pname);
        lanes.push((Simulation::new(config.clone(), policy, opts.seed), warmup));
    }
    let reports = run_sims_batch(lanes, opts.warmup_slots(), opts.slots());
    for (pname, report) in names.into_iter().zip(reports) {
        outln!(out, "  {}", summary_line(&pname, &report.metrics));
        rows.push(format!(
            "{pname},{:.4},{:.4}",
            report.metrics.mean_emergency_degradation(),
            100.0 * report.metrics.emergency_fraction()
        ));
    }
    write_csv(
        opts,
        out,
        name,
        "policy,mean_degradation,emergency_pct",
        &rows,
    );
}

/// §VI-C: yearly cost estimate for attacker and benign tenants.
pub fn cost(opts: &Options, out: &mut Sink) {
    heading(
        out,
        "Section VI-C — cost estimate (defaults, Foresighted w=14)",
    );
    let config = ColoConfig::paper_default();
    let policy = ForesightedPolicy::paper_default(14.0, opts.seed);
    let sim = Simulation::new(config.clone(), Box::new(policy), opts.seed);
    let report = run_sims_batch(vec![(sim, true)], opts.warmup_slots(), opts.slots())
        .into_iter()
        .next()
        .expect("one lane in, one report out");
    let model = CostModel::paper_default();
    let costs = model.yearly_report(
        &report.metrics,
        config.attacker_capacity,
        config.attacker_servers,
        report.metrics.attacker_metered_energy,
    );
    outln!(
        out,
        "  attacker  subscription  ${:>10.0}/yr",
        costs.attacker_subscription
    );
    outln!(
        out,
        "  attacker  electricity   ${:>10.0}/yr",
        costs.attacker_energy
    );
    outln!(
        out,
        "  attacker  servers       ${:>10.0}/yr (amortized)",
        costs.attacker_servers
    );
    outln!(
        out,
        "  attacker  TOTAL         ${:>10.0}/yr",
        costs.attacker_total()
    );
    outln!(
        out,
        "  victims   performance   ${:>10.0}/yr (paper ballpark: $60K+)",
        costs.victim_performance
    );
    write_csv(
        opts,
        out,
        "cost",
        "item,usd_per_year",
        &[
            format!("attacker_subscription,{:.0}", costs.attacker_subscription),
            format!("attacker_energy,{:.0}", costs.attacker_energy),
            format!("attacker_servers,{:.0}", costs.attacker_servers),
            format!("victim_performance,{:.0}", costs.victim_performance),
        ],
    );
}
