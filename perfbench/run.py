#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload <paper_regen|fleet_myopic>
                             --seed N --seconds S --trace <0|1>

Run from the repository root. It builds the `experiments` CLI and the
measurement harness (perfbench/, a package of its own) from source into
$CARGO_TARGET_DIR (default .bench_build), runs the workload, checks its
outputs, and prints as the last stdout line one JSON object with
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics. See
perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

WORKLOADS = ("paper_regen", "fleet_myopic")

# (name, unit) of every end-to-end metric; each workload reports all five.
END_TO_END = (
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# The experiments CLI's EXPERIMENTS table, in order.
EXPERIMENT_IDS = (
    "table1", "fig5b", "fig6b", "fig7a", "fig7b", "fig8", "fig9", "fig10",
    "fig11a", "fig11bc", "fig11d", "fig12a", "fig12b", "fig12c", "fig12d",
    "fig12e", "fig13a", "fig13b", "fig14a", "fig14b", "fig15", "cost",
    "defense", "ablation", "defense_roc", "latency_validation", "placement",
    "outlet_only", "setpoint",
)

SERVE_KINDS = ("step", "state", "metrics", "perturb", "fork", "branch_step", "branch_delete")

# (name, unit) of every per-layer metric, reported by every traced run.
PER_LAYER = (
    tuple((f"experiments.{i}_s", "s") for i in EXPERIMENT_IDS)
    + (
        ("par.regen_speedup", "ratio"),
        ("thermal.extract_cold_ms", "ms"),
        ("thermal.cfd_substep_us", "us"),
        ("thermal.matrix_step_ns", "ns"),
        ("workload.generate_ms", "ms"),
        ("core.sim.slot_ns.myopic", "ns"),
        ("core.sim.slot_ns.foresighted", "ns"),
        ("sidechannel.estimate_ns", "ns"),
        ("rl.decide_ns", "ns"),
        ("rl.learn_ns", "ns"),
        ("battery.step_ns", "ns"),
        ("thermal.zone_step_ns", "ns"),
        ("power.protocol_step_ns", "ns"),
        ("core.sim.unattributed_ns", "ns"),
        ("core.sim.layer_coverage", "ratio"),
        ("core.batch.step_all_us", "us"),
        ("sidechannel.lanes.draw_all_us", "us"),
        ("sidechannel.math.box_muller_us", "us"),
        ("sidechannel.lanes.estimate_all_us", "us"),
        ("thermal.zone_lanes.step_all_us", "us"),
        ("core.batch.unattributed_us", "us"),
        ("core.batch.layer_coverage", "ratio"),
        ("par.shard_skew", "ratio"),
        ("core.batch.new_ms", "ms"),
    )
    + tuple((f"serve.http.parse_us.{k}", "us") for k in SERVE_KINDS)
    + (
        ("serve.routes.route_ns", "ns"),
        ("serve.http.write_us", "us"),
    )
    + tuple((f"serve.supervisor.{k}_us", "us") for k in SERVE_KINDS)
    + (
        ("core.state.snapshot_us", "us"),
        ("core.state.to_json_us", "us"),
        ("serve.store.save_us", "us"),
        ("serve.unattributed_us", "us"),
        ("serve.layer_coverage", "ratio"),
        ("serve.accounted_ratio", "ratio"),
        ("serve.client.step_p50_us", "us"),
        ("serve.client.step_p90_us", "us"),
        ("serve.client.read_p50_us", "us"),
        ("serve.client.read_p90_us", "us"),
        ("serve.client.fork_p50_us", "us"),
        ("serve.client.ops_per_s", "1/s"),
        ("trace.overhead_frac", "frac"),
    )
)

# paper_regen's fixed shortened horizon: slot stepping is about a third of
# the wall time here instead of being swamped by fixed work (README.md).
REGEN_DAYS = 60
REGEN_WARMUP_DAYS = 30
# CSV digests are recorded (perfbench/digests.json) for experiments seeds
# 1..REGEN_SEEDS. Run k of a workload seed regenerates at experiments seed
# 1 + (seed + k) mod REGEN_SEEDS, so a run's median spans several seeds
# rather than hanging on one seed's cost.
REGEN_SEEDS = 16
REGEN_MIN_RUNS = 3
SETUP_REPS = 30
# Seconds the in-process layer profile of a traced run measures for.
LAYER_SECONDS = 10
# Window widths for the windowed p90 and rate: enough ops per window for a
# p90 (fleet calls take ~0.1 s), short enough that bursts of host noise
# fill only a few windows.
FLEET_WINDOW_S = 5.0
SERVE_WINDOW_S = 1.0

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log(f"error: {msg}")
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def run_child(cmd, **kw):
    """Runs cmd to completion; returns (wall seconds, peak RSS in MiB, exit
    code). Peak RSS comes from the child's own rusage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, **kw)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def build(root):
    """Builds the experiments CLI (the program) and the harness from
    source; returns their paths."""
    target = Path(os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
        os.environ["CARGO_TARGET_DIR"] = str(target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "experiments"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        result = subprocess.run(cmd, cwd=root, stdout=sys.stderr)
        if result.returncode != 0:
            die(f"build failed: {' '.join(cmd)}", 1)
    return target / "release" / "experiments", target / "release" / "hbm-perfbench"


def fingerprint(root, threads):
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=root, capture_output=True, text=True).stdout.strip()
        except OSError:
            return ""

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": threads,
        "cpu": cpu or platform.processor(),
        "rustc": out(["rustc", "--version"]),
        "commit": out(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
    }


# ------------------------------------------------------------- workloads


class Ctx:
    def __init__(self, args, work, experiments, harness, threads):
        self.args = args
        self.work = work
        self.experiments = experiments
        self.harness = harness
        self.threads = threads
        self.tally = benchlib.Tally()
        self.samples = {}  # name -> (unit, values), for the detail table

    def regen_seed(self, k=0):
        return 1 + (self.args.seed + k) % REGEN_SEEDS

    def experiments_cmd(self, ids, out, jobs, k=0):
        return [
            str(self.experiments), *ids,
            "--days", str(REGEN_DAYS), "--warmup-days", str(REGEN_WARMUP_DAYS),
            "--seed", str(self.regen_seed(k)), "--jobs", str(jobs), "--out", str(out),
        ]

    def regen(self, label, k=0):
        """One `experiments all` process, its CSVs checked afterwards;
        returns (wall, peak RSS)."""
        out = self.work / label
        wall, rss, code = run_child(
            self.experiments_cmd(["all"], out, self.threads, k),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        self.tally.add(code == 0, f"{label}: experiments all exited {code}")
        expected = json.loads(DIGESTS.read_text())[f"d{REGEN_DAYS}_w{REGEN_WARMUP_DAYS}"]
        benchlib.check_csvs(
            self.tally, benchlib.csv_digests(out), expected[str(self.regen_seed(k))], label
        )
        shutil.rmtree(out, ignore_errors=True)
        return wall, rss

    def harness_run(self, mode, seconds, trace):
        """Runs the harness; returns (report, spans or None, peak RSS MiB)."""
        out = self.work / f"{mode}.json"
        cmd = [
            str(self.harness), mode, "--seed", str(self.args.seed),
            "--seconds", str(seconds), "--threads", str(self.threads),
            "--work", str(self.work / mode), "--out", str(out), "--trace", "1" if trace else "0",
        ]
        _, rss, code = run_child(cmd, stdout=sys.stderr)
        if code != 0 or not out.exists():
            self.tally.add(False, f"{mode}: harness exited {code}")
            return {"series": {}, "values": {}}, None, rss
        report = json.loads(out.read_text())
        benchlib.check_report(self.tally, report, mode)
        if mode == "fleet":
            # Each run_sharded call is an operation; the lane checks above
            # are what can fail it.
            self.tally.attempted += report["ops"]
        spans_path = Path(f"{out}.spans.jsonl")
        spans = benchlib.load_spans(spans_path) if spans_path.exists() else None
        for name, s in report["series"].items():
            self.samples[name] = (s["unit"], s["values"])
        return report, spans, rss


def series(report, name):
    return report["series"].get(name, {}).get("values", [])


def p50(values):
    return benchlib.nearest_rank(values, 50)


def paper_regen(ctx):
    """`experiments all` at the fixed horizon, as a reproducer runs it."""
    setups = []
    for k in range(SETUP_REPS):
        wall, _, code = run_child(
            ctx.experiments_cmd(["table1"], ctx.work / "setup", ctx.threads),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        ctx.tally.add(code == 0, f"setup {k}: experiments table1 exited {code}")
        setups.append(wall)
    walls, rsss = [], []
    started = time.perf_counter()
    # Start another regeneration while it would end at most half a run
    # past the deadline, so the window is filled whatever a run costs.
    while len(walls) < REGEN_MIN_RUNS or (
        time.perf_counter() - started + sum(walls) / len(walls) / 2 < ctx.args.seconds
    ):
        wall, rss = ctx.regen(f"run{len(walls)}", len(walls))
        walls.append(wall)
        rsss.append(rss)
    ctx.samples["regen_s"] = ("s", walls)
    ctx.samples["setup_s"] = ("s", setups)
    return {
        "op_p50_ms": benchlib.nearest_rank(walls, 50) * 1e3,
        "op_p90_ms": benchlib.nearest_rank(walls, 90) * 1e3,
        "rate_per_s": len(walls) / sum(walls),
        "setup_s": p50(setups),
        "peak_rss_mb": max(rsss),
    }


def fleet_myopic(ctx):
    """op_p50_ms over every call; op_p90_ms and rate_per_s as medians over
    FLEET_WINDOW_S windows of the window's p90 and lane-slots per second."""
    report, _, rss = ctx.harness_run("fleet", ctx.args.seconds, False)
    op_ms, at = series(report, "op_ms"), series(report, "op_ms.at_s")
    lanes = report["values"]["lanes"]["value"]
    return {
        "op_p50_ms": p50(op_ms),
        "op_p90_ms": benchlib.window_median(
            at, FLEET_WINDOW_S, lambda w: benchlib.nearest_rank([op_ms[i] for i in w], 90)),
        "rate_per_s": benchlib.window_median(
            at, FLEET_WINDOW_S, lambda w: lanes * 1e3 * len(w) / sum(op_ms[i] for i in w)),
        "setup_s": p50(series(report, "setup_s")),
        "peak_rss_mb": rss,
    }


def requests_per_s(report):
    """Median over one-second windows of requests completed, all kinds."""
    starts = [t for name, s in report["series"].items()
              if name.startswith("rt.") and name.endswith("_at_s") for t in s["values"]]
    return benchlib.window_median(starts, SERVE_WINDOW_S, lambda w: len(w) / SERVE_WINDOW_S)


# ------------------------------------------------------------ traced run


def overhead(ctx):
    """The workload measured without and with spans, same loop: the
    traced median op over the untraced one, minus 1. paper_regen times
    `experiments all` from outside the process, where nothing records
    spans, so its overhead is 0 by construction."""
    if ctx.args.workload == "paper_regen":
        return 0.0, []
    report, spans, _ = ctx.harness_run("fleet", ctx.args.seconds, True)
    off, on = series(report, "op_ms"), series(report, "op_ms_traced")
    return p50(on) / p50(off) - 1, spans or []


def per_id(ctx):
    """Every experiment id as its own serial process, plus one parallel
    `experiments all`: their ratio is the job scheduler's speedup."""
    metrics = {}
    total = 0.0
    for i in EXPERIMENT_IDS:
        out = ctx.work / f"id-{i}"
        wall, _, code = run_child(
            ctx.experiments_cmd([i], out, 1), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        ctx.tally.add(code == 0, f"experiments {i} exited {code}")
        shutil.rmtree(out, ignore_errors=True)
        metrics[f"experiments.{i}_s"] = wall
        total += wall
    regen, _ = ctx.regen("speedup")
    metrics["par.regen_speedup"] = total / regen
    return metrics


def layer_metrics(report):
    """Per-layer metrics from the layer profile's report: the p50 of each
    layer's series, plus the derived coverage and client figures."""
    m = {}
    for name, _ in PER_LAYER:
        if report["series"].get(name):
            m[name] = p50(series(report, name))
    m["core.sim.layer_coverage"], m["core.sim.unattributed_ns"] = benchlib.coverage(
        [m[n] for n in ("sidechannel.estimate_ns", "rl.decide_ns", "rl.learn_ns",
                        "battery.step_ns", "thermal.zone_step_ns", "power.protocol_step_ns")],
        m["core.sim.slot_ns.foresighted"],
    )
    m["core.batch.layer_coverage"], m["core.batch.unattributed_us"] = benchlib.coverage(
        [m[n] for n in ("sidechannel.lanes.draw_all_us", "sidechannel.math.box_muller_us",
                        "sidechannel.lanes.estimate_all_us", "thermal.zone_lanes.step_all_us")],
        m["core.batch.step_all_us"],
    )
    step = series(report, "rt.step_us")
    reads = series(report, "rt.state_us") + series(report, "rt.metrics_us")
    m["serve.client.step_p50_us"] = p50(step)
    m["serve.client.step_p90_us"] = benchlib.nearest_rank(step, 90)
    m["serve.client.read_p50_us"] = p50(reads)
    m["serve.client.read_p90_us"] = benchlib.nearest_rank(reads, 90)
    m["serve.client.fork_p50_us"] = p50(series(report, "rt.fork_us"))
    m["serve.client.ops_per_s"] = requests_per_s(report)
    m["serve.layer_coverage"], m["serve.unattributed_us"] = benchlib.coverage(
        [m["serve.http.parse_us.step"], m["serve.routes.route_ns"] / 1e3,
         m["serve.supervisor.step_us"], m["serve.http.write_us"]],
        m["serve.client.step_p50_us"],
    )
    values = report["values"]
    m["serve.accounted_ratio"] = (
        values["serve.requests_total"]["value"] / values["serve.requests_sent"]["value"]
    )
    return m


def traced(ctx):
    frac, workload_spans = overhead(ctx)
    report, layer_spans, _ = ctx.harness_run("layers", LAYER_SECONDS, True)
    metrics = layer_metrics(report)
    metrics.update(per_id(ctx))
    metrics["trace.overhead_frac"] = frac
    log("span self times (p50 per call, ns):")
    for name, row in benchlib.span_table((layer_spans or []) + workload_spans).items():
        log(f"  {name:40s} n={row['n']:<7d} p50={row['p50_ns']:<12.1f} self={row['self_p50_ns']:.1f}")
    return metrics


# ------------------------------------------------------------------ main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        die("run from the repository root: no Cargo.toml and crates/ here to build the program from")
    threads = nproc()
    experiments, harness = build(root)
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Ctx(args, work, experiments, harness, threads)
    try:
        if args.trace:
            values, declared = traced(ctx), PER_LAYER
        else:
            values = {"paper_regen": paper_regen, "fleet_myopic": fleet_myopic}[args.workload](ctx)
            declared = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    log(f"samples ({args.workload}, seed {args.seed}):")
    for name, (unit, vals) in sorted(ctx.samples.items()):
        if vals and not name.endswith("_at_s"):
            s = benchlib.summarize(vals)
            tail = f"p{s['tail_p']:g}={s['tail']:.4g}" if s["tail_p"] is not None else "tail: <10 beyond p50"
            log(f"  {name:40s} n={s['n']:<7d} p50={s['p50']:<12.4g} {tail} {unit}")
    for reason in ctx.tally.failures[:20]:
        log(f"FAILED: {reason}")
    print(json.dumps({"host": fingerprint(root, threads), "workload": args.workload,
                      "seed": args.seed}))
    print(json.dumps({
        "correct": ctx.tally.failed == 0,
        "attempted": max(1, ctx.tally.attempted),
        "failed": ctx.tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared},
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
