#!/usr/bin/env python3
"""Records the paper_regen output digests the benchmark checks against.

    python3 perfbench/record_digests.py

Run from the repository root on a commit whose CSVs are known good. For
every experiments seed the workload can use, it runs `experiments all` at
the benchmark's fixed horizon and writes the SHA-256 of every CSV to
perfbench/digests.json. CSVs are byte-identical at any --jobs, so one
recording serves every machine size.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import benchlib


def main():
    root = Path.cwd()
    experiments, _ = run.build(root)
    work = root / ".bench_work" / "record"
    key = f"d{run.REGEN_DAYS}_w{run.REGEN_WARMUP_DAYS}"
    recorded = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    recorded[key] = {}
    for seed in range(1, run.REGEN_SEEDS + 1):
        out = work / str(seed)
        cmd = [str(experiments), "all", "--days", str(run.REGEN_DAYS),
               "--warmup-days", str(run.REGEN_WARMUP_DAYS), "--seed", str(seed),
               "--jobs", str(run.nproc()), "--out", str(out)]
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
            sys.exit(f"experiments all failed for seed {seed}")
        recorded[key][str(seed)] = benchlib.csv_digests(out)
        run.log(f"seed {seed}: {len(recorded[key][str(seed)])} CSVs")
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
