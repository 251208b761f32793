#!/bin/sh
# Byte-identity gate, run by CI: regenerates every paper CSV at the
# benchmark's fixed horizon,
#
#   experiments all --days 60 --warmup-days 30 --jobs J --seed S
#
# for seed 1 at --jobs 1 and --jobs 2 and seed 5 at --jobs 2, and compares
# each CSV's SHA-256 with the entry `d60_w30` / `S` of perfbench/digests.json.
# The digests file is only read, never written. Fails on any differing,
# missing or unrecorded CSV. Performance work that claims "same bytes out"
# is held to it on every push; several seeds and job counts are checked
# because some fast paths (the zone integrator's fixed-point skip, the
# job scheduler) depend on the trajectory and on which jobs overlap.
#
# Usage: scripts/check_regen_digests.sh
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

cargo build --release -q -p hbm-experiments --bin experiments
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
for run in "1 1" "1 2" "5 2"; do
    set -- $run
    seed=$1
    jobs=$2
    dir="$out/seed$seed-jobs$jobs"
    target/release/experiments all --days 60 --warmup-days 30 --jobs "$jobs" \
        --seed "$seed" --out "$dir" >/dev/null

    python3 - "$dir" perfbench/digests.json "$seed" "$jobs" <<'EOF' || status=1
import hashlib
import json
import sys
from pathlib import Path

out, digests, seed, jobs = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3], sys.argv[4]
expected = json.loads(digests.read_text())["d60_w30"][seed]
actual = {
    p.name: hashlib.sha256(p.read_bytes()).hexdigest()
    for p in sorted(out.glob("*.csv"))
}
bad = 0
for name in sorted(expected.keys() | actual.keys()):
    want, got = expected.get(name), actual.get(name)
    if want != got:
        bad += 1
        print(f"{name}: expected {want or 'no such CSV'}, got {got or 'missing'}")
where = f"{digests} d60_w30/{seed} at --jobs {jobs}"
if bad:
    sys.exit(f"{bad} of {len(expected)} CSVs differ from {where}")
print(f"all {len(expected)} CSVs match {where}")
EOF
done
exit $status
