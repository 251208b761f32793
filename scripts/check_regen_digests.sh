#!/bin/sh
# Byte-identity gate, run by CI: regenerates every paper CSV at the
# benchmark's fixed horizon and seed,
#
#   experiments all --days 60 --warmup-days 30 --jobs 2 --seed 1
#
# and compares each CSV's SHA-256 with the entry `d60_w30` / `1` of
# perfbench/digests.json. The digests file is only read, never written.
# Fails on any differing, missing or unrecorded CSV. Performance work that
# claims "same bytes out" is held to it on every push.
#
# Usage: scripts/check_regen_digests.sh
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

cargo build --release -q -p hbm-experiments --bin experiments
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

target/release/experiments all --days 60 --warmup-days 30 --jobs 2 --seed 1 \
    --out "$out" >/dev/null

python3 - "$out" perfbench/digests.json <<'EOF'
import hashlib
import json
import sys
from pathlib import Path

out, digests = Path(sys.argv[1]), Path(sys.argv[2])
expected = json.loads(digests.read_text())["d60_w30"]["1"]
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
if bad:
    sys.exit(f"{bad} of {len(expected)} CSVs differ from {digests} d60_w30/1")
print(f"all {len(expected)} CSVs match {digests} d60_w30/1")
EOF
