"""Pure helpers behind perfbench/run.py.

Quantiles, span analysis, output checks and failure accounting live here
so that they can be tested without building or running anything
(see perfbench/tests/test_benchlib.py).
"""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

# Percentiles a tail may be reported at, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def rank(p, n):
    """1-based nearest rank of percentile p among n samples, computed on
    the decimal value of p (99.9 % of 10000 is exactly rank 9990)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def nearest_rank(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def tail_percentile(n):
    """The highest percentile of LADDER that has at least ten samples
    beyond its rank among n samples, or None."""
    best = None
    for p in LADDER:
        if n - rank(p, n) >= 10:
            best = p
    return best


def summarize(values):
    """Sample count, p50, p90 and the reportable tail of a sample list."""
    tail = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": nearest_rank(values, 50),
        "p90": nearest_rank(values, 90),
        "tail_p": tail,
        "tail": nearest_rank(values, tail) if tail is not None else None,
    }


def windows(times, width):
    """Sample indices grouped into consecutive windows of `width` seconds by
    time stamp (seconds since the run opened); windows no sample fell in
    are left out. The last window is partial and dropped, unless it is the
    only one."""
    groups = {}
    for i, t in enumerate(times):
        groups.setdefault(int(t // width), []).append(i)
    if len(groups) > 1:
        del groups[max(groups)]
    return [groups[k] for k in sorted(groups)]


def window_median(times, width, stat):
    """Median over the run's windows of stat(indices of one window): a
    burst of host noise moves a few windows, not the median."""
    return nearest_rank([stat(w) for w in windows(times, width)], 50)


# ---------------------------------------------------------------- spans


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times(spans):
    """Self time per span id: its duration minus the part of its interval
    covered by its children (overlapping children are counted once)."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = 0
        cursor = start
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], cursor), min(c["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (end - start) - covered
    return out


def span_table(spans):
    """Per span name: count, p50 per-call duration and p50 self time, ns."""
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        units = max(1, s["units"])
        entry = by_name.setdefault(s["name"], ([], []))
        entry[0].append((s["end_ns"] - s["start_ns"]) / units)
        entry[1].append(selfs[s["id"]] / units)
    return {
        name: {
            "n": len(dur),
            "p50_ns": nearest_rank(dur, 50),
            "self_p50_ns": nearest_rank(own, 50),
        }
        for name, (dur, own) in sorted(by_name.items())
    }


def coverage(layer_p50s, whole_p50):
    """Share of a whole operation's median that its layers' medians add up
    to, and the remainder no layer accounts for."""
    total = sum(layer_p50s)
    return total / whole_p50, whole_p50 - total


# --------------------------------------------------------------- checks


class Tally:
    """Attempted and failed operations, with a reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(reason)


def csv_digests(directory):
    """SHA-256 of every CSV in directory, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).glob("*.csv"))
    }


def check_csvs(tally, actual, expected, label):
    """One operation per expected CSV: present with the recorded digest.
    A CSV nobody recorded is a failure too."""
    for name, digest in sorted(expected.items()):
        got = actual.get(name)
        tally.add(got == digest, f"{label}: {name} " + ("missing" if got is None else "digest differs"))
    for name in sorted(set(actual) - set(expected)):
        tally.add(False, f"{label}: unexpected {name}")


def check_report(tally, report, label):
    """Checks the harness report's raw observations: lanes must be
    bit-identical to the scalar re-run, every response 2xx, and every twin
    replay byte-equal to what the server answered."""
    for lane in report.get("lanes", []):
        tally.add(lane["batch"] == lane["scalar"], f"{label}: lane {lane['lane']} differs from scalar run")
    for status, n in report.get("statuses", {}).items():
        ok = 200 <= int(status) < 300
        for _ in range(n):
            tally.add(ok, f"{label}: HTTP {status}")
    for _ in range(report.get("transport_errors", 0)):
        tally.add(False, f"{label}: request got no response")
    for twin in report.get("twins", []):
        tally.add(twin["served"] == twin["twin"], f"{label}: twin metrics differ for {twin['experiment']}")
    return tally
