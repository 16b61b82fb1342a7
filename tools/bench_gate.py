#!/usr/bin/env python3
"""Ratio gates over micro_core's google-benchmark JSON output.

    ./build/bench/micro_core --benchmark_format=json \\
        --benchmark_out=micro_core.json
    python3 tools/bench_gate.py micro_core.json

Each gate compares two benchmarks from the same run, so it holds on any
host however fast: it checks how a cost scales, not what it is.  With
--benchmark_repetitions the per-repetition runs are reduced to their
median.  Exits 0 when every gate passes, 1 when one fails, 2 when the
input lacks a benchmark a gate needs.
"""

import json
import statistics
import sys

# (description, numerator, denominator, field, comparison, bound):
# the gate passes when  numerator.field / denominator.field  <op>  bound.
GATES = [
    # Forwarding must stay O(header): a 1400 B hop may not cost more
    # than a small multiple of a 64 B hop.  The frame checksum is the
    # only per-hop work that grows with the payload.
    ("forward hop: 1400 B cpu time <= 6 x 64 B",
     "BM_RoutedPacketForwardHop/1400", "BM_RoutedPacketForwardHop/64",
     "cpu_time", "<=", 6.0),
    # Cancel-and-rearm must stay O(1) amortised: tombstone compaction is
    # O(live), so throughput may not fall with the number of live timers.
    ("scheduler churn: 1024 live items/s >= 0.7 x 64 live",
     "BM_SchedulerChurn/1024", "BM_SchedulerChurn/64",
     "items_per_second", ">=", 0.7),
]


def load(path):
    """Map run name -> field -> median over that benchmark's iterations."""
    with open(path) as f:
        doc = json.load(f)
    runs = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue  # aggregates (mean/median/stddev) of repetitions
        runs.setdefault(b.get("run_name", b["name"]), []).append(b)
    return {
        name: {
            field: statistics.median(r[field] for r in rs)
            for field in ("cpu_time", "real_time", "items_per_second")
            if all(field in r for r in rs)
        }
        for name, rs in runs.items()
    }


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    runs = load(argv[1])
    failed = False
    for desc, num, den, field, op, bound in GATES:
        try:
            ratio = runs[num][field] / runs[den][field]
        except KeyError as missing:
            print("bench_gate: no %s in %s" % (missing, argv[1]),
                  file=sys.stderr)
            return 2
        ok = ratio <= bound if op == "<=" else ratio >= bound
        failed = failed or not ok
        print("%s  %s: ratio %.2f (bound %s %.2f)"
              % ("PASS" if ok else "FAIL", desc, ratio, op, bound))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
