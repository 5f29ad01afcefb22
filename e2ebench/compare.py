#!/usr/bin/env python3
"""Compares two sets of e2ebench result records, metric by metric.

    python3 e2ebench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON records that `e2ebench/run.py ... --out FILE`
wrote (any number of seeds and workloads). For every workload and every
end-to-end metric in BENCHMARK.json it prints both sides' median and
quartiles and a verdict:

  worse       the new median is worse than the base median by more than
              the metric's bound;
  unresolved  either side's own quartile spread is wider than the bound,
              so the runs cannot tell a change from noise, unless every
              new run is better than every base run;
  ok          otherwise.

The report-only figures (wall-clock run_s, latencies, ...) follow with
both sides' medians and quartiles and no verdict.

Like `bench/run_benchmarks.sh --check`, it refuses to compare records from
a different CPU model or SIMD backend (exit 2, INCOMPARABLE): those are a
new baseline, not a regression. It also refuses (exit 2, INCORRECT) any
record whose output checks failed: its numbers prove nothing. Exit 3 when
any metric is worse.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CONTEXT_KEYS = ("cpu_model", "simd_backend")


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            records.append(json.load(f))
    if not records:
        sys.exit(f"compare.py: no result records in {directory}")
    for r in records:
        if not r["correct"]:
            c = r["context"]
            print(f"INCORRECT: {directory}: {c['workload']} seed {c['seed']} "
                  "failed its output checks")
            sys.exit(2)
    return records


def context_of(records, side):
    seen = {tuple(r["context"][k] for k in CONTEXT_KEYS) for r in records}
    if len(seen) != 1:
        print(f"INCOMPARABLE: {side} mixes contexts {sorted(seen)}")
        sys.exit(2)
    return seen.pop()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    base_ctx, new_ctx = context_of(base, "base"), context_of(new, "new")
    if base_ctx != new_ctx:
        print(f"INCOMPARABLE: base {base_ctx} vs new {new_ctx}; "
              "measure the base again on this machine and build")
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)

    worse = 0
    for workload in sorted({r["context"]["workload"] for r in base}):
        b_runs = [r for r in base if r["context"]["workload"] == workload]
        n_runs = [r for r in new if r["context"]["workload"] == workload]
        if not n_runs:
            print(f"{workload}: no new runs")
            continue
        print(f"{workload}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            b_vals = [r["end_to_end"][name]["value"] for r in b_runs]
            n_vals = [r["end_to_end"][name]["value"] for r in n_runs]
            b, n = quartiles(b_vals), quartiles(n_vals)
            change = sign * (n[1] - b[1]) / b[1] if b[1] else 0.0
            spread = max((b[2] - b[0]) / b[1] if b[1] else 0.0,
                         (n[2] - n[0]) / n[1] if n[1] else 0.0)
            all_better = (max(sign * v for v in n_vals) <
                          min(sign * v for v in b_vals))
            verdict = "ok"
            if change > bound:
                verdict = "worse"
                worse += 1
            elif spread > bound and not all_better:
                verdict = "unresolved"
            print(f"  {name:16s} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]"
                  f"  new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}]"
                  f"  worse by {100 * change:+.1f}% (bound {100 * bound:.0f}%)"
                  f"  {verdict}")
        # Wall-clock and other report-only figures: medians, no verdict.
        for name in b_runs[0]["extra"]:
            if all(name in r["extra"] for r in b_runs + n_runs):
                b = quartiles([r["extra"][name]["value"] for r in b_runs])
                n = quartiles([r["extra"][name]["value"] for r in n_runs])
                print(f"  {name:16s} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]"
                      f"  new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}]"
                      "  (not bounded)")
    return 3 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
