#!/usr/bin/env python3
"""Compare two sets of perfbench results against BENCHMARK.json's bounds.

    python3 tools/perfcompare.py BASE HEAD [--benchmark BENCHMARK.json]

BASE and HEAD are directories of untraced results, one file per run,
named <workload>.<run>.json. A file holds the output of
`python3 perfbench/run.py ... --trace 0`; only its last line, the JSON
result, is read. Both sides should come from the same runner, with runs
alternated between the sides, so that host speed cancels out.

For every workload and every end-to-end metric of BENCHMARK.json, the
HEAD median is compared with the BASE median. It is a regression when
it is worse by more than the metric's bound (a fraction of the BASE
median). It is also a regression when HEAD's failed/attempted share,
summed over its runs, is higher than BASE's.

Exit 0 when nothing regressed, 1 on a regression, 2 on bad input.
"""

import argparse
import json
import os
import statistics
import sys


def fail(msg):
    print("perfcompare: " + msg, file=sys.stderr)
    sys.exit(2)


def load_side(path):
    """{workload: [result, ...]} from one side's directory."""
    if not os.path.isdir(path):
        fail("%s is not a directory" % path)
    runs = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        workload = name.split(".", 1)[0]
        with open(os.path.join(path, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines:
            fail("%s/%s is empty" % (path, name))
        try:
            result = json.loads(lines[-1])
        except ValueError:
            fail("%s/%s: last line is not a JSON result" % (path, name))
        runs.setdefault(workload, []).append(result)
    if not runs:
        fail("no <workload>.<run>.json results in %s" % path)
    return runs


def failed_frac(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / max(1, attempted)


def metric_median(results, name, side, workload):
    try:
        return statistics.median(r["metrics"][name]["value"] for r in results)
    except KeyError:
        fail("%s %s: a result lacks metric %s" % (side, workload, name))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    base, head = load_side(args.base), load_side(args.head)
    if sorted(base) != sorted(head):
        fail("workloads differ: base %s, head %s" % (sorted(base), sorted(head)))

    regressions = []
    print("%-20s %-14s %12s %12s %8s %6s" % (
        "workload", "metric", "base", "head", "change", "bound"))
    for workload in sorted(base):
        b_runs, h_runs = base[workload], head[workload]
        for m in metrics:
            b = metric_median(b_runs, m["name"], "base", workload)
            h = metric_median(h_runs, m["name"], "head", workload)
            change = (h - b) / b if b else 0.0
            worse = change if m["better"] == "lower" else -change
            bad = worse > m["bound"]
            print("%-20s %-14s %12.3f %12.3f %+7.1f%% %5.0f%%%s" % (
                workload, m["name"], b, h, 100 * change, 100 * m["bound"],
                "  REGRESSION" if bad else ""))
            if bad:
                regressions.append("%s %s" % (workload, m["name"]))
        bf, hf = failed_frac(b_runs), failed_frac(h_runs)
        bad = hf > bf
        print("%-20s %-14s %12.4f %12.4f %8s %6s%s" % (
            workload, "failed_frac", bf, hf, "", "",
            "  REGRESSION" if bad else ""))
        if bad:
            regressions.append("%s failed_frac" % workload)
        print("%-20s runs: base %d, head %d" % ("", len(b_runs), len(h_runs)))

    if regressions:
        print("perfcompare: regression in " + ", ".join(regressions))
        sys.exit(1)
    print("perfcompare: no regression beyond the bounds")


if __name__ == "__main__":
    main()
