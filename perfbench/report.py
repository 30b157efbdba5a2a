#!/usr/bin/env python3
"""Print the whole attribution report for one seed.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs every workload untraced and traced through perfbench/run.py and
prints each run's block — host (cores, OCaml, hostname), git rev, seed,
edit-serve rate, then every metric with unit, n, median and quartiles —
followed by the readings for ROADMAP's two open questions: Mcd's
two-domain scaling on corpus-cold, and the edit-serve latency split.
Run it from the repository root; it takes a few minutes.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ("corpus-cold", "corpus-incremental", "edit-serve")


def run(workload, seed, seconds, trace):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        sys.exit("perfbench: %s --trace %d failed" % (workload, trace))
    lines = r.stdout.rstrip("\n").split("\n")
    table = {}
    for line in lines[:-1]:
        f = line.split()
        if len(f) == 6 and f[0] != "metric":
            table[f[0]] = float(f[3])
    return lines[:-1], json.loads(lines[-1]), table


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args()
    tables = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            block, result, table = run(w, args.seed, args.seconds, trace)
            print("\n".join(block))
            print("correct=%s attempted=%d failed=%d\n" % (
                result["correct"], result["attempted"], result["failed"]))
            tables[(w, trace)] = table

    cold = tables[("corpus-cold", 1)]
    serve = dict(tables[("edit-serve", 0)], **tables[("edit-serve", 1)])
    print("open question: two-domain Mcd scaling on corpus-cold")
    print("  mcd.speedup %.2fx (wall at 1 domain / wall at 2), "
          "mcd.busy_frac %.2f (domain alive time / (domains x wall))"
          % (cold["mcd.speedup"], cold["mcd.busy_frac"]))
    print("open question: the edit-serve tail")
    print("  latency from due time: p50 %.1f ms, p95 %.1f ms"
          % (serve["check_ms"], serve["check_p95_ms"]))
    print("  loadgen wait p95 %.1f ms; means: wait %.1f + client gap %.1f + "
          "daemon request %.1f ms, of which dispatch %.1f ms = hop %.1f + "
          "in-process check %.1f"
          % (serve["loadgen.wait_ms_p95"], serve["loadgen.wait_ms_mean"],
             serve["serve.client_gap_ms"], serve["serve.request_ms_mean"],
             serve["supervise.dispatch_ms_mean"], serve["supervise.hop_ms"],
             serve["api.check_ms_mean"]))


if __name__ == "__main__":
    main()
