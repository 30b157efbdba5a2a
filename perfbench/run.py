#!/usr/bin/env python3
"""Run one workload of the attribution benchmark.

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 12 --trace 0

Run it from the repository root.  It builds mcheck, mcheckd and the
runner (perfbench/src/pb.exe) with dune into $CARGO_TARGET_DIR (default
.bench_build), starts it in a scratch directory there, and passes
its output through: a report, then the JSON result as the last line.
Chrome traces of --trace 1 runs are kept in <build dir>/perfbench/traces.
Exits non-zero, without a result, when the tree cannot be built or the
run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("corpus-cold", "corpus-incremental", "edit-serve")
TARGETS = ["bin/mcheck.exe", "bin/mcheckd.exe", "perfbench/src/pb.exe"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def git_rev(root):
    # only a checkout's own .git: never look above the working tree
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        fail("no dune-project here: run from the repository root")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        built = subprocess.run(
            ["dune", "build", "--root", root, "--build-dir", build,
             "--display", "quiet"] + TARGETS,
            env=env, stdout=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if built.returncode != 0:
        fail("build failed")

    bindir = os.path.join(build, "default")
    work = os.path.join(build, "perfbench", "run-%d" % os.getpid())
    out = os.path.join(build, "perfbench", "traces")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(out, exist_ok=True)
    cmd = [os.path.join(bindir, "perfbench", "src", "pb.exe"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin", os.path.join(bindir, "bin"),
           "--expected", os.path.join(root, "perfbench", "expected.tsv"),
           "--out", out, "--rev", git_rev(root)]
    # its own process group, so everything it started can be stopped
    proc = subprocess.Popen(cmd, cwd=work, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = 124
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
