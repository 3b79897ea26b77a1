#!/usr/bin/env python3
"""Build and run one benchmark run of the netobj runtime.

    python3 perfbench/run.py --workload {echo|workqueue|storm} \
        --seed N --seconds S --trace {0|1}

Run from the root of a source tree.  The script builds
perfbench/src/main.exe with dune (release profile, in _perfbench_build/,
with the shared dune cache off so nothing is written outside the tree),
then runs it.  The last line of standard output is the run's JSON
result; build output and the run's host block and per-segment lines go
to standard error.  A traced run also writes its last traced segment's
spans to _perfbench_build/spans-<workload>.tsv.

Exits non-zero without printing a result when the tree cannot be built
(for instance when the runtime's sources are missing), and non-zero
after printing a result with "correct": false when a correctness check
of the run failed.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = "_perfbench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "src", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_MARGIN_S = 60


def run_group(cmd, timeout, stdout):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it.  Returns the exit code, or None on timeout."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
        start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["echo", "workqueue", "storm"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at %s; run from the root of a "
              "netobj source tree" % ROOT, file=sys.stderr)
        return 1
    code, _ = run_group(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, "./perfbench/src/main.exe"],
        BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        cmd += ["--spans-out",
                os.path.join(ROOT, BUILD_DIR, "spans-%s.tsv" % a.workload)]
    code, out = run_group(cmd, a.seconds + RUN_MARGIN_S, subprocess.PIPE)
    if code is None:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
