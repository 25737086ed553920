#!/usr/bin/env python3
"""Build the repository and run one workload of the EE flow benchmark.

    python3 eebench/run.py --workload table3 --seed 7 --seconds 25 --trace 0

Run from the root of a checkout.  The script builds the benchmark program
(eebench/eebench.exe) and the ee_synthd daemon with dune, runs the program
in its own process group, bound to one CPU, relays its output (the last
line of standard output is the JSON result) and exits with its status.
Any process left in the group afterwards is killed.  See eebench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["table3", "import_select", "fault_campaign", "serve_mixed"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
NEEDED = ["dune-project", "lib", "bin/ee_synthd.ml", "eebench/dune", "eebench/reference.json"]


def fail(message):
    print("eebench: " + message, file=sys.stderr)
    return 2


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = parser.parse_args()

    root = os.getcwd()
    missing = [p for p in NEEDED if not os.path.exists(os.path.join(root, p))]
    if missing:
        return fail("not a checkout of the repository (missing %s)" % ", ".join(missing))

    # Build inside the checkout only: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
             "./eebench/eebench.exe", "./bin/ee_synthd.exe"]
    try:
        done = subprocess.run(build, cwd=root, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        return fail("dune is not installed")
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace"))
        return fail("build failed")

    program = [os.path.join("_build", "default", "eebench", "eebench.exe"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", os.path.join("eebench", "reference.json"),
               "--daemon", os.path.join("_build", "default", "bin", "ee_synthd.exe")]
    # One CPU for the program and the daemon it starts: the probe that scales
    # every time runs where the timed work runs, and a reply wakes the
    # client without a cross-CPU wake-up.
    cpu = max(os.sched_getaffinity(0))

    def bind():
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass

    proc = subprocess.Popen(program, cwd=root, stdout=subprocess.PIPE, start_new_session=True,
                            preexec_fn=bind)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        return fail("workload %s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        kill_group(proc.pid)
    sys.stdout.write(out.decode(errors="replace"))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
