#!/usr/bin/env python3
"""Build fencelab's benchmark and run one workload.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Builds benchmark/fencebench.exe with dune from the checkout this file
sits in (a no-op once built; dune's shared cache is disabled so the
build stays inside the checkout), then runs it with the same
arguments. The last line of stdout is the benchmark's JSON result.
The runtime_events ring and the traced pass's span dump go to
benchmark/_out, which git ignores.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "benchmark", "_out")
EXE = os.path.join(ROOT, "_build", "default", "benchmark", "fencebench.exe")
# A run ends well inside this; anything longer is a hang.
RUN_TIMEOUT_S = 175


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: dune not found on PATH")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune() + ["build", "--root", ROOT, "./benchmark/fencebench.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    os.makedirs(OUT, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = OUT
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
