#!/usr/bin/env python3
"""Build and run one workload of the wall-clock serving benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run builds the serving-path libraries and the benchmark from
source with CMake into .bench_build/ (or $CARGO_TARGET_DIR when set),
then runs the reference-forward test and the workload. The last line of
standard output is the JSON result; the build log and the test output
go to standard error. Any failure exits nonzero without a result line.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not d.is_absolute():
        d = ROOT / d
    return d / "perfbench"


def run_logged(cmd, what):
    """Runs a build step, sending its output to stderr; exits on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        sys.stderr.write(f"perfbench: {what} failed ({proc.returncode})\n")
        sys.exit(1)


def build():
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, "configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(out), "-j", jobs], "build")
    return out


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:12]


def run_child(cmd):
    """Runs @cmd to completion (killed after RUN_TIMEOUT_S); returns its
    exit code. Its stdout and stderr pass through."""
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write(f"perfbench: {cmd[0]} timed out\n")
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "serve" / "server.hpp").exists():
        sys.stderr.write(f"perfbench: no dlrmopt sources under {ROOT}/src\n")
        return 1
    out = build()
    sys.stdout.flush()
    # The reference forward's own test: a failing reference would make
    # every later prediction check meaningless.
    test = subprocess.run([str(out / "perfbench_test")], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    sys.stderr.write(test.stdout)
    if test.returncode != 0:
        sys.stderr.write("perfbench: reference test failed\n")
        return 1
    return run_child([str(out / "perfbench_run"),
                      "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", args.trace,
                      "--source-id", source_id()])


if __name__ == "__main__":
    sys.exit(main())
