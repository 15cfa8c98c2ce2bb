#!/usr/bin/env python3
"""End-to-end workload benchmark for lbmv: build, run, validate.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload protocol --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all        # every workload, one table
    python3 e2ebench/run.py --selftest            # the benchmark's own tests

The first call configures and builds the lbmv libraries and the driver
under .bench_build/e2ebench (Release); later calls rebuild only what
changed.  The driver's output is relayed to standard output; its last line
is one JSON object with the keys correct, attempted, failed and metrics,
whose metric names and units must match BENCHMARK.json.  The exit status is
0 only when the build succeeded and every output check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
DRIVER = BUILD_DIR / "lbmv_e2e"
SELFTEST = BUILD_DIR / "e2e_selftest"
WORKLOADS = ["protocol", "protocol_obs", "epochs", "epochs_nonlinear",
             "dynamics"]
RUN_TIMEOUT_S = 170  # the driver's own hard stop is well inside this
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    pass


def log(message):
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)


def build(targets):
    """Configure once, then build the given targets; output to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no lbmv sources under {ROOT}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def src_digest():
    """sha256 over the sources the driver is built from."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for base in (ROOT / "src", BENCH_DIR):
        files += [p for p in base.rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def declared_metrics(trace):
    """{name: unit} the result must carry, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    if set(result) != RESULT_KEYS:
        raise BenchError(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        raise BenchError(f"metrics {got} do not match BENCHMARK.json {want}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise BenchError("attempted must be a whole number >= 1")


def run_workload(workload, seed, seconds, trace, sha, digest):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--git-sha", sha, "--src-digest", digest]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} ran past {RUN_TIMEOUT_S} s") from exc
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError) as exc:
        raise BenchError(f"{workload}: driver printed no result "
                         f"(exit {done.returncode})") from exc
    validate(result, trace)
    return lines, result, done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")

    try:
        if args.selftest:
            build(["e2e_selftest"])
            return subprocess.run([str(SELFTEST)]).returncode
        build(["lbmv_e2e"])
        sha, digest = git_sha(), src_digest()
        if args.workload != "all":
            lines, _, code = run_workload(args.workload, args.seed,
                                          args.seconds, args.trace, sha,
                                          digest)
            print("\n".join(lines), flush=True)
            return code
        table, worst = [], 0
        for workload in WORKLOADS:
            lines, result, code = run_workload(workload, args.seed,
                                               args.seconds, args.trace, sha,
                                               digest)
            print("\n".join(lines[:-1]), flush=True)
            table.append((workload, result))
            worst = worst or code
        for workload, result in table:
            cells = "  ".join(f"{name} {m['value']:.6g} {m['unit']}"
                              for name, m in result["metrics"].items())
            print(f"{workload:17} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}  {cells}")
        return worst
    except BenchError as exc:
        log(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
