#!/usr/bin/env python3
"""Check a `lbmv_bench_perf` JSON document against the perf-smoke gates.

Usage: python3 tools/check_bench_gates.py bench_smoke.json

Every gate is one row of GATES: (section, field, comparison, threshold).
`field` is a dotted path inside the section; a path step may select a row
of a list by key (`series[n=256]`) or map over every row (`series[*]`).
Numeric comparisons over a mapped path must hold for every row.  The
checker evaluates every gate, prints one line per gate, and exits non-zero
naming each gate that failed.
"""

import json
import re
import sys

BACKENDS = ("avx2", "scalar-4lane")

GATES = [
    # strategy_throughput: incremental-vs-naive utilities cross-check.
    ("strategy_throughput", "cross_check_pass", "is", True),
    ("strategy_throughput", "best_response_round.speedup", ">", 1.0),
    # batch_round_throughput: batch kernels vs the seed round formulation.
    ("batch_round_throughput", "cross_check_pass", "is", True),
    ("batch_round_throughput", "series[*].serial_speedup_vs_seed", ">", 1.0),
    # single_round (vectorized engine).  Bitrot guard, not a perf gate: CI
    # machines vary too much to assert the AVX2 speedup ratio here
    # (BENCH_perf.json records it).
    ("batch_round_throughput", "single_round", "nonempty", None),
    ("batch_round_throughput", "vector_backend", "in", BACKENDS),
    ("batch_round_throughput", "simd_differential_max_rel_err", "<=", 1e-9),
    ("batch_round_throughput", "single_round[*].simd_serial_rounds_per_sec",
     ">", 0),
    ("batch_round_throughput", "single_round[*].simd_sharded_rounds_per_sec",
     ">", 0),
    # deviation_grid: 4-lane grid sweeps vs the scalar DeviationEvaluator.
    ("deviation_grid", "cross_check_pass", "is", True),
    ("deviation_grid", "differential_max_rel_err", "<=", 1e-9),
    ("deviation_grid", "vector_backend", "in", BACKENDS),
    ("deviation_grid", "series[n=256].grid_points", "==", 1000),
    ("deviation_grid", "series[n=256].serial_speedup_vs_scalar", ">=", 3.0),
    # obs_timeseries: invariant monitors on clean rounds, sampler cost.
    ("obs_timeseries", "cross_check_pass", "is", True),
    ("obs_timeseries", "monitor_checks", ">", 0),
    ("obs_timeseries", "monitor_violations", "==", 0),
    ("obs_timeseries", "disabled_rounds_per_sec", ">", 0),
    ("obs_timeseries", "sampler_seconds_per_sample", ">", 0),
    ("obs_timeseries", "threads_used", "present", None),
    ("obs_timeseries", "hardware_concurrency", "present", None),
    # obs_overhead: batched simulator telemetry (DESIGN.md §9).  A monitored
    # protocol round at the e2e protocol configuration must cost <= 1.25x
    # an unmonitored one (smoke measured 1.07-1.10x on a 4-core Xeon).  The
    # dispatch-ring and single-round ceilings keep ~1.4x margin over the
    # smoke numbers (ring 0.95-1.35x, was 2.7x with per-event atomics;
    # round 7.3-8.9x at n=64, was 17-21x).
    ("obs_overhead", "protocol_round.n", "==", 64),
    ("obs_overhead", "protocol_round.horizon", "==", 2000.0),
    ("obs_overhead", "protocol_round.enabled_over_disabled", "<=", 1.25),
    ("obs_overhead",
     "event_loop_dispatch[pending_events=64].disabled_over_enabled", "<=", 1.8),
    ("obs_timeseries", "enabled_over_disabled_cost", "<=", 13.0),
    # nonlinear_round: fused nonlinear-family rounds vs the generic arena
    # path, workload Newton vs a long-double bisection oracle.
    ("sections", "", "contains", "nonlinear_round"),
    ("nonlinear_round", "cross_check_pass", "is", True),
    ("nonlinear_round", "mm1_differential_max_rel_err", "<=", 1e-9),
    ("nonlinear_round", "workload_differential_max_rel_err", "<=", 1e-9),
    ("nonlinear_round", "newton_vs_bisection_max_rel_err", "<=", 1e-9),
    ("nonlinear_round", "vector_backend", "in", BACKENDS),
    ("nonlinear_round", "threads_used", "present", None),
    ("nonlinear_round", "hardware_concurrency", "present", None),
    ("nonlinear_round", "series[n=1024].mm1_fused_speedup", ">=", 3.0),
    ("nonlinear_round", "series[n=1024].workload_fused_speedup", ">", 0),
    # Workload leave-one-out: Taylor model vs the runner's exact per-agent
    # Newton baseline (same run).  Smoke measured ~285x at n=1024 on a
    # 4-core Xeon (AVX2); the floor keeps ~5x margin.
    ("nonlinear_round", "workload_loo_differential_max_rel_err", "<=", 1e-9),
    ("nonlinear_round", "workload_loo_series[*].n", "sorted==",
     [256, 1024, 10000]),
    ("nonlinear_round", "workload_loo_speedup", ">=", 50.0),
    # The `sections` manifest must list exactly the document's composite
    # top-level keys, so the documented shape cannot drift.
    ("sections", "", "manifest", None),
]

STEP = re.compile(r"^([A-Za-z0-9_]+)(?:\[(\*|[A-Za-z0-9_]+=[0-9.]+)\])?$")


class Missing(Exception):
    pass


def resolve(value, path):
    """Follow `path` from `value`; a `[*]` step yields a list of values."""
    if not path:
        return value
    head, _, rest = path.partition(".")
    m = STEP.match(head)
    if m is None:
        raise ValueError(f"bad path step {head!r}")
    key, selector = m.groups()
    if not isinstance(value, dict) or key not in value:
        raise Missing(key)
    value = value[key]
    if selector == "*":
        return [resolve(row, rest) for row in value]
    if selector is not None:
        field, want = selector.split("=")
        rows = [row for row in value if float(row[field]) == float(want)]
        if not rows:
            raise Missing(f"{key}[{selector}]")
        value = rows[0]
    return resolve(value, rest)


def composite_keys(doc):
    return sorted(k for k, v in doc.items()
                  if isinstance(v, (dict, list)) and k != "sections")


NUMERIC = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
}


def holds(op, value, threshold, doc):
    if op in NUMERIC:
        values = value if isinstance(value, list) else [value]
        return all(NUMERIC[op](float(v), threshold) for v in values)
    if op == "is":
        return value is threshold
    if op == "in":
        return value in threshold
    if op == "present":
        return True
    if op == "nonempty":
        return bool(value)
    if op == "sorted==":
        return sorted(int(v) for v in value) == threshold
    if op == "contains":
        return threshold in value
    if op == "manifest":
        return bool(value) and sorted(value) == composite_keys(doc)
    raise ValueError(f"unknown comparison {op!r}")


def main(argv):
    if len(argv) != 2:
        print("usage: check_bench_gates.py BENCH_JSON", file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        doc = json.load(f)
    failed = []
    for section, field, op, threshold in GATES:
        path = f"{section}.{field}" if field else section
        gate = f"{path} {op}" + ("" if threshold is None else f" {threshold}")
        try:
            value = resolve(doc, path)
            ok = holds(op, value, threshold, doc)
            shown = value if op != "manifest" else composite_keys(doc)
        except Missing as missing:
            ok, shown = False, f"missing {missing}"
        shown = repr(shown)
        if len(shown) > 60:
            shown = shown[:57] + "..."
        print(f"{'ok  ' if ok else 'FAIL'} {gate}  (actual: {shown})")
        if not ok:
            failed.append(gate)
    if failed:
        print(f"{len(failed)} perf-smoke gate(s) failed:", file=sys.stderr)
        for gate in failed:
            print(f"  {gate}", file=sys.stderr)
        return 1
    print(f"all {len(GATES)} perf-smoke gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
