"""E-A7 — fast cycle engine: speedup over the reference simulator.

Workload: identical q=7 Allreduce simulations (the largest radix the
reference engine can sweep in reasonable time) on both cycle engines.
Pass criteria: the engines agree exactly on the resulting
:class:`CycleStats`, and the vectorized engine is >= 10x faster.

A q=13 row records the engine build against one step of the built engine
(``build_vs_step``, both timed in the same process): the flow tables are
built with array operations, so building costs a handful of steps, not
dozens.

Each case's reproduced numbers land in ``benchmark.extra_info`` (for the
pytest-benchmark JSON) *and* are persisted to ``BENCH_fastcycle.json`` at
the repo root so the perf trajectory is tracked across PRs.
"""

import json
import statistics
import time
from pathlib import Path

import pytest
from conftest import record

from repro.core import build_plan
from repro.simulator import make_engine, simulate_allreduce

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_fastcycle.json"
SPEEDUP_TARGET = 10.0
BUILD_VS_STEP_GATE = 20.0  # build wall <= this many step walls at q=13

CASES = [
    # scheme, q, m, buffer_size
    ("low-depth", 7, 2800, None),
    ("low-depth", 7, 2800, 2),
    ("edge-disjoint", 7, 6000, None),
]


def _persist(case_id, payload):
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except (ValueError, OSError):
            data = {}
        if not isinstance(data, dict):
            data = {}
    data[case_id] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize(
    "scheme,q,m,buf",
    CASES,
    ids=[f"{s}-q{q}-{'credit' if b else 'nocredit'}" for s, q, _, b in CASES],
)
def test_fastcycle_speedup(benchmark, scheme, q, m, buf):
    plan = build_plan(q, scheme)
    parts = plan.partition(m)

    def run_fast():
        return simulate_allreduce(
            plan.topology, plan.trees, parts, buffer_size=buf, engine="fast"
        )

    # warm NumPy dispatch paths, then time the benchmarked (fast) engine
    fast_stats = benchmark.pedantic(run_fast, rounds=3, iterations=1, warmup_rounds=1)
    fast_time = benchmark.stats.stats.min

    t0 = time.perf_counter()
    ref_stats = simulate_allreduce(
        plan.topology, plan.trees, parts, buffer_size=buf, engine="reference"
    )
    ref_time = time.perf_counter() - t0

    # cycle-exactness is the precondition for the speedup to mean anything
    assert fast_stats == ref_stats

    speedup = ref_time / fast_time
    payload = {
        "scheme": scheme,
        "q": q,
        "m": m,
        "buffer_size": buf,
        "cycles": ref_stats.cycles,
        "flits_moved": ref_stats.flits_moved,
        "reference_seconds": round(ref_time, 4),
        "fast_seconds": round(fast_time, 4),
        "speedup": round(speedup, 2),
        "target": SPEEDUP_TARGET,
    }
    record(benchmark, **payload)
    case_id = f"{scheme}-q{q}-m{m}-buf{buf}"
    _persist(case_id, payload)
    assert speedup >= SPEEDUP_TARGET, (
        f"fast engine only {speedup:.1f}x faster than reference "
        f"(target {SPEEDUP_TARGET}x) on {case_id}"
    )


def test_fastcycle_scaling_headroom(benchmark):
    """The point of the fast engine: workloads the reference cannot touch.

    q=7 low-depth with a 20x longer message than the validation runs —
    completes in well under a second on the fast engine.
    """
    plan = build_plan(7, "low-depth")
    m = 56000
    parts = plan.partition(m)

    def run():
        return simulate_allreduce(plan.topology, plan.trees, parts, engine="fast")

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    predicted = float(plan.aggregate_bandwidth)
    measured = stats.aggregate_bandwidth
    # steady state dominates at this length: measured ~ sum B_i
    assert measured >= 0.97 * predicted
    assert measured <= predicted * 1.02
    payload = {
        "scheme": "low-depth",
        "q": 7,
        "m": m,
        "cycles": stats.cycles,
        "seconds": round(benchmark.stats.stats.min, 4),
        "measured_bandwidth": round(measured, 4),
        "theoretical_bandwidth": predicted,
    }
    record(benchmark, **payload)
    _persist(f"scaling-headroom-q7-m{m}", payload)


def test_build_vs_step_q13():
    """Engine build at q=13 (N=183, 13 low-depth trees, buffer 2) over the
    median wall of one step of the built engine, measured back to back."""
    plan = build_plan(13, "low-depth")
    parts = plan.partition(2000 * plan.num_trees)

    def build():
        return make_engine("fast", plan.topology, plan.trees, parts, 1, 2)

    build()  # warm the plan's validation memo and the allocator
    builds, steps = [], []
    for _ in range(7):
        t0 = time.perf_counter()
        sim = build()
        builds.append(time.perf_counter() - t0)
    for _ in range(60):
        t0 = time.perf_counter()
        sim.step()
        steps.append(time.perf_counter() - t0)
    build_s = min(builds)
    step_s = statistics.median(steps[10:])
    ratio = build_s / step_s
    _persist(
        "build-vs-step-q13",
        {
            "q": 13,
            "scheme": "low-depth",
            "trees": plan.num_trees,
            "build_ms": round(build_s * 1e3, 3),
            "step_us": round(step_s * 1e6, 1),
            "build_vs_step": round(ratio, 2),
            "build_vs_step_gate": BUILD_VS_STEP_GATE,
        },
    )
    assert ratio <= BUILD_VS_STEP_GATE, (
        f"engine build costs {ratio:.1f} steps at q=13 "
        f"(gate {BUILD_VS_STEP_GATE})"
    )
