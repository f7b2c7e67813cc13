"""E-A17 — multi-tenant fabric throughput vs serialized solo runs.

Workload at q=7 (N=57 routers): K identical tenants sharing the fabric
under the fair-share policy, versus running the same K collectives one
after another on a dedicated fabric (K x the solo fast-engine run). The
shared fabric interleaves tenants onto idle channels, so its makespan
must beat the serial schedule. Pass criteria: the K=1 fabric run stays
bit-identical to the solo engine (isolation differential, re-asserted
here as the speedup precondition) and the K-tenant fabric completes in
less wall-cycles than K serialized solos.

A second case times the fabric itself on the shape of the end-to-end
benchmark's tenants requests (q=11 low-depth, K=2 tenants sharing every
tree, m=2000 each, buffer 2): wall per tenant-cycle of a whole
``simulate_tenants`` call, over the wall per cycle of one tenant's solo
fast-engine run (build included in both) in the same process. The
dimensionless ``tenant_cycle_overhead`` is gated at 3.0: the shared-channel
arbiter works on arrays, so a tenant's cycle inside a shared run costs
about two solo cycles, not ten.

Each case's numbers land in ``benchmark.extra_info`` *and* are persisted
to ``BENCH_tenancy.json`` at the repo root so the trajectory is tracked
across PRs.
"""

import json
import pickle
import time
from pathlib import Path

from conftest import record

from repro.core import build_plan
from repro.simulator import make_engine
from repro.tenancy import FabricSimulator, TenantJob, place_jobs, simulate_tenants

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_tenancy.json"
Q = 7
M = 64
TENANTS = 4
TREES_EACH = 1  # partitioned: distinct trees, overlapping links (cong. 2)
BUDGET_S = 30.0  # shared-CI generous; single-digit locally
OVERHEAD_Q = 11
OVERHEAD_M = 2000
OVERHEAD_GATE = 3.0  # fabric wall per tenant-cycle / solo wall per cycle


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


def test_k1_fabric_bit_identical_to_solo():
    """Precondition for any throughput claim: the fabric adds nothing to
    a lone tenant — pickle-equal CycleStats."""
    plan = build_plan(Q, "low-depth")
    job = TenantJob(tenant=0, arrival=0, m=M, tree_count=plan.num_trees)
    fplan = place_jobs(Q, [job])
    solo = make_engine(
        "fast", plan.topology, plan.trees, plan.partition(M), 1, 2
    ).run()
    stats = FabricSimulator(fplan, 1, 2).run()
    assert pickle.dumps(stats.outcomes[0].stats) == pickle.dumps(solo)


def test_k_tenant_throughput_vs_serial_solo(benchmark):
    """K concurrent tenants vs K serialized solos: the shared fabric's
    makespan (global cycles) must beat the serial schedule (each tenant
    run alone, one after another)."""
    jobs = [
        TenantJob(tenant=t, arrival=0, m=M, tree_count=TREES_EACH)
        for t in range(TENANTS)
    ]
    fplan = place_jobs(Q, jobs, mode="partitioned")

    def solo_engines():
        return [
            make_engine(
                "fast",
                fplan.topology,
                [fplan.trees[i] for i in p.tree_ids],
                list(p.flits),
                1,
                2,
            )
            for p in fplan.placements
        ]

    t0 = time.perf_counter()
    solos = [eng.run() for eng in solo_engines()]
    serial_s = time.perf_counter() - t0
    serial_cycles = sum(s.cycles for s in solos)

    def run():
        return FabricSimulator(fplan, 1, 2, policy="fair-share").run()

    stats = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    fabric_s = benchmark.stats.stats.min
    assert all(o.status == "completed" for o in stats.outcomes)
    cycle_speedup = serial_cycles / stats.cycles
    payload = {
        "q": Q,
        "scheme": "low-depth",
        "k": TENANTS,
        "m": M,
        "trees_each": TREES_EACH,
        "solo_cycles": [s.cycles for s in solos],
        "serial_cycles": serial_cycles,
        "fabric_cycles": stats.cycles,
        "cycle_speedup": round(cycle_speedup, 2),
        "p99_local_cycles": max(o.local_cycles for o in stats.outcomes),
        "serial_seconds": round(serial_s, 4),
        "fabric_seconds": round(fabric_s, 4),
        "budget_seconds": BUDGET_S,
    }
    record(benchmark, **payload)
    _persist("tenancy-throughput-q7-k4", payload)
    assert cycle_speedup > 1.0, (
        f"shared fabric makespan {stats.cycles} not better than "
        f"{serial_cycles} serialized cycles"
    )
    assert fabric_s < BUDGET_S, (
        f"fabric run took {fabric_s:.2f}s (budget {BUDGET_S}s)"
    )


def test_tenant_cycle_overhead_vs_solo():
    """Collective-shaped fabric: one tenant-cycle of a K=2 shared run must
    cost at most OVERHEAD_GATE solo cycles, timed in the same process."""
    plan = build_plan(OVERHEAD_Q, "low-depth")
    jobs = [
        TenantJob(tenant=t, arrival=0, m=OVERHEAD_M, tree_count=plan.num_trees)
        for t in range(2)
    ]
    fplan = place_jobs(OVERHEAD_Q, jobs, mode="shared")
    placement = fplan.placements[0]
    trees = [fplan.trees[i] for i in placement.tree_ids]

    def solo():
        return make_engine(
            "fast", fplan.topology, trees, list(placement.flits), 1, 2
        ).run()

    fabric_s, solo_s = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        stats = simulate_tenants(fplan, 1, 2)
        fabric_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        alone = solo()
        solo_s.append(time.perf_counter() - t0)
    assert all(o.status == "completed" for o in stats.outcomes)
    tenant_cycles = sum(o.local_cycles for o in stats.outcomes)
    fabric_us = min(fabric_s) / tenant_cycles * 1e6
    solo_us = min(solo_s) / alone.cycles * 1e6
    overhead = fabric_us / solo_us
    _persist(
        f"tenant-cycle-overhead-q{OVERHEAD_Q}-k2",
        {
            "q": OVERHEAD_Q,
            "scheme": "low-depth",
            "k": 2,
            "mode": "shared",
            "m": OVERHEAD_M,
            "buffer_size": 2,
            "tenant_cycles": tenant_cycles,
            "solo_cycles": alone.cycles,
            "fabric_us_per_tenant_cycle": round(fabric_us, 1),
            "solo_us_per_cycle": round(solo_us, 1),
            "tenant_cycle_overhead": round(overhead, 2),
            "tenant_cycle_overhead_gate": OVERHEAD_GATE,
        },
    )
    assert overhead <= OVERHEAD_GATE, (
        f"a fabric tenant-cycle costs {overhead:.2f} solo cycles "
        f"(gate {OVERHEAD_GATE})"
    )
