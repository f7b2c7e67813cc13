"""Differential testing: seven independent execution engines must agree.

The library has seven ways to execute the same multi-tree Allreduce:

1. the functional executor (global buffers, level-order accumulation),
2. the collectives API (reduce-scatter + broadcast phases),
3. the packet-level simulator (payloads through router engines, with
   cycle-accurate arbitration),
4. the SPMD runtime (per-rank generator programs, blocking messages),
5. the vectorized fast cycle engine (timing-only, but cycle-exact vs the
   reference flit simulator),
6. the cycle-leaping engine (steady-state detection + O(events) jumps,
   still cycle-exact),
7. the batched tensor engine (B runs in one state tensor; here driven as
   a single-lane batch through the same ``CycleEngine`` protocol).

They share no execution code beyond the tree structures, so exact
agreement on random workloads is a strong whole-stack check: the packet
simulator ties the *payload* result to a cycle count, and the fast and
leap engines must reproduce that cycle count and flit movement exactly —
linking payload agreement and timing agreement through one workload.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InNetworkCollectives
from repro.runtime import tree_allreduce_spmd
from repro.simulator import (
    SimulationStalled,
    execute_plan,
    packet_allreduce,
    simulate_allreduce,
    trace_allreduce,
)

from tests.strategies import (
    CYCLE_ENGINES,
    PLANS,
    fault_specs,
    materialize_faults,
    message_sizes,
    plan_keys,
    reduce_ops,
    seeds,
)


@given(
    key=plan_keys(),
    m=message_sizes(max_value=48),
    seed=seeds(),
    op=reduce_ops(),
)
@settings(max_examples=25, deadline=None)
def test_six_engines_agree(key, m, seed, op):
    plan = PLANS[key]
    rng = np.random.default_rng(seed)
    x = rng.integers(-100, 100, size=(plan.num_nodes, m))
    npop = np.add if op == "sum" else np.maximum

    a = execute_plan(plan, x, op)
    b = InNetworkCollectives(plan).allreduce(x, op)
    c, pstats = packet_allreduce(
        plan.topology, plan.trees, x, partition=plan.partition(m), op=op
    )
    d = tree_allreduce_spmd(plan, x, op=npop)

    want = np.broadcast_to(
        x.sum(axis=0) if op == "sum" else x.max(axis=0), a.shape
    )
    assert np.array_equal(a, want)
    assert np.array_equal(b, want)
    assert np.array_equal(c, want)
    assert np.array_equal(d, want)

    # fifth through seventh executors: the fast, leap and batched cycle
    # engines must reproduce the timing of the run that produced the
    # (verified) payloads above — full CycleStats (per-tree finish cycles
    # included) must match the pure-Python reference engine bit for bit
    rstats = simulate_allreduce(
        plan.topology, plan.trees, plan.partition(m), engine="reference",
    )
    assert rstats.cycles == pstats.cycles
    assert rstats.flits_moved == pstats.flits_moved
    for engine in ("fast", "leap", "batched"):
        estats = simulate_allreduce(
            plan.topology, plan.trees, plan.partition(m), engine=engine,
        )
        assert estats == rstats, engine


@given(
    key=plan_keys(),
    m=message_sizes(max_value=60),
)
@settings(max_examples=12, deadline=None)
def test_packet_and_cycle_simulators_agree_on_timing(key, m):
    plan = PLANS[key]
    parts = plan.partition(m)
    x = np.ones((plan.num_nodes, m))
    _, pstats = packet_allreduce(plan.topology, plan.trees, x, partition=parts)
    for engine in CYCLE_ENGINES:
        cstats = simulate_allreduce(plan.topology, plan.trees, parts, engine=engine)
        assert pstats.cycles == cstats.cycles
        assert pstats.flits_moved == cstats.flits_moved


@given(
    key=plan_keys(),
    m=message_sizes(max_value=40),
    spec=fault_specs(max_events=2, transient_only=True),
)
@settings(max_examples=20, deadline=None)
def test_cycle_engines_agree_under_transient_faults(key, m, spec):
    # an identical FaultSchedule on every engine must yield bit-identical
    # stats AND per-cycle traces (the fault layer may not perturb
    # cycle-exactness)
    plan = PLANS[key]
    faults = materialize_faults(plan, spec)
    parts = plan.partition(m)
    ref = simulate_allreduce(
        plan.topology, plan.trees, parts, engine="reference", faults=faults,
    )
    t_ref = trace_allreduce(
        plan.topology, plan.trees, parts, engine="reference", faults=faults,
    )
    for engine in ("fast", "leap", "batched"):
        stats = simulate_allreduce(
            plan.topology, plan.trees, parts, engine=engine, faults=faults,
        )
        assert stats == ref, engine
        t = trace_allreduce(
            plan.topology, plan.trees, parts, engine=engine, faults=faults,
        )
        assert t.activity == t_ref.activity, engine


@given(
    key=plan_keys(),
    m=message_sizes(min_value=4, max_value=40),
    spec=fault_specs(max_events=1, max_down=30),
)
@settings(max_examples=20, deadline=None)
def test_cycle_engines_agree_on_stall_or_completion(key, m, spec):
    # permanent faults may sever the run: then every engine must raise
    # SimulationStalled at the same cycle with the same pending trees
    plan = PLANS[key]
    faults = materialize_faults(plan, spec)
    parts = plan.partition(m)
    outcomes = {}
    for engine in CYCLE_ENGINES:
        try:
            s = simulate_allreduce(
                plan.topology, plan.trees, parts, engine=engine, faults=faults,
            )
            outcomes[engine] = ("done", s.cycles, s.tree_completion)
        except SimulationStalled as st_exc:
            outcomes[engine] = ("stall", st_exc.cycle, st_exc.pending)
    assert len(set(outcomes.values())) == 1, outcomes


@given(seed=seeds(200))
@settings(max_examples=10, deadline=None)
def test_float_engine_agreement(seed):
    # the functional executor and the SPMD runtime combine children in the
    # same (sorted) order -> bitwise identical floats; the packet simulator
    # folds contributions in ARRIVAL order (arbitration-dependent), so it
    # agrees only up to floating-point association
    plan = PLANS[(5, "edge-disjoint")]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((plan.num_nodes, 12))
    a = execute_plan(plan, x)
    d = tree_allreduce_spmd(plan, x)
    c, _ = packet_allreduce(plan.topology, plan.trees, x,
                            partition=plan.partition(12))
    assert np.array_equal(a, d)
    np.testing.assert_allclose(c, a, rtol=1e-12, atol=1e-12)
