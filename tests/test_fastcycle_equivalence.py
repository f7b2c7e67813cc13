"""Differential harness: the optimized engines must be *cycle-exact*.

``FastCycleSimulator`` replaces the reference simulator's per-flit Python
round robin with closed-form vectorized arbitration, and
``LeapCycleSimulator`` layers steady-state detection on top so it can jump
thousands of cycles in one update. None of the three engines share
stepping code, so agreement on every observable is the correctness
argument for the optimized pair:

- per-channel **per-cycle** flit counts (the full ``ChannelTrace``), which
  pins the round-robin pointer trajectory, the credit loop and the
  one-cycle hop latency — not just aggregate totals;
- per-tree completion cycles and the entire :class:`CycleStats` (flit
  conservation, utilization statistics, ...);

across the (q, scheme, flow-control, message-size) matrix of the paper's
embeddings plus hypothesis-randomized workloads on random embeddings.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_plan
from repro.simulator import (
    ENGINES,
    BatchedCycleSimulator,
    CycleSimulator,
    FastCycleSimulator,
    FaultSchedule,
    LaneSpec,
    LeapCycleSimulator,
    SimulationStalled,
    make_engine,
    simulate_allreduce,
    trace_allreduce,
)
from repro.topology import Graph
from repro.trees import SpanningTree, random_spanning_trees

from tests.strategies import (
    buffer_sizes,
    get_plan,
    link_capacities,
    message_sizes,
    plan_keys,
    plan_used_links,
    random_embedding,
    seeds,
    topology_names,
)

# the full equivalence matrix of the acceptance criteria: every scheme at
# every radix the constructions support, with and without credit flow
# control
MATRIX_KEYS = sorted(
    (q, scheme)
    for q in (3, 4, 5, 7)
    for scheme in ("low-depth", "low-depth-even", "edge-disjoint", "single")
    if not (scheme == "low-depth" and q % 2 == 0)
    and not (scheme == "low-depth-even" and q % 2 == 1)
)


def assert_cycle_exact(g, trees, flits, link_capacity=1, buffer_size=None):
    """All three engines must produce identical traces and identical stats."""
    ref = trace_allreduce(
        g, trees, flits, link_capacity, buffer_size, engine="reference"
    )
    for engine in ("fast", "leap"):
        got = trace_allreduce(g, trees, flits, link_capacity, buffer_size, engine=engine)
        assert ref.cycles == got.cycles, engine
        assert ref.activity.keys() == got.activity.keys(), engine
        for ch in ref.activity:
            assert ref.activity[ch] == got.activity[ch], f"{engine}: channel {ch} diverged"
    sref = simulate_allreduce(
        g, trees, flits, link_capacity, buffer_size=buffer_size, engine="reference"
    )
    for engine in ("fast", "leap"):
        got = simulate_allreduce(
            g, trees, flits, link_capacity, buffer_size=buffer_size, engine=engine
        )
        assert sref == got, engine  # completion, per-tree cycles, flits, utilization


@pytest.mark.parametrize("flow_control", [None, 2], ids=["credit-off", "credit-on"])
@pytest.mark.parametrize(
    "q,scheme", MATRIX_KEYS, ids=[f"{s}-q{q}" for q, s in MATRIX_KEYS]
)
def test_equivalence_matrix(q, scheme, flow_control):
    """Cycle-exact on every (q, scheme, flow-control) acceptance cell."""
    plan = get_plan(q, scheme)
    m = 8 * plan.num_trees + 3
    assert_cycle_exact(
        plan.topology, plan.trees, plan.partition(m), buffer_size=flow_control
    )


@given(
    key=plan_keys(),
    m=message_sizes(max_value=60),
    buf=buffer_sizes(),
    cap=link_capacities(max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_equivalence_randomized_workloads(key, m, buf, cap):
    """Hypothesis sweep over message sizes, buffer sizes and capacities."""
    plan = get_plan(*key)
    assert_cycle_exact(
        plan.topology, plan.trees, plan.partition(m), link_capacity=cap, buffer_size=buf
    )


@given(
    name=topology_names(["pf3", "hc4", "torus33", "rr"]),
    k=st.integers(min_value=1, max_value=5),
    seed=seeds(50),
    m=message_sizes(max_value=30),
    buf=buffer_sizes(max_value=4),
    cap=link_capacities(max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_equivalence_random_embeddings(name, k, seed, m, buf, cap):
    """Random overlapping embeddings exercise contended round robin far
    harder than the paper's low-congestion constructions."""
    g, trees = random_embedding(name, k, seed)
    flits = [m + i for i in range(k)]  # unequal per-tree loads
    assert_cycle_exact(g, trees, flits, link_capacity=cap, buffer_size=buf)


class TestEngineParity:
    """Beyond traces: the engines' public surfaces must agree."""

    def test_zero_flit_trees(self):
        g = Graph.from_edges(2, [(0, 1)])
        t = SpanningTree(0, {1: 0})
        for engine in ("reference", "fast", "leap"):
            stats = simulate_allreduce(g, [t], [0], engine=engine)
            assert stats.cycles == 0
            assert stats.flits_moved == 0

    def test_mixed_zero_and_nonzero_trees(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        t1 = SpanningTree(0, {1: 0, 2: 1})
        t2 = SpanningTree(0, {1: 0, 2: 0})
        assert_cycle_exact(g, [t1, t2], [0, 9])

    def test_channels_enumerate_identically(self):
        plan = get_plan(5, "low-depth")
        parts = plan.partition(10)
        ref = CycleSimulator(plan.topology, plan.trees, parts)
        fast = FastCycleSimulator(plan.topology, plan.trees, parts)
        leap = LeapCycleSimulator(plan.topology, plan.trees, parts)
        assert ref.channels() == fast.channels() == leap.channels()
        assert (
            ref.channel_flit_counts()
            == fast.channel_flit_counts()
            == leap.channel_flit_counts()
        )

    def test_input_validation_parity(self):
        g = Graph.from_edges(2, [(0, 1)])
        t = SpanningTree(0, {1: 0})
        for cls in (CycleSimulator, FastCycleSimulator, LeapCycleSimulator):
            with pytest.raises(ValueError):
                cls(g, [t], [1, 2])
            with pytest.raises(ValueError):
                cls(g, [t], [-1])
            with pytest.raises(ValueError):
                cls(g, [t], [1], link_capacity=0)
            with pytest.raises(ValueError):
                cls(g, [t], [1], buffer_size=0)

    def test_max_cycles_guard(self):
        g = Graph.from_edges(2, [(0, 1)])
        t = SpanningTree(0, {1: 0})
        for engine in ("reference", "fast", "leap"):
            with pytest.raises(RuntimeError):
                simulate_allreduce(g, [t], [100], max_cycles=3, engine=engine)

    @pytest.mark.parametrize("max_cycles", [1, 3, 7, 20, 50])
    def test_max_cycles_semantics_identical(self, max_cycles):
        """run(max_cycles=...) must stop at the same cycle with the same
        partial state in all three engines — the guard either raises in
        every engine or in none, and the observable state after the raise
        (flits moved, per-channel totals) matches exactly."""
        plan = get_plan(5, "low-depth")
        parts = plan.partition(40)
        outcomes = {}
        for engine in ("reference", "fast", "leap"):
            sim = make_engine(engine, plan.topology, plan.trees, parts)
            try:
                stats = sim.run(max_cycles=max_cycles)
                outcomes[engine] = ("done", stats.cycles)
            except RuntimeError as exc:
                outcomes[engine] = ("raise", str(exc))
            outcomes[engine] += (sim.flits_moved, sim.channel_flit_counts())
        assert outcomes["fast"] == outcomes["reference"]
        assert outcomes["leap"] == outcomes["reference"]

    def test_unknown_engine_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        t = SpanningTree(0, {1: 0})
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_allreduce(g, [t], [1], engine="warp")
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine("warp", g, [t], [1])

    def test_stepwise_tree_done_trajectory(self):
        """tree_done must flip at the same cycle in every engine."""
        plan = get_plan(3, "edge-disjoint")
        parts = plan.partition(11)
        sims = [
            make_engine(e, plan.topology, plan.trees, parts)
            for e in ("reference", "fast", "leap")
        ]
        ref = sims[0]
        for cycle in range(200):
            for i in range(len(plan.trees)):
                done = ref.tree_done(i)
                assert all(s.tree_done(i) == done for s in sims[1:]), (cycle, i)
            if ref.done():
                assert all(s.done() for s in sims[1:])
                break
            for s in sims:
                s.step()
        else:
            pytest.fail("simulation did not complete")


def _observables(sim):
    return (
        sim.cycle,
        sim.flits_moved,
        tuple(sim.channel_flit_counts()),
        tuple(sim.delivered_floor()),
        tuple(sim.reduced_at_root()),
        tuple(sim.queue_occupancy()),
        tuple(map(tuple, sim.phase_flit_totals())),
        sim.done(),
        sim.has_in_flight(),
    )


class TestStepwiseObservables:
    """Every protocol observable, not just traces and stats, must agree
    between the pure-Python reference and the vectorized engines after
    every single step."""

    CASES = [
        # (q, scheme, m, capacity, buffer, faulted)
        (3, "low-depth", 25, 1, None, False),
        (5, "edge-disjoint", 18, 1, 2, False),
        (5, "low-depth", 16, 3, None, False),
        (5, "low-depth", 21, 2, 2, True),
    ]

    @pytest.mark.parametrize("q,scheme,m,cap,buf,faulted", CASES)
    def test_stepwise_bit_identity(self, q, scheme, m, cap, buf, faulted):
        plan = get_plan(q, scheme)
        parts = plan.partition(m)

        def build(engine):
            faults = (
                FaultSchedule([(plan_used_links(plan)[0], 6, 20)])
                if faulted else None
            )
            return make_engine(engine, plan.topology, plan.trees, parts, cap,
                               buf, faults=faults)

        ref, fast, leap = build("reference"), build("fast"), build("leap")
        assert ref.channels() == fast.channels() == leap.channels()
        while not ref.done():
            moved = ref.step()
            assert fast.step() == moved and leap.step() == moved
            assert _observables(fast) == _observables(ref)
            assert _observables(leap) == _observables(ref)
        assert fast.done() and leap.done()

    def test_run_leaves_identical_counters(self):
        plan = get_plan(5, "low-depth")
        parts = plan.partition(30)
        ref = CycleSimulator(plan.topology, plan.trees, parts)
        fast = FastCycleSimulator(plan.topology, plan.trees, parts)
        assert fast.run() == ref.run()
        assert (fast.cycle, fast.flits_moved) == (ref.cycle, ref.flits_moved)


class TestDoneCounts:
    """The fast engine's done check reads per-tree landed-flit totals
    instead of the frontiers; it must flip exactly when the reference's
    frontier check does."""

    def test_done_counts_track_reference_done(self):
        plan = get_plan(5, "low-depth")
        parts = plan.partition(14)
        sim = FastCycleSimulator(plan.topology, plan.trees, parts)
        ref = CycleSimulator(plan.topology, plan.trees, parts)
        while not ref.done():
            sim.step(), ref.step()
            for i in range(len(plan.trees)):
                assert sim.tree_done(i) == ref.tree_done(i)
        assert sim.done()

    def test_zero_flit_trees_complete_immediately(self):
        plan = get_plan(3, "low-depth")
        parts = [0] * plan.num_trees
        for engine in sorted(ENGINES):
            stats = simulate_allreduce(plan.topology, plan.trees, parts,
                                       engine=engine)
            assert stats.cycles == 0, engine
        lane = BatchedCycleSimulator(plan.topology, plan.trees,
                                     [LaneSpec(parts)]).run()
        assert lane.cycles == 0

    def test_heterogeneous_parts_exact(self):
        plan = get_plan(5, "edge-disjoint")
        rng = np.random.default_rng(3)
        parts = [int(x) for x in rng.integers(0, 9, plan.num_trees)]
        base = simulate_allreduce(plan.topology, plan.trees, parts,
                                  engine="reference")
        for engine in ("fast", "leap"):
            got = simulate_allreduce(plan.topology, plan.trees, parts,
                                     engine=engine)
            assert got == base, engine
        lanes = [LaneSpec(parts), LaneSpec(parts[::-1])]
        outs = BatchedCycleSimulator(plan.topology, plan.trees, lanes).run_batch()
        assert outs[0].stats == base


def _build(target, plan, parts, **knobs):
    """A cycle engine by name, a one-lane batched lane runner
    (``"batched"``) or a bare ``"LaneSpec"``, built with these knobs."""
    if target == "LaneSpec":
        return LaneSpec(tuple(parts), **knobs)
    if target == "batched":
        lane = LaneSpec(tuple(parts), **knobs)
        return BatchedCycleSimulator(plan.topology, plan.trees, [lane])
    return make_engine(target, plan.topology, plan.trees, parts, **knobs)


class TestFlitCountValidation:
    """Every engine (and the lane runner, ``"batched"``) rejects
    non-integral or negative flit counts instead of truncating them (one
    shared validator)."""

    @pytest.mark.parametrize("engine", sorted(ENGINES) + ["batched"])
    @pytest.mark.parametrize("bad", [2.5, 2.0, True, np.float64(3.0)])
    def test_non_integral_counts_raise_type_error(self, engine, bad):
        plan = get_plan(3, "low-depth")
        with pytest.raises(TypeError, match="integers"):
            _build(engine, plan, [bad] * plan.num_trees)

    @pytest.mark.parametrize("engine", sorted(ENGINES) + ["batched"])
    def test_negative_counts_raise_value_error(self, engine):
        plan = get_plan(3, "low-depth")
        parts = [3] * (plan.num_trees - 1) + [-1]
        with pytest.raises(ValueError, match="non-negative"):
            _build(engine, plan, parts)

    @pytest.mark.parametrize("engine", sorted(ENGINES) + ["batched"])
    def test_numpy_integers_accepted(self, engine):
        plan = get_plan(3, "low-depth")
        T = plan.num_trees
        knobs = dict(link_capacity=np.int64(2), buffer_size=np.int32(3))
        got = _build(engine, plan, np.full(T, 4, dtype=np.int64), **knobs).run()
        assert got == _build(engine, plan, [4] * T, link_capacity=2,
                             buffer_size=3).run()
        assert all(type(x) is int for x in got.flits_per_tree)
        assert type(got.link_capacity) is int
        assert type(got.buffer_size) is int

    def test_lane_spec_rejects_non_integral_counts(self):
        with pytest.raises(TypeError, match="integers"):
            LaneSpec((2.5, 1))
        with pytest.raises(ValueError, match="non-negative"):
            LaneSpec((1, -2))


class TestKnobValidation:
    """Link capacity and buffer size go through one validator on every
    engine and on LaneSpec: bool or non-integral values raise TypeError
    (never truncated, never stored), values below 1 raise ValueError."""

    TARGETS = sorted(ENGINES) + ["LaneSpec"]

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("knob", ["link_capacity", "buffer_size"])
    @pytest.mark.parametrize("bad", [1.5, 2.0, True, np.float64(2.0), "2"])
    def test_non_integral_knobs_raise_type_error(self, target, knob, bad):
        plan = get_plan(3, "low-depth")
        with pytest.raises(TypeError, match="must be an integer"):
            _build(target, plan, [1] * plan.num_trees, **{knob: bad})

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("knob", ["link_capacity", "buffer_size"])
    @pytest.mark.parametrize("bad", [0, -1, np.int64(0)])
    def test_knobs_below_one_raise_value_error(self, target, knob, bad):
        plan = get_plan(3, "low-depth")
        with pytest.raises(ValueError, match=">= 1"):
            _build(target, plan, [1] * plan.num_trees, **{knob: bad})

    @pytest.mark.parametrize("target", TARGETS)
    def test_numpy_knobs_stored_as_int(self, target):
        plan = get_plan(3, "low-depth")
        built = _build(target, plan, [1] * plan.num_trees,
                       link_capacity=np.int16(2), buffer_size=np.uint8(4))
        cap = built.link_capacity if target == "LaneSpec" else built.capacity
        assert (type(cap), cap) == (int, 2)
        assert (type(built.buffer_size), built.buffer_size) == (int, 4)


class TestOracleIndependence:
    """The reference engine shares no stepping code with the fast engine:
    it must still run when every fast stepping entry point is broken."""

    @pytest.fixture
    def broken_fast(self, monkeypatch):
        def boom(self, *args, **kwargs):
            raise AssertionError("fast stepping path entered")

        for name in ("begin_cycle", "finish_cycle", "step", "run"):
            monkeypatch.setattr(FastCycleSimulator, name, boom)
        return monkeypatch

    def test_reference_runs_without_fast_engine(self, broken_fast):
        plan = get_plan(5, "low-depth")
        parts = plan.partition(60)
        ref = simulate_allreduce(plan.topology, plan.trees, parts,
                                 engine="reference")
        broken_fast.undo()
        assert ref == simulate_allreduce(plan.topology, plan.trees, parts,
                                         engine="fast")

    def test_reference_runs_faulted_without_fast_engine(self, broken_fast):
        plan = get_plan(5, "low-depth")
        parts = plan.partition(60)
        faults = FaultSchedule([(plan_used_links(plan)[0], 6, 30)])

        def outcome(engine):
            try:
                return simulate_allreduce(plan.topology, plan.trees, parts,
                                          engine=engine, faults=faults)
            except SimulationStalled as exc:
                return ("stall", exc.cycle, exc.pending)

        ref = outcome("reference")
        broken_fast.undo()
        assert ref == outcome("fast")
