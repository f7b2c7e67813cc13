"""Leap-engine specifics: the O(events) claims behind the cycle-exactness.

``tests/test_fastcycle_equivalence.py`` establishes that the leap engine
is cycle-exact against the reference on the full differential grid; this
module pins the properties unique to leaping that a merely-correct
single-stepper would also pass:

- the engine actually leaps — stepped cycles stay O(depth + #events)
  while simulated cycles grow linearly with the message size;
- leaped runs stay exact at message sizes the per-cycle engines cannot
  reach (verified against the affine cycle-count law the steady state
  implies);
- the ring detector (:class:`SteadyRings`) confirms steady states from
  recorded rows, stays exact under faults, buffers and capacity, and
  charges its rings against the detection memory budget;
- compressed traces (:class:`CompressedTrace`) expand to the reference
  dense trace and conserve flit totals;
- the satellite optimizations (vectorized transcript accounting, bounded
  topology memos with the sweep-engine clear hook, measured analysis
  rows) behave as documented.
"""

import numpy as np
import pytest

from repro.collectives import Transcript, transcript_link_loads
from repro.simulator import (
    CompressedTrace,
    FaultSchedule,
    LeapCycleSimulator,
    make_engine,
    simulate_allreduce,
    trace_allreduce,
)
from repro.simulator.engine import ENGINES
from repro.topology import clear_polarfly_cache, polarfly_graph
from repro.topology.routing import route_edges

from tests.strategies import CYCLE_ENGINES, get_plan, plan_used_links


def test_engine_registry_matches_strategies():
    """tests.strategies.CYCLE_ENGINES mirrors the real registry."""
    assert tuple(sorted(ENGINES)) == tuple(sorted(CYCLE_ENGINES))
    assert ENGINES["leap"] is LeapCycleSimulator


# --------------------------------------------------------------- leaping


class TestLeaping:
    def test_leap_engine_actually_leaps(self):
        """Stepped cycles must not scale with m once steady state locks."""
        plan = get_plan(7, "low-depth")
        stepped = {}
        for m in (2_000, 20_000):
            sim = make_engine("leap", plan.topology, plan.trees,
                              plan.partition(m))
            stats = sim.run()
            assert sim.leap_log, f"no leap at m={m}"
            leaped = sum(k * p for _, p, k in sim.leap_log)
            assert sim.stepped_cycles + leaped == stats.cycles
            stepped[m] = sim.stepped_cycles
        # O(depth + #events): growing m 10x must not grow stepped cycles
        assert stepped[20_000] <= stepped[2_000] + 8

    def test_leap_exact_at_moderate_m(self):
        """Cross-check against the O(cycles) fast engine where it is
        still affordable, including credit flow control and capacity."""
        plan = get_plan(7, "edge-disjoint")
        for cap, buf in ((1, None), (2, 3)):
            flits = plan.partition(1_500)
            fast = simulate_allreduce(
                plan.topology, plan.trees, flits, cap, buffer_size=buf,
                engine="fast",
            )
            leap = simulate_allreduce(
                plan.topology, plan.trees, flits, cap, buffer_size=buf,
                engine="leap",
            )
            assert leap == fast, (cap, buf)

    def test_leap_exact_at_paper_scale_m(self):
        """At m where per-cycle engines are infeasible, pin the affine
        law cycles(m) = a*m + b that a period-P steady state implies, by
        measuring the slope at tractable sizes and extrapolating."""
        plan = get_plan(7, "low-depth")

        def cycles(m):  # m flits on every tree -> exactly affine in m
            flits = [m] * plan.num_trees
            return simulate_allreduce(
                plan.topology, plan.trees, flits, engine="leap"
            ).cycles

        m1, m2, big = 100_000, 200_000, 1_000_000
        c1, c2, cbig = cycles(m1), cycles(m2), cycles(big)
        # equal slopes, cross-multiplied to stay in exact integers
        assert (c2 - c1) * (big - m1) == (cbig - c1) * (m2 - m1)

    def test_leap_respects_max_cycles_mid_leap(self):
        """A leap may never overshoot max_cycles: the guard fires at the
        identical cycle as the fast engine even when a leap was armed."""
        plan = get_plan(7, "low-depth")
        flits = plan.partition(5_000)
        with pytest.raises(RuntimeError, match="exceeded 1000 cycles"):
            simulate_allreduce(
                plan.topology, plan.trees, flits, max_cycles=1_000, engine="leap"
            )

    def test_terminal_outcome_parity_tight_credit(self):
        """Zero-progress periods are never leaped, so a run that stalls
        or completes under the tightest credit loop does so with the
        identical terminal outcome in every engine."""
        from repro.topology import Graph
        from repro.trees import SpanningTree

        g = Graph.from_edges(2, [(0, 1)])
        t = SpanningTree(0, {1: 0})
        outcomes = {}
        for engine in CYCLE_ENGINES:
            sim = make_engine(engine, g, [t], [4], buffer_size=1)
            try:
                stats = sim.run(max_cycles=100)
                outcomes[engine] = ("done", stats.cycles, sim.flits_moved)
            except RuntimeError as exc:
                outcomes[engine] = ("raise", str(exc), sim.flits_moved)
        assert len(set(outcomes.values())) == 1, outcomes


# -------------------------------------------------------- ring detector


class TestLeapRingDetector:
    def test_rings_account_for_every_cycle(self):
        # the rings confirm retrospectively: a confirmed candidate arms
        # the steady state on the spot, and stepped + leaped cycles must
        # add up to the run exactly
        plan = get_plan(7, "low-depth")
        parts = plan.partition(5_000)
        sim = make_engine("leap", plan.topology, plan.trees, parts)
        stats = sim.run()
        assert sim.leap_log
        leaped = sum(k * p for _, p, k in sim.leap_log)
        assert sim.stepped_cycles + leaped == stats.cycles
        assert stats == simulate_allreduce(plan.topology, plan.trees, parts)

    def test_rings_exact_under_faults(self):
        plan = get_plan(7, "low-depth")
        parts = plan.partition(800)
        faults = FaultSchedule([(plan_used_links(plan)[1], 10, 120)])
        base = simulate_allreduce(plan.topology, plan.trees, parts,
                                  engine="reference", faults=faults)
        got = simulate_allreduce(plan.topology, plan.trees, parts,
                                 engine="leap", faults=faults)
        assert got == base

    def test_rings_exact_with_buffers_and_capacity(self):
        plan = get_plan(5, "edge-disjoint")
        parts = plan.partition(700)
        base = simulate_allreduce(plan.topology, plan.trees, parts, 2,
                                  buffer_size=3, engine="reference")
        got = simulate_allreduce(plan.topology, plan.trees, parts, 2,
                                 buffer_size=3, engine="leap")
        assert got == base


class TestVerifyBudget:
    def test_ring_buffers_fit_the_budget(self):
        # the rings snapshot the full state tensor per slot; the derived
        # period cap must keep the preallocated rings inside the budget
        plan = get_plan(5, "low-depth")
        sim = LeapCycleSimulator(plan.topology, plan.trees, plan.partition(20))
        assert 1 <= sim._p_max <= LeapCycleSimulator.P_MAX
        slot = 2 * (sim._flat.size + 2 * sim._F + sim._C + 1)
        assert (
            sim._p_max == 1
            or sim._p_max * slot <= LeapCycleSimulator._VERIFY_BUDGET
        )
        assert sim._rings.flat.shape[0] == 2 * sim._p_max + 1

    def test_small_q_keeps_full_period_cap(self):
        # the budget only bites on large embeddings: small q keeps the
        # full P_MAX reach
        plan = get_plan(5, "low-depth")
        sim = LeapCycleSimulator(plan.topology, plan.trees, plan.partition(10))
        assert sim._p_max == LeapCycleSimulator.P_MAX

    def test_exact_at_p_max_boundary(self):
        # regression: a tiny budget clamps _p_max to 1; the engine must
        # degrade to fewer/shorter leaps, never to wrong answers or
        # over-allocation
        class TinyBudget(LeapCycleSimulator):
            _VERIFY_BUDGET = 1

        plan = get_plan(5, "low-depth")
        parts = plan.partition(900)
        tiny = TinyBudget(plan.topology, plan.trees, parts)
        assert tiny._p_max == 1
        stats = tiny.run()
        base = simulate_allreduce(plan.topology, plan.trees, parts,
                                  engine="fast")
        assert stats == base
        leaped = sum(k * p for _, p, k in tiny.leap_log)
        assert tiny.stepped_cycles + leaped == stats.cycles
        assert all(p == 1 for _, p, _k in tiny.leap_log)


# ------------------------------------------------------- compressed traces


class TestCompressedTrace:
    def test_expand_matches_reference_dense_trace(self):
        plan = get_plan(5, "low-depth")
        flits = plan.partition(600)
        dense = trace_allreduce(plan.topology, plan.trees, flits, engine="reference")
        comp = trace_allreduce(
            plan.topology, plan.trees, flits, engine="leap", compress=True
        )
        assert isinstance(comp, CompressedTrace)
        assert comp.cycles == dense.cycles
        expanded = comp.expand()
        assert expanded.activity == dense.activity
        # leaping must have actually compressed the run-length encoding
        assert any(repeat > 1 for repeat, _ in comp.blocks)

    def test_total_flits_conserved(self):
        plan = get_plan(5, "edge-disjoint")
        flits = plan.partition(900)
        comp = trace_allreduce(
            plan.topology, plan.trees, flits, engine="leap", compress=True
        )
        stats = simulate_allreduce(
            plan.topology, plan.trees, flits, engine="reference"
        )
        assert int(comp.total_flits().sum()) == stats.flits_moved

    def test_compress_flag_wraps_dense_engines(self):
        """Engines without native compression still honor compress=True
        by wrapping the dense columns in single-cycle runs."""
        plan = get_plan(3, "single")
        flits = plan.partition(40)
        comp = trace_allreduce(
            plan.topology, plan.trees, flits, engine="fast", compress=True
        )
        dense = trace_allreduce(plan.topology, plan.trees, flits, engine="fast")
        assert isinstance(comp, CompressedTrace)
        assert comp.expand().activity == dense.activity

    def test_utilization_matches_dense(self):
        plan = get_plan(5, "low-depth")
        flits = plan.partition(500)
        dense = trace_allreduce(plan.topology, plan.trees, flits, engine="reference")
        comp = trace_allreduce(
            plan.topology, plan.trees, flits, engine="leap", compress=True
        )
        for ch in dense.activity:
            assert comp.utilization(ch) == pytest.approx(dense.utilization(ch))


# ------------------------------------------------ satellite optimizations


def _link_loads_loop_reference(g, transcript):
    """The pre-vectorization accounting: nested Python loops."""
    out = []
    for rnd in transcript.rounds:
        load = {}
        for src, dst, nelem in rnd:
            for e in route_edges(g, src, dst):
                load[e] = load.get(e, 0) + nelem
        out.append(load)
    return out


class TestHostVectorization:
    def test_transcript_link_loads_matches_loop_reference(self):
        g = polarfly_graph(5).graph
        tr = Transcript("synthetic", g.n, 64)
        rng = np.random.default_rng(7)
        for _ in range(4):
            tr.begin_round()
            for _ in range(30):
                src, dst = rng.integers(0, g.n, size=2)
                if src != dst:
                    tr.send(int(src), int(dst), int(rng.integers(1, 9)))
        assert transcript_link_loads(g, tr) == _link_loads_loop_reference(g, tr)

    def test_empty_rounds_stay_empty(self):
        g = polarfly_graph(3).graph
        src, dst = sorted(g.edges)[0]
        tr = Transcript("synthetic", g.n, 8)
        tr.begin_round()
        tr.begin_round()
        tr.send(src, dst, 5)
        loads = transcript_link_loads(g, tr)
        assert loads[0] == {}
        assert loads[1] == {(src, dst): 5}


class TestTopologyCacheBounds:
    def test_polarfly_cache_is_bounded(self):
        info = polarfly_graph.cache_info()
        assert info.maxsize == 8

    def test_clear_hook(self):
        polarfly_graph(3)
        assert polarfly_graph.cache_info().currsize >= 1
        clear_polarfly_cache()
        assert polarfly_graph.cache_info().currsize == 0

    def test_sweep_runner_releases_caches(self):
        from repro.sweep import SweepRunner, cell

        clear_polarfly_cache()
        runner = SweepRunner(workers=0, cache=None)
        runner.run([cell("figure5_row", q=5)])
        assert polarfly_graph.cache_info().currsize == 0

        warm = SweepRunner(workers=0, cache=None, release_caches=False)
        warm.run([cell("figure5_row", q=5)])
        assert polarfly_graph.cache_info().currsize >= 1
        clear_polarfly_cache()


class TestMeasuredAnalysis:
    def test_measured_bandwidth_validates(self):
        from repro.analysis.measured import measured_aggregate_bandwidth

        with pytest.raises(ValueError):
            measured_aggregate_bandwidth(5, "low-depth", 0)

    def test_figure5_row_measured_columns(self):
        from repro.analysis.figure5 import figure5_row

        plain = figure5_row(5)
        assert plain.lowdepth_measured_bw is None
        assert plain.hamiltonian_measured_bw is None
        measured = figure5_row(5, measured_m=2_000)
        assert measured.lowdepth_measured_bw is not None
        # fill/drain amortization: measured can only approach the
        # closed-form steady-state bandwidth from below
        assert 0.0 < measured.lowdepth_measured_bw <= plain.lowdepth_norm_bw
        assert measured.hamiltonian_measured_bw is not None

    def test_plan_metrics_measured_key_is_optional(self):
        from repro.analysis.crossover import plan_metrics

        assert "measured_bandwidth" not in plan_metrics(5, "low-depth")
        met = plan_metrics(5, "low-depth", measured_m=1_000)
        assert met["measured_bandwidth"] > 0
