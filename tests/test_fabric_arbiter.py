"""Differential suite: the fabric's array arbiter vs a per-channel loop.

:class:`FabricSimulator` arbitrates all shared channels of a cycle at
once from a (tenant x shared channel) demand matrix. ``LoopFabric``
below keeps the plain-Python arbiter as an independent oracle: static
per-channel sharer lists, a dict of round-robin pointers, and one
``pick_winner`` call per shared channel per cycle. Both drive the same
tenant engines, so any difference is the arbiter's.

A Hypothesis differential covers every policy, K in {2, 3, 4}, shared
and partitioned placement, runs with and without a per-tenant
``FaultSchedule``, and both fabric engines. It asserts pickle-equal
:class:`FabricStats` and equal ``record_trace`` rows.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_plan
from repro.simulator import make_engine
from repro.tenancy import FabricSimulator, TenantJob, place_jobs
from tests.strategies import (
    arbitration_policies,
    fault_specs,
    materialize_faults,
    materialize_jobs,
    placement_modes,
    tenant_mixes,
)

# q=5 low-depth has 5 trees, so partitioned placement admits up to 4
# tenants with at least one tree each
Q = 5
SCHEME = "low-depth"


class LoopFabric(FabricSimulator):
    """The fabric stepped by a per-channel Python arbiter (the oracle)."""

    def __init__(self, plan, *args, **kwargs):
        super().__init__(plan, *args, **kwargs)
        users = {}
        for tid in sorted(self._tenants):
            for ch in self._tenants[tid].chs:
                users.setdefault(ch, []).append(tid)
        self.sharers = {ch: tids for ch, tids in users.items() if len(tids) > 1}
        self.rr = {ch: 0 for ch in self.sharers}
        for t in self._tenants.values():
            t.ch_index = {ch: i for i, ch in enumerate(t.chs)}
            t.done_list = [t.engine.tree_done(i) for i in range(len(t.completion))]

    def pick_winner(self, ch, cands):
        sharers = self.sharers[ch]
        if self.policy == "isolated-slice":
            return sharers[self.cycle % len(sharers)]
        if not cands:
            return None
        if self.policy == "strict-priority":
            return min(cands)
        ptr, k = self.rr[ch], len(sharers)
        for i in range(k):
            s = sharers[(ptr + i) % k]
            if s in cands:
                self.rr[ch] = (sharers.index(s) + 1) % k
                return s
        return None

    def step(self):
        self.cycle += 1
        active = [
            t
            for tid, t in sorted(self._tenants.items())
            if t.running and self.cycle > t.job.arrival
        ]
        for t in self._tenants.values():
            if t.running and self.cycle == t.job.arrival + 1 and t.engine.done():
                t.outcome = t.finished(self.cycle)
        active = [t for t in active if t.running]
        if not active:
            return 0
        budgets, demands = {}, {}
        for t in active:
            budgets[t.job.tenant] = t.engine.begin_cycle()
            demands[t.job.tenant] = t.engine.channel_demand(budgets[t.job.tenant])
        still = []
        for t in active:
            if (
                not any(demands[t.job.tenant])
                and not t.engine.has_in_flight()
                and not all(
                    d or t.engine.tree_done(i) for i, d in enumerate(t.done_list)
                )
                and not (
                    t.faults is not None
                    and t.faults.next_revival_after(t.engine.cycle) is not None
                )
            ):
                t.outcome = t.stalled(self.cycle)
            else:
                still.append(t)
        active = still
        running = {t.job.tenant for t in active}
        blocked = {tid: [] for tid in running}
        hit = set()
        row = {"cycle": self.cycle, "channels": {}} if self.record_trace else None
        for ch, sharers in self.sharers.items():
            demand = {
                tid: int(demands[tid][self._tenants[tid].ch_index[ch]])
                for tid in sharers
                if tid in running
            }
            cands = [tid for tid, d in demand.items() if d > 0]
            if not cands and self.policy != "isolated-slice":
                continue
            winner = self.pick_winner(ch, cands)
            for tid in demand:
                if tid != winner:
                    blocked[tid].append(self._tenants[tid].ch_index[ch])
                    if demand[tid] > 0:
                        hit.add(tid)
            if row is not None:
                row["channels"][ch] = {"demand": demand, "winner": winner}
        moved = 0
        for t in active:
            tid = t.job.tenant
            moved += t.engine.finish_cycle(budgets[tid], blocked[tid])
            t.blocked_cycles += tid in hit
            if row is not None:
                flits = t.engine.channel_flit_counts()
                row.setdefault("moved", {})[tid] = {
                    t.chs[i]: flits[i] - t.prev_flits[i]
                    for i in range(len(t.chs))
                    if flits[i] != t.prev_flits[i]
                }
                t.prev_flits = flits
            for i, d in enumerate(t.done_list):
                if not d and t.engine.tree_done(i):
                    t.done_list[i] = True
                    t.completion[i] = t.engine.cycle
            if all(t.done_list):
                t.outcome = t.finished(self.cycle)
        if row is not None:
            self.trace.append(row)
        return moved


def _pair(fplan, policy, engine, faults):
    kw = dict(policy=policy, engine=engine, faults=faults, record_trace=True)
    return FabricSimulator(fplan, 1, 2, **kw), LoopFabric(fplan, 1, 2, **kw)


@settings(max_examples=40, deadline=None)
@given(
    mix=tenant_mixes(max_tenants=4, max_m=10, max_arrival=8, min_tenants=2),
    mode=placement_modes(),
    policy=arbitration_policies(),
    engine=st.sampled_from(("fast", "reference")),
    fault=st.one_of(
        st.none(),
        st.tuples(st.integers(min_value=0, max_value=3), fault_specs(max_down=12)),
    ),
)
def test_array_arbiter_matches_loop_oracle(mix, mode, policy, engine, fault):
    plan = build_plan(Q, SCHEME)
    jobs = materialize_jobs(mix, plan.num_trees, mode)
    assert len(jobs) >= 2
    fplan = place_jobs(Q, jobs, SCHEME, mode=mode)
    faults = None
    if fault is not None:
        tenant, spec = fault
        faults = {tenant % len(jobs): materialize_faults(plan, spec)}
    new, old = _pair(fplan, policy, engine, faults)
    assert pickle.dumps(new.run()) == pickle.dumps(old.run())
    assert new.trace == old.trace


@pytest.mark.parametrize("policy", ("fair-share", "strict-priority", "isolated-slice"))
def test_contended_k4_matches_loop_oracle(policy):
    """A deterministic K=4 shared mix with staggered arrivals and a
    transient fault on one tenant (every branch of the arbiter)."""
    plan = build_plan(Q, SCHEME)
    jobs = [TenantJob(t, 2 * t, 12 + 3 * t, 1 + t % 3) for t in range(4)]
    fplan = place_jobs(Q, jobs, SCHEME, mode="shared")
    faults = {2: materialize_faults(plan, ((0, 3, 5),))}
    new, old = _pair(fplan, policy, "fast", faults)
    assert pickle.dumps(new.run()) == pickle.dumps(old.run())
    assert new.trace == old.trace
    assert new.trace and any(row["channels"] for row in new.trace)


@pytest.mark.parametrize("as_array", (False, True))
def test_blocked_list_and_array_gate_both_engines_identically(as_array):
    """``finish_cycle(budget, blocked)`` takes a list or an ndarray of
    channel indices on both engines, with identical results."""
    plan = build_plan(3, "low-depth")
    m = plan.partition(30)
    engines = [
        make_engine(name, plan.topology, plan.trees, m, 1, 2)
        for name in ("reference", "fast")
    ]
    chs = engines[0].channels()
    moved = []
    for eng in engines:
        trace = []
        for cycle in range(40):
            blocked = [i for i in range(len(chs)) if (i + cycle) % 3 == 0]
            if as_array:
                blocked = np.asarray(blocked, dtype=np.int64)
            trace.append(eng.finish_cycle(eng.begin_cycle(), blocked))
        trace.append(eng.channel_flit_counts())
        moved.append(trace)
    assert moved[0] == moved[1]
    assert sum(moved[0][:-1]) > 0
