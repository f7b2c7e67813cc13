"""Shared-fabric cycle engine: K concurrent allreduces on one PolarFly.

The fabric composes one single-job cycle engine per tenant (reference or
fast — both implement the two-phase stepping API) and advances them in
lock-step against shared link capacity. Each global cycle:

1. every *running* tenant (arrived, not finished, not stalled) computes
   its per-flow budgets from its own start-of-cycle snapshot
   (``begin_cycle``) and reports per-channel demand;
2. the fabric arbitrates every shared directed channel under the chosen
   policy and hands each tenant a blocked-channel list;
3. each tenant finishes its cycle (``finish_cycle``) — a blocked channel
   grants nothing and holds its round-robin pointers, exactly like a
   down link, so gating can never corrupt intra-tenant arbitration
   state.

Because an *ungated* two-phase cycle is ``step()`` by construction, a
K=1 fabric run (or any tenant whose channels are never shared) is
bit-identical to the solo engine — the isolation-differential guarantee
of ``tests/test_tenancy_differential.py``.

Arbitration policies (:data:`POLICIES`):

``"fair-share"``
    per-channel round-robin over the static sharer list; the next
    running sharer with demand wins — work-conserving;
``"strict-priority"``
    lowest tenant id with demand wins — work-conserving, starves late
    tenants under saturation;
``"isolated-slice"``
    static time slots ``global_cycle % num_sharers`` over *all* placed
    sharers, demand or not — not work-conserving, but one tenant's
    behavior (including a fault storm) can never perturb another's
    slots.

Per-tenant stalls are *recorded*, not raised: a tenant whose pre-gate
budgets are all zero with nothing in flight and no revival pending has
reached a true fixpoint (the solo ``SimulationStalled`` condition, at
the same local cycle) — the fabric marks it stalled, keeps its recovery
frontiers (``delivered_floor`` / ``reduced_at_root``), and keeps the
other tenants running.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.simulator.cycle import CycleStats, default_max_cycles
from repro.simulator.engine import make_engine
from repro.simulator.faultsched import FaultSchedule
from repro.tenancy.placement import FabricPlan

__all__ = [
    "POLICIES",
    "FabricSimulator",
    "FabricStats",
    "TenantOutcome",
    "simulate_tenants",
]

POLICIES = ("fair-share", "strict-priority", "isolated-slice")


@dataclass(frozen=True)
class TenantOutcome:
    """How one tenant's collective ended.

    ``stats`` is a full :class:`CycleStats` for completed tenants (in
    *local* cycles — pickle-equal to the solo run when isolated) and
    ``None`` for stalled ones; stalled tenants instead carry the pending
    tree set and the recovery frontiers a re-plan would resume from.
    ``blocked_cycles`` counts global cycles in which the tenant had
    demand on a channel that the arbiter granted to someone else.
    """

    tenant: int
    arrival: int
    status: str  # "completed" | "stalled"
    local_cycles: int
    global_cycle: int
    stats: Optional[CycleStats]
    stall_pending: Tuple[int, ...]
    delivered_floor: Tuple[int, ...]
    reduced_at_root: Tuple[int, ...]
    blocked_cycles: int
    flits_moved: int


@dataclass(frozen=True)
class FabricStats:
    """One fabric run: global cycle count plus per-tenant outcomes
    (ordered by tenant id)."""

    policy: str
    cycles: int
    outcomes: Tuple[TenantOutcome, ...]

    def outcome(self, tenant: int) -> TenantOutcome:
        for o in self.outcomes:
            if o.tenant == tenant:
                return o
        raise KeyError(f"no tenant {tenant}")

    @property
    def completed(self) -> Tuple[TenantOutcome, ...]:
        return tuple(o for o in self.outcomes if o.status == "completed")

    @property
    def stalled(self) -> Tuple[TenantOutcome, ...]:
        return tuple(o for o in self.outcomes if o.status == "stalled")


class _Tenant:
    """Fabric-side bookkeeping around one tenant's engine."""

    def __init__(self, placement, engine, faults: Optional[FaultSchedule]):
        self.placement = placement
        self.job = placement.job
        self.engine = engine
        self.faults = faults
        self.chs: List[Tuple[int, int]] = engine.channels()
        self.completion = [0] * len(placement.tree_ids)
        self.done = np.asarray(engine.trees_done(), dtype=bool)
        self.blocked_cycles = 0
        self.outcome: Optional[TenantOutcome] = None
        self.prev_flits: List[int] = [0] * len(self.chs)
        # set by the fabric: its sharer-table row, its flat (position,
        # column) demand-matrix cells and its local channel index at each
        self.row = 0
        self.cells = self.local = np.zeros(0, dtype=np.int64)

    @property
    def running(self) -> bool:
        return self.outcome is None

    def finished(self, global_cycle: int) -> TenantOutcome:
        eng = self.engine
        total = max(self.completion) if self.completion else 0
        loads = [c for c in eng.channel_flit_counts() if c > 0]
        denom = total * eng.capacity
        stats = CycleStats(
            cycles=total,
            tree_completion=tuple(self.completion),
            flits_per_tree=tuple(eng.m),
            link_capacity=eng.capacity,
            flits_moved=eng.flits_moved,
            buffer_size=eng.buffer_size,
            max_channel_utilization=(max(loads) / denom) if loads and denom else 0.0,
            mean_channel_utilization=(
                sum(loads) / (len(loads) * denom) if loads and denom else 0.0
            ),
        )
        return TenantOutcome(
            tenant=self.job.tenant,
            arrival=self.job.arrival,
            status="completed",
            local_cycles=total,
            global_cycle=self.job.arrival + total,
            stats=stats,
            stall_pending=(),
            delivered_floor=tuple(eng.delivered_floor()),
            reduced_at_root=tuple(eng.reduced_at_root()),
            blocked_cycles=self.blocked_cycles,
            flits_moved=eng.flits_moved,
        )

    def stalled(self, global_cycle: int) -> TenantOutcome:
        eng = self.engine
        pending = np.flatnonzero(~np.asarray(eng.trees_done(), dtype=bool))
        return TenantOutcome(
            tenant=self.job.tenant,
            arrival=self.job.arrival,
            status="stalled",
            local_cycles=eng.cycle,
            global_cycle=global_cycle,
            stats=None,
            stall_pending=tuple(pending.tolist()),
            delivered_floor=tuple(eng.delivered_floor()),
            reduced_at_root=tuple(eng.reduced_at_root()),
            blocked_cycles=self.blocked_cycles,
            flits_moved=eng.flits_moved,
        )


class FabricSimulator:
    """Advance K concurrent collectives against shared link capacity.

    Parameters
    ----------
    plan:
        A placed job mix from :func:`repro.tenancy.placement.place_jobs`.
    link_capacity, buffer_size:
        Uniform channel capacity (flits/cycle) and optional per-flow
        credit buffer, as in the single-job engines.
    policy:
        One of :data:`POLICIES`.
    engine:
        ``"fast"`` (default) or ``"reference"`` — both implement the
        two-phase ``begin_cycle``/``finish_cycle`` stepping the fabric
        drives (on the fast engine that split is its only stepping
        path, so a fabric tenant runs the same code as a solo run).
    faults:
        Optional mapping ``tenant id -> FaultSchedule``, in each
        tenant's *local* clock (cycles since its arrival).
    record_trace:
        Keep a per-cycle trace of shared-channel demand and grants (the
        Hypothesis invariant suite reads it); off by default — it grows
        with run length.
    """

    def __init__(
        self,
        plan: FabricPlan,
        link_capacity: int = 1,
        buffer_size: Optional[int] = None,
        *,
        policy: str = "fair-share",
        engine: str = "fast",
        faults: Optional[Mapping[int, FaultSchedule]] = None,
        record_trace: bool = False,
    ):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
        if engine not in ("fast", "reference"):
            raise ValueError(
                "fabric engines must support two-phase stepping; "
                "choose 'fast' or 'reference'"
            )
        self.plan = plan
        self.policy = policy
        self.engine_name = engine
        self.capacity = link_capacity
        self.buffer_size = buffer_size
        self.cycle = 0
        self.record_trace = record_trace
        self.trace: List[dict] = []
        faults = dict(faults) if faults else {}
        unknown = set(faults) - {p.job.tenant for p in plan.placements}
        if unknown:
            raise ValueError(f"faults for unplaced tenants: {sorted(unknown)}")

        self._tenants: Dict[int, _Tenant] = {}
        for p in plan.placements:
            fs = faults.get(p.job.tenant)
            eng = make_engine(
                engine,
                plan.topology,
                [plan.trees[i] for i in p.tree_ids],
                list(p.flits),
                link_capacity,
                buffer_size,
                faults=fs,
            )
            self._tenants[p.job.tenant] = _Tenant(p, eng, fs)
        self._order = [self._tenants[tid] for tid in sorted(self._tenants)]
        self._tids = [t.job.tenant for t in self._order]

        # static sharer tables over the directed channels two or more
        # tenants use (``shared``), in first-appearance order over the
        # tenants' channel lists (ascending tenant id). A channel's
        # sharers hold positions 0..k-1 in ascending tenant id: column s
        # of ``_sh`` lists their tenant rows, and the per-cycle demand
        # matrix is indexed (position, column)
        K = len(self._order)
        sizes = [len(t.chs) for t in self._order]
        chs = np.asarray(
            [ch for t in self._order for ch in t.chs], dtype=np.int64
        ).reshape(-1, 2)
        owner = np.repeat(np.arange(K), sizes)
        local = np.arange(len(chs)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        _, first, inv, cnt = np.unique(
            chs[:, 0] * plan.topology.n + chs[:, 1],
            return_index=True,
            return_inverse=True,
            return_counts=True,
        )
        shared = np.flatnonzero(cnt > 1)
        shared = shared[np.argsort(first[shared])]
        S = len(shared)
        col = np.full(len(cnt), -1, dtype=np.int64)
        col[shared] = np.arange(S)
        col = col[inv.reshape(-1)]
        use = col >= 0
        loc = np.full((K, S), -1, dtype=np.int64)  # local channel index
        loc[owner[use], col[use]] = local[use]
        self.shared: List[Tuple[int, int]] = [
            (u, v) for u, v in chs[first[shared]].tolist()
        ]
        is_sharer = loc >= 0
        pos = np.cumsum(is_sharer, axis=0) - 1
        self._k = is_sharer.sum(axis=0)
        self._sh = np.zeros((int(self._k.max(initial=1)), S), dtype=np.int64)
        rows, cols = np.nonzero(is_sharer)
        self._sh[pos[rows, cols], cols] = rows
        self._pos = np.arange(len(self._sh))[:, None]
        self._ptr = np.zeros(S, dtype=np.int64)  # fair-share next position
        self._demand = np.zeros_like(self._sh)
        for row, t in enumerate(self._order):
            cols = np.flatnonzero(is_sharer[row])
            t.row = row
            t.cells = pos[row, cols] * S + cols
            t.local = loc[row, cols]

    # ------------------------------------------------------------- stepping

    def tenants(self) -> Tuple[int, ...]:
        return tuple(self._tids)

    def step(self) -> int:
        """Advance one global cycle; returns total flits moved across all
        tenants."""
        self.cycle += 1
        running = np.zeros(len(self._order), dtype=bool)
        demand = self._demand
        demand.fill(0)
        demand_flat = demand.reshape(-1)
        began = False
        live: List[Tuple[_Tenant, Any]] = []
        for t in self._order:
            if not t.running or self.cycle <= t.job.arrival:
                continue
            eng = t.engine
            if self.cycle == t.job.arrival + 1 and eng.done():
                # zero-work job (all trees trivially complete): finishes
                # the moment it arrives, before ever contending
                t.outcome = t.finished(self.cycle)
                continue
            began = True
            b = eng.begin_cycle()
            d = np.asarray(eng.channel_demand(b))
            # pre-gate stall detection: all-zero budgets with nothing in
            # flight and no revival pending is the solo SimulationStalled
            # fixpoint — gating cannot have caused it (the live done read
            # keeps a landing that just completed the last tree a finish)
            if not (
                d.any()
                or eng.has_in_flight()
                or eng.done()
                or (
                    t.faults is not None
                    and t.faults.next_revival_after(eng.cycle) is not None
                )
            ):
                t.outcome = t.stalled(self.cycle)
                continue
            live.append((t, b))
            running[t.row] = True
            demand_flat[t.cells] = d[t.local]
        if not began:
            return 0

        # arbitrate every shared channel at once: ``win`` is the winning
        # sharer position of each channel the policy decides this cycle
        cand = demand > 0
        k = self._k
        if self.policy == "isolated-slice":
            # static slots over all placed sharers, demand or not
            decided = np.ones(len(k), dtype=bool)
            win = self.cycle % k
        else:
            decided = cand.any(axis=0)
            if self.policy == "strict-priority":
                win = cand.argmax(axis=0)  # positions ascend by tenant id
            else:
                # fair-share: the candidate at the smallest cyclic distance
                # (p - ptr) mod k from the rotating pointer, unwrapped as
                # p + k * (p < ptr)
                pos = self._pos
                dist = np.where(cand, pos + k * (pos < self._ptr), len(pos) << 1)
                win = dist.argmin(axis=0)
                self._ptr = np.where(decided, (win + 1) % k, self._ptr)
        # losers with demand are gated; gating a channel without demand
        # would change nothing (no grant, the pointer holds either way)
        blocked = (cand & (self._pos != win)).reshape(-1)

        trace_row: Optional[dict] = None
        if self.record_trace:
            tids, sh = self._tids, self._sh
            trace_row = {
                "cycle": self.cycle,
                "channels": {
                    self.shared[s]: {
                        "demand": {
                            tids[sh[p, s]]: int(demand[p, s])
                            for p in range(k[s])
                            if running[sh[p, s]]
                        },
                        "winner": tids[sh[win[s], s]],
                    }
                    for s in np.flatnonzero(decided)
                },
            }

        moved_total = 0
        for t, b in live:
            eng = t.engine
            gated = blocked[t.cells]
            moved_total += eng.finish_cycle(b, t.local[gated])
            if gated.any():
                t.blocked_cycles += 1
            if trace_row is not None:
                flits = eng.channel_flit_counts()
                deltas = {
                    t.chs[i]: flits[i] - t.prev_flits[i]
                    for i in range(len(t.chs))
                    if flits[i] != t.prev_flits[i]
                }
                t.prev_flits = flits
                trace_row.setdefault("moved", {})[t.job.tenant] = deltas
            # completion bookkeeping in local cycles; in-flight flits past
            # the last completion never matter, matching the solo run()
            # which stops at the final completion cycle
            now = np.asarray(eng.trees_done(), dtype=bool)
            for i in np.flatnonzero(now & ~t.done):
                t.completion[i] = eng.cycle
            t.done = now
            if now.all():
                t.outcome = t.finished(self.cycle)
        if trace_row is not None:
            self.trace.append(trace_row)
        return moved_total

    # ------------------------------------------------------------------ run

    def run(self, max_cycles: Optional[int] = None) -> FabricStats:
        """Advance until every tenant completed or stalled."""
        if max_cycles is None:
            K = max(1, len(self._tenants))
            per = sum(
                default_max_cycles(
                    [self.plan.trees[i] for i in t.placement.tree_ids],
                    list(t.placement.flits),
                    self.capacity,
                    self.buffer_size,
                    t.faults,
                )
                for t in self._tenants.values()
            )
            latest = max(t.job.arrival for t in self._tenants.values())
            max_cycles = latest + K * per
        while any(t.running for t in self._tenants.values()):
            self.step()
            if self.cycle > max_cycles:
                raise RuntimeError(f"fabric exceeded {max_cycles} cycles")
        outcomes = tuple(
            self._tenants[tid].outcome for tid in sorted(self._tenants)
        )
        last = max((o.global_cycle for o in outcomes), default=0)
        return FabricStats(policy=self.policy, cycles=last, outcomes=outcomes)


def simulate_tenants(
    plan: FabricPlan,
    link_capacity: int = 1,
    buffer_size: Optional[int] = None,
    *,
    policy: str = "fair-share",
    engine: str = "fast",
    faults: Optional[Mapping[int, FaultSchedule]] = None,
    max_cycles: Optional[int] = None,
) -> FabricStats:
    """One-call front end: run an admitted :class:`FabricPlan`
    (see :func:`repro.tenancy.place_jobs`) → per-tenant outcomes."""
    sim = FabricSimulator(
        plan,
        link_capacity,
        buffer_size,
        policy=policy,
        engine=engine,
        faults=faults,
    )
    return sim.run(max_cycles)
