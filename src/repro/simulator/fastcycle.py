"""NumPy-vectorized cycle engine — cycle-exact vs :class:`CycleSimulator`.

The reference simulator (:mod:`repro.simulator.cycle`) walks per-flit
Python dicts every cycle; this engine advances *all* directed channels per
cycle with array operations and produces bit-identical results:

- per-(tree, phase) flit frontiers (delivered reduction / broadcast
  counters, the streaming-aggregation frontier, and the consumption
  counters that back credits) live in one flat integer state tensor that
  every per-cycle gather/scatter addresses through precomputed flat
  indices;
- streaming aggregation is a single ``np.minimum.reduceat`` over the
  concatenated children lists; credit counters are per-flow vectors
  computed from the same start-of-cycle snapshot the reference uses, so
  the two-cycle credit loop is reproduced exactly;
- round-robin arbitration is replaced by its closed form.  For
  ``link_capacity == 1`` (the common case) the winner of each channel is
  the backlogged flow with the smallest cyclic offset from the rotating
  pointer.  The offset is *unwrapped* instead of reduced:
  ``slot + k*(slot < rr)`` orders a channel's slots exactly like
  ``(slot - rr) % k``, so packed ``(offset, flow)`` keys need no
  per-cycle modulo, and one scatter into a transposed padded
  ``(K, C)`` buffer plus K row-minima decides every channel at once.
  For larger capacities, ``T`` complete round-robin passes hand flow
  ``i`` exactly ``min(b_i, T)`` flits and the remaining ``R`` flits go to
  the first ``R`` flows with ``b_i > T`` in cyclic order
  (water-filling, :func:`water_fill` — written over a lane axis so the
  batched lane runner shares it).  In both paths the pointer advances to
  one past the last grant, exactly like the reference loop.

Every cycle runs as :meth:`FastCycleSimulator.begin_cycle` (land, then
budgets) followed by :meth:`FastCycleSimulator.finish_cycle`
(arbitration); plain stepping, telemetry runs, the leap engine's stepped
cycles and the multi-tenant fabric's two-phase arbitration all run this
one path.

Cycle-exactness (same per-channel per-cycle flit counts, same completion
cycles, same round-robin pointer trajectory, same :class:`CycleStats`) is
enforced by ``tests/test_fastcycle_equivalence.py``; the speedup over the
reference engine is recorded by ``benchmarks/test_bench_fastcycle.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.simulator.cycle import (
    CycleStats,
    SimulationStalled,
    check_flit_counts,
    check_positive_int,
    default_max_cycles,
)
from repro.simulator.faultsched import FaultSchedule
from repro.topology.graph import Graph
from repro.trees.tree import SpanningTree

__all__ = ["FastCycleSimulator", "KERNEL_IMPL"]

#: the per-cycle stepping implementation of the serial engines (reported
#: in benchmark host fingerprints)
KERNEL_IMPL = "numpy"

_INF = 1 << 30
_BIG = 1 << 62  # padded-slot sentinel (empty arbitration slots)
_DEAD = 1 << 40  # ineligible-flow key offset (still < _BIG, > any real key)
_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.setflags(write=False)  # shared "nothing in flight" marker

# planes of the flat state tensor (each of shape (num_trees, n))
_AGG = 0  # flits fully aggregated at a node (leaves pinned at m_i)
_BCD = 1  # broadcast flits fully arrived at a node (roots pinned at _INF)
_BCM = 2  # min over a node's outgoing broadcast 'sent' counters
_UPD = 3  # flits from a node fully arrived at its parent


def fold_stats(
    completion: Sequence[int],
    flits_per_tree: Sequence[int],
    capacity: int,
    flits_moved: int,
    buffer_size: Optional[int],
    ch_cum: np.ndarray,
) -> CycleStats:
    """Fold a finished run (or lane) into :class:`CycleStats`, with
    pure-Python values so fast, leap and batched pickles are identical."""
    total = max(completion, default=0)
    loads = ch_cum[ch_cum > 0].tolist()  # plain ints
    denom = total * capacity
    return CycleStats(
        cycles=total,
        tree_completion=tuple(completion),
        flits_per_tree=tuple(flits_per_tree),
        link_capacity=capacity,
        flits_moved=flits_moved,
        buffer_size=buffer_size,
        max_channel_utilization=(max(loads) / denom) if loads and denom else 0.0,
        mean_channel_utilization=(
            sum(loads) / (len(loads) * denom) if loads and denom else 0.0
        ),
    )


def water_fill(
    sim: "FastCycleSimulator",
    budget: np.ndarray,
    rr: np.ndarray,
    cap: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Water-filling closed form of the one-flit-per-visit round robin for
    any capacity, over ``L`` lanes: ``sim``'s channel tables, ``(F, L)``
    budgets, ``(C, L)`` pointers, ``(L,)`` capacities in; the ``(F, L)``
    grants in ``sim._flat_fids`` order, the new pointers and the ``(C, L)``
    per-channel grant totals out.  The fast engine calls it with one lane,
    the batched lane runner with its whole batch."""
    valid = sim._ch_valid[:, :, None]
    Bm = np.where(valid, budget[sim._ch_fid], 0).astype(np.int64, copy=False)
    np.maximum(Bm, 0, out=Bm)
    S = np.minimum(Bm.sum(axis=1), cap)  # (C, L)

    T_arr = np.zeros_like(S)
    base = np.zeros_like(S)
    for p in range(1, int(cap.max()) + 1):
        s = np.minimum(Bm, p).sum(axis=1)
        ok = (s <= S) & (p <= cap)
        T_arr[ok] = p
        base[ok] = s[ok]
    R = S - base

    grants = np.minimum(Bm, T_arr[:, None, :])
    jpos = (sim._pos[:, :, None] - rr[:, None, :]) % sim._ch_k[:, None, None]
    want_extra = (Bm > T_arr[:, None, :]) & valid
    if want_extra.any():
        # rank of each candidate among candidates, in cyclic order
        rank = (want_extra[:, None] & (jpos[:, None] < jpos[:, :, None])).sum(axis=2)
        extra = want_extra & (rank < R[:, None, :])
        grants += extra
    else:
        extra = want_extra

    # rotating pointer: one past the last grant of the cycle
    has_extra = extra.any(axis=1)
    j_extra = np.where(extra, jpos, -1).max(axis=1, initial=-1)
    last_pass = grants.max(axis=1, initial=0)
    j_pass = np.where(
        (Bm >= last_pass[:, None, :]) & valid & (last_pass[:, None, :] > 0),
        jpos,
        -1,
    ).max(axis=1, initial=-1)
    j_last = np.where(has_extra, j_extra, j_pass)
    rr = np.where(S > 0, (rr + j_last + 1) % sim._ch_k[:, None], rr)
    return grants[sim._ch_valid], rr, S


class FastCycleSimulator:
    """Vectorized drop-in replacement for :class:`CycleSimulator`.

    Implements the :class:`~repro.simulator.engine.CycleEngine` surface
    (``step`` / ``tree_done`` / ``done`` / ``channels`` /
    ``channel_flit_counts`` / ``run``) and is cycle-exact: every
    observable — per-channel per-cycle activity, per-tree completion
    cycles, the final :class:`CycleStats` — is identical to the reference
    engine's.
    """

    engine_name = "fast"

    def __init__(
        self,
        g: Graph,
        trees: Sequence[SpanningTree],
        flits_per_tree: Sequence[int],
        link_capacity: int = 1,
        buffer_size: Optional[int] = None,
        faults: Optional[FaultSchedule] = None,
        telemetry=None,
    ):
        m = check_flit_counts(flits_per_tree, len(trees))
        capacity = check_positive_int(link_capacity, "link capacity")
        if buffer_size is not None:
            buffer_size = check_positive_int(buffer_size, "buffer size")
        for t in trees:
            t.validate(g)
        if faults is not None:
            faults.validate_against(g)
        self.g = g
        self.trees = list(trees)
        self.m = m
        self.capacity = capacity
        self.buffer_size = buffer_size
        self.faults = faults if faults else None
        self.telemetry = telemetry
        self.cycle = 0  # cycles stepped so far (the c-th step is cycle c)

        n = g.n
        self.n = n
        T = len(self.trees)
        self._T = T
        self._m_arr = np.asarray(self.m, dtype=np.int64).reshape(T)

        # ---- flows, in the exact fid order of the reference simulator:
        # tree-major, then per parent-map entry (v, p) the reduce flow
        # v -> p (fid 2e) and the broadcast flow p -> v (fid 2e + 1) of
        # global edge e (the order fixes the round-robin visit sequence
        # per channel)
        arrs = [t.parent_arrays() for t in self.trees]
        e_child = np.concatenate([_EMPTY] + [c for c, _ in arrs])
        e_par = np.concatenate([_EMPTY] + [p for _, p in arrs])
        e_tree = np.repeat(np.arange(T, dtype=np.int64), [len(c) for c, _ in arrs])
        F = 2 * len(e_child)
        self._F = F
        tree_arr = np.repeat(e_tree, 2)
        src_arr = np.stack([e_child, e_par], axis=1).reshape(F)
        dst_arr = np.stack([e_par, e_child], axis=1).reshape(F)
        is_reduce = np.arange(F) % 2 == 0
        roots = np.asarray([t.root for t in self.trees], dtype=np.int64)
        self._roots = roots
        # per-flow metadata kept for telemetry (queue/phase aggregation)
        self._flow_tree = tree_arr
        self._flow_dst = dst_arr
        self._flow_is_reduce = is_reduce

        self.sent = np.zeros(F, dtype=np.int64)

        # ---- flat state tensor and per-flow flat indices
        self._state = np.zeros((4, T, n), dtype=np.int64)
        self._flat = self._state.reshape(-1)
        plane = T * n

        def fidx(p: int, ti: np.ndarray, v: np.ndarray) -> np.ndarray:
            return p * plane + ti * n + v

        if T:
            # leaves of the aggregation frontier pin at m_i forever
            self._state[_AGG] = self._m_arr[:, None]
            # roots never receive broadcast traffic; pinning them at _INF
            # turns the completion check into one row-min
            self._state[_BCD][np.arange(T), roots] = _INF

        # availability of the flow's next flit at its source:
        #   reduce flow        -> aggregation frontier at src
        #   broadcast from root-> aggregation frontier at the root
        #   broadcast interior -> broadcast-delivered frontier at src
        avail_plane = np.where(is_reduce | (src_arr == roots[tree_arr]), _AGG, _BCD)
        self._avail_idx = fidx(avail_plane, tree_arr, src_arr)
        # where a landed flit is recorded (one-cycle hop latency):
        #   reduce flow    -> up-delivered at src
        #   broadcast flow -> broadcast-delivered at dst
        self._land_idx = np.where(
            is_reduce, fidx(_UPD, tree_arr, src_arr), fidx(_BCD, tree_arr, dst_arr)
        )

        # consumption counter per flow (credit bookkeeping):
        #   reduce into the root    -> min over the root's broadcast 'sent'
        #   reduce into an interior -> that node's own up-flow 'sent'
        #   broadcast into a leaf   -> broadcast-delivered at the leaf
        #   broadcast into interior -> min over its broadcast 'sent'
        up_fid = np.zeros((T, n), dtype=np.int64)  # (tree, child) -> reduce fid
        up_fid[e_tree, e_child] = np.arange(0, F, 2)
        has_kids = np.zeros((T, n), dtype=bool)
        has_kids[e_tree, e_par] = True
        cons_from_sent = is_reduce & (dst_arr != roots[tree_arr])
        self._cons_from_sent = cons_from_sent
        self._cons_sent_fid = np.where(cons_from_sent, up_fid[tree_arr, dst_arr], 0)
        cons_plane = np.where(is_reduce | has_kids[tree_arr, dst_arr], _BCM, _BCD)
        self._cons_state_idx = np.where(
            cons_from_sent, 0, fidx(cons_plane, tree_arr, dst_arr)
        )

        # ---- streaming-aggregation structure: children grouped per
        # internal (tree, node) in ascending order, one minimum.reduceat
        # per cycle
        order = np.lexsort((e_child, e_par, e_tree))
        grp_key, self._grp_off = np.unique(
            e_tree[order] * n + e_par[order], return_index=True
        )
        self._grp_agg_idx = _AGG * plane + grp_key
        self._grp_bcm_idx = self._grp_agg_idx + (_BCM - _AGG) * plane
        self._child_up_idx = fidx(_UPD, e_tree[order], e_child[order])
        self._child_bcfid = 2 * order + 1
        self._agg_root_idx = fidx(_AGG, np.arange(T, dtype=np.int64), roots)
        # consumption-group map: flow -> the minimum.reduceat group whose
        # min is the flow's consumed counter (-1 for flows whose consumed
        # counter is a raw 'sent'/BCD value). Shared by the telemetry
        # queue probe here and the leap engine's credit extrapolation.
        grp_of = np.full(self._flat.size, -1, dtype=np.int64)
        grp_of[self._grp_bcm_idx] = np.arange(len(grp_key))
        self._cons_grp = np.where(cons_from_sent, -1, grp_of[self._cons_state_idx])

        # ---- per-channel arbitration structures: channels in order of
        # first appearance, each channel's flows in fid (= slot) order
        _, first, inv = np.unique(
            src_arr * n + dst_arr, return_index=True, return_inverse=True
        )
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(len(first))
        flow_ch = rank[inv.reshape(F)]
        ch_first = np.sort(first)
        self._chs: List[Tuple[int, int]] = list(
            zip(src_arr[ch_first].tolist(), dst_arr[ch_first].tolist())
        )
        C = len(self._chs)
        self._C = C
        self._ch_k = np.bincount(flow_ch, minlength=C)
        # flows grouped by channel, in round-robin slot order
        self._gr_fid = np.argsort(flow_ch, kind="stable")
        self._gr_ch = flow_ch[self._gr_fid]
        self._gr_slot = np.arange(F) - (np.cumsum(self._ch_k) - self._ch_k)[self._gr_ch]
        # flow -> channel index (each flow lives on exactly one channel);
        # the two-phase stepping API gates whole channels through this map
        self._flow_ch = flow_ch
        # padded (channel x slot) matrix for the general-capacity path
        K = int(self._ch_k.max()) if C else 1
        self._K = K
        self._ch_fid = np.zeros((C, K), dtype=np.int64)
        self._ch_fid[self._gr_ch, self._gr_slot] = self._gr_fid
        self._pos = np.arange(K, dtype=np.int64)[None, :]
        self._ch_valid = self._pos < self._ch_k[:, None]
        self._flat_fids = self._ch_fid[self._ch_valid]
        self._rr = np.zeros(C, dtype=np.int64)
        self._ch_cum = np.zeros(C, dtype=np.int64)
        # capacity-1 closed form on unwrapped keys:
        # key = (slot + k*(slot < rr))*F + fid is strictly increasing in the
        # cyclic offset (slot - rr) mod k, so the per-channel min picks the
        # exact flow the pointer walk would, with no per-cycle modulo
        self._key0 = self._gr_slot * F + self._gr_fid
        self._key_wrap = self._ch_k[self._gr_ch] * F
        # transposed padded scatter target: row j holds the slot-j keys of
        # every channel (contiguous rows -> cheap K row-minima)
        self._padT = np.full((K, C), _BIG, dtype=np.int64)
        self._padT_flat = self._padT.reshape(-1)
        self._pad_idx = self._gr_slot * C + self._gr_ch

        # per-tree landed-flit totals: a tree is done exactly when every one
        # of its flows has delivered m_i flits (each is bounded by m_i, so
        # the landed total hits m_i * #flows iff all are complete) — the
        # done check is one O(T) compare
        flow_counts = np.bincount(tree_arr, minlength=T).astype(np.int64)
        self._done_target = self._m_arr * flow_counts
        self._done_cnt = np.zeros(T, dtype=np.int64)

        # fault bookkeeping: per-flow undirected link keys, plus the dead
        # set / budget mask of the current fault segment (updated lazily —
        # the set of down links only changes at schedule event cycles)
        lo, hi = np.minimum(src_arr, dst_arr), np.maximum(src_arr, dst_arr)
        self._flow_edge = lo * n + hi
        self._dead_now = frozenset()
        self._dead_mask: Optional[np.ndarray] = None

        # in-flight flits: (flow ids, counts) landing at the next boundary
        self._pending_fids = _EMPTY
        self._pending_cnt = _EMPTY
        self.flits_moved = 0
        self._refresh_agg()

    # ------------------------------------------------------------ frontiers

    def _refresh_agg(self) -> None:
        if len(self._grp_off):
            self._flat[self._grp_agg_idx] = np.minimum.reduceat(
                self._flat[self._child_up_idx], self._grp_off
            )

    def trees_done(self) -> np.ndarray:
        """Per-tree :meth:`tree_done` flags in one read (a fresh array)."""
        return self._done_cnt >= self._done_target

    def _sync_done(self) -> None:
        """Rebuild the per-tree landed totals from the state tensor (after
        a leap moved the state without landing events).  Every flow has a
        unique landing cell, so this is one weighted bincount."""
        self._done_cnt = np.bincount(
            self._flow_tree,
            weights=self._flat[self._land_idx].astype(np.float64),
            minlength=self._T,
        ).astype(np.int64)

    # ------------------------------------------------------------- dynamics

    def _refresh_fault_mask(self) -> None:
        """Recompute the dead-flow budget mask when the schedule's active
        segment changed (links died or revived at this cycle)."""
        dead = self.faults.down_edges_at(self.cycle)
        if dead != self._dead_now:
            self._dead_now = dead
            self._dead_mask = (
                np.isin(self._flow_edge, [u * self.n + v for u, v in dead])
                if dead
                else None
            )

    def step(self) -> int:
        """Advance one cycle; returns the number of flits transferred."""
        return self.finish_cycle(self.begin_cycle())

    # ------------------------------------------------- two-phase stepping

    def begin_cycle(self) -> Optional[np.ndarray]:
        """Phases 1–2 of one cycle: advance the clock, land last cycle's
        in-flight flits, and compute the per-flow budget vector from the
        start-of-cycle snapshot.

        Together with :meth:`finish_cycle` this is the two-phase stepping
        API the multi-tenant fabric (:mod:`repro.tenancy.fabric`) drives:
        an external arbiter inspects the budgets of *every* tenant engine
        mid-cycle, decides which shared channels each may use, and then
        completes each engine's cycle with the losers gated.  ``step()``
        is exactly ``finish_cycle(begin_cycle())``, so ungated two-phase
        stepping is the plain path.  Returns ``None`` when the engine has
        no flows (the fabric treats that as an all-zero budget).
        """
        self.cycle += 1
        if self.faults is not None:
            self._refresh_fault_mask()
        # 1. land last cycle's in-flight flits (one-cycle hop latency)
        pend = self._pending_fids
        if len(pend):
            cnt = self._pending_cnt
            self._flat[self._land_idx[pend]] += cnt
            np.add.at(self._done_cnt, self._flow_tree[pend], cnt)
            self._pending_fids = _EMPTY
        if self._F == 0:
            return None
        self._refresh_agg()

        # 2. per-flow budgets from the start-of-cycle snapshot
        budget = self._flat[self._avail_idx] - self.sent
        if self.buffer_size is not None:
            snap = self.sent.copy()
            self._flat[self._grp_bcm_idx] = np.minimum.reduceat(
                snap[self._child_bcfid], self._grp_off
            )
            cons = np.where(
                self._cons_from_sent,
                snap[self._cons_sent_fid],
                self._flat[self._cons_state_idx],
            )
            budget = np.minimum(budget, self.buffer_size - (snap - cons))
        if self._dead_mask is not None:
            # flows on down links arbitrate with zero budget
            budget = np.where(self._dead_mask, 0, budget)
        return budget

    def finish_cycle(
        self,
        budget: Optional[np.ndarray],
        blocked: Optional[Sequence[int]] = None,
    ) -> int:
        """Phase 3 of one cycle: arbitrate and send against ``budget`` (a
        :meth:`begin_cycle` result).  ``blocked`` is an optional list of
        channel indices (into :meth:`channels`) whose flows arbitrate with
        zero budget this cycle — identical semantics to a down link: the
        channel grants nothing and its round-robin pointer holds still.
        Returns the number of flits transferred."""
        if budget is None:
            return 0
        if blocked is not None and len(blocked):
            mask_ch = np.zeros(self._C, dtype=bool)
            mask_ch[np.asarray(blocked, dtype=np.int64)] = True
            budget = np.where(mask_ch[self._flow_ch], 0, budget)

        # 3. arbitration
        if self.capacity != 1:
            return self._arbitrate_general(budget)
        # capacity-1 round robin: unwrapped key per backlogged flow,
        # transposed padded scatter, K row-minima, arithmetic rr update
        F = self._F
        gr_ch = self._gr_ch
        key = self._key0 + self._key_wrap * (self._gr_slot < self._rr[gr_ch])
        key += _DEAD * (budget[self._gr_fid] <= 0)
        padT = self._padT
        self._padT_flat.fill(_BIG)
        self._padT_flat[self._pad_idx] = key
        best = padT[0]
        if self._K > 1:
            best = np.minimum(padT[0], padT[1])
            for j in range(2, self._K):
                np.minimum(best, padT[j], out=best)
        active = best < _DEAD
        moved = int(active.sum())
        if not moved:
            return 0
        bw = best[active]
        win = bw % F
        newrr = bw // F + 1
        k_act = self._ch_k[active]
        newrr -= k_act * (newrr >= k_act)
        self._rr[active] = newrr
        self.sent[win] += 1
        self._ch_cum += active
        self._pending_fids = win
        self._pending_cnt = np.ones(moved, dtype=np.int64)
        self.flits_moved += moved
        return moved

    def channel_demand(self, budget: Optional[np.ndarray]) -> np.ndarray:
        """Per-channel count of flows with a positive budget (aligned with
        :meth:`channels`) — what the fabric's arbitration policies read to
        stay work-conserving."""
        if budget is None:
            return np.zeros(self._C, dtype=np.int64)
        return np.bincount(self._flow_ch[budget > 0], minlength=self._C)

    def _arbitrate_general(self, budget: np.ndarray) -> int:
        """Capacity > 1: the lane-axis water filling with one lane."""
        cap = np.array([self.capacity])
        grants, rr, S = water_fill(self, budget[:, None], self._rr[:, None], cap)
        self._rr, flat, moved = rr[:, 0], grants[:, 0], int(S.sum())
        if moved:
            nz = flat > 0
            self._pending_fids = self._flat_fids[nz]
            self._pending_cnt = flat[nz]
            self.sent[self._pending_fids] += self._pending_cnt
            self._ch_cum += S[:, 0]
            self.flits_moved += moved
        return moved

    # ----------------------------------------------------- engine protocol

    def tree_done(self, i: int) -> bool:
        return bool(self.trees_done()[i])

    def done(self) -> bool:
        return bool(self.trees_done().all())

    def channels(self) -> List[Tuple[int, int]]:
        return list(self._chs)

    def channel_flit_counts(self) -> List[int]:
        return [int(x) for x in self._ch_cum]

    def has_in_flight(self) -> bool:
        """Any flits granted last cycle but not yet landed?"""
        return bool(len(self._pending_fids))

    def delivered_floor(self) -> List[int]:
        """Per-tree fully-delivered (landed broadcast) flit floor — the
        complete prefix a recovery need not redo (reference semantics)."""
        if not self._T:
            return []
        floor = self._state[_BCD].min(axis=1)  # roots pinned at _INF
        return [int(min(f, mi)) for f, mi in zip(floor, self._m_arr)]

    def reduced_at_root(self) -> List[int]:
        """Per-tree flits fully aggregated at the root (landed only)."""
        if not self._T:
            return []
        agg = self._flat[self._agg_root_idx]
        return [int(min(a, mi)) for a, mi in zip(agg, self._m_arr)]

    def _queue_at(self, flat: np.ndarray, sent: np.ndarray) -> np.ndarray:
        """Per-router receiver-side occupancy of the post-step state
        ``(flat, sent)``: flits sent toward a router minus flits its
        consumer stage has drained (reference ``_consumed_now``
        semantics, vectorized).  The broadcast-min groups are computed
        into a local, never into the BCM plane.  The leap engine calls
        this on recorded ring rows to reconstruct in-leap samples."""
        out = np.zeros(self.n, dtype=np.int64)
        if self._F == 0:
            return out
        if len(self._grp_off):
            bcm = np.minimum.reduceat(sent[self._child_bcfid], self._grp_off)
        else:
            bcm = np.zeros(0, dtype=np.int64)
        consumed = np.where(
            self._cons_from_sent,
            sent[self._cons_sent_fid],
            np.where(
                self._cons_grp >= 0,
                bcm[np.maximum(self._cons_grp, 0)] if bcm.size else np.int64(0),
                flat[self._cons_state_idx],
            ),
        )
        np.add.at(out, self._flow_dst, sent - consumed)
        return out

    def queue_occupancy(self) -> List[int]:
        """Per-router receiver-side queue occupancy (reference semantics,
        one bincount)."""
        return [int(x) for x in self._queue_at(self._flat, self.sent)]

    def phase_flit_totals(self) -> Tuple[List[int], List[int]]:
        """Cumulative (reduce, broadcast) flit-hops per tree."""
        red = np.zeros(self._T, dtype=np.int64)
        bc = np.zeros(self._T, dtype=np.int64)
        if self._F:
            up = self._flow_is_reduce
            np.add.at(red, self._flow_tree[up], self.sent[up])
            np.add.at(bc, self._flow_tree[~up], self.sent[~up])
        return [int(x) for x in red], [int(x) for x in bc]

    def run(self, max_cycles: Optional[int] = None) -> CycleStats:
        """Run to completion of all trees; raises :class:`SimulationStalled`
        on stall and ``RuntimeError`` when ``max_cycles`` is exceeded
        (reference semantics)."""
        if max_cycles is None:
            max_cycles = default_max_cycles(
                self.trees, self.m, self.capacity, self.buffer_size, self.faults
            )
        T = self._T
        completion = [0] * T
        done = self.trees_done()
        cycle = 0
        tel = self.telemetry
        if tel is not None:
            tel.on_run_start(self)
        while not done.all():
            moved = self.step()
            cycle += 1
            if cycle > max_cycles:
                raise RuntimeError(f"simulation exceeded {max_cycles} cycles")
            if tel is not None:
                tel.on_cycle(self, cycle, moved)
            now = self.trees_done()
            if moved == 0 and not len(self._pending_fids):
                if not now.all():
                    pending = [i for i in range(T) if not now[i]]
                    if pending and not (
                        self.faults is not None
                        and self.faults.next_revival_after(cycle) is not None
                    ):
                        if tel is not None:
                            tel.on_run_end(self, cycle, False)
                        raise SimulationStalled(cycle, pending)
            newly = now & ~done
            if newly.any():
                for i in np.nonzero(newly)[0]:
                    completion[i] = cycle
                done = done | now
        if tel is not None:
            tel.on_run_end(self, max(completion, default=0), True)
        return fold_stats(
            completion, self.m, self.capacity, self.flits_moved,
            self.buffer_size, self._ch_cum,
        )
