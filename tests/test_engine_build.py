"""Pin the fast engine's array-native build against a per-flow loop oracle.

:class:`FastCycleSimulator` builds its flow, consumption, reduce-group and
channel-slot tables from each tree's ``(child, parent)`` arrays with
NumPy. Every per-cycle gather and scatter addresses the state through
these tables, and the round-robin order (hence every digest) depends on
the flow-id and channel order they encode. This suite keeps the plain
per-flow loop construction — a walk over ``parent.items()`` per tree,
``children(v)`` per (tree, vertex) and a per-flow consumption dispatch —
as an independent oracle and compares it array-for-array with the
vectorized build (the leap engine's availability-group map included):

- over every plan :func:`repro.core.get_plan` builds for q <= 13;
- over random spanning trees of small named topologies, re-rooted
  anywhere, with their parent maps inserted in a shuffled order.
"""

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SCHEMES, get_plan
from repro.simulator import make_engine
from repro.topology.graph import canonical_edge
from repro.trees import SpanningTree
from repro.utils.errors import UnsupportedRadixError
from tests.strategies import random_embedding, topology_names

_AGG, _BCD, _BCM, _UPD = 0, 1, 2, 3
_INT_TABLES = (
    "_flow_tree", "_flow_dst", "_avail_idx", "_land_idx", "_cons_state_idx",
    "_cons_sent_fid", "_grp_agg_idx", "_grp_bcm_idx", "_grp_off",
    "_child_up_idx", "_child_bcfid", "_agg_root_idx", "_cons_grp", "_ch_k",
    "_gr_fid", "_gr_slot", "_gr_ch", "_flow_ch", "_ch_fid", "_flat_fids",
    "_key0", "_key_wrap", "_pad_idx", "_done_target", "_flow_edge",
)
_BOOL_TABLES = ("_flow_is_reduce", "_cons_from_sent", "_ch_valid")


def loop_build(g, trees, m) -> Dict[str, object]:
    """The per-flow loop construction of the fast engine's tables."""
    n, T = g.n, len(trees)
    plane = T * n
    f_tree: List[int] = []
    f_src: List[int] = []
    f_dst: List[int] = []
    f_red: List[bool] = []
    channel_flows: Dict[Tuple[int, int], List[int]] = {}
    up_fid_of: Dict[Tuple[int, int], int] = {}
    bc_fid_of: Dict[Tuple[int, int], int] = {}
    for ti, t in enumerate(trees):
        for v, p in t.parent.items():
            for src, dst, red in ((v, p, True), (p, v, False)):
                fid = len(f_tree)
                f_tree.append(ti)
                f_src.append(src)
                f_dst.append(dst)
                f_red.append(red)
                channel_flows.setdefault((src, dst), []).append(fid)
                (up_fid_of if red else bc_fid_of)[(ti, v)] = fid
    F = len(f_tree)
    roots = [t.root for t in trees]

    def fidx(p, ti, v):
        return p * plane + ti * n + v

    avail, land, cons, from_sent, sent_fid = [], [], [], [], []
    has_kids = {(ti, p) for ti, t in enumerate(trees) for p in t.parent.values()}
    for fid in range(F):
        ti, s, d, red = f_tree[fid], f_src[fid], f_dst[fid], f_red[fid]
        avail.append(fidx(_AGG if red or s == roots[ti] else _BCD, ti, s))
        land.append(fidx(_UPD, ti, s) if red else fidx(_BCD, ti, d))
        if red and d != roots[ti]:
            from_sent.append(True)
            sent_fid.append(up_fid_of[(ti, d)])
            cons.append(0)
        else:
            from_sent.append(False)
            sent_fid.append(0)
            plane_d = _BCM if red or (ti, d) in has_kids else _BCD
            cons.append(fidx(plane_d, ti, d))

    grp_agg, grp_off, child_up, child_bc = [], [], [], []
    for ti, t in enumerate(trees):
        for v in range(n):
            kids = t.children(v)
            if kids:
                grp_agg.append(fidx(_AGG, ti, v))
                grp_off.append(len(child_up))
                for c in kids:
                    child_up.append(fidx(_UPD, ti, c))
                    child_bc.append(bc_fid_of[(ti, c)])
    grp_bcm = [ix + (_BCM - _AGG) * plane for ix in grp_agg]
    bcm_pos = {ix: gi for gi, ix in enumerate(grp_bcm)}
    agg_pos = {ix: gi for gi, ix in enumerate(grp_agg)}

    chs = list(channel_flows)
    C = len(chs)
    ch_k = [len(channel_flows[ch]) for ch in chs]
    gr_fid, gr_slot, gr_ch = [], [], []
    for ci, ch in enumerate(chs):
        for slot, fid in enumerate(channel_flows[ch]):
            gr_fid.append(fid)
            gr_slot.append(slot)
            gr_ch.append(ci)
    K = max(ch_k) if C else 1
    ch_fid = np.zeros((C, K), dtype=np.int64)
    ch_valid = np.zeros((C, K), dtype=bool)
    for ci, ch in enumerate(chs):
        fids = channel_flows[ch]
        ch_fid[ci, : len(fids)] = fids
        ch_valid[ci, : len(fids)] = True
    flow_ch = [0] * F
    for fid, ci in zip(gr_fid, gr_ch):
        flow_ch[fid] = ci
    per_tree = [f_tree.count(ti) for ti in range(T)]
    edges = [canonical_edge(s, d) for s, d in zip(f_src, f_dst)]
    return {
        "_flow_tree": f_tree,
        "_flow_dst": f_dst,
        "_flow_is_reduce": f_red,
        "_avail_idx": avail,
        "_land_idx": land,
        "_cons_state_idx": cons,
        "_cons_from_sent": from_sent,
        "_cons_sent_fid": sent_fid,
        "_grp_agg_idx": grp_agg,
        "_grp_bcm_idx": grp_bcm,
        "_grp_off": grp_off,
        "_child_up_idx": child_up,
        "_child_bcfid": child_bc,
        "_agg_root_idx": [fidx(_AGG, ti, r) for ti, r in enumerate(roots)],
        "_cons_grp": [
            -1 if from_sent[f] else bcm_pos.get(cons[f], -1) for f in range(F)
        ],
        "_ch_k": ch_k,
        "_gr_fid": gr_fid,
        "_gr_slot": gr_slot,
        "_gr_ch": gr_ch,
        "_flow_ch": flow_ch,
        "_ch_fid": ch_fid,
        "_ch_valid": ch_valid,
        "_flat_fids": ch_fid[ch_valid],
        "_key0": [s * F + f for s, f in zip(gr_slot, gr_fid)],
        "_key_wrap": [ch_k[c] * F for c in gr_ch],
        "_pad_idx": [s * C + c for s, c in zip(gr_slot, gr_ch)],
        "_done_target": [mi * k for mi, k in zip(m, per_tree)],
        "_flow_edge": [lo * n + hi for lo, hi in edges],
        "_avail_grp": [agg_pos.get(ix, -1) for ix in avail],
        "channels": chs,
        "K": K,
    }


def assert_build_matches(g, trees, m):
    want = loop_build(g, trees, m)
    fast = make_engine("fast", g, trees, m)
    leap = make_engine("leap", g, trees, m)
    for sim in (fast, leap):
        for name in _INT_TABLES + _BOOL_TABLES:
            got = getattr(sim, name)
            dtype = bool if name in _BOOL_TABLES else np.int64
            exp = np.asarray(want[name], dtype=dtype).reshape(got.shape)
            assert got.dtype == exp.dtype, name
            np.testing.assert_array_equal(got, exp, err_msg=name)
        assert sim.channels() == want["channels"]
        assert sim._K == want["K"]
    np.testing.assert_array_equal(
        leap._avail_grp, np.asarray(want["_avail_grp"], dtype=np.int64)
    )
    assert fast.channels() == make_engine("reference", g, trees, m).channels()


def _plan_keys():
    keys = []
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        for scheme in SCHEMES:
            try:
                get_plan(q, scheme)
            except UnsupportedRadixError:
                continue
            keys.append((q, scheme))
    return keys


@pytest.mark.parametrize("q,scheme", _plan_keys())
def test_plan_build_matches_loop_oracle(q, scheme):
    plan = get_plan(q, scheme)
    assert_build_matches(plan.topology, plan.trees, plan.partition(7 * plan.num_trees))


def _shuffled(tree, rng, root):
    """The same undirected tree re-rooted at ``root``, with its parent map
    inserted in a random order."""
    adj: Dict[int, List[int]] = {}
    for v, p in tree.parent.items():
        adj.setdefault(v, []).append(p)
        adj.setdefault(p, []).append(v)
    parent, stack = {}, [root]
    while stack:
        u = stack.pop()
        for w in adj.get(u, ()):
            if w != root and w not in parent:
                parent[w] = u
                stack.append(w)
    items = list(parent.items())
    order = rng.permutation(len(items))
    return SpanningTree(root, dict(items[i] for i in order))


@settings(max_examples=30, deadline=None)
@given(
    name=topology_names(),
    k=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=0, max_value=9),
)
def test_random_parent_maps_match_loop_oracle(name, k, seed, m):
    g, base = random_embedding(name, k, seed)
    rng = np.random.default_rng(seed)
    trees = [_shuffled(t, rng, int(rng.integers(g.n))) for t in base]
    assert_build_matches(g, trees, [m] * k)


def test_parent_arrays_are_read_only_and_aligned():
    tree = SpanningTree(2, {0: 2, 3: 1, 1: 2})
    child, par = tree.parent_arrays()
    assert child.tolist() == [0, 3, 1] and par.tolist() == [2, 1, 2]
    with pytest.raises(ValueError):
        child[0] = 5
