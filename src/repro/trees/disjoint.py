"""Maximum sets of edge-disjoint Hamiltonian-path spanning trees (Section 7.2-7.3).

Two alternating-sum paths with four distinct edge-sum colors are edge
disjoint, so a family of pairwise *element-disjoint* Hamiltonian pairs
``(d_0, d_1)`` from the difference set yields edge-disjoint spanning trees.
The upper bound is ``floor((q+1)/2)`` trees (Lemma 7.18: edge counting).

The paper finds such families by computing random maximal independent sets
of the *conflict graph* ``G_S`` (vertices = Hamiltonian pairs, edges =
shared element) over 30 random instances. We implement that procedure
verbatim (:func:`random_maximal_independent_set`,
:func:`paper_random_search`) — and additionally observe that an
independent set of ``G_S`` is exactly a *matching* of the graph ``H(D)``
on difference-set elements whose edges are the Hamiltonian pairs, so a
maximum family can be computed exactly in polynomial time
(:func:`max_disjoint_hamiltonian_pairs`, via blossom matching). The exact
method constructively confirms the paper's claim that the bound
``floor((q+1)/2)`` is achieved for every prime power ``q < 128``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.topology.singer import singer_difference_set
from repro.trees.hamiltonian import hamiltonian_pairs, hamiltonian_path_tree
from repro.trees.tree import SpanningTree

Pair = Tuple[int, int]

__all__ = [
    "conflict_graph",
    "hamiltonian_pair_graph",
    "max_disjoint_hamiltonian_pairs",
    "random_maximal_independent_set",
    "paper_random_search",
    "edge_disjoint_hamiltonian_trees",
    "max_disjoint_upper_bound",
]


def max_disjoint_upper_bound(q: int) -> int:
    """Lemma 7.18: at most ``floor((q+1)/2)`` edge-disjoint Hamiltonian paths."""
    return (q + 1) // 2


def hamiltonian_pair_graph(q: int):
    """The graph ``H(D)``: vertices are difference-set elements, edges are
    the Hamiltonian pairs. Element-disjoint pair families = matchings."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(singer_difference_set(q))
    g.add_edges_from(hamiltonian_pairs(q))
    return g


def conflict_graph(q: int):
    """The paper's ``G_S``: vertices are Hamiltonian pairs; two pairs are
    adjacent iff they share a difference-set element (Section 7.3)."""
    import networkx as nx

    pairs = hamiltonian_pairs(q)
    g = nx.Graph()
    g.add_nodes_from(pairs)
    for i, a in enumerate(pairs):
        sa = set(a)
        for b in pairs[i + 1 :]:
            if sa & set(b):
                g.add_edge(a, b)
    return g


def max_disjoint_hamiltonian_pairs(q: int) -> List[Pair]:
    """A maximum family of element-disjoint Hamiltonian pairs, exactly,
    via maximum-cardinality matching of ``H(D)``.

    For every prime power ``q < 128`` this returns ``floor((q+1)/2)``
    pairs (the Lemma 7.18 bound), constructively proving the Section 7.3
    claim. Deterministic given networkx's matching iteration order; the
    result is returned sorted. The matching is memoized per ``q`` (the
    same idiom as ``singer_graph``/``polarfly_graph``): the blossom run
    is a pure function of ``q`` and would otherwise dominate repeat
    edge-disjoint planning.
    """
    return list(_max_disjoint_hamiltonian_pairs_cached(q))


@lru_cache(maxsize=None)
def _max_disjoint_hamiltonian_pairs_cached(q: int) -> Tuple[Pair, ...]:
    import networkx as nx

    g = hamiltonian_pair_graph(q)
    matching = nx.max_weight_matching(g, maxcardinality=True)
    # the blossom run leaves g in reference cycles: emptying it frees its
    # adjacency now, not at the next full cyclic-GC pass (~1 MB at q=127)
    g.clear()
    return tuple(sorted(tuple(sorted(e)) for e in matching))


def random_maximal_independent_set(q: int, rng: np.random.Generator) -> List[Pair]:
    """One random *maximal* (not necessarily maximum) independent set of
    ``G_S`` — equivalently a random maximal matching of ``H(D)``: shuffle
    the Hamiltonian pairs, greedily keep each pair that shares no element
    with those already kept. This is the primitive the paper iterates."""
    pairs = hamiltonian_pairs(q)
    order = rng.permutation(len(pairs))
    used: set = set()
    out: List[Pair] = []
    for idx in order:
        d0, d1 = pairs[idx]
        if d0 not in used and d1 not in used:
            used.update((d0, d1))
            out.append((d0, d1))
    return sorted(out)


def paper_random_search(
    q: int,
    instances: int = 30,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[List[Pair], int]:
    """The paper's Section 7.3 procedure: up to ``instances`` random maximal
    independent sets, stopping at the first that hits the upper bound.

    Returns ``(best_family, instances_used)``. The paper reports success
    within 30 instances for all prime powers ``q < 128``. An explicit
    ``rng`` takes precedence over ``seed``.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    bound = max_disjoint_upper_bound(q)
    best: List[Pair] = []
    for attempt in range(1, instances + 1):
        cand = random_maximal_independent_set(q, rng)
        if len(cand) > len(best):
            best = cand
        if len(best) >= bound:
            return best, attempt
    return best, instances


def edge_disjoint_hamiltonian_trees(
    q: int, pairs: Optional[Sequence[Pair]] = None
) -> List[SpanningTree]:
    """The zero-congestion Allreduce solution: ``floor((q+1)/2)``
    edge-disjoint Hamiltonian-path spanning trees of S_q, midpoint-rooted.

    ``pairs`` overrides the pair family (must be element-disjoint
    Hamiltonian pairs, e.g. from :func:`paper_random_search`); by default
    the exact maximum family is used.
    """
    if pairs is None:
        pairs = max_disjoint_hamiltonian_pairs(q)
    else:
        used: set = set()
        for d0, d1 in pairs:
            if d0 in used or d1 in used:
                raise ValueError(f"pairs are not element-disjoint at ({d0}, {d1})")
            used.update((d0, d1))
    return [
        hamiltonian_path_tree(q, d0, d1, tree_id=i)
        for i, (d0, d1) in enumerate(pairs)
    ]
