"""Singer difference sets and the Singer graph S_q (Section 6.2).

Construction (paper steps 1–5, after Stinson):

1. Build ``F_{q^3}`` as ``F_q[x]/(f)`` for a degree-3 *primitive* polynomial
   ``f`` over ``F_q`` with root ``zeta``. For reproducibility the paper (and
   we) use the lexicographically smallest such ``f``.
2. Walk the powers ``zeta^l``.
3. Reduce each to ``i*zeta^2 + j*zeta + k`` with ``i, j, k in F_q``.
4. The difference set ``D`` collects the exponents of the powers lying on
   the projective line spanned by ``{1, zeta}`` — the powers with ``i = 0``.
5. Reduce exponents mod ``N = q^2 + q + 1``.

Because ``zeta^N`` generates ``F_q^*``, scaling by field constants shifts
exponents by multiples of ``N`` and preserves ``i = 0``; hence it suffices
to walk ``l in [0, N)`` — each residue class is visited exactly once.

The walk is vectorized by doubling. If ``zeta^k = a0 + a1 zeta + a2
zeta^2`` then ``zeta^(k+l) = a0 zeta^l + a1 zeta^(l+1) + a2 zeta^(l+2)``,
and since every coefficient is linear the ``zeta^2`` coefficients ``s``
obey the same identity: ``s[k+l] = a0 s[l] + a1 s[l+1] + a2 s[l+2]``.
Holding ``s[0 .. k+2]`` as one array, the next block ``s[k+3 .. 2k]`` is
three table lookups and two table additions over arrays. About
``log2 N`` doublings replace the ``N`` scalar steps.

The Singer graph ``S_q`` (Definition 6.3) has vertices ``Z_N`` and an edge
``(i, j)`` iff the *edge sum* ``(i + j) mod N`` is in ``D``. Reflection
points (``i + i in D``, Definition 6.5) carry self-loops and correspond to
the quadrics of ER_q (Corollary 6.8).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.gf import get_field, smallest_primitive
from repro.topology.graph import Graph, canonical_edge
from repro.utils.numbertheory import mod_inverse, prime_power_decomposition

__all__ = [
    "singer_difference_set",
    "is_perfect_difference_set",
    "difference_table",
    "reflection_points",
    "edge_sum",
    "SingerGraph",
    "singer_graph",
]


@lru_cache(maxsize=None)
def singer_difference_set(q: int) -> Tuple[int, ...]:
    """The Singer difference set of order ``q + 1`` over ``Z_N``, sorted.

    Deterministic: uses the lexicographically smallest degree-3 primitive
    polynomial over GF(q) (canonical integer element coding). Matches the
    paper's published sets, e.g. ``{0, 1, 3, 9}`` for q=3 and
    ``{0, 1, 4, 14, 16}`` for q=4.

    Raises ``ValueError`` if ``q`` is not a prime power.
    """
    prime_power_decomposition(q)
    field = get_field(q)
    dset = _zeta_walk(field, smallest_primitive(field, 3))
    if len(dset) != q + 1:  # pragma: no cover - guarded by construction
        raise RuntimeError(f"Singer construction failed for q={q}: |D|={len(dset)}")
    return dset


def _zeta_walk(field, f) -> Tuple[int, ...]:
    """Exponents ``l in [0, N)`` whose ``zeta^l`` has no ``zeta^2`` term.

    ``f = x^3 + c2 x^2 + c1 x + c0`` (ascending coding ``(c0, c1, c2, 1)``)
    is the primitive cubic with root ``zeta``, so ``zeta^3 = m0 + m1 zeta +
    m2 zeta^2`` with ``m = -c``. Only ``s[l]``, the ``zeta^2`` coefficient
    of ``zeta^l``, is kept: multiplying by ``zeta`` sends
    ``(k_l, j_l, s_l)`` to ``(m0 s_l, k_l + m1 s_l, j_l + m2 s_l)``, so
    ``zeta^k`` is recovered from ``s[k], s[k+1], s[k+2]``.
    """
    q = field.order
    n = q * q + q + 1
    add, sub, mul = field.add, field.sub, field.mul
    m0, m1, m2 = (field.neg(c) for c in f[:3])
    s = [0, 0, 1]  # zeta^0, zeta^1, zeta^2
    while len(s) < 6:
        s.append(add(add(mul(m2, s[-1]), mul(m1, s[-2])), mul(m0, s[-3])))
    s = np.array(s, dtype=np.int64)
    while len(s) < n:
        # zeta^k = a0 + a1 zeta + a2 zeta^2, read back from s[k:k+3]
        k = len(s) - 3
        a2 = int(s[k])
        a1 = sub(int(s[k + 1]), mul(m2, a2))
        a0 = sub(sub(int(s[k + 2]), mul(m2, int(s[k + 1]))), mul(m1, a2))
        # zeta^(k+l) = a0 zeta^l + a1 zeta^(l+1) + a2 zeta^(l+2), for
        # l = 3 .. k: the next block s[k+3 : 2k+1], cut at N
        end = 3 + min(k - 2, n - len(s))
        block = field.vadd(
            field.vadd(field.vmul(a0, s[3:end]), field.vmul(a1, s[4 : end + 1])),
            field.vmul(a2, s[5 : end + 2]),
        )
        s = np.concatenate([s, block])
    return tuple(np.flatnonzero(s[:n] == 0).tolist())


def is_perfect_difference_set(dset: Sequence[int], n: int) -> bool:
    """Check Definition 6.2: ordered differences cover 1..N-1 exactly once."""
    seen = set()
    for a in dset:
        for b in dset:
            if a == b:
                continue
            d = (a - b) % n
            if d == 0 or d in seen:
                return False
            seen.add(d)
    return len(seen) == n - 1


def difference_table(dset: Sequence[int], n: int) -> Dict[Tuple[int, int], int]:
    """The Figure 2 difference table: ``(d_i, d_j) -> (d_i - d_j) mod N``."""
    return {
        (a, b): (a - b) % n
        for a in dset
        for b in dset
        if a != b
    }


def reflection_points(dset: Sequence[int], n: int) -> Tuple[int, ...]:
    """Elements ``w`` with ``w + w in D`` — the quadrics of ER_q (Cor 6.8).

    Equivalently ``{2^{-1} d mod N : d in D}``; one per difference-set
    element since ``N`` is odd (Lemma 6.7).
    """
    half = mod_inverse(2, n)
    return tuple(sorted((half * d) % n for d in dset))


def edge_sum(u: int, v: int, n: int) -> int:
    """Edge sum ``(u + v) mod N`` (Definition 6.4) — the edge's color."""
    return (u + v) % n


class SingerGraph:
    """The Singer graph S_q with its difference-set edge coloring.

    Attributes
    ----------
    q, n:
        Prime power and order ``N = q^2 + q + 1``.
    dset:
        The Singer difference set (sorted tuple).
    graph:
        The underlying simple :class:`Graph`; reflection points are
        recorded as self-loops.
    """

    def __init__(self, q: int):
        self.q = q
        self.n = q * q + q + 1
        self.dset = singer_difference_set(q)
        self.reflections = reflection_points(self.dset, self.n)
        # Vectorized build: for each color d, the edge set {(i, d-i mod N)}.
        i = np.arange(self.n, dtype=np.int64)
        us = np.concatenate([i for _ in self.dset])
        vs = np.concatenate([(d - i) % self.n for d in self.dset])
        g = Graph(self.n)
        g.add_edges_bulk(us, vs)
        self.graph = g

    def edge_color(self, u: int, v: int) -> int:
        """Difference-set element coloring edge ``(u, v)``; raises if absent."""
        s = edge_sum(u, v, self.n)
        if s not in set(self.dset) or not self.graph.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of S_{self.q}")
        return s

    def edges_of_color(self, d: int) -> Tuple[Tuple[int, int], ...]:
        """All edges with edge sum ``d`` (a perfect near-matching of Z_N)."""
        if d not in set(self.dset):
            raise ValueError(f"{d} is not in the difference set {self.dset}")
        out = []
        for i in range(self.n):
            j = (d - i) % self.n
            if i < j:
                out.append(canonical_edge(i, j))
        return tuple(out)

    def self_loop_color(self, v: int) -> int:
        """The difference-set element ``2v mod N`` of a reflection point."""
        if v not in self.graph.self_loops:
            raise ValueError(f"{v} is not a reflection point of S_{self.q}")
        return (2 * v) % self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SingerGraph(q={self.q}, N={self.n}, D={self.dset})"


@lru_cache(maxsize=None)
def singer_graph(q: int) -> SingerGraph:
    """Memoized Singer graph for prime-power ``q``."""
    return SingerGraph(q)
