"""Galois fields ``GF(q)`` for prime powers ``q = p^a``, built from scratch.

Elements are integer-coded ``0..q-1``. For prime fields the coding is the
residue itself; for extension fields the integer is the base-``p`` encoding
of the coefficient vector of the residue polynomial (coefficient of ``x^i``
is the ``i``-th base-``p`` digit), reduced modulo the lexicographically
smallest monic irreducible polynomial of degree ``a`` over ``F_p``. This
coding makes the canonical element order ``0 < 1 < ... < q-1`` well defined,
which in turn pins down the "lexicographically smallest" degree-3 primitive
polynomial of Section 6.2 and makes the generated Singer difference sets
reproducible.

Construction is table-driven and vectorized; no Python loop runs over
element pairs:

- the modulus is found by a sieve: every product of two monic factors of
  complementary degree is marked reducible, and the smallest unmarked
  code (integer codes order monic polynomials lexicographically) wins;
- the ``q x q`` multiplication table takes one matrix product per digit:
  digit ``k`` of ``x * y`` is ``sum_i x_i * digit_k(y * X^i) mod p``, where
  the ``a`` shifted copies ``y * X^i`` come from repeated multiply-by-``X``
  steps reduced by the monic modulus;
- addition, negation and inversion tables follow from the digits and the
  multiplication table.

Scalar operations are exact Python ints; vector operations accept NumPy
arrays (modular arithmetic for prime fields, the ``q x q`` lookup tables for
extension fields), as required for building the ``N^2`` orthogonality
adjacency of ER_q without Python-level loops. Orders above
:data:`MAX_ORDER` are rejected before any table is allocated.
"""

from __future__ import annotations

import numbers
from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.gf import poly as P
from repro.utils.numbertheory import prime_power_decomposition

__all__ = ["GF", "MAX_ORDER", "get_field"]

#: Largest supported field order. Extension fields hold ``q x q`` add and
#: multiplication tables (8 MB each at this bound); larger orders are
#: refused before anything is allocated.
MAX_ORDER = 1024


class GF:
    """The finite field with ``q = p^a`` elements.

    Parameters
    ----------
    q:
        Field order: an ``int`` prime power ``q <= MAX_ORDER``. Raises
        ``TypeError`` for non-integers (including ``bool``) and
        ``ValueError`` for other orders.

    Attributes
    ----------
    order, char, degree:
        ``q``, ``p`` and ``a`` with ``q = p^a``.
    modulus:
        For extension fields, the monic irreducible polynomial over ``F_p``
        defining the field (ascending-coefficient tuple); ``None`` for
        prime fields.
    """

    def __init__(self, q: int):
        if isinstance(q, bool) or not isinstance(q, numbers.Integral):
            raise TypeError(f"field order must be an int, not {type(q).__name__}")
        q = int(q)
        if q > MAX_ORDER:
            raise ValueError(
                f"GF({q}) is not supported: field tables are built for "
                f"orders q <= MAX_ORDER = {MAX_ORDER}"
            )
        p, a = prime_power_decomposition(q)
        self.order = q
        self.char = p
        self.degree = a
        self.modulus: Tuple[int, ...] = None  # type: ignore[assignment]
        if a == 1:
            self._init_prime()
        else:
            self._init_extension()

    # ------------------------------------------------------------------ init

    def _init_prime(self) -> None:
        q = self.order
        self._inv_table = np.array(
            [0] + [pow(i, -1, q) for i in range(1, q)], dtype=np.int64
        )
        self._neg_table = -np.arange(q, dtype=np.int64) % q
        self._add_table = None
        self._mul_table = None

    def _init_extension(self) -> None:
        p, a, q = self.char, self.degree, self.order
        self.modulus = _smallest_modulus(p, a)
        weights = p ** np.arange(a, dtype=np.int64)
        # digits[e, i] is the coefficient of x^i in element e
        digits = np.arange(q, dtype=np.int64)[:, None] // weights % p
        self._digits = digits

        self._neg_table = -digits % p @ weights

        # shifted[i, :, y] = digits of y * x^i: multiply by x shifts the
        # digits up one place and folds the overflow back with
        # x^a = -(low modulus).
        low = np.array(self.modulus[:a], dtype=np.int64)[:, None]
        shifted = np.empty((a, a, q), dtype=np.int64)
        shifted[0] = digits.T
        for i in range(1, a):
            top = shifted[i - 1, -1]
            shifted[i, 0] = 0
            shifted[i, 1:] = shifted[i - 1, :-1]
            shifted[i] = (shifted[i] - low * top) % p
        # one q x q matmul per output digit: digit k of x * y is
        # sum_i x_i * digit k of (y * x^i), mod p
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for k in range(a):
            add += (digits[:, k, None] + digits[None, :, k]) % p * weights[k]
            mul += digits @ shifted[:, k] % p * weights[k]
        self._add_table = add
        self._mul_table = mul

        # the row of a unit contains 1 exactly once; row 0 maps to 0
        self._inv_table = np.argmax(self._mul_table == 1, axis=1)

    # --------------------------------------------------------------- scalars

    def add(self, x: int, y: int) -> int:
        if self._add_table is None:
            return (x + y) % self.order
        return int(self._add_table[x, y])

    def neg(self, x: int) -> int:
        return int(self._neg_table[x])

    def sub(self, x: int, y: int) -> int:
        return self.add(x, int(self._neg_table[y]))

    def mul(self, x: int, y: int) -> int:
        if self._mul_table is None:
            return (x * y) % self.order
        return int(self._mul_table[x, y])

    def inv(self, x: int) -> int:
        if x % self.order == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self._inv_table[x % self.order])

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(x), -e)
        acc, base = 1, x
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    @property
    def elements(self) -> range:
        """All field elements in canonical order ``0..q-1``."""
        return range(self.order)

    # --------------------------------------------------------------- vectors

    def vadd(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Element-wise field addition of integer-coded arrays."""
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        if self._add_table is None:
            return (x + y) % self.order
        return self._add_table[x, y]

    def vmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Element-wise field multiplication of integer-coded arrays."""
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        if self._mul_table is None:
            return (x * y) % self.order
        return self._mul_table[x, y]

    def vneg(self, x: np.ndarray) -> np.ndarray:
        """Element-wise field negation of integer-coded arrays."""
        return self._neg_table[np.asarray(x, dtype=np.int64)]

    # ------------------------------------------------------------- encodings

    def to_poly(self, e: int) -> Tuple[int, ...]:
        """Coefficient tuple (ascending degree) of element ``e`` over F_p."""
        if self.degree == 1:
            return P.poly_trim((e % self.order,))
        return P.poly_trim(self._digits[e].tolist())

    def from_poly(self, coeffs) -> int:
        """Integer coding of a coefficient tuple over F_p."""
        p = self.char
        enc = 0
        for d, c in enumerate(coeffs):
            enc += (c % p) * (p**d)
        if enc >= self.order:
            raise ValueError("coefficient tuple exceeds field degree")
        return enc

    # ----------------------------------------------------------------- misc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.degree == 1:
            return f"GF({self.order})"
        return f"GF({self.char}^{self.degree}; modulus={self.modulus})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and other.order == self.order

    def __hash__(self) -> int:
        return hash(("GF", self.order))


@lru_cache(maxsize=None, typed=True)
def get_field(q: int) -> GF:
    """Memoized field factory — table construction is done once per order.

    ``typed`` keeps ``7.0`` and ``True`` from hitting the entries of ``7``
    and ``1``, so they reach :class:`GF`'s type check.
    """
    return GF(q)


def _smallest_modulus(p: int, a: int) -> Tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree ``a`` over F_p.

    A monic of degree ``a`` is coded by its low coefficients as base-``p``
    digits; that code orders monics lexicographically (high coefficients
    most significant). Every product of monic factors of degrees ``d`` and
    ``a - d`` (``1 <= d <= a/2``) is marked reducible; the smallest
    unmarked code is the answer. Same result as
    ``smallest_irreducible(GF(p), a)``.
    """
    reducible = np.zeros(p**a, dtype=bool)
    weights = p ** np.arange(a, dtype=np.int64)
    for d in range(1, a // 2 + 1):
        left, right = _monic_coefficients(p, d), _monic_coefficients(p, a - d)
        prod = np.zeros((len(left), len(right), a + 1), dtype=np.int64)
        for i in range(d + 1):
            prod[:, :, i : i + a - d + 1] += left[:, None, i, None] * right[None, :, :]
        reducible[prod[:, :, :a] % p @ weights] = True
    code = int(np.argmin(reducible))
    return tuple(int(c) for c in code // weights % p) + (1,)


def _monic_coefficients(p: int, d: int) -> np.ndarray:
    """All monic degree-``d`` polynomials over F_p, ascending coefficients."""
    codes = np.arange(p**d, dtype=np.int64)[:, None]
    low = codes // p ** np.arange(d, dtype=np.int64) % p
    return np.concatenate([low, np.ones_like(codes)], axis=1)
