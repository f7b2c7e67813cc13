"""Polynomial arithmetic over an arbitrary finite field.

Polynomials are tuples of integer-coded field elements in *ascending* degree
order with no trailing zeros (the zero polynomial is the empty tuple). All
functions take the coefficient field as an explicit ``field`` argument —
any object exposing scalar ``add/sub/mul/neg/inv`` over integer-coded
elements qualifies, in particular :class:`repro.gf.GF`. This keeps the
module free of an import cycle with :mod:`repro.gf.gf`, which uses it for
element encodings.

Section 6.2 prescribes the lexicographically smallest degree-3 primitive
polynomial over ``F_q`` for reproducible difference sets.
:func:`primitive_polys_lex` finds it table-driven: a monic of degree 2 or
3 is irreducible iff it has no root in ``F_q``, which one block of ``q^2``
candidates at a time is sieved for with the field's vector ops; the order
test ``x^((q^n-1)/r) != 1`` then runs square-and-multiply in
``F_q[x]/(f)`` over the field's add/mul tables as Python lists. Rabin's
irreducibility test (:func:`is_irreducible`), :func:`is_primitive` and
:func:`poly_powmod` remain as the generic oracles the fast path is tested
against; the library no longer calls them.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.utils.numbertheory import prime_factors

Poly = Tuple[int, ...]

__all__ = [
    "ZERO",
    "ONE",
    "X",
    "poly_trim",
    "poly_deg",
    "poly_add",
    "poly_sub",
    "poly_neg",
    "poly_scale",
    "poly_mul",
    "poly_divmod",
    "poly_mod",
    "poly_gcd",
    "poly_powmod",
    "poly_eval",
    "poly_monic",
    "is_irreducible",
    "is_primitive",
    "monic_polys_lex",
    "primitive_polys_lex",
    "smallest_irreducible",
    "smallest_primitive",
]

ZERO: Poly = ()
ONE: Poly = (1,)
X: Poly = (0, 1)


def poly_trim(coeffs: Iterable[int]) -> Poly:
    """Normalize a coefficient sequence: drop trailing (high-degree) zeros."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_deg(f: Poly) -> int:
    """Degree of ``f``; the zero polynomial has degree -1 by convention."""
    return len(f) - 1


def poly_add(field, f: Poly, g: Poly) -> Poly:
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out.append(field.add(a, b))
    return poly_trim(out)


def poly_neg(field, f: Poly) -> Poly:
    return tuple(field.neg(c) for c in f)


def poly_sub(field, f: Poly, g: Poly) -> Poly:
    return poly_add(field, f, poly_neg(field, g))


def poly_scale(field, f: Poly, s: int) -> Poly:
    if s == 0:
        return ZERO
    return poly_trim(field.mul(c, s) for c in f)


def poly_mul(field, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b == 0:
                continue
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return poly_trim(out)


def poly_divmod(field, f: Poly, g: Poly) -> Tuple[Poly, Poly]:
    """Euclidean division ``f = q*g + r`` with ``deg r < deg g``."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem: List[int] = list(f)
    dg = poly_deg(g)
    lead_inv = field.inv(g[-1])
    quot = [0] * max(len(f) - dg, 0)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        factor = field.mul(c, lead_inv)
        quot[i - dg] = factor
        for j in range(dg + 1):
            rem[i - dg + j] = field.sub(rem[i - dg + j], field.mul(factor, g[j]))
    return poly_trim(quot), poly_trim(rem)


def poly_mod(field, f: Poly, g: Poly) -> Poly:
    return poly_divmod(field, f, g)[1]


def poly_monic(field, f: Poly) -> Poly:
    """Scale ``f`` so its leading coefficient is 1."""
    if not f:
        return ZERO
    return poly_scale(field, f, field.inv(f[-1]))


def poly_gcd(field, f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    a, b = f, g
    while b:
        a, b = b, poly_mod(field, a, b)
    return poly_monic(field, a)


def poly_powmod(field, f: Poly, e: int, m: Poly) -> Poly:
    """Compute ``f^e mod m`` by square-and-multiply."""
    if e < 0:
        raise ValueError("negative exponent")
    result: Poly = ONE
    base = poly_mod(field, f, m)
    while e:
        if e & 1:
            result = poly_mod(field, poly_mul(field, result, base), m)
        base = poly_mod(field, poly_mul(field, base, base), m)
        e >>= 1
    return result


def poly_eval(field, f: Poly, x: int) -> int:
    """Evaluate ``f`` at the field element ``x`` (Horner's rule)."""
    acc = 0
    for c in reversed(f):
        acc = field.add(field.mul(acc, x), c)
    return acc


def is_irreducible(field, f: Poly) -> bool:
    """Rabin's irreducibility test over ``F_q`` (q = field.order).

    ``f`` of degree ``n`` is irreducible iff ``x^{q^n} == x (mod f)`` and for
    every prime ``r | n``, ``gcd(x^{q^{n/r}} - x, f) == 1``.
    """
    n = poly_deg(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    q = field.order
    for r in prime_factors(n):
        h = poly_sub(field, poly_powmod(field, X, q ** (n // r), f), X)
        if poly_deg(poly_gcd(field, h, f)) > 0:
            return False
    return poly_powmod(field, X, q**n, f) == poly_mod(field, X, f)


def is_primitive(field, f: Poly) -> bool:
    """True iff monic ``f`` is primitive: irreducible with root of order q^n - 1.

    Equivalently, ``x`` generates the multiplicative group of
    ``F_q[x]/(f)``: ``x^{(q^n-1)/r} != 1`` for every prime ``r | q^n - 1``.
    """
    n = poly_deg(f)
    if n <= 0 or not is_irreducible(field, f):
        return False
    group = field.order**n - 1
    for r in prime_factors(group):
        if poly_powmod(field, X, group // r, f) == ONE:
            return False
    return True


def monic_polys_lex(field, degree: int):
    """Yield all monic polynomials of ``degree`` in lexicographic order.

    Order: coefficient vectors ``(c_{n-1}, ..., c_1, c_0)`` compared as
    integer tuples under the field's canonical 0..q-1 element coding, i.e.
    ``x^n + c_{n-1} x^{n-1} + ... + c_0`` sorted by high-degree coefficients
    first. This is the ordering used to pin down "the lexicographically
    smallest degree-3 polynomial" of Section 6.2.
    """
    q = field.order
    coeffs = [0] * degree
    while True:
        yield poly_trim(tuple(reversed(coeffs)) + (1,))
        # increment the (c_{n-1}, ..., c_0) odometer, least significant last
        i = degree - 1
        while i >= 0:
            coeffs[i] += 1
            if coeffs[i] < q:
                break
            coeffs[i] = 0
            i -= 1
        if i < 0:
            return


def smallest_irreducible(field, degree: int) -> Poly:
    """Lexicographically smallest monic irreducible polynomial of ``degree``."""
    for f in monic_polys_lex(field, degree):
        if is_irreducible(field, f):
            return f
    raise RuntimeError(
        f"no monic irreducible of degree {degree} over F_{field.order}"
    )  # pragma: no cover - irreducibles always exist


def primitive_polys_lex(field, degree: int) -> Iterator[Poly]:
    """Yield the monic primitive polynomials of ``degree`` in lex order.

    The order is that of :func:`monic_polys_lex`. Degrees 2 and 3 take the
    table-driven path (rootless sieve, then the order test over list
    tables; ``field`` must offer ``vadd``/``vmul``/``vneg`` like
    :class:`repro.gf.GF`); other degrees filter with :func:`is_primitive`.
    """
    if degree not in (2, 3):
        yield from (f for f in monic_polys_lex(field, degree) if is_primitive(field, f))
        return
    q = field.order
    elems = np.arange(q, dtype=np.int64)
    add = field.vadd(elems[:, None], elems[None, :]).tolist()
    mul = field.vmul(elems[:, None], elems[None, :]).tolist()
    group = q**degree - 1
    exponents = [group // r for r in prime_factors(group)]
    one = [1] + [0] * (degree - 1)
    for f in _rootless_monics_lex(field, degree):
        fold = [field.neg(c) for c in f[:degree]]  # x^n = sum fold[t] x^t
        if all(_x_power_mod(add, mul, fold, e) != one for e in exponents):
            yield f


def _rootless_monics_lex(field, degree: int) -> Iterator[Poly]:
    """Monic polynomials of ``degree`` without a root in F_q, in lex order.

    Candidates come in blocks of ``q^2`` sharing ``(c_{n-1}, ..., c_2)``.
    In a block, ``t`` is a root of ``x^n + ... + c_1 x + c_0`` iff
    ``c_0 = -(t^n + ... + c_1 t)``; one table lookup per ``(c_1, t)`` marks
    every rooted ``(c_1, c_0)``, and the unmarked ones are read off in
    row-major (= lex) order.
    """
    q = field.order
    t = np.arange(q, dtype=np.int64)
    powers = [np.ones(q, dtype=np.int64), t]
    while len(powers) <= degree:
        powers.append(field.vmul(powers[-1], t))
    c1_t = field.vmul(t[:, None], t[None, :])  # [c_1, t] -> c_1 t
    for high in product(range(q), repeat=degree - 2):  # (c_{n-1}, ..., c_2)
        value = powers[degree]
        for c, power in zip(high, reversed(powers[2:degree])):
            value = field.vadd(value, field.vmul(c, power))
        rooted = np.zeros((q, q), dtype=bool)
        rooted[t[:, None], field.vneg(field.vadd(value[None, :], c1_t))] = True
        tail = tuple(reversed(high)) + (1,)
        for code in np.flatnonzero(~rooted).tolist():
            c1, c0 = divmod(code, q)
            yield (c0, c1) + tail


def _x_power_mod(add, mul, fold, e: int) -> List[int]:
    """``x^e`` in ``F_q[x]/(f)`` by left-to-right square-and-multiply.

    Elements are coefficient lists of length ``n = deg f``; ``add``/``mul``
    are the field tables as nested lists and ``fold`` the coefficients of
    ``x^n`` reduced mod ``f``. Multiplying by ``x`` is a shift plus one fold.
    """
    n = len(fold)
    acc = [1] + [0] * (n - 1)
    for bit in bin(e)[2:]:
        sq = [0] * (2 * n - 1)
        for i, a in enumerate(acc):
            if a:
                row = mul[a]
                for j, b in enumerate(acc):
                    sq[i + j] = add[sq[i + j]][row[b]]
        if bit == "1":
            sq.insert(0, 0)
        else:
            sq.append(0)
        for k in range(2 * n - 1, n - 1, -1):
            c = sq[k]
            if c:
                row = mul[c]
                for j in range(n):
                    sq[k - n + j] = add[sq[k - n + j]][row[fold[j]]]
        acc = sq[:n]
    return acc


def smallest_primitive(field, degree: int) -> Poly:
    """Lexicographically smallest monic primitive polynomial of ``degree``."""
    for f in primitive_polys_lex(field, degree):
        return f
    raise RuntimeError(
        f"no monic primitive of degree {degree} over F_{field.order}"
    )  # pragma: no cover - primitives always exist
