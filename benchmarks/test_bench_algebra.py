"""E-A17 — the table-driven algebra layer against the generic polynomial code.

Workload: the three algebra steps behind every Singer difference set and
every ER_q adjacency, summed over the Figure 5 sweep (the 43 prime powers
3 <= q <= 128):

1. field tables — ``GF(q)`` (sieved modulus, per-digit matrix products for
   the multiplication table) versus the scalar construction it replaced:
   Rabin's test picks the modulus and every product is
   ``poly_mod(poly_mul(...))``;
2. primitive search — ``smallest_primitive`` (rootless sieve plus order
   test over list tables) versus a lex scan with the generic
   ``is_primitive``;
3. Singer walk — the doubling walk over powers of zeta versus the
   one-power-at-a-time scalar walk.

Each table-driven result is first checked equal to its oracle's, then
timed against it on the same host. Only the dimensionless speedups are
gated (>= 3x per step), so the gate does not depend on the host. Wall
times land in ``benchmark.extra_info`` and ``BENCH_algebra.json`` as
columns.
"""

import json
import time
from pathlib import Path

import numpy as np
from conftest import record

from repro.gf import (
    GF,
    get_field,
    is_primitive,
    monic_polys_lex,
    poly_mod,
    poly_mul,
    smallest_irreducible,
    smallest_primitive,
)
from repro.topology.singer import _zeta_walk
from repro.utils import prime_powers_in_range

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_algebra.json"
SPEEDUP_TARGET = 3.0
QS = prime_powers_in_range(3, 128)


def _persist(case_id, payload):
    data = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    data[case_id] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _timed(fn, args_list):
    """(results, seconds) of ``fn`` over every argument tuple, in one pass."""
    t0 = time.perf_counter()
    out = [fn(*args) for args in args_list]
    return out, time.perf_counter() - t0


# ------------------------------------------------------------------ oracles


def _oracle_mul_table(q):
    """The scalar construction: Rabin modulus, O(q^2) poly_mul/poly_mod."""
    field = get_field(q)
    if field.degree == 1:
        return None
    p = field.char
    base = get_field(p)
    modulus = smallest_irreducible(base, field.degree)
    polys = [field.to_poly(e) for e in range(q)]
    mul = np.zeros((q, q), dtype=np.int64)
    for i in range(q):
        for j in range(i, q):
            prod = poly_mod(base, poly_mul(base, polys[i], polys[j]), modulus)
            mul[i, j] = mul[j, i] = sum(c * p**d for d, c in enumerate(prod))
    return mul


def _oracle_smallest_primitive(field):
    return next(f for f in monic_polys_lex(field, 3) if is_primitive(field, f))


def _oracle_walk(field, f):
    """One power of zeta per step, with scalar field ops."""
    q = field.order
    m2, m1, m0 = (field.neg(c) for c in (f[2], f[1], f[0]))
    i, j, k = 0, 0, 1
    out = []
    for ell in range(q * q + q + 1):
        if i == 0:
            out.append(ell)
        i, j, k = (
            field.add(j, field.mul(i, m2)),
            field.add(k, field.mul(i, m1)),
            field.mul(i, m0),
        )
    return tuple(out)


def _table_mul(q):
    field = GF(q)
    return None if field.degree == 1 else field._mul_table


# ------------------------------------------------------------------- cases


def _gate(benchmark, case_id, oracle_s, table_s, fn):
    speedup = oracle_s / table_s
    benchmark.pedantic(fn, rounds=3, iterations=1)
    payload = {
        "orders": len(QS),
        "oracle_ms": round(oracle_s * 1e3, 1),
        "table_ms": round(table_s * 1e3, 2),
        "speedup": round(speedup, 1),
        "target": SPEEDUP_TARGET,
    }
    record(benchmark, **payload)
    _persist(case_id, payload)
    assert speedup >= SPEEDUP_TARGET, (
        f"{case_id}: only {speedup:.1f}x faster than the oracle "
        f"(target {SPEEDUP_TARGET}x summed over {len(QS)} orders)"
    )


def test_field_tables(benchmark):
    args = [(q,) for q in QS]
    ref, ref_s = _timed(_oracle_mul_table, args)
    new, new_s = _timed(_table_mul, args)
    for q, a, b in zip(QS, ref, new):
        assert (a is None and b is None) or np.array_equal(a, b), q
    _gate(benchmark, "field-tables", ref_s, new_s, lambda: _timed(_table_mul, args))


def test_primitive_search(benchmark):
    args = [(get_field(q),) for q in QS]
    ref, ref_s = _timed(_oracle_smallest_primitive, args)
    new, new_s = _timed(lambda f: smallest_primitive(f, 3), args)
    assert new == ref
    _gate(
        benchmark, "primitive-search", ref_s, new_s,
        lambda: _timed(lambda f: smallest_primitive(f, 3), args),
    )


def test_singer_walk(benchmark):
    args = [(get_field(q), smallest_primitive(get_field(q), 3)) for q in QS]
    ref, ref_s = _timed(_oracle_walk, args)
    new, new_s = _timed(_zeta_walk, args)
    assert new == ref
    _gate(benchmark, "singer-walk", ref_s, new_s, lambda: _timed(_zeta_walk, args))
