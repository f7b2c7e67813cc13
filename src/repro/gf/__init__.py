"""Galois-field substrate: GF(p^a) arithmetic and polynomial machinery.

Built from scratch (the paper used the ``galois`` package and PARI); see
DESIGN.md S2. Field tables, the primitive search and the Singer walk are
table-driven and vectorized; the generic polynomial tests stay as oracles.
The two consumers are the projective-geometry construction of
ER_q (orthogonality over ``F_q^3``) and the Singer difference-set
construction (powers of a primitive root of ``F_{q^3}``).
"""

from repro.gf.gf import GF, MAX_ORDER, get_field
from repro.gf.poly import (
    ONE,
    X,
    ZERO,
    is_irreducible,
    is_primitive,
    monic_polys_lex,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mod,
    poly_monic,
    poly_mul,
    poly_neg,
    poly_powmod,
    poly_scale,
    poly_sub,
    poly_trim,
    primitive_polys_lex,
    smallest_irreducible,
    smallest_primitive,
)

__all__ = [
    "GF",
    "MAX_ORDER",
    "get_field",
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
