"""Unit + property tests for the Galois-field substrate (repro.gf)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import (
    GF,
    MAX_ORDER,
    ONE,
    X,
    ZERO,
    get_field,
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
    poly_powmod,
    poly_sub,
    poly_trim,
    primitive_polys_lex,
    smallest_irreducible,
    smallest_primitive,
)
from repro.gf.gf import _smallest_modulus
from repro.utils import prime_power_decomposition, prime_powers_in_range

FIELD_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]


@pytest.fixture(params=FIELD_ORDERS, ids=lambda q: f"GF{q}")
def field(request):
    return get_field(request.param)


class TestFieldConstruction:
    def test_invalid_order(self):
        for q in (0, 1, 6, 10, 12):
            with pytest.raises(ValueError):
                GF(q)

    def test_attributes(self):
        f = get_field(9)
        assert f.order == 9 and f.char == 3 and f.degree == 2
        assert f.modulus is not None and poly_deg(f.modulus) == 2

    def test_prime_field_has_no_modulus(self):
        assert get_field(7).modulus is None

    def test_gf4_standard_modulus(self):
        # x^2 + x + 1 is the unique irreducible quadratic over F_2.
        assert get_field(4).modulus == (1, 1, 1)

    def test_factory_memoizes(self):
        assert get_field(5) is get_field(5)

    def test_equality_and_hash(self):
        assert GF(5) == GF(5)
        assert GF(5) != GF(7)
        assert hash(GF(5)) == hash(GF(5))


class TestOrderValidation:
    @pytest.mark.parametrize("bad", [7.0, True, False, "7", None, 2.5])
    def test_non_integer_orders_raise_type_error(self, bad):
        with pytest.raises(TypeError, match="field order must be an int"):
            GF(bad)
        with pytest.raises(TypeError, match="field order must be an int"):
            get_field(bad)

    def test_float_does_not_hit_the_cached_int_field(self):
        get_field(7)
        with pytest.raises(TypeError):
            get_field(7.0)
        with pytest.raises(TypeError):
            get_field(True)  # == 1, but must not be treated as an order

    def test_numpy_integers_are_orders(self):
        assert GF(np.int64(9)) == get_field(9)
        assert get_field(np.int32(5)).order == 5

    @pytest.mark.parametrize("q", [2**61, 2**61 - 1, 2 * MAX_ORDER, MAX_ORDER + 7])
    def test_orders_past_the_table_bound_fail_up_front(self, q):
        with pytest.raises(ValueError, match=f"q <= MAX_ORDER = {MAX_ORDER}"):
            get_field(q)

    def test_bound_is_a_supported_order(self):
        assert get_field(MAX_ORDER).order == MAX_ORDER


class TestFieldAxioms:
    """Exhaustive axioms checks on every element pair (fields are small)."""

    def test_additive_group(self, field):
        q = field.order
        for x in range(q):
            assert field.add(x, 0) == x
            assert field.add(x, field.neg(x)) == 0
            for y in range(q):
                assert field.add(x, y) == field.add(y, x)

    def test_multiplicative_group(self, field):
        q = field.order
        for x in range(q):
            assert field.mul(x, 1) == x
            assert field.mul(x, 0) == 0
            if x != 0:
                assert field.mul(x, field.inv(x)) == 1

    def test_associativity_and_distributivity_sampled(self, field):
        q = field.order
        rng = np.random.default_rng(q)
        for _ in range(60):
            x, y, z = (int(v) for v in rng.integers(0, q, 3))
            assert field.add(field.add(x, y), z) == field.add(x, field.add(y, z))
            assert field.mul(field.mul(x, y), z) == field.mul(x, field.mul(y, z))
            assert field.mul(x, field.add(y, z)) == field.add(field.mul(x, y), field.mul(x, z))

    def test_no_zero_divisors(self, field):
        q = field.order
        for x in range(1, q):
            for y in range(1, q):
                assert field.mul(x, y) != 0

    def test_inverse_of_zero_raises(self, field):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)

    def test_div_and_pow(self, field):
        q = field.order
        for x in range(1, q):
            assert field.div(x, x) == 1
            # Lagrange: x^(q-1) == 1 for units, x^q == x for all.
            assert field.pow(x, q - 1) == 1
        for x in range(q):
            assert field.pow(x, q) == x

    def test_pow_negative_exponent(self, field):
        q = field.order
        for x in range(1, q):
            assert field.mul(field.pow(x, -1), x) == 1

    def test_frobenius_is_additive(self, field):
        # (x+y)^p == x^p + y^p in characteristic p.
        p, q = field.char, field.order
        for x in range(q):
            for y in range(q):
                lhs = field.pow(field.add(x, y), p)
                rhs = field.add(field.pow(x, p), field.pow(y, p))
                assert lhs == rhs


class TestVectorOps:
    def test_vadd_vmul_match_scalar(self, field):
        q = field.order
        xs, ys = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
        va = field.vadd(xs, ys)
        vm = field.vmul(xs, ys)
        for x in range(q):
            for y in range(q):
                assert va[x, y] == field.add(x, y)
                assert vm[x, y] == field.mul(x, y)

    def test_vneg(self, field):
        q = field.order
        vn = field.vneg(np.arange(q))
        for x in range(q):
            assert vn[x] == field.neg(x)

    def test_neg_and_sub_match_digitwise_arithmetic(self, field):
        # negation is coefficient-wise mod p in the base-p element coding
        p = field.char
        for x in range(field.order):
            neg = field.from_poly(tuple(-c % p for c in field.to_poly(x)))
            assert field.neg(x) == neg
            for y in range(0, field.order, 3):
                assert field.add(field.sub(x, y), y) == x

    def test_shapes_preserved(self, field):
        a = np.zeros((3, 4), dtype=np.int64)
        assert field.vadd(a, a).shape == (3, 4)
        assert field.vmul(a, a).shape == (3, 4)


class TestEncodings:
    def test_roundtrip(self, field):
        for e in range(field.order):
            assert field.from_poly(field.to_poly(e)) == e

    def test_to_poly_of_zero(self, field):
        assert field.to_poly(0) == ()

    def test_from_poly_overflow(self):
        f = get_field(4)
        with pytest.raises(ValueError):
            f.from_poly((0, 0, 1))  # degree 2 >= field degree 2


class TestPolyArithmetic:
    def setup_method(self):
        self.f5 = get_field(5)

    def test_trim(self):
        assert poly_trim([0, 0, 0]) == ()
        assert poly_trim([1, 2, 0]) == (1, 2)

    def test_add_sub_roundtrip(self):
        f, g = (1, 2, 3), (4, 4)
        s = poly_add(self.f5, f, g)
        assert poly_sub(self.f5, s, g) == f

    def test_mul_known(self):
        # (x+1)(x+4) = x^2 + 5x + 4 = x^2 + 4 over F_5
        assert poly_mul(self.f5, (1, 1), (4, 1)) == (4, 0, 1)

    def test_divmod_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f = poly_trim(rng.integers(0, 5, 6).tolist())
            g = poly_trim(rng.integers(0, 5, 3).tolist())
            if not g:
                continue
            qt, r = poly_divmod(self.f5, f, g)
            assert poly_deg(r) < poly_deg(g)
            back = poly_add(self.f5, poly_mul(self.f5, qt, g), r)
            assert back == f

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(self.f5, (1, 1), ZERO)

    def test_gcd_monic_and_divides(self):
        f = poly_mul(self.f5, (1, 1), (2, 1))
        g = poly_mul(self.f5, (1, 1), (3, 1))
        d = poly_gcd(self.f5, f, g)
        assert d == poly_monic(self.f5, (1, 1))

    def test_powmod_matches_naive(self):
        m = (2, 0, 1)  # x^2 + 2
        acc = ONE
        for e in range(8):
            assert poly_powmod(self.f5, X, e, m) == acc
            acc = poly_mod(self.f5, poly_mul(self.f5, acc, X), m)

    def test_powmod_negative_exponent(self):
        with pytest.raises(ValueError):
            poly_powmod(self.f5, X, -1, (1, 0, 1))

    def test_eval_horner(self):
        # f(x) = 3 + 2x + x^2 at x=4 over F_5: 3 + 8 + 16 = 27 = 2
        assert poly_eval(self.f5, (3, 2, 1), 4) == 2

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
    @settings(max_examples=25)
    def test_eval_of_product(self, x, y):
        f, g = (1, 2, 1), (3, 1)
        lhs = poly_eval(self.f5, poly_mul(self.f5, f, g), x)
        rhs = self.f5.mul(poly_eval(self.f5, f, x), poly_eval(self.f5, g, x))
        assert lhs == rhs


class TestIrreducibility:
    def test_known_irreducibles(self):
        f2, f3 = get_field(2), get_field(3)
        assert is_irreducible(f2, (1, 1, 1))  # x^2+x+1
        assert not is_irreducible(f2, (1, 0, 1))  # x^2+1 = (x+1)^2
        assert is_irreducible(f3, (1, 2, 0, 1))  # x^3+2x+1
        assert not is_irreducible(f3, (2, 0, 0, 1))  # x^3+2 has root 1

    def test_degree_one_always_irreducible(self):
        assert is_irreducible(get_field(7), (3, 1))

    def test_constants_not_irreducible(self):
        assert not is_irreducible(get_field(7), (3,))
        assert not is_irreducible(get_field(7), ZERO)

    def test_cubic_irreducible_iff_rootless(self):
        # For degree <= 3, irreducible over F_q iff no roots in F_q.
        f7 = get_field(7)
        for fpoly in monic_polys_lex(f7, 3):
            has_root = any(poly_eval(f7, fpoly, x) == 0 for x in range(7))
            assert is_irreducible(f7, fpoly) == (not has_root)

    def test_counting_monic_irreducible_quadratics(self):
        # Over F_q there are exactly (q^2 - q)/2 monic irreducible quadratics.
        for q in (2, 3, 4, 5, 7, 9):
            f = get_field(q)
            count = sum(1 for g in monic_polys_lex(f, 2) if is_irreducible(f, g))
            assert count == (q * q - q) // 2


class TestPrimitivity:
    def test_primitive_implies_irreducible(self):
        f3 = get_field(3)
        for g in monic_polys_lex(f3, 3):
            if is_primitive(f3, g):
                assert is_irreducible(f3, g)

    def test_known_primitive_over_f3(self):
        # x^3 + 2x + 1 is the classic primitive cubic over F_3.
        assert is_primitive(get_field(3), (1, 2, 0, 1))

    def test_irreducible_but_not_primitive(self):
        # x^2 + 1 over F_3: root i has order 4 != 8, so irreducible non-primitive.
        f3 = get_field(3)
        assert is_irreducible(f3, (1, 0, 1))
        assert not is_primitive(f3, (1, 0, 1))

    def test_counting_primitive_cubics(self):
        # # primitive degree-n polys over F_q = phi(q^n - 1) / n.
        from repro.utils import euler_totient

        for q in (2, 3, 4):
            f = get_field(q)
            count = sum(1 for g in monic_polys_lex(f, 3) if is_primitive(f, g))
            assert count == euler_totient(q**3 - 1) // 3


def _extension_orders(hi):
    return [
        q for q in prime_powers_in_range(2, hi) if prime_power_decomposition(q)[1] > 1
    ]


EXTENSION_ORDERS = _extension_orders(128)


class TestTableOracles:
    """The table-driven construction against the generic polynomial code."""

    @pytest.mark.parametrize("q", EXTENSION_ORDERS)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_mul_table_matches_poly_arithmetic(self, q, data):
        field = get_field(q)
        base = get_field(field.char)
        x, y = (data.draw(st.integers(0, q - 1)) for _ in range(2))
        prod = poly_mod(base, poly_mul(base, field.to_poly(x), field.to_poly(y)),
                        field.modulus)
        assert field.mul(x, y) == field.from_poly(prod)
        assert field.vmul(np.array([x]), np.array([y]))[0] == field.mul(x, y)

    @pytest.mark.parametrize(
        "p,a", [prime_power_decomposition(q) for q in _extension_orders(MAX_ORDER)]
    )
    def test_modulus_sieve_matches_rabin_scan(self, p, a):
        assert _smallest_modulus(p, a) == smallest_irreducible(get_field(p), a)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    @pytest.mark.parametrize("degree", [2, 3])
    def test_fast_primitivity_matches_generic_on_every_monic(self, q, degree):
        f = get_field(q)
        generic = [g for g in monic_polys_lex(f, degree) if is_primitive(f, g)]
        assert list(primitive_polys_lex(f, degree)) == generic

    def test_other_degrees_take_the_generic_path(self):
        f2 = get_field(2)
        quartics = [g for g in monic_polys_lex(f2, 4) if is_primitive(f2, g)]
        assert quartics == [(1, 1, 0, 0, 1), (1, 0, 0, 1, 1)]
        assert list(primitive_polys_lex(f2, 4)) == quartics


class TestSmallestPolys:
    def test_smallest_irreducible_is_minimal(self):
        f2 = get_field(2)
        assert smallest_irreducible(f2, 2) == (1, 1, 1)

    def test_smallest_primitive_f3_cubic(self):
        # Scanning lex order over F_3 cubics the first primitive is x^3+2x+1.
        assert smallest_primitive(get_field(3), 3) == (1, 2, 0, 1)

    def test_smallest_primitive_is_primitive(self):
        for q in (2, 3, 4, 5, 7, 8, 9):
            f = get_field(q)
            g = smallest_primitive(f, 3)
            assert poly_deg(g) == 3 and g[-1] == 1
            assert is_primitive(f, g)

    def test_lex_order_of_generator(self):
        f3 = get_field(3)
        polys = list(monic_polys_lex(f3, 2))
        assert len(polys) == 9
        assert polys[0] == (0, 0, 1)  # x^2
        assert polys[1] == (1, 0, 1)  # x^2 + 1
        assert polys[3] == (0, 1, 1)  # x^2 + x
        assert polys[-1] == (2, 2, 1)  # x^2 + 2x + 2


# ---------------------------------------------------------------- pinning
#
# sha256 digests of the smallest primitive cubic over every GF(q), q <= 128,
# and of every extension-field multiplication table in that range. They were
# recorded from the scalar polynomial-arithmetic construction (poly_mul /
# poly_mod tables, Rabin + order tests over poly_powmod) that the
# table-driven construction replaced; any drift in element coding, modulus
# choice or candidate order changes a digest.

PRIMITIVE_CUBIC_SHA256 = {
    2: "55f40626364506d3abbd15c18ecacb098779a598245e16b337cca6f23f39c7ca",
    3: "dcdd98fe134030134d5d458ea8abb063687572e0071a5ea3328a5e656a5527f0",
    4: "609b1c47af15833dffc4d25b9a3b1c80dd18a2b2d15a7e202b464b120200f4d0",
    5: "845280786e5e924f8b5de5e6f054c3ee0c9b8c1b0d07114fecce22bb4f80322e",
    7: "845280786e5e924f8b5de5e6f054c3ee0c9b8c1b0d07114fecce22bb4f80322e",
    8: "cea840b5b2dbb30b86378b0f087f9766b400dfea2d3b6d21cd51421b047f571d",
    9: "d26dc40fcab44be71764728a6ad30ddeb78fe9fde12194e71a2ba7ac6056aaf3",
    11: "d26dc40fcab44be71764728a6ad30ddeb78fe9fde12194e71a2ba7ac6056aaf3",
    13: "f33b34bac5ba79a576d2b1dd63d8f867ca72405170a42044efb827401173cddb",
    16: "b59910b2789257a44e8d04ac36493cb2eabc7f689b6ac9d9389039ddcc6defe6",
    17: "8593c5886375e9554cf8d90cbebcebbe6d6a333f64932fdaf63580fe8a089649",
    19: "d26dc40fcab44be71764728a6ad30ddeb78fe9fde12194e71a2ba7ac6056aaf3",
    23: "8593c5886375e9554cf8d90cbebcebbe6d6a333f64932fdaf63580fe8a089649",
    25: "f33b34bac5ba79a576d2b1dd63d8f867ca72405170a42044efb827401173cddb",
    27: "764f81ef68ce771e95a6f64956071dd8e57b3a9a8cbe7cfd498f04a60d8bd1bf",
    29: "1720b4af0ca8d7dcd17c9123b69662e78b8458a189b3867a57ede92b63a8bd33",
    31: "ad727cd96b2eb7e05b58b81a01cb12975a6880e9f769b8580848990d92fa9540",
    32: "f33b34bac5ba79a576d2b1dd63d8f867ca72405170a42044efb827401173cddb",
    37: "91552fd3a2fb5c3c54f96719a4aa4753eb40b733cf50db99dff795669d502288",
    41: "f33b34bac5ba79a576d2b1dd63d8f867ca72405170a42044efb827401173cddb",
    43: "ad727cd96b2eb7e05b58b81a01cb12975a6880e9f769b8580848990d92fa9540",
    47: "d26dc40fcab44be71764728a6ad30ddeb78fe9fde12194e71a2ba7ac6056aaf3",
    49: "76e0fafe07175fe9f09a3045c23aa9abfe7a3433826eb08afbc75d1aa538b67c",
    53: "4b0d47d7ddd139913be59faa34efb1707af541917bb0336c8e127faf1f7e3836",
    59: "8593c5886375e9554cf8d90cbebcebbe6d6a333f64932fdaf63580fe8a089649",
    61: "0c386386e0f781568b7273c202a9bb02e452aab9d78ee29a370e76146784ebd8",
    64: "06685d0237a736d4dfa6228b7e196ee4b1a5a2d69d722c14981a9a8f51c7e4ac",
    67: "f33b34bac5ba79a576d2b1dd63d8f867ca72405170a42044efb827401173cddb",
    71: "309b851928273479043aad93e3e6dc8f3110c214fbec5f1aaf18221f6d10580c",
    73: "91552fd3a2fb5c3c54f96719a4aa4753eb40b733cf50db99dff795669d502288",
    79: "b59910b2789257a44e8d04ac36493cb2eabc7f689b6ac9d9389039ddcc6defe6",
    81: "8593c5886375e9554cf8d90cbebcebbe6d6a333f64932fdaf63580fe8a089649",
    83: "70f22302c7240bd50059da9ac5e53a21f074531455f2ff9afcf9f6ee03ebc97f",
    89: "1fe7ceddc6f03c6d63334d20fbca9d731e488f103f53e0745b31c17cd5fbadda",
    97: "70f22302c7240bd50059da9ac5e53a21f074531455f2ff9afcf9f6ee03ebc97f",
    101: "8593c5886375e9554cf8d90cbebcebbe6d6a333f64932fdaf63580fe8a089649",
    103: "d26dc40fcab44be71764728a6ad30ddeb78fe9fde12194e71a2ba7ac6056aaf3",
    107: "b59910b2789257a44e8d04ac36493cb2eabc7f689b6ac9d9389039ddcc6defe6",
    109: "f33b34bac5ba79a576d2b1dd63d8f867ca72405170a42044efb827401173cddb",
    113: "4b0d47d7ddd139913be59faa34efb1707af541917bb0336c8e127faf1f7e3836",
    121: "3aa1cdcfd09e6ba2382c1ad5fed2f5c52432990015414e431d35bcdb9223a214",
    125: "b59910b2789257a44e8d04ac36493cb2eabc7f689b6ac9d9389039ddcc6defe6",
    127: "76e0fafe07175fe9f09a3045c23aa9abfe7a3433826eb08afbc75d1aa538b67c",
    128: "309b851928273479043aad93e3e6dc8f3110c214fbec5f1aaf18221f6d10580c",
}

MUL_TABLE_SHA256 = {
    4: "474cf06ceecdd9b03e3393a168cc7647d618e70ce2198a12bd3fc725fbf43a97",
    8: "b4c2ddaec51f537d05ddb97b8c98d34fd459015c2542bd52d75be6cb17333385",
    9: "570c990a2f2314c268389c708e4b5a936a9c166f15e7c8db6ce137e164484d5c",
    16: "b046715b8028e85995ded1d0c46fda22cb437f4139bac09ae950c835e1cb211b",
    25: "03a46c7d186459b4981712bea635462d13264c82cd039ae7555e6563dff7ca11",
    27: "a1a7d8805ba20f94455139e4ce0c8eae5129d81e53dc63ad07519f93f453e8d5",
    32: "9db49a981e72f1d950c2f4f07c8e5d12eea08444efbe3c13db3e8bcb3ebc05f8",
    49: "c3ebe1de5a2aecf044d49b418f9ff3ad39e11d94097a66d02496f751ddc5f5da",
    64: "9acd8acc8ab7fd85c547e23b9434dd56ad81d7f96083dffa48ae285f9825df49",
    81: "f8000f30008553d902f651b4941ebb1591f25ea2784d5644cda135a6d2ca5c34",
    121: "98efd4110564fec6910ced1e1a1932fe96a40e0e220c68191a32dccdee3b228d",
    125: "029cc52717d4f67d7052f78d73a32fed86d58ad2ad11ab4a51411175bd84bdf8",
    128: "444486fa0d49191478d3be48ac8e9cf12842e556848216def6b87a8a7bcd92ba",
}


def _sha256_text(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


class TestBitIdentityPins:
    def test_pinned_orders_are_every_prime_power_to_128(self):
        assert sorted(PRIMITIVE_CUBIC_SHA256) == prime_powers_in_range(2, 128)
        assert sorted(MUL_TABLE_SHA256) == [
            q for q in prime_powers_in_range(2, 128) if get_field(q).degree > 1
        ]

    @pytest.mark.parametrize("q", sorted(PRIMITIVE_CUBIC_SHA256))
    def test_smallest_primitive_cubic(self, q):
        f = smallest_primitive(get_field(q), 3)
        assert _sha256_text(f) == PRIMITIVE_CUBIC_SHA256[q]

    @pytest.mark.parametrize("q", sorted(MUL_TABLE_SHA256))
    def test_extension_mul_table(self, q):
        table = np.ascontiguousarray(get_field(q)._mul_table, dtype="<i8")
        assert hashlib.sha256(table.tobytes()).hexdigest() == MUL_TABLE_SHA256[q]
