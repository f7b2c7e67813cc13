"""Tests for the Singer difference-set construction (Section 6.2, Figure 2)."""

import hashlib

import pytest

from repro.topology import (
    difference_table,
    edge_sum,
    is_perfect_difference_set,
    reflection_points,
    singer_difference_set,
    singer_graph,
)
from repro.utils import prime_powers_in_range

QS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


class TestDifferenceSet:
    def test_paper_q3(self):
        # Figure 2a: D = {0, 1, 3, 9} over Z_13.
        assert singer_difference_set(3) == (0, 1, 3, 9)

    def test_paper_q4(self):
        # Figure 2b: D = {0, 1, 4, 14, 16} over Z_21.
        assert singer_difference_set(4) == (0, 1, 4, 14, 16)

    @pytest.mark.parametrize("q", QS)
    def test_cardinality(self, q):
        assert len(singer_difference_set(q)) == q + 1

    @pytest.mark.parametrize("q", QS)
    def test_perfect_difference_property(self, q):
        n = q * q + q + 1
        assert is_perfect_difference_set(singer_difference_set(q), n)

    @pytest.mark.parametrize("q", prime_powers_in_range(17, 49))
    def test_perfect_difference_property_larger(self, q):
        n = q * q + q + 1
        assert is_perfect_difference_set(singer_difference_set(q), n)

    def test_not_prime_power(self):
        for q in (1, 6, 10):
            with pytest.raises(ValueError):
                singer_difference_set(q)

    def test_elements_reduced_mod_n(self):
        for q in QS:
            n = q * q + q + 1
            assert all(0 <= d < n for d in singer_difference_set(q))

    def test_memoized(self):
        assert singer_difference_set(5) is singer_difference_set(5)


class TestPerfectDifferenceChecker:
    def test_rejects_non_difference_set(self):
        assert not is_perfect_difference_set((0, 1, 2, 3), 13)

    def test_accepts_shifted_set(self):
        # Difference property is shift-invariant.
        d = tuple((x + 5) % 13 for x in (0, 1, 3, 9))
        assert is_perfect_difference_set(d, 13)

    def test_rejects_wrong_modulus(self):
        assert not is_perfect_difference_set((0, 1, 3, 9), 15)


class TestDifferenceTable:
    def test_q3_table_covers_all_residues(self):
        # Figure 2a: every integer 1..12 appears exactly once.
        d = singer_difference_set(3)
        table = difference_table(d, 13)
        assert sorted(table.values()) == list(range(1, 13))

    def test_q4_table_covers_all_residues(self):
        d = singer_difference_set(4)
        table = difference_table(d, 21)
        assert sorted(table.values()) == list(range(1, 21))

    def test_table_size(self):
        d = singer_difference_set(5)
        assert len(difference_table(d, 31)) == 6 * 5


class TestReflectionPoints:
    def test_paper_q3(self):
        # Figure 2a: reflection points {0, 7, 8, 11}.
        assert reflection_points(singer_difference_set(3), 13) == (0, 7, 8, 11)

    def test_paper_q4(self):
        # Figure 2b: reflection points {0, 2, 7, 8, 11}.
        assert reflection_points(singer_difference_set(4), 21) == (0, 2, 7, 8, 11)

    @pytest.mark.parametrize("q", QS)
    def test_count_and_definition(self, q):
        n = q * q + q + 1
        d = singer_difference_set(q)
        refl = reflection_points(d, n)
        assert len(refl) == q + 1  # one per difference-set element
        dset = set(d)
        for i in range(n):
            assert ((2 * i) % n in dset) == (i in refl)


class TestSingerGraph:
    @pytest.mark.parametrize("q", QS)
    def test_sizes(self, q):
        sg = singer_graph(q)
        assert sg.graph.n == q * q + q + 1
        assert sg.graph.num_edges == q * (q + 1) ** 2 // 2

    @pytest.mark.parametrize("q", QS)
    def test_self_loops_are_reflection_points(self, q):
        sg = singer_graph(q)
        assert tuple(sorted(sg.graph.self_loops)) == sg.reflections

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
    def test_diameter_two(self, q):
        assert singer_graph(q).graph.diameter() == 2

    def test_edge_definition(self):
        sg = singer_graph(3)
        dset = set(sg.dset)
        for u in range(sg.n):
            for v in range(u + 1, sg.n):
                assert sg.graph.has_edge(u, v) == ((u + v) % sg.n in dset)

    def test_edge_color(self):
        sg = singer_graph(3)
        u, v = next(iter(sg.graph.edges))
        assert sg.edge_color(u, v) == (u + v) % 13
        with pytest.raises(ValueError):
            # (1, 3) sums to 4, not in D={0,1,3,9}
            sg.edge_color(1, 3)

    def test_edges_of_color_partition(self):
        # Colors partition the edge set; each color class has (N-1)/2 edges.
        sg = singer_graph(4)
        total = 0
        seen = set()
        for d in sg.dset:
            es = sg.edges_of_color(d)
            assert len(es) == (sg.n - 1) // 2
            total += len(es)
            seen |= set(es)
        assert total == sg.graph.num_edges
        assert seen == set(sg.graph.edges)

    def test_edges_of_color_invalid(self):
        with pytest.raises(ValueError):
            singer_graph(3).edges_of_color(2)

    def test_self_loop_color(self):
        sg = singer_graph(3)
        # reflection point 7: 2*7 = 14 = 1 mod 13, and 1 is in D
        assert sg.self_loop_color(7) == 1
        with pytest.raises(ValueError):
            sg.self_loop_color(1)

    def test_edge_sum_helper(self):
        assert edge_sum(10, 5, 13) == 2


# sha256 of every Singer difference set for q <= 128 (comma-joined sorted
# exponents), recorded from the scalar one-power-at-a-time walk of zeta that
# the doubling construction replaced.
DIFFERENCE_SET_SHA256 = {
    2: "352edb476f548de49f3ad93e3acf5311ba46b0b86cc045cc817b9a8285797607",
    3: "b16b8ce47c18bf980d7dee9a4e1202802abd43457636583e36599642072efc62",
    4: "5ba4185a7fc1f186d69bd5e237404fdf92d745fba5f69e63847c16ad7e2499e9",
    5: "2ebbe954c718fd97c79ceab94624fdbc2082665bb9715e2a47b7e8642428934f",
    7: "8c2e1b3d18437f648f4e814ff07fb037a54bca5a59236bd7821525e7a4af1ca0",
    8: "53d95f0ae8eab4205fd62e6d295808975bf4af289205d6ed1576257c51c0b809",
    9: "1476c5b4114977f6add49dab52b4c01a3494c998b0724b8869328128005de3ac",
    11: "731a5ec469cf9d1263d8ec079a40b77549aafe9361512e7ead04bf155b07e8d8",
    13: "c1447d2acc364faf4127731a608f391065502082d63a4c45175d248fc367c4c6",
    16: "4819ce381d2600ee6e8ef50ee275e7fd5bd82b5cdc0d9ad79d3c34527dde966b",
    17: "f92cb76c5a4b30390862f0e1bd19278b23f5df6baa1cc7e18914bb8084f070f7",
    19: "4495647c2742bf119b68d4afa5b78b57ffa69e830fcea29707cd430f14ea3421",
    23: "d48a2d67c82d53ae33302a5494ad7f51e87bba901cb357bf1e4353e7972a210a",
    25: "58aa17b0edc3ec895cd0fc8ca2026940dc3fe56e62c909e6ce3b7d720a1a07e5",
    27: "55393f12fd8713d76a74e9905c7deb30b55a7c14bbca7cf2737b205c3a782824",
    29: "851993992889b09b53e45d631bf83a28f9c94688d9a57bede679cf8f05b68503",
    31: "cc9c3fd43c30cc34c5c088af77e092d6c4279a14308950da4019a6c5ec10791b",
    32: "d9be8690da1df1b111bfcefc503f6b8288e17749b2961982e8609e8181ebc645",
    37: "11589812104de4d729a2c177d13e40873f24c19c042b0d204e5a8628c14c99d8",
    41: "b675e4c228b9f266bf44f4038521bcb74d2e0d6f2481247bb67309290ab43fc1",
    43: "d76bc642df4f011cda48e1bb5905e10e95f66168e5f66a8172eef3a8a8a579e5",
    47: "222d1fee1cc2f6cef050b55b72be6fe67492cf6bb56a478574dea65fb4145d39",
    49: "8b446ca52108df6c3cdb73a94223a20fedd6a14a196369d3dc4b7cb9d4750f94",
    53: "931c5322b9a4a260b2a46218787b1a1b4d7cffba6936674e0f89d1b5973c7b34",
    59: "bb36df7cba1a6915c771e3247eb6f465db70baf6d0b4ec24f9c1051b4c667b3b",
    61: "f9e9b0f1881d150c0eae17d8af4c875d06b61dd7a928bb4af639ce7320025141",
    64: "3d4df0665c3925e5f1af1c2cbf35aa5107806290ed695d79e938c7cf08d9e63f",
    67: "3ce60859892cdc6ce17bfac8e88bfcf69e4c99e97496bee00d4e32d48727b8ec",
    71: "c818ab09029831ba834db6a762cfb361b72bade8d8782ac9cd0688788a2cc3d4",
    73: "a7f8b8bd1e12a4d5e2ad9d7f1d1da048e9bd2bb48a0fcdd86ac177d54e0b82b2",
    79: "813166c1c76b86f6e5b9d7b55bbf45ef5577dd998332b99e7ec190f67e992504",
    81: "cdf6cac6c25c374ff869cf078c527ca6fd4b8ddc589f0f9ac4f84bea0503a67f",
    83: "f5ac39c451cfc8d2440aa6edde9c6a5a0da52082c648ecd88d866bbc0c8142bf",
    89: "ad99e1c885fcadf191ac76a05089170ba81408c0b28237126815521845920acd",
    97: "14b5c2e2aca244f06395216604474b31d3f33459cdbf0ca58d27b2d30251b5f2",
    101: "96c5e23fe11ec912706044e4d010b9805b32434dc73de83b0fb904666b4d0e6d",
    103: "98cee01456a2e32546e7304895e92a787a4a036194a5128cada9a9965bfddb55",
    107: "a7d88553c82163a4478b93af4db6d4031d1a7901ca93fc9f37adb1cdc185f003",
    109: "c607b0fd7f8f04bcdea56459c83122a79f025bd26a62c83d92adfa3f636d4cf2",
    113: "50969c3a53d8ee870ddc43d9934613eb03a84d45cdbdb1a2909b395266085ffc",
    121: "a3c3a80191ffa9ce2970016f6e1ddd3b5f9f26e9bb10b0bf79aa609d4c1469d6",
    125: "9e8403d16be6f56f6a6dcb263321ef90c9c432ba7bd671f6d96b8f8961ee3bfd",
    127: "817fc2233e40b6d08b0c98e28664ac5215f03f4bf910ea0cb7e94ccd66b9c374",
    128: "3f71f0185a83d4787d4940838e07e98b884cdb7b6b518a91ceeeab02ef634e1a",
}


class TestBitIdentityPin:
    def test_pinned_orders_are_every_prime_power_to_128(self):
        assert sorted(DIFFERENCE_SET_SHA256) == prime_powers_in_range(2, 128)

    @pytest.mark.parametrize("q", sorted(DIFFERENCE_SET_SHA256))
    def test_difference_set(self, q):
        text = ",".join(map(str, singer_difference_set(q)))
        assert hashlib.sha256(text.encode()).hexdigest() == DIFFERENCE_SET_SHA256[q]
