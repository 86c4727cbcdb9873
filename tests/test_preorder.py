import math
from fractions import Fraction

import pytest

from decrement.logic import world_from_bits, worldset_from_bits
from decrement.preorder import (
    TotalPreorder,
    UniverseTooLargeError,
    compress,
    direct_successor,
    enumerate_preorders,
    equiv,
    from_layers,
    leq,
    lt,
    min_of,
    to_layers,
)

W00 = world_from_bits("00")
W10 = world_from_bits("10")
W01 = world_from_bits("01")
W11 = world_from_bits("11")

PSI1 = TotalPreorder((2, 2, 1, 0))


def ordered_set_partitions(n):
    """Independent oracle: a(n) = sum C(n,k) * a(n-k), a(0) = 1."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


class TestTotalPreorder:
    def test_validation_rejects_gaps(self):
        with pytest.raises(ValueError):
            TotalPreorder((0, 2))
        with pytest.raises(ValueError):
            TotalPreorder((1, 1))
        with pytest.raises(ValueError):
            TotalPreorder(())

    def test_layers(self):
        assert PSI1.layer0 == 1 << W11
        assert PSI1.layer(1) == 1 << W01
        assert PSI1.layer(2) == (1 << W00) | (1 << W10)
        assert PSI1.n_layers == 3

    def test_layer_outside_the_order_is_empty(self):
        assert PSI1.layer(3) == 0  # past the top layer
        assert PSI1.layer(-1) == 0  # not the top layer, as a list index would give


class TestComparisons:
    def test_table_example_leq_lt(self):
        assert leq(W11, W01, PSI1)
        assert lt(W11, W01, PSI1)

    def test_table_example_equiv(self):
        assert equiv(W10, W00, PSI1)

    def test_reflexive(self):
        for w in range(4):
            assert leq(w, w, PSI1)
            assert not lt(w, w, PSI1)

    def test_direct_successor_adjacent(self):
        assert direct_successor(W11, W01, PSI1)

    def test_direct_successor_skips_layer(self):
        assert not direct_successor(W11, W10, PSI1)

    def test_direct_successor_irreflexive(self):
        for w in range(4):
            assert not direct_successor(w, w, PSI1)

    def test_direct_successor_matches_quantifier_definition(self):
        # x << y iff x < y and no z strictly between, all orders on 4 worlds
        for tpo in enumerate_preorders(4):
            for w1 in range(4):
                for w2 in range(4):
                    naive = lt(w1, w2, tpo) and not any(
                        lt(w1, z, tpo) and lt(z, w2, tpo) for z in range(4)
                    )
                    assert direct_successor(w1, w2, tpo) == naive


class TestMinOf:
    def test_counter_worlds_of_a(self):
        not_a = worldset_from_bits(["01", "00"])
        assert min_of(not_a, PSI1) == 1 << W01

    def test_empty(self):
        assert min_of(0, PSI1) == 0

    def test_universe_gives_bottom_layer(self):
        assert min_of(0b1111, PSI1) == PSI1.layer0

    def test_union_bound(self):
        # min(s | t) is contained in min(s) | min(t); all orders, all set pairs
        for tpo in enumerate_preorders(4):
            for s in range(16):
                for t in range(16):
                    lhs = min_of(s | t, tpo)
                    assert lhs & ~(min_of(s, tpo) | min_of(t, tpo)) == 0


class TestLayersConversion:
    def test_roundtrip_psi1(self):
        layers = to_layers(PSI1)
        assert from_layers(layers) == PSI1

    def test_single_layer(self):
        flat = from_layers([0b1111])
        assert flat.ranks == (0, 0, 0, 0)

    def test_missing_world(self):
        with pytest.raises(ValueError):
            from_layers([0b0111], n_worlds=4)

    def test_empty_layer(self):
        with pytest.raises(ValueError):
            from_layers([0b1100, 0, 0b0011])

    def test_overlap(self):
        with pytest.raises(ValueError):
            from_layers([0b1100, 0b0110])

    def test_roundtrip_every_order(self):
        for tpo in enumerate_preorders(4):
            assert from_layers(to_layers(tpo), n_worlds=4) == tpo


class TestCompress:
    def test_key_example(self):
        # keys 11:0, 01:0, 00:2, 10:4 -> layers [[11,01],[00],[10]]
        keys = {W11: 0, W01: 0, W00: 2, W10: 4}
        tpo = compress(keys)
        assert tpo.ranks == (1, 2, 0, 0)

    def test_all_equal(self):
        assert compress([7, 7, 7, 7]).ranks == (0, 0, 0, 0)

    def test_consecutive_identity(self):
        for tpo in enumerate_preorders(3):
            assert compress(list(tpo.ranks)) == tpo

    def test_rational_keys_interleave(self):
        keys = [0, Fraction(1, 2), 1, Fraction(3, 2)]
        assert compress(keys).ranks == (0, 1, 2, 3)

    def test_mapping_must_be_total(self):
        with pytest.raises(ValueError):
            compress({0: 1, 2: 1, 3: 1})

    def test_non_numeric_keys_rejected(self):
        with pytest.raises(ValueError):
            compress(["x", "y"])


class TestEnumeration:
    def test_one_world(self):
        assert [t.ranks for t in enumerate_preorders(1)] == [(0,)]

    def test_two_worlds_by_hand(self):
        assert [t.ranks for t in enumerate_preorders(2)] == [(0, 0), (0, 1), (1, 0)]

    def test_counts_match_recurrence(self):
        for n in range(1, 7):
            count = sum(1 for _ in enumerate_preorders(n))
            assert count == ordered_set_partitions(n)

    def test_no_duplicates(self):
        seen = set()
        for tpo in enumerate_preorders(4):
            assert tpo.ranks not in seen
            seen.add(tpo.ranks)
        assert len(seen) == 75

    def test_restartable_and_deterministic(self):
        first = [t.ranks for t in enumerate_preorders(4)]
        second = [t.ranks for t in enumerate_preorders(4)]
        assert first == second

    def test_too_large(self):
        with pytest.raises(UniverseTooLargeError):
            next(enumerate_preorders(9))
