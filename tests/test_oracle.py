"""Oracle counters: enumeration ground truth, fast-path agreement, caching."""

from __future__ import annotations

import random

import pytest

from qdissect import oracle
from qdissect.oracle import (
    CountTable,
    bipartition_counts,
    coeff_fast,
    regular_coeff_fast,
    regular_counts,
)
from qdissect.qexpr import EtaF, Mul, Pow, eval_qexpr
from qdissect.series import EXACT
from conftest import count_bipartitions, count_regular, distinct_part_counts


class TestRegularCounts:
    def test_two_regular_prefix(self):
        assert list(regular_counts(2, 5).values) == [1, 1, 1, 2, 2, 3]

    def test_three_regular_at_four(self):
        # partitions of 4 avoiding multiples of 3: 4, 2+2, 2+1+1, 1^4
        assert regular_counts(3, 4)[4] == 4

    def test_empty_partition(self):
        for l in (2, 3, 7, 17):
            assert regular_counts(l, 0)[0] == 1

    @pytest.mark.parametrize("l", [2, 3, 5, 7])
    def test_matches_enumeration(self, l):
        table = regular_counts(l, 12)
        for n in range(13):
            assert table[n] == count_regular(n, l)

    def test_euler_distinct_parts(self):
        # 2-regular (odd-part) counts equal distinct-part counts
        n = 300
        odd = regular_counts(2, n)
        distinct = distinct_part_counts(n)
        assert tuple(odd.values) == distinct

    def test_regular_counts_match_eta_quotient(self):
        n = 300
        for l in (2, 7, 17):
            table = regular_counts(l, n)
            srs = eval_qexpr(Mul((EtaF(l), Pow(EtaF(1), -1))), EXACT, n)
            assert tuple(table.values) == srs.coeffs

    def test_validation(self):
        with pytest.raises(ValueError):
            regular_counts(1, 5)
        with pytest.raises(ValueError):
            regular_counts(2, oracle.EXACT_CAP + 1)


class TestBipartitionCounts:
    def test_empty(self):
        assert bipartition_counts(3, 7, 0)[0] == 1

    def test_single_cell(self):
        # ({1}, empty) and (empty, {1})
        assert bipartition_counts(3, 7, 1)[1] == 2

    def test_convolution_value(self):
        # b_3 = 1,1,2 and b_7 = 1,1,2 give 1*2 + 1*1 + 2*1 at n = 2
        assert bipartition_counts(3, 7, 2)[2] == 5

    @pytest.mark.parametrize("pair", [(3, 7), (2, 8), (9, 5)])
    def test_matches_enumeration(self, pair):
        l, m = pair
        table = bipartition_counts(l, m, 10)
        for n in range(11):
            assert table[n] == count_bipartitions(n, l, m)

    def test_symmetry(self):
        a = bipartition_counts(5, 11, 150)
        b = bipartition_counts(11, 5, 150)
        assert list(a.values) == list(b.values)

    def test_modular_matches_exact(self):
        exact = bipartition_counts(3, 7, 200)
        mod = bipartition_counts(3, 7, 200, modulus=7)
        assert [v % 7 for v in exact.values] == list(mod.values)

    def test_known_residue_mod_seven(self):
        # 5*B(0) + 6*B(1) = 17 = 3 mod 7 must match the direct count at 5
        table = bipartition_counts(3, 7, 5)
        assert table[5] % 7 == 3


class TestOracleSeriesEquivalence:
    def test_random_pairs_match_eta_quotient(self):
        rng = random.Random(20260808)
        n = 300
        pairs = {(rng.randint(2, 20), rng.randint(2, 20)) for _ in range(10)}
        for l, m in pairs:
            table = bipartition_counts(l, m, n)
            srs = eval_qexpr(
                Mul((EtaF(l), EtaF(m), Pow(EtaF(1), -2))), EXACT, n
            )
            assert tuple(table.values) == srs.coeffs, (l, m)


class TestFastPath:
    def test_agrees_with_dp_large(self):
        fast = coeff_fast(3, 7, 2000, 7)
        slow = bipartition_counts(3, 7, 2000, modulus=7)
        assert list(fast.values) == list(slow.values)

    @pytest.mark.parametrize("l,m,p", [(9, 5, 3), (5, 11, 11), (81, 17, 17), (2, 8, 11)])
    def test_agrees_with_dp_pairs(self, l, m, p):
        fast = coeff_fast(l, m, 600, p)
        slow = bipartition_counts(l, m, 600, modulus=p)
        assert list(fast.values) == list(slow.values)

    def test_trivial_order(self):
        assert list(coeff_fast(3, 7, 0, 7).values) == [1]

    def test_block_boundaries(self):
        # straddle several block sizes to exercise the blocked recurrence
        fast = coeff_fast(3, 7, 3000, 7)
        slow = bipartition_counts(3, 7, 3000, modulus=7)
        assert list(fast.values) == list(slow.values)

    def test_regular_fast_agrees(self):
        fast = regular_coeff_fast(17, 1500, 17)
        slow = regular_counts(17, 1500, modulus=17)
        assert list(fast.values) == list(slow.values)

    @pytest.mark.parametrize("scale", [0, -1])
    def test_pentagonal_scale_below_one_rejected(self, scale):
        with pytest.raises(ValueError):
            oracle._pentagonal_taps(10, scale=scale)


class TestCache:
    def test_round_trip(self, tmp_path):
        table = coeff_fast(3, 7, 500, 7)
        path = tmp_path / table.cache_name()
        table.save(path)
        loaded = CountTable.load(path)
        assert loaded.kind == table.kind
        assert (loaded.l, loaded.m, loaded.n_max, loaded.modulus) == (3, 7, 500, 7)
        assert list(loaded.values) == list(table.values)

    def test_exact_tables_not_cacheable(self, tmp_path):
        table = bipartition_counts(3, 7, 10)
        with pytest.raises(ValueError):
            table.save(tmp_path / "t.qdct")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.qdct"
        path.write_bytes(b"NOTACACHE" * 10)
        with pytest.raises(ValueError):
            CountTable.load(path)
