"""Oracle counters: enumeration ground truth, fast-path agreement, caching."""

from __future__ import annotations

import itertools
import math
import random
import struct
import sys
import threading
import weakref
import zlib
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qdissect import oracle
from qdissect._fftbound import _GUARD, _error_bound
from qdissect.congruences import build_families, required_order
from qdissect.oracle import CountTable, SourceSpec, coeff_fast, dp_counts
from qdissect.qexpr import EtaF, Mul, Pow, eval_qexpr
from qdissect.series import EXACT
from conftest import count_bipartitions, count_regular, distinct_part_counts

# every (stream, modulus) pair a congruence family reads
CATALOG_STREAMS = sorted({(f.source, f.modulus) for f in build_families()},
                         key=lambda stream: stream[0].cache_name(stream[1]))
B37 = SourceSpec((3, 7))
R17 = SourceSpec((17,))


def _exact_mulmod(a, b, p, n):
    """(a*b mod q^(n+1)) mod p by one product of Python ints (Kronecker
    substitution): each operand, reduced mod p, becomes an integer with one
    slot of ``size`` bytes per coefficient, wide enough for any slot of the
    product, so the slots of the product are its exact coefficients."""
    size = (2 * (p - 1).bit_length() + (n + 1).bit_length()) // 8 + 1

    def pack(x):
        return int.from_bytes(b"".join((int(v) % p).to_bytes(size, "little")
                                       for v in x[: n + 1]), "little")

    prod = (pack(a) * pack(b)).to_bytes(size * (2 * n + 2), "little")
    return [int.from_bytes(prod[i * size : (i + 1) * size], "little") % p
            for i in range(n + 1)]


P26 = 2**26 - 5  # a modulus that needs two or three limbs
MULMOD_MODULI = [2, 3, 17, 251, 65521, P26]


@contextmanager
def _without_block_floor():
    """Products cut into blocks as short as 1 inside: n <= 2000 then spans up
    to 32 blocks, as n + 1 = 32 * 1024 does with the shipped floor."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_MIN_BLOCK", 1)
        yield


def _residues(p, size, seed):
    values = np.random.default_rng(seed).integers(0, p, size)
    return values.astype(np.min_scalar_type(p - 1))


def test_exact_mulmod_matches_a_double_loop():
    # the reference itself, against the schoolbook product
    for p, n, la, lb in ((2, 0, 1, 1), (7, 40, 41, 13), (2**26 - 5, 30, 9, 31)):
        a, b = _residues(p, la, 1), _residues(p, lb, 2)
        want = [0] * (n + 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b[: n + 1 - i]):
                want[i + j] += int(x) * int(y)
        assert _exact_mulmod(a, b, p, n) == [c % p for c in want]


@st.composite
def _operands(draw):
    p = draw(st.sampled_from(MULMOD_MODULI))
    n = draw(st.integers(min_value=0, max_value=299))
    dtype = np.min_scalar_type(p - 1)

    def operand():
        size = draw(st.integers(min_value=1, max_value=n + 1))
        shape = draw(st.sampled_from(["random", "zero", "top"]))
        if shape == "zero":
            return np.zeros(size, dtype=dtype)
        if shape == "top":
            return np.full(size, p - 1, dtype=dtype)
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        return np.random.default_rng(seed).integers(0, p, size).astype(dtype)

    a = operand()
    b = a if draw(st.booleans()) else operand()
    return a, b, p, n


def _check_mulmod(case):
    a, b, p, n = case
    got = oracle._mulmod(a, b, p, n)
    assert got.dtype == np.min_scalar_type(p - 1)
    assert list(got) == _exact_mulmod(a, b, p, n)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_operands())
def test_mulmod_matches_exact_convolution(case):
    _check_mulmod(case)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_operands())
def test_mulmod_matches_exact_convolution_without_block_floor(case):
    with _without_block_floor():
        _check_mulmod(case)


@st.composite
def _windows(draw):
    p = draw(st.sampled_from(MULMOD_MODULI))
    n = draw(st.integers(min_value=0, max_value=2000))

    def operand():
        return _residues(p, draw(st.integers(min_value=1, max_value=n + 1)),
                         draw(st.integers(min_value=0, max_value=99)))

    return operand(), operand(), p, n, draw(st.integers(min_value=0, max_value=n))


def _window_examples(test):
    """Without the floor, blocks are 2^j long, at most 32 of them over n + 1
    coefficients: n + 1 at 32 * 2^j and one either side, and lo at k = 0,
    k = n and next to block edges.  With it, n + 1 = 1024 and 1025 are one
    block and two."""
    for case in [
        (_residues(2, 1, 0), _residues(2, 1, 1), 2, 0, 0),
        (_residues(7, 64, 0), _residues(7, 64, 1), 7, 63, 0),
        (_residues(7, 64, 0), _residues(7, 64, 1), 7, 63, 63),
        (_residues(7, 65, 0), _residues(7, 33, 1), 7, 64, 64),
        (_residues(17, 128, 0), _residues(17, 40, 1), 17, 127, 4),
        (_residues(17, 129, 0), _residues(17, 129, 1), 17, 128, 7),
        (_residues(17, 129, 0), _residues(17, 65, 1), 17, 128, 9),
        (_residues(251, 1024, 0), _residues(251, 512, 1), 251, 1023, 512),
        (_residues(3, 1025, 0), _residues(3, 513, 1), 3, 1024, 513),
        (_residues(65521, 2001, 0), _residues(65521, 1001, 1), 65521, 2000, 1001),
        (_residues(P26, 301, 0), _residues(P26, 150, 1), P26, 300, 300),
        (_residues(P26, 2000, 0), _residues(P26, 2000, 1), P26, 1999, 0),
    ]:
        test = example(case=case)(test)
    return test


def _check_mulmod_from_lo(case):
    # operands of unequal length, split into two passes and windowed
    a, b, p, n, k = case
    got = oracle._mulmod(a, b, p, n, lo=k)
    assert got.dtype == np.min_scalar_type(p - 1) and len(got) == n + 1 - k
    assert list(got) == _exact_mulmod(a, b, p, n)[k:]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(case=_windows())
@_window_examples
def test_mulmod_from_lo_matches_exact_convolution(case):
    _check_mulmod_from_lo(case)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(case=_windows())
@_window_examples
def test_mulmod_from_lo_without_block_floor(case):
    with _without_block_floor():
        _check_mulmod_from_lo(case)


@pytest.mark.parametrize("lo", [0, 5000])
@pytest.mark.parametrize("p", [7, P26])
def test_mulmod_past_32_blocks_of_the_floor(p, lo):
    # n + 1 = 32 * 1024 + 1: 17 blocks of 2048
    n = 32 * 1024
    a, b = _residues(p, n + 1, 0), _residues(p, n + 1, 1)
    assert list(oracle._mulmod(a, b, p, n, lo=lo)) == _exact_mulmod(a, b, p, n)[lo:]


def _counting_transforms(monkeypatch):
    """Count the calls of np.fft.rfft and irfft from now on."""
    counts = {"rfft": 0, "irfft": 0}
    for name in counts:
        def counted(*args, real=getattr(np.fft, name), name=name):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(np.fft, name, counted)
    return counts


@pytest.mark.parametrize("n,lo", [(0, 0), (1, 1), (700, 0), (1023, 0), (1023, 500)])
@pytest.mark.parametrize("p", [2, 7, 65521])
def test_a_product_of_one_block_makes_three_transforms(monkeypatch, p, n, lo):
    counts = _counting_transforms(monkeypatch)
    a, b = _residues(p, n + 1, 0), _residues(p, n // 2 + 1, 1)
    assert list(oracle._mulmod(a, b, p, n, lo=lo)) == _exact_mulmod(a, b, p, n)[lo:]
    assert counts == {"rfft": 2, "irfft": 1}


@pytest.mark.parametrize("floor", ["shipped", "none"])
def test_a_split_product_from_zero_transforms_each_block_once(monkeypatch, floor):
    # 32 blocks of each operand: the b_hi pass transforms a's first 16 blocks,
    # and the b_lo pass starts from them
    n = 32 * 1024 - 1 if floor == "shipped" else 2047
    counts = _counting_transforms(monkeypatch)
    a, b = _residues(7, n + 1, 0), _residues(7, n + 1, 1)
    with _without_block_floor() if floor == "none" else nullcontext():
        got = oracle._mulmod(a, b, 7, n)
    assert list(got) == _exact_mulmod(a, b, 7, n)
    assert counts["rfft"] == 32 + 32


@pytest.mark.parametrize("len_a,len_b,lo", [(32 * 1024, 32 * 1024, 0),
                                             (64 * 1024, 32 * 1024, 32 * 1024)],
                         ids=["truncated", "middle"])
def test_products_hold_spectra_for_about_their_output(monkeypatch, len_a, len_b, lo):
    # 32 blocks of 1024 or 2048 over n + 1: a pass holds the spectra of no
    # more blocks than the product outputs, not of both whole operands; at
    # lo = 0 that counts the spectra handed from one pass to the other
    live, peak = [0], [0]
    real_rfft = np.fft.rfft

    def rfft(*args):
        spectrum = real_rfft(*args)
        live[0] += 1
        peak[0] = max(peak[0], live[0])
        weakref.finalize(spectrum, lambda: live.__setitem__(0, live[0] - 1))
        return spectrum

    monkeypatch.setattr(np.fft, "rfft", rfft)
    a, b, n = _residues(7, len_a, 0), _residues(7, len_b, 1), len_a - 1
    assert list(oracle._mulmod(a, b, 7, n, lo=lo)) == _exact_mulmod(a, b, 7, n)[lo:]
    step = (n + 1) // 32
    assert peak[0] <= (n + 1 - lo) // step


@pytest.mark.parametrize("length", [2, 1025, 40_000, 65_537])
def test_each_newton_step_transforms_each_block_of_f_once(monkeypatch, length):
    # the steps run to lengths halved from the top down; f*g from lo = k is
    # one pass, which transforms the ceil(k2/B) blocks of f and the ceil(k/B)
    # of g once each, and holds no more spectra than twice g's blocks
    live, peak, transforms = [0], [0], [0]
    real_rfft = np.fft.rfft

    def rfft(*args):
        spectrum = real_rfft(*args)
        transforms[0] += 1
        live[0] += 1
        peak[0] = max(peak[0], live[0])
        weakref.finalize(spectrum, lambda: live.__setitem__(0, live[0] - 1))
        return spectrum

    steps = []
    real_mulmod = oracle._mulmod

    def mulmod(a, b, p, n, lo=0, split=True):
        if not lo:  # g*e
            return real_mulmod(a, b, p, n, lo, split)
        transforms[0], peak[0], base = 0, live[0], live[0]
        out = real_mulmod(a, b, p, n, lo, split)
        steps.append((n + 1, lo, transforms[0], peak[0] - base))
        return out

    monkeypatch.setattr(np.fft, "rfft", rfft)
    monkeypatch.setattr(oracle, "_mulmod", mulmod)
    f = _residues(7, length, 0)
    f[0] = 1
    g = oracle._inverse(f, 7)
    assert _exact_mulmod(f, g, 7, length - 1) == [1] + [0] * (length - 1)
    lengths = [length]
    while lengths[-1] > 1:
        lengths.append(-(-lengths[-1] // 2))
    assert [(k2, k) for k2, k, _, _ in steps] == list(zip(lengths[-2::-1], lengths[::-1]))
    for k2, k, count, held in steps:
        step = oracle._step(k2 - 1)
        assert count == -(-k2 // step) + -(-k // step), (k2, k)
        assert held <= 2 * -(-k // step), (k2, k)


@st.composite
def _quotients(draw):
    p = draw(st.sampled_from(MULMOD_MODULI))
    n = draw(st.integers(min_value=0, max_value=299))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    dtype = np.min_scalar_type(p - 1)
    num = rng.integers(0, p, n + 1).astype(dtype)
    den = rng.integers(0, p, n + 1).astype(dtype)
    den[0] = 1
    return num, den, p


def _quotient_examples(test):
    for case in [(np.array([5], np.uint8), np.array([1], np.uint8), 7),
                 (np.array([5, 3], np.uint8), np.array([1, 6], np.uint8), 7),
                 (np.array([5, 3, 0], np.uint32), np.array([1, 2**26 - 6, 9], np.uint32),
                  2**26 - 5)]:
        test = example(case=case)(test)
    return test


def _check_divide(case):
    num, den, p = case
    n = len(num) - 1
    w = oracle._divide(num.copy(), den, p)  # written over its numerator
    assert w.dtype == num.dtype and len(w) == n + 1
    assert _exact_mulmod(den, w, p, n) == [int(x) for x in num]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=_quotients())
@_quotient_examples
def test_divide_times_denominator_is_numerator(case):
    _check_divide(case)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=_quotients())
@_quotient_examples
def test_divide_without_block_floor(case):
    with _without_block_floor():
        _check_divide(case)


def _dense_pentagonal(n, scale):
    """f_scale to q^n as a list of Python ints, from the pentagonal taps."""
    f = [1] + [0] * n
    for g, sign in oracle._pentagonal_taps(n, scale):
        f[g] = sign
    return f


@pytest.mark.parametrize("scales", [(1, 1), (3, 7), (81, 17), (17,)], ids=repr)
@pytest.mark.parametrize("p", [2, 7, 2**26 - 5])
def test_pentagonal_product_matches_dense_convolution(scales, p):
    n = 700
    want = _dense_pentagonal(n, scales[0])
    for s in scales[1:]:
        want = _exact_mulmod(want, _dense_pentagonal(n, s), p, n)
    got = oracle._pentagonal_product(scales, n, p)
    assert got.dtype == np.min_scalar_type(p - 1)
    assert list(got) == [x % p for x in want]


@pytest.mark.parametrize("scales", [(1, 1), (17, 1), (5,)], ids=repr)
@pytest.mark.parametrize("p,lead", [(7, 3), (231, 154), (221, 0)])
def test_pentagonal_product_takes_a_leading_factor(scales, p, lead):
    # a group's member numerator is e times the product, mod the group's P
    plain = oracle._pentagonal_product(scales, 700, p).astype(np.int64)
    got = oracle._pentagonal_product(scales, 700, p, lead)
    assert got.dtype == np.min_scalar_type(p - 1)
    assert list(got) == list(lead * plain % p)


@pytest.mark.parametrize("r,n,dtype", [(1, 3000, np.int8), (2, 3000, np.int8),
                                         (3, 3000, np.int16), (4, 700, np.int16)])
def test_exact_products_take_the_narrowest_signed_dtype(r, n, dtype):
    # over Z (p = 0): f_1^3 reaches 2k + 1 = 153 by q^3000 (Jacobi) and is
    # held in int16, where int8 would wrap; f_1^2 stays within int8
    f1 = np.array(_dense_pentagonal(n, 1), dtype=np.int64)
    want = f1
    for _ in range(r - 1):
        want = np.convolve(want, f1)[: n + 1]
    got = oracle._pentagonal_product((1,) * r, n, 0)
    assert got.dtype == dtype
    assert list(got) == list(want)
    if r == 3:
        assert max(abs(want)) == 153 > np.iinfo(np.int8).max


def test_an_exact_product_past_int64_raises_rather_than_wraps():
    # the bound on the partial sums, not the entries, picks the dtype: seven
    # factors of f_1 to 10^6 may pass 2^63, and nothing is allocated
    with pytest.raises(OverflowError, match="int64"):
        oracle._pentagonal_product((1,) * 7, 10**6, 0)


@pytest.mark.parametrize("p", [2, 221, 231, 255, 256, 65521, 65536])
def test_submod_subtracts_mod_p_in_place_without_overflow(p):
    # p = 2^bits wraps as the dtype does
    rng = np.random.default_rng(p)
    dtype = np.min_scalar_type(p - 1)
    acc = rng.integers(0, p, 5000).astype(dtype)
    for x in (rng.integers(0, p, 3000), np.full(5000, p - 1), np.zeros(10, np.int64)):
        want = acc.astype(np.int64)
        want[: len(x)] -= x
        oracle._submod(acc, x.astype(dtype), p)
        assert acc.dtype == dtype
        assert list(acc) == list(want % p)


class TestRegularCounts:
    def test_two_regular_prefix(self):
        assert list(dp_counts(SourceSpec((2,)), 5).values) == [1, 1, 1, 2, 2, 3]

    def test_three_regular_at_four(self):
        # partitions of 4 avoiding multiples of 3: 4, 2+2, 2+1+1, 1^4
        assert dp_counts(SourceSpec((3,)), 4)[4] == 4

    def test_empty_partition(self):
        for l in (2, 3, 7, 17):
            assert dp_counts(SourceSpec((l,)), 0)[0] == 1

    @pytest.mark.parametrize("l", [2, 3, 5, 7])
    def test_matches_enumeration(self, l):
        table = dp_counts(SourceSpec((l,)), 12)
        for n in range(13):
            assert table[n] == count_regular(n, l)

    def test_euler_distinct_parts(self):
        # 2-regular (odd-part) counts equal distinct-part counts
        n = 300
        odd = dp_counts(SourceSpec((2,)), n)
        distinct = distinct_part_counts(n)
        assert tuple(odd.values) == distinct

    def test_regular_counts_match_eta_quotient(self):
        n = 300
        for l in (2, 7, 17):
            table = dp_counts(SourceSpec((l,)), n)
            srs = eval_qexpr(Mul((EtaF(l), Pow(EtaF(1), -1))), EXACT, n)
            assert tuple(table.values) == srs.coeffs

    def test_validation(self):
        with pytest.raises(ValueError):
            dp_counts(SourceSpec((1,)), 5)
        with pytest.raises(ValueError):
            dp_counts(SourceSpec((2,)), oracle.EXACT_CAP + 1)


class TestBipartitionCounts:
    def test_empty(self):
        assert dp_counts(B37, 0)[0] == 1

    def test_single_cell(self):
        # ({1}, empty) and (empty, {1})
        assert dp_counts(B37, 1)[1] == 2

    def test_convolution_value(self):
        # b_3 = 1,1,2 and b_7 = 1,1,2 give 1*2 + 1*1 + 2*1 at n = 2
        assert dp_counts(B37, 2)[2] == 5

    @pytest.mark.parametrize("pair", [(3, 7), (2, 8), (9, 5)])
    def test_matches_enumeration(self, pair):
        l, m = pair
        table = dp_counts(SourceSpec((l, m)), 10)
        for n in range(11):
            assert table[n] == count_bipartitions(n, l, m)

    def test_symmetry(self):
        a = dp_counts(SourceSpec((5, 11)), 150)
        b = dp_counts(SourceSpec((11, 5)), 150)
        assert list(a.values) == list(b.values)

    def test_modular_matches_exact(self):
        exact = dp_counts(B37, 200)
        mod = dp_counts(B37, 200, modulus=7)
        assert [v % 7 for v in exact.values] == list(mod.values)

    def test_known_residue_mod_seven(self):
        # 5*B(0) + 6*B(1) = 17 = 3 mod 7 must match the direct count at 5
        table = dp_counts(B37, 5)
        assert table[5] % 7 == 3


class TestOracleSeriesEquivalence:
    def test_random_pairs_match_eta_quotient(self):
        rng = random.Random(20260808)
        n = 300
        pairs = {(rng.randint(2, 20), rng.randint(2, 20)) for _ in range(10)}
        for l, m in pairs:
            table = dp_counts(SourceSpec((l, m)), n)
            srs = eval_qexpr(
                Mul((EtaF(l), EtaF(m), Pow(EtaF(1), -2))), EXACT, n
            )
            assert tuple(table.values) == srs.coeffs, (l, m)


class TestFastPath:
    def test_agrees_with_dp_large(self):
        fast = coeff_fast(B37, 2000, 7)
        slow = dp_counts(B37, 2000, modulus=7)
        assert list(fast.values) == list(slow.values)

    @pytest.mark.parametrize("spec,p", [
        pytest.param(spec, p, id="{}-{}-{}".format(*oracle._header_fields(spec)[1:], p))
        for spec, p in CATALOG_STREAMS
    ])
    def test_agrees_with_dp_pairs(self, spec, p):
        # 2100 spans 3 product blocks of 1024 entries and 12 Newton steps
        fast = coeff_fast(spec, 2100, p)
        slow = dp_counts(spec, 2100, modulus=p)
        assert list(fast.values) == list(slow.values)

    def test_trivial_order(self):
        assert list(coeff_fast(B37, 0, 7).values) == [1]

    def test_block_boundaries(self):
        # straddle the floor's block length to exercise the blocked products
        fast = coeff_fast(B37, 3000, 7)
        slow = dp_counts(B37, 3000, modulus=7)
        assert list(fast.values) == list(slow.values)

    def test_regular_fast_agrees(self):
        fast = coeff_fast(R17, 1500, 17)
        slow = dp_counts(R17, 1500, modulus=17)
        assert list(fast.values) == list(slow.values)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 15, 16, 17])
    def test_fast_matches_dp_at_block_edges(self, n):
        # 2^k - 1, 2^k and 2^k + 1 entries change the Newton steps (without
        # the floor, the block length and count too);
        # test_agrees_with_dp_pairs covers n = 2100 for every catalog stream
        for spec, p in ((B37, 7), (R17, 17)):
            assert list(coeff_fast(spec, n, p).values) == list(dp_counts(spec, n, p).values)

    @pytest.fixture(scope="class")
    def dp_1025(self):
        streams = ((B37, 7), (SourceSpec((9, 5)), 3), (R17, 17),
                   (SourceSpec((2, 8)), 2**26 - 5))
        return {(spec, p): dp_counts(spec, 1025, p).values for spec, p in streams}

    # n = 2h - 2 and 2h - 1 share the half length h = ceil((n+1)/2); without
    # the floor, the half-length products change block length where h - 1 or
    # n - h crosses 32 * 2^k, and the full-length ones where n does
    HALF_LENGTH_N = [62, 63, 64, 65, 126, 127, 128, 129, 130,
                     254, 255, 256, 257, 258, 1022, 1023, 1024, 1025]

    @pytest.mark.parametrize("n", HALF_LENGTH_N)
    def test_fast_matches_dp_next_to_the_half_length(self, n, dp_1025):
        for (spec, p), counts in dp_1025.items():
            assert list(coeff_fast(spec, n, p).values) == counts[: n + 1], (spec, p)

    @pytest.mark.parametrize("n", HALF_LENGTH_N)
    def test_fast_matches_dp_next_to_the_half_length_without_block_floor(self, n, dp_1025):
        with _without_block_floor():
            self.test_fast_matches_dp_next_to_the_half_length(n, dp_1025)

    # the DP cannot run this far: CRC32s of the tables as first built, at
    # sizes whose products cross the floor's changes of block length
    @pytest.mark.parametrize("spec,p,n,crc", [
        (B37, 7, 131_071, 0xCA57A193),
        (R17, 17, 131_071, 0xCECECB67),
        (SourceSpec((2, 8)), P26, 100_000, 0xDEB72B7A),
    ], ids=["B37", "R17", "B28"])
    def test_large_tables_keep_their_checksum(self, spec, p, n, crc):
        assert zlib.crc32(coeff_fast(spec, n, p).values.tobytes()) == crc

    @pytest.mark.parametrize("p", [4, 9, 12, 1009, 2**26 - 5])
    @pytest.mark.parametrize("n", [0, 1, 9, 300])
    def test_fast_matches_dp_for_any_modulus(self, p, n):
        # composite moduli, a prime above n, and a modulus that needs two limbs
        for spec in (SourceSpec((2, 8)), SourceSpec((5,))):
            assert list(coeff_fast(spec, n, p).values) == list(dp_counts(spec, n, p).values)

    def test_tables_use_the_smallest_unsigned_dtype(self, tmp_path):
        for p, dtype in ((7, np.uint8), (256, np.uint8), (257, np.uint16),
                         (2**26 - 5, np.uint32)):
            table = coeff_fast(B37, 50, p)
            assert table.values.dtype == dtype
            table.save(tmp_path / "t.qdct")
            # header, entries at the table's width, checksum
            size = 48 + 51 * np.dtype(dtype).itemsize + 4
            assert (tmp_path / "t.qdct").stat().st_size == size
            loaded = CountTable.load(tmp_path / "t.qdct")
            assert loaded.values.dtype == dtype
            assert list(loaded.values) == list(table.values)

    @pytest.mark.parametrize("p,n,length,blocks,limbs", [
        (17, 24_772_604, 2**21, 24, 1),  # the slow suite's (81,17) table
        (7, 1_652_053, 2**17, 26, 1),
        (2**26 - 5, 300, 32, 19, 2),
        (2**26 - 5, 10**6, 2**16, 31, 3),
    ])
    def test_limb_width_follows_the_bound(self, p, n, length, blocks, limbs):
        bits = oracle._limb_bits(p, n, length, blocks)
        bound = (n + 1) * _error_bound(length, blocks)
        if bits is None:
            assert limbs == 1 and bound * (p // 2) ** 2 < _GUARD
        else:
            # the widest limb that keeps the bound below the guard
            assert bound * 4 ** (bits - 1) < _GUARD <= bound * 4 ** bits
            assert len(oracle._limbs(np.zeros(1, np.uint32), p, bits)) == limbs

    @pytest.mark.parametrize("p,bits", [(7, None), (2, None), (2**26 - 5, None),
                                        (2**26 - 5, 19), (2**26 - 5, 12), (65521, 3)])
    def test_limbs_are_balanced_and_recombine(self, p, bits):
        picks = {1, p // 2, p // 2 + 1, p - 1} | set(range(0, p, p // 7 + 1))
        x = np.array(sorted(v for v in picks if v < p))
        limbs = oracle._limbs(x, p, bits)
        width = bits or 0
        total = sum(limb.astype(np.int64) << (width * j) for j, limb in enumerate(limbs))
        assert list(total % p) == list(x)
        top = p // 2 if bits is None else 2 ** (bits - 1)
        assert max(np.abs(limb).max() for limb in limbs) <= top

    def test_rounding_guard_rejects_too_wide_limbs(self, monkeypatch):
        # one 26-bit limb puts (n+1)*(p/2)^2 far beyond what float64 rounds exactly
        p = 2**26 - 5
        rng = np.random.default_rng(5)
        a = rng.integers(0, p, 301).astype(np.uint32)
        b = rng.integers(0, p, 301).astype(np.uint32)
        assert list(oracle._mulmod(a, b, p, 300)) == _exact_mulmod(a, b, p, 300)
        monkeypatch.setattr(oracle, "_limb_bits", lambda *args: 26)
        with pytest.raises(ArithmeticError):
            oracle._mulmod(a, b, p, 300)

    @pytest.mark.parametrize("lo", [150, 300])
    def test_rounding_guard_rejects_too_wide_limbs_from_lo(self, lo, monkeypatch):
        # the guard runs on the diagonals that are computed from lo on
        p = 2**26 - 5
        rng = np.random.default_rng(5)
        a = rng.integers(0, p, 301).astype(np.uint32)
        b = rng.integers(0, p, 151).astype(np.uint32)
        assert list(oracle._mulmod(a, b, p, 300, lo=lo)) == _exact_mulmod(a, b, p, 300)[lo:]
        monkeypatch.setattr(oracle, "_limb_bits", lambda *args: 26)
        with pytest.raises(ArithmeticError):
            oracle._mulmod(a, b, p, 300, lo=lo)

    @pytest.mark.parametrize("scale", [0, -1])
    def test_pentagonal_scale_below_one_rejected(self, scale):
        with pytest.raises(ValueError):
            oracle._pentagonal_taps(10, scale=scale)


class TestSourceSpec:
    @pytest.mark.parametrize("regularities", [
        (),             # no stream
        (2, 3, 5),      # three regularities: no stream of the catalog's words
        (1,),           # a regularity of 1: no part is allowed
        (1, 7),
        (3, 1),
        [3, 7],         # not a tuple, so not hashable as a table's key
        17,
    ], ids=repr)
    def test_refuses_all_but_one_or_two_regularities(self, regularities):
        with pytest.raises(ValueError, match="a source is regular L"):
            SourceSpec(regularities)


def _as_version_2(path):
    """Turn the cache file at ``path`` into a version-2 file, which had this
    layout (one byte per entry and a CRC32) and n_max in its name."""
    data = bytearray(path.read_bytes())
    data[:8] = b"QDCT\x02\x00\x00\x00"
    data[-4:] = struct.pack("<I", zlib.crc32(data[:-4]))
    path.write_bytes(bytes(data))


class TestCache:
    def test_round_trip(self, tmp_path):
        table = coeff_fast(B37, 500, 7)
        path = tmp_path / B37.cache_name(7)
        table.save(path)
        loaded = CountTable.load(path)
        assert (loaded.source, loaded.n_max, loaded.modulus) == (B37, 500, 7)
        assert list(loaded.values) == list(table.values)

    @pytest.mark.parametrize("spec,p,header", [
        # magic, then little-endian u64s: the number of regularities - 1, l,
        # m (0 for one regularity), n_max and P
        (R17, 17, "5144435403000000" "0000000000000000" "1100000000000000"
                  "0000000000000000" "3200000000000000" "1100000000000000"),
        (B37, 7, "5144435403000000" "0100000000000000" "0300000000000000"
                 "0700000000000000" "3200000000000000" "0700000000000000"),
    ], ids=["R17", "B37"])
    def test_header_bytes(self, tmp_path, spec, p, header):
        path = tmp_path / spec.cache_name(p)
        coeff_fast(spec, 50, p).save(path)
        assert path.read_bytes()[:48] == bytes.fromhex(header)

    @pytest.mark.parametrize("fields", [(0, 3, 7), (2, 3, 7), (0, 1, 0), (1, 3, 1), (1, 3, 0)],
                             ids=str)
    def test_header_fields_that_do_not_re_encode_are_refused(self, fields):
        with pytest.raises(ValueError, match="a source is regular L"):
            oracle._header_source(fields)

    def test_every_catalog_stream_round_trips(self, tmp_path):
        for spec, p in CATALOG_STREAMS:
            path = tmp_path / spec.cache_name(p)
            coeff_fast(spec, 20, p).save(path)
            loaded = CountTable.load(path)
            assert (loaded.source, loaded.modulus) == (spec, p)

    def test_one_name_per_stream_and_modulus(self):
        assert B37.cache_name(7) == "bipartite-3-7-m7.qdct"
        assert R17.cache_name(17) == "regular-17-0-m17.qdct"
        names = {spec.cache_name(p) for spec, p in CATALOG_STREAMS}
        assert len(names) == len(CATALOG_STREAMS)

    def test_exact_tables_not_cacheable(self, tmp_path):
        table = dp_counts(B37, 10)
        with pytest.raises(ValueError):
            table.save(tmp_path / "t.qdct")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.qdct"
        path.write_bytes(b"NOTACACHE" * 10)
        with pytest.raises(ValueError):
            CountTable.load(path)
        # a valid file whose stream code (bytes 8..16) is neither 0 nor 1
        coeff_fast(B37, 50, 7).save(path)
        data = bytearray(path.read_bytes())
        data[8] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            CountTable.load(path)

    def test_entry_outside_modulus_rejected(self, tmp_path):
        path = tmp_path / "t.qdct"
        coeff_fast(B37, 50, 7).save(path)
        data = bytearray(path.read_bytes())
        data[48 + 20] = 7  # entry 20 of a mod-7 table, one byte per entry
        data[-4:] = struct.pack("<I", zlib.crc32(data[:-4]))  # a valid checksum
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="outside"):
            CountTable.load(path)

    def test_changed_entry_is_a_miss(self, tmp_path):
        # an in-range residue that the header and the range check cannot catch
        table = coeff_fast(B37, 50, 7)
        path = tmp_path / B37.cache_name(7)
        table.save(path)
        data = bytearray(path.read_bytes())
        data[48 + 20] = (data[48 + 20] + 1) % 7
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="checksum"):
            CountTable.load(path)
        served = oracle.tables({(B37, 7): 50}, tmp_path, 1)[B37, 7]
        assert list(served.values) == list(table.values)
        assert list(CountTable.load(path).values) == list(table.values)

    def test_version_1_file_is_a_miss(self, tmp_path):
        # the old format: a version-1 magic, the same header, int64 entries
        table = coeff_fast(B37, 50, 7)
        path = tmp_path / B37.cache_name(7)
        path.write_bytes(b"QDCT\x01\x00\x00\x00" + struct.pack("<QQQQQ", 1, 3, 7, 50, 7)
                         + np.asarray(table.values, dtype="<i8").tobytes())
        with pytest.raises(ValueError):
            CountTable.load(path)
        served = oracle.tables({(B37, 7): 50}, tmp_path, 1)[B37, 7]
        assert list(served.values) == list(table.values)
        assert path.read_bytes()[:8] == CountTable._MAGIC

    def test_header_naming_no_valid_stream_is_a_miss(self, tmp_path):
        # a checksummed version-3 file whose header reads regular 3 with m = 7
        table = coeff_fast(B37, 50, 7)
        path = tmp_path / B37.cache_name(7)
        data = (CountTable._MAGIC + struct.pack("<QQQQQ", 0, 3, 7, 50, 7)
                + np.asarray(table.values, dtype="<u1").tobytes())
        path.write_bytes(data + struct.pack("<I", zlib.crc32(data)))
        with pytest.raises(ValueError, match="a source is regular L"):
            CountTable.load(path)
        served = oracle.tables({(B37, 7): 50}, tmp_path, 1)[B37, 7]
        assert list(served.values) == list(table.values)
        loaded = CountTable.load(path)
        assert (loaded.source, list(loaded.values)) == (B37, list(table.values))

    @pytest.mark.parametrize("decoy", ["other-stream", "other-modulus", "other-kind",
                                       "too-short", "version-2"])
    def test_file_at_the_streams_name_is_a_miss_unless_it_matches(self, tmp_path, decoy):
        path = tmp_path / B37.cache_name(7)
        spec, n_max, p = {"other-stream": (SourceSpec((3, 11)), 600, 7),
                          "other-modulus": (B37, 600, 11),
                          "other-kind": (SourceSpec((3,)), 600, 7),
                          "too-short": (B37, 499, 7)}.get(decoy, (B37, 600, 7))
        coeff_fast(spec, n_max, p).save(path)
        if decoy == "version-2":
            _as_version_2(path)
        table = oracle.tables({(B37, 7): 500}, tmp_path, 1)[B37, 7]
        want = coeff_fast(B37, 500, 7)
        assert (table.source, table.n_max, table.modulus) == (B37, 500, 7)
        assert list(table.values) == list(want.values)
        assert list(CountTable.load(path).values) == list(want.values)
        assert list(tmp_path.iterdir()) == [path]

    def test_matching_file_is_served_and_no_other_is_read(self, tmp_path, monkeypatch):
        spec = R17
        saved = coeff_fast(R17, 400, 17)
        saved.save(tmp_path / spec.cache_name(17))
        coeff_fast(R17, 900, 17).save(tmp_path / "regular-17-0-900-m17.qdct")
        before = sorted(tmp_path.iterdir())
        loads = []
        real_load = CountTable.load

        def counting_load(cls, path):
            loads.append(path.name)
            return real_load(path)

        def no_build(*args):
            raise AssertionError("the cached table should have been used")

        monkeypatch.setattr(CountTable, "load", classmethod(counting_load))
        monkeypatch.setattr(oracle, "_build_group", no_build)
        table = oracle.tables({(spec, 17): 300}, tmp_path, 1)[spec, 17]
        assert loads == [spec.cache_name(17)]
        assert table.n_max == 400 and list(table.values) == list(saved.values)
        assert sorted(tmp_path.iterdir()) == before

    def test_saving_prunes_smaller_tables_of_the_same_stream(self, tmp_path):
        # a larger range replaces the stream's one file; files of this version
        # under other names, whatever they hold, stay
        coeff_fast(B37, 50, 11).save(tmp_path / "other-modulus.qdct")
        coeff_fast(B37, 50, 7).save(tmp_path / "bipartite-3-7-50-m7.qdct")
        (tmp_path / "junk.qdct").write_bytes(b"QDCT")
        decoys = sorted(tmp_path.iterdir())
        for order in (100, 300):
            oracle.tables({(B37, 7): order}, tmp_path, 1)
        assert sorted(tmp_path.iterdir()) == sorted(decoys + [tmp_path / B37.cache_name(7)])
        assert CountTable.load(tmp_path / B37.cache_name(7)).n_max == 300

    def test_a_build_leaves_every_other_file_as_it_was(self, tmp_path):
        # files of another version, damaged, foreign or nested stay byte for
        # byte; only a file at the stream's own name is replaced
        cache_dir = tmp_path / "cache"
        (cache_dir / "sub").mkdir(parents=True)
        v1 = b"QDCT\x01\x00\x00\x00" + struct.pack("<QQQQQ", 1, 3, 7, 100, 7) + bytes(101 * 8)
        same_name = cache_dir / B37.cache_name(7)  # the new table's name
        for path in (same_name, cache_dir / "other-stream.qdct", cache_dir / "old.bin",
                     cache_dir / "sub" / "nested.qdct", tmp_path / "outside.qdct"):
            path.write_bytes(v1)
        # version-2 files under the names that version gave them, n_max included
        for name, table in [("bipartite-3-7-100-m7.qdct", coeff_fast(B37, 100, 7)),
                            ("regular-17-0-300-m17.qdct", coeff_fast(R17, 300, 17))]:
            table.save(cache_dir / name)
            _as_version_2(cache_dir / name)
        (cache_dir / "v9.qdct").write_bytes(b"QDCT\x09\x00\x00\x00")
        (cache_dir / "short.qdct").write_bytes(b"QDCT")
        (cache_dir / "damaged.qdct").write_bytes(CountTable._MAGIC + b"\x00" * 7)
        (cache_dir / "junk.qdct").write_bytes(b"NOTACACHE" * 10)
        others = {path: path.read_bytes() for path in tmp_path.rglob("*")
                  if path.is_file() and path != same_name}
        assert len(others) == 10
        oracle.tables({(B37, 7): 100}, cache_dir, 1)
        assert {path: path.read_bytes() for path in others} == others
        assert sorted(tmp_path.rglob("*")) == sorted([*others, same_name, cache_dir,
                                                      cache_dir / "sub"])
        assert same_name.read_bytes()[:8] == CountTable._MAGIC

    def test_loading_prunes_nothing(self, tmp_path):
        coeff_fast(B37, 100, 7).save(tmp_path / B37.cache_name(7))
        (tmp_path / "old.qdct").write_bytes(b"QDCT\x01\x00\x00\x00" + bytes(40))
        before = sorted(tmp_path.iterdir())
        oracle.tables({(B37, 7): 100}, tmp_path, 1)
        assert sorted(tmp_path.iterdir()) == before


def _families_cold_needs():
    """The largest index `verify --suite families` reads of each (stream,
    modulus), in its order."""
    needs = {}
    for fam in build_families():
        if not fam.slow:
            for spec, order in required_order(fam).items():
                needs[spec, fam.modulus] = max(needs.get((spec, fam.modulus), 0), order)
    return needs


def _families_cold_streams():
    """The (stream, modulus) keys of `verify --suite families`, in its order."""
    return list(_families_cold_needs())


class TestTables:
    """oracle.tables fetches a batch's tables before its family walk."""

    NEEDS = {key: 150 + 97 * i for i, key in enumerate(_families_cold_streams())}

    def test_threads_build_equal_tables_and_files(self, tmp_path):
        assert len(self.NEEDS) == 8
        tables, files = {}, {}
        for jobs in (1, 2):
            (tmp_path / f"jobs{jobs}").mkdir()
            served = oracle.tables(self.NEEDS, tmp_path / f"jobs{jobs}", jobs)
            tables[jobs] = {key: list(table.values) for key, table in served.items()}
            files[jobs] = {path.name: path.read_bytes()
                           for path in (tmp_path / f"jobs{jobs}").iterdir()}
        assert tables[1] == tables[2]
        assert files[1] == files[2]
        assert sorted(files[1]) == sorted(spec.cache_name(p) for spec, p in self.NEEDS)
        for (spec, p), order in self.NEEDS.items():
            want = dp_counts(spec, order, modulus=p)
            assert tables[2][spec, p] == list(want.values), spec

    def test_cached_tables_are_loaded_on_the_calling_thread(self, tmp_path, monkeypatch):
        oracle.tables(self.NEEDS, tmp_path, 2)
        loads = []
        real_load = CountTable.load

        def load(cls, path):
            loads.append(threading.get_ident())
            return real_load(path)

        def no_build(*args):
            raise AssertionError("a cached table was built again")

        monkeypatch.setattr(CountTable, "load", classmethod(load))
        monkeypatch.setattr(oracle, "_build_group", no_build)
        served = oracle.tables(self.NEEDS, tmp_path, 2)
        assert loads == [threading.get_ident()] * len(self.NEEDS)
        assert {key: t.n_max for key, t in served.items()} == self.NEEDS

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failed_build_is_its_streams_value(self, tmp_path, monkeypatch, jobs):
        # the (5,13) stream's group fails, and so does the stream alone: the
        # other members of its group are built alone and served
        failing = SourceSpec((5, 13))
        real = oracle._build_group

        def flaky(streams, den):
            if any(spec == failing for spec, _, _ in streams):
                raise ArithmeticError("boom")
            return real(streams, den)

        monkeypatch.setattr(oracle, "_build_group", flaky)
        served = oracle.tables(self.NEEDS, tmp_path, jobs)
        assert served.keys() == self.NEEDS.keys()
        for (spec, p), order in self.NEEDS.items():
            if spec == failing:
                assert isinstance(served[spec, p], ArithmeticError)
                assert str(served[spec, p]) == "boom"
            else:
                assert served[spec, p].n_max == order
        assert len(list(tmp_path.iterdir())) == len(self.NEEDS) - 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failed_denominator_is_its_streams_value(self, monkeypatch, jobs):
        # f_1^2 cannot be built: every stream that divides by it is served
        # the exception; b_17 shares a group with B_{5,13}, and built alone
        # it divides by f_1
        real = oracle._pentagonal_product

        def flaky(scales, n, p, lead=1):
            if not p and len(scales) == 2:
                raise MemoryError("no room for f_1^2")
            return real(scales, n, p, lead)

        monkeypatch.setattr(oracle, "_pentagonal_product", flaky)
        needs = {(R17, 17): 300, (B37, 7): 250, (SourceSpec((5, 13)), 13): 200}
        served = oracle.tables(needs, None, jobs)
        assert list(served[R17, 17].values) == list(dp_counts(R17, 300, 17).values)
        for key in ((B37, 7), (SourceSpec((5, 13)), 13)):
            assert isinstance(served[key], MemoryError) and str(served[key]) == "no room for f_1^2"

    def test_builds_run_longest_first(self, monkeypatch):
        # groups start in the order of their longest streams, and each stream
        # is built once
        started, built = [], []
        real = oracle._build_group

        def build(streams, den):
            started.append(max(order for _, _, order in streams))
            built.extend(order for _, _, order in streams)
            return real(streams, den)

        monkeypatch.setattr(oracle, "_build_group", build)
        oracle.tables(self.NEEDS, None, 1)
        assert started == sorted(started, reverse=True)
        assert sorted(built) == sorted(self.NEEDS.values())

    def test_many_workers_share_one_directory(self, tmp_path):
        # more workers than cores and a short switch interval: each stream
        # replaces its too-short file while the other workers write the same
        # directory, and the stale files stay as they were
        needs = {key: 120 + 31 * i for i, key in enumerate(CATALOG_STREAMS)}
        stale = {}
        for i, ((spec, p), order) in enumerate(needs.items()):
            coeff_fast(spec, order - 50, p).save(tmp_path / spec.cache_name(p))
            stale[tmp_path / f"stale-{i}.qdct"] = b"QDCT\x01\x00\x00\x00" + bytes([i] * 40)
        for path, data in stale.items():
            path.write_bytes(data)
        serial = oracle.tables(needs, None, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            served = oracle.tables(needs, tmp_path, 8)
        finally:
            sys.setswitchinterval(interval)
        for (spec, p), order in needs.items():
            want = list(serial[spec, p].values)
            assert served[spec, p].n_max == order
            assert list(served[spec, p].values) == want
            assert list(CountTable.load(tmp_path / spec.cache_name(p)).values) == want
        assert {path: path.read_bytes() for path in stale} == stale
        assert len(list(tmp_path.iterdir())) == len(needs) + len(stale)


B28 = SourceSpec((2, 8))
R5 = SourceSpec((5,))


def _one_limb(p, n):
    step = oracle._step(n)
    return oracle._limb_bits(p, n, 2 * step, -(-(n + 1) // step)) is None


@st.composite
def _batches(draw):
    """Streams of distinct (stream, modulus) keys, with moduli that share
    factors, moduli of every dtype width, and orders up to 2.5e7."""
    moduli = st.sampled_from([2, 3, 4, 5, 6, 7, 9, 11, 13, 17, 35, 64, 127, 251, 256,
                              257, 65521, 65537, P26])
    keys = draw(st.lists(st.tuples(st.sampled_from([B37, R17, B28, R5]), moduli),
                         min_size=1, max_size=12, unique=True))
    return [(spec, p, draw(st.integers(0, 25_000_000))) for spec, p in keys]


class TestCoprimeGroups:
    """oracle.tables builds each group of coprime moduli by one division."""

    def test_the_families_cold_needs_make_four_groups(self):
        named = [[(spec.describe(), p) for spec, p, _ in group] for group in
                 oracle._coprime_groups([(spec, p, order) for (spec, p), order
                                         in _families_cold_needs().items()])]
        assert [sorted(group) for group in named] == [
            [("B_{3,7}", 7), ("B_{5,11}", 11), ("B_{9,5}", 3)],
            [("B_{5,13}", 13), ("b_17", 17)],
            [("B_{3,11}", 11), ("B_{81,17}", 17)],
            [("B_{2,8}", 11)],
        ]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(streams=_batches())
    def test_groups_are_coprime_and_keep_dtype_and_one_limb(self, streams):
        groups = oracle._coprime_groups(streams)
        assert sorted(map(repr, (s for group in groups for s in group))) == sorted(map(repr, streams))
        tops = [max(order for _, _, order in group) for group in groups]
        assert tops == sorted(tops, reverse=True)
        for group, top in zip(groups, tops):
            moduli = [p for _, p, _ in group]
            product = math.prod(moduli)
            assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(moduli, 2))
            if len(group) > 1:
                # the tables' one dtype holds P - 1: only moduli of one byte share
                assert {np.min_scalar_type(p - 1) for p in moduli + [product]} == {np.dtype(np.uint8)}
                assert _one_limb(product, top)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_groups_and_streams_that_must_not_share_agree_with_dp(self, jobs):
        # 6 and 9 share 3, two streams mod 11, and 2^26 - 5 is wider than a
        # byte; 4, 35 and the catalog's moduli make groups of composite and
        # prime moduli
        needs = {(B28, 6): 700, (B28, 9): 650, (R5, 11): 600, (B37, 11): 550,
                 (B28, P26): 500, (R5, 4): 450, (B37, 35): 400,
                 **{key: 300 + 37 * i for i, key in enumerate(CATALOG_STREAMS)}}
        groups = oracle._coprime_groups([(spec, p, n) for (spec, p), n in needs.items()])
        assert [(B28, P26, 500)] in groups
        assert len(groups) < len(needs)
        for group in groups:
            assert len({p for _, p, _ in group}) == len(group)
        served = oracle.tables(needs, None, jobs)
        for (spec, p), n in needs.items():
            assert served[spec, p].values.dtype == np.min_scalar_type(p - 1)
            assert list(served[spec, p].values) == list(dp_counts(spec, n, p).values), (spec, p)

    def test_tables_are_the_lone_builds(self):
        # byte for byte, at orders that cross the block floor and split the
        # half-length products differently for each member
        needs = {(B37, 7): 5000, (SourceSpec((9, 5)), 3): 3100,
                 (SourceSpec((5, 11)), 11): 2047, (R17, 17): 4096,
                 (SourceSpec((5, 13)), 13): 1}
        served = oracle.tables(needs, None, 1)
        assert len(oracle._coprime_groups([(s, p, n) for (s, p), n in needs.items()])) == 2
        for (spec, p), n in needs.items():
            lone = coeff_fast(spec, n, p).values
            assert served[spec, p].values.tobytes() == lone.tobytes()
            assert served[spec, p].values.dtype == lone.dtype

    def test_a_lone_regular_stream_divides_by_f1(self, monkeypatch):
        # b_17 alone is f_17 / f_1; beside a bipartite stream it is
        # f_17 f_1 / f_1^2.  The denominator is built first, over Z (p = 0),
        # and the numerators mod the group's P
        built = []
        real = oracle._pentagonal_product

        def recording(scales, n, p, lead=1):
            built.append((tuple(scales), p))
            return real(scales, n, p, lead)

        monkeypatch.setattr(oracle, "_pentagonal_product", recording)
        oracle.tables({(R17, 17): 300}, None, 1)
        assert built == [((1,), 0), ((17,), 17)]
        built.clear()
        oracle.tables({(R17, 17): 300, (SourceSpec((5, 13)), 13): 200}, None, 1)
        assert built == [((1, 1), 0), ((17, 1), 221), ((5, 13), 221)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_exact_denominator_per_power_per_batch(self, monkeypatch, jobs):
        # four groups: R5 mod 256 alone divides by f_1, the three others by
        # f_1^2; each power is built once, over Z, on the calling thread, to
        # the top order of its groups
        needs = {(R17, 17): 300, (B28, 11): 260, (R5, 256): 200, (B37, 7): 250,
                 (B28, 65521): 100}
        groups = oracle._coprime_groups([(s, p, n) for (s, p), n in needs.items()])
        assert sorted(oracle._power(group) for group in groups) == [1, 2, 2, 2]
        exact = []
        real = oracle._pentagonal_product

        def recording(scales, n, p, lead=1):
            if not p:
                exact.append((tuple(scales), n, threading.get_ident()))
            return real(scales, n, p, lead)

        monkeypatch.setattr(oracle, "_pentagonal_product", recording)
        served = oracle.tables(needs, None, jobs)
        assert sorted(exact) == [((1,), 200, threading.get_ident()),
                                 ((1, 1), 300, threading.get_ident())]
        for (spec, p), n in needs.items():
            assert list(served[spec, p].values) == list(dp_counts(spec, n, p).values)

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("P", [2, 7, 231, 255, 256, 257, 65521, 65536, P26, 2**26])
    def test_denominators_reduce_mod_any_modulus(self, r, P):
        # the reduction of the exact f_1^R runs in a signed dtype that holds
        # P, into the table dtype: no wrap at P = 2^26
        group = [(SourceSpec((2, 8)) if r == 2 else R5, P, 3000)]
        got = oracle._denominators([group])(r, 3000, P)
        want = oracle._pentagonal_product((1,) * r, 3000, P)
        assert got.dtype == want.dtype == np.min_scalar_type(P - 1)
        assert list(got) == list(want)

    @staticmethod
    def _exact_arrays(monkeypatch):
        """Weak references to the arrays built over Z from now on."""
        held = []
        real = oracle._pentagonal_product

        def recording(scales, n, p, lead=1):
            out = real(scales, n, p, lead)
            if not p:
                held.append(weakref.ref(out))
            return out

        monkeypatch.setattr(oracle, "_pentagonal_product", recording)
        return held

    def test_each_denominator_is_owned_by_one_group(self, monkeypatch):
        # f_1^2 to 5000 for groups to 5000, 3000 and 800, taken in that order:
        # the first group reduces the exact array in place, the others read
        # copies of the prefixes still needed, and nothing is left after the
        # last
        held = self._exact_arrays(monkeypatch)
        den = oracle._denominators([[(B37, 7, 5000)], [(B28, 11, 3000)], [(B37, 13, 800)]])
        (whole,) = held
        shares = [den(2, 5000, 7), den(2, 3000, 11), den(2, 800, 13)]
        assert np.shares_memory(shares[0], whole())
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(shares, 2))
        for share, (n, p) in zip(shares, [(5000, 7), (3000, 11), (800, 13)]):
            assert share.dtype == np.uint8
            assert list(share) == list(oracle._pentagonal_product((1, 1), n, p))
        with pytest.raises(KeyError):  # every share is taken: no f_1^2 is left
            den(2, 800, 13)
        del shares
        assert whole() is None

    def test_a_group_that_takes_early_copies_its_prefix(self, monkeypatch):
        # a thread may start a shorter group first: it copies what it reads,
        # and the longer group still takes the whole array; a tie copies too
        held = self._exact_arrays(monkeypatch)
        den = oracle._denominators([[(B37, 7, 5000)], [(B28, 11, 3000)], [(B28, 13, 5000)]])
        (whole,) = held
        short, tie, long = den(2, 3000, 11), den(2, 5000, 7), den(2, 5000, 13)
        assert [np.shares_memory(x, whole()) for x in (short, tie, long)] == [False, False, True]
        for share, (n, p) in zip((short, tie, long), [(3000, 11), (5000, 7), (5000, 13)]):
            assert list(share) == list(oracle._pentagonal_product((1, 1), n, p))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_grouped_tables_are_the_lone_builds_for_any_modulus(self, jobs):
        # moduli up to 2^26, alone and in groups of one-byte moduli
        needs = {(B37, 7): 3000, (SourceSpec((9, 5)), 3): 2500,
                 (SourceSpec((5, 11)), 11): 2047, (R17, 17): 2100,
                 (SourceSpec((5, 13)), 13): 1200, (B28, P26): 2600,
                 (R5, 2**26): 1500, (B37, 65521): 900, (R5, 256): 1100}
        groups = oracle._coprime_groups([(s, p, n) for (s, p), n in needs.items()])
        assert max(len(group) for group in groups) > 1
        served = oracle.tables(needs, None, jobs)
        for (spec, p), n in needs.items():
            lone = coeff_fast(spec, n, p).values
            assert served[spec, p].values.dtype == lone.dtype
            assert served[spec, p].values.tobytes() == lone.tobytes(), (spec, p)
            if n <= 1500:
                assert list(lone) == list(dp_counts(spec, n, p).values), (spec, p)

    def test_a_failed_group_is_built_alone(self, monkeypatch):
        # a failure of the shared division that no stream makes alone
        real = oracle._build_group
        calls = []

        def flaky(streams, den):
            calls.append(len(streams))
            if len(streams) > 1:
                raise ArithmeticError("boom")
            return real(streams, den)

        monkeypatch.setattr(oracle, "_build_group", flaky)
        needs = {(B37, 7): 300, (SourceSpec((9, 5)), 3): 200,
                 (SourceSpec((5, 11)), 11): 100}
        served = oracle.tables(needs, None, 1)
        assert calls == [3, 1, 1, 1]
        for (spec, p), n in needs.items():
            assert list(served[spec, p].values) == list(dp_counts(spec, n, p).values)
