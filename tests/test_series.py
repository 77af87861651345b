"""Truncated series arithmetic: frozen examples and algebraic laws."""

from __future__ import annotations

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdissect import series
from qdissect._fftbound import _GUARD, _error_bound, _max_digit, _rounded
from qdissect.series import (
    EXACT,
    CoeffRing,
    NonUnitError,
    PrecisionError,
    RingMismatchError,
    Series,
    add,
    dilate,
    eq_to_order,
    extract,
    invert,
    monomial,
    mul,
    one,
    pow_,
    reduce_mod,
    scalar_mul,
    zero,
)
from qdissect.qexpr import EtaF, Pochhammer, Pow, Theta, eval_qexpr
from conftest import brute_binomial, brute_mul, brute_pochhammer, random_series, theta_sum


def euler_product(order: int, ring=EXACT) -> Series:
    return Series(ring, brute_pochhammer(1, 1, order))


class TestConstruction:
    def test_ring_validation(self):
        with pytest.raises(ValueError):
            CoeffRing(1)
        with pytest.raises(ValueError):
            CoeffRing(-2)
        assert CoeffRing(0) == EXACT and CoeffRing(5) != EXACT

    def test_modular_normalization(self):
        s = Series(CoeffRing(7), [9, -1, 14])
        assert s.coeffs == (2, 6, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Series(EXACT, [])

    def test_immutable(self):
        s = one(EXACT, 3)
        with pytest.raises(AttributeError):
            s.ring = CoeffRing(5)


class TestAddSub:
    def test_cancellation(self):
        a = Series(EXACT, [1, 1])
        b = Series(EXACT, [1, -1])
        assert add(a, b).coeffs == (2, 0)

    def test_identity_element(self):
        f1 = euler_product(20)
        assert add(f1, zero(EXACT, 20)) == f1

    def test_self_difference_vanishes(self):
        f1 = euler_product(20)
        assert add(f1, scalar_mul(-1, f1)) == zero(EXACT, 20)

    def test_order_is_min(self):
        assert add(one(EXACT, 10), one(EXACT, 4)).order == 4

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            add(one(EXACT, 3), one(CoeffRing(5), 3))


class TestMul:
    def test_telescoping(self):
        n = 30
        geom = Series(EXACT, [1] * (n + 1))
        binom = Series(EXACT, [1, -1] + [0] * (n - 1))
        assert mul(binom, geom) == one(EXACT, n)

    def test_inverse_product(self):
        f1 = euler_product(40)
        assert mul(f1, invert(f1)) == one(EXACT, 40)

    def test_f1_squared_frozen(self):
        # brute-force expansion of the pentagonal series squared
        f1 = euler_product(6)
        assert mul(f1, f1).coeffs == (1, -2, -1, 2, 1, 2, -2)

    def test_sparse_and_dense_paths_agree(self):
        rng = random.Random(7)
        ring = CoeffRing(13)
        a = random_series(rng, ring, 120)
        sparse = Series(ring, [1 if i in (0, 5, 17, 80) else 0 for i in range(121)])
        direct = [sum(a[j] * sparse[i - j] for j in range(i + 1)) % 13 for i in range(121)]
        assert list(mul(a, sparse).coeffs) == direct
        assert list(mul(sparse, a).coeffs) == direct


class TestPow:
    def test_square(self):
        assert pow_(Series(EXACT, [1, 1, 0]), 2).coeffs == (1, 2, 1)

    def test_zeroth_power(self):
        assert pow_(euler_product(10), 0) == one(EXACT, 10)

    def test_geometric_series(self):
        s = pow_(Series(EXACT, [1, -1, 0, 0, 0, 0]), -1)
        assert s.coeffs == (1, 1, 1, 1, 1, 1)

    def test_negative_power_needs_unit(self):
        with pytest.raises(NonUnitError):
            pow_(Series(EXACT, [2, 1]), -1)


class TestInvert:
    def test_partition_numbers(self):
        inv = invert(euler_product(10))
        assert inv.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)

    def test_invert_one(self):
        assert invert(one(EXACT, 8)) == one(EXACT, 8)

    def test_involution(self):
        f1 = euler_product(25)
        assert invert(invert(f1)) == f1

    def test_negative_unit_constant(self):
        s = Series(EXACT, [-1, 3, 2])
        assert mul(s, invert(s)) == one(EXACT, 2)

    def test_modular_inverse_any_unit(self):
        s = Series(CoeffRing(7), [3, 5, 1, 2])
        assert mul(s, invert(s)) == one(CoeffRing(7), 3)

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitError):
            invert(Series(EXACT, [2, 1]))
        with pytest.raises(NonUnitError):
            invert(Series(CoeffRing(6), [3, 1]))  # 3 not invertible mod 6


class TestDilateExtract:
    def test_dilate_simple(self):
        assert dilate(Series(EXACT, [1, 1]), 5).coeffs == (1, 0, 0, 0, 0, 1)

    def test_dilate_composition(self):
        a = euler_product(12)
        assert dilate(dilate(a, 2), 3) == dilate(a, 6)

    def test_dilate_to_order(self):
        a = Series(EXACT, [1, 1, 2])
        assert dilate(a, 3, 5).coeffs == (1, 0, 0, 1, 0, 0)
        assert dilate(a, 3, 8).coeffs == (1, 0, 0, 1, 0, 0, 2, 0, 0)  # the last order a fixes
        assert dilate(a, 3, 0).coeffs == (1,)
        with pytest.raises(PrecisionError):
            dilate(a, 3, 9)

    def test_extract_squares_parity(self):
        # odd squares 1, 9, 25 land at (1-1)/2=0, (9-1)/2=4, (25-1)/2=12
        phi = [0] * 30
        phi[0] = 1
        for k in range(1, 6):
            if k * k < 30:
                phi[k * k] = 2
        odd = extract(Series(EXACT, phi), 1, 2)
        expect = [0] * 15
        expect[0] = expect[4] = expect[12] = 2
        assert odd.coeffs == tuple(expect[: odd.order + 1])

    def test_extract_dilate_inverse_law(self):
        a = euler_product(20)
        assert extract(dilate(a, 5), 0, 5) == a
        for r in (1, 2, 3, 4):
            assert not any(extract(dilate(a, 5), r, 5).coeffs)

    def test_extract_pentagonal_residues(self):
        # exponents of the Euler product congruent to 2 mod 5, found by
        # enumerating generalized pentagonal numbers independently
        order = 200
        f1 = euler_product(order)
        got = extract(f1, 2, 5)
        expect = [0] * (got.order + 1)
        k = 1
        while True:
            done = True
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= order:
                    done = False
                    if g % 5 == 2:
                        expect[(g - 2) // 5] = -1 if k % 2 else 1
            if done:
                break
            k += 1
        assert got.coeffs == tuple(expect)

    def test_extract_bad_args(self):
        with pytest.raises(ValueError):
            extract(one(EXACT, 5), 3, 3)
        with pytest.raises(PrecisionError):
            extract(one(EXACT, 2), 3, 5)


class TestReduceEq:
    def test_reduce_mod_euler_square(self):
        # f_2 and f_1^2 agree mod 2 (binomial congruence at p = 2)
        n = 60
        f1 = euler_product(n)
        f2 = Series(EXACT, brute_pochhammer(2, 2, n))
        diff = add(f2, scalar_mul(-1, mul(f1, f1)))
        assert reduce_mod(diff, 2) == zero(CoeffRing(2), n)

    def test_eq_reflexive(self):
        f1 = euler_product(30)
        assert eq_to_order(f1, f1, 30) == (True, None)

    def test_eq_reports_first_mismatch(self):
        n = 12
        a = one(EXACT, n)
        b = add(one(EXACT, n), monomial(EXACT, n, n))
        assert eq_to_order(a, b, n) == (False, n)

    def test_eq_needs_enough_coefficients(self):
        with pytest.raises(PrecisionError):
            eq_to_order(one(EXACT, 5), one(EXACT, 3), 5)


# ---------------------------------------------------------------------------
# randomized algebraic laws (fixed seeds via derandomized hypothesis)
# ---------------------------------------------------------------------------

ORDER = 64
MODULI = [0, 2, 3, 7, 11, 13, 17, 97]


def _series_strategy(modulus: int, unit: bool = False):
    hi = modulus - 1 if modulus else 9
    lo = 0 if modulus else -9
    elems = st.integers(min_value=lo, max_value=hi)
    lead = st.just(1) if modulus else st.sampled_from([1, -1])
    ring = EXACT if modulus == 0 else CoeffRing(modulus)
    if unit:
        return st.tuples(lead, st.lists(elems, min_size=ORDER, max_size=ORDER)).map(
            lambda t: Series(ring, [t[0]] + t[1])
        )
    return st.lists(elems, min_size=ORDER + 1, max_size=ORDER + 1).map(
        lambda c: Series(ring, c)
    )


@settings(derandomize=True, max_examples=40)
@given(data=st.data(), modulus=st.sampled_from(MODULI))
def test_ring_laws(data, modulus):
    a = data.draw(_series_strategy(modulus))
    b = data.draw(_series_strategy(modulus))
    c = data.draw(_series_strategy(modulus))
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@settings(derandomize=True, max_examples=100)
@given(data=st.data(), modulus=st.sampled_from([0, 7, 97]))
def test_invert_two_sided(data, modulus):
    a = data.draw(_series_strategy(modulus, unit=True))
    ring = a.ring
    assert mul(a, invert(a)) == one(ring, a.order)
    assert mul(invert(a), a) == one(ring, a.order)


@settings(derandomize=True, max_examples=40)
@given(data=st.data(), s=st.integers(min_value=2, max_value=6))
def test_dissection_reconstructs(data, s):
    a = data.draw(_series_strategy(7))
    total = zero(a.ring, a.order)
    for r in range(s):
        comp = dilate(extract(a, r, s), s)
        piece = mul(monomial(a.ring, a.order, r), _pad(comp, a.order))
        total = add(total, piece)
    n = a.order - s
    assert eq_to_order(total, a, n) == (True, None)


def _pad(sr: Series, order: int) -> Series:
    if sr.order >= order:
        return Series(sr.ring, sr.coeffs[: order + 1])
    return Series(sr.ring, list(sr.coeffs) + [0] * (order - sr.order))


@settings(derandomize=True, max_examples=30)
@given(data=st.data(), p=st.sampled_from([2, 3, 7, 13]))
def test_exact_and_modular_paths_commute(data, p):
    a = data.draw(_series_strategy(0))
    b = data.draw(_series_strategy(0))
    ra, rb = reduce_mod(a, p), reduce_mod(b, p)
    assert reduce_mod(add(a, b), p) == add(ra, rb)
    assert reduce_mod(mul(a, b), p) == mul(ra, rb)
    assert reduce_mod(pow_(a, 3), p) == pow_(ra, 3)
    assert reduce_mod(dilate(a, 3), p) == dilate(ra, 3)
    assert reduce_mod(extract(a, 1, 2), p) == extract(ra, 1, 2)


# ---------------------------------------------------------------------------
# mul against the plain double loop, at coefficient sizes that stress the
# int64 edge (big exact values, moduli up to 62 bits, operands at the bound)
# ---------------------------------------------------------------------------

# 2^62 - 57 is the largest prime below 2^62
MUL_MODULI = [0, 2, 97, 2**61 - 1, 2**62 - 57]


@st.composite
def _mul_factor(draw, modulus: int, order: int) -> list[int]:
    top = modulus - 1 if modulus else draw(st.sampled_from([1, 127, 2**64, 2**300]))
    shape = draw(st.sampled_from(["dense", "lacunary", "zero", "all-max", "all-neg"]))
    if shape == "zero":
        return [0] * (order + 1)
    if shape in ("all-max", "all-neg"):
        return [top if shape == "all-max" else -top] * (order + 1)
    coeff = st.integers(min_value=-top, max_value=top)
    if shape == "dense":
        return draw(st.lists(coeff, min_size=order + 1, max_size=order + 1))
    support = draw(st.sets(st.integers(min_value=0, max_value=order), max_size=3))
    return [draw(coeff) if i in support else 0 for i in range(order + 1)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    data=st.data(),
    modulus=st.sampled_from(MUL_MODULI),
    order_a=st.integers(min_value=0, max_value=40),
    order_b=st.integers(min_value=0, max_value=40),
)
def test_mul_matches_double_loop(data, modulus, order_a, order_b):
    ring = EXACT if modulus == 0 else CoeffRing(modulus)
    a = data.draw(_mul_factor(modulus, order_a))
    b = data.draw(_mul_factor(modulus, order_b))
    sa, sb = Series(ring, a), Series(ring, b)
    n = min(order_a, order_b)
    assert mul(sa, sb) == Series(ring, brute_mul(a, b, n))
    assert mul(sa, sa) == Series(ring, brute_mul(a, a, order_a))


@pytest.mark.parametrize("top", [1, 127, 128, 2**300])
@pytest.mark.parametrize("order", [0, 1, 30])
def test_mul_at_slot_bound(top, order):
    # all-equal operands make c_n = (n+1) * top^2, exactly the bound B
    pos = Series(EXACT, [top] * (order + 1))
    neg = Series(EXACT, [-top] * (order + 1))
    square = tuple((k + 1) * top * top for k in range(order + 1))
    assert mul(pos, pos).coeffs == square
    assert mul(neg, neg).coeffs == square
    assert mul(pos, neg).coeffs == tuple(-c for c in square)


@pytest.mark.parametrize("side", ["direct", "limbs"])
@pytest.mark.parametrize("order", [0, 30, 255])
def test_mul_at_int64_edge(monkeypatch, side, order):
    # below the float route's switch a product with B = max(1, |a|) *
    # max(1, |b|) * (n+1) below 2^63 is one int64 convolution, and from 2^63
    # on takes the limb route; all-equal operands put c_n at B itself
    direct, fft = _spy(monkeypatch, "_product_direct"), _spy(monkeypatch, "_product_fft")
    cap = (2**63 - 1) // (order + 1)  # the largest |a| * |b| below the edge
    grow = 0 if side == "direct" else 1
    tops = [(cap + grow, 1), (cap // math.isqrt(cap) + grow, math.isqrt(cap))]
    for top_a, top_b in tops:
        bound = top_a * top_b * (order + 1)
        assert bound < 2**63 if side == "direct" else bound >= 2**63
        pos_a, neg_a = [top_a] * (order + 1), [-top_a] * (order + 1)
        pos_b, neg_b = [top_b] * (order + 1), [-top_b] * (order + 1)
        for a, b in ((pos_a, pos_b), (neg_a, neg_b), (pos_a, neg_b), (neg_a, pos_b)):
            got = mul(Series(EXACT, a), Series(EXACT, b)).coeffs
            assert got == tuple(brute_mul(a, b, order))
            assert abs(got[order]) == bound
    if order == 0:  # B = 2^63 - 1 and 2^63 exactly
        assert tops[0][0] == 2**63 - 1 + grow
    assert (len(direct), len(fft)) == ((8, 0) if side == "direct" else (0, 8))
    # residues mod 2^31 - 1: (p - 1)^2 * (n+1) is below 2^63 only at n <= 1
    p = 2**31 - 1
    ring = CoeffRing(p)
    rng = random.Random(order)
    top, mixed = [p - 1] * (order + 1), [rng.randrange(p) for _ in range(order + 1)]
    del direct[:], fft[:]
    for a, b in ((top, top), (top, mixed), (top, [1] * (order + 1))):
        assert mul(Series(ring, a), Series(ring, b)) == Series(ring, brute_mul(a, b, order))
    below = 3 if order == 0 else 1  # (p - 1) * 1 * (n+1) stays below 2^63
    assert (len(direct), len(fft)) == (below, 3 - below)


# ---------------------------------------------------------------------------
# each fast route against an independent reference, on both sides of the
# switch that picks it
# ---------------------------------------------------------------------------

def _spy(monkeypatch, name: str) -> list:
    """Record the calls of the private route ``series.<name>``."""
    calls: list = []
    real = getattr(series, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(series, name, spy)
    return calls


def _operands(shape: str, top: int, order: int, rng) -> tuple[list[int], list[int]]:
    if shape == "dense":
        return ([rng.randint(-top, top) for _ in range(order + 1)],
                [rng.randint(-top, top) for _ in range(order + 1)])
    if shape == "all-max":  # c_k = (k+1) * top^2, the bound B at k = n
        return [top] * (order + 1), [top] * (order + 1)
    return [-top] * (order + 1), [top] * (order + 1)  # all-neg


class TestFFTProductRoute:
    # order 300, past the float route's switch: 2^200 and 2^600 coefficients
    # are far over its bound
    @pytest.mark.parametrize("shape", ["dense", "all-max", "all-neg"])
    @pytest.mark.parametrize("bits", [200, 600])
    def test_matches_double_loop(self, monkeypatch, shape, bits):
        fft, direct = _spy(monkeypatch, "_product_fft"), _spy(monkeypatch, "_product_direct")
        order = 300
        a, b = _operands(shape, 2**bits, order, random.Random(bits))
        sa, sb = Series(EXACT, a), Series(EXACT, b)
        assert mul(sa, sb).coeffs == tuple(brute_mul(a, b, order))
        assert mul(sb, sa).coeffs == tuple(brute_mul(a, b, order))
        assert mul(sa, sa).coeffs == tuple(brute_mul(a, a, order))
        assert len(fft) == 3 and not direct

    @pytest.mark.parametrize("small", [1, 52])
    def test_lopsided_operands_at_order_2048(self, small):
        # the shape of chain s8's products: few limbs against many
        order = 2048
        rng = random.Random(small)
        a = [rng.randint(-2**small, 2**small) for _ in range(order + 1)]
        b = [rng.randint(-2**716, 2**716) for _ in range(order + 1)]
        assert series._limb_count(small + 1, series._limb_bits(small + 1, 717, order)) < 5
        assert mul(Series(EXACT, a), Series(EXACT, b)).coeffs == tuple(brute_mul(a, b, order))

    def test_balanced_716_bit_operands(self):
        order = 600
        a, b = _operands("dense", 2**716, order, random.Random(716))
        assert mul(Series(EXACT, a), Series(EXACT, b)).coeffs == tuple(brute_mul(a, b, order))

    @pytest.mark.parametrize("order", [0, 1])
    def test_orders_zero_and_one(self, monkeypatch, order):
        fft = _spy(monkeypatch, "_product_fft")
        for shape in ("dense", "all-max", "all-neg"):
            a, b = _operands(shape, 2**600, order, random.Random(order))
            sa, sb = Series(EXACT, a), Series(EXACT, b)
            assert mul(sa, sb).coeffs == tuple(brute_mul(a, b, order))
            assert mul(sa, sa).coeffs == tuple(brute_mul(a, a, order))
        assert len(fft) == 6

    def test_square_reuses_the_spectra(self, monkeypatch):
        order = 300
        a, _ = _operands("dense", 2**600, order, random.Random(8))
        sa = Series(EXACT, a)
        rffts = []
        real = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda *args: rffts.append(1) or real(*args))
        assert mul(sa, sa).coeffs == tuple(brute_mul(a, a, order))
        bits = max(map(abs, a)).bit_length()
        assert len(rffts) == series._limb_count(bits, series._limb_bits(bits, bits, order))

    def test_zero_operand(self, monkeypatch):
        fft = _spy(monkeypatch, "_product_fft")
        order = 40
        a, _ = _operands("dense", 2**600, order, random.Random(9))
        sa, zeros = Series(EXACT, a), zero(EXACT, order)
        assert mul(sa, zeros) == zeros and mul(zeros, sa) == zeros
        assert len(fft) == 2

    def test_very_wide_coefficients(self, monkeypatch):
        # 2^8000 coefficients: about 300 limbs of each operand
        fft = _spy(monkeypatch, "_product_fft")
        order = 20
        a, b = _operands("dense", 2**8000, order, random.Random(3))
        assert mul(Series(EXACT, a), Series(EXACT, b)).coeffs == tuple(brute_mul(a, b, order))
        assert fft

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data(), order=st.integers(min_value=0, max_value=300),
           bits_a=st.integers(min_value=1, max_value=700),
           bits_b=st.integers(min_value=1, max_value=700))
    def test_route_matches_double_loop(self, data, order, bits_a, bits_b):
        def operand(bits):
            top = 2**bits
            shape = data.draw(st.sampled_from(["dense", "all-max", "all-neg", "zero"]))
            if shape == "dense":
                coeff = st.integers(min_value=-top, max_value=top)
                return data.draw(st.lists(coeff, min_size=order + 1, max_size=order + 1))
            return [{"all-max": top, "all-neg": -top, "zero": 0}[shape]] * (order + 1)

        a, b = operand(bits_a), operand(bits_b)
        wide_a, wide_b = max(map(abs, a)).bit_length(), max(map(abs, b)).bit_length()
        assert series._product_fft(a, b, wide_a, wide_b) == brute_mul(a, b, order)
        assert series._product_fft(a, a, wide_a, wide_a) == brute_mul(a, a, order)

    def test_rounding_guard_rejects_too_wide_limbs(self, monkeypatch):
        # 25-bit limbs put T * (n+1) * h^2 far beyond what float64 rounds exactly
        order = 300
        a, b = _operands("dense", 2**600, order, random.Random(12))
        sa, sb = Series(EXACT, a), Series(EXACT, b)
        assert mul(sa, sb).coeffs == tuple(brute_mul(a, b, order))
        monkeypatch.setattr(series, "_limb_bits", lambda *args: 25)
        with pytest.raises(ArithmeticError):
            mul(sa, sb)

    @pytest.mark.parametrize("bits_a,bits_b,n,s", [
        (716, 716, 2048, 14),
        (618, 618, 10000, 13),
        (1, 716, 2048, 17),  # one limb against 43
        (31, 31, 8192, 15),  # residues mod 2^31 - 1
        (8001, 8001, 20, 15),
        (1, 1, 0, 25),  # the widest any product takes
    ])
    def test_limb_width_follows_the_bound(self, bits_a, bits_b, n, s):
        length = 1 << max(2 * n - 1, 0).bit_length()  # the least power of two >= 2n

        def error(s):
            terms = min(series._limb_count(bits_a, s), series._limb_count(bits_b, s))
            return terms * (n + 1) * 4 ** (s - 1) * _error_bound(length, terms)

        # the widest limb that keeps the bound below the guard
        assert series._limb_bits(bits_a, bits_b, n) == s
        assert error(s) < _GUARD and all(error(w) >= _GUARD for w in range(s + 1, 33))

    @pytest.mark.parametrize("n,length,terms,pairs", [
        (0, 1, 1, 1), (2048, 8192, 43, 43), (10**6, 2**21, 31, 1), (24_772_604, 2**21, 24, 1),
    ])
    def test_max_digit_is_the_largest_within_the_guard(self, n, length, terms, pairs):
        h = _max_digit(n, length, terms, pairs)
        error = lambda h: pairs * (n + 1) * h * h * _error_bound(length, terms)
        assert error(h) <= _GUARD < error(h + 1)

    def test_rounding_guard(self):
        x = np.array([1.2, -3.0, 2.76, -0.249])
        assert list(_rounded(x)) == [1.0, -3.0, 3.0, -0.0]
        with pytest.raises(ArithmeticError):
            _rounded(np.array([0.0, 2.25]))

    def test_modular_large_moduli(self, monkeypatch):
        calls = _spy(monkeypatch, "_product_fft")
        p = 2**521 - 1  # Mersenne prime: 521-bit residues take the limb route
        ring = CoeffRing(p)
        rng = random.Random(11)
        a = [rng.randrange(p) for _ in range(201)]
        b = [rng.randrange(p) for _ in range(201)]
        assert mul(Series(ring, a), Series(ring, b)) == Series(ring, brute_mul(a, b, 200))
        assert calls


def _rfft_lengths(monkeypatch) -> list:
    """Record the transform length of every ``np.fft.rfft`` call."""
    lengths: list = []
    real = np.fft.rfft

    def spy(x, n=None, *args):
        lengths.append(n)
        return real(x, n, *args)

    monkeypatch.setattr(np.fft, "rfft", spy)
    return lengths


def _residue_pair(p: int, order: int, seed: int) -> tuple[list[int], list[int]]:
    """Two random residue lists mod ``p`` whose coefficients at ``q^order``
    are nonzero, so that the term at ``q^(2*order)`` is too."""
    rng = random.Random(seed)
    a = [rng.randrange(p) for _ in range(order + 1)]
    b = [rng.randrange(p) for _ in range(order + 1)]
    a[order], b[order] = p - 1, 1 + rng.randrange(p - 1)
    return a, b


class TestFloatProductRoute:
    SWITCH = series._FLOAT_MIN_ORDER

    def _routes(self, monkeypatch):
        return (_spy(monkeypatch, "_product_float"), _spy(monkeypatch, "_product_direct"),
                _spy(monkeypatch, "_product_fft"))

    def _check(self, ring, a, b, order):
        """mul against brute_mul, and the route's array against the direct route's."""
        want = brute_mul(a, b, order)
        got = mul(Series(ring, a), Series(ring, b))
        assert got == Series(ring, want)
        av, bv = np.array(a, dtype=object), np.array(b, dtype=object)
        top = max(1, max(map(abs, a))) * max(1, max(map(abs, b))) * (order + 1)
        if top < 2**63:
            assert series._product_direct(av, bv).tolist() == want

    @pytest.mark.parametrize("p", [3, 17, 0])
    def test_both_sides_of_the_order_switch(self, monkeypatch, p):
        flt, direct, fft = self._routes(monkeypatch)
        ring = CoeffRing(p) if p else EXACT
        for order in (self.SWITCH - 1, self.SWITCH):
            rng = random.Random(order + p)
            if p:
                a, b = _residue_pair(p, order, order)
            else:  # Z with coefficients in {-1, 0, 1}
                a = [rng.randint(-1, 1) for _ in range(order + 1)]
                b = [rng.randint(-1, 1) for _ in range(order + 1)]
                a[order], b[order] = -1, 1
            self._check(ring, a, b, order)
            assert (len(flt), len(fft)) == (order == self.SWITCH, 0)
        assert len(direct) == 1 + 2  # the product below the switch, and the two references

    @pytest.mark.parametrize("order", [256, 2048])
    def test_both_sides_of_the_value_bound(self, monkeypatch, order):
        # |a| * |b| at h^2 takes the float route, at h^2 + 1 the limb route
        h = _max_digit(order, series._fft_length(order), 1, 1)
        flt = _spy(monkeypatch, "_product_float")
        rng = random.Random(order)
        for top_a, top_b, taken in ((h, h, True), (h * h, 1, True), (h * h + 1, 1, False)):
            a = [rng.randint(-top_a, top_a) for _ in range(order + 1)]
            b = [rng.randint(-top_b, top_b) for _ in range(order + 1)]
            a[0], a[order], b[order] = top_a, -top_a, top_b
            before = len(flt)
            self._check(EXACT, a, b, order)
            assert len(flt) - before == taken
        # all-equal operands at h: every norm at its largest
        pos, neg = [h] * (order + 1), [-h] * (order + 1)
        assert mul(Series(EXACT, pos), Series(EXACT, neg)).coeffs == tuple(
            -(k + 1) * h * h for k in range(order + 1))

    @pytest.mark.parametrize("order", [256, 2048])
    def test_just_over_the_float_bound_takes_limbs(self, monkeypatch, order):
        # from the switch on the direct route never runs, even with B < 2^63
        flt, direct, fft = self._routes(monkeypatch)
        h = _max_digit(order, series._fft_length(order), 1, 1)
        rng = random.Random(order + 1)
        for top_a, top_b in ((h * h + 1, 1), (h + 1, h)):
            assert (order + 1) * top_a * top_b < 2**63
            a = [rng.randint(-top_a, top_a) for _ in range(order + 1)]
            b = [rng.randint(-top_b, top_b) for _ in range(order + 1)]
            a[0], a[order], b[order] = top_a, -top_a, top_b
            got = mul(Series(EXACT, a), Series(EXACT, b))
            assert got.coeffs == tuple(brute_mul(a, b, order))
        assert (len(flt), len(direct), len(fft)) == (0, 0, 2)

    def test_wide_residues_keep_the_limb_route(self, monkeypatch):
        flt, direct, fft = self._routes(monkeypatch)
        p, order = 2**31 - 1, 2048
        a, b = _residue_pair(p, order, 31)
        assert mul(Series(CoeffRing(p), a), Series(CoeffRing(p), b)) == Series(
            CoeffRing(p), brute_mul(a, b, order))
        assert (len(flt), len(direct), len(fft)) == (0, 0, 1)

    @pytest.mark.parametrize("order", [256, 512, 2048])
    @pytest.mark.parametrize("p", [3, 17])
    def test_wrapped_term_is_subtracted(self, monkeypatch, p, order):
        # 2n is a power of two, so the term at q^(2n), a_n * b_n, wraps onto q^0
        assert series._fft_length(order) == 2 * order
        flt = _spy(monkeypatch, "_product_float")
        a, b = _residue_pair(p, order, p * order)
        self._check(CoeffRing(p), a, b, order)
        sa = Series(CoeffRing(p), a)
        assert mul(sa, sa) == Series(CoeffRing(p), brute_mul(a, a, order))
        assert len(flt) == 2

    def test_square_transforms_once(self, monkeypatch):
        order = 2048
        a, _ = _residue_pair(17, order, 2)
        sa = Series(CoeffRing(17), a)
        lengths = _rfft_lengths(monkeypatch)
        assert mul(sa, sa) == Series(CoeffRing(17), brute_mul(a, a, order))
        assert lengths == [4096]

    @pytest.mark.parametrize("order", [*range(0, 41), 63, 64, 65])
    def test_route_at_small_orders(self, order):
        # called directly: below the switch only the wrap rule and the bound differ
        rng = random.Random(order)
        a = np.array([rng.randint(-50, 50) for _ in range(order + 1)], np.int64)
        b = np.array([rng.randint(-50, 50) for _ in range(order + 1)], object)
        a[order], b[order] = 50, -50
        assert series._product_float(a, b).tolist() == brute_mul(a.tolist(), b.tolist(), order)
        assert series._product_float(a, a).tolist() == brute_mul(a.tolist(), a.tolist(), order)

    def test_rounding_guard_rejects_a_too_wide_bound(self, monkeypatch):
        # residues near 2^20 at order 2048: outputs below 2^53, but the error
        # passes 1/4 once the bound is widened
        order, ring = 2048, CoeffRing(2**21)
        rng = random.Random(20)
        a = [rng.randrange(2**20 - 2**12, 2**20) for _ in range(order + 1)]
        b = [rng.randrange(2**20 - 2**12, 2**20) for _ in range(order + 1)]
        assert (order + 1) * 2**40 < 2**53
        flt = _spy(monkeypatch, "_product_float")
        monkeypatch.setattr(series, "_max_digit", lambda *args: 2**40)
        with pytest.raises(ArithmeticError):
            mul(Series(ring, a), Series(ring, b))
        assert flt


class TestTransformLength:
    @pytest.mark.parametrize("n,length", [
        (0, 1), (1, 2), (2, 4), (3, 8), (4, 8), (5, 16), (256, 512), (2048, 4096), (2049, 8192),
    ])
    def test_least_power_of_two_at_or_above_2n(self, n, length):
        assert series._fft_length(n) == length

    def test_both_routes_transform_at_2n(self, monkeypatch):
        order = 2048
        a, b = _residue_pair(17, order, 4)
        lengths = _rfft_lengths(monkeypatch)
        assert mul(Series(CoeffRing(17), a), Series(CoeffRing(17), b)) == Series(
            CoeffRing(17), brute_mul(a, b, order))
        assert lengths == [4096, 4096]
        lengths.clear()
        rng = random.Random(5)
        wide = [rng.randint(-2**100, 2**100) for _ in range(order + 1)]
        assert mul(Series(EXACT, wide), Series(EXACT, a)).coeffs == tuple(
            brute_mul(wide, a, order))
        assert lengths and set(lengths) == {4096}

    @pytest.mark.parametrize("order", [512, 2048])
    def test_multi_limb_product_with_top_limbs_at_q_n(self, order):
        # every limb row of both operands is nonzero at q^n, so each diagonal
        # wraps a sum of limb products onto q^0
        rng = random.Random(order)
        a = [rng.randint(-2**150, 2**150) for _ in range(order + 1)]
        b = [rng.randint(-2**90, 2**90) for _ in range(order + 1)]
        a[order], b[order] = 2**150 - rng.randrange(2**140), -(2**90) + rng.randrange(2**80)
        bits_a, bits_b = max(map(abs, a)).bit_length(), max(map(abs, b)).bit_length()
        s = series._limb_bits(bits_a, bits_b, order)
        for cs, bits in ((a, bits_a), (b, bits_b)):
            rows = list(series._limbs(cs, s, series._limb_count(bits, s)))
            assert len(rows) > 1 and rows[-1][order] != 0
        assert series._product_fft(a, b, bits_a, bits_b) == brute_mul(a, b, order)
        assert series._product_fft(a, a, bits_a, bits_a) == brute_mul(a, a, order)


def _square_and_multiply(a: Series, e: int) -> Series:
    """Reference power: invert first for e < 0, then binary powering by mul."""
    if e < 0:
        a, e = invert(a), -e
    result, base = one(a.ring, a.order), a
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result


class TestMillerPower:
    ORDER = 400

    @pytest.fixture(scope="class")
    def bases(self):
        n = self.ORDER
        f1 = Series(EXACT, brute_pochhammer(1, 1, n))
        phi = [0] * (n + 1)
        phi[0] = 1
        for j in range(1, n + 1):
            if j * j <= n:
                phi[j * j] = 2
        return {"f1": f1, "f2": Series(EXACT, brute_pochhammer(2, 2, n)),
                "phi": Series(EXACT, phi), "-f1": scalar_mul(-1, f1)}

    @pytest.mark.parametrize("name", ["f1", "f2", "phi", "-f1"])
    def test_matches_repeated_multiplication(self, monkeypatch, bases, name):
        calls = _spy(monkeypatch, "_miller_pow")
        base = bases[name]
        for step in (base, invert(base)):  # e = 1..30, then e = -1..-30
            sign = 1 if step is base else -1
            ref = one(EXACT, self.ORDER)
            for e in range(1, 31):
                ref = mul(ref, step)
                assert pow_(base, sign * e) == ref, sign * e
        assert pow_(base, 0) == one(EXACT, self.ORDER)
        # the recurrence served every e <= -2 and nothing else
        assert sorted(c[2] for c in calls) == list(range(-30, -1))

    def test_dense_base(self, monkeypatch):
        calls = _spy(monkeypatch, "_miller_pow")
        rng = random.Random(2)
        a = Series(EXACT, [-1] + [rng.randint(-3, 3) for _ in range(120)])
        for e in (-2, -5):
            assert pow_(a, e) == _square_and_multiply(a, e)
        assert len(calls) == 2

    def test_non_unit_base_with_negative_exponent(self):
        for e in (-1, -2, -7):
            with pytest.raises(NonUnitError):
                pow_(Series(EXACT, [2, 1, 1]), e)
            with pytest.raises(NonUnitError):
                pow_(Series(EXACT, [0, 1, 1]), e)

    def test_modular_ring_keeps_squaring(self, monkeypatch, bases):
        calls = _spy(monkeypatch, "_miller_pow")
        f1 = reduce_mod(bases["f1"], 7)
        assert pow_(f1, -7) == reduce_mod(pow_(bases["f1"], -7), 7)
        assert pow_(f1, -7) == _square_and_multiply(f1, -7)
        assert len(calls) == 1  # only the exact power


@functools.lru_cache(maxsize=None)
def _partition_counts(order: int) -> tuple[int, ...]:
    """p(0..order), counting partitions part size by part size."""
    p = [1] + [0] * order
    for part in range(1, order + 1):
        for m in range(part, order + 1):
            p[m] += p[m - part]
    return tuple(p)


class TestNewtonInverse:
    """Newton's iteration, the one route of :func:`invert`.  The tap counts
    and orders below are where a tap switch once sent sparser series to the
    coefficient recurrence; some test names keep its words so that their ids
    stay stable.  A two-sided ``a * inv == 1 == inv * a`` fixes the inverse."""

    @staticmethod
    def _dense(ring: CoeffRing, order: int, taps: int, rng) -> Series:
        coeffs = [0] * (order + 1)
        coeffs[0] = rng.randrange(1, ring.modulus)
        for k in rng.sample(range(1, order + 1), taps):
            coeffs[k] = rng.randrange(1, ring.modulus)
        return Series(ring, coeffs)

    @pytest.mark.parametrize("p", [7, 17])
    def test_two_sided_at_order_2048(self, monkeypatch, p):
        ring = CoeffRing(p)
        a = self._dense(ring, 2048, 2000, random.Random(p))
        products = _spy(monkeypatch, "_product")
        inv = invert(a)
        assert len(products) == 2 * 12  # two per step, 1 -> 2 -> ... -> 2048 -> 2049
        assert mul(a, inv) == one(ring, 2048)
        assert mul(inv, a) == one(ring, 2048)

    @pytest.mark.parametrize("p", [7, 17, 2**31 - 1])
    @pytest.mark.parametrize("extra", [-1, 0, 1, 2])
    def test_two_sided_around_density_switch(self, p, extra):
        ring = CoeffRing(p)
        taps = 40 + extra
        for order in (taps, 2 * taps + 1, 777):
            a = self._dense(ring, order, taps, random.Random(order + extra))
            inv = invert(a)
            assert mul(a, inv) == one(ring, order)
            assert mul(inv, a) == one(ring, order)

    @pytest.mark.parametrize("p", [7, 17, 2**31 - 1])
    @pytest.mark.parametrize("order,taps", [(512, 36), (1024, 51), (2048, 73), (4096, 104)])
    def test_euler_product_on_both_sides_of_the_switch(self, p, order, taps):
        # f_1 has its taps at the pentagonal numbers: 36 to order 512 and 73
        # to order 2048, the inversions of the catalog's chains
        ring = CoeffRing(p)
        f1 = eval_qexpr(EtaF(1), ring, order)
        assert len(series._taps(f1)) == taps
        inv = invert(f1)
        assert inv == Series(ring, eval_qexpr(Pow(EtaF(1), -1), EXACT, order).coeffs)
        assert mul(f1, inv) == one(ring, order) == mul(inv, f1)

    @pytest.mark.parametrize("a0", [1, -1])
    def test_dense_exact_series_take_newton(self, a0):
        rng = random.Random(4)
        a = Series(EXACT, [a0] + [rng.randint(-2, 2) for _ in range(400)])
        inv = invert(a)
        assert mul(a, inv) == one(EXACT, 400) and mul(inv, a) == one(EXACT, 400)
        assert all(type(c) is int for c in inv._coeffs)

    @pytest.mark.parametrize("order", [200, 512, 682, 1000, 1024, 2048])
    def test_exact_euler_product_keeps_the_recurrence(self, order):
        # f_1 has 22 taps to order 200 and 73 to order 2048; its inverse's
        # coefficients, the partition numbers, grow past 2^63 by order 406
        f1 = eval_qexpr(EtaF(1), EXACT, order)
        inv = invert(f1)
        assert inv.coeffs == _partition_counts(2048)[: order + 1]
        assert all(type(c) is int for c in inv._coeffs)

    @pytest.mark.parametrize("a0", [1, -1])
    @pytest.mark.parametrize("extra", [-1, 0, 1, 2])
    def test_exact_routes_agree_around_the_switch(self, a0, extra):
        taps = 128 + extra
        rng = random.Random(taps * a0)
        for order in (taps, 2 * taps + 1, 777):
            cs = [a0] + [0] * order
            for k in rng.sample(range(1, order + 1), taps):
                cs[k] = rng.choice((-3, -1, 1, 2))
            a = Series(EXACT, cs)
            inv = invert(a)
            assert mul(a, inv) == one(EXACT, order) and mul(inv, a) == one(EXACT, order)

    @pytest.mark.parametrize("modulus", [2**63 + 1, 2**70, 3**50])
    def test_small_coefficients_mod_past_int64(self, modulus):
        # the first products take the int64 routes; each becomes Python ints
        # before its reduction by a modulus that int64 cannot hold
        ring = CoeffRing(modulus)
        rng = random.Random(modulus % 1000)
        a = Series(ring, [1] + [rng.randint(0, 3) for _ in range(300)])
        inv = invert(a)
        assert mul(a, inv) == one(ring, 300) == mul(inv, a)
        assert all(type(c) is int for c in inv._coeffs)

    def test_non_unit_constant_rejected(self):
        rng = random.Random(9)
        dense = [rng.randrange(1, 6) for _ in range(600)]
        with pytest.raises(NonUnitError):
            invert(Series(CoeffRing(7), [0] + dense))
        with pytest.raises(NonUnitError):
            invert(Series(CoeffRing(6), [3] + dense))


# ---------------------------------------------------------------------------
# the lattice step: mul and pow_ of series in q^k work on the series in q
# ---------------------------------------------------------------------------

LATTICE_MODULI = [0, 7, 17, 2**31 - 1]


def _brute_pow(a: list[int], e: int, modulus: int) -> list[int]:
    """``a^e`` by the double loop, after the inverse's coefficient recurrence
    for ``e < 0``; reduced mod ``modulus`` when it is not 0."""
    order = len(a) - 1
    red = (lambda cs: [c % modulus for c in cs]) if modulus else list
    if e < 0:
        inv0 = pow(a[0], -1, modulus) if modulus else a[0]  # a_0 = +-1 over Z
        b = [inv0] + [0] * order
        for n in range(1, order + 1):
            b[n] = -inv0 * sum(a[k] * b[n - k] for k in range(1, n + 1))
            b[n] = b[n] % modulus if modulus else b[n]
        a, e = b, -e
    out = red([1] + [0] * order)
    for _ in range(e):
        out = red(brute_mul(out, a, order))
    return out


@st.composite
def _lattice_series(draw, modulus: int, k: int, order: int) -> list[int]:
    """A series in ``q^k`` with a unit constant term."""
    hi = modulus - 1 if modulus else 9
    coeff = st.integers(min_value=0 if modulus else -9, max_value=hi)
    lead = draw(st.integers(min_value=1, max_value=hi) if modulus else st.sampled_from([1, -1]))
    return [lead] + [draw(coeff) if i % k == 0 else 0 for i in range(1, order + 1)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    data=st.data(),
    k=st.integers(min_value=2, max_value=7),
    modulus=st.sampled_from(LATTICE_MODULI),
    order=st.integers(min_value=0, max_value=50),
    e=st.integers(min_value=-5, max_value=5),
    off_lattice=st.booleans(),
)
def test_lattice_route_matches_references(data, k, modulus, order, e, off_lattice):
    ring = EXACT if modulus == 0 else CoeffRing(modulus)
    a = data.draw(_lattice_series(modulus, k, order))
    b = data.draw(_lattice_series(modulus, k, order))
    if off_lattice and order % k:
        # one coefficient off the lattice: the other side of the switch
        a[data.draw(st.sampled_from([i for i in range(1, order + 1) if i % k]))] = 1
    assert series._lattice(a) == math.gcd(*[i for i, c in enumerate(a) if i and c])
    sa, sb = Series(ring, a), Series(ring, b)
    assert series._lattice(sa._coeffs) == series._lattice(a)  # an int64 array, mod p
    got_mul, got_pow = mul(sa, sb), pow_(sa, e)
    assert got_mul == Series(ring, brute_mul(a, b, order))
    assert got_pow == Series(ring, _brute_pow(a, e, modulus))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_lattice", lambda cs: 1)
        assert mul(sa, sb) == got_mul
        assert pow_(sa, e) == got_pow


def test_lattice_keeps_non_unit_check():
    a = Series(CoeffRing(17), [17, 0, 0, 1, 0, 0, 5])
    with pytest.raises(NonUnitError):
        pow_(a, -1)
    with pytest.raises(NonUnitError):
        pow_(Series(EXACT, [2, 0, 3, 0, 1]), -3)
    assert pow_(Series(EXACT, [2, 0, 0]), 3).coeffs == (8, 0, 0)  # a constant


def test_f17_to_minus_5_mod_17():
    ring = CoeffRing(17)
    f17 = Series(ring, brute_pochhammer(17, 17, 2048))
    got = pow_(f17, -5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_lattice", lambda cs: 1)
        assert got == _square_and_multiply(f17, -5)


# ---------------------------------------------------------------------------
# the int64 array representation (Z/M, M < 2^31) against Python-int arrays:
# the same coefficients over Z/(M * 2^31), a Python-int ring, reduced mod M
# ---------------------------------------------------------------------------

ARRAY_MODULI = [3, 7, 11, 13, 17, 2**31 - 1, 2**31]  # 2^31: the smallest Python-int modulus


def _via_pyints(p: int):
    """``(lift, down)``: a series over Z/p built over Z/(p * 2^31), whose
    array holds Python ints, and a series of that ring reduced back to Z/p."""
    big = CoeffRing(p << 31)
    return (lambda cs: Series(big, cs)), (lambda s: Series(CoeffRing(p), s.coeffs))


def _unit_coeffs(rng, p: int, order: int, taps: int) -> list[int]:
    """``taps`` random coefficients past an odd unit ``a_0``: a unit mod
    ``p`` and mod ``p * 2^31`` alike."""
    a0 = rng.randrange(1, p, 2) if p % 2 == 0 else rng.randrange(1, 2 * p, 2)
    while math.gcd(a0, p) != 1:
        a0 = rng.randrange(1, 2 * p, 2)
    cs = [a0] + [0] * order
    for k in rng.sample(range(1, order + 1), taps):
        cs[k] = rng.randrange(-2**40, 2**40)
    return cs


@pytest.mark.parametrize("p", ARRAY_MODULI)
class TestArrayAgainstTupleRoute:
    """Each route on int64 residues against the same inputs on Python ints,
    through :func:`_via_pyints` (the class name keeps its test ids stable)."""

    ORDER = 150

    def _pair(self, p: int, seed: int) -> tuple[list[int], list[int]]:
        rng = random.Random(p * 31 + seed)
        return ([rng.randrange(-2**70, 2**70) for _ in range(self.ORDER + 1)],
                [rng.randrange(-p, p) for _ in range(self.ORDER - 20 + 1)])

    def test_representation_follows_the_modulus(self, p):
        a, _ = self._pair(p, 0)
        dtype = np.int64 if p < 2**31 else object
        assert Series(CoeffRing(p), a)._coeffs.dtype == dtype
        lift, _ = _via_pyints(p)
        assert lift(a)._coeffs.dtype == object
        assert Series(EXACT, a)._coeffs.dtype == object

    def test_add_scalar_mul_mul(self, p):
        ring, (lift, down) = CoeffRing(p), _via_pyints(p)
        a, b = self._pair(p, 1)
        sa, sb, ta, tb = Series(ring, a), Series(ring, b), lift(a), lift(b)
        assert sa == down(ta) and sb == down(tb)
        assert add(sa, sb) == down(add(ta, tb)) == add(sb, sa)
        for c in (-1, -5, 3, p - 1, p + 2, -(2**70) - 3, 2**71 + 1):
            assert scalar_mul(c, sa) == down(scalar_mul(c, ta))
            assert scalar_mul(c, sa) == Series(ring, [c * x for x in a])
        assert mul(sa, sb) == down(mul(ta, tb)) == Series(ring, brute_mul(a, b, len(b) - 1))
        assert mul(sa, sa) == down(mul(ta, ta))

    @pytest.mark.parametrize("taps,dense", [(20, False), (140, True)])
    def test_invert_and_negative_powers(self, p, taps, dense):
        ring, (lift, down) = CoeffRing(p), _via_pyints(p)
        cs = _unit_coeffs(random.Random(p + taps), p, self.ORDER, taps)
        sa, ta = Series(ring, cs), lift(cs)
        assert (np.count_nonzero(sa._coeffs) > self.ORDER // 2) == dense
        inv = invert(sa)
        assert inv == down(invert(ta))
        assert mul(sa, inv) == one(ring, self.ORDER) == mul(inv, sa)
        for e in (-1, -2, -5):
            assert pow_(sa, e) == down(pow_(ta, e))
        assert pow_(sa, -3) == _square_and_multiply(sa, -3)

    def test_dilate_extract_eq_to_order(self, p):
        ring, (lift, down) = CoeffRing(p), _via_pyints(p)
        a, _ = self._pair(p, 2)
        sa, ta = Series(ring, a), lift(a)
        for k in (1, 2, 5):
            assert dilate(sa, k) == down(dilate(ta, k))
            assert dilate(sa, k, 3 * k + 1) == down(dilate(ta, k, 3 * k + 1))
        for r, s in ((0, 1), (0, 3), (2, 3), (4, 7)):
            assert extract(sa, r, s) == down(extract(ta, r, s))
        assert eq_to_order(sa, sa) == (True, None)
        for j in (0, 1, 77, self.ORDER):
            bumped = list(a)
            bumped[j] += 1
            if j + 9 <= self.ORDER:
                bumped[j + 9] += 1  # a second mismatch: j is the first
            sb, tb = Series(ring, bumped), lift(bumped)
            assert eq_to_order(sa, sb) == eq_to_order(ta, tb) == (False, j)
            below = (False, 0) if j == 0 else (True, None)
            assert eq_to_order(sa, sb, max(j - 1, 0)) == below

    @pytest.mark.parametrize("node", [
        Pochhammer(1, 1), Pochhammer(2, 5), Pochhammer(7, 7),
        Theta(1, 1, 1, 1), Theta(-1, 1, -1, 2), Theta(1, 0, 1, 1), Theta(-1, 0, 1, 3),
        Theta(1, 2, -1, 0),
    ])
    def test_binomial_products(self, p, node):
        ring = CoeffRing(p)
        big = CoeffRing(p << 31)
        got = eval_qexpr(node, ring, self.ORDER)
        assert got == Series(ring, eval_qexpr(node, big, self.ORDER).coeffs)
        assert got == Series(ring, eval_qexpr(node, EXACT, self.ORDER).coeffs)
        if isinstance(node, Theta):
            assert got == Series(ring, theta_sum(node, EXACT, self.ORDER).coeffs)


    def test_binomial_product_of_wide_scalars(self, p):
        factors = [(0, 2**40 + 3), (1, -(2**70)), (3, 5), (7, 2**33 - 1), (self.ORDER, -1)]
        got = series.binomial_product(CoeffRing(p), self.ORDER, iter(factors))
        assert got == Series(CoeffRing(p), series.binomial_product(EXACT, self.ORDER, factors).coeffs)
        _, down = _via_pyints(p)
        assert got == down(series.binomial_product(CoeffRing(p << 31), self.ORDER, factors))


class TestArrayRepresentation:
    RINGS = [CoeffRing(17), CoeffRing(2**31 - 1), CoeffRing(2**31), EXACT]

    @pytest.mark.parametrize("ring", RINGS, ids=repr)
    def test_public_values_are_python_ints(self, ring):
        s = Series(ring, [-3, 2**40, 5, 0])
        assert type(s[0]) is int and type(s[3]) is int
        assert type(s.coeffs) is tuple and all(type(c) is int for c in s.coeffs)
        m = ring.modulus
        assert s.coeffs == ((-3 % m, 2**40 % m, 5, 0) if m else (-3, 2**40, 5, 0))

    @pytest.mark.parametrize("ring", RINGS, ids=repr)
    def test_residues_are_read_only(self, ring):
        s = Series(ring, [1, 2, 3])
        with pytest.raises(ValueError):
            s._coeffs[0] = 5
        with pytest.raises(ValueError):
            s._coeffs += 1
        assert s.coeffs == (1, 2, 3)

    @pytest.mark.parametrize("ring", RINGS, ids=repr)
    def test_input_array_is_copied(self, ring):
        cs = np.array([1, 2, 3, 4], dtype=np.int64)
        s = Series(ring, cs)
        cs[0] = 9
        assert s.coeffs == (1, 2, 3, 4)
        reduced = np.arange(4, dtype=np.int64)  # already residues
        t = Series(ring, reduced)
        reduced += 1
        assert t.coeffs == (0, 1, 2, 3)

    @pytest.mark.parametrize("ring", [EXACT, CoeffRing(2**31)], ids=repr)
    def test_object_arrays_hold_python_ints_only(self, ring):
        # an np.int64 kept in an object array would wrap on overflow
        values = [2**62 - 1, -(2**62), 2**62 - 12345, 7, -(2**61)]
        wide = Series(ring, [np.int64(v) for v in values])
        plain = Series(ring, values)
        assert all(type(c) is int for c in wide._coeffs)
        boxed = np.array([np.int64(v) for v in values], dtype=object)
        assert all(type(c) is int for c in Series(ring, boxed)._coeffs)
        assert wide == plain and hash(wide) == hash(plain)  # by value, not by pointer
        for got, want in ((mul(wide, wide), mul(plain, plain)), (add(wide, wide), add(plain, plain)),
                          (scalar_mul(2**70, wide), scalar_mul(2**70, plain))):
            assert got == want
            assert all(type(c) is int for c in got._coeffs)
        if ring == EXACT:
            assert mul(wide, wide)[0] == (2**62 - 1) ** 2
            assert scalar_mul(2**70, wide)[1] == -(2**132)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64, object])
    def test_list_and_array_build_equal_series(self, dtype):
        ring = CoeffRing(13)
        values = [0, 5, 12, 26, 3, 2**20]
        a, b = Series(ring, values), Series(ring, np.array(values, dtype=dtype))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Series(ring, tuple(values))}) == 1
        assert a != Series(ring, values[:-1]) and a != Series(CoeffRing(11), values)

    def test_ints_of_any_width_are_reduced_exactly(self):
        p = 2**31 - 1
        values = [2**63, -(2**63) - 1, 2**200 + 7, -(2**90)]
        assert Series(CoeffRing(p), values).coeffs == tuple(v % p for v in values)
        uint = np.array([2**64 - 1, 2**63], dtype=np.uint64)
        assert Series(CoeffRing(p), uint).coeffs == ((2**64 - 1) % p, 2**63 % p)
        narrow = np.array([-1, 100, -128], dtype=np.int8)  # a modulus past int8
        assert Series(CoeffRing(200), narrow).coeffs == (199, 100, 72)

    def test_repr_and_zero_length(self):
        assert repr(Series(CoeffRing(7), [8, -1])) == "Series(Z/7, O(q^2); [1, 6])"
        with pytest.raises(ValueError):
            Series(CoeffRing(7), np.array([], dtype=np.int64))


class TestExactBinomialProduct:
    """The int64 binomial product over Z and its promotion to Python ints."""

    def test_partial_products_past_2_62_are_promoted(self):
        # phi's three runs one after another: the partial products reach 107
        # bits at order 2000, though phi's own coefficients are 0, 1 and 2
        order = 2000
        factors = ([(d, -1) for d in range(1, order + 1, 2)] * 2
                   + [(d, 1) for d in range(2, order + 1, 2)])
        ref, peak = brute_binomial(order, factors)
        assert peak >= series._INT64_SAFE
        got = series.binomial_product(EXACT, order, iter(factors))
        assert got == Series(EXACT, ref) == theta_sum(Theta(1, 1, 1, 1), EXACT, order)
        assert all(type(c) is int for c in got._coeffs)

    @pytest.mark.parametrize("safe_bits", [8, 20, 40])
    def test_guard_recomputes_and_promotes(self, monkeypatch, safe_bits):
        # a low guard takes the bound again from the array many times, and
        # promotes at a size the test reaches
        monkeypatch.setattr(series, "_INT64_SAFE", 1 << safe_bits)
        rng = random.Random(safe_bits)
        order = 300
        factors = [(rng.randrange(0, order + 1), rng.choice((-3, -1, 1, 2, 5)))
                   for _ in range(400)]
        ref, peak = brute_binomial(order, factors)
        assert peak >= 1 << safe_bits
        assert series.binomial_product(EXACT, order, iter(factors)) == Series(EXACT, ref)

    @pytest.mark.parametrize("factors", [
        [(0, 3), (1, 1)],
        [(0, 1), (2, 2**70)],
        [(0, -(2**62)), (1, 3), (2, 2**62), (0, 2**62 - 1)],
        [(1, 2**62), (3, -(2**70) - 1), (0, 5), (7, 1)],
        [(2, 2**61), (2, 2**61), (5, 3)],
    ])
    def test_wide_scalars_and_constant_factors(self, factors):
        order = 40
        ref, _ = brute_binomial(order, factors)
        got = series.binomial_product(EXACT, order, iter(factors))
        assert got == Series(EXACT, ref)
        assert all(type(c) is int for c in got._coeffs)
