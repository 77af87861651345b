"""Truncated formal power series over exact integers or a residue ring Z/M.

A :class:`Series` carries its own truncation order: coefficients of
``q^0 .. q^order`` are tracked explicitly and every operation documents the
order of its result.  There is no global precision, and floating point
enters only behind a written bound (the FFT route of :func:`mul`).

Every series holds its coefficients in one read-only numpy array, chosen
once by the constructor from the ring.  Over Z/M with ``M < 2^31``
(``_ARRAY_MOD``) it is an int64 array of residues in ``[0, M)``: a residue is
below ``2^31``, so a sum is below ``2^32`` and a product of two below
``2^62``.  Over Z, and from ``2^31`` on, it is an object array of Python ints,
reduced to ``[0, M)`` when ``M > 0``.  Sums, scalar multiples, slices, the
lattice test and the binomial products are then array operations written
once for every ring; ``coeffs`` and indexing give Python ints.  The binomial
product over Z runs in int64 while a bound on its coefficients allows, and
on Python ints from there.  Every route below is exact; each is picked by a
switch on size, ring or exponent, and each is checked against an
independent reference in the tests:

- :func:`mul`: three routes, over Z or Z/M alike, picked first by the
  order and then by the operands' largest coefficients, not by the ring.
  Below order ``_FLOAT_MIN_ORDER``, operands whose product's partial sums
  stay below ``2^63`` are convolved directly in int64.  From there on,
  operands small enough for Percival's bound (the residues mod 3 to 17, say)
  are convolved as they are by one float64 FFT.  Every other product is one
  float64 FFT convolution of balanced limbs.  Both FFT routes transform at
  the least power of two at or above ``2n``, subtract the one term that
  wraps there exactly, and are checked by a rounding guard that raises
  instead of returning a wrong integer.
- :func:`pow_`: Miller's recurrence for ``e <= -2`` over Z when ``a_0`` is
  +-1 (its division by ``n`` is exact, and a remainder raises); repeated
  squaring otherwise.
- :func:`invert`: Newton's iteration for every series, over Z and Z/M.

Before choosing a route, :func:`mul` and :func:`pow_` take the lattice step: when
every nonzero coefficient past ``q^0`` sits at a multiple of some ``k > 1``
(``f_k^e``, a dilated atom), the series is ``a(q) = A(q^k)``; the product or
power is taken of ``A`` at order ``N // k`` and spread back with zeros off the
lattice.  This is exact over Z and Z/M alike: ``ab = (AB)(q^k)`` and ``a^e =
A^e(q^k)``, and the coefficients of ``AB`` and ``A^e`` through ``q^(N // k)``
are those of the result at the multiples of ``k`` through ``q^N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

import numpy as np

from ._fftbound import _max_digit, _rounded


class RingMismatchError(ValueError):
    """Operands live in different coefficient rings."""


class NonUnitError(ArithmeticError):
    """Inversion requested for a series whose constant term is not a unit."""


class PrecisionError(ValueError):
    """An operation would leave fewer tracked coefficients than required."""


@dataclass(frozen=True)
class CoeffRing:
    """Coefficient ring: ``modulus == 0`` means exact integers, else Z/M."""

    modulus: int = 0

    def __post_init__(self) -> None:
        if self.modulus < 0 or self.modulus == 1:
            raise ValueError(f"modulus must be 0 or >= 2, got {self.modulus}")

    def unit_inverse(self, c: int) -> int:
        """Inverse of a unit, raising :class:`NonUnitError` otherwise."""
        if self.modulus == 0:
            if c in (1, -1):
                return c
            raise NonUnitError(f"{c} is not a unit over exact integers")
        c %= self.modulus
        try:
            return pow(c, -1, self.modulus)
        except ValueError as exc:
            raise NonUnitError(f"{c} is not invertible mod {self.modulus}") from exc

    def __repr__(self) -> str:
        return "Z" if self.modulus == 0 else f"Z/{self.modulus}"


EXACT = CoeffRing(0)

# Moduli below this hold their residues in an int64 array (see the module
# docstring): a residue times a residue, or times a scalar reduced mod M,
# stays below 2^62.  Over Z and from here on the array holds Python ints.
_ARRAY_MOD = 1 << 31

# The binomial product over Z keeps int64 while every value it computes stays
# below this: a coefficient, a scalar and their product (see binomial_product).
_INT64_SAFE = 1 << 62


class Series:
    """Immutable truncated power series: coefficients for ``q^0 .. q^order``.

    The coefficients are one read-only numpy array, a copy of the input: over
    Z/M with ``M < 2^31`` int64 residues, reduced by one ``%`` (ints too wide
    for int64 are reduced in Python first); otherwise an object array of
    ``int()`` of each input, reduced by one ``%`` when ``M > 0``, so that it
    holds Python ints only and no fixed-width integer can wrap.  ``coeffs`` is
    a tuple of Python ints, and two series are equal, and hash alike, when
    their rings and coefficients are.
    """

    __slots__ = ("ring", "_coeffs")

    def __init__(self, ring: CoeffRing, coeffs: Sequence[int]):
        if len(coeffs) == 0:
            raise ValueError("empty series rejected; order must be >= 0")
        mod = ring.modulus
        if 0 < mod < _ARRAY_MOD:
            values = _residues(coeffs, mod)
        else:
            if isinstance(coeffs, np.ndarray) and coeffs.dtype.kind in "iu":
                values = coeffs.astype(object)  # a copy, of Python ints
            else:
                values = np.fromiter(map(int, coeffs), object, len(coeffs))
            if mod:
                values %= mod
            values.flags.writeable = False
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_coeffs", values)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Series is immutable")

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self._coeffs.tolist())

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient q^{n} not tracked (order {self.order})")
        return int(self._coeffs[n])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Series) and self.ring == other.ring
                and np.array_equal(self._coeffs, other._coeffs))

    def __hash__(self) -> int:
        return hash((self.ring, self.coeffs))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"Series({self.ring}, O(q^{self.order + 1}); [{head}{tail}])"


def _residues(coeffs: Sequence[int], mod: int) -> np.ndarray:
    """A new read-only int64 array of ``coeffs`` reduced into ``[0, mod)``,
    ``mod < 2^31``."""
    if isinstance(coeffs, np.ndarray) and coeffs.dtype.kind == "i":
        out = coeffs.astype(np.int64)  # a copy, of int64 input too
    else:
        if isinstance(coeffs, np.ndarray):  # unsigned or object: Python ints first
            coeffs = coeffs.tolist()
        try:
            out = np.array(coeffs, dtype=np.int64)
        except OverflowError:
            out = np.array([int(c) % mod for c in coeffs], dtype=np.int64)
    out %= mod
    out.flags.writeable = False
    return out


def zero(ring: CoeffRing, order: int) -> Series:
    return Series(ring, [0] * (order + 1))


def one(ring: CoeffRing, order: int) -> Series:
    return monomial(ring, order, 0)


def monomial(ring: CoeffRing, order: int, exponent: int, coeff: int = 1) -> Series:
    """``coeff * q^exponent`` truncated at ``order`` (zero if exponent > order)."""
    c = [0] * (order + 1)
    if 0 <= exponent <= order:
        c[exponent] = coeff
    return Series(ring, c)


def binomial_product(ring: CoeffRing, order: int, factors: Iterable[tuple[int, int]]) -> Series:
    """Product of binomials ``(1 - s*q^d)`` for (d, s) pairs with 0 <= d <= order.

    Each factor maps ``c_n`` to ``c_n - s*c_(n-d)``, reading only old values,
    so it is one array operation, ``c[d:] -= s*c[:order+1-d]``; over Z/M ``s``
    is reduced first and the changed part after.  At ``d = 0`` that is
    ``c -= s*c``, a product by ``1 - s``.  The coefficients are allocated
    before the first factor is read, so an order too large for memory fails
    at once.

    Over Z the coefficients start as int64, under a growth guard: ``top``
    bounds ``max(1, max|c|)``, and a factor multiplies ``max|c|`` by at most
    ``1 + |s|``.  When ``top * (1 + |s|)`` would reach ``2^62`` the bound is
    taken again from the array, and if it still would, ``c`` becomes an
    object array of Python ints for the remaining factors.  Below ``2^62``
    neither ``s * c`` nor the difference can wrap.  Residues below
    ``_ARRAY_MOD`` stay int64 and the others Python ints, as in
    :class:`Series`."""
    mod = ring.modulus
    c = np.zeros(order + 1, object if mod >= _ARRAY_MOD else np.int64)
    c[0] = 1
    top = 1
    for d, s in factors:
        if mod:
            s %= mod
        elif c.dtype != object:
            top *= 1 + abs(s)
            if top >= _INT64_SAFE:
                top = max(1, int(np.abs(c).max())) * (1 + abs(s))
                if top >= _INT64_SAFE:
                    c = c.astype(object)
        tail = c[d:]
        tail -= s * c[: order + 1 - d]
        if mod:
            np.remainder(tail, mod, out=tail)
    return Series(ring, c)


def _same_ring(a: Series, b: Series) -> None:
    if a.ring != b.ring:
        raise RingMismatchError(f"ring mismatch: {a.ring} vs {b.ring}")


def add(a: Series, b: Series) -> Series:
    """Coefficientwise sum; result order is ``min(a.order, b.order)``."""
    _same_ring(a, b)
    n = min(a.order, b.order)
    return Series(a.ring, a._coeffs[: n + 1] + b._coeffs[: n + 1])


def scalar_mul(c: int, a: Series) -> Series:
    mod = a.ring.modulus
    return Series(a.ring, (c % mod if mod else c) * a._coeffs)


def mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated at ``n = min(a.order, b.order)``.

    Each coefficient ``c_k`` of the product is a sum of at most ``n+1``
    products, so ``|c_k| <= B`` with ``B = max(1, |a|) * max(1, |b|) *
    (n+1)``, where ``|a|`` is the largest coefficient magnitude of ``a`` (the
    ``max(1, .)`` also keeps the factors' own coefficients within ``B``).
    Three exact routes, picked by the order first and then by size:

    - ``n < _FLOAT_MIN_ORDER`` and ``B < 2^63``: one direct convolution of
      the coefficients in int64 (:func:`_product_direct`).  Every partial
      sum of a ``c_k`` is at most ``B``, so none wraps, and no product costs
      more than ``_FLOAT_MIN_ORDER^2`` multiply-adds.
    - ``n >= _FLOAT_MIN_ORDER`` and ``max(1, |a|) * max(1, |b|) <= h^2``,
      ``h = _max_digit(n, L, 1, 1)``: the coefficients themselves are
      convolved by one float64 FFT (:func:`_product_float`), exact by
      Percival's bound.  This takes the residues mod 3 to 17 and Z
      operands with small coefficients, not the residues mod ``2^31 - 1``.
    - otherwise: the coefficients are cut into balanced limbs of ``s`` bits
      and the limb rows convolved by one float64 FFT (:func:`_product_fft`).
      ``s`` is the widest for which Percival's bound keeps every output
      within 1/4 of its integer, so rounding gives the exact value; a guard
      checks every output, and one that lies 1/4 or more from an integer
      raises ``ArithmeticError``.

    Both FFT routes transform at the least power of two ``L >= 2n``
    (:func:`_fft_length`).  The product's terms run to ``q^(2n)``, so when
    ``L = 2n`` the term at ``q^(2n)`` wraps onto output 0, and the route
    subtracts it from the rounded integer there.  The bound holds for any
    cyclic convolution of power-of-two length, so it is unchanged.

    One routine serves Z and Z/M: modular results are reduced by the
    :class:`Series` constructor.  When both operands are series in ``q^k``
    for a common ``k > 1`` (``k`` the gcd of their supports' indices past
    ``q^0``), the product is taken of every ``k``-th coefficient, at order
    ``n // k``, and spread back: ``a(q) b(q) = (AB)(q^k)``.
    """
    _same_ring(a, b)
    n = min(a.order, b.order)
    av = a._coeffs[: n + 1]
    bv = av if a is b else b._coeffs[: n + 1]
    k = gcd(_lattice(av), _lattice(bv)) or n + 1  # n + 1: two constants
    if k == 1:
        return Series(a.ring, _product(av, bv))
    sa = av[::k]
    return Series(a.ring, _spread(_product(sa, sa if bv is av else bv[::k]), k, n))


def _lattice(cs: np.ndarray) -> int:
    """The gcd ``k`` of the indices past ``q^0`` of the nonzero coefficients,
    0 for a constant: ``cs`` is then a series in ``q^k``.  A dense series
    leaves at index 1; any other takes the gcd of its nonzero indices in one
    reduction."""
    if len(cs) > 1 and cs[1]:
        return 1
    return int(np.gcd.reduce(np.flatnonzero(cs[1:]) + 1))


def _spread(cs: np.ndarray, k: int, order: int) -> np.ndarray:
    """``A(q^k)`` truncated at ``order`` from the coefficients of ``A``, which
    run to at most ``order // k``: zeros off the lattice and past the last.
    A new writable array of the dtype of ``cs``."""
    out = np.zeros(order + 1, cs.dtype)
    out[: k * len(cs) : k] = cs
    return out


def _product(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """Coefficients ``0..n`` of ``av * bv`` for two length-``n+1`` arrays,
    exact and unreduced (the routes are described in :func:`mul`): an int64
    array from the direct and float routes, an object array of Python ints
    from the limb FFT route."""
    n = len(av) - 1
    top_a = int(np.abs(av).max())
    top_b = top_a if av is bv else int(np.abs(bv).max())
    bound = max(1, top_a) * max(1, top_b)
    if n < _FLOAT_MIN_ORDER:
        if bound * (n + 1) < 1 << 63:
            return _product_direct(av, bv)
    elif bound <= _max_digit(n, _fft_length(n), 1, 1) ** 2:
        return _product_float(av, bv)
    square = av is bv
    av = av.tolist()
    bv = av if square else bv.tolist()  # a square reuses its spectra
    return np.array(_product_fft(av, bv, top_a.bit_length(), top_b.bit_length()), dtype=object)


# The float route's least order, and the direct route's bound.  The direct
# route's time over the float route's on a random pair of residues mod 3, 7,
# 11 and 17, best of 200 (two runs, BENCH_33.json): 0.46-0.51x at order 127,
# 0.76-0.83x at 191, 1.00-1.11x at 223, 1.25-1.36x at 255, 3.6-3.8x at 512
# and 20-21x at 2048.  Summed over every product of the identities at order
# 1000 and 2000, the chains at 2048 and the default orders, a switch at 224
# is within 1% of one at 256 either way, so it stays.
_FLOAT_MIN_ORDER = 256


def _fft_length(n: int) -> int:
    """The transform length of both FFT routes for length-``n+1`` operands:
    the least power of two at or above ``2n``.  A product's terms run to
    ``q^(2n)``, so at ``L = 2n`` the one at ``q^(2n)`` wraps onto output 0;
    the routes subtract it exactly after rounding."""
    return 1 << max(2 * n - 1, 0).bit_length()


def _product_float(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """Coefficients ``0..n`` of ``av * bv`` by one float64 FFT convolution of
    the coefficients themselves, exact; the result is an int64 array.

    :func:`_product` takes this route only when ``|a| * |b| <= h^2`` with
    ``h = _max_digit(n, L, 1, 1)``: the norms' product is then at most
    ``(n+1) * h^2``, so Percival's bound keeps every output within 1/4 of its
    integer (and below ``2^53``), and ``_rounded`` checks the ``n+1`` kept.
    At ``L = 2n`` output 0 also holds ``a_n * b_n``, subtracted in int64.
    """
    n = len(av) - 1
    length = _fft_length(n)
    fa = np.fft.rfft(av.astype(np.float64), length)
    fb = fa if bv is av else np.fft.rfft(bv.astype(np.float64), length)
    out = _rounded(np.fft.irfft(fa * fb, length)[: n + 1]).astype(np.int64)
    if length == 2 * n:
        out[0] -= int(av[n]) * int(bv[n])
    return out


def _product_direct(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """Coefficients ``0..n`` of ``av * bv`` by one direct convolution in
    int64, exact: :func:`_product` takes this route only when ``B < 2^63``,
    and every partial sum of a ``c_k`` is at most ``B``."""
    a64 = np.asarray(av, np.int64)
    return np.convolve(a64, a64 if bv is av else np.asarray(bv, np.int64))[: len(av)]


def _limb_count(bits: int, s: int) -> int:
    """Balanced base-``2^s`` digits that hold every integer of at most
    ``bits`` bits: ``s * count >= bits + 2``."""
    return (bits + 1) // s + 1


def _limb_bits(bits_a: int, bits_b: int, n: int) -> int:
    """The widest limb ``s`` for which :func:`_product_fft` of length-``n+1``
    operands of ``bits_a``- and ``bits_b``-bit coefficients is exact: its
    digit ``h = 2^(s-1)`` is within ``_max_digit`` of ``T`` pairs, ``T`` the
    limb count of the operand with fewer.  No product takes ``s > 25``:
    ``2^50 * _error_bound(1, 1)`` exceeds 1/4."""
    length = _fft_length(n)
    for s in range(25, 1, -1):
        terms = min(_limb_count(bits_a, s), _limb_count(bits_b, s))
        if 1 << (s - 1) <= _max_digit(n, length, terms, terms):
            return s
    raise ArithmeticError(f"no limb width keeps a product to q^{n} exact")


def _limbs(cs: Sequence[int], s: int, count: int):
    """Yield the ``count`` rows of balanced base-``2^s`` digits of ``cs``,
    least significant first, as float64: ``cs[i]`` is the sum over ``j`` of
    ``row_j[i] * 2^(s*j)``, with ``|row_j[i]| <= 2^(s-1)``.

    Each coefficient is written in two's complement as little-endian 32-bit
    words, and the words are read ``s`` bits at a time across all
    coefficients at once; a digit of ``2^(s-1)`` or more becomes negative
    and carries 1 into the next.
    """
    mask, half = (1 << s) - 1, 1 << (s - 1)
    size = 4 * -(-s * count // 32)
    raw = b"".join([c.to_bytes(size, "little", signed=True) for c in cs])
    words = iter(np.frombuffer(raw, "<u4").reshape(len(cs), -1).T.astype(np.int64, order="C"))
    acc = carry = np.zeros(len(cs), np.int64)
    held = 0
    for _ in range(count):
        if held < s:
            acc = acc | next(words) << held
            held += 32
        v = (acc & mask) + carry
        acc = acc >> s
        held -= s
        carry = (v + half) >> s
        yield (v - (carry << s)).astype(np.float64)


def _product_fft(av: Sequence[int], bv: Sequence[int], bits_a: int, bits_b: int) -> list[int]:
    """Coefficients ``0..n`` of ``av * bv`` by one float64 FFT convolution of
    balanced limbs, exact.

    Each coefficient is cut into balanced base-``2^s`` digits (limbs) with
    ``|digit| <= h = 2^(s-1)``, ``s`` from :func:`_limb_bits`: operand ``a``
    is the sum over ``j`` of ``a_j * 2^(s*j)``, each ``a_j`` a length-``n+1``
    row of digits.  Every row is transformed once by a real FFT of the power
    of two length ``L >= 2n`` (:func:`_fft_length`).  The product is the sum
    over limb diagonals ``t`` of ``c_t * 2^(s*t)``, where ``c_t`` is the
    convolution of the pairs ``a_j, b_(t-j)``: their spectral products are
    summed, and one inverse transform and a rounding give ``c_t``, cyclic of
    length ``L``.  At ``L = 2n`` its output 0 also holds the terms at
    ``q^(2n)``, the sum over ``j`` of ``a_j[n] * b_(t-j)[n]``, which is
    subtracted exactly after rounding; no other kept output wraps.

    Exactness.  By Percival's bound (see ``_fftbound``), every output of
    diagonal ``t`` lies within ``sum_j ||a_j|| * ||b_(t-j)|| *
    _error_bound(L, T)`` of its exact integer, where ``T`` is the most pairs a
    diagonal sums, the smaller of the two limb counts.  Each ``||a_j||_2`` is
    at most ``sqrt(n+1) * h``, so the sum is at most ``T * (n+1) * h^2``.
    :func:`_limb_bits` takes the widest ``s`` for which that times the factor
    is at most 1/4: every rounded output is then the exact integer, and below
    ``2^53`` in size.  ``_rounded`` checks the ``n+1`` outputs kept: one 1/4
    or more from an integer raises ``ArithmeticError``.

    The spectra of the operand with fewer limbs are all held; those of the
    other are computed at the first diagonal that uses them and dropped
    after the last.  Each ``c_t`` is carried into base-``2^s`` digits in
    int64, the digits are gathered as 32-bit words, and each coefficient is
    read back from its words in two's complement.
    """
    n = len(av) - 1
    length = _fft_length(n)
    s = _limb_bits(bits_a, bits_b, n)
    ka, kb = _limb_count(bits_a, s), _limb_count(bits_b, s)
    if ka > kb:
        av, bv, ka, kb = bv, av, kb, ka
    fa, top_a = [], []  # spectra, and each row's digit at q^n
    for row in _limbs(av, s, ka):
        fa.append(np.fft.rfft(row, length))
        top_a.append(int(row[n]))
    rows_b = None if bv is av else _limbs(bv, s, kb)
    fb, top_b = (fa, top_a) if rows_b is None else ({}, [])
    mask = (1 << s) - 1
    words: list[np.ndarray] = []
    acc = carry = np.zeros(n + 1, np.int64)
    held = 0

    def push(c: np.ndarray) -> None:
        """Append the digit ``(c + carry) mod 2^s`` to every coefficient."""
        nonlocal acc, carry, held
        v = c + carry
        carry = v >> s
        acc = acc | (v & mask) << held
        held += s
        if held >= 32:
            words.append((acc & 0xFFFFFFFF).astype("<u4"))
            acc = acc >> 32
            held -= 32

    for t in range(ka + kb - 1):
        if rows_b is not None and t < kb:
            fb.pop(t - ka, None)  # no diagonal from t on reads b's limb t - ka
            row = next(rows_b)
            fb[t] = np.fft.rfft(row, length)
            top_b.append(int(row[n]))
        pairs = range(max(0, t - kb + 1), min(t, ka - 1) + 1)
        spectrum = fa[pairs[0]] * fb[t - pairs[0]]
        for j in pairs[1:]:
            spectrum += fa[j] * fb[t - j]
        c = _rounded(np.fft.irfft(spectrum, length)[: n + 1]).astype(np.int64)
        if length == 2 * n:  # the diagonal's terms at q^(2n) wrapped onto q^0
            c[0] -= sum(top_a[j] * top_b[t - j] for j in pairs)
        push(c)
    zero = np.zeros(n + 1, np.int64)
    while np.any(carry >> s != carry):
        push(zero)
    # every carry is now 0 or -1, the sign, which fills the last word
    words.append(((acc | (carry & 0xFFFFFFFF) << held) & 0xFFFFFFFF).astype("<u4"))
    raw = np.array(words).T.tobytes()
    size = 4 * len(words)
    return [int.from_bytes(raw[i : i + size], "little", signed=True)
            for i in range(0, len(raw), size)]


def pow_(a: Series, e: int) -> Series:
    """``a^e``; ``e = 0`` gives 1 and ``e = 1`` gives ``a``.  Two exact routes:

    - over Z, ``e <= -2`` and ``a_0 = +-1``: J.C.P. Miller's recurrence for
      the powers of a power series (Knuth, TAOCP vol. 2, 4.7).  From
      ``g' a = e a' g`` with ``g = a^e``::

          n * a_0 * g_n = sum_{k>=1} ((e+1)k - n) * a_k * g_{n-k}

      Only the nonzero ``a_k`` are visited, and no inverse is formed.  The
      division by ``n`` is exact because ``g`` has integer coefficients when
      ``a_0`` is a unit; a nonzero remainder raises ``ArithmeticError``.
      It costs about ``N`` steps per nonzero ``a_k`` whatever ``e``, and
      inversion plus squaring one Newton inverse and about ``2 log2|e|``
      products.  The latter wins on dense bases at small ``|e|``: 5.7-6.9x on
      the catalog's 196-tap base at order 200 and 3.1-7.9x on its 396-tap
      base at order 400, at ``e = -2..-5``.  It loses 5-7x on sparse bases at
      large ``|e|`` (25 taps at order 256, ``e = -14..-28``).  Over each
      workload's calls the recurrence is level or ahead: the 26 of the
      identities take 44-51 ms against 61-77 ms at order 1000 and 137-144
      ms against 137-141 ms at 2000, and the 13 of the chains at order 2048
      104-107 ms against 214 ms (best of 5, two runs, BENCH_35.json), so it
      serves every ``e <= -2``.
    - otherwise repeated squaring, after :func:`invert` when ``e < 0``.
      This covers Z/M, where ``n`` may be divisible by the modulus, and
      positive powers, where a handful of products beats the recurrence
      (``f_1^3``: 3.5 ms against 10 ms at order 2048).  A non-unit ``a_0``
      with ``e < 0`` raises :class:`NonUnitError` from :func:`invert`.

    A series ``a(q) = A(q^k)`` in ``q^k``, ``k > 1``, is powered as ``A`` at
    order ``a.order // k`` by these routes, and the result spread back:
    ``a^e = A^e(q^k)``.  ``A`` keeps ``a_0``, so the unit check is the same.
    """
    if e == 0:
        return one(a.ring, a.order)
    if e == 1:
        return a
    k = _lattice(a._coeffs) or a.order + 1  # a.order + 1: a constant
    if k == 1:
        return _pow(a, e)
    power = _pow(Series(a.ring, a._coeffs[::k]), e)  # A^e, where A(q^k) = a
    return Series(a.ring, _spread(power._coeffs, k, a.order))


def _pow(a: Series, e: int) -> Series:
    """``a^e`` for ``e`` other than 0 and 1 by the routes of :func:`pow_`."""
    if e < -1 and a.ring.modulus == 0 and a._coeffs[0] in (1, -1):
        return Series(a.ring, _miller_pow(a._coeffs[0], _taps(a), e, a.order))
    if e < 0:
        a, e = invert(a), -e
    result: Optional[Series] = None
    base = a
    while e:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    assert result is not None
    return result


def _taps(a: Series) -> list[tuple[int, int]]:
    """(k, a_k) for the nonzero coefficients past the constant term."""
    cs = a._coeffs
    ks = np.flatnonzero(cs[1:]) + 1
    return list(zip(ks.tolist(), cs[ks].tolist()))


def _miller_pow(a0: int, taps: list[tuple[int, int]], e: int, order: int) -> list[int]:
    """Coefficients of ``a^e`` over Z by Miller's recurrence (see :func:`pow_`)."""
    g = [0] * (order + 1)
    g[0] = a0 if e & 1 else 1
    weighted = [(k, c, (e + 1) * k) for k, c in taps]
    live = 0
    for n in range(1, order + 1):
        while live < len(weighted) and weighted[live][0] <= n:
            live += 1
        s = sum((ek - n) * c * g[n - k] for k, c, ek in weighted[:live])
        quot, rem = divmod(s, n)
        if rem:
            raise ArithmeticError(f"Miller's recurrence left remainder {rem} at q^{n}")
        g[n] = a0 * quot
    return g


def invert(a: Series) -> Series:
    """Multiplicative inverse to order ``a.order``; a constant term that is
    not a unit raises :class:`NonUnitError`.

    Newton's iteration ``b <- b + b(1 - ab)``, over Z and Z/M alike (Brent
    and Kung, J. ACM 25, 1978).  With ``ab = 1 mod q^m``, ``1 - ab = q^m *
    err mod q^(2m)``, so the next ``m`` coefficients of ``b`` are the low
    ``m`` of ``b * err``: two products per step, each doubling the number of
    correct coefficients.  Each iterate is the inverse truncated, so over Z,
    where ``a_0 = +-1``, every iterate has integer coefficients and the
    iteration is exact.

    ``b`` is an array of the dtype of ``a``'s, and each product is brought
    into it by :func:`_in_ring`; only the result is a :class:`Series`.
    """
    av, mod = a._coeffs, a.ring.modulus
    b = np.zeros(len(av), av.dtype)
    b[0] = a.ring.unit_inverse(a[0])
    m = 1
    while m < len(av):
        m2 = min(2 * m, len(av))
        err = _in_ring(-_product(av[:m2], b[:m2])[m:], mod, b.dtype)
        b[m:m2] = _in_ring(_product(b[: m2 - m], err), mod, b.dtype)
        m = m2
    return Series(a.ring, b)


def _in_ring(p: np.ndarray, mod: int, dtype: np.dtype) -> np.ndarray:
    """The exact product ``p`` as an array of ``dtype``, reduced once by
    ``%`` when ``mod > 0``.  For an object ``dtype`` (over Z, and from
    ``2^31`` on) the int64 output of the direct and float routes becomes
    Python ints through ``astype(object)`` first, so that an object array
    holds Python ints only and no modulus past int64 meets an int64 array.
    For int64 the residues are below ``2^31``."""
    if dtype == object:
        p = p.astype(object, copy=False)
    if mod:
        p %= mod
    return p.astype(dtype, copy=False)


def dilate(a: Series, k: int, order: Optional[int] = None) -> Series:
    """Replace ``q`` by ``q^k``, to ``order``: by default ``a.order * k``, and
    at most ``a.order * k + k - 1``, the last that ``a`` fixes."""
    if k <= 0:
        raise ValueError("dilation factor must be positive")
    n = a.order * k if order is None else order
    if n // k > a.order:
        raise PrecisionError(f"dilate by {k} to order {n} needs order {n // k}, have {a.order}")
    return Series(a.ring, _spread(a._coeffs[: n // k + 1], k, n))


def extract(a: Series, r: int, s: int) -> Series:
    """Arithmetic-progression component: coefficient ``n`` of the result is
    ``a`` at ``q^(s*n + r)`` (extract, divide by ``q^r``, replace ``q^s`` by ``q``).
    """
    if s <= 0 or not 0 <= r < s:
        raise ValueError(f"need 0 <= r < s, got r={r} s={s}")
    if r > a.order:
        raise PrecisionError(f"extract({r},{s}) leaves no coefficients at order {a.order}")
    return Series(a.ring, a._coeffs[r :: s])


def reduce_mod(a: Series, modulus: int) -> Series:
    """Coefficientwise reduction of an exact series into Z/M."""
    if a.ring.modulus:
        raise ValueError("reduce_mod expects a series over exact integers")
    return Series(CoeffRing(modulus), a._coeffs)


def eq_to_order(a: Series, b: Series, order: Optional[int] = None) -> tuple[bool, Optional[int]]:
    """Compare coefficients up to ``order`` (default: common order).

    Returns ``(equal, first_mismatch_index)``; the index is the smallest
    exponent where the coefficients differ, or None when equal.
    """
    _same_ring(a, b)
    n = min(a.order, b.order) if order is None else order
    if n > min(a.order, b.order):
        raise PrecisionError(
            f"comparison to order {n} needs both operands at that order "
            f"(have {a.order} and {b.order})"
        )
    diff = np.flatnonzero(a._coeffs[: n + 1] != b._coeffs[: n + 1])
    return (True, None) if diff.size == 0 else (False, int(diff[0]))
