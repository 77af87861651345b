"""Truncated formal power series over exact integers or a residue ring Z/M.

A :class:`Series` carries its own truncation order: coefficients of
``q^0 .. q^order`` are tracked explicitly and every operation documents the
order of its result.  There is no global precision and no floating point.

Exact coefficients are arbitrary-precision Python ints; modular series keep
coefficients reduced to ``[0, M)``.  Every route below is exact; each is
picked by a switch on size, ring, exponent or density, and each is checked
against an independent reference in the tests:

- :func:`mul`: one Kronecker-substitution product, over Z or Z/M.  Packed
  operands below ``_DECIMAL_MIN_BITS`` multiply as Python ints; larger ones
  through libmpdec (the C ``decimal`` module) in a context that traps any
  rounding, so an inexact result raises instead of being returned.
- :func:`pow_`: Miller's recurrence for ``e <= -2`` over Z when ``a_0`` is
  +-1 (its division by ``n`` is exact, and a remainder raises); repeated
  squaring otherwise.
- :func:`invert`: Newton's iteration over Z/M for a series with more than
  ``_NEWTON_MIN_TAPS`` nonzero coefficients; the coefficient recurrence for
  sparser series and over Z, where Newton's iterates grow.

Before choosing a route, :func:`mul` and :func:`pow_` take the lattice step: when
every nonzero coefficient past ``q^0`` sits at a multiple of some ``k > 1``
(``f_k^e``, a dilated atom), the series is ``a(q) = A(q^k)``; the product or
power is taken of ``A`` at order ``N // k`` and spread back with zeros off the
lattice.  This is exact over Z and Z/M alike: ``ab = (AB)(q^k)`` and ``a^e =
A^e(q^k)``, and the coefficients of ``AB`` and ``A^e`` through ``q^(N // k)``
are those of the result at the multiples of ``k`` through ``q^N``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import compress, islice
from math import gcd
from typing import Optional, Sequence

import numpy as np

try:  # libmpdec; the pure-Python _pydecimal would be slower than int
    import _decimal
except ImportError:  # pragma: no cover - CPython built without libmpdec
    _decimal = None


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

    @property
    def is_exact(self) -> bool:
        return self.modulus == 0

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


class Series:
    """Immutable truncated power series: coefficients for ``q^0 .. q^order``."""

    __slots__ = ("ring", "_coeffs")

    def __init__(self, ring: CoeffRing, coeffs: Sequence[int]):
        if len(coeffs) == 0:
            raise ValueError("empty series rejected; order must be >= 0")
        mod = ring.modulus
        values = map(int, coeffs)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_coeffs",
                           tuple([c % mod for c in values]) if mod else tuple(values))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Series is immutable")

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient q^{n} not tracked (order {self.order})")
        return self._coeffs[n]

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise PrecisionError(f"cannot extend order {self.order} to {order}")
        return Series(self.ring, self._coeffs[: order + 1])

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Series)
            and self.ring == other.ring
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ring, self._coeffs))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"Series({self.ring}, O(q^{self.order + 1}); [{head}{tail}])"


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


def _same_ring(a: Series, b: Series) -> None:
    if a.ring != b.ring:
        raise RingMismatchError(f"ring mismatch: {a.ring} vs {b.ring}")


def add(a: Series, b: Series) -> Series:
    """Coefficientwise sum; result order is ``min(a.order, b.order)``."""
    _same_ring(a, b)
    n = min(a.order, b.order)
    return Series(a.ring, [a._coeffs[i] + b._coeffs[i] for i in range(n + 1)])


def sub(a: Series, b: Series) -> Series:
    _same_ring(a, b)
    n = min(a.order, b.order)
    return Series(a.ring, [a._coeffs[i] - b._coeffs[i] for i in range(n + 1)])


def scalar_mul(c: int, a: Series) -> Series:
    return Series(a.ring, [c * x for x in a._coeffs])


def mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated at ``n = min(a.order, b.order)``.

    Kronecker substitution: each factor becomes one number whose ``w``-wide
    slot ``i`` holds its coefficient ``i``, the two numbers are multiplied
    once, exactly, and the slots of the product are the coefficients
    ``c_k``.  Each ``c_k`` is a sum of at most ``n+1`` products, so
    ``|c_k| <= B`` with ``B = max(1, |a|) * max(1, |b|) * (n+1)``, where
    ``|a|`` is the largest coefficient magnitude of ``a`` (the ``max(1, .)``
    also keeps the factors' own coefficients within ``B``).  The slot holds
    ``c_k`` plus a half-slot bias larger than ``B``, so every biased slot
    lies in ``[0, slot base)`` and no carry or borrow crosses a slot
    boundary.  The size switch picks one of two exact routes:

    - ``(n+1)`` slots of ``bit_length(B)`` bits below ``_DECIMAL_MIN_BITS``:
      base ``2^w``, slots packed as bytes into a Python ``int`` (Karatsuba);
    - at or above it: base ``10^w`` through libmpdec, the C core of the
      stdlib ``decimal`` module, whose number-theoretic transform beats
      Karatsuba on large operands (see :func:`_product_decimal` for why it
      is exact).  Without the C module, or when a slot would be too long for
      ``str(int)``, the ``int`` route is taken.

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


def _lattice(cs: Sequence[int]) -> int:
    """The gcd ``k`` of the indices past ``q^0`` of the nonzero coefficients,
    0 for a constant: ``cs`` is then a series in ``q^k``.

    The first nonzero index is the candidate; each residue class off its
    lattice is tested by one slice, and a nonzero one shrinks the candidate
    to a divisor.  A dense series leaves at index 1.
    """
    k = next(compress(range(1, len(cs)), islice(cs, 1, None)), 0)
    j = 1
    while j < k:
        if any(cs[j::k]):
            k, j = gcd(k, j), 0
        j += 1
    return k


def _spread(cs: Sequence[int], k: int, order: int) -> list[int]:
    """``A(q^k)`` truncated at ``order`` from the coefficients of ``A``, which
    run to ``order // k``: zeros off the lattice."""
    out = [0] * (order + 1)
    out[::k] = cs
    return out


# Crossover of the two product routes, in bits of one packed operand
# ((n+1) slots of the bit length of B).  Measured at orders 256 to 8192: with
# slots of 8 bytes or more, int and libmpdec are level from about 1.1e5 to
# 2.1e5 bits, and libmpdec is faster above (1.2x at 268k, 2.8-3.2x at 842k).
# Numpy-packed slots of at most 7 bytes keep int faster to about 3e5 bits
# (0.86x at 277k-311k, 1.1x at 326k-369k); they pass 3 << 16 bits only
# beyond order 3500, so the switch stays where wide slots cross.
_DECIMAL_MIN_BITS = 3 << 16


def _product(av: Sequence[int], bv: Sequence[int]) -> list[int]:
    """Coefficients ``0..n`` of ``av * bv`` for two length-``n+1`` sequences,
    exact and unreduced (the routes are described in :func:`mul`)."""
    n = len(av) - 1
    bound = max(1, max(map(abs, av))) * max(1, max(map(abs, bv))) * (n + 1)
    bits = bound.bit_length()
    if _decimal is not None and (n + 1) * bits >= _DECIMAL_MIN_BITS:
        # 10^(w-1) >= 2^bits > B, as log10(2) < 0.30103
        width = bits * 30103 // 100000 + 2
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        if not limit or width <= limit:
            return _product_decimal(av, bv, width)
    return _product_int(av, bv, bound)


def _product_int(av: Sequence[int], bv: Sequence[int], bound: int) -> list[int]:
    """Kronecker product in base ``2^w``: slots packed as bytes into ints.

    The slot width in bytes is chosen so that ``2^(w-1) > B``; the low
    ``n+1`` slots of the biased product hold ``c_0 .. c_n`` exactly.  Slots
    of at most 7 bytes are packed and read back through little-endian int64
    arrays: a biased slot lies below ``2^56``, so no int64 overflows.  An
    8-byte slot would overflow at the bias, so wider slots are joined and cut
    as Python ints.
    """
    n = len(av) - 1
    width = bound.bit_length() // 8 + 1  # slot bytes, so that 2^(w-1) > B
    half = 1 << (8 * width - 1)
    size = width * (n + 1)
    bias = int.from_bytes((b"\0" * (width - 1) + b"\x80") * (n + 1), "little")

    def pack(cs: Sequence[int]) -> int:
        if width <= 7:
            biased = np.array(cs, dtype="<i8")
            biased += half
            slots = biased.view(np.uint8).reshape(-1, 8)[:, :width].tobytes()
        else:
            slots = b"".join((c + half).to_bytes(width, "little") for c in cs)
        return int.from_bytes(slots, "little") - bias

    pa = pack(av)
    pb = pa if av is bv else pack(bv)
    raw = ((pa * pb + bias) & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    if width <= 7:
        padded = np.zeros((n + 1, 8), dtype=np.uint8)
        padded[:, :width] = np.frombuffer(raw, dtype=np.uint8).reshape(n + 1, width)
        return (padded.view("<i8").reshape(-1) - half).tolist()
    return [int.from_bytes(raw[k : k + width], "little") - half for k in range(0, size, width)]


def _product_decimal(av: Sequence[int], bv: Sequence[int], width: int) -> list[int]:
    """Kronecker product in base ``10^w`` through libmpdec.

    Each factor is written as one decimal string of ``w``-digit slots holding
    ``c + h`` with ``h = 5*10^(w-1) > B``, and read as a ``Decimal``; the
    bias over ``n+1`` slots is subtracted, the two factors are multiplied,
    and the bias over all ``2n+1`` slots of the full product is added back
    (every product slot, the top ones included, may be negative before it).
    All arithmetic runs in a context of its own, never the caller's, with
    ``prec = MAX_PREC`` and ``Inexact``, ``Rounded``, ``InvalidOperation``
    and ``Overflow`` trapped, so a result that is not the exact integer
    raises instead of being returned.  The low ``n+1`` slots of
    ``str(product)`` are ``c_0 + h .. c_n + h``.
    """
    dec = _decimal
    n = len(av) - 1
    half = 5 * 10 ** (width - 1)
    slot = "5" + "0" * (width - 1)
    ctx = dec.Context(prec=dec.MAX_PREC, Emax=dec.MAX_EMAX, Emin=dec.MIN_EMIN,
                      traps=[dec.Inexact, dec.Rounded, dec.InvalidOperation, dec.Overflow])
    bias = dec.Decimal(slot * (n + 1))

    def pack(cs: Sequence[int]):
        # most significant slot first
        return ctx.subtract(dec.Decimal("".join([f"{c + half:0{width}d}" for c in reversed(cs)])),
                            bias)

    pa = pack(av)
    pb = pa if av is bv else pack(bv)
    full = ctx.add(ctx.multiply(pa, pb), dec.Decimal(slot * (2 * n + 1)))
    digits = str(full)[-(n + 1) * width :].zfill((n + 1) * width)
    return [int(digits[i - width : i]) - half for i in range(len(digits), 0, -width)]


def pow_(a: Series, e: int) -> Series:
    """``a^e``; ``e = 0`` gives 1 and ``e = 1`` gives ``a``.  Two exact routes:

    - over Z, ``e <= -2`` and ``a_0 = +-1``: J.C.P. Miller's recurrence for
      the powers of a power series (Knuth, TAOCP vol. 2, 4.7).  From
      ``g' a = e a' g`` with ``g = a^e``::

          n * a_0 * g_n = sum_{k>=1} ((e+1)k - n) * a_k * g_{n-k}

      Only the nonzero ``a_k`` are visited, and no inverse is formed.  The
      division by ``n`` is exact because ``g`` has integer coefficients when
      ``a_0`` is a unit; a nonzero remainder raises ``ArithmeticError``.
      Measured at order 2048, it beats inversion plus squaring at every
      density (about 6x for ``f_1^-22``, and still level at ``e = -2`` on a
      fully dense base), since over Z :func:`invert` is itself an O(N) loop
      per nonzero coefficient.
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
    if e < -1 and a.ring.is_exact and a._coeffs[0] in (1, -1):
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
    return [(k, c) for k, c in enumerate(a._coeffs) if k and c]


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


# Newton's iteration costs a few products whatever the density, the recurrence
# O(N) per nonzero coefficient.  Measured at orders 500, 2048 and 8192: mod 7
# and 17 (the catalog's moduli are 3 to 17), whose products take the numpy
# slots, Newton wins above about 50 nonzero coefficients (80 at order 8192),
# by 1.4-2.8x at 128; mod 2^31-1, whose 8-byte slots do not, above about 65,
# 170 and 256 (1.1x and 1.6x slower at 128 taps, orders 2048 and 8192).
_NEWTON_MIN_TAPS = 128


def invert(a: Series) -> Series:
    """Multiplicative inverse to order ``a.order``; a constant term that is
    not a unit raises :class:`NonUnitError`.  Two exact routes:

    - over Z/M, a series with more than ``_NEWTON_MIN_TAPS`` nonzero
      coefficients past ``a_0``: Newton's iteration ``b <- b + b(1 - ab)``,
      doubling the number of correct coefficients with two products per
      step.  Over Z/M the iterates stay reduced; over Z they grow, so Z
      never takes this route.
    - otherwise the coefficient recurrence
      ``b_n = -a_0^{-1} * sum_{k>=1} a_k b_{n-k}``.  Only the nonzero
      ``a_k`` are visited, so inverting a pentagonal-support series costs
      O(N*sqrt(N)).
    """
    n = a.order
    inv0 = a.ring.unit_inverse(a._coeffs[0])
    taps = _taps(a)
    mod = a.ring.modulus
    if mod and len(taps) > _NEWTON_MIN_TAPS:
        return Series(a.ring, _newton_inverse(a._coeffs, inv0, mod))
    out = [0] * (n + 1)
    out[0] = inv0
    for i in range(1, n + 1):
        acc = 0
        for k, c in taps:
            if k > i:
                break
            acc += c * out[i - k]
        v = -inv0 * acc
        out[i] = v % mod if mod else v
    return Series(a.ring, out)


def _newton_inverse(av: Sequence[int], inv0: int, mod: int) -> list[int]:
    """Inverse of ``av`` over Z/M by Newton's iteration (see :func:`invert`).

    With ``ab = 1 mod q^m``, ``1 - ab = q^m * err mod q^(2m)``, so the next
    ``m`` coefficients of ``b`` are the low ``m`` of ``b * err``.
    """
    b = [inv0]
    m = 1
    while m < len(av):
        m2 = min(2 * m, len(av))
        ab = _product(av[:m2], b + [0] * (m2 - m))
        err = [-c % mod for c in ab[m:]]
        b += [c % mod for c in _product(b[: m2 - m], err)]
        m = m2
    return b


def dilate(a: Series, k: int) -> Series:
    """Replace ``q`` by ``q^k``; result order is ``a.order * k``."""
    if k <= 0:
        raise ValueError("dilation factor must be positive")
    return Series(a.ring, _spread(a._coeffs, k, a.order * k))


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
    if not a.ring.is_exact:
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
    for i in range(n + 1):
        if a._coeffs[i] != b._coeffs[i]:
            return False, i
    return True, None
