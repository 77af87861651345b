"""Truncated formal power series over exact integers or a residue ring Z/M.

A :class:`Series` carries its own truncation order: coefficients of
``q^0 .. q^order`` are tracked explicitly and every operation documents the
order of its result.  There is no global precision and no floating point.

Exact coefficients are arbitrary-precision Python ints; modular series keep
coefficients reduced to ``[0, M)``.  Every product, over Z or Z/M, is one
exact integer multiplication by Kronecker substitution (see :func:`mul`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


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

    def normalize(self, c: int) -> int:
        return c if self.modulus == 0 else c % self.modulus

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
        norm = ring.normalize
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_coeffs", tuple(norm(int(c)) for c in coeffs))

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

    def nonzero(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs of the nonzero coefficients."""
        return [(i, c) for i, c in enumerate(self._coeffs) if c]

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

    # Operator sugar; the module-level functions are the documented API.
    def __add__(self, other: "Series") -> "Series":
        return add(self, other)

    def __sub__(self, other: "Series") -> "Series":
        return sub(self, other)

    def __mul__(self, other: "Series") -> "Series":
        return mul(self, other)

    def __pow__(self, e: int) -> "Series":
        return pow_(self, e)

    def __neg__(self) -> "Series":
        return scalar_mul(-1, self)


def zero(ring: CoeffRing, order: int) -> Series:
    return Series(ring, [0] * (order + 1))


def one(ring: CoeffRing, order: int) -> Series:
    c = [0] * (order + 1)
    c[0] = 1
    return Series(ring, c)


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

    Kronecker substitution: each factor is packed into one integer, its
    coefficient ``i`` in a ``w``-bit slot at bit ``w*i``; the two integers are
    multiplied once, exactly, and the result is ``sum_k c_k 2^(w*k)``.  Each
    ``c_k`` is a sum of at most ``n+1`` products, so ``|c_k| <= B`` with
    ``B = max(1, |a|) * max(1, |b|) * (n+1)``, where ``|a|`` is the largest
    coefficient magnitude of ``a`` (the ``max(1, .)`` also keeps the factors'
    own coefficients within ``B``).  The slot width is chosen so that
    ``2^(w-1) > B``: every ``c_k`` plus the half-slot bias ``2^(w-1)`` then
    lies in ``[0, 2^w)``, so no carry or borrow crosses a slot boundary and
    the low ``n+1`` slots of the biased product hold ``c_0 .. c_n`` exactly.
    One routine serves Z and Z/M: modular results are reduced by the
    :class:`Series` constructor.
    """
    _same_ring(a, b)
    n = min(a.order, b.order)
    av, bv = a._coeffs[: n + 1], b._coeffs[: n + 1]
    bound = max(1, max(map(abs, av))) * max(1, max(map(abs, bv))) * (n + 1)
    width = bound.bit_length() // 8 + 1  # slot bytes, so that 2^(w-1) > B
    half = 1 << (8 * width - 1)
    size = width * (n + 1)
    bias = int.from_bytes((b"\0" * (width - 1) + b"\x80") * (n + 1), "little")

    def pack(cs: tuple[int, ...]) -> int:
        slots = b"".join((c + half).to_bytes(width, "little") for c in cs)
        return int.from_bytes(slots, "little") - bias

    pa = pack(av)
    pb = pa if a is b else pack(bv)
    raw = ((pa * pb + bias) & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    return Series(a.ring, [
        int.from_bytes(raw[k : k + width], "little") - half for k in range(0, size, width)
    ])


def pow_(a: Series, e: int) -> Series:
    """Repeated-squaring power; ``e = 0`` gives 1, negative ``e`` inverts first."""
    if e == 0:
        return one(a.ring, a.order)
    if e < 0:
        return pow_(invert(a), -e)
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


def invert(a: Series) -> Series:
    """Multiplicative inverse to order ``a.order`` by the standard coefficient
    recurrence ``b_n = -a_0^{-1} * sum_{k>=1} a_k b_{n-k}``.

    Only the nonzero ``a_k`` are visited, so inverting a pentagonal-support
    series costs O(N*sqrt(N)).
    """
    n = a.order
    inv0 = a.ring.unit_inverse(a._coeffs[0])
    taps = [(k, c) for k, c in enumerate(a._coeffs) if k and c]
    out = [0] * (n + 1)
    out[0] = a.ring.normalize(inv0)
    mod = a.ring.modulus
    for i in range(1, n + 1):
        acc = 0
        for k, c in taps:
            if k > i:
                break
            acc += c * out[i - k]
        v = -inv0 * acc
        out[i] = v % mod if mod else v
    return Series(a.ring, out)


def dilate(a: Series, k: int) -> Series:
    """Replace ``q`` by ``q^k``; result order is ``a.order * k``."""
    if k <= 0:
        raise ValueError("dilation factor must be positive")
    out = [0] * (a.order * k + 1)
    for i, c in enumerate(a._coeffs):
        out[i * k] = c
    return Series(a.ring, out)


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
