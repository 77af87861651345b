"""Shared fixtures and independent brute-force oracles for the tests.

The enumeration helpers here deliberately avoid the package's own machinery:
expected values are produced by direct recursion over partitions or explicit
product expansion, so a bug in the engine cannot hide behind itself.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from qdissect.qexpr import Theta
from qdissect.series import EXACT, CoeffRing, Series


@pytest.fixture
def ring_exact():
    return EXACT


@pytest.fixture(params=[0, 3, 7, 97])
def any_ring(request):
    return EXACT if request.param == 0 else CoeffRing(request.param)


def enumerate_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as non-increasing tuples (small n only)."""

    def rec(remaining: int, largest: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        out = []
        for part in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - part, part):
                out.append((part,) + rest)
        return out

    return rec(n, n)


def count_regular(n: int, l: int) -> int:
    """l-regular partition count by direct enumeration."""
    return sum(1 for p in enumerate_partitions(n) if all(x % l for x in p))


def count_bipartitions(n: int, l: int, m: int) -> int:
    """(l, m)-regular bipartition count by direct enumeration."""
    return sum(count_regular(j, l) * count_regular(n - j, m) for j in range(n + 1))


@lru_cache(maxsize=None)
def distinct_part_counts(n_max: int) -> tuple[int, ...]:
    """Partitions into distinct parts, by an independent DP."""
    counts = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(n_max, part - 1, -1):
            counts[n] += counts[n - part]
    return tuple(counts)


def brute_pochhammer(a: int, m: int, order: int) -> list[int]:
    """Plain expansion of prod_j (1 - q^(a + j*m)) without the engine."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    d = a
    while d <= order:
        nxt = coeffs[:]
        for i in range(order - d + 1):
            if coeffs[i]:
                nxt[i + d] -= coeffs[i]
        coeffs = nxt
        d += m
    return coeffs


def brute_binomial(order: int, factors) -> tuple[list[int], int]:
    """``prod (1 - s*q^d)`` over (d, s) on an object array of Python ints, and
    the largest coefficient magnitude of any partial product."""
    c = np.zeros(order + 1, object)
    c[0] = 1
    peak = 1
    for d, s in factors:
        tail = c[d:]
        tail -= s * c[: order + 1 - d]
        peak = max(peak, int(np.abs(c).max()))
    return c.tolist(), peak


def brute_mul(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai:
            for j, bj in enumerate(b[: order + 1 - i]):
                out[i + j] += ai * bj
    return out


def theta_sum(node: Theta, ring: CoeffRing, order: int) -> Series:
    """Bilateral-sum evaluation ``sum_n a^(n(n+1)/2) * b^(n(n-1)/2)``.

    Independent of the product form; the two must agree (triple product).
    """
    coeffs = [0] * (order + 1)
    n, hit = 0, True
    while hit:  # the terms of n and -n; a set, so that n = 0 counts once
        hit = False
        for ta, tb in {(n * (n + 1) // 2, n * (n - 1) // 2), (n * (n - 1) // 2, n * (n + 1) // 2)}:
            e = node.ua * ta + node.ub * tb
            if e <= order:
                hit = True
                coeffs[e] += node.sa**ta * node.sb**tb
        n += 1
    return Series(ring, coeffs)


def random_series(rng, ring: CoeffRing, order: int, unit: bool = False) -> Series:
    hi = ring.modulus - 1 if ring.modulus else 9
    lo = 0 if ring.modulus else -9
    coeffs = [rng.randint(lo, hi) for _ in range(order + 1)]
    if unit:
        coeffs[0] = 1 if ring.modulus else rng.choice([1, -1])
    return Series(ring, coeffs)
