"""The float64 FFT convolution against Percival's bound, measured.

At the digit ``_max_digit`` allows, the bound puts every output within
``_GUARD`` of its integer.  These tests measure how far inside the bound
numpy's transform stays: the worst error over four input shapes, at 64
sampled outputs each, against exact int64 dot products.
"""

from __future__ import annotations

import numpy as np
import pytest

from qdissect._fftbound import _error_bound, _max_digit

# the worst measured error over the bound was 2.35% (numpy 2.4, every length
# from 2^9 to 2^21); a tenth leaves a fourfold margin
MARGIN = 0.1


def _worst_error_over_bound(length: int) -> float:
    """The largest ``|computed - exact| / (||a|| * ||b|| * _error_bound)`` of
    an FFT convolution at ``length`` of two rows of ``length / 2`` digits of
    at most ``h = _max_digit``, so that no output wraps: over constant,
    alternating, random and random +-h rows, at 64 sampled outputs each."""
    rng = np.random.default_rng(length)
    n = length // 2 - 1
    h = _max_digit(n, length, 1, 1)
    signs = np.where(np.arange(n + 1) % 2, -1, 1)
    shapes = [
        (np.full(n + 1, h), np.full(n + 1, h)),
        (h * signs, -h * signs),
        (rng.integers(-h, h + 1, n + 1), rng.integers(-h, h + 1, n + 1)),
        (h * rng.choice([-1, 1], n + 1), h * rng.choice([-1, 1], n + 1)),
    ]
    worst = 0.0
    for a, b in shapes:
        a, b = a.astype(np.int64), b.astype(np.int64)
        fa, fb = np.fft.rfft(a.astype(np.float64), length), np.fft.rfft(b.astype(np.float64), length)
        got = np.fft.irfft(fa * fb, length)
        bound = float(np.linalg.norm(a)) * float(np.linalg.norm(b)) * _error_bound(length, 1)
        for k in rng.choice(2 * n + 1, 64, replace=False):
            lo, hi = max(0, k - n), min(k, n)
            exact = int(np.dot(a[lo : hi + 1], b[k - hi : k - lo + 1][::-1]))
            worst = max(worst, abs(got[k] - exact) / bound)
    return worst


@pytest.mark.parametrize("length", [1 << m for m in range(9, 18)])
def test_error_stays_within_a_tenth_of_the_bound(length):
    assert _worst_error_over_bound(length) < MARGIN


@pytest.mark.slow
@pytest.mark.parametrize("length", [1 << m for m in range(18, 22)])
def test_error_stays_within_a_tenth_of_the_bound_at_the_oracle_lengths(length):
    assert _worst_error_over_bound(length) < MARGIN
