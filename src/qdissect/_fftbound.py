"""The exactness contract of a float64 FFT convolution.  Its callers are
the oracle's blocked products mod p (``oracle._mulmod``) and the series
engine's two FFT routes: the coefficients themselves
(``series._product_float``) and balanced limbs (``series._product_fft``).

For a convolution of length L = 2^m computed in float64 (unit roundoff
e = 2^-53) with roots of unity accurate to u, Percival (Math. Comp. 72, 2003;
Brent and Zimmermann, *Modern Computer Arithmetic*, Thm. 3.3.2) bounds the
error of every output by

    ||x||_2 * ||y||_2 * ((1+e)^(3m) * (1+e*sqrt(5))^(3m+1) * (1+u)^(3m) - 1).

Summing T spectral products before the inverse transform multiplies this by
(1+e)^T.  :func:`_error_bound` evaluates the factor with u = e.  A caller
cuts its operands into digits of at most :func:`_max_digit` in size, so that
the norms times the factor stay within ``_GUARD`` = 1/4: every output then
lies within 1/4 of its exact integer, and rounds to it.

The bound is on the cyclic convolution of length L, whatever the inputs'
lengths: it depends on x and y only through their norms.  So a product of
two length-(n+1) rows may transform at L = 2n, where the linear
convolution's one term at index 2n wraps onto output 0.  The bound holds
for that output as for any other, and the caller subtracts the wrapped
term, an exact integer, after rounding.  The series engine does so; the
oracle transforms at twice its block length and wraps nothing.

The theorem is proved for the radix-2 transform.  numpy's pocketfft splits a
power-of-two length into radix-4 and radix-2 passes with twiddles accurate to
about one ulp, and both callers take it to obey the same bound.  Each checks
that on every output it uses (:func:`_rounded`): a value 1/4 or more from an
integer raises ArithmeticError rather than return a number that rounding may
have changed.  Measured, pocketfft stays far inside the bound: at the digit
``_max_digit`` allows, over constant, alternating, random and random +-h rows
and 64 sampled outputs each, the worst error was 0.8-2.3% of the bound at
every power-of-two length from 2^9 to 2^21 (numpy 2.4).  The tests hold it
below a tenth of the bound (``tests/test_fftbound.py``).
"""

from __future__ import annotations

import math

import numpy as np

_EPS = 2.0 ** -53  # unit roundoff of float64
_GUARD = 0.25  # an FFT output this far from an integer is an ArithmeticError


def _error_bound(length: int, terms: int) -> float:
    """Bound on max |computed - exact| of a float64 FFT convolution of power
    of two ``length``, per unit of ||x||_2 * ||y||_2, with ``terms`` products
    summed in the frequency domain (see the module docstring)."""
    m = length.bit_length() - 1
    return math.expm1((6 * m + terms) * math.log1p(_EPS)
                      + (3 * m + 1) * math.log1p(_EPS * math.sqrt(5)))


def _max_digit(n: int, length: int, terms: int, pairs: int) -> int:
    """The largest h with ``pairs * (n+1) * h^2 * _error_bound(length, terms)
    <= _GUARD``: digits of at most h keep exact a convolution of rows of
    ``n+1`` digits in which each output sums ``pairs`` products of rows."""
    return math.isqrt(int(_GUARD / (pairs * (n + 1) * _error_bound(length, terms))))


def _rounded(x: np.ndarray) -> np.ndarray:
    """The integers nearest the FFT outputs ``x``, as floats, overwriting
    ``x`` with its distances to them; one ``_GUARD`` or more raises."""
    r = np.rint(x)
    x -= r
    if np.abs(x, out=x).max() >= _GUARD:
        raise ArithmeticError("FFT rounding error reached the guard; the product cannot be trusted")
    return r
