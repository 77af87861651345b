"""Every product route, inverse and Miller power against a Python-int
reference, on the workloads' own calls (run with ``pytest -m slow``).

The catalog identities at order 1000 and the chains at order 2048 run in
process, each on an empty expression memo, and every ``series._product``
call is captured: about 2,250 products, over Z and mod 3 to 17.  Each one
is taken again by every route its bound admits (the direct route when ``B <
2^63``, the float route when ``|a| * |b| <= h^2`` at any order, the limb
route always), and each result is compared with one product of Python ints.

The same runs make 94 ``invert`` and 39 ``_miller_pow`` calls.  Each inverse
is checked on both sides, ``a * inv == 1 == inv * a``, and against the
coefficient recurrence; each Miller power against inversion and repeated
squaring.
"""

from __future__ import annotations

import numpy as np
import pytest

from qdissect import qexpr, series
from qdissect._fftbound import _max_digit
from qdissect.identities import replay, verify
from qdissect.registry import registry
from qdissect.series import EXACT, Series, invert, mul, one

pytestmark = pytest.mark.slow


def _kronecker(a: list[int], b: list[int]) -> list[int]:
    """Coefficients ``0..n`` of ``a * b`` over Z by one product of Python ints
    (Kronecker substitution).  Each coefficient, taken mod ``2^w`` with
    ``2^(w-1) > B``, fills one slot wide enough for any slot of the product;
    the product's slots, taken mod ``2^w`` into ``(-2^(w-1), 2^(w-1))``, are
    the exact coefficients."""
    n = len(a) - 1
    bound = max(1, max(map(abs, a))) * max(1, max(map(abs, b))) * (n + 1)
    w = bound.bit_length() + 1
    mask, size = (1 << w) - 1, (2 * w + (n + 1).bit_length()) // 8 + 1

    def pack(x):
        return int.from_bytes(b"".join((v & mask).to_bytes(size, "little") for v in x), "little")

    prod = (pack(a) * pack(b)).to_bytes(size * (2 * n + 2), "little")
    out = []
    for i in range(n + 1):
        c = int.from_bytes(prod[i * size : (i + 1) * size], "little") & mask
        out.append(c - (1 << w) if c >> (w - 1) else c)
    return out


def _recurrence_inverse(a: Series) -> list[int]:
    """The inverse's coefficients by the coefficient recurrence ``b_n =
    -a_0^{-1} * sum_{k>=1} a_k b_(n-k)`` in Python ints, visiting only the
    nonzero ``a_k``, reduced mod ``M`` when ``M > 0``."""
    mod, cs = a.ring.modulus, a.coeffs
    inv0 = a.ring.unit_inverse(cs[0])
    taps = [(k, c) for k, c in enumerate(cs) if k and c]
    out = [inv0] + [0] * a.order
    for n in range(1, a.order + 1):
        acc = 0
        for k, c in taps:
            if k > n:
                break
            acc += c * out[n - k]
        out[n] = -inv0 * acc % mod if mod else -inv0 * acc
    return out


def _inverse_squared(a: Series, e: int) -> Series:
    """``a^e`` for ``e < 0`` by inversion and repeated squaring."""
    base, e = invert(a), -e
    result = one(a.ring, a.order)
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result


def _captured(monkeypatch, name: str) -> list:
    """Record the arguments and result of each call of ``series.<name>``."""
    calls: list = []
    real = getattr(series, name)

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(series, name, spy)
    return calls


def _every_route(av: np.ndarray, bv: np.ndarray) -> dict[str, list[int]]:
    """The product by each route whose bound admits it, as Python ints."""
    n = len(av) - 1
    top_a, top_b = int(np.abs(av).max()), int(np.abs(bv).max())
    bound = max(1, top_a) * max(1, top_b)
    a = av.tolist()
    b = a if bv is av else bv.tolist()  # a square reuses its spectra
    routes = {"limbs": series._product_fft(a, b, top_a.bit_length(), top_b.bit_length())}
    if bound * (n + 1) < 2**63:
        routes["direct"] = series._product_direct(av, bv).tolist()
    if bound <= _max_digit(n, series._fft_length(n), 1, 1) ** 2:
        routes["float"] = series._product_float(av, bv).tolist()
    return routes


def test_every_route_agrees_on_the_workloads_products(monkeypatch):
    taken = {"direct": 0, "float": 0, "limbs": 0}
    wrong = []
    real = series._product

    def checked(av, bv):
        want = _kronecker(av.tolist(), bv.tolist())
        for route, got in _every_route(av, bv).items():
            taken[route] += 1
            if got != want:
                wrong.append((route, len(av) - 1))
        return real(av, bv)

    monkeypatch.setattr(series, "_product", checked)
    reg = registry()
    monkeypatch.setattr(qexpr, "_MEMO", {})
    identities = [verify(case, order=1000) for case in reg.cases]
    monkeypatch.setattr(qexpr, "_MEMO", {})
    chains = [replay(chain, order=2048) for chain in reg.chains]

    assert not wrong, wrong[:10]
    assert sum(r.status == "pass" for r in identities) == len(identities) == 20
    assert sum(r.status == "pass" for r in chains) == 11
    # every product takes limbs; most are also direct or float, some both
    assert taken["limbs"] > 2000 and taken["direct"] > 1000 and taken["float"] > 800


def test_every_inverse_and_miller_power_of_the_workloads(monkeypatch):
    inverses = _captured(monkeypatch, "invert")
    powers = _captured(monkeypatch, "_miller_pow")
    reg = registry()
    monkeypatch.setattr(qexpr, "_MEMO", {})
    identities = [verify(case, order=1000) for case in reg.cases]
    counts = [len(inverses), len(powers)]
    monkeypatch.setattr(qexpr, "_MEMO", {})
    chains = [replay(chain, order=2048) for chain in reg.chains]
    monkeypatch.undo()  # the references below run on the real routes

    # identities then chains: 13 and 81 inverses, 26 and 13 Miller powers
    assert counts == [13, 26] and [len(inverses), len(powers)] == [94, 39]
    assert {a.ring.modulus for (a,), _ in inverses} == {0, 3, 7, 11, 13, 17}
    wrong = []
    for (a,), inv in inverses:
        unit = one(a.ring, a.order)
        if not mul(a, inv) == unit == mul(inv, a):
            wrong.append(("two-sided", a.ring.modulus, a.order))
        if list(inv.coeffs) != _recurrence_inverse(a):
            wrong.append(("recurrence", a.ring.modulus, a.order))
    for (a0, taps, e, order), got in powers:
        cs = [a0] + [0] * order
        for k, c in taps:
            cs[k] = c
        if got != list(_inverse_squared(Series(EXACT, cs), e).coeffs):
            wrong.append(("miller", e, order))
    assert not wrong, wrong[:10]
    assert sum(r.status == "pass" for r in identities) == len(identities) == 20
    assert sum(r.status == "pass" for r in chains) == 11
