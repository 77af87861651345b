"""Every product route against a Python-int reference, on the workloads' own
products (run with ``pytest -m slow``).

The catalog identities at order 1000 and the chains at order 2048 run in
process, each on an empty expression memo, and every ``series._product``
call is captured: about 2,250 products, over Z and mod 3 to 17.  Each one
is taken again by every route its bound admits (the direct route when ``B <
2^63``, the float route when ``|a| * |b| <= h^2`` at any order, the limb
route always), and each result is compared with one product of Python ints.
"""

from __future__ import annotations

import numpy as np
import pytest

from qdissect import qexpr, series
from qdissect._fftbound import _max_digit
from qdissect.identities import replay, verify
from qdissect.registry import registry

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
