"""Large-index family probes (run with ``pytest -m slow``: about 30 s and
0.5 GB peak RSS on 2 vCPUs).

These exercise the (81,17)-stream theorem at m = 1, where the competing
readings of the printed statement are distinguished empirically, plus the
deeper 17-regular progressions.  One shared (81,17) table to index ~2.48e7
powers the s13, s14 and s15 probes; the 17-regular ones read a table to
index ~1.07e7.
"""

from __future__ import annotations

import pytest

from qdissect import oracle
from qdissect.congruences import build_families, required_order, verify_family

pytestmark = pytest.mark.slow

FAMILIES = {f.id: f for f in build_families()}


@pytest.fixture(scope="module")
def big_b8117():
    source = FAMILIES["s13"].source
    top = max(required_order(FAMILIES[fid])[source]
              for fid in ("s13", "s13-uniform", "s14", "s15-printed", "s15-unit"))
    return {source: oracle.coeff_fast(source, top, 17)}


def test_s13_printed_reading_holds_from_m1(big_b8117):
    fam = FAMILIES["s13"]
    rep = verify_family(fam, big_b8117)
    assert rep.status == "pass", rep.violations
    assert dict(rep.params_tested[-1])["m"] == 1


def test_s13_uniform_reading_is_the_wrong_one(big_b8117):
    # the uniform-exponent reading lands on the proportional progression,
    # so its vanishing claim must be violated
    fam = FAMILIES["s13-uniform"]
    rep = verify_family(fam, big_b8117)
    assert rep.status == "erratum"  # expectation "record"
    assert rep.violations


def test_s14_proportional_family(big_b8117):
    fam = FAMILIES["s14"]
    rep = verify_family(fam, big_b8117)
    assert rep.status == "pass", rep.violations


def test_s15_constant_readings(big_b8117):
    # composing the cross-stream relation with the order-8 progression gives
    # proportionality constant 1, not the printed 5^m; the probes record it
    printed = verify_family(FAMILIES["s15-printed"], big_b8117)
    unit = verify_family(FAMILIES["s15-unit"], big_b8117)
    assert unit.status == "pass", unit.violations
    assert printed.status == "erratum"
    assert all(dict(v.params)["m"] == 1 for v in printed.violations)


def test_deep_17_regular_progressions():
    top = max(
        max(required_order(FAMILIES[fid], n_max=40).values())
        for fid in ("s10", "s11", "s12")
    )
    source = FAMILIES["s10"].source
    tables = {source: oracle.coeff_fast(source, top, 17)}
    for fid in ("s10", "s11", "s12"):
        rep = verify_family(FAMILIES[fid], tables, n_max=40)
        assert rep.status == "pass", (fid, rep.violations)
