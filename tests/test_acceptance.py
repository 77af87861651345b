"""Acceptance suite: the eight exit criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Each criterion pins its tolerance (truncation order, index range,
runtime budget) here; nothing is deferred to later calibration.

Criterion 2 note: every replayed stage must match to at least 200 surviving
coefficients, except the single documented erratum candidate (stage 7.21),
whose printed form provably disagrees with the mechanical expansion at q^2.
That stage must be *reported* as an erratum with that exact mismatch, and the
corrected-form diagnostic segment must pass; an unexplained mismatch anywhere
fails the criterion.
"""

from __future__ import annotations

import random
import time

import pytest

from qdissect import oracle
from qdissect.congruences import (
    SEQUENCES,
    seq_eval,
    verify_family,
)
from qdissect.identities import replay, verify
from qdissect.qexpr import (
    EtaF,
    Mul,
    Pow,
    Theta,
    eval_qexpr,
)
from qdissect.registry import registry
from qdissect.series import (
    EXACT,
    CoeffRing,
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
    zero,
)
from conftest import theta_sum

REG = registry()
CASES = {c.id: c for c in REG.cases}
FAMILIES = {f.id: f for f in REG.families}
B37 = oracle.SourceSpec("bipartite", 3, 7)

# the single allowed erratum candidate among the replayed stages, with the
# exact mismatch the report must contain
KNOWN_ERRATA = {"7.21": 2}


def _line(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} -- {detail}")


def _source_table(fid: str, n_max: int, p: int) -> dict:
    """Family ``fid``'s source table mod p to ``n_max``, keyed by its stream."""
    source = FAMILIES[fid].source
    return {source: oracle.coeff_fast(source, n_max, p)}


_B37_BUILD_SECONDS = {}


@pytest.fixture(scope="module")
def b37_table():
    # shared by criteria 4 and 6: covers 4^7 * 100 + (10*4^6 - 1)/3
    t0 = time.perf_counter()
    table = oracle.coeff_fast(B37, 4**7 * 100 + 13653, 7)
    _B37_BUILD_SECONDS["build"] = time.perf_counter() - t0
    return table


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    section2 = ["0.2", "0.3", "0.3a", "2a", "2b", "e2", "kp", "kp1", "kp2", "kp3"]
    failures = []
    for cid in section2:
        case = CASES[cid]
        want = 400 if cid in ("0.2", "0.3", "0.3a") else 500
        assert case.default_order == want
        assert case.modulus == 0
        if cid in ("0.2", "0.3", "0.3a"):
            assert case.default_order % 5 == 0
        rep = verify(case)
        if rep.status != "pass":
            failures.append((cid, rep.first_mismatch))
    rep76 = verify(CASES["7.6"])
    if rep76.status != "pass" or rep76.order != 600:
        failures.append(("7.6", rep76.first_mismatch))
    rep73 = verify(CASES["7.3"])
    recorded = rep73.status in ("pass", "erratum")
    elapsed = time.perf_counter() - t0
    ok = not failures and recorded and elapsed < 30.0
    _line(
        "criterion 1",
        ok,
        f"{len(section2) + 1} dissection identities pass, cubic entry 7.3 "
        f"outcome={rep73.status}, {elapsed:.1f} s (< 30 s)",
    )
    assert not failures, failures
    assert recorded
    assert elapsed < 30.0


def test_criterion_2_proof_chain_replay():
    t0 = time.perf_counter()
    sections = {
        "s3": 7, "s4": 3, "s5": 11, "s6": 13, "s7": 17, "s8": 0,
    }
    unexplained = []
    errata_seen = {}
    n_stages = 0
    min_surviving = 10**9
    for section, modulus in sections.items():
        chains = [c for c in REG.chains if c.section == section]
        assert chains, section
        for chain in chains:
            if section != "s8":
                assert chain.modulus == modulus, chain.id
            rep = replay(chain)
            for stage in rep.stages:
                n_stages += 1
                min_surviving = min(min_surviving, stage.surviving)
                if stage.status == "pass":
                    continue
                if stage.stage in KNOWN_ERRATA and stage.status == "erratum":
                    errata_seen[stage.stage] = stage.first_mismatch.exponent
                else:
                    unexplained.append((chain.id, stage.stage, stage.first_mismatch))
    elapsed = time.perf_counter() - t0
    ok = (
        not unexplained
        and errata_seen == KNOWN_ERRATA
        and min_surviving >= 200
        and elapsed < 300.0
    )
    _line(
        "criterion 2",
        ok,
        f"{n_stages} stages replayed across 6 sections, min surviving "
        f"coefficients {min_surviving} (>= 200), erratum candidates "
        f"{errata_seen or 'none'}, {elapsed:.1f} s (< 5 min)",
    )
    assert not unexplained, unexplained
    assert errata_seen == KNOWN_ERRATA
    assert min_surviving >= 200
    assert elapsed < 300.0


def test_criterion_3_oracle_series_cross_check():
    pairs = [(3, 7), (9, 5), (5, 11), (5, 13), (81, 17), (2, 8), (3, 11)]
    order = 300
    bad = []
    for l, m in pairs:
        table = oracle.dp_counts(oracle.SourceSpec("bipartite", l, m), order)
        srs = eval_qexpr(Mul((EtaF(l), EtaF(m), Pow(EtaF(1), -2))), EXACT, order)
        if tuple(table.values) != srs.coeffs:
            bad.append((l, m))
    _line(
        "criterion 3",
        not bad,
        f"bipartition counts equal the eta-quotient expansion to order {order} "
        f"for {len(pairs)} stream pairs, exactly",
    )
    assert not bad, bad


def test_criterion_4_base_relations(b37_table):
    results = {}

    rep = verify_family(FAMILIES["w.11"], {B37: b37_table}, n_max=5000)
    results["w.11 (n<=5000, mod 7)"] = rep

    tables = _source_table("1.x", 625 * 2000 + 364, 11)
    results["1.x (n<=2000, mod 11)"] = verify_family(FAMILIES["1.x"], tables, n_max=2000)

    tables = _source_table("2.x", 625 * 2000 + 416, 13)
    results["2.x (n<=2000, mod 13)"] = verify_family(FAMILIES["2.x"], tables, n_max=2000)

    tables = _source_table("0a1", 5**4 * 2000 + 687, 3)
    results["s2 (n<=2000, mod 3)"] = verify_family(FAMILIES["0a1"], tables, n_max=2000)
    results["s3 (n<=2000, mod 3)"] = verify_family(FAMILIES["0a2"], tables, n_max=2000)

    violations = {k: r.violations for k, r in results.items() if r.violations}
    statuses = {k: r.status for k, r in results.items()}
    ok = not violations and all(s == "pass" for s in statuses.values())
    _line("criterion 4", ok, f"base relations {', '.join(results)}: zero violations")
    assert ok, (statuses, violations)


def test_criterion_5_families():
    results = {}

    tables = _source_table("x1", 88 * 500 + 87, 11)
    results["x1 (k=1..10, n<=500)"] = verify_family(FAMILIES["x1"], tables, n_max=500)

    r17 = oracle.SourceSpec("regular", 17)
    tables = {**_source_table("7.22", 81 * 500 + 50, 17), r17: oracle.coeff_fast(r17, 500, 17)}
    results["7.22 (n<=500)"] = verify_family(FAMILIES["7.22"], tables, n_max=500)
    results["s8 (k=2,3, n<=300)"] = verify_family(FAMILIES["s8"], tables, n_max=300)

    tables = _source_table("dou", 27 * 3000 + 22, 11)
    results["dou (a=2,3, n<=3000)"] = verify_family(FAMILIES["dou"], tables, n_max=3000)

    violations = {k: r.violations for k, r in results.items() if r.violations}
    ok = not violations and all(r.status == "pass" for r in results.values())
    _line("criterion 5", ok, f"families {', '.join(results)}: zero violations")
    assert ok, violations


def test_criterion_6_theorem_order7_at_m1(b37_table):
    t0 = time.perf_counter()
    rep = verify_family(FAMILIES["ak1"], {B37: b37_table}, n_max=100)
    rep2 = verify_family(FAMILIES["ak2"], {B37: b37_table}, n_max=100)
    elapsed = time.perf_counter() - t0 + _B37_BUILD_SECONDS.get("build", 0.0)
    tested = dict(rep.params_tested[-1]) if rep.params_tested else {}
    ok = (
        rep.status == "pass"
        and rep2.status == "pass"
        and tested.get("m") == 1
        and not rep.skipped
        and elapsed < 120.0
    )
    _line(
        "criterion 6",
        ok,
        f"order-16384 family at m=1 for n<=100 (top index "
        f"{4**7 * 100 + 5461}), zero violations, "
        f"{elapsed:.1f} s including the fast-path table build (< 2 min)",
    )
    assert ok, (rep, rep2)


def test_criterion_7_recurrence_constants():
    expected = [
        ("E", 6, 7, 2), ("e", 6, 7, 2),
        ("A", 5, 11, 5), ("a", 5, 11, 6),
        ("C", 2, 13, 8), ("c", 2, 13, 1),
        ("D", 8, 17, 2), ("d", 8, 17, 13),
    ]
    got = {(n, k, p): seq_eval(SEQUENCES[n], k, p) for n, k, p, _ in expected}
    bad = [(n, k, p, got[(n, k, p)], want)
           for n, k, p, want in expected if got[(n, k, p)] != want]
    _line(
        "criterion 7",
        not bad,
        "E(6)=e(6)=2 mod 7, A(5)=5 a(5)=6 mod 11, C(2)=8 c(2)=1 mod 13, "
        "D(8)=2 d(8)=13 mod 17, exact match",
    )
    assert not bad, bad


def test_criterion_8_property_suites():
    rng = random.Random(0x5EED)
    order = 64
    checks = []

    def rand_series(ring, unit=False):
        hi = ring.modulus - 1 if ring.modulus else 9
        lo = 0 if ring.modulus else -9
        c = [rng.randint(lo, hi) for _ in range(order + 1)]
        if unit:
            c[0] = 1 if ring.modulus else rng.choice([1, -1])
        return Series(ring, c)

    # ring laws coefficientwise to order 64
    lawful = True
    for modulus in (0, 7, 13):
        ring = EXACT if modulus == 0 else CoeffRing(modulus)
        for _ in range(25):
            a, b, c = (rand_series(ring) for _ in range(3))
            lawful &= add(add(a, b), c) == add(a, add(b, c))
            lawful &= mul(a, b) == mul(b, a)
            lawful &= mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    checks.append(("ring laws", lawful))

    # two-sided inversion for 100 randomized unit-constant series
    inv_ok = True
    for i in range(100):
        ring = EXACT if i % 2 else CoeffRing(11)
        a = rand_series(ring, unit=True)
        inv_ok &= mul(a, invert(a)) == one(ring, order)
        inv_ok &= mul(invert(a), a) == one(ring, order)
    checks.append(("inversion", inv_ok))

    # extract/dilate adjunction and full dissection reconstruction
    adj_ok = True
    for _ in range(20):
        ring = CoeffRing(7)
        a = rand_series(ring)
        s = rng.randint(2, 6)
        adj_ok &= extract(dilate(a, s), 0, s) == a
        adj_ok &= not any(any(extract(dilate(a, s), r, s).coeffs) for r in range(1, s))
        total = zero(ring, order)
        for r in range(s):
            comp = dilate(extract(a, r, s), s)
            padded = Series(ring, list(comp.coeffs) + [0] * (order - comp.order))
            total = add(total, mul(monomial(ring, order, r), padded))
        adj_ok &= eq_to_order(total, a, order - s) == (True, None)
    checks.append(("dissection", adj_ok))

    # triple product to order 200 for every theta atom in use
    jtp_ok = True
    for theta in (Theta(1, 1, 1, 1), Theta(1, 1, 1, 3), Theta(-1, 1, -1, 2)):
        prod = eval_qexpr(theta, EXACT, 200)
        summed = theta_sum(theta, EXACT, 200)
        jtp_ok &= eq_to_order(prod, summed, 200) == (True, None)
    checks.append(("triple product", jtp_ok))

    # exact/mod commutation through series ops and expression evaluation
    comm_ok = True
    for _ in range(20):
        a, b = rand_series(EXACT), rand_series(EXACT)
        p = rng.choice([3, 7, 13, 17])
        ra, rb = reduce_mod(a, p), reduce_mod(b, p)
        comm_ok &= reduce_mod(mul(a, b), p) == mul(ra, rb)
        comm_ok &= reduce_mod(pow_(a, 4), p) == pow_(ra, 4)
        comm_ok &= reduce_mod(dilate(a, 3), p) == dilate(ra, 3)
        comm_ok &= reduce_mod(extract(a, 1, 2), p) == extract(ra, 1, 2)
    expr = Mul((EtaF(3), EtaF(7), Pow(EtaF(1), -2)))
    for p in (3, 7, 11, 13, 17):
        comm_ok &= reduce_mod(eval_qexpr(expr, EXACT, 120), p) == eval_qexpr(
            expr, CoeffRing(p), 120
        )
    checks.append(("exact/mod commutation", comm_ok))

    bad = [name for name, ok in checks if not ok]
    _line(
        "criterion 8",
        not bad,
        f"property suites (seed 0x5EED): {', '.join(name for name, _ in checks)}",
    )
    assert not bad, bad
