"""Recurrence constants and congruence-family verification."""

from __future__ import annotations

import dataclasses
import pickle
import re

import pytest

from qdissect import oracle
from qdissect.congruences import (
    DESK_INDEX_CAP,
    SEQUENCES,
    AffineIndex,
    CongruenceFamily,
    RecurrenceSeq,
    Skip,
    Term,
    build_families,
    exact_div,
    recurrence_consistency_checks,
    required_order,
    seq_eval,
    verify_family,
)
from qdissect.oracle import SourceSpec

FAMILIES = {f.id: f for f in build_families()}
B37 = SourceSpec("bipartite", 3, 7)


class TestSequences:
    # quoted residues for the lemma constants
    @pytest.mark.parametrize(
        "name,k,p,want",
        [
            ("E", 6, 7, 2), ("e", 6, 7, 2),
            ("A", 5, 11, 5), ("a", 5, 11, 6),
            ("C", 2, 13, 8), ("c", 2, 13, 1),
            ("D", 8, 17, 2), ("d", 8, 17, 13),
        ],
    )
    def test_quoted_constants(self, name, k, p, want):
        assert seq_eval(SEQUENCES[name], k, p) == want

    def test_exact_small_values(self):
        # re-derived from the closed forms by surd arithmetic: E_m starts 0, 1
        # and e_m starts 1, 0; the recurrence then drives everything
        E, e = SEQUENCES["E"], SEQUENCES["e"]
        assert [seq_eval(E, k) for k in range(5)] == [0, 1, 6, 41, 276]
        assert [seq_eval(e, k) for k in range(5)] == [1, 0, 5, 30, 205]

    def test_mod_matches_exact(self):
        for seq in SEQUENCES.values():
            for k in (0, 1, 5, 12):
                assert seq_eval(seq, k, 97) == seq_eval(seq, k) % 97

    def test_deep_modular_evaluation(self):
        # stays exact far out (modular iteration, no overflow possible)
        val = seq_eval(SEQUENCES["A"], 10**6, 11)
        assert 0 <= val < 11

    def test_consistency_checks_pass(self):
        for label, ok, detail in recurrence_consistency_checks():
            assert ok, (label, detail)
            assert detail.endswith("for every m"), detail

    @pytest.mark.parametrize("main,comp,step,p,const", [
        ("E", "e", 7, 7, 3), ("A", "a", 6, 11, 2), ("C", "c", 3, 13, 8), ("D", "d", 9, 17, 8),
    ])
    def test_closure_holds_for_every_m(self, main, comp, step, p, const):
        # M = [[alpha, beta], [1, 0]] and M^k = [[s_(k+1), c_(k+1)], [s_k, c_k]],
        # so M^(step*m) = (C*I)^m = C^m * I, by products of 2x2 matrices mod p
        def times(x, y):
            return [[sum(x[i][k] * y[k][j] for k in range(2)) % p for j in range(2)]
                    for i in range(2)]

        s, c = SEQUENCES[main], SEQUENCES[comp]
        assert (s.alpha, s.beta) == (c.alpha, c.beta)
        power = [[1, 0], [0, 1]]
        for _ in range(step):
            power = times(power, [[s.alpha, s.beta], [1, 0]])
        total = [[1, 0], [0, 1]]
        for m in range(1, 6):
            total = times(total, power)
            want = pow(const, m, p)
            assert total == [[want, 0], [0, want]], (main, m)
            assert (seq_eval(s, step * m, p), seq_eval(c, step * m, p)) == (0, want)

    def test_closure_fails_for_a_companion_off_the_recurrence(self, monkeypatch):
        monkeypatch.setitem(SEQUENCES, "e", RecurrenceSeq("e", 6, 4, 1, 0))
        checks = {label: (ok, detail) for label, ok, detail in recurrence_consistency_checks()}
        assert {label: ok for label, (ok, _) in checks.items()} == {
            "E/e": False, "A/a": True, "C/c": True, "D/d": True}
        # a failed check states what it found, not the conclusion it would give
        assert checks["E/e"][1] == "M^7 = [[3, 3], [0, 6]] mod 7, want 3*I"


class TestIndexMaps:
    def test_affine_evaluation(self):
        assert AffineIndex("16", "5").coeffs() == (16, 5)
        pow_ix = AffineIndex("4 ** (7 * m)", "(4 ** (7 * m) - 1) / 3")
        assert pow_ix.coeffs(1, 0) == (4**7, 5461)
        assert AffineIndex("88", "8 * k + 7").coeffs(0, 3) == (88, 31)
        assert AffineIndex("-m + 3", "-(k - 2)").coeffs(1, 5) == (2, -3)

    def test_exact_div_guards(self):
        assert exact_div(4**7 - 1, 3) == 5461
        with pytest.raises(ArithmeticError):
            exact_div(5, 2)

    def test_catalog_offsets_are_integers(self):
        # every family's index and reference maps must divide exactly at every
        # tested instance; coeffs raises ArithmeticError otherwise
        for fam in build_families():
            maps = [fam.index] + [term.index for term in fam.relation]
            for m in fam.m_values:
                for k in fam.k_values:
                    for ix in maps:
                        scale, offset = ix.coeffs(m, k)
                        assert type(scale) is int and type(offset) is int
                        assert scale >= 1 and offset >= 0, (fam.id, ix.formula)

    def test_inexact_division_raises(self):
        with pytest.raises(ArithmeticError):
            AffineIndex("1", "(2 * m + 1) / 2").coeffs(0, 0)
        with pytest.raises(ArithmeticError):
            AffineIndex("2 ** (m - 1)").coeffs(0, 0)

    @pytest.mark.parametrize("text,bits", [
        ("3 ** 2584", 4096), ("2 ** 4096", 4097), ("(-2) ** 4096", 4097), ("1 ** 10 ** 9", 1),
    ])
    def test_powers_up_to_2_to_the_4096_are_read(self, text, bits):
        (scale, _) = AffineIndex(text).coeffs()
        assert scale.bit_length() == bits and abs(scale) <= 2**4096

    @pytest.mark.parametrize("text", ["3 ** 2585", "2 ** 4097", "7 ** 2048", "(-3) ** 2585"])
    def test_powers_past_2_to_the_4096_are_too_large(self, text):
        with pytest.raises(ArithmeticError, match="in an index expression is too large"):
            AffineIndex(text).coeffs()

    @pytest.mark.parametrize(
        "text", ["__import__('os')", "m.real", "x", "1.5", "f(m)", "m // 2",
                 "m % 3", "+m", "~m", "True", "", "1 +", "[m]", "m < k", "n"],
    )
    def test_evaluator_rejects_at_construction(self, text):
        with pytest.raises(ValueError):
            AffineIndex(text)
        with pytest.raises(ValueError):
            AffineIndex("1", text)

    def test_formula_is_derived(self):
        assert AffineIndex("16", "5").formula == "16 * n + 5"
        assert FAMILIES["ak1"].index.formula == (
            "4 ** (7 * m) * n + (4 ** (7 * m) - 1) / 3"
        )

    def test_catalog_is_plain_data(self):
        assert build_families() == build_families()
        assert pickle.loads(pickle.dumps(build_families())) == build_families()


class TestVerifyFamily:
    def test_zero_family_passes(self):
        # the (2,8) stream vanishes mod 11 on 8(11n+k)+7
        fam = FAMILIES["x1"]
        src = oracle.coeff_fast(fam.source, required_order(fam, 100)[fam.source], 11)
        rep = verify_family(fam, {fam.source: src}, n_max=100)
        assert rep.status == "pass"
        assert len(rep.params_tested) == 10

    def test_violations_are_reported(self):
        fam = CongruenceFamily(
            "bogus", "t", 7, SourceSpec("bipartite", 3, 7),
            AffineIndex("1", "0"), (), default_n_max=10,
        )
        src = oracle.dp_counts(fam.source, 10, modulus=7)
        rep = verify_family(fam, {fam.source: src})
        assert rep.status == "fail"
        assert rep.violations
        v = rep.violations[0]
        assert v.n == v.index and v.expected == 0

    @pytest.mark.parametrize("n_max,m_values", [(200, (0,)), (4, (0, 1, 2))])
    def test_report_lists_the_first_eight_violations(self, n_max, m_values):
        # b_17(n) = b_17(n + 1) mod 17 fails at most n; the report counts every
        # violation and lists the first eight in walk order (m, then n)
        r17 = SourceSpec("regular", 17)
        fam = CongruenceFamily("f", "t", 17, r17, AffineIndex("1", "0"),
                               (Term(1, 1, AffineIndex("1", "1")),),
                               m_values=m_values, default_n_max=n_max)
        table = oracle.coeff_fast(r17, n_max + 1, 17)
        every = [(m, n) for m in m_values for n in range(n_max + 1)
                 if table[n] % 17 != table[n + 1] % 17]
        rep = verify_family(fam, {r17: table})
        assert rep.status == "fail" and rep.n_violations == len(every) > 8
        assert [(v.params["m"], v.n) for v in rep.violations] == every[:8]

    def test_m_zero_is_tautology(self):
        fam = FAMILIES["ak1"]
        src = oracle.coeff_fast(fam.source, 200, 7)
        rep = verify_family(
            dataclasses.replace(fam, m_values=(0,)), {fam.source: src}, n_max=200
        )
        assert rep.status == "pass"

    def test_desk_cap_skips_with_reason(self):
        fam = FAMILIES["thm12"]
        src = oracle.coeff_fast(fam.source, 1000, 11)
        rep = verify_family(fam, {fam.source: src}, n_max=10)
        (skip,) = rep.skipped
        assert skip.params == {"m": 1, "k": 0}
        assert skip.reason == "index exceeds desk scale"
        assert skip.smallest_index > 10**8

    def test_small_table_raises(self):
        fam = FAMILIES["w.11"]
        src = oracle.dp_counts(fam.source, 50, modulus=7)
        with pytest.raises(ValueError) as exc:
            verify_family(fam, {fam.source: src}, n_max=100)
        assert str(exc.value) == ("[family w.11] reads B_{3,7} to index 1605; "
                                  "the table given covers only 0..50")

    def test_short_reference_table_raises(self):
        # the source table covers n <= 60, the 17-regular table only n <= 30
        fam = FAMILIES["7.22"]
        r17 = SourceSpec("regular", 17)
        order = required_order(fam, 60)[fam.source]
        tables = {fam.source: oracle.coeff_fast(fam.source, order, 17),
                  r17: oracle.coeff_fast(r17, 30, 17)}
        with pytest.raises(ValueError) as exc:
            verify_family(fam, tables, n_max=60)
        assert str(exc.value) == ("[family 7.22] reads b_17 to index 60; "
                                  "the table given covers only 0..30")

    @pytest.mark.parametrize("spec,p", [(SourceSpec("bipartite", 3, 7), 11),
                                        (SourceSpec("bipartite", 3, 11), 7)])
    def test_table_of_another_stream_or_modulus_raises(self, spec, p):
        # walked, either table would read as some 80 violations of w.11
        fam = FAMILIES["w.11"]
        table = oracle.coeff_fast(spec, required_order(fam, 100)[fam.source], p)
        with pytest.raises(ValueError) as exc:
            verify_family(fam, {fam.source: table}, n_max=100)
        assert str(exc.value) == ("[family w.11] reads B_{3,7} mod 7; "
                                  f"the table given is {spec.describe()} mod {p}")

    @pytest.mark.parametrize("modulus", [0, 14])
    def test_exact_table_or_one_modulo_a_multiple_is_read(self, modulus):
        fam = FAMILIES["w.11"]
        table = oracle.dp_counts(fam.source, required_order(fam, 100)[fam.source], modulus)
        rep = verify_family(fam, {fam.source: table}, n_max=100)
        assert (rep.status, rep.source) == ("pass", "B_{3,7} mod 7")

    def test_record_expectation(self):
        fam = CongruenceFamily(
            "probe", "t", 7, SourceSpec("bipartite", 3, 7),
            AffineIndex("1", "0"), (), default_n_max=5, expect="record",
        )
        src = oracle.dp_counts(fam.source, 5, modulus=7)
        rep = verify_family(fam, {fam.source: src})
        assert rep.status == "erratum" and rep.violations

    def test_cross_source_recurrence(self):
        fam = FAMILIES["7.22"]
        src = oracle.coeff_fast(fam.source, required_order(fam, 60)[fam.source], 17)
        r17 = SourceSpec("regular", 17)
        ref = oracle.coeff_fast(r17, 60, 17)
        rep = verify_family(fam, {fam.source: src, r17: ref}, n_max=60)
        assert rep.status == "pass"

    def test_s13_m0_probe_records_refutation(self):
        # the printed m-range includes m = 0, where the progression is the
        # proportional one; the probe must record the violation at n = 0
        fam = FAMILIES["s13-m0-probe"]
        src = oracle.coeff_fast(fam.source, required_order(fam)[fam.source], 17)
        rep = verify_family(fam, {fam.source: src})
        assert rep.status == "erratum"
        first = rep.violations[0]
        assert (first.n, first.index, first.got, first.expected) == (0, 50, 5, 0)

    def test_desk_cap_counts_every_map(self):
        # the reference map leaves the desk scale while the main index does not:
        # planning and walking must both skip the instance
        fam = CongruenceFamily(
            "far-ref", "t", 7, SourceSpec("bipartite", 3, 7), AffineIndex("1", "0"),
            (Term(1, 1, AffineIndex(str(DESK_INDEX_CAP)), SourceSpec("regular", 7)),),
            default_n_max=2,
        )
        assert required_order(fam) == {}
        r7 = SourceSpec("regular", 7)
        tables = {fam.source: oracle.dp_counts(fam.source, 2, modulus=7),
                  r7: oracle.dp_counts(r7, 2, modulus=7)}
        rep = verify_family(fam, tables)
        assert rep.status == "skipped" and rep.max_index is None
        assert rep.skipped == (Skip({"m": 0, "k": 0}, "index exceeds desk scale",
                                    2 * DESK_INDEX_CAP),)

    def test_no_table_when_no_instance_reads_one(self):
        fam = FAMILIES["thm13"]
        assert required_order(fam) == {}
        rep = verify_family(fam, {})
        assert rep.status == "skipped" and rep.max_index is None
        assert {skip.reason for skip in rep.skipped} == {"index exceeds desk scale"}
        assert rep.source == "B_{5,11}: no table read"
        # a family that reads a stream must be given its table
        with pytest.raises(ValueError) as exc:
            verify_family(FAMILIES["w.11"], {}, n_max=3)
        assert str(exc.value) == ("[family w.11] reads B_{3,7} to index 53; "
                                  "the table given covers none")

    def test_max_index_covers_every_read(self):
        # the reference map reads further out than the main index
        fam = CongruenceFamily(
            "wide-ref", "t", 7, SourceSpec("bipartite", 3, 7), AffineIndex("1", "0"),
            (Term(1, 1, AffineIndex("3", "1")),), default_n_max=5, expect="record",
        )
        src = oracle.dp_counts(fam.source, 16, modulus=7)
        assert verify_family(fam, {fam.source: src}).max_index == 16
        assert required_order(fam) == {SourceSpec("bipartite", 3, 7): 16}

    def test_weight_without_inverse_names_the_instance(self):
        # 17^-1 does not exist mod 17: the weight C^m of a recur relation at m = -1
        fam = CongruenceFamily(
            "f", "t", 17, SourceSpec("regular", 17), AffineIndex("1", "0"),
            (Term(1, 17, AffineIndex("1", "0")),), m_values=(-1,), default_n_max=5,
        )
        table = oracle.dp_counts(fam.source, 5)
        want = r"^\[family f\] m=-1, k=0: base is not invertible"
        for check in (lambda: required_order(fam), lambda: verify_family(fam, {fam.source: table})):
            with pytest.raises(ValueError, match=want):
                check()

    def test_weight_with_inverse_is_read(self):
        # 2^-1 = 6 mod 11, so every instance expects 6 times its own count
        fam = CongruenceFamily(
            "f", "t", 11, SourceSpec("regular", 17), AffineIndex("1", "0"),
            (Term(1, 2, AffineIndex("1", "0")),), m_values=(-1,), default_n_max=5,
            expect="record",
        )
        rep = verify_family(fam, {fam.source: oracle.dp_counts(fam.source, 5, modulus=11)})
        assert rep.status == "erratum" and rep.n_violations == 6
        assert all(v.expected == 6 * v.got % 11 for v in rep.violations)

    def test_required_order_plans_references(self):
        fam = FAMILIES["7.22"]
        needs = required_order(fam, n_max=60)
        assert needs[SourceSpec("bipartite", 81, 17)] == 81 * 60 + 50
        assert needs[SourceSpec("regular", 17)] == 60


def _cut(table: oracle.CountTable, n_max: int) -> oracle.CountTable:
    return oracle.CountTable(table.source, table.modulus, table.values[: n_max + 1])


class TestPlanCoverage:
    """A walk needs exactly the tables its plan names, each to its order."""

    FAST = [fam for fam in FAMILIES.values() if not fam.slow]

    @pytest.fixture(scope="class")
    def built(self):
        needs = {}
        for fam in self.FAST:
            for n_max in (0, 2):
                for spec, order in required_order(fam, n_max).items():
                    key = (spec, fam.modulus)
                    needs[key] = max(needs.get(key, 0), order)
        return oracle.tables(needs, None, 1)

    @pytest.mark.parametrize("n_max", [0, 2])
    def test_tables_cut_to_required_order_walk(self, built, n_max):
        for fam in self.FAST:
            needs = required_order(fam, n_max)
            full = {spec: built[spec, fam.modulus] for spec in needs}
            cut = {spec: _cut(full[spec], order) for spec, order in needs.items()}
            rep = verify_family(fam, cut, n_max)
            assert rep == dataclasses.replace(verify_family(fam, full, n_max),
                                              runtime_ms=rep.runtime_ms), fam.id
            for spec, order in needs.items():
                # one entry short; a table of no entries is no table
                short = {**cut, spec: _cut(cut[spec], order - 1)}
                if not order:
                    del short[spec]
                prefix = f"[family {fam.id}] reads {spec.describe()} to index {order};"
                with pytest.raises(ValueError, match=re.escape(prefix)):
                    verify_family(fam, short, n_max)


class TestThreeTerm:
    @staticmethod
    def _order16(relation_id, c1, c2, n_max):
        return CongruenceFamily(
            relation_id, "adhoc", 7, B37, AffineIndex("16", "5"),
            (Term(c1, 1, AffineIndex("1", "0")), Term(c2, 1, AffineIndex("4", "1"))),
            default_n_max=n_max,
        )

    def test_base_relation_order16(self):
        src = oracle.coeff_fast(B37, 16 * 300 + 5, 7)
        rep = verify_family(self._order16("w.11-adhoc", 5, 6, 300), {B37: src})
        assert rep.status == "pass"

    def test_direct_value_at_zero(self):
        # indices 364, 14, 0 straight from the oracle
        src = oracle.dp_counts(SourceSpec("bipartite", 5, 11), 364, modulus=11)
        assert (src[364] - (src[14] + 7 * src[0])) % 11 == 0

    def test_violation_detection(self):
        src = oracle.coeff_fast(B37, 16 * 50 + 5, 7)
        rep = verify_family(self._order16("broken", 5, 5, 50), {B37: src})
        assert rep.status == "fail"


class TestCatalog:
    def test_ids_unique(self):
        fams = build_families()
        assert len({f.id: None for f in fams}) == len(fams)

    def test_fast_families_have_bounded_tables(self):
        for fam in build_families():
            if fam.slow:
                continue
            needs = required_order(fam)
            assert max(needs.values(), default=0) <= 2_000_000, fam.id

    def test_slow_families_within_desk_cap(self):
        from qdissect.congruences import DESK_INDEX_CAP

        for fam in build_families():
            if not fam.slow:
                continue
            needs = required_order(fam)
            assert max(needs.values(), default=0) <= DESK_INDEX_CAP, fam.id
