"""Identity catalog and chain replay: coverage, outcomes, and replay semantics."""

from __future__ import annotations

import dataclasses
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from qdissect import identities
from qdissect.congruences import CongruenceFamily
from qdissect.identities import (
    Extract,
    IdentityCase,
    Mismatch,
    ProofChain,
    Stage,
    VerificationError,
    replay,
    verify,
)
from qdissect.qexpr import Const, EtaF, Mul, Pow, Q, Sum
from qdissect.registry import catalog_text, parse_registry, registry
from qdissect.series import PrecisionError


@pytest.fixture(scope="module")
def reg():
    return registry()


CASES = {c.id: c for c in registry().cases}
CHAINS = {c.id: c for c in registry().chains}


class TestCatalogShape:
    def test_minimum_counts(self, reg):
        assert len(reg.cases) >= 14
        assert len(reg.chains) >= 6

    def test_unique_ids(self, reg):
        ids = [c.id for c in reg.cases]
        assert len(ids) == len(set(ids))
        cids = [c.id for c in reg.chains]
        assert len(cids) == len(set(cids))

    def test_lookup(self):
        case = CASES["0.2"]
        assert case.section == "s2"
        assert case.default_order == 400

    def test_chain_citations_name_catalog_identities(self, reg):
        ids = {c.id for c in reg.cases}
        cited = [
            (chain.id, identity_id)
            for chain in reg.chains
            for stage in chain.stages
            for identity_id in stage.justified_by
        ]
        assert cited
        assert [c for c in cited if c[1] not in ids] == []

    def test_every_section_has_a_chain(self, reg):
        for section in ("s3", "s4", "s5", "s6", "s7", "s8"):
            assert [c for c in reg.chains if c.section == section], section

    def test_s3_stage_count(self, reg):
        stages = [
            stage.id
            for chain in (c for c in reg.chains if c.section == "s3")
            for stage in chain.stages
        ]
        assert len(stages) >= 11


class TestVerify:
    def test_reflexive(self):
        case = IdentityCase("self", "t", EtaF(1), EtaF(1), default_order=50)
        assert verify(case).status == "pass"

    def test_reports_first_mismatch(self):
        case = IdentityCase(
            "off-by-q5", "t",
            EtaF(1),
            Sum(((1, EtaF(1)), (1, Q(5)))),
            default_order=30,
        )
        rep = verify(case)
        assert rep.status == "fail"
        assert rep.first_mismatch.exponent == 5

    def test_record_expectation_becomes_erratum(self):
        case = IdentityCase(
            "probe", "t", EtaF(1), EtaF(2), default_order=10, expect="record"
        )
        rep = verify(case)
        assert rep.status == "erratum"

    def test_order_override(self):
        case = IdentityCase("short", "t", EtaF(1), EtaF(1), default_order=400)
        assert verify(case, order=16).order == 16

    def test_error_carries_case_id(self):
        bad = IdentityCase("inv-fail", "t", Pow(Const(2), -1), EtaF(1), default_order=5)
        with pytest.raises(Exception, match="inv-fail"):
            verify(bad)

    def test_error_with_other_constructor_keeps_its_cause(self, monkeypatch):
        # re-raising as type(exc)(msg) fails for this constructor with a TypeError
        class CodedError(Exception):
            def __init__(self, code, reason):
                super().__init__(code, reason)

        def failing_eval(*args):
            raise CodedError(7, "bad atom")

        monkeypatch.setattr(identities, "eval_qexpr", failing_eval)
        case = IdentityCase("coded", "t", EtaF(1), EtaF(1), default_order=5)
        with pytest.raises(VerificationError, match=r"^\[case coded\] CodedError") as info:
            verify(case)
        assert isinstance(info.value.__cause__, CodedError)
        chain = ProofChain("coded-chain", "t", EtaF(1), (Stage("st", EtaF(1)),), base_order=5)
        with pytest.raises(VerificationError, match=r"^\[chain coded-chain\] start: ") as info:
            replay(chain)
        assert isinstance(info.value.__cause__, CodedError)

    def test_exact_over_z_at_large_order(self):
        case = IdentityCase("big", "t", EtaF(1), EtaF(1), default_order=620)
        rep = verify(case)
        assert rep.status == "pass"
        assert "prime" not in rep.detail

    def test_exact_large_order_catches_mismatch(self):
        case = IdentityCase(
            "big-bad", "t", EtaF(1),
            Sum(((1, EtaF(1)), (1, Q(610)))), default_order=620,
        )
        rep = verify(case)
        assert rep.status == "fail"
        assert rep.first_mismatch == Mismatch(610, 1, 2)

    def test_exact_large_order_reports_integer_coefficients(self):
        # f_1 has coefficient -1 at the pentagonal number 651 = 21*62/2
        case = IdentityCase(
            "big-neg", "t", EtaF(1),
            Sum(((1, EtaF(1)), (1, Q(651)))), default_order=700,
        )
        assert verify(case).first_mismatch == Mismatch(651, -1, 0)


class TestCatalogOutcomes:
    def test_all_cases_pass_at_default_order(self, reg):
        failures = []
        for case in reg.cases:
            rep = verify(case)
            if rep.status == "fail":
                failures.append((case.id, rep.first_mismatch))
        assert not failures, f"potential erratum candidates: {failures}"

    def test_flagged_cubic_entry_verifies(self):
        # the flagged entry is run and its outcome recorded; numerically it holds
        rep = verify(CASES["7.3"])
        assert rep.status == "pass"

    def test_mode_soundness_exact_cases_reduce(self):
        # an exact identity must keep holding after reduction mod any modulus
        for cid in ("0.2", "kp2", "e2"):
            case = CASES[cid]
            for p in (3, 7, 11, 13, 17):
                reduced = dataclasses.replace(case, modulus=p, default_order=200)
                assert verify(reduced).status == "pass", (cid, p)


class TestReplay:
    def test_zero_step_chain(self):
        chain = ProofChain(
            "noop", "t", EtaF(1), (Stage("only", EtaF(1)),), base_order=64
        )
        rep = replay(chain)
        assert rep.status == rep.stages[0].status == "pass"

    def test_chain_reports_all_stages(self):
        rep = replay(CHAINS["s8"])
        assert [s.stage for s in rep.stages] == [
            "5.2", "5.3", "5.4", "5.5", "5.6", "5.7", "5.7-mod11",
        ]
        assert rep.status == "pass"

    def test_extract_tracks_lattice(self):
        # extraction keeps the q^s lattice until the relabeling move
        chain = ProofChain(
            "lattice", "t",
            EtaF(1),
            (Stage("on-lattice", _even_part_of_f1_odd(), moves=(Extract(1, 2),)),),
            base_order=128,
        )
        rep = replay(chain)
        assert rep.stages[0].status == "pass"

    def test_precision_error_when_order_too_small(self):
        with pytest.raises(PrecisionError):
            replay(CHAINS["s4"], order=60)

    def test_mismatch_localizes(self):
        # a wrong middle stage is reported once; later stages check against it
        chain = ProofChain(
            "local", "t",
            EtaF(1),
            (
                Stage("wrong", EtaF(2)),
                Stage("follows-claimed", EtaF(2)),
            ),
            base_order=32,
        )
        rep = replay(chain)
        assert rep.stages[0].status == "fail"
        assert rep.stages[1].status == "pass"
        assert rep.status == "fail"

    def test_chain_needs_stages_with_distinct_ids(self):
        # a chain that checks nothing, or names two stages alike, cannot be built
        with pytest.raises(ValueError, match="chain empty needs one or more stages"):
            ProofChain("empty", "t", EtaF(1), ())
        with pytest.raises(ValueError, match="chain twice needs .*'a', 'a'"):
            ProofChain("twice", "t", EtaF(1), (Stage("a", EtaF(1)), Stage("a", EtaF(2))))

    def test_reduce_mod_midchain(self):
        rep = replay(CHAINS["s8"])
        final = rep.stages[-1]
        assert final.stage == "5.7-mod11" and final.status == "pass"


class TestChainOutcomes:
    @pytest.mark.parametrize("chain_id", [c.id for c in registry().chains])
    def test_chain_stages(self, reg, chain_id):
        chain = CHAINS[chain_id]
        rep = replay(chain)
        for stage in rep.stages:
            assert stage.status in ("pass", "erratum"), (
                chain_id, stage.stage, stage.first_mismatch)
            assert stage.surviving >= 200

    def test_known_erratum_candidate(self):
        rep = replay(CHAINS["s7cor.odd"])
        stage = rep.stages[0]
        assert rep.status == stage.status == "erratum"
        assert stage.first_mismatch.exponent == 2
        corrected = replay(CHAINS["s7cor.odd.alt"])
        assert corrected.stages[0].status == "pass"

    def test_modular_erratum_report_is_plain_json(self):
        # mod 17 the coefficients are int64 residues; the report holds ints
        rep = replay(CHAINS["s7cor.odd"], 2048)
        mismatch = rep.stages[0].first_mismatch
        assert rep.modulus == 17 and mismatch is not None
        assert all(type(v) is int for v in (mismatch.exponent, mismatch.lhs, mismatch.rhs))
        row = json.loads(json.dumps(dataclasses.asdict(rep)))
        assert row["stages"][0]["first_mismatch"] == dataclasses.asdict(mismatch)

    def test_stage_independence(self):
        # restarting from an asserted stage reproduces the remaining stages
        chain = CHAINS["s3"]
        full = replay(chain)
        stages = chain.stages
        idx = next(i for i, s in enumerate(stages) if s.id == "w.6")
        tail = ProofChain(
            "s3-from-w6", "t", stages[idx].expr, stages[idx + 1 :],
            modulus=chain.modulus, base_order=chain.base_order,
        )
        partial = replay(tail)
        full_tail = [s for s in full.stages if s.stage in
                     {t.stage for t in partial.stages}]
        assert [s.stage for s in partial.stages] == [s.stage for s in full_tail]
        assert all(s.status == "pass" for s in partial.stages)


class TestTextRegistry:
    def test_dump_parse_round_trip(self, reg):
        # each identity line of the shipped text parses to the catalog's case
        lines = [l for l in catalog_text().splitlines()
                 if "|" in l and not l.startswith(("#", "chain ", "family "))]
        assert [l.split("|")[0] for l in lines] == [c.id for c in reg.cases]
        for line, orig in zip(lines, reg.cases):
            (back,) = parse_registry(line).cases
            assert back.lhs == orig.lhs and back.rhs == orig.rhs
            assert back.modulus == orig.modulus
            assert back.default_order == orig.default_order

    def test_parsed_cases_verify(self):
        text = "ex1|exact|50|(eta 1)|(theta -1 1 -1 2)\nex2|mod7|60|(eta 7)|(pow (eta 1) 7)\n"
        cases = parse_registry(text).cases
        assert [verify(c).status for c in cases] == ["pass", "pass"]

    def test_malformed_lines_rejected(self):
        with pytest.raises(ValueError):
            parse_registry("too|few|fields\n")
        with pytest.raises(ValueError):
            parse_registry("id|weird|10|(eta 1)|(eta 1)\n")

    @pytest.mark.parametrize(
        "line",
        ["x|mod0|10|(eta 1)|(eta 1)", "x|mod1|10|(eta 1)|(eta 1)",
         "x|modx|10|(eta 1)|(eta 1)", "x|exact|10|(eta 1)",
         "x|exact|0|(eta 1)|(eta 1)", "x|exact|ten|(eta 1)|(eta 1)",
         "|exact|10|(eta 1)|(eta 1)", "x|exact|10|(mul (eta 1)|(eta 1)",
         "x|exact|10|(sum (1 (eta 1))|(eta 1)"],
    )
    def test_bad_line_names_its_number(self, line):
        with pytest.raises(ValueError, match=r"^line 3: "):
            parse_registry("# header\n\n" + line + "\n")

    def test_duplicate_ids_rejected(self, reg):
        line = "x|exact|10|(eta 1)|(eta 1)\n"
        with pytest.raises(ValueError, match="line 2: .*'x'"):
            parse_registry(line + line)
        with pytest.raises(ValueError, match="line 2: .*'0.2'"):
            parse_registry(catalog_text(), taken=reg)


_REGISTRY_TOKENS = ["|", "(", ")", " ", "\n", "#", "exact", "mod", "mod7", "mod1",
                    "0", "1", "-2", "x", "eta", "mul", "sum", "pow", "q", "theta",
                    "poch", "const", "dilate", "S", "u",
                    "chain ", "family ", "sub", "extract", "reduce", "assert", "record",
                    "=", "section=", "expect=", "note=", "pass", "ref=", "m=", "k=",
                    "n_max=", "slow=", "true", ",", "zero", "recur", "three",
                    "regular", "bipartite", "m", "k", "**", "*", "/", "+", "-"]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.text() | st.lists(st.sampled_from(_REGISTRY_TOKENS), max_size=40).map("".join))
def test_parse_cases_returns_cases_or_value_error(text):
    try:
        reg = parse_registry(text)
    except ValueError as exc:
        assert re.match(r"line [0-9]+: ", str(exc)), exc
        return
    assert all(isinstance(c, IdentityCase) for c in reg.cases)
    assert all(isinstance(c, ProofChain) for c in reg.chains)
    assert all(isinstance(f, CongruenceFamily) for f in reg.families)


def _even_part_of_f1_odd():
    """Independently built q^2-lattice form of the odd part of the Euler product."""
    from qdissect.qexpr import Dilate

    # odd-exponent pentagonal terms of f_1, divided by q, on the q^2 lattice:
    # exponents 1, 5, 7, 15, 35, 57, ... -> (g-1)/2 doubled back
    terms = []
    k = 1
    while True:
        added = False
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= 128 and g % 2 == 1:
                terms.append((-1 if k % 2 else 1, Q(g - 1)))
                added = True
        if not added and k * (3 * k - 1) // 2 > 128:
            break
        k += 1
    return Sum(tuple(terms))
