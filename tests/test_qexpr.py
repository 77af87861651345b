"""Expression evaluation: atoms, composites, theta cross-checks, serialization."""

from __future__ import annotations

import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qdissect import qexpr, series
from qdissect.qexpr import (
    Const,
    Dilate,
    EtaF,
    Mul,
    Pochhammer,
    Pow,
    Q,
    Sum,
    Theta,
    eval_qexpr,
    parse_sexpr,
)
from qdissect.series import EXACT, CoeffRing, Series, eq_to_order
from conftest import brute_binomial, brute_mul, brute_pochhammer, theta_sum


class TestAtomValidation:
    def test_pochhammer_range(self):
        with pytest.raises(ValueError):
            Pochhammer(0, 5)
        with pytest.raises(ValueError):
            Pochhammer(6, 5)

    def test_q_nonnegative(self):
        with pytest.raises(ValueError):
            Q(-1)

    def test_theta_signs_and_weights(self):
        with pytest.raises(ValueError):
            Theta(2, 1, 1, 1)
        with pytest.raises(ValueError):
            Theta(1, 0, 1, 0)


class TestAtomEvaluation:
    def test_pentagonal_support(self):
        got = eval_qexpr(EtaF(1), EXACT, 15)
        assert got.coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1)

    def test_phi_squares(self):
        got = eval_qexpr(parse_sexpr("(phi 1)"), EXACT, 9)
        assert got.coeffs == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2)

    def test_psi_triangular(self):
        got = eval_qexpr(parse_sexpr("(psi 1)"), EXACT, 10)
        assert got.coeffs == (1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1)

    def test_pochhammer_matches_brute_product(self):
        for a, m in [(1, 1), (2, 5), (5, 25), (20, 25)]:
            got = eval_qexpr(Pochhammer(a, m), EXACT, 60)
            assert list(got.coeffs) == brute_pochhammer(a, m, 60)

    def test_eta_is_diagonal_pochhammer(self):
        assert eval_qexpr(EtaF(7), EXACT, 80) == eval_qexpr(Pochhammer(7, 7), EXACT, 80)

    def test_rr_quotient_brute_force(self):
        # multiply the four truncated factors directly, no engine involved
        n = 30
        num = brute_mul(brute_pochhammer(5, 25, n), brute_pochhammer(20, 25, n), n)
        den = brute_mul(brute_pochhammer(10, 25, n), brute_pochhammer(15, 25, n), n)
        got = eval_qexpr(parse_sexpr("S"), EXACT, n)
        # got * den == num  (avoids an independent inversion routine)
        prod = series.mul(got, series.Series(EXACT, den))
        assert prod == series.Series(EXACT, num)
        assert got[0] == 1

    def test_composites_constant_terms(self):
        for name in ("S", "u", "v"):
            assert eval_qexpr(parse_sexpr(name), EXACT, 40)[0] == 1


class TestThetaCrossChecks:
    # sum form vs product form = the triple-product identity, order 200
    @pytest.mark.parametrize(
        "theta",
        [Theta(1, 1, 1, 1), Theta(1, 1, 1, 3), Theta(-1, 1, -1, 2), Theta(1, 2, -1, 3)],
        ids=["phi", "psi", "euler", "mixed"],
    )
    def test_sum_equals_product(self, theta):
        prod = eval_qexpr(theta, EXACT, 200)
        summed = theta_sum(theta, EXACT, 200)
        assert eq_to_order(prod, summed, 200) == (True, None)

    @pytest.mark.parametrize("order", [2000, 4000])
    @pytest.mark.parametrize(
        "theta", [Theta(1, 1, 1, 1), Theta(1, 1, 1, 3), Theta(-1, 1, -1, 2)],
        ids=["phi", "psi", "euler"],
    )
    def test_sum_equals_product_at_high_order(self, theta, order):
        assert eval_qexpr(theta, EXACT, order) == theta_sum(theta, EXACT, order)

    @staticmethod
    def _factor_stream(monkeypatch, theta: Theta, order: int):
        """The factors that the triple product hands to ``binomial_product``."""
        streams = []
        monkeypatch.setattr(series, "binomial_product",
                            lambda ring, n, factors: streams.append(factors))
        qexpr._eval_theta_product(theta, EXACT, order)
        return streams[0]

    @pytest.mark.parametrize("theta", [
        Theta(1, 1, 1, 1), Theta(1, 1, 1, 3), Theta(-1, 1, -1, 2), Theta(1, 2, -1, 3),
        Theta(1, 0, 1, 1), Theta(-1, 0, 1, 3), Theta(1, 2, -1, 0), Theta(-1, 5, -1, 5),
    ])
    def test_interleaved_factors_are_the_runs_factors(self, monkeypatch, theta):
        # (-a;ab), (-b;ab) and (ab;ab), one run after another
        order, period, sab = 300, theta.ua + theta.ub, theta.sa * theta.sb
        runs = [(d, -theta.sa * sab**j) for j, d in enumerate(range(theta.ua, order + 1, period))]
        runs += [(d, -theta.sb * sab**j) for j, d in enumerate(range(theta.ub, order + 1, period))]
        runs += [(d, sab**j) for j, d in enumerate(range(period, order + 1, period), 1)]
        assert sorted(self._factor_stream(monkeypatch, theta, order)) == sorted(runs)

    def test_factor_stream_is_lazy_and_ordered_by_j(self, monkeypatch):
        stream = self._factor_stream(monkeypatch, Theta(1, 1, 1, 3), 10**6)  # psi
        assert iter(stream) is stream
        assert list(itertools.islice(stream, 6)) == [(1, -1), (3, -1), (4, 1),
                                                     (5, -1), (7, -1), (8, 1)]

    @pytest.mark.parametrize("theta,order", [
        (Theta(1, 1, 1, 1), 1000), (Theta(1, 1, 1, 3), 1000), (Theta(-1, 1, -1, 2), 1000),
        (Theta(1, 1, 1, 1), 2000),
    ], ids=["phi-1000", "psi-1000", "euler-1000", "phi-2000"])
    def test_partial_products_stay_in_int64(self, monkeypatch, theta, order):
        # interleaved, phi peaks at 23 bits at order 1000 and 35 at 2000; its
        # runs one after another reach 74 and 107
        factors = list(self._factor_stream(monkeypatch, theta, order))
        coeffs, peak = brute_binomial(order, factors)
        assert peak < series._INT64_SAFE
        assert Series(EXACT, coeffs) == theta_sum(theta, EXACT, order)

    def test_phi_psi_euler_specializations(self):
        n = 50
        for text, theta in (("(phi 1)", Theta(1, 1, 1, 1)), ("(psi 1)", Theta(1, 1, 1, 3))):
            assert theta_sum(theta, EXACT, n) == eval_qexpr(parse_sexpr(text), EXACT, n)
        assert theta_sum(Theta(-1, 1, -1, 2), EXACT, n) == eval_qexpr(EtaF(1), EXACT, n)


class TestCompositeEvaluation:
    def test_dilate_commutes_with_eval(self):
        expr = Mul((EtaF(1), Pow(EtaF(2), -1)))
        n = 40
        inner = eval_qexpr(expr, EXACT, n)
        outer = eval_qexpr(Dilate(expr, 3), EXACT, 3 * n)
        assert series.dilate(inner, 3) == outer

    def test_dilated_eta_is_rescaled_eta(self):
        assert eval_qexpr(Dilate(EtaF(1), 25), EXACT, 100) == eval_qexpr(
            EtaF(25), EXACT, 100
        )

    def test_ring_reduction_commutes(self):
        expr = Sum(((2, Mul((EtaF(1), Pow(EtaF(5), 2)))), (-3, Q(4))))
        for p in (3, 7, 13):
            exact = eval_qexpr(expr, EXACT, 120)
            assert series.reduce_mod(exact, p) == eval_qexpr(expr, CoeffRing(p), 120)

    def test_eta_support_is_pentagonal(self):
        for k in (1, 2, 5):
            got = eval_qexpr(EtaF(k), EXACT, 300)
            support = {}
            j = 1
            while True:
                g1, g2 = j * (3 * j - 1) // 2, j * (3 * j + 1) // 2
                if k * g1 > 300:
                    break
                sign = -1 if j % 2 else 1
                support[k * g1] = sign
                if k * g2 <= 300:
                    support[k * g2] = sign
                j += 1
            support[0] = 1
            for i, c in enumerate(got.coeffs):
                assert c == support.get(i, 0)

    @pytest.mark.parametrize("modulus", [0, 7])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_pentagonal_eta_matches_product_forms(self, k, modulus):
        # EtaF is summed by the pentagonal theorem, Pochhammer multiplied out
        # binomial by binomial; brute_pochhammer expands without the engine
        ring = CoeffRing(modulus) if modulus else EXACT
        order = 600
        got = eval_qexpr(EtaF(k), ring, order)
        assert got == Series(ring, brute_pochhammer(k, k, order))
        assert got == eval_qexpr(Pochhammer(k, k), ring, order)

    def test_negative_power_of_nonunit_rejected(self):
        from qdissect.series import NonUnitError

        with pytest.raises(NonUnitError):
            eval_qexpr(Pow(Sum(((2, Const(1)),)), -1), EXACT, 5)

    def test_s13_is_dilated_quotient(self):
        s = eval_qexpr(parse_sexpr("S"), EXACT, 20)
        s13 = eval_qexpr(parse_sexpr("S1"), EXACT, 260)
        assert series.dilate(s, 13) == s13


class TestSerialization:
    # the named atoms, written out from their definitions
    S = Mul((Pochhammer(5, 25), Pochhammer(20, 25),
             Pow(Pochhammer(10, 25), -1), Pow(Pochhammer(15, 25), -1)))
    NAMED = {
        "S": S,
        "S1": Dilate(S, 13),
        "u": Mul((EtaF(3), Pow(EtaF(18), 3), Pow(EtaF(6), -1), Pow(EtaF(9), -3))),
        "v": Mul((EtaF(1), Pow(EtaF(6), 3), Pow(EtaF(2), -1), Pow(EtaF(3), -3))),
    }

    CASES = [
        ("(const -3)", Const(-3)),
        ("(q 7)", Q(7)),
        ("(poch 5 25)", Pochhammer(5, 25)),
        ("(eta 12)", EtaF(12)),
        ("(phi 2)", Theta(1, 2, 1, 2)),
        ("(psi 3)", Theta(1, 3, 1, 9)),
        ("(theta -1 1 -1 2)", Theta(-1, 1, -1, 2)),
        ("(mul (eta 1) (pow (eta 5) -6) (q 2))", Mul((EtaF(1), Pow(EtaF(5), -6), Q(2)))),
        ("(sum (2 (eta 1)) (-11 (q 5)) (1 (pow S -5)))",
         Sum(((2, EtaF(1)), (-11, Q(5)), (1, Pow(S, -5))))),
        ("(dilate (mul (eta 2) (q 1)) 13)", Dilate(Mul((EtaF(2), Q(1))), 13)),
    ]

    # phi and psi parse to Theta nodes; their cases keep the shorthands' names
    IDS = [{"phi": "Phi", "psi": "Psi"}.get(t[1:4], type(e).__name__) for t, e in CASES]

    @pytest.mark.parametrize("text,expr", CASES, ids=IDS)
    def test_round_trip(self, text, expr):
        assert parse_sexpr(text) == expr

    def test_named_shorthands(self):
        for name, tree in self.NAMED.items():
            assert parse_sexpr(name) == tree
        assert parse_sexpr("(mul (eta 25) S)") == Mul((EtaF(25), self.S))

    def test_parse_errors(self):
        for bad in ["", "(mul)", "(q x)", "(pow (eta 1))", "(eta 1) junk", "(what 1)",
                    "(mul (eta 1)", "(sum (1 (eta 1))", "(sum", "(", "(mul " * 5000,
                    "(eta 1_0)", "(eta +3)", "(eta \u0663)", "(q \uff15)"]:
            with pytest.raises(ValueError):
                parse_sexpr(bad)

    def test_readme_grammar_names_the_parser_heads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (grammar,) = re.findall(r"^expr := (.*?)\n```", readme, re.M | re.S)
        alternatives = [alt.strip() for alt in grammar.split("|")]
        heads = {alt[1:].split()[0] for alt in alternatives if alt.startswith("(")}
        assert heads == set(qexpr._HEADS) | {"mul", "sum"}
        assert {alt for alt in alternatives if not alt.startswith("(")} == set(qexpr._NAMED)


@settings(derandomize=True, max_examples=25)
@given(
    k=st.integers(min_value=1, max_value=6),
    e=st.integers(min_value=-3, max_value=4),
    c=st.integers(min_value=-5, max_value=5),
)
def test_eval_respects_reduction_random(k, e, c):
    expr = Sum(((1, Pow(EtaF(k), e)), (c, Q(2))))
    exact = eval_qexpr(expr, EXACT, 48)
    for p in (5, 11):
        assert series.reduce_mod(exact, p) == eval_qexpr(expr, CoeffRing(p), 48)
