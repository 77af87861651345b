"""Expression language for eta-quotient and theta-function building blocks.

Expression trees are immutable and hashable; :func:`eval_qexpr` turns a tree
into a :class:`~qdissect.series.Series` at an explicit truncation order, with
memoization keyed on ``(expression, ring, order)``.  No rewriting or
simplification is ever applied: an expression is evaluated exactly as stated,
so transcription errors in a catalog entry surface as coefficient mismatches
instead of being silently repaired.

Atoms
-----
``Const(c)``, ``Q(e)`` for the monomial ``q^e``, ``Pochhammer(a, m)`` for the
infinite product ``(q^a; q^m)``, ``EtaF(k)`` for ``f_k = (q^k; q^k)``, and
``Theta(sa, ua, sb, ub)`` for the two-variable theta ``f(sa*q^ua, sb*q^ub)``.
The classical theta series phi(q^k) and psi(q^k), written ``(phi k)`` and
``(psi k)``, parse to ``Theta(1, k, 1, k)`` and ``Theta(1, k, 1, 3k)``.
Composite nodes are ``Mul``, ``Pow``, ``Sum`` (integer-weighted terms) and
``Dilate`` (``q -> q^k``).
The parser reads every head but the variadic ``mul`` and ``sum`` from one
table, ``_HEADS``; ``README.md`` gives the grammar.  The named atoms ``S``,
``S1``, ``u`` and ``v`` are composites of these nodes, and
``parse_sexpr("S")`` is the way to get one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import series
from .series import CoeffRing, Series


class QExpr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(QExpr):
    value: int


@dataclass(frozen=True)
class Q(QExpr):
    """The monomial ``q^exponent`` with ``exponent >= 0``."""

    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("Q exponent must be >= 0 (no Laurent tails)")


@dataclass(frozen=True)
class Pochhammer(QExpr):
    """``(q^a; q^m)`` with ``1 <= a <= m``."""

    a: int
    m: int

    def __post_init__(self):
        if not 1 <= self.a <= self.m:
            raise ValueError(f"Pochhammer needs 1 <= a <= m, got ({self.a}, {self.m})")


@dataclass(frozen=True)
class EtaF(QExpr):
    """``f_k = (q^k; q^k)``, the basic eta-type factor."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("EtaF index must be positive")


@dataclass(frozen=True)
class Theta(QExpr):
    """``f(sa*q^ua, sb*q^ub)`` with ``sa, sb`` in {+1, -1} and ``ua + ub >= 1``."""

    sa: int
    ua: int
    sb: int
    ub: int

    def __post_init__(self):
        if self.sa not in (1, -1) or self.sb not in (1, -1):
            raise ValueError("Theta signs must be +1 or -1")
        if self.ua < 0 or self.ub < 0 or self.ua + self.ub < 1:
            raise ValueError("Theta needs ua, ub >= 0 and ua + ub >= 1")


@dataclass(frozen=True)
class Mul(QExpr):
    factors: tuple[QExpr, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("Mul needs at least one factor")


@dataclass(frozen=True)
class Pow(QExpr):
    base: QExpr
    exponent: int


@dataclass(frozen=True)
class Sum(QExpr):
    """Integer-weighted sum ``sum c_i * t_i``."""

    terms: tuple[tuple[int, QExpr], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("Sum needs at least one term")


@dataclass(frozen=True)
class Dilate(QExpr):
    """Replace ``q`` by ``q^k`` in the child expression."""

    child: QExpr
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("Dilate factor must be positive")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

_MEMO: dict[tuple[QExpr, CoeffRing, int], Series] = {}


def _pentagonal(ring: CoeffRing, order: int, k: int) -> Series:
    """``f_k`` by Euler's pentagonal theorem,
    ``sum_n (-1)^n q^(k*n(3n-1)/2)`` over all integers ``n``: O(sqrt(N)) terms.

    ``Pochhammer`` and ``Theta`` keep the product form, so a
    catalog case equating ``f_k`` with one of them compares two routes.
    """
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    n = 1
    while k * n * (3 * n - 1) // 2 <= order:
        for e in (k * n * (3 * n - 1) // 2, k * n * (3 * n + 1) // 2):
            if e <= order:
                coeffs[e] = -1 if n & 1 else 1
        n += 1
    return Series(ring, coeffs)


def _eval_theta_product(node: Theta, ring: CoeffRing, order: int) -> Series:
    """Triple-product evaluation of ``f(a, b) = (-a;ab)(-b;ab)(ab;ab)``.

    With ``a = sa*q^ua`` and ``b = sb*q^ub`` and ``p = ua + ub``, the j-th
    factors, j >= 0, are ``1 + sa*(sa*sb)^j q^(ua+jp)``, ``1 + sb*(sa*sb)^j
    q^(ub+jp)`` and ``1 - (sa*sb)^(j+1) q^((j+1)p)``, so all three products
    alternate when ``sa*sb = -1``.

    The three runs are interleaved, the j-th factor of each taken together in
    order of j.  Each partial product is then a truncated triple product,
    close to the theta series itself, and its coefficients stay small: at
    order 1000 phi peaks at 23 bits, against 74 when one run is exhausted
    before the next starts, and at order 4000 at 51 bits against 155.  So
    the exact product stays within int64 (see ``binomial_product``).  The
    factors are generated lazily, so no list of O(order) is built.
    """
    period = node.ua + node.ub
    sab = node.sa * node.sb
    runs = ((node.ua, -node.sa), (node.ub, -node.sb), (period, sab))
    factors = ((start + j * period, s * sab**j) for j in range(order // period + 1)
               for start, s in runs if start + j * period <= order)
    return series.binomial_product(ring, order, factors)


def eval_qexpr(expr: QExpr, ring: CoeffRing, order: int) -> Series:
    """Evaluate ``expr`` to a series of the given order (bottom-up, memoized)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    key = (expr, ring, order)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached

    if isinstance(expr, Const):
        result = series.monomial(ring, order, 0, expr.value)
    elif isinstance(expr, Q):
        result = series.monomial(ring, order, expr.exponent)
    elif isinstance(expr, Pochhammer):
        factors = ((d, 1) for d in range(expr.a, order + 1, expr.m))
        result = series.binomial_product(ring, order, factors)
    elif isinstance(expr, EtaF):
        result = _pentagonal(ring, order, expr.k)
    elif isinstance(expr, Theta):
        result = _eval_theta_product(expr, ring, order)
    elif isinstance(expr, Mul):
        result = eval_qexpr(expr.factors[0], ring, order)
        for f in expr.factors[1:]:
            result = series.mul(result, eval_qexpr(f, ring, order))
    elif isinstance(expr, Pow):
        result = series.pow_(eval_qexpr(expr.base, ring, order), expr.exponent)
    elif isinstance(expr, Sum):
        result = series.zero(ring, order)
        for c, t in expr.terms:
            result = series.add(result, series.scalar_mul(c, eval_qexpr(t, ring, order)))
    elif isinstance(expr, Dilate):
        result = series.dilate(eval_qexpr(expr.child, ring, order // expr.k), expr.k, order)
    else:  # pragma: no cover
        raise TypeError(f"unknown QExpr node {type(expr).__name__}")

    _MEMO[key] = result
    return result


# ---------------------------------------------------------------------------
# parsing the plain-text prefix notation
# ---------------------------------------------------------------------------

# head -> (node constructor, argument kinds in order: "i" integer, "e" expression)
_HEADS = {
    "const": (Const, "i"),
    "q": (Q, "i"),
    "poch": (Pochhammer, "ii"),
    "eta": (EtaF, "i"),
    # phi(q^k) = f(q^k, q^k) = (-q^k; q^2k)^2 (q^2k; q^2k)
    "phi": (lambda k: Theta(1, k, 1, k), "i"),
    # psi(q^k) = f(q^k, q^3k) = (-q^k; q^4k)(-q^3k; q^4k)(q^4k; q^4k)
    "psi": (lambda k: Theta(1, k, 1, 3 * k), "i"),
    "theta": (Theta, "iiii"),
    "pow": (Pow, "ei"),
    "dilate": (Dilate, "ei"),
}

# An integer anywhere in the text format: no "+3", "1_0" or non-ASCII digits
_INT = re.compile(r"-?[0-9]+")

# The named atoms: the Rogers-Ramanujan quotient S = (q^5;q^25)(q^20;q^25) /
# ((q^10;q^25)(q^15;q^25)), S1 = S at q -> q^13, and the cubic continued-fraction
# quotients u = f3*f18^3 / (f6*f9^3) (a series in q^3) and v = f1*f6^3 / (f2*f3^3).
_S = Mul((Pochhammer(5, 25), Pochhammer(20, 25),
          Pow(Pochhammer(10, 25), -1), Pow(Pochhammer(15, 25), -1)))
_NAMED = {"S": _S, "S1": Dilate(_S, 13),
          "u": Mul((EtaF(3), Pow(EtaF(18), 3), Pow(EtaF(6), -1), Pow(EtaF(9), -3))),
          "v": Mul((EtaF(1), Pow(EtaF(6), 3), Pow(EtaF(2), -1), Pow(EtaF(3), -3)))}


def parse_sexpr(text: str) -> QExpr:
    """Parse an expression in the prefix notation of ``README.md``; the named
    atoms ``S``, ``S1``, ``u`` and ``v`` stand for the trees of ``_NAMED``."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def fail(msg: str):
        raise ValueError(f"parse error at token {pos}: {msg} in {text!r}")

    def peek() -> str:
        if pos >= len(tokens):
            fail("unexpected end of input")
        return tokens[pos]

    def next_tok() -> str:
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_int() -> int:
        tok = next_tok()
        if not _INT.fullmatch(tok):
            fail(f"expected integer, got {tok!r}")
        return int(tok)

    def parse_expr() -> QExpr:
        nonlocal pos
        tok = next_tok()
        if tok != "(":
            if tok in _NAMED:
                return _NAMED[tok]
            fail(f"expected '(' or named atom, got {tok!r}")
        head = next_tok()
        if head in _HEADS:
            make, kinds = _HEADS[head]
            node: QExpr = make(*[parse_int() if kind == "i" else parse_expr() for kind in kinds])
        elif head == "mul":
            factors = []
            while peek() != ")":
                factors.append(parse_expr())
            node = Mul(tuple(factors))
        elif head == "sum":
            terms = []
            while peek() != ")":
                if next_tok() != "(":
                    fail("expected '(' opening a sum term")
                coeff = parse_int()
                term = parse_expr()
                if next_tok() != ")":
                    fail("expected ')' closing a sum term")
                terms.append((coeff, term))
            node = Sum(tuple(terms))
        else:
            fail(f"unknown head {head!r}")
        if next_tok() != ")":
            fail("expected ')'")
        return node

    try:
        result = parse_expr()
    except RecursionError:
        fail("expression nested too deeply")
    if pos != len(tokens):
        fail("trailing tokens")
    return result
