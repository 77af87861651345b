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
infinite product ``(q^a; q^m)``, ``EtaF(k)`` for ``f_k = (q^k; q^k)``,
``Phi(k)`` / ``Psi(k)`` for the classical theta series in ``q^k``, and
``Theta(sa, ua, sb, ub)`` for the two-variable theta ``f(sa*q^ua, sb*q^ub)``.
Composite nodes are ``Mul``, ``Pow``, ``Sum`` (integer-weighted terms) and
``Dilate`` (``q -> q^k``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable

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
class Phi(QExpr):
    """``phi(q^k) = 1 + 2*sum q^(k*n^2)``."""

    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("Phi index must be positive")


@dataclass(frozen=True)
class Psi(QExpr):
    """``psi(q^k) = sum q^(k*n(n+1)/2)``."""

    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("Psi index must be positive")


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
# named composites
# ---------------------------------------------------------------------------

def rr_quotient() -> QExpr:
    """The Rogers-Ramanujan quotient with integer exponents:
    ``(q^5;q^25)(q^20;q^25) / ((q^10;q^25)(q^15;q^25))``."""
    return Mul(
        (
            Pochhammer(5, 25),
            Pochhammer(20, 25),
            Pow(Pochhammer(10, 25), -1),
            Pow(Pochhammer(15, 25), -1),
        )
    )


def rr_quotient_13() -> QExpr:
    """The Rogers-Ramanujan quotient with ``q`` replaced by ``q^13``."""
    return Dilate(rr_quotient(), 13)


def cubic_u() -> QExpr:
    """Cubic continued-fraction quotient ``f3*f18^3 / (f6*f9^3)`` (a series in q^3)."""
    return Mul((EtaF(3), Pow(EtaF(18), 3), Pow(EtaF(6), -1), Pow(EtaF(9), -3)))


def cubic_v() -> QExpr:
    """Cubic continued-fraction quotient ``f1*f6^3 / (f2*f3^3)``."""
    return Mul((EtaF(1), Pow(EtaF(6), 3), Pow(EtaF(2), -1), Pow(EtaF(3), -3)))


def eta_quotient(powers: dict[int, int]) -> QExpr:
    """Product ``prod f_k^e`` from a ``{k: e}`` mapping (e may be negative)."""
    factors: list[QExpr] = []
    for k in sorted(powers):
        e = powers[k]
        if e == 0:
            continue
        factors.append(EtaF(k) if e == 1 else Pow(EtaF(k), e))
    if not factors:
        return Const(1)
    return factors[0] if len(factors) == 1 else Mul(tuple(factors))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

_MEMO: dict[tuple[QExpr, CoeffRing, int], Series] = {}
_MEMO_LOCK = threading.Lock()


def clear_cache() -> None:
    with _MEMO_LOCK:
        _MEMO.clear()


def _binomial_product(ring: CoeffRing, order: int, factors: Iterable[tuple[int, int]]) -> Series:
    """Product of binomials ``(1 - s*q^d)`` for (d, s) pairs with d >= 1."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    mod = ring.modulus
    for d, s in factors:
        if d > order:
            continue
        for n in range(order, d - 1, -1):
            v = coeffs[n] - s * coeffs[n - d]
            coeffs[n] = v % mod if mod else v
    return Series(ring, coeffs)


def _poch_factors(a: int, m: int, sign: int, order: int):
    """Binomial factors of ``prod_j (1 - sign*q^(a + j*m))`` up to the order."""
    d = a
    while d <= order:
        yield d, sign
        d += m


def _eval_theta_product(node: Theta, ring: CoeffRing, order: int) -> Series:
    """Triple-product evaluation of ``f(a, b) = (-a;ab)(-b;ab)(ab;ab)``.

    With ``a = sa*q^ua`` and ``b = sb*q^ub`` the j-th factors carry the sign
    ``(sa*sb)^j``, so all three products alternate when ``sa*sb = -1``.
    """
    period = node.ua + node.ub
    sab = node.sa * node.sb
    factors = []
    for start, s0 in ((node.ua, node.sa), (node.ub, node.sb)):
        j = 0
        while start + j * period <= order:
            factors.append((start + j * period, -s0 * sab**j))
            j += 1
    j = 1
    while j * period <= order:
        factors.append((j * period, sab**j))
        j += 1
    return _binomial_product(ring, order, factors)


def theta_sum(node: Theta, ring: CoeffRing, order: int) -> Series:
    """Bilateral-sum evaluation ``sum_n a^(n(n+1)/2) * b^(n(n-1)/2)``.

    Independent of the product form; the two must agree (triple product).
    """
    coeffs = [0] * (order + 1)
    n = 0
    while True:
        hit = False
        for m in ((n, n * (n + 1) // 2, n * (n - 1) // 2),) if n == 0 else (
            (n, n * (n + 1) // 2, n * (n - 1) // 2),
            (-n, n * (n - 1) // 2, n * (n + 1) // 2),
        ):
            _, ta, tb = m
            e = node.ua * ta + node.ub * tb
            if e <= order:
                hit = True
                coeffs[e] += node.sa**ta * node.sb**tb
        if not hit and n > 0:
            break
        n += 1
    return Series(ring, coeffs)


def eval_qexpr(expr: QExpr, ring: CoeffRing, order: int) -> Series:
    """Evaluate ``expr`` to a series of the given order (bottom-up, memoized)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    key = (expr, ring, order)
    with _MEMO_LOCK:
        cached = _MEMO.get(key)
    if cached is not None:
        return cached

    if isinstance(expr, Const):
        result = series.scalar_mul(expr.value, series.one(ring, order))
    elif isinstance(expr, Q):
        result = series.monomial(ring, order, expr.exponent)
    elif isinstance(expr, Pochhammer):
        result = _binomial_product(ring, order, _poch_factors(expr.a, expr.m, 1, order))
    elif isinstance(expr, EtaF):
        result = eval_qexpr(Pochhammer(expr.k, expr.k), ring, order)
    elif isinstance(expr, Phi):
        # phi(q^k) = f(q^k, q^k) = (-q^k; q^2k)^2 (q^2k; q^2k)
        result = _eval_theta_product(Theta(1, expr.k, 1, expr.k), ring, order)
    elif isinstance(expr, Psi):
        # psi(q^k) = f(q^k, q^3k) = (-q^k; q^4k)(-q^3k; q^4k)(q^4k; q^4k)
        result = _eval_theta_product(Theta(1, expr.k, 1, 3 * expr.k), ring, order)
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
        inner = eval_qexpr(expr.child, ring, order // expr.k)
        dil = series.dilate(inner, expr.k)
        coeffs = list(dil.coeffs) + [0] * (order - dil.order)
        result = Series(ring, coeffs[: order + 1])
    else:  # pragma: no cover
        raise TypeError(f"unknown QExpr node {type(expr).__name__}")

    with _MEMO_LOCK:
        _MEMO[key] = result
    return result


# ---------------------------------------------------------------------------
# plain-text serialization (prefix notation)
# ---------------------------------------------------------------------------
#
# expr := (const INT) | (q INT) | (poch INT INT) | (eta INT) | (phi INT)
#       | (psi INT) | (theta INT INT INT INT) | (mul expr+) | (pow expr INT)
#       | (dilate expr INT) | (sum (INT expr)+) | S | S1 | u | v

_NAMED = {
    "S": rr_quotient,
    "S1": rr_quotient_13,
    "u": cubic_u,
    "v": cubic_v,
}


def to_sexpr(expr: QExpr) -> str:
    """Serialize an expression tree to prefix notation."""
    if isinstance(expr, Const):
        return f"(const {expr.value})"
    if isinstance(expr, Q):
        return f"(q {expr.exponent})"
    if isinstance(expr, Pochhammer):
        return f"(poch {expr.a} {expr.m})"
    if isinstance(expr, EtaF):
        return f"(eta {expr.k})"
    if isinstance(expr, Phi):
        return f"(phi {expr.k})"
    if isinstance(expr, Psi):
        return f"(psi {expr.k})"
    if isinstance(expr, Theta):
        return f"(theta {expr.sa} {expr.ua} {expr.sb} {expr.ub})"
    if isinstance(expr, Mul):
        return "(mul " + " ".join(to_sexpr(f) for f in expr.factors) + ")"
    if isinstance(expr, Pow):
        return f"(pow {to_sexpr(expr.base)} {expr.exponent})"
    if isinstance(expr, Sum):
        inner = " ".join(f"({c} {to_sexpr(t)})" for c, t in expr.terms)
        return f"(sum {inner})"
    if isinstance(expr, Dilate):
        return f"(dilate {to_sexpr(expr.child)} {expr.k})"
    raise TypeError(f"unknown QExpr node {type(expr).__name__}")


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_sexpr(text: str) -> QExpr:
    """Parse the prefix notation produced by :func:`to_sexpr`.

    The shorthand atoms ``S``, ``S1``, ``u``, ``v`` expand to the named
    composite quotients.
    """
    tokens = _tokenize(text)
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
        try:
            return int(tok)
        except ValueError:
            fail(f"expected integer, got {tok!r}")

    def parse_expr() -> QExpr:
        nonlocal pos
        tok = next_tok()
        if tok != "(":
            if tok in _NAMED:
                return _NAMED[tok]()
            fail(f"expected '(' or named atom, got {tok!r}")
        head = next_tok()
        if head == "const":
            node: QExpr = Const(parse_int())
        elif head == "q":
            node = Q(parse_int())
        elif head == "poch":
            node = Pochhammer(parse_int(), parse_int())
        elif head == "eta":
            node = EtaF(parse_int())
        elif head == "phi":
            node = Phi(parse_int())
        elif head == "psi":
            node = Psi(parse_int())
        elif head == "theta":
            node = Theta(parse_int(), parse_int(), parse_int(), parse_int())
        elif head == "mul":
            factors = []
            while peek() != ")":
                factors.append(parse_expr())
            node = Mul(tuple(factors))
        elif head == "pow":
            base = parse_expr()
            node = Pow(base, parse_int())
        elif head == "dilate":
            child = parse_expr()
            node = Dilate(child, parse_int())
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
