"""Theorem-level congruence families and the order-2 recurrence constants.

A :class:`CongruenceFamily` states that, on an affine progression of indices,
a coefficient stream is congruent to a sum of weighted reads: each
:class:`Term` is ``coeff * base^m`` times the coefficient at another index of
the same or another stream.  No terms states that the stream vanishes.
Verification walks the progression against one oracle table per stream read,
each covering :func:`required_order`; it counts every violation and lists the
first eight.  Instances whose largest index exceeds the desk-scale cap are
reported as skipped, never silently dropped.  The catalog's families are
records of the registry text format (see :mod:`qdissect.registry`);
:func:`build_families` returns them.

The closed-form constants of the lemma combinations live in order-2 integer
recurrences (``s_{k+1} = alpha*s_k + beta*s_{k-1}``); their initial values
were re-derived from the closed forms by exact surd arithmetic, which pins
``(s0, s1) = (0, 1)`` for each main sequence and ``(1, 0)`` for its companion.

An :class:`AffineIndex` is plain data, ``scale * n + offset`` with both parts
integer expressions in ``m`` and ``k`` (int literals, unary ``-``, ``+ - * **``,
and ``/`` as exact division), validated when built; its ``formula`` is derived.
"""

from __future__ import annotations

import ast
import operator
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Optional

from .oracle import CountTable, SourceSpec
from .qexpr import _INT

DESK_INDEX_CAP = 30_000_000  # largest coefficient index attempted by policy
_LISTED = 8  # violations a family report lists; it counts the rest
_POW_BITS_CAP = 4096  # an index expression's power may not exceed 2^4096


# ---------------------------------------------------------------------------
# recurrence sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecurrenceSeq:
    """``s_{k+1} = alpha * s_k + beta * s_{k-1}`` with start ``(s0, s1)``."""

    name: str
    alpha: int
    beta: int
    s0: int
    s1: int


def seq_eval(seq: RecurrenceSeq, k: int, p: int = 0) -> int:
    """``s_k``, reduced mod ``p`` when ``p >= 2`` (iterative; exact for p=0)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    a, b = seq.s0, seq.s1
    if p:
        a, b = a % p, b % p
    if k == 0:
        return a
    for _ in range(k - 1):
        a, b = b, seq.alpha * b + seq.beta * a
        if p:
            b %= p
    return b


#: The eight lemma-constant sequences, keyed by their conventional letter.
SEQUENCES: dict[str, RecurrenceSeq] = {
    "E": RecurrenceSeq("E", 6, 5, 0, 1),
    "e": RecurrenceSeq("e", 6, 5, 1, 0),
    "A": RecurrenceSeq("A", 1, 7, 0, 1),
    "a": RecurrenceSeq("a", 1, 7, 1, 0),
    "C": RecurrenceSeq("C", 8, 1, 0, 1),
    "c": RecurrenceSeq("c", 8, 1, 1, 0),
    "D": RecurrenceSeq("D", 2, 4, 0, 1),
    "d": RecurrenceSeq("d", 2, 4, 1, 0),
}


def recurrence_consistency_checks() -> list[tuple[str, bool, str]]:
    """Closure checks: at each theorem's step size, M^step = C*I mod p.

    A main sequence s (start 0, 1) and its companion c (start 1, 0) with the
    same alpha and beta give M^k = [[s_(k+1), c_(k+1)], [s_k, c_k]] for
    M = [[alpha, beta], [1, 0]], so s(step*m) = 0 and c(step*m) = C^m mod p
    for every m: the main sequence vanishes and the companion carries C^m."""
    plans = [
        ("E/e", "E", "e", 7, 7, 3),    # step 7 mod 7, constant 3^m
        ("A/a", "A", "a", 6, 11, 2),   # step 6 mod 11, constant 2^m
        ("C/c", "C", "c", 3, 13, 8),   # step 3 mod 13, constant 8^m
        ("D/d", "D", "d", 9, 17, 8),   # step 9 mod 17, constant 8^m
    ]
    results = []
    for label, main, comp, step, p, const in plans:
        s, c = SEQUENCES[main], SEQUENCES[comp]
        power = [[seq_eval(s, k, p), seq_eval(c, k, p)] for k in (step + 1, step)]
        ok = ((s.alpha, s.beta, s.s0, s.s1, c.s0, c.s1) == (c.alpha, c.beta, 0, 1, 1, 0)
              and power == [[const % p, 0], [0, const % p]])
        then = (f": then {main}({step}m) = 0 and {comp}({step}m) = {const}^m for every m"
                if ok else "")  # a failed check proves nothing
        results.append((label, ok, f"M^{step} = {power} mod {p}, want {const}*I{then}"))
    return results


# ---------------------------------------------------------------------------
# congruence families
# ---------------------------------------------------------------------------

def exact_div(num: int, den: int) -> int:
    """Integer division that refuses to round (offset exactness guard)."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return q


def _int_pow(base: int, exp: int) -> int:
    if exp < 0:
        raise ArithmeticError(f"negative exponent {exp} in an index expression")
    # a power of 2^(exp * (bits - 1)) or more is refused before it is taken;
    # one that passes has fewer than 2 * _POW_BITS_CAP bits, and is compared
    size = abs(base)
    if size > 1 and (exp * (size.bit_length() - 1) > _POW_BITS_CAP
                     or size ** exp > 1 << _POW_BITS_CAP):
        raise ArithmeticError(f"{base} ** {exp} in an index expression is too large")
    return base ** exp


_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Pow: _int_pow, ast.Div: exact_div}
_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.USub, ast.Constant, ast.Name,
          ast.Load, *_BINOPS)


@lru_cache(maxsize=1024)
def _parse(text: str) -> ast.expr:
    """Syntax tree of an index expression, with every node checked; the tree
    is shared between callers and never mutated."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"index expression {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):
        raise ValueError(f"index expression {text!r} is nested too deeply") from None
    for node in ast.walk(tree):
        if (not isinstance(node, _NODES)
                or isinstance(node, ast.Constant) and type(node.value) is not int
                or isinstance(node, ast.Name) and node.id not in ("m", "k")):
            raise ValueError(f"index expression {text!r}: "
                             f"{ast.unparse(node) or type(node).__name__} is not allowed")
    for node in ast.walk(tree):
        digits = isinstance(node, ast.Constant) and ast.get_source_segment(text, node)
        if digits and not _INT.fullmatch(digits):
            raise ValueError(f"index expression {text!r}: {digits} is not allowed")
    return tree.body


def _eval(node: ast.expr, m: int, k: int) -> int:
    if isinstance(node, ast.BinOp):
        return _BINOPS[type(node.op)](_eval(node.left, m, k), _eval(node.right, m, k))
    if isinstance(node, ast.UnaryOp):
        return -_eval(node.operand, m, k)
    if isinstance(node, ast.Name):
        return m if node.id == "m" else k
    return node.value


@dataclass(frozen=True)
class AffineIndex:
    """``index(n; m, k) = scale * n + offset``; both are expressions in m, k."""

    scale: str
    offset: str = "0"

    def __post_init__(self):
        _parse(self.scale)
        _parse(self.offset)

    @property
    def formula(self) -> str:
        n_term = ast.BinOp(_parse(self.scale), ast.Mult(), ast.Name("n"))
        return ast.unparse(ast.BinOp(n_term, ast.Add(), _parse(self.offset)))

    def coeffs(self, m: int = 0, k: int = 0) -> tuple[int, int]:
        return _eval(_parse(self.scale), m, k), _eval(_parse(self.offset), m, k)


@dataclass(frozen=True)
class Term:
    """``coeff * base^m`` times the coefficient at ``index`` of ``source``
    (the family's own stream when None)."""

    coeff: int
    base: int
    index: AffineIndex
    source: Optional[SourceSpec] = None


@dataclass(frozen=True)
class CongruenceFamily:
    id: str
    section: str
    modulus: int
    source: SourceSpec
    index: AffineIndex
    relation: tuple[Term, ...]
    m_values: tuple[int, ...] = (0,)
    k_values: tuple[int, ...] = (0,)
    default_n_max: int = 500
    slow: bool = False
    expect: str = "pass"  # "record" for ambiguous-reading probes
    note: str = ""


@dataclass(frozen=True)
class Violation:
    params: dict[str, int]  # {"m": m, "k": k}
    n: int
    index: int
    got: int
    expected: int


@dataclass(frozen=True)
class Skip:
    """An instance left unchecked, and the smallest index it would read above
    the desk-scale cap."""

    params: dict[str, int]  # {"m": m, "k": k}
    reason: str
    smallest_index: int


@dataclass(frozen=True)
class FamilyReport:
    """A family walk's outcome; its fields, in order, are the family's report
    row: ``violations`` holds the first eight, and ``n_violations`` counts all."""

    id: str
    kind: str = field(default="family", init=False)
    status: str  # pass | fail | erratum | skipped
    modulus: int
    n_max: int
    params_tested: tuple[dict[str, int], ...]
    violations: tuple[Violation, ...]
    n_violations: int
    skipped: tuple[Skip, ...]
    source: str  # the stream and modulus read, or that no table was read
    formula: str  # the family's index map
    max_index: Optional[int]  # largest index read by a tested instance
    runtime_ms: float  # rounded to 0.1 ms
    detail: str = ""


_Reads = list[tuple[SourceSpec, int, int, int]]  # (stream, scale, offset, weight) at (m, k)


def _instance_maps(family: CongruenceFamily, m: int, k: int) -> _Reads:
    """Stream, ``(scale, offset)`` and weight of every read at instance (m,
    k): the family's index first, of weight 1, then each term's, of weight
    ``coeff * base^m`` mod p.  A map or weight that cannot be evaluated, or a
    map that reads below index 0 or at one index for every n, is a
    ``ValueError`` naming the family and the instance."""
    try:
        reads = [(family.source, *family.index.coeffs(m, k), 1)]
        reads += [(t.source or family.source, *t.index.coeffs(m, k),
                   t.coeff * pow(t.base, m, family.modulus)) for t in family.relation]
    except (ArithmeticError, RecursionError, ValueError) as exc:
        raise ValueError(f"[family {family.id}] m={m}, k={k}: {exc}") from None
    for _, scale, offset, _ in reads:
        if scale < 1 or offset < 0:
            raise ValueError(f"[family {family.id}] m={m}, k={k}: index map "
                             f"{scale} * n + {offset} needs scale >= 1 and offset >= 0")
    return reads


def _instances(family: CongruenceFamily, n_top: int):
    """``(params, reads, top)`` of every (m, k) instance: its reads and the
    largest index they reach at an n <= n_top."""
    for m in family.m_values:
        for k in family.k_values:
            reads = _instance_maps(family, m, k)
            yield {"m": m, "k": k}, reads, max(s * n_top + o for _, s, o, _ in reads)


def _first_uncovered(reads: _Reads, n_top: int) -> int:
    """Smallest index above ``DESK_INDEX_CAP`` that some map reads at an n <= n_top."""
    cap = DESK_INDEX_CAP
    return min(offset if offset > cap else scale * ((cap - offset) // scale + 1) + offset
               for _, scale, offset, _ in reads if scale * n_top + offset > cap)


def required_order(family: CongruenceFamily,
                   n_max: Optional[int] = None) -> dict[SourceSpec, int]:
    """Largest index of each stream read by the instances within the desk cap."""
    n = family.default_n_max if n_max is None else n_max
    needs: dict[SourceSpec, int] = {}
    for _, reads, top in _instances(family, n):
        if top <= DESK_INDEX_CAP:
            for spec, scale, offset, _ in reads:
                needs[spec] = max(needs.get(spec, 0), scale * n + offset)
    return needs


def verify_family(
    family: CongruenceFamily,
    tables: Mapping[SourceSpec, CountTable],
    n_max: Optional[int] = None,
) -> FamilyReport:
    """Check every (m, k, n) instance of the family against oracle tables.

    ``tables`` must cover :func:`required_order`, each of the stream it is
    given under, exact or modulo a multiple of the family's modulus (reduced
    on the fly); a ``ValueError`` names the first stream that is not so.
    Instances whose largest index exceeds ``DESK_INDEX_CAP`` are reported in
    ``skipped`` with the smallest index above the cap.  The report lists the
    first eight violations and counts all of them.  A violated
    ``expect="record"`` family is an erratum.
    """
    t0 = time.perf_counter()
    n_top = family.default_n_max if n_max is None else n_max
    p = family.modulus
    for spec, order in required_order(family, n_top).items():
        table = tables.get(spec)
        if table is not None and (table.source != spec or table.modulus % p):
            given = f"mod {table.modulus}" if table.modulus else "exact"
            raise ValueError(f"[family {family.id}] reads {spec.describe()} mod {p}; "
                             f"the table given is {table.source.describe()} {given}")
        if table is None or table.n_max < order:
            covers = "none" if table is None else f"only 0..{table.n_max}"
            raise ValueError(f"[family {family.id}] reads {spec.describe()} to index "
                             f"{order}; the table given covers {covers}")

    violations: list[Violation] = []
    n_violations = 0
    tested: list[dict[str, int]] = []
    skipped: list[Skip] = []
    max_index: Optional[int] = None

    for params, reads, top in _instances(family, n_top):
        if top > DESK_INDEX_CAP:
            skipped.append(Skip(params, "index exceeds desk scale",
                                _first_uncovered(reads, n_top)))
            continue
        tested.append(params)
        max_index = max(max_index or 0, top)
        (_, scale, offset, _), *refs = reads
        source = tables[family.source]
        terms = [(w, tables[spec], s, o) for spec, s, o, w in refs]
        for n in range(n_top + 1):
            idx = scale * n + offset
            got = source[idx] % p
            expected = sum(w * table[s * n + o] for w, table, s, o in terms) % p
            if got != expected:
                n_violations += 1
                if n_violations <= _LISTED:
                    violations.append(Violation(params, n, idx, got, expected))

    if n_violations:
        status = "erratum" if family.expect == "record" else "fail"
    else:
        status = "pass" if tested else "skipped"
    desc = (f"{family.source.describe()} mod {p}" if tested
            else f"{family.source.describe()}: no table read")
    ms = round((time.perf_counter() - t0) * 1000, 1)
    return FamilyReport(family.id, status, p, n_top, tuple(tested), tuple(violations),
                        n_violations, tuple(skipped), desc, family.index.formula,
                        max_index, ms, family.note)


def build_families() -> tuple[CongruenceFamily, ...]:
    """All congruence families of the built-in catalog, in catalog order."""
    from .registry import registry

    return registry().families
