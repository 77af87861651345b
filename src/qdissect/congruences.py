"""Theorem-level congruence families and the order-2 recurrence constants.

A :class:`CongruenceFamily` states that a coefficient stream vanishes, is
proportional to another stream, or satisfies a fixed three-term relation on an
affine progression of indices.  Verification walks the progression against an
oracle table and reports every violation; instances whose largest index
exceeds the desk-scale cap (or the supplied table) are reported as skipped,
never silently dropped.  The catalog's families are records of the registry
text format (see :mod:`qdissect.registry`); :func:`build_families` returns them.

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
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .oracle import CountTable, SourceSpec

DESK_INDEX_CAP = 30_000_000  # largest coefficient index attempted by policy
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


def recurrence_consistency_checks(max_m: int = 3) -> list[tuple[str, bool, str]]:
    """Composition checks tying each recurrence pair to its theorem constants:
    at the theorem's step size the main sequence vanishes and the companion
    carries the theorem's power constant."""
    plans = [
        ("E/e", "E", "e", 7, 7, 3),    # step 7 mod 7, constant 3^m
        ("A/a", "A", "a", 6, 11, 2),   # step 6 mod 11, constant 2^m
        ("C/c", "C", "c", 3, 13, 8),   # step 3 mod 13, constant 8^m
        ("D/d", "D", "d", 9, 17, 8),   # step 9 mod 17, constant 8^m
    ]
    results = []
    for label, main, comp, step, p, const in plans:
        ok = True
        detail = []
        for m in range(1, max_m + 1):
            zero = seq_eval(SEQUENCES[main], step * m, p)
            carry = seq_eval(SEQUENCES[comp], step * m, p)
            want = pow(const, m, p)
            detail.append(f"m={m}: {main}={zero}, {comp}={carry} (want 0, {want})")
            ok = ok and zero == 0 and carry == want
        results.append((label, ok, "; ".join(detail)))
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
    if abs(base) > 1 and exp * (abs(base).bit_length() - 1) > _POW_BITS_CAP:
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

    def at(self, n: int, m: int = 0, k: int = 0) -> int:
        scale, offset = self.coeffs(m, k)
        return scale * n + offset


@dataclass(frozen=True)
class Zero:
    """LHS coefficient vanishes mod p."""


@dataclass(frozen=True)
class Recur:
    """LHS = constant^m * reference coefficient mod p."""

    constant: int
    ref: AffineIndex
    ref_source: Optional[SourceSpec] = None


@dataclass(frozen=True)
class ThreeTerm:
    """LHS = c1 * ref1 + c2 * ref2 mod p."""

    c1: int
    ref1: AffineIndex
    c2: int
    ref2: AffineIndex


Relation = Union[Zero, Recur, ThreeTerm]


@dataclass(frozen=True)
class CongruenceFamily:
    id: str
    section: str
    modulus: int
    source: SourceSpec
    index: AffineIndex
    relation: Relation
    m_values: tuple[int, ...] = (0,)
    k_values: tuple[int, ...] = (0,)
    default_n_max: int = 500
    slow: bool = False
    expect: str = "pass"  # "record" for ambiguous-reading probes
    note: str = ""


@dataclass(frozen=True)
class Violation:
    params: tuple[tuple[str, int], ...]
    n: int
    index: int
    got: int
    expected: int


@dataclass(frozen=True)
class FamilyReport:
    id: str
    modulus: int
    n_max: int
    params_tested: tuple[tuple[tuple[str, int], ...], ...]
    violations: tuple[Violation, ...]
    skipped: tuple[tuple[tuple[tuple[str, int], ...], str, int], ...]
    status: str  # pass | fail | skipped
    source_desc: str
    runtime_ms: float
    expect: str = "pass"
    note: str = ""
    max_index: Optional[int] = None  # largest index read by a tested instance

    @property
    def ok(self) -> bool:
        return self.status != "fail" or self.expect == "record"


_Pairs = list[tuple[int, int]]  # (scale, offset) of index maps at one (m, k)


def _instance_maps(family: CongruenceFamily, m: int, k: int) -> tuple[_Pairs, _Pairs]:
    """``(scale, offset)`` of every map read at instance (m, k): first those
    read from the source table (the family's index, then the relation's
    references in order), then those read from a separate reference table.
    A map that cannot be evaluated, or reads below index 0 or at one index for
    every n, is a ``ValueError`` naming the family and the instance."""
    rel = family.relation
    try:
        src = [family.index.coeffs(m, k)]
        ref: _Pairs = []
        if isinstance(rel, Recur):
            (src if rel.ref_source is None else ref).append(rel.ref.coeffs(m, k))
        elif isinstance(rel, ThreeTerm):
            src += [rel.ref1.coeffs(m, k), rel.ref2.coeffs(m, k)]
    except (ArithmeticError, RecursionError) as exc:
        raise ValueError(f"[family {family.id}] m={m}, k={k}: {exc}") from None
    for scale, offset in src + ref:
        if scale < 1 or offset < 0:
            raise ValueError(f"[family {family.id}] m={m}, k={k}: index map "
                             f"{scale} * n + {offset} needs scale >= 1 and offset >= 0")
    return src, ref


def _top(pairs: _Pairs, n: int) -> int:
    return max((scale * n + offset for scale, offset in pairs), default=0)


def _first_uncovered(pairs: _Pairs, n_top: int, limit: int) -> int:
    """Smallest index above ``limit`` that some map reads at an n <= n_top."""
    return min(
        (offset if offset > limit else scale * ((limit - offset) // scale + 1) + offset
         for scale, offset in pairs if scale * n_top + offset > limit),
        default=limit + 1,
    )


def required_order(family: CongruenceFamily,
                   n_max: Optional[int] = None) -> dict[SourceSpec, int]:
    """Largest table index each source needs, over the non-skipped instances."""
    n = family.default_n_max if n_max is None else n_max
    ref_spec = getattr(family.relation, "ref_source", None)
    needs: dict[SourceSpec, int] = {}
    for m in family.m_values:
        for k in family.k_values:
            src, ref = _instance_maps(family, m, k)
            if _top(src + ref, n) > DESK_INDEX_CAP:
                continue
            needs[family.source] = max(needs.get(family.source, 0), _top(src, n))
            if ref:
                needs[ref_spec] = max(needs.get(ref_spec, 0), _top(ref, n))
    return needs


def verify_family(
    family: CongruenceFamily,
    source: Optional[CountTable],
    n_max: Optional[int] = None,
    ref_source: Optional[CountTable] = None,
) -> FamilyReport:
    """Check every (m, k, n) instance of the family against oracle tables.

    ``source`` must be a modular table matching the family's modulus (or an
    exact table, reduced on the fly), or None when no instance reads it.
    Instances whose largest index exceeds ``DESK_INDEX_CAP`` or the table are
    reported in ``skipped`` with the smallest uncovered index.
    """
    t0 = time.perf_counter()
    n_top = family.default_n_max if n_max is None else n_max
    p = family.modulus
    rel = family.relation
    ref_table = ref_source if ref_source is not None else source
    src_n, ref_n = (-1 if t is None else t.n_max for t in (source, ref_table))

    violations: list[Violation] = []
    tested: list[tuple[tuple[str, int], ...]] = []
    skipped: list[tuple[tuple[tuple[str, int], ...], str, int]] = []
    max_index: Optional[int] = None

    for m in family.m_values:
        for k in family.k_values:
            params = (("m", m), ("k", k))
            src, ref = _instance_maps(family, m, k)
            src_top, ref_top = _top(src, n_top), _top(ref, n_top)
            if max(src_top, ref_top) > DESK_INDEX_CAP:
                skipped.append((params, "index exceeds desk scale",
                                _first_uncovered(src + ref, n_top, DESK_INDEX_CAP)))
                continue
            if src_top > src_n:
                skipped.append((params, "source table too small",
                                _first_uncovered(src, n_top, src_n)))
                continue
            if ref_top > ref_n:
                skipped.append((params, "reference table too small",
                                _first_uncovered(ref, n_top, ref_n)))
                continue
            tested.append(params)
            max_index = max(max_index or 0, src_top, ref_top)
            if isinstance(rel, Recur):
                weights = [pow(rel.constant, m, p)]
            elif isinstance(rel, ThreeTerm):
                weights = [rel.c1, rel.c2]
            else:
                weights = []
            (scale, offset), *pairs = src + ref
            tables = [source] * (len(src) - 1) + [ref_table] * len(ref)
            terms = list(zip(weights, tables, pairs))
            for n in range(n_top + 1):
                idx = scale * n + offset
                got = source[idx] % p
                expected = sum(w * table[s * n + o] for w, table, (s, o) in terms) % p
                if got != expected:
                    violations.append(Violation(params, n, idx, got, expected))

    status = "fail" if violations else "pass" if tested else "skipped"
    desc = (f"{family.source.describe()}: no table read" if source is None
            else f"{family.source.describe()} table to {source.n_max} mod {source.modulus}")
    ms = (time.perf_counter() - t0) * 1000
    return FamilyReport(
        family.id, p, n_top, tuple(tested), tuple(violations), tuple(skipped),
        status, desc, ms, family.expect, family.note, max_index,
    )


def build_families() -> list[CongruenceFamily]:
    """All congruence families of the built-in catalog, in catalog order."""
    from .registry import registry

    return registry().families
