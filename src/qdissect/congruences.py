"""Theorem-level congruence families and the order-2 recurrence constants.

A :class:`CongruenceFamily` states that a coefficient stream vanishes, is
proportional to another stream, or satisfies a fixed three-term relation on an
affine progression of indices.  Verification walks the progression against an
oracle table and reports every violation; instances whose largest index
exceeds the desk-scale cap (or the supplied table) are reported as skipped,
never silently dropped.

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

from .oracle import CountTable

DESK_INDEX_CAP = 30_000_000  # largest coefficient index attempted by policy


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


@dataclass(frozen=True)
class SourceSpec:
    """Which coefficient stream a family reads: regular b_l or bipartite B_{l,m}."""

    kind: str  # "regular" | "bipartite"
    l: int
    m: int = 0

    def describe(self) -> str:
        if self.kind == "regular":
            return f"b_{self.l}"
        return f"B_{{{self.l},{self.m}}}"


def _int_pow(base: int, exp: int) -> int:
    if exp < 0:
        raise ArithmeticError(f"negative exponent {exp} in an index expression")
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


def plain_index(scale: int = 1, offset: int = 0) -> AffineIndex:
    return AffineIndex(str(scale), str(offset))


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
    references in order), then those read from a separate reference table."""
    rel = family.relation
    src = [family.index.coeffs(m, k)]
    ref: _Pairs = []
    if isinstance(rel, Recur):
        (src if rel.ref_source is None else ref).append(rel.ref.coeffs(m, k))
    elif isinstance(rel, ThreeTerm):
        src += [rel.ref1.coeffs(m, k), rel.ref2.coeffs(m, k)]
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


def required_order(family: CongruenceFamily, n_max: Optional[int] = None,
                   index_cap: int = DESK_INDEX_CAP) -> dict[SourceSpec, int]:
    """Largest table index each source needs, over the non-skipped instances."""
    n = family.default_n_max if n_max is None else n_max
    ref_spec = getattr(family.relation, "ref_source", None)
    needs: dict[SourceSpec, int] = {}
    for m in family.m_values:
        for k in family.k_values:
            src, ref = _instance_maps(family, m, k)
            if _top(src + ref, n) > index_cap:
                continue
            needs[family.source] = max(needs.get(family.source, 0), _top(src, n))
            if ref:
                needs[ref_spec] = max(needs.get(ref_spec, 0), _top(ref, n))
    return needs


def verify_family(
    family: CongruenceFamily,
    source: CountTable,
    n_max: Optional[int] = None,
    ref_source: Optional[CountTable] = None,
    index_cap: int = DESK_INDEX_CAP,
) -> FamilyReport:
    """Check every (m, k, n) instance of the family against oracle tables.

    ``source`` must be a modular table matching the family's modulus (or an
    exact table, reduced on the fly).  Instances whose largest index exceeds
    ``index_cap`` or the table are reported in ``skipped`` with the smallest
    uncovered index.
    """
    t0 = time.perf_counter()
    n_top = family.default_n_max if n_max is None else n_max
    p = family.modulus
    rel = family.relation
    ref_table = ref_source if ref_source is not None else source

    violations: list[Violation] = []
    tested: list[tuple[tuple[str, int], ...]] = []
    skipped: list[tuple[tuple[tuple[str, int], ...], str, int]] = []
    max_index: Optional[int] = None

    for m in family.m_values:
        for k in family.k_values:
            params = (("m", m), ("k", k))
            src, ref = _instance_maps(family, m, k)
            src_top, ref_top = _top(src, n_top), _top(ref, n_top)
            if max(src_top, ref_top) > index_cap:
                skipped.append((params, "index exceeds desk scale",
                                _first_uncovered(src + ref, n_top, index_cap)))
                continue
            if src_top > source.n_max:
                skipped.append((params, "source table too small",
                                _first_uncovered(src, n_top, source.n_max)))
                continue
            if ref_top > ref_table.n_max:
                skipped.append((params, "reference table too small",
                                _first_uncovered(ref, n_top, ref_table.n_max)))
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
    ms = (time.perf_counter() - t0) * 1000
    return FamilyReport(
        family.id, p, n_top, tuple(tested), tuple(violations), tuple(skipped),
        status, f"{family.source.describe()} table to {source.n_max} mod {source.modulus}",
        ms, family.expect, family.note, max_index,
    )


def verify_three_term(
    relation_id: str,
    p: int,
    maps: tuple[AffineIndex, AffineIndex, AffineIndex],
    coeffs: tuple[int, int],
    n_max: int,
    source: CountTable,
) -> FamilyReport:
    """Standalone three-term check ``src[maps[0](n)] = c1*src[maps[1](n)] + c2*src[maps[2](n)]``."""
    lhs, ref1, ref2 = maps
    fam = CongruenceFamily(
        relation_id, "adhoc", p,
        SourceSpec(source.kind, source.l, source.m),
        lhs, ThreeTerm(coeffs[0], ref1, coeffs[1], ref2),
        default_n_max=n_max,
    )
    return verify_family(fam, source, n_max=n_max)


# ---------------------------------------------------------------------------
# family catalog
# ---------------------------------------------------------------------------

def build_families() -> list[CongruenceFamily]:
    """All congruence families, in catalog order."""
    fams: list[CongruenceFamily] = []

    B37 = SourceSpec("bipartite", 3, 7)
    B95 = SourceSpec("bipartite", 9, 5)
    B511 = SourceSpec("bipartite", 5, 11)
    B513 = SourceSpec("bipartite", 5, 13)
    B8117 = SourceSpec("bipartite", 81, 17)
    B28 = SourceSpec("bipartite", 2, 8)
    B311 = SourceSpec("bipartite", 3, 11)
    b17 = SourceSpec("regular", 17)

    fams.append(CongruenceFamily(
        "w.11", "s3", 7, B37,
        plain_index(16, 5),
        ThreeTerm(5, plain_index(1, 0), 6, plain_index(4, 1)),
        default_n_max=5000,
        note="order-16 base relation for the (3,7) stream",
    ))
    fams.append(CongruenceFamily(
        "ak1", "s3", 7, B37,
        AffineIndex("4 ** (7 * m)", "(4 ** (7 * m) - 1) / 3"),
        Recur(3, plain_index(1, 0)),
        m_values=(0, 1), default_n_max=100,
    ))
    fams.append(CongruenceFamily(
        "ak2", "s3", 7, B37,
        AffineIndex("4 ** (7 * m + 7)", "(10 * 4 ** (7 * m + 6) - 1) / 3"),
        Zero(),
        m_values=(0,), default_n_max=100,
    ))

    fams.append(CongruenceFamily(
        "0a1", "s4", 3, B95,
        AffineIndex("5 ** (4 * m)", "(5 ** (4 * m) - 1) / 2"),
        Recur(2, plain_index(1, 0)),
        m_values=(0, 1), default_n_max=2000,
        note="m=1 instance is the section-4 base relation",
    ))
    fams.append(CongruenceFamily(
        "0a2", "s4", 3, B95,
        AffineIndex("5 ** (4 * m + 4)", "((2 * k + 1) * 5 ** (4 * m + 3) - 1) / 2"),
        Zero(),
        m_values=(0,), k_values=(4, 5), default_n_max=2000,
    ))

    fams.append(CongruenceFamily(
        "1.x", "s5", 11, B511,
        plain_index(625, 364),
        ThreeTerm(1, plain_index(25, 14), 7, plain_index(1, 0)),
        default_n_max=2000,
        note="order-625 base relation for the (5,11) stream",
    ))
    fams.append(CongruenceFamily(
        "thm12", "s5", 11, B511,
        AffineIndex("5 ** (12 * m)", "(7 * 5 ** (12 * m) - 7) / 12"),
        Recur(2, plain_index(1, 0)),
        m_values=(0, 1), default_n_max=100,
        note="m>=1 indices are beyond desk scale; assurance is the replayed "
             "chain plus the base relation",
    ))
    fams.append(CongruenceFamily(
        "thm13", "s5", 11, B511,
        AffineIndex("5 ** (12 * m + 12)", "((12 * k + 11) * 5 ** (12 * m + 11) - 7) / 12"),
        Zero(),
        m_values=(0,), k_values=(4, 5), default_n_max=100,
        note="source statement omits n on the leading power; read as "
             "5^(12m+12)*n by analogy with the other theorems",
    ))

    fams.append(CongruenceFamily(
        "2.x", "s6", 13, B513,
        plain_index(625, 416),
        ThreeTerm(8, plain_index(25, 16), 1, plain_index(1, 0)),
        default_n_max=2000,
        note="order-625 base relation for the (5,13) stream",
    ))
    fams.append(CongruenceFamily(
        "thm14", "s6", 13, B513,
        AffineIndex("5 ** (6 * m)", "(2 * 5 ** (6 * m) - 2) / 3"),
        Recur(8, plain_index(1, 0)),
        m_values=(0, 1), default_n_max=79,
    ))
    fams.append(CongruenceFamily(
        "thm15", "s6", 13, B513,
        AffineIndex("5 ** (6 * m + 6)", "((3 * k + 1) * 5 ** (6 * m + 5) - 2) / 3"),
        Zero(),
        m_values=(0,), k_values=(1, 5), default_n_max=79,
    ))

    fams.append(CongruenceFamily(
        "x1", "s8", 11, B28,
        AffineIndex("88", "8 * k + 7"),
        Zero(),
        k_values=tuple(range(1, 11)), default_n_max=500,
    ))

    fams.append(CongruenceFamily(
        "s8", "s7", 17, B8117,
        AffineIndex("81", "27 * k + 23"),
        Zero(),
        k_values=(2, 3), default_n_max=300,
    ))
    fams.append(CongruenceFamily(
        "7.22", "s7", 17, B8117,
        plain_index(81, 50),
        Recur(5, plain_index(1, 0), ref_source=b17),
        m_values=(1,), default_n_max=500,
        note="cross-stream relation onto the 17-regular counts",
    ))
    fams.append(CongruenceFamily(
        "7.15", "s7", 17, b17,
        AffineIndex("4 ** 8", "2 * (4 ** 8 - 1) / 3"),
        ThreeTerm(2, plain_index(4, 2), 13, plain_index(1, 0)),
        default_n_max=15,
        note="imported order-2 lemma instance at k=8, checked empirically",
    ))
    fams.append(CongruenceFamily(
        "s10", "s7", 17, b17,
        AffineIndex("4 ** 9", "2 * (4 ** 8 - 1) / 3"),
        Zero(),
        default_n_max=4,
    ))
    fams.append(CongruenceFamily(
        "s11", "s7", 17, b17,
        AffineIndex("4 ** 9", "2 * (4 ** 9 - 1) / 3"),
        Recur(8, plain_index(1, 0)),
        m_values=(1,), default_n_max=4,
    ))
    fams.append(CongruenceFamily(
        "s12", "s7", 17, b17,
        AffineIndex("2 * 4 ** 8", "(5 * 4 ** 8 - 2) / 3"),
        Recur(1, plain_index(2, 1)),
        m_values=(1,), default_n_max=9,
    ))

    fams.append(CongruenceFamily(
        "dou", "s1", 11, B311,
        AffineIndex("3 ** m", "(5 * 3 ** (m - 1) - 1) / 2"),
        Zero(),
        m_values=(2, 3), default_n_max=3000,
        note="imported result, verified empirically for a = 2, 3",
    ))

    # Theorem for the (81,17) stream: the printed statement mixes 4^(9m) and
    # 4^(8m) and claims every m >= 0; the readings and the m-range are probed
    # separately and the outcomes recorded.
    fams.append(CongruenceFamily(
        "s13", "s7", 17, B8117,
        AffineIndex("81 * 4 ** (9 * m)", "81 * ((2 * 4 ** (8 * m) - 2) / 3) + 50"),
        Zero(),
        m_values=(1,), default_n_max=1, slow=True,
        note="printed mixed-exponent reading, from m = 1 on",
    ))
    fams.append(CongruenceFamily(
        "s13-m0-probe", "s7", 17, B8117,
        plain_index(81, 50),
        Zero(),
        m_values=(0,), default_n_max=10, expect="record",
        note="the printed m-range starts at 0, but there the progression is "
             "the proportional one (5 times the 17-regular stream), nonzero "
             "already at n = 0; recorded as an erratum candidate for the "
             "stated range",
    ))
    fams.append(CongruenceFamily(
        "s13-uniform", "s7", 17, B8117,
        AffineIndex("81 * 4 ** (9 * m)", "81 * ((2 * 4 ** (9 * m) - 2) / 3) + 50"),
        Zero(),
        m_values=(1,), default_n_max=0, slow=True, expect="record",
        note="uniform-exponent reading probe; expected to violate (it is the "
             "index of the proportional family, not the vanishing one)",
    ))
    fams.append(CongruenceFamily(
        "s14", "s7", 17, B8117,
        AffineIndex("81 * 4 ** (9 * m)", "81 * ((2 * 4 ** (9 * m) - 2) / 3) + 50"),
        Recur(8, plain_index(81, 50)),
        m_values=(0, 1), default_n_max=0, slow=True,
    ))
    fams.append(CongruenceFamily(
        "s15-printed", "s7", 17, B8117,
        AffineIndex("162 * 4 ** (8 * m)", "81 * ((5 * 4 ** (8 * m) - 2) / 3) + 50"),
        Recur(5, plain_index(162, 131)),
        m_values=(0, 1), default_n_max=1, slow=True, expect="record",
        note="printed constant 5^m; the composed derivation suggests constant 1, "
             "both readings recorded",
    ))
    fams.append(CongruenceFamily(
        "s15-unit", "s7", 17, B8117,
        AffineIndex("162 * 4 ** (8 * m)", "81 * ((5 * 4 ** (8 * m) - 2) / 3) + 50"),
        Recur(1, plain_index(162, 131)),
        m_values=(1,), default_n_max=1, slow=True, expect="record",
        note="constant-1 reading probe for the same progression",
    ))
    return fams


def family_index() -> dict[str, CongruenceFamily]:
    return {f.id: f for f in build_families()}
