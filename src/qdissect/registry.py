"""The catalog: identity cases, derivation chains and congruence families.

The built-in catalog is the package file ``catalog.txt``, which ``qdissect
export-registry`` prints as shipped.  It is read by :func:`parse_registry`,
the parser that also reads ``--registry-file``.  Identity ids follow the
source-catalog labels (``0.2``, ``kp2``, ``k1@7``, ...); chain ids name the
section-level derivations (``s3`` .. ``s8``).  A section whose derivation
restarts from a lemma-supplied linear combination is split into segments
(``s3.tail``, ``s5.tail``, ``s7cor.comb``, ...): the new start is itself an
asserted combination of previously verified stages, so the replay stays
fully mechanical.

The text format has one record per line; a chain record goes on with one
line per step::

    ID|MODE|ORDER|LHS|RHS                          an identity case
    chain ID|MODE|ORDER|START                      a chain header, then steps:
      sub ID | extract R S | dilate S | reduce M | assert ID EXPR [record]
    family ID|SOURCE|modM|SCALE|OFFSET|RELATION    a congruence family

Each record may end in ``key=value`` fields (``section``, ``expect``,
``note``, and for families ``ref``, ``m``, ``k``, ``n_max`` and ``slow``); a
field left out takes its default.  The README gives the full grammar.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from importlib.resources import files
from typing import NamedTuple, Optional

from .congruences import AffineIndex, CongruenceFamily, Term
from .identities import (
    DilateBack,
    Extract,
    IdentityCase,
    ProofChain,
    ReduceMod,
    Stage,
)
from .oracle import _STREAM_NAMES, FAST_MOD_CAP, SourceSpec
from .qexpr import _INT, parse_sexpr


class Registry(NamedTuple):
    """Identity cases, chains and families; ids are unique within each kind."""

    cases: tuple[IdentityCase, ...] = ()
    chains: tuple[ProofChain, ...] = ()
    families: tuple[CongruenceFamily, ...] = ()


def catalog_text() -> str:
    """The text of the built-in catalog file, as shipped."""
    return files(__package__).joinpath("catalog.txt").read_text(encoding="utf-8")


@lru_cache(maxsize=1)
def registry() -> Registry:
    """The built-in catalog, parsed once per process and shared (it is immutable)."""
    return parse_registry(catalog_text())


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------

def parse_registry(text: str, taken: Registry = Registry()) -> Registry:
    """Entries from registry text (a record that names no section is in
    section ``user``).  A malformed line, an id already defined in ``taken`` or
    above, a ``sub`` that names no such identity, or a chain that does not end
    in an ``assert`` is a ``ValueError`` naming the line."""
    seen = {"identity": {c.id for c in taken.cases},
            "chain": {c.id for c in taken.chains},
            "family": {f.id for f in taken.families}}
    cases, chains, families = [], [], []
    chain: Optional[_ChainRecord] = None  # the open chain record
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if "|" not in line:
                if chain is None:
                    raise ValueError("a chain step must follow a chain header or step")
                chain.read(line, seen["identity"])
                continue
            fields = [f.strip() for f in line.split("|")]
            word, _, entry_id = fields[0].partition(" ")
            if word in ("chain", "family") and entry_id.strip():
                fields[0] = entry_id.strip()
            else:
                word = "identity"
            _claim(word, fields[0], seen)
            chain = None
            if word == "identity":
                cases.append(_read_case(fields))
            elif word == "chain":
                chain = _ChainRecord(lineno, fields)
                chains.append(chain)
            else:
                families.append(_read_family(fields))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return Registry(tuple(cases), tuple(record.close() for record in chains),
                    tuple(families))


def _claim(kind: str, entry_id: str, seen: dict[str, set[str]]) -> None:
    if not entry_id or entry_id in seen[kind]:
        raise ValueError(f"{kind} id {entry_id!r} is empty or already defined")
    if len(entry_id.split()) > 1:
        raise ValueError(f"{kind} id {entry_id!r} contains whitespace")
    seen[kind].add(entry_id)


def _split(fields: list[str], keys: tuple[str, ...],
           layout: str) -> tuple[list[str], dict[str, str]]:
    """The positional fields, as many as ``layout`` names, and the
    key=value fields after them."""
    n = next((i for i, f in enumerate(fields) if "=" in f), len(fields))
    if n != layout.count("|") + 1:
        raise ValueError(f"expected {layout} before any key=value field, "
                         f"got {n} '|'-separated fields")
    opts: dict[str, str] = {}
    for field in fields[n:]:
        key, eq, value = field.partition("=")
        key = key.strip()
        if not eq or key not in keys or key in opts:
            raise ValueError(f"field {field!r} is not key=value with a new key "
                             f"among {', '.join(keys)}")
        opts[key] = value.strip()
    return fields[:n], opts


def _int(text: str, what: str, least: Optional[int] = None) -> int:
    if not _INT.fullmatch(text):
        raise ValueError(f"{what} must be an integer, got {text!r}")
    value = int(text)
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value


def _mode(text: str, exact: bool = True) -> int:
    if exact and text == "exact":
        return 0
    if text.startswith("mod") and _INT.fullmatch(text[3:]) and int(text[3:]) >= 2:
        return int(text[3:])
    allowed = "'exact' or 'modM'" if exact else "'modM'"
    raise ValueError(f"mode must be {allowed} with M >= 2, got {text!r}")


def _read_expect(text: str) -> str:
    if text not in ("pass", "record"):
        raise ValueError(f"expect must be 'pass' or 'record', got {text!r}")
    return text


def _read_flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"slow must be 'true' or 'false', got {text!r}")
    return text == "true"


def _read_values(key: str, text: str) -> tuple[int, ...]:
    """``m=`` or ``k=``; a repeated value would check one instance twice."""
    values = tuple(_int(v.strip(), "an m or k value") for v in text.split(","))
    repeated = [v for v, count in Counter(values).items() if count > 1]
    if repeated:
        raise ValueError(f"{key} value {repeated[0]} is repeated")
    return values


# key -> (dataclass field, reader)
_OPTIONS = {
    "m": ("m_values", lambda t: _read_values("m", t)),
    "k": ("k_values", lambda t: _read_values("k", t)),
    "n_max": ("default_n_max", lambda t: _int(t, "n_max", 0)),
    "slow": ("slow", _read_flag),
    "section": ("section", str),
    "expect": ("expect", _read_expect),
    "note": ("note", str),
}
_CASE_KEYS = ("section", "expect", "note")
_CHAIN_KEYS = ("section", "note")
_FAMILY_KEYS = ("ref", "m", "k", "n_max", "slow", "section", "expect", "note")


def _read_options(opts: dict[str, str]) -> dict:
    kw = {"section": "user"}
    for key, text in opts.items():
        name, read = _OPTIONS[key]
        kw[name] = read(text)
    return kw


def _read_case(fields: list[str]) -> IdentityCase:
    pos, opts = _split(fields, _CASE_KEYS, "ID|MODE|ORDER|LHS|RHS")
    case_id, mode, order, lhs, rhs = pos
    return IdentityCase(id=case_id, modulus=_mode(mode),
                        default_order=_int(order, "order", 1),
                        lhs=parse_sexpr(lhs), rhs=parse_sexpr(rhs),
                        **_read_options(opts))


class _ChainRecord:
    """A chain record: its header's line and fields, its stages so far, and
    the moves and citations that its next ``assert`` takes."""

    def __init__(self, lineno: int, fields: list[str]):
        pos, opts = _split(fields, _CHAIN_KEYS, "chain ID|MODE|ORDER|START")
        chain_id, mode, order, start = pos
        self.header = dict(id=chain_id, modulus=_mode(mode), start=parse_sexpr(start),
                           base_order=_int(order, "base order", 1), **_read_options(opts))
        self.lineno, self.stages, self.moves, self.cited = lineno, [], [], []

    def read(self, line: str, identities: set[str]) -> None:
        """Take one step line; a ``sub`` may cite any of ``identities``."""
        word, *args = line.split()
        if word == "sub" and len(args) == 1:
            if args[0] not in identities:
                raise ValueError(f"sub {args[0]!r} names no identity")
            self.cited.append(args[0])
        elif word == "extract" and len(args) == 2:
            s = _int(args[1], "extract step", 1)
            r = _int(args[0], "extract residue", 0)
            if r >= s:
                raise ValueError(f"extract needs 0 <= R < S, got R={r} S={s}")
            self.moves.append(Extract(r, s))
        elif word == "dilate" and len(args) == 1:
            self.moves.append(DilateBack(_int(args[0], "dilate factor", 1)))
        elif word == "reduce" and len(args) == 1:
            self.moves.append(ReduceMod(_int(args[0], "reduce modulus", 2)))
        elif word == "assert" and len(args) >= 2:
            stage_id, expr = line.split(None, 2)[1:]
            if any(stage.id == stage_id for stage in self.stages):
                raise ValueError(f"stage id {stage_id!r} is already defined in this chain")
            parts = expr.rsplit(None, 1)
            expr, expect = (parts[0], "record") if parts[1:] == ["record"] else (expr, "pass")
            self.stages.append(Stage(stage_id, parse_sexpr(expr), tuple(self.moves),
                                     tuple(self.cited), expect))
            self.moves, self.cited = [], []
        else:
            raise ValueError("a chain step is 'sub ID', 'extract R S', 'dilate S', "
                             f"'reduce M' or 'assert ID EXPR [record]', got {line!r}")

    def close(self) -> ProofChain:
        """The chain; a record that does not end in an ``assert`` is an error."""
        if self.moves or self.cited or not self.stages:
            raise ValueError(f"line {self.lineno}: chain {self.header['id']} "
                             "must end in an 'assert' line")
        return ProofChain(stages=tuple(self.stages), **self.header)


def _read_source(text: str) -> SourceSpec:
    """A stream's name and its regularities: the name fixes how many follow."""
    word, *regs = text.split() or [""]
    if word not in _STREAM_NAMES or len(regs) != _STREAM_NAMES.index(word) + 1:
        raise ValueError(f"source must be 'regular L' or 'bipartite L M', got {text!r}")
    return SourceSpec(tuple(_int(l, "regularity index", 2) for l in regs))


# relation word -> how many constants follow it, and how many index maps
# (SCALE|OFFSET field pairs) follow the relation field
_RELATION_SHAPES = {"zero": 0, "recur": 1, "three": 2}


def _read_relation(text: str, refs: list[str], ref: Optional[str]) -> tuple[Term, ...]:
    word, *constants = text.split() or [""]
    if len(constants) != _RELATION_SHAPES.get(word):
        raise ValueError("relation must be 'zero', 'recur C' or 'three C1 C2', "
                         f"got {text!r}")
    if ref is not None and word != "recur":
        raise ValueError("ref= applies to a recur relation only")
    cs = [_int(c, "relation constant") for c in constants]
    maps = [AffineIndex(refs[i], refs[i + 1]) for i in range(0, len(refs), 2)]
    if word == "recur":  # C^m times the reference coefficient
        return (Term(1, cs[0], maps[0], None if ref is None else _read_source(ref)),)
    return tuple(Term(c, 1, ix) for c, ix in zip(cs, maps))


def _read_family(fields: list[str]) -> CongruenceFamily:
    word = (fields[5].split() or [""])[0] if len(fields) > 5 else ""
    layout = ("family ID|SOURCE|modM|SCALE|OFFSET|RELATION"
              + "|SCALE|OFFSET" * _RELATION_SHAPES.get(word, 0))
    pos, opts = _split(fields, _FAMILY_KEYS, layout)
    fam_id, source, mode, scale, offset, relation, *refs = pos
    modulus = _mode(mode, exact=False)
    if modulus > FAST_MOD_CAP:
        raise ValueError(f"modulus {modulus} exceeds the fast path's cap {FAST_MOD_CAP}")
    return CongruenceFamily(
        id=fam_id, source=_read_source(source), modulus=modulus,
        index=AffineIndex(scale, offset),
        relation=_read_relation(relation, refs, opts.pop("ref", None)),
        **_read_options(opts),
    )
