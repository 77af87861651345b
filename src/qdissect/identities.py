"""Identity cases, replayable derivation chains, and their verifiers.

An :class:`IdentityCase` is a claimed equality between two expressions,
checked coefficientwise to an explicit order (exactly, or in Z/M).  A
:class:`ProofChain` mechanizes a derivation as a sequence of stages: each
:class:`Stage` applies its extraction/relabel/reduction moves to a concrete
series and compares the running value with its claim.

Chains follow two reporting rules.  A stage whose expectation is ``"record"``
is allowed to mismatch: the outcome (pass, or first mismatching coefficient)
is recorded as an erratum candidate instead of a failure.  After any
mismatch the chain continues from the *claimed* stage, so a single
transcription slip cannot cascade through the remaining stages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Union

from . import series
from .qexpr import QExpr, eval_qexpr
from .series import CoeffRing, PrecisionError

MIN_SURVIVING = 32  # fewest coefficients an asserted stage may be compared on


class VerificationError(Exception):
    """A case or chain could not be evaluated.  The message names it and the
    original exception; ``__cause__`` is that exception."""


# ---------------------------------------------------------------------------
# identity cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCase:
    """A claimed equality ``lhs == rhs`` to ``default_order`` coefficients.

    ``modulus == 0`` checks over exact integers.  ``expect`` is ``"pass"`` for
    catalog entries that must hold, ``"record"`` for entries whose outcome is
    recorded either way (suspected transcription issues).
    """

    id: str
    section: str
    lhs: QExpr
    rhs: QExpr
    modulus: int = 0
    default_order: int = 500
    expect: str = "pass"
    note: str = ""


@dataclass(frozen=True)
class Mismatch:
    exponent: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class IdentityReport:
    """A case's outcome; its fields, in order, are the case's report row."""

    id: str
    kind: str = field(default="identity", init=False)
    status: str  # pass | fail | erratum
    order: int
    modulus: int
    first_mismatch: Optional[Mismatch]
    runtime_ms: float  # rounded to 0.1 ms
    detail: str = ""


def verify(case: IdentityCase, order: Optional[int] = None) -> IdentityReport:
    """Evaluate both sides of a case and report pass or first mismatch."""
    n = case.default_order if order is None else order
    t0 = time.perf_counter()
    try:
        ring = CoeffRing(case.modulus)
        a = eval_qexpr(case.lhs, ring, n)
        b = eval_qexpr(case.rhs, ring, n)
        status, mismatch = _compare(a, b, n, case.expect)
    except Exception as exc:
        raise VerificationError(f"[case {case.id}] {type(exc).__name__}: {exc}") from exc
    ms = round((time.perf_counter() - t0) * 1000, 1)
    return IdentityReport(case.id, status, n, case.modulus, mismatch, ms, case.note)


def _compare(a: series.Series, b: series.Series, order: int,
             expect: str) -> tuple[str, Optional[Mismatch]]:
    """``pass``, or the status that ``expect`` gives the first mismatch."""
    ok, idx = series.eq_to_order(a, b, order)
    if ok:
        return "pass", None
    return "erratum" if expect == "record" else "fail", Mismatch(idx, a[idx], b[idx])


# ---------------------------------------------------------------------------
# proof chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Extract:
    """Keep exponents congruent to ``r`` mod ``s`` and divide by ``q^r``;
    the series stays on the ``q^s`` lattice until :class:`DilateBack`."""

    r: int
    s: int


@dataclass(frozen=True)
class DilateBack:
    """The relabeling move: replace ``q^s`` by ``q``."""

    s: int


@dataclass(frozen=True)
class ReduceMod:
    modulus: int


Move = Union[Extract, DilateBack, ReduceMod]


@dataclass(frozen=True)
class Stage:
    """A claimed stage: the moves that lead to it from the previous stage (or
    the start), the catalog identities it cites, and the claim."""

    id: str
    expr: QExpr
    moves: tuple[Move, ...] = ()
    justified_by: tuple[str, ...] = ()
    expect: str = "pass"  # "record" for erratum-candidate stages


@dataclass(frozen=True)
class ProofChain:
    """One replayable derivation segment: one or more stages, ids unique.

    ``modulus`` is the ring of the starting expression (0 = exact; a
    :class:`ReduceMod` move may switch it mid-chain).  ``base_order`` is the
    evaluation order; after every stage, pass or not, the running series is
    re-evaluated from the claimed stage at full order, so precision is spent
    only between consecutive stages.
    """

    id: str
    section: str
    start: QExpr
    stages: tuple[Stage, ...]
    modulus: int = 0
    base_order: int = 512
    note: str = ""

    def __post_init__(self) -> None:
        ids = [stage.id for stage in self.stages]
        if not ids or len(set(ids)) < len(ids):
            raise ValueError(f"chain {self.id} needs one or more stages, ids unique; got {ids}")


@dataclass(frozen=True)
class StageReport:
    """An asserted stage's outcome, as it appears in its chain's row."""

    stage: str
    status: str  # pass | fail | erratum
    surviving: int
    justified_by: tuple[str, ...]
    first_mismatch: Optional[Mismatch]


@dataclass(frozen=True)
class ChainReport:
    """A replay's outcome; its fields, in order, are the chain's report row."""

    id: str
    kind: str = field(default="chain", init=False)
    status: str  # fail if a stage fails, else erratum if one is, else pass
    order: int  # the order replayed
    modulus: int  # the starting ring's
    stages: tuple[StageReport, ...]
    runtime_ms: float  # rounded to 0.1 ms
    detail: str = ""


def replay(chain: ProofChain, order: Optional[int] = None) -> ChainReport:
    """Apply each stage's moves to a concrete series and report every stage.

    Too few coefficients is a :class:`PrecisionError`, any other failure a
    :class:`VerificationError`; both name the chain and its start, or the
    stage and the move if a move failed."""
    n = chain.base_order if order is None else order
    t0 = time.perf_counter()
    lattice = 1  # current coordinate scale: q^lattice is the step
    stages: list[StageReport] = []
    where = f"[chain {chain.id}] start"
    try:
        current = eval_qexpr(chain.start, CoeffRing(chain.modulus), n)
        for stage in chain.stages:
            for move in stage.moves:
                where = f"[chain {chain.id}] stage {stage.id}: {move}"
                if isinstance(move, Extract):
                    r = move.r * lattice
                    lattice *= move.s
                    current = series.dilate(series.extract(current, r, lattice), lattice)
                elif isinstance(move, DilateBack):
                    if lattice % move.s:
                        raise ValueError(f"the lattice is {lattice}, not a multiple of {move.s}")
                    current = series.extract(current, 0, move.s)
                    lattice //= move.s
                else:
                    current = series.reduce_mod(current, move.modulus)
            where = f"[chain {chain.id}] stage {stage.id}"
            claimed = eval_qexpr(stage.expr, current.ring, n)
            compared = min(current.order, claimed.order)
            surviving = compared // lattice + 1
            if surviving < MIN_SURVIVING:
                raise PrecisionError(
                    f"only {surviving} coefficients survive (need "
                    f"{MIN_SURVIVING}); raise the base order")
            status, mismatch = _compare(current, claimed, compared, stage.expect)
            stages.append(StageReport(stage.id, status, surviving, stage.justified_by, mismatch))
            # continue from the claimed stage at full order (re-inflate); on a
            # mismatch this also localizes the discrepancy to one stage
            current = claimed
    except Exception as exc:
        if isinstance(exc, PrecisionError):
            raise PrecisionError(f"{where}: {exc}") from exc
        raise VerificationError(f"{where}: {type(exc).__name__}: {exc}") from exc

    ms = round((time.perf_counter() - t0) * 1000, 1)
    statuses = {stage.status for stage in stages}
    status = next((s for s in ("fail", "erratum") if s in statuses), "pass")
    return ChainReport(chain.id, status, n, chain.modulus, tuple(stages), ms, chain.note)
