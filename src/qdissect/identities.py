"""Identity cases, replayable derivation chains, and their verifiers.

An :class:`IdentityCase` is a claimed equality between two expressions,
checked coefficientwise to an explicit order (exactly, or in Z/M).  A
:class:`ProofChain` mechanizes a derivation: starting from an expression, it
applies extraction/relabel/reduction moves to a concrete series and compares
the running value against each claimed stage.

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
from .series import EXACT, CoeffRing, PrecisionError

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
        ring = EXACT if case.modulus == 0 else CoeffRing(case.modulus)
        a = eval_qexpr(case.lhs, ring, n)
        b = eval_qexpr(case.rhs, ring, n)
        ok, idx = series.eq_to_order(a, b, n)
    except Exception as exc:
        raise VerificationError(f"[case {case.id}] {type(exc).__name__}: {exc}") from exc
    ms = round((time.perf_counter() - t0) * 1000, 1)
    if ok:
        return IdentityReport(case.id, "pass", n, case.modulus, None, ms, case.note)
    status = "erratum" if case.expect == "record" else "fail"
    mismatch = Mismatch(idx, a[idx], b[idx])
    return IdentityReport(case.id, status, n, case.modulus, mismatch, ms, case.note)


# ---------------------------------------------------------------------------
# proof chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Substitute:
    """Annotation step: the upcoming stage is justified by a catalog identity."""

    identity_id: str


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


@dataclass(frozen=True)
class AssertStage:
    """Compare the running series against a claimed stage expression."""

    stage_id: str
    expr: QExpr
    expect: str = "pass"  # "record" for erratum-candidate stages


ProofStep = Union[Substitute, Extract, DilateBack, ReduceMod, AssertStage]


@dataclass(frozen=True)
class ProofChain:
    """One replayable derivation segment.

    ``modulus`` is the ring of the starting expression (0 = exact; a
    :class:`ReduceMod` step may switch it mid-chain).  ``base_order`` is the
    evaluation order; after every passing assertion the running series is
    re-evaluated from the claimed stage at full order, so precision is spent
    only between consecutive assertions.
    """

    id: str
    section: str
    start: QExpr
    steps: tuple[ProofStep, ...]
    modulus: int = 0
    base_order: int = 512
    note: str = ""


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
    """Execute a chain's steps on a concrete series and report every stage.

    Too few surviving coefficients is a :class:`PrecisionError`, any other
    failure a :class:`VerificationError`; both name the chain and the stage
    or step."""
    n = chain.base_order if order is None else order
    t0 = time.perf_counter()
    ring = EXACT if chain.modulus == 0 else CoeffRing(chain.modulus)
    try:
        current = eval_qexpr(chain.start, ring, n)
    except Exception as exc:
        raise VerificationError(
            f"[chain {chain.id}] start: {type(exc).__name__}: {exc}") from exc
    lattice = 1  # current coordinate scale: q^lattice is the step
    pending: list[str] = []
    stages: list[StageReport] = []

    for i, step in enumerate(chain.steps, start=1):
        try:
            if isinstance(step, Substitute):
                pending.append(step.identity_id)
            elif isinstance(step, Extract):
                r = step.r * lattice
                lattice *= step.s
                current = series.dilate(series.extract(current, r, lattice), lattice)
            elif isinstance(step, DilateBack):
                if lattice % step.s:
                    raise ValueError(f"the lattice is {lattice}, not a multiple of {step.s}")
                current = series.extract(current, 0, step.s)
                lattice //= step.s
            elif isinstance(step, ReduceMod):
                current = series.reduce_mod(current, step.modulus)
                ring = CoeffRing(step.modulus)
            elif isinstance(step, AssertStage):
                claimed = eval_qexpr(step.expr, ring, n)
                compared = min(current.order, claimed.order)
                surviving = compared // lattice + 1
                if surviving < MIN_SURVIVING:
                    raise PrecisionError(
                        f"only {surviving} coefficients survive (need "
                        f"{MIN_SURVIVING}); raise the base order")
                ok, idx = series.eq_to_order(current, claimed, compared)
                if ok:
                    status, mismatch = "pass", None
                else:
                    mismatch = Mismatch(idx, current[idx], claimed[idx])
                    status = "erratum" if step.expect == "record" else "fail"
                stages.append(
                    StageReport(step.stage_id, status, surviving, tuple(pending), mismatch)
                )
                pending = []
                # continue from the claimed stage at full order (re-inflate); on a
                # mismatch this also localizes the discrepancy to one stage
                current = claimed
            else:  # pragma: no cover
                raise TypeError(f"unknown proof step {step!r}")
        except Exception as exc:
            where = (f"[chain {chain.id}] stage {step.stage_id}" if isinstance(step, AssertStage)
                     else f"[chain {chain.id}] step {i} {step}")
            if isinstance(exc, PrecisionError):
                raise PrecisionError(f"{where}: {exc}") from exc
            raise VerificationError(f"{where}: {type(exc).__name__}: {exc}") from exc

    ms = round((time.perf_counter() - t0) * 1000, 1)
    statuses = {stage.status for stage in stages}
    status = next((s for s in ("fail", "erratum") if s in statuses), "pass")
    return ChainReport(chain.id, status, n, chain.modulus, tuple(stages), ms, chain.note)
