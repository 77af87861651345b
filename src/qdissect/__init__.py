"""qdissect: truncated q-series engine and congruence verification harness.

The package verifies eta-quotient dissection identities, replays derivation
chains move by move on truncated series, and checks arithmetic-progression
congruence families for regular-bipartition counting streams against an
independent combinatorial oracle.
"""

from .series import (
    EXACT,
    CoeffRing,
    NonUnitError,
    PrecisionError,
    RingMismatchError,
    Series,
    add,
    dilate,
    eq_to_order,
    extract,
    invert,
    monomial,
    mul,
    one,
    pow_,
    reduce_mod,
    scalar_mul,
    sub,
    zero,
)
from .qexpr import (
    Const,
    Dilate,
    EtaF,
    Mul,
    Pochhammer,
    Pow,
    Q,
    QExpr,
    Sum,
    Theta,
    cubic_u,
    cubic_v,
    eval_qexpr,
    parse_sexpr,
    rr_quotient,
    rr_quotient_13,
    theta_sum,
)
from .oracle import (
    CountTable,
    coeff_fast,
    dp_counts,
)
from .identities import (
    ChainReport,
    DilateBack,
    Extract,
    IdentityCase,
    IdentityReport,
    ProofChain,
    ReduceMod,
    Stage,
    StageReport,
    VerificationError,
    replay,
    verify,
)
from .registry import Registry, registry
from .congruences import (
    SEQUENCES,
    AffineIndex,
    CongruenceFamily,
    FamilyReport,
    RecurrenceSeq,
    SourceSpec,
    Term,
    build_families,
    recurrence_consistency_checks,
    seq_eval,
    verify_family,
)

__version__ = "0.1.0"
