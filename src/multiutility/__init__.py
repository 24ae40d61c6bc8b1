"""Exact multi-utility representations of preferences over lotteries.

A finite dataset of revealed preferences spans a polyhedral cone of signed
measures; its dual cone, read modulo constant payoff shifts, is a finite set
of utility vectors that reproduces every entailed comparison through expected
payoffs.  All arithmetic is exact rational: verdicts come with certificates
that recombine or separate, never with tolerances.
"""
from types import ModuleType as _ModuleType

from .cones import (
    CertificateError,
    DimensionMismatchError,
    EmptyUtilitySetError,
    MembershipCertificate,
    PolyhedralCone,
    canonical_rep,
    cone_equal,
    cone_from_generators,
    cone_from_inequalities,
    contains,
    dual_cone,
    membership,
    verify_membership,
)
from .counterexample import (
    TruncatedConstruction,
    TruncationRangeError,
    anchor_membership,
    build_truncation,
    inequality_chain,
    lab,
    lab_table,
    separation_cost,
)
from .linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, ExactLP, LPResult
from .measures import (
    Decomposition,
    DegenerateSpaceError,
    Lottery,
    Measure,
    MixtureRangeError,
    NotLotteryError,
    NotZeroSumError,
    OutcomeSpace,
    SpaceMismatchError,
    UnknownOutcomeError,
    Utility,
    decompose,
    expectation,
    mix,
    norm,
)
from .preferences import (
    ENTAILED_ONLY,
    INCOMPARABLE,
    INDIFFERENT,
    REVERSE_ONLY,
    MonotoneStructure,
    PreferenceDataset,
    QueryVerdict,
    Representation,
    check_increasing,
    check_uniqueness,
    extract_representation,
    monotone_extend,
    query,
)

__version__ = "0.1.0"

__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType))
