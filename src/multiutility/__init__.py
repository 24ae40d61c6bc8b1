"""Exact multi-utility representations of preferences over lotteries.

A finite dataset of revealed preferences spans a polyhedral cone of signed
measures; its dual cone, read modulo constant payoff shifts, is a finite set
of utility vectors that reproduces every entailed comparison through expected
payoffs.  All arithmetic is exact rational: verdicts come with certificates
that recombine or separate, never with tolerances.

Importing the package loads none of its modules: each public name is looked
up in ``_HOME`` and its module loaded on first use (PEP 562).
"""

# public name -> the module that defines it
_HOME = {
    name: module
    for module, names in {
        "cones": """DimensionMismatchError EmptyUtilitySetError MembershipCertificate PolyhedralCone
            canonical_rep cone_equal cone_from_generators cone_from_inequalities contains dual_cone
            membership verify_membership""",
        "counterexample": """TruncatedConstruction TruncationRangeError anchor_membership build_truncation
            inequality_chain lab lab_table separation_cost""",
        "linprog": "CertificateError ExactLP INFEASIBLE LPResult OPTIMAL",
        "measures": """Decomposition DegenerateSpaceError Lottery Measure MixtureRangeError NotLotteryError
            NotZeroSumError OutcomeSpace SpaceMismatchError UnknownOutcomeError Utility decompose
            expectation mix norm""",
        "preferences": """ENTAILED_ONLY INCOMPARABLE INDIFFERENT REVERSE_ONLY MonotoneStructure
            PreferenceDataset QueryVerdict Representation check_increasing check_uniqueness
            extract_representation monotone_extend query""",
    }.items()
    for name in names.split()
}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
