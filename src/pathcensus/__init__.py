"""Exact per-type counts of oriented Hamiltonian paths in transitive
tournaments, with a brute-force oracle and scan/ranking tools."""

from .analysis import (
    DEFAULT_SCAN_LIMIT,
    ConjectureVerdict,
    Discrepancy,
    FamilyResult,
    OracleDiffReport,
    PropertySuiteReport,
    ScanReport,
    check_conjecture,
    check_conjectures,
    run_property_suite,
    runner_up_pattern,
    scan,
    tt_count,
    verify_against_oracle,
    verify_tournament_invariants,
)
from .engine import MemoTable, f_recurrence, f_two_block, f_value, f_walk
from .errors import (
    InvalidOrder,
    OrderTooLarge,
    OutOfRange,
    ParseError,
    PathCensusError,
    ScanTooLarge,
    TheoremViolation,
    TypeOrderMismatch,
    UndefinedType,
)
from .oracle import (
    CENSUS_LIMIT,
    Tournament,
    TypeCensus,
    census,
    complement,
    count_type,
    make_nearly_transitive,
    make_random,
    make_tournament,
    make_transitive,
)
from .types import (
    canonical_key,
    check_signed_type,
    compositions,
    derive_children,
    format_entries,
    is_symmetric,
    negate,
    parse_composition,
    parse_signed_type,
    reverse,
    signed_lift,
    unsigned,
)

__version__ = "0.1.0"
