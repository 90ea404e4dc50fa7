"""Exact-arithmetic toolkit for counting rational plane curves maximally
tangent to a smooth cubic.

The pieces, bottom to top: exact rationals and a generalized binomial
(:mod:`~tangentia.rationals`), multiple-cover contributions and instanton
numbers (:mod:`~tangentia.covers`), the torsion model of the cubic
(:mod:`~tangentia.torsion`), the Picard lattice of the blown-up plane
(:mod:`~tangentia.lattice`), the per-point curve census
(:mod:`~tangentia.census`), the invariant ledgers
(:mod:`~tangentia.assembly`), degeneration trees (:mod:`~tangentia.trees`),
and a self-verification battery (:mod:`~tangentia.verify`) also exposed on
the command line as ``tangentia verify-all``.
"""
from .assembly import (
    AssemblyMismatch,
    GwLedger,
    HypothesisViolation,
    LedgerLine,
    assemble_invariant,
    instanton_census,
    local_invariant,
    pair_contribution,
    reference_invariant,
)
from .census import (
    CensusEntry,
    Component,
    NONFLEX_NINE,
    aggregate_N,
    boundary_census,
    class_curve_counts,
    count_M4,
    euler_budget,
)
from .covers import (
    IntegralityRow,
    divisors,
    instanton_numbers,
    integrality_report,
    local_cover,
    multiple_cover,
)
from .lattice import (
    CANONICAL,
    ClassTableRow,
    DivisorClass,
    arithmetic_genus,
    class_literal,
    cremona_reduce,
    cremona_steps,
    enumerate_classes,
    ordered_count,
    pairing,
    parse_class_literal,
    tangency_degree,
)
from .rationals import binomial
from .torsion import (
    Stratum,
    TorsionPoint,
    restriction_class,
    solve_division,
    stratify,
    stratum_sizes,
    torsion_points,
)
from .trees import (
    CombType,
    WeightedCombType,
    enumerate_types,
    propagate_weights,
)
from .verify import CheckResult, run_all_checks

__version__ = "0.1.0"
