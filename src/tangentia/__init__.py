"""Exact-arithmetic toolkit for counting rational plane curves maximally
tangent to a smooth cubic.

The pieces, bottom to top: the number rules, a generalized binomial and
the integer rule every size is read by (:mod:`~tangentia.rationals`),
multiple-cover contributions and instanton numbers
(:mod:`~tangentia.covers`), the torsion model of the cubic
(:mod:`~tangentia.torsion`), the Picard lattice of the blown-up plane
(:mod:`~tangentia.lattice`), the per-point curve census
(:mod:`~tangentia.census`), the invariant ledgers
(:mod:`~tangentia.assembly`), degeneration trees (:mod:`~tangentia.trees`),
and a self-verification battery (:mod:`~tangentia.verify`) also exposed on
the command line as ``tangentia verify-all``.

``import tangentia`` loads none of these modules.  Each name below, such as
``tangentia.multiple_cover``, resolves on first use by importing the module
that defines it (PEP 562), and is then the same object as that module's
attribute; ``tangentia.covers`` and the other module names resolve the same
way.  So a caller, and each ``tangentia`` subcommand, pays only for the
layers it runs.
"""
import sys

# every exported name, and the module that defines it
_EXPORTS = {
    **dict.fromkeys((
        "AssemblyMismatch", "GwLedger", "HypothesisViolation", "LedgerLine",
        "assemble_invariant", "instanton_census", "local_invariant",
        "pair_contribution", "reference_invariant",
    ), "assembly"),
    **dict.fromkeys((
        "CensusEntry", "Component", "NONFLEX_NINE", "aggregate_N",
        "boundary_census", "class_curve_counts", "count_M4", "euler_budget",
    ), "census"),
    **dict.fromkeys((
        "IntegralityRow", "divisors", "instanton_numbers", "integrality_report",
        "local_cover", "multiple_cover",
    ), "covers"),
    **dict.fromkeys((
        "CANONICAL", "ClassTableRow", "DivisorClass", "arithmetic_genus",
        "class_literal", "cremona_reduce", "cremona_steps", "enumerate_classes",
        "ordered_count", "pairing", "parse_class_literal", "tangency_degree",
    ), "lattice"),
    "binomial": "rationals",
    **dict.fromkeys((
        "Stratum", "TorsionPoint", "restriction_class", "solve_division",
        "stratify", "stratum_sizes", "torsion_points",
    ), "torsion"),
    **dict.fromkeys((
        "CombType", "WeightedCombType", "enumerate_types", "propagate_weights",
    ), "trees"),
    **dict.fromkeys(("CheckResult", "run_all_checks"), "verify"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def _layer(module: str):
    # __import__ rather than importlib.import_module: only the former is
    # timed by ``python -X importtime``, so a layer's cost stays visible
    __import__(f"{__name__}.{module}")
    return sys.modules[f"{__name__}.{module}"]


def __getattr__(name: str):
    if name in _EXPORTS.values():
        return _layer(name)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_layer(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
