"""Analysis toolkit for convex and approximately subadditive sequences.

Given a finite real-valued sequence, the package can

* certify or refute convexity through three independent criteria
  (defining inequality, slope monotonicity, support sequences);
* build local quadratic interpolants whose curvature mirrors the second
  differences, and the global Lagrange interpolant for contrast;
* compute the subadditive hull over integer partitions, the minimal
  approximation defect ``epsilon_star``, and the stability decomposition
  ``u = v + w`` into a subadditive part plus a small remainder.

A command-line front end (``seqineq``) exposes every analysis on CSV and
JSON sequence files; see :mod:`seqineq.cli`.
"""

__version__ = "0.1.0"

# module -> the public names it defines.  ``import seqineq`` imports none
# of them: ``__getattr__`` (PEP 562) imports a name's module on first use,
# so that a script or a command loads only the analyses it calls.
_EXPORTS = {
    "core": (
        "DEFAULT_TOLERANCE",
        "ClassificationFlags",
        "MediantReport",
        "Sequence",
        "ToleranceConfig",
        "classify",
        "forward_differences",
        "mediant_bounds",
        "second_differences",
    ),
    "convexity": (
        "ConvexityCertificate",
        "ConvexityReport",
        "SlopeCheck",
        "SupportCheck",
        "SupportSequence",
        "certify_convexity",
        "check_defining_inequality",
        "check_three_point_slopes",
        "slope",
        "support_sequence",
        "verify_support",
    ),
    "interpolation": (
        "CONDITIONING_WARN_DEGREE",
        "MAX_LAGRANGE_DEGREE",
        "Polynomial",
        "QuadraticPiece",
        "lagrange_polynomial",
        "polynomial_convexity_on_interval",
        "quadratic_piece",
        "spline_eval",
        "spline_samples",
    ),
    "subadditivity": (
        "ORACLE_MAX_N",
        "CompositionResult",
        "Decomposition",
        "HullResult",
        "PairwiseCheck",
        "PartitionWitness",
        "compose",
        "decompose",
        "enumerate_partitions",
        "epsilon_star",
        "hull_bruteforce",
        "is_approx_subadditive",
        "is_subadditive_pairwise",
        "subadditive_hull",
    ),
    "sequence_io": (
        "format_sequence_csv",
        "format_sequence_json",
        "parse_sequence_csv",
        "parse_sequence_json",
        "read_sequence",
        "write_sequence",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
