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

from .core import (
    DEFAULT_TOLERANCE,
    ClassificationFlags,
    MediantReport,
    Sequence,
    ToleranceConfig,
    classify,
    forward_differences,
    mediant_bounds,
    second_differences,
)
from .convexity import (
    ConvexityCertificate,
    ConvexityReport,
    SlopeCheck,
    SupportCheck,
    SupportSequence,
    certify_convexity,
    check_defining_inequality,
    check_three_point_slopes,
    slope,
    support_sequence,
    verify_support,
)
from .interpolation import (
    CONDITIONING_WARN_DEGREE,
    MAX_LAGRANGE_DEGREE,
    Polynomial,
    QuadraticPiece,
    lagrange_polynomial,
    polynomial_convexity_on_interval,
    quadratic_piece,
    spline_eval,
    spline_samples,
)
from .subadditivity import (
    ORACLE_MAX_N,
    CompositionResult,
    Decomposition,
    HullResult,
    PairwiseCheck,
    PartitionWitness,
    compose,
    decompose,
    enumerate_partitions,
    epsilon_star,
    hull_bruteforce,
    is_approx_subadditive,
    is_subadditive_pairwise,
    subadditive_hull,
)
from .sequence_io import (
    format_sequence_csv,
    format_sequence_json,
    parse_sequence_csv,
    parse_sequence_json,
    read_sequence,
    write_sequence,
)

__all__ = [
    "__version__",
    "DEFAULT_TOLERANCE",
    "ClassificationFlags",
    "MediantReport",
    "Sequence",
    "ToleranceConfig",
    "classify",
    "forward_differences",
    "mediant_bounds",
    "second_differences",
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
    "CONDITIONING_WARN_DEGREE",
    "MAX_LAGRANGE_DEGREE",
    "Polynomial",
    "QuadraticPiece",
    "lagrange_polynomial",
    "polynomial_convexity_on_interval",
    "quadratic_piece",
    "spline_eval",
    "spline_samples",
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
    "format_sequence_csv",
    "format_sequence_json",
    "parse_sequence_csv",
    "parse_sequence_json",
    "read_sequence",
    "write_sequence",
]
