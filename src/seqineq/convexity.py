"""Convexity certificates for sequences via three equivalent criteria.

A sequence u is convex when ``2*u[n] <= u[n-1] + u[n+1]`` at every interior
index.  Two further equivalent tests are checked independently so the
package can cross-certify its own answers:

* three-point slopes: ``(u[n2]-u[n1])/(n2-n1) <= (u[n3]-u[n2])/(n3-n2)``
  for all index triples ``n1 < n2 < n3``;
* existence of a monotone support sequence v with
  ``u[n] - u[m] <= v[n] * (n - m)`` for all m, n (a discrete subgradient).

:func:`certify_convexity` runs all three and insists that they agree; a
disagreement beyond tolerance is a bug, not a property of the input.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .core import DEFAULT_TOLERANCE, PURE_ROWS_MAX_N, Sequence, ToleranceConfig, defining_sides, dyadic_integers, frozen


@frozen
class ConvexityReport:
    """Outcome of the defining-inequality check.

    ``violations`` holds ``(n, defect)`` pairs for every interior absolute
    index n where ``2*u[n] > u[n-1] + u[n+1]`` beyond tolerance, with
    ``defect = 2*u[n] - u[n-1] - u[n+1]``.
    """

    is_convex: bool
    violations: tuple[tuple[int, float], ...] = ()


@frozen
class SlopeCheck:
    """Boolean verdict of the slope-monotonicity check plus the first bad triple."""

    ok: bool
    first_violation: tuple[int, int, int] | None = None


@frozen
class SupportSequence:
    """Candidate discrete subgradient v for a sequence u.

    ``values[k]`` is v at absolute index ``first_index + k``; the window
    ``[first_index, last_index]`` covers all indices of u except the last.
    ``witness_pairs[k]``, when present, is the index pair whose slope
    realizes ``values[k]`` (lexicographically smallest among minimizers).
    """

    base: Sequence
    values: tuple[float, ...]
    first_index: int
    last_index: int
    witness_pairs: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if len(self.values) != self.last_index - self.first_index + 1:
            raise ValueError("support window does not match number of values")
        if self.witness_pairs is not None and len(self.witness_pairs) != len(self.values):
            raise ValueError("witness pairs do not match number of values")

    def value_at(self, n: int) -> float:
        if not self.first_index <= n <= self.last_index:
            raise IndexError(f"index {n} outside [{self.first_index}, {self.last_index}]")
        return self.values[n - self.first_index]


@frozen
class SupportCheck:
    """Outcome of :func:`verify_support`: subgradient and monotonicity violations."""

    ok: bool
    subgradient_violations: tuple[tuple[int, int], ...] = ()
    monotonicity_violations: tuple[tuple[int, int], ...] = ()


@frozen
class ConvexityCertificate:
    """Joint verdict of the three convexity criteria on one sequence."""

    defining: ConvexityReport
    slopes_ok: bool
    slope_violation: tuple[int, int, int] | None
    support: SupportSequence | None
    support_ok: bool

    @property
    def is_convex(self) -> bool:
        return self.defining.is_convex


def check_defining_inequality(
    u: Sequence, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> ConvexityReport:
    """Check ``2*u[n] <= u[n-1] + u[n+1]`` at every interior index.

    A side, or the defect of a violation, that overflows is raised as a
    ``ValueError`` naming ``u[n-1..n+1]`` (see :func:`~seqineq.core.defining_sides`).
    """
    v = u.values
    violations = []
    for k, (twice, outer) in enumerate(defining_sides(u), 1):
        if not tol.leq(twice, outer):
            defect = twice - v[k - 1] - v[k + 1]
            n = u.start_index + k
            if math.isinf(defect):
                raise ValueError(f"second difference of u[{n - 1}..{n + 1}] overflows")
            violations.append((n, defect))
    return ConvexityReport(not violations, tuple(violations))


def slope(u: Sequence, i: int, j: int) -> float:
    """Divided difference ``(u[j] - u[i]) / (j - i)`` over absolute indices."""
    if i == j:
        raise ValueError("degenerate slope")
    return (u[j] - u[i]) / (j - i)


def check_three_point_slopes(
    u: Sequence,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
    exhaustive: bool = False,
) -> SlopeCheck:
    """Check that slopes are monotone across index triples.

    The default mode checks adjacent triples only, which is equivalent and
    O(N).  ``exhaustive=True`` scans all ``n1 < n2 < n3`` in lexicographic
    order and reports the first violating triple; it exists so the
    equivalence of the criteria can be tested without shortcuts.
    """
    n = len(u)
    if n < 3:
        return SlopeCheck(True)
    v = u.values
    base = u.start_index
    if exhaustive:
        for i in range(n - 2):
            for j in range(i + 1, n - 1):
                left = (v[j] - v[i]) / (j - i)
                for k in range(j + 1, n):
                    right = (v[k] - v[j]) / (k - j)
                    if not tol.leq(left, right):
                        return SlopeCheck(False, (base + i, base + j, base + k))
        return SlopeCheck(True)
    for j in range(1, n - 1):
        if not tol.leq(v[j] - v[j - 1], v[j + 1] - v[j]):
            return SlopeCheck(False, (base + j - 1, base + j, base + j + 1))
    return SlopeCheck(True)


def support_sequence(u: Sequence) -> SupportSequence:
    """Build the canonical support candidate ``v[n] = min slope over pairs at or after n``.

    For each n in ``[start_index, last_index - 1]``, ``v[n]`` is the least
    adjacent step ``u[k+1] - u[k]`` over ``n <= k < last_index``, and its
    witness pair is ``(k, k+1)`` for the smallest such k.  In exact
    arithmetic this is the least slope over all pairs ``n <= n1 < n2``: the
    slope of a chord is the mean of the adjacent steps it spans, so it is
    never below the least of them, and equals it only when all of them do.
    Rounding is monotone, so the least rounded step is the correctly rounded
    least slope, and on integer-valued input every step is exact.  For a
    convex u, v is the adjacent slope ``u[n+1] - u[n]`` and monotone; for a
    non-convex u the candidate always fails :func:`verify_support`.  A step
    that overflows is raised as a ``ValueError`` naming the first such n.
    One right-to-left pass, O(N).
    """
    if len(u) < 2:
        raise ValueError("sequence too short")
    vals = u.values
    base = u.start_index
    steps = [b - a for a, b in zip(vals, vals[1:])]
    for n, step in enumerate(steps, base):
        if math.isinf(step):
            raise ValueError(f"support sequence overflows at n={n}: u[{n + 1}] - u[{n}] = {step!r}")
    v = [0.0] * len(steps)
    witnesses = [(0, 0)] * len(steps)
    best = math.inf
    best_pair = (0, 0)
    # Ties prefer the smaller k (``<=``), with its own bits.
    for k in range(len(steps) - 1, -1, -1):
        if steps[k] <= best:
            best = steps[k]
            best_pair = (base + k, base + k + 1)
        v[k] = best
        witnesses[k] = best_pair
    return SupportSequence(
        base=u,
        values=tuple(v),
        first_index=base,
        last_index=base + len(steps) - 1,
        witness_pairs=tuple(witnesses),
    )


# Smallest rel_tol at which _row_certifier certifies rows: 8 units of
# roundoff, twice what its rounding bound needs.
_MIN_CERTIFIED_REL_TOL = 2.0**-50


def _row_certifier(u: Sequence, tol: ToleranceConfig):
    """Return a test ``certified(n, vn)`` that proves a support row passes.

    Row n of :func:`verify_support` checks ``tol.leq(u[n] - u[m], vn * (n -
    m))`` for every m.  In exact arithmetic the pair m holds by the margin
    ``(u[m] - vn*m) - (u[n] - vn*n)``, and the row's smallest margin is
    ``G = min_m (u[m] - vn*m) - (u[n] - vn*n) <= 0``, the gap between the
    line through ``(n, u[n])`` with slope vn and the lower convex hull of
    the points ``(m, u[m])``.  Every float is a dyadic rational, so the
    points are scaled to integers by one power of two, the hull is built
    once with Andrew's monotone chain, and one pointer walks along it to the
    vertex that attains the minimum as vn moves (both ways, so a
    non-monotone candidate only costs more steps).

    The test is true only when ``-G <= |vn| * rel_tol / 2`` exactly and the
    row's floats cannot overflow or underflow.  Then every pair passes: for
    m != n, with ``x = fl(u[n] - u[m])``, ``y = fl(vn * (n - m))``, ``M =
    max(|x|, |y|) >= |vn|`` and unit roundoff ``e = 2**-53``, ``x - y <= -G
    + 2e/(1-e) * M <= (rel_tol/2 + 2e/(1-e)) * M``, which for ``rel_tol >=
    8e`` is below ``rel_tol * M * (1-e)``, a lower bound on the slack.  So
    ``x <= y + slack`` holds exactly, and rounding the sum cannot take it
    below the float x.  At m = n both sides are zero, and for vn = 0 the
    test demands G = 0, which makes every x <= 0.  Smaller or absolute-only
    tolerances, non-finite slopes and near-overflow or near-underflow
    magnitudes certify nothing, and such rows run in full.
    """
    vals = u.values
    # Entries up to 2**1022 keep every u[n] - u[m] finite.
    if tol.rel_tol < _MIN_CERTIFIED_REL_TOL or max(map(abs, vals)) > 2.0**1022:
        return lambda n, vn: False
    ys, den = dyadic_integers(vals)
    hull: list[int] = []
    for i, y in enumerate(ys):
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            if (ys[i2] - ys[i1]) * (i - i1) < (y - ys[i1]) * (i2 - i1):
                break
            hull.pop()  # i2 lies on or above the chord from i1 to i
        hull.append(i)
    hy = [ys[i] for i in hull]
    top = len(hull) - 1
    a, b = (tol.rel_tol / 2).as_integer_ratio()
    tol_num = den * a
    max_slope = 2.0**1021 / len(vals)  # keeps |vn * (n - m)| finite
    min_slope = 2.0**-1020 / min(tol.rel_tol, 1.0)  # keeps vn * (n - m) and the slack normal
    base = u.start_index
    h = 0

    def certified(n: int, vn: float) -> bool:
        nonlocal h
        if vn != 0.0 and not min_slope <= abs(vn) <= max_slope:
            return False  # also false for inf and nan
        p, q = vn.as_integer_ratio()
        pd = p * den
        # f(i) = q * ys[i] - pd * i is q * den * (u[i] - vn * i); step to
        # the hull vertex that minimises it.
        while h < top and q * (hy[h + 1] - hy[h]) < pd * (hull[h + 1] - hull[h]):
            h += 1
        while h > 0 and q * (hy[h - 1] - hy[h]) < pd * (hull[h - 1] - hull[h]):
            h -= 1
        i = n - base
        return (q * (ys[i] - hy[h]) - pd * (i - hull[h])) * b <= abs(p) * tol_num

    return certified


def _pure_row_test(u: Sequence, tol: ToleranceConfig):
    """Return ``failing(n, vn)``, the m in increasing order whose pair (m, n) fails.

    Each row is a pure-Python list.
    """
    vals = u.values
    base = u.start_index

    def failing(n: int, vn: float) -> list[int]:
        un = u[n]
        return [m for m, x in enumerate(vals, base) if not tol.leq(un - x, vn * (n - m))]

    return failing


def _row_test(u: Sequence, tol: ToleranceConfig):
    """``_pure_row_test`` when ``len(u) <= PURE_ROWS_MAX_N``; numpy rows above it.

    Both return the same lists.
    """
    if len(u) <= PURE_ROWS_MAX_N:
        return _pure_row_test(u, tol)
    import numpy as np

    arr = np.array(u.values)
    base = u.start_index
    ms = np.arange(float(base), u.last_index + 1)

    def failing(n: int, vn: float) -> list[int]:
        with np.errstate(over="ignore", invalid="ignore"):
            ok = tol.leq_mask(u[n] - arr, vn * (n - ms))
        return (np.flatnonzero(~ok) + base).tolist()

    return failing


def _failing_support_pairs(
    u: Sequence, s: SupportSequence, tol: ToleranceConfig
) -> Iterator[tuple[int, int]]:
    """Yield the ``(m, n)`` pairs that fail :func:`verify_support`'s subgradient test.

    Pairs come row by row in window order, m increasing within a row.  A row
    that ``_row_certifier`` proves to pass is skipped; every other row runs
    in full.  The first such row is a pure-Python row: it often fails, which
    ends a caller that wants only the first pair, and a pure row costs less
    than importing numpy.  ``_row_test`` is built at the second, so an input
    with at most one uncertified row never loads numpy.
    """
    certified = _row_certifier(u, tol)
    rows = (
        (n, vn)
        for n, vn in enumerate(map(float, s.values), s.first_index)
        if not certified(n, vn)
    )
    failing = _pure_row_test(u, tol)
    for k, (n, vn) in enumerate(rows):
        if k == 1:
            failing = _row_test(u, tol)
        for m in failing(n, vn):
            yield m, n


def _monotonicity_violations(s: SupportSequence, tol: ToleranceConfig) -> list[tuple[int, int]]:
    v = [float(x) for x in s.values]
    return [
        (n, n + 1)
        for n, (a, b) in enumerate(zip(v, v[1:]), s.first_index)
        if not tol.leq(a, b)
    ]


def verify_support(
    u: Sequence, s: SupportSequence, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> SupportCheck:
    """Check a candidate support sequence against u.

    Accepts any candidate, not only the one built by :func:`support_sequence`.
    The verdict is true iff ``u[n] - u[m] <= v[n] * (n - m)`` within
    tolerance for every m in u's range and n in the support window, and v is
    monotone increasing.  Violating ``(m, n)`` pairs are listed either way;
    monotonicity violations are listed as adjacent window index pairs.

    Each window index n is one row of comparisons over m.  A row that the
    lower convex hull of u proves to pass is skipped (see
    ``_row_certifier``; it needs ``rel_tol >= 2**-50``).  Every other row
    runs in full: the first as a pure-Python row, the rest as pure-Python
    rows when ``len(u) <= PURE_ROWS_MAX_N`` and numpy rows above it, with
    equal verdicts.  So the lists are those of the full O(N^2) scan, and
    only the rows that are not certified, such as failing ones, cost O(N)
    each.
    """
    if not (u.start_index <= s.first_index and s.last_index <= u.last_index):
        raise ValueError("support window outside sequence range")
    sub = list(_failing_support_pairs(u, s, tol))
    mono = _monotonicity_violations(s, tol)
    return SupportCheck(not sub and not mono, tuple(sub), tuple(mono))


def certify_convexity(
    u: Sequence, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> ConvexityCertificate:
    """Run all three convexity criteria and assert that they agree.

    Sequences shorter than 2 carry no support sequence; the support leg is
    then vacuously true; on longer ones :func:`support_sequence` raises a
    ``ValueError`` when an adjacent step overflows.  The support leg gives
    the verdict of
    :func:`verify_support` without building its lists: it skips the rows
    that the lower convex hull certifies and stops at the first failing
    pair.  If that pair's terms ``u[n] - u[m]`` or ``v[n] * (n - m)``
    overflow, a ``ValueError`` names the pair: an infinite term makes the
    slack infinite or the comparison nan, so the float verdict says
    nothing.  The canonical candidate is nondecreasing by construction, so
    the monotonicity half of :func:`verify_support` always passes and is not
    run.  The three verdicts agree on any input whose margins are not at
    the tolerance boundary; a disagreement is raised as an internal error
    rather than folded into the certificate.
    """
    defining = check_defining_inequality(u, tol)
    slopes = check_three_point_slopes(u, tol)
    if len(u) >= 2:
        support = support_sequence(u)
        pair = next(_failing_support_pairs(u, support, tol), None)
        if pair is not None:
            m, n = pair
            vn = support.value_at(n)
            x, y = u[n] - u[m], vn * (n - m)
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(
                    f"support check overflows at (m, n) = ({m}, {n}): u[{n}] - u[{m}] = {x!r}, "
                    f"v[{n}] = {vn!r}, v[{n}] * ({n} - {m}) = {y!r}"
                )
        support_ok = pair is None
    else:
        support = None
        support_ok = True
    if not (defining.is_convex == slopes.ok == support_ok):
        raise RuntimeError(
            "convexity criteria disagree "
            f"(defining={defining.is_convex}, slopes={slopes.ok}, support={support_ok}); "
            "input sits at the tolerance boundary or this is a bug"
        )
    return ConvexityCertificate(
        defining=defining,
        slopes_ok=slopes.ok,
        slope_violation=slopes.first_violation,
        support=support,
        support_ok=support_ok,
    )
