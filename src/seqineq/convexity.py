"""Convexity certificates for sequences via three equivalent criteria.

A sequence u is convex when ``2*u[n] <= u[n-1] + u[n+1]`` at every interior
index.  Two further equivalent tests are checked independently so the
package can cross-certify its own answers:

* three-point slopes: ``(u[n2]-u[n1])/(n2-n1) <= (u[n3]-u[n2])/(n3-n2)``
  for all index triples ``n1 < n2 < n3``;
* existence of a monotone support sequence v with
  ``u[n] - u[m] <= v[n] * (n - m)`` for all m, n (a discrete subgradient).

All three are decided under one tolerance rule, in exact integers
(:func:`~seqineq.core.convexity_slack`): u is convex within tolerance iff
``u + phi`` is convex, where phi is 0 at the first two indices and its
second difference at n is the slack ``s_n = max(abs_tol, rel_tol *
max(|2*u[n]|, |u[n-1] + u[n+1]|))``.  Each criterion is applied to
``u + phi`` as it stands, with no further slack, so no verdict depends on
rounding or overflow.  :func:`certify_convexity` runs all three and insists
that they agree; a disagreement is a bug, not a property of the input.

The integers are built once per input and tolerance: each leg,
:func:`verify_support` and :func:`~seqineq.core.classify` read what they
need from the one memoized ``convexity_slack(u, tol)`` (the slack,
``u + phi`` and phi's steps) and modify none of it.  The legs stay
separate computations over it.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .core import DEFAULT_TOLERANCE, Sequence, ToleranceConfig, convexity_slack, frozen


@frozen
class ConvexityReport:
    """Outcome of the defining-inequality check.

    ``violations`` holds ``(n, defect)`` pairs for every interior absolute
    index n where ``2*u[n] > u[n-1] + u[n+1]`` beyond tolerance, with
    ``defect = 2*u[n] - u[n-1] - u[n+1]`` computed exactly and rounded once.
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
    """Joint verdict of the three convexity criteria on one sequence.

    ``support`` is :func:`support_sequence` of u, or None when u has fewer
    than 2 entries or a step of u overflows.  ``support_ok`` is the support
    leg's verdict on ``u + phi``, whose support sequence is the steps of
    ``u + phi`` when it is convex (see :func:`certify_convexity`).
    """

    defining: ConvexityReport
    slopes_ok: bool
    slope_violation: tuple[int, int, int] | None
    support: SupportSequence | None
    support_ok: bool

    @property
    def is_convex(self) -> bool:
        return self.defining.is_convex


def _supporting_lines(ty: list[int]):
    """Return ``holds(k, p, q)``: whether a line lies on or below every point.

    The line passes through ``(k, ty[k])`` with slope ``p / q``, ``q > 0``.  It
    lies below every point ``(m, ty[m])`` iff ``q*ty[m] - p*m`` is least at
    m = k, and that least value is taken at a vertex of the lower convex
    hull of the points.  The hull is built once with Andrew's monotone
    chain, and one pointer walks along it to the vertex that attains the
    minimum as the slope moves (both ways, so slopes that are not monotone
    only cost more steps).  Everything is exact integer arithmetic.
    """
    hull: list[int] = []
    for i, y in enumerate(ty):
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            if (ty[i2] - ty[i1]) * (i - i1) < (y - ty[i1]) * (i2 - i1):
                break
            hull.pop()  # i2 lies on or above the chord from i1 to i
        hull.append(i)
    hy = [ty[i] for i in hull]
    top = len(hull) - 1
    h = 0

    def holds(k: int, p: int, q: int) -> bool:
        nonlocal h
        while h < top and q * (hy[h + 1] - hy[h]) < p * (hull[h + 1] - hull[h]):
            h += 1
        while h > 0 and q * (hy[h - 1] - hy[h]) < p * (hull[h - 1] - hull[h]):
            h -= 1
        return q * (ty[k] - hy[h]) <= p * (k - hull[h])

    return holds


def check_defining_inequality(
    u: Sequence, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> ConvexityReport:
    """Check ``2*u[n] <= u[n-1] + u[n+1] + s_n`` at every interior index.

    The comparison is exact (see :func:`~seqineq.core.convexity_slack`), and
    each violation's defect is the exact ``2*u[n] - u[n-1] - u[n+1]``,
    rounded once.  A defect beyond the float range is raised as a
    ``ValueError`` naming ``u[n-1..n+1]``.
    """
    ys, slack, den, *_ = convexity_slack(u, tol)
    violations = []
    for n, x, y, z, s in zip(u.indices()[1:], ys, ys[1:], ys[2:], slack):
        defect = 2 * y - x - z
        if defect > s:
            try:
                violations.append((n, defect / den))
            except OverflowError:
                raise ValueError(f"second difference of u[{n - 1}..{n + 1}] overflows") from None
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
    """Check that the slopes of ``u + phi`` are monotone across index triples.

    The default mode checks adjacent triples only, that is, that the steps
    of ``u + phi`` are nondecreasing, which is equivalent and O(N).
    ``exhaustive=True`` scans all ``n1 < n2 < n3`` in lexicographic order
    and reports the first violating triple; it exists so the equivalence of
    the criteria can be tested without shortcuts.  Both are exact.
    """
    *_, ty, _ = convexity_slack(u, tol)
    base = u.start_index
    n = len(ty)
    if exhaustive:
        for i in range(n - 2):
            for j in range(i + 1, n - 1):
                rise, run = ty[j] - ty[i], j - i
                for k in range(j + 1, n):
                    if rise * (k - j) > (ty[k] - ty[j]) * run:
                        return SlopeCheck(False, (base + i, base + j, base + k))
        return SlopeCheck(True)
    for j in range(1, n - 1):
        if ty[j + 1] - ty[j] < ty[j] - ty[j - 1]:
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


def verify_support(
    u: Sequence, s: SupportSequence, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> SupportCheck:
    """Check a candidate support sequence against u.

    Accepts any candidate with finite values, not only the one built by
    :func:`support_sequence`.  The tolerance is that of the other criteria:
    v within tolerance of supporting u means that ``v[n] + lift[n]``
    supports ``u + phi`` exactly, where ``lift[n]`` is phi's step from n to
    n + 1.  Phi is convex and ``lift[n]`` is one of its slopes at n, so a
    support of u plus ``lift`` is a support of ``u + phi``.  The verdict is
    true iff ``(u + phi)[n] - (u + phi)[m] <= (v[n] + lift[n]) * (n - m)``
    for every m in u's range and n in the window, and ``v[n] + lift[n]``
    is nondecreasing.  Violating ``(m, n)`` pairs are listed either way;
    monotonicity violations are listed as adjacent window index pairs.

    Each window index n is one row of comparisons over m.  The lower convex
    hull of ``u + phi`` decides the rows of a monotone candidate in
    amortised O(1) each (see ``_supporting_lines``), and a failing row is
    scanned once, exactly, for its failing pairs.  A value that is not
    finite is a ``ValueError``.
    """
    if not (u.start_index <= s.first_index and s.last_index <= u.last_index):
        raise ValueError("support window outside sequence range")
    *_, den, ty, lift = convexity_slack(u, tol)
    base = u.start_index
    rows = []  # (n, p, q): v[n] + lift[n] == p / (q * den)
    for n, vn in enumerate(map(float, s.values), s.first_index):
        if not math.isfinite(vn):
            raise ValueError(f"support value v[{n}] = {vn!r} is not finite")
        p, q = vn.as_integer_ratio()
        rows.append((n, p * den + q * lift[n - base], q))
    holds = _supporting_lines(ty)
    sub = []
    for n, p, q in rows:
        k = n - base
        if not holds(k, p, q):
            least = q * ty[k] - p * k
            sub += [(base + m, n) for m, y in enumerate(ty) if q * y - p * m < least]
    mono = [(n, n + 1) for (n, p, q), (_, p1, q1) in zip(rows, rows[1:]) if p * q1 > p1 * q]
    return SupportCheck(not sub and not mono, tuple(sub), tuple(mono))


def certify_convexity(
    u: Sequence, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> ConvexityCertificate:
    """Run all three convexity criteria and assert that they agree.

    The support leg builds the least-step support of ``u + phi`` (the least
    step at or after each index, as :func:`support_sequence` does for u) and
    checks every row of it with the tangent walk along the lower convex
    hull of ``u + phi`` (see ``_supporting_lines``), without listing pairs.
    Sequences shorter than 2 have no row; the leg is then vacuously true.
    Like the other two legs it is exact, so the three verdicts are equal on
    every input: ``u + phi`` is convex iff its steps are nondecreasing iff
    its least-step support supports it.  A disagreement would be a bug and
    is raised as an internal error rather than folded into the certificate.
    """
    defining = check_defining_inequality(u, tol)
    slopes = check_three_point_slopes(u, tol)
    *_, ty, _ = convexity_slack(u, tol)
    steps = [b - a for a, b in zip(ty, ty[1:])]
    least = list(accumulate(reversed(steps), min))[::-1]
    holds = _supporting_lines(ty)
    support_ok = all(holds(k, p, 1) for k, p in enumerate(least))
    if not (defining.is_convex == slopes.ok == support_ok):
        raise RuntimeError(
            "convexity criteria disagree "
            f"(defining={defining.is_convex}, slopes={slopes.ok}, support={support_ok}); "
            "this is a bug"
        )
    try:
        support = support_sequence(u)
    except ValueError:  # fewer than 2 entries, or a step overflows
        support = None
    return ConvexityCertificate(
        defining=defining,
        slopes_ok=slopes.ok,
        slope_violation=slopes.first_violation,
        support=support,
        support_ok=support_ok,
    )
