"""Polynomial views of a sequence: local quadratics and the global interpolant.

Each interior index n of a sequence carries a unique parabola through the
three points ``(n-1, u[n-1])``, ``(n, u[n])``, ``(n+1, u[n+1])``.  Its second
derivative is exactly the second difference at n, so the sequence is convex
iff every local piece is a convex parabola.  The global Lagrange interpolant
through all points has no such property: a sequence can be convex while its
interpolating polynomial is neither convex nor concave on the node interval,
which is why the local pieces are the honest convexity witnesses.

The global interpolant is computed, and its convexity class decided, in
exact integer arithmetic; only the coefficients it reports are rounded.
"""

from __future__ import annotations

import math
import warnings

from .core import DEFAULT_TOLERANCE, Sequence, ToleranceConfig, dyadic_integers, frozen

MAX_LAGRANGE_DEGREE = 64
CONDITIONING_WARN_DEGREE = 20


@frozen(hidden=("exact",))
class Polynomial:
    """Dense polynomial ``c[0] + c[1]*x + c[2]*x**2 + ...`` (ascending).

    Trailing zero coefficients are stripped on construction, so the last
    coefficient is nonzero unless the polynomial is identically zero, which
    is represented as ``(0.0,)``.

    ``exact`` is the polynomial the floats stand for, as ``(numerators,
    denominator)``: the coefficient of ``x**k`` is ``numerators[k] /
    denominator``, stripped the same way.  It defaults to the floats' own
    values; :func:`lagrange_polynomial` passes the interpolant's, of which
    the floats are the rounding.
    """

    coefficients: tuple[float, ...]
    exact: tuple[tuple[int, ...], int] | None = None

    def __post_init__(self) -> None:
        coeffs = _stripped(tuple(float(c) for c in self.coefficients) or (0.0,))
        if any(not math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        nums, den = self.exact or dyadic_integers(coeffs)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "exact", (_stripped(tuple(nums)), den))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return self.coefficients == (0.0,)

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        """The derivative of ``exact``, each coefficient rounded once.

        It carries its exact form, numerators ``k * numerators[k]`` over the
        same denominator.
        """
        nums, den = self.exact
        derived = tuple(k * n for k, n in enumerate(nums))[1:] or (0,)
        try:
            coefficients = tuple(n / den for n in derived)
        except OverflowError:
            raise ValueError("coefficients must be finite") from None
        return Polynomial(coefficients, (derived, den))


def _stripped(coeffs: tuple) -> tuple:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


@frozen
class QuadraticPiece:
    """Parabola ``a*x**2 + b*x + c`` through three consecutive sequence points.

    Valid on ``[center - 1, center + 1]``; its second derivative ``2*a``
    equals the second difference of the sequence at the center.
    """

    center: int
    a: float
    b: float
    c: float

    @property
    def domain(self) -> tuple[float, float]:
        return (self.center - 1.0, self.center + 1.0)

    @property
    def second_derivative(self) -> float:
        return 2.0 * self.a

    def __call__(self, x: float) -> float:
        return (self.a * x + self.b) * x + self.c


def quadratic_piece(u: Sequence, n: int) -> QuadraticPiece:
    """Local quadratic interpolant of u at interior absolute index n.

    Coefficients come from the closed form of the three-point interpolation
    problem:

        a = (u[n-1] + u[n+1]) / 2 - u[n]
        b = (u[n+1] - u[n-1]) / 2 - 2*a*n
        c = a*n**2 - ((u[n+1] - u[n-1]) / 2) * n + u[n]

    Finite entries can still give an infinite coefficient; that is raised
    as overflow at n.
    """
    if not (u.start_index + 1 <= n <= u.last_index - 1):
        raise ValueError(f"index {n} is not interior to the sequence")
    lo, mid, hi = u[n - 1], u[n], u[n + 1]
    a = (lo + hi) / 2.0 - mid
    half_gap = (hi - lo) / 2.0
    b = half_gap - 2.0 * a * n
    c = a * n * n - half_gap * n + mid
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ValueError(f"quadratic piece at n={n} overflows")
    return QuadraticPiece(n, a, b, c)


def spline_center(u: Sequence, x: float) -> int:
    """Center of the piece that :func:`spline_eval` uses at x.

    The interior index nearest to x (round half to even), clamped to the
    interior range.  x must lie in ``[start_index, last_index]`` and the
    sequence must have at least one interior point; otherwise the point is
    outside the spline domain.
    """
    first_center = u.start_index + 1
    last_center = u.last_index - 1
    if first_center > last_center:
        raise ValueError("outside spline domain")
    x = float(x)
    if not (first_center - 1 <= x <= last_center + 1):
        raise ValueError("outside spline domain")
    return min(max(int(round(x)), first_center), last_center)


def spline_eval(u: Sequence, x: float) -> float:
    """Evaluate the piecewise-quadratic view of u at a real point x.

    The piece used is the one centered at :func:`spline_center` of x.
    """
    return quadratic_piece(u, spline_center(u, x))(float(x))


def spline_samples(pieces: list[QuadraticPiece], per_unit: int) -> list[tuple[float, float]]:
    """``(x, spline_eval(u, x))`` on a grid of ``per_unit`` samples per unit.

    ``pieces`` must be ``quadratic_piece(u, n)`` for every interior n of u,
    in order.  The grid is ``i + t / per_unit`` for each index i but the
    last and each t in ``range(per_unit)``, then the last index as a float.
    Each y is the value of the piece that :func:`spline_center` picks, bit
    for bit; the grid lies in the spline domain, so no point is checked.
    """
    first = pieces[0].center
    last = pieces[-1].center
    steps = [t / per_unit for t in range(per_unit)]
    xs = [i + step for i in range(first - 1, last + 1) for step in steps]
    xs.append(float(last + 1))
    # round(x) runs from first - 1 to last + 1; an end piece at each end of
    # the list does the clamp to the interior.
    coefficients = [(p.a, p.b, p.c) for p in (pieces[0], *pieces, pieces[-1])]
    offset = first - 1
    return [
        (x, (a * x + b) * x + c)
        for x in xs
        for a, b, c in [coefficients[round(x) - offset]]
    ]


def lagrange_polynomial(u: Sequence) -> Polynomial:
    """Monomial coefficients of the interpolant through ``(n, u[n])`` for all n.

    Computed exactly in integers.  The values are scaled to integers ys by
    one power of two, ``u[n] = ys[n] / den``.  The nodes are unit-spaced, so
    the Newton coefficients are the forward differences ``Δ^k ys / (k! den)``,
    and ``m! den p``, for degree m, has integer monomial coefficients.  Each
    reported coefficient is its numerator over ``m! den``, correctly
    rounded; one beyond float range raises a ValueError that names it,
    before any warning.  The returned polynomial carries the exact form,
    which is what :func:`polynomial_convexity_on_interval` classifies.  The
    rounded monomial coefficients are ill-conditioned for long sequences:
    degrees above ``CONDITIONING_WARN_DEGREE`` trigger a RuntimeWarning and
    degrees above ``MAX_LAGRANGE_DEGREE`` are rejected outright.
    """
    degree = len(u) - 1
    if degree > MAX_LAGRANGE_DEGREE:
        raise ValueError(
            f"degree {degree} above supported maximum {MAX_LAGRANGE_DEGREE}"
        )
    ys, den = dyadic_integers(u.values)
    # In place: ys[k] ends as the k-th forward difference at the first node.
    for k in range(1, len(ys)):
        for i in range(degree, k - 1, -1):
            ys[i] -= ys[i - 1]
    # Horner on the Newton form, from the top: nums = nums * (x - x_k) +
    # ys[k] * m!/k!, with x_k = start_index + k.
    nums = [0]
    weight = 1  # m!/k!
    for k in range(degree, -1, -1):
        nums.insert(0, 0)
        for i in range(len(nums) - 1):
            nums[i] -= (u.start_index + k) * nums[i + 1]
        nums[0] += ys[k] * weight
        weight *= k
    den *= math.factorial(degree)
    coefficients = []
    for k, c in enumerate(nums):
        try:
            coefficients.append(c / den)
        except OverflowError:
            raise ValueError(f"coefficient of x^{k} of the interpolant overflows") from None
    if degree > CONDITIONING_WARN_DEGREE:
        warnings.warn(
            f"monomial coefficients of a degree-{degree} interpolant are "
            "ill-conditioned; treat them as qualitative",
            RuntimeWarning,
            stacklevel=2,
        )
    return Polynomial(tuple(coefficients), (tuple(nums), den))


def polynomial_convexity_on_interval(
    p: Polynomial,
    lo: float,
    hi: float,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
) -> str:
    """Classify p on [lo, hi] as ``convex``, ``concave``, ``both``, or ``neither``.

    The verdict is exact for ``p.exact``, under the package's tolerance rule
    applied to p'' at every real x of [lo, hi]: convex iff ``tol.leq(0,
    p''(x))`` for all x, concave iff ``tol.leq(p''(x), 0)`` for all x.  For
    ``rel_tol < 1`` these read ``p'' + abs_tol >= 0`` and ``abs_tol - p'' >=
    0`` on [lo, hi]; for ``rel_tol >= 1`` every comparison holds, and the
    class is ``both``.  Each test is decided in integers by
    :func:`seqineq.polysign.nonnegative_on`.
    """
    lo = float(lo)
    hi = float(hi)
    if not (lo < hi):
        raise ValueError("lo must be strictly less than hi")
    if tol.rel_tol >= 1.0:
        return "both"
    from .polysign import nonnegative_on

    nums, den = p.exact
    # (p'' + abs_tol) * den * b and (abs_tol - p'') * den * b, abs_tol = a / b
    a, b = tol.abs_tol.as_integer_ratio()
    curvature = [k * (k - 1) * c * b for k, c in enumerate(nums)][2:] or [0]
    cells = len(nums) - 1
    convex = nonnegative_on([curvature[0] + a * den, *curvature[1:]], lo, hi, cells)
    concave = nonnegative_on([a * den - curvature[0], *(-c for c in curvature[1:])], lo, hi, cells)
    if convex and concave:
        return "both"
    if convex:
        return "convex"
    if concave:
        return "concave"
    return "neither"
