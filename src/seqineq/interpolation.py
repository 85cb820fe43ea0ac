"""Polynomial views of a sequence: local quadratics and the global interpolant.

Each interior index n of a sequence carries a unique parabola through the
three points ``(n-1, u[n-1])``, ``(n, u[n])``, ``(n+1, u[n+1])``.  Its second
derivative is exactly the second difference at n, so the sequence is convex
iff every local piece is a convex parabola.  The global Lagrange interpolant
through all points has no such property: a sequence can be convex while its
interpolating polynomial is neither convex nor concave on the node interval,
which is why the local pieces are the honest convexity witnesses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import DEFAULT_TOLERANCE, Sequence, ToleranceConfig

MAX_LAGRANGE_DEGREE = 64
CONDITIONING_WARN_DEGREE = 20

_SIGN_GRID_POINTS = 1024


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial ``c[0] + c[1]*x + c[2]*x**2 + ...`` (ascending).

    Trailing zero coefficients are stripped on construction, so the last
    coefficient is nonzero unless the polynomial is identically zero, which
    is represented as ``(0.0,)``.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if any(not math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0.0,)
        object.__setattr__(self, "coefficients", coeffs)

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
        c = self.coefficients
        if len(c) == 1:
            return Polynomial((0.0,))
        return Polynomial(tuple(k * c[k] for k in range(1, len(c))))


@dataclass(frozen=True)
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


def lagrange_polynomial(u: Sequence) -> Polynomial:
    """Monomial coefficients of the interpolant through ``(n, u[n])`` for all n.

    Computed via Newton divided differences, then expanded.  The monomial
    basis is ill-conditioned for long sequences: degrees above
    ``CONDITIONING_WARN_DEGREE`` trigger a RuntimeWarning and degrees above
    ``MAX_LAGRANGE_DEGREE`` are rejected outright.
    """
    degree = len(u) - 1
    if degree > MAX_LAGRANGE_DEGREE:
        raise ValueError(
            f"degree {degree} above supported maximum {MAX_LAGRANGE_DEGREE}"
        )
    if degree > CONDITIONING_WARN_DEGREE:
        warnings.warn(
            f"monomial coefficients of a degree-{degree} interpolant are "
            "ill-conditioned; treat them as qualitative",
            RuntimeWarning,
            stacklevel=2,
        )
    xs = [float(n) for n in u.indices()]
    dd = list(u.values)
    # In-place divided-difference table; dd[k] ends as the order-k coefficient.
    for order in range(1, len(dd)):
        for i in range(len(dd) - 1, order - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - order])
    coeffs = [0.0] * len(dd)
    basis = [1.0]
    for k, c in enumerate(dd):
        for i, bc in enumerate(basis):
            coeffs[i] += c * bc
        if k < len(dd) - 1:
            nxt = [0.0] * (len(basis) + 1)
            for i, bc in enumerate(basis):
                nxt[i] -= xs[k] * bc
                nxt[i + 1] += bc
            basis = nxt
    return Polynomial(tuple(coeffs))


def polynomial_convexity_on_interval(
    p: Polynomial,
    lo: float,
    hi: float,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
) -> str:
    """Classify p on [lo, hi] as ``convex``, ``concave``, ``both``, or ``neither``.

    For degree <= 3 the second derivative is affine and endpoint signs decide
    exactly.  For higher degrees the second derivative is sampled on a
    1024-point uniform grid (endpoints included) plus its real critical
    points, which is best effort: a sign excursion narrower than the grid
    can in principle be missed.
    """
    lo = float(lo)
    hi = float(hi)
    if not (lo < hi):
        raise ValueError("lo must be strictly less than hi")
    dd = p.derivative().derivative()
    if dd.is_zero():
        return "both"
    if p.degree <= 3:
        samples = (dd(lo), dd(hi))
    else:
        import numpy as np

        xs = [float(x) for x in np.linspace(lo, hi, _SIGN_GRID_POINTS)]
        ddd = dd.derivative()
        if not ddd.is_zero() and ddd.degree >= 1:
            for root in np.roots(ddd.coefficients[::-1]):
                if abs(root.imag) < 1e-9 and lo <= root.real <= hi:
                    xs.append(float(root.real))
        samples = tuple(dd(x) for x in xs)
    nonneg = all(tol.leq(0.0, s) for s in samples)
    nonpos = all(tol.leq(s, 0.0) for s in samples)
    if nonneg and nonpos:
        return "both"
    if nonneg:
        return "convex"
    if nonpos:
        return "concave"
    return "neither"
