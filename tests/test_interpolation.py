"""Quadratic pieces, the piecewise view, and the global Lagrange interpolant."""

from __future__ import annotations

import random

import pytest

from corpus import random_values
from seqineq import (
    Polynomial,
    Sequence,
    ToleranceConfig,
    check_defining_inequality,
    lagrange_polynomial,
    polynomial_convexity_on_interval,
    quadratic_piece,
    second_differences,
    spline_eval,
)

CONVEX_EXAMPLE = Sequence((0, -1, 1, 3), 0)


def test_polynomial_normalization():
    assert Polynomial((1.0, 2.0, 0.0)).coefficients == (1.0, 2.0)
    assert Polynomial((0.0, 0.0)).coefficients == (0.0,)
    assert Polynomial(()).coefficients == (0.0,)
    assert Polynomial((0.0,)).is_zero()
    assert Polynomial((1.0, 2.0)).degree == 1
    with pytest.raises(ValueError):
        Polynomial((float("nan"),))


def test_polynomial_evaluation_and_derivative():
    p = Polynomial((0.0, -3.5, 3.0, -0.5))
    assert p(0.0) == 0.0
    assert p(1.0) == -1.0
    assert p(3.0) == 3.0
    assert p.derivative().coefficients == (-3.5, 6.0, -1.5)
    assert Polynomial((7.0,)).derivative().is_zero()


def test_quadratic_piece_examples():
    piece = quadratic_piece(CONVEX_EXAMPLE, 1)
    assert (piece.a, piece.b, piece.c) == (1.5, -2.5, 0.0)
    assert piece.domain == (0.0, 2.0)
    # interpolates its three nodes
    assert (piece(0.0), piece(1.0), piece(2.0)) == (0.0, -1.0, 1.0)

    piece = quadratic_piece(CONVEX_EXAMPLE, 2)
    assert (piece.a, piece.b, piece.c) == (0.0, 2.0, -3.0)

    with pytest.raises(ValueError, match="interior"):
        quadratic_piece(CONVEX_EXAMPLE, 0)
    with pytest.raises(ValueError, match="interior"):
        quadratic_piece(CONVEX_EXAMPLE, 3)


def test_quadratic_piece_names_overflow_on_finite_input():
    u = Sequence((1.7e308, -1.7e308, 1.7e308, -1.7e308), 0)
    with pytest.raises(ValueError, match=r"^quadratic piece at n=1 overflows$"):
        quadratic_piece(u, 1)
    # a is finite here; b = half_gap - 2*a*n is not
    with pytest.raises(ValueError, match=r"^quadratic piece at n=2 overflows$"):
        quadratic_piece(Sequence((0.0, 0.0, -1e308, 0.0), 0), 2)


def test_piece_curvature_equals_second_difference(integer_corpus):
    for values in integer_corpus[:200]:
        u = Sequence(values, 0)
        seconds = second_differences(u)
        for n in range(u.start_index + 1, u.last_index):
            piece = quadratic_piece(u, n)
            assert piece.second_derivative == seconds[n - u.start_index]


def test_convexity_iff_all_pieces_convex(integer_corpus):
    tol = ToleranceConfig()
    for values in integer_corpus[:200]:
        u = Sequence(values, 0)
        pieces_convex = all(
            tol.leq(0.0, quadratic_piece(u, n).a)
            for n in range(u.start_index + 1, u.last_index)
        )
        assert pieces_convex == check_defining_inequality(u).is_convex


def test_pieces_interpolate_nodes_within_tolerance():
    rng = random.Random(707)
    for _ in range(200):
        values = tuple(rng.uniform(-1000.0, 1000.0) for _ in range(rng.randint(3, 30)))
        u = Sequence(values, 0)
        for n in range(1, len(values) - 1):
            piece = quadratic_piece(u, n)
            for x in (n - 1, n, n + 1):
                assert abs(piece(float(x)) - u[x]) <= 1e-9


def test_adjacent_pieces_agree_at_shared_nodes():
    rng = random.Random(808)
    for _ in range(100):
        u = Sequence(random_values(rng, rng.randint(4, 20)), 0)
        for n in range(1, len(u) - 2):
            left = quadratic_piece(u, n)
            right = quadratic_piece(u, n + 1)
            # both interpolate the two shared nodes n and n+1 exactly
            assert left(float(n)) == pytest.approx(u[n], abs=1e-9)
            assert right(float(n)) == pytest.approx(u[n], abs=1e-9)
            assert left(float(n + 1)) == pytest.approx(u[n + 1], abs=1e-9)
            assert right(float(n + 1)) == pytest.approx(u[n + 1], abs=1e-9)


def test_spline_eval_examples():
    assert spline_eval(CONVEX_EXAMPLE, 0.5) == -0.875
    assert spline_eval(CONVEX_EXAMPLE, 0.0) == 0.0
    assert spline_eval(CONVEX_EXAMPLE, 3.0) == 3.0
    # 1.5 rounds half to even toward center 2, whose piece is the line 2x-3
    assert spline_eval(CONVEX_EXAMPLE, 1.5) == 0.0
    assert spline_eval(CONVEX_EXAMPLE, 2.5) == 2.0


def test_spline_eval_domain_errors():
    with pytest.raises(ValueError, match="outside spline domain"):
        spline_eval(CONVEX_EXAMPLE, -0.01)
    with pytest.raises(ValueError, match="outside spline domain"):
        spline_eval(CONVEX_EXAMPLE, 3.01)
    with pytest.raises(ValueError, match="outside spline domain"):
        spline_eval(Sequence((1, 2), 0), 0.5)  # no interior point at all


def test_spline_reproduces_affine_sequences():
    u = Sequence(tuple(2 * n + 1 for n in range(5)), 0)
    rng = random.Random(909)
    for _ in range(50):
        x = rng.uniform(0.0, 4.0)
        assert spline_eval(u, x) == pytest.approx(2.0 * x + 1.0, abs=1e-12)


def test_lagrange_examples():
    p = lagrange_polynomial(CONVEX_EXAMPLE)
    expected = (0.0, -3.5, 3.0, -0.5)
    assert len(p.coefficients) == 4
    for got, want in zip(p.coefficients, expected):
        assert got == pytest.approx(want, abs=1e-12)

    assert lagrange_polynomial(Sequence((4, 4), 1)).coefficients == (4.0,)
    assert lagrange_polynomial(Sequence((0, 1, 4), 0)).coefficients == (0.0, 0.0, 1.0)
    # nodes follow the anchor: values (1, 2) at indices 1, 2 lie on y = x
    assert lagrange_polynomial(Sequence((1, 2), 1)).coefficients == (0.0, 1.0)


def test_lagrange_reproduces_nodes():
    # the monomial form is exact through degree 3 here; expanding higher
    # degrees amplifies rounding by roughly binomial(deg, deg/2), so the
    # node residual bound is loosened accordingly
    rng = random.Random(111)
    for _ in range(200):
        start = rng.choice((0, 1))
        u = Sequence(
            tuple(float(rng.randint(-50, 50)) for _ in range(rng.randint(1, 9))), start
        )
        p = lagrange_polynomial(u)
        bound = 1e-9 if len(u) <= 4 else 1e-6
        for n in u.indices():
            assert p(float(n)) == pytest.approx(u[n], abs=bound)


def test_lagrange_degree_limits():
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        lagrange_polynomial(Sequence(tuple(range(22)), 1))  # degree 21
    with pytest.raises(ValueError, match="maximum"):
        lagrange_polynomial(Sequence(tuple(range(66)), 1))  # degree 65


def test_polynomial_convexity_classification():
    cubic = lagrange_polynomial(CONVEX_EXAMPLE)
    # convex sequence, yet its global interpolant changes curvature
    assert polynomial_convexity_on_interval(cubic, 0.0, 3.0) == "neither"
    assert polynomial_convexity_on_interval(cubic, 0.0, 2.0) == "convex"
    assert polynomial_convexity_on_interval(cubic, 2.0, 3.0) == "concave"

    assert polynomial_convexity_on_interval(Polynomial((0, 0, 1)), -1, 1) == "convex"
    assert polynomial_convexity_on_interval(Polynomial((0, 0, -1)), -1, 1) == "concave"
    assert polynomial_convexity_on_interval(Polynomial((5, 3)), -1, 1) == "both"
    assert polynomial_convexity_on_interval(Polynomial((2,)), 0, 1) == "both"

    with pytest.raises(ValueError):
        polynomial_convexity_on_interval(Polynomial((0, 0, 1)), 1.0, 1.0)


def test_polynomial_convexity_high_degree_grid_path():
    x4 = Polynomial((0, 0, 0, 0, 1.0))
    assert polynomial_convexity_on_interval(x4, -1, 1) == "convex"
    wiggle = Polynomial((0, 0, -1.0, 0, 1.0))  # second derivative 12x^2 - 2
    assert polynomial_convexity_on_interval(wiggle, -1, 1) == "neither"
    x5 = Polynomial((0, 0, 0, 0, 0, 1.0))
    assert polynomial_convexity_on_interval(x5, -1, 1) == "neither"
    assert polynomial_convexity_on_interval(x5, 0.5, 1.0) == "convex"


def test_polynomial_convexity_tolerance_flattens_noise():
    nearly_flat = Polynomial((0.0, 0.0, 1e-12))
    assert polynomial_convexity_on_interval(nearly_flat, -1, 1) == "both"
