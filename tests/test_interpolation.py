"""Quadratic pieces, the piecewise view, and the global Lagrange interpolant."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import random_values
import seqineq.polysign as polysign
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
    spline_samples,
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


spline_magnitudes = st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300)


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(spline_magnitudes, min_size=3, max_size=30),
    base=st.sampled_from((0, 1)),
    per_unit=st.integers(1, 17),
)
@example(values=[0.0, 1.0, 3.0, 10.0, 30.0, 31.0, 33.0], base=0, per_unit=16)
@example(values=[0.0, 1.0, 3.0, 10.0, 30.0, 31.0, 33.0], base=1, per_unit=7)
@example(values=[1e300, -1e-300, 1e300], base=0, per_unit=16)
@example(values=[-1e-300, 1e300, 1e-300], base=1, per_unit=17)
@example(values=[2.0, 1.0, 5.0], base=1, per_unit=1)
def test_spline_samples_are_spline_eval_on_the_grid(values, base, per_unit):
    # Even per_unit puts samples on the half-integer ties of the center
    # rule, odd per_unit never does; at N = 3 one piece serves both ends.
    u = Sequence(tuple(values), base)
    pieces = [quadratic_piece(u, n) for n in range(u.start_index + 1, u.last_index)]
    grid = [
        i + t / per_unit
        for i in range(u.start_index, u.last_index)
        for t in range(per_unit)
    ]
    grid.append(float(u.last_index))
    samples = spline_samples(pieces, per_unit)
    assert repr(samples) == repr([(x, spline_eval(u, x)) for x in grid])


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



def test_polynomial_convexity_rel_tol_one_accepts_every_curvature():
    # tol.leq(0, s) and tol.leq(s, 0) both hold for every s once rel_tol >= 1
    wiggle = Polynomial((0, 0, -1.0, 0, 1.0))
    assert polynomial_convexity_on_interval(wiggle, -1, 1, ToleranceConfig(rel_tol=1.0)) == "both"

# ------------------------------------------------- exact interpolant oracle
#
# Independent of the package's integer path: the interpolant comes from the
# Lagrange basis in Fraction, and the sign of q = p'' +- abs_tol on
# [lo, hi] from Sturm counts that cut the interval until every cell holds
# no root of q inside, or one root and none at its ends; q is then sampled
# at each root-free cell's midpoint and at both ends of each other cell.


def _times(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trim(a: list) -> list:
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def _oracle_coefficients(values, start: int) -> list:
    xs = range(start, start + len(values))
    total = [Fraction(0)] * len(values)
    for i, (xi, yi) in enumerate(zip(xs, values)):
        basis = [Fraction(yi)]
        for j, xj in enumerate(xs):
            if j != i:
                basis = _times(basis, [Fraction(-xj, xi - xj), Fraction(1, xi - xj)])
        total = [t + b for t, b in zip(total, basis)]
    return _trim(total)


def _at(a: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _remainder(a: list, b: list) -> list:
    a = list(a)
    while len(a) >= len(b) and any(a):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for j, y in enumerate(b):
            a[shift + j] -= f * y
        a = a[:-1]
    return _trim(a) if a else [Fraction(0)]


def _squarefree_sturm(q: list) -> list:
    derivative = [k * c for k, c in enumerate(q)][1:]
    g, h = q, derivative
    while any(h):
        g, h = h, _remainder(g, h)
    # g is gcd(q, q'); divide it out
    quotient, rest = [], list(q)
    while len(rest) >= len(g):
        f = rest[-1] / g[-1]
        quotient.append(f)
        shift = len(rest) - len(g)
        for j, y in enumerate(g):
            rest[shift + j] -= f * y
        rest = rest[:-1]
    s = quotient[::-1]
    chain = [s, [k * c for k, c in enumerate(s)][1:]]
    while len(chain[-1]) > 1:
        r = _remainder(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append([-c for c in r])
    return chain


def _variation_count(chain: list, x: Fraction) -> int:
    signs = [v > 0 for v in (_at(c, x) for c in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _oracle_nonnegative(q: list, lo: Fraction, hi: Fraction) -> bool:
    if any(_at(q, Fraction(x)) < 0 for x in range(int(lo), int(hi) + 1)):
        return False
    if len(q) == 1:
        return True
    chain = _squarefree_sturm(q)
    cells = [(lo, hi)]
    points = [lo, hi]
    while cells:
        a, b = cells.pop()
        # distinct roots in (a, b): Sturm counts (a, b], less a root at b
        inside = _variation_count(chain, a) - _variation_count(chain, b) - (_at(q, b) == 0)
        middle = (a + b) / 2
        if inside == 0:
            points.append(middle)
        elif inside == 1 and _at(q, a) != 0 and _at(q, b) != 0:
            points += [a, b]  # one on each side of the root
        else:
            cells += [(a, middle), (middle, b)]
    return all(_at(q, x) >= 0 for x in points)


def _oracle_class(coefficients: list, lo: int, hi: int, abs_tol: float) -> str:
    curvature = [k * (k - 1) * c for k, c in enumerate(coefficients)][2:] or [Fraction(0)]
    slack = Fraction(abs_tol)
    convex = _oracle_nonnegative([curvature[0] + slack, *curvature[1:]], Fraction(lo), Fraction(hi))
    concave = _oracle_nonnegative([slack - curvature[0], *(-c for c in curvature[1:])], Fraction(lo), Fraction(hi))
    return {(True, True): "both", (True, False): "convex", (False, True): "concave"}.get(
        (convex, concave), "neither"
    )


wide = st.floats(min_value=1e-300, max_value=1e300)
lagrange_entries = st.integers(-1000, 1000).map(float) | st.tuples(st.booleans(), wide).map(
    lambda t: -t[1] if t[0] else t[1]
)


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(lagrange_entries, min_size=2, max_size=10),
    start=st.sampled_from((0, 1)),
    abs_tol=st.sampled_from((0.0, 1e-9)),
)
@example(values=[0.0, -1.0, 1.0, 3.0], start=0, abs_tol=1e-9)
@example(values=[1e-300, -1e-300, 1e-300, -1e-300, 1e-300], start=1, abs_tol=0.0)
@example(values=[2.0**k for k in range(10)], start=0, abs_tol=0.0)
@example(values=[1e300 * k**4 for k in range(1, 11)], start=1, abs_tol=1e-9)
@example(values=[-1e-300 * k**4 for k in range(10)], start=0, abs_tol=0.0)
@example(values=[2 * n**6 - 20 * n**4 + 120 * n**2 for n in range(7)], start=0, abs_tol=0.0)
def test_lagrange_class_matches_exact_oracle(values, start, abs_tol):
    u = Sequence(values, start)
    exact = _oracle_coefficients(u.values, start)
    try:
        p = lagrange_polynomial(u)
    except ValueError as exc:
        k = int(str(exc).split("^")[1].split()[0])
        assert str(exc) == f"coefficient of x^{k} of the interpolant overflows"
        with pytest.raises(OverflowError):
            float(exact[k])
        assert all(math.isfinite(float(c)) for c in exact[:k])
        return
    # every coefficient is the exact one, correctly rounded
    assert p.coefficients == Polynomial(tuple(float(c) for c in exact)).coefficients
    tol = ToleranceConfig(abs_tol=abs_tol)
    got = polynomial_convexity_on_interval(p, u.start_index, u.last_index, tol)
    assert got == _oracle_class(exact, u.start_index, u.last_index, abs_tol)


def test_derivative_is_the_rounded_exact_derivative():
    # Rounding k * c[k] from the rounded c[k] missed the correctly rounded
    # derivative on most of these; derive from the exact form instead.
    rng = random.Random(1717)
    for _ in range(300):
        n = rng.randint(3, 12)
        start = rng.choice((0, 1))
        values = [round(rng.uniform(-1000, 1000), rng.randint(0, 3)) for _ in range(n)]
        p = lagrange_polynomial(Sequence(values, start))
        exact = _oracle_coefficients(values, start)
        for _ in range(2):
            p = p.derivative()
            exact = _trim([k * c for k, c in enumerate(exact)][1:] or [Fraction(0)])
            assert p.coefficients == Polynomial(tuple(float(c) for c in exact)).coefficients
            nums, den = p.exact
            assert [Fraction(m, den) for m in nums] == exact
    with pytest.raises(ValueError, match="coefficients must be finite"):
        Polynomial((0.0, 0.0, 1.7e308)).derivative()


def test_lagrange_class_at_degree_64():
    # base-0 2^k: every forward difference is 1, so p'' > 0 on [0, 64]; the
    # monomial floats, sampled, read "neither"
    powers = Sequence(tuple(2.0**k for k in range(65)), 0)
    # random integers: the Runge-type interpolant swings in sign between nodes
    rng = random.Random(6565)
    runge = Sequence(tuple(float(rng.randint(0, 1000)) for _ in range(65)), 1)
    for u, want in ((powers, "convex"), (runge, "neither")):
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            p = lagrange_polynomial(u)
        assert polynomial_convexity_on_interval(p, u.start_index, u.last_index) == want


def test_tangent_curvature_reaches_sturm_and_is_convex(monkeypatch):
    # u_n = 60 p(n) with p'' = 60 (x^2 - 2)^2: the exact curvature touches
    # zero at the irrational sqrt(2), so no Bernstein cell around it ever
    # turns nonnegative, and only the Sturm count can prove "convex"
    u = Sequence(tuple(2 * n**6 - 20 * n**4 + 120 * n**2 for n in range(7)), 0)
    calls = []
    sturm = polysign._no_odd_roots_inside
    monkeypatch.setattr(polysign, "_no_odd_roots_inside", lambda r: calls.append(r) or sturm(r))
    tol = ToleranceConfig(abs_tol=0.0)
    started = time.perf_counter()
    verdict = polynomial_convexity_on_interval(lagrange_polynomial(u), 0, 6, tol)
    assert time.perf_counter() - started < 2.0
    assert verdict == "convex"
    assert len(calls) == 1


def _product(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=300, deadline=None)
@given(
    rational=st.lists(st.tuples(st.integers(-3, 12), st.integers(1, 3)), max_size=4),
    irrational=st.integers(0, 3),
    definite=st.booleans(),
    sign=st.sampled_from((1, -1)),
)
@example(rational=[(0, 1), (8, 1)], irrational=2, definite=False, sign=-1)
def test_sturm_fallback_finds_roots_of_odd_multiplicity(rational, irrational, definite, sign):
    # r = sign * (t^2 + 1)^definite * (2t^2 - 1)^irrational * prod (8t - b)^m:
    # its roots in (0, 1) are 1/sqrt(2), of multiplicity `irrational`, and
    # each b/8 with 0 < b < 8; b = 0 and b = 8 put roots at the ends
    r = [sign]
    for factor, power in [([1, 0, 1], int(definite)), ([-1, 0, 2], irrational)] + [([-b, 8], m) for b, m in rational]:
        for _ in range(power):
            r = _product(r, factor)
    inside = {b: 0 for b, _ in rational if 0 < b < 8}
    for b, m in rational:
        if b in inside:
            inside[b] += m
    odd = irrational % 2 == 1 or any(m % 2 for m in inside.values())
    assert polysign._no_odd_roots_inside(r) == (not odd)


def test_sign_tests_stop_as_early_as_they_can(monkeypatch):
    def forbidden(*args):
        raise AssertionError("reached a step that should not run")

    # Runge-type random integers: p'' changes sign at the nodes, so neither
    # class needs a Bernstein cell
    rng = random.Random(6565)
    runge = Sequence(tuple(float(rng.randint(0, 1000)) for _ in range(65)), 1)
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        p = lagrange_polynomial(runge)
    monkeypatch.setattr(polysign, "_halves", forbidden)
    assert polynomial_convexity_on_interval(p, 1, 65) == "neither"
    monkeypatch.undo()
    # p'' = 12x^2 - 6x + 0.63 is positive at the points 0, 1/2, ..., 2 of
    # step 1 but dips below zero around x = 1/4, which a halved cell's end
    # value finds without Sturm sequences
    dip = Polynomial((0, 0, 0.315, -1.0, 1.0))
    monkeypatch.setattr(polysign, "_no_odd_roots_inside", forbidden)
    assert polynomial_convexity_on_interval(dip, 0, 2) == "neither"
