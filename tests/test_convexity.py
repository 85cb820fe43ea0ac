"""Convexity criteria, support sequences, and their cross-certification."""

from __future__ import annotations

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from corpus import convex_values, nonincreasing_difference_values
from seqineq import (
    Sequence,
    SupportSequence,
    ToleranceConfig,
    certify_convexity,
    check_defining_inequality,
    check_three_point_slopes,
    classify,
    forward_differences,
    read_sequence,
    slope,
    support_sequence,
    verify_support,
)
from seqineq import core
from seqineq.cli import run_cli

CONVEX_EXAMPLE = Sequence((0, -1, 1, 3), 0)
SPIKE_EXAMPLE = Sequence((0, 1, 0), 0)


def test_defining_inequality_examples():
    assert check_defining_inequality(CONVEX_EXAMPLE).is_convex
    assert check_defining_inequality(CONVEX_EXAMPLE).violations == ()

    report = check_defining_inequality(SPIKE_EXAMPLE)
    assert not report.is_convex
    assert report.violations == ((1, 2.0),)

    assert check_defining_inequality(Sequence((7, 7, 7), 1)).is_convex
    # fewer than three points: no interior index, vacuously convex
    assert check_defining_inequality(Sequence((3, -5), 0)).is_convex


@pytest.mark.parametrize(
    "values",
    [
        (0, 1.7e308, 0),  # the defect 3.4e308 is beyond the float range
        (-1e308, 1e308, -1e308),  # the defect 4e308 is beyond the float range
    ],
)
def test_defining_inequality_names_overflow(values):
    with pytest.raises(ValueError, match=r"^second difference of u\[0\.\.2\] overflows$"):
        check_defining_inequality(Sequence(values, 0))


def test_a_finite_defect_is_a_violation_not_an_overflow():
    # 2 * u[1] - u[0] overflows in floats, but the exact defect is finite.
    report = check_defining_inequality(Sequence((-1e308, 8e307, 1e308), 0))
    assert report.violations == ((1, 1.6e308),)
    # Both sides overflow in floats; the second difference is 6.8e308 > 0.
    cert = certify_convexity(Sequence((1.7e308, -1.7e308, 1.7e308), 0))
    assert cert.is_convex and cert.slopes_ok and cert.support_ok
    assert cert.support is None  # its steps overflow
    # The defect is the exact one, rounded once; evaluated in floats,
    # 2 * 0.85 - 0.13 - 0.76 rounds twice, to 0.8099999999999998.
    report = check_defining_inequality(Sequence((0.13, 0.85, 0.76), 0))
    assert report.violations == ((1, 0.8099999999999999),)
    assert report.violations[0][1] == float(2 * Fraction(0.85) - Fraction(0.13) - Fraction(0.76))


def _defining_verdict(u: Sequence) -> bool:
    try:
        return check_defining_inequality(u).is_convex
    except ValueError:
        # Only a violation's defect can overflow.
        return False


magnitudes = st.floats(min_value=1e-300, max_value=1.7976931348623157e308)
entries = st.integers(-50, 50).map(float) | st.tuples(st.booleans(), magnitudes).map(
    lambda t: -t[1] if t[0] else t[1]
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(entries, min_size=1, max_size=12))
@example(values=[0.0, 1000000.0, 1999999.9999])
@example(values=[0.0, 1.7e308, 0.0])
def test_classify_makes_the_defining_comparisons(values):
    # classify is exact, so it answers where a defect overflows the floats.
    u = Sequence(values, 0)
    flags = classify(u)
    assert flags.convex == _defining_verdict(u)
    assert flags.concave == _defining_verdict(Sequence([-x for x in values], 0))


def test_slope_examples():
    assert slope(CONVEX_EXAMPLE, 0, 3) == 1.0
    assert slope(CONVEX_EXAMPLE, 0, 1) == -1.0
    assert slope(CONVEX_EXAMPLE, 3, 0) == 1.0  # symmetric in its arguments
    with pytest.raises(ValueError, match="degenerate slope"):
        slope(CONVEX_EXAMPLE, 2, 2)
    with pytest.raises(IndexError):
        slope(CONVEX_EXAMPLE, 0, 4)


def test_three_point_slopes_examples():
    assert check_three_point_slopes(CONVEX_EXAMPLE).ok
    assert check_three_point_slopes(CONVEX_EXAMPLE, exhaustive=True).ok

    fast = check_three_point_slopes(SPIKE_EXAMPLE)
    full = check_three_point_slopes(SPIKE_EXAMPLE, exhaustive=True)
    assert not fast.ok and not full.ok
    assert fast.first_violation == (0, 1, 2)
    assert full.first_violation == (0, 1, 2)

    assert check_three_point_slopes(Sequence((1, 9), 1)).ok  # no triples


def test_exhaustive_mode_reports_lexicographically_first_triple():
    # The first bad adjacent triple is (1,2,3), but scanning all triples in
    # lexicographic order hits (0,2,3) first.
    u = Sequence((0, 0, 5, 0), 0)
    assert check_three_point_slopes(u).first_violation == (1, 2, 3)
    assert check_three_point_slopes(u, exhaustive=True).first_violation == (0, 2, 3)


def test_support_sequence_examples():
    s = support_sequence(CONVEX_EXAMPLE)
    assert s.values == (-1.0, 2.0, 2.0)
    assert (s.first_index, s.last_index) == (0, 2)
    assert s.witness_pairs == ((0, 1), (1, 2), (2, 3))

    spike = support_sequence(SPIKE_EXAMPLE)
    assert spike.values == (-1.0, -1.0)

    affine = support_sequence(Sequence((0, 3, 6, 9), 0))
    assert affine.values == (3.0, 3.0, 3.0)

    pair = support_sequence(Sequence((1, 2), 0))
    assert pair.values == (1.0,)
    assert (pair.first_index, pair.last_index) == (0, 0)

    with pytest.raises(ValueError, match="sequence too short"):
        support_sequence(Sequence((1.0,), 0))


def test_support_witnesses_are_lexicographically_smallest():
    s = support_sequence(Sequence((0, 0, 0), 0))
    assert s.values == (0.0, 0.0)
    assert s.witness_pairs == ((0, 1), (1, 2))


def test_support_equals_adjacent_slopes_on_convex_input():
    rng = random.Random(505)
    for _ in range(300):
        u = Sequence(convex_values(rng, rng.randint(2, 40)), rng.choice((0, 1)))
        s = support_sequence(u)
        adjacent = forward_differences(u).values
        assert s.values == adjacent  # exact on integer-valued convex input


def test_verify_support_examples():
    good = support_sequence(CONVEX_EXAMPLE)
    assert verify_support(CONVEX_EXAMPLE, good).ok

    bad = SupportSequence(
        base=CONVEX_EXAMPLE, values=(0.0, 2.0, 2.0), first_index=0, last_index=2
    )
    check = verify_support(CONVEX_EXAMPLE, bad)
    assert not check.ok
    assert (1, 0) in check.subgradient_violations

    spike = support_sequence(SPIKE_EXAMPLE)
    assert not verify_support(SPIKE_EXAMPLE, spike).ok


def test_verify_support_accepts_any_valid_candidate():
    u = Sequence((0, 0, 1), 0)
    candidate = SupportSequence(base=u, values=(0.0, 0.5), first_index=0, last_index=1)
    assert verify_support(u, candidate).ok
    # A window may take in the last index, whose row looks only back.
    candidate = SupportSequence(base=u, values=(0.0, 0.5, 1.0), first_index=0, last_index=2)
    assert verify_support(u, candidate).ok
    candidate = SupportSequence(base=u, values=(0.0, 0.5, 0.5), first_index=0, last_index=2)
    assert verify_support(u, candidate).subgradient_violations == ((1, 2),)


def test_verify_support_reports_monotonicity_violations():
    u = Sequence((0, 0, 1), 0)
    decreasing = SupportSequence(base=u, values=(0.5, 0.0), first_index=0, last_index=1)
    check = verify_support(u, decreasing)
    assert not check.ok
    assert check.monotonicity_violations == ((0, 1),)


def test_verify_support_window_must_sit_inside_sequence():
    u = Sequence((0, 0, 1), 0)
    outside = SupportSequence(base=u, values=(0.0, 0.0, 0.0, 0.0), first_index=0, last_index=3)
    with pytest.raises(ValueError, match="window"):
        verify_support(u, outside)


def test_support_sequence_structural_validation():
    with pytest.raises(ValueError):
        SupportSequence(base=CONVEX_EXAMPLE, values=(1.0,), first_index=0, last_index=2)


def test_certificate_examples():
    cert = certify_convexity(CONVEX_EXAMPLE)
    assert cert.is_convex and cert.slopes_ok and cert.support_ok
    assert cert.slope_violation is None
    assert cert.support is not None

    cert = certify_convexity(SPIKE_EXAMPLE)
    assert not cert.is_convex and not cert.slopes_ok and not cert.support_ok

    tiny = certify_convexity(Sequence((4.0,), 1))
    assert tiny.is_convex and tiny.support is None and tiny.support_ok

    pair = certify_convexity(Sequence((1, 2), 0))
    assert pair.is_convex and pair.support.values == (1.0,)


def test_three_criteria_agree_on_mixed_corpus(integer_corpus):
    for values in integer_corpus[:300]:
        u = Sequence(values, 0)
        defining = check_defining_inequality(u)
        slopes = check_three_point_slopes(u, exhaustive=True)
        support_ok = verify_support(u, support_sequence(u)).ok
        assert defining.is_convex == slopes.ok == support_ok
        cert = certify_convexity(u)  # must not raise the disagreement guard
        assert cert.is_convex == defining.is_convex


def test_concavity_tracks_nonincreasing_differences():
    rng = random.Random(606)
    for _ in range(300):
        u = Sequence(nonincreasing_difference_values(rng, rng.randint(2, 40)), 0)
        assert classify(u).concave
        d = forward_differences(u)
        assert classify(d).monotone_decreasing


@pytest.mark.parametrize(
    "values, base, convex",
    [
        # 2 * u[1] exceeds u[0] + u[2] by 1e-4, within the slack 2e-3.
        ((1e6, 1e6 + 1, 1e6 + 2 - 1e-4), 0, True),
        ((7316870.326960323, 7316870.326908223, 7316870.32696826, 7316870.326112273), 1, True),
        # Both steps round to -1.7e308, but the defect is 2.
        ((1.7e308, 1, -1.7e308), 0, False),
    ],
    ids=["large-offset", "large-offset-wiggle", "rounded-steps"],
)
def test_convexity_legs_agree_at_large_magnitudes(values, base, convex):
    cert = certify_convexity(Sequence(values, base))
    assert cert.is_convex == cert.slopes_ok == cert.support_ok == convex


# ------------------------------------------------ one exact tolerance model

def _signed(magnitude):
    return st.tuples(st.booleans(), magnitude).map(lambda t: -t[1] if t[0] else t[1])


wide = st.lists(_signed(st.floats(min_value=1e-300, max_value=1e300)), min_size=1, max_size=24)


@st.composite
def large_offset(draw):
    """An offset U(1e3, 1e7) plus a wiggle U(-1, 1) * 10**k, k in -6..1."""
    offset = draw(st.floats(1e3, 1e7))
    k = draw(st.integers(-6, 1))
    n = draw(st.integers(1, 24))
    return [offset + draw(st.floats(-1.0, 1.0)) * 10.0**k for _ in range(n)]


@st.composite
def two_decimals(draw):
    """Two-decimal numbers, often on a line, as a file would hold them."""
    n = draw(st.integers(1, 24))
    if draw(st.booleans()):
        a, b = draw(st.integers(-10**4, 10**4)), draw(st.integers(-10**4, 10**4))
        cents = [a + b * k for k in range(n)]
    else:
        cents = draw(st.lists(st.integers(-10**5, 10**5), min_size=n, max_size=n))
    return [float(f"{c / 100:.2f}") for c in cents]


DEFAULT = ToleranceConfig()
ZERO = ToleranceConfig(0.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(
    case=st.one_of(
        st.tuples(wide, st.sampled_from((DEFAULT, ZERO, ToleranceConfig(1e-3, 0.0)))),
        st.tuples(large_offset(), st.sampled_from((DEFAULT, ZERO))),
        st.tuples(two_decimals(), st.just(ZERO)),
    ),
    base=st.integers(0, 1),
)
@example(case=([1e6, 1e6 + 1, 1e6 + 2 - 1e-4], DEFAULT), base=0)
@example(case=([0.1, 0.2, 0.3, 0.4], ZERO), base=0)
@example(case=([-1e300, 1e300, 1e-300], DEFAULT), base=1)
def test_the_legs_decide_one_exact_tolerance_model(case, base):
    values, tol = case
    u = Sequence(values, base)
    cert = certify_convexity(u, tol)  # never raises the disagreement guard
    assert cert.is_convex == cert.slopes_ok == cert.support_ok == classify(u, tol).convex
    if len(values) <= 12:
        assert cert.is_convex == reference.convex_within(values, tol)
        assert classify(u, tol).concave == reference.convex_within([-x for x in values], tol)
        assert check_three_point_slopes(u, tol, exhaustive=True).ok == cert.is_convex
    if tol.rel_tol == 0.0:
        # The defining leg's critical tolerance is the largest exact defect.
        q = [Fraction(x) for x in values]
        defect = max([Fraction(0)] + [2 * q[k] - q[k - 1] - q[k + 1] for k in range(1, len(q) - 1)])
        assert cert.is_convex == (defect <= Fraction(tol.abs_tol))


# ------------------------------------------------- one exact form per input

@pytest.mark.parametrize("flags, tol", [([], DEFAULT), (["--abs-tol", "0", "--rel-tol", "0"], ZERO)])
def test_check_convex_builds_the_exact_form_once(tmp_path, capsys, monkeypatch, flags, tol):
    calls = []
    dyadic_integers = core.dyadic_integers

    def counted(values):
        calls.append(values)
        return dyadic_integers(values)

    monkeypatch.setattr(core, "dyadic_integers", counted)
    path = tmp_path / "u.csv"
    path.write_text("# start_index=0\n-0.0\n1\n-0.0\n3\n0.5\n")
    core.convexity_slack.cache_clear()
    assert run_cli(["check-convex", str(path), *flags]) == 1
    capsys.readouterr()
    assert len(calls) == 1  # the two legs, the support leg and classify share it
    minus = read_sequence(path)
    verify_support(minus, support_sequence(minus), tol)
    assert len(calls) == 1

    # An equal input reads the same entry, and no reader modifies it.
    plus = Sequence(tuple(x + 0.0 for x in minus.values), 0)
    assert plus == minus and repr(plus) != repr(minus)
    readers = (
        lambda u: check_defining_inequality(u, tol),
        lambda u: check_three_point_slopes(u, tol),
        lambda u: check_three_point_slopes(u, tol, True),
        lambda u: verify_support(u, support_sequence(u), tol),
        lambda u: certify_convexity(u, tol),
        lambda u: classify(u, tol),
    )
    form = copy.deepcopy(core.convexity_slack(plus, tol))
    warm = []
    for u in (plus, minus):
        for read in readers:
            warm.append(read(u))
            assert core.convexity_slack(u, tol) == form
    assert len(calls) == 1
    cold = []
    for u in (plus, minus):
        for read in readers:
            core.convexity_slack.cache_clear()
            cold.append(read(u))
    assert repr(warm) == repr(cold)
    assert len(calls) == 1 + 2 * len(readers)
