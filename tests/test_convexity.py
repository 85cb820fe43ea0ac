"""Convexity criteria, support sequences, and their cross-certification."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import convex_values, nonincreasing_difference_values
from seqineq import (
    Sequence,
    SupportSequence,
    certify_convexity,
    check_defining_inequality,
    check_three_point_slopes,
    classify,
    forward_differences,
    slope,
    support_sequence,
    verify_support,
)

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
        (0, 1.7e308, 0),  # 2 * u[1] overflows; its infinite slack would pass
        (-1e308, 1e308, -1e308),  # 2 * u[1] overflows in a violation
        (-1e308, 8e307, 1e308),  # both sides finite, the defect is not
    ],
)
def test_defining_inequality_names_overflow(values):
    with pytest.raises(ValueError, match=r"^second difference of u\[0\.\.2\] overflows$"):
        check_defining_inequality(Sequence(values, 0))


def _defining_verdict(u: Sequence) -> bool:
    try:
        return check_defining_inequality(u).is_convex
    except ValueError:
        # With both sides finite, only a violation's defect can overflow.
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
    u = Sequence(values, 0)
    try:
        flags = classify(u)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            check_defining_inequality(u)
        return
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


@pytest.mark.xfail(
    strict=True,
    raises=RuntimeError,
    reason="ROADMAP item 2: the three convexity legs disagree, through slacks "
    "scaled differently or steps that round, and certify_convexity raises",
)
@pytest.mark.parametrize(
    "values, base",
    [
        ((1e6, 1e6 + 1, 1e6 + 2 - 1e-4), 0),
        ((7316870.326960323, 7316870.326908223, 7316870.32696826, 7316870.326112273), 1),
        ((1.7e308, 1, -1.7e308), 0),
    ],
    ids=["large-offset", "large-offset-wiggle", "rounded-steps"],
)
def test_convexity_legs_agree_at_large_magnitudes(values, base):
    # Which verdict is right is for the fix to decide; any certificate passes.
    assert certify_convexity(Sequence(values, base)) is not None
