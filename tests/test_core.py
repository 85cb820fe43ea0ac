"""Sequence type, difference operators, mediant bounds, and classifier."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from corpus import (
    concave_increasing_nonnegative_values,
    decreasing_nonnegative_values,
    random_values,
)
from seqineq import (
    Sequence,
    ToleranceConfig,
    classify,
    forward_differences,
    is_subadditive_pairwise,
    mediant_bounds,
    second_differences,
)


def test_sequence_rejects_bad_input():
    with pytest.raises(ValueError):
        Sequence(())
    with pytest.raises(ValueError):
        Sequence((1.0, float("nan")))
    with pytest.raises(ValueError):
        Sequence((1.0, float("inf")))
    with pytest.raises(ValueError):
        Sequence((1.0,), 2)
    with pytest.raises(ValueError):
        Sequence((1.0,), -1)
    with pytest.raises(ValueError, match=r"u\[2\] is out of float range"):
        Sequence((1, 10**400))


def test_sequence_absolute_indexing():
    u = Sequence((0, -1, 1, 3), 0)
    assert u[0] == 0.0
    assert u[3] == 3.0
    assert list(u.indices()) == [0, 1, 2, 3]
    assert u.last_index == 3
    with pytest.raises(IndexError):
        u[4]
    anchored = Sequence((5, 1))
    assert anchored[1] == 5.0
    with pytest.raises(IndexError):
        anchored[0]


def test_sequence_is_immutable_and_coerces_to_float():
    u = Sequence((1, 2))
    assert u.values == (1.0, 2.0)
    assert all(isinstance(x, float) for x in u.values)
    with pytest.raises(dataclasses.FrozenInstanceError):
        u.start_index = 0


def test_tolerance_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(abs_tol=-1e-9)
    with pytest.raises(ValueError):
        ToleranceConfig(rel_tol=float("nan"))


def test_tolerance_leq_semantics():
    tol = ToleranceConfig()
    assert tol.leq(1.0, 1.0)
    assert tol.leq(1.0 + 1e-10, 1.0)
    assert not tol.leq(1.0 + 1e-8, 1.0)
    # relative slack takes over at large magnitude
    assert tol.leq(1e12 + 1.0, 1e12)
    exact = ToleranceConfig(0.0, 0.0)
    assert exact.leq(1.0, 1.0)
    assert not exact.leq(math.nextafter(1.0, 2.0), 1.0)


def test_forward_differences_examples():
    d = forward_differences(Sequence((0, -1, 1, 3), 0))
    assert d.values == (-1.0, 2.0, 2.0)
    assert d.start_index == 1
    assert forward_differences(Sequence((5, 5, 5), 0)).values == (0.0, 0.0)
    short = forward_differences(Sequence((1, 2), 1))
    assert short.values == (1.0,)
    assert short.start_index == 1
    with pytest.raises(ValueError, match="sequence too short"):
        forward_differences(Sequence((1.0,), 0))


def test_second_differences_examples():
    s = second_differences(Sequence((0, -1, 1, 3), 0))
    assert s.values == (3.0, 0.0)
    assert s.start_index == 1
    assert second_differences(Sequence((1, 2, 3, 4), 1)).values == (0.0, 0.0)
    assert second_differences(Sequence((0, 0, 1), 0)).values == (1.0,)
    with pytest.raises(ValueError, match="sequence too short"):
        second_differences(Sequence((1, 2), 1))
    with pytest.raises(ValueError, match=r"second difference of u\[1\.\.3\] overflows"):
        second_differences(Sequence((0.0, 0.0, 1.7e308, -1.7e308), 0))


def test_second_differences_equal_iterated_forward():
    rng = random.Random(101)
    for _ in range(200):
        start = rng.choice((0, 1))
        u = Sequence(random_values(rng, rng.randint(3, 40)), start)
        once = forward_differences(forward_differences(u))
        twice = second_differences(u)
        assert once.values == twice.values
        assert once.start_index == twice.start_index == 1


def test_mediant_examples():
    r = mediant_bounds((1.0, 3.0), (1.0, 1.0))
    assert (r.min_ratio, r.combined_ratio, r.max_ratio) == (1.0, 2.0, 3.0)
    r = mediant_bounds((2.0, 2.0), (1.0, 2.0))
    assert r.min_ratio == 1.0
    assert r.max_ratio == 2.0
    assert r.combined_ratio == pytest.approx(4.0 / 3.0, abs=1e-15)
    r = mediant_bounds((5.0,), (2.0,))
    assert (r.min_ratio, r.combined_ratio, r.max_ratio) == (2.5, 2.5, 2.5)


def test_mediant_rejects_bad_input():
    with pytest.raises(ValueError, match="same length"):
        mediant_bounds((1.0, 2.0), (1.0,))
    with pytest.raises(ValueError, match="nonempty"):
        mediant_bounds((), ())
    with pytest.raises(ValueError, match="positive"):
        mediant_bounds((1.0,), (0.0,))
    with pytest.raises(ValueError, match="positive"):
        mediant_bounds((1.0, 1.0), (1.0, -2.0))
    with pytest.raises(ValueError, match="finite"):
        mediant_bounds((float("inf"),), (1.0,))


def test_mediant_bounds_hold_on_random_input():
    rng = random.Random(202)
    tol = ToleranceConfig()
    for _ in range(300):
        k = rng.randint(1, 20)
        a = [rng.uniform(-100.0, 100.0) for _ in range(k)]
        b = [rng.uniform(0.05, 50.0) for _ in range(k)]
        r = mediant_bounds(a, b)
        assert tol.leq(r.min_ratio, r.combined_ratio)
        assert tol.leq(r.combined_ratio, r.max_ratio)


def test_classify_examples():
    flags = classify(Sequence((3, 2, 1), 1))
    assert flags.nonnegative
    assert flags.monotone_decreasing
    assert not flags.monotone_increasing
    assert flags.convex and flags.concave  # affine is both

    flags = classify(Sequence((0, -1, 1, 3), 0))
    assert flags.convex
    assert not flags.concave
    assert not flags.nonnegative
    assert not flags.monotone_increasing

    singleton = classify(Sequence((1.0,), 1))
    assert all(singleton.as_dict().values())


def test_classify_convexity_matches_second_difference_signs(integer_corpus):
    for values in integer_corpus[:200]:
        u = Sequence(values, 0)
        seconds = second_differences(u).values
        flags = classify(u)
        assert flags.convex == all(s >= 0.0 for s in seconds)
        assert flags.concave == all(s <= 0.0 for s in seconds)


def test_decreasing_nonnegative_is_pairwise_subadditive():
    rng = random.Random(303)
    for _ in range(300):
        u = Sequence(decreasing_nonnegative_values(rng, rng.randint(1, 40)), 1)
        flags = classify(u)
        assert flags.nonnegative and flags.monotone_decreasing
        assert is_subadditive_pairwise(u).ok


def test_concave_increasing_nonnegative_has_subadditive_differences():
    rng = random.Random(404)
    for _ in range(300):
        u = Sequence(
            concave_increasing_nonnegative_values(rng, rng.randint(2, 40)), 0
        )
        d = forward_differences(u)
        flags = classify(d)
        assert flags.nonnegative and flags.monotone_decreasing
        if len(d) >= 1:
            assert is_subadditive_pairwise(d).ok
