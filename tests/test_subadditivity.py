"""Partition oracle, subadditive hull, epsilon defects, and decompositions."""

from __future__ import annotations

import math
import random
import tracemalloc

import pytest

from corpus import random_values
from seqineq import (
    PartitionWitness,
    Sequence,
    ToleranceConfig,
    compose,
    decompose,
    enumerate_partitions,
    epsilon_star,
    hull_bruteforce,
    is_approx_subadditive,
    is_subadditive_pairwise,
    subadditive_hull,
)

EXACT = ToleranceConfig(0.0, 0.0)


def _random_base1(rng: random.Random, max_len: int = 18) -> Sequence:
    return Sequence(random_values(rng, rng.randint(1, max_len)), 1)


def test_partition_witness_validation():
    PartitionWitness(4, (1, 3))
    with pytest.raises(ValueError):
        PartitionWitness(4, (3, 1))  # not nondecreasing
    with pytest.raises(ValueError):
        PartitionWitness(4, (1, 2))  # wrong sum
    with pytest.raises(ValueError):
        PartitionWitness(4, ())
    with pytest.raises(ValueError):
        PartitionWitness(1, (0, 1))


def test_enumerate_partitions_examples():
    parts = {w.parts for w in enumerate_partitions(4)}
    assert parts == {(1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,)}
    assert [w.parts for w in enumerate_partitions(1)] == [(1,)]
    assert len(enumerate_partitions(5)) == 7
    assert len(enumerate_partitions(10)) == 42


def test_enumerate_partitions_scale_guard():
    with pytest.raises(ValueError, match="oracle scale exceeded"):
        enumerate_partitions(0)
    with pytest.raises(ValueError, match="oracle scale exceeded"):
        enumerate_partitions(31)
    assert len(enumerate_partitions(30)) == 5604


def test_hull_bruteforce_examples():
    u = Sequence((1, 3, 2))
    assert [hull_bruteforce(u, n) for n in (1, 2, 3)] == [1.0, 2.0, 2.0]
    steep = Sequence((2, 5, 6, 7))
    assert [hull_bruteforce(steep, n) for n in (1, 2, 3, 4)] == [2.0, 4.0, 6.0, 7.0]


def test_hull_bruteforce_guards():
    with pytest.raises(ValueError, match="index base 1"):
        hull_bruteforce(Sequence((1, 2), 0), 1)
    with pytest.raises(ValueError, match="outside sequence range"):
        hull_bruteforce(Sequence((1, 2)), 3)
    with pytest.raises(ValueError, match="outside sequence range"):
        hull_bruteforce(Sequence((1, 2)), 0)


def test_subadditive_hull_examples():
    hull = subadditive_hull(Sequence((1, 3, 2)))
    assert hull.v.values == (1.0, 2.0, 2.0)
    assert [w.parts for w in hull.witnesses] == [(1,), (1, 1), (3,)]

    hull = subadditive_hull(Sequence((5, 1)))
    assert hull.v.values == (5.0, 1.0)
    assert [w.parts for w in hull.witnesses] == [(1,), (2,)]

    additive = Sequence(tuple(range(1, 7)))
    hull = subadditive_hull(additive)
    assert hull.v.values == additive.values
    assert all(w.parts == (1,) * w.n for w in hull.witnesses)

    with pytest.raises(ValueError, match="index base 1"):
        subadditive_hull(Sequence((1, 2), 0))

    # A split that ties with u[n] is the witness, but v[n] keeps u[n]'s bits.
    hull = subadditive_hull(Sequence((-0.0, 0.0)))
    assert [repr(x) for x in hull.v.values] == ["-0.0", "0.0"]
    assert [w.parts for w in hull.witnesses] == [(1,), (1, 1)]


@pytest.mark.xfail(
    strict=True,
    raises=ValueError,
    reason="float sums are not associative: at n=5 the j=3 split rounds below "
    "j=1, so the rebuilt witness (3, 1, 1) is not nondecreasing",
)
def test_hull_witnesses_survive_float_rounding():
    u = Sequence((-0.018, -0.034, -53959.166, -0.0, 249.059))
    hull = subadditive_hull(u)
    assert [w.n for w in hull.witnesses] == [1, 2, 3, 4, 5]


def test_hull_matches_bruteforce_on_random_integers():
    rng = random.Random(1212)
    for _ in range(200):
        u = _random_base1(rng, max_len=14)
        hull = subadditive_hull(u)
        for n in range(1, len(u) + 1):
            assert hull.v[n] == hull_bruteforce(u, n)


def test_hull_invariants_on_random_integers():
    rng = random.Random(1313)
    for _ in range(200):
        u = _random_base1(rng)
        hull = subadditive_hull(u)
        v = hull.v
        # below u, witness sums realize v exactly
        for n in range(1, len(u) + 1):
            assert v[n] <= u[n]
            witness = hull.witnesses[n - 1]
            assert witness.n == n
            assert sum(u[p] for p in witness.parts) == v[n]
        # hull output is exactly subadditive and a fixed point
        assert is_subadditive_pairwise(v, EXACT).ok
        again = subadditive_hull(v)
        assert again.v.values == v.values


def test_hull_witnesses_are_lexicographically_smallest():
    rng = random.Random(1414)
    for _ in range(200):
        u = _random_base1(rng, max_len=10)
        hull = subadditive_hull(u)
        for n in range(1, len(u) + 1):
            candidates = [
                (sum(u[p] for p in w.parts), w.parts) for w in enumerate_partitions(n)
            ]
            best_sum = min(total for total, _ in candidates)
            best_parts = min(parts for total, parts in candidates if total == best_sum)
            assert hull.witnesses[n - 1].parts == best_parts


def test_hull_prefix_stability():
    rng = random.Random(1515)
    for _ in range(100):
        u = _random_base1(rng)
        full = subadditive_hull(u).v.values
        for cut in range(1, len(u) + 1):
            prefix = subadditive_hull(Sequence(u.values[:cut], 1)).v.values
            assert prefix == full[:cut]


def test_pairwise_examples():
    roots = Sequence(tuple(math.sqrt(n) for n in range(1, 11)))
    assert is_subadditive_pairwise(roots).ok

    check = is_subadditive_pairwise(Sequence((1, 3, 2)))
    assert not check.ok
    assert check.violations == ((1, 1),)

    assert is_subadditive_pairwise(Sequence((7.0,))).ok  # no pairs in range
    with pytest.raises(ValueError, match="index base 1"):
        is_subadditive_pairwise(Sequence((1, 2), 0))


def test_pairwise_equals_partition_based_test_on_small_inputs():
    # pairwise subadditivity is the same as epsilon_star == 0 on exact input
    rng = random.Random(1616)
    for _ in range(200):
        u = _random_base1(rng, max_len=10)
        assert is_subadditive_pairwise(u, EXACT).ok == (epsilon_star(u) == 0.0)


def test_epsilon_star_examples():
    assert epsilon_star(Sequence((1, 3, 2))) == 1.0
    assert epsilon_star(Sequence((2, 5, 6, 7))) == 1.0
    assert epsilon_star(Sequence(tuple(range(1, 7)))) == 0.0
    assert epsilon_star(Sequence((5, 1))) == 0.0
    with pytest.raises(ValueError, match="index base 1"):
        epsilon_star(Sequence((1, 2), 0))


def test_is_approx_subadditive_examples():
    u = Sequence((1, 3, 2))
    assert is_approx_subadditive(u, 1.0)
    assert not is_approx_subadditive(u, 0.5)
    assert is_approx_subadditive(Sequence((5, 1)), 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        is_approx_subadditive(u, -0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        is_approx_subadditive(u, float("nan"))


def test_epsilon_star_is_minimal():
    rng = random.Random(1717)
    for _ in range(200):
        u = _random_base1(rng)
        gap = epsilon_star(u)
        assert gap >= 0.0
        assert is_approx_subadditive(u, gap)
        if gap > 1e-6:
            assert not is_approx_subadditive(u, gap - 1e-6)


def test_decompose_examples():
    split = decompose(Sequence((5, 1)))
    assert split.v.values == (5.0, 1.0)
    assert split.w.values == (0.0, 0.0)
    assert split.epsilon_star == 0.0

    split = decompose(Sequence((1, 3, 2)))
    assert split.v.values == (1.0, 2.0, 2.0)
    assert split.w.values == (0.0, 1.0, 0.0)
    assert split.epsilon_star == 1.0


def test_decompose_invariants_on_random_integers():
    rng = random.Random(1818)
    for _ in range(200):
        u = _random_base1(rng)
        split = decompose(u)
        assert tuple(a + b for a, b in zip(split.v.values, split.w.values)) == u.values
        assert all(0.0 <= w <= split.epsilon_star for w in split.w.values)
        assert is_subadditive_pairwise(split.v, EXACT).ok
        assert split.epsilon_star == epsilon_star(u)


def test_compose_examples():
    result = compose(Sequence((1.0, 2.0, 3.0)), Sequence((0.5, 0.2, 0.5)))
    assert result.u.values == (1.5, 2.2, 3.5)
    assert result.epsilon == 0.5
    assert result.certified

    zero = compose(Sequence((4.0, 4.0)), Sequence((0.0, 0.0)))
    assert zero.epsilon == 0.0 and zero.certified


def test_compose_checks_its_hypotheses():
    good_v = Sequence((1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="w not nonnegative"):
        compose(good_v, Sequence((0.0, -0.5, 0.0)))
    with pytest.raises(ValueError, match="v not subadditive"):
        compose(Sequence((1, 3, 2)), Sequence((0.0, 0.0, 0.0)))
    with pytest.raises(ValueError, match="same length"):
        compose(good_v, Sequence((0.0,)))
    with pytest.raises(ValueError, match="index base 1"):
        compose(Sequence((1.0, 2.0), 0), Sequence((0.0, 0.0), 0))


def test_compose_stops_at_the_first_failing_row():
    # numpy is loaded before tracing starts: its import is not the check's memory.
    import numpy  # noqa: F401

    rng = random.Random(2000)
    v = Sequence(tuple(rng.randint(0, 1000) for _ in range(2000)), 1)
    w = Sequence((0.0,) * 2000, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="v not subadditive"):
            compose(v, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Listing every violating pair of v would take over 10 MB.
    assert peak < 1_000_000, peak


def test_decompose_compose_round_trip():
    rng = random.Random(1919)
    for _ in range(200):
        u = _random_base1(rng)
        split = decompose(u)
        rebuilt = compose(split.v, split.w)
        assert rebuilt.u.values == u.values  # bitwise on integer input
        assert rebuilt.certified

    for _ in range(200):
        values = tuple(rng.uniform(-50.0, 50.0) for _ in range(rng.randint(1, 18)))
        u = Sequence(values, 1)
        split = decompose(u)
        rebuilt = compose(split.v, split.w)
        assert all(
            abs(a - b) <= 1e-12 for a, b in zip(rebuilt.u.values, u.values)
        )
