"""Subadditive hulls, approximate subadditivity, and stability decompositions.

All operations here require sequences anchored at index 1: a part of size j
refers to the entry u[j], so index 0 has no meaning in a partition.

The subadditive hull v of u is the largest subadditive sequence below u,

    v[n] = min over integer partitions n = j1 + ... + jk of u[j1] + ... + u[jk],

computed by one O(N^2) dynamic-programming pass, one row per index, that
keeps a parent pointer per index; witness partitions are walked from the
pointers when read, and their order is checked from the pointers alone in
O(N), so no caller has to expand the O(N^2) parts to learn whether they are
valid.  The pairwise test ``u[m+n] <= u[m] + u[n]`` has one row generator,
``pairwise_violation_rows``, which yields each failing row in turn; the
``PairwiseCheck`` is built from it, and a caller that streams the rows holds
one row at a time.  The pairwise rows are pure-Python lists up to
``PURE_ROWS_MAX_N`` entries (so short inputs never import numpy) and numpy
arrays above it.  The hull rows are pure-Python scans over a list of
candidate splits, only the generators when every sum is exact, until the
work left exceeds ``HULL_PURE_CELLS`` split sums, and numpy rows over every
split after that.  Both choices give bit-identical results.
The gap ``epsilon_star = max(u[n] - v[n])`` is the smallest eps for which u
is eps-approximately subadditive, and ``u = v + w`` with ``0 <= w <= eps``
splits any approximately subadditive sequence into an exactly subadditive
part plus a small nonnegative remainder.  A brute-force oracle that
enumerates partitions outright is kept alongside the DP so the two routes
can be compared exactly on integer inputs.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import cached_property, lru_cache

from .core import DEFAULT_TOLERANCE, Sequence, ToleranceConfig, frozen

ORACLE_MAX_N = 30

# pairwise_violation_rows runs pure-Python rows on inputs of at most this
# many entries and numpy rows on longer ones, with bit-identical results.
# On a 2-vCPU VM a pure comparison costs about 440 ns, so the N**2 / 4
# pairs of a whole test take about 7 ms at N = 256, against 100-130 ms to
# import numpy; for the comparisons alone pure rows stay cheaper up to
# about N = 1000.  A failing row also writes its part of the report, whose
# cost is not counted here, so the cutoff stays at 256.  subadditive_hull
# does not use it: it switches by the work left (HULL_PURE_CELLS below).
PURE_ROWS_MAX_N = 256

# subadditive_hull runs pure-Python rows while the split sums it still has
# to form number at most this many, and numpy rows after that (see
# ``_pure_rows``).  On a 2-vCPU VM a pure split sum costs about 115 ns and
# importing numpy about 100 ms, the price of some 9e5 sums.  The count
# checked is a lower bound that an input whose every index is a generator
# (a strictly concave increasing u) can exceed severalfold, and the most
# pure work that can run without a switch is about twice the budget (every
# index a generator at N = 2 * sqrt(budget)): 6e5 sums, some 70 ms, less
# than the import.  In a fresh process ``epsilon`` on such an input costs
# the same either way near N = 1500, or 1.1e6 sums.
HULL_PURE_CELLS = 300_000


@frozen
class PartitionWitness:
    """One integer partition of n, parts in nondecreasing order."""

    n: int
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = self.parts
        if not parts or min(parts) < 1:
            raise ValueError("parts must be positive integers")
        if sum(parts) != self.n:
            raise ValueError("parts must sum to n")
        if list(parts) != sorted(parts):
            raise ValueError("parts must be nondecreasing")


@frozen
class HullResult:
    """Hull v, remainder ``w = u - v`` with its maximum, and parent pointers.

    The witness of n is ``last_part[n - 1]`` followed by the witness of
    ``n - last_part[n - 1]``; ``witness_parts`` walks that chain, and
    ``witnesses`` expands every chain on first access and keeps the result.
    """

    v: Sequence
    w: Sequence
    epsilon_star: float
    last_part: tuple[int, ...]

    def witness_parts(self, n: int) -> Iterator[int]:
        """The parts of the witness of n, first to last."""
        last_part = self.last_part
        while n:
            j = last_part[n - 1]
            yield j
            n -= j

    def check_witness_order(self) -> None:
        """Raise as ``PartitionWitness`` would on an out-of-order witness.

        Witness n is ``(j,) + witness(n - j)``, so, given that every shorter
        witness is in order, it is nondecreasing iff j is at most the first
        part of ``witness(n - j)``, ``last_part[n - j - 1]``.  O(N).
        """
        last_part = self.last_part
        for n, j in enumerate(last_part, 1):
            if j < n and j > last_part[n - j - 1]:
                raise ValueError("parts must be nondecreasing")

    @cached_property
    def witnesses(self) -> tuple[PartitionWitness, ...]:
        return tuple(
            PartitionWitness(n, tuple(self.witness_parts(n)))
            for n in range(1, len(self.last_part) + 1)
        )


@frozen
class PairwiseCheck:
    """Verdict of the pairwise test ``u[m+n] <= u[m] + u[n]`` with violations."""

    ok: bool
    violations: tuple[tuple[int, int], ...] = ()


# ``decompose`` returns the hull result itself.
Decomposition = HullResult


@frozen
class CompositionResult:
    """Sum ``u = v + w`` plus the certificate that u is max(w)-subadditive."""

    u: Sequence
    epsilon: float
    certified: bool


def _require_base1(u: Sequence) -> None:
    if u.start_index != 1:
        raise ValueError("subadditivity requires index base 1")


def _partition_iter(n: int, minimum: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for part in range(minimum, n + 1):
        for rest in _partition_iter(n - part, part):
            yield (part,) + rest


@lru_cache(maxsize=None)
def _partition_tuples(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_partition_iter(n, 1))


def enumerate_partitions(n: int) -> list[PartitionWitness]:
    """All integer partitions of n in canonical nondecreasing form.

    Enumeration grows like exp(sqrt(n)); n is capped at ``ORACLE_MAX_N``.
    """
    if not isinstance(n, int) or not 1 <= n <= ORACLE_MAX_N:
        raise ValueError("oracle scale exceeded")
    return [PartitionWitness(n, parts) for parts in _partition_tuples(n)]


def hull_bruteforce(u: Sequence, n: int) -> float:
    """Hull value at n by direct minimization over all partitions of n."""
    _require_base1(u)
    if not isinstance(n, int) or n < 1 or n > len(u):
        raise ValueError(f"index {n} outside sequence range")
    if n > ORACLE_MAX_N:
        raise ValueError("oracle scale exceeded")
    vals = u.values
    return min(sum(vals[p - 1] for p in parts) for parts in _partition_tuples(n))


def _settle(n: int, un: float, part: int, best: float) -> tuple[int, float]:
    """Row n's parent pointer and hull value from its first best split ``(part, best)``.

    A split that ties with u[n] is the witness, but v[n] keeps the bits of u[n].
    """
    if best > un:
        return n, un
    return part, best if best < un else un


def _pure_rows(vals: tuple[float, ...], v: list[float], last_part: list[int]) -> int:
    """Fill hull rows 1, 2, ... of ``v`` and ``last_part``; return the first row not filled.

    Row n scans the split sums ``u[j] + v[n - j]`` over a list of candidate
    parts j < n.  When every sum is exact (below), the candidates are the
    generators, the j with ``last_part[j - 1] == j``: if ``last_part[j - 1]
    = k < j``, then, since v is subadditive,

        u[k] + v[n-k] <= u[k] + v[j-k] + v[n-j] = v[j] + v[n-j] <= u[j] + v[n-j],

    the smaller k does at least as well, and j is never the first minimiser.
    The first minimiser over the generators is then the first over all j,
    with the same bits.  On any other input every j < n is a candidate: in
    floats a rounded sum can undercut the split it was built from.

    The candidate list only grows, so before row n the rows left cost at
    least ``len(candidates) * (N - n + 1)`` split sums; once that exceeds
    ``HULL_PURE_CELLS`` this returns n and the numpy rows take over.
    """
    size = len(vals)
    # A partition sum of m <= N has at most m parts: on integer-valued input
    # with N * max|u| < 2**53, every sum the DP forms is an exact integer.
    # (sum(|u|) < 2**53 is not enough, since a part can repeat.)
    exact = all(map(float.is_integer, vals)) and size * max(map(abs, vals)) < 2.0**53
    parts: list[int] = []
    heads: list[float] = []  # u[j] for each candidate j
    for n, un in enumerate(vals, 1):
        if len(parts) * (size - n + 1) > HULL_PURE_CELLS:
            return n
        part, best = n, math.inf
        if parts:
            row = [x + v[n - j] for j, x in zip(parts, heads)]
            # ``min`` keeps the first minimiser with its own bits, as a
            # strict ``<`` scan would, and ``index`` finds that same entry.
            best = min(row)
            part = parts[row.index(best)]
        part, v[n] = _settle(n, un, part, best)
        last_part.append(part)
        if part == n or not exact:
            parts.append(n)
            heads.append(un)
    return size + 1


def _numpy_rows(
    vals: tuple[float, ...], v: list[float], last_part: list[int], start: int
) -> list[float]:
    """Fill hull rows ``start``, ..., N (``start >= 2``) as numpy rows over every j; return v.

    ``argmin`` returns the first minimiser with its own bits, the one the
    pure rows find, so switching at any row leaves every bit unchanged.
    """
    import numpy as np

    arr = np.array(vals)
    va = np.array(v)
    with np.errstate(over="ignore"):
        for n in range(start, len(vals) + 1):
            row = arr[: n - 1] + va[n - 1 : 0 : -1]
            j = int(row.argmin())
            part, va[n] = _settle(n, vals[n - 1], j + 1, row.item(j))
            last_part.append(part)
    return va.tolist()


def subadditive_hull(u: Sequence) -> HullResult:
    """Largest subadditive sequence below u, in one pass with parent pointers.

    ``v[1] = u[1]`` and ``v[n] = min(u[n], min over j of u[j] + v[n-j])``.
    ``last_part[n - 1]`` is the smallest j whose split attains v[n], or n
    when none does; the witness of n is j followed by the witness of n - j,
    the lexicographically smallest canonical partition among all minimizers.
    Tie rule: a split that ties with u[n] is the witness, but v[n] keeps
    the bits of u[n] (``-0.0`` stays ``-0.0``).

    Rows run as pure-Python scans over candidate splits (``_pure_rows``): on
    integer-valued input with ``N * max|u| < 2**53`` only the generators,
    the j with ``last_part[j - 1] == j``, are candidates, so the row costs
    O(number of generators); on other input every j is.  Once the work left
    exceeds ``HULL_PURE_CELLS`` split sums, numpy rows over every j finish
    the pass.  So an input with few generators, such as k**2 - 3k (one) or
    random integers (a few dozen at N = 2000), never loads numpy.

    >>> hull = subadditive_hull(Sequence((1.0, 3.0, 2.0)))
    >>> hull.v.values
    (1.0, 2.0, 2.0)
    >>> [w.parts for w in hull.witnesses]
    [(1,), (1, 1), (3,)]
    """
    _require_base1(u)
    vals = u.values
    v = [0.0] * (len(vals) + 1)  # 1-based; v[0] unused
    last_part: list[int] = []
    start = _pure_rows(vals, v, last_part)
    if start <= len(vals):
        v = _numpy_rows(vals, v, last_part, start)
    v_vals = tuple(v[1:])
    w = tuple(a - b for a, b in zip(u.values, v_vals))
    for n, (vn, wn) in enumerate(zip(v_vals, w), 1):
        # v[n] is finite or -inf (a split sum overflowed); w = u - v is
        # infinite in both cases.
        if not math.isfinite(wn):
            raise ValueError(
                f"subadditive hull overflows at n={n}: v[{n}] = {vn!r}, w[{n}] = {wn!r}"
            )
    return HullResult(Sequence(v_vals, 1), Sequence(w, 1), max(w), tuple(last_part))


def pairwise_violation_rows(
    u: Sequence, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> Iterator[tuple[int, list[int]]]:
    """Yield ``(m, ns)`` for each m whose row has pairs with ``u[m+n] > u[m] + u[n]``.

    Row m compares u[2m:] with u[m] + u[m:last-m+1], over n = m..last-m;
    ``ns`` lists its failing n in increasing order.  Rows come in increasing
    m and only one is held at a time, so the working memory is O(N).
    """
    _require_base1(u)
    vals = u.values
    last = u.last_index
    if len(vals) > PURE_ROWS_MAX_N:
        import numpy as np

        arr = np.array(vals)
        for m in range(1, last // 2 + 1):
            # Entered per row: a generator must not hold it across a yield.
            with np.errstate(over="ignore"):
                ok = tol.leq_mask(arr[2 * m - 1 :], arr[m - 1] + arr[m - 1 : last - m])
            bad = np.flatnonzero(~ok)
            if bad.size:
                yield m, (bad + m).tolist()
    else:
        for m in range(1, last // 2 + 1):
            um = vals[m - 1]
            pairs = zip(vals[2 * m - 1 :], vals[m - 1 : last - m])
            bad = [n for n, (x, y) in enumerate(pairs, m) if not tol.leq(x, um + y)]
            if bad:
                yield m, bad


def is_subadditive_pairwise(
    u: Sequence, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> PairwiseCheck:
    """Check ``u[m+n] <= u[m] + u[n]`` for all m <= n with m+n in range."""
    violations = tuple(
        (m, n) for m, ns in pairwise_violation_rows(u, tol) for n in ns
    )
    return PairwiseCheck(not violations, violations)


def epsilon_star(u: Sequence) -> float:
    """Smallest eps such that u is eps-approximately subadditive.

    Equals ``max(u[n] - v[n])`` over the hull v; always nonnegative since
    the trivial partition makes ``v[n] <= u[n]``.  Reported exactly as
    computed, with no tolerance snapping.
    """
    return subadditive_hull(u).epsilon_star


def check_epsilon(epsilon: float) -> float:
    """``epsilon`` as a float; ValueError unless it is finite and nonnegative."""
    epsilon = float(epsilon)
    if not math.isfinite(epsilon) or epsilon < 0.0:
        raise ValueError("epsilon must be finite and nonnegative")
    return epsilon


def is_approx_subadditive(u: Sequence, epsilon: float) -> bool:
    """Whether ``u[n] <= sum of u over parts + epsilon`` for every partition.

    Decided through the hull: the worst partition defect is
    ``epsilon_star(u)``, so the check is a single comparison rather than an
    enumeration.
    """
    epsilon = check_epsilon(epsilon)
    return epsilon_star(u) <= epsilon


def decompose(u: Sequence) -> HullResult:
    """Split u into its subadditive hull v and the remainder ``w = u - v``.

    The hull's own result, witnesses included.  w is entrywise in
    ``[0, epsilon_star]``; on integer-valued input the split is exact and
    ``v + w`` reproduces u bitwise.
    """
    return subadditive_hull(u)


def compose(
    v: Sequence, w: Sequence, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> CompositionResult:
    """Rebuild ``u = v + w`` from a subadditive part and a small remainder.

    Hypotheses are checked and named on failure: v must be pairwise
    subadditive and w nonnegative (both within tolerance), with equal
    lengths and index base 1.  The result carries the certificate that u is
    approximately subadditive with eps = max(w).
    """
    _require_base1(v)
    _require_base1(w)
    if len(v) != len(w):
        raise ValueError("v and w must have the same length")
    if next(pairwise_violation_rows(v, tol), None) is not None:
        raise ValueError("v not subadditive")
    if not all(tol.leq(0.0, x) for x in w.values):
        raise ValueError("w not nonnegative")
    u = Sequence(tuple(a + b for a, b in zip(v.values, w.values)), 1)
    epsilon = max(0.0, max(w.values))
    return CompositionResult(u, epsilon, is_approx_subadditive(u, epsilon))
