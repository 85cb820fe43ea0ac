"""Core sequence type, difference operators, and elementary classifiers.

A :class:`Sequence` is a finite real-valued sequence together with the
absolute index of its first entry (0 or 1).  Convexity analysis is naturally
anchored at 0, subadditivity at 1; keeping the anchor on the value makes that
distinction explicit instead of a calling convention.

Everything else in the package builds on the operations here: forward and
second differences, the mediant inequality for ratio bounds, and the
flag-style :func:`classify` used by the monotonicity/subadditivity bridges.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from operator import add

# The O(N^2) kernels verify_support and pairwise_violation_rows run
# pure-Python rows on inputs of at most this many entries and numpy rows on
# longer ones, with bit-identical results (verify_support runs its first
# uncertified row in pure Python whatever the length).  Importing numpy takes
# about 100 ms on a 2-vCPU VM.  verify_support, the slowest kernel per cell,
# takes about 60 ms of pure rows at N = 256 and reaches the import's cost
# between N = 384 and 512 in a fresh process, so up to this length both
# kernels are cheaper without numpy.  subadditive_hull does not use this
# cutoff: it switches by the work left (subadditivity.HULL_PURE_CELLS).
PURE_ROWS_MAX_N = 256


def frozen(cls=None, /, *, hidden=()):
    """Make ``cls`` an immutable value class over its annotated fields.

    It behaves as ``@dataclass(frozen=True)`` does, as far as this package
    uses it, but without ``dataclasses``, whose import (with ``inspect``)
    and generated methods cost every command-line process about 25 ms on a
    2-vCPU VM:

    * ``__init__`` takes the fields in declaration order, positionally or
      by keyword, with their class attributes as defaults, then calls
      ``__post_init__`` if the class has one;
    * ``__eq__`` (same class only), ``__hash__`` and ``__repr__`` go over
      the fields, leaving out those named in ``hidden``;
    * assignment and deletion raise ``dataclasses.FrozenInstanceError``,
      so ``__post_init__`` sets a field with ``object.__setattr__``.

    Instances keep a ``__dict__``, so a ``functools.cached_property`` works.
    """
    if cls is None:
        return lambda cls: frozen(cls, hidden=hidden)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    shown = tuple(name for name in names if name not in hidden)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    # A generated ``__init__`` sets the fields as fast as the dataclass one;
    # a generic ``*args`` one costs about a third more per instance.
    params = ", ".join(f"{name}=_defaults[{name!r}]" if name in defaults else name for name in names)
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    namespace = {"_set": object.__setattr__, "_defaults": defaults}
    exec(f"def __init__(self, {params}):{body}", namespace)

    def key(self):
        return tuple([getattr(self, name) for name in shown])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(shown, key(self)))
        return f"{self.__class__.__qualname__}({fields})"

    for method in (namespace["__init__"], __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


def _refuse_assignment(self, name, value):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


@frozen
class ToleranceConfig:
    """Slack used by every inequality check in the package.

    ``x <= y`` is accepted within tolerance when

        x <= y + max(abs_tol, rel_tol * max(|x|, |y|))

    Both knobs default to 1e-9.  Exact quantities (hull values, witness
    reconstruction, file round trips) never go through a tolerance.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and nonnegative")

    def slack(self, x: float, y: float) -> float:
        return max(self.abs_tol, self.rel_tol * max(abs(x), abs(y)))

    def leq(self, x: float, y: float) -> bool:
        """Whether ``x <= y`` holds within tolerance."""
        return x <= y + self.slack(x, y)

    def leq_mask(self, x, y):
        """:meth:`leq` elementwise over arrays, with the same verdicts.

        ``np.fmax`` keeps ``abs_tol`` where ``rel_tol * inf`` is nan, as
        Python's ``max`` does; a nan in ``x`` or ``y`` fails either way.
        """
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.maximum(np.abs(x), np.abs(y))
            return x <= y + np.fmax(self.abs_tol, self.rel_tol * scale)


DEFAULT_TOLERANCE = ToleranceConfig()


def dyadic_integers(values: Iterable[float]) -> tuple[list[int], int]:
    """Scale floats to integers by one power of two: ``x == y / den`` exactly.

    Every finite float is a dyadic rational ``a / 2**e``, so the largest of
    the denominators is a multiple of all the others.

    >>> dyadic_integers((1.5, -2.0, 0.25))
    ([6, -8, 1], 4)
    """
    ratios = [x.as_integer_ratio() for x in values]
    den = max(d for _, d in ratios)
    return [a * (den // d) for a, d in ratios], den


@frozen
class Sequence:
    """Finite real-valued sequence anchored at absolute index 0 or 1.

    Entries are stored as floats and must be finite; the sequence must be
    nonempty.  Indexing is by absolute index: ``u[n]`` is the entry at
    position ``n``, which is only valid for ``start_index <= n <= last_index``.

    >>> u = Sequence((0, -1, 1, 3), start_index=0)
    >>> u[0], u[3]
    (0.0, 3.0)
    >>> len(u), u.last_index
    (4, 3)
    """

    values: tuple[float, ...]
    start_index: int = 1

    def __post_init__(self) -> None:
        vals = []
        for k, v in enumerate(self.values):
            try:
                vals.append(float(v))
            except OverflowError:
                raise ValueError(
                    f"sequence entry u[{self.start_index + k}] is out of float range"
                ) from None
        vals = tuple(vals)
        if not vals:
            raise ValueError("sequence must be nonempty")
        if any(not math.isfinite(v) for v in vals):
            raise ValueError("sequence entries must be finite")
        if self.start_index not in (0, 1):
            raise ValueError("start_index must be 0 or 1")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    @property
    def last_index(self) -> int:
        return self.start_index + len(self.values) - 1

    def indices(self) -> range:
        """Absolute indices of the entries, in order."""
        return range(self.start_index, self.last_index + 1)

    def __getitem__(self, n: int) -> float:
        if not self.start_index <= n <= self.last_index:
            raise IndexError(
                f"index {n} outside [{self.start_index}, {self.last_index}]"
            )
        return self.values[n - self.start_index]


@frozen
class MediantReport:
    """Bounds from the mediant inequality: min_ratio <= combined_ratio <= max_ratio."""

    min_ratio: float
    combined_ratio: float
    max_ratio: float


@frozen
class ClassificationFlags:
    """Elementary shape flags for a sequence; see :func:`classify`."""

    nonnegative: bool
    monotone_increasing: bool
    monotone_decreasing: bool
    convex: bool
    concave: bool

    def as_dict(self) -> dict[str, bool]:
        return {
            "nonnegative": self.nonnegative,
            "monotone_increasing": self.monotone_increasing,
            "monotone_decreasing": self.monotone_decreasing,
            "convex": self.convex,
            "concave": self.concave,
        }


def forward_differences(u: Sequence) -> Sequence:
    """First differences ``u[n+1] - u[n]``, re-anchored at index 1.

    A sequence starting at 0 has its differences naturally indexed from 1;
    differences of a sequence starting at 1 are re-anchored to 1 as well so
    that difference sequences always live in the base-1 world where the
    subadditivity operations apply.
    """
    if len(u) < 2:
        raise ValueError("sequence too short")
    vals = tuple(b - a for a, b in zip(u.values, u.values[1:]))
    return Sequence(vals, min(u.start_index + 1, 1))


def second_differences(u: Sequence) -> Sequence:
    """Second differences ``u[k] - 2*u[k+1] + u[k+2]``, anchored at index 1.

    Agrees entrywise with ``forward_differences(forward_differences(u))``.
    A nonnegative second difference at each interior point is the discrete
    analogue of a nonnegative second derivative.
    """
    if len(u) < 3:
        raise ValueError("sequence too short")
    v = u.values
    vals = tuple(v[k] - 2.0 * v[k + 1] + v[k + 2] for k in range(len(v) - 2))
    for k, s in enumerate(vals):
        if not math.isfinite(s):
            n = u.start_index + k
            raise ValueError(f"second difference of u[{n}..{n + 2}] overflows")
    return Sequence(vals, 1)


def mediant_bounds(a: Iterable[float], b: Iterable[float]) -> MediantReport:
    """Bound the combined ratio ``sum(a)/sum(b)`` by the extreme ratios ``a[i]/b[i]``.

    All denominators must be strictly positive.

    >>> r = mediant_bounds((2.0, 2.0), (1.0, 2.0))
    >>> (r.min_ratio, r.max_ratio)
    (1.0, 2.0)
    >>> abs(r.combined_ratio - 4.0 / 3.0) < 1e-15
    True
    """
    av = tuple(float(x) for x in a)
    bv = tuple(float(x) for x in b)
    if len(av) != len(bv):
        raise ValueError("a and b must have the same length")
    if not av:
        raise ValueError("a and b must be nonempty")
    if any(not math.isfinite(x) for x in av + bv):
        raise ValueError("entries must be finite")
    if any(x <= 0.0 for x in bv):
        raise ValueError("denominators must be positive")
    ratios = tuple(x / y for x, y in zip(av, bv))
    return MediantReport(min(ratios), sum(av) / sum(bv), max(ratios))


def defining_sides(u: Sequence) -> list[tuple[float, float]]:
    """Both sides ``(2*u[n], u[n-1] + u[n+1])`` of the defining inequality of convexity.

    One pair per interior index n, in order.  A side that overflows is
    raised as a ``ValueError`` naming the first such ``u[n-1..n+1]``, as
    :func:`second_differences` does: an infinite side makes the slack
    infinite, so no verdict drawn from it would mean anything.
    """
    v = u.values
    twice = [2.0 * x for x in v[1:-1]]
    outer = list(map(add, v, v[2:]))
    if any(map(math.isinf, twice)) or any(map(math.isinf, outer)):
        k = next(k for k, (a, b) in enumerate(zip(twice, outer)) if math.isinf(a) or math.isinf(b))
        n = u.start_index + k
        raise ValueError(f"second difference of u[{n}..{n + 2}] overflows")
    return list(zip(twice, outer))


def classify(u: Sequence, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> ClassificationFlags:
    """Shape flags, each decided within tolerance.

    ``convex`` makes the comparisons of the defining inequality,
    ``tol.leq(2*u[n], u[n-1] + u[n+1])`` at every interior n, and
    ``concave`` the reverse ones, so ``convex`` is the verdict of
    :func:`~seqineq.convexity.check_defining_inequality` under the same
    tolerance, and an overflowing side raises the same error.  Both are
    vacuously true for sequences shorter than 3; the monotonicity flags are
    vacuously true for singletons.  A nonnegative decreasing sequence
    anchored at 1 is always pairwise subadditive, and differences of a
    concave increasing nonnegative sequence are decreasing and nonnegative;
    these flags are the hypotheses of those bridges.
    """
    v = u.values
    nonnegative = all(tol.leq(0.0, x) for x in v)
    increasing = all(tol.leq(x, y) for x, y in zip(v, v[1:]))
    decreasing = all(tol.leq(y, x) for x, y in zip(v, v[1:]))
    sides = defining_sides(u)
    convex = all(tol.leq(twice, outer) for twice, outer in sides)
    concave = all(tol.leq(outer, twice) for twice, outer in sides)
    return ClassificationFlags(nonnegative, increasing, decreasing, convex, concave)
