"""The O(N^2) kernels, on both row paths, against the scalar loops they replaced.

The three O(N^2) kernels (``verify_support``, ``subadditive_hull`` and
``is_subadditive_pairwise``) compute one row at a time: pure-Python rows for
inputs of at most ``PURE_ROWS_MAX_N`` entries, numpy rows above it.  The
hull instead starts with pure rows over a list of candidate splits and
switches to numpy rows once the work left exceeds ``HULL_PURE_CELLS``.  The
``_reference_*`` functions below are the scalar double loops the package
used before its kernels were written as rows.  They are kept here, and only
here, as oracles: values, witnesses and violation lists must match them bit
for bit (compared through ``repr``), including signed zeros, floats across
many magnitudes and sums that overflow to infinity.  Every comparison runs
on both paths, by moving the cutoff below or above the input length, and
the two paths must agree at the real cutoff and one entry above it.  The
hull is also compared with a small budget that switches paths mid-DP.

``support_sequence`` is one linear pass over the adjacent steps and never
loads numpy.  Its oracle is exact: the least slope over all pairs at or
after n, in ``fractions.Fraction``, rounded once.  ``_reference_support``,
the old O(N^2) chord scan, rounds each chord twice, so it stays only as a
lower bound that is reached when no rounding happens.

``verify_support`` skips the rows that the lower convex hull proves to pass.
The properties at the end aim at that proof: convex sequences with entries
moved by one ulp, candidates moved by one ulp or shuffled, floats from
1e-300 to 1e300, and tolerances from zero to the smallest one at which rows
are certified.
"""

from __future__ import annotations

import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqineq import (
    Sequence,
    ToleranceConfig,
    certify_convexity,
    is_subadditive_pairwise,
    subadditive_hull,
    support_sequence,
    verify_support,
)
from seqineq import convexity, subadditivity
from seqineq.convexity import SupportSequence
from seqineq.core import PURE_ROWS_MAX_N

TOLERANCES = (ToleranceConfig(), ToleranceConfig(abs_tol=0.0, rel_tol=0.0))
NUMPY_ROWS = 0  # cutoff below every length: every kernel runs numpy rows
PURE_ROWS = 10**9  # cutoff above every length: every kernel runs pure rows
SWITCH_ROWS = 20  # the hull switches to numpy rows partway through most inputs
CUTOFFS = (NUMPY_ROWS, SWITCH_ROWS, PURE_ROWS)


def _set_cutoff(monkeypatch, cutoff: int) -> None:
    """Set ``PURE_ROWS_MAX_N`` and the hull's ``HULL_PURE_CELLS`` to ``cutoff``.

    A hull budget of 0 runs numpy rows from row 2 on, and a budget above
    ``len(u)**2`` runs pure rows only.
    """
    for module in (convexity, subadditivity):
        monkeypatch.setattr(module, "PURE_ROWS_MAX_N", cutoff)
    monkeypatch.setattr(subadditivity, "HULL_PURE_CELLS", cutoff)


# ------------------------------------------------------------------ oracles

def _reference_support(u: Sequence):
    vals = u.values
    base = u.start_index
    count = len(vals) - 1
    v = [0.0] * count
    witnesses = [(0, 0)] * count
    best = None
    best_pair = (0, 0)
    for i in range(count - 1, -1, -1):
        row_best = None
        row_pair = (0, 0)
        for j in range(i + 1, len(vals)):
            s = (vals[j] - vals[i]) / (j - i)
            if row_best is None or s < row_best:
                row_best = s
                row_pair = (base + i, base + j)
        if best is None or row_best <= best:
            best = row_best
            best_pair = row_pair
        v[i] = best
        witnesses[i] = best_pair
    return tuple(v), tuple(witnesses)


def _reference_verify(u: Sequence, s: SupportSequence, tol: ToleranceConfig):
    sub = []
    for n in range(s.first_index, s.last_index + 1):
        vn = s.value_at(n)
        un = u[n]
        for m in u.indices():
            if not tol.leq(un - u[m], vn * (n - m)):
                sub.append((m, n))
    mono = []
    for n in range(s.first_index, s.last_index):
        if not tol.leq(s.value_at(n), s.value_at(n + 1)):
            mono.append((n, n + 1))
    return not sub and not mono, tuple(sub), tuple(mono)


def _reference_hull(u: Sequence):
    vals = u.values
    v = [0.0]
    last_part = []
    for n, un in enumerate(vals, 1):
        best, part = math.inf, n
        for j in range(1, n):
            cand = vals[j - 1] + v[n - j]
            if cand < best:
                best, part = cand, j
        if best > un:
            part = n
        v.append(best if best < un else un)
        last_part.append(part)
    w = tuple(a - b for a, b in zip(vals, v[1:]))
    for n, (vn, wn) in enumerate(zip(v[1:], w), 1):
        if not math.isfinite(wn):
            raise ValueError(
                f"subadditive hull overflows at n={n}: v[{n}] = {vn!r}, w[{n}] = {wn!r}"
            )
    return tuple(v[1:]), w, max(w), tuple(last_part)


def _reference_pairwise(u: Sequence, tol: ToleranceConfig):
    last = u.last_index
    violations = []
    for m in range(1, last + 1):
        for n in range(m, last - m + 1):
            if not tol.leq(u[m + n], u[m] + u[n]):
                violations.append((m, n))
    return tuple(violations)


# ----------------------------------------------------------------- families

def _small_int(rng: random.Random) -> float:
    return float(rng.randint(-20, 20))


def _wide_float(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 299)


def _signed_zero(rng: random.Random) -> float:
    return rng.choice((0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 1.0, -1.0))


def _near_overflow(rng: random.Random) -> float:
    magnitude = rng.choice((1.7e308, 1.7976931348623157e308, 9e307, 1e308, 0.0))
    return rng.choice((-1.0, 1.0)) * magnitude


FAMILIES = {
    "small-int": _small_int,
    "wide-float": _wide_float,
    "signed-zero": _signed_zero,
    "near-overflow": _near_overflow,
}
LENGTHS = range(1, 61)


def _cases(family: str):
    draw = FAMILIES[family]
    rng = random.Random(f"kernels-{family}")
    for length in LENGTHS:
        yield length, tuple(draw(rng) for _ in range(length)), rng


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _hull_fields(u: Sequence):
    hull = subadditive_hull(u)
    return hull.v.values, hull.w.values, hull.epsilon_star, hull.last_part


def _verify_fields(u: Sequence, s: SupportSequence, tol: ToleranceConfig):
    check = verify_support(u, s, tol)
    return check.ok, check.subgradient_violations, check.monotonicity_violations


# -------------------------------------------------------------------- tests

def _exact_support(u: Sequence):
    """v[n] as the least slope over all pairs at or after n, rounded once."""
    q = [Fraction(x) for x in u.values]
    steps = []
    for k in range(len(q) - 1):
        try:
            steps.append(float(q[k + 1] - q[k]))
        except OverflowError:
            n = u.start_index + k
            step = math.inf if q[k + 1] > q[k] else -math.inf
            return f"ValueError: support sequence overflows at n={n}: u[{n + 1}] - u[{n}] = {step!r}"
    v, pairs = [], []
    best = None
    for i in range(len(q) - 2, -1, -1):
        row = min((q[j] - q[i]) / (j - i) for j in range(i + 1, len(q)))
        best = row if best is None else min(best, row)
        v.append(float(best))
    for k, vk in enumerate(reversed(v)):
        first = next(j for j in range(k, len(steps)) if steps[j] == vk)
        pairs.append((u.start_index + first, u.start_index + first + 1))
    return tuple(reversed(v)), tuple(pairs)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_support_sequence_is_the_rounded_least_slope(family):
    for length, values, _ in _cases(family):
        for base in (0, 1):
            u = Sequence(values, base)
            if length < 2:
                with pytest.raises(ValueError, match="too short"):
                    support_sequence(u)
                continue
            expected = _exact_support(u)
            try:
                s = support_sequence(u)
            except ValueError as exc:
                assert f"ValueError: {exc}" == expected
                continue
            got = s.values, s.witness_pairs
            # == on values, so that 0.0 and -0.0 both match the oracle's 0.0;
            # each value carries the bits of its witness step.
            assert got == expected
            assert all(repr(x) == repr(u[n + 1] - u[n]) for x, (n, _) in zip(*got))
            # The old chord scan's minimum includes every step, so it is a
            # lower bound; without rounding (small-int, signed-zero) it is
            # reached, bits and witnesses included.
            old = _reference_support(u)
            assert all(x >= y for x, y in zip(got[0], old[0]))
            if family in ("small-int", "signed-zero"):
                assert repr(got) == repr(old)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_support_kernels_match_reference(family, monkeypatch):
    for cutoff in (NUMPY_ROWS, PURE_ROWS):
        _set_cutoff(monkeypatch, cutoff)
        _check_support_kernels(family)


def _check_support_kernels(family):
    for length, values, rng in _cases(family):
        for base in (0, 1):
            u = Sequence(values, base)
            if length < 2 or base != length // 2 % 2:
                continue
            # Odd lengths verify the canonical candidate, even lengths a
            # foreign one that fills both violation lists.  Base, candidate
            # and tolerance take all eight combinations within any 8 lengths.
            if length % 2:
                try:
                    candidate = support_sequence(u)
                except ValueError:
                    # A step overflows: verify the old chord scan's
                    # candidate instead, with its infinite values.
                    candidate = SupportSequence(u, _reference_support(u)[0], base, u.last_index - 1)
            else:
                candidate = SupportSequence(
                    u, tuple(FAMILIES[family](rng) for _ in range(length - 1)), base, u.last_index - 1
                )
            tol = TOLERANCES[length // 4 % 2]
            assert _outcome(_verify_fields, u, candidate, tol) == _outcome(
                _reference_verify, u, candidate, tol
            )


def test_support_is_the_least_step_not_a_rounded_chord():
    u = Sequence((-0.07162001407713015, 0.6283799859228698, 1.3283799859228698, 2.0283799859228697), 0)
    # (u[3] - u[0]) / 3 rounds twice and lands below every rounded step.
    assert _reference_support(u)[0][0] == 0.6999999999999998
    assert _reference_support(u)[1][0] == (0, 3)
    s = support_sequence(u)
    assert (s.values[0], s.witness_pairs[0]) == (0.7, (0, 1))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_subadditivity_kernels_match_reference(family, monkeypatch):
    for cutoff in CUTOFFS:
        _set_cutoff(monkeypatch, cutoff)
        for _, values, _ in _cases(family):
            u = Sequence(values, 1)
            assert _outcome(_hull_fields, u) == _outcome(_reference_hull, u)
            for tol in TOLERANCES:
                assert repr(is_subadditive_pairwise(u, tol).violations) == repr(
                    _reference_pairwise(u, tol)
                )


def _check_hull_on_every_path(u: Sequence) -> None:
    expected = _outcome(_reference_hull, u)
    with pytest.MonkeyPatch.context() as mp:
        for cutoff in CUTOFFS:
            _set_cutoff(mp, cutoff)
            assert _outcome(_hull_fields, u) == expected


@st.composite
def integer_valued_inputs(draw):
    """Integer-valued floats, some where exact sums stop being guaranteed.

    On such input the pure rows scan only the generators as long as ``N *
    max|u| < 2**53``; the "huge" kind puts ``N * max|u|`` or ``sum(|u|)``
    right at 2**53.
    """
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(("ints", "pool", "huge")))
    if kind == "ints":
        values = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
    elif kind == "pool":
        # Few distinct values, so that split sums tie often.
        values = draw(st.lists(st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0, 3.0)), min_size=n, max_size=n))
    else:
        top = 2**53 // draw(st.sampled_from((n, 1, 2)))
        big = st.builds(lambda x, sign: sign * x, st.integers(top - 4, top + 4), st.sampled_from((-1, 1)))
        values = draw(st.lists(st.one_of(st.integers(-3, 3), st.just(-0.0), big), min_size=n, max_size=n))
    return Sequence(values, 1)


@settings(max_examples=300, deadline=None)
@given(u=integer_valued_inputs())
def test_hull_matches_reference_on_integer_valued_input(u):
    _check_hull_on_every_path(u)


@pytest.mark.parametrize("values", [
    # sum(|u|) < 2**53, but a part can repeat: v[7] = u[1] + 2 * u[3] =
    # -(2**53 + 1) rounds to -2**53, and the first minimiser of row 8 is
    # j = 2, which is not a generator (last_part[1] == 1).
    (1.0, 2.0, -4503599627370497.0, 0.0, -3.0, -3.0, -3.0, -3.0, 3.0),
    # One decimal: in floats a generator-only scan gives another last_part.
    (0.3, 0.4, 0.7, 0.2, 0.7, 1.1, 1.1, 0.3, 1.1, 0.3, 0.2, 0.3, 1.1),
])
def test_hull_scans_every_split_where_sums_round(values):
    _check_hull_on_every_path(Sequence(values, 1))


def _all_kernels(values, rng, family):
    """Every kernel's output on one input, as a ``repr`` per call."""
    out = []
    for base in (0, 1):
        u = Sequence(values, base)
        try:
            s = support_sequence(u)
        except ValueError as exc:
            out.append(f"ValueError: {exc}")
            # A step overflows: verify the old chord scan's candidate instead.
            s = SupportSequence(u, _reference_support(u)[0], base, u.last_index - 1)
        else:
            out.append(repr((s.values, s.witness_pairs)))
        foreign = SupportSequence(
            u, tuple(FAMILIES[family](rng) for _ in range(len(u) - 1)), base, u.last_index - 1
        )
        out.append(_outcome(_verify_fields, u, s, TOLERANCES[base]))
        out.append(_outcome(_verify_fields, u, foreign, TOLERANCES[1 - base]))
    u = Sequence(values, 1)
    out.append(_outcome(_hull_fields, u))
    for tol in TOLERANCES:
        out.append(repr(is_subadditive_pairwise(u, tol).violations))
    return out


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("length", [PURE_ROWS_MAX_N, PURE_ROWS_MAX_N + 1])
def test_both_row_paths_agree_at_the_cutoff(family, length, monkeypatch):
    draw = FAMILIES[family]
    rng = random.Random(f"cutoff-{family}-{length}")
    values = tuple(draw(rng) for _ in range(length))
    seed = f"foreign-{family}-{length}"
    default = _all_kernels(values, random.Random(seed), family)
    _set_cutoff(monkeypatch, NUMPY_ROWS)
    numpy_rows = _all_kernels(values, random.Random(seed), family)
    _set_cutoff(monkeypatch, PURE_ROWS)
    pure_rows = _all_kernels(values, random.Random(seed), family)
    assert numpy_rows == pure_rows
    assert default == pure_rows


SPECIALS = (0.0, -0.0, 1e-9, -1e-9, 1e-300, 5e-324, 1.0, -1.0, 1e300, -1e300,
            1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf)


@pytest.mark.parametrize("tol", [ToleranceConfig(), ToleranceConfig(0.0, 0.0),
                                 ToleranceConfig(abs_tol=0.5, rel_tol=0.0),
                                 ToleranceConfig(abs_tol=0.0, rel_tol=1e-3)])
def test_leq_mask_matches_leq_elementwise(tol):
    rng = random.Random(7)
    xs = list(SPECIALS) + [_wide_float(rng) for _ in range(300)]
    ys = list(SPECIALS) + [_wide_float(rng) for _ in range(300)]
    # Near neighbours, so that the tolerance boundary itself is exercised.
    ys += [x * (1.0 + rng.choice((-2e-9, -1e-9, 0.0, 1e-9, 2e-9))) for x in xs[len(SPECIALS):]]
    xs += xs[len(SPECIALS):]
    pairs = [(x, y) for x in xs[:40] for y in ys[:40]] + list(zip(xs, ys))
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask = tol.leq_mask(x, y)
    assert mask.tolist() == [tol.leq(a, b) for a, b in pairs]


BIG = (1.7e308, 1.7e308, 1.7e308, 1.7e308)
MIXED = (1.7e308, -1.7e308, 1.7e308, -1.7e308)


@pytest.mark.parametrize("values", [BIG, MIXED])
def test_kernels_raise_no_numpy_warnings(values, monkeypatch):
    _set_cutoff(monkeypatch, NUMPY_ROWS)
    u = Sequence(values, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verify_support(u, SupportSequence(u, (math.inf, -math.inf, 0.0), 1, 3))
        if values == BIG:
            verify_support(u, support_sequence(u))
            subadditive_hull(u)
        else:
            # The steps and the hull reach -inf, so v and w = u - v are not
            # finite.
            with pytest.raises(ValueError, match="support sequence overflows"):
                support_sequence(u)
            with pytest.raises(ValueError):
                subadditive_hull(u)
        is_subadditive_pairwise(u)
        is_subadditive_pairwise(u, ToleranceConfig(0.0, 0.0))


@pytest.mark.parametrize("command", ["support", "hull", "epsilon"])
def test_cli_on_overflowing_input_writes_nothing_to_stderr(tmp_path, command):
    path = tmp_path / "big.csv"
    path.write_text("".join(f"{x!r}\n" for x in BIG))
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "seqineq.cli", command, str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


# ------------------------------------------- rows certified by the convex hull

# verify_support skips a row only when the lower convex hull proves that all
# of its comparisons pass; that needs rel_tol >= 2**-50, so the zero and the
# absolute-only tolerances run every row, and 2**-50 itself is the tightest
# tolerance the certificate is used at.
HULL_TOLERANCES = (
    ToleranceConfig(),
    ToleranceConfig(0.0, 0.0),
    ToleranceConfig(abs_tol=1e-9, rel_tol=0.0),
    ToleranceConfig(abs_tol=0.0, rel_tol=2.0**-50),
)

wide_floats = st.builds(
    lambda sign, x: sign * x,
    st.sampled_from((-1.0, 1.0)),
    st.floats(min_value=1e-300, max_value=1e300),
)


@st.composite
def near_tangent_inputs(draw):
    """A sequence of 2..24 entries, often convex with entries 1 ulp off."""
    n = draw(st.integers(2, 24))
    family = draw(st.sampled_from(("int", "wide", "convex-int", "convex-float")))
    if family == "int":
        values = [float(x) for x in draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))]
    elif family == "wide":
        values = draw(st.lists(wide_floats, min_size=n, max_size=n))
    else:
        if family == "convex-int":
            steps = draw(st.lists(st.integers(-1000, 1000), min_size=n - 1, max_size=n - 1))
        else:
            steps = draw(st.lists(st.floats(-1000.0, 1000.0), min_size=n - 1, max_size=n - 1))
        scale = 10.0 ** draw(st.integers(-300, 290))
        values = [draw(st.floats(-1000.0, 1000.0)) * scale]
        for step in sorted(steps):
            values.append(values[-1] + step * scale)
    # Shift some entries by one ulp, either way: a convex sequence then has
    # supporting lines that miss the hull by about one ulp.
    shifts = draw(st.lists(st.sampled_from((0, 0, 1, -1)), min_size=n, max_size=n))
    values = [math.nextafter(x, math.inf * d) if d else x for x, d in zip(values, shifts)]
    return Sequence(values, draw(st.integers(0, 1)))


@st.composite
def candidates(draw, u: Sequence):
    """The canonical support of u, or a foreign candidate on its window."""
    s = support_sequence(u)
    kind = draw(st.sampled_from(("canonical", "ulp", "shuffled", "foreign")))
    if kind == "canonical":
        return s
    if kind == "ulp":
        signs = draw(st.lists(st.sampled_from((0, 1, -1)), min_size=len(s.values), max_size=len(s.values)))
        values = [math.nextafter(x, math.inf * d) if d else x for x, d in zip(s.values, signs)]
    elif kind == "shuffled":
        values = draw(st.permutations(s.values))
    else:
        values = draw(st.lists(wide_floats, min_size=len(s.values), max_size=len(s.values)))
    return SupportSequence(u, tuple(values), s.first_index, s.last_index)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), u=near_tangent_inputs(), tol=st.sampled_from(HULL_TOLERANCES))
def test_verify_support_matches_reference_near_the_hull(data, u, tol):
    candidate = data.draw(candidates(u))
    expected = repr(_reference_verify(u, candidate, tol))
    with pytest.MonkeyPatch.context() as mp:
        for cutoff in (NUMPY_ROWS, PURE_ROWS):
            _set_cutoff(mp, cutoff)
            assert repr(_verify_fields(u, candidate, tol)) == expected


def _certified_support_ok(u: Sequence, tol: ToleranceConfig) -> bool:
    """``certify_convexity(u, tol).support_ok``, also when the legs disagree."""
    try:
        return certify_convexity(u, tol).support_ok
    except RuntimeError as exc:
        # At the tolerance boundary the legs may disagree; the error names
        # each leg's verdict.
        return re.search(r"support=(True|False)", str(exc)).group(1) == "True"


@settings(max_examples=300, deadline=None)
@given(u=near_tangent_inputs(), tol=st.sampled_from(HULL_TOLERANCES))
def test_certificate_support_leg_matches_verify_support(u, tol):
    assert _certified_support_ok(u, tol) == verify_support(u, support_sequence(u), tol).ok


def test_certificate_builds_no_violation_list():
    rng = random.Random("certificate-memory")
    u = Sequence([float(rng.randint(0, 1000)) for _ in range(3000)], 0)
    certify_convexity(u)  # numpy and the module-level caches load untraced
    tracemalloc.start()
    try:
        cert = certify_convexity(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not cert.is_convex and not cert.support_ok
    # The full list for this input holds millions of (m, n) tuples.
    assert peak < 20 * 2**20
