"""Exact sign tests for integer polynomials on an interval.

:func:`nonnegative_on` decides ``q >= 0`` on [lo, hi] for a polynomial q
with integer coefficients and float ends, in integer arithmetic only.
:func:`~seqineq.interpolation.polynomial_convexity_on_interval` imports this
module when it first runs, so the other commands neither compile nor load
it.
"""

from __future__ import annotations

import itertools
import math

from .core import dyadic_integers

# Cells that nonnegative_on may halve before it turns to Sturm sequences.
# A cell stays undecided only near a point where q (almost) touches zero,
# so a near-tangent uses about two per level; the budget bounds the time,
# never the verdict.
_BERNSTEIN_SPLITS = 64


def nonnegative_on(q: list[int], lo: float, hi: float, cells: int) -> bool:
    """Whether the integer polynomial q (ascending) is >= 0 on [lo, hi], exactly.

    With ``x = lo + (hi - lo) t``, q becomes an integer polynomial r in t
    on [0, 1], up to a positive factor, and three steps decide:

    1. r at the ``cells + 1`` equally spaced points of [0, 1] (for the
       interpolant of :func:`~seqineq.interpolation.lagrange_polynomial`,
       its nodes): a negative value refutes at once, which settles almost
       every input that is not nonnegative.
    2. The Bernstein coefficients of r: if none is negative, r >= 0 on
       [0, 1].  Otherwise each cell with a negative coefficient is halved
       by de Casteljau's rule, breadth first, and a cell whose end value is
       negative refutes.
    3. After ``_BERNSTEIN_SPLITS`` halvings, which only a near-tangent
       takes, Sturm sequences count the roots of odd multiplicity in
       (0, 1): r >= 0 iff there are none, since step 1 found a positive
       value.  This is the slow step: about 0.4 s at degree 62, against a
       few milliseconds for steps 1 and 2.

    ``cells`` must be at least the degree of q, so that step 1 sees a
    nonzero value of any q that is not identically zero.
    """
    (start, stop), scale = dyadic_integers((lo, hi))
    width = stop - start
    d = len(q) - 1
    # r = scale**d * q(x), by Horner on the polynomials (start + width t) / scale
    r = [q[d]]
    power = 1
    for c in reversed(q[:d]):
        power *= scale
        r = [start * x + width * y for x, y in zip(r + [0], [0] + r)]
        r[0] += c * power
    # Step 1: cells**d * r(i / cells), by Horner with homogenised coefficients.
    steps = [c * cells ** (d - k) for k, c in enumerate(r)]
    for i in range(cells + 1):
        value = 0
        for c in reversed(steps):
            value = value * i + c
        if value < 0:
            return False
    # Step 2: d! times the Bernstein coefficients, sum_k C(i, k) k! (d-k)! r_k.
    bern = [c * math.factorial(k) * math.factorial(d - k) for k, c in enumerate(r)]
    for k in range(d - 1, -1, -1):
        for j in range(k, d):
            bern[j + 1] += bern[j]
    pending = [bern]
    for cell in pending:
        if min(cell) >= 0:
            continue
        if cell[0] < 0 or cell[-1] < 0:
            return False
        if len(pending) > 2 * _BERNSTEIN_SPLITS:
            return _no_odd_roots_inside(r)
        pending += _halves(cell)
    return True


def _halves(cell: list[int]) -> tuple[list[int], list[int]]:
    """Bernstein coefficients of both halves of a cell, both scaled by ``2**d``."""
    d = len(cell) - 1
    left, right = [0] * (d + 1), [0] * (d + 1)
    left[0], right[d] = cell[0] << d, cell[d] << d
    row = cell
    for k in range(1, d + 1):
        row = [x + y for x, y in zip(row, row[1:])]  # 2**k times level k
        left[k] = row[0] << (d - k)
        right[d - k] = row[-1] << (d - k)
    return left, right


def _no_odd_roots_inside(r: list[int]) -> bool:
    """Whether no root of odd multiplicity of r (nonzero) lies in (0, 1).

    With ``g_0 = r`` and ``g_{k+1} = gcd(g_k, g_k')``, the distinct roots
    of ``g_k`` are those of multiplicity above k, so the alternating sum of
    their counts counts each root of odd multiplicity once.  The Sturm
    sequence of ``g_k`` counts them and ends in ``g_{k+1}``.  Roots at 0 and
    1 are divided out first, so no ``g_k`` vanishes at either end.
    """
    while r[0] == 0:
        r = r[1:]
    while sum(r) == 0:  # divide by t - 1
        quotient = list(itertools.accumulate(reversed(r[1:])))
        r = quotient[::-1]
    odd, sign, g = 0, 1, r
    while len(g) > 1:
        chain = _sturm_chain(g)
        odd += sign * (_variations([c[0] for c in chain]) - _variations(list(map(sum, chain))))
        g, sign = chain[-1], -sign
    return odd == 0


def _sturm_chain(g: list[int]) -> list[list[int]]:
    """g, g' and the negated remainders, each up to a positive factor.

    A primitive pseudo-remainder sequence: the remainder of ``|lc|**(δ+1)
    * a`` by b is an integer polynomial, the positive factor keeps its
    signs, and dividing by the content keeps the integers short.
    """
    chain = [g, [k * c for k, c in enumerate(g)][1:]]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        lc, db = b[-1], len(b) - 1
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i]
            a = [lc * x for x in a[:i]]
            for j in range(db):
                a[i - db + j] -= c * b[j]
        if lc > 0 or (len(chain[-2]) - db) % 2 == 0:
            a = [-x for x in a]
        while a and a[-1] == 0:
            a.pop()
        if not a:
            break
        content = math.gcd(*a)
        chain.append([x // content for x in a])
    return chain


def _variations(values: list[int]) -> int:
    """Sign changes along values, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))
