"""Exact definitions of the convexity criteria, in ``fractions.Fraction``.

Each function follows its statement directly, with no shortcut and no
rounding, so that the package's integer kernels can be compared with it.
The one tolerance rule: the slack at an interior index n is

    s_n = max(abs_tol, rel_tol * max(|2 u_n|, |u_{n-1} + u_{n+1}|)),

and u is convex within tolerance iff ``u + phi`` is convex, where phi is 0
at the first two indices and its second difference at n is ``s_n``.
"""

from __future__ import annotations

from fractions import Fraction


def slack(values, tol) -> list[Fraction]:
    """``s_n`` at each interior index, in order."""
    q = [Fraction(x) for x in values]
    a, r = Fraction(tol.abs_tol), Fraction(tol.rel_tol)
    return [max(a, r * max(abs(2 * q[k]), abs(q[k - 1] + q[k + 1]))) for k in range(1, len(q) - 1)]


def convex_within(values, tol) -> bool:
    """Whether ``u_{n-1} - 2 u_n + u_{n+1} + s_n >= 0`` at every interior n."""
    q = [Fraction(x) for x in values]
    return all(q[k - 1] - 2 * q[k] + q[k + 1] + s >= 0 for k, s in enumerate(slack(values, tol), 1))


def tilted(values, tol) -> tuple[list[Fraction], list[Fraction]]:
    """``u + phi``, and phi's step from each index to the next.

    The step past the last index repeats the one before it (slack 0 there),
    so that every index of u has one.
    """
    q = [Fraction(x) for x in values]
    s = slack(values, tol)
    phi = [Fraction(0)] * len(q)
    for k in range(2, len(q)):
        phi[k] = 2 * phi[k - 1] - phi[k - 2] + s[k - 2]
    lift = [phi[k + 1] - phi[k] for k in range(len(q) - 1)] or [Fraction(0)]
    return [x + p for x, p in zip(q, phi)], lift + lift[-1:]


def verify_support(u, s, tol) -> tuple[bool, tuple, tuple]:
    """``verify_support``'s statement over every pair: ``(ok, subgradient, monotonicity)``.

    Row n holds at m when ``t_n - t_m <= (v_n + lift_n) * (n - m)`` with
    ``t = u + phi``; ``v + lift`` must be nondecreasing over the window.
    """
    t, lift = tilted(u.values, tol)
    base = u.start_index
    window = range(s.first_index, s.last_index + 1)
    slopes = {n: Fraction(s.value_at(n)) + lift[n - base] for n in window}
    sub = tuple(
        (m, n)
        for n in window
        for m in u.indices()
        if t[n - base] - t[m - base] > slopes[n] * (n - m)
    )
    mono = tuple((n, n + 1) for n in window[:-1] if slopes[n] > slopes[n + 1])
    return not sub and not mono, sub, mono
