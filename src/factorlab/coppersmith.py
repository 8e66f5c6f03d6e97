"""Small-root solvers for the bilinear factoring family
f(x, y) = (m*x + P0)(m*y + Q0) - N.

The splitter (solve_bivariate) works on x alone and searches only the
columns where p = m*x + P0 > 0, the only ones that can name a factor.  After
the x interval is narrowed against the window of admissible co-factors, it
is walked up from its smallest p.  An attempt centred at xc solves the
univariate f(t) = t + (m*xc + P0)*m^(-1) mod N, which vanishes modulo
p = m*(xc + t) + P0 at every root (with f(t) = m*t + m*xc + P0 when m is not
invertible mod N).  A dimension-3 Howgrave-Graham basis over 1, t, t^2 is
reduced.  p divides a reduced g = g0 + g1*t + g2*t^2 at every root, so
wherever |g| < p the root is one of g's integer roots, which follow from
the discriminant and are checked by division.  Along the walk p grows by m
a column, so whether |g| < p holds is a pair of quadratic inequalities,
and a reduced g vouches for every column from the walk's position on up to
the first where one of them fails.  The worst-case LLL bound gives a
certified half-width that grows linearly with p; each attempt is centred
twice that past the walk's position, and the next one starts just past the
last column its best g vouches for.  An attempt whose polynomials all fail
at its first column is retried from there at the certified width, which
the certificate says always suffices.  What a retry left uncovered anyway,
and every interval with no certified width (tiny N), is scanned column by
column, so the walk finds exactly the in-box roots with p > 0 regardless
of box size.  Attempts and scans cover ascending, disjoint columns, each
with at most one root, which _record (the box rule, |y0| <= Y, and the
re-verification) appends to the list of the attempt or scan that reached
it.  The walk (_walk) yields each such list that is not empty, so the
roots come out sorted.

A box with P0 = c >= 1 and Q0 = d >= 1 may be cheaper to scan than to walk.
Every root has the co-factor sum z = d*p + c*q = N + c*d (mod m^2), and
z^2 - 4*c*d*N = (d*p - c*q)^2: Lehman's square test, the row k = c*d.  When
the sums a root in the narrowed interval can have number at most
_SUMS_PER_STEP times its certified steps, each is tested instead
(_scan_sums), and the interval's roots are one list.  So it goes for
theorem4's boxes, with m about N^(1/4) and small residues; a hint box,
whose residues spread over [0, m), typically has hundreds of sums per step
and is walked.

Only the first attempt of the walk reduces N, f and t*f; every later
attempt warm-starts from the previous reduced basis, shifted to its own
centre, which keeps the determinant the certificate rests on.

solve_bivariate consumes the walk for the hint solvers and theorem4: it
joins the lists, and with `first` stops after the first one, which holds
the least proper divisor 1 < p < N if there is one (only the last list can
hold p = 1 or p = N): all that theorem4_driver uses of a residue pair.
solve_trivariate consumes the walk directly, one q window at a time.

solve_bivariate also reports `certified`: whether the box meets
Coppersmith's bivariate bound X*Y <= W^(2/3), W the height of f(x*X, y*Y)
with its content removed.  No lattice here depends on it; the splitter is
exact for every box.  empirical_envelope measures how far one attempt
centred on the whole box reaches, next to that bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, isqrt

from .arith import Split, is_perfect_square, random_prime
from .errors import Exhausted, NoRoot
# lll_reduce and resultant are unused here; perfbench/tracing.py wraps them by name.
from .lattice import lll_reduce, lll_rows  # noqa: F401
from .polynomial import resultant  # noqa: F401
from .residue import ResiduePair, pair_driver, theorem4_pairs

__all__ = [
    "BivariateProblem",
    "RootSolution",
    "TrivariateProblem",
    "default_box_bound",
    "empirical_envelope",
    "solve_bivariate",
    "solve_lsb_known",
    "solve_msb_known",
    "solve_trivariate",
    "certified_regime",
    "theorem4_driver",
]


@dataclass(frozen=True)
class BivariateProblem:
    """Root search for (m*x + P0)(m*y + Q0) - N over |x| <= X, |y| <= Y.

    The plain approximation form uses m = 1 with P0, Q0 the factor hints;
    the residue form uses the one modulus m of both factors, with P0, Q0
    their residues.
    """

    N: int
    P0: int
    Q0: int
    X: int
    Y: int
    m: int = 1

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        if self.X < 1 or self.Y < 1:
            raise ValueError("bounds must be >= 1")
        if self.m < 1:
            raise ValueError("m must be >= 1")


@dataclass(frozen=True)
class TrivariateProblem:
    """Exhaustive-z variant: q is approximated as M*z0 -/+ a for
    0 <= a <= a_max and 1 <= z0 <= z_max."""

    N: int
    P0: int
    M: int
    a_max: int
    z_max: int
    X: int
    Y: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        if self.X < 1 or self.Y < 1:
            raise ValueError("bounds must be >= 1")
        if self.M < 1:
            raise ValueError("M must be >= 1")


@dataclass(frozen=True)
class RootSolution:
    """An in-box root and the factor pair it certifies: p = m*x0 + P0,
    q = m*y0 + Q0, p*q = N."""

    x0: int
    y0: int
    p: int
    q: int
    z0: int | None = None


def certified_regime(prob: BivariateProblem) -> bool:
    """Coppersmith's bivariate bound X*Y <= W**(2/3), compared exactly, where
    W is the height of f(x*X, y*Y) for f = (m*x + P0)(m*y + Q0) - N with its
    content removed."""
    m, p0, q0 = prob.m, prob.P0, prob.Q0
    coeffs = (m * m, m * q0, m * p0, p0 * q0 - prob.N)
    scales = (prob.X * prob.Y, prob.X, prob.Y, 1)
    w = max(abs(c * s) for c, s in zip(coeffs, scales)) // gcd(*coeffs)
    return (prob.X * prob.Y) ** 3 <= w * w


def default_box_bound(big_n: int) -> int:
    """Symmetric box default covering a quarter-of-the-bits hint: one power
    of two above 2**(bits/4), so the derived co-factor offset fits too."""
    return 1 << (big_n.bit_length() // 4 + 1)


def _quad_roots(u2: int, u1: int, u0: int, lo: int, hi: int) -> list[int]:
    """Integer roots of u2*x^2 + u1*x + u0 inside [lo, hi], exactly."""
    if u2 == 0:
        if u1 == 0:
            return []
        if u0 % u1 == 0:
            r = -u0 // u1
            if lo <= r <= hi:
                return [r]
        return []
    disc = u1 * u1 - 4 * u2 * u0
    if disc < 0:
        return []
    s = is_perfect_square(disc)
    if s is None:
        return []
    roots = []
    for num in (-u1 + s, -u1 - s):
        if num % (2 * u2) == 0:
            r = num // (2 * u2)
            if lo <= r <= hi and r not in roots:
                roots.append(r)
    return sorted(roots)


def _record(prob: BivariateProblem, x0: int, roots: list[RootSolution]) -> None:
    """Append the root at column x0 when p = m*x0 + P0 divides N and the
    co-factor q = N/p lies on the residue line m*y0 + Q0 with |y0| <= Y: the
    only place a column becomes a root, re-verified against f."""
    p = prob.m * x0 + prob.P0
    if p == 0 or prob.N % p:
        return
    q = prob.N // p
    y0, r = divmod(q - prob.Q0, prob.m)
    if r or abs(y0) > prob.Y:
        return
    if p * (prob.m * y0 + prob.Q0) != prob.N:
        raise AssertionError("solver produced an invalid root")
    roots.append(RootSolution(x0=x0, y0=y0, p=p, q=q))


def _howgrave_halfwidth(big_n: int, lead: int, bound: int) -> int:
    """Largest half-width h with 216 * N^2 * lead^4 * h^6 < bound^6.

    At delta = 3/4 LLL returns a first vector with ||v||^2 <= 2 * det^(2/3),
    where det = N * lead^2 * h^3, so up to this h the first reduced vector
    has ||v||_1 <= sqrt(3) * ||v|| < bound.  Since |g(t)| <= ||v||_1 for
    |t| <= h and p >= bound along the walk, it vouches for all of [-h, h].

    h = icbrt(isqrt(h6)) by Newton's integer step, which falls strictly from
    above the cube root and never below it: no float to overflow.
    """
    h6 = (bound**6 - 1) // (216 * big_n * big_n * lead**4)
    r = isqrt(h6)
    if not r:
        return 0
    x = 1 << -(-r.bit_length() // 3)  # x^3 > r
    while (y := (2 * x + r // (x * x)) // 3) < x:
        x = y
    return x


def _first_failure(a: int, b: int, c: int, lo: int, limit: int) -> int:
    """The first integer u in [lo, limit) with a*u^2 + b*u + c <= 0, or
    limit when there is none, for a quadratic that is positive at lo.

    A line with b < 0 fails from -c/b on.  With D = b^2 - 4ac, a convex
    quadratic (a > 0) fails where |2au + b| <= sqrt(D), so not at all past
    its vertex; a concave one (a < 0), positive at lo, fails from where
    -(2au + b) >= sqrt(D) on.  2au + b is an integer, so these compare it
    with isqrt(D) and with ceil(sqrt(D)) = isqrt(D - 1) + 1 exactly.
    """
    if a == 0:
        return limit if b >= 0 else min(-(c // b), limit)
    d = b * b - 4 * a * c
    if a > 0:
        if d < 0 or 2 * a * lo + b >= 0:
            return limit  # no real root, or increasing from lo on
        k = isqrt(d)
        u = -((b + k) // (2 * a))  # the first u with 2au + b >= -k
        return limit if 2 * a * u + b > k else min(u, limit)
    k = isqrt(d - 1) + 1  # d > 0: the quadratic is positive at lo
    return min(-((b + k) // (2 * a)), limit)  # the first u with 2au + b <= -k


def _univariate_interval(
    prob: BivariateProblem,
    lead: int,
    inv: int,
    s: int,
    half: int,
    end: int,
    roots: list[RootSolution],
    stats: dict,
    warm: list,
) -> int | None:
    """One Howgrave-Graham attempt for the columns from s up to end.

    The lattice is centred at xc = s + half.  Recentred there with
    p = m*t + p0c, every root has f(t) = lead*t + a = 0 (mod p), where
    a = p0c * m^(-1) mod N (lead = 1) or, when m is not invertible mod N,
    a = p0c mod N (lead = m, inv = 1).  The rows, coefficient vectors with t
    scaled by half, span polynomials g that all vanish modulo p at the root.
    Wherever |g(t)| < p, g(t0) = 0 over the integers at a root, so a reduced
    g vouches for the columns from s on as far as that holds, and its
    integer roots there are exact.  The columns from s are t >= -half, where
    p = p(s) + m*(t + half); the condition is two quadratic inequalities in
    t, p - g > 0 and p + g > 0, and _first_failure finds where each first
    fails.

    `warm` is empty before the first attempt of a walk, which reduces N, f
    and t*f, and afterwards holds [centre, reduced polynomials] of the last
    attempt.  A later attempt reduces those g(t + d), d the distance between
    the centres: the shift is unimodular and keeps every polynomial
    vanishing modulo p at the root, so the determinant N * lead^2 * half^3
    behind the certificate is unchanged (for lead = 1 so is the lattice),
    and LLL starts from an almost reduced basis instead of walking down
    from N.

    Returns the last column that the reduced polynomial covering furthest
    vouches for, after recording the roots from s to it; None, leaving roots
    alone, when no reduced polynomial covers s.
    """
    big_n, m = prob.N, prob.m
    xc = s + half
    bound = m * s + prob.P0
    stats["boxes"] = stats.get("boxes", 0) + 1
    scale = max(half, 1)
    scale_sq = scale * scale
    if warm:
        centre, polys = warm
        d = xc - centre
        rows = []
        for g0, g1, g2 in polys:
            e = g2 * d
            rows.append([g0 + (g1 + e) * d, (g1 + 2 * e) * scale, g2 * scale_sq])
    else:
        a = (m * xc + prob.P0) * inv % big_n
        rows = [[big_n, 0, 0], [a, lead * scale, 0], [0, a * scale, lead * scale_sq]]
    # p = at_xc + m*t; the columns are t = lo (s) up to limit - 1 (end)
    lo, limit, at_xc = -half, end - xc + 1, bound + m * half
    polys, best, reach = [], None, lo  # reach: the first t not vouched for
    for v0, v1, v2 in lll_rows(rows)[0]:
        g = g0, g1, g2 = v0, v1 // scale, v2 // scale_sq
        polys.append(g)
        if (
            reach < limit
            and abs(g0 + (g1 + g2 * reach) * reach) < at_xc + m * reach
            and abs(g0 + (g1 + g2 * lo) * lo) < bound  # covers s
        ):
            r = min(
                _first_failure(-g2, m - g1, at_xc - g0, lo, limit),
                _first_failure(g2, m + g1, at_xc + g0, lo, limit),
            )
            if r > reach:
                best, reach = g, r
    warm[:] = xc, polys
    if best is None:
        return None
    stats["lattice_dim"] = 3
    g0, g1, g2 = best
    for tr in _quad_roots(g2, g1, g0, lo, reach - 1):
        _record(prob, xc + tr, roots)
    return xc + reach - 1


# An attempt's half-width is this many times the certified one; one that
# misses is retried at the certified width.  Attempts (boxes) per solve over
# the first 150 seed-1 perfbench instances, hint-lsb / residue-t4, with
# p < 0 searched as well and a miss split into two certified halves, by this
# ratio: 1 24.0 / 26.7, 5/4 22.3 / 25.2, 3/2 20.8 / 23.1, 7/4 20.0 / 21.5,
# 2 19.8 / 20.8, 9/4 20.6 / 20.5, 3 25.3 / 22.8, and 4 needed 72 / 32 column
# scans.  Covering only where |g0| + |g1|*|t| + |g2|*t^2 < p(s), at 3/2,
# took 32.8 / 33.2, and fixed chunks of half-width 2*h_c 54.4 / 73.7.
_OVERSHOOT = 2


def _narrow(prob: BivariateProblem) -> tuple[int, int] | None:
    """The box's columns xlo..xhi narrowed against the q window
    Q0 -/+ m*Y: a divisor 1 <= p <= N whose co-factor can lie in the window,
    or None when no column can hold one.

    This is the fixed point of bounding q by the p range (N // phi <= q <=
    N // plo + 1) and p by the q range, reached in one pass.  Bounds derived
    from the p range never tighten it, since N // (N // plo + 1) <= plo and
    N // (N // phi) + 1 > phi, so only the window's two ends narrow x.  The
    q range of the narrowed interval can still be empty, hence the last test.
    """
    big_n, m, p_base = prob.N, prob.m, prob.P0
    q_lo, q_hi = prob.Q0 - m * prob.Y, prob.Q0 + m * prob.Y
    if q_hi < 1:  # p <= N keeps every co-factor q >= 1
        return None
    xlo = max(-prob.X, -((p_base - 1) // m), -((p_base - big_n // q_hi) // m))
    xhi = min(prob.X, (big_n - p_base) // m)
    if q_lo >= 1:
        xhi = min(xhi, (big_n // q_lo + 1 - p_base) // m)
    if xhi < xlo:
        return None
    plo, phi = m * xlo + p_base, m * xhi + p_base
    if max(q_lo, big_n // phi) > min(q_hi, big_n // plo + 1):
        return None
    return xlo, xhi


def _walk(prob: BivariateProblem, stats: dict):
    """Yield the roots of the box with 1 <= p <= N in ascending columns: one
    non-empty list for each attempt or scanned span that records any.

    After narrowing against the q window, the interval is walked up from
    xlo, where p is smallest.  h_c, the certified half-width at that p,
    scales linearly with the bound, so h = h_c * p(s) / p(xlo) is certified
    at s.  Each attempt is centred 2 * h past s and takes the roots as far
    as its best reduced polynomial vouches for; the next attempt starts one
    column past that.  An attempt that does not cover s is retried from s
    at half-width h, where the certificate says it covers at least
    [s, s + 2h], and the walk goes on from wherever the retry reaches.  A
    retry that missed anyway has that span scanned column by column, as is
    every interval with no certified width.  A missed attempt records
    nothing, so the list is its retry's, or the span's scanned after that.
    An interval with few co-factor sums per certified step
    (_cofactor_sums) is not walked: its sums are scanned instead, and its
    roots are one list.
    """
    interval = _narrow(prob)
    if interval is None:
        return
    xlo, xhi = interval
    big_n, m, p_base = prob.N, prob.m, prob.P0
    plo = m * xlo + p_base
    if gcd(m, big_n) == 1:
        lead, inv = 1, pow(m, -1, big_n)
    else:
        lead, inv = m, 1
    h_c = _howgrave_halfwidth(big_n, lead, plo)
    roots: list[RootSolution] = []
    if h_c == 0:
        _scan_columns(prob, xlo, xhi, roots, stats)
    elif (sums := _cofactor_sums(prob, xlo, xhi, h_c)) is not None:
        _scan_sums(prob, xlo, xhi, sums, roots, stats)
    else:
        s, warm, over = xlo, [], _OVERSHOOT
        while s <= xhi:
            h = h_c * (m * s + p_base) // plo
            half = min(over * h, (xhi - s + 1) // 2)
            reached = _univariate_interval(
                prob, lead, inv, s, half, xhi, roots, stats, warm
            )
            if reached is None and over > 1:
                over = 1  # retry from s at the certified half-width
                continue
            if reached is None:  # a certified attempt missed: scan its span
                reached = s + min(2 * half, xhi - s)
                _scan_columns(prob, s, reached, roots, stats)
            if roots:
                yield roots
                roots = []
            s, over = reached + 1, _OVERSHOOT
    if roots:
        yield roots


def _scan_columns(
    prob: BivariateProblem, xlo: int, xhi: int, roots: list[RootSolution], stats: dict
) -> None:
    """Check the columns xlo..xhi directly: the fallback for intervals too
    small for a certified lattice."""
    stats["column_scans"] = stats.get("column_scans", 0) + 1
    for x0 in range(xlo, xhi + 1):
        _record(prob, x0, roots)


# A box whose co-factor sums number at most this many times its certified
# steps, (xhi - xlo + 1) // (2*h_c + 1), is scanned by its sums instead of
# walked.  Microseconds per residue-t4 solve (the least of 5 runs on a
# shared 2-core host) and the lattice attempts left, over the first 300
# seed-1 perfbench instances, by this ratio: 0 200 / 2 841 (the same
# attempts as with no scan), 1 99 / 870, 2 70 / 304, 3 64 / 116, 4 55 / 14,
# 5 54 / 0.  Their boxes' ratios of sums to steps reach 4.3 there, and 4.8
# over the first 1 000; hint-lsb's median is about 300, and its least over
# its first 300 instances is 8.6, which a ratio of 8 would nearly reach.
_SUMS_PER_STEP = 5


def _cofactor_sums(prob: BivariateProblem, xlo: int, xhi: int, h_c: int) -> range | None:
    """The co-factor sums z = d*p + c*q that a root in columns xlo..xhi can
    have, c = P0 >= 1 and d = Q0 >= 1, when they are few enough to scan
    (_SUMS_PER_STEP); None when the interval is cheaper to walk.

    With p = m*x + c and q = m*y + d, N + c*d - z = m^2*x*y, so z = N + c*d
    (mod m^2).  z = d*p + c*N/p is convex in p, at least 2*sqrt(c*d*N) and
    at most its larger value at the interval's two ends, where N/p <= N//p + 1.
    isqrt(4*c*d*N) lies below both ends' values, so the sums number at
    least (z_hi - the smaller end) // m^2, and a box with more than its
    share by that count alone is rejected before the isqrt.
    """
    big_n, m, c, d = prob.N, prob.m, prob.P0, prob.Q0
    if c < 1 or d < 1:
        return None
    step, most = m * m, _SUMS_PER_STEP * ((xhi - xlo + 1) // (2 * h_c + 1))
    plo, phi = m * xlo + c, m * xhi + c
    ends = (d * plo + c * (big_n // plo + 1), d * phi + c * (big_n // phi + 1))
    z_hi = max(ends)
    if (z_hi - min(ends)) // step > most:
        return None
    z_lo = isqrt(4 * c * d * big_n)
    sums = range(z_lo + (big_n + c * d - z_lo) % step, z_hi + 1, step)
    return sums if len(sums) <= most else None


def _scan_sums(
    prob: BivariateProblem, xlo: int, xhi: int, sums: range,
    roots: list[RootSolution], stats: dict,
) -> None:
    """Check each co-factor sum z of `sums` by Lehman's square test: at a
    root z^2 - 4*c*d*N = (d*p - c*q)^2, so p = (z -/+ s) / (2d) for the
    square root s, one column when s = 0.  Those in xlo..xhi go through
    _record in ascending order."""
    stats["sum_positions"] = stats.get("sum_positions", 0) + len(sums)
    c, d = prob.P0, prob.Q0
    four_cdn, two_d, two_cd = 4 * c * d * prob.N, 2 * d, 2 * c * d
    columns = []
    for z in sums:
        s = is_perfect_square(z * z - four_cdn)
        if s is not None:
            for num in {z - s, z + s}:  # num = 2d*p = 2d*(m*x0 + c)
                x0, r = divmod(num - two_cd, two_d * prob.m)
                if not r and xlo <= x0 <= xhi:
                    columns.append(x0)
    for x0 in sorted(columns):
        _record(prob, x0, roots)


def solve_bivariate(
    prob: BivariateProblem, stats: dict | None = None, *, first: bool = False
) -> list[RootSolution]:
    """All roots of (m*x + P0)(m*y + Q0) - N with |x| <= X, |y| <= Y and
    p = m*x + P0 > 0, sorted by (x0, y0).  Only such a root can name a
    factor of N, so the columns with p <= 0 are not searched, and a root
    with p < 0 (and q < 0) is never returned.  The walk yields the roots of
    each attempt or scanned span that records any, in ascending columns,
    and the result joins them.

    With `first`, the result is the walk's first list alone: a prefix of
    the full result that holds its least proper root 1 < p < N, if the box
    has one.  Only the walk's last list can hold p = N, the interval's last
    column, and p = 1 lies in the interval only when its smallest p is 1,
    where the certified half-width is 0 and the whole interval is one
    scanned list.  So every list but the last holds proper roots only.  An
    interval scanned by its co-factor sums is one list too: the whole
    result.

    The result is exact for every box size.  stats["certified"] records
    whether the box meets Coppersmith's bound (certified_regime), which the
    splitter does not need, stats["boxes"] and stats["column_scans"] count
    lattice attempts and column scans, stats["sum_positions"] counts the
    co-factor sums tested in place of a walk, and stats["lattice_dim"] is 3
    once an attempt covers a column, so it stays unset on a box whose
    sums were scanned.  Raises NoRoot when the box holds no such root.
    """
    if stats is None:
        stats = {}
    stats["certified"] = certified_regime(prob)
    roots: list[RootSolution] = []
    for found in _walk(prob, stats):
        roots += found
        # only the walk's last list can hold p = 1 or p = N (see above), so
        # the first list holds the least proper root, if there is one
        if first:
            break
    if not roots:
        raise NoRoot(f"no factor pair of {prob.N} inside the box")
    return roots


def solve_msb_known(big_n: int, p0: int, stats: dict | None = None) -> list[RootSolution]:
    """Factor N from a leading-bits approximation P0 of a factor.

    Q0 = floor(N / P0); the box is symmetric with the default quarter-bits
    bound, so a hint carrying the top quarter of the bits suffices.
    """
    if p0 < 1:
        raise ValueError("P0 must be positive")
    bound = default_box_bound(big_n)
    prob = BivariateProblem(N=big_n, P0=p0, Q0=big_n // p0, X=bound, Y=bound)
    return solve_bivariate(prob, stats)


def solve_lsb_known(
    big_n: int, x0_bits: int, k: int, stats: dict | None = None
) -> list[RootSolution]:
    """Factor odd N from the k low bits of a factor.

    The co-factor's low bits follow from N * x0_bits^(-1) mod 2^k; both
    factors are then affine in the modulus 2^k and the bilinear solver
    returns every root with p > 0 in the box |x| <= sqrt(N)/2^k + 1,
    |y| <= 2*sqrt(N)/2^k + 1.  That holds for every k: a modulus beyond the
    factors only shrinks the box.
    The box assumes balanced factors, so a pair outside it is not found even
    when the hint is a whole factor: for N = 3063 = 3 * 1021 with the low
    7 bits of 3, the co-factor 1021 lies at y = 7, outside Y = 1, and NoRoot
    is raised.
    """
    if big_n < 2:
        raise ValueError("N must be >= 2")
    if big_n % 2 == 0:
        raise ValueError("N must be odd")
    if k < 1:
        raise ValueError("k must be >= 1")
    if x0_bits % 2 == 0:
        raise ValueError(f"{x0_bits} is even, not invertible mod 2^{k}")
    # Past both bit lengths the box is X = Y = 1 and only x = 0 can give a
    # divisor 0 < p <= N, so a larger k finds the same roots from the same box.
    k = min(k, max(big_n.bit_length(), x0_bits.bit_length()) + 1)
    mod = 1 << k
    x0_bits %= mod
    y0_bits = big_n * pow(x0_bits, -1, mod) % mod
    x_bound = isqrt(big_n) // mod + 1
    y_bound = 2 * isqrt(big_n) // mod + 1
    prob = BivariateProblem(N=big_n, P0=x0_bits, Q0=y0_bits, X=x_bound, Y=y_bound, m=mod)
    return solve_bivariate(prob, stats)


def _first_candidate(
    prob: TrivariateProblem, q: int
) -> tuple[tuple[int, int, bool], int] | None:
    """The search key (z0, a, Q0 > M*z0) and the Q0 of the first candidate
    Q0 = M*z0 -/+ a whose box [Q0 - Y, Q0 + Y] holds the co-factor q, or
    None.  It lies in the first window M*z0 -/+ a_max reaching q - Y, nearest
    M*z0, so M*z0 - a comes before M*z0 + a."""
    m, y = prob.M, prob.Y
    z0 = max(1, -((prob.a_max + y - q) // m))
    q0 = min(max(m * z0, q - y), q + y)
    if z0 > prob.z_max or abs(q0 - m * z0) > prob.a_max:
        return None
    return (z0, abs(q0 - m * z0), q0 > m * z0), q0


# The trivariate search walks windows separated by at least _GAP_COLUMNS
# columns of the x box (or one lattice attempt's width, if wider) apart.
# Each walk may add twice the columns of the last one, up to _WALK_GAPS
# such gaps, so a root near the start is found by a short walk and an
# exhausted search makes few walks.
_GAP_COLUMNS = 64
_WALK_GAPS = 16


def _trivariate_walks(prob: TrivariateProblem):
    """The q ranges [lo, hi] that solve_trivariate walks, a list at a time.
    Each list holds every co-factor whose first candidate's key lies in the
    next stretch of the search order, and only those: the first list to hold
    a root holds the first candidate with one.

    Window z0 holds the q within a_max + Y of M*z0 that no earlier window
    does; only the windows reaching a co-factor N/p of the x box are walked,
    each outwards from M*z0.  A step widens the range walked by as much as
    keeps the new columns on either side within the walk's width.  A window
    that fits that width is one step, which takes in the next windows within
    it if the gap after the window is narrow (gaps narrow as z0 grows).
    """
    big_n, m, y, a_max = prob.N, prob.M, prob.Y, prob.a_max
    reach = a_max + y
    pmin, pmax = max(1, prob.P0 - prob.X), min(big_n, prob.P0 + prob.X)
    if a_max < 0 or pmin > pmax:
        return

    def columns(lo: int, hi: int) -> int:  # about; < 0 when none can be a root
        return min(pmax, big_n // lo) - max(pmin, big_n // hi)

    def upto(lo: int, width: int) -> int | None:  # max hi: columns <= width
        target = min(pmax, big_n // lo) - width
        return None if target <= pmin else big_n // target

    def downto(hi: int, width: int) -> int | None:  # min lo: columns <= width
        top = max(pmin, big_n // hi) + width
        return None if top >= pmax else big_n // (top + 1) + 1

    z0 = max(1, -((reach - big_n // pmax) // m))
    z_last = min(prob.z_max, (big_n // pmin + reach) // m)
    gaps = 1  # the walk's width in gaps
    while z0 <= z_last:
        centre = m * z0
        lo = max(centre - m + reach + 1 if z0 > 1 else 1, centre - reach)
        h = _howgrave_halfwidth(big_n, 1, min(pmax, big_n // lo))
        gap = max(_GAP_COLUMNS, 4 * h)  # one attempt reaches about 4h columns
        fits = columns(lo, centre + reach) <= gaps * gap  # walked in one step
        z1, a = z0, max(-1, lo - centre - y - 1)  # q below lo are an earlier window's
        while a < a_max:  # [centre - y - a, centre + y + a] is walked
            width, gaps = gaps * gap, min(2 * gaps, _WALK_GAPS)
            left, right = centre - y - a, centre + y + a
            wider = a_max  # upto and downto move at least one q past a
            if (hi := upto(right + 1, width)) is not None:
                wider = min(wider, hi - centre - y)
            if not fits and left > lo and (low := downto(left - 1, width)) is not None:
                wider = min(wider, centre - y - low)
            if fits and (m <= 2 * reach + 1 or columns(centre + reach, centre + m - reach) < gap):
                hi = upto(lo, width)  # a narrow gap follows: join the next windows
                z1 = z_last if hi is None else min(z_last, (hi - reach) // m)
            new_lo, new_hi = max(lo, centre - y - wider), m * z1 + y + wider
            yield [(new_lo, new_hi)] if a < 0 else [(new_lo, left - 1), (right + 1, new_hi)]
            a = wider
        z0 = z1 + 1


def solve_trivariate(
    prob: TrivariateProblem, stats: dict | None = None
) -> list[RootSolution]:
    """Resolve the co-factor transform Q0 = M*z0 -/+ a: the first candidate
    in ascending (z0, a), M*z0 - a first, whose box holds a root gives that
    box's roots, tagged with z0.

    The splitter is exact, so a walk over a q range finds every root whose
    co-factor lies in it.  The ranges are walked in candidate order
    (_trivariate_walks), and the first walk finding a root that a candidate
    holds ends the search: the least key among its roots is the first
    candidate holding one, and the roots with that key are exactly its
    box's.  stats accumulates over the walks; stats["certified"] is the
    chosen box's, and is removed when the search is exhausted.
    """
    if stats is None:
        stats = {}
    for ranges in _trivariate_walks(prob):
        firsts = []
        for lo, hi in ranges:
            if lo > hi:
                continue
            window = BivariateProblem(  # [lo, hi] and at most one q past each end
                N=prob.N, P0=prob.P0, Q0=(lo + hi) // 2, X=prob.X,
                Y=(hi - lo) // 2 + 1,
            )
            for found in _walk(window, stats):
                for s in found:
                    if lo <= s.q <= hi and (c := _first_candidate(prob, s.q)):
                        firsts.append((c, s))
        if firsts:
            (z0, _, _), q0 = min(c for c, _ in firsts)
            box = BivariateProblem(N=prob.N, P0=prob.P0, Q0=q0, X=prob.X, Y=prob.Y)
            stats["certified"] = certified_regime(box)
            return [
                RootSolution(x0=s.x0, y0=s.q - q0, p=s.p, q=s.q, z0=z0)
                for (_, c_q0), s in sorted(firsts, key=lambda f: f[1].p)
                if c_q0 == q0
            ]
    stats.pop("certified", None)
    raise Exhausted("no (z0, a) candidate produced a factorization")


def theorem4_driver(big_n: int, m: int, stats: dict | None = None) -> Split:
    """Factor N with nearly equal factors by trying every divisor pair of
    the small lifts of N mod m in the (m*x + c)(m*y + d) form.

    pair_driver splits N at a pair's least root with 1 < p < N, so
    solve_bivariate, with `first`, stops each pair's walk after its first
    attempt or scanned span that records a root, which holds that root when
    there is one; it raises NoRoot when the box holds no root at all.  With
    m about N^(1/4) and residues below 8 the boxes have few co-factor sums
    per certified step and are scanned by those sums, not walked.  stats
    accumulates over the pairs tried, and stats["lattice_dim"] stays unset
    when no attempt covered a column: on tiny N the column scan covers them
    all, and on such boxes the sum scan does.
    """

    def solve(pair: ResiduePair) -> list[int]:
        # computed here, after pair_driver has checked N and m
        bound = 3 * isqrt(big_n) // (2 * m) + 2
        prob = BivariateProblem(N=big_n, P0=pair.c, Q0=pair.d, X=bound, Y=bound, m=m)
        try:
            return [sol.p for sol in solve_bivariate(prob, stats, first=True)]
        except NoRoot:
            return []

    return pair_driver(big_n, m, theorem4_pairs, solve)


def empirical_envelope(
    bits: int = 64,
    instances: int = 3,
    seed: int = 2024,
    exponents=range(8, 21, 2),
) -> list[dict]:
    """Measure how large a box one lattice attempt covers.

    For random balanced semiprimes and a hint inside each box, records the
    certified flag (Coppersmith's bound on the box) and whether a single
    splitter attempt centred on the whole box, with no walk and no retry,
    recovered a true factor.  The full solver is exact for every box; this
    report documents the one-shot envelope instead of asserting any
    uncertified range.
    """
    rng = random.Random(seed)
    report = []
    for _ in range(instances):
        p = random_prime(rng, bits // 2)
        q = random_prime(rng, bits - bits // 2)
        if p > q:
            p, q = q, p
        big_n = p * q
        for e in exponents:
            x_bound = 1 << e
            offset = rng.randrange(0, min(x_bound, max(p // 2, 1)))
            p0 = p - offset
            prob = BivariateProblem(
                N=big_n, P0=p0, Q0=big_n // p0, X=x_bound, Y=2 * x_bound
            )
            entry = {
                "n": big_n,
                "x_log2": e,
                "certified": certified_regime(prob),
            }
            roots: list[RootSolution] = []
            # m = 1: the attempt's f is t + xc + P0 (lead 1, m^(-1) = 1)
            _univariate_interval(prob, 1, 1, -x_bound, x_bound, x_bound, roots, {}, [])
            entry["one_shot"] = any(s.p in (p, q) for s in roots)
            report.append(entry)
    return report
