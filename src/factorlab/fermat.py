"""Difference-of-squares factoring.

Solving 4N = x^2 - y^2 splits N as p = (x-y)/2, q = (x+y)/2.  Three search
strategies are provided: the consecutive scan, the triangular-number
acceleration that jumps between square values via cube increments, and a
ratio-shifted variant that rebalances q ~ (a/b)p through the multiplier
transform.  Step accounting is exact so the predicted and measured scan
lengths can be compared to the unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .arith import Split, as_fraction, is_perfect_square, square_candidates
from .errors import Exhausted, TrivialOnly

__all__ = [
    "RatioGridEntry",
    "fermat_ratio",
    "fermat_standard",
    "fermat_triangular",
    "predict_steps",
    "ratio_grid",
    "render_ratio",
    "triangular_squares",
    "triangular_start",
]

_RATIO_CAP = 10**4


def _difference_scan(n: int, budget: int | None) -> Split:
    """Scan x upward from the first x with x^2 >= 4n for the first x^2 - 4n
    that is a perfect square.  Steps count the positions scanned, the hit
    included; only the positions that square_candidates lets through are
    tested."""
    four_n = 4 * n
    x0 = isqrt(four_n)
    if x0 * x0 < four_n:
        x0 += 1
    last = n + 1  # x = n + 1 gives the trivial split 1 x n
    if budget is not None:
        if budget < 0:
            raise ValueError("budget must be >= 0")
        last = min(last, x0 + budget - 1)
    for j in square_candidates(x0, 1, (-four_n,), last - x0 + 1):
        x = x0 + j
        y = is_perfect_square(x * x - four_n)
        if y is not None:
            p, q = (x - y) // 2, (x + y) // 2
            if p >= 2:
                return Split(p, q, j + 1)
            if p == 1:
                raise TrivialOnly(f"{n} admits only the trivial split 1 x {n}")
    # only a budget ends the loop here: without one, x = n + 1 raises TrivialOnly
    raise Exhausted(f"no solution within {budget} steps")


def fermat_standard(n: int, budget: int | None = None) -> Split:
    """Factor odd n >= 3 by the consecutive difference-of-squares scan,
    testing at most `budget` positions (None: up to the trivial split)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    return _difference_scan(n, budget)


def predict_steps(p: int, n: int) -> int:
    """Scan length p + n/p - ceil(2*sqrt(n)) + 1 for the divisor pair led by
    p: every x from ceil(2*sqrt(n)) up to p + n/p, the hit included."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if n % p != 0:
        raise ValueError(f"{p} does not divide {n}")
    if p * p > n:
        raise ValueError("p must be the smaller divisor")
    return p + n // p - isqrt(4 * n - 1)


def triangular_start(n: int) -> tuple[int, int]:
    """Return (m, x0) with m = floor(2 * n**0.25) and x0 = m(m+1)/2."""
    m = isqrt(isqrt(16 * n))
    return m, m * (m + 1) // 2


def triangular_squares(n: int):
    """Yield (i, x_i, x_i^2) along the cube-increment recurrence
    x_i^2 = x_{i-1}^2 + (m+i)^3 starting from x_0 = m(m+1)/2."""
    m, x = triangular_start(n)
    x_sq = x * x
    i = 0
    while True:
        yield i, x, x_sq
        i += 1
        x_sq += (m + i) ** 3
        x += m + i


def fermat_triangular(n: int, budget: int | None = None) -> Split:
    """Difference-of-squares scan restricted to triangular x values.

    Succeeds only when p + q is a triangular number; the cube-increment
    recurrence visits exactly those x.  Exhausted signals that p + q is
    (likely) not triangular within the scan range.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    if budget is not None and budget < 0:
        raise ValueError("budget must be >= 0")
    four_n = 4 * n
    steps = 0
    for _i, x, x_sq in triangular_squares(n):
        if 2 * x > n + 4:
            break
        if x_sq < four_n:
            continue
        steps += 1
        if budget is not None and steps > budget:
            raise Exhausted(f"no triangular solution within {budget} steps")
        y = is_perfect_square(x_sq - four_n)
        if y is not None:
            p, q = (x - y) // 2, (x + y) // 2
            if p >= 2:
                return Split(p, q, steps)
    raise Exhausted("p + q is not triangular within the scan range")


@dataclass(frozen=True)
class RatioGridEntry:
    """Grid point r with its reciprocal s = 1/r, exactly."""

    index: int
    r: Fraction

    @property
    def s(self) -> Fraction:
        return 1 / self.r


def ratio_grid(lower, upper, count: int) -> list[RatioGridEntry]:
    """Uniform subdivision r_i = lower + i*(upper-lower)/count, s_i = 1/r_i,
    for i = 0..count-1, carried as exact rationals."""
    lo, hi = as_fraction(lower), as_fraction(upper)
    if not 0 < lo < hi:
        raise ValueError("need 0 < lower < upper")
    if count < 1:
        raise ValueError("count must be positive")
    step = (hi - lo) / count
    return [RatioGridEntry(i, lo + i * step) for i in range(count)]


def render_ratio(value: Fraction) -> str:
    """Decimal rendering rounded half-to-even at six places, trailing zeros
    stripped (the table convention)."""
    scaled = round(value * 10**6)
    sign = "-" if scaled < 0 else ""
    intpart, frac = divmod(abs(scaled), 10**6)
    text = f"{sign}{intpart}.{frac:06d}".rstrip("0").rstrip(".")
    return text


def fermat_ratio(n: int, ratio, budget: int | None = None) -> Split:
    """Factor n when q ~ (a/b) * p for a known ratio a/b >= 1.

    Runs the consecutive scan on a*b*n, whose divisor pair (b*p, a*q) is
    near-balanced, then strips the multipliers from the recovered pair via
    gcd with n.  Raises Exhausted when neither gcd is a proper divisor.
    """
    r = as_fraction(ratio)
    if r < 1:
        raise ValueError("ratio must be >= 1")
    a, b = r.numerator, r.denominator
    if a > _RATIO_CAP or b > _RATIO_CAP:
        raise ValueError(f"ratio numerator/denominator capped at {_RATIO_CAP}")
    if n < 3:
        raise ValueError("n must be >= 3")
    inner = _difference_scan(a * b * n, budget)
    for cand in (inner.p, inner.q):
        g = gcd(cand, n)
        if 1 < g < n:
            return Split.of(n, g, inner.steps)
    raise Exhausted(f"neither recovered factor of {a * b}*{n} yields a divisor of {n}")

