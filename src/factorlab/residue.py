"""Residue-class determination and residue-class factor recovery.

A factor pair of N with p = m*x + c, q = m*y + d forces c*d = N (mod m);
enumerating the admissible (c, d) and then recovering (x, y) is the
residue-class route to factoring.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from math import gcd, isqrt

from .arith import Split, divisors, is_perfect_square, is_prime, square_candidates
from .errors import Exhausted, GcdFactorFound

__all__ = [
    "ResiduePair",
    "algorithm_one",
    "default_t_bound",
    "enumerate_pairs",
    "landry_pepin",
    "pair_driver",
    "residue_driver",
    "theorem4_pairs",
]


@dataclass(frozen=True, order=True)
class ResiduePair:
    """A pair of residues c <= d with c*d = N (mod m) for a modulus m.

    Outputs of enumerate_pairs and algorithm_one satisfy 0 < c <= d < m and
    gcd(c, m) == 1; theorem4_pairs reuses the carrier for divisor pairs that
    may exceed m.
    """

    c: int
    d: int


def enumerate_pairs(n: int, m: int) -> list[ResiduePair]:
    """All (c, d), c <= d, with c*d = n (mod m) and gcd(c, m) = 1, sorted
    by c: each unordered residue pair once.

    Requires gcd(n, m) = 1; a nontrivial gcd is itself a factor and is
    surfaced as GcdFactorFound.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    g = gcd(n, m)
    if g > 1:
        raise GcdFactorFound(g)
    r = n % m
    pairs = []
    for c in range(1, m):
        if gcd(c, m) != 1:
            continue
        d = r * pow(c, -1, m) % m
        if c <= d:  # the pair (d, c) is added from its smaller residue
            pairs.append(ResiduePair(c, d))
    return pairs


def _lift_pairs(lifts) -> Iterator[tuple[int, int]]:
    """The divisor pairs (c, cd // c) with c <= cd // c of each positive lift
    cd in turn, c ascending: the walk behind theorem4_pairs and algorithm_one."""
    for cd in lifts:
        if cd > 0:
            for c in divisors(cd):
                if c * c > cd:
                    break
                yield c, cd // c


def algorithm_one(n: int, m: int) -> list[ResiduePair]:
    """Probable residue classes for a prime modulus, as sorted pairs c <= d.

    Every lift cd = r0 + j*m below m^2 (r0 = n mod m) is split as c*d with
    c <= d and c + d < 2m: these are the square differences
    (c + d)^2 - 4cd = (d - c)^2 of the paper's scan over x = c + d < 2m.
    The reduced pairs with both residues nonzero are kept, each once; the
    true pair (p mod m, q mod m) is always among them.
    """
    if not is_prime(m):
        raise ValueError(f"modulus {m} is not prime")
    g = gcd(n, m)
    if g > 1:
        raise GcdFactorFound(g)
    pairs = set()
    for c, d in _lift_pairs(range(n % m, m * m, m)):
        if c + d < 2 * m and c % m and d % m:
            pairs.add(ResiduePair(*sorted((c % m, d % m))))
    return sorted(pairs)


def _check_moduli(m: int, mod2: int) -> None:
    if m < 1 or mod2 < 1:
        raise ValueError("moduli must be >= 1")


def default_t_bound(n: int, m: int, mod2: int, c: int, d: int) -> int:
    """Scan length for landry_pepin that covers z = d*p + c*q up to
    3*max(c, d)*sqrt(n)."""
    if n < 2:
        raise ValueError("N must be >= 2")
    _check_moduli(m, mod2)
    return 3 * max(c, d) * isqrt(n) // (m * mod2) + 2


def landry_pepin(
    n: int, m: int, mod2: int, c: int, d: int, t_bound: int
) -> Split:
    """Recover factors p = m*x + c, q = mod2*y + d by scanning the scaled
    factor sum z = d*p + c*q.

    z is congruent to n + c*d modulo m*mod2, so z = z0 + m*mod2*t for some
    t >= 0; for the right t the discriminant z^2 - 4*c*d*n is a perfect
    square and p appears as a rational root of d*X^2 - z*X + c*n.  Both
    discriminant signs and all four root sign combinations are tried, at the
    t that square_candidates lets through.
    """
    if n < 2:
        raise ValueError("N must be >= 2")
    _check_moduli(m, mod2)
    if t_bound < 0:
        raise ValueError("t_bound must be >= 0")
    if gcd(c, m) != 1 or gcd(d, mod2) != 1:
        raise ValueError("need gcd(c, m) = gcd(d, mod2) = 1")
    if d == 0:  # gcd(0, 1) = 1 passes the check above, but p = z/(2d) needs d
        raise ValueError("d must be nonzero")
    mn = m * mod2
    z0 = (n + c * d) % mn
    four_cdn = 4 * c * d * n
    two_d = 2 * d
    for t in square_candidates(z0, mn, (-four_cdn, four_cdn), t_bound + 1):
        z = z0 + mn * t
        zz = z * z
        for disc in (zz - four_cdn, zz + four_cdn):
            if disc < 0:
                continue
            s = is_perfect_square(disc)
            if s is None:
                continue
            for num in (z + s, z - s, -z + s, -z - s):
                if num <= 0 or num % two_d:
                    continue
                root = num // two_d
                if 1 < root < n and n % root == 0:
                    return Split.of(n, root)
    raise Exhausted(f"no factor within t <= {t_bound}")


def theorem4_pairs(n: int, m: int) -> list[ResiduePair]:
    """Divisor pairs c <= d of the lifts r and r + m of n mod m, the second
    only when it is at most n.

    Whenever (p mod m)*(q mod m) < 2m the sorted true residue pair is among
    them.  Both residues share the modulus m and the solver's box, so the
    roots for (d, c) mirror those for (c, d) and one order is enough.  A
    lift r + m > n means n = r < m, and then its pairs have no root with
    p, q > 0 but p = 1, q = n, which the pair (1, r) of lift r gives first.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    r = n % m
    return [ResiduePair(c, d) for c, d in _lift_pairs((r, r + m) if r + m <= n else (r,))]


def pair_driver(n: int, m: int, pairs: Callable, solve: Callable) -> Split:
    """Factor n by the one loop over residue pairs c*d = n (mod m).

    A gcd(n, m) strictly between 1 and n splits n at once.  Otherwise each
    ResiduePair of pairs(n, m), which yields each unordered pair once, goes
    to solve(pair), which returns divisors of n, and the first divisor
    1 < r < n splits n.
    """
    if n < 2:
        raise ValueError("N must be >= 2")
    if m < 2:
        raise ValueError("modulus must be >= 2")
    g = gcd(n, m)
    if 1 < g < n:
        return Split.of(n, g)
    for pair in pairs(n, m):
        for root in solve(pair):
            if 1 < root < n:
                return Split.of(n, root)
    raise Exhausted(f"no residue pair mod {m} yields a factorization")


def residue_driver(n: int, m: int, t_bound: int | None = None) -> Split:
    """Residue-class route: scan every pair of enumerate_pairs with
    landry_pepin at mod2 = m, up to t_bound or default_t_bound per pair."""
    if t_bound is not None and t_bound < 0:
        raise ValueError("t_bound must be >= 0")

    def pairs(n: int, m: int) -> list[ResiduePair]:
        # gcd(n, m) = n leaves no pair with both residues prime to m
        return enumerate_pairs(n, m) if gcd(n, m) == 1 else []

    def solve(pair: ResiduePair) -> list[int]:
        bound = default_t_bound(n, m, m, pair.c, pair.d) if t_bound is None else t_bound
        try:
            return [landry_pepin(n, m, m, pair.c, pair.d, bound).p]
        except Exhausted:
            return []

    return pair_driver(n, m, pairs, solve)
