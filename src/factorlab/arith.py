"""Exact arbitrary-precision integer primitives used by every other module."""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt

__all__ = [
    "Split",
    "as_fraction",
    "divisors",
    "is_perfect_square",
    "is_prime",
    "isqrt",
    "next_prime",
    "random_prime",
    "square_candidates",
]

# A square must land in these residue sets; testing n & 63 and n % 63 rejects
# ~95% of non-squares before the isqrt call.  The scans filter harder, and
# ahead of the call: see square_candidates below.
_SQUARES_MOD_64 = frozenset((i * i) & 63 for i in range(64))
_SQUARES_MOD_63 = frozenset((i * i) % 63 for i in range(63))

# The moduli of the scan sieve.  For each, _SIEVE_SQUARES[q] holds the bytes
# i*i % q for i < q, and _SIEVE_FLAGS[q] the bytes b"0"/b"1" whose entry r is
# b"1" when r is a square modulo q.  Each prime halves the positions left; on
# scans of 1e5-1e6 positions these 16 moduli leave one is_perfect_square call
# per about 207 000 positions on the standard scan, 45 000 on the ratio scan
# and 6 900 on Landry-Pepin (two offsets, two discriminants per survivor, and
# one parity of t sieved when N and the modulus are odd; first 90 seed-1
# perfbench instances), and more moduli cost more per block than they save
# in tests.
_SIEVE_MODULI = (64, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
_SIEVE_SQUARES = {q: bytes(i * i % q for i in range(q)) for q in _SIEVE_MODULI}
_SIEVE_FLAGS = {
    q: bytes(b"01"[r in squares] for r in range(q)) for q, squares in _SIEVE_SQUARES.items()
}
# Patterns of moduli whose product stays within _MERGED_MAX bits are merged
# into one, so a block takes 7 shift-and-AND steps instead of 16.  Every
# block but a scan's last takes _BLOCK positions, and every pattern is built
# long enough for any block, so a scan's set-up is its only pattern work.
_MERGED_MAX = 1 << 12
_BLOCK = 1 << 14
# Rotation tables.  When the stride s is a unit modulo q (every prime here,
# and 9 when 3 does not divide s), (b + s*j)**2 + o = s*s*((j + c)**2 + o')
# modulo q, with c = b/s and o' = o/s**2; the unit square s*s maps squares
# onto squares, so the pattern of (b, s, o) is the pattern of j**2 + o'
# shifted right by c.  _ROTATIONS[q][o'] holds that pattern repeated to
# _BLOCK + _MERGED_MAX + 2q bits (0 until a scan first needs it).  A scan
# takes it unshifted, with c, and its merged group reads it at a shift
# below the merged period (see _merge), so it covers any block read; no
# scan makes a shifted copy.  _INVERSES[q][s % q] holds 1/s modulo q (0
# where s is no unit, and for 64, whose patterns are always built), and
# _REPUNITS[q] * bits repeats a q-bit pattern as far.
_REPUNITS = {
    q: ((1 << q * -(-(_BLOCK + _MERGED_MAX + 2 * q) // q)) - 1) // ((1 << q) - 1)
    for q in _SIEVE_MODULI
}
_ROTATIONS = {q: [0] * q for q in _SIEVE_MODULI[1:]}
_INVERSES = {
    q: [pow(s, -1, q) if q in _ROTATIONS and gcd(s, q) == 1 else 0 for s in range(q)]
    for q in _SIEVE_MODULI
}

# Miller-Rabin's bases.  The first k primes as bases are exact below psi_k,
# the least strong pseudoprime to all of them, so n < bound takes k bases
# (Jaeschke, Math. Comp. 61, 1993; Sorenson and Webster, Math. Comp. 86,
# 2017; psi_8 = psi_7 and psi_10 = psi_11 = psi_9).  Above psi_12 all 13
# primes run, exact below psi_13 = 3317044064679887385961981.
_MR_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_TIERS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
)


def is_perfect_square(n: int) -> int | None:
    """Return r with r*r == n, or None when n is not a perfect square."""
    if n < 0:
        return None
    if n & 63 not in _SQUARES_MOD_64:
        return None
    if n % 63 not in _SQUARES_MOD_63:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def _merge(pats: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Merge consecutive (modulus, pattern, shift) triples while the product
    Q of the moduli stays within _MERGED_MAX.  Each member is read as
    pattern >> ((start + shift) % q); the merged pattern is the AND of the
    members as they are, unshifted, with one shift C = shift (mod q) for
    each member q (by the CRT: the moduli are coprime), so reading it as
    pattern >> ((start + C) % Q) reads the AND of the members' reads.
    Returns (Q, pattern, C) triples; every member is exact over more than
    _BLOCK + _MERGED_MAX bits, so the AND is exact over the _BLOCK + Q - 1
    bits that a block read at up to Q - 1 takes.  A member after a group's
    first is never 64, the first modulus, so _INVERSES holds 1/Q mod q."""
    merged: list[tuple[int, int, int]] = []
    for q, rep, c in pats:
        if merged and merged[-1][0] * q <= _MERGED_MAX:
            big_q, big_rep, big_c = merged.pop()
            c = big_c + big_q * ((c - big_c) * _INVERSES[q][big_q % q] % q)
            q, rep = big_q * q, big_rep & rep
        merged.append((q, rep, c))
    return merged


def _patterns(q: int, base: int, stride: int, offsets: tuple[int, ...]) -> list[int]:
    """Per offset, the q-bit pattern whose bit j is set when
    (base + stride*j)**2 + off is a square modulo q."""
    squares = _SIEVE_SQUARES[q]
    b, s = base % q, stride % q
    # (base + stride*j)**2 % q for j < q, read off the repeated squares
    values = (squares * (s + 1))[b : b + s * q : s] if s else squares[b : b + 1] * q
    pats = []
    for off in offsets:
        o = off % q
        flags = _SIEVE_FLAGS[q][o:] + _SIEVE_FLAGS[q][:o]  # flags[w] for w + off
        pats.append(int(values.translate(flags.ljust(256, b"0"))[::-1], 2))
    return pats


def _rotation(q: int, o: int) -> int:
    """Fill and return _ROTATIONS[q][o]: bit k is set when k*k + o is a
    square modulo q, for every k < _BLOCK + _MERGED_MAX + 2q."""
    _ROTATIONS[q][o] = rep = _patterns(q, 0, 1, (o,))[0] * _REPUNITS[q]
    return rep


def _sieve_patterns(
    base: int, stride: int, offsets: tuple[int, ...]
) -> list[list[tuple[int, int, int]]]:
    """Per offset, the (q, pattern, shift) triples of the sieve moduli, in
    order, whose pattern (that of _patterns, read as pattern >> shift) does
    not pass every position, each pattern repeated to at least
    _BLOCK + _MERGED_MAX + 2q bits.  A unit stride hands over the rotation
    table entry unshifted, with its shift c < q; modulus 64 and the other
    strides build the pattern, with shift 0."""
    patterns: list[list[tuple[int, int, int]]] = [[] for _ in offsets]
    for q in _SIEVE_MODULI:
        inv = _INVERSES[q][stride % q]
        if inv:
            c, inv2, rows = base * inv % q, inv * inv, _ROTATIONS[q]
            for off, pats in zip(offsets, patterns):
                o = off * inv2 % q
                # o' = 0 leaves j**2 + o', a square, at every position; no
                # other entry passes every position or is 0
                if o:
                    pats.append((q, rows[o] or _rotation(q, o), c))
        else:
            for bits, pats in zip(_patterns(q, base, stride, offsets), patterns):
                if bits != (1 << q) - 1:
                    pats.append((q, bits * _REPUNITS[q], 0))
    return patterns


def _class_mod_64(base: int, stride: int, offsets: tuple[int, ...]) -> tuple[int, int] | None:
    """(a, g) for the positions j at which (base + stride*j)**2 + off is a
    square modulo 64 for some offset: a is the least of them mod 64, and g the
    largest power of two up to 64 with every one of them = a (mod g).  None
    when there is no such position."""
    allowed = 0
    for bits in _patterns(64, base, stride, offsets):
        allowed |= bits
    if not allowed:
        return None
    a = (allowed & -allowed).bit_length() - 1
    g = 64
    # (2^64 - 1) // (2^g - 1) has the bits 0, g, 2g, ... < 64 set
    while (allowed >> a) & ~(((1 << 64) - 1) // ((1 << g) - 1)):
        g //= 2
    return a, g


def square_candidates(base: int, stride: int, offsets: tuple[int, ...], count: int):
    """Yield, ascending, every j in [0, count) at which (base + stride*j)**2 + off
    may be a perfect square for some off in offsets.

    A position is skipped only when, for each offset, the value is a non-square
    modulo one of the sieve moduli, so no true square is ever skipped; the
    positions yielded still need is_perfect_square.  The positions that pass
    modulo 64 for some offset all lie in one class j = a (mod g), g a power of
    two up to 64 (g = 4 or 8 on a scan of x**2 - 4N for odd N), so the sieve
    runs over i with j = a + g*i alone.  Per offset and modulus q, a q-bit
    pattern marks the positions i mod q that pass.  Where the stride is a
    unit modulo q, the pattern is a rotation table entry, taken unshifted
    with its shift c (see _ROTATIONS), so only modulus 64 and the moduli
    that share a factor with the stride build theirs.  Patterns are merged,
    unshifted, while their moduli multiply to Q <= _MERGED_MAX, with one
    CRT shift C per group (see _merge); a block of positions from start
    is the AND of the merged patterns, each read from (start + C) % Q, and
    the OR of that over the offsets, cut to the block by one all-ones mask
    that is built once per scan (twice when the last block is short).
    Every block but the last takes _BLOCK = 2^14 positions, and every
    pattern is long enough for any block, so set-up shifts no pattern.
    """
    step = _class_mod_64(base, stride, offsets)
    if step is None:
        return
    a, g = step
    base, stride, count = base + stride * a, stride * g, -(-(count - a) // g)
    # an offset with an all-zero pattern never gives a square
    sieves = [
        _merge(pats)
        for pats in _sieve_patterns(base, stride, offsets)
        if all(rep for _, rep, _ in pats)
    ]
    if not sieves:
        return
    full = (1 << _BLOCK) - 1
    for start in range(0, count, _BLOCK):
        ones = full if count - start >= _BLOCK else (1 << count - start) - 1
        mask = 0
        for pats in sieves:
            block = ones
            for q, rep, shift in pats:
                block &= rep >> (start + shift) % q
            mask |= block
        # peel survivors off the top: the top bit costs no full-length
        # negation and AND, as the lowest one would
        found = []
        while mask:
            top = mask.bit_length() - 1
            found.append(top)
            mask ^= 1 << top
        for i in reversed(found):
            yield a + g * (start + i)


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first k primes as bases, k by the size of n
    (_MR_TIERS): deterministic below 3317044064679887385961981 (about
    3.3e24, the least strong pseudoprime to all 13 primes 2..41),
    probabilistic above."""
    if n < 2:
        return False
    for p in _MR_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = next((k for bound, k in _MR_TIERS if n < bound), len(_MR_PRIMES))
    for a in _MR_PRIMES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


def random_prime(rng: random.Random, bits: int) -> int:
    """Random prime with exactly `bits` bits."""
    if bits < 2:
        raise ValueError("need at least 2 bits")
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(n):
            return n


def as_fraction(value) -> Fraction:
    """The exact value of a rational input: an int, Fraction or Decimal as it
    is, a float as printed (0.99 is 99/100, not its binary expansion), and a
    string like "3/2" or "0.707".  A zero denominator is a ValueError like
    any other malformed number."""
    if isinstance(value, float):
        value = str(value)
    elif not isinstance(value, (str, int, Fraction, Decimal)):
        raise TypeError(f"cannot interpret {value!r} as an exact ratio")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


@dataclass(frozen=True)
class Split:
    """A split N = p*q, 1 <= p <= q, with the scan's step count (None for
    a method that does not count positions).  The solution x = p + q,
    y = q - p of 4N = x^2 - y^2 is derived from p and q."""

    p: int
    q: int
    steps: int | None = None

    def __post_init__(self):
        if self.p > self.q or self.p < 1:
            raise ValueError("need 1 <= p <= q")

    @classmethod
    def of(cls, n: int, d: int, steps: int | None = None) -> Split:
        """The split of n at its divisor d, the smaller part first."""
        if d < 1 or n % d:
            raise ValueError(f"{d} does not divide {n}")
        return cls(*sorted((d, n // d)), steps)

    @property
    def x(self) -> int:
        return self.p + self.q

    @property
    def y(self) -> int:
        return self.q - self.p


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending.  The prime powers come
    from trial division by 2, 3 and 6k -/+ 1 up to the root of the cofactor
    left, and a cofactor above 1 at the end is prime."""
    if n < 1:
        raise ValueError("n must be >= 1")
    divs, r, f = [1], n, 2
    while f * f <= r:
        if r % f == 0:
            powers = [1]
            while r % f == 0:
                r //= f
                powers.append(powers[-1] * f)
            divs = [d * power for d in divs for power in powers]
        f += 1 if f == 2 else 4 if f % 6 == 1 else 2  # 2, 3, 5, 7, 11, 13, ...
    if r > 1:
        divs += [d * r for d in divs]
    return sorted(divs)
