import dataclasses
import random
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorlab import cli, fermat, residue
from factorlab.arith import (
    _BLOCK,
    _MERGED_MAX,
    _MR_PRIMES,
    _MR_TIERS,
    _REPUNITS,
    _SIEVE_MODULI,
    _class_mod_64,
    _merge,
    _patterns,
    _sieve_patterns,
    Split,
    as_fraction,
    divisors,
    is_perfect_square,
    is_prime,
    isqrt,
    next_prime,
    random_prime,
    square_candidates,
)

from conftest import perfbench_workloads, reference_square_candidates


class TestIsqrt:
    def test_examples(self):
        assert isqrt(0) == 0
        assert isqrt(2599) == 50
        assert 50 * 50 <= 2599 < 51 * 51
        assert isqrt(4305481) == 2074
        assert 2074**2 <= 4305481 < 2075**2

    @given(st.integers(min_value=0, max_value=10**6))
    def test_floor_property_small(self, n):
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)

    @given(st.integers(min_value=0, max_value=10**40))
    @settings(max_examples=200)
    def test_floor_property_large(self, n):
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)


class TestPerfectSquare:
    def test_examples(self):
        assert is_perfect_square(8100) == 90
        assert is_perfect_square(0) == 0
        assert isqrt(8101) == 90 and 90 * 90 != 8101
        assert is_perfect_square(8101) is None
        assert is_perfect_square(-4) is None

    def test_exhaustive_small(self):
        squares = {k * k for k in range(101)}
        for n in range(10001):
            root = is_perfect_square(n)
            if n in squares:
                assert root is not None and root * root == n
            else:
                assert root is None

    @given(st.integers(min_value=0, max_value=10**18))
    @settings(max_examples=200)
    def test_roundtrip(self, r):
        assert is_perfect_square(r * r) == r


def block_edges(limit: int):
    """The positions at which square_candidates' blocks end, up to limit:
    the multiples of _BLOCK."""
    return range(_BLOCK, limit + _BLOCK, _BLOCK)


def assert_sieve_patterns(base: int, stride: int, offsets: tuple[int, ...]) -> None:
    """_sieve_patterns, read off the rotation tables or built, agrees with
    _patterns for every sieve modulus: a pattern that passes every position
    is left out, and every other one, read as pattern >> shift with
    0 <= shift < q, is repeated to more than _BLOCK + _MERGED_MAX + q bits,
    so any block reads it whole."""
    for off, pats in zip(offsets, _sieve_patterns(base, stride, offsets)):
        got = {q: (rep, shift) for q, rep, shift in pats}
        assert [q for q, _, _ in pats] == [q for q in _SIEVE_MODULI if q in got]
        for q in _SIEVE_MODULI:
            (bits,) = _patterns(q, base, stride, (off,))
            if bits == (1 << q) - 1:
                assert q not in got
                continue
            rep, shift = got[q]
            assert 0 <= shift < q
            width = _BLOCK + _MERGED_MAX + q + 1
            want = sum(bits << k for k in range(0, width, q)) & ((1 << width) - 1)
            assert (rep >> shift) & ((1 << width) - 1) == want, (q, base, stride, off)


class TestSievePatterns:
    @pytest.mark.parametrize("stride", range(-1, 64))
    def test_every_stride_and_offset_residue(self, stride):
        # strides -1..63 and offsets -64..-1 take every residue modulo each
        # sieve modulus: unit strides read the tables, the others build
        assert_sieve_patterns(10**12 + 39 * stride, stride, tuple(range(-64, 0)))

    @given(
        base=st.integers(min_value=-10**20, max_value=10**20),
        stride=st.integers(min_value=-10**9, max_value=10**9),
        offsets=st.lists(st.integers(min_value=-10**20, max_value=10**20), min_size=1, max_size=3),
    )
    @settings(max_examples=200)
    @example(base=5, stride=0, offsets=[7])
    @example(base=-10**12, stride=-3, offsets=[-4 * 10807])
    @example(base=10**12 + 39, stride=9 * 2 * 5 * 7 * 11 * 13, offsets=[-4 * 10807, 4 * 10807])
    @example(base=31, stride=3000**2, offsets=[0, 1])
    def test_matches_the_built_patterns(self, base, stride, offsets):
        assert_sieve_patterns(base, stride, tuple(offsets))


class TestMerge:
    @given(
        members=st.lists(
            st.tuples(st.integers(min_value=0), st.integers(min_value=0)),
            min_size=len(_SIEVE_MODULI),
            max_size=len(_SIEVE_MODULI),
        ),
        keep=st.lists(st.booleans(), min_size=len(_SIEVE_MODULI), max_size=len(_SIEVE_MODULI)),
        starts=st.lists(st.integers(min_value=0, max_value=10**7), min_size=1, max_size=5),
    )
    @settings(max_examples=200)
    def test_merged_read_is_the_and_of_the_member_reads(self, members, keep, starts):
        # random q-bit patterns and shifts for a random subset of the sieve
        # moduli, in sieve order: read from (start + C) % Q, the merged
        # patterns AND to what the members AND to read from (start + c) % q
        pats = [
            (q, bits % (1 << q) * _REPUNITS[q], shift % q)
            for q, (bits, shift), kept in zip(_SIEVE_MODULI, members, keep)
            if kept
        ]
        merged = _merge([tuple(pat) for pat in pats])
        product = 1
        for q, _, _ in pats:
            product *= q
        for big_q, _, big_c in merged:
            assert 0 <= big_c < big_q
            product //= big_q
        assert product == 1
        ones = (1 << _BLOCK) - 1
        for start in starts:
            want = got = ones
            for q, rep, shift in pats:
                want &= rep >> (start + shift) % q
            for big_q, rep, big_c in merged:
                got &= rep >> (start + big_c) % big_q
            assert got == want, start

    def test_groups_stay_within_the_merged_max(self):
        # every modulus passes nothing at its one zero bit: 7 groups of 16
        pats = [(q, ((1 << q) - 2) * _REPUNITS[q], q - 1) for q in _SIEVE_MODULI]
        merged = _merge(pats)
        assert len(merged) == 7
        assert all(big_q <= _MERGED_MAX for big_q, _, _ in merged)


class TestSquareCandidates:
    @given(
        base=st.integers(min_value=-10**12, max_value=10**12),
        stride=st.integers(min_value=-5000, max_value=5000),
        offsets=st.lists(st.integers(min_value=-10**15, max_value=10**15), min_size=1, max_size=3),
        count=st.integers(min_value=0, max_value=3000),
        square_at=st.lists(st.integers(min_value=0, max_value=2999), max_size=3),
    )
    @settings(max_examples=300)
    def test_yields_every_square(self, base, stride, offsets, count, square_at):
        # plant squares: offsets that make the value at some j a perfect square
        offsets = offsets + [k * k - (base + stride * j) ** 2 for k, j in enumerate(square_at)]
        got = list(square_candidates(base, stride, tuple(offsets), count))
        assert got == sorted(set(got)) and all(0 <= j < count for j in got)
        want = [
            j for j in range(count)
            if any(is_perfect_square((base + stride * j) ** 2 + off) is not None for off in offsets)
        ]
        assert set(want) <= set(got)

    def test_yields_squares_at_block_edges(self):
        # plant a square on each side of every block edge up to 2^18
        base = 10**12 + 39
        for edge in block_edges(1 << 18):
            offsets = tuple(k * k - (base + j) ** 2 for k, j in ((base, edge - 1), (base + 1, edge)))
            got = list(square_candidates(base, 1, offsets, edge + 1))
            assert got[-2:] == [edge - 1, edge] and len(got) < 10 + edge // 1000

    @given(
        base=st.integers(min_value=-10**12, max_value=10**12),
        stride=st.integers(min_value=-5000, max_value=5000),
        offsets=st.lists(st.integers(min_value=-10**15, max_value=10**15), min_size=1, max_size=3),
        count=st.integers(min_value=0, max_value=3000),
    )
    @settings(max_examples=300)
    # one example for each step g the mod-64 class can take: 1, 2, 4 and 8 (a
    # sweep of every base, stride and offset mod 64 finds no larger g)
    @example(base=6452167500, stride=12, offsets=[733938983049, -59741040802], count=3000)
    @example(base=5478744786, stride=97, offsets=[906207720515], count=3000)
    @example(base=3337446730, stride=3, offsets=[278292735142, 331721306073], count=3000)
    @example(base=9654989331, stride=97, offsets=[667131928356], count=3000)
    # counts that cross two or three blocks (g = 1, so the stepped index is
    # j).  The first three end one short of, at and one past a block edge,
    # with a survivor at their last position: strides that share most sieve
    # moduli leave 40 to 1 750 survivors.  The last is a Landry-Pepin scan
    # of N = 1000000007*1000000009 with m = mod2 = 210 and (c, d) = (11, 13):
    # stride m^2, offsets -/+4cdN
    @example(
        base=-455104175872,
        stride=19399380,
        offsets=[-207119810895451636064479, -207119810899944988357909],
        count=2 * _BLOCK - 1,
    )
    @example(
        base=-340288974678,
        stride=1203362940780,
        offsets=[-115796534142379053119139],
        count=2 * _BLOCK,
    )
    @example(
        base=804261702860,
        stride=1203362940780,
        offsets=[-646836761545042109439475, -646836968117934612556615],
        count=3 * _BLOCK + 1,
    )
    @example(
        base=1906,
        stride=210**2,
        offsets=[-572 * 1000000016000000063, 572 * 1000000016000000063],
        count=3 * _BLOCK + 1,
    )
    def test_yields_exactly_the_sieve_survivors(self, base, stride, offsets, count):
        # the positions at which some offset gives a square modulo every
        # sieve modulus, and no others
        survivors = set()
        for off in offsets:
            left = range(count)
            for q in _SIEVE_MODULI:
                squares = {i * i % q for i in range(q)}
                # the value modulo q depends on j mod q alone
                passes = [((base + stride * r) ** 2 + off) % q in squares for r in range(q)]
                left = [j for j in left if passes[j % q]]
            survivors.update(left)
        want = sorted(survivors)
        assert list(square_candidates(base, stride, tuple(offsets), count)) == want
        step = _class_mod_64(base, stride, tuple(offsets))
        if step is not None:
            a, g = step
            assert all(j % g == a % g for j in want)

    @pytest.mark.parametrize(
        "base, stride, offsets, step",
        [
            (6452167500, 12, (733938983049, -59741040802), (0, 1)),
            (5478744786, 97, (906207720515,), (13, 2)),
            (3337446730, 3, (278292735142, 331721306073), (2, 4)),
            (9654989331, 97, (667131928356,), (5, 8)),
            (10**12 + 39, 1, (-4 * 10807,), (1, 8)),  # standard scans of odd N
            (10**12 + 39, 1, (-4 * 10809,), (3, 4)),
            (10**12 + 39, 1, (-24 * 10807,), (0, 2)),  # a ratio scan on 6N
            (10**12 + 39, 1, (-4 * 10808,), (0, 1)),
            (10**12 + 39, 1, (2,), None),  # x**2 + 2 is never a square mod 4
        ],
    )
    def test_class_mod_64(self, base, stride, offsets, step):
        assert _class_mod_64(base, stride, offsets) == step

    def test_one_offset_at_block_edges_in_the_stepped_index(self):
        # odd N = rs*tu = rt*su has two divisor pairs whose sums differ by
        # (r - u)(s - t) = 8, so x**2 - 4N is a square at x2 and x1 = x2 + 8,
        # consecutive positions of the g = 8 class.  Blocks count i in
        # j = a + 8i; base = x1 - 8E puts x2 and x1 at i = E - 1 and i = E,
        # on each side of the edge E
        t, u = 10**6 + 3, 10**6 + 33
        r, s = u + 4, t + 2
        n = r * s * t * u
        x1, x2 = r * s + t * u, r * t + s * u
        assert x1 - x2 == 8
        for edge in block_edges(1 << 18):
            base = x1 - 8 * edge
            assert _class_mod_64(base, 1, (-4 * n,)) == (0, 8)
            got = list(square_candidates(base, 1, (-4 * n,), 8 * edge + 1))
            assert got[-2:] == [8 * (edge - 1), 8 * edge] and len(got) < 10 + edge // 1000

    def test_matches_the_reference_on_perfbench_scan_instances(self):
        # the first 180 seed-1 instances of perfbench's scan workload (standard,
        # ratio and Landry-Pepin, 1e5-1e6 positions): the same yields as the
        # unstepped sieve, and the same cli.run reports apart from time_ms
        workloads = perfbench_workloads()
        instances = [workloads.make_instance("scan", 1, i) for i in range(180)]
        calls = []

        def recorded(*args):
            calls.append(args)
            return square_candidates(*args)

        for inst in instances:
            config = workloads.config(cli, inst)
            with mock.patch.object(fermat, "square_candidates", recorded), \
                    mock.patch.object(residue, "square_candidates", recorded):
                got = cli.run(config)
            with mock.patch.object(fermat, "square_candidates", reference_square_candidates), \
                    mock.patch.object(residue, "square_candidates", reference_square_candidates):
                want = cli.run(config)
            assert got.outcome == "factored"
            assert dataclasses.replace(got, time_ms=0) == dataclasses.replace(want, time_ms=0)
        assert len(calls) == 180
        for base, stride, offsets, count in calls:
            # a standard or ratio scan may run on to the trivial split
            count = min(count, 2 * 10**6)
            assert list(square_candidates(base, stride, offsets, count)) == list(
                reference_square_candidates(base, stride, offsets, count)
            )

    def test_dense_positions(self):
        # every value is a square: each position is yielded once, in order,
        # across two full blocks and one position of a third
        count = 2 * _BLOCK + 1
        assert list(square_candidates(7, 3, (0,), count)) == list(range(count))

    def test_rules_out_most_positions(self):
        # a standard scan tests about one position in 207 000; this
        # 200 000-position one tests 2
        n = 4294967311 * 4295067319
        x0 = isqrt(4 * n) + 1
        assert len(list(square_candidates(x0, 1, (-4 * n,), 200_000))) < 200


class TestDivisors:
    def test_examples(self):
        assert divisors(1) == [1]
        assert divisors(60) == [1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]
        assert divisors(2599) == [1, 23, 113, 2599]
        assert divisors(10201) == [1, 101, 10201]
        assert divisors(1000003) == [1, 1000003]
        assert divisors(3 << 20) == sorted(d << i for d in (1, 3) for i in range(21))

    @given(st.integers(min_value=1, max_value=10**8))
    @settings(max_examples=300)
    def test_closed_under_cofactors(self, n):
        # ascending divisors of n, closed under d -> n // d, with every
        # divisor up to the root of n among them
        divs = divisors(n)
        assert divs == sorted(set(divs)) and all(n % d == 0 for d in divs)
        assert [n // d for d in reversed(divs)] == divs
        assert [d for d in divs if d * d <= n] == [
            d for d in range(1, isqrt(n) + 1) if n % d == 0
        ]

    def test_matches_brute_force(self):
        for n in range(1, 2000):
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n

    def test_rejects_n_below_one(self):
        for n in (0, -1, -60):
            with pytest.raises(ValueError, match="n must be >= 1"):
                divisors(n)


class TestSplit:
    def test_of_puts_the_smaller_part_first(self):
        assert Split.of(10807, 107) == Split(101, 107) == Split.of(10807, 101)
        assert Split.of(10201, 101) == Split(101, 101, None)
        assert Split.of(2599, 1, 35) == Split(1, 2599, 35)
        split = Split.of(2599, 23, 35)
        assert (split.p, split.q, split.steps, split.x, split.y) == (23, 113, 35, 136, 90)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="need 1 <= p <= q"):
            Split(0, 3)
        for d in (0, -23, 24, 2600):
            with pytest.raises(ValueError, match="does not divide 2599"):
                Split.of(2599, d)


def strong_probable_prime(n: int, a: int) -> bool:
    """n passes the strong (Miller-Rabin) test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# psi_13 = 1287836182261 * 2575672364521, the least strong pseudoprime to
# the 13 primes 2..41: is_prime's deterministic bound
PSI_13 = 3317044064679887385961981


class TestPrimality:
    @pytest.mark.parametrize("bound, k", _MR_TIERS + ((PSI_13, 13),))
    def test_tier_bounds_are_strong_pseudoprimes(self, bound, k):
        # psi_k fools the first k prime bases, so no tier can reach past it
        # with k bases; is_prime gives it more, which expose it as composite
        assert all(strong_probable_prime(bound, a) for a in _MR_PRIMES[:k])
        if k < 13:
            assert not is_prime(bound)
        else:
            assert 1287836182261 * 2575672364521 == bound

    def test_psi_12_is_composite(self):
        # below the old "3.3e24" claim, yet a strong pseudoprime to 2..37
        assert 399165290221 * 798330580441 == 318665857834031151167461
        assert not is_prime(318665857834031151167461)

    def test_matches_all_13_bases(self):
        # the size-tiered bases against all 13 on 20-80 bit values
        def reference(n: int) -> bool:
            if any(n % p == 0 for p in _MR_PRIMES):
                return n in _MR_PRIMES
            return all(strong_probable_prime(n, a) for a in _MR_PRIMES)

        rng = random.Random(41)
        for _ in range(3000):
            n = rng.getrandbits(rng.randrange(20, 81)) | 1
            assert is_prime(n) == reference(n), n
        for bits in range(20, 81):
            p, q = random_prime(rng, bits // 2), random_prime(rng, bits - bits // 2)
            assert reference(p) and reference(q) and not is_prime(p * q)

    def test_against_sieve(self):
        limit = 2 * 10**5
        sieve = [True] * (limit + 1)
        sieve[0] = sieve[1] = False
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                for j in range(i * i, limit + 1, i):
                    sieve[j] = False
        for n in range(limit + 1):
            assert is_prime(n) == sieve[n], n

    def test_large_values(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * (2**61 - 1))

    def test_next_and_random_prime(self):
        assert next_prime(113) == 127
        assert next_prime(1) == 2
        rng = random.Random(11)
        for bits in (8, 16, 32):
            p = random_prime(rng, bits)
            assert p.bit_length() == bits and is_prime(p)
        with pytest.raises(ValueError):
            random_prime(rng, 1)


class TestAsFraction:
    @pytest.mark.parametrize(
        "value, exact",
        [
            ("3/2", Fraction(3, 2)),
            ("0.707", Fraction(707, 1000)),
            (2, Fraction(2)),
            (Fraction(5, 3), Fraction(5, 3)),
            (Decimal("0.99"), Fraction(99, 100)),
            (0.99, Fraction(99, 100)),  # as printed, not 0.99's binary value
        ],
    )
    def test_exact_value(self, value, exact):
        assert as_fraction(value) == exact

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="^zero denominator in '1/0'$"):
            as_fraction("1/0")

    @pytest.mark.parametrize("value", [None, [3, 2], (3, 2), 1j])
    def test_other_types_are_rejected(self, value):
        with pytest.raises(TypeError):
            as_fraction(value)
