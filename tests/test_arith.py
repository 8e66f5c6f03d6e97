import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab.arith import (
    Factorization,
    as_fraction,
    is_perfect_square,
    is_prime,
    isqrt,
    next_prime,
    random_prime,
    square_candidates,
    trial_factor,
)


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
        # blocks of 2^10, 2^11, ..., 2^16, 2^16, ... positions while the sieve
        # leaves few: plant a square on each side of every block edge up to 2^18
        base = 10**12 + 39
        edge, size = 0, 1 << 10
        while edge < 1 << 18:
            edge += size
            size = min(2 * size, 1 << 16)
            offsets = tuple(k * k - (base + j) ** 2 for k, j in ((base, edge - 1), (base + 1, edge)))
            got = list(square_candidates(base, 1, offsets, edge + 1))
            assert got[-2:] == [edge - 1, edge] and len(got) < 10 + edge // 1000

    def test_dense_positions(self):
        # every value is a square: each position is yielded once, in order
        assert list(square_candidates(7, 3, (0,), 5000)) == list(range(5000))

    def test_rules_out_most_positions(self):
        # a 200 000-position difference-of-squares scan tests about one
        # position in 20 000
        n = 4294967311 * 4295067319
        x0 = isqrt(4 * n) + 1
        assert len(list(square_candidates(x0, 1, (-4 * n,), 200_000))) < 200


class TestTrialFactor:
    def test_examples(self):
        fac = trial_factor(60, 10)
        assert fac.parts == ((2, 2), (3, 1), (5, 1)) and fac.complete
        fac = trial_factor(2599, 200)
        assert fac.parts == ((23, 1), (113, 1)) and fac.complete
        fac = trial_factor(101, 50)
        assert fac.residual == 101 and not fac.complete

    @given(st.integers(min_value=2, max_value=10**9), st.integers(min_value=1, max_value=10**5))
    @settings(max_examples=300)
    def test_product_invariant(self, n, bound):
        fac = trial_factor(n, bound)
        product = 1
        for f, e in fac.parts:
            product *= f**e
        assert product == n

    def test_divisors_helper(self):
        assert trial_factor(60, 60).divisors() == [1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]
        # bound = isqrt(n) leaves at most one prime above the root, which
        # divisors() treats as prime: the list is complete either way
        for n in range(2, 2000):
            expected = [d for d in range(1, n + 1) if n % d == 0]
            assert trial_factor(n, n).divisors() == expected, n
            assert trial_factor(n, isqrt(n)).divisors() == expected, n

    def test_invariant_enforcement(self):
        with pytest.raises(ValueError):
            trial_factor(1, 10)
        with pytest.raises(ValueError):
            Factorization(6, ((2, 1), (2, 1)))
        with pytest.raises(ValueError):
            Factorization(6, ((2, 1), (5, 1)))


class TestPrimality:
    def test_against_sieve(self):
        limit = 2000
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
