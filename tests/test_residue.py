import time
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from factorlab import residue
from factorlab.arith import (
    Split,
    is_perfect_square,
    is_prime,
    isqrt,
    next_prime,
    random_prime,
    square_candidates,
)
from factorlab.coppersmith import theorem4_driver
from factorlab.errors import Exhausted, GcdFactorFound
from factorlab.residue import (
    ResiduePair,
    algorithm_one,
    default_t_bound,
    enumerate_pairs,
    landry_pepin,
    pair_driver,
    residue_driver,
    theorem4_pairs,
)

from conftest import outcome, pair_tuples, reference_algorithm_one, reference_landry_pepin

# moduli that share factors with several sieve moduli
SIEVE_SHARED = (63, 64, 65, 210, 143)


def brute_pairs(n: int, m: int) -> list[tuple[int, int]]:
    """Exhaustive {(c, d): 1 <= c <= d < m, c*d = n (mod m), gcd(c, m) = 1}."""
    out = set()
    for c in range(1, m):
        if gcd(c, m) != 1:
            continue
        for d in range(c, m):
            if c * d % m == n % m:
                out.add((c, d))
    return sorted(out)


class TestEnumeratePairs:
    def test_example_2599_mod_5(self):
        assert brute_pairs(2599, 5) == [(1, 4), (2, 2), (3, 3)]
        got = enumerate_pairs(2599, 5)
        assert pair_tuples(got) == [(1, 4), (2, 2), (3, 3)]
        # the true residues of 23 and 113 are (3, 3)
        assert (23 % 5, 113 % 5) == (3, 3)

    def test_odd_mod_2(self):
        assert pair_tuples(enumerate_pairs(2599, 2)) == [(1, 1)]

    def test_shared_factor_short_circuits(self):
        with pytest.raises(GcdFactorFound) as info:
            enumerate_pairs(15, 5)
        assert info.value.factor == 5

    @pytest.mark.parametrize("pairs", [enumerate_pairs, theorem4_pairs])
    @pytest.mark.parametrize("m", [1, 0, -5])
    def test_modulus_below_two(self, pairs, m):
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            pairs(2599, m)

    def test_matches_brute_force(self, rng):
        for _ in range(150):
            n = rng.randrange(2, 10**5)
            m = rng.randrange(2, 100)
            if gcd(n, m) != 1:
                continue
            assert pair_tuples(enumerate_pairs(n, m)) == brute_pairs(n, m)

    def test_pair_invariants(self):
        got = enumerate_pairs(7919 * 104729, 83)
        n = 7919 * 104729
        for pair in got:
            assert 0 < pair.c <= pair.d < 83
            assert pair.c * pair.d % 83 == n % 83
            assert gcd(pair.c, 83) == 1


class TestAlgorithmOne:
    def test_example_2599_mod_5(self):
        got = algorithm_one(2599, 5)
        assert (3, 3) in pair_tuples(got)
        assert set(pair_tuples(got)) <= set(pair_tuples(enumerate_pairs(2599, 5)))

    def test_unit_pair(self):
        # p = q = 1 (mod m) forces the lift cd = 1, whose only split is (1, 1)
        p, q = 31, 61  # both 1 mod 5
        got = algorithm_one(p * q, 5)
        assert (1, 1) in pair_tuples(got)

    def test_10807_mod_3(self):
        got = algorithm_one(10807, 3)
        assert (101 % 3, 107 % 3) == (2, 2)
        assert (2, 2) in pair_tuples(got)

    def test_requires_prime_modulus(self):
        with pytest.raises(ValueError, match="modulus 6 is not prime"):
            algorithm_one(2599, 6)

    def test_shared_factor_short_circuits(self):
        with pytest.raises(GcdFactorFound) as info:
            algorithm_one(2599, 23)
        assert info.value.factor == 23

    def test_contains_true_pair_and_subset(self, rng):
        primes_to_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
        for _ in range(60):
            p = random_prime(rng, rng.randrange(6, 11))
            q = random_prime(rng, rng.randrange(6, 11))
            n = p * q
            if n >= 10**6:
                continue
            for m in primes_to_50:
                if gcd(n, m) != 1:
                    continue
                got = algorithm_one(n, m)
                true_pair = tuple(sorted((p % m, q % m)))
                assert true_pair in pair_tuples(got), (n, m)
                assert set(pair_tuples(got)) <= set(pair_tuples(enumerate_pairs(n, m)))

    @given(
        m=st.sampled_from([p for p in range(2, 60) if is_prime(p)]),
        n=st.integers(min_value=1, max_value=10**6 - 1),
    )
    @settings(max_examples=300)
    def test_matches_square_difference_scan(self, m, n):
        assume(n % m)
        assert algorithm_one(n, m) == reference_algorithm_one(n, m)


class TestLandryPepin:
    def test_worked_instance_10807(self):
        # 101 = 10*10 + 1, 107 = 10*10 + 7: z = 7*101 + 1*107 = 814 at t = 8,
        # discriminant 814^2 - 4*7*10807 = 360000 = 600^2,
        # root (814 + 600) / 14 = 101.
        assert (814 - (10807 + 7) % 100) // 100 == 8
        disc = 814**2 - 4 * 1 * 7 * 10807
        assert disc == 360000 and is_perfect_square(disc) == 600
        assert (814 + 600) % 14 == 0 and (814 + 600) // 14 == 101

        assert landry_pepin(10807, 10, 10, 1, 7, t_bound=8) == Split(101, 107)
        with pytest.raises(Exhausted):
            landry_pepin(10807, 10, 10, 1, 7, t_bound=7)

    def test_lehmer_special_case(self):
        # c = d = 1 with equal moduli: the scan walks z = p + q directly
        p, q = 101, 151  # both 1 mod 10
        n = p * q
        t_needed = (p + q - (n + 1) % 100) // 100
        assert landry_pepin(n, 10, 10, 1, 1, t_bound=t_needed) == Split(101, 151)

    def test_wrong_guess_exhausts(self):
        with pytest.raises(Exhausted):
            landry_pepin(10807, 10, 10, 3, 9, t_bound=40)

    def test_precondition(self):
        with pytest.raises(ValueError):
            landry_pepin(10807, 10, 10, 2, 7, t_bound=5)
        with pytest.raises(ValueError):
            landry_pepin(10807, 10, 10, 1, 7, t_bound=-1)
        with pytest.raises(ValueError):
            landry_pepin(2599, 10, 1, 1, 0, t_bound=5)
        for n in (-10807, 1, 0):
            with pytest.raises(ValueError, match="N must be >= 2"):
                landry_pepin(n, 10, 10, 1, 7, 8)
            with pytest.raises(ValueError, match="N must be >= 2"):
                default_t_bound(n, 10, 10, 1, 7)

    def test_composite_parts_are_not_certified(self):
        # a split is any divisor pair: neither part is tested for primality
        assert landry_pepin(292248, 25, 25, 27, 36, 105) == Split(328, 891)
        assert theorem4_driver(15 * 101, 15) == Split(15, 101)

    def test_no_primality_test_on_the_split_path(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"is_prime({n}) on the split path")

        monkeypatch.setattr(residue, "is_prime", refuse)
        assert landry_pepin(10807, 10, 10, 1, 7, 8) == Split(101, 107)
        assert residue_driver(10201, 10) == Split(101, 101)
        assert theorem4_driver(10807, 100) == Split(101, 107)
        assert theorem4_driver(15 * 101, 15) == Split(15, 101)

    @given(
        a=st.integers(min_value=2, max_value=400),
        b=st.integers(min_value=2, max_value=400),
        m=st.one_of(st.sampled_from(SIEVE_SHARED), st.integers(min_value=1, max_value=300)),
        mod2=st.one_of(st.sampled_from(SIEVE_SHARED), st.integers(min_value=1, max_value=300)),
        planted=st.booleans(),
        c=st.integers(min_value=0, max_value=300),
        d=st.integers(min_value=0, max_value=300),
        t_bound=st.one_of(st.just(0), st.integers(min_value=0, max_value=3000)),
    )
    @settings(max_examples=600)
    def test_sieved_scan_matches_reference(self, a, b, m, mod2, planted, c, d, t_bound):
        # composite n = a*b; planted residues are those of a divisor pair
        n = a * b
        if planted:
            c, d = a % m, b % mod2
        c, d = c % m, d % mod2
        assume(gcd(c, m) == 1 and gcd(d, mod2) == 1)
        got = outcome(landry_pepin, n, m, mod2, c, d, t_bound)
        if d == 0:  # mod2 = 1: a precondition error, where the scan divides by 2d
            assert got == (ValueError, "d must be nonzero")
        else:
            assert got == outcome(reference_landry_pepin, n, m, mod2, c, d, t_bound)

    @given(
        a=st.integers(min_value=1, max_value=200).map(lambda k: 2 * k + 1),
        b=st.integers(min_value=1, max_value=200).map(lambda k: 2 * k + 1),
        m=st.integers(min_value=0, max_value=39).map(lambda k: 2 * k + 1),
        mod2=st.integers(min_value=0, max_value=39).map(lambda k: 2 * k + 1),
        planted=st.booleans(),
        c=st.integers(min_value=-300, max_value=300),
        d=st.integers(min_value=-300, max_value=300),
        t_bound=st.integers(min_value=0, max_value=3000),
    )
    @settings(max_examples=300)
    # hits at an even t (8) and at an odd t (13), as the CI package job runs
    @example(a=101, b=107, m=13, mod2=13, planted=True, c=0, d=0, t_bound=8)
    @example(a=1009, b=1013, m=21, mod2=21, planted=True, c=0, d=0, t_bound=13)
    # c = 0 with m = 1, and a negative d (107 = 13*9 - 10)
    @example(a=101, b=107, m=1, mod2=13, planted=True, c=0, d=0, t_bound=3000)
    @example(a=101, b=107, m=13, mod2=13, planted=True, c=0, d=-1, t_bound=3000)
    def test_odd_n_scan_matches_reference(self, a, b, m, mod2, planted, c, d, t_bound):
        # odd n and odd m*mod2: only the t with z = c + d (mod 2) are
        # scanned, and the result is the unsieved scan's over every t
        n = a * b
        if planted:  # a divisor pair's residues, d negative when d < 0 was drawn
            c, d = a % m, b % mod2 - (mod2 if d < 0 else 0)
        assume(gcd(c, m) == 1 and gcd(d, mod2) == 1 and d != 0)
        assert outcome(landry_pepin, n, m, mod2, c, d, t_bound) == outcome(
            reference_landry_pepin, n, m, mod2, c, d, t_bound
        )

    @pytest.mark.parametrize(
        "p, q, mod, c, d, t",
        [(101, 107, 13, 10, 3, 8), (1009, 1013, 21, 1, 5, 13)],
    )
    def test_hits_in_either_parity_class(self, p, q, mod, c, d, t):
        # z = d*p + c*q at an even and at an odd t, each the first hit
        n = p * q
        assert (d * p + c * q - (n + c * d) % mod**2) // mod**2 == t
        assert landry_pepin(n, mod, mod, c, d, t) == Split(p, q)
        with pytest.raises(Exhausted):
            landry_pepin(n, mod, mod, c, d, t - 1)

    @pytest.mark.parametrize(
        "n, m, mod2, c, d, step",
        [
            (10807, 13, 13, 10, 3, 2),  # odd N, odd m*mod2: one parity class
            (10807, 13, 7, 1, 3, 2),
            (10807, 10, 10, 1, 7, 1),  # odd N, even m*mod2: z0 = c + d already
            (10807, 13, 10, 10, 7, 1),
            (292248, 25, 25, 27, 36, 1),  # even N: no parity rule
            (292248, 25, 25, 2, 11, 1),
        ],
    )
    def test_sieved_stride(self, n, m, mod2, c, d, step):
        calls = []

        def recorded(*args):
            calls.append(args)
            return square_candidates(*args)

        with mock.patch.object(residue, "square_candidates", recorded):
            outcome(landry_pepin, n, m, mod2, c, d, 50)
        ((base, stride, _, count),) = calls
        assert stride == step * m * mod2
        # the t scanned are t0, t0 + step, ... up to t_bound = 50
        t0, r = divmod(base - (n + c * d) % (m * mod2), m * mod2)
        assert r == 0 and t0 < step and count == (50 - t0) // step + 1
        if step == 2:
            assert (base - c - d) % 2 == 0

    @given(
        p=st.integers(min_value=2, max_value=3000),
        q=st.integers(min_value=2, max_value=3000),
        m=st.integers(min_value=1, max_value=60),
        c=st.integers(min_value=1, max_value=60),
        d=st.integers(min_value=1, max_value=60),
        true_residues=st.booleans(),
        t_bound=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=300)
    def test_swapped_residues_agree(self, p, q, m, c, d, true_residues, t_bound):
        # with mod2 = m, (c, d) and (d, c) scan the same z values, and both
        # find a factor of a semiprime at the same first t, at the latest
        # when z reaches d*p + c*q for the true residues
        p, q = next_prime(p), next_prime(q)
        n = p * q
        if true_residues:
            c, d = (p - 1) % m + 1, (q - 1) % m + 1
        assume(gcd(c, m) == 1 and gcd(d, m) == 1)

        def outcome(c, d):
            try:
                return landry_pepin(n, m, m, c, d, t_bound)
            except Exhausted:
                return None

        found = outcome(c, d)
        assert found == outcome(d, c)
        if true_residues and t_bound * m * m >= d * p + c * q:
            assert found is not None

    def test_constructed_instances_within_scaled_sum_bound(self, rng):
        def prime_in_class(start, residue, modulus):
            cand = start + (residue - start) % modulus
            while not is_prime(cand):
                cand += modulus
            return cand

        for _ in range(60):
            m = rng.randrange(5, 60)
            mod2 = rng.randrange(5, 60)
            c = rng.randrange(1, min(m, 10))
            d = rng.randrange(1, min(mod2, 10))
            if gcd(c, m) != 1 or gcd(d, mod2) != 1:
                continue
            # comparable factor sizes keep p + q below 3*sqrt(N) (balanced regime)
            base = rng.randrange(10**4, 10**5)
            p = prime_in_class(base, c, m)
            q = prime_in_class(base + rng.randrange(0, base), d, mod2)
            if p == q:
                continue
            n = p * q
            # |d*p + c*q| <= max(c, d) * (p + q) < 3 * max(c, d) * sqrt(N)
            t_bound = 3 * max(c, d) * isqrt(n) // (m * mod2) + 2
            fac = landry_pepin(n, m, mod2, c, d, t_bound)
            assert (fac.p, fac.q) == (min(p, q), max(p, q))


class TestPairDriver:
    @given(
        n=st.integers(min_value=2, max_value=1499),
        m=st.integers(min_value=2, max_value=40),
        driver=st.sampled_from((theorem4_driver, residue_driver)),
    )
    @example(n=7, m=14, driver=residue_driver)  # gcd(n, m) = n
    @example(n=15, m=30, driver=residue_driver)
    @example(n=15, m=30, driver=theorem4_driver)
    @example(n=3, m=2, driver=theorem4_driver)  # the root p = 3, q = 1 is in the box
    @settings(max_examples=400, deadline=None)
    def test_splits_are_verified(self, n, m, driver):
        # a split of n into parts >= 2 or Exhausted, whatever gcd(n, m) is
        try:
            fac = driver(n, m)
        except Exhausted:
            return
        assert isinstance(fac, Split) and fac.steps is None
        assert 1 < fac.p <= fac.q and fac.p * fac.q == n

    @pytest.mark.parametrize("driver", [theorem4_driver, residue_driver])
    @pytest.mark.parametrize("n", [1, 0, -15])
    def test_n_below_two_is_rejected(self, driver, n):
        with pytest.raises(ValueError, match="N must be >= 2"):
            driver(n, 10)

    def test_negative_t_bound_is_rejected_before_the_pairs(self):
        # enumerating the pairs modulo 10^6 takes seconds; the error must not
        # wait for it
        with mock.patch.object(residue, "enumerate_pairs") as enumerate_pairs:
            with pytest.raises(ValueError, match="t_bound must be >= 0"):
                residue_driver(10807, 10**6, t_bound=-1)
        enumerate_pairs.assert_not_called()

    def test_tries_each_unordered_pair_once(self):
        tried = []

        def solve(pair):
            tried.append((pair.c, pair.d))
            return []

        with pytest.raises(Exhausted):
            pair_driver(10807, 100, theorem4_pairs, solve)
        assert tried == [(1, 7), (1, 107)]  # not (7, 1) or (107, 1)


class TestTheorem4Pairs:
    def test_2599_mod_90(self):
        # r = 79 (prime), r + m = 169 = 13^2
        assert 2599 % 90 == 79
        pairs = [(p.c, p.d) for p in theorem4_pairs(2599, 90)]
        assert pairs == [(1, 79), (1, 169), (13, 13)]

    def test_10807_mod_100(self):
        pairs = [(p.c, p.d) for p in theorem4_pairs(10807, 100)]
        assert pairs == [(1, 7), (1, 107)]
        # true residues (101 mod 100, 107 mod 100) = (1, 7) are present
        assert (101 % 100, 107 % 100) == (1, 7)

    def test_true_pair_present_when_product_small(self, rng):
        hits = 0
        for _ in range(200):
            p = random_prime(rng, rng.randrange(8, 14))
            q = random_prime(rng, rng.randrange(8, 14))
            if p == q:
                continue
            n = p * q
            m = rng.randrange(max(3, isqrt(isqrt(n))), 4 * isqrt(isqrt(n)) + 4)
            c, d = sorted((p % m, q % m))
            if c == 0 or c * d >= 2 * m:
                continue
            pairs = [(x.c, x.d) for x in theorem4_pairs(n, m)]
            assert (c, d) in pairs, (n, m)
            hits += 1
        assert hits > 20

    @given(n=st.integers(min_value=2, max_value=10**6), m=st.integers(2, 300))
    def test_each_unordered_divisor_pair_once(self, n, m):
        # a lift past n (n < m) is not split: its pairs hold only p = 1
        lifts = [cd for cd in (n % m, n % m + m) if 0 < cd <= n]
        want = [(c, cd // c) for cd in lifts for c in range(1, cd + 1)
                if cd % c == 0 and c * c <= cd]
        assert [(p.c, p.d) for p in theorem4_pairs(n, m)] == want

    def test_a_lift_past_n_is_not_trial_divided(self):
        # N = 3 with m = 10^30: the lift r + m = 10^30 + 3 exceeds N, and
        # trial-dividing it up to its square root would not end
        started = time.perf_counter()
        assert theorem4_pairs(3, 10**30) == [ResiduePair(1, 3)]
        assert time.perf_counter() - started < 0.5

    def test_unit_lift(self):
        pairs = [(p.c, p.d) for p in theorem4_pairs(22, 3)]
        assert (1, 1) in pairs  # 22 mod 3 = 1
