import dataclasses
import random
import time
import warnings
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from factorlab.arith import Split, is_prime, isqrt, next_prime, random_prime
from factorlab.coppersmith import (
    BivariateProblem,
    TrivariateProblem,
    default_box_bound,
    empirical_envelope,
    solve_bivariate,
    solve_lsb_known,
    solve_msb_known,
    solve_trivariate,
    certified_regime,
    theorem4_driver,
)
from factorlab import cli, coppersmith, lattice
from factorlab.coppersmith import (
    _first_failure,
    _howgrave_halfwidth,
    _narrow,
    _quad_roots,
    _univariate_interval,
)
from factorlab.errors import Exhausted, NoRoot
from factorlab.lattice import Basis, determinant
from factorlab.residue import theorem4_pairs

from conftest import (
    balanced_semiprime,
    box_oracle,
    lsb_problem,
    outcome,
    perfbench_workloads,
    reference_howgrave_halfwidth,
    reference_lll3,
    reference_narrow,
    reference_solve_trivariate,
    reference_theorem4_driver,
    reference_theorem4_full_walk,
    reference_theorem4_pairs,
    reference_trivariate_walks,
    reference_univariate_interval,
)


def roots_of(sols):
    return [(s.x0, s.y0) for s in sols]


def t4_semiprime(rng: random.Random, bits: int, top: int) -> tuple[int, int, int]:
    """(p, q, m) with N = p*q of about `bits` bits, p = c and q = d (mod m)
    for residues c, d below `top` <= 2^(bits // 4), and m a prime of about a
    quarter of the bits: perfbench's residue-t4 shape, which theorem4
    solves when c*d < 2m."""
    m = next_prime(rng.randrange(1 << (bits // 4), 1 << (bits // 4 + 1)))
    lo, hi = (1 << (bits // 2 - 1)) // m, (1 << (bits // 2)) // m

    def prime(res: int) -> int:
        while True:
            p = m * rng.randrange(lo, hi) + res
            if is_prime(p):
                return p

    return prime(rng.randrange(1, top)), prime(rng.randrange(1, top)), m


class TestSolveBivariate:
    def test_balanced_hint_example(self):
        # N = 2063 * 2087, both factors within 46 of isqrt(N) = 2074
        prob = BivariateProblem(N=4305481, P0=2074, Q0=2074, X=46, Y=46)
        expected = box_oracle(prob)
        assert (-11, 13, 2063, 2087) in expected
        sols = solve_bivariate(prob)
        assert [(s.x0, s.y0, s.p, s.q) for s in sols] == expected
        assert (sols[0].x0, sols[0].y0) == (-11, 13)

    def test_square_with_exact_hint(self):
        p = 1009
        sols = solve_bivariate(BivariateProblem(N=p * p, P0=p, Q0=p, X=1, Y=1))
        assert roots_of(sols) == [(0, 0)]

    def test_quarter_bits_hint_48_bits(self, rng):
        n, p, q = balanced_semiprime(rng, 48)
        ell = n.bit_length() // 4
        p0 = (p >> ell) << ell
        sols = solve_bivariate(
            BivariateProblem(N=n, P0=p0, Q0=n // p0, X=1 << (ell + 1), Y=1 << (ell + 1))
        )
        assert any(s.p == p or s.q == p for s in sols)

    def test_no_root(self):
        with pytest.raises(NoRoot):
            solve_bivariate(BivariateProblem(N=4305481, P0=2074, Q0=2074, X=5, Y=5))

    def test_bound_warning_and_certified_flag(self):
        # the flag is the only report of the regime: no warning either side
        small = BivariateProblem(N=4305481, P0=2063, Q0=2087, X=4, Y=4)
        big = BivariateProblem(N=4305481, P0=2074, Q0=2074, X=2000, Y=2000)
        assert certified_regime(small) and not certified_regime(big)
        for prob, certified in ((small, True), (big, False)):
            stats = {}
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                solve_bivariate(prob, stats)
            assert stats["certified"] is certified

    def test_splitter_solves_a_box_one_attempt_cannot(self):
        # no single attempt centred on the box finds this root; the walk does
        prob = BivariateProblem(N=4305481, P0=2074, Q0=2074, X=46, Y=46)
        roots = []
        _univariate_interval(prob, 1, 1, -46, 46, 46, roots, {}, [])
        assert roots == []
        assert (-11, 13) in roots_of(solve_bivariate(prob))

    def test_oracle_equivalence_random_boxes(self, rng):
        tested = 0
        for _ in range(120):
            pb = random_prime(rng, rng.randrange(14, 20))
            qb = random_prime(rng, rng.randrange(14, 20))
            n = pb * qb
            if rng.random() < 0.5:
                p0 = max(2, pb + rng.randrange(-40, 41))
                prob = BivariateProblem(
                    N=n,
                    P0=p0,
                    Q0=max(2, n // p0 + rng.randrange(-5, 6)),
                    X=rng.randrange(1, 80),
                    Y=rng.randrange(1, 160),
                )
            else:
                mod = rng.choice([4, 8, 16, 32])
                c, d = pb % mod, qb % mod
                if c == 0 or d == 0:
                    continue
                prob = BivariateProblem(
                    N=n,
                    P0=c,
                    Q0=d,
                    X=max(1, pb // mod + 2),
                    Y=max(1, qb // mod + 2),
                    m=mod,
                )
            expected = [(x, y) for x, y, _, _ in box_oracle(prob)]
            try:
                got = roots_of(solve_bivariate(prob))
            except NoRoot:
                got = []
            assert got == expected, prob
            tested += 1
        assert tested > 80

    def test_determinism(self):
        prob = BivariateProblem(N=4305481, P0=2074, Q0=2074, X=46, Y=46)
        runs = [tuple((s.x0, s.y0, s.p, s.q) for s in solve_bivariate(prob)) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_huge_box_with_negative_divisors(self):
        # the box dwarfs N, so every divisor pair of both signs is in range;
        # the four with p > 0 are returned
        prob = BivariateProblem(N=15, P0=4, Q0=4, X=10**6, Y=10**6)
        got = [(s.x0, s.y0, s.p, s.q) for s in solve_bivariate(prob)]
        assert got == box_oracle(prob) == [
            (-3, 11, 1, 15), (-1, 1, 3, 5), (1, -1, 5, 3), (11, -3, 15, 1)
        ]

    def test_root_product_invariant(self, rng):
        for _ in range(20):
            n, p, q = balanced_semiprime(rng, 36)
            sols = solve_bivariate(
                BivariateProblem(N=n, P0=p, Q0=q, X=8, Y=8)
            )
            for s in sols:
                assert s.p * s.q == n

    def test_validation(self):
        with pytest.raises(ValueError):
            BivariateProblem(N=15, P0=3, Q0=5, X=0, Y=1)
        with pytest.raises(ValueError):
            BivariateProblem(N=0, P0=3, Q0=5, X=1, Y=1)
        with pytest.raises(ValueError):
            BivariateProblem(N=15, P0=3, Q0=5, X=1, Y=1, m=0)


class TestDegenerateScale:
    """Tiny N and negative offsets: boxes with no certified split, which the
    splitter hands to the column scan."""

    @given(
        big_n=st.integers(min_value=1, max_value=2000),
        p0=st.integers(min_value=-60, max_value=60),
        q0=st.integers(min_value=-60, max_value=60),
        x=st.integers(min_value=1, max_value=40),
        y=st.integers(min_value=1, max_value=40),
        m=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=300)
    def test_root_sets_match_box_oracle(self, big_n, p0, q0, x, y, m):
        prob = BivariateProblem(N=big_n, P0=p0, Q0=q0, X=x, Y=y, m=m)
        expected = box_oracle(prob)
        try:
            full = [(s.x0, s.y0, s.p, s.q) for s in solve_bivariate(prob)]
        except NoRoot:
            full = []
        assert full == expected

    @given(
        p=st.integers(min_value=1, max_value=2**32),
        q=st.integers(min_value=1, max_value=2**32),
        off=st.integers(min_value=-8, max_value=8),
        m=st.integers(min_value=1, max_value=2**19),
        dp=st.integers(min_value=-(2**40), max_value=2**40),
        dq=st.integers(min_value=-(2**40), max_value=2**40),
        x=st.integers(min_value=1, max_value=2**40),
        y=st.integers(min_value=1, max_value=2**40),
    )
    @example(p=1, q=12, off=0, m=1, dp=3, dq=13, x=5, y=3)  # columns left, no q
    @settings(max_examples=1000)
    def test_narrowing_matches_the_loop(self, p, q, off, m, dp, dq, x, y):
        # boxes around a factor pair of N = p*q + off, up to 2^64, or far from it
        prob = BivariateProblem(
            N=max(1, p * q + off), P0=p + dp, Q0=q + dq, X=x, Y=y, m=m
        )
        assert _narrow(prob) == reference_narrow(prob)


class TestUnivariateSplitter:
    """The splitter's dim-3 Howgrave-Graham lattice: exact root sets on
    structured boxes, and a certificate that leaves no column scan on real
    LSB instances."""

    @given(
        p=st.integers(min_value=2, max_value=5000),
        q=st.integers(min_value=2, max_value=5000),
        cofactor=st.sampled_from([1, 1, 2, 3, 6]),
        shape=st.sampled_from(["lsb", "residue"]),
        k=st.integers(min_value=1, max_value=6),
        modulus=st.integers(min_value=2, max_value=40),
        shift=st.integers(min_value=-3, max_value=3),
        slack=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=300)
    def test_root_sets_match_box_oracle(
        self, p, q, cofactor, shape, k, modulus, shift, slack
    ):
        p, q = next_prime(p), next_prime(q)
        big_n = p * q * cofactor  # cofactor 2, 3, 6 shares factors with many moduli
        m = 1 << k if shape == "lsb" else modulus
        p0 = p % m + shift * m
        prob = BivariateProblem(
            N=big_n,
            P0=p0,
            Q0=q % m,
            X=abs(p - p0) // m + slack + 1,
            Y=q // m + slack + 1,
            m=m,
        )
        expected = box_oracle(prob)
        try:
            got = [(s.x0, s.y0, s.p, s.q) for s in solve_bivariate(prob)]
        except NoRoot:
            got = []
        assert got == expected

    @given(
        p=st.integers(min_value=2, max_value=5000),
        q=st.integers(min_value=2, max_value=5000),
        m=st.integers(min_value=3, max_value=40),
        shift_c=st.integers(min_value=-2, max_value=2),
        shift_d=st.integers(min_value=-2, max_value=2),
        wrong=st.integers(min_value=0, max_value=2),
        slack=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=200)
    def test_mirrored_residues_mirror_the_roots(
        self, p, q, m, shift_c, shift_d, wrong, slack
    ):
        # X = Y and one modulus m: (d, c) has the roots (y, x) of (c, d),
        # which lets theorem4_pairs yield each unordered pair once
        p, q = next_prime(p), next_prime(q)
        c, d = p % m + shift_c * m + wrong, q % m + shift_d * m
        box = max(abs(p - c), abs(q - d)) // m + slack + 1

        def roots(p0, q0):
            prob = BivariateProblem(N=p * q, P0=p0, Q0=q0, X=box, Y=box, m=m)
            try:
                return [(s.x0, s.y0, s.p, s.q) for s in solve_bivariate(prob)]
            except NoRoot:
                return []

        mirrored = sorted((y, x, q0, p0) for x, y, p0, q0 in roots(c, d))
        assert mirrored == roots(d, c)

    def test_lsb_instances_need_no_column_scan(self):
        # An attempt that misses is retried at the certified half-width,
        # which cannot miss; a retry that still missed would fall back to a
        # column scan.
        rng = random.Random(5664)
        boxes = 0
        for bits in [56, 57, 58, 59, 60, 61, 62, 63, 64] * 2:
            n, p, q = balanced_semiprime(rng, bits)
            k = n.bit_length() // 4
            stats = {}
            sols = solve_lsb_known(n, p % (1 << k), k, stats)
            assert any(s.p in (p, q) for s in sols)
            assert stats.get("column_scans", 0) == 0, (n, stats)
            assert stats["lattice_dim"] == 3
            boxes += stats["boxes"]
        # Covering each polynomial's triangle-bound reach took 290 attempts
        # on these 18 instances; covering every column where |g| < p
        # exactly must save at least a quarter of those (177 when written).
        assert boxes <= 290 * 3 // 4, boxes


class TestWarmStartedSplitter:
    """36-48-bit boxes several attempts wide: every attempt after the first
    of a walk reduces the previous reduced basis, shifted, and the root set
    stays the box scan's."""

    @staticmethod
    def _box(case: str, bits: int, width: int, rng: random.Random) -> BivariateProblem:
        """A box about 2^width columns wide on each side of its roots."""
        if case == "lsb":
            n, p, q = balanced_semiprime(rng, bits)
            mod = 1 << (bits // 2 - width)
            x0 = p % mod
            return BivariateProblem(
                N=n, P0=x0, Q0=n * pow(x0, -1, mod) % mod,
                X=isqrt(n) // mod + 1, Y=2 * isqrt(n) // mod + 1, m=mod,
            )
        if case == "residue":
            n, p, q = balanced_semiprime(rng, bits)
            m = next_prime(rng.randrange(1 << (bits // 2 - width - 1), 1 << (bits // 2 - width)))
            box = 3 * isqrt(n) // (2 * m) + 2
            return BivariateProblem(N=n, P0=p % m, Q0=q % m, X=box, Y=box, m=m)
        if case == "shared":
            # N = f*p*q and f | m: m is not invertible mod N (lead = m).
            # Every p in the box is above p/2; at 36-37 bits that is not
            # always certified, so draw again until it is.
            f = rng.choice([3, 5])
            m = f * rng.randrange(1, 5)
            n, p, q = balanced_semiprime(rng, bits)
            while _howgrave_halfwidth(f * n, m, p // 2) == 0:
                n, p, q = balanced_semiprime(rng, bits)
            box = min(1 << width, p // (4 * m))
            p0 = p - m * rng.randrange(box)
            return BivariateProblem(
                N=f * n, P0=p0, Q0=f * q % m, X=box, Y=2 * f * q // m, m=m
            )
        if case == "wrap":
            # N = f*p*q with f | m (lead = m), and the box runs from p ~ N/8
            # up to p = N, the root (N, 1) at x = X.  There the fresh
            # a = N mod N is 0, while a basis shifted from an earlier centre
            # carries a + m*s = N.  With m invertible, f(t) = t + xc - X is
            # in every lattice and reaches across the whole box at once; with
            # lead = m its norm is about the box's p range, so the walk
            # climbs from N/8 in several attempts before it covers the root.
            f = rng.choice([3, 5])
            n, p, q = balanced_semiprime(rng, bits)
            n *= f
            k = rng.randrange(1 << width, 2 << width)
            m = f * ((n - n // 8) // (2 * k * f))
            return BivariateProblem(N=n, P0=n - m * k, Q0=1, X=k, Y=1, m=m)
        if case == "negative":
            # every p in the box is negative, so no column is searched
            n, p, q = balanced_semiprime(rng, bits)
            m = 1 << (bits // 2 - width - 3)
            box = min(1 << width, p // (4 * m))
            p0 = p - m * rng.randrange(box)
            return BivariateProblem(
                N=n, P0=-p0, Q0=-(q % m), X=box, Y=4 * q // m, m=m
            )
        if case == "t4":
            # the box of one divisor pair of the lifts of N mod m, the true
            # pair or not, as theorem4_driver searches it
            p, q, m = t4_semiprime(rng, bits, 8)
            pair = rng.choice(theorem4_pairs(p * q, m))
            box = 3 * isqrt(p * q) // (2 * m) + 2
            return BivariateProblem(
                N=p * q, P0=pair.c, Q0=pair.d, X=box, Y=box, m=m
            )
        # straddle: m | p + q puts the roots p and -q on either side of p = 0,
        # and only p is searched for
        m = rng.randrange(1 << (bits // 2 - width - 1), 1 << (bits // 2 - width))
        p = random_prime(rng, bits // 2)
        q = p
        while q == p or not is_prime(q):
            q = (-p) % m + m * rng.randrange(1 << (width - 1), 1 << width)
        box = max(p, q) // m + 2
        return BivariateProblem(N=p * q, P0=p % m, Q0=q % m, X=box, Y=4 * box, m=m)

    @given(
        case=st.sampled_from(
            ["lsb", "residue", "shared", "wrap", "negative", "straddle", "t4"]
        ),
        bits=st.integers(min_value=36, max_value=48),
        width=st.integers(min_value=13, max_value=15),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=70, deadline=None)
    def test_root_sets_match_box_oracle(self, case, bits, width, seed):
        # every box is walked: a residue box may have few enough co-factor
        # sums to be scanned instead (TestSumScan covers that path)
        prob = self._box(case, bits, width, random.Random(seed))
        stats = {}
        with mock.patch.object(coppersmith, "_SUMS_PER_STEP", 0):
            try:
                got = [(s.x0, s.y0, s.p, s.q) for s in solve_bivariate(prob, stats)]
            except NoRoot:
                got = []
        assert got == box_oracle(prob)
        assert stats["certified"] == certified_regime(prob)
        assert stats.get("column_scans", 0) == 0, stats
        if case == "negative":  # no column has p > 0: nothing is searched
            assert got == [] and stats.get("boxes", 0) == 0
        elif case != "t4":
            assert stats["boxes"] >= 3, stats

    @given(
        case=st.sampled_from(["negative", "straddle", "t4"]),
        bits=st.integers(min_value=36, max_value=48),
        width=st.integers(min_value=13, max_value=15),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_positive_keeps_the_roots_with_p_above_zero(
        self, case, bits, width, seed
    ):
        prob = self._box(case, bits, width, random.Random(seed))
        # every root of the box, on both sides of p = 0
        whole = []
        for x in range(-prob.X, prob.X + 1):
            p = prob.m * x + prob.P0
            if p == 0 or prob.N % p or (prob.N // p - prob.Q0) % prob.m:
                continue
            y = (prob.N // p - prob.Q0) // prob.m
            if abs(y) <= prob.Y:
                whole.append((x, y, p, prob.N // p))
        expected = [root for root in whole if root[2] > 0]
        try:
            got = [(s.x0, s.y0, s.p, s.q) for s in solve_bivariate(prob)]
        except NoRoot:
            got = []
        assert got == expected
        if case == "negative":  # every root of the box has p < 0
            assert got == []
        if case == "straddle":  # -q is a root on the p < 0 side
            assert expected and expected != whole

    @given(
        case=st.sampled_from(["lsb", "residue", "shared", "wrap", "straddle", "t4"]),
        bits=st.integers(min_value=36, max_value=48),
        width=st.integers(min_value=13, max_value=15),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_first_returns_a_prefix_with_the_least_proper_root(
        self, case, bits, width, seed
    ):
        # with `first` the walk stops at the attempt that records a root with
        # 1 < p < N: the result is a prefix of the box scan that holds its
        # least such root, or the whole scan when there is none
        prob = self._box(case, bits, width, random.Random(seed))
        want = box_oracle(prob)
        stats, full_stats = {}, {}
        try:
            got = [(s.x0, s.y0, s.p, s.q) for s in solve_bivariate(prob, stats, first=True)]
        except NoRoot:
            got = []
        proper = [root for root in want if 1 < root[2] < prob.N]
        if proper:
            assert got == want[: len(got)] and proper[0] in got
        else:
            assert got == want
        try:
            solve_bivariate(prob, full_stats)
        except NoRoot:
            pass
        assert stats.get("boxes", 0) <= full_stats.get("boxes", 0)
        assert stats["certified"] == full_stats["certified"]

    def test_an_interval_with_no_certified_width_is_scanned(self):
        # N = 5*p*q and m = 20 (lead = m): the box's smallest p, 105 207,
        # is below the 2.45 * N^(1/3) * m^(2/3) that a certified width
        # needs, so the interval is scanned with no lattice attempt
        prob = BivariateProblem(
            N=213326154155, P0=146167, Q0=5, X=2048, Y=118286, m=20
        )
        stats = {}
        got = [(s.x0, s.y0, s.p, s.q) for s in solve_bivariate(prob, stats)]
        assert got == box_oracle(prob)
        assert stats.get("boxes", 0) == 0 and stats["column_scans"] == 1

    def test_first_returns_a_scanned_interval_whole(self):
        # a tiny N often has no certified width, so the interval is one
        # scanned span and `first` stops only after it: every root of the
        # box, and the same stats as the full walk, even past the first
        # proper root
        def solve(prob, stats, first):
            try:
                return [(s.x0, s.y0, s.p, s.q) for s in solve_bivariate(prob, stats, first=first)]
            except NoRoot:
                return []

        scanned = past_proper = 0
        for big_n in range(2, 200):
            for m in (2, 3, 4, 7):
                bound = 3 * isqrt(big_n) // (2 * m) + 2
                for c in range(1, m):
                    for d in range(1, m):
                        if (c * d - big_n) % m:
                            continue
                        prob = BivariateProblem(
                            N=big_n, P0=c, Q0=d, X=bound, Y=bound, m=m
                        )
                        stats, full_stats = {}, {}
                        want = solve(prob, full_stats, False)
                        if "boxes" in full_stats:  # a lattice attempt covered some
                            continue
                        got = solve(prob, stats, True)
                        assert got == want == box_oracle(prob) and stats == full_stats
                        scanned += "column_scans" in stats
                        proper = [i for i, r in enumerate(got) if 1 < r[2] < big_n]
                        past_proper += bool(proper) and proper[0] < len(got) - 1
        assert scanned > 1000 and past_proper > 100, (scanned, past_proper)

    @given(
        primes=st.lists(
            st.sampled_from([2, 3, 5, 7, 11, 13, 101, 1009, 10007, 100003]),
            min_size=1, max_size=12,
        ),
        m=st.integers(min_value=1, max_value=60),
        pick=st.integers(min_value=0, max_value=2**32 - 1),
        x=st.integers(min_value=1, max_value=1 << 12),
    )
    # lattice walks of 21 and 4 lists; boxes with no certified width, each
    # scanned whole as one list holding p = 1 and several proper roots
    @example(primes=[2, 2, 3, 7, 13, 13, 101], m=1, pick=642606812, x=2961)
    @example(primes=[2, 5, 5, 7, 11, 13, 101, 10007], m=3, pick=1460958650, x=1)
    @example(primes=[2, 3, 11, 10007], m=1, pick=1719704081, x=596)
    @example(primes=[2, 5, 7, 11, 13], m=6, pick=3844534363, x=1)
    @settings(max_examples=150, deadline=None)
    def test_walk_yields_the_roots_in_disjoint_ascending_lists(self, primes, m, pick, x):
        # the walk yields a non-empty list for each attempt or scanned span
        # that records roots; joined they are the box scan.  Only the last
        # list can hold p = 1 or p = N, and with `first` solve_bivariate
        # returns the first list.  N is the product of the drawn primes, as
        # many as stay below 2^64 (m = 1) or 2^20, and p one of its
        # divisors: m = 1 draws a hint box of half-width x holding p, any
        # other m the residue box of p's pair as theorem4 builds it, where
        # many intervals have no certified width and are scanned whole.
        big_n, limit = 1, 1 << (64 if m == 1 else 20)
        for f in sorted(primes):
            if big_n * f < limit:
                big_n *= f
        divisors = {1}
        for f in primes:
            divisors |= {d * f for d in divisors if big_n % (d * f) == 0}
        p = sorted(divisors)[pick % len(divisors)]
        if m == 1:
            p0 = max(1, p + pick % (2 * x + 1) - x)
            prob = BivariateProblem(N=big_n, P0=p0, Q0=big_n // p0, X=x, Y=big_n)
        else:
            box = 3 * isqrt(big_n) // (2 * m) + 2
            prob = BivariateProblem(
                N=big_n, P0=p % m, Q0=big_n // p % m, X=box, Y=box, m=m
            )
        stats, full_stats = {}, {}
        lists = [[(s.x0, s.y0, s.p, s.q) for s in found]
                 for found in coppersmith._walk(prob, stats)]
        joined = [root for found in lists for root in found]
        assert all(lists)
        assert [r[0] for r in joined] == sorted({r[0] for r in joined})

        def solve(stats, first):
            try:
                return [(s.x0, s.y0, s.p, s.q) for s in solve_bivariate(prob, stats, first=first)]
            except NoRoot:
                return []

        assert joined == solve(full_stats, False) == box_oracle(prob)
        assert full_stats == {**stats, "certified": certified_regime(prob)}
        assert all(1 < r[2] < big_n for found in lists[:-1] for r in found)
        assert solve({}, True) == (lists[0] if lists else [])

    def _retried_walks(self, monkeypatch, retry_misses: bool) -> tuple[int, int]:
        """Solve twelve boxes with every other walk attempt reported as a
        miss: it still reduces (the retry warm-starts from its basis) but
        records nothing.  With `retry_misses`, the retry after each forced
        miss is reported as a miss too.  Checks the root sets against the
        box scan, that each miss is followed by an attempt from the same
        column no wider than the certified half-width there, that exactly
        the spans of the missed retries are scanned, and that the hits and
        column scans of each walk cover its interval without a gap or an
        overlap; returns the forced misses and the column scans."""
        attempt, scan = coppersmith._univariate_interval, coppersmith._scan_columns
        walks, walked, misses, missed_spans, scanned_spans = [], [], [], [], []
        retry = []  # the column a missed attempt must be retried from

        def counted(prob, lead, inv, s, half, end, roots, stats, warm):
            if not warm:  # the first attempt of a walk: s and end span it
                plo = prob.m * s + prob.P0
                h_c = _howgrave_halfwidth(prob.N, lead, plo)
                walks.append(((s, end), [], h_c, plo))
            _, covered, h_c, plo = walks[-1]
            if retry:
                assert s == retry.pop()  # from the missed attempt's column
                assert half <= h_c * (prob.m * s + prob.P0) // plo  # certified
                if retry_misses:
                    attempt(prob, lead, inv, s, half, end, [], stats, warm)
                    missed_spans.append((s, min(s + 2 * half, end)))
                    return None
            else:
                walked.append(s)
                if len(walked) % 2 == 0:
                    attempt(prob, lead, inv, s, half, end, [], stats, warm)
                    misses.append(s)
                    retry.append(s)
                    return None
            reached = attempt(prob, lead, inv, s, half, end, roots, stats, warm)
            if reached is None:
                retry.append(s)
            else:
                covered.append((s, reached))
            return reached

        def scanned(prob, xlo, xhi, roots, stats):
            walks[-1][1].append((xlo, xhi))
            scanned_spans.append((xlo, xhi))
            scan(prob, xlo, xhi, roots, stats)

        monkeypatch.setattr(coppersmith, "_univariate_interval", counted)
        monkeypatch.setattr(coppersmith, "_scan_columns", scanned)
        rng, scans = random.Random(2718), 0
        for case in ("lsb", "residue", "shared", "straddle"):
            for bits in (40, 44, 48):
                prob = self._box(case, bits, 10, rng)
                stats = {}
                try:
                    got = [(s.x0, s.y0, s.p, s.q) for s in solve_bivariate(prob, stats)]
                except NoRoot:
                    got = []
                assert got == box_oracle(prob)
                assert retry == []
                scans += stats.get("column_scans", 0)
        assert scanned_spans == missed_spans
        for (lo, hi), covered, _, _ in walks:
            covered.sort()
            assert covered[0][0] == lo and covered[-1][1] == hi
            assert all(a[1] + 1 == b[0] for a, b in zip(covered, covered[1:]))
        return len(misses), scans

    def test_a_miss_is_retried_at_the_certified_width(self, monkeypatch):
        # Attempts rarely miss, so misses are forced.  The retry lies within
        # the certified width, so it covers its first column, the walk goes
        # on from wherever it reaches, and no column is scanned.
        misses, scans = self._retried_walks(monkeypatch, retry_misses=False)
        assert misses >= 10 and scans == 0, (misses, scans)

    def test_a_missed_retry_has_its_span_scanned(self, monkeypatch):
        # The certificate says a retry cannot miss; if one did, the columns
        # it was centred on are scanned, not skipped, and the walk goes on
        # past them.
        misses, scans = self._retried_walks(monkeypatch, retry_misses=True)
        assert misses >= 10 and scans == misses, (misses, scans)

    @given(
        bits=st.integers(min_value=28, max_value=44),
        over=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # a miss where some reduced polynomial is below p one column past s
    @example(bits=28, over=16, seed=84)
    @settings(max_examples=300)
    def test_an_attempt_claims_only_what_its_polynomial_reaches(
        self, bits, over, seed
    ):
        # One attempt near a root, up to `over` certified widths wide, so
        # that some fall short: a hit records exactly the roots from s to
        # the column it returns, and some reduced polynomial g has
        # |g(x - xc)| < p(x) at every one of them, so that g vanishes at
        # each root there.  Y = N keeps every co-factor's column in the box.
        rng = random.Random(seed)
        n, p, q = balanced_semiprime(rng, bits)
        mod = 1 << (bits // 4)
        x0 = (p - p % mod) // mod
        prob = BivariateProblem(
            N=n, P0=p % mod, Q0=q % mod, X=1, Y=n, m=mod
        )
        h_c = _howgrave_halfwidth(n, 1, p // 2)
        half = rng.randrange(over * h_c + 1)
        s = x0 - rng.randrange(2 * half + 1)
        end = s + 2 * half + rng.randrange(4 * h_c + 1)
        assume(mod * s + p % mod >= p // 2)
        roots, warm = [], []
        reached = _univariate_interval(
            prob, 1, pow(mod, -1, n), s, half, end, roots, {}, warm
        )
        if reached is None:
            assert roots == []
            return
        assert s <= reached <= end
        xc, polys = warm
        columns = range(s, reached + 1)
        assert any(
            all(
                abs(g0 + (g1 + g2 * (x - xc)) * (x - xc)) < mod * x + prob.P0
                for x in columns
            )
            for g0, g1, g2 in polys
        )
        expected = []
        for x in columns:
            d = mod * x + prob.P0
            if d and n % d == 0 and (n // d - prob.Q0) % mod == 0:
                expected.append((x, (n // d - prob.Q0) // mod, d, n // d))
        assert [(r.x0, r.y0, r.p, r.q) for r in roots] == expected

    def test_shift_spans_the_fresh_lattice(self, rng):
        # lead = 1: the attempt's basis shifted by s and reduced has the fresh
        # determinant N and vanishes mod N at t = -a_new, so it spans
        # exactly the lattice of N, f and t*f at the new centre.
        n, p, q = balanced_semiprime(rng, 48)
        m = 1 << 11
        prob = BivariateProblem(N=n, P0=p % m, Q0=q % m, X=1, Y=1, m=m)
        inv = pow(m, -1, n)
        for s in (1, 37, 201, -90, 5000):
            warm = []
            _univariate_interval(prob, 1, inv, 100, 40, 180, [], {}, warm)
            _univariate_interval(prob, 1, inv, 100 + s, 40, 180 + s, [], {}, warm)
            centre, polys = warm
            assert centre == 140 + s
            a_new = (m * centre + prob.P0) * inv % n
            fresh = [(n, 0, 0), (a_new, 1, 0), (0, a_new, 1)]
            assert determinant(Basis.from_rows(polys)) == determinant(
                Basis.from_rows(fresh)
            )
            for g0, g1, g2 in polys:
                assert (g0 - g1 * a_new + g2 * a_new * a_new) % n == 0


class TestSumScan:
    """Residue boxes with few co-factor sums z = d*p + c*q per certified
    step, which the splitter scans by those sums instead of walking: the
    box scan's roots, in full and under `first`."""

    @staticmethod
    def _prime(rng: random.Random, res: int, m: int, lo: int, hi: int) -> int | None:
        """A prime p = res (mod m) with lo < p <= hi roughly, or None."""
        for _ in range(200):
            p = m * rng.randrange(lo // m + 1, hi // m + 1) + res
            if is_prime(p):
                return p
        return None

    @classmethod
    def _box(cls, case: str, rng: random.Random) -> BivariateProblem | None:
        """A box of the case's shape, which the selection may or may not
        scan, or None when the draw failed."""
        if case == "shared":
            # N = f*p*q with f | m and f | P0: m is not invertible mod N,
            # and m is small enough for a certified width
            bits, f = rng.randrange(32, 49), rng.choice([2, 3])
            m1 = rng.randrange(1 << (bits // 4 - 6), 1 << (bits // 4 - 5))
            k, d = rng.randrange(1, 4), rng.randrange(1, 8)
            if gcd(k, m1) > 1 or gcd(d, f * m1) > 1:
                return None
            p = cls._prime(rng, k, m1, 1 << (bits // 2 - 1), 1 << (bits // 2))
            q = cls._prime(rng, d, f * m1, 1 << (bits // 2 - 1), 1 << (bits // 2))
            if p is None or q is None:
                return None
            n, m, pair = f * p * q, f * m1, (f * k, d)
        else:
            # theorem4's shape, m about N^(1/4) and residues below 8.  A
            # second-lift pair (1, r + m) has about (2*h_c + 1)*d/m >= 3
            # sums per step, few enough only where h_c = 1: at 14-19 bits
            bits = rng.randrange(14, 20) if case == "second-lift" else rng.randrange(20, 49)
            m = rng.randrange(1 << (bits // 4 - 1), 1 << (bits // 4 + 1))
            c = 1 if case == "second-lift" else rng.randrange(1, 8)
            d = c if case in ("square", "ends") else rng.randrange(1, 8)
            if gcd(c * d, m) > 1 or c * d >= 2 * m:
                return None
            lo, hi = 1 << (bits // 2 - 1), 1 << (bits // 2)
            p = cls._prime(rng, c, m, lo, hi)
            q = p if case == "square" or p is None else cls._prime(rng, d, m, p, 2 * p)
            if q is None or (case == "ends" and q == p):
                return None
            n = p * q
            if case == "ends":  # the roots p and q are the interval's ends
                x = (q - c) // m
                return BivariateProblem(N=n, P0=c, Q0=c, X=x, Y=x, m=m)
            pairs = [(pr.c, pr.d) for pr in theorem4_pairs(n, m)]
            if case == "second-lift":
                pairs = [pr for pr in pairs if pr[1] >= m]
            if case == "square":
                pairs = [(c, c)] if (c, c) in pairs else []
            if not pairs:
                return None
            pair = rng.choice(pairs)
        bound = 3 * isqrt(n) // (2 * m) + 2
        return BivariateProblem(N=n, P0=pair[0], Q0=pair[1], X=bound, Y=bound, m=m)

    @given(
        case=st.sampled_from(["t4", "second-lift", "shared", "square", "ends"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_root_sets_match_box_oracle(self, case, seed):
        def solve(prob, stats, first):
            try:
                return [(s.x0, s.y0, s.p, s.q) for s in solve_bivariate(prob, stats, first=first)]
            except NoRoot:
                return []

        rng = random.Random(seed)
        for _ in range(100):  # draw until the selection scans the box
            prob, stats = self._box(case, rng), {}
            if prob is not None:
                got = solve(prob, stats, False)
                if "sum_positions" in stats:
                    break
        else:
            pytest.fail(f"no {case} box was scanned")
        assert "boxes" not in stats and "column_scans" not in stats, stats
        assert "lattice_dim" not in stats
        want = box_oracle(prob)
        first_stats = {}
        assert got == want
        assert solve(prob, first_stats, True) == want and first_stats == stats
        n, m, c, d = prob.N, prob.m, prob.P0, prob.Q0
        if case == "t4":
            assert c * d < 2 * m and (n - c * d) % m == 0
        if case == "second-lift":
            assert d >= m and c * d == n % m + m
        if case == "shared":
            assert gcd(m, n) > 1
        if case == "square":  # s = 0 at p = q: one root, not two
            assert [r[2] for r in got].count(isqrt(n)) == 1
        if case == "ends":
            assert [r[0] for r in (got[0], got[-1])] == list(_narrow(prob))

    def test_counts_on_the_perfbench_prefixes(self):
        # theorem4's boxes on the first 100 seed-1 residue-t4 instances are
        # all scanned by their sums, and hint-lsb's first 300 all walked,
        # with the lattice attempts they made before the scan existed
        workloads = perfbench_workloads()
        t4, lsb = {}, {}
        instances = workloads.Instances("residue-t4", 1)
        for i in range(100):
            theorem4_driver(instances[i].n, instances[i].fields["mod"], t4)
        instances = workloads.Instances("hint-lsb", 1)
        for i in range(300):
            f = instances[i].fields
            solve_lsb_known(instances[i].n, f["lsb_value"], f["lsb_bits"], lsb)
        assert (t4["sum_positions"], t4.get("boxes", 0)) == (4196, 0)
        assert (lsb.get("sum_positions", 0), lsb["boxes"]) == (0, 2966)


class TestReach:
    """How far a reduced polynomial vouches for its columns."""

    @given(
        a=st.integers(min_value=-8, max_value=8),
        b=st.integers(min_value=-80, max_value=80),
        at_lo=st.integers(min_value=1, max_value=600),
        lo=st.integers(min_value=-40, max_value=40),
        width=st.integers(min_value=1, max_value=80),
    )
    @example(a=0, b=-7, at_lo=21, lo=0, width=10)  # a line: fails from 3 on
    @example(a=0, b=-7, at_lo=22, lo=0, width=10)  # a line: 22 - 7u <= 0 from 4
    @example(a=0, b=3, at_lo=1, lo=-5, width=10)  # a rising line never fails
    @example(a=1, b=-2, at_lo=12, lo=5, width=20)  # convex, roots -1, 3 behind lo
    @example(a=1, b=0, at_lo=105, lo=-10, width=30)  # convex, negative discriminant
    @example(a=8, b=-8, at_lo=97, lo=-3, width=10)  # convex, roots in (0, 1)
    @example(a=1, b=0, at_lo=2, lo=-2, width=10)  # u^2 - 2: isqrt's guess is 0, not -1
    @example(a=1, b=-10, at_lo=25, lo=0, width=20)  # convex, a double root at 5
    @example(a=1, b=-12, at_lo=35, lo=0, width=20)  # convex, roots 5 and 7
    @example(a=-1, b=0, at_lo=16, lo=0, width=20)  # concave, equality at u = 4
    @example(a=-1, b=0, at_lo=17, lo=0, width=20)  # concave, fails from 5
    @example(a=-1, b=-1, at_lo=1, lo=0, width=20)  # concave, positive only at lo
    @example(a=-1, b=0, at_lo=100, lo=-3, width=5)  # concave, the limit first
    @settings(max_examples=500)
    def test_is_the_first_column_where_the_quadratic_fails(
        self, a, b, at_lo, lo, width
    ):
        # brute force over the window [lo, limit); c is chosen so that the
        # quadratic is at_lo > 0 at lo
        c = at_lo - (a * lo + b) * lo
        limit = lo + width

        def value(u):
            return (a * u + b) * u + c

        r = _first_failure(a, b, c, lo, limit)
        assert lo < r <= limit
        assert all(value(u) > 0 for u in range(lo, r))
        assert r == limit or value(r) <= 0

    @pytest.mark.parametrize(
        "a, b, c, lo, limit, first",
        [
            # u^2 <= 2^64 from -2^32 on: equality at the boundary, with
            # isqrt exact and one short
            (1, 0, -(2**64), -(2**32) - 5, 0, -(2**32)),
            (1, 0, 1 - 2**64, -(2**32) - 5, 0, 1 - 2**32),
            # 2^64 - u^2 <= 0 from 2^32 on, and 2^64 + 1 - u^2 from 2^32 + 1
            (-1, 0, 2**64, 0, 2**40, 2**32),
            (-1, 0, 2**64 + 1, 0, 2**40, 2**32 + 1),
            # a steep line: (2^70 - 1) - 2^35 u <= 0 from 2^35 on
            (0, -(2**35), 2**70 - 1, 0, 2**40, 2**35),
        ],
    )
    def test_is_exact_on_wide_coefficients(self, a, b, c, lo, limit, first):
        assert _first_failure(a, b, c, lo, limit) == first
        assert (a * (first - 1) + b) * (first - 1) + c > 0
        assert (a * first + b) * first + c <= 0

    @given(
        big_n=st.integers(min_value=2**20, max_value=2**64),
        lead=st.sampled_from([1, 2, 3, 12]),
        low=st.integers(min_value=2**10, max_value=2**40),
        above=st.integers(min_value=0, max_value=2**40),
    )
    def test_certified_width_scales_with_the_bound(self, big_n, lead, low, above):
        # the walk sizes each attempt as h_c * B / low instead of searching
        # again: that width is certified at B whenever h_c is at low
        h_c = _howgrave_halfwidth(big_n, lead, low)
        bound = low + above
        assert h_c * bound // low <= _howgrave_halfwidth(big_n, lead, bound)


def _sixth_root(n: int) -> int:
    """The largest r with r^6 <= n, by bisection."""
    lo, hi = 0, 1 << (n.bit_length() // 6 + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**6 <= n else (lo, mid)
    return lo


# lead is 1 when m is invertible mod N, else m itself (a power of two for
# solve_lsb_known)
LEADS = st.one_of(st.sampled_from([1, 3]), st.integers(0, 64).map(lambda k: 1 << k))


class TestCertifiedWidth:
    """_howgrave_halfwidth is the h with K*h^6 < bound^6 <= K*(h+1)^6,
    K = 216*N^2*lead^4, exactly, on N far past float range."""

    @staticmethod
    def _width(big_n: int, lead: int, bound: int) -> int:
        h = _howgrave_halfwidth(big_n, lead, bound)
        k = 216 * big_n * big_n * lead**4
        assert h >= 0 and k * h**6 < bound**6 <= k * (h + 1) ** 6
        return h

    @given(big_n=st.integers(1, 2**3000), lead=LEADS, data=st.data())
    @example(big_n=1, lead=1, data=None)
    @example(big_n=2**3000, lead=2**64, data=None)
    def test_is_the_largest_certified_width(self, big_n, lead, data):
        bound = big_n if data is None else data.draw(st.integers(1, big_n))
        self._width(big_n, lead, bound)

    @given(
        big_n=st.integers(1, 2**3000),
        lead=LEADS,
        h=st.one_of(st.integers(0, 3), st.integers(0, 2**80)),
    )
    def test_is_exact_at_the_boundaries(self, big_n, lead, h):
        # b is the least bound with b^6 > K*h^6: b gives h, b - 1 gives h - 1
        k = 216 * big_n * big_n * lead**4
        b = _sixth_root(k * h**6) + 1
        assert self._width(big_n, lead, b) == h
        assert self._width(big_n, lead, b + 1) >= h
        if h:
            assert self._width(big_n, lead, b - 1) == h - 1


class TestAttemptWork:
    """Each attempt does the work it did with the kernel, row build and
    certified width that conftest keeps as reference_*: the same lll_rows
    inputs and outputs, the same stats and the same results."""

    @staticmethod
    def _t4_prime(rng: random.Random, res: int, m: int) -> int:
        while True:
            p = m * rng.randrange((1 << 23) // m + 1, (1 << 24) // m) + res
            if is_prime(p):
                return p

    def _instances(self):
        """solve_lsb_known and theorem4_driver on perfbench's shapes, and
        boxes where m shares a factor with N, the only attempts with lead
        = m."""
        rng = random.Random(2626)
        lsb = []
        for i in range(150):
            n, p, _ = balanced_semiprime(rng, 56 + i % 9)
            k = n.bit_length() // 4
            lsb.append((n, p % (1 << k), k))
        t4 = []
        while len(t4) < 150:
            m = rng.randrange(1 << 11, 1 << 12)
            c, d = rng.randrange(1, 8), rng.randrange(1, 8)
            if gcd(c * d, m) == 1:
                p, q = self._t4_prime(rng, c, m), self._t4_prime(rng, d, m)
                if p != q and (p * q).bit_length() == 48:
                    t4.append((p * q, m))
        shared = [
            (TestWarmStartedSplitter._box("shared", 40 + i % 9, 13, rng),)
            for i in range(30)
        ]
        return lsb, t4, shared

    @staticmethod
    def _work(monkeypatch, lsb, t4, shared, reference: bool):
        calls, results = [], []
        reduce = coppersmith.lll_rows

        def recording(rows):
            given = [list(r) for r in rows]
            reduced, _ = reduce(rows)
            calls.append((given, [list(r) for r in reduced]))
            return reduced, None

        with monkeypatch.context() as patch:
            patch.setattr(coppersmith, "lll_rows", recording)
            # theorem4's boxes are walked, not scanned by their co-factor sums
            patch.setattr(coppersmith, "_SUMS_PER_STEP", 0)
            if reference:
                patch.setattr(lattice, "_lll3", reference_lll3)
                patch.setattr(coppersmith, "_univariate_interval", reference_univariate_interval)
                patch.setattr(coppersmith, "_howgrave_halfwidth", reference_howgrave_halfwidth)
            for solve, args in (
                [(solve_lsb_known, a) for a in lsb]
                + [(theorem4_driver, a) for a in t4]
                + [(solve_bivariate, a) for a in shared]
            ):
                stats = {}
                results.append((outcome(solve, *args, stats), stats))
        return calls, results

    def test_same_lattices_stats_and_results(self, monkeypatch):
        sets = self._instances()
        calls, results = self._work(monkeypatch, *sets, reference=False)
        assert (calls, results) == self._work(monkeypatch, *sets, reference=True)
        # every instance factors, over thousands of fresh and warm attempts
        assert len(calls) > 2000
        assert all(isinstance(r, list) for r, _ in results[:150])
        assert all(isinstance(r, Split) for r, _ in results[150:300])
        assert all(isinstance(r, list) for r, _ in results[300:])


class TestQuadRoots:
    def test_roots_by_degree(self):
        assert _quad_roots(1, 0, -4, -5, 5) == [-2, 2]
        assert _quad_roots(1, 0, -4, 0, 5) == [2]
        assert _quad_roots(0, 2, -6, -5, 5) == [3]
        assert _quad_roots(0, 2, -5, -5, 5) == []
        # a nonzero constant has no root, and u1 = 0 is never divided by
        assert _quad_roots(0, 0, 7, -5, 5) == []


class TestLsbKnown:
    def test_worked_example_2599(self):
        # p = 23: low 4 bits are 7; the cofactor's low bits follow as
        # 2599 * 7^(-1) = 1 = 113 mod 16
        assert 2599 * pow(7, -1, 16) % 16 == 1 == 113 % 16
        sols = solve_lsb_known(2599, 7, 4)
        assert any(s.p == 23 and s.q == 113 for s in sols)

    def test_even_residue_rejected(self):
        with pytest.raises(ValueError, match=r"6 is even, not invertible mod 2\^4"):
            solve_lsb_known(2599, 6, 4)
        with pytest.raises(ValueError):
            solve_lsb_known(2598, 7, 4)
        with pytest.raises(ValueError):
            solve_lsb_known(2599, 7, 0)
        for n in (-2599, 1, -1):
            with pytest.raises(ValueError, match="N must be >= 2"):
                solve_lsb_known(n, 7, 4)

    def test_degenerate_large_modulus(self):
        # 2^k beyond q: the box shrinks to |x|, |y| <= 1
        sols = solve_lsb_known(2599, 23, 9)
        assert roots_of(sols) == [(0, 0)] and sols[0].p == 23
        with pytest.raises(NoRoot):
            solve_lsb_known(2599, 21, 9)
        # 57 = 3 * 19 and 19 = 3 (mod 16): the box holds both orders
        sols = solve_lsb_known(57, 3, 4)
        assert [(s.x0, s.y0, s.p, s.q) for s in sols] == [(0, 1, 3, 19), (1, 0, 19, 3)]

    @pytest.mark.parametrize("n, hint", [(3233, 61), (3233, -61), (57, 3), (15, 1)])
    def test_huge_k_is_the_capped_k(self, n, hint):
        # 2^(2^63) cannot be built; every k past both bit lengths searches
        # the box X = Y = 1, so the cap and an unclamped k = 200 agree
        cap = max(n.bit_length(), hint.bit_length()) + 1

        def solve(call):
            stats = {}
            try:
                roots = [(s.x0, s.y0, s.p, s.q) for s in call(stats)]
            except NoRoot:
                roots = None
            return roots, stats

        got = solve(lambda stats: solve_lsb_known(n, hint, 2**63, stats))
        assert got == solve(lambda stats: solve_lsb_known(n, hint, cap, stats))
        assert got == solve(
            lambda stats: solve_bivariate(lsb_problem(n, hint, 200), stats)
        )
        assert (got[0] is None) == (hint < 0)

    @given(
        n=st.integers(min_value=1, max_value=2047).map(lambda h: 2 * h + 1),
        k=st.integers(min_value=1, max_value=13),
        hint=st.integers(min_value=0, max_value=2**12),
    )
    @example(n=57, k=4, hint=1)
    @settings(max_examples=300)
    def test_large_modulus_matches_box_scan(self, n, k, hint):
        assume(4**k > 2 * n)
        x0 = (2 * hint + 1) % (1 << k)
        try:
            got = [(s.x0, s.y0, s.p, s.q) for s in solve_lsb_known(n, x0, k)]
        except NoRoot:
            got = []
        assert got == box_oracle(lsb_problem(n, x0, k))

    @given(
        n=st.integers(min_value=1, max_value=2047).map(lambda h: 2 * h + 1),
        k=st.integers(min_value=1, max_value=12),
        hint=st.integers(min_value=0, max_value=2**11),
    )
    @example(n=5, k=3, hint=1)  # the box's one root is p = -5
    @example(n=15, k=4, hint=1)  # 3 * 5, found by the column scan
    @settings(max_examples=400)
    def test_returns_the_box_roots_with_p_above_zero(self, n, k, hint):
        x0 = 2 * hint + 1
        prob = lsb_problem(n, x0, k)
        stats = {}
        try:
            got = [(s.x0, s.y0, s.p, s.q) for s in solve_lsb_known(n, x0, k, stats)]
        except NoRoot:
            got = []
        assert got == box_oracle(prob)
        assert stats["certified"] == certified_regime(prob)

    def test_recovery_48_bits(self, rng):
        n, p, q = balanced_semiprime(rng, 48)
        k = n.bit_length() // 4
        sols = solve_lsb_known(n, p % (1 << k), k)
        assert any(s.p in (p, q) for s in sols)


class TestMsbKnown:
    def test_perfect_hint(self):
        sols = solve_msb_known(2599, 23)
        assert any((s.x0, s.y0) == (0, 0) and s.p == 23 for s in sols)

    def test_default_box_for_the_drifted_example(self):
        assert (4305481).bit_length() == 23
        assert default_box_bound(4305481) == 64

    def test_drifted_hint(self):
        sols = solve_msb_known(4305481, 2060)
        assert any(s.p == 2063 for s in sols)

    def test_error_beyond_box(self):
        n = 2063 * 2087
        bad_hint = 2063 - 2 * default_box_bound(n)
        with pytest.raises(NoRoot):
            solve_msb_known(n, bad_hint)

    def test_recovery_52_bits(self, rng):
        n, p, q = balanced_semiprime(rng, 52)
        ell = n.bit_length() // 4
        sols = solve_msb_known(n, (p >> ell) << ell)
        assert any(s.p in (p, q) for s in sols)


class TestTrivariate:
    def _construct(self, z0=7, bits=18):
        q = next_prime((1 << bits) + 123)
        p = next_prime((1 << bits) + 7)
        n = p * q
        a = (-q) % z0
        mult = (q + a) // z0
        assert mult * z0 - a == q
        return n, p, q, mult, a

    def test_recovers_z0_by_ascending_search(self):
        n, p, q, mult, a = self._construct(z0=7)
        prob = TrivariateProblem(N=n, P0=p, M=mult, a_max=9, z_max=11, X=8, Y=8)
        sols = solve_trivariate(prob)
        assert sols[0].z0 == 7
        assert any(s.p in (p, q) for s in sols)

    def test_m_z0_minus_a_comes_before_m_z0_plus_a(self):
        # 9701 = 89 * 109 and both factors lie in the x box around 99: the
        # co-factor 89 is first held by Q0 = 99 - 2, and 109 by 99 + 2
        prob = TrivariateProblem(N=9701, P0=99, M=99, a_max=2, z_max=1, X=40, Y=8)
        [sol] = solve_trivariate(prob)
        assert (sol.x0, sol.y0, sol.p, sol.q, sol.z0) == (10, -8, 109, 89, 1)
        assert [sol] == reference_solve_trivariate(prob)

    def test_singleton_reduction_is_bit_exact(self, rng):
        for _ in range(50):
            n, p, q = balanced_semiprime(rng, rng.randrange(30, 44))
            p0 = p + rng.randrange(-3, 4)
            if p0 < 2:
                continue
            bound = 8
            tri = TrivariateProblem(
                N=n, P0=p0, M=q, a_max=0, z_max=1, X=bound, Y=bound
            )
            flat = BivariateProblem(N=n, P0=p0, Q0=q, X=bound, Y=bound)
            try:
                got = [(s.x0, s.y0, s.p, s.q) for s in solve_trivariate(tri)]
            except Exhausted:
                got = None
            try:
                want = [(s.x0, s.y0, s.p, s.q) for s in solve_bivariate(flat)]
            except NoRoot:
                want = None
            assert got == want
            if got:
                assert all(s.z0 == 1 for s in solve_trivariate(tri))

    def test_validation(self):
        with pytest.raises(ValueError):
            TrivariateProblem(N=2599, P0=23, M=0, a_max=0, z_max=2, X=8, Y=8)
        with pytest.raises(ValueError):
            TrivariateProblem(N=0, P0=23, M=7, a_max=0, z_max=2, X=8, Y=8)
        # a bad box is rejected whether or not any candidate exists
        for a_max in (-1, 0):
            with pytest.raises(ValueError):
                TrivariateProblem(N=2599, P0=23, M=7, a_max=a_max, z_max=2, X=0, Y=8)
            with pytest.raises(ValueError):
                TrivariateProblem(N=2599, P0=23, M=7, a_max=a_max, z_max=2, X=8, Y=0)

    def test_excluded_z0_exhausts(self):
        # z0 = 7 lies past z_max = 6; the last two leave no candidate at all
        n, p, q, mult, a = self._construct(z0=7)
        for a_max, z_max in ((9, 6), (9, 0), (-1, 11)):
            prob = TrivariateProblem(N=n, P0=p, M=mult, a_max=a_max, z_max=z_max, X=8, Y=8)
            with pytest.raises(Exhausted):
                solve_trivariate(prob)

    @staticmethod
    def _searched(prob: TrivariateProblem) -> list[tuple[int, int]]:
        """The q window (Q0 - Y, Q0 + Y) of every walk of an exhausted
        search, after checking that those windows hold every co-factor N/p
        of the x box that some candidate box holds."""
        windows, walk = [], coppersmith._walk

        def counting(sub, stats):
            windows.append((sub.Q0 - sub.Y, sub.Q0 + sub.Y))
            return walk(sub, stats)

        with mock.patch.object(coppersmith, "_walk", counting):
            with pytest.raises(Exhausted):
                solve_trivariate(prob)
        reach, m = prob.a_max + prob.Y, prob.M
        for p in range(max(1, prob.P0 - prob.X), min(prob.N, prob.P0 + prob.X) + 1):
            q = prob.N // p
            held = any(
                abs(q - m * z0) <= reach
                for z0 in range(max(1, (q - reach) // m), min(prob.z_max, (q + reach) // m + 1) + 1)
            )
            if held and prob.a_max >= 0:
                assert any(lo <= q <= hi for lo, hi in windows), q
        return windows

    def test_huge_z_max_stops_past_every_cofactor(self):
        # no (z0, a) gives a root of 10807 = 101 * 107 from p0 = 50, mult = 7;
        # the windows 7*z0 -/+ 9 of z0 <= 10^12 overlap, and one walk over
        # those reaching the box's 33 columns finds none
        n, bound = 10807, default_box_bound(10807)
        prob = TrivariateProblem(
            N=n, P0=50, M=7, a_max=9, z_max=10**12, X=bound, Y=bound
        )
        assert len(self._searched(prob)) == 1

    def test_huge_a_max_stops_past_every_cofactor(self):
        # the window of z0 = 1 alone holds every co-factor 1 <= q <= N when
        # a_max = 10^12, and one walk covers it
        n, bound = 10807, default_box_bound(10807)
        prob = TrivariateProblem(
            N=n, P0=50, M=7, a_max=10**12, z_max=3, X=bound, Y=bound
        )
        assert len(self._searched(prob)) == 1

    @pytest.mark.parametrize(
        "n, p0, mult, a_max, z_max, per_q0_calls",
        [
            # per_q0_calls records the solve_bivariate calls of a search that
            # solves each candidate Q0 in 1..N + Y once, in (z0, a) order.
            # Each window 3*z0 -/+ 1000 shares all but its top three Q0 with
            # the one before; z0 <= 1000 holds the Q0 from 1 to 4 000
            (1078649, 7, 3, 1000, 1000, 4000),
            # windows 1000*z0 -/+ 600 overlap by 200 from Q0 = 400 on, and
            # the last one holds only its Q0 from 10 601 to N + Y = 10 823
            (10807, 50, 1000, 600, 10**12, 10424),
            # windows 1000*z0 -/+ 300 leave gaps of 399 between them
            (10807, 50, 1000, 300, 10**12, 6134),
            # a 60-bit N whose window of z0 = 1 alone holds 10^12 + 7 Q0
            (1000000016000000063, 50, 7, 10**12, 3, 10**12 + 21),
        ],
    )
    def test_each_q0_is_solved_once(self, n, p0, mult, a_max, z_max, per_q0_calls):
        # no window reaches a co-factor N/p of the x box, so nothing is
        # walked in place of the per_q0_calls
        bound = default_box_bound(n)
        prob = TrivariateProblem(
            N=n, P0=p0, M=mult, a_max=a_max, z_max=z_max, X=bound, Y=bound
        )
        assert self._searched(prob) == []

    def test_negative_a_max_searches_nothing(self):
        # every window M*z0 -/+ a, 0 <= a <= a_max, is empty, so nothing is
        # solved and the search ends at once, however large N and z_max are
        n = next_prime(10**9) * next_prime(2 * 10**9)
        bound = default_box_bound(n)
        prob = TrivariateProblem(
            N=n, P0=50, M=7, a_max=-1, z_max=10**12, X=bound, Y=bound
        )
        assert self._searched(prob) == []

    @pytest.mark.parametrize(
        "p_bits, q_bits, z0, a_max, z_max, box",
        [
            # p ~ 2^30 < N^(1/3) on a 120-bit N, so no lattice attempt is
            # certified and every column walked is checked by division; the
            # hull of the windows q +- 2^31 and 2q +- 2^31 spans about 2^29
            # columns, the first window a single one
            (30, 89, 1, 0, 2, 2**31),
            # the first window q/2 +- 2^31 holds no root, the second does
            (30, 89, 2, 1, 3, 2**31),
            # one window 2^81 wide whose centre box holds the root
            (30, 89, 1, 2**80, 5, 2**31),
            # a 103-bit N with the default box, root in the third window
            (40, 63, 3, 3, 4, None),
        ],
    )
    def test_walks_the_first_windows_only(self, p_bits, q_bits, z0, a_max, z_max, box):
        # roots in early windows are found without walking the hull of all
        # windows: a handful of columns and lattice attempts, in well under a
        # second, where checking the hull's 2^29 columns would take minutes
        p, q = next_prime(1 << p_bits), next_prime(1 << q_bits)
        bound = box or default_box_bound(p * q)
        prob = TrivariateProblem(
            N=p * q, P0=p + 5, M=-(-q // z0), a_max=a_max, z_max=z_max,
            X=bound, Y=bound,
        )
        checked = []

        def counting(*args):
            checked.append(args[1])
            if len(checked) > 1000:
                raise AssertionError("more than 1000 columns checked")
            return record(*args)

        record, stats = coppersmith._record, {}
        started = time.perf_counter()
        with mock.patch.object(coppersmith, "_record", counting):
            sols = solve_trivariate(prob, stats)
        assert time.perf_counter() - started < 2.0
        assert stats.get("boxes", 0) <= 10
        assert sols == reference_solve_trivariate(prob)
        assert [s.p for s in sols] == [p]

    def test_stats_count_every_walk(self):
        # an exhausted search reports the column scans of its walk and no
        # certified flag, since no box was chosen
        n, bound = 10807, default_box_bound(10807)
        prob = TrivariateProblem(
            N=n, P0=50, M=7, a_max=9, z_max=10**12, X=bound, Y=bound
        )
        stats = {"certified": True}
        with pytest.raises(Exhausted):
            solve_trivariate(prob, stats)
        assert stats == {"column_scans": 1}

    def test_matches_the_loop_that_searches_every_window(self):
        # the first z0 and roots found, or Exhausted, are those of the loop
        # that searches each window's candidates in full, on seeded small
        # inputs: planted co-factors M*z0 -/+ a, random N, and small M whose
        # windows overlap
        rng = random.Random(0x7E1)
        found = 0
        for _ in range(1000):
            kind = rng.randrange(3)
            if kind == 0:
                p = random_prime(rng, rng.randrange(5, 11))
                q = random_prime(rng, rng.randrange(5, 11))
                n, p0 = p * q, max(1, p + rng.randrange(-3, 4))
                z0, a = rng.randrange(1, 10), rng.randrange(10)
                mult = max(1, (q + rng.choice((-a, a))) // z0)
            elif kind == 1:
                n, p0 = rng.randrange(2, 5000), rng.randrange(1, 100)
                mult = rng.randrange(1, 60)
            else:
                p = random_prime(rng, rng.randrange(4, 8))
                q = random_prime(rng, rng.randrange(4, 8))
                n, p0, mult = p * q, max(1, p + rng.randrange(-2, 3)), rng.randrange(1, 6)
            bound = default_box_bound(n)
            prob = TrivariateProblem(
                N=n, P0=p0, M=mult, a_max=rng.randrange(-1, 12),
                z_max=rng.randrange(0, 16), X=bound, Y=bound,
            )
            got = outcome(solve_trivariate, prob)
            assert got == outcome(reference_solve_trivariate, prob), prob
            found += isinstance(got, list)
        assert 300 <= found <= 700, found  # 460 when written
        # planted 16-40-bit inputs: q = M*z0 -/+ a with z0 < 40 and a < 20,
        # p0 anywhere in the default box around p, so the planted root is
        # found when z0 <= z_max and a <= a_max, unless an earlier candidate
        # holds a root
        rng = random.Random(0x7E2)
        found = 0
        for _ in range(200):
            bits = rng.randrange(16, 41)
            p = random_prime(rng, bits // 2)
            q = random_prime(rng, bits - bits // 2)
            z0 = rng.randrange(1, 40)
            a, sign = rng.choice(
                [(a, s) for a in range(20) for s in (-1, 1) if (q + s * a) % z0 == 0]
            )
            bound = default_box_bound(p * q)
            prob = TrivariateProblem(
                N=p * q, P0=max(1, p + rng.randrange(-bound, bound + 1)),
                M=(q + sign * a) // z0, a_max=rng.randrange(20),
                z_max=rng.randrange(1, 40), X=bound, Y=bound,
            )
            got = outcome(solve_trivariate, prob)
            assert got == outcome(reference_solve_trivariate, prob), prob
            found += isinstance(got, list)
        assert 60 <= found <= 140, found  # 114 when written, 2 with two roots


    @pytest.mark.parametrize("gap_columns, walk_gaps", [(1, 1), (3, 4)])
    def test_narrow_walks_give_the_same_result(self, gap_columns, walk_gaps):
        # with walks a few columns wide, windows are walked outwards from
        # M*z0 in several steps, or joined with the next ones; the result is
        # still the loop's, on planted inputs with small, uneven boxes
        rng = random.Random(0x7E3)
        walks = coppersmith._trivariate_walks
        steps = []

        def recording(prob):
            for ranges in walks(prob):
                steps.append(len(ranges))
                yield ranges

        found = 0
        with mock.patch.multiple(
            coppersmith, _GAP_COLUMNS=gap_columns, _WALK_GAPS=walk_gaps,
            _trivariate_walks=recording,
        ):
            for _ in range(300):
                bits = rng.randrange(12, 33)
                p = random_prime(rng, rng.randrange(4, bits // 2 + 1))
                q = random_prime(rng, max(3, bits - p.bit_length()))
                z0, a = rng.randrange(1, 20), rng.randrange(40)
                x, y = rng.randrange(1, 80), rng.randrange(1, 80)
                prob = TrivariateProblem(
                    N=p * q, P0=max(1, p + rng.randrange(-x, x + 1)),
                    M=max(1, (q + rng.choice((-a, a))) // z0),
                    a_max=rng.randrange(60), z_max=rng.randrange(1, 20), X=x, Y=y,
                )
                got = outcome(solve_trivariate, prob)
                assert got == outcome(reference_solve_trivariate, prob), prob
                found += isinstance(got, list)
        # 168 found; 360 and 60 steps outwards when written
        assert 120 <= found <= 220, found
        assert steps.count(2) >= 30, steps.count(2)

    @pytest.mark.parametrize("gap_columns, walk_gaps", [(1, 1), (3, 4), (64, 16)])
    def test_walks_tile_the_held_cofactors_in_key_order(self, gap_columns, walk_gaps):
        # on smooth N, with many divisors in the x box: each co-factor N/p
        # that a candidate holds is walked, and walked once, and a later
        # list of ranges holds no co-factor whose first key is smaller
        rng = random.Random(0x7E4)
        with mock.patch.multiple(coppersmith, _GAP_COLUMNS=gap_columns, _WALK_GAPS=walk_gaps):
            for _ in range(300):
                n = 1
                while n < 1 << 14:
                    n *= rng.choice((2, 3, 5, 7, 11, 13, 17))
                x, y = rng.randrange(1, 200), rng.randrange(1, 60)
                prob = TrivariateProblem(
                    N=n, P0=rng.randrange(1, 400), M=rng.randrange(1, 300),
                    a_max=rng.randrange(-1, 80), z_max=rng.randrange(0, 30), X=x, Y=y,
                )
                cofactors = [
                    n // p for p in range(max(1, prob.P0 - x), min(n, prob.P0 + x) + 1)
                    if n % p == 0
                ]
                step = {}
                for i, ranges in enumerate(coppersmith._trivariate_walks(prob)):
                    for lo, hi in ranges:
                        for q in cofactors:
                            if lo <= q <= hi:
                                assert q not in step, (prob, q)
                                step[q] = i
                keys = {q: coppersmith._first_candidate(prob, q) for q in cofactors}
                held = {q for q in cofactors if keys[q] is not None}
                assert held <= set(step), (prob, held - set(step))
                order = [keys[q][0] for q in sorted(held, key=lambda q: step[q])]
                for q in held:  # the first key of each list exceeds the last one's
                    assert all(keys[r][0] < keys[q][0] for r in held if step[r] < step[q])

    @pytest.mark.parametrize(
        "gap_columns, walk_gaps, prob",
        [
            (1, 1, TrivariateProblem(N=84150, P0=265, M=69, a_max=29, z_max=27, X=193, Y=19)),
            (3, 4, TrivariateProblem(N=60060, P0=246, M=101, a_max=58, z_max=15, X=92, Y=22)),
            (3, 4, TrivariateProblem(N=104907, P0=188, M=114, a_max=26, z_max=7, X=197, Y=34)),
        ],
    )
    def test_a_root_just_past_a_walked_range_waits(self, gap_columns, walk_gaps, prob):
        # the q window solved for a range [lo, hi] may reach one q past
        # either end; a root found there belongs to a later walk, which may
        # hold a root of an earlier candidate
        with mock.patch.multiple(coppersmith, _GAP_COLUMNS=gap_columns, _WALK_GAPS=walk_gaps):
            assert solve_trivariate(prob) == reference_solve_trivariate(prob)

    @staticmethod
    def _work(prob: TrivariateProblem, walks) -> tuple:
        """solve_trivariate's outcome, lattice attempts and checked columns
        with `walks` in place of _trivariate_walks."""
        stats, checked = {}, []

        def counting(*args):
            checked.append(args[1])
            return record(*args)

        record = coppersmith._record
        with mock.patch.multiple(coppersmith, _trivariate_walks=walks, _record=counting):
            got = outcome(solve_trivariate, prob, stats)
        return got, stats.get("boxes", 0), len(checked)

    @pytest.mark.parametrize(
        "gap_columns, walk_gaps, prob",
        [
            # joining the next windows to a wide window's last step would put
            # them in the walk that finds the root: 13 attempts against 6,
            # and 3 against 2
            (64, 16, TrivariateProblem(N=16913, P0=95, M=52, a_max=64, z_max=33, X=92, Y=22)),
            (3, 4, TrivariateProblem(N=9881, P0=242, M=5, a_max=11, z_max=6, X=16, Y=16)),
            # a window that fits the walk's width is walked in one step, though
            # the rule for the side below M*z0 alone would stop it short
            (1, 1, TrivariateProblem(
                N=7691623791780, P0=41165, M=9812, a_max=9105, z_max=46849700, X=281, Y=326,
            )),
        ],
    )
    def test_walks_as_the_two_branches_did(self, gap_columns, walk_gaps, prob):
        with mock.patch.multiple(coppersmith, _GAP_COLUMNS=gap_columns, _WALK_GAPS=walk_gaps):
            assert self._work(prob, coppersmith._trivariate_walks) == self._work(
                prob, reference_trivariate_walks
            )

    @pytest.mark.parametrize("gap_columns, walk_gaps", [(64, 16), (1, 1), (3, 4)])
    def test_one_walk_loop_does_no_more_work(self, gap_columns, walk_gaps):
        # against the walk with a narrow and a wide branch (conftest), on
        # seeded planted semiprimes, random N, smooth N and planted 16-40-bit
        # semiprimes: the loop's result, in no more lattice attempts and no
        # more checked columns per search
        rng = random.Random(0x7E5)
        found = 0
        with mock.patch.multiple(coppersmith, _GAP_COLUMNS=gap_columns, _WALK_GAPS=walk_gaps):
            for i in range(600):
                kind = i % 4
                if kind == 0:
                    p = random_prime(rng, rng.randrange(5, 11))
                    q = random_prime(rng, rng.randrange(5, 11))
                    z0, a = rng.randrange(1, 10), rng.randrange(10)
                    n, p0 = p * q, max(1, p + rng.randrange(-3, 4))
                    mult = max(1, (q + rng.choice((-a, a))) // z0)
                    x = y = default_box_bound(n)
                    a_max, z_max = rng.randrange(-1, 12), rng.randrange(0, 16)
                elif kind == 1:
                    n, p0 = rng.randrange(2, 20000), rng.randrange(1, 150)
                    mult = rng.randrange(1, 300)
                    x, y = rng.randrange(1, 100), rng.randrange(1, 100)
                    a_max, z_max = rng.randrange(-1, 60), rng.randrange(0, 30)
                elif kind == 2:
                    n = 1
                    while n < 1 << 14:
                        n *= rng.choice((2, 3, 5, 7, 11, 13, 17))
                    p0, mult = rng.randrange(1, 400), rng.randrange(1, 300)
                    x, y = rng.randrange(1, 200), rng.randrange(1, 60)
                    a_max, z_max = rng.randrange(-1, 60), rng.randrange(0, 30)
                else:
                    bits = rng.randrange(16, 41)
                    p = random_prime(rng, bits // 2)
                    q = random_prime(rng, bits - bits // 2)
                    z0 = rng.randrange(1, 40)
                    a, sign = rng.choice(
                        [(a, s) for a in range(20) for s in (-1, 1) if (q + s * a) % z0 == 0]
                    )
                    n, mult = p * q, (q + sign * a) // z0
                    x = y = default_box_bound(n)
                    p0 = max(1, p + rng.randrange(-x, x + 1))
                    a_max, z_max = rng.randrange(20), rng.randrange(1, 40)
                prob = TrivariateProblem(
                    N=n, P0=p0, M=mult, a_max=a_max, z_max=z_max, X=x, Y=y
                )
                got, boxes, checked = self._work(prob, coppersmith._trivariate_walks)
                want, old_boxes, old_checked = self._work(prob, reference_trivariate_walks)
                assert got == want == outcome(reference_solve_trivariate, prob), prob
                assert boxes <= old_boxes and checked <= old_checked, prob
                found += isinstance(got, list)
        assert 250 <= found <= 450, found  # 354 when written


class TestTheorem4Driver:
    def test_worked_instance(self):
        assert theorem4_driver(10807, 100) == Split(101, 107)
        # 1009 = 1109 = 9 (mod 100): the pair (9, 9) is its own mirror
        assert theorem4_driver(1009 * 1109, 100) == Split(1009, 1109)

    def test_prime_exhausts(self):
        assert is_prime(10009)
        with pytest.raises(Exhausted):
            theorem4_driver(10009, 100)

    def test_residue_product_too_large_exhausts(self):
        # residues 7 and 9 mod 10: c*d = 63 >= 2m, the hypothesis fails
        p, q = 17, 19
        assert (p % 10) * (q % 10) >= 20
        with pytest.raises(Exhausted):
            theorem4_driver(p * q, 10)

    @given(
        n=st.integers(min_value=2, max_value=1499),
        m=st.integers(min_value=2, max_value=40),
    )
    @settings(max_examples=500)
    def test_matches_the_full_box_driver(self, n, m):
        # the box scan of every pair gives the same first root 1 < p < N
        assert outcome(theorem4_driver, n, m) == outcome(
            reference_theorem4_driver, n, m
        )

    def test_searches_only_the_positive_half(self):
        # 6 = 2*3 with m = 7: the boxes' p > 0 columns have no certified
        # width and are scanned, so no attempt is made at all
        stats = {}
        assert theorem4_driver(6, 7, stats) == Split(2, 3)
        assert "boxes" not in stats and "lattice_dim" not in stats
        assert stats["column_scans"] == 2

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_full_box_driver_at_40_to_48_bits(self, seed):
        # residues below 8 put the true pair among theorem4's pairs; those
        # below 2^10 of every fourth seed mostly do not, and exhaust.  p and
        # q are prime, so only a pair whose box holds one of them splits N.
        rng = random.Random(seed)
        p, q, m = t4_semiprime(rng, 40 + 4 * (seed % 3), 1 << 10 if seed % 4 == 3 else 8)
        assert outcome(theorem4_driver, p * q, m) == outcome(
            reference_theorem4_driver, p * q, m, (p, q)
        )

    @staticmethod
    def _report(n: int, m: int, driver=None) -> cli.RunReport:
        """cli.run's theorem4 report for N and m, apart from time_ms, with
        coppersmith.theorem4_driver replaced by `driver` if given."""
        config = cli.RunConfig(command="factor", method="theorem4", n=n, mod=m)
        with mock.patch.object(coppersmith, "theorem4_driver", driver or theorem4_driver):
            return dataclasses.replace(cli.run(config), time_ms=0)

    def test_reports_match_the_full_walk(self):
        # every N below 1500 for a spread of moduli, and a seeded sample up
        # to 2^30: stopping each pair's walk at its first proper divisor
        # changes no report (outcome, factors, lattice_dim, certified)
        cases = [
            (n, m) for n in range(2, 1500) for m in (2, 3, 4, 6, 7, 10, 12, 30, 97)
        ]
        rng = random.Random(6765)
        cases += [(rng.randrange(2, 1 << 30), rng.randrange(2, 5000)) for _ in range(500)]
        for n, m in cases:
            assert self._report(n, m) == self._report(
                n, m, reference_theorem4_full_walk
            ), (n, m)

    @pytest.mark.parametrize(
        "n, m, factors",
        [(8, 3, (2, 4)), (9, 2, (3, 3)), (15, 4, (3, 5)), (16, 7, (2, 8)), (196, 97, (2, 98))],
    )
    def test_a_trivial_root_does_not_stop_the_walk(self, n, m, factors):
        # the first pair with a proper root has p = 1 as its least root, so a
        # walk that stopped at any in-box root would skip the proper one
        bound = 3 * isqrt(n) // (2 * m) + 2
        for pair in theorem4_pairs(n, m):
            prob = BivariateProblem(N=n, P0=pair.c, Q0=pair.d, X=bound, Y=bound, m=m)
            roots = [p for _, _, p, _ in box_oracle(prob)]
            if any(1 < p < n for p in roots):
                assert roots[0] == 1
                break
        report = self._report(n, m)
        assert (report.outcome, report.factors) == ("factored", factors)

    def test_first_proper_divisor_ends_the_walk(self, monkeypatch):
        # the first 100 seed-1 residue-t4 instances of perfbench, every box
        # walked rather than scanned by its co-factor sums: the same reports
        # as the full walk, in fewer attempts (976 against 1 085 when
        # written)
        monkeypatch.setattr(coppersmith, "_SUMS_PER_STEP", 0)
        instances = perfbench_workloads().Instances("residue-t4", 1)
        boxes, full_boxes = {}, {}
        for i in range(100):
            n, m = instances[i].n, instances[i].fields["mod"]
            assert outcome(theorem4_driver, n, m, boxes) == outcome(
                reference_theorem4_full_walk, n, m, full_boxes
            )
        assert boxes.get("column_scans", 0) == 0
        assert boxes["boxes"] < full_boxes["boxes"], (boxes, full_boxes)

    def test_a_lift_past_n_changes_no_outcome(self):
        # theorem4_pairs drops the lift r + m when it exceeds N, that is when
        # N < m; on every N < 300 with 3 <= m <= 3N the outcome and factors
        # are those of the pair source that splits both lifts (for m <= N
        # the two give the same pairs)
        cases = [(n, m) for n in range(2, 300) for m in range(3, 3 * n + 1)]
        for n, m in cases:
            if m <= n:
                assert theorem4_pairs(n, m) == reference_theorem4_pairs(n, m), (n, m)
        cases = [(n, m) for n, m in cases if m > n]
        with mock.patch.object(coppersmith, "theorem4_pairs", reference_theorem4_pairs):
            want = [outcome(theorem4_driver, n, m) for n, m in cases]
        for (n, m), fac in zip(cases, want):
            assert outcome(theorem4_driver, n, m) == fac, (n, m)

    def test_gcd_short_circuit(self):
        assert theorem4_driver(15 * 101, 15) == Split(15, 101)


class TestEnvelope:
    def test_report_shape_and_certified_regime(self):
        report = empirical_envelope(bits=48, instances=2, seed=11, exponents=(6, 10, 16))
        assert len(report) == 6
        for entry in report:
            assert set(entry) == {"n", "x_log2", "certified", "one_shot"}
        # one-shot succeeds somewhere and the certified flag goes false for
        # oversized boxes
        assert any(e["one_shot"] for e in report)
        assert any(not e["certified"] for e in report)
        assert all(isinstance(e["certified"], bool) for e in report)

    def test_one_attempt_reaches_2_8_but_not_2_14(self, monkeypatch):
        boxes = []
        real = coppersmith._univariate_interval

        def recording(prob, *args):
            boxes.append(prob)
            return real(prob, *args)

        monkeypatch.setattr(coppersmith, "_univariate_interval", recording)
        report = empirical_envelope(bits=64, instances=2, seed=1010, exponents=(8, 14))
        assert [(e["x_log2"], e["one_shot"]) for e in report] == [
            (8, True), (14, False), (8, True), (14, False)
        ]
        # one attempt per entry, on the entry's box; certified is
        # Coppersmith's bound on that box
        assert len(boxes) == len(report)
        for e, prob in zip(report, boxes):
            assert (prob.N, prob.X, prob.Y) == (e["n"], 1 << e["x_log2"], 2 << e["x_log2"])
            assert e["certified"] is certified_regime(prob)

    def test_every_basis_coppersmith_reduces_has_three_rows(self, monkeypatch):
        # the splitter's dim-3 attempt is the only lattice: no solve and not
        # the envelope builds a basis of any other size.  Every box is
        # walked, so theorem4's boxes reduce lattices too.
        monkeypatch.setattr(coppersmith, "_SUMS_PER_STEP", 0)
        dims = []
        real = coppersmith.lll_rows

        def recording(rows, *args, **kwargs):
            dims.append(len(rows))
            return real(rows, *args, **kwargs)

        monkeypatch.setattr(coppersmith, "lll_rows", recording)
        rng = random.Random(2222)
        n, p, q = balanced_semiprime(rng, 48)
        tp, tq, m = t4_semiprime(rng, 44, 8)
        mult = q // 5  # q = 5*mult + a with 0 <= a < 5
        solves = [
            lambda: solve_msb_known(n, (p >> 12) << 12),
            lambda: solve_lsb_known(n, p % (1 << 14), 14),
            lambda: theorem4_driver(tp * tq, m),
            lambda: solve_trivariate(TrivariateProblem(
                N=n, P0=(p >> 8) << 8, M=mult, a_max=4, z_max=5, X=1 << 9, Y=1 << 9
            )),
            lambda: empirical_envelope(bits=64, instances=2, seed=1010, exponents=(8, 14)),
        ]
        for solve in solves:
            before = len(dims)
            solve()
            assert len(dims) > before
        assert set(dims) == {3}
