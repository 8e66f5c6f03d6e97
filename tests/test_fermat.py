import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import fermat
from factorlab.arith import isqrt, next_prime, random_prime
from factorlab.errors import (
    Exhausted,
    MultiplierCollision,
    NotADivisor,
    TrivialOnly,
)
from factorlab.fermat import (
    FermatResult,
    fermat_ratio,
    fermat_standard,
    fermat_triangular,
    predict_steps,
    ratio_grid,
    render_ratio,
    triangular_squares,
    triangular_start,
)

from conftest import close_semiprime, outcome, reference_difference_scan

# The 21-row balanced-ratio table, frozen to six decimals.
RATIO_TABLE = [
    ("0.707", "1.414427"),
    ("0.720952", "1.387054"),
    ("0.734905", "1.360721"),
    ("0.748857", "1.335368"),
    ("0.76281", "1.310943"),
    ("0.776762", "1.287396"),
    ("0.790714", "1.264679"),
    ("0.804667", "1.242751"),
    ("0.818619", "1.221569"),
    ("0.832571", "1.201098"),
    ("0.846524", "1.181302"),
    ("0.860476", "1.162147"),
    ("0.874429", "1.143604"),
    ("0.888381", "1.125643"),
    ("0.902333", "1.108238"),
    ("0.916286", "1.091363"),
    ("0.930238", "1.074994"),
    ("0.94419", "1.059108"),
    ("0.958143", "1.043686"),
    ("0.972095", "1.028706"),
    ("0.986048", "1.01415"),
]


class TestStandardScan:
    def test_worked_example_2599(self):
        assert isqrt(4 * 2599) == 101  # scan starts at the floor of 2*sqrt(N)
        res = fermat_standard(2599, budget=36)
        assert (res.x, res.y, res.p, res.q) == (136, 90, 23, 113)
        assert res.steps == 35

    def test_square_input(self):
        res = fermat_standard(9)
        assert (res.x, res.y, res.p, res.q, res.steps) == (6, 0, 3, 3, 1)

    def test_91(self):
        # scan from x=19; 19^2-364 < 0 skipped, 20^2-364 = 36 = 6^2
        res = fermat_standard(91)
        assert (res.x, res.y, res.p, res.q) == (20, 6, 7, 13)
        assert res.steps == 1

    def test_prime_raises_trivial_only(self):
        with pytest.raises(TrivialOnly):
            fermat_standard(13)

    def test_budget_exhaustion(self):
        with pytest.raises(Exhausted):
            fermat_standard(2599, budget=34)
        assert fermat_standard(2599, budget=35).steps == 35

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fermat_standard(10)
        with pytest.raises(ValueError):
            fermat_standard(1)

    def test_result_invariants_enforced(self):
        with pytest.raises(ValueError):
            FermatResult(p=7, q=3, steps=1)

    def test_finds_most_balanced_divisor_pair(self, rng):
        # the upward scan meets the divisor pair with the smallest sum first
        for _ in range(80):
            n = rng.randrange(9, 20001) | 1
            pairs = [(d, n // d) for d in range(2, isqrt(n) + 1) if n % d == 0]
            if not pairs:
                continue  # prime
            best = min(p + q for p, q in pairs)
            res = fermat_standard(n)
            assert res.x == best and res.p * res.q == n


class TestPredictSteps:
    def test_examples(self):
        assert predict_steps(23, 2599) == 35
        assert predict_steps(7, 91) == 1
        assert predict_steps(3, 9) == 1  # 4N = 36 is a square: the hit at x = 6

    def test_not_a_divisor(self):
        with pytest.raises(NotADivisor):
            predict_steps(7, 2599)
        with pytest.raises(ValueError):
            predict_steps(113, 2599)

    @pytest.mark.parametrize("p", [0, -1, -3])
    def test_a_divisor_below_one_is_rejected(self, p):
        # checked before divisibility: 0 would divide by zero, and -1 and -3
        # divide 15 but would predict a negative step count
        with pytest.raises(ValueError, match="p must be >= 1"):
            predict_steps(p, 15)

    def test_matches_measurement(self, rng):
        for _ in range(60):
            n, p, q = close_semiprime(rng, rng.randrange(20, 40))
            predicted = predict_steps(p, n)
            measured = fermat_standard(n, budget=predicted + 2).steps
            assert abs(measured - predicted) <= 1, (n, p, q)

    @given(
        start=st.integers(min_value=2, max_value=10**6),
        gap=st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=200)
    def test_steps_equal_prediction(self, start, gap):
        # odd primes p <= q: the scan starts at ceil(2*sqrt(N)), which is
        # x = 2p itself when q = p, and its last step is x = p + q
        p = next_prime(start)
        q = p if gap == 0 else next_prime(p + gap)
        n = p * q
        assert fermat_standard(n).steps == predict_steps(p, n)


class TestSievedScan:
    """The sieved difference scan against the position-by-position oracle."""

    @given(
        n=st.integers(min_value=3, max_value=20000),
        budget=st.one_of(st.none(), st.integers(min_value=0, max_value=80)),
    )
    @settings(max_examples=400)
    def test_standard_matches_reference(self, n, budget):
        n |= 1
        assert outcome(fermat_standard, n, budget) == outcome(
            reference_difference_scan, n, budget
        )

    @given(
        n=st.integers(min_value=3, max_value=20000),
        ratio=st.sampled_from(["1", "3/2", "2", "5/3", "7/2"]),
        budget=st.one_of(st.none(), st.integers(min_value=0, max_value=80)),
    )
    @settings(max_examples=400)
    def test_ratio_matches_reference(self, n, ratio, budget):
        # odd and even n; the oracle runs behind the same multiplier transform
        got = outcome(fermat_ratio, n, ratio, budget)
        with mock.patch.object(fermat, "_difference_scan", reference_difference_scan):
            assert got == outcome(fermat_ratio, n, ratio, budget)

    def test_long_scan_crosses_blocks(self):
        # about 300 000 positions: every block size up to the 2^16 cap, then
        # several capped blocks
        rng = random.Random(5150)
        p = random_prime(rng, 32)
        q = next_prime(p + 2 * isqrt(300_000 * p))
        n = p * q
        res = fermat_standard(n)
        assert res.steps == predict_steps(p, n) > 4 * 2**16
        assert (res.p, res.q) == (p, q)


class TestTriangular:
    def test_worked_example_2599(self):
        m, x0 = triangular_start(2599)
        assert (m, x0) == (14, 105)
        res = fermat_triangular(2599)
        assert (res.x, res.y, res.p, res.q, res.steps) == (136, 90, 23, 113, 3)
        assert fermat_triangular(2599, budget=3).steps == 3
        with pytest.raises(Exhausted):
            fermat_triangular(2599, budget=2)
        with pytest.raises(ValueError):
            fermat_triangular(2598)

    def test_sequence_values_2599(self):
        seq = triangular_squares(2599)
        i0, x0, sq0 = next(seq)
        i1, x1, sq1 = next(seq)
        i2, x2, sq2 = next(seq)
        assert (x0, x1, x2) == (105, 120, 136)
        assert sq1 == 105**2 + 15**3 == 14400 == 120**2
        assert sq2 - 4 * 2599 == 8100 == 90**2

    def test_cube_recurrence_matches_closed_form(self):
        for n in (2599, 35, 10403, 4305481):
            m, _ = triangular_start(n)
            for i, x, x_sq in triangular_squares(n):
                assert x == (m + i) * (m + i + 1) // 2
                assert x_sq == x * x
                if i >= 50:
                    break

    def test_nontriangular_sum_exhausts(self):
        # 5 * 7: p + q = 12 sits between the triangular numbers 10 and 15
        with pytest.raises(Exhausted):
            fermat_triangular(35)

    def test_constructed_triangular_sums(self):
        # every semiprime whose factor sum is a triangular number >= 2*sqrt(N)
        # must be found, with the scan landing exactly on x = p + q
        checked = 0
        for k in range(10, 201):
            t = k * (k + 1) // 2
            for p in range(3, t // 2 + 1, 2):
                q = t - p
                if p > q:
                    break
                from factorlab.arith import is_prime

                if not (is_prime(p) and is_prime(q)):
                    continue
                n = p * q
                if t * t < 4 * n:
                    continue
                res = fermat_triangular(n)
                assert (res.p, res.q, res.x) == (p, q, t)
                checked += 1
                break  # one factor split per k is enough
        assert checked > 60

    def test_square_triangular(self):
        res = fermat_triangular(9)
        assert (res.p, res.q, res.steps) == (3, 3, 1)


class TestRatioGrid:
    def test_reproduces_table(self):
        entries = ratio_grid("0.707", 1, 21)
        assert len(entries) == 21
        for entry, (r_txt, s_txt) in zip(entries, RATIO_TABLE):
            assert render_ratio(entry.r) == r_txt
            assert render_ratio(entry.s) == s_txt
            # numeric agreement to six decimals, not just string match
            assert abs(entry.r - Fraction(r_txt)) < Fraction(1, 2 * 10**6)
            assert abs(entry.s - Fraction(s_txt)) < Fraction(1, 2 * 10**6)

    def test_exact_reciprocals(self):
        for entry in ratio_grid("0.707", 1, 21):
            assert entry.r * entry.s == 1

    def test_grid_spacing(self):
        entries = ratio_grid("0.707", 1, 21)
        step = Fraction(1 - Fraction("0.707"), 21)
        for i, e in enumerate(entries):
            assert e.r == Fraction("0.707") + i * step

    def test_validation(self):
        with pytest.raises(ValueError, match="zero denominator"):
            ratio_grid("1/0", 1, 3)
        with pytest.raises(ValueError):
            ratio_grid(1, "0.707", 21)
        with pytest.raises(ValueError):
            ratio_grid("0.707", 1, 0)

    def test_render_strips_zeros(self):
        assert render_ratio(Fraction(1, 2)) == "0.5"
        assert render_ratio(Fraction(21000, 20707)) == "1.01415"


class TestRatioMethod:
    def test_balanced_direct(self):
        res = fermat_ratio(10403, 1)
        assert (res.p, res.q) == (101, 103)
        assert res.x == 204

    def test_ratio_two(self):
        # oracle by construction: 20909 = 103 * 203 with q close to 2p
        n = 103 * 203
        res = fermat_ratio(n, "2")
        assert (res.p, res.q) == (103, 203)
        assert res.p * res.q == n

    def test_fraction_ratio(self):
        # q ~ (3/2) p: p = 211, q = 317 = 3*211/2 + 0.5 - ish
        p, q = 211, 317
        res = fermat_ratio(p * q, Fraction(3, 2), budget=10_000)
        assert (res.p, res.q) == (p, q)

    def test_prime_propagates_trivial(self):
        with pytest.raises(TrivialOnly):
            fermat_ratio(101, 1)

    def test_multiplier_collision_on_prime(self):
        with pytest.raises(MultiplierCollision):
            fermat_ratio(1009, 2, budget=100_000)

    def test_cap(self):
        with pytest.raises(ValueError, match="zero denominator"):
            fermat_ratio(20909, "1/0")
        with pytest.raises(ValueError):
            fermat_ratio(2, 1)  # n below 3
        with pytest.raises(ValueError):
            fermat_ratio(10403, Fraction(10**5, 3))
        with pytest.raises(ValueError):
            fermat_ratio(10403, Fraction(1, 2))

