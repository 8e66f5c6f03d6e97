"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figures (run with -s to see them live).

Quantifiers over large ranges ("every semiprime below a bound") are realized
as fixed-seed samples; the sampling is deterministic so failures reproduce.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from factorlab.arith import is_perfect_square, is_prime, isqrt, random_prime
from factorlab.cli import RunConfig, run
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
)
from factorlab.errors import Exhausted, NoRoot
from factorlab.fermat import (
    fermat_standard,
    fermat_triangular,
    predict_steps,
    ratio_grid,
    render_ratio,
    triangular_squares,
)
from factorlab.lattice import (
    Basis,
    determinant,
    gram_schmidt,
    lll_reduce_with_transform,
    shortest_vector_exhaustive,
)
from factorlab.polynomial import (
    MultiPoly,
    discriminant,
    howgrave_predicate,
    norms,
    parse_poly,
    resultant,
    scale_vars,
)
from factorlab.residue import algorithm_one, enumerate_pairs, landry_pepin

from conftest import balanced_semiprime, box_oracle, close_semiprime, pair_tuples


def report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion:02d}] PASS - {detail}")


def test_criterion_01_worked_example_exact_steps():
    started = time.perf_counter()
    tri = fermat_triangular(2599)
    std = fermat_standard(2599)
    elapsed_ms = (time.perf_counter() - started) * 1000

    seq = triangular_squares(2599)
    xs = [next(seq)[1] for _ in range(3)]
    assert xs == [105, 120, 136]
    assert (tri.x, tri.y, tri.p, tri.q, tri.steps) == (136, 90, 23, 113, 3)
    assert isqrt(4 * 2599) == 101  # the consecutive scan starts here
    assert (std.x, std.y, std.p, std.q, std.steps) == (136, 90, 23, 113, 35)
    assert elapsed_ms < 10.0
    report(1, f"2599 = 23*113: triangular 3 steps, standard 35 steps, {elapsed_ms:.2f} ms")


def test_criterion_02_ratio_grid_six_decimals():
    table = [
        ("0.707", "1.414427"), ("0.720952", "1.387054"), ("0.734905", "1.360721"),
        ("0.748857", "1.335368"), ("0.76281", "1.310943"), ("0.776762", "1.287396"),
        ("0.790714", "1.264679"), ("0.804667", "1.242751"), ("0.818619", "1.221569"),
        ("0.832571", "1.201098"), ("0.846524", "1.181302"), ("0.860476", "1.162147"),
        ("0.874429", "1.143604"), ("0.888381", "1.125643"), ("0.902333", "1.108238"),
        ("0.916286", "1.091363"), ("0.930238", "1.074994"), ("0.94419", "1.059108"),
        ("0.958143", "1.043686"), ("0.972095", "1.028706"), ("0.986048", "1.01415"),
    ]
    entries = ratio_grid("0.707", 1, 21)
    assert len(entries) == 21
    for entry, (r_txt, s_txt) in zip(entries, table):
        assert entry.r * entry.s == 1
        assert render_ratio(entry.r) == r_txt
        assert render_ratio(entry.s) == s_txt
        assert round(entry.r * 10**6) == round(Fraction(r_txt) * 10**6)
        assert round(entry.s * 10**6) == round(Fraction(s_txt) * 10**6)
    report(2, "all 21 grid rows reproduced to six decimals")


def test_criterion_03_step_prediction_law():
    rng = random.Random(303)
    worst = 0
    for _ in range(500):
        n, p, q = close_semiprime(rng, rng.randrange(20, 40))
        predicted = predict_steps(p, n)
        measured = fermat_standard(n, budget=predicted + 2).steps
        worst = max(worst, abs(measured - predicted))
        assert abs(measured - predicted) <= 1, (n, p, q, predicted, measured)
    report(3, f"500 semiprimes with q-p <= 4N^(1/4): |steps - predicted| <= {worst}")


def test_criterion_04_residue_oracle_equivalence():
    rng = random.Random(404)
    primes_to_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

    def brute(n, m):
        out = set()
        for c in range(1, m):
            if math.gcd(c, m) != 1:
                continue
            for d in range(c, m):
                if c * d % m == n % m:
                    out.add((c, d))
        return sorted(out)

    semiprime_checks = 0
    for _ in range(120):
        p = random_prime(rng, rng.randrange(6, 11))
        q = random_prime(rng, rng.randrange(6, 11))
        n = p * q
        if n >= 10**6 or p == q:
            continue
        for m in primes_to_50:
            if math.gcd(n, m) != 1:
                continue
            got = algorithm_one(n, m)
            true_pair = tuple(sorted((p % m, q % m)))
            assert true_pair in pair_tuples(got), (n, m)
            assert set(pair_tuples(got)) <= set(pair_tuples(enumerate_pairs(n, m)))
            semiprime_checks += 1

    exact_checks = 0
    while exact_checks < 100:
        n = rng.randrange(2, 10**5)
        m = rng.randrange(2, 100)
        if math.gcd(n, m) != 1:
            continue
        assert pair_tuples(enumerate_pairs(n, m)) == brute(n, m)
        exact_checks += 1
    assert semiprime_checks > 800
    report(4, f"{semiprime_checks} (N, m) containment checks, "
              f"{exact_checks} exact enumerations")


def test_criterion_05_landry_pepin():
    # the worked instance pins t and the discriminant
    z0 = (10807 + 1 * 7) % 100
    z_at_8 = z0 + 100 * 8
    assert z_at_8 == 814
    disc = z_at_8**2 - 4 * 1 * 7 * 10807
    assert disc == 360000 and is_perfect_square(disc) == 600
    fac = landry_pepin(10807, 10, 10, 1, 7, t_bound=8)
    assert (fac.p, fac.q) == (101, 107)
    with pytest.raises(Exhausted):
        landry_pepin(10807, 10, 10, 1, 7, t_bound=7)

    rng = random.Random(505)

    def prime_in_class(start, residue, modulus):
        cand = start + (residue - start) % modulus
        while not is_prime(cand):
            cand += modulus
        return cand

    successes = 0
    lehmer = 0
    while successes < 100:
        m = rng.randrange(5, 60)
        mod2 = rng.randrange(5, 60)
        if rng.random() < 0.3:
            c = d = 1
        else:
            c = rng.randrange(1, min(m, 10))
            d = rng.randrange(1, min(mod2, 10))
        if math.gcd(c, m) != 1 or math.gcd(d, mod2) != 1:
            continue
        base = rng.randrange(10**4, 10**5)
        p = prime_in_class(base, c, m)
        q = prime_in_class(base + rng.randrange(0, base), d, mod2)
        if p == q:
            continue
        n = p * q
        # scaled-sum window: |d*p + c*q| < 3 * max(c, d) * sqrt(N)
        t_bound = 3 * max(c, d) * isqrt(n) // (m * mod2) + 2
        fac = landry_pepin(n, m, mod2, c, d, t_bound)
        assert {fac.p, fac.q} == {p, q}
        successes += 1
        lehmer += c == d == 1
    report(5, f"10807 splits at t=8 with disc 600^2; "
              f"100/100 constructed instances within the scaled-sum t bound "
              f"({lehmer} Lehmer-style)")


def test_criterion_06_lll_contract():
    rng = random.Random(606)
    delta = Fraction(3, 4)
    lll_time = 0.0
    oracle_checked = 0
    for _ in range(200):
        n = rng.randrange(2, 7)
        while True:
            rows = [[rng.randrange(-(2**20), 2**20 + 1) for _ in range(n)] for _ in range(n)]
            try:
                det = determinant(Basis.from_rows(rows))
                break
            except Exception:
                continue
        basis = Basis.from_rows(rows)
        started = time.perf_counter()
        reduced, transform = lll_reduce_with_transform(basis, delta)
        lll_time += time.perf_counter() - started
        gs = gram_schmidt(reduced)
        for i in range(n):
            for j in range(i):
                assert 2 * abs(gs.mu[i][j]) <= 1
        for k in range(1, n):
            assert gs.norms_sq[k] >= (delta - gs.mu[k][k - 1] ** 2) * gs.norms_sq[k - 1]
        assert determinant(Basis.from_rows(transform)) == 1
        regenerated = tuple(
            tuple(sum(transform[i][t] * basis.vectors[t][j] for t in range(n)) for j in range(n))
            for i in range(n)
        )
        assert regenerated == reduced.vectors
        if n <= 4:
            sv = shortest_vector_exhaustive(reduced, 3)
            lam1_sq = sum(x * x for x in sv)
            b1_sq = sum(x * x for x in reduced.vectors[0])
            assert b1_sq <= 2 ** (n - 1) * lam1_sq  # ||b1|| <= 2^((n-1)/2) * lambda1
            oracle_checked += 1
    assert lll_time < 1.0
    report(6, f"200 bases reduced in {lll_time:.3f} s; "
              f"{oracle_checked} oracle comparisons at n <= 4")


def test_criterion_07_resultant_laws():
    rng = random.Random(707)

    def rand_poly(deg):
        while True:
            poly = MultiPoly(1, {(d,): rng.randrange(-9, 10) for d in range(deg + 1)})
            if poly.degree(0) == deg:
                return poly

    shared_cases = coprime_cases = law_cases = 0
    for _ in range(200):
        kind = rng.randrange(3)
        if kind == 0:
            shared = rand_poly(rng.randrange(1, 3))
            f = shared * rand_poly(rng.randrange(1, 3))
            g = shared * rand_poly(rng.randrange(1, 3))
            assert resultant(f, g, 0).is_zero
            shared_cases += 1
        elif kind == 1:
            k, m = rng.randrange(1, 4), rng.randrange(1, 4)
            f, g = rand_poly(k), rand_poly(m)
            sign = -1 if (k * m) % 2 else 1
            assert resultant(g, f, 0) == resultant(f, g, 0) * sign
            f2 = rand_poly(rng.randrange(1, 3))
            assert resultant(f * f2, g, 0) == resultant(f, g, 0) * resultant(f2, g, 0)
            law_cases += 1
        else:
            x = MultiPoly.variable(1, 0)
            r1, r2 = rng.randrange(-9, 10), rng.randrange(-9, 10)
            f = (x - r1) * rand_poly(rng.randrange(1, 3))
            g = (x - r2) * rand_poly(rng.randrange(1, 3))
            res = resultant(f, g, 0)
            if not res.is_zero:
                # a nonzero resultant rules out any common root
                assert not any(f.evaluate((t,)) == 0 and g.evaluate((t,)) == 0
                               for t in range(-60, 61))
                coprime_cases += 1
            if r1 == r2:
                assert res.is_zero or res.evaluate((0,)) == 0
    cubic = parse_poly("x1^3 - 6*x1^2 + 11*x1 - 6")
    assert discriminant(cubic, 0) == MultiPoly.const(1, 4)
    report(7, f"{shared_cases} shared-factor, {law_cases} sign/multiplicativity, "
              f"{coprime_cases} nonvanishing cases; disc(cubic) = 4")


def test_criterion_08_partial_bits_recovery():
    rng = random.Random(808)
    worst_ms = 0.0
    oracle_compared = 0
    certified_compared = 0
    for idx in range(200):
        bits = rng.randrange(48, 65)
        n, p, q = balanced_semiprime(rng, bits)
        nbits = n.bit_length()
        ell = nbits // 4
        use_msb = idx % 2 == 0
        started = time.perf_counter()
        if use_msb:
            sols = solve_msb_known(n, (p >> ell) << ell)
        else:
            sols = solve_lsb_known(n, p % (1 << ell), ell)
        elapsed = time.perf_counter() - started
        worst_ms = max(worst_ms, elapsed * 1000)
        assert elapsed < 2.0, (n, "msb" if use_msb else "lsb")
        assert any(s.p in (p, q) or s.q in (p, q) for s in sols), (n, p)

        if nbits <= 52:
            probs = []
            if use_msb:
                bound = default_box_bound(n)
                p0 = (p >> ell) << ell
                probs.append(BivariateProblem(N=n, P0=p0, Q0=n // p0, X=bound, Y=bound))
                # a certified box around the factor, inside the 2/3 regime
                small = max(4, isqrt(isqrt(n)) // 8)
                p0 = p - rng.randrange(0, small)
                certified_prob = BivariateProblem(
                    N=n, P0=p0, Q0=n // p0, X=small, Y=4 * small
                )
                assert certified_regime(certified_prob)
                probs.append(certified_prob)
            else:
                mod = 1 << ell
                c = p % mod
                d = n * pow(c, -1, mod) % mod
                probs.append(
                    BivariateProblem(
                        N=n, P0=c, Q0=d, X=isqrt(n) // mod + 1,
                        Y=2 * isqrt(n) // mod + 1, m=mod,
                    )
                )
            for prob in probs:
                expected = [(x, y) for x, y, _, _ in box_oracle(prob)]
                try:
                    got = [(s.x0, s.y0) for s in solve_bivariate(prob)]
                except NoRoot:
                    got = []
                assert got == expected, n
                oracle_compared += 1
                certified_compared += certified_regime(prob)
    assert oracle_compared >= 60 and certified_compared >= 20
    report(8, f"200/200 instances recovered, worst {worst_ms:.0f} ms; "
              f"box-scan oracle matched on {oracle_compared} boxes "
              f"({certified_compared} inside the certified regime)")


def test_criterion_09_trivariate_reduction():
    rng = random.Random(909)
    compared = 0
    while compared < 50:
        n, p, q = balanced_semiprime(rng, rng.randrange(30, 44))
        p0 = p + rng.randrange(-3, 4)
        if p0 < 2:
            continue
        tri = TrivariateProblem(N=n, P0=p0, M=q, a_max=0, z_max=1, X=8, Y=8)
        flat = BivariateProblem(N=n, P0=p0, Q0=q, X=8, Y=8)
        try:
            got = [(s.x0, s.y0, s.p, s.q) for s in solve_trivariate(tri)]
        except Exhausted:
            got = None
        try:
            want = [(s.x0, s.y0, s.p, s.q) for s in solve_bivariate(flat)]
        except NoRoot:
            want = None
        assert got == want
        compared += 1

    recovered = []
    for z0 in (3, 7, 11):
        from factorlab.arith import next_prime

        q = next_prime(2**17 + 1000 * z0)
        p = next_prime(2**17 + 7)
        a = (-q) % z0
        mult = (q + a) // z0
        prob = TrivariateProblem(
            N=p * q, P0=p, M=mult, a_max=max(z0, 10) - 1, z_max=z0 + 4, X=8, Y=8
        )
        sols = solve_trivariate(prob)
        assert sols[0].z0 == z0
        assert any(s.p in (p, q) for s in sols)
        recovered.append(z0)
    report(9, f"50 singleton reductions bit-exact; z0 recovered ascending for {recovered}")


def test_criterion_10_envelope_substitutes_for_unproven_range():
    # The cube-root root-range claim has no construction to reproduce, so the
    # artifact measures the one-shot envelope and asserts only the certified
    # regime; the CLI report carries the certified flag.
    envelope = empirical_envelope(bits=64, instances=2, seed=1010, exponents=(8, 12, 16, 20))
    for entry in envelope:
        print(f"    envelope: n={entry['n']} X=2^{entry['x_log2']} "
              f"certified={entry['certified']} one_shot={entry['one_shot']}")
    assert any(e["certified"] for e in envelope)
    assert any(not e["certified"] for e in envelope)
    # inside the certified regime the full pipeline must recover the factors
    rng = random.Random(1011)
    for _ in range(10):
        n, p, q = balanced_semiprime(rng, 48)
        x_bound = 64  # tiny box: X*Y far below W^(2/3)
        p0 = p - rng.randrange(0, x_bound // 2)
        prob = BivariateProblem(N=n, P0=p0, Q0=n // p0, X=x_bound, Y=2 * x_bound)
        assert certified_regime(prob)
        sols = solve_bivariate(prob)
        assert any(s.p in (p, q) for s in sols)
    # the substitution is visible in the report output
    in_regime = run(RunConfig(command="factor", method="theorem4", n=10807, mod=100))
    assert in_regime.certified is True
    out_of_regime = run(
        RunConfig(command="factor", method="coppersmith-msb", n=4305481, p0=2060)
    )
    assert out_of_regime.certified is False
    assert out_of_regime.factors == (2063, 2087)
    assert "certified" in out_of_regime.to_json_obj()
    report(10, "one-shot envelope measured; certified regime asserted; "
               "certified flag present in reports")


def test_criterion_11_howgrave_constructive():
    rng = random.Random(1111)
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    verified = 0
    while verified < 100:
        a, b = rng.randrange(-40, 41), rng.randrange(-40, 41)
        g = MultiPoly(2, {(rng.randrange(2), rng.randrange(2)): rng.randrange(1, 9)})
        h = MultiPoly(2, {(rng.randrange(2), rng.randrange(2)): rng.randrange(1, 9)})
        f = (x - a) * g + (y - b) * h
        if f.is_zero:
            continue
        bounds = (abs(a) + rng.randrange(1, 6), abs(b) + rng.randrange(1, 6))
        scaled = norms(scale_vars(f, bounds))
        modulus = scaled.l2_sq * scaled.weight + 1
        assert howgrave_predicate(f, modulus, bounds)
        assert f.evaluate((a, b)) % modulus == 0
        assert f.evaluate((a, b)) == 0  # root modulo the modulus is a root over Z
        verified += 1
    report(11, "100 constructed predicate-holding cases evaluate to 0 over Z")
