"""Shared helpers: brute-force oracles and instance construction."""

from __future__ import annotations

import faulthandler
import importlib.util
import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from factorlab import coppersmith
from factorlab.arith import (
    Factorization,
    is_perfect_square,
    isqrt,
    next_prime,
    random_prime,
)
from factorlab.coppersmith import (
    BivariateProblem,
    RootSolution,
    TrivariateProblem,
    solve_bivariate,
)
from factorlab.errors import DependentBasis, Exhausted, NoRoot, TrivialOnly
from factorlab.fermat import FermatResult
from factorlab.residue import (
    ResiduePair,
    _split,
    pair_driver,
    theorem4_pairs,
)

REPO = Path(__file__).resolve().parents[1]

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# A test still running after this many seconds dumps every thread's stack
# and ends the run with exit 1, so a kernel that stops terminating fails in
# minutes.  The slowest test takes about 5 s.  Not an exception raised from
# SIGALRM: Hypothesis would re-run the hanging example while shrinking.
TEST_TIME_LIMIT_S = 120
_stderr_fd = 2


def pytest_configure(config):
    # a copy of fd 2 taken outside capture: pytest redirects fd 2 during
    # each test, which would swallow the dump
    global _stderr_fd
    _stderr_fd = os.dup(2)


@pytest.fixture(autouse=True)
def _time_limit():
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True, file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()


def box_oracle(prob: BivariateProblem) -> list[tuple[int, int, int, int]]:
    """Exhaustive scan of the (x, y) box: every (x0, y0, p, q) with
    (m*x0 + P0)(m*y0 + Q0) = N and p > 0, the roots solve_bivariate
    returns.  Independent of the lattice route."""
    found = []
    for x in range(-prob.X, prob.X + 1):
        p = prob.m * x + prob.P0
        if p <= 0 or prob.N % p:
            continue
        q = prob.N // p
        if (q - prob.Q0) % prob.m:
            continue
        y = (q - prob.Q0) // prob.m
        if abs(y) <= prob.Y:
            found.append((x, y, p, q))
    return sorted(found)


def lsb_problem(n: int, x0: int, k: int) -> BivariateProblem:
    """The box that solve_lsb_known(n, x0, k) searches, for odd n and x0:
    p = 2^k*x + c and q = 2^k*y + d with c = x0 mod 2^k, c*d = n mod 2^k."""
    mod = 1 << k
    c = x0 % mod
    return BivariateProblem(
        N=n, P0=c, Q0=n * pow(c, -1, mod) % mod,
        X=isqrt(n) // mod + 1, Y=2 * isqrt(n) // mod + 1, m=mod,
    )


def reference_difference_scan(n: int, max_steps: int | None) -> FermatResult:
    """The difference-of-squares scan tested position by position, with no
    sieve: the oracle for fermat._difference_scan (same results, steps and
    exceptions)."""
    four_n = 4 * n
    x = isqrt(four_n)
    if x * x < four_n:
        x += 1
    steps = 0
    while x <= n + 1:
        steps += 1
        if max_steps is not None and steps > max_steps:
            raise Exhausted(f"no solution within {max_steps} steps")
        y = is_perfect_square(x * x - four_n)
        if y is not None:
            p, q = (x - y) // 2, (x + y) // 2
            if p >= 2:
                return FermatResult(p, q, steps)
            if p == 1:
                raise TrivialOnly(f"{n} admits only the trivial split 1 x {n}")
        x += 1
    raise Exhausted("scan passed the trivial solution")


def reference_landry_pepin(n: int, m: int, mod2: int, c: int, d: int, t_bound: int):
    """The Landry-Pepin scan tested at every t, with no sieve: the oracle for
    residue.landry_pepin on arguments that pass its preconditions."""
    mn = m * mod2
    z0 = (n + c * d) % mn
    four_cdn = 4 * c * d * n
    two_d = 2 * d
    for t in range(t_bound + 1):
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
                    return _split(n, root)
    raise Exhausted(f"no factor within t <= {t_bound}")


def reference_square_candidates(base: int, stride: int, offsets: tuple[int, ...], count: int):
    """The block sieve of arith.square_candidates as it was before it stepped
    over the one class mod 2^e that mod 64 allows: every position j, the
    patterns built from (base, stride) itself, survivors taken from the low
    bit.  The oracle for its yields (the same positions in the same order)."""
    moduli = (64, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    merged_max, block_first, block_cap = 1 << 12, 1 << 10, 1 << 16

    def repeat(bits: int, period: int, width: int) -> tuple[int, int]:
        while period < width:
            bits |= bits << period
            period *= 2
        return bits, period

    def merge(pats: list[tuple[int, int]]) -> list[list[int]]:
        merged: list[tuple[int, int]] = []
        for q, bits in pats:
            if merged and merged[-1][0] * q <= merged_max:
                q0, bits0 = merged.pop()
                width = q0 * q
                bits = repeat(bits0, q0, width)[0] & repeat(bits, q, width)[0] & ((1 << width) - 1)
                q = width
            merged.append((q, bits))
        return [[q, bits, q] for q, bits in merged]

    patterns: list[list[tuple[int, int]]] = [[] for _ in offsets]
    for q in moduli:
        squares = {i * i % q for i in range(q)}
        for off, pats in zip(offsets, patterns):
            bits = sum(1 << j for j in range(q) if ((base + stride * j) ** 2 + off) % q in squares)
            if bits != (1 << q) - 1:
                pats.append((q, bits))
    sieves = [merge(pats) for pats in patterns if all(bits for _, bits in pats)]
    start, size = 0, block_first
    while start < count and sieves:
        n = min(size, count - start)
        mask = 0
        for pats in sieves:
            block = (1 << n) - 1
            for pat in pats:
                q, rep, length = pat
                if length < n + q:
                    rep, length = repeat(rep, length, n + q)
                    pat[1:] = rep, length
                block &= rep >> (start % q)
            mask |= block
        found = 0
        while mask:
            low = mask & -mask
            yield start + low.bit_length() - 1
            mask ^= low
            found += 1
        start += n
        size = min(2 * size, block_cap) if found * 256 < n else block_first


def pair_tuples(pairs: list[ResiduePair]) -> list[tuple[int, int]]:
    """The (c, d) of each residue pair, in the list's order."""
    return [(pair.c, pair.d) for pair in pairs]


def reference_algorithm_one(n: int, m: int) -> list[ResiduePair]:
    """The paper's square-difference scan, written out: for every lift
    cd = r0 + j*m below m^2 (r0 = n mod m) and every x in
    [ceil(2*sqrt(cd)), 2m) with x^2 - 4cd = y^2, keep the reduced pair
    ((x+y)/2 mod m, (x-y)/2 mod m) when both residues are nonzero.  The
    oracle for residue.algorithm_one on a prime m coprime to n."""
    pairs = set()
    for cd in range(n % m, m * m, m):
        if cd == 0:
            continue
        x_lo = isqrt(4 * cd)
        if x_lo * x_lo < 4 * cd:
            x_lo += 1
        for x in range(x_lo, 2 * m):
            y = is_perfect_square(x * x - 4 * cd)
            if y is not None and (x - y) % 2 == 0:
                c, d = ((x + y) // 2) % m, ((x - y) // 2) % m
                if c != 0 and d != 0:
                    pairs.add(ResiduePair(min(c, d), max(c, d)))
    return sorted(pairs)


def reference_lll_rows(
    rows: list[list[int]], swaps: list[int] | None = None
) -> list[list[int]]:
    """The general integral LLL kernel at delta = 3/4 (Cohen, Alg. 2.6.7),
    with Gram determinants d and scaled lam[i][j] = d[j+1] * mu[i][j] in
    lists: the oracle for lattice.lll_rows (same rows, same exceptions).
    Reduces `rows` in place and returns it; appends the k of each swap to
    `swaps` when given."""
    n = len(rows)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        row_i = rows[i]
        for j in range(i + 1):
            s = sum(a * b for a, b in zip(row_i, rows[j]))
            for t in range(j):
                s = (d[t + 1] * s - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = s
            else:
                if s <= 0:
                    raise DependentBasis(f"row {i} is in the span of the earlier rows")
                d[i + 1] = s

    def size_reduce(k: int, j: int) -> None:
        dj = d[j + 1]
        if 2 * abs(lam[k][j]) > dj:
            q = (2 * lam[k][j] + dj) // (2 * dj)
            rows[k] = [a - q * c for a, c in zip(rows[k], rows[j])]
            lam[k][j] -= q * dj
            for t in range(j):
                lam[k][t] -= q * lam[j][t]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        lam_k = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * lam_k * lam_k:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
        else:
            if swaps is not None:
                swaps.append(k)
            rows[k - 1], rows[k] = rows[k], rows[k - 1]
            for j in range(k - 1):
                lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
            d_new = (d[k - 1] * d[k + 1] + lam_k * lam_k) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_k * t) // d[k]
                lam[i][k - 1] = (d_new * t + lam_k * lam[i][k]) // d[k + 1]
            d[k] = d_new
            k = max(k - 1, 1)
    return rows


def reference_lll3(rows: list[list[int]]) -> None:
    """lattice._lll3 as it was, updating lambda_20 and lambda_21 at each
    k = 1 swap and d3 from the Gram-Schmidt recurrence: the oracle for the
    unrolled kernel's work (same rows, same exceptions), patched in for it."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    d1 = a0 * a0 + a1 * a1 + a2 * a2
    if d1 <= 0:
        raise DependentBasis("row 0 is in the span of the earlier rows")
    l10 = b0 * a0 + b1 * a1 + b2 * a2
    d2 = d1 * (b0 * b0 + b1 * b1 + b2 * b2) - l10 * l10
    if d2 <= 0:
        raise DependentBasis("row 1 is in the span of the earlier rows")
    l20 = c0 * a0 + c1 * a1 + c2 * a2
    l21 = d1 * (c0 * b0 + c1 * b1 + c2 * b2) - l20 * l10
    d3 = (d2 * (d1 * (c0 * c0 + c1 * c1 + c2 * c2) - l20 * l20) - l21 * l21) // d1
    if d3 <= 0:
        raise DependentBasis("row 2 is in the span of the earlier rows")
    while True:
        while True:  # k = 1
            if 2 * abs(l10) > d1:
                q = (2 * l10 + d1) // (2 * d1)
                b0 -= q * a0
                b1 -= q * a1
                b2 -= q * a2
                l10 -= q * d1
            if 4 * d2 >= 3 * d1 * d1 - 4 * l10 * l10:
                break
            a0, a1, a2, b0, b1, b2 = b0, b1, b2, a0, a1, a2
            d_new = (d2 + l10 * l10) // d1
            t = l21
            l21 = (d2 * l20 - l10 * t) // d1
            l20 = (d_new * t + l10 * l21) // d2
            d1 = d_new
        # k = 2
        if 2 * abs(l21) > d2:
            q = (2 * l21 + d2) // (2 * d2)
            c0 -= q * b0
            c1 -= q * b1
            c2 -= q * b2
            l21 -= q * d2
            l20 -= q * l10
        if 4 * d3 * d1 >= 3 * d2 * d2 - 4 * l21 * l21:
            if 2 * abs(l20) > d1:
                q = (2 * l20 + d1) // (2 * d1)
                c0 -= q * a0
                c1 -= q * a1
                c2 -= q * a2
            break
        b0, b1, b2, c0, c1, c2 = c0, c1, c2, b0, b1, b2
        l10, l20 = l20, l10
        d2 = (d1 * d3 + l21 * l21) // d2
    rows[:] = [a0, a1, a2], [b0, b1, b2], [c0, c1, c2]


def reference_howgrave_halfwidth(big_n: int, lead: int, bound: int) -> int:
    """coppersmith._howgrave_halfwidth as it was, by bisection: the largest
    h with 216 * N^2 * lead^4 * h^6 < bound^6."""
    h6 = (bound**6 - 1) // (216 * big_n * big_n * lead**4)
    lo, hi = 0, 1 << (h6.bit_length() // 6 + 1)  # lo^6 <= h6 < hi^6
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**6 <= h6:
            lo = mid
        else:
            hi = mid
    return lo


def reference_univariate_interval(
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
    """coppersmith._univariate_interval as it was, building every basis row
    from a tuple of polynomials by one comprehension: the oracle for the
    attempts' work, patched in for it.  Reduces through coppersmith.lll_rows,
    looked up at each call."""
    big_n, m = prob.N, prob.m
    xc = s + half
    bound = m * s + prob.P0
    stats["boxes"] = stats.get("boxes", 0) + 1
    if warm:
        centre, polys = warm
        d = xc - centre
    else:
        a = (m * xc + prob.P0) * inv % big_n
        polys, d = ((big_n, 0, 0), (a, lead, 0), (0, a, lead)), 0
    scale = max(half, 1)
    scale_sq = scale * scale
    rows = [
        [g0 + (g1 + g2 * d) * d, (g1 + 2 * g2 * d) * scale, g2 * scale_sq]
        for g0, g1, g2 in polys
    ]
    # p = at_xc + m*t; the columns are t = lo (s) up to limit - 1 (end)
    lo, limit, at_xc = -half, end - xc + 1, bound + m * half
    polys, best, reach = [], None, lo  # reach: the first t not vouched for
    for v0, v1, v2 in coppersmith.lll_rows(rows)[0]:
        g = g0, g1, g2 = v0, v1 // scale, v2 // scale_sq
        polys.append(g)
        if (
            reach < limit
            and abs(g0 + (g1 + g2 * reach) * reach) < at_xc + m * reach
            and abs(g0 + (g1 + g2 * lo) * lo) < bound  # covers s
        ):
            r = min(
                coppersmith._first_failure(-g2, m - g1, at_xc - g0, lo, limit),
                coppersmith._first_failure(g2, m + g1, at_xc + g0, lo, limit),
            )
            if r > reach:
                best, reach = g, r
    warm[:] = xc, polys
    if best is None:
        return None
    stats["lattice_dim"] = 3
    g0, g1, g2 = best
    for tr in coppersmith._quad_roots(g2, g1, g0, lo, reach - 1):
        coppersmith._record(prob, xc + tr, roots)
    return xc + reach - 1


def reference_theorem4_driver(
    big_n: int, m: int, divisors: tuple[int, ...] | None = None
) -> Factorization:
    """theorem4_driver with each pair's box searched by box_oracle, or, given
    the divisors of N above 1, checked at those alone: the oracle for
    coppersmith.theorem4_driver (same results and exceptions)."""

    def solve(pair: ResiduePair) -> list[int]:
        bound = 3 * isqrt(big_n) // (2 * m) + 2
        prob = BivariateProblem(N=big_n, P0=pair.c, Q0=pair.d, X=bound, Y=bound, m=m)
        if divisors is None:
            return [p for _, _, p, _ in box_oracle(prob)]
        return [
            p for p in divisors
            if (p - pair.c) % m == 0 and abs(p - pair.c) // m <= bound
            and (big_n // p - pair.d) % m == 0
            and abs(big_n // p - pair.d) // m <= bound
        ]

    return pair_driver(big_n, m, theorem4_pairs, solve)


def reference_theorem4_pairs(n: int, m: int) -> list[ResiduePair]:
    """theorem4_pairs as it was, splitting both lifts r and r + m of n mod m
    whatever their size: the oracle pair source for theorem4's outcomes."""
    r = n % m
    return [
        ResiduePair(c, cd // c)
        for cd in (r, r + m) if cd > 0
        for c in range(1, isqrt(cd) + 1) if cd % c == 0
    ]


def reference_theorem4_full_walk(
    big_n: int, m: int, stats: dict | None = None
) -> Factorization:
    """theorem4_driver with each pair's box walked whole by solve_bivariate,
    as before the walk stopped at a pair's first proper divisor: the oracle
    for its cli.run reports (stats accumulate the same way) and the baseline
    for its attempt count."""
    if stats is None:
        stats = {}

    def solve(pair: ResiduePair) -> list[int]:
        bound = 3 * isqrt(big_n) // (2 * m) + 2
        prob = BivariateProblem(N=big_n, P0=pair.c, Q0=pair.d, X=bound, Y=bound, m=m)
        try:
            return [sol.p for sol in solve_bivariate(prob, stats)]
        except NoRoot:
            return []

    return pair_driver(big_n, m, theorem4_pairs, solve)


def perfbench_workloads():
    """perfbench/workloads.py, loaded as a module: the benchmark's seeded
    instances, made without factorlab."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


def reference_solve_trivariate(prob: TrivariateProblem) -> list[RootSolution]:
    """solve_trivariate's earlier loop, which searches every candidate
    Q0 = M*z0 -/+ a of every window, a Q0 shared by overlapping windows once
    per window: the oracle for the results of coppersmith.solve_trivariate."""
    top = prob.N + prob.Y
    for z0 in range(1, prob.z_max + 1):
        base = prob.M * z0
        if base - prob.a_max > top:
            break
        for a in range(min(prob.a_max, max(base - 1, top - base)) + 1):
            for q0 in ((base - a,) if a == 0 else (base - a, base + a)):
                if q0 < 1:
                    continue
                sub = BivariateProblem(
                    N=prob.N, P0=prob.P0, Q0=q0, X=prob.X, Y=prob.Y
                )
                try:
                    found = solve_bivariate(sub)
                except NoRoot:
                    continue
                return [
                    RootSolution(x0=s.x0, y0=s.y0, p=s.p, q=s.q, z0=z0)
                    for s in found
                ]
    raise Exhausted("no (z0, a) candidate produced a factorization")


def reference_trivariate_walks(prob: TrivariateProblem):
    """coppersmith._trivariate_walks as it was with two branches: a window
    wider than the walk's width is walked outwards from M*z0, a narrower one
    whole and joined with the next windows when a narrow gap follows.  The
    oracle for the walk's work: patched in for _trivariate_walks, it gives
    the baseline lattice attempts and checked columns of each search.  Reads
    _GAP_COLUMNS and _WALK_GAPS from coppersmith at each call."""
    big_n, m, y, a_max = prob.N, prob.M, prob.Y, prob.a_max
    reach = a_max + y
    pmin, pmax = max(1, prob.P0 - prob.X), min(big_n, prob.P0 + prob.X)
    if a_max < 0 or pmin > pmax:
        return

    def columns(lo: int, hi: int) -> int:
        return min(pmax, big_n // lo) - max(pmin, big_n // hi)

    def upto(lo: int, width: int) -> int | None:
        target = min(pmax, big_n // lo) - width
        return None if target <= pmin else big_n // target

    def downto(hi: int, width: int) -> int | None:
        top = max(pmin, big_n // hi) + width
        return None if top >= pmax else big_n // (top + 1) + 1

    z0 = max(1, -((reach - big_n // pmax) // m))
    z_last = min(prob.z_max, (big_n // pmin + reach) // m)
    gaps = 1
    while z0 <= z_last:
        centre = m * z0
        lo = max(centre - m + reach + 1 if z0 > 1 else 1, centre - reach)
        h = coppersmith._howgrave_halfwidth(big_n, 1, min(pmax, big_n // lo))
        gap = max(coppersmith._GAP_COLUMNS, 4 * h)
        walk_gaps = coppersmith._WALK_GAPS
        z1, a = z0, -1
        if columns(lo, centre + reach) > gaps * gap:
            a = max(a, lo - centre - y - 1)
            while a < a_max:
                width, gaps = gaps * gap, min(2 * gaps, walk_gaps)
                left, right = centre - y - a, centre + y + a
                wider = a_max
                if (hi := upto(right + 1, width)) is not None:
                    wider = min(wider, hi - centre - y)
                if left > lo and (low := downto(left - 1, width)) is not None:
                    wider = min(wider, centre - y - low)
                new_lo, new_hi = max(lo, centre - y - wider), centre + y + wider
                if a < 0:
                    yield [(new_lo, new_hi)]
                else:
                    yield [(new_lo, left - 1), (right + 1, new_hi)]
                a = wider
        else:
            width, gaps = gaps * gap, min(2 * gaps, walk_gaps)
            next_lo = centre + m - reach
            if next_lo <= centre + reach + 1 or columns(centre + reach, next_lo) < gap:
                hi = upto(lo, width)
                z1 = z_last if hi is None else max(z0, min(z_last, (hi - reach) // m))
            yield [(lo, m * z1 + reach)]
        z0 = z1 + 1


def outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def balanced_semiprime(rng: random.Random, bits: int) -> tuple[int, int, int]:
    """Semiprime with p < q < 1.9 * p (safely inside the balanced regime)."""
    half = bits // 2
    while True:
        p = random_prime(rng, half)
        q = random_prime(rng, half)
        if p > q:
            p, q = q, p
        if p < q and 10 * q < 19 * p:
            return p * q, p, q


def close_semiprime(rng: random.Random, bits: int) -> tuple[int, int, int]:
    """Semiprime with q - p <= 4 * N**(1/4)."""
    from factorlab.arith import isqrt

    while True:
        p = random_prime(rng, bits // 2)
        cap = max(4, 1 << max(2, bits // 4))
        q = next_prime(p + rng.randrange(1, cap))
        n = p * q
        if q - p <= 4 * isqrt(isqrt(n)):
            return n, p, q


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xFAC70)
