"""Exact integer-lattice machinery.

Gram-Schmidt runs over exact rationals, LLL keeps its size-reduction and
Lovasz bookkeeping in integers (Gram determinants and scaled mu) with the
classical O(n) swap updates, and bareiss is the one fraction-free
elimination behind both the basis determinant and the polynomial
resultant, so every contract here is bit-exact and testable without
tolerances.

lll_rows hands 3x3 bases at the default delta without a transform, the
coppersmith splitter's, to _lll3: the same steps written out for n = 3,
with the same swaps and rows, in well under half the time.  Row 2's scaled
coefficients are recomputed from the rows after a run of k = 1 swaps
instead of being updated at each swap.  All other calls run the general
kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .arith import as_fraction

__all__ = [
    "Basis",
    "GramSchmidtData",
    "determinant",
    "gram_schmidt",
    "hadamard_check",
    "lll_reduce",
    "lll_reduce_with_transform",
    "shortest_vector_exhaustive",
]

# The default Lovasz parameter; the only one the solvers use, so lll_rows
# checks a delta against (1/4, 1] only when a caller passes another.
LLL_DELTA = Fraction(3, 4)


@dataclass(frozen=True)
class Basis:
    """Square integer basis; rows are the lattice vectors."""

    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.vectors)
        if n == 0:
            raise ValueError("basis must be nonempty")
        for row in self.vectors:
            if len(row) != n:
                raise ValueError("basis must be square")

    @classmethod
    def from_rows(cls, rows) -> "Basis":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class GramSchmidtData:
    """Exact orthogonalization: v_i = v*_i + sum_{j<i} mu[i][j] * v*_j."""

    ortho: tuple[tuple[Fraction, ...], ...]
    mu: tuple[tuple[Fraction, ...], ...]  # row i holds mu[i][j] for j < i
    norms_sq: tuple[Fraction, ...]


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), start=Fraction(0))


def gram_schmidt(basis: Basis) -> GramSchmidtData:
    """Exact rational orthogonalization of the basis rows."""
    ortho: list[tuple[Fraction, ...]] = []
    mu: list[tuple[Fraction, ...]] = []
    norms: list[Fraction] = []
    for i, row in enumerate(basis.vectors):
        coeffs = tuple(_dot(row, b) / ns for b, ns in zip(ortho, norms))
        w = [Fraction(x) for x in row]
        for c, b in zip(coeffs, ortho):
            w = [a - c * e for a, e in zip(w, b)]
        ns = _dot(w, w)
        if ns == 0:
            raise ValueError(f"row {i} is in the span of the earlier rows")
        ortho.append(tuple(w))
        mu.append(coeffs)
        norms.append(ns)
    return GramSchmidtData(ortho=tuple(ortho), mu=tuple(mu), norms_sq=tuple(norms))


def bareiss(matrix):
    """Signed determinant of a square matrix of ints or MultiPolys by
    fraction-free (Bareiss) elimination: every division is exact, so the
    entries stay in the ring.  A zero pivot column returns its zero entry."""
    n = len(matrix)
    a = [list(r) for r in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[n - 1][n - 1] * sign


def determinant(basis: Basis) -> int:
    """|det| of the basis matrix; a ValueError when it is 0."""
    det = bareiss(basis.vectors)
    if det == 0:
        raise ValueError("determinant is 0")
    return abs(det)


def lll_rows(
    rows: list[list[int]],
    delta: Fraction = LLL_DELTA,
    transform: bool = False,
) -> tuple[list[list[int]], list[list[int]] | None]:
    """All-integer LLL core (Gram determinants d_i and scaled coefficients
    lambda[i][j] = d_{j+1} * mu[i][j] stay in Z, so no rational arithmetic
    is needed).  Reduces `rows` in place and returns it; optionally tracks
    the unimodular transform.  A delta other than LLL_DELTA is read by as_fraction.

    A 3x3 basis at LLL_DELTA with no transform (the splitter's bases) goes
    to _lll3, which runs these steps unrolled (row 2's bookkeeping aside), so
    the swaps, the reduced rows and a dependent basis's ValueError are the same."""
    if delta is LLL_DELTA and not transform and len(rows) == 3:
        _lll3(rows)
        return rows, None
    if delta is not LLL_DELTA:
        delta = as_fraction(delta)
        if not Fraction(1, 4) < delta <= 1:
            raise ValueError("delta must lie in (1/4, 1]")
    num, den = delta.numerator, delta.denominator
    n = len(rows)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if transform else None

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
                    raise ValueError(f"row {i} is in the span of the earlier rows")
                d[i + 1] = s

    def size_reduce(k: int, j: int) -> None:
        dj = d[j + 1]
        if 2 * abs(lam[k][j]) > dj:
            q = (2 * lam[k][j] + dj) // (2 * dj)
            rows[k] = [a - q * c for a, c in zip(rows[k], rows[j])]
            if u is not None:
                u[k] = [a - q * c for a, c in zip(u[k], u[j])]
            lam[k][j] -= q * dj
            for t in range(j):
                lam[k][t] -= q * lam[j][t]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        lam_k = lam[k][k - 1]
        # Lovasz at delta = num/den: d[k+1]*d[k-1] >= delta*d[k]^2 - lambda^2,
        # cleared of denominators.
        if den * d[k + 1] * d[k - 1] >= num * d[k] * d[k] - den * lam_k * lam_k:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
        else:
            rows[k - 1], rows[k] = rows[k], rows[k - 1]
            if u is not None:
                u[k - 1], u[k] = u[k], u[k - 1]
            for j in range(k - 1):
                lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
            d_new = (d[k - 1] * d[k + 1] + lam_k * lam_k) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_k * t) // d[k]
                lam[i][k - 1] = (d_new * t + lam_k * lam[i][k]) // d[k + 1]
            d[k] = d_new
            k = max(k - 1, 1)
    return rows, u


def _lll3(rows: list[list[int]]) -> None:
    """lll_rows at LLL_DELTA on a 3x3 basis a, b, c, with d1, d2, d3 and the
    scaled lambda_10, lambda_20, lambda_21 in locals.  Each size reduction,
    Lovasz test (4*e >= 3*d_k^2, e = d_{k+1}*d_{k-1} + lambda^2, which a
    swap divides by d_k for the new d_k) and swap is the general kernel's
    for k = 1 or 2, in its order, so it returns the same rows.  Row 2's
    integers come from the rows instead: d3 = det^2, which no step changes,
    and, after each run of k = 1 swaps (which never read them), lambda_20 =
    <c, a> and lambda_21 = d1*<c, b> - lambda_20*lambda_10.  Each d is
    checked, with the general kernel's message, before anything divides by
    it.  Reduces `rows` in place."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    d1 = a0 * a0 + a1 * a1 + a2 * a2
    if d1 <= 0:
        raise ValueError("row 0 is in the span of the earlier rows")
    l10 = b0 * a0 + b1 * a1 + b2 * a2
    d2 = d1 * (b0 * b0 + b1 * b1 + b2 * b2) - l10 * l10
    if d2 <= 0:
        raise ValueError("row 1 is in the span of the earlier rows")
    d3 = a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
    if not d3:
        raise ValueError("row 2 is in the span of the earlier rows")
    d3 *= d3
    stale = True  # lambda_20 and lambda_21 are not computed yet
    while True:
        while True:  # k = 1
            if 2 * abs(l10) > d1:
                q = (2 * l10 + d1) // (2 * d1)
                b0 -= q * a0
                b1 -= q * a1
                b2 -= q * a2
                l10 -= q * d1
            e = d2 + l10 * l10
            if 4 * e >= 3 * d1 * d1:
                break
            a0, a1, a2, b0, b1, b2 = b0, b1, b2, a0, a1, a2
            d1 = e // d1
            stale = True
        if stale:
            l20 = c0 * a0 + c1 * a1 + c2 * a2
            l21 = d1 * (c0 * b0 + c1 * b1 + c2 * b2) - l20 * l10
            stale = False
        # k = 2
        if 2 * abs(l21) > d2:
            q = (2 * l21 + d2) // (2 * d2)
            c0 -= q * b0
            c1 -= q * b1
            c2 -= q * b2
            l21 -= q * d2
            l20 -= q * l10
        e = d1 * d3 + l21 * l21
        if 4 * e >= 3 * d2 * d2:
            if 2 * abs(l20) > d1:
                q = (2 * l20 + d1) // (2 * d1)
                c0 -= q * a0
                c1 -= q * a1
                c2 -= q * a2
            break
        b0, b1, b2, c0, c1, c2 = c0, c1, c2, b0, b1, b2
        l10, l20 = l20, l10
        d2 = e // d2
    rows[:] = [a0, a1, a2], [b0, b1, b2], [c0, c1, c2]


def lll_reduce_with_transform(
    basis: Basis, delta: Fraction = LLL_DELTA
) -> tuple[Basis, tuple[tuple[int, ...], ...]]:
    """LLL-reduce the basis; also return the unimodular transform U with
    U @ basis == reduced.

    The output is size-reduced (|mu[i][j]| <= 1/2) and satisfies the Lovasz
    condition at `delta` for consecutive rows.
    """
    rows, u = lll_rows([list(r) for r in basis.vectors], delta, transform=True)
    return Basis.from_rows(rows), tuple(tuple(r) for r in u)


def lll_reduce(basis: Basis, delta: Fraction = LLL_DELTA) -> Basis:
    """LLL-reduced basis spanning the same lattice."""
    rows, _ = lll_rows([list(r) for r in basis.vectors], delta)
    return Basis.from_rows(rows)


def hadamard_check(basis: Basis) -> bool:
    """det(L)^2 <= prod ||v_i||^2, compared exactly (always true)."""
    det = determinant(basis)
    prod = 1
    for row in basis.vectors:
        prod *= sum(x * x for x in row)
    return det * det <= prod


def shortest_vector_exhaustive(basis: Basis, coeff_bound: int) -> tuple[int, ...]:
    """Minimal-norm nonzero vector over all |coefficient| <= coeff_bound
    combinations; ties broken toward the sign-canonical lexicographic least.

    Oracle use only; dimension is capped at 5.
    """
    n = basis.n
    if n > 5:
        raise ValueError("exhaustive oracle supports n <= 5")
    best: tuple[int, tuple[int, ...]] | None = None
    for coeffs in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=n):
        if not any(coeffs):
            continue
        vec = [0] * n
        for c, row in zip(coeffs, basis.vectors):
            if c:
                for idx, x in enumerate(row):
                    vec[idx] += c * x
        for x in vec:
            if x:
                if x < 0:
                    vec = [-v for v in vec]
                break
        else:
            continue  # dependent rows can produce the zero vector
        key = (sum(x * x for x in vec), tuple(vec))
        if best is None or key < best:
            best = key
    if best is None:
        raise ValueError("no nonzero vector found")
    return best[1]

