import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorlab.lattice import (
    Basis,
    bareiss,
    determinant,
    gram_schmidt,
    hadamard_check,
    lll_reduce,
    lll_reduce_with_transform,
    lll_rows,
    shortest_vector_exhaustive,
)

from conftest import outcome, reference_lll_rows


def random_basis(rng: random.Random, max_n: int = 6, bound: int = 2**20) -> Basis:
    n = rng.randrange(2, max_n + 1)
    while True:
        rows = [[rng.randrange(-bound, bound + 1) for _ in range(n)] for _ in range(n)]
        try:
            determinant(Basis.from_rows(rows))
            return Basis.from_rows(rows)
        except ValueError:
            continue


def matmul(u, rows):
    n = len(rows)
    return tuple(
        tuple(sum(u[i][k] * rows[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


class TestGramSchmidt:
    def test_identity(self):
        gs = gram_schmidt(Basis.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        assert all(not v for row in gs.mu for v in row)
        assert gs.norms_sq == (1, 1, 1)

    def test_hand_example(self):
        gs = gram_schmidt(Basis.from_rows([(1, 1), (1, 0)]))
        assert gs.ortho[1] == (Fraction(1, 2), Fraction(-1, 2))
        assert gs.mu[1] == (Fraction(1, 2),)

    def test_collinear_rejected(self):
        with pytest.raises(ValueError, match="row 1 is in the span of the earlier rows"):
            gram_schmidt(Basis.from_rows([(2, 0), (4, 0)]))

    def test_reconstruction_and_orthogonality(self, rng):
        for _ in range(200):
            basis = random_basis(rng)
            gs = gram_schmidt(basis)
            n = basis.n
            for i in range(n):
                rebuilt = list(gs.ortho[i])
                for j in range(i):
                    for t in range(n):
                        rebuilt[t] += gs.mu[i][j] * gs.ortho[j][t]
                assert tuple(rebuilt) == tuple(map(Fraction, basis.vectors[i]))
            for i in range(n):
                for j in range(i):
                    dot = sum(a * b for a, b in zip(gs.ortho[i], gs.ortho[j]))
                    assert dot == 0

    def test_det_squared_equals_norm_product(self, rng):
        for _ in range(50):
            basis = random_basis(rng, max_n=5, bound=500)
            gs = gram_schmidt(basis)
            prod = Fraction(1)
            for ns in gs.norms_sq:
                prod *= ns
            det = determinant(basis)
            assert prod == det * det


def leibniz(rows: list[list[int]]) -> int:
    """Signed determinant as the sum over permutations: the oracle for
    fraction-free elimination."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


@st.composite
def square_matrices(draw) -> list[list[int]]:
    """1-4-dimensional integer matrices, rich in zeros, sometimes with a
    whole zero row or column forced in."""
    n = draw(st.integers(min_value=1, max_value=4))
    entry = st.one_of(
        st.just(0),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-(10**6), max_value=10**6),
    )
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    zero_row = draw(st.none() | st.integers(min_value=0, max_value=n - 1))
    zero_col = draw(st.none() | st.integers(min_value=0, max_value=n - 1))
    if zero_row is not None:
        rows[zero_row] = [0] * n
    if zero_col is not None:
        for row in rows:
            row[zero_col] = 0
    return rows


class TestDeterminant:
    def test_examples(self):
        assert determinant(Basis.from_rows([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])) == 1
        assert determinant(Basis.from_rows([(2, 0), (1, 3)])) == 6
        with pytest.raises(ValueError, match="determinant is 0"):
            determinant(Basis.from_rows([(1, 1), (2, 2)]))

    def test_row_swap_path(self):
        assert determinant(Basis.from_rows([(0, 1), (1, 0)])) == 1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Basis.from_rows([(1, 2, 3), (4, 5, 6)])

    @given(rows=square_matrices())
    @example(rows=[[0, 1], [0, 2]])  # zero pivot column at k = 0
    @example(rows=[[1, 2, 3], [2, 4, 5], [3, 6, 7]])  # ... and at k = 1
    def test_matches_leibniz_expansion(self, rows):
        expected = leibniz(rows)
        assert bareiss(rows) == expected
        if expected == 0:
            with pytest.raises(ValueError, match="determinant is 0"):
                determinant(Basis.from_rows(rows))
        else:
            assert determinant(Basis.from_rows(rows)) == abs(expected)


class TestLLL:
    def test_identity_fixed_point(self):
        ident = Basis.from_rows([(1, 0), (0, 1)])
        assert lll_reduce(ident).vectors == ident.vectors
        scaled = Basis.from_rows([(5, 0, 0), (0, 5, 0), (0, 0, 5)])
        assert lll_reduce(scaled).vectors == scaled.vectors

    def test_unimodular_det_one_basis(self):
        # [(4,1),(7,2)] has determinant 1, so it spans Z^2
        reduced = lll_reduce(Basis.from_rows([(4, 1), (7, 2)]))
        shortest = shortest_vector_exhaustive(reduced, 3)
        assert sum(x * x for x in shortest) == 1

    def test_delta_validation(self):
        for delta in (Fraction(1, 4), Fraction(5, 4), 2, "1/0"):
            with pytest.raises(ValueError):
                lll_reduce(Basis.from_rows([(1, 0), (0, 1)]), delta)
        # the default and an equal value passed explicitly reduce alike
        basis = Basis.from_rows([(4, 1), (7, 2)])
        assert lll_reduce(basis) == lll_reduce(basis, Fraction(3, 4)) == lll_reduce(basis, 0.75)

    def test_dependent_rejected(self):
        with pytest.raises(ValueError, match="row 1 is in the span of the earlier rows"):
            lll_reduce(Basis.from_rows([(2, 0), (4, 0)]))

    def test_full_contract(self, rng):
        delta = Fraction(3, 4)
        for _ in range(200):
            basis = random_basis(rng)
            n = basis.n
            det = determinant(basis)
            reduced, transform = lll_reduce_with_transform(basis, delta)
            gs = gram_schmidt(reduced)
            # size reduction
            for i in range(n):
                for j in range(i):
                    assert 2 * abs(gs.mu[i][j]) <= 1
            # Lovasz condition
            for k in range(1, n):
                assert gs.norms_sq[k] >= (delta - gs.mu[k][k - 1] ** 2) * gs.norms_sq[k - 1]
            # same lattice: integer transform with |det| = 1
            assert determinant(Basis.from_rows(transform)) == 1
            assert matmul(transform, basis.vectors) == reduced.vectors
            # first-vector quality: (||b1||^2)^n <= 2^(n(n-1)/2) det^2
            b1 = sum(x * x for x in reduced.vectors[0])
            assert b1**n <= 2 ** (n * (n - 1) // 2) * det * det
            # against the exhaustive oracle in low dimension
            if n <= 4:
                sv = shortest_vector_exhaustive(reduced, 3)
                lam1_sq = sum(x * x for x in sv)
                assert b1 <= 2 ** (n - 1) * lam1_sq


ENTRY = st.integers(min_value=-(2**70), max_value=2**70)
MATRIX3 = st.lists(st.lists(ENTRY, min_size=3, max_size=3), min_size=3, max_size=3)
# small entries meet the boundaries: 2*|lambda| = d and Lovasz with equality
SMALL3 = st.lists(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
    min_size=3,
    max_size=3,
)


@st.composite
def splitter_bases(draw):
    """The splitter's fresh basis N, f, t*f with f = lead*t + a and t scaled
    by h, or, when warm, the reduced polynomials of one shifted by s and
    rescaled by a new half-width: g(t + s) with t scaled by h2."""
    big_n = draw(st.integers(min_value=2, max_value=2**70))
    a = draw(st.integers(min_value=0, max_value=big_n - 1))
    lead = draw(st.sampled_from([1, draw(st.integers(min_value=2, max_value=2**12))]))
    h = draw(st.integers(min_value=1, max_value=2**16))
    rows = [[big_n, 0, 0], [a, lead * h, 0], [0, a * h, lead * h * h]]
    if not draw(st.booleans()):
        return rows
    reference_lll_rows(rows)
    polys = [[r[0], r[1] // h, r[2] // (h * h)] for r in rows]
    h2 = draw(st.integers(min_value=1, max_value=2 * h))
    s = draw(st.integers(min_value=-4 * h, max_value=4 * h))
    return [
        [g0 + (g1 + g2 * s) * s, (g1 + 2 * g2 * s) * h2, g2 * h2 * h2]
        for g0, g1, g2 in polys
    ]


@st.composite
def nearly_reduced_bases(draw):
    """A reduced basis with one row moved by a small multiple of another, or
    two rows swapped."""
    rows = draw(MATRIX3)
    try:
        reference_lll_rows(rows)
    except ValueError:
        return rows
    i, j = draw(st.permutations(range(3)))[:2]
    c = draw(st.integers(min_value=-2, max_value=2))
    if c:
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    else:
        rows[i], rows[j] = rows[j], rows[i]
    return rows


@st.composite
def dependent_bases(draw):
    """A zero row, or one row an integer combination of the other two."""
    rows = draw(MATRIX3)
    i = draw(st.integers(min_value=0, max_value=2))
    x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    j, k = [r for r in range(3) if r != i]
    rows[i] = [x * u + y * v for u, v in zip(rows[j], rows[k])]
    return rows


class TestDim3Kernel:
    @given(
        rows=st.one_of(
            MATRIX3, SMALL3, splitter_bases(), nearly_reduced_bases(), dependent_bases()
        )
    )
    @example(rows=[[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    @example(rows=[[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    @example(rows=[[1, 2, 3], [0, 1, 1], [1, 3, 4]])
    @example(rows=[[5, 0, 0], [0, 5, 0], [0, 0, 5]])
    @example(rows=[[2, -2, 0], [1, -1, -2], [-3, 1, 3]])  # Lovasz equality at k = 2
    @settings(max_examples=500)
    def test_matches_general_kernel(self, rows):
        # lll_rows on 3x3 bases runs the unrolled kernel: the same rows as
        # the general one, reduced in the caller's list, or the same error
        expected = outcome(reference_lll_rows, [list(r) for r in rows])
        given_rows = [list(r) for r in rows]
        got = outcome(lll_rows, given_rows)
        if isinstance(expected, list):
            assert got[0] is given_rows and got[1] is None
            assert given_rows == expected
        else:
            assert got == expected


    def test_splitter_bases_with_swap_runs(self):
        # fresh splitter bases (N, f, t*f) need many swaps, and a shifted
        # reduced basis mostly needs a run of k = 1 swaps and then a k = 2
        # swap, which reads row 2's scaled coefficients recomputed after
        # the run
        rng = random.Random(2607)
        long_runs = deferred = 0
        for _ in range(150):
            big_n = rng.randrange(2**40, 2**70)
            a, h = rng.randrange(big_n), rng.randrange(1, 2**16)
            lead = rng.choice([1, rng.randrange(2, 2**12)])
            rows = [[big_n, 0, 0], [a, lead * h, 0], [0, a * h, lead * h * h]]
            swaps = []
            expected = reference_lll_rows([list(r) for r in rows], swaps)
            assert lll_rows(rows)[0] == expected
            long_runs += len(swaps) >= 8
            polys = [[r[0], r[1] // h, r[2] // (h * h)] for r in rows]
            s, h2 = rng.randrange(2 * h, 4 * h + 1), rng.randrange(h, 2 * h + 1)
            rows = [
                [g0 + (g1 + g2 * s) * s, (g1 + 2 * g2 * s) * h2, g2 * h2 * h2]
                for g0, g1, g2 in polys
            ]
            swaps = []
            expected = reference_lll_rows([list(r) for r in rows], swaps)
            assert lll_rows(rows)[0] == expected
            deferred += (1, 2) in zip(swaps, swaps[1:])
        assert long_runs >= 140 and deferred >= 75, (long_runs, deferred)

    @pytest.mark.parametrize(
        "rows, row",
        [
            ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], 0),
            ([[1, 2, 3], [-2, -4, -6], [0, 0, 1]], 1),
            ([[1, 2, 3], [0, 1, 1], [2, 5, 7]], 2),
            ([[3, 0, 0], [0, 5, 0], [0, 0, 0]], 2),
        ],
    )
    def test_dependent_messages(self, rows, row):
        message = f"row {row} is in the span of the earlier rows"
        with pytest.raises(ValueError) as general:
            reference_lll_rows([list(r) for r in rows])
        with pytest.raises(ValueError) as unrolled:
            lll_rows([list(r) for r in rows])
        assert str(general.value) == str(unrolled.value) == message


class TestHadamard:
    def test_identity_equality(self):
        assert hadamard_check(Basis.from_rows([(1, 0), (0, 1)]))

    def test_hand_example(self):
        assert hadamard_check(Basis.from_rows([(1, 1), (1, 0)]))  # 1 <= 2 squared

    def test_random(self, rng):
        for _ in range(50):
            assert hadamard_check(random_basis(rng, max_n=5, bound=1000))


class TestShortestVector:
    def test_identity_tiebreak(self):
        assert shortest_vector_exhaustive(Basis.from_rows([(1, 0), (0, 1)]), 2) == (0, 1)

    def test_rectangular(self):
        assert shortest_vector_exhaustive(Basis.from_rows([(2, 0), (0, 3)]), 2) == (2, 0)

    def test_dimension_cap(self):
        ident6 = Basis.from_rows([[1 if i == j else 0 for j in range(6)] for i in range(6)])
        with pytest.raises(ValueError, match="exhaustive oracle supports n <= 5"):
            shortest_vector_exhaustive(ident6, 1)

