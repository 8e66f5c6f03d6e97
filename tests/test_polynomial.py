import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab.polynomial import (
    MultiPoly,
    discriminant,
    format_poly,
    howgrave_predicate,
    norms,
    parse_poly,
    resultant,
    scale_vars,
)


def rand_univariate(rng: random.Random, deg: int, bound: int = 9) -> MultiPoly:
    while True:
        terms = {(d,): rng.randrange(-bound, bound + 1) for d in range(deg + 1)}
        poly = MultiPoly(1, terms)
        if poly.degree(0) == deg:
            return poly


small_polys = st.builds(
    lambda pairs: MultiPoly(2, {(i, j): c for (i, j), c in pairs} or {(0, 0): 1}),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(-50, 50),
        ),
        max_size=6,
    ),
)


class TestMultiPolyBasics:
    def test_parse_and_format_roundtrip(self):
        f = parse_poly("3*x1^2*x2 - 5")
        assert f.terms == {(2, 1): 3, (0, 0): -5}
        assert parse_poly(format_poly(f), 2) == f

    def test_parse_variants(self):
        assert parse_poly("-x1*x2^2 + 3", 2).terms == {(1, 2): -1, (0, 0): 3}
        assert parse_poly(" x1 +  x2+1 ", 2).terms == {(1, 0): 1, (0, 1): 1, (0, 0): 1}
        with pytest.raises(ValueError):
            parse_poly("x1 + oops")
        with pytest.raises(ValueError):
            parse_poly("")

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=100)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)

    @given(small_polys, small_polys)
    @settings(max_examples=100)
    def test_floordiv_undoes_mul(self, a, b):
        assert bool(a) is not a.is_zero
        if b:
            assert (a * b) // b == a

    def test_floordiv_errors(self):
        with pytest.raises(ArithmeticError):
            parse_poly("x1 + 1") // parse_poly("x1 - 1")
        with pytest.raises(ZeroDivisionError):
            parse_poly("x1 + 1") // MultiPoly.zero(1)

    def test_evaluate_examples(self):
        assert parse_poly("x1*x2 + 1", 2).evaluate((2, 3)) == 7
        assert parse_poly("x1^2 - 25").evaluate((5,)) == 0
        f = parse_poly("x1*x2 + 7*x1 + 3*x2 - 11", 2)
        assert f.evaluate((2, -1)) == -2 + 14 - 3 - 11

    def test_derivative(self):
        f = parse_poly("x1^3 - 6*x1^2 + 11*x1 - 6")
        assert f.derivative(0) == parse_poly("3*x1^2 - 12*x1 + 11")


class TestNorms:
    def test_examples(self):
        n = norms(parse_poly("3*x1^2*x2 - 5", 2))
        assert (n.height, n.l2_sq, n.weight) == (5, 34, 2)
        n = norms(MultiPoly.const(1, 1))
        assert (n.height, n.l2_sq, n.weight) == (1, 1, 1)
        n = norms(parse_poly("x1 + x2 + 1", 2))
        assert (n.height, n.l2_sq, n.weight) == (1, 3, 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="the zero polynomial has no norms"):
            norms(MultiPoly.zero(2))


class TestScaleVars:
    def test_examples(self):
        assert scale_vars(parse_poly("x1*x2", 2), (2, 3)).terms == {(1, 1): 6}
        assert scale_vars(parse_poly("x1^2 + x1"), (10,)).terms == {(2,): 100, (1,): 10}

    def test_factoring_family_height(self):
        # (P0 + x)(Q0 + y) - N scaled by X = Y = N**(1/4): the x-column
        # Q0 * X dominates the height
        from factorlab.arith import isqrt

        n = 2063 * 2087
        p0 = q0 = isqrt(n)
        x_bound = isqrt(isqrt(n))
        f = MultiPoly(2, {(1, 1): 1, (1, 0): q0, (0, 1): p0, (0, 0): p0 * q0 - n})
        height = norms(scale_vars(f, (x_bound, x_bound))).height
        assert height == q0 * x_bound

    def test_validation(self):
        with pytest.raises(ValueError):
            scale_vars(parse_poly("x1"), (1, 2))
        with pytest.raises(ValueError):
            scale_vars(parse_poly("x1"), (0,))


class TestResultant:
    def test_linear_example(self):
        x = MultiPoly.variable(1, 0)
        assert resultant(x - 2, x - 3, 0) == MultiPoly.const(1, -1)

    def test_sylvester_matrix_layout(self):
        from factorlab.polynomial import sylvester_matrix

        x = MultiPoly.variable(1, 0)
        matrix = sylvester_matrix(x - 2, x - 3, 0)
        one = MultiPoly.const(1, 1)
        assert matrix == [[one, one], [MultiPoly.const(1, -2), MultiPoly.const(1, -3)]]
        matrix = sylvester_matrix((x - 2) * (x + 5), x - 3, 0)
        assert len(matrix) == 3 and all(len(row) == 3 for row in matrix)

    def test_shared_factor_vanishes(self):
        x = MultiPoly.variable(1, 0)
        assert resultant(x - 2, (x - 2) * (x + 1), 0).is_zero

    def test_vanishing_iff_shared_factor(self, rng):
        for _ in range(100):
            shared = rand_univariate(rng, rng.randrange(1, 3))
            f = shared * rand_univariate(rng, rng.randrange(1, 3))
            g = shared * rand_univariate(rng, rng.randrange(1, 3))
            assert resultant(f, g, 0).is_zero
        hits = 0
        for _ in range(100):
            f = rand_univariate(rng, rng.randrange(1, 4))
            g = rand_univariate(rng, rng.randrange(1, 4))
            # construction oracle: coprime over Q iff no common complex root;
            # certify by checking the resultant against a direct root-free pair
            res = resultant(f, g, 0)
            # direct check on small degrees: common factor implies a common
            # rational of the pair's gcd; use evaluation at many points
            common_root = any(
                f.evaluate((t,)) == 0 and g.evaluate((t,)) == 0 for t in range(-60, 61)
            )
            if common_root:
                assert res.is_zero or res == MultiPoly.zero(1)
            if not res.is_zero:
                hits += 1
                assert not common_root
        assert hits > 50

    def test_reverse_sign_law(self, rng):
        for _ in range(100):
            k, m = rng.randrange(1, 4), rng.randrange(1, 4)
            f, g = rand_univariate(rng, k), rand_univariate(rng, m)
            sign = -1 if (k * m) % 2 else 1
            assert resultant(g, f, 0) == resultant(f, g, 0) * sign

    def test_multiplicativity(self, rng):
        for _ in range(100):
            f1 = rand_univariate(rng, rng.randrange(1, 3))
            f2 = rand_univariate(rng, rng.randrange(1, 3))
            g = rand_univariate(rng, rng.randrange(1, 3))
            assert resultant(f1 * f2, g, 0) == resultant(f1, g, 0) * resultant(f2, g, 0)

    def test_common_integer_root_kills_constant(self, rng):
        x = MultiPoly.variable(1, 0)
        for _ in range(40):
            r = rng.randrange(-20, 21)
            f = (x - r) * rand_univariate(rng, rng.randrange(1, 3))
            g = (x - r) * rand_univariate(rng, rng.randrange(1, 3))
            res = resultant(f, g, 0)
            assert res.is_zero or res.evaluate((0,)) == 0

    def test_specialization_homomorphism(self, rng):
        # Res(f, g, z) evaluated at (x0, y0) equals the univariate resultant
        # of the specialized polynomials, whenever the leading z-coefficients
        # survive the specialization.
        def rand3(degz):
            while True:
                poly = MultiPoly(
                    3,
                    {
                        (rng.randrange(2), rng.randrange(2), dz): rng.randrange(-6, 7)
                        for dz in range(degz + 1)
                        for _ in range(2)
                    },
                )
                if poly.degree(2) == degz:
                    return poly

        checked = 0
        while checked < 60:
            kf, kg = rng.randrange(1, 3), rng.randrange(1, 3)
            f, g = rand3(kf), rand3(kg)
            x0, y0 = rng.randrange(-4, 5), rng.randrange(-4, 5)
            if (
                f.coeffs_in(2)[kf].evaluate((x0, y0, 0)) == 0
                or g.coeffs_in(2)[kg].evaluate((x0, y0, 0)) == 0
            ):
                continue
            res = resultant(f, g, 2)
            f_spec = MultiPoly(
                1, {(d,): c.evaluate((x0, y0, 0)) for d, c in enumerate(f.coeffs_in(2))}
            )
            g_spec = MultiPoly(
                1, {(d,): c.evaluate((x0, y0, 0)) for d, c in enumerate(g.coeffs_in(2))}
            )
            assert res.evaluate((x0, y0, 0)) == resultant(f_spec, g_spec, 0).evaluate((0,))
            checked += 1

    def test_trilinear_elimination_shape(self):
        a = parse_poly("2*x1*x3 + 3*x1 + 5*x3 + 7", 3)
        b = parse_poly("11*x2*x3 + 13*x2 + 17*x3 + 19", 3)
        res = resultant(a, b, 2)
        assert res.degree(0) == 1 and res.degree(1) == 1 and res.degree(2) == 0
        # c3*x*y + c2*x + c1*y + c0 with four nonzero terms
        assert norms(res).weight == 4

    def test_constant_rejected(self):
        x = MultiPoly.variable(1, 0)
        with pytest.raises(
            ValueError, match="both polynomials must be nonconstant in variable 0"
        ):
            resultant(x - 2, MultiPoly.const(1, 5), 0)
        with pytest.raises(ValueError, match="resultant needs nonzero polynomials"):
            resultant(x, MultiPoly.zero(1), 0)


class TestDiscriminant:
    def test_examples(self):
        assert discriminant(parse_poly("x1^2 - 1"), 0) == MultiPoly.const(1, 4)
        assert discriminant(parse_poly("x1^2"), 0).is_zero
        cubic = parse_poly("x1^3 - 6*x1^2 + 11*x1 - 6")  # (x-1)(x-2)(x-3)
        assert discriminant(cubic, 0) == MultiPoly.const(1, 4)

    def test_quadratic_formula(self, rng):
        for _ in range(50):
            b, c = rng.randrange(-30, 31), rng.randrange(-30, 31)
            f = MultiPoly(1, {(2,): 1, (1,): b, (0,): c})
            assert discriminant(f, 0) == MultiPoly.const(1, b * b - 4 * c)

    def test_root_products(self, rng):
        x = MultiPoly.variable(1, 0)
        for _ in range(30):
            roots = [rng.randrange(-8, 9) for _ in range(3)]
            f = (x - roots[0]) * (x - roots[1]) * (x - roots[2])
            expected = 1
            for i in range(3):
                for j in range(i + 1, 3):
                    expected *= (roots[i] - roots[j]) ** 2
            assert discriminant(f, 0) == MultiPoly.const(1, expected)

    def test_non_monic_rejected(self):
        with pytest.raises(
            ValueError, match="discriminant is defined here for monic polynomials"
        ):
            discriminant(parse_poly("2*x1^2 + 1"), 0)
        with pytest.raises(ValueError, match="discriminant needs degree >= 2"):
            discriminant(parse_poly("x1 + 1"), 0)


class TestHowgrave:
    def test_examples(self):
        assert howgrave_predicate(parse_poly("x1 - 5"), 100, (6,)) is True
        # scaled 6x - 5: l2^2 * w = 61 * 2 = 122 < 10000
        assert howgrave_predicate(parse_poly("100*x1"), 100, (6,)) is False

    def test_constructive_integer_root(self, rng):
        # cases satisfying the hypothesis must evaluate to zero over Z
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        for _ in range(100):
            a = rng.randrange(-30, 31)
            b = rng.randrange(-30, 31)
            g = MultiPoly(2, {(rng.randrange(2), rng.randrange(2)): rng.randrange(1, 9)})
            h = MultiPoly(2, {(rng.randrange(2), rng.randrange(2)): rng.randrange(1, 9)})
            f = (x - a) * g + (y - b) * h
            if f.is_zero:
                continue
            bounds = (abs(a) + rng.randrange(1, 5), abs(b) + rng.randrange(1, 5))
            scaled = norms(scale_vars(f, bounds))
            modulus = scaled.l2_sq * scaled.weight + 1  # forces the predicate
            assert howgrave_predicate(f, modulus, bounds)
            assert f.evaluate((a, b)) % modulus == 0
            assert f.evaluate((a, b)) == 0

    def test_contrapositive(self, rng):
        # f = 0 (mod modulus) at the point but nonzero over Z: the predicate
        # must reject it, otherwise the root bound would be violated
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        for _ in range(50):
            a, b = rng.randrange(-9, 10), rng.randrange(-9, 10)
            modulus = rng.randrange(50, 5000)
            f = (x - a) * rng.randrange(1, 9) + (y - b) * rng.randrange(1, 9)
            f = f + modulus * MultiPoly(2, {(rng.randrange(2), rng.randrange(2)): 1})
            point_value = f.evaluate((a, b))
            if point_value == 0:
                continue
            assert point_value % modulus == 0
            bounds = (abs(a) + 1, abs(b) + 1)
            assert howgrave_predicate(f, modulus, bounds) is False
