import inspect

import pytest

import factorlab
from factorlab import arith, coppersmith, fermat, lattice, polynomial, residue

MODULES = (arith, coppersmith, fermat, lattice, polynomial, residue)


def test_package_exports_exactly_the_modules_all():
    public = {
        name for name, value in vars(factorlab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    declared = [name for module in MODULES for name in module.__all__]
    assert public == set(declared)
    assert len(declared) == len(set(declared)), "a name is in two modules' __all__"
    for module in MODULES:
        for name in module.__all__:
            assert getattr(factorlab, name) is getattr(module, name), name


IDENTITY6 = lattice.Basis.from_rows([[int(i == j) for j in range(6)] for i in range(6)])
X1 = polynomial.MultiPoly.variable(1, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fermat.predict_steps(7, 2599), "7 does not divide 2599"),
        (lambda: residue.algorithm_one(2599, 6), "modulus 6 is not prime"),
        (lambda: coppersmith.solve_lsb_known(2599, 6, 4), "6 is even, not invertible mod 2^4"),
        (lambda: lattice.shortest_vector_exhaustive(IDENTITY6, 1),
         "exhaustive oracle supports n <= 5"),
        (lambda: polynomial.discriminant(polynomial.parse_poly("2*x1^2 + 1"), 0),
         "discriminant is defined here for monic polynomials"),
        (lambda: polynomial.resultant(X1 - 2, polynomial.MultiPoly.const(1, 5), 0),
         "both polynomials must be nonconstant in variable 0"),
        (lambda: polynomial.norms(polynomial.MultiPoly.zero(2)),
         "the zero polynomial has no norms"),
        (lambda: lattice.lll_rows([[1, 2, 3], [-2, -4, -6], [0, 0, 1]]),
         "row 1 is in the span of the earlier rows"),
    ],
    ids=["not-a-divisor", "composite-modulus", "even-hint", "dimension-6",
         "not-monic", "constant-in-var", "zero-polynomial", "dependent-rows"],
)
def test_a_violated_precondition_is_a_plain_value_error(call, message):
    # bad input is a ValueError with a message that names it; a
    # FactorlabError is reserved for outcomes
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message
