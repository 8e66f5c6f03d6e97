"""Exception taxonomy shared across the toolkit."""


class FactorlabError(Exception):
    """Base class for all toolkit errors."""


class Exhausted(FactorlabError):
    """A bounded search ran out of budget without finding a result."""


class TrivialOnly(FactorlabError):
    """Only the trivial difference-of-squares split (1, N) exists; N is prime."""


class NonPrimeModulus(FactorlabError):
    """An operation requiring a prime modulus was given a composite one."""


class NotADivisor(FactorlabError):
    """The claimed factor does not divide the target."""


class GcdFactorFound(FactorlabError):
    """A nontrivial gcd with the modulus already factors N; carries the factor."""

    def __init__(self, factor: int):
        super().__init__(f"gcd with modulus is a nontrivial factor: {factor}")
        self.factor = factor


class MultiplierCollision(FactorlabError):
    """Stripping the ratio multipliers left no integral divisor of N."""


class DependentBasis(FactorlabError):
    """Basis rows are linearly dependent."""


class DimensionTooLarge(FactorlabError):
    """Operation is only supported up to a fixed small dimension."""


class ZeroPolynomial(FactorlabError):
    """The zero polynomial has no norms."""


class ZeroDegree(FactorlabError):
    """Polynomial is constant in the eliminated variable."""


class NotMonic(FactorlabError):
    """Discriminants are defined here for monic polynomials only."""


class NonInvertibleResidue(FactorlabError):
    """Residue is not invertible modulo the power of two."""


class NoRoot(FactorlabError):
    """No root of the polynomial lies within the requested box."""


class BoundTooLargeWarning(UserWarning):
    """Kept so that code importing it by name still works; factorlab no
    longer emits it.  Whether a box lies in the certified small-root regime
    is reported only by the solve's `certified` flag."""
