"""The toolkit's outcome types.

One rule: bad input is a ValueError, and a FactorlabError is an outcome.
Every violated precondition (a composite modulus where a prime is needed,
dependent basis rows, an even low-bits hint, ...) raises ValueError with a
message that names it.  A FactorlabError reports how a valid search ended
without a factor pair: the CLI prints Exhausted, NoRoot and TrivialOnly as
the outcomes `exhausted`, `no-root` and `trivial-only` (exit 2), and
GcdFactorFound carries a factor found before the search began.
"""


class FactorlabError(Exception):
    """Base class of the outcomes a valid search can end in."""


class Exhausted(FactorlabError):
    """A bounded search ran out of budget without finding a result."""


class TrivialOnly(FactorlabError):
    """Only the trivial difference-of-squares split (1, N) exists; N is prime."""


class GcdFactorFound(FactorlabError):
    """A nontrivial gcd with the modulus already factors N; carries the factor."""

    def __init__(self, factor: int):
        super().__init__(f"gcd with modulus is a nontrivial factor: {factor}")
        self.factor = factor


class NoRoot(FactorlabError):
    """No root of the polynomial lies within the requested box."""


class BoundTooLargeWarning(UserWarning):
    """Kept so that code importing it by name still works; factorlab no
    longer emits it.  Whether a box lies in the certified small-root regime
    is reported only by the solve's `certified` flag."""
