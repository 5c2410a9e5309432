"""Exception types raised by the library."""


class ResidueLabError(Exception):
    """Base class for all library errors."""


class NotOddPrime(ResidueLabError):
    """The modulus is even, composite, or below 3."""


class WrongResidueClass(ResidueLabError):
    """The operation needs p in a residue class the given prime is not in."""


class PatternTooLong(ResidueLabError):
    """Pattern length exceeds p - 1."""


class SingularCurve(ResidueLabError):
    """The defining polynomial is not squarefree mod p (bad reduction)."""


class UnknownCurve(ResidueLabError):
    """Curve id not in the registry."""


class EmptySample(ResidueLabError):
    """A statistic was requested for an empty sample."""


class StaleContext(ArithmeticError):
    """A context's tables were read after its arena had built the next
    prime's.  A defect in the library, not a user error, so it is an
    ArithmeticError and the CLI reports it as a broken invariant (exit 3)."""
