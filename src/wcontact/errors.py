"""Exception types shared across the package."""


class WContactError(Exception):
    """Base class for all package-specific errors."""


class ParseError(WContactError):
    """Raised on malformed polynomial or job-file input.

    Carries the character position of the offending token.
    """

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


class UsageError(WContactError):
    """An argument, such as a command-line flag, has a value the operation
    cannot use; ``arg`` names the argument when the operation's handler
    finds the fault."""

    def __init__(self, message, arg=None):
        super().__init__(message)
        self.arg = arg


class Unsupported(WContactError):
    """An input an operation's code does not handle (a library ValueError)."""


class UnknownVariable(WContactError):
    pass


class InfiniteColength(WContactError):
    """A proof of infinite colength: a leading-term ideal has no pure power
    of some variable, or a local ideal leaves more monomials independent
    modulo a power of the maximal ideal than the Bezout bound d^n on a
    finite colength allows."""


class NotAUnit(WContactError):
    """Series inversion requested for an element with no constant term."""


class ContactOrderMismatch(WContactError):
    """The x-order of E(x, 0) does not match the requested contact order."""


class InconsistentResult(WContactError):
    """Two exact results that must agree did not: a fault of the program."""


class CertificationFailed(WContactError):
    """An exact test could not conclude within its stated bounds, which says
    nothing about the input: a colength still uncertified at truncation
    order 48, below its Bezout bound; a finite staircase with more standard
    monomials than its limit; a Weierstrass iteration that did not
    stabilize; or a linear-factor test past its divisor or candidate
    bound."""


class NotIsolated(WContactError):
    """The singularity is not isolated (Jacobian-type ideal has infinite colength)."""


class InconsistentBranchCount(WContactError):
    """mu + r - 1 is odd, so no integer delta invariant exists."""


class NotWContact(WContactError):
    """E(x, 0) vanishes at the base point, or the contact order is wrong."""


class WrongKind(WContactError):
    """A contact-only (or interior-only) operation was applied to the other kind."""


class E0NotInIdeal(WContactError):
    """The central equation does not belong to the ideal defining the subscheme."""


class SamplingFailed(WContactError):
    """Random sampling found too few admissible parameter points."""


class PointNotOnScheme(WContactError):
    pass


class JobError(WContactError):
    """Malformed job file: undefined names, cycles, bad task arguments."""
