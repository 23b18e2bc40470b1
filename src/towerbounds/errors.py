"""Error taxonomy shared by all modules.

Every domain failure raises a named subclass of :class:`DomainError`; the CLI
prints the class name on stderr and exits 1, so the names below are part of
the public interface.  Plain ``ValueError`` is reserved for argument/usage
mistakes (wrong types, out-of-range knobs) and maps to exit code 2.
"""

from __future__ import annotations


class DomainError(Exception):
    """Base class for all domain-level failures."""

    @property
    def name(self) -> str:
        return type(self).__name__


# --- arithmetic ---------------------------------------------------------

class NotCoprime(DomainError):
    """Multiplicative order requested for a base sharing a factor with the modulus."""


class ZeroInput(DomainError):
    """p-adic valuation of 0 is undefined."""


class LimitTooLarge(DomainError):
    """An input exceeds a size budget of arith; README's table of limits lists
    each budget, its value and what it bounds."""


class UncertifiedPrimality(DomainError):
    """Factoring left a cofactor at or above arith.MR_CERTIFIED_BOUND."""


# --- curves -------------------------------------------------------------

class SingularCurve(DomainError):
    """The Weierstrass equation has vanishing discriminant."""


class NonMinimalModel(DomainError):
    """The model fails the minimality check at the queried prime."""


class SmallPrime(DomainError):
    """Reduction classification is only implemented for primes >= 5."""


class BadReduction(DomainError):
    """Point counts require good reduction at the queried prime."""


class EqualPrimes(DomainError):
    """The two primes of the query must be distinct."""


# --- p-adic series ------------------------------------------------------

class PrimeMismatch(DomainError):
    """Operands declare different primes p."""


class InsufficientCoeffPrecision(DomainError):
    """All coefficients vanish to the declared precision; mu is undetermined."""


class LengthTooShort(DomainError):
    """Requested expansion length cannot hold the distinguished part."""


# --- towers / bounds ----------------------------------------------------

class NotGoodOrdinary(DomainError):
    """The curve is not good ordinary at p, so the tower theory does not apply."""


class SmallBadPrime(DomainError):
    """A needed reduction classification hits a prime < 5."""


class HypothesisNotDeclared(DomainError):
    """A conditional formula was requested without the module's hypothesis flag."""


class InvalidRamification(DomainError):
    """Ramification data violates its level constraints."""


class WrongTowerKind(DomainError):
    """The requested bound only applies to a different tower kind."""


# --- density ------------------------------------------------------------

class EmptyScan(DomainError):
    """No eligible primes below the scan limit."""


# --- curve-file ingestion -----------------------------------------------

class CurveFileError(DomainError):
    """Base class for ingestion failures."""


class MalformedCurveEntry(CurveFileError):
    """A line is not a JSON object of the expected shape."""


class UnknownCurveKey(CurveFileError):
    """A curve entry carries a key outside the documented schema."""


class DuplicateLabel(CurveFileError):
    """Two entries share a label."""


# --- catch-all ----------------------------------------------------------

class InternalInvariantViolation(DomainError):
    """A postcondition self-check failed; indicates a bug, not bad input."""
