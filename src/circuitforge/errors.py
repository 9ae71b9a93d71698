"""Exception types shared across the workbench.

Every error raised on a contract violation derives from ForgeError, and from
exactly one of four bases whose `exit_code` is the forge exit code:
UsageError (2, bad input), VerificationFailure (1, a claim did not verify),
BudgetExceeded (3) and InvariantViolated (4, a bug, not bad input).
"""


class ForgeError(Exception):
    """Base class for all workbench errors."""


class UsageError(ForgeError):
    """The input, an argument or a certificate is malformed."""

    exit_code = 2


class VerificationFailure(ForgeError):
    """A claim did not verify, or a search for what it needs found nothing."""

    exit_code = 1


class BudgetExceeded(ForgeError):
    """A work budget was exceeded; `kind` is 'terms', 'degree' or 'points'
    (the points an identity test would visit)."""

    exit_code = 3

    def __init__(self, kind, detail=""):
        super().__init__(f"budget exceeded ({kind}) {detail}".rstrip())
        self.kind = kind


class InvariantViolated(ForgeError):
    """An internal law or cross-check failed: a bug, not bad input."""

    exit_code = 4


# --- field errors ---

class DivisionByZero(UsageError):
    pass


class MixedFieldConfig(UsageError):
    """Operands belong to different field configurations."""


class BoundExceedsField(UsageError):
    """Requested sampling grid does not fit inside the field."""


class FieldTooSmall(UsageError):
    """Interpolation needs more distinct field elements than the field has."""


# --- circuit errors ---

class ArityMismatch(UsageError):
    pass


class CircuitSyntaxError(UsageError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DanglingReference(UsageError):
    pass


class CyclicReference(UsageError):
    pass


# --- dense oracle errors ---

class ZeroDivisor(VerificationFailure):
    pass


class ZeroPolynomial(VerificationFailure):
    pass


# --- transform errors ---

class SearchExhausted(VerificationFailure):
    """Seeded random search ran out of trials; for correct inputs this
    signals a misdeclared degree, not bad luck."""


# --- lifting errors ---

class ZeroDelta(VerificationFailure):
    pass


class NotASimpleRoot(VerificationFailure):
    pass


class NoRationalRoot(VerificationFailure):
    pass


class ResidualNonzero(VerificationFailure):
    pass


# --- factorizer errors ---

class NoSimpleRoots(VerificationFailure):
    pass


class NoFactorFound(VerificationFailure):
    pass


# --- PIT errors ---

class ParameterViolation(UsageError):
    pass


class PreconditionFailed(VerificationFailure):
    pass


# --- exponential-sum errors ---

class CharacteristicDividesPower(UsageError):
    pass


class ShapeError(UsageError):
    pass


class NotAFormula(UsageError):
    pass


# --- certificate errors ---

class MissingArtifact(VerificationFailure):
    pass


class HashMismatch(VerificationFailure):
    pass


class BadCertificate(UsageError):
    """A certificate lacks a field, or a field has the wrong type."""


# --- argument checks ---

def check_int(name: str, value, low: int | None = 0) -> None:
    """Refuse a degree, order, count or bound that is not an int (a bool is
    not one), or is below `low` (None: no bound), with ParameterViolation."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterViolation(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ParameterViolation(f"{name} must be >= {low}, got {value}")
