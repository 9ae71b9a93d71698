"""Exception types shared across the workbench.

Every error raised on a contract violation derives from ForgeError so the
CLI can map failures to exit codes in one place.
"""


class ForgeError(Exception):
    """Base class for all workbench errors."""


class InvariantViolated(ForgeError):
    """An internal law or cross-check failed: a bug, not bad input."""


# --- field errors ---

class DivisionByZero(ForgeError):
    pass


class MixedFieldConfig(ForgeError):
    """Operands belong to different field configurations."""


class BoundExceedsField(ForgeError):
    """Requested sampling grid does not fit inside the field."""


class FieldTooSmall(ForgeError):
    """Interpolation needs more distinct field elements than the field has."""


# --- circuit errors ---

class ArityMismatch(ForgeError):
    pass


class CircuitSyntaxError(ForgeError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DanglingReference(ForgeError):
    pass


class CyclicReference(ForgeError):
    pass


# --- dense oracle errors ---

class BudgetExceeded(ForgeError):
    """A work budget was exceeded; `kind` is 'terms', 'degree' or 'points'
    (the points of an exhaustive grid scan)."""

    def __init__(self, kind, detail=""):
        super().__init__(f"budget exceeded ({kind}) {detail}".rstrip())
        self.kind = kind


class ZeroDivisor(ForgeError):
    pass


class ZeroPolynomial(ForgeError):
    pass


# --- transform errors ---

class SearchExhausted(ForgeError):
    """Seeded random search ran out of trials; for correct inputs this
    signals a misdeclared degree, not bad luck."""


# --- lifting errors ---

class ZeroDelta(ForgeError):
    pass


class NotASimpleRoot(ForgeError):
    pass


class AllDerivativesVanish(ForgeError):
    pass


class NoRationalRoot(ForgeError):
    pass


class ResidualNonzero(ForgeError):
    pass


# --- factorizer errors ---

class NoSimpleRoots(ForgeError):
    pass


class NoFactorFound(ForgeError):
    pass


# --- PIT errors ---

class ParameterViolation(ForgeError):
    pass


class PreconditionFailed(ForgeError):
    pass


# --- exponential-sum errors ---

class CharacteristicDividesPower(ForgeError):
    pass


class ShapeError(ForgeError):
    pass


class NotAFormula(ForgeError):
    pass


# --- certificate errors ---

class MissingArtifact(ForgeError):
    pass


class HashMismatch(ForgeError):
    pass


class BadCertificate(ForgeError):
    """A certificate lacks a field, or a field has the wrong type."""
