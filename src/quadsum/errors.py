"""Exception hierarchy shared by all quadsum modules."""


class QuadsumError(Exception):
    """Base class for all errors raised by this package."""


class MixedFields(QuadsumError):
    """Two operands live in different fields."""


class DivisionByZero(QuadsumError):
    """Division or inversion of a zero field element."""


class DimensionMismatch(QuadsumError):
    """Matrix dimensions are not compatible for the requested operation."""


class Singular(QuadsumError):
    """A square matrix that was expected to be invertible is not."""


class NotMonic(QuadsumError):
    """A polynomial that must be monic is not."""


class DegreeZero(QuadsumError):
    """A polynomial of positive degree is required."""


class MalformedSequence(QuadsumError):
    """A nullity sequence is not non-increasing or contains negatives."""


class NotSplitError(QuadsumError):
    """A quadratic t^2 - a t - b has no root in the base field."""


class UnsupportedCase(QuadsumError):
    """The instance classifies into a case this tool does not construct for.

    Carries the classification only; the necessary condition for case I is
    a separate call (``check_necessary_combination``, ``quadsum necessary``).
    """

    def __init__(self, classification):
        self.classification = classification
        super().__init__(f"unsupported case {classification.case}")


class DecisionNo(QuadsumError):
    """Construction was requested but the decision procedure answers no."""

    def __init__(self, decision):
        self.decision = decision
        super().__init__("matrix is not decomposable; no certificate exists")


class InternalCheckFailed(QuadsumError):
    """A mandatory post-construction verification failed (implementation bug)."""


class BudgetExceeded(QuadsumError):
    """Work would exceed a fixed budget: an exhaustive enumeration too long
    to scan, or a rational job whose height bound is too large."""


class BadParams(QuadsumError):
    """Scalar parameters violate a precondition (e.g. equal or zero)."""


class MalformedInput(QuadsumError):
    """A JSON job description could not be parsed."""
