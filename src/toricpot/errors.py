"""Exception types shared across the package."""


class ToricPotError(Exception):
    """Base class for all errors raised by this package."""


class ModeMismatch(ToricPotError):
    """Mixing exact-rational and complex-float series in one operation."""


class NeedsTranscendental(ToricPotError):
    """Exponential of a unit requested in exact mode without a supplied scalar."""


class DivisionByZero(ToricPotError):
    """Inversion of the zero series."""


class NonUnitEvaluation(ToricPotError):
    """Evaluation point coordinate is not a unit of the valuation ring."""


class NotInterior(ToricPotError):
    """The base point is not in the interior of the polytope."""


class BadKahlerParams(ToricPotError):
    """Named polytope parameters outside the admissible cone."""


class NotInLambda0P(ToricPotError):
    """Monomial has negative polytope valuation, so no z-expression exists."""


class NotInLattice(ToricPotError):
    """Exponent vector outside the integer span of the adapted basis."""


class BadGappedTerm(ToricPotError):
    """Higher-order tail term violating the nonnegativity/positivity rules."""


class BasisConstructionFailed(ToricPotError):
    """Adapted integer basis construction failed (should not happen for
    smooth polytopes)."""


class BadGenerator(ToricPotError):
    """Nonpositive generator passed to a discrete monoid."""


class SpanViolation(ToricPotError):
    """Correction vector left the span of the available normal vectors
    during the order-by-order bulk construction."""


class NoFullFlag(ToricPotError):
    """The level flag never reaches the full space, so the full leading
    system does not exist."""


class DegenerateCritical(ToricPotError):
    """Leading-order Hessian is degenerate; Newton lifting not applicable."""


class MonoidOverflow(ToricPotError):
    """Exponents encountered during lifting escape every discrete monoid
    bound supplied."""


class OutOfScope(ToricPotError):
    """Requested a computation outside the supported range, such as the
    closed Fano form on a non-Fano polytope, a Newton lift from negative
    valuations, or a scan of an unbounded polytope."""
