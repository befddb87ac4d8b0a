"""Exception hierarchy shared by all fuzzreg modules."""


class FuzzyError(Exception):
    """Base class for every error raised by this package."""


class InvalidUniverse(FuzzyError, ValueError):
    """Universe parameters are degenerate (min >= max or too few samples)."""


class ValidationError(FuzzyError, ValueError):
    """A value violates a structural invariant (bad shape parameters,
    duplicate names, out-of-range grades, invalid config fields)."""


class ParseError(FuzzyError, ValueError):
    """A controller document is not well-formed and cannot be read at all."""


class NonFiniteInput(FuzzyError, ValueError):
    """A crisp input was NaN or infinite."""


class DimensionMismatch(FuzzyError, ValueError):
    """Vector/matrix operands do not agree in length or universe."""


class EmptyRuleBase(FuzzyError, ValueError):
    """A rule base was constructed with no rules."""


class ZeroMass(FuzzyError, ArithmeticError):
    """Defuzzification was asked for an all-zero fuzzy set."""
