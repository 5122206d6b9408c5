"""Exception types shared across the package."""


class GradedSGError(Exception):
    """Base class for all package errors."""


class MixedParameterFamilies(GradedSGError):
    """A monomial mixes lambda-family and eta-family spinor parameters."""


class NotScalarDegree(GradedSGError):
    """Trig expansion requested for an expression that is not degree (0,0)."""


class NonNilpotentRemainder(GradedSGError):
    """The non-body part of a trig argument has no vanishing power."""


class DegreeMismatch(GradedSGError):
    """A substitution does not preserve the degree of the replaced symbol."""


class WeightMismatch(GradedSGError):
    """A substitution does not preserve the boost weight of the replaced symbol."""


class OutsideWindow(GradedSGError):
    """A series coefficient was requested outside the Laurent window."""


class InhomogeneousExpression(GradedSGError):
    """A degree or weight query on a non-homogeneous expression."""


class UnsupportedAtom(GradedSGError):
    """An expression uses an atom outside the vocabulary of the operation."""


class NonTermination(GradedSGError):
    """A jet's normal form needs itself or ever higher jets (rule orientation bug)."""


class UnresolvedGenerator(GradedSGError):
    """An odd generator survived an elimination that should remove all of them."""


class InconsistentSystem(GradedSGError):
    """Cross-derivative compatibility of a first-order system failed."""


class CFLViolation(GradedSGError):
    """Time step too large for the spatial step."""


class NonFiniteValue(GradedSGError):
    """A numeric field state stopped being finite."""


class VelocityOutOfRange(GradedSGError):
    """Kink velocity must satisfy |v| < 1."""


class ConfigError(GradedSGError):
    """Bad run configuration or argument value."""


class ContextMismatch(GradedSGError):
    """Operands or an operation need different truncation contexts."""


class MiniLangSyntaxError(GradedSGError):
    """Syntax error in the expression mini-language, with position info."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class UnknownSymbol(GradedSGError):
    """An unknown field, generator or component name, in the API or in the
    mini-language."""
