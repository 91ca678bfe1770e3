"""Error taxonomy shared by every module.

Each failure mode carries a stable machine-readable ``code`` so that batch
reports can classify outcomes without parsing messages.  Two families:

* :class:`ValidationError` -- the inputs violate a stated contract
  (bad matrix, out-of-range parameter, precondition failure).
* :class:`NumericalError` -- the inputs are formally valid but the
  computation cannot be completed reliably (divergent series, singular
  Gram matrix, overflow).
"""

#: The message of a refusal of an input nested past the interpreter's
#: recursion limit; the command line prefixes the file or flag it came from.
NESTED_TOO_DEEPLY = "input nested too deeply"


class ToolkitError(Exception):
    code = "ToolkitError"


class ValidationError(ToolkitError, ValueError):
    code = "ValidationError"


class NumericalError(ToolkitError, ArithmeticError):
    code = "NumericalError"


class EmptySet(ValidationError):
    code = "EmptySet"


class DegenerateSpace(ValidationError):
    code = "DegenerateSpace"


class SamePoint(ValidationError):
    code = "SamePoint"


class ZeroFunction(ValidationError):
    code = "ZeroFunction"


class OutOfDomain(ValidationError):
    code = "OutOfDomain"


class NotHermitian(ValidationError):
    code = "NotHermitian"


class GeomDiverges(NumericalError):
    """Geometric-series kernel evaluated where the inner kernel has modulus >= 1."""

    code = "GeomDiverges"


class DegenerateGram(NumericalError):
    """Gram matrix singular beyond the conditioning threshold; perturb the sample."""

    code = "DegenerateGram"


class Overflow(NumericalError):
    """An intermediate matrix left the float64 range; rescale the inputs."""

    code = "Overflow"


class SymbolNotContractive(ValidationError):
    code = "SymbolNotContractive"


class DepthExceedsSequence(ValidationError):
    code = "DepthExceedsSequence"


class ExhaustedSpace(ValidationError):
    """The enumeration has consumed the whole finite space; reduce the depth."""

    code = "ExhaustedSpace"


class CoefficientOverflow(ValidationError):
    code = "CoefficientOverflow"


class DuplicatePoint(ValidationError):
    code = "DuplicatePoint"


class PrefixTooShallow(ValidationError):
    code = "PrefixTooShallow"


class IllConditionedPrefix(NumericalError):
    code = "IllConditionedPrefix"


class NotInDisk(ValidationError):
    code = "NotInDisk"


class PatternBudgetExceeded(ValidationError):
    code = "PatternBudgetExceeded"
