"""Error taxonomy shared by every module.

Each failure mode carries a stable machine-readable ``code``, the name of
its class, so that batch reports can classify outcomes without parsing
messages.  Two families:

* :class:`ValidationError` -- the inputs violate a stated contract
  (bad matrix, out-of-range parameter, precondition failure).
* :class:`NumericalError` -- the inputs are formally valid but the
  computation cannot be completed reliably (divergent series, singular
  Gram matrix, overflow).
"""

import numpy as np

#: The message of a refusal of an input nested past the interpreter's
#: recursion limit, or of an expression deeper than ``kernels.MAX_DEPTH``;
#: the command line prefixes the file or flag it came from.
NESTED_TOO_DEEPLY = "input nested too deeply"


class Frozen:
    """Base of the package's immutable objects: ``__init__`` sets the fields
    named in ``_fields`` once, by :meth:`_set`, and ``repr`` shows them.  An
    array field is a read-only array of the object's own.  An object is equal
    only to itself unless its class says otherwise."""

    _fields: tuple = ()

    def _set(self, *values) -> None:
        """Set the fields to ``values``, in ``_fields`` order.  An array is
        stored as a read-only copy, since no flag shows who else holds it."""
        for name, value in zip(self._fields, values, strict=True):
            if isinstance(value, np.ndarray):
                value = value.copy()
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class ToolkitError(Exception):
    code = "ToolkitError"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__


class ValidationError(ToolkitError, ValueError):
    pass


class NumericalError(ToolkitError, ArithmeticError):
    pass


class EmptySet(ValidationError):
    pass


class DegenerateSpace(ValidationError):
    pass


class SamePoint(ValidationError):
    pass


class ZeroFunction(ValidationError):
    pass


class OutOfDomain(ValidationError):
    pass


class NotHermitian(ValidationError):
    pass


class GeomDiverges(NumericalError):
    """Geometric-series kernel evaluated where the inner kernel has modulus >= 1."""


class DegenerateGram(NumericalError):
    """Gram matrix singular beyond the conditioning threshold; perturb the sample."""


class Overflow(NumericalError):
    """An intermediate matrix left the float64 range; rescale the inputs."""


class SymbolNotContractive(ValidationError):
    pass


class DepthExceedsSequence(ValidationError):
    pass


class ExhaustedSpace(ValidationError):
    """The enumeration has consumed the whole finite space; reduce the depth."""


class CoefficientOverflow(ValidationError):
    pass


class DuplicatePoint(ValidationError):
    pass


class PrefixTooShallow(ValidationError):
    pass


class IllConditionedPrefix(NumericalError):
    pass


class NotInDisk(ValidationError):
    pass


class PatternBudgetExceeded(ValidationError):
    pass
