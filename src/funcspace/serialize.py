"""JSON helpers for complex scalars and matrices, and the integer contract.

Complex numbers travel as ``[re, im]`` pairs, and :func:`complex_to_json` is
their one writer, for a scalar or an array of any shape; complex matrices
travel as a pair of real matrices under the keys ``"re"`` and ``"im"``.
Real inputs are accepted wherever a complex value is expected.  Every index,
count and dimension that enters the package, from JSON, argv or a caller,
passes :func:`integer`, every list of point indices passes :func:`index_list`,
and every real scalar passes :func:`real`; a real matrix read from JSON
passes :func:`real_matrix`, and rows of unequal length are named by
:func:`rows_array`.  An array of points, values or coefficients that enters
from outside passes :func:`finite`, which names its first NaN or infinity.  A message that shows an input value shows it through
:func:`shown`, so that a value nested past the interpreter's recursion limit
is refused like any other.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ValidationError


def shown(value) -> str:
    """``repr(value)`` for an error message, or a fixed phrase where that repr
    would recurse too deeply (a list nested a thousand levels, say)."""
    try:
        return repr(value)
    except RecursionError:
        return "a value nested too deeply to show"


def integer(value, name: str, size: int | None = None) -> int:
    """``value`` as an int; floats and bools are refused, not truncated.

    With ``size``, the value must also index a space of ``size`` points.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {shown(value)}")
    value = int(value)
    if size is not None and not 0 <= value < size:
        raise ValidationError(f"{name} {value} out of range for a space of {size} points")
    return value


def index_list(values, name: str, entry: str, size: int | None = None) -> list:
    """``values`` (a list, tuple, range, set or 1-D integer array) as a list of
    ints, each passing :func:`integer` as ``entry``; anything else, such as a
    bare integer, is refused with ``name``."""
    if not (
        isinstance(values, (list, tuple, range, set, frozenset))
        or (isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu")
    ):
        raise ValidationError(f"{name} must be a list of integers, got {shown(values)}")
    return [integer(i, entry, size) for i in values]


def real(value, name: str) -> float:
    """``value`` as a float; bools, strings and None are refused, not converted."""
    # a plain float skips the abstract-class check, which costs about a microsecond
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValidationError(f"{name} must be a real number, got {shown(value)}")
    return float(value)


def finite(values: np.ndarray, name: str) -> np.ndarray:
    """``values``, unless an entry (or its real or imaginary part) is NaN or
    infinite: then the first such entry in row-major order is refused."""
    ok = np.isfinite(values)
    if not ok.all():
        index = tuple(int(i) for i in np.unravel_index(np.argmin(ok), ok.shape))
        raise ValidationError(f"{name} must be finite, got {values[index]} at index {index[0] if len(index) == 1 else index}")
    return values


def point_labels(values, count: int) -> tuple:
    """Point labels as text, one for each of ``count`` points."""
    try:
        text = tuple(str(s) for s in values)
    except RecursionError:
        raise ValidationError("a label is nested too deeply to show") from None
    if len(text) != count:
        raise ValidationError("labels length must equal point count")
    return text


def complex_to_json(values) -> list:
    """A complex scalar as ``[re, im]``, or an array of any shape as nested lists of such pairs."""
    values = np.asarray(values, dtype=complex)
    return np.stack((values.real, values.imag), axis=-1).tolist()


def pair_to_complex(obj) -> complex:
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(real(obj[0], "real part"), real(obj[1], "imaginary part"))
    if not isinstance(obj, bool) and isinstance(obj, numbers.Real):
        return complex(obj)
    raise ValidationError(f"expected a real number or an [re, im] pair, got {shown(obj)}")


def complex_vector_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list):
        raise ValidationError("expected a list of [re, im] pairs")
    return np.array([pair_to_complex(z) for z in obj], dtype=complex)


def complex_matrix_to_json(mat) -> dict:
    mat = np.asarray(mat, dtype=complex)
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


_NUMBERS = {float, int}


def _row_shape(row) -> str:
    return f"has length {len(row)}" if isinstance(row, (list, np.ndarray)) else "is a single number"


def rows_array(rows, key: str, dtype=float) -> np.ndarray:
    """A list of rows of numbers as an array of ``dtype``.  Rows of unequal
    length are refused with the first row whose length differs from row 0's."""
    try:
        return np.asarray(rows, dtype=dtype)
    except ValueError:  # every entry is a number, so the rows are ragged
        first = _row_shape(rows[0])
        for i, row in enumerate(rows):
            if _row_shape(row) != first:
                raise ValidationError(f'row {i} of "{key}" {_row_shape(row)}, but row 0 {first}') from None
        raise


def real_matrix(rows, key: str) -> np.ndarray:
    """A list of rows of JSON numbers as a float array.

    ``true``, numeric strings and ``null`` are refused, which ``np.asarray``
    would convert; the message names the first of them in row-major order.
    Each row is scanned by the types it holds, one set per row.  Ragged rows
    are refused by :func:`rows_array`.
    """
    if not (isinstance(rows, list) and all(type(row) is list and set(map(type, row)) <= _NUMBERS for row in rows)):
        for row in rows if isinstance(rows, list) else (rows,):
            for value in row if isinstance(row, list) else (row,):
                real(value, f'an entry of "{key}"')
    return rows_array(rows, key)


def complex_matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj:
        raise ValidationError('expected a matrix object with "re" (and optional "im") keys')
    re = real_matrix(obj["re"], "re")
    im = real_matrix(obj["im"], "im") if "im" in obj else np.zeros_like(re)
    if re.shape != im.shape:
        raise ValidationError('"re" and "im" matrices must have identical shapes')
    return finite(re, 'the matrix "re"') + 1j * finite(im, 'the matrix "im"')
