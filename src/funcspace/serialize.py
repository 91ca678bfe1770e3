"""JSON helpers for complex scalars and matrices, and the integer contract.

Complex numbers travel as ``[re, im]`` pairs, and :func:`complex_to_json` is
their one writer, for a scalar or an array of any shape; complex matrices
travel as a pair of real matrices under the keys ``"re"`` and ``"im"``.
Real inputs are accepted wherever a complex value is expected.  A list of
pairs is read by :func:`complex_vector_from_json` in one pass when
:func:`pairs_array` finds only ``[re, im]`` lists of JSON numbers: their
parts go into one float array, viewed as complex.  Any other list (bare
reals, ``true``, text, ``null``, a pair of the wrong length, an int past the
float range) is read pair by pair by :func:`pair_to_complex`, which names
the first bad entry.  Every index, count and dimension that enters the
package, from JSON, argv or a caller, passes :func:`integer`, every list of
point indices passes :func:`index_list`, every real scalar passes
:func:`real` and every complex one :func:`scalar`, and a tolerance that
must be positive also :func:`tolerance`; a real matrix read from JSON passes
:func:`real_matrix`, which type-checks a row with one ``sum``, packs it, and
reads the entry types only where a ``true`` or ``false`` could hide, and rows of
unequal length are named by :func:`rows_array`.  Both one-pass readers fill
a new float array through :func:`_packed`, one ``struct`` call per row
straight into the array's buffer.  A library caller's list of
polynomial coefficients passes :func:`coefficients`, which applies
:func:`finite`, the one refusal of a NaN or infinity: every array of numbers
that enters from outside passes it.  A message that shows an input value shows
it through :func:`shown`, so that a value nested past the interpreter's
recursion limit is refused like any other.
"""

from __future__ import annotations

import numbers
import struct
from itertools import chain, count

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
    # plain ints in range pass in one pass; any other entry takes the per-entry reader, for its message
    if set(map(type, values)) <= {int} and (size is None or not len(values) or (min(values) >= 0 and max(values) < size)):
        return list(values)
    return [integer(i, entry, size) for i in values]


def real(value, name: str) -> float:
    """``value`` as a float; bools, strings and None are refused, not converted."""
    # a plain float skips the abstract-class check, which costs about a microsecond
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValidationError(f"{name} must be a real number, got {shown(value)}")
    return float(value)


def scalar(value, name: str) -> complex:
    """``value`` as a complex number; bools, strings and None are refused, not converted."""
    if type(value) is not complex and (isinstance(value, bool) or not isinstance(value, numbers.Complex)):
        raise ValidationError(f"{name} must be a number, got {shown(value)}")
    return complex(value)


def tolerance(value) -> float:
    """``value`` read by :func:`real`, refused unless positive and finite."""
    t = real(value, "tolerance")
    if not 0.0 < t < np.inf:
        raise ValidationError("tolerance must be positive and finite")
    return t


def finite(values: np.ndarray, name: str) -> np.ndarray:
    """``values``, unless an entry (or its real or imaginary part) is NaN or
    infinite: then the first such entry in row-major order is refused."""
    ok = np.isfinite(values)
    if not ok.all():
        index = tuple(int(i) for i in np.unravel_index(np.argmin(ok), ok.shape))
        raise ValidationError(f"{name} must be finite, got {values[index]} at index {index[0] if len(index) == 1 else index}")
    return values


def coefficients(values, name: str) -> np.ndarray:
    """``values``, a list, tuple or 1-D array of int, float or complex numbers,
    as a new complex vector.  Bools, text, None, nested lists and a bare
    number are refused, which ``np.asarray`` would convert, flatten or wrap,
    and so are an empty list, which names no polynomial, and a NaN or infinity."""
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iufc":
        values = values.astype(complex)
    elif not isinstance(values, (list, tuple)):
        raise ValidationError(f"{name} must be a list of numbers, got {shown(values)}")
    else:
        values = np.array([scalar(value, f"an entry of {name}") for value in values], dtype=complex)
    if values.size == 0:
        raise ValidationError(f"{name} must hold at least one number")
    return finite(values, name)


def point_labels(values, count: int) -> tuple:
    """Point labels as text, from a list or tuple of one for each of ``count`` points."""
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"labels must be a list, got {shown(values)}")
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


_NUMBERS = {float, int}
_LIST = {list}
_PAIR = {2}


def _packed(rows, width: int) -> np.ndarray:
    """``rows``, a list of rows of ``width`` ints and floats, as a new float
    array of shape ``(len(rows), width)``.

    Each row is packed by one ``struct`` call straight into the array's
    buffer, which converts an int as ``float(int)`` does, bit for bit, and
    takes about half the time of ``np.asarray`` over the same lists.  A row of
    another length and an int past the float range raise ``struct.error``.
    """
    out = np.empty((len(rows), width))
    pack_into, step = struct.Struct(f"{width}d").pack_into, 8 * width
    for offset, row in zip(count(0, step), rows):
        pack_into(out, offset, *row)
    return out


def pairs_array(obj) -> np.ndarray | None:
    """``obj``, a list of ``[re, im]`` lists of JSON numbers, as a complex
    vector read in one pass; None for anything else.

    Each test is one C pass over a set of types or lengths, and the parts,
    as one flat row, go into a float array by :func:`_packed`, viewed as
    complex.  A bool's type is not ``int``, so ``true`` and ``false`` fail
    the test.  An int past the float range gives None, and the per-entry
    reader names it.
    """
    if type(obj) is list and set(map(type, obj)) <= _LIST and set(map(len, obj)) <= _PAIR:
        flat = list(chain.from_iterable(obj))
        if set(map(type, flat)) <= _NUMBERS:
            try:
                return _packed((flat,), len(flat))[0].view(complex)
            except struct.error:
                pass
    return None


def complex_vector_from_json(obj) -> np.ndarray:
    """A list of ``[re, im]`` pairs or real numbers as a complex vector."""
    if not isinstance(obj, list):
        raise ValidationError("expected a list of [re, im] pairs")
    values = pairs_array(obj)
    if values is None:
        values = np.array([pair_to_complex(z) for z in obj], dtype=complex)
    return values


def complex_matrix_to_json(mat) -> dict:
    mat = np.asarray(mat, dtype=complex)
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


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
    Ragged rows are refused by :func:`rows_array`.

    Each row is checked by ``sum``, one C loop that raises on text, ``null``,
    a list or an object, and on an int past the float range; a sum that is
    neither an int nor a float also means an entry is neither.  The rows are
    then packed by :func:`_packed`, which raises on a row whose length
    differs from row 0's.  A bool adds as the int it equals and packs as the
    float it equals, so it can hide only where the array holds exactly 0.0 or
    1.0, and only those entries have their type checked.  An input that
    fails any of these steps, or an empty list (which ``np.asarray`` reads as
    shape ``(0,)``), is checked entry by entry.
    """
    try:
        if type(rows) is list and rows and all(type(row) is list and type(sum(row)) in _NUMBERS for row in rows):
            array = _packed(rows, len(rows[0]))
            flat = np.flatnonzero((array == 0.0) | (array == 1.0))
            zero_or_one = (h.tolist() for h in np.divmod(flat, array.shape[1]))
            if all(type(rows[i][j]) in _NUMBERS for i, j in zip(*zero_or_one)):
                return array
    except (TypeError, ValueError, OverflowError, struct.error):
        pass
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
