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
must be positive also :func:`tolerance`.  Rows of reals have one reader, in
JSON and in process: :func:`number_array` reads a JSON ``"dist"``, ``"re"``
or ``"im"`` and a library caller's rows alike, type-checking a row with one
``sum``, packing it, and reading the entry types only where a ``true`` or
``false`` could hide; rows of unequal length are named by :func:`rows_array`.
Both one-pass readers fill a new float array through :func:`_packed`, one
``struct`` call per row straight into the array's buffer.  A library
caller's vector or matrix of numbers passes :func:`complex_array`, and a
list of polynomial coefficients :func:`coefficients`; both apply
:func:`finite`, the one refusal of a NaN or infinity.  Both read their
entries by :func:`number_array`, which also reads the arrays given to the
value objects' constructors.  A
message that shows an input value shows it through :func:`shown`, so that a
value nested past the interpreter's recursion limit is refused like any other.
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


def _past_the_float_range(name: str) -> ValidationError:
    # no repr: an int of more than 4300 digits has none
    return ValidationError(f"{name} must lie within the float range, got a number past it")


def real(value, name: str) -> float:
    """``value`` as a float; bools, strings and None are refused, not
    converted, and so is a number past the float range, such as ``10**400``."""
    # a plain float skips the abstract-class check, which costs about a microsecond
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise _past_the_float_range(name) from None


def scalar(value, name: str) -> complex:
    """``value`` as a complex number; bools, strings and None are refused, not
    converted, and so is a number past the float range."""
    if type(value) is not complex and (isinstance(value, bool) or not isinstance(value, numbers.Complex)):
        raise ValidationError(f"{name} must be a number, got {shown(value)}")
    try:
        return complex(value)
    except OverflowError:
        raise _past_the_float_range(name) from None


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


def _not_nested(values, name: str, ndim: int) -> ValidationError:
    return ValidationError(f"{name} must be a list of {'rows of ' * (ndim - 1)}numbers, got {shown(values)}")


def number_array(values, name: str, ndim: int = 1, dtype=complex) -> np.ndarray:
    """``values``, lists or tuples of numbers nested ``ndim`` deep, as an array
    of ``dtype`` (complex, or float, which refuses complex numbers too); an
    array of numbers of any shape is returned as it is if it has ``dtype``,
    else converted, with no Python work per entry.  Bools, text and None are
    refused by name, which ``np.asarray`` would convert, and so are lists
    nested to another depth and arrays of anything but numbers; rows of
    unequal length are named by :func:`rows_array`.  The caller checks an
    array's shape and whether its entries are finite.

    Rows of reals (``dtype=float``, ``ndim=2``) given as a list of lists, as
    JSON gives them, are read in one pass: ``sum`` checks each row in one C
    loop (it raises on text, ``None``, a list, an object or an int past the
    float range, and a sum that is neither an int nor a float shows an entry
    that is neither), :func:`_packed` raises on a row of another length, and
    a bool, which packs as the 0.0 or 1.0 it equals, is looked for only at
    those entries.  Any other input, and rows that fail a step, are read
    entry by entry, which names the first bad entry.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind in ("iufc" if dtype is complex else "iuf"):
            return values.astype(dtype, copy=False)
        raise _not_nested(values, name, ndim)
    if dtype is float and ndim == 2 and type(values) is list and values:
        try:
            if all(type(row) is list and type(sum(row)) in _NUMBERS for row in values):
                array = _packed(values, len(values[0]))
                flat = np.flatnonzero((array == 0.0) | (array == 1.0))
                zero_or_one = (h.tolist() for h in np.divmod(flat, array.shape[1]))
                if all(type(values[i][j]) in _NUMBERS for i, j in zip(*zero_or_one)):
                    return array
        except (TypeError, ValueError, OverflowError, struct.error):
            pass
    entries = [values]
    for _ in range(ndim):
        if not all(isinstance(entry, (list, tuple)) or isinstance(entry, np.ndarray) and entry.ndim for entry in entries):
            raise _not_nested(values, name, ndim)
        entries = list(chain.from_iterable(entries))
    read = scalar if dtype is complex else real
    for value in entries:
        read(value, f"an entry of {name}")
    return rows_array(values, name, dtype)


def complex_array(values, name: str, ndim: int = 1) -> np.ndarray:
    """``values`` read by :func:`number_array` as a complex array of ``ndim``
    axes; a complex array is returned as it is.  Another depth and a NaN or
    infinity are refused, which ``np.asarray`` would reshape or pass on."""
    array = number_array(values, name, ndim)
    if array.ndim != ndim:
        raise _not_nested(values, name, ndim)
    return finite(array, name)


def coefficients(values, name: str) -> np.ndarray:
    """``values`` read by :func:`complex_array` as a new complex vector, and
    refused if empty, since an empty list names no polynomial."""
    array = complex_array(values, name)
    if array.size == 0:
        raise ValidationError(f"{name} must hold at least one number")
    return array.copy() if array is values else array


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


def rows_array(rows, name: str, dtype=float) -> np.ndarray:
    """Rows of numbers (lists, tuples or arrays) as an array of ``dtype``.
    Rows of unequal length are refused with the first row whose length
    differs from row 0's, naming the input by ``name`` as given."""
    try:
        return np.asarray(rows, dtype=dtype)
    except ValueError:  # every entry is a number, so the rows are ragged
        for i, row in enumerate(rows):
            if len(row) != len(rows[0]):
                raise ValidationError(f"row {i} of {name} has length {len(row)}, but row 0 has length {len(rows[0])}") from None
        raise


def complex_matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj:
        raise ValidationError('expected a matrix object with "re" (and optional "im") keys')
    re = number_array(obj["re"], '"re"', 2, float)
    im = number_array(obj["im"], '"im"', 2, float) if "im" in obj else np.zeros_like(re)
    if re.shape != im.shape:
        raise ValidationError('"re" and "im" matrices must have identical shapes')
    return finite(re, 'the matrix "re"') + 1j * finite(im, 'the matrix "im"')
