"""The readers of ``funcspace.serialize`` against the per-entry code they replace.

``number_array`` on rows of reals, ``complex_vector_from_json`` and
``EuclideanPointSet.from_json`` must give what the per-entry readers below
give: the same array (dtype, shape and bytes) or the same exception, type
and message.  ``coefficients`` must refuse what ``np.asarray`` would
convert, flatten or wrap, and an empty list, with a ValidationError.
"""

import json
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcspace import cli, serialize
from funcspace.errors import ValidationError
from funcspace.geometry import EuclideanPointSet, MetricSpace
from funcspace.hardy_pick import ardy_multiplier_check, toeplitz_mo
from funcspace.multipliers import von_neumann_check
from funcspace.kernels import coordinate
from funcspace.serialize import (
    coefficients,
    complex_array,
    complex_vector_from_json,
    index_list,
    integer,
    number_array,
    pair_to_complex,
    real,
    rows_array,
    shown,
)
from helpers import disk_sample, random_graph_metric


def per_entry_real_matrix(rows, name):
    """The reader ``number_array`` keeps for rows of reals its one pass does
    not take: an array of numbers as a float array, else a list or tuple of
    rows (lists, tuples or arrays), every entry through ``real``, then
    ``rows_array``."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iuf":
        return rows.astype(float)
    nested = isinstance(rows, (list, tuple)) and all(
        isinstance(row, (list, tuple)) or isinstance(row, np.ndarray) and row.ndim for row in rows
    )
    if not nested:
        raise ValidationError(f"{name} must be a list of rows of numbers, got {shown(rows)}")
    for row in rows:
        for value in row:
            real(value, f"an entry of {name}")
    return rows_array(rows, name)


def read_rows(rows, name):
    return number_array(rows, name, 2, float)


def outcome(reader, rows):
    try:
        array = reader(rows, '"dist"')
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)
    return array.dtype, array.shape, array.tobytes()


def assert_same_outcome(rows):
    expected = outcome(per_entry_real_matrix, rows)
    assert outcome(read_rows, rows) == expected
    return expected


METRIC = "[[0, 1, 2.5], [1, 0, 1.5], [2.5, 1.5, 0]]"


@pytest.mark.parametrize(
    "text",
    [
        METRIC,
        "[[0, true, 2.5], [1, 0, 1.5], [2.5, 1.5, 0]]",  # true at a 1.0 position
        "[[false, 1, 2.5], [1, 0, 1.5], [2.5, 1.5, 0]]",  # false on the diagonal
        "[[0, 1, 2.5], [1, 0, 1.5], [2.5, 1.5, true]]",
        '[[0, 1, 2.5], [1, 0, "0.5"], [2.5, 1.5, 0]]',
        "[[0, 1, 2.5], [1, 0, null], [2.5, 1.5, 0]]",
        "[[0, NaN], [NaN, 0]]",
        "[[0, Infinity], [-Infinity, 0]]",
        "[[0, 9007199254740993], [9007199254740993, 0]]",  # 2^53 + 1
        "[[0, 9223372036854775808], [9223372036854775808, 0.0]]",  # 2^63
        "[[0, 18446744073709551616], [18446744073709551616, 0]]",  # 2^64, read as a float
        "[[0, 1e400], [1, 0]]",
        "[[-0.0, 1], [1, -0.0]]",
        "[[0, 1, 2], [1, 0]]",
        "[[0, 1], 1]",
        "[[0, 1], {\"a\": 1}]",
        "[[0, [1]], [1, 0]]",
        "[[[0, 1], [1, 0]]]",
        "[]",
        "[[]]",
        "[[], []]",
        "1",
        "null",
        '"dist"',
        '{"0": [0, 1]}',
    ],
)
def test_rows_of_reals_read_json_as_the_per_entry_reader(text):
    assert_same_outcome(cli._loads(text))


HUGE = 10**400


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 2**53 + 1], [2**53 + 1, 0]],
        [[0, 2**63], [2**63, 0]],
        [[0, 2**64], [2**64, 0]],
        [[0, HUGE], [HUGE, 0]],
        [[0.0, HUGE], [HUGE, 0.0]],
        [[0.0, 1.0], [HUGE]],  # ragged and past the float range
        [[0.0, 1.0], [1.0, HUGE, 2.0]],
        [[-0.0, 0.0], [0.0, -0.0]],
        [(0.0, 1.0), (1.0, 0.0)],  # tuple rows
        ([0.0, 1.0], [1.0, 0.0]),  # a tuple of rows
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        [np.array([0.0, 1.0]), np.array([1.0, 0.0])],
        [[np.float64(0.0), np.float64(1.0)], [1.0, 0.0]],
        [[np.float64(0.5), 1.0], [1.0, 0.0]],
        [[np.bool_(False), 1.0], [1.0, 0.0]],
        [[0.0, np.True_], [1.0, 0.0]],
        [[0.0, Fraction(1, 3)], [Fraction(1, 3), 0.0]],
        [[0.0, Fraction(1)], [Fraction(1), 0.0]],
        [[0.0, Decimal("0.5")], [Decimal("0.5"), 0.0]],
        [[0, Decimal("0.5")], [Decimal("0.5"), 0]],
        [[0.0, 1j], [1j, 0.0]],
        [[0.0, 1.0 + 0j], [1.0, 0.0]],
        [[0.0, True], [1.0, 0.0]],
        [[0.0, 1.0], [1.0, False]],
        [[0.0, 1.0], [1.0, 0.0, None]],
        [(0.0, True), (1.0, 0.0)],  # a bool in a tuple row
        [[0.5, 2.5], [np.True_, 0.5]],
        [[0.5, 2.5], [np.float64(1.0), np.int64(2)]],
        [(0.0, 1.0), [1.0, 0.0, 2.0]],  # ragged, a tuple row first
        [[0.0, 1.0], 1.0],  # a bare number in place of a row
        [1.0, [0.0, 1.0]],
        [[0.0, 1.0], None],
        [],
        (),
        [[]],
        1.0,
        None,
    ],
)
def test_rows_of_reals_read_library_input_as_the_per_entry_reader(rows):
    assert_same_outcome(rows)


def test_true_and_false_are_named_in_row_major_order():
    kind, message = assert_same_outcome(cli._loads("[[0, 1.0, true], [false, 0, 1], [1, 1, 0]]"))
    assert (kind, message) == (ValidationError, 'an entry of "dist" must be a real number, got True')


def graph_metric_rows(rng, n):
    """A random graph metric as JSON would give it, with int zeros on the diagonal."""
    rows = cli._loads(json.dumps(random_graph_metric(rng, n).tolist()))
    for i, row in enumerate(rows):
        row[i] = 0
    return rows


def test_rows_of_reals_read_graph_metrics_as_the_per_entry_reader():
    rng = np.random.default_rng(29)
    for n in (2, 3, 17, 40, 120, 240):
        for rows in (cli._loads(json.dumps(random_graph_metric(rng, n).tolist())), graph_metric_rows(rng, n)):
            assert assert_same_outcome(rows)[:2] == (np.dtype(float), (n, n))
            assert assert_same_outcome([tuple(row) for row in rows])[:2] == (np.dtype(float), (n, n))


def test_graph_metrics_take_the_packed_pass(monkeypatch):
    """Neither the entry check nor ``np.asarray`` runs on a graph metric, even
    one whose diagonal holds int zeros, which have their types checked."""

    def per_entry(*args):
        raise AssertionError("read entry by entry")

    rows = graph_metric_rows(np.random.default_rng(31), 240)
    expected = per_entry_real_matrix(rows, '"dist"')
    monkeypatch.setattr(serialize, "real", per_entry)
    monkeypatch.setattr(serialize, "rows_array", per_entry)
    assert read_rows(rows, '"dist"').tobytes() == expected.tobytes()


def test_a_library_caller_s_rows_take_the_packed_pass(monkeypatch):
    """``MetricSpace`` given a 240-point graph metric as Python lists reads
    it with no per-entry ``real`` call, as it reads JSON."""
    dist = random_graph_metric(np.random.default_rng(32), 240)
    calls = []
    monkeypatch.setattr(serialize, "real", lambda value, name: calls.append(name))
    space = MetricSpace(dist.tolist())
    assert calls == [] and space.dist.tobytes() == dist.tobytes()


def test_a_true_in_a_wide_matrix_is_named():
    """The packed pass finds a 0.0 or 1.0 entry's row and column by the row width, not the row count."""
    rows = [[0.5] * 5 for _ in range(3)]
    rows[2][4] = True
    with pytest.raises(ValidationError, match='^an entry of "re" must be a real number, got True$'):
        read_rows(rows, '"re"')


@pytest.mark.parametrize(
    "read, obj",
    [
        (lambda rows: read_rows(rows, '"dist"'), [[0, 1.0, 2.5], [1, 0.0, 1.5], [2.5, 1.5, 0]]),
        (lambda rows: read_rows(rows, '"dist"'), [[0.0, 0.5], [0.5, 0.0]]),
        (lambda rows: read_rows(rows, '"dist"'), [[0.0, 0.5], [0.5, Fraction(0)]]),  # read entry by entry
        (complex_vector_from_json, [[0, 0.5], [1.5, -1]]),
        (complex_vector_from_json, [[0, 0.5], 1.5]),  # read pair by pair
        (serialize.complex_matrix_from_json, {"re": [[1, 0.5], [0.5, 1]], "im": [[0, 0.5], [-0.5, 0]]}),
        (serialize.complex_matrix_from_json, {"re": [[1.0, 0.5], [0.5, 1.0]]}),
    ],
)
def test_readers_return_new_writeable_arrays(read, obj):
    first, second = read(obj), read(obj)
    assert first.flags.writeable and second.flags.writeable
    assert not np.shares_memory(first, second)
    before = second.copy()
    first[...] = 7
    assert np.array_equal(second, before) and read(obj).tobytes() == before.tobytes()


entries = (
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1, 0.0, 1.0, -0.0, 2**53 + 1, 2**64, HUGE, "0.5"])
    | st.integers(-(2**70), 2**70)
    | st.floats()
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(entries, max_size=4) | entries, max_size=4))
def test_rows_of_reals_match_the_per_entry_reader_on_any_rows(rows):
    assert_same_outcome(rows)


class TestComplexArray:
    def test_a_complex_array_passes_without_a_copy(self):
        for values in (np.eye(2, dtype=complex), np.ones(3, dtype=complex)):
            assert complex_array(values, "x", values.ndim) is values

    @pytest.mark.parametrize(
        "values",
        [[[1, 2.5], [3 - 1j, np.float64(2.0)]], ([1, 0], (np.int64(3), 1j)), np.eye(2), np.arange(4).reshape(2, 2)],
    )
    def test_reads_rows_of_numbers(self, values):
        out = complex_array(values, "x", 2)
        assert out.dtype == complex and np.array_equal(out, np.asarray(values, dtype=complex))

    def test_names_a_ragged_row(self):
        with pytest.raises(ValidationError, match="^row 1 of x has length 1, but row 0 has length 2$"):
            complex_array([[1.0, 0.0], (2.0,)], "x", 2)


class TestCoefficients:
    @pytest.mark.parametrize(
        "values",
        [[1, 2.5, 3 - 1j], (1, 2.5), np.array([1, 2]), np.array([0.5, 1.0]), np.array([1j]), [np.float64(2.0), np.int64(3)]],
    )
    def test_reads_numbers(self, values):
        out = coefficients(values, "coefficients")
        assert out.dtype == complex and out.ndim == 1
        assert np.array_equal(out, np.array(list(values), dtype=complex))

    def test_returns_a_copy(self):
        values = np.array([1.0 + 0j, 2.0])
        out = coefficients(values, "coefficients")
        out[0] = 5.0
        assert values[0] == 1.0

    @pytest.mark.parametrize(
        "values",
        [5, 2.5, "ab", None, [True], [1.0, False], [np.True_], ["1"], [None], [[1, 2], [3, 4]], [[2, 0], 0],
         np.array([[1.0, 2.0]]), np.array([True]), np.array(["1"]), np.array(1.0), range(3), {1.0}, iter([1.0]),
         [Decimal("1")]],
    )
    @pytest.mark.parametrize(
        "read",
        [
            lambda values: coefficients(values, "coefficients"),
            lambda values: toeplitz_mo(values, 3),
            ardy_multiplier_check,
            lambda values: von_neumann_check(coordinate(0), values, disk_sample(np.random.default_rng(1), 3)),
        ],
        ids=["coefficients", "toeplitz_mo", "ardy_multiplier_check", "von_neumann_check"],
    )
    def test_refuses_what_asarray_would_convert(self, read, values):
        with pytest.raises(ValidationError, match="coefficients must be a list of numbers|an entry of .*coefficients"):
            read(values)

    @pytest.mark.parametrize("values", [[], (), np.array([]), np.zeros(0, dtype=complex)])
    @pytest.mark.parametrize(
        "read",
        [
            lambda values: coefficients(values, "polynomial coefficients"),
            lambda values: toeplitz_mo(values, 3),
            ardy_multiplier_check,
            lambda values: von_neumann_check(coordinate(0), values, disk_sample(np.random.default_rng(1), 3)),
        ],
        ids=["coefficients", "toeplitz_mo", "ardy_multiplier_check", "von_neumann_check"],
    )
    def test_refuses_an_empty_list(self, read, values):
        with pytest.raises(ValidationError, match="coefficients must hold at least one number$"):
            read(values)


def per_entry_complex_vector(obj):
    """The reader ``complex_vector_from_json`` runs when its one pass does not apply."""
    if not isinstance(obj, list):
        raise ValidationError("expected a list of [re, im] pairs")
    return np.array([pair_to_complex(z) for z in obj], dtype=complex)


def per_entry_point_set(obj):
    """The reader ``EuclideanPointSet.from_json`` runs when its one pass does not apply."""
    points = obj.get("points") if isinstance(obj, dict) else None
    if not isinstance(points, list):
        raise ValidationError('point set JSON must contain a "points" list')
    rows = []
    for entry in points:
        if isinstance(entry, (int, float)) or (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], (int, float))
            and isinstance(entry[1], (int, float))
        ):
            rows.append([pair_to_complex(entry)])
        else:
            rows.append(per_entry_complex_vector(entry))
    ps = EuclideanPointSet(rows_array(rows, '"points"', complex), labels=obj.get("labels"))
    if "dim" in obj and integer(obj["dim"], "dim") != ps.dim:
        raise ValidationError("declared dim does not match point tuples")
    return ps


def bits(reader, obj):
    """The array ``reader`` returns, as dtype, shape and the bits of its real
    and imaginary parts; or the exception it raises, as type and message."""
    try:
        array = reader(obj)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)
    if isinstance(array, EuclideanPointSet):
        return array.labels, bits(lambda ps: ps.points, array)
    return array.dtype, array.shape, np.ascontiguousarray(array).view(float).tobytes()


def assert_same_vector(obj):
    expected = bits(per_entry_complex_vector, obj)
    assert bits(complex_vector_from_json, obj) == expected
    return expected


def assert_same_point_set(obj):
    expected = bits(per_entry_point_set, obj)
    assert bits(EuclideanPointSet.from_json, obj) == expected
    return expected


PAIRS = [
    "[[0, 1], [0.5, -0.5]]",
    "[[-0.0, 0.0], [0.0, -0.0]]",
    "[[5e-324, -5e-324], [2.2250738585072014e-308, 1e-310]]",  # subnormals
    "[[1e308, -1e308], [1.7976931348623157e308, 0]]",
    "[[NaN, 0], [0, Infinity], [-Infinity, 1]]",
    "[[9007199254740993, 0]]",  # 2^53 + 1
    "[[9223372036854775808, -9223372036854775808]]",  # +-2^63
    "[[18446744073709551617, 1]]",  # 2^64 + 1, read as a float
    "[[0, 1e400]]",
    "[[true, 0]]",
    "[[0, false]]",
    '[["0.5", 0]]',
    "[[0, null]]",
    "[[0, 1, 2]]",
    "[[0]]",
    "[[]]",
    "[[[0, 1], 0]]",
    "[[0, [1]]]",
    "[[0, 1], 0.5]",
    "[0.5, [0, 1]]",
    "[0.5, 1, -0.0]",
    "[true]",
    "[null]",
    '["0.5"]',
    "[{}]",
    "[]",
    "null",
    "0.5",
    '"pairs"',
    "{}",
]


@pytest.mark.parametrize("text", PAIRS)
def test_complex_vector_reads_json_as_the_per_entry_reader(text):
    assert_same_vector(cli._loads(text))


@pytest.mark.parametrize(
    "obj",
    [
        [[0, 2**53 + 1], [2**63, -(2**63)]],
        [[2**64 + 1, 0]],
        [[0, HUGE]],
        [[HUGE, True]],  # past the float range before a bool: the first wins
        [[True, HUGE]],
        [[0.5, 1.0], [1.0, HUGE], [True, 0]],
        [(0.5, 1.0), [1.0, 0.0]],  # a tuple pair
        [[np.float64(0.5), 1.0]],
        [[np.True_, 1.0]],
        [[Fraction(1, 3), 0.0]],
        [[1j, 0.0]],
    ],
)
def test_complex_vector_reads_library_input_as_the_per_entry_reader(obj):
    assert_same_vector(obj)


@pytest.mark.parametrize("value", [2**53 + 1, 2**63, -(2**63), 2**63 - 1, 2**64 + 1, -(2**64) - 1, 2**1023 + 1, HUGE])
def test_ints_convert_to_the_bits_of_float(value):
    """The one pass lets ints through: the packer, and numpy in ``rows_array``,
    must convert them as ``float`` does."""
    try:
        expected = np.float64(float(value)).tobytes()
    except OverflowError:
        with pytest.raises(OverflowError):
            np.array([value, 0.5], dtype=float)
        with pytest.raises(struct.error):
            serialize._packed([[value, 0.5]], 2)
        return
    assert np.array([value, 0.5], dtype=float)[:1].tobytes() == expected
    assert serialize._packed([[value, 0.5]], 2)[0, :1].tobytes() == expected


def test_pairs_of_numbers_take_the_one_pass(monkeypatch):
    def per_entry(obj):
        raise AssertionError("read pair by pair")

    wide = [[2**53 + k, -(2**60) - k] if k % 3 == 0 else [k / 7, -k / 9] for k in range(240)]
    expected = per_entry_complex_vector(wide)
    monkeypatch.setattr(serialize, "pair_to_complex", per_entry)
    assert complex_vector_from_json([[0, 0.5], [1.5, -1]]).tolist() == [0.5j, 1.5 - 1j]
    assert complex_vector_from_json(wide).tobytes() == expected.tobytes()
    points = {"points": [[[0.1, 0.2], [0.3, 0.4]], [[0.5, 0], [0, 0.5]]], "dim": 2}
    assert EuclideanPointSet.from_json(points).points.tolist() == [[0.1 + 0.2j, 0.3 + 0.4j], [0.5, 0.5j]]


POINT_SETS = [
    '{"points": [[[0.1, 0.2]], [[0.3, -0.0]]]}',
    '{"points": [[[0.1, 0.2], [0.3, 0]], [[0, 0], [-0.5, 0.25]]], "dim": 2}',
    '{"points": [[[0.1, 0.2], [0.3, 0]], [[0, 0], [-0.5, 0.25]]], "dim": 1}',  # dim mismatch
    '{"points": [[[0.1, 0.2]], [[0.3, 0]]], "dim": true}',
    '{"points": [[[0.1, 0.2]], [[0.3, 0]]], "labels": ["a", "b"]}',
    '{"points": [[[0.1, 0.2]], [[0.3, 0]]], "labels": ["a"]}',
    '{"points": [[[5e-324, 1e308]], [[NaN, 0]]]}',
    '{"points": [[[0.1, 0.2]], [[Infinity, 0]]]}',
    '{"points": [[[0.1, 0.2]], [[0.3, 1e400]]]}',
    '{"points": [[[0.1, 0.2]], [[9007199254740993, 0]]]}',
    '{"points": [[0.1, 0.2], [0.3, 0]]}',  # dim-1 shorthand: one pair per point
    '{"points": [0.1, 0.2, [0.3, 0.1]]}',
    '{"points": [[0.1, 0.2, 0.3]]}',  # three bare reals: one point of C^3
    '{"points": [[[0.1, 0]], [[0.1, 0], [0.2, 0]]]}',  # ragged rows
    '{"points": [[[0.1, 0]], [0.2, 0]]}',
    '{"points": [[[0.1, 0], [0.2, 0]], [[0.1, 0], 0.2]]}',
    '{"points": [[[true, 0]], [[0.3, 0]]]}',
    '{"points": [[[0.1, "0.5"]], [[0.3, 0]]]}',
    '{"points": [[[0.1, null]], [[0.3, 0]]]}',
    '{"points": [[[0.1, 0, 0]], [[0.3, 0, 0]]]}',
    '{"points": [[[[0.1, 0], 0]], [[0.3, 0]]]}',
    '{"points": [[], []]}',
    '{"points": []}',
    '{"points": [true]}',
    '{"points": null}',
    '{"points": {"a": 1}}',
    '{"dim": 1}',
    "[[0.1, 0.2]]",
]


@pytest.mark.parametrize("text", POINT_SETS)
def test_point_set_reads_json_as_the_per_entry_reader(text):
    assert_same_point_set(cli._loads(text))


def test_point_set_reads_a_sample_as_the_per_entry_reader():
    rng = np.random.default_rng(30)
    for n, dim in ((1, 1), (16, 1), (48, 2), (17, 3)):
        points = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
        obj = cli._loads(json.dumps({"points": serialize.complex_to_json(points)}))
        labels, (dtype, shape, _) = assert_same_point_set(obj)
        assert (labels, dtype, shape) == (None, complex, (n, dim))


parts = st.sampled_from([0, 1, -0.0, 5e-324, 1e308, 2**53 + 1, 2**64 + 1, HUGE, True, "0.5", None]) | st.floats()
pairs = st.lists(parts, min_size=1, max_size=3) | parts


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(pairs, max_size=4))
def test_complex_vector_matches_the_per_entry_reader_on_any_pairs(obj):
    assert_same_vector(obj)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(pairs, max_size=3) | pairs, max_size=4), st.sampled_from([None, 1, 2]))
def test_point_set_matches_the_per_entry_reader_on_any_rows(points, dim):
    obj = {"points": points} if dim is None else {"points": points, "dim": dim}
    assert_same_point_set(obj)


@pytest.mark.parametrize(
    "entries, message",
    [
        ([3, True, 1], "order entry must be an integer, got True"),
        ([3, 1.0, 1], "order entry must be an integer, got 1.0"),
        ([3, 240, 1], "order entry 240 out of range for a space of 240 points"),
        ([3, -1, 1], "order entry -1 out of range for a space of 240 points"),
    ],
    ids=["bool", "float", "out-of-range", "negative"],
)
def test_index_list_names_the_first_refused_entry(entries, message):
    # a 240-entry order with one bad entry: the one-pass reader falls back to
    # the per-entry reader, so the message is the same as before
    order = list(range(4, 240)) + entries
    with pytest.raises(ValidationError) as exc:
        index_list(order, "order", "order entry", 240)
    assert str(exc.value) == message
    assert index_list(list(range(240)), "order", "order entry", 240) == list(range(240))
    assert index_list(np.array([], dtype=np.int64), "order", "order entry", 240) == []
