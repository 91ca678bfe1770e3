"""The readers of ``funcspace.serialize`` against the per-entry code they replace.

``real_matrix`` must give what the per-entry reader below gives: the same
array (dtype, shape and bytes) or the same exception, type and message.
``coefficients`` must refuse what ``np.asarray`` would convert, flatten or
wrap, with a ValidationError.
"""

import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcspace import cli
from funcspace.errors import ValidationError
from funcspace.hardy_pick import ardy_multiplier_check, toeplitz_mo
from funcspace.multipliers import von_neumann_check
from funcspace.kernels import coordinate
from funcspace.serialize import coefficients, real, real_matrix, rows_array
from helpers import disk_sample, random_graph_metric


def per_entry_real_matrix(rows, key):
    """The reader ``real_matrix`` replaced: a set of types per row, then every
    entry through ``real`` unless each row holds only ints and floats."""
    if not (isinstance(rows, list) and all(type(row) is list and set(map(type, row)) <= {float, int} for row in rows)):
        for row in rows if isinstance(rows, list) else (rows,):
            for value in row if isinstance(row, list) else (row,):
                real(value, f'an entry of "{key}"')
    return rows_array(rows, key)


def outcome(reader, rows):
    try:
        array = reader(rows, "dist")
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)
    return array.dtype, array.shape, array.tobytes()


def assert_same_outcome(rows):
    expected = outcome(per_entry_real_matrix, rows)
    assert outcome(real_matrix, rows) == expected
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
def test_real_matrix_reads_json_as_the_per_entry_reader(text):
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
    ],
)
def test_real_matrix_reads_library_input_as_the_per_entry_reader(rows):
    assert_same_outcome(rows)


def test_true_and_false_are_named_in_row_major_order():
    kind, message = assert_same_outcome(cli._loads("[[0, 1.0, true], [false, 0, 1], [1, 1, 0]]"))
    assert (kind, message) == (ValidationError, 'an entry of "dist" must be a real number, got True')


def test_real_matrix_reads_graph_metrics_as_the_per_entry_reader():
    rng = np.random.default_rng(29)
    for n in (2, 3, 17, 40, 120):
        rows = cli._loads(json.dumps(random_graph_metric(rng, n).tolist()))
        assert assert_same_outcome(rows)[1] == (n, n)


entries = (
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1, 0.0, 1.0, -0.0, 2**53 + 1, 2**64, HUGE, "0.5"])
    | st.integers(-(2**70), 2**70)
    | st.floats()
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(entries, max_size=4) | entries, max_size=4))
def test_real_matrix_matches_the_per_entry_reader_on_any_rows(rows):
    assert_same_outcome(rows)


class TestCoefficients:
    @pytest.mark.parametrize(
        "values",
        [[1, 2.5, 3 - 1j], (1, 2.5), np.array([1, 2]), np.array([0.5, 1.0]), np.array([1j]), [np.float64(2.0), np.int64(3)], []],
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
