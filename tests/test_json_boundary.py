"""The CLI's JSON boundary: orjson with the stdlib ``json`` as exact fallback.

``cli._loads`` must give what ``json.loads`` gives, to the type and the
bit, on every document apart from integers beyond 64 bits; ``cli._encode``
must write a line that parses to the value the stdlib writes.  Values are
compared by ``repr``, which tells ``1`` from ``1.0`` and ``0.0`` from
``-0.0``, keeps the key order and shows NaN as ``nan``.
"""

import json
import math

import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcspace import cli

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**64 - 1)
    | st.floats()
    | st.text()
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=30,
)
# decimal literals of 1-30 significant digits with exponents, beyond what repr
# writes; integer literals stay within 64 bits, where both read an int
number_literals = st.from_regex(r"\A-?(0|[1-9][0-9]{0,29})(\.[0-9]{1,30})?([eE][+-]?[0-9]{1,3})?\Z").filter(
    lambda literal: not literal.lstrip("-").isdigit() or -(2**63) <= int(literal) < 2**64
)


def same(a, b):
    return repr(a) == repr(b)


@SETTINGS
@given(doc=documents, ascii_only=st.booleans())
def test_loads_matches_the_stdlib(doc, ascii_only):
    text = json.dumps(doc, ensure_ascii=ascii_only)
    raw = text.encode("utf-8")
    assert same(cli._loads(raw), json.loads(text))
    assert same(cli._loads(text), json.loads(text))


@SETTINGS
@given(literal=number_literals)
def test_number_literals_parse_to_the_same_bits(literal):
    assert same(cli._loads(literal.encode()), json.loads(literal))
    assert same(cli._loads(f"[{literal}]".encode()), json.loads(f"[{literal}]"))


@SETTINGS
@given(doc=documents)
def test_encode_parses_to_the_stdlib_value(doc):
    report = {"result": doc, "status": "ok"}
    text = cli._encode(report)
    assert text.isascii() and "\n" not in text
    assert same(json.loads(text), json.loads(json.dumps(report, sort_keys=True)))


@pytest.mark.parametrize(
    "raw",
    [b"NaN", b"[Infinity, -Infinity]", b"1e400", b"[-1e400]", b'"\\ud800"', b'{"a": "\\udc00x"}', b"[1e-400]"],
)
def test_literals_orjson_refuses_parse_as_before(raw):
    assert same(cli._loads(raw), json.loads(raw.decode("utf-8")))


@pytest.mark.parametrize("raw", [b'{"op": "szego",\n  broken', b"[1,]", b"", b"\xef\xbb\xbf{}", b'"a\x01"'])
def test_malformed_json_raises_the_stdlib_error(raw):
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(raw.decode("utf-8"))
    with pytest.raises(json.JSONDecodeError) as got:
        cli._loads(raw)
    assert type(got.value) is json.JSONDecodeError
    assert (got.value.msg, got.value.lineno, got.value.colno) == (
        expected.value.msg,
        expected.value.lineno,
        expected.value.colno,
    )


def test_text_that_is_not_utf8_raises_the_stdlib_error():
    with pytest.raises(UnicodeDecodeError):
        cli._loads(b'{"op": "\xff"}')


def test_integers_beyond_64_bits_read_as_floats():
    assert same(cli._loads(b"[18446744073709551615, -9223372036854775808]"), [2**64 - 1, -(2**63)])
    assert same(cli._loads(b"[18446744073709551616]"), [1.8446744073709552e19])


@pytest.mark.parametrize(
    "report",
    [
        {"x": [1.0, [2.0, float("inf")]]},
        {"x": [[0.5, "a"], {"y": -float("nan")}]},
        {"x": ("a", [1, float("nan")])},
        {"x": {1: 2}},
    ],
    ids=["inf-nested", "nan-in-dict", "nan-in-tuple", "int-key"],
)
def test_encode_falls_back_where_orjson_is_not_exact(report):
    """The walk finds a non-finite float at any depth; the CLI tests cover the
    top-level cases (NaN, infinity, an integer beyond 64 bits, non-ASCII text)."""
    assert cli._encode(report) == json.dumps(report, sort_keys=True, separators=(",", ":"))


def test_encode_uses_orjson_where_it_is_exact():
    report = {"b": [1e-7, 1e16, -0.0, 2**64 - 1], "a": {"z": None, "y": True}}
    assert cli._encode(report) == '{"a":{"y":true,"z":null},"b":[1e-7,1e16,-0.0,18446744073709551615]}'


def test_stdlib_fallback_refuses_nesting_past_its_limit():
    with pytest.raises(cli.ValidationError, match="^input nested too deeply$"):
        cli._loads(b"[" * 3000 + b"NaN" + b"]" * 3000)


def test_encode_refuses_a_report_past_the_stdlib_limit():
    report = {"result": cli._loads(b"[" * 3000 + b"]" * 3000)}  # orjson reads any depth
    with pytest.raises(cli.ValidationError, match="^the report is nested too deeply to write$"):
        cli._encode(report)


@pytest.mark.parametrize(
    "values, finite",
    [
        ([1e308, 1e308], True),  # finite entries whose sum is infinite
        ([-1e308, -1e308, 1.0], True),
        ([1.0, float("nan"), 2.0], False),
        ([1.0, float("inf")], False),
        ([float("-inf"), 1.0], False),
        ([float("inf"), float("-inf")], False),
        ([[1.0, 2.0], 3.0, [4.0]], True),
        ([[1.0, 2.0], 3.0, [float("nan")]], False),
        ([2**70, 1.0, -(2**70)], True),
        ([10**400, 10**400], True),
        ([1e308, 10**400], True),
        ((1.0, "a", None, True), True),
        ([], True),
    ],
)
def test_finite_sends_each_list_to_the_right_writer(values, finite):
    """A NaN or an infinity, flat or nested, goes to the stdlib writer as a
    literal; a list of finite floats, huge ints or mixed items to orjson."""
    report = {"result": {"x": values}}
    assert cli._finite(report) is finite
    text = cli._encode(report)
    if not finite:  # the stdlib writes the NaN or infinity as a literal
        assert text == json.dumps(report, sort_keys=True, separators=(",", ":"))
        assert "NaN" in text or "Infinity" in text
    elif all(type(v) is float for v in values):
        assert text == orjson.dumps(report, option=orjson.OPT_SORT_KEYS).decode()
    else:
        assert json.loads(text) == json.loads(json.dumps(report))


def walked_finite(obj):
    """The reference: every float in ``obj``, one at a time, through ``math.isfinite``."""
    if isinstance(obj, dict):
        return all(walked_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(walked_finite(v) for v in obj)
    return not isinstance(obj, float) or math.isfinite(obj)


report_floats = st.floats() | st.sampled_from([1e308, -1e308, 5e-324, -0.0, math.inf, -math.inf, math.nan])
report_leaves = (
    st.none()
    | st.booleans()
    | st.text(max_size=3)
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([10**400, -(10**400), 2**64 + 1])
    | report_floats
)
# flat and nested lists of floats, as reports hold them, so that the one-pass
# sums (finite, overflowing, NaN) run as often as the walk
float_lists = st.lists(report_floats, max_size=6)
reports = st.recursive(
    report_leaves | float_lists | st.lists(float_lists, max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(report=reports)
def test_finite_matches_a_walk_of_every_float(report):
    assert cli._finite(report) is walked_finite(report)


@pytest.mark.parametrize(
    "values",
    [
        [1e308, 1e308, -1e308],  # finite, the running sum overflows
        [[1e308], [1e308], [-math.inf]],
        [[1.0, 2.0], (3.0, math.nan)],
        [(1.0, 2.0), [3.0, 4.0]],
        [[[0.5, -0.5]], [[1e308, 1e308]]],
        [[2**70, 1.0], [10**400]],
        [[], [[]], ()],
        [[1.0, "a"], [math.inf]],
        [True, 1e308, 1e308],
    ],
)
def test_finite_matches_a_walk_on_nested_float_lists(values):
    assert cli._finite({"result": values}) is walked_finite(values)
