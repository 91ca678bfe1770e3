"""The CLI's JSON boundary: orjson with the stdlib ``json`` as exact fallback.

``cli._loads`` must give what ``json.loads`` gives, to the type and the
bit, on every document apart from integers beyond 64 bits; ``cli._encode``
must write a line that parses to the value the stdlib writes.  Values are
compared by ``repr``, which tells ``1`` from ``1.0`` and ``0.0`` from
``-0.0``, keeps the key order and shows NaN as ``nan``.
"""

import json

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
        {"x": {"z": None}, "y": 1e-7},
        {"x": "null", "y": [1e-7]},
    ],
    ids=["inf-nested", "nan-in-dict", "nan-in-tuple", "int-key", "nested-none", "null-in-string"],
)
def test_encode_falls_back_where_orjson_is_not_exact(report):
    """A ``null`` that is not a top-level ``None`` sends the report to the
    stdlib at any depth; the CLI tests cover the top-level cases (NaN,
    infinity, an integer beyond 64 bits, non-ASCII text)."""
    assert cli._encode(report) == json.dumps(report, sort_keys=True, separators=(",", ":"))


def test_encode_uses_orjson_where_it_is_exact():
    report = {"b": [1e-7, 1e16, -0.0, 2**64 - 1], "a": {"y": True}, "c": None}
    assert cli._encode(report) == '{"a":{"y":true},"b":[1e-7,1e16,-0.0,18446744073709551615],"c":null}'


def test_stdlib_fallback_refuses_nesting_past_its_limit():
    with pytest.raises(cli.ValidationError, match="^input nested too deeply$"):
        cli._loads(b"[" * 3000 + b"NaN" + b"]" * 3000)


def test_encode_refuses_a_report_past_the_stdlib_limit():
    report = {"result": cli._loads(b"[" * 3000 + b"]" * 3000)}  # orjson reads any depth
    with pytest.raises(cli.ValidationError, match="^the report is nested too deeply to write$"):
        cli._encode(report)


@pytest.mark.parametrize(
    "values, writer",
    [
        ([1e308, 1e308], "orjson"),  # finite entries whose sum is infinite
        ([-1e308, -1e308, 1.0], "orjson"),
        ([1.0, float("nan"), 2.0], "stdlib"),
        ([1.0, float("inf")], "stdlib"),
        ([float("-inf"), 1.0], "stdlib"),
        ([float("inf"), float("-inf")], "stdlib"),
        ([[1.0, 2.0], 3.0, [4.0]], "orjson"),
        ([[1.0, 2.0], 3.0, [float("nan")]], "stdlib"),
        ([2**70, 1.0, -(2**70)], "stdlib"),  # orjson refuses ints beyond 64 bits
        ([10**400, 10**400], "stdlib"),
        ([1e308, 10**400], "stdlib"),
        ((1.0, "a", None, True), "stdlib"),  # a None below the top level
        ([], "orjson"),
    ],
)
def test_encode_sends_each_list_to_the_right_writer(values, writer):
    """A NaN, an infinity or any other ``null`` below the top level, flat or
    nested, sends the report to the stdlib writer; lists of finite floats go
    to orjson.  ``1e-7`` tells the two writers' texts apart."""
    report = {"error": None, "result": {"x": values, "y": 1e-7}}
    text = cli._encode(report)
    if writer == "orjson":
        assert text == orjson.dumps(report, option=orjson.OPT_SORT_KEYS).decode()
    else:
        assert text == json.dumps(report, sort_keys=True, separators=(",", ":"))
