"""Fuzz of the CLI boundary: every argv ends in exit 0, 2 or 3 with one JSON report.

For each command, argv is drawn from the flags its registry entry declares,
the config flags it takes (``--out``, and ``--max-points``, ``--method`` and
``--tol`` where it reads them), and stray flags of other commands.  File flags take
fixtures that are valid, malformed, of the wrong JSON type, missing, or
valid but for one integer field set to ``1.5`` or ``true`` or one real field
set to ``true``, ``"0.5"`` or ``null``; numeric flags
take small numbers, ``nan``, ``inf`` and text.  The numbers are kept small
so that each example runs fast: the flags that size an allocation,
``submult --random`` and ``vn-check --grid``, are capped by the program
(``--max-points`` functions, ``multipliers.MAX_BOUNDARY_GRID`` grid
points), and ``tests/test_cli.py`` tests each cap and one past it.  A
second fuzz nests one value of a valid file, or of ``--order``, up to 3000
levels deep, past orjson's write limit and the interpreter's recursion limit.
Every real field of every valid fixture is also set to ``NaN``, and to
``Infinity`` wherever that is out of range (everywhere but a model's ``p``),
and each such file must be refused.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcspace import cli
from funcspace.hardy_pick import compress_square, toeplitz_mo

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

_interval = {"dist": np.abs(np.subtract.outer(np.arange(5) / 4, np.arange(5) / 4)).tolist(), "base": 0}
_seven = {"dist": np.abs(np.subtract.outer(np.arange(7) / 6, np.arange(7) / 6)).tolist(), "base": 0}
_T = compress_square(toeplitz_mo([0.0, 1.0], 12), 12)

# valid fixtures for each file flag; the fuzz draws "valid<i>" tokens for them
VALID = {
    "kernel": [
        {"op": "szego"},
        {"op": "geom", "arg": {"op": "rank1", "fn": {"kind": "coordinate", "index": 0}}},
        {"op": "scale", "factor": 2.0, "arg": {"op": "sum", "terms": [{"op": "szego"}, {"op": "constant", "value": 0.5}]}},
    ],
    "kernel2": [{"op": "szego"}, {"op": "ball", "dim": 1}],
    "symbol": [{"kind": "coordinate", "index": 0}, {"kind": "moebius", "a": [0.4, 0.0]}],
    "sample": [{"dim": 1, "points": [[0.0, 0.0], [0.5, 0.0]]}, {"dim": 1, "points": [[0.1, 0.0], [0.2, 0.1], [-0.3, 0.2]]}],
    "matrix": [{"re": [[2.0, 1.0], [1.0, 2.0]]}, {"re": _T.real.tolist(), "im": _T.imag.tolist()}],
    "space": [_interval, _seven],
    "functions": [[{"values": [1, 2, 3, 4, 5]}, {"values": [[0, 1], 0, 0, 0, 1]}]],
    "model": [
        {"space": _interval, "order": [2, 0, 4, 1, 3], "depth": 3},
        {"space": _interval, "order": [2, 0, 4, 1, 3], "depth": 3, "p": 1.5},
    ],
    "problem": [{"nodes": [[0, 0], [0.5, 0]], "values": [[0, 0], [0.5, 0]], "bound": 1.0}],
}
# the integer fields of the valid fixtures, as (flag, fixture, key path); the
# fuzz also draws each fixture with one of them replaced by a non-integer
INTEGER_FIELDS = [
    ("kernel", 1, ("arg", "fn", "index")),
    ("kernel2", 1, ("dim",)),
    ("symbol", 0, ("index",)),
    ("sample", 0, ("dim",)),
    ("space", 0, ("base",)),
    ("model", 0, ("depth",)),
    ("model", 0, ("space", "base")),
]
# the real fields, drawn with one of them replaced by a non-number
REAL_FIELDS = [
    ("kernel", 2, ("factor",)),
    ("kernel", 2, ("arg", "terms", 1, "value")),
    ("symbol", 1, ("a", 0)),
    ("sample", 1, ("points", 1, 1)),
    ("problem", 0, ("values", 1, 0)),
    ("problem", 0, ("bound",)),
    ("model", 1, ("p",)),
    ("space", 0, ("dist", 0, 1)),
    ("model", 0, ("space", "dist", 1, 0)),
]


def _paths(obj, path=()):
    """Every key path into ``obj``, the whole document first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _replaced(obj, path, value):
    obj = json.loads(json.dumps(obj))
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return obj


def _edits(fields, values):
    """(fixture, value, edited fixture) for each flag, each field and each value."""
    edits = {}
    for flag, i, path in fields:
        for value in values:
            edits.setdefault(flag, []).append((i, value, _replaced(VALID[flag][i], path, value)))
    return edits


# every real field of every fixture: each number outside the integer keys
_INTEGER_KEYS = {"index", "dim", "base", "depth", "order"}
ALL_REAL_FIELDS = [
    (flag, i, path)
    for flag, objs in VALID.items()
    for i, obj in enumerate(objs)
    for path in _paths(obj)
    if type(_at(obj, path)) in (int, float) and not _INTEGER_KEYS & set(path)
]


def _nonfinite_edits():
    """Each real field at NaN, and at Infinity unless Infinity is in its range (a model's p, for l^inf)."""
    edits = _edits(ALL_REAL_FIELDS, (float("nan"),))
    unbounded = [(flag, i, path) for flag, i, path in ALL_REAL_FIELDS if (flag, path) != ("model", ("p",))]
    for flag, cases in _edits(unbounded, (float("inf"),)).items():
        edits[flag] += cases
    return edits


# "nonint<k>" and "nonreal<k>" tokens, which the fuzz draws
EDITED = {"nonint": _edits(INTEGER_FIELDS, (1.5, True)), "nonreal": _edits(REAL_FIELDS, (True, "0.5", None))}
NONINT, NONREAL = EDITED["nonint"], EDITED["nonreal"]
# "nonfinite<k>" files, read by one test only: drawn by the fuzz, their
# hundreds would crowd out the broken fixtures
NONFINITE = _nonfinite_edits()

BROKEN = {
    "malformed": '{"op": "szego",\n  broken',
    "list": "[1, 2]",
    "number": "3",
    "string": '"szego"',
    "null": "null",
    "empty": "{}",
}
INLINE_VALID = {
    "poly": ["[0, 1]", "[0, -0.5, 1]", "[2]", "[1, [0, 1], 0.5]"],
    "points": ["[0, 2, 4]", "[0, 3]", "[1]"],
    "coeffs": ["[1, [0, 1], 0.5, -2]", "[1]", "[0, 0, 1]"],
}
INLINE_BROKEN = ["[[1, 2, 3]]", "5", "[", "null", "{}", '"x"', "[]", "[NaN]", "[1e308, 1e308]", "[0, 9]", "[-1]", "[true]"]

REGISTRY = cli._REGISTRY
# the flags set from ExperimentConfig fields
FIELDS = {"tol": float, "max_points": int, "out": "output", "method": ("bisection", "pencil", "newton")}


def _kinds():
    """Every flag any command declares, with the kind of value it takes."""
    kinds = {"bogus": str, **FIELDS}
    for cmd in REGISTRY.values():
        kinds.update({name: "file" for name in cmd.files})
        kinds.update({name: "inline" for name in cmd.inline})
        kinds.update(cmd.options)
    kinds["csv"] = "output"  # a path that mult-norm writes, as --out is
    return kinds


KINDS = _kinds()


def _mostly(good, bad):
    """Draws from ``good`` five times in six, so that many argvs reach the handlers."""
    return st.one_of(good, good, good, good, good, bad)


def _value(name, kind):
    if kind == "file":
        valid = st.sampled_from([f"valid{i}" for i in range(len(VALID[name]))])
        edited = [f"{prefix}{k}" for prefix, edits in EDITED.items() for k in range(len(edits.get(name, ())))]
        token = _mostly(valid, st.sampled_from([*BROKEN, "missing", *edited]))
        return token.map(lambda token: ("file", name, token))
    if kind == "output":
        token = _mostly(st.just("fresh"), st.sampled_from(["directory", "missing-directory"]))
        return token.map(lambda token: ("output", name, token))
    if kind == "inline":
        return _mostly(st.sampled_from(INLINE_VALID[name]), st.sampled_from(INLINE_BROKEN))
    if kind is bool:
        return st.none()
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if kind is int:
        numbers = st.integers(0, 6) | st.integers(-2, 70)
        return _mostly(numbers.map(str), st.sampled_from(["nan", "inf", "abc", "1.5"]))
    if kind is float:
        numbers = st.floats(0, 1) | st.floats(-2, 70)
        return _mostly(numbers.map(repr), st.sampled_from(["nan", "inf", "0", "1e-300", "abc"]))
    if kind is cli._json_value:
        return st.sampled_from(["[0, 1, 2, 3, 4]", "[4, 3, 2, 1, 0]", "[0, 0, 0]", "[", "7", "null"])
    return st.sampled_from(["default_2n", "balls", "", "x"])


@st.composite
def argvs(draw, name):
    """Flags and values for one command: each declared flag four times in
    five, up to two of its config flags, and now and then a flag it does not take."""
    cmd = REGISTRY[name]
    own = [*cmd.files, *cmd.inline, *cmd.options]
    fields = [*cli._fields(cmd)]
    stray = sorted(set(KINDS) - set(own) - set(fields))
    flags = [flag for flag in own if draw(st.integers(0, 4))]
    flags += draw(st.lists(st.sampled_from(fields), max_size=2))
    if not draw(st.integers(0, 3)):
        flags.append(draw(st.sampled_from(stray)))
    return [(flag, draw(_value(flag, KINDS[flag]))) for flag in draw(st.permutations(flags))]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"directory": str(root), "missing-directory": str(root / "absent" / "out")}
    for name, objs in VALID.items():
        for i, obj in enumerate(objs):
            paths[f"{name}/valid{i}"] = str(root / f"{name}{i}.json")
            (root / f"{name}{i}.json").write_text(json.dumps(obj))
    for kind, edits in {**EDITED, "nonfinite": NONFINITE}.items():
        for name, cases in edits.items():
            for k, (_, _, obj) in enumerate(cases):
                paths[f"{name}/{kind}{k}"] = str(root / f"{name}-{kind}{k}.json")
                (root / f"{name}-{kind}{k}.json").write_text(json.dumps(obj))
    for token, text in BROKEN.items():
        paths[token] = str(root / f"{token}.json")
        (root / f"{token}.json").write_text(text)
    paths["missing"] = str(root / "missing.json")
    paths["fresh"] = str(root / "written.out")
    return paths


def _resolve(items, files):
    argv = []
    for flag, value in items:
        argv.append("--" + flag.replace("_", "-"))
        if isinstance(value, tuple):
            _, name, token = value
            argv.append(files[f"{name}/{token}" if token.startswith(("valid", *EDITED)) else token])
        elif value is not None:
            argv.append(value)
    return argv


def check_report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code in (0, 2, 3), (argv, code, out.getvalue())
    assert out.getvalue().count("\n") == 1, argv
    report = json.loads(out.getvalue())
    assert report["status"] == ("ok" if code == 0 else "error"), (argv, report)


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_every_argv_ends_in_a_json_report(name, files):
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(items=argvs(name))
    def fuzz(items):
        check_report([name, *_resolve(items, files)])

    fuzz()


def test_pools_cover_every_declared_flag():
    # a flag added to the registry must get a pool of values above
    assert set(VALID) == {name for cmd in REGISTRY.values() for name in cmd.files}
    assert set(INLINE_VALID) == {name for cmd in REGISTRY.values() for name in cmd.inline}
    option_types = {kind for cmd in REGISTRY.values() for kind in cmd.options.values()}
    assert option_types <= {bool, int, float, str, cli._json_value}
    json_options = {name for cmd in REGISTRY.values() for name, kind in cmd.options.items() if kind is cli._json_value}
    assert set(OPTION_READERS) == json_options


# a valid argv that reads each flag with an integer or real field, its other files valid
READERS = {
    "kernel": ["gram", "--sample", "sample/valid0", "--kernel"],
    "kernel2": [
        "kl-check", "--kernel", "kernel/valid0", "--symbol", "symbol/valid0", "--sample", "sample/valid0", "--kernel2"
    ],
    "symbol": ["contraction", "--kernel", "kernel/valid0", "--sample", "sample/valid0", "--symbol"],
    "sample": ["gram", "--kernel", "kernel/valid0", "--sample"],
    "space": ["lip-dual", "--x", "1", "--space"],
    "model": ["realize", "--model"],
    "problem": ["pick-solve", "--problem"],
    "matrix": ["psd-check", "--matrix"],
    "functions": ["submult", "--space", "space/valid0", "--functions"],
}
# a valid argv that reads each JSON-valued option, its files valid
OPTION_READERS = {"order": ["realize", "--space", "space/valid0", "--order"]}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("flag, k", [(flag, k) for flag, cases in NONINT.items() for k in range(len(cases))])
def test_non_integral_field_exits_2(flag, k, files):
    """A fixture that passes whole is refused with one integer field at 1.5 or true."""
    i, value, _ = NONINT[flag][k]
    argv = [files.get(arg, arg) for arg in READERS[flag]]
    assert _run([*argv, files[f"{flag}/valid{i}"]])[0] == 0
    code, report = _run([*argv, files[f"{flag}/nonint{k}"]])
    assert code == 2
    assert report["error"]["code"] == "ValidationError"
    assert f"must be an integer, got {value!r}" in report["error"]["message"]


@pytest.mark.parametrize("flag, k", [(flag, k) for flag, cases in NONREAL.items() for k in range(len(cases))])
def test_non_real_field_exits_2(flag, k, files):
    """A fixture that passes whole is refused with one real field at true, "0.5" or null."""
    i, value, _ = NONREAL[flag][k]
    argv = [files.get(arg, arg) for arg in READERS[flag]]
    assert _run([*argv, files[f"{flag}/valid{i}"]])[0] == 0
    code, report = _run([*argv, files[f"{flag}/nonreal{k}"]])
    assert code == 2
    assert report["error"]["code"] == "ValidationError"
    assert f"got {value!r}" in report["error"]["message"]


@pytest.mark.parametrize("flag", NONFINITE)
def test_non_finite_field_exits_2(flag, files):
    """A fixture with any one real field at NaN or Infinity is refused."""
    argv = [files.get(arg, arg) for arg in READERS[flag]]
    for k, (_, _, obj) in enumerate(NONFINITE[flag]):
        code, report = _run([*argv, files[f"{flag}/nonfinite{k}"]])
        assert (code, report["error"]["code"]) == (2, "ValidationError"), (obj, report)


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would reach stderr
@pytest.mark.parametrize("value", ["[NaN]", "[Infinity]", "[NaN, 1]", "[1, NaN]"])
@pytest.mark.parametrize("flag", ["coeffs", "poly"])
def test_non_finite_inline_list_exits_2(flag, value, files, capsys):
    argv = {"coeffs": ["roundtrip", "--model", files["model/valid0"]], "poly": ["ardy-check"]}[flag]
    code, report = _run([*argv, f"--{flag}", value])
    assert (code, report["error"]["code"]) == (2, "ValidationError"), report
    assert "must be finite" in report["error"]["message"]
    assert capsys.readouterr().err == ""


# --- nesting -----------------------------------------------------------------

# depths around the option bound, orjson's 255-level write limit and the
# interpreter's recursion limit of 1000, then any depth up to 3000
DEPTHS = st.sampled_from([1, 199, 200, 201, 253, 254, 255, 256, 900, 1000, 3000]) | st.integers(1, 3000)
LEAVES = st.sampled_from(["0", "NaN", '"x"', "[]", "{}", None])  # None keeps the value it replaces
_HOLE = "\u0000hole"


@st.composite
def nested_texts(draw, doc):
    """``doc`` as JSON text with the value at one key path wrapped in lists
    or single-key objects, nested up to 3000 levels; NaN leaves send the
    text to the stdlib reader."""
    path = draw(st.sampled_from(list(_paths(doc))))
    depth, leaf, wrap = draw(DEPTHS), draw(LEAVES), draw(st.sampled_from(["list", "object"]))
    if leaf is None:
        leaf = json.dumps(_at(doc, path))
    opening, closing = ("[", "]") if wrap == "list" else ('{"k":', "}")
    deep = opening * depth + leaf + closing * depth
    if not path:
        return deep
    return json.dumps(_replaced(doc, path, _HOLE)).replace(json.dumps(_HOLE), deep)


@pytest.mark.parametrize("flag, i", [(flag, i) for flag, objs in VALID.items() for i in range(len(objs))])
def test_nested_file_fields_end_in_a_json_report(flag, i, files):
    argv = [files.get(arg, arg) for arg in READERS[flag]]
    path = files["directory"] + f"/nested-{flag}{i}.json"

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(text=nested_texts(VALID[flag][i]))
    def fuzz(text):
        with open(path, "w") as fh:
            fh.write(text)
        check_report([*argv, path])

    fuzz()


@pytest.mark.parametrize("name", OPTION_READERS)
def test_nested_json_options_end_in_a_json_report(name, files):
    argv = [files.get(arg, arg) for arg in OPTION_READERS[name]]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(text=nested_texts([2, 0, 4, 1, 3]))
    def fuzz(text):
        check_report([*argv, text])

    fuzz()
