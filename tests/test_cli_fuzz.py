"""Fuzz of the CLI boundary: every argv ends in exit 0, 2 or 3 with one JSON report.

For each command, argv is drawn from the flags its registry entry declares,
the shared flags, and stray flags of other commands.  File flags take
fixtures that are valid, malformed, of the wrong JSON type or missing;
numeric flags take bounded numbers (commands such as ``submult --random`` and
``vn-check --grid`` allocate in proportion to their value), ``nan``, ``inf``
and text.
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
    "kernel": [{"op": "szego"}, {"op": "geom", "arg": {"op": "rank1", "fn": {"kind": "coordinate", "index": 0}}}],
    "kernel2": [{"op": "szego"}, {"op": "ball", "dim": 1}],
    "symbol": [{"kind": "coordinate", "index": 0}, {"kind": "moebius", "a": [0.4, 0.0]}],
    "sample": [{"dim": 1, "points": [[0.0, 0.0], [0.5, 0.0]]}, {"dim": 1, "points": [[0.1, 0.0], [0.2, 0.1], [-0.3, 0.2]]}],
    "matrix": [{"re": [[2.0, 1.0], [1.0, 2.0]]}, {"re": _T.real.tolist(), "im": _T.imag.tolist()}],
    "space": [_interval, _seven],
    "functions": [[{"values": [1, 2, 3, 4, 5]}, {"values": [[0, 1], 0, 0, 0, 1]}]],
    "model": [{"space": _interval, "order": [2, 0, 4, 1, 3], "depth": 3}],
    "problem": [{"nodes": [[0, 0], [0.5, 0]], "values": [[0, 0], [0.5, 0]], "bound": 1.0}],
}
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
SHARED = {"tol": float, "seed": int, "max_points": int, "out": "output"}
TUNING = {"method": ("bisection", "pencil", "newton"), "csv": "output"}


def _kinds():
    """Every flag any command declares, with the kind of value it takes."""
    kinds = {"bogus": str, **SHARED, **TUNING}
    for cmd in REGISTRY.values():
        kinds.update({name: "file" for name in cmd.files})
        kinds.update({name: "inline" for name in cmd.inline})
        kinds.update(cmd.options)
    return kinds


KINDS = _kinds()


def _mostly(good, bad):
    """Draws from ``good`` five times in six, so that many argvs reach the handlers."""
    return st.one_of(good, good, good, good, good, bad)


def _value(name, kind):
    if kind == "file":
        valid = st.sampled_from([f"valid{i}" for i in range(len(VALID[name]))])
        token = _mostly(valid, st.sampled_from([*BROKEN, "missing"]))
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
    five, up to two shared flags, and now and then a flag of another command."""
    cmd = REGISTRY[name]
    own = [*cmd.files, *cmd.inline, *cmd.options]
    shared = [*SHARED, *(TUNING if cmd.tuning else ())]
    stray = sorted(set(KINDS) - set(own) - set(shared))
    flags = [flag for flag in own if draw(st.integers(0, 4))]
    flags += draw(st.lists(st.sampled_from(shared), max_size=2))
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
            argv.append(files[f"{name}/{token}" if token.startswith("valid") else token])
        elif value is not None:
            argv.append(value)
    return argv


def check_report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code in (0, 2, 3), (argv, code, out.getvalue())
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
