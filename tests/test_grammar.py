"""The JSON grammar of kernel and symbol expressions.

Each tree's grammar is one table in ``funcspace.kernels``; these tests pin
what the tables' reader and writer do with malformed documents, the JSON a
tree writes, the depth bound, and the README's copy of the grammar.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import funcspace
from funcspace.cli import main
from funcspace.errors import NESTED_TOO_DEEPLY, ValidationError
from funcspace.kernels import (
    _FN_GRAMMAR,
    _KERNEL_GRAMMAR,
    MAX_DEPTH,
    ClosedFormFunction,
    KernelExpr,
    ball,
    compose,
    constant,
    coordinate,
    exponential,
    fn_from_json,
    fn_product,
    fn_scale,
    fn_sum,
    geom,
    hadamard,
    kernel_from_json,
    kernel_sum,
    kernel_to_json,
    moebius,
    polynomial,
    rank_one,
    scale,
    szego,
)

SZEGO = {"op": "szego"}
COORDINATE = {"kind": "coordinate", "index": 0}


@pytest.mark.parametrize(
    "reader, doc, error, message",
    [
        # kernel numbers are checked by the constructor, after the children are read
        (kernel_from_json, {"op": "scale", "factor": "a", "arg": {"op": "zz"}}, ValidationError,
         "unknown kernel op 'zz'"),
        # symbol numbers are read before the children
        (fn_from_json, {"kind": "scale", "factor": "x", "arg": {"kind": "zz"}}, ValidationError,
         "expected a real number or an [re, im] pair, got 'x'"),
        (kernel_from_json, {"op": [1]}, ValidationError, "unknown kernel op [1]"),
        (fn_from_json, {"kind": {"a": 1}}, ValidationError, "unknown function kind {'a': 1}"),
        (kernel_from_json, {"op": "rank1", "fn": {"kind": "zz"}}, ValidationError, "unknown function kind 'zz'"),
        (kernel_from_json, {"op": "ball"}, ValidationError, 'kernel op "ball" needs the key "dim"'),
        (kernel_from_json, {"op": "rank1"}, ValidationError, 'kernel op "rank1" needs the key "fn"'),
        (fn_from_json, {"kind": "moebius"}, ValidationError, 'function kind "moebius" needs the key "a"'),
        (kernel_from_json, {"op": "hadamard", "left": SZEGO}, ValidationError,
         'kernel op "hadamard" needs the key "right"'),
        # every key is looked for before any child is read
        (fn_from_json, {"kind": "compose", "inner": {"kind": "zz"}}, ValidationError,
         'function kind "compose" needs the key "outer"'),
        (kernel_from_json, {"op": "sum"}, ValidationError, 'kernel op "sum" needs the key "terms"'),
        (kernel_from_json, {"op": "sum", "terms": 5}, ValidationError, '"terms" of kernel op "sum" must be a list'),
        (kernel_from_json, {"op": "sum", "terms": "ab"}, ValidationError, '"terms" of kernel op "sum" must be a list'),
        (kernel_from_json, {"op": "sum", "terms": {"op": "szego"}}, ValidationError,
         '"terms" of kernel op "sum" must be a list'),
        (fn_from_json, {"kind": "product", "factors": "ab"}, ValidationError,
         '"factors" of function kind "product" must be a list'),
        (kernel_from_json, [SZEGO], ValidationError, 'kernel JSON must contain an "op" key'),
    ],
    ids=["kernel-scale-order", "symbol-scale-order", "unhashable-op", "unhashable-kind", "rank1-symbol",
         "missing-field", "missing-symbol", "missing-moebius-parameter", "missing-child", "missing-first-child",
         "missing-terms", "terms-int", "terms-str", "terms-object", "factors-str", "not-an-object"],
)
def test_malformed_documents(reader, doc, error, message):
    with pytest.raises(error) as info:
        reader(doc)
    assert type(info.value) is error
    assert str(info.value) == message


def test_unknown_tags_built_in_process_are_refused_by_name():
    with pytest.raises(ValidationError, match=r"^unknown kernel op \[1\]$"):
        KernelExpr([1])
    with pytest.raises(ValidationError, match="^unknown function kind 'zz'$"):
        ClosedFormFunction("zz")


# one tree that uses every op and every kind, and the JSON it writes, keys in order
EVERY_NODE = kernel_sum(
    scale(2.0, hadamard(szego(), ball(2))),
    geom(rank_one(compose(polynomial([0, 1j]), moebius(0.5j)))),
    rank_one(fn_sum(fn_scale(1 - 2j, exponential()), fn_product(coordinate(1), coordinate(0)))),
    constant(0.5),
)
GOLDEN = {
    "op": "sum",
    "terms": [
        {"op": "scale", "factor": 2.0, "arg": {"op": "hadamard", "left": {"op": "szego"}, "right": {"op": "ball", "dim": 2}}},
        {"op": "geom", "arg": {"op": "rank1", "fn": {
            "kind": "compose",
            "outer": {"kind": "polynomial", "coeffs": [[0.0, 0.0], [0.0, 1.0]]},
            "inner": {"kind": "moebius", "a": [0.0, 0.5]},
        }}},
        {"op": "rank1", "fn": {"kind": "sum", "terms": [
            {"kind": "scale", "factor": [1.0, -2.0], "arg": {"kind": "exp"}},
            {"kind": "product", "factors": [{"kind": "coordinate", "index": 1}, {"kind": "coordinate", "index": 0}]},
        ]}},
        {"op": "constant", "value": 0.5},
    ],
}


def test_every_node_writes_the_golden_json():
    assert json.dumps(kernel_to_json(EVERY_NODE)) == json.dumps(GOLDEN)
    assert kernel_from_json(GOLDEN) == EVERY_NODE


def test_golden_tree_uses_every_op_and_kind():
    ops, kinds = set(), set()

    def walk(obj):
        if isinstance(obj, dict):
            ops.update([obj["op"]] if "op" in obj else [])
            kinds.update([obj["kind"]] if "kind" in obj else [])
            obj = list(obj.values())
        for value in obj if isinstance(obj, list) else ():
            walk(value)

    walk(GOLDEN)
    assert ops == set(_KERNEL_GRAMMAR) and kinds == set(_FN_GRAMMAR)


def _keys(grammar, op) -> list:
    _, fields, children = grammar[op]
    return list(fields) + ([children] if isinstance(children, str) else list(children))


@pytest.mark.parametrize("bullet, grammar", [("kernel", _KERNEL_GRAMMAR), ("symbol", _FN_GRAMMAR)])
def test_readme_names_exactly_the_grammar(bullet, grammar):
    """README's "JSON formats" bullet lists each op or kind with its keys in parentheses."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    text = re.search(rf"^- {bullet}: (.*?)\n(?=- )", readme, re.M | re.S).group(1)
    named = {op: re.findall(r"`(\w+)`", keys) for op, keys in re.findall(r"`(\w+)`(?: \(([^)]*)\))?", text)}
    assert named == {op: _keys(grammar, op) for op in grammar}


# --- the depth bound -----------------------------------------------------------


def _chain(wrap: dict, leaf: dict, nodes: int) -> str:
    """The JSON text of ``nodes - 1`` copies of ``wrap`` around ``leaf``, each at its "LEAF"."""
    text = json.dumps(leaf)
    for _ in range(nodes - 1):
        text = json.dumps(wrap).replace('"LEAF"', text)
    return text


KERNEL_SCALE = {"op": "scale", "factor": 1.0, "arg": "LEAF"}
SYMBOL_SCALE = {"kind": "scale", "factor": 1.0, "arg": "LEAF"}
# for each op and kind: its chain of n nodes, wrapping itself where it can
KERNEL_CHAINS = {
    "szego": lambda n: _chain(KERNEL_SCALE, SZEGO, n),
    "ball": lambda n: _chain(KERNEL_SCALE, {"op": "ball", "dim": 1}, n),
    "constant": lambda n: _chain(KERNEL_SCALE, {"op": "constant", "value": 0.5}, n),
    "rank1": lambda n: _chain(KERNEL_SCALE, {"op": "rank1", "fn": COORDINATE}, n - 1),
    "sum": lambda n: _chain({"op": "sum", "terms": ["LEAF"]}, SZEGO, n),
    "scale": lambda n: _chain(KERNEL_SCALE, SZEGO, n),
    "hadamard": lambda n: _chain({"op": "hadamard", "left": "LEAF", "right": {"op": "constant", "value": 1.0}}, SZEGO, n),
    "geom": lambda n: _chain({"op": "geom", "arg": "LEAF"}, {"op": "constant", "value": 0.0}, n),
}
SYMBOL_CHAINS = {
    "coordinate": lambda n: _chain(SYMBOL_SCALE, COORDINATE, n),
    "polynomial": lambda n: _chain(SYMBOL_SCALE, {"kind": "polynomial", "coeffs": [0, 0.5]}, n),
    "moebius": lambda n: _chain(SYMBOL_SCALE, {"kind": "moebius", "a": [0.1, 0.2]}, n),
    "exp": lambda n: _chain(SYMBOL_SCALE, {"kind": "exp"}, n),
    "compose": lambda n: _chain({"kind": "compose", "outer": {"kind": "moebius", "a": 0.1}, "inner": "LEAF"}, COORDINATE, n),
    "product": lambda n: _chain({"kind": "product", "factors": ["LEAF"]}, COORDINATE, n),
    "sum": lambda n: _chain({"kind": "sum", "terms": ["LEAF"]}, COORDINATE, n),
    "scale": lambda n: _chain(SYMBOL_SCALE, COORDINATE, n),
}


def _depth(obj) -> int:
    """Nodes on the longest path from the root, through a rank1 kernel into its symbol."""
    if isinstance(obj, list):
        return max(map(_depth, obj), default=0)
    if not isinstance(obj, dict):
        return 0
    return ("op" in obj or "kind" in obj) + max(map(_depth, obj.values()), default=0)


@pytest.mark.parametrize("chains", [KERNEL_CHAINS, SYMBOL_CHAINS], ids=["kernel", "symbol"])
def test_chains_cover_every_op_and_kind_at_their_depth(chains):
    assert set(chains) == set(_KERNEL_GRAMMAR if chains is KERNEL_CHAINS else _FN_GRAMMAR)
    for make in chains.values():
        assert _depth(json.loads(make(MAX_DEPTH))) == MAX_DEPTH
        assert _depth(json.loads(make(MAX_DEPTH + 1))) == MAX_DEPTH + 1


@pytest.mark.parametrize("op", KERNEL_CHAINS)
def test_kernel_depth_bound_in_process(op):
    kernel_from_json(json.loads(KERNEL_CHAINS[op](MAX_DEPTH)))
    with pytest.raises(ValidationError) as info:
        kernel_from_json(json.loads(KERNEL_CHAINS[op](MAX_DEPTH + 1)))
    assert str(info.value) == NESTED_TOO_DEEPLY


@pytest.mark.parametrize("kind", SYMBOL_CHAINS)
def test_symbol_depth_bound_in_process(kind):
    fn_from_json(json.loads(SYMBOL_CHAINS[kind](MAX_DEPTH)))
    with pytest.raises(ValidationError) as info:
        fn_from_json(json.loads(SYMBOL_CHAINS[kind](MAX_DEPTH + 1)))
    assert str(info.value) == NESTED_TOO_DEEPLY


def _commands(tree: str, path: str, files: dict) -> list:
    """Every command that reads the expression at ``path`` as a ``tree``."""
    if tree == "kernel":
        kernel, kernel2, symbol = path, path, files["coordinate"]
    else:
        kernel, kernel2, symbol = files["szego"], files["szego"], path
    sample = ["--sample", files["sample"]]
    argvs = [
        ["contraction", "--kernel", kernel, "--symbol", symbol],
        ["kl-check", "--kernel", kernel, "--kernel2", kernel2, "--symbol", symbol],
        ["mult-norm", "--kernel", kernel, "--symbol", symbol],
        ["mult-norm", "--kernel", kernel, "--kernel2", kernel2, "--symbol", symbol],
        ["gram", "--kernel", kernel] if tree == "kernel" else ["vn-check", "--symbol", symbol, "--poly", "[0, 1]"],
    ]
    return [argv + sample for argv in argvs]


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, obj in {"szego": SZEGO, "coordinate": COORDINATE, "sample": {"points": [0.1, 0.2, [0.3, 0.1]]}}.items():
        out[name] = str(tmp_path / f"{name}.json")
        pathlib.Path(out[name]).write_text(json.dumps(obj))
    return out


@pytest.mark.parametrize(
    "tree, name, make",
    [("kernel", op, make) for op, make in KERNEL_CHAINS.items()]
    + [("symbol", kind, make) for kind, make in SYMBOL_CHAINS.items()],
    ids=[f"kernel-{op}" for op in KERNEL_CHAINS] + [f"symbol-{kind}" for kind in SYMBOL_CHAINS],
)
def test_depth_bound_through_the_cli(capsys, tmp_path, files, tree, name, make):
    """A chain of MAX_DEPTH nodes ends in a report with exit 0, 2 or 3 under
    every command that reads it; one more node is refused, naming the file."""
    for nodes in (MAX_DEPTH, MAX_DEPTH + 1):
        path = tmp_path / f"{name}{nodes}.json"
        path.write_text(make(nodes))
        for argv in _commands(tree, str(path), files):
            code = main(argv)
            report = json.loads(capsys.readouterr().out)
            if nodes == MAX_DEPTH:
                assert code in (0, 2, 3), argv
                assert report["status"] == "ok" or "nested" not in report["error"]["message"], argv
            else:
                assert code == 2, argv
                assert report["error"] == {"code": "ValidationError", "message": f"{path}: {NESTED_TOO_DEEPLY}"}


@pytest.mark.parametrize(
    "nodes, argv",
    [
        # equal kernels, compared field by field, recursed past the interpreter's stack
        (250, ["mult-norm", "--kernel", "K", "--kernel2", "K", "--symbol", "W"]),
        # read whole, then evaluated past the interpreter's stack
        (983, ["mult-norm", "--kernel", "K", "--symbol", "W"]),
        (983, ["kl-check", "--kernel", "K", "--kernel2", "K", "--symbol", "W"]),
        (984, ["contraction", "--kernel", "K", "--symbol", "W"]),
    ],
    ids=["kernel2-equality-250", "mult-norm-983", "kl-check-983", "contraction-984"],
)
def test_deep_scale_chains_exit_2(tmp_path, files, nodes, argv):
    """In a fresh interpreter, whose stack a reader within the recursion limit
    would not have exhausted, a deep ``scale`` chain is refused as too deep."""
    path = tmp_path / "deep.json"
    path.write_text(KERNEL_CHAINS["scale"](nodes))
    argv = [{"K": str(path), "W": files["coordinate"]}.get(arg, arg) for arg in argv] + ["--sample", files["sample"]]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(funcspace.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-m", "funcspace.cli", *argv], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 2, out.stderr
    assert json.loads(out.stdout)["error"] == {"code": "ValidationError", "message": f"{path}: {NESTED_TOO_DEEPLY}"}
