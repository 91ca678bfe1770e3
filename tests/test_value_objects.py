"""The contracts of the package's value objects, written out by hand in
``errors.Frozen``, ``kernels._Node`` and ``typing.NamedTuple``.

Every object is immutable, and an array field is a read-only array of the
object's own, which no caller's array shares.  Kernels and symbols are equal
by value, so that a command given one kernel file twice builds one Gram
matrix; samples, spaces, problems, models and configs are equal only to
themselves; reports and commands are named tuples.  ``repr`` names each
field.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from funcspace import cli
from funcspace.cli import ExperimentConfig
from funcspace.geometry import EuclideanPointSet, MetricSpace, SampledFunction
from funcspace.hardy_pick import PickProblem, pick_solve
from funcspace.kernels import (
    ClosedFormFunction,
    KernelExpr,
    ball,
    coordinate,
    fn_product,
    geom,
    hadamard,
    kernel_sum,
    moebius,
    polynomial,
    psd_check,
    rank_one,
    scale,
    szego,
)
from funcspace.multipliers import MultNormReport
from funcspace.realization import DenseSequence, RealizationModel, build_model

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _space():
    return MetricSpace([[0.0, 0.5], [0.5, 0.0]])


# one builder per class, each called twice by the identity test
IDENTITY = {
    "EuclideanPointSet": lambda: EuclideanPointSet([0.1, 0.2]),
    "MetricSpace": _space,
    "SampledFunction": lambda: SampledFunction(_space(), [1.0, 2.0]),
    "PickProblem": lambda: PickProblem([0.1, 0.2], [0.0, 0.1]),
    "DenseSequence": lambda: DenseSequence(_space(), [1, 0]),
    "RealizationModel": lambda: build_model(DenseSequence(_space(), [1, 0]), 1),
    "ExperimentConfig": lambda: ExperimentConfig("gram"),
}
ALL = {
    **IDENTITY,
    "KernelExpr": szego,
    "ClosedFormFunction": lambda: moebius(0.3),
    "PsdReport": lambda: psd_check(np.eye(2)),
    "MultNormReport": lambda: MultNormReport(0.5, 0.5, "pencil"),
    "Command": lambda: cli._REGISTRY["gram"],
}


@pytest.mark.parametrize("name", ALL)
def test_fields_cannot_be_assigned_or_deleted(name):
    obj = ALL[name]()
    assert type(obj).__name__ == name
    for field in type(obj)._fields:
        value = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) is value


def test_a_frozen_object_names_the_field():
    ps = EuclideanPointSet([0.1])
    with pytest.raises(AttributeError, match="^cannot assign to field 'points'$"):
        ps.points = None
    with pytest.raises(AttributeError, match="^cannot assign to field 'labels'$"):
        del ps.labels
    with pytest.raises(AttributeError, match="^cannot assign to field 'cache'$"):
        ps.cache = {}


# one builder per class with array fields, called on the caller's arrays
CALLER_ARRAYS = {
    "EuclideanPointSet": (EuclideanPointSet, [[0.1 + 0j], [0.2j]]),
    "MetricSpace": (MetricSpace, [[0.0, 0.5], [0.5, 0.0]]),
    "SampledFunction": (lambda v: SampledFunction(_space(), v), [1.0 + 0j, 2.0]),
    "PickProblem": (PickProblem, [0.1 + 0j, 0.2], [0j, 0.1]),
    "RealizationModel": (
        lambda g, b: RealizationModel(DenseSequence(_space(), [1, 0]), 1, g, b),
        [[1.0, 1.0], [0.5, 0.0]],
        [1.0, 1.0],
    ),
}


@pytest.mark.parametrize("frozen", [False, True], ids=["writable", "frozen-then-thawed"])
@pytest.mark.parametrize("name", CALLER_ARRAYS)
def test_writing_to_the_callers_arrays_leaves_the_object_alone(name, frozen):
    """Also when the caller hands over read-only arrays of its own and makes
    them writable again once the object is built."""
    build, *rows = CALLER_ARRAYS[name]
    arrays = [np.array(row) for row in rows]
    for array in arrays:
        array.flags.writeable = not frozen
    obj = build(*arrays)
    fields = [getattr(obj, f) for f in type(obj)._fields if isinstance(getattr(obj, f), np.ndarray)]
    kept = [np.array(field) for field in fields]
    assert len(fields) == len(arrays)
    for array in arrays:
        array.flags.writeable = True
        array[...] = 2.0
    for field, values in zip(fields, kept):
        assert not field.flags.writeable and np.array_equal(field, values)
        with pytest.raises(ValueError, match="read-only"):
            field[...] = 0.0


def test_a_pick_problem_solves_the_nodes_it_checked():
    nodes, targets = np.array([0.1 + 0j, 0.5]), np.array([0.2 + 0j, 0.3])
    problem = PickProblem(nodes, targets)
    nodes[0], targets[1] = 2.0, np.nan
    assert problem.solve() == pick_solve([0.1, 0.5], [0.2, 0.3])


def test_kernels_and_symbols_are_equal_by_value():
    assert szego() == szego() and hash(szego()) == hash(szego())
    assert {szego(): "K"}[szego()] == "K"
    assert ball(2) == ball(2) and ball(2) != ball(3)


def test_a_symbol_built_directly_equals_the_builders():
    """The constructor converts its fields, so list coefficients hash like the builder's tuple."""
    for coeffs in ([1, 2], (1.0, 2.0), np.array([1, 2])):
        direct = ClosedFormFunction("polynomial", coeffs=coeffs)
        assert direct == polynomial([1, 2]) and hash(direct) == hash(polynomial([1, 2]))
    assert type(ClosedFormFunction("moebius", a=0.5).a) is complex
    assert type(KernelExpr("constant", value=np.float32(2)).value) is float


def test_equality_reaches_nested_symbols_and_children():
    def kernel(dim, a):
        return hadamard(rank_one(fn_product(moebius(a), polynomial([1, 2j]))), geom(scale(0.5, ball(dim))))

    assert kernel(2, 0.3) == kernel(2, 0.3) and hash(kernel(2, 0.3)) == hash(kernel(2, 0.3))
    assert kernel(2, 0.3) != kernel(3, 0.3)  # a leaf of children differs
    assert kernel(2, 0.3) != kernel(2, 0.4)  # a leaf of fn differs
    assert rank_one(coordinate(0)) != rank_one(coordinate(1))


def test_a_kernel_never_equals_a_symbol():
    # the two nodes hold equal field values, in fields of the same positions
    kernel = kernel_sum(szego())
    symbol = ClosedFormFunction("sum", children=(szego(),))
    assert [getattr(kernel, f) for f in KernelExpr._fields] == [getattr(symbol, f) for f in ClosedFormFunction._fields]
    assert kernel != symbol and symbol != kernel
    assert szego() != "szego" and szego() is not None


@pytest.mark.parametrize("name", IDENTITY)
def test_samples_spaces_problems_models_and_configs_compare_by_identity(name):
    a, b = IDENTITY[name](), IDENTITY[name]()
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_repr_names_every_field():
    assert repr(szego()) == "KernelExpr(op='szego', dim=None, value=None, factor=None, fn=None, children=())"
    assert repr(coordinate(1)) == "ClosedFormFunction(kind='coordinate', index=1, coeffs=None, a=None, factor=None, children=())"
    space = _space()
    assert repr(DenseSequence(space, [1, 0])) == f"DenseSequence(space={space!r}, order=(1, 0))"
    assert repr(space) == f"MetricSpace(labels=('p0', 'p1'), dist={space.dist!r}, base=0, triangle_tol=0.0)"
    assert repr(MultNormReport(0.5, 0.25, "pencil")) == "MultNormReport(lower_bound_sup=0.5, sampled_norm=0.25, method='pencil')"
    assert repr(ExperimentConfig("carleson-probe", options={"m": 2})) == (
        "ExperimentConfig(command='carleson-probe', inputs={}, inline={}, options={'m': 2}, "
        "tol=1e-09, method='pencil', max_points=64, out=None)"
    )


def test_a_config_keeps_the_dicts_it_checked():
    options = {"m": 2}
    config = ExperimentConfig("carleson-probe", options=options)
    options["m"] = True
    assert config.options == {"m": 2}


def _workload_calls():
    """(command, keyword names) of each ``ExperimentConfig`` call in the
    benchmark's workloads, with ``**_CONFIG`` spelled out."""
    tree = ast.parse(WORKLOADS.read_text())
    shared = next(
        ast.literal_eval(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_CONFIG"]
    )
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ExperimentConfig":
            keywords = {}
            for kw in node.keywords:
                keywords.update({kw.arg: None} if kw.arg else shared)
            calls.append((ast.literal_eval(node.args[0]), keywords))
    return calls


def test_config_takes_every_keyword_the_benchmark_passes():
    calls = _workload_calls()
    assert len(calls) >= 10
    for command, keywords in calls:
        cmd = cli._REGISTRY[command]
        values = {
            "inputs": {name: f"{name}.json" for name in cmd.files},
            "inline": {name: "[0]" for name in cmd.inline},
            "options": {},
            "method": "bisection",
        }
        given = {kw: values[kw] if value is None else value for kw, value in keywords.items()}
        config = ExperimentConfig(command, **given)
        assert all(getattr(config, kw) == value for kw, value in given.items()), command
