import inspect
import json
import warnings

import numpy as np
import pytest

from funcspace import errors
from funcspace.cli import main
from funcspace.errors import (
    DegenerateGram,
    EmptySet,
    NotInDisk,
    NumericalError,
    Overflow,
    SamePoint,
    ToolkitError,
    ValidationError,
)
from funcspace.geometry import (
    EuclideanPointSet,
    MetricSpace,
    SampledFunction,
    distance_function,
    lip_dual_pair_norm,
    lip_point_norm,
    set_distance,
    submult_ratio,
)
from funcspace.hardy_pick import PickProblem, carleson_seq, compress_square, separability_probe, toeplitz_mo
from funcspace.kernels import (
    ClosedFormFunction,
    KernelExpr,
    constant,
    coordinate,
    fn_scale,
    hermitian_from_upper,
    moebius,
    pencil_norms,
    polynomial,
    scale,
    szego,
    szego_section,
)
from funcspace.multipliers import certify_unit_sup
from funcspace.realization import DenseSequence, build_g, build_model, point_eval_rank, topology_probe
from funcspace.serialize import complex_matrix_from_json, pair_to_complex


def all_error_classes():
    return [
        obj
        for _, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, ToolkitError)
    ]


def test_every_error_carries_a_distinct_code():
    codes = [cls.code for cls in all_error_classes()]
    assert len(codes) == len(set(codes))


def test_codes_match_class_names():
    for cls in all_error_classes():
        assert cls.code == cls.__name__


def test_families_are_disjoint_below_the_root():
    for cls in all_error_classes():
        if cls in (ToolkitError, ValidationError, NumericalError):
            continue
        assert issubclass(cls, (ValidationError, NumericalError))
        assert not (issubclass(cls, ValidationError) and issubclass(cls, NumericalError))


def test_validation_errors_are_value_errors():
    with pytest.raises(ValueError):
        raise errors.EmptySet("x")
    with pytest.raises(ArithmeticError):
        raise errors.DegenerateGram("x")


_LINE = MetricSpace(np.abs(np.subtract.outer(np.arange(3) / 2, np.arange(3) / 2)))
_MODEL = build_model(DenseSequence(_LINE, [1, 0, 2]), 2)

# every index, count and dimension a caller can pass, as a call on its value;
# the JSON fields are covered through the CLI by tests/test_cli_fuzz.py
INTEGER_ARGUMENTS = {
    "coordinate index": lambda v: ClosedFormFunction("coordinate", index=v),
    "ball dim": lambda v: KernelExpr("ball", dim=v),
    "hermitian_from_upper": lambda v: hermitian_from_upper(lambda i, j: 1.0 + 0.0j, v),
    "set_distance": lambda v: set_distance(_LINE, 0, [v]),
    "distance_function": lambda v: distance_function(_LINE, v),
    "lip_point_norm": lambda v: lip_point_norm(_LINE, v),
    "lip_dual_pair_norm": lambda v: lip_dual_pair_norm(_LINE, 0, v),
    "topology_probe": lambda v: topology_probe(v, 0.3, _MODEL),
    "point_eval_rank depth": lambda v: point_eval_rank([0, 1], v, _MODEL),
    "carleson_seq": lambda v: carleson_seq(0.0, v),
    "separability_probe": lambda v: separability_probe(v),
    "toeplitz_mo": lambda v: toeplitz_mo([1.0, 0.5], v),
    "compress_square": lambda v: compress_square(np.eye(2), v),
    "certify_unit_sup": lambda v: certify_unit_sup(polynomial([0.5]), v),
}


@pytest.mark.parametrize("value", [1.5, True])
@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS)
def test_integer_arguments_refuse_floats_and_bools(call, value):
    """Refused with a ValidationError that names the value, never truncated."""
    with pytest.raises(ValidationError, match=f"must be an integer, got {value!r}"):
        call(value)


# every list of point indices a caller can pass, as a call on the list and the name it is refused with
INDEX_LISTS = {
    "DenseSequence": (lambda v: DenseSequence(_LINE, v), "order"),
    "point_eval_rank": (lambda v: point_eval_rank(v, 2, _MODEL), "points"),
    "set_distance": (lambda v: set_distance(_LINE, 0, v), "points"),
}


@pytest.mark.parametrize("value", [5, None, "012", {0: 1}, np.zeros((1, 3), dtype=int), np.array([0.0, 1.0, 2.0])])
@pytest.mark.parametrize("case", INDEX_LISTS)
def test_index_lists_refuse_what_is_not_a_list(case, value):
    call, name = INDEX_LISTS[case]
    with pytest.raises(ValidationError, match=f"^{name} must be a list of integers, got "):
        call(value)


@pytest.mark.parametrize("value", [[1, 0, 2], (1, 0, 2), range(3), np.array([1, 0, 2])])
@pytest.mark.parametrize("case", INDEX_LISTS)
def test_index_lists_take_any_integer_sequence(case, value):
    INDEX_LISTS[case][0](value)


# every real scalar a caller can pass, as a call on its value
REAL_ARGUMENTS = {
    "carleson_seq start": lambda v: carleson_seq(v, 2),
    "separability_probe start": lambda v: separability_probe(3, start=v),
    "constant": lambda v: constant(v),
    "scale": lambda v: scale(v, szego()),
    "KernelExpr constant": lambda v: KernelExpr("constant", value=v),
    "KernelExpr scale": lambda v: KernelExpr("scale", factor=v, children=(szego(),)),
    "Pick bound": lambda v: PickProblem([0.1], [0.2], bound=v),
    "model exponent": lambda v: build_model(DenseSequence(_LINE, [1, 0, 2]), 2, p=v),
    "triangle_tol": lambda v: MetricSpace([[0.0, 1.0], [1.0, 0.0]], triangle_tol=v),
    "real part": lambda v: pair_to_complex([v, 0.0]),
    "imaginary part": lambda v: pair_to_complex([0.0, v]),
    "matrix re entry": lambda v: complex_matrix_from_json({"re": [[1.0, v], [0.5, 1.0]]}),
    "matrix im entry": lambda v: complex_matrix_from_json({"re": [[1.0, 0.5], [0.5, 1.0]], "im": [[0.0, v], [0, 0]]}),
}


@pytest.mark.parametrize("value", ["0.3", True, None])
@pytest.mark.parametrize("call", REAL_ARGUMENTS.values(), ids=REAL_ARGUMENTS)
def test_real_arguments_refuse_strings_bools_and_none(call, value):
    """Refused with a ValidationError that names the value, never converted."""
    with pytest.raises(ValidationError, match=f"must be a real number, got {value!r}"):
        call(value)


# every complex scalar a caller can pass, as a call on its value
COMPLEX_ARGUMENTS = {
    "moebius": lambda v: moebius(v),
    "symbol scale": lambda v: fn_scale(v, coordinate()),
    "szego_section": lambda v: szego_section(v),
    "polynomial coefficient": lambda v: polynomial([1.0, v]),
    # the constructors convert their own fields, so a direct call is refused alike
    "ClosedFormFunction moebius": lambda v: ClosedFormFunction("moebius", a=v),
    "ClosedFormFunction scale": lambda v: ClosedFormFunction("scale", factor=v, children=(coordinate(),)),
    "ClosedFormFunction polynomial": lambda v: ClosedFormFunction("polynomial", coeffs=[1.0, v]),
}


@pytest.mark.parametrize("value", ["0.3", True, None])
@pytest.mark.parametrize("call", COMPLEX_ARGUMENTS.values(), ids=COMPLEX_ARGUMENTS)
def test_complex_arguments_refuse_strings_bools_and_none(call, value):
    """Refused with a ValidationError that names the value, never converted,
    as the kernel constructors refuse them (``REAL_ARGUMENTS``)."""
    with pytest.raises(ValidationError, match=f"must be a number, got {value!r}$"):
        call(value)


def _deep_list(depth):
    value = 0
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "call, kind",
    [(call, "an integer") for call in INTEGER_ARGUMENTS.values()]
    + [(call, "a real number") for call in REAL_ARGUMENTS.values()]
    + [(call, "a number") for call in COMPLEX_ARGUMENTS.values()],
    ids=[*INTEGER_ARGUMENTS, *REAL_ARGUMENTS, *COMPLEX_ARGUMENTS],
)
def test_arguments_refuse_values_too_deep_to_show(call, kind):
    """A value whose repr would recurse past the limit is named by a fixed phrase."""
    with pytest.raises(ValidationError, match=f"must be {kind}, got a value nested too deeply to show$"):
        call(_deep_list(3000))


NAN, INF = float("nan"), float("inf")
NON_FINITE = [INF, -INF, NAN]

# every real or complex parameter of a kernel or symbol node, as a call on its value
KERNEL_PARAMETERS = {
    "constant": lambda v: constant(v),
    "kernel scale": lambda v: scale(v, szego()),
    "symbol scale": lambda v: fn_scale(complex(0.5, v), coordinate()),
    "moebius": lambda v: moebius(complex(0.0, v)),
    "polynomial": lambda v: polynomial([1.0, complex(v, 0.0)]),
}


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("call", KERNEL_PARAMETERS.values(), ids=KERNEL_PARAMETERS)
def test_kernel_parameters_refuse_non_finite_values(call, value):
    with pytest.raises(ValidationError):
        call(value)


@pytest.mark.parametrize("coeffs", [(), []])
def test_a_polynomial_symbol_needs_a_coefficient(coeffs):
    """Built directly or by ``polynomial``, an empty symbol is refused, not read as zero."""
    for build in (polynomial, lambda c: ClosedFormFunction("polynomial", coeffs=c)):
        with pytest.raises(ValidationError, match="^polynomial coefficients must hold at least one number$"):
            build(coeffs)


_DISK_SAMPLE = {"dim": 1, "points": [[0.1, 0.0], [0.0, 0.5]]}
# (command, kernel, symbol): one non-finite parameter each
NON_FINITE_INPUTS = {
    "constant inf": ("gram", {"op": "constant", "value": float("inf")}, None),
    "constant nan": ("gram", {"op": "constant", "value": float("nan")}, None),
    "kernel scale inf": ("gram", {"op": "scale", "factor": float("inf"), "arg": {"op": "szego"}}, None),
    "moebius nan": ("contraction", {"op": "szego"}, {"kind": "moebius", "a": [float("nan"), 0.0]}),
    "polynomial inf": ("contraction", {"op": "szego"}, {"kind": "polynomial", "coeffs": [[float("inf"), 0.0]]}),
    "symbol scale inf": (
        "contraction",
        {"op": "szego"},
        {"kind": "scale", "factor": [0.0, float("inf")], "arg": {"kind": "coordinate", "index": 0}},
    ),
}


@pytest.mark.parametrize("command, kernel, symbol", NON_FINITE_INPUTS.values(), ids=NON_FINITE_INPUTS)
def test_cli_refuses_non_finite_kernel_parameters(tmp_path, capsys, command, kernel, symbol):
    """Exit 2 with a ValidationError, and no warning on the way."""
    files = {"kernel": kernel, "sample": _DISK_SAMPLE, "symbol": symbol}
    argv = [command]
    for name, obj in files.items():
        if obj is not None:
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
            argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["status"] == "error" and report["error"]["code"] == "ValidationError"


_TWO_POINTS = {"dist": [[0.0, 1.0], [1.0, 0.0]]}
# every way a non-finite number can enter, as (argv, message): a dict or list
# in argv is written to a file; a call stands for a library entry point
NON_FINITE_ENTRIES = {
    "sample points": (
        ["gram", "--kernel", {"op": "szego"}, "--sample", {"points": [0.1, [NAN, 0.0]]}],
        "points must be finite, got (nan+0j) at index (1, 0)",
    ),
    "function values": (
        ["submult", "--space", _TWO_POINTS, "--functions", [{"values": [1.0, [INF, 0.0]]}]],
        "function values must be finite, got (inf+0j) at index 1",
    ),
    "matrix re": (
        ["psd-check", "--matrix", {"re": [[1.0, NAN], [NAN, 1.0]]}],
        'the matrix "re" must be finite, got nan at index (0, 1)',
    ),
    "matrix im": (
        ["psd-check", "--matrix", {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, INF], [-INF, 0.0]]}],
        'the matrix "im" must be finite, got inf at index (0, 1)',
    ),
    "distance matrix": (
        ["lip-dual", "--x", "0", "--space", {"dist": [[0.0, NAN], [NAN, 0.0]]}],
        "distance matrix must be finite, got nan at index (0, 1)",
    ),
    "Pick nodes": (
        ["pick-solve", "--problem", {"nodes": [0.1, [NAN, 0.0]], "values": [1.0, 0.0]}],
        "interpolation nodes must be finite, got (nan+0j) at index 1",
    ),
    "Pick targets": (
        ["pick-solve", "--problem", {"nodes": [0.1, 0.5], "values": [1.0, [0.0, INF]]}],
        "interpolation targets must be finite, got infj at index 1",
    ),
    "polynomial symbol": (
        ["contraction", "--kernel", {"op": "szego"}, "--sample", _DISK_SAMPLE,
         "--symbol", {"kind": "polynomial", "coeffs": [1.0, [NAN, 0.0]]}],
        "polynomial coefficients must be finite, got (nan+0j) at index 1",
    ),
    "vn-check --poly": (
        ["vn-check", "--symbol", {"kind": "coordinate", "index": 0}, "--sample", _DISK_SAMPLE, "--poly", "[1, NaN]"],
        "polynomial coefficients must be finite, got (nan+0j) at index 1",
    ),
    "ardy-check --poly": (
        ["ardy-check", "--poly", "[1, [0, Infinity]]"],
        "polynomial coefficients must be finite, got infj at index 1",
    ),
    "roundtrip --coeffs": (
        ["roundtrip", "--model", {"space": _TWO_POINTS, "order": [0, 1], "depth": 1}, "--coeffs", "[1, NaN]"],
        "coefficients must be finite, got (nan+0j) at index 1",
    ),
    "toeplitz_mo": (lambda: toeplitz_mo([NAN, 1.0], 1), "symbol coefficients must be finite, got (nan+0j) at index 0"),
}


@pytest.mark.parametrize("entry, message", NON_FINITE_ENTRIES.values(), ids=NON_FINITE_ENTRIES)
def test_non_finite_entries_are_named_with_value_and_index(tmp_path, capsys, entry, message):
    """One rule everywhere: ``<name> must be finite, got <value> at index <i>``."""
    if callable(entry):
        with pytest.raises(ValidationError) as info:
            entry()
        assert str(info.value) == message
        return
    argv = []
    for k, arg in enumerate(entry):
        if not isinstance(arg, str):
            (tmp_path / f"arg{k}.json").write_text(json.dumps(arg))
            arg = str(tmp_path / f"arg{k}.json")
        argv.append(arg)
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["error"] == {"code": "ValidationError", "message": message}


# refusals of a bad argument, each as (call, error class, message)
REFUSALS = {
    "negative coordinate index": (lambda: coordinate(-1), ValidationError, "coordinate index must be nonnegative"),
    "zero Gram diagonal": (
        lambda: pencil_norms(np.eye(2)[None], np.diag([1.0, 0.0])),
        DegenerateGram,
        "the Gram matrix has a nonpositive diagonal entry",
    ),
    "negative truncation degree": (lambda: toeplitz_mo([1.0], -1), ValidationError, "truncation degree must be nonnegative"),
    "compress_square shape": (
        lambda: compress_square(np.eye(2), 2),
        ValidationError,
        "expected a matrix with 3 columns and at least 3 rows",
    ),
    "no Carleson nodes": (lambda: carleson_seq(0.0, 0), ValidationError, "need at least one node"),
    "no swept nodes": (lambda: separability_probe(0), ValidationError, "need at least one node"),
    # the start is read before the node count
    "no swept nodes past the boundary": (
        lambda: separability_probe(0, start=2.0), NotInDisk, "start must lie in [0, 1), got 2.0",
    ),
    "negative build_g depth": (lambda: build_g(_MODEL.dense, -1), ValidationError, "depth must be nonnegative"),
    "empty distance matrix": (lambda: MetricSpace(np.zeros((0, 0))), ValidationError, "distance matrix must be nonempty"),
    "function on a point set": (
        lambda: SampledFunction(EuclideanPointSet(np.array([[0.1]])), [1.0]),
        ValidationError,
        "a sampled function lives on a MetricSpace, got EuclideanPointSet",
    ),
    "submult of no functions": (lambda: submult_ratio(_LINE, []), EmptySet, "need at least one function"),
    "overflowing Lipschitz norm": (
        lambda: submult_ratio(_LINE, [SampledFunction(_LINE, [1e308, -1e308, 0.0])]),
        Overflow,
        "a Lipschitz norm overflows float64",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS)
def test_refusals_name_the_bad_argument(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
