import inspect

import numpy as np
import pytest

from funcspace import errors
from funcspace.errors import NumericalError, ToolkitError, ValidationError
from funcspace.geometry import (
    MetricSpace,
    distance_function,
    lip_dual_pair_norm,
    lip_dual_pair_norm_lp,
    lip_point_norm,
    lip_point_norm_lp,
    set_distance,
)
from funcspace.hardy_pick import PickProblem, carleson_seq, compress_square, separability_probe, toeplitz_mo
from funcspace.kernels import ClosedFormFunction, KernelExpr, constant, hermitian_from_upper, polynomial, scale, szego
from funcspace.multipliers import certify_unit_sup
from funcspace.realization import DenseSequence, build_model, point_eval_rank, topology_probe
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
    "lip_point_norm_lp": lambda v: lip_point_norm_lp(_LINE, v),
    "lip_dual_pair_norm": lambda v: lip_dual_pair_norm(_LINE, 0, v),
    "lip_dual_pair_norm_lp": lambda v: lip_dual_pair_norm_lp(_LINE, v, 0),
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


# every real scalar a caller can pass, as a call on its value
REAL_ARGUMENTS = {
    "carleson_seq start": lambda v: carleson_seq(v, 2),
    "separability_probe start": lambda v: separability_probe(3, start=v),
    "constant": lambda v: constant(v),
    "scale": lambda v: scale(v, szego()),
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
