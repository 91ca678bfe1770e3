"""The names the benchmark harness reaches in the package still exist.

``bench/tracing.py`` wraps functions and ``from_json`` class methods by name,
and ``bench/workloads.py`` builds ``ExperimentConfig`` values with a method
and a point cap; a rename or a deletion in ``src/`` would break the traced
run.  The tracing tables are read from the harness's own file, which is
run with ``runpy`` and so leaves no bytecode cache behind.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from funcspace.cli import ExperimentConfig

TRACING = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "tracing.py"))


def _module(name):
    return importlib.import_module(f"funcspace.{name}")


def test_traced_functions_resolve():
    pinned = [(mod, name) for mod, names in TRACING["SPANNED"].items() for name in names]
    for mod, name in [*pinned, *TRACING["COUNTED"]]:
        assert callable(getattr(_module(mod), name, None)), f"{mod}.{name}"


def test_traced_classes_have_their_own_from_json():
    for mod, cls_name in TRACING["CLASS_PARSERS"]:
        cls = getattr(_module(mod), cls_name)
        assert isinstance(cls.__dict__.get("from_json"), classmethod), f"{mod}.{cls_name}"


@pytest.mark.parametrize("method", ["bisection", "pencil"])
def test_mult_norm_takes_both_methods(method):
    assert ExperimentConfig("mult-norm", method=method).method == method


@pytest.mark.parametrize("command", ["realize", "roundtrip", "rank-check", "topology-probe", "lip-dual", "submult"])
def test_metric_commands_take_a_point_cap(command):
    assert ExperimentConfig(command, max_points=256).max_points == 256
