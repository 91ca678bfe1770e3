"""Batch front-end: JSON in, JSON report out.

Every command reads JSON inputs, dispatches to one core module, and writes a
report containing the input digests, the parameters actually used, and the
result.  Reports are byte-identical across runs with the same inputs and
seed, except for the ``timestamp`` field.  Exit status: 0 on success, 2 on
validation errors (including malformed JSON, reported with line and column,
and command-line usage errors), 3 on numerical errors such as a degenerate
Gram matrix.

Each command is declared once, by the :func:`command` decorator on its
handler; the parser, the routing of parsed flags and the dispatch in
:func:`run` all read that one registry.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import geometry, hardy_pick, kernels, multipliers, realization
from .errors import NumericalError, ToolkitError, ValidationError
from .serialize import complex_matrix_from_json, complex_vector_from_json, complex_vector_to_json


@dataclass(frozen=True)
class Command:
    """One CLI command: its handler and every flag it reads.

    ``files`` are JSON input files (``--NAME PATH``) and ``inline`` are JSON
    inputs given on the command line (``--NAME JSON``); both are digested into
    the report.  ``options`` maps each typed option to its type: ``bool`` for
    a switch, otherwise the function that parses its value.  ``required``
    names the options that must be given, and ``tuning`` commands also read
    ``--method`` and ``--csv``.
    """

    name: str
    handler: Callable
    files: tuple = ()
    inline: tuple = ()
    options: dict = field(default_factory=dict)
    required: tuple = ()
    tuning: bool = False


_REGISTRY: dict = {}


def command(name: str, **flags):
    """Register the decorated handler as the CLI command ``name``."""

    def register(handler):
        _REGISTRY[name] = Command(name, handler, **flags)
        return handler

    return register


# ExperimentConfig fields set from flags: every command takes the shared
# ones, tuning commands also take the others (a tuple lists the choices).
_SHARED = {"tol": float, "seed": int, "max_points": int, "out": str}
_TUNING = {"method": ("bisection", "pencil"), "csv": str}


@dataclass
class ExperimentConfig:
    """One batch run: a command, its input paths/values, and overrides."""

    command: str
    inputs: dict = field(default_factory=dict)   # name -> file path
    inline: dict = field(default_factory=dict)   # name -> inline JSON string
    options: dict = field(default_factory=dict)  # parsed flags
    tol: float | None = None
    seed: int = 0
    method: str = "pencil"
    max_points: int = 64
    out: str | None = None
    csv: str | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}")
        if self.tol is not None and not self.tol > 0.0:
            raise ValidationError("tolerance must be positive")
        if not (0 <= self.seed < 2**64):
            raise ValidationError("seed must fit in 64 bits")


def _json_message(exc: json.JSONDecodeError) -> str:
    return f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"


def _load_json_file(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: {_json_message(exc)}") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _json_value(text: str):
    """Option type of a JSON-valued option such as ``--order``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(_json_message(exc)) from None


class _Loader:
    """Loads and digests the inputs a handler asks for."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.digests = {}

    def file(self, name: str, *count):
        """Load input ``name``.

        ``count`` is the key path of the input's point list (a matrix counts
        its rows); that list's length is checked against ``--max-points``
        before anything is built from it.
        """
        path = self.config.inputs.get(name)
        if path is None:
            raise ValidationError(f"command {self.config.command!r} requires --{name}")
        obj, digest = _load_json_file(path)
        self.digests[name] = {"path": path, "sha256": digest}
        points = obj
        for key in count:
            points = points.get(key) if isinstance(points, dict) else None
        if count and isinstance(points, list) and len(points) > self.config.max_points:
            raise ValidationError(f"{name} has {len(points)} points, above --max-points {self.config.max_points}")
        return obj

    def inline(self, name: str):
        text = self.config.inline.get(name)
        if text is None:
            raise ValidationError(f"command {self.config.command!r} requires --{name}")
        self.digests[name] = {"inline": True, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"--{name}: {_json_message(exc)}") from None

    def optional_file(self, name: str, *count):
        if self.config.inputs.get(name) is None:
            return None
        return self.file(name, *count)


def _tol(config: ExperimentConfig, default: float) -> float:
    return default if config.tol is None else config.tol


# --- handlers ---------------------------------------------------------------


@command("psd-check", files=("matrix",))
def _cmd_psd_check(config, loader):
    obj = loader.file("matrix", "re")
    matrix = kernels.GramMatrix.from_json(obj) if "sample" in obj else complex_matrix_from_json(obj)
    return kernels.psd_check(matrix, tol=_tol(config, 1e-10)).to_json()


@command("gram", files=("kernel", "sample"))
def _cmd_gram(config, loader):
    K = kernels.kernel_from_json(loader.file("kernel"))
    sample = geometry.EuclideanPointSet.from_json(loader.file("sample", "points"))
    return kernels.gram(K, sample).to_json()


@command("mult-norm", files=("kernel", "kernel2", "symbol", "sample"), tuning=True)
def _cmd_mult_norm(config, loader):
    K_F = kernels.kernel_from_json(loader.file("kernel"))
    second = loader.optional_file("kernel2")
    K_E = kernels.kernel_from_json(second) if second is not None else K_F
    symbol = kernels.fn_from_json(loader.file("symbol"))
    sample = geometry.EuclideanPointSet.from_json(loader.file("sample", "points"))
    tol = _tol(config, 1e-9)
    result = multipliers.sampled_mult_norm(K_F, K_E, symbol, sample, tol=tol, method=config.method).to_json()
    if config.csv:
        rows = ["n,sampled_norm"]
        for n in range(1, len(sample) + 1):
            prefix = geometry.EuclideanPointSet(sample.points[:n])
            sub = multipliers.sampled_mult_norm(K_F, K_E, symbol, prefix, tol=tol, method=config.method)
            rows.append(f"{n},{sub.sampled_norm!r}")
        _write_text(config.csv, "\n".join(rows) + "\n")
        result["csv"] = config.csv
    return result


@command("contraction", files=("kernel", "symbol", "sample"))
def _cmd_contraction(config, loader):
    K = kernels.kernel_from_json(loader.file("kernel"))
    symbol = kernels.fn_from_json(loader.file("symbol"))
    sample = geometry.EuclideanPointSet.from_json(loader.file("sample", "points"))
    return multipliers.contraction_check(K, symbol, sample, tol=_tol(config, 1e-10)).to_json()


@command("kl-check", files=("kernel", "kernel2", "symbol", "sample"))
def _cmd_kl_check(config, loader):
    K = kernels.kernel_from_json(loader.file("kernel"))
    L = kernels.kernel_from_json(loader.file("kernel2"))
    symbol = kernels.fn_from_json(loader.file("symbol"))
    sample = geometry.EuclideanPointSet.from_json(loader.file("sample", "points"))
    tol = _tol(config, 1e-10)
    on_K = multipliers.contraction_check(K, symbol, sample, tol=tol)
    on_KL = multipliers.contraction_check(kernels.hadamard(K, L), symbol, sample, tol=tol)
    holds = (not on_K.is_psd) or on_KL.is_psd
    return {"implication_holds": holds, "on_K": on_K.to_json(), "on_KL": on_KL.to_json()}


@command("vn-check", files=("symbol", "sample"), inline=("poly",), options={"grid": int})
def _cmd_vn_check(config, loader):
    symbol = kernels.fn_from_json(loader.file("symbol"))
    coeffs = complex_vector_from_json(loader.inline("poly"))
    sample = geometry.EuclideanPointSet.from_json(loader.file("sample", "points"))
    grid = int(config.options.get("grid", 4096))
    report = multipliers.von_neumann_check(symbol, coeffs, sample, boundary_grid=grid, tol=_tol(config, 1e-9))
    return {"lhs": report.lhs, "rhs": report.rhs, "pass": report.passed}


def _load_model(obj) -> realization.RealizationModel:
    if not isinstance(obj, dict) or "space" not in obj:
        raise ValidationError('model JSON needs "space", "order", "depth"')
    space = geometry.MetricSpace.from_json(obj["space"])
    dense = realization.DenseSequence(space, obj["order"])
    policy = obj.get("policy", "default_2n")
    if isinstance(policy, dict) and "balls" in policy:
        base = policy["balls"].get("base")
        gs = realization.build_g(dense, int(obj["depth"]))
        b = realization.choose_b(gs, policy="balls", space=space, base=base)
        return realization.build_model(dense, int(obj["depth"]), b=b, p=float(obj.get("p", 2.0)))
    return realization.build_model(dense, int(obj["depth"]), policy=policy, p=float(obj.get("p", 2.0)))


@command("realize", files=("space", "model"), options={"depth": int, "policy": str, "order": _json_value})
def _cmd_realize(config, loader):
    model_obj = loader.optional_file("model", "space", "dist")
    if model_obj is None:
        space = geometry.MetricSpace.from_json(loader.file("space", "dist"))
        depth = int(config.options.get("depth", max(len(space) - 2, 0)))
        order = config.options.get("order")
        if order is None:
            rng = np.random.default_rng(config.seed)
            order = [int(i) for i in rng.permutation(len(space))]
        model_obj = {
            "space": space.to_json(),
            "order": list(order),
            "depth": depth,
            "policy": config.options.get("policy", "default_2n"),
            "p": 2.0,
        }
    model = _load_model(model_obj)
    return {
        "model": model_obj,
        "b": [float(v) for v in model.b],
        "sup_g": [float(np.abs(g.values).max()) for g in model.g],
        "very_independent": realization.very_independence_check(model)
        if len(model.dense) >= model.depth + 2
        else None,
    }


@command("topology-probe", files=("model",), options={"x": int, "eps": float}, required=("x", "eps"))
def _cmd_topology_probe(config, loader):
    model = _load_model(loader.file("model", "space", "dist"))
    probe = realization.topology_probe(int(config.options["x"]), float(config.options["eps"]), model)
    return {"n": probe.n, "U": list(probe.U), "pass": probe.passed}


@command("rank-check", files=("model",), inline=("points",), options={"depth": int})
def _cmd_rank_check(config, loader):
    model = _load_model(loader.file("model", "space", "dist"))
    points = loader.inline("points")
    depth = int(config.options.get("depth", model.depth))
    rank = realization.point_eval_rank(points, depth, model, tol=_tol(config, 1e-10))
    return {"rank": rank, "points": list(points), "depth": depth}


@command("roundtrip", files=("model",), inline=("coeffs",))
def _cmd_roundtrip(config, loader):
    model = _load_model(loader.file("model", "space", "dist"))
    coeffs = complex_vector_from_json(loader.inline("coeffs"))
    recovered = realization.coefficient_roundtrip(coeffs, model)
    padded = np.zeros(model.depth + 1, dtype=complex)
    padded[: len(coeffs)] = coeffs
    err = np.abs(recovered - padded)
    scale = max(float(np.abs(padded).max()), 1e-300)
    return {
        "recovered": complex_vector_to_json(recovered),
        "max_abs_error": float(err.max()),
        "max_rel_error": float(err.max() / scale),
    }


@command("lip-dual", files=("space",), options={"x": int, "y": int, "oracle": bool}, required=("x",))
def _cmd_lip_dual(config, loader):
    space = geometry.MetricSpace.from_json(loader.file("space", "dist"))
    x, y = int(config.options["x"]), config.options.get("y")
    if y is None:
        result = {"kind": "point", "value": geometry.lip_point_norm(space, x)}
        oracle = partial(geometry.lip_point_norm_lp, space, x)
    else:
        value, witness = geometry.lip_dual_pair_norm(space, x, int(y))
        result = {"kind": "pair", "value": value, "witness": witness.to_json()}
        oracle = partial(geometry.lip_dual_pair_norm_lp, space, x, int(y))
    if config.options.get("oracle"):
        result["lp_oracle"] = oracle() if len(space) <= 6 else {"skipped": "n > 6"}
    return result


@command("submult", files=("space", "functions"), options={"random": int})
def _cmd_submult(config, loader):
    space = geometry.MetricSpace.from_json(loader.file("space", "dist"))
    fs_obj = loader.optional_file("functions")
    fs = []
    if fs_obj is not None:
        for entry in fs_obj:
            fs.append(geometry.SampledFunction.from_json(entry, space))
    n_random = int(config.options.get("random", 0))
    if n_random:
        rng = np.random.default_rng(config.seed)
        for _ in range(n_random):
            vals = rng.normal(size=len(space)) + 1j * rng.normal(size=len(space))
            fs.append(geometry.SampledFunction(space, vals))
    if not fs:
        raise ValidationError("provide --functions or --random N")
    ratio, bound = geometry.submult_ratio(space, fs)
    return {"max_ratio": ratio, "bound": bound, "n_functions": len(fs)}


@command("pick-solve", files=("problem",))
def _cmd_pick_solve(config, loader):
    problem = hardy_pick.PickProblem.from_json(loader.file("problem", "nodes"))
    tol = _tol(config, 1e-9)
    solution = hardy_pick.pick_solve(problem.nodes, problem.values, tol=tol)
    result = {"min_norm": solution.min_norm, "pencil_norm": solution.pencil_norm}
    if problem.bound > 0.0:
        result["feasible_at_bound"] = hardy_pick.pick_feasible(problem).to_json()
    return result


@command("carleson-probe", options={"m": int, "start": float}, required=("m",))
def _cmd_carleson_probe(config, loader):
    m = int(config.options["m"])
    start = float(config.options.get("start", 0.0))
    nodes = hardy_pick.carleson_seq(start, m)
    report = hardy_pick.separability_probe(m, start=start, tol=_tol(config, 1e-9))
    return {
        "nodes": [float(y) for y in nodes],
        "max_min_norm": report.max_min_norm,
        "min_pairwise_gap": report.min_pairwise_gap,
        "pattern_norms": list(report.pattern_norms),
    }


@command("detect-mo", files=("matrix", "sample"))
def _cmd_detect_mo(config, loader):
    T = complex_matrix_from_json(loader.file("matrix"))
    sample = geometry.EuclideanPointSet.from_json(loader.file("sample", "points"))
    values = hardy_pick.detect_mo(T, sample, tol=_tol(config, 1e-6))
    if values is None:
        return {"detected": False}
    return {"detected": True, "symbol_values": complex_vector_to_json(values)}


@command("ardy-check", inline=("poly",))
def _cmd_ardy_check(config, loader):
    coeffs = complex_vector_from_json(loader.inline("poly"))
    return {"is_multiplier": hardy_pick.ardy_multiplier_check(coeffs)}


COMMANDS = tuple(_REGISTRY)


def run(config: ExperimentConfig) -> int:
    """Execute one experiment and emit its report.

    The report goes to stdout and, when ``--out`` is set, first to that file;
    a file that cannot be written raises ValidationError instead.  Returns
    the process exit status.
    """
    cmd = _REGISTRY[config.command]
    loader = _Loader(config)
    started = time.perf_counter()
    status, code, result, error = "ok", 0, None, None
    try:
        for name in cmd.required:
            if config.options.get(name) is None:
                raise ValidationError(f"command {cmd.name!r} requires --{name}")
        result = cmd.handler(config, loader)
    except ValidationError as exc:
        status, code, error = "error", 2, {"code": exc.code, "message": str(exc)}
    except NumericalError as exc:
        status, code, error = "error", 3, {"code": exc.code, "message": str(exc)}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # schema mistakes in otherwise well-formed JSON must not escape as tracebacks
        status, code, error = "error", 2, {"code": "ValidationError", "message": f"bad input: {exc!r}"}
    elapsed = time.perf_counter() - started
    report = {
        "command": config.command,
        "status": status,
        "inputs": loader.digests,
        "parameters": {
            "tol": config.tol,
            "seed": config.seed,
            "method": config.method,
            "max_points": config.max_points,
            **config.options,
        },
        "result": result,
        "error": error,
        "timestamp": {"unix_time": time.time(), "wall_clock_s": elapsed},
    }
    text = json.dumps(report, sort_keys=True, indent=2)
    if config.out:
        _write_text(config.out, text + "\n")
    print(text)
    return code


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValidationError, so they become JSON reports."""

    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="funcspace",
        description="Batch experiments over kernels, multipliers, realizations, and Pick problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _REGISTRY.values():
        p = sub.add_parser(cmd.name)
        for name in cmd.files:
            p.add_argument(f"--{name}", metavar="PATH")
        for name in cmd.inline:
            p.add_argument(f"--{name}", metavar="JSON")
        for name, kind in {**cmd.options, **_SHARED, **(_TUNING if cmd.tuning else {})}.items():
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind)
            else:
                p.add_argument(flag, type=kind)
    return parser


def config_from_argv(argv) -> ExperimentConfig:
    """Parse argv and route each given flag by its declared kind."""
    args = vars(_build_parser().parse_args(argv))
    cmd = _REGISTRY[args["command"]]

    def given(names):
        return {name: args[name] for name in names if args.get(name) is not None}

    return ExperimentConfig(
        cmd.name,
        inputs=given(cmd.files),
        inline=given(cmd.inline),
        options=given(cmd.options),
        **given([*_SHARED, *_TUNING]),
    )


def main(argv=None) -> int:
    try:
        return run(config_from_argv(sys.argv[1:] if argv is None else argv))
    except ToolkitError as exc:  # usage errors, and errors escaping before a handler ran
        print(json.dumps({"status": "error", "error": {"code": exc.code, "message": str(exc)}}))
        return 3 if isinstance(exc, NumericalError) else 2


if __name__ == "__main__":
    sys.exit(main())
