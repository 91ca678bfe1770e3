"""Batch front-end: JSON in, JSON report out.

Every command reads JSON inputs, dispatches to one core module, and writes a
report containing the input digests, the parameters actually used, and the
result.  Reports are byte-identical across runs with the same inputs and
seed, except for the ``timestamp`` field.  Exit status: 0 on success, 2 on
validation errors (including malformed JSON, reported with line and column),
3 on numerical errors such as a degenerate Gram matrix.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import geometry, hardy_pick, kernels, multipliers, realization
from .errors import NumericalError, ToolkitError, ValidationError

COMMANDS = (
    "psd-check",
    "gram",
    "mult-norm",
    "contraction",
    "kl-check",
    "vn-check",
    "realize",
    "topology-probe",
    "rank-check",
    "roundtrip",
    "lip-dual",
    "submult",
    "pick-solve",
    "carleson-probe",
    "detect-mo",
    "ardy-check",
)


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


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_json_file(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(raw.decode("utf-8")), _sha256_bytes(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def _parse_inline(name: str, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--{name}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


class _Loader:
    """Loads and digests the inputs a handler asks for."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.digests = {}

    def file(self, name: str):
        path = self.config.inputs.get(name)
        if path is None:
            raise ValidationError(f"command {self.config.command!r} requires --{name}")
        obj, digest = _load_json_file(path)
        self.digests[name] = {"path": path, "sha256": digest}
        return obj

    def inline(self, name: str, required: bool = True):
        text = self.config.inline.get(name)
        if text is None:
            if required:
                raise ValidationError(f"command {self.config.command!r} requires --{name}")
            return None
        self.digests[name] = {"inline": True, "sha256": _sha256_bytes(text.encode("utf-8"))}
        return _parse_inline(name, text)

    def optional_file(self, name: str):
        if self.config.inputs.get(name) is None:
            return None
        return self.file(name)


def _check_size(config: ExperimentConfig, n: int, what: str) -> None:
    if n > config.max_points:
        raise ValidationError(f"{what} has {n} points, above --max-points {config.max_points}")


def _tol(config: ExperimentConfig, default: float) -> float:
    return default if config.tol is None else config.tol


# --- handlers ---------------------------------------------------------------


def _cmd_psd_check(config, loader):
    obj = loader.file("matrix")
    if "sample" in obj:
        g = kernels.GramMatrix.from_json(obj)
        report = kernels.psd_check(g, tol=_tol(config, 1e-10))
    else:
        from .serialize import complex_matrix_from_json

        report = kernels.psd_check(complex_matrix_from_json(obj), tol=_tol(config, 1e-10))
    return report.to_json()


def _cmd_gram(config, loader):
    K = kernels.kernel_from_json(loader.file("kernel"))
    sample = geometry.EuclideanPointSet.from_json(loader.file("sample"))
    _check_size(config, len(sample), "sample")
    return kernels.gram(K, sample).to_json()


def _mult_norm_report(config, K_F, K_E, symbol, sample, tol):
    report = multipliers.sampled_mult_norm(K_F, K_E, symbol, sample, tol=tol, method=config.method)
    return report


def _cmd_mult_norm(config, loader):
    K_F = kernels.kernel_from_json(loader.file("kernel"))
    second = loader.optional_file("kernel2")
    K_E = kernels.kernel_from_json(second) if second is not None else K_F
    symbol = kernels.fn_from_json(loader.file("symbol"))
    sample = geometry.EuclideanPointSet.from_json(loader.file("sample"))
    _check_size(config, len(sample), "sample")
    tol = _tol(config, 1e-9)
    report = _mult_norm_report(config, K_F, K_E, symbol, sample, tol)
    result = report.to_json()
    if config.csv:
        rows = ["n,sampled_norm"]
        for n in range(1, len(sample) + 1):
            prefix = geometry.EuclideanPointSet(sample.points[:n])
            sub = _mult_norm_report(config, K_F, K_E, symbol, prefix, tol)
            rows.append(f"{n},{sub.sampled_norm!r}")
        with open(config.csv, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        result["csv"] = config.csv
    return result


def _cmd_contraction(config, loader):
    K = kernels.kernel_from_json(loader.file("kernel"))
    symbol = kernels.fn_from_json(loader.file("symbol"))
    sample = geometry.EuclideanPointSet.from_json(loader.file("sample"))
    _check_size(config, len(sample), "sample")
    return multipliers.contraction_check(K, symbol, sample, tol=_tol(config, 1e-10)).to_json()


def _cmd_kl_check(config, loader):
    K = kernels.kernel_from_json(loader.file("kernel"))
    L = kernels.kernel_from_json(loader.file("kernel2"))
    symbol = kernels.fn_from_json(loader.file("symbol"))
    sample = geometry.EuclideanPointSet.from_json(loader.file("sample"))
    _check_size(config, len(sample), "sample")
    tol = _tol(config, 1e-10)
    on_K = multipliers.contraction_check(K, symbol, sample, tol=tol)
    on_KL = multipliers.contraction_check(kernels.hadamard(K, L), symbol, sample, tol=tol)
    holds = (not on_K.is_psd) or on_KL.is_psd
    return {"implication_holds": holds, "on_K": on_K.to_json(), "on_KL": on_KL.to_json()}


def _cmd_vn_check(config, loader):
    symbol = kernels.fn_from_json(loader.file("symbol"))
    coeffs = loader.inline("poly")
    sample = geometry.EuclideanPointSet.from_json(loader.file("sample"))
    _check_size(config, len(sample), "sample")
    grid = int(config.options.get("grid", 4096))
    report = multipliers.von_neumann_check(
        symbol, [complex(c) if not isinstance(c, list) else complex(c[0], c[1]) for c in coeffs],
        sample, boundary_grid=grid, tol=_tol(config, 1e-9),
    )
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


def _cmd_realize(config, loader):
    model_obj = loader.optional_file("model")
    if model_obj is None:
        space = geometry.MetricSpace.from_json(loader.file("space"))
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


def _cmd_topology_probe(config, loader):
    model = _load_model(loader.file("model"))
    x = int(config.options["x"])
    eps = float(config.options["eps"])
    probe = realization.topology_probe(x, eps, model)
    return {"n": probe.n, "U": list(probe.U), "pass": probe.passed}


def _cmd_rank_check(config, loader):
    model = _load_model(loader.file("model"))
    points = loader.inline("points")
    depth = int(config.options.get("depth", model.depth))
    rank = realization.point_eval_rank(points, depth, model, tol=_tol(config, 1e-10))
    return {"rank": rank, "points": list(points), "depth": depth}


def _cmd_roundtrip(config, loader):
    model = _load_model(loader.file("model"))
    from .serialize import complex_vector_from_json, complex_vector_to_json

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


def _cmd_lip_dual(config, loader):
    space = geometry.MetricSpace.from_json(loader.file("space"))
    _check_size(config, len(space), "space")
    x = int(config.options["x"])
    y = config.options.get("y")
    run_oracle = bool(config.options.get("oracle", False)) and len(space) <= 6
    if y is None:
        value = geometry.lip_point_norm(space, x)
        result = {"kind": "point", "value": value}
        if run_oracle:
            result["lp_oracle"] = geometry.lip_point_norm_lp(space, x)
    else:
        value, witness = geometry.lip_dual_pair_norm(space, x, int(y))
        result = {"kind": "pair", "value": value, "witness": witness.to_json()}
        if run_oracle:
            result["lp_oracle"] = geometry.lip_dual_pair_norm_lp(space, x, int(y))
    return result


def _cmd_submult(config, loader):
    space = geometry.MetricSpace.from_json(loader.file("space"))
    _check_size(config, len(space), "space")
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


def _cmd_pick_solve(config, loader):
    problem = hardy_pick.PickProblem.from_json(loader.file("problem"))
    tol = _tol(config, 1e-9)
    solution = hardy_pick.pick_solve(problem.nodes, problem.values, tol=tol)
    result = {"min_norm": solution.min_norm, "pencil_norm": solution.pencil_norm}
    if problem.bound > 0.0:
        result["feasible_at_bound"] = hardy_pick.pick_feasible(problem).to_json()
    return result


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


def _cmd_detect_mo(config, loader):
    from .serialize import complex_matrix_from_json, complex_vector_to_json

    T = complex_matrix_from_json(loader.file("matrix"))
    sample = geometry.EuclideanPointSet.from_json(loader.file("sample"))
    values = hardy_pick.detect_mo(T, sample, tol=_tol(config, 1e-6))
    if values is None:
        return {"detected": False}
    return {"detected": True, "symbol_values": complex_vector_to_json(values)}


def _cmd_ardy_check(config, loader):
    coeffs = loader.inline("poly")
    parsed = [complex(c) if not isinstance(c, list) else complex(c[0], c[1]) for c in coeffs]
    return {"is_multiplier": hardy_pick.ardy_multiplier_check(parsed)}


_HANDLERS = {
    "psd-check": _cmd_psd_check,
    "gram": _cmd_gram,
    "mult-norm": _cmd_mult_norm,
    "contraction": _cmd_contraction,
    "kl-check": _cmd_kl_check,
    "vn-check": _cmd_vn_check,
    "realize": _cmd_realize,
    "topology-probe": _cmd_topology_probe,
    "rank-check": _cmd_rank_check,
    "roundtrip": _cmd_roundtrip,
    "lip-dual": _cmd_lip_dual,
    "submult": _cmd_submult,
    "pick-solve": _cmd_pick_solve,
    "carleson-probe": _cmd_carleson_probe,
    "detect-mo": _cmd_detect_mo,
    "ardy-check": _cmd_ardy_check,
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment and emit its report.

    The report goes to stdout and, when ``--out`` is set, to that file.
    Returns the process exit status.
    """
    loader = _Loader(config)
    started = time.perf_counter()
    status, code, result, error = "ok", 0, None, None
    try:
        result = _HANDLERS[config.command](config, loader)
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
    print(text)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text + "\n")
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funcspace",
        description="Batch experiments over kernels, multipliers, realizations, and Pick problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    file_flags = {
        "psd-check": ["matrix"],
        "gram": ["kernel", "sample"],
        "mult-norm": ["kernel", "kernel2", "symbol", "sample"],
        "contraction": ["kernel", "symbol", "sample"],
        "kl-check": ["kernel", "kernel2", "symbol", "sample"],
        "vn-check": ["symbol", "sample"],
        "realize": ["space", "model"],
        "topology-probe": ["model"],
        "rank-check": ["model"],
        "roundtrip": ["model"],
        "lip-dual": ["space"],
        "submult": ["space", "functions"],
        "pick-solve": ["problem"],
        "carleson-probe": [],
        "detect-mo": ["matrix", "sample"],
        "ardy-check": [],
    }
    inline_flags = {
        "vn-check": ["poly"],
        "rank-check": ["points"],
        "roundtrip": ["coeffs"],
        "ardy-check": ["poly"],
    }
    extra = {
        "vn-check": [("--grid", int, False)],
        "realize": [("--depth", int, False), ("--policy", str, False), ("--order", str, False)],
        "topology-probe": [("--x", int, True), ("--eps", float, True)],
        "rank-check": [("--depth", int, False)],
        "lip-dual": [("--x", int, True), ("--y", int, False), ("--oracle", None, False)],
        "submult": [("--random", int, False)],
        "carleson-probe": [("--m", int, True), ("--start", float, False)],
    }
    for name in COMMANDS:
        p = sub.add_parser(name)
        for f in file_flags.get(name, []):
            p.add_argument(f"--{f}", metavar="PATH")
        for f in inline_flags.get(name, []):
            p.add_argument(f"--{f}", metavar="JSON")
        for flag, typ, required in extra.get(name, []):
            if typ is None:
                p.add_argument(flag, action="store_true")
            else:
                p.add_argument(flag, type=typ, required=required)
        p.add_argument("--tol", type=float)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--method", choices=["bisection", "pencil"], default="pencil")
        p.add_argument("--max-points", type=int, default=64)
        p.add_argument("--out", metavar="PATH")
        p.add_argument("--csv", metavar="PATH")
    return parser


def config_from_argv(argv) -> ExperimentConfig:
    args = _build_parser().parse_args(argv)
    command = args.command
    known = {"command", "tol", "seed", "method", "max_points", "out", "csv"}
    inputs, inline, options = {}, {}, {}
    inline_names = {"poly", "points", "coeffs", "order"}
    for key, value in vars(args).items():
        if key in known or value is None or value is False:
            continue
        if key in inline_names:
            inline[key] = value
        elif isinstance(value, str) and key not in ("policy",):
            inputs[key] = value
        else:
            options[key] = value
    if "order" in inline:
        options["order"] = _parse_inline("order", inline.pop("order"))
    return ExperimentConfig(
        command=command,
        inputs=inputs,
        inline=inline,
        options=options,
        tol=args.tol,
        seed=args.seed,
        method=args.method,
        max_points=args.max_points,
        out=args.out,
        csv=args.csv,
    )


def main(argv=None) -> int:
    try:
        config = config_from_argv(sys.argv[1:] if argv is None else argv)
    except ValidationError as exc:
        print(json.dumps({"status": "error", "error": {"code": exc.code, "message": str(exc)}}))
        return 2
    try:
        return run(config)
    except ToolkitError as exc:  # errors escaping before a handler ran
        code = 3 if isinstance(exc, NumericalError) else 2
        print(json.dumps({"status": "error", "error": {"code": exc.code, "message": str(exc)}}))
        return code


if __name__ == "__main__":
    sys.exit(main())
