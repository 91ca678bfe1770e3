"""Batch front-end: JSON in, JSON report out.

Every command reads JSON inputs, dispatches to one core module, and writes
a report containing the input digests, the parameters actually used, and
the result.  A report is one compact ASCII line of JSON with sorted keys
(``python -m json.tool`` indents it).  orjson reads the inputs and writes
the reports; where it cannot read or write a document exactly as the stdlib
``json`` does, ``json`` does it instead (see :func:`_loads` and
:func:`_encode`), so floats parse back to the same values and malformed
JSON is reported with the stdlib's line and column.  The one difference: an
integer literal beyond the 64-bit range is read as a float.  orjson's report
is kept only when its ``null`` tokens are the report's own top-level
``None`` values; a report that holds any other ``null`` (a NaN, an
infinity, an echoed ``null``) is written by ``json``, with Python's float
text.  Reports are byte-identical across runs with the same inputs and
flags, except for the ``timestamp`` field.  A command takes only the flags
it reads, and its ``parameters`` are the tolerance, method and point cap it
reads and every option given.  ``--order``, the one JSON-valued option,
must be a flat JSON list, so the report echoes it one level deep.  Exit
status: 0 on success, 2 on validation errors (including malformed JSON,
reported with line and column, and command-line usage errors), 3 on
numerical errors such as a degenerate Gram matrix (:func:`_failure`).

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
from typing import Callable, NamedTuple

import numpy as np
import orjson

from . import geometry, hardy_pick, kernels, multipliers, realization
from .errors import NESTED_TOO_DEEPLY, Frozen, NumericalError, ToolkitError, ValidationError
from .serialize import (
    complex_matrix_from_json,
    complex_matrix_to_json,
    complex_to_json,
    complex_vector_from_json,
    integer,
    real,
    shown,
    tolerance,
)


class Command(NamedTuple):
    """One CLI command: its handler and every flag it reads.

    ``files`` are JSON input files (``--NAME PATH``) and ``inline`` are JSON
    inputs given on the command line (``--NAME JSON``); both are digested into
    the report.  ``options`` maps each typed option to the function that
    parses its value.  ``required`` names the options that must be given,
    and ``tuning`` commands also read ``--method``.  ``tol`` is the default
    of ``--tol``; a command that reads no tolerance declares none and takes
    no ``--tol``.
    """

    name: str
    handler: Callable
    files: tuple = ()
    inline: tuple = ()
    options: dict = {}  # shared by every command that declares none; never mutated
    required: tuple = ()
    tuning: bool = False
    tol: float | None = None


_REGISTRY: dict = {}


def command(name: str, **flags):
    """Register the decorated handler as the CLI command ``name``."""

    def register(handler):
        _REGISTRY[name] = Command(name, handler, **flags)
        return handler

    return register


# ExperimentConfig fields set from flags, with their kinds (a tuple lists the
# choices) and defaults.  Every command takes --out, commands that read an
# input file take --max-points, tuning commands --method, and commands with a
# tolerance --tol.
_FIELDS = {"out": str, "max_points": int, "method": ("bisection", "pencil"), "tol": float}
_DEFAULTS = {"out": None, "max_points": 64, "method": "pencil", "tol": None}


def _fields(cmd: Command) -> dict:
    takes = {"out": True, "max_points": bool(cmd.files), "method": cmd.tuning, "tol": cmd.tol is not None}
    return {name: kind for name, kind in _FIELDS.items() if takes[name]}


def _check_kind(name: str, kind, value):
    """``value`` as the plain value of the kind the flag declares, which a report can echo:
    a numpy scalar becomes an int or float, a bool is neither, and a JSON list holds JSON scalars."""
    flag = "--" + name.replace("_", "-")
    if kind is int:
        return integer(value, flag)
    if kind is float:
        return real(value, flag)
    if kind is str and not isinstance(value, str):
        raise ValidationError(f"{flag} must be a {kind.__name__}, got {shown(value)}")
    if isinstance(kind, tuple) and not (isinstance(value, str) and value in kind):
        raise ValidationError(f"{flag} must be one of {', '.join(kind)}, got {shown(value)}")
    if kind is _json_value and (not isinstance(value, list) or any(type(v) not in (str, int, float, bool, type(None)) for v in value)):
        raise ValidationError(f"{flag} must be a flat JSON list, got {shown(value)}")
    return value


class ExperimentConfig(Frozen):
    """One batch run: a command, its input paths/values, and overrides of the declared kinds.

    The three dicts are copied and each value is stored as its check returns
    it, so a config stays as it was checked.
    """

    _fields = ("command", "inputs", "inline", "options", "tol", "method", "max_points", "out")

    def __init__(
        self,
        command: str,
        inputs: dict = {},  # name -> file path
        inline: dict = {},  # name -> inline JSON string
        options: dict = {},  # parsed flags
        tol: float | None = None,  # None: the command's declared default
        method: str = "pencil",
        max_points: int = 64,
        out: str | None = None,
    ):
        if command not in COMMANDS:
            raise ValidationError(f"unknown command {shown(command)}")
        cmd = _REGISTRY[command]
        for field, given in (("inputs", inputs), ("inline", inline), ("options", options)):
            if not isinstance(given, dict):
                raise ValidationError(f"{field} must be a dict, got {shown(given)}")
        for given, declared in ((inputs, cmd.files), (inline, cmd.inline)):
            for name, value in given.items():
                if name not in declared:
                    raise ValidationError(f"command {command!r} takes no --{name}")
                if value is not None:
                    _check_kind(name, str, value)
        options = dict(options)
        for name, value in options.items():
            if name not in cmd.options:
                raise ValidationError(f"command {command!r} takes no option {name!r}")
            if value is not None:
                options[name] = _check_kind(name, cmd.options[name], value)
        flags = {"out": out, "max_points": max_points, "method": method, "tol": tol}
        taken = _fields(cmd)
        for name, kind in _FIELDS.items():
            value, default = flags[name], _DEFAULTS[name]
            if value is not None or default is not None:  # None stands for a default only where it is one
                flags[name] = value = _check_kind(name, kind, value)
            if name not in taken and value != default:
                raise ValidationError(f"command {command!r} takes no --{name.replace('_', '-')}")
        tol = cmd.tol if flags["tol"] is None else tolerance(flags["tol"])
        self._set(command, dict(inputs), dict(inline), options, tol, flags["method"], flags["max_points"], out)


def _json_message(exc: json.JSONDecodeError) -> str:
    return f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"


def _loads(raw):
    """Parse JSON ``raw`` (UTF-8 bytes or text) as the stdlib ``json`` does.

    orjson reads every document it accepts to the value ``json.loads`` gives,
    except an integer outside the signed and unsigned 64-bit range, which it
    reads as a float.  What orjson refuses (``NaN``, ``Infinity`` and
    overflowing literals, lone surrogates, text that is not UTF-8, malformed
    JSON) goes to ``json.loads``, which accepts it or raises
    ``JSONDecodeError``, or ``UnicodeDecodeError`` for text that is not
    UTF-8; a document nested past its recursion limit is refused.
    """
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except RecursionError:  # json.loads recurses once per level of nesting
        raise ValidationError(NESTED_TOO_DEEPLY) from None


def _named(where: str, read, arg):
    """``read(arg)``, with ``where`` (a path or ``--flag``) named in a refusal
    of malformed JSON, of bytes that are not UTF-8 or of an input nested too
    deeply."""
    try:
        return read(arg)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where}: {_json_message(exc)}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{where}: not UTF-8 text at byte {exc.start}") from None
    except ValidationError as exc:
        if str(exc) != NESTED_TOO_DEEPLY:
            raise
        raise ValidationError(f"{where}: {NESTED_TOO_DEEPLY}") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _json_value(text: str):
    """Option type of a JSON-valued option such as ``--order``."""
    try:
        return _loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(_json_message(exc)) from None
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# The key path of each input file's point list (a matrix counts its rows),
# whose length --max-points bounds.
_POINTS = {"sample": ("points",), "space": ("dist",), "model": ("space", "dist"), "matrix": ("re",), "problem": ("nodes",)}


def _file_budget(max_points: int) -> int:
    """The most bytes any input file may hold: 1 MiB, room for any expression,
    plus 256 for each entry of a ``max_points``-square matrix of ``[re, im]`` pairs."""
    return (1 << 20) + 256 * max_points**2


class _Loader:
    """Loads and digests the inputs a handler asks for."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.digests = {}

    def file(self, name: str, reader=None):
        """Input file ``name``, read by ``reader`` when given; a refusal of its
        nesting names the file.

        A file past :func:`_file_budget` is refused after reading one byte
        more than the budget, before it is parsed.  An input with a point list
        (``_POINTS``) has that list's length checked against ``--max-points``
        before anything is built from it.
        """
        path = self.config.inputs.get(name)
        if path is None:
            raise ValidationError(f"command {self.config.command!r} requires --{name}")
        budget, chunks, size = _file_budget(self.config.max_points), [], 0
        try:
            with open(path, "rb") as fh:  # in chunks, since read(n) allocates n bytes
                while size <= budget and (chunk := fh.read(min(budget + 1 - size, 1 << 20))):
                    chunks.append(chunk)
                    size += len(chunk)
        except OSError as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from None
        if size > budget:
            raise ValidationError(f"{path} holds more than {budget} bytes, the budget of --max-points {self.config.max_points}")
        raw = b"".join(chunks)
        points = obj = _named(path, _loads, raw)
        self.digests[name] = {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}
        for key in _POINTS.get(name, ()):
            points = points.get(key) if isinstance(points, dict) else None
        if name in _POINTS and isinstance(points, list) and len(points) > self.config.max_points:
            raise ValidationError(f"{name} has {len(points)} points, above --max-points {self.config.max_points}")
        return obj if reader is None else _named(path, reader, obj)

    def inline(self, name: str):
        text = self.config.inline.get(name)
        if text is None:
            raise ValidationError(f"command {self.config.command!r} requires --{name}")
        try:  # Python decodes argv bytes that are not UTF-8 to lone surrogates; this restores the bytes
            raw = text.encode("utf-8", "surrogateescape")
        except UnicodeEncodeError as exc:
            raise ValidationError(f"--{name}: not UTF-8 text at character {exc.start}") from None
        self.digests[name] = {"inline": True, "sha256": hashlib.sha256(raw).hexdigest()}
        return _named(f"--{name}", _loads, raw)

    def optional_file(self, name: str, reader=None):
        if self.config.inputs.get(name) is None:
            return None
        return self.file(name, reader)


def _failure(exc: ToolkitError) -> tuple:
    """The exit status of ``exc`` (3 if numerical, else 2) and its report entry."""
    return 3 if isinstance(exc, NumericalError) else 2, {"code": exc.code, "message": str(exc)}


def _rng(config: ExperimentConfig) -> np.random.Generator:
    """The generator of a random draw, seeded by ``--seed`` (default 0)."""
    seed = config.options.get("seed", 0)
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must fit in 64 bits")
    return np.random.default_rng(seed)


def _encode(report: dict) -> str:
    """One compact ASCII line of JSON with sorted keys.

    orjson's text is kept when it is ASCII and holds ``null`` exactly once
    for each top-level ``None`` of ``report``.  orjson writes every ``None``,
    NaN and infinity as ``null``, so a NaN, an infinity, a ``None`` below the
    top level or ``null`` inside a string adds at least one more, and the stdlib
    writes the report instead, with ``NaN``/``Infinity`` literals and ``\\u``
    escapes; so it does when orjson refuses the report (integers beyond 64
    bits, non-``str`` keys).  Either way the line parses to the same value,
    and floats to the same bits; only the float text of such a report is
    Python's (``1e-07``, not ``1e-7``).  A report nested past the stdlib's
    recursion limit is refused.
    """
    try:
        text = orjson.dumps(report, option=orjson.OPT_SORT_KEYS).decode()
    except TypeError:
        text = None
    if text is not None and text.isascii() and text.count("null") == sum(v is None for v in report.values()):
        return text
    try:
        return json.dumps(report, sort_keys=True, separators=(",", ":"))
    except RecursionError:  # json.dumps recurses once per level of nesting
        raise ValidationError("the report is nested too deeply to write") from None


# --- handlers ---------------------------------------------------------------


@command("psd-check", files=("matrix",), tol=1e-10)
def _cmd_psd_check(config, loader):
    obj = loader.file("matrix")
    # a gram result holds its sample, whose size the matrix must match
    has_sample = isinstance(obj, dict) and "sample" in obj
    n = len(geometry.EuclideanPointSet.from_json(obj["sample"])) if has_sample else None
    matrix = complex_matrix_from_json(obj)
    if n is not None and matrix.shape != (n, n):
        raise ValidationError(f"expected a {n}x{n} matrix")
    return kernels.psd_check(matrix, tol=config.tol).to_json()


@command("gram", files=("kernel", "sample"))
def _cmd_gram(config, loader):
    K = loader.file("kernel", kernels.kernel_from_json)
    sample = loader.file("sample", geometry.EuclideanPointSet.from_json)
    return {"sample": sample.to_json(), **complex_matrix_to_json(kernels.gram(K, sample))}


@command("mult-norm", files=("kernel", "kernel2", "symbol", "sample"), options={"csv": str}, tuning=True)
def _cmd_mult_norm(config, loader):
    K_F = loader.file("kernel", kernels.kernel_from_json)
    K_E = loader.optional_file("kernel2", kernels.kernel_from_json) or K_F
    symbol = loader.file("symbol", kernels.fn_from_json)
    sample = loader.file("sample", geometry.EuclideanPointSet.from_json)
    result = multipliers.sampled_mult_norm(K_F, K_E, symbol, sample, method=config.method).to_json()
    if config.options.get("csv"):
        rows = ["n,sampled_norm"]
        for n in range(1, len(sample) + 1):
            prefix = geometry.EuclideanPointSet(sample.points[:n])
            sub = multipliers.sampled_mult_norm(K_F, K_E, symbol, prefix, method=config.method)
            rows.append(f"{n},{sub.sampled_norm!r}")
        _write_text(config.options["csv"], "\n".join(rows) + "\n")
        result["csv"] = config.options["csv"]
    return result


@command("contraction", files=("kernel", "symbol", "sample"), tol=1e-10)
def _cmd_contraction(config, loader):
    K = loader.file("kernel", kernels.kernel_from_json)
    symbol = loader.file("symbol", kernels.fn_from_json)
    sample = loader.file("sample", geometry.EuclideanPointSet.from_json)
    return multipliers.contraction_check(K, symbol, sample, tol=config.tol).to_json()


@command("kl-check", files=("kernel", "kernel2", "symbol", "sample"), tol=1e-10)
def _cmd_kl_check(config, loader):
    K = loader.file("kernel", kernels.kernel_from_json)
    L = loader.file("kernel2", kernels.kernel_from_json)
    symbol = loader.file("symbol", kernels.fn_from_json)
    sample = loader.file("sample", geometry.EuclideanPointSet.from_json)
    report = multipliers.kl_monotonicity_check(K, L, symbol, sample, tol=config.tol)
    return {"implication_holds": report.holds, "on_K": report.on_K.to_json(), "on_KL": report.on_KL.to_json()}


@command("vn-check", files=("symbol", "sample"), inline=("poly",), options={"grid": int}, tol=1e-9)
def _cmd_vn_check(config, loader):
    symbol = loader.file("symbol", kernels.fn_from_json)
    coeffs = complex_vector_from_json(loader.inline("poly"))
    sample = loader.file("sample", geometry.EuclideanPointSet.from_json)
    grid = config.options.get("grid", 4096)
    report = multipliers.von_neumann_check(symbol, coeffs, sample, boundary_grid=grid, tol=config.tol)
    return {"lhs": report.lhs, "rhs": report.rhs, "pass": report.passed}


def _load_model(obj, space: geometry.MetricSpace | None = None) -> realization.RealizationModel:
    """Build the model ``obj`` describes; ``space``, when given, is its
    already validated ``obj["space"]``."""
    if not isinstance(obj, dict) or not {"space", "order", "depth"} <= obj.keys():
        raise ValidationError('model JSON needs "space", "order", "depth"')
    if space is None:
        space = geometry.MetricSpace.from_json(obj["space"])
    dense = realization.DenseSequence(space, obj["order"])
    policy, base = obj.get("policy", "default_2n"), None
    if isinstance(policy, dict) and "balls" in policy:
        if not isinstance(policy["balls"], dict):
            raise ValidationError('policy "balls" must be an object such as {"base": 0}')
        policy, base = "balls", policy["balls"].get("base")
    return realization.build_model(dense, obj["depth"], policy=policy, base=base, p=obj.get("p", 2.0))


@command("realize", files=("space", "model"), options={"depth": int, "policy": str, "order": _json_value, "seed": int})
def _cmd_realize(config, loader):
    if config.inputs.get("model") is not None:
        for name in ("depth", "policy", "order", "seed"):
            if config.options.get(name) is not None:
                raise ValidationError(f"realize --model takes no --{name}: the model file fixes it")
        if config.inputs.get("space") is not None:
            raise ValidationError("realize --model takes no --space: the model file fixes it")
    model_obj, space = loader.optional_file("model"), None
    if model_obj is None:  # build the model from the space, validating it once
        space = loader.file("space", geometry.MetricSpace.from_json)
        depth = config.options.get("depth", max(len(space) - 2, 0))
        order = config.options.get("order")
        if order is None:
            order = _rng(config).permutation(len(space)).tolist()
        model_obj = {
            "space": space.to_json(),
            "order": order,
            "depth": depth,
            "policy": config.options.get("policy", "default_2n"),
            "p": 2.0,
        }
    model = _load_model(model_obj, space)
    return {
        "model": model_obj,
        "b": model.b.tolist(),
        "sup_g": model.g.max(axis=1).tolist(),
        "very_independent": realization.very_independence_check(model),
    }


@command("topology-probe", files=("model",), options={"x": int, "eps": float}, required=("x", "eps"))
def _cmd_topology_probe(config, loader):
    model = loader.file("model", _load_model)
    probe = realization.topology_probe(config.options["x"], config.options["eps"], model)
    return {"n": probe.n, "U": list(probe.U), "pass": probe.passed}


@command("rank-check", files=("model",), inline=("points",), options={"depth": int}, tol=1e-10)
def _cmd_rank_check(config, loader):
    model = loader.file("model", _load_model)
    points = loader.inline("points")
    depth = config.options.get("depth", model.depth)
    rank = realization.point_eval_rank(points, depth, model, tol=config.tol)
    return {"rank": rank, "points": list(points), "depth": depth}


@command("roundtrip", files=("model",), inline=("coeffs",), tol=realization.ROUNDTRIP_TOL)
def _cmd_roundtrip(config, loader):
    model = loader.file("model", _load_model)
    coeffs = complex_vector_from_json(loader.inline("coeffs"))
    recovered, bound = realization.coefficient_roundtrip(coeffs, model, tol=config.tol)
    padded = np.zeros(model.depth + 1, dtype=complex)
    padded[: len(coeffs)] = coeffs
    err = np.abs(recovered - padded)
    scale = max(float(np.abs(padded).max()), 1e-300)
    return {
        "recovered": complex_to_json(recovered),
        "max_abs_error": float(err.max()),
        "max_rel_error": float(err.max() / scale),
        "error_bound": bound,
    }


@command("lip-dual", files=("space",), options={"x": int, "y": int}, required=("x",))
def _cmd_lip_dual(config, loader):
    space = loader.file("space", geometry.MetricSpace.from_json)
    x, y = config.options["x"], config.options.get("y")
    if y is None:
        return {"kind": "point", "value": geometry.lip_point_norm(space, x)}
    value, witness = geometry.lip_dual_pair_norm(space, x, y)
    return {"kind": "pair", "value": value, "witness": witness.to_json()}


@command("submult", files=("space", "functions"), options={"random": int, "seed": int})
def _cmd_submult(config, loader):
    space = loader.file("space", geometry.MetricSpace.from_json)
    fs_obj = loader.optional_file("functions")
    if fs_obj is not None and not isinstance(fs_obj, list):
        raise ValidationError(f"--functions must hold a list of sampled functions, got {type(fs_obj).__name__}")
    n_random = config.options.get("random", 0)
    if n_random < 0:
        raise ValidationError("--random must be nonnegative")
    n_functions = n_random + len(fs_obj or ())
    if n_functions > config.max_points:
        raise ValidationError(f"{n_functions} functions, above --max-points {config.max_points}")
    fs = [geometry.SampledFunction.from_json(entry, space) for entry in fs_obj or ()]
    if n_random:
        rng = _rng(config)
        for _ in range(n_random):
            vals = rng.normal(size=len(space)) + 1j * rng.normal(size=len(space))
            fs.append(geometry.SampledFunction(space, vals))
    if not fs:
        raise ValidationError("provide --functions or --random N")
    ratio, bound = geometry.submult_ratio(space, fs)
    return {"max_ratio": ratio, "bound": bound, "n_functions": len(fs)}


@command("pick-solve", files=("problem",), tol=1e-9)
def _cmd_pick_solve(config, loader):
    problem = loader.file("problem", hardy_pick.PickProblem.from_json)
    solution = problem.solve(tol=config.tol)
    result = solution._asdict()
    if problem.bound > 0.0:
        result["feasible_at_bound"] = hardy_pick.pick_feasible(problem).to_json()
    return result


@command("carleson-probe", options={"m": int, "start": float}, required=("m",), tol=1e-9)
def _cmd_carleson_probe(config, loader):
    m = config.options["m"]
    start = config.options.get("start", 0.0)
    report = hardy_pick.separability_probe(m, start=start, tol=config.tol)
    return {
        "nodes": report.nodes.tolist(),
        "max_min_norm": report.max_min_norm,
        "min_pairwise_gap": report.min_pairwise_gap,
        "pattern_norms": list(report.pattern_norms),
    }


@command("detect-mo", files=("matrix", "sample"), tol=1e-6)
def _cmd_detect_mo(config, loader):
    T = loader.file("matrix", complex_matrix_from_json)
    sample = loader.file("sample", geometry.EuclideanPointSet.from_json)
    values = hardy_pick.detect_mo(T, sample, tol=config.tol)
    if values is None:
        return {"detected": False}
    return {"detected": True, "symbol_values": complex_to_json(values)}


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
    code, result, error = 0, None, None
    try:
        for name in cmd.required:
            if config.options.get(name) is None:
                raise ValidationError(f"command {cmd.name!r} requires --{name}")
        result = cmd.handler(config, loader)
    except ToolkitError as exc:
        code, error = _failure(exc)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # schema mistakes in otherwise well-formed JSON must not escape as tracebacks
        code, error = 2, {"code": "ValidationError", "message": f"bad input: {exc!r}"}
    elapsed = time.perf_counter() - started
    report = {
        "command": config.command,
        "status": "ok" if error is None else "error",
        "inputs": loader.digests,
        # every field the command declares but --out, which names where the report goes
        "parameters": {**{name: getattr(config, name) for name in _fields(cmd) if name != "out"}, **config.options},
        "result": result,
        "error": error,
        "timestamp": {"unix_time": time.time(), "wall_clock_s": elapsed},
    }
    try:
        text = _encode(report)
    except ValidationError as exc:  # a result that echoes an input nested too deeply
        report["status"], report["result"] = "error", None
        code, report["error"] = _failure(exc)
        text = _encode(report)
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
        allow_abbrev=False,
        description="Batch experiments over kernels, multipliers, realizations, and Pick problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _REGISTRY.values():
        p = sub.add_parser(cmd.name, allow_abbrev=False)
        for name in cmd.files:
            p.add_argument(f"--{name}", metavar="PATH")
        for name in cmd.inline:
            p.add_argument(f"--{name}", metavar="JSON")
        for name, kind in {**cmd.options, **_fields(cmd)}.items():
            flag = "--" + name.replace("_", "-")
            if isinstance(kind, tuple):
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
        **given(_FIELDS),
    )


def main(argv=None) -> int:
    try:
        return run(config_from_argv(sys.argv[1:] if argv is None else argv))
    except ToolkitError as exc:  # usage errors, and errors escaping before a handler ran
        code, error = _failure(exc)
        print(_encode({"status": "error", "error": error}))
        return code


if __name__ == "__main__":
    sys.exit(main())
