"""Input generation for the three workloads.

A workload is a pool of rounds drawn from the seed.  Every round of a
workload holds the same operation templates (command, variant, size stratum)
in the same order, so each round attempts the same operations and the two
kept faults fail the same number of times in every round.  Sample and space
sizes are drawn from continuous ranges, stratified across the pool (each
template sees each of ``len(pool)`` equal slices of its range once), so the
latency quantiles of a run do not hinge on which sizes the seed happened to
pick.  Pick problems are small, so every round holds each node count once.

Each input is written as a JSON file before timing starts.  Each operation
carries the ``ExperimentConfig`` that reaches ``funcspace.cli.run`` and a
checker built from references computed here, apart from the program.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from funcspace.cli import ExperimentConfig

import checks

#: Rounds per pool, per workload.  Sizes and sweep starts are stratified over
#: a pool, so a larger pool covers the ranges more finely and the latency
#: quantiles of a run depend less on the seed.
POOL_ROUNDS = {"kernel-mult": 24, "pick-sweep": 20, "metric-realize": 12}


@dataclass
class Op:
    """One operation: a CLI config, its checker, and the kept fault it may show."""

    label: str
    config: object
    check: Callable[[int, dict], "str | None"]
    fault: str | None = None
    reference: tuple | None = None  # (nodes, values, ref, margin) of a Pick solve


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def __call__(self, obj) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"in{self.count:05d}.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(obj))  # json.dump would encode in pure Python
        return path


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _strata(rng, rounds: int) -> np.ndarray:
    """One number per round in [0, 1), each from its own slice of the range."""
    return (rng.permutation(rounds) + rng.uniform(size=rounds)) / rounds


def _stratified(rng, lo: int, hi: int, rounds: int) -> np.ndarray:
    """One integer per round in [lo, hi], each from its own slice of the range."""
    return np.minimum(lo + np.floor(_strata(rng, rounds) * (hi - lo + 1)).astype(int), hi)


def _ok(code: int, report: dict):
    if code != 0 or report["status"] != "ok":
        return f"exit {code}: {report.get('error')}"
    return None


# --- kernel-mult ------------------------------------------------------------------

_SZEGO = {"op": "szego"}
_KERNELS = {
    "szego": (_SZEGO, 1, _SZEGO),
    "ball2": ({"op": "ball", "dim": 2}, 2, {"op": "ball", "dim": 2}),
    "geom-rank1": ({"op": "geom", "arg": {"op": "rank1", "fn": {"kind": "coordinate", "index": 0}}}, 1, _SZEGO),
    "hadamard": (
        {"op": "hadamard", "left": _SZEGO, "right": {"op": "sum", "terms": [_SZEGO, {"op": "constant", "value": 1.0}]}},
        1,
        _SZEGO,
    ),
}
_KERNEL_COMMANDS = ("mult-norm/pencil", "mult-norm/bisection", "contraction", "kl-check", "gram")
_N_RANGE = (16, 48)
#: Sample points lie in this annulus, at jittered equispaced angles; the Gram
#: condition number then stays far below the 1e7 the workload allows.
_RADII = (0.88, 0.96)
_COND_LIMIT = 1e7


def _circle_sample(rng, n: int, dim: int) -> np.ndarray:
    theta = rng.uniform(0, 2 * np.pi) + 2 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
    z = rng.uniform(*_RADII, n) * np.exp(1j * theta)
    if dim == 1:
        return z[:, None]
    alpha = rng.uniform(0, np.pi / 2, n)
    beta = rng.uniform(0, 2 * np.pi, n)
    return np.stack([z * np.cos(alpha), z * np.sin(alpha) * np.exp(1j * beta)], axis=1)


def _moebius(rng) -> dict:
    return {"kind": "moebius", "a": _pair(rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi)))}


def _poly(rng) -> dict:
    k = int(rng.integers(2, 5))
    c = rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)
    c *= rng.uniform(0.8, 1.6) / np.abs(c).sum()
    return {"kind": "polynomial", "coeffs": [_pair(v) for v in c]}


def _symbol(rng, command: str, use_moebius: bool) -> dict:
    """Moebius maps and polynomials; contraction tests get a scaled Moebius map,
    whose verdict is far from the PSD tolerance, or a polynomial."""
    if not use_moebius:
        return _poly(rng)
    if command in ("contraction", "kl-check"):
        return {"kind": "scale", "factor": [rng.uniform(0.5, 0.95), 0.0], "arg": _moebius(rng)}
    return _moebius(rng)


def _kernel_mult_op(rng, write, kname: str, command: str, n: int, use_moebius: bool) -> Op:
    kspec, dim, lspec = _KERNELS[kname]
    pts = _circle_sample(rng, n, dim)
    g = checks.kernel_matrix(kspec, pts)
    eig = np.linalg.eigvalsh(g)
    if not eig.min() > 0 or eig.max() / eig.min() > _COND_LIMIT:
        raise RuntimeError(f"{kname} Gram on {n} points has condition {eig.max() / eig.min():.3g}")
    sample = {"dim": dim, "points": [[_pair(v) for v in p] for p in pts]}
    inputs = {"kernel": write(kspec), "sample": write(sample)}
    if command == "gram":
        config = ExperimentConfig("gram", inputs=inputs)
        return Op(f"gram {kname}", config, lambda code, rep: _ok(code, rep) or checks.check_gram(rep["result"], g))

    symbol = _symbol(rng, command, use_moebius)
    if dim == 2:
        symbol = {"kind": "compose", "outer": symbol, "inner": {"kind": "coordinate", "index": 0}}
    inputs["symbol"] = write(symbol)
    w = checks.eval_symbol(symbol, pts)
    scaled = (1.0 - w[:, None] * np.conj(w)[None, :]) * g

    if command.startswith("mult-norm"):
        method = command.split("/")[1]
        ref = checks.pencil_norm((w[:, None] * g) * np.conj(w)[None, :], g)
        sample_max = float(np.abs(w).max())
        disk_sup = checks.symbol_disk_sup(symbol) if kname == "szego" else None

        def check(code, rep):
            res = rep.get("result") or {}
            return _ok(code, rep) or checks.first_failure(
                checks.check_mult_norm(res["sampled_norm"], ref),
                checks.check_close("lower_bound_sup", res["lower_bound_sup"], sample_max, 1e-12),
                checks.check_sandwich(res["sampled_norm"], sample_max, disk_sup, 1e-9) if disk_sup else None,
            )

        config = ExperimentConfig("mult-norm", inputs=inputs, method=method)
        return Op(f"{command} {kname}", config, check)

    if command == "contraction":
        config = ExperimentConfig("contraction", inputs=inputs)
        return Op(f"contraction {kname}", config, lambda code, rep: _ok(code, rep) or checks.check_psd_report(rep["result"], scaled, 1e-10))

    # kl-check: contraction for K must carry over to the Schur product with L
    inputs["kernel2"] = write(lspec)
    scaled_kl = scaled * checks.kernel_matrix(lspec, pts)

    def check_kl(code, rep):
        res = rep.get("result") or {}
        return _ok(code, rep) or checks.first_failure(
            checks.check_equal("implication_holds", res["implication_holds"], True),
            checks.check_psd_report(res["on_K"], scaled, 1e-10),
            checks.check_psd_report(res["on_KL"], scaled_kl, 1e-10),
        )

    return Op(f"kl-check {kname}", ExperimentConfig("kl-check", inputs=inputs), check_kl)


def kernel_mult(rng, rounds: int, write) -> list:
    templates = [(k, c) for k in _KERNELS for c in _KERNEL_COMMANDS]
    sizes = {t: _stratified(rng, *_N_RANGE, rounds) for t in templates}
    pool = []
    for r in range(rounds):
        pool.append([
            _kernel_mult_op(rng, write, k, c, int(sizes[(k, c)][r]), (r + i) % 2 == 0)
            for i, (k, c) in enumerate(templates)
        ])
    return pool


# --- pick-sweep -------------------------------------------------------------------

_PICK_NODES = range(6, 13)
_SWEEP_M = (5, 6, 7)
_START_RANGE = (0.0, 0.5)


def _pick_solve_op(rng, write, m: int, targets: str) -> Op:
    nodes = checks.halving_nodes(rng.uniform(*_START_RANGE), m) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    if targets == "pattern":
        pattern = np.zeros(m)
        ones = rng.choice(m, size=rng.integers(1, m), replace=False)  # never all 0 or all 1
        pattern[ones] = 1.0
        values = pattern.astype(complex)
    else:
        values = np.sqrt(rng.uniform(0, 1, m)) * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
    ref, margin = checks.pick_reference(nodes, values)
    cauchy = 1.0 / (1.0 - nodes[:, None] * np.conj(nodes)[None, :])
    at_bound = (1.0 - values[:, None] * np.conj(values)[None, :]) * cauchy
    problem = {"nodes": [_pair(v) for v in nodes], "values": [_pair(v) for v in values], "bound": 1.0}

    def check(code, rep):
        res = rep.get("result") or {}
        return _ok(code, rep) or checks.first_failure(
            checks.check_psd_report(res["feasible_at_bound"], 0.5 * (at_bound + at_bound.conj().T), 1e-10),
            checks.check_pick_norm(res["min_norm"], ref, margin, 1e-9),
        )

    config = ExperimentConfig("pick-solve", inputs={"problem": write(problem)})
    return Op(f"pick-solve {targets} m={m}", config, check, checks.PICK_SHORTFALL, (nodes, values, ref, margin))


def _sweep_op(m: int, start: float) -> Op:
    nodes = checks.halving_nodes(start, m)
    masks = np.arange(2**m)
    patterns = ((masks[:, None] >> np.arange(m)[None, :]) & 1).astype(complex)
    refs = [checks.pick_reference(nodes, p) for p in patterns]

    def check(code, rep):
        res = rep.get("result") or {}
        failure = _ok(code, rep) or checks.first_failure(
            checks.check_equal("nodes", res["nodes"], nodes.tolist()),
            checks.check_equal("min_pairwise_gap", res["min_pairwise_gap"], 1.0),
            checks.check_equal("pattern count", len(res["pattern_norms"]), 2**m),
            checks.check_equal("max_min_norm", res["max_min_norm"], max(res["pattern_norms"])),
        )
        if failure:
            return failure
        # an unexpected excess anywhere outranks the kept shortfall
        reasons = [checks.check_pick_norm(t, ref, margin, 1e-9) for t, (ref, margin) in zip(res["pattern_norms"], refs)]
        reasons = [r for r in reasons if r]
        unexpected = [r for r in reasons if not r.startswith(checks.PICK_SHORTFALL)]
        if unexpected:
            return unexpected[0]
        return f"{reasons[0]} ({len(reasons)} of {2**m} patterns)" if reasons else None

    config = ExperimentConfig("carleson-probe", options={"m": m, "start": start})
    return Op(f"carleson-probe m={m}", config, check, fault=checks.PICK_SHORTFALL)


def pick_sweep(rng, rounds: int, write) -> list:
    # a sweep's cost depends on its start, so each m sees every slice of the range
    lo, hi = _START_RANGE
    starts = {m: lo + (hi - lo) * _strata(rng, rounds) for m in _SWEEP_M}
    pool = []
    for r in range(rounds):
        ops = [_pick_solve_op(rng, write, m, t) for m in _PICK_NODES for t in ("pattern", "disk")]
        ops += [_sweep_op(m, float(starts[m][r])) for m in _SWEEP_M]
        pool.append(ops)
    _spot_check_mp(pool[0])
    return pool


def _spot_check_mp(ops) -> None:
    """Confirm the scipy references of the largest solves against 50-digit mpmath.

    The check runs in a child process, so neither mpmath nor its work counts
    towards the memory of the workload process."""
    solves = [op.reference for op in ops if op.reference is not None]
    largest = max(len(nodes) for nodes, *_ in solves)
    cases = [
        [[_pair(v) for v in nodes], [_pair(v) for v in values], ref, margin]
        for nodes, values, ref, margin in solves
        if len(nodes) == largest
    ]
    child = subprocess.run(
        [sys.executable, checks.__file__], input=json.dumps(cases), capture_output=True, text=True, timeout=120
    )
    if child.returncode != 0:
        raise RuntimeError(f"mpmath spot check failed: {child.stderr.strip()}")


# --- metric-realize ---------------------------------------------------------------

#: Every operation gets a space of its own; each command draws its sizes from
#: these four strata, so a round covers 40-240 points densely.  The first
#: round of every pool holds one space at the top size, so the peak memory of
#: a run does not depend on the seed.
_SPACE_STRATA = ((40, 89), (90, 139), (140, 189), (190, 240))
_N_MAX = 240
_METRIC_COMMANDS = (
    "realize",
    "roundtrip/accurate",
    "roundtrip/inaccurate",
    "rank-check",
    "topology-probe",
    "lip-dual/point",
    "lip-dual/pair",
    "submult",
)
#: Weights k/64 with k in [8, 63]: dyadic, below 1, and every pivot g_n(y_{n+1})
#: is at least 1/8.  Shortest-path sums of such weights are exact.
_WEIGHT_NUMERATORS = (8, 64)
#: Roundtrip depths come from two bands with the border region left out:
#: recovery is accurate (error < 1e-11) up to depth 12 and inaccurate
#: (error > 1e-6) from depth 36; the inaccurate band uses the deepest model,
#: n - 1 >= 39.  Models for rank-check and topology-probe have depth n - 1 too,
#: so an operation's cost depends on its command and size alone.
_DEPTH_ACCURATE = (2, 12)
_SUBMULT_FUNCTIONS = 6
_CONFIG = {"max_points": 256}


def _random_graph_metric(rng, n: int) -> np.ndarray:
    perm = rng.permutation(n)
    edges = [(perm[i], perm[rng.integers(0, i)]) for i in range(1, n)]  # spanning tree
    extra = rng.integers(0, n, size=(2 * n, 2))
    edges += [(a, b) for a, b in extra if a != b]
    weights = rng.integers(*_WEIGHT_NUMERATORS, size=len(edges)) / 64.0
    return checks.graph_metric(n, [(a, b, w) for (a, b), w in zip(edges, weights)])


def _metric_op(rng, write, command: str, n: int) -> Op:
    dist = _random_graph_metric(rng, n)
    base = int(rng.integers(0, n))
    order = [int(i) for i in rng.permutation(n)]
    space = {"dist": dist.tolist(), "base": base}

    def model_path(depth):
        return write({"space": space, "order": order, "depth": depth, "policy": "default_2n", "p": 2.0})

    if command == "realize":  # the g system, its weights and the triangular independence pattern
        depth = n - 2  # the command's default depth
        g = checks.realization_g(dist, order, depth)
        sup_g = g.max(axis=1)
        b = sup_g * 2.0 ** np.arange(depth + 1)

        def check_realize(code, rep):
            res = rep.get("result") or {}
            return _ok(code, rep) or checks.first_failure(
                checks.check_equal("very_independent", res["very_independent"], True),
                checks.check_equal("b", res["b"], b.tolist()),
                checks.check_equal("sup_g", res["sup_g"], sup_g.tolist()),
            )

        config = ExperimentConfig("realize", inputs={"space": write(space)}, options={"order": order}, **_CONFIG)
        return Op(f"realize n={n}", config, check_realize)

    if command.startswith("roundtrip"):  # coefficient recovery in the accurate or inaccurate band
        if command == "roundtrip/accurate":
            depth, fault = int(rng.integers(_DEPTH_ACCURATE[0], _DEPTH_ACCURATE[1] + 1)), None
        else:
            depth, fault = n - 1, checks.ROUNDTRIP_INACCURATE
        coeffs = rng.normal(size=depth + 1) + 1j * rng.normal(size=depth + 1)
        inline = {"coeffs": json.dumps([_pair(c) for c in coeffs])}
        config = ExperimentConfig("roundtrip", inputs={"model": model_path(depth)}, inline=inline, **_CONFIG)
        return Op(f"{command} n={n} depth={depth}", config, lambda code, rep: checks.check_roundtrip(code, rep, coeffs), fault)

    if command in ("rank-check", "topology-probe"):
        depth = n - 1
        g = checks.realization_g(dist, order, depth)
        inputs = {"model": model_path(depth)}

    if command == "rank-check":  # point evaluations on enumerated points are triangular: full rank
        k = int(rng.integers(2, 13))
        points = [order[i] for i in sorted(rng.choice(depth + 1, size=k, replace=False))]
        sub = g[:, points]
        ref_rank = int(np.linalg.matrix_rank(sub, tol=1e-10 * np.linalg.norm(sub, 2)))

        def check_rank(code, rep):
            res = rep.get("result") or {}
            return _ok(code, rep) or checks.first_failure(
                checks.check_equal("rank", res["rank"], k), checks.check_equal("numpy rank", ref_rank, k)
            )

        config = ExperimentConfig("rank-check", inputs=inputs, inline={"points": json.dumps(points)}, **_CONFIG)
        return Op(f"rank-check n={n}", config, check_rank)

    if command == "topology-probe":  # the g's carve a neighbourhood of an enumerated point
        x = order[int(rng.integers(0, depth))]
        eps = float(rng.uniform(0.05, 0.95))
        first = next(m for m in range(1, depth + 1) if dist[x, order[m - 1]] < eps / 2)
        members = np.flatnonzero((g[first - 1] > g[first]) & (g[first] < eps / 2)).tolist()

        def check_probe(code, rep):
            res = rep.get("result") or {}
            return _ok(code, rep) or checks.first_failure(
                checks.check_equal("pass", res["pass"], True),
                checks.check_equal("n", res["n"], first),
                checks.check_equal("U", res["U"], members),
            )

        config = ExperimentConfig("topology-probe", inputs=inputs, options={"x": x, "eps": eps}, **_CONFIG)
        return Op(f"topology-probe n={n}", config, check_probe)

    inputs = {"space": write(space)}
    if command == "lip-dual/point":  # max(1, rho(x, base))
        x = int(rng.integers(0, n))
        value = max(1.0, float(dist[x, base]))
        config = ExperimentConfig("lip-dual", inputs=inputs, options={"x": x}, **_CONFIG)
        return Op(f"lip-dual/point n={n}", config, lambda code, rep: _ok(code, rep) or checks.check_equal("value", rep["result"]["value"], value))

    if command == "lip-dual/pair":  # rho(x, y), witnessed by rho(., y) - rho(base, y)
        x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
        witness = (dist[:, y] - dist[base, y]).astype(complex)

        def check_pair(code, rep):
            res = rep.get("result") or {}
            if _ok(code, rep):
                return _ok(code, rep)
            got = np.array([complex(*p) for p in res["witness"]["values"]])
            return checks.first_failure(
                checks.check_equal("value", res["value"], float(dist[x, y])),
                checks.check_equal("witness", got.tolist(), witness.tolist()),
                None if checks.lip_norm(got, dist, base) <= 1.0 else "witness: Lipschitz norm above 1",
            )

        config = ExperimentConfig("lip-dual", inputs=inputs, options={"x": x, "y": y}, **_CONFIG)
        return Op(f"lip-dual/pair n={n}", config, check_pair)

    # submult: product-norm inflation of random functions stays below 2 max(1, diam) + 1
    k = _SUBMULT_FUNCTIONS
    fs = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    ratio = checks.submult_reference(dist, base, fs)
    bound = 2.0 * max(1.0, float(dist.max())) + 1.0
    inputs["functions"] = write([{"values": [_pair(v) for v in f]} for f in fs])

    def check_submult(code, rep):
        res = rep.get("result") or {}
        return _ok(code, rep) or checks.first_failure(
            checks.check_equal("bound", res["bound"], bound),
            checks.check_equal("n_functions", res["n_functions"], k),
            checks.check_close("max_ratio", res["max_ratio"], ratio, 1e-12),
            None if res["max_ratio"] <= bound else f"max_ratio {res['max_ratio']!r} above bound {bound!r}",
        )

    return Op(f"submult n={n}", ExperimentConfig("submult", inputs=inputs, **_CONFIG), check_submult)


def metric_realize(rng, rounds: int, write) -> list:
    templates = [(c, stratum) for stratum in _SPACE_STRATA for c in _METRIC_COMMANDS]
    sizes = {t: _stratified(rng, *t[1], rounds) for t in templates}
    sizes[templates[-len(_METRIC_COMMANDS)]][0] = _N_MAX  # realize, top stratum, first round
    return [[_metric_op(rng, write, c, int(sizes[(c, s)][r])) for c, s in templates] for r in range(rounds)]


_BUILDERS = {"kernel-mult": kernel_mult, "pick-sweep": pick_sweep, "metric-realize": metric_realize}


def build(workload: str, seed: int, workdir: str) -> list:
    """The pool of rounds for a workload: same seed, same inputs and references."""
    rng = np.random.default_rng([seed, sorted(_BUILDERS).index(workload)])
    return _BUILDERS[workload](rng, POOL_ROUNDS[workload], _Writer(workdir))
