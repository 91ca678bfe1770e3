"""Metamorphic relations: symmetries of the mathematics that every input must
respect, checked without a reference value.

Scaling by 2 is exact in binary floating point away from overflow and
underflow, and the code keeps it exact: doubling Pick targets doubles both
the certified ``min_norm`` and the ``pencil_norm``, doubling a symbol
doubles its sampled multiplier norm, and doubling every distance halves
``dil``, all bit for bit.  Permuting Pick's nodes with their targets, or
rotating the targets by a unit that multiplies exactly (``1j``, ``-1``,
``-1j``), leaves the exact minimum unchanged, so two certified values differ
by at most the excess that :func:`hardy_pick.pick_solve` documents,
``tol + 32 eps cond(C) max(1, t)`` with C the Szego Gram scaled to unit
diagonal.  So does moving the nodes by a disk automorphism, and deleting a
node can only lower the exact minimum.  Doubling every point of a Euclidean
point set doubles every induced distance bit for bit, at every magnitude.
Relabeling the points of a metric space, with every function's values
permuted alike, leaves ``dil`` and submult's ``max_ratio`` unchanged bit for
bit, though the split certificate, whose ``argmin`` breaks ties by index,
may then store other pairs.  Through the CLI, relabeling a metric space's
JSON, with the order, the points, ``x``/``y``, the base and every function's
values relabeled alike, leaves every value of ``realize``, ``roundtrip``,
``rank-check``, ``topology-probe``, ``lip-dual`` and ``submult`` identical
bit for bit and every index relabeled.
"""

import json

import numpy as np
import pytest

from funcspace import cli
from funcspace.errors import DegenerateGram
from funcspace.geometry import EuclideanPointSet, MetricSpace, SampledFunction, dil, submult_ratio
from funcspace.hardy_pick import pick_solve
from funcspace.kernels import fn_scale, moebius, polynomial, szego
from funcspace.multipliers import sampled_mult_norm
from helpers import disk_sample, random_graph_metric

EPS = np.finfo(float).eps
TOL = 1e-9


def _pick_draws(seed: int, count: int):
    """Random-disk Pick problems: 3-9 nodes in the disk, targets in ``|w| < 0.9``."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(3, 10))
        nodes = disk_sample(rng, m, radius=0.95).points[:, 0]
        targets = disk_sample(rng, m, radius=0.9).points[:, 0]
        yield nodes, targets


def _allowance(nodes, t: float) -> float:
    d = 1.0 - np.abs(nodes) ** 2
    C = np.sqrt(d[:, None] * d[None, :]) / (1.0 - nodes[:, None] * np.conj(nodes)[None, :])
    return TOL + 32 * EPS * np.linalg.cond(C) * max(1.0, t)


def test_doubling_pick_targets_doubles_both_norms():
    for nodes, targets in _pick_draws(4, 200):
        base, doubled = pick_solve(nodes, targets, TOL), pick_solve(nodes, 2 * targets, TOL)
        assert (doubled.min_norm, doubled.pencil_norm) == (2 * base.min_norm, 2 * base.pencil_norm)


@pytest.mark.parametrize("move", ["permute", "rotate"])
def test_pick_min_norm_is_invariant_within_its_allowance(move):
    rng = np.random.default_rng(11)
    for nodes, targets in _pick_draws(11, 200):
        if move == "permute":
            order = rng.permutation(len(nodes))
            moved = pick_solve(nodes[order], targets[order], TOL)
        else:
            moved = pick_solve(nodes, targets * (1j, -1.0, -1j)[int(rng.integers(3))], TOL)
        base = pick_solve(nodes, targets, TOL)
        assert abs(moved.min_norm - base.min_norm) <= _allowance(nodes, base.min_norm)


def test_deleting_a_pick_node_never_raises_min_norm_past_its_allowance():
    rng = np.random.default_rng(12)
    for nodes, targets in _pick_draws(12, 200):
        keep = np.delete(np.arange(len(nodes)), rng.integers(len(nodes)))
        smaller = pick_solve(nodes[keep], targets[keep], TOL)
        larger = pick_solve(nodes, targets, TOL)
        assert smaller.min_norm - _allowance(nodes[keep], smaller.min_norm) <= larger.min_norm


def test_pick_min_norm_is_invariant_under_a_disk_automorphism():
    """Nodes moved by ``(z - a) / (1 - conj(a) z)`` keep the exact minimum,
    so the two certified values differ by at most the sum of their allowances."""
    rng = np.random.default_rng(13)
    for nodes, targets in _pick_draws(13, 200):
        a = disk_sample(rng, 1, radius=0.8).points[0, 0]
        moved_nodes = (nodes - a) / (1.0 - np.conj(a) * nodes)
        base, moved = pick_solve(nodes, targets, TOL), pick_solve(moved_nodes, targets, TOL)
        allowance = _allowance(nodes, base.min_norm) + _allowance(moved_nodes, moved.min_norm)
        assert abs(moved.min_norm - base.min_norm) <= allowance


def test_doubling_a_symbol_doubles_its_sampled_norm():
    rng = np.random.default_rng(5)
    solved = 0
    for _ in range(60):
        S = disk_sample(rng, int(rng.integers(4, 20)), radius=0.6, min_sep=0.05)
        w = (
            polynomial(rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
            if rng.integers(2)
            else moebius(complex(*rng.uniform(-0.5, 0.5, 2)))
        )
        try:
            base = sampled_mult_norm(szego(), szego(), w, S)
        except DegenerateGram:
            continue
        doubled = sampled_mult_norm(szego(), szego(), fn_scale(2.0, w), S)
        assert doubled.sampled_norm == 2 * base.sampled_norm
        assert doubled.lower_bound_sup == 2 * base.lower_bound_sup
        solved += 1
    assert solved >= 30


def test_doubling_distances_halves_dil():
    rng = np.random.default_rng(6)
    for _ in range(50):
        dist = random_graph_metric(rng, int(rng.integers(2, 30)))
        values = rng.normal(size=len(dist)) + 1j * rng.normal(size=len(dist))
        f, g = SampledFunction(MetricSpace(dist), values), SampledFunction(MetricSpace(2 * dist), values)
        assert dil(g) == dil(f) / 2


def test_relabeling_points_leaves_dil_and_submult_unchanged():
    """Lattice graph metrics of 3-200 points, relabeled by a random
    permutation, with the base point following its label."""
    rng = np.random.default_rng(8)
    stored_other_pairs = 0
    for _ in range(60):
        n = int(rng.integers(3, 201))
        dist, order = random_graph_metric(rng, n), rng.permutation(n)
        base = int(rng.integers(n))
        space = MetricSpace(dist, base=base)
        moved = MetricSpace(dist[np.ix_(order, order)], base=int(np.flatnonzero(order == base)[0]))
        random = rng.normal(size=n) + 1j * rng.normal(size=n)
        rows = [random, dist[int(rng.integers(n))] + 0j, rng.integers(-256, 257, size=n) / 64.0 + random]
        fs = [SampledFunction(space, values) for values in rows]
        gs = [SampledFunction(moved, values[order]) for values in rows]
        assert [dil(f) for f in fs] == [dil(g) for g in gs]
        assert submult_ratio(space, fs) == submult_ratio(moved, gs)
        if space.pairs is not None and moved.pairs is not None:
            relabeled = {tuple(sorted(pair)) for pair in order[moved.pairs].T.tolist()}
            stored_other_pairs += relabeled != set(map(tuple, space.pairs.T.tolist()))
    assert stored_other_pairs >= 10


def _cli_result(capsys, tmp_path, command, files, **given):
    """The exit status and report of ``command`` on ``files`` (name -> JSON
    object), its timestamp and input digests dropped."""
    inputs = {}
    for name, obj in files.items():
        inputs[name] = str(tmp_path / f"{name}.json")
        with open(inputs[name], "w") as fh:
            json.dump(obj, fh)
    code = cli.run(cli.ExperimentConfig(command, inputs=inputs, max_points=64, **given))
    report = json.loads(capsys.readouterr().out)
    return {"code": code, "result": report["result"], "error": report["error"]}


def test_relabeling_points_relabels_every_metric_command(capsys, tmp_path):
    """Lattice graph metrics of 3-40 points and a relabeled copy, written to
    JSON and run through ``cli.run``: new point ``i`` is old point ``perm[i]``.
    Both runs exit alike, every value is the same JSON text, and every index
    is relabeled."""
    rng = np.random.default_rng(21)
    codes = []
    for _ in range(12):
        n = int(rng.integers(3, 41))
        dist, perm, base = random_graph_metric(rng, n), rng.permutation(n), int(rng.integers(n))
        new = np.argsort(perm).tolist()  # new[i]: the new index of old point i
        space = {"labels": [f"x{i}" for i in range(n)], "dist": dist.tolist(), "base": base}
        moved = {"labels": [f"x{i}" for i in perm], "dist": dist[np.ix_(perm, perm)].tolist(), "base": new[base]}
        order = rng.permutation(n).tolist()
        moved_order = [new[i] for i in order]
        model = {"space": space, "order": order, "depth": n - 1}
        moved_model = {"space": moved, "order": moved_order, "depth": n - 1}

        def both(command, files, moved_files, given=None, moved_given=None, *values):
            """Run ``command`` on both copies; the fields ``values`` must be the same JSON text."""
            before = _cli_result(capsys, tmp_path, command, files, **(given or {}))
            after = _cli_result(capsys, tmp_path, command, moved_files, **(moved_given or given or {}))
            assert (before["code"], before["error"]) == (after["code"], after["error"])
            codes.append(after["code"])
            if after["code"] == 0:
                assert [json.dumps(before["result"][k]) for k in values] == [json.dumps(after["result"][k]) for k in values]
            return before["result"], after["result"]

        before, after = both("realize", {"space": space}, {"space": moved}, {"options": {"order": order}},
                             {"options": {"order": moved_order}}, "b", "sup_g", "very_independent")
        assert after["model"]["order"] == moved_order
        read = before["model"]["space"]
        relabeled = {
            "labels": [read["labels"][i] for i in perm],
            "dist": [[read["dist"][i][j] for j in perm] for i in perm],
            "base": new[read["base"]],
        }
        assert json.dumps(after["model"]["space"], sort_keys=True) == json.dumps(relabeled, sort_keys=True)

        # exit 3 where the enumeration is too ill-conditioned at this depth, alike in both
        coeffs = {"inline": {"coeffs": json.dumps(rng.normal(size=(min(n, 7), 2)).tolist())}}
        both("roundtrip", {"model": model}, {"model": moved_model}, coeffs, None,
             "recovered", "max_abs_error", "max_rel_error", "error_bound")

        points = sorted(rng.choice(order, size=min(n, 4), replace=False).tolist())
        before, after = both("rank-check", {"model": model}, {"model": moved_model},
                             {"inline": {"points": json.dumps(points)}},
                             {"inline": {"points": json.dumps([new[i] for i in points])}}, "rank", "depth")
        assert after["points"] == [new[i] for i in points]

        x, y, eps = int(rng.integers(n)), int(rng.integers(n)), float(rng.uniform(0.05, 0.95))
        before, after = both("topology-probe", {"model": model}, {"model": moved_model},
                             {"options": {"x": x, "eps": eps}}, {"options": {"x": new[x], "eps": eps}}, "n", "pass")
        assert after["U"] == sorted(new[u] for u in before["U"])

        both("lip-dual", {"space": space}, {"space": moved}, {"options": {"x": x}}, {"options": {"x": new[x]}},
             "kind", "value")
        before, after = both("lip-dual", {"space": space}, {"space": moved}, {"options": {"x": x, "y": y}},
                             {"options": {"x": new[x], "y": new[y]}}, "kind", "value")
        if x != y:
            assert json.dumps(after["witness"]["values"]) == json.dumps([before["witness"]["values"][i] for i in perm])

        values = rng.integers(-256, 257, size=(3, n, 2)) / 64.0 + rng.normal(size=(3, n, 2))
        both("submult", {"space": space, "functions": [{"values": f.tolist()} for f in values]},
             {"space": moved, "functions": [{"values": f[perm].tolist()} for f in values]}, None, None,
             "max_ratio", "bound", "n_functions")
    assert codes.count(0) >= 0.9 * len(codes)  # the values are compared in most runs


def test_doubling_points_doubles_every_induced_distance_at_every_magnitude():
    """Points scaled by 2^k for k across the float range, with every
    coordinate and distance a normal float."""
    rng = np.random.default_rng(7)
    for k in range(-1000, 1019, 3):
        dim = int(rng.integers(1, 4))
        unit = rng.uniform(0.5, 1.0, (5, dim)) * rng.choice([-1.0, 1.0], (5, dim))
        points = np.ldexp(unit, k) + 1j * np.ldexp(unit[::-1], k)
        d, doubled = (EuclideanPointSet(p).distance_matrix() for p in (points, 2 * points))
        assert np.array_equal(doubled, 2 * d) and np.array_equal(d, d.T)
        assert (d[~np.eye(5, dtype=bool)] > 0.0).all()
