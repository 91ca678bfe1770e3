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
diagonal.
"""

import numpy as np
import pytest

from funcspace.errors import DegenerateGram
from funcspace.geometry import MetricSpace, SampledFunction, dil
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
