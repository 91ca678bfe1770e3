"""Certified Pick norms against the pencil solved in 50-digit mpmath.

The exact minimal interpolation norm for float nodes and targets is the
square root of the top eigenvalue of ``(W C W*, C)`` with C the Szego Gram.
Every certified ``min_norm`` must lie at or above it and within
``tol + 32 eps cond(C) max(1, t)``; the float ``pencil_norm`` must lie within
the rounding term on either side.  ``cond(C)`` is taken with C scaled to unit
diagonal.
"""

import mpmath
import numpy as np
import pytest

from funcspace.hardy_pick import carleson_seq, pick_solve, separability_probe

EPS = float(np.finfo(float).eps)
TOL = 1e-9


def exact_pick_norm(nodes, values, digits: int = 50) -> float:
    ctx = mpmath.mp.clone()
    ctx.dps = digits
    z = [ctx.mpc(complex(v)) for v in nodes]
    w = [ctx.mpc(complex(v)) for v in values]
    n = len(z)
    c = ctx.matrix(n, n)
    a = ctx.matrix(n, n)
    for i in range(n):
        for j in range(n):
            c[i, j] = 1 / (1 - z[i] * ctx.conj(z[j]))
            a[i, j] = w[i] * c[i, j] * ctx.conj(w[j])
    l_inv = ctx.inverse(ctx.cholesky(c))
    m = l_inv * a * l_inv.transpose_conj()
    m = (m + m.transpose_conj()) / 2
    return float(ctx.sqrt(max(max(ctx.eigh(m, eigvals_only=True)), 0)))


def rounding_margin(nodes, t: float) -> float:
    nodes = np.asarray(nodes, dtype=complex)
    s = np.sqrt(1.0 - np.abs(nodes) ** 2)
    c = (s[:, None] * s[None, :]) / (1.0 - nodes[:, None] * np.conj(nodes)[None, :])
    eig = np.linalg.eigvalsh(0.5 * (c + c.conj().T))
    return 32.0 * EPS * float(eig[-1] / eig[0]) * max(1.0, t)


def assert_certified(nodes, values, min_norm: float, pencil_norm: float | None = None) -> None:
    exact = exact_pick_norm(nodes, values)
    margin = rounding_margin(nodes, exact)
    assert exact <= min_norm, f"certified {min_norm!r} is below the exact {exact!r}"
    assert min_norm <= exact + TOL + margin, f"certified {min_norm!r} exceeds {exact!r} by {min_norm - exact:.3g}"
    if pencil_norm is not None:
        assert abs(pencil_norm - exact) <= margin


@pytest.mark.parametrize("targets", ["pattern", "disk"])
@pytest.mark.parametrize("m", range(6, 13))
def test_halving_nodes(m, targets):
    rng = np.random.default_rng([9001, m, targets == "disk"])
    for _ in range(2):
        nodes = carleson_seq(rng.uniform(0.0, 0.5), m) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        if targets == "pattern":
            values = rng.integers(0, 2, size=m).astype(complex)
        else:
            values = np.sqrt(rng.uniform(0.0, 1.0, m)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m))
        solution = pick_solve(nodes, values, tol=TOL)
        assert_certified(nodes, values, solution.min_norm, solution.pencil_norm)


@pytest.mark.parametrize("targets", ["pattern", "disk"])
def test_clustered_off_ray_nodes(targets):
    """Nodes about 1e-3 from the circle and 1e-3 apart in angle: Im(1 - z_i conj(z_j)) is not rounding."""
    rng = np.random.default_rng([9002, targets == "disk"])
    for _ in range(3):
        m = 6
        angles = rng.uniform(0.0, 2.0 * np.pi) + 1e-3 * (np.arange(m) + 0.1 * rng.uniform(size=m))
        nodes = (1.0 - 1e-3 * rng.uniform(0.5, 2.0, m)) * np.exp(1j * angles)
        if targets == "pattern":
            values = rng.integers(0, 2, size=m).astype(complex)
        else:
            values = np.sqrt(rng.uniform(0.0, 1.0, m)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m))
        solution = pick_solve(nodes, values, tol=TOL)
        assert_certified(nodes, values, solution.min_norm, solution.pencil_norm)


def test_schwarz():
    solution = pick_solve([0.0, 0.5], [0.0, 0.5], tol=TOL)
    assert_certified([0.0, 0.5], [0.0, 0.5], solution.min_norm, solution.pencil_norm)


def test_constant_targets():
    nodes, values = [0.0, 0.2, 0.5j, -0.7 + 0.1j], [0.3 - 0.4j] * 4
    solution = pick_solve(nodes, values, tol=TOL)
    assert_certified(nodes, values, solution.min_norm, solution.pencil_norm)


def test_single_node():
    solution = pick_solve([0.4 - 0.3j], [0.7 + 0.1j], tol=TOL)
    assert_certified([0.4 - 0.3j], [0.7 + 0.1j], solution.min_norm, solution.pencil_norm)


def test_separability_probe_patterns():
    m = 6
    nodes = carleson_seq(0.0, m)
    report = separability_probe(m, start=0.0, tol=TOL)
    for mask, t in enumerate(report.pattern_norms):
        pattern = [(mask >> k) & 1 for k in range(m)]
        assert_certified(nodes, pattern, t)
