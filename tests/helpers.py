"""Shared fixtures-as-functions for the test suite.

Random metric spaces are drawn from dyadic families (all distances are exact
binary fractions) so that closed-form identities can be checked without
floating-point slack: star metrics d(i,j) = u_i + u_j, line metrics
d(i,j) = |s_i - s_j|, and ultrametrics d(i,j) = max(u_i, u_j).
"""

from __future__ import annotations

import numpy as np

from funcspace.geometry import EuclideanPointSet, MetricSpace


def interval5_space(base: int = 0) -> MetricSpace:
    """The unit interval sampled at {0, 1/4, 1/2, 3/4, 1}."""
    xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    return MetricSpace(np.abs(xs[:, None] - xs[None, :]), base=base)


def grid64_space(base: int = 0) -> MetricSpace:
    """64-point uniform grid of [0, 1] with dyadic spacing 1/64."""
    xs = np.arange(64) / 64.0
    return MetricSpace(np.abs(xs[:, None] - xs[None, :]), base=base)


def random_dyadic_space(rng: np.random.Generator, n: int, base: int = 0) -> MetricSpace:
    """A random n-point metric space with exactly-representable distances."""
    family = rng.integers(0, 3)
    if family == 0:  # star
        u = rng.integers(1, 17, size=n) / 8.0
        d = u[:, None] + u[None, :]
    elif family == 1:  # line
        s = np.sort(rng.choice(np.arange(64), size=n, replace=False)) / 8.0
        d = np.abs(s[:, None] - s[None, :])
    else:  # ultrametric
        u = rng.integers(1, 17, size=n) / 8.0
        d = np.maximum(u[:, None], u[None, :])
    np.fill_diagonal(d, 0.0)
    return MetricSpace(d, base=base)


def random_graph_metric(rng: np.random.Generator, n: int) -> np.ndarray:
    """Shortest-path distances of a random connected graph on n vertices.

    The graph is a random spanning tree plus 2n random edges, with dyadic
    weights k/64 for k in 8..63, so every path sum is exact.
    """
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    edges += [(int(a), int(b)) for a, b in rng.integers(0, n, size=(2 * n, 2)) if a != b]
    for (a, b), w in zip(edges, rng.integers(8, 64, size=len(edges)) / 64.0):
        d[a, b] = d[b, a] = min(d[a, b], w)
    for k in range(n):  # Floyd-Warshall
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def lp_dual_norm(space: MetricSpace, x: int, y: int | None = None) -> float:
    """sup f(x), or sup f(x) - f(y), over real f with dil(f) + |f(base)| <= 1.

    The linear-programming referee for geometry's closed forms.  The
    variables are (f_0..f_{n-1}, t, s): t bounds every difference quotient
    and s bounds |f(base)|.  Real f suffice, since a complex optimum can be
    rotated to a real one.
    """
    from scipy.optimize import linprog  # here, so that importing helpers loads no scipy

    n = len(space)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    rows = np.zeros((len(i) + 3, n + 2))
    k = np.arange(len(i))
    rows[k, i], rows[k, j], rows[k, n] = 1.0, -1.0, -space.dist[i, j]  # f_i - f_j <= t rho(i, j)
    rows[-3, [space.base, n + 1]] = 1.0, -1.0  # f(base) <= s
    rows[-2, [space.base, n + 1]] = -1.0, -1.0  # -f(base) <= s
    rows[-1, [n, n + 1]] = 1.0  # t + s <= 1
    rhs = np.zeros(len(rows))
    rhs[-1] = 1.0
    objective = np.zeros(n + 2)
    objective[x] = -1.0  # linprog minimizes
    if y is not None:
        objective[y] = 1.0
    res = linprog(objective, A_ub=rows, b_ub=rhs, bounds=[(None, None)] * n + [(0, None)] * 2, method="highs")
    assert res.success, res.message
    return -res.fun


def disk_sample(rng: np.random.Generator, n: int, radius: float = 0.7, min_sep: float = 0.0) -> EuclideanPointSet:
    """n random points in the disk of the given radius, optionally separated."""
    pts: list[complex] = []
    while len(pts) < n:
        z = complex(*rng.uniform(-radius, radius, size=2))
        if abs(z) >= radius:
            continue
        if min_sep and any(abs(z - w) < min_sep for w in pts):
            continue
        pts.append(z)
    return EuclideanPointSet(np.array(pts).reshape(-1, 1))


def ball2_sample(rng: np.random.Generator, n: int, radius: float = 0.8) -> EuclideanPointSet:
    """n random points in the open unit ball of C^2."""
    pts = []
    while len(pts) < n:
        v = rng.uniform(-radius, radius, size=4)
        z = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
        if (np.abs(z) ** 2).sum() < radius**2:
            pts.append(z)
    return EuclideanPointSet(np.array(pts))
