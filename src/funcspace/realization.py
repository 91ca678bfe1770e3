"""Sequence-space realization of a finite metric space.

Given an enumeration y_1, y_2, ... of a finite metric space, the functions

    g_0 = 1,   g_n = min(rho(., {y_1..y_n}), 1)

are 1-Lipschitz, decrease pointwise, and vanish exactly on the enumerated
prefix.  With tempered weights ``b_n = 2^n sup |g_n|`` the embedding

    J f = sum_n (f_n / b_n) g_n

carries a coefficient sequence into a function on the space, point
evaluations become coefficient vectors ``(g_n(x)/b_n)_n``, and the
triangular vanishing pattern ``g_m(y_{n+1}) = 0 for m > n`` makes the map
invertible from values on the prefix.  This module builds the system and
provides the finite verification procedures: the triangular independence
pattern, the rank of point-evaluation families, the neighborhood probe
showing the g's generate the metric topology, and the coefficient
round-trip.

The model holds the system as one read-only ``(depth+1) x n`` float array
``g`` with row m = g_m, and every check is a slice of it; the matrix
``[g_m(y_{k+1}) / b_m]`` is ``(g[:, order] / b[:, None]).T``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    CoefficientOverflow,
    DepthExceedsSequence,
    DuplicatePoint,
    ExhaustedSpace,
    Frozen,
    IllConditionedPrefix,
    Overflow,
    PrefixTooShallow,
    ValidationError,
)
from .geometry import MetricSpace, SampledFunction
from .kernels import gamma, lower_inverse
from .serialize import complex_array, index_list, integer, real, shown, tolerance

_PIVOT_FLOOR = 1e-14
#: Default bound on the relative error of a coefficient round-trip.
ROUNDTRIP_TOL = 1e-6


class DenseSequence(Frozen):
    """An enumeration of all points of a finite space (the density surrogate)."""

    _fields = ("space", "order")

    def __init__(self, space: MetricSpace, order):
        if isinstance(order, (set, frozenset)):  # it would enumerate the points in hash order
            raise ValidationError("order must be a list of integers, got a set, which has no order")
        order = tuple(index_list(order, "order", "order entry"))
        n = len(space)
        if sorted(order) != list(range(n)):
            raise ValidationError("order must enumerate every point exactly once")
        self._set(space, order)

    def __len__(self) -> int:
        return len(self.order)


def build_g(dense: DenseSequence, depth: int) -> np.ndarray:
    """The read-only (depth+1) x n array whose row n is g_n of the enumeration.

    g_0 is the constant 1; g_n is the distance to the first n enumerated
    points, clamped at 1, kept as a running minimum down the rows.
    """
    depth = integer(depth, "depth")
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    if depth > len(dense):
        raise DepthExceedsSequence(f"depth {depth} exceeds the {len(dense)}-point enumeration")
    dist = dense.space.dist
    rows = np.vstack([np.ones(len(dist)), dist[:, list(dense.order[:depth])].T])
    g = np.minimum.accumulate(rows, axis=0, out=rows)
    g.flags.writeable = False
    return g


def choose_b(g: np.ndarray, space: MetricSpace, policy: str = "default_2n", base: int | None = None) -> np.ndarray:
    """Tempering weights b_n = 2^n * sup |g_n| over the exhaustion sets.

    Policies:
        "default_2n": sup over the whole space (trivially tempered since
            every g_n is bounded by 1).
        "balls": sup over the open ball B(base, max(n, 1)) of ``space``,
            mirroring the Lipschitz exhaustion by balls around the base point.

    Raises:
        ExhaustedSpace: some g_n vanishes on its exhaustion set; the
            enumeration has consumed the finite space, reduce the depth.
    """
    levels = np.arange(len(g))
    if policy == "default_2n":
        sups = g.max(axis=1)
    elif policy == "balls":
        b = space.base if base is None else integer(base, "ball base", len(space))
        sups = np.where(space.dist[b] < np.maximum(levels, 1)[:, None], g, 0.0).max(axis=1)
    else:
        raise ValidationError(f"unknown weight policy {shown(policy)}")
    vanishing = np.flatnonzero(sups == 0.0)
    if vanishing.size:
        raise ExhaustedSpace(f"g_{vanishing[0]} vanishes on its exhaustion set; reduce the depth")
    if len(g) > 1024:
        raise ValidationError(f"the weight 2^{len(g) - 1} overflows a float; reduce the depth")
    return 2.0**levels * sups


class RealizationModel(Frozen):
    """The realization bundle: enumeration, depth, functions g, weights b.

    Coefficient sequences live in an l^p model space (p is recorded only;
    the finite operations below use coordinates and never a norm).  The
    coordinate functionals play the role of the biorthogonal system.
    """

    _fields = ("dense", "depth", "g", "b", "p")

    def __init__(self, dense: DenseSequence, depth: int, g: np.ndarray, b: np.ndarray, p: float = 2.0):
        if depth + 1 > len(dense):
            raise DepthExceedsSequence(f"need at least {depth + 1} enumerated points, have {len(dense)}")
        self._set(dense, depth, g, b, p)


def build_model(
    dense: DenseSequence,
    depth: int,
    policy: str = "default_2n",
    p: float = 2.0,
    base: int | None = None,
) -> RealizationModel:
    """Assemble a :class:`RealizationModel` at the given depth, with the
    weights :func:`choose_b` computes by ``policy`` (around ``base`` for the
    "balls" policy).  ``p`` may be infinite (l^inf) but not NaN.
    """
    g = build_g(dense, depth)
    weights = choose_b(g, dense.space, policy, base)
    p = real(p, "the model exponent")
    if not p >= 1.0:
        raise ValidationError("the model exponent must satisfy p >= 1")
    return RealizationModel(dense, depth, g, weights, p)


def _check_coeffs(f, model: RealizationModel) -> np.ndarray:
    f = complex_array(f, "coefficients")
    if len(f) > model.depth + 1:
        raise CoefficientOverflow(f"at most {model.depth + 1} coefficients fit this model, got {len(f)}")
    return np.pad(f, (0, model.depth + 1 - len(f)))


def embed(f, model: RealizationModel) -> SampledFunction:
    """J f = sum_n f_n * (g_n / b_n) as a function on the space.

    The terms are one array, row n being ``f_n * (g_n / b_n)`` with the
    division done first, summed down the rows in place by
    ``np.add.accumulate``, which adds in sequence.  Adding ``+0.0`` to the
    first row turns its ``-0.0`` parts to ``+0.0``, as a sum started from
    zero would.  So the pointwise value agrees bit-for-bit with pairing f
    against :func:`point_functional`.
    """
    f = _check_coeffs(f, model)
    terms = f[:, None] * (model.g / model.b[:, None])
    terms[0] += 0.0
    np.add.accumulate(terms, axis=0, out=terms)
    return SampledFunction(model.dense.space, terms[-1])


def point_functional(x: int, model: RealizationModel) -> np.ndarray:
    """Coefficients of the evaluation at x: (g_n(x) / b_n) for n <= depth."""
    return model.g[:, integer(x, "point index", len(model.dense.space))] / model.b


def pair(f, functional: np.ndarray) -> complex:
    """<f, functional> accumulated in the same order as :func:`embed`."""
    acc = 0.0 + 0.0j
    for fn, phi in zip(complex_array(f, "coefficients"), functional):
        acc = acc + fn * phi
    return acc


def very_independence_check(model: RealizationModel) -> bool:
    """Exact triangular pattern of the matrix [g_m(y_{n+1})].

    True iff g_m(y_{n+1}) = 0 for every m > n (the prefix absorbs later
    points) and g_n(y_{n+1}) != 0 on the diagonal, for n, m <= depth.  This
    is the finite content of the induction showing no nonzero coefficient
    sequence can sum to the zero function.
    """
    block = model.g[:, list(model.dense.order[: model.depth + 1])]  # column n is y_{n+1} in 1-based counting
    return bool(np.diag(block).all() and not np.tril(block, -1).any())


def point_eval_rank(points, M: int, model: RealizationModel, tol: float = 1e-10) -> int:
    """Numerical rank of [g_m(x_i)] for m = 0..M over the given points.

    Equals the number of points once M is large enough; singular values
    above ``tol * sigma_max`` count toward the rank, and ``tol`` must be
    positive and finite.
    """
    tol = tolerance(tol)
    points = index_list(points, "points", "point index", len(model.dense.space))
    if len(set(points)) != len(points):
        raise DuplicatePoint("points must be distinct")
    M = integer(M, "depth")
    if M < 0:
        raise ValidationError("depth must be nonnegative")
    if M > model.depth:
        raise DepthExceedsSequence(f"M = {M} exceeds the model depth {model.depth}")
    sv = np.linalg.svd(model.g[: M + 1][:, points], compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int((sv >= tol * sv[0]).sum())


class TopologyProbe(NamedTuple):
    n: int
    U: tuple
    passed: bool


def topology_probe(x: int, eps: float, model: RealizationModel) -> TopologyProbe:
    """Carve a neighborhood of x out of two consecutive g's.

    For the minimal n with rho(x, y_n) < eps/2, the set
    ``U = {z : g_{n-1}(z) > g_n(z) and g_n(z) < eps/2}`` is open in the
    topology generated by the g's; the probe passes when x lies in U and U
    sits inside the metric ball B(x, eps), which is the two-sided inclusion
    making the g's generate the metric topology.
    """
    eps = real(eps, "eps")
    if not (0.0 < eps < 1.0):
        raise ValidationError("eps must lie in (0, 1)")
    space = model.dense.space
    x = integer(x, "point index", len(space))
    near = np.flatnonzero(space.dist[x, list(model.dense.order[: model.depth])] < eps / 2.0)
    if not near.size:
        raise PrefixTooShallow(f"no enumerated point within eps/2 = {eps / 2} of point {x}")
    n = int(near[0]) + 1
    g_prev, g_cur = model.g[n - 1], model.g[n]
    members = np.flatnonzero((g_prev > g_cur) & (g_cur < eps / 2.0))
    in_U = x in members
    inside_ball = bool(np.all(space.dist[x, members] < eps))
    return TopologyProbe(n, tuple(members.tolist()), in_U and inside_ball)


def coefficient_roundtrip(f, model: RealizationModel, tol: float = ROUNDTRIP_TOL) -> tuple:
    """Embed f, then recover it from the values on y_1..y_{N+1}.

    Substituting the enumerated points in order gives the lower triangular
    system ``L[r, m] = g_m(y_{r+1}) / b_m``; forward substitution returns the
    coefficients.  The weights ``2^n`` leave the later coefficients a
    vanishing share of the values, so recovery loses about one bit per
    level of depth.  The componentwise error is bounded by

        |f^ - f| <= gamma_{2(N+1)} |L^-1| |L| (|f| + |f^|)

    (Higham, *Accuracy and Stability of Numerical Algorithms*, Lemma 8.4:
    the embedding and the substitution are each an inner product of at most
    N + 1 terms per row, each costing ``gamma_{N+1} |L|``; doubling the index
    covers complex moduli).  ``|L^-1|`` comes from the computed inverse, so
    the bound holds to first order in the unit roundoff.  The relative bound
    is its largest entry over ``max |f|``.

    Returns:
        The pair (recovered coefficients, relative error bound).

    Raises:
        ValidationError: ``tol`` is not positive and finite.
        IllConditionedPrefix: a diagonal pivot is below 1e-14, or the
            relative error bound exceeds ``tol``.
        Overflow: the bound is not finite, since a sum or product behind it
            overflowed.
    """
    tol = tolerance(tol)
    f = _check_coeffs(f, model)
    N = model.depth
    rows = list(model.dense.order[: N + 1])
    pivots = model.g[np.arange(N + 1), rows]
    if np.abs(pivots).min() < _PIVOT_FLOOR:
        n = int(np.argmax(np.abs(pivots) < _PIVOT_FLOOR))
        raise IllConditionedPrefix(f"pivot g_{n}(y_{n + 1}) = {pivots[n]} below {_PIVOT_FLOOR:g}")
    # the entries g_m / b_m exactly as embed computes them
    L = np.tril((model.g[:, rows] / model.b[:, None]).T)
    values = embed(f, model).values[rows]
    recovered = np.zeros(N + 1, dtype=complex)
    L_complex = L.astype(complex)  # each product below would convert its row of L
    for n in range(N + 1):
        recovered[n] = (values[n] - L_complex[n, :n] @ recovered[:n]) / L[n, n]
    del L_complex  # freed before the inverse's arrays, so that the peak memory does not grow
    L_inv = lower_inverse(L)
    with np.errstate(over="ignore", invalid="ignore"):
        componentwise = gamma(2 * (N + 1)) * (np.abs(L_inv) @ (np.abs(L) @ (np.abs(f) + np.abs(recovered))))
    scale = float(np.abs(f).max())
    bound = float(componentwise.max()) / scale if scale > 0.0 else 0.0
    if not math.isfinite(bound):
        raise Overflow(f"the error_bound of the recovered coefficients overflows float64 at depth {N}")
    if not bound <= tol:
        raise IllConditionedPrefix(f"relative error bound {bound:.3g} of the recovered coefficients exceeds tol {tol:g} at depth {N}")
    return recovered, bound
