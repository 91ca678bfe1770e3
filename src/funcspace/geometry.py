"""Finite metric spaces, Lipschitz seminorms, and exact dual-norm formulas.

A :class:`MetricSpace` is an explicit distance matrix with a distinguished
base point; functions on it are finite value vectors (:class:`SampledFunction`).
The Lipschitz norm is ``dil(f) + |f(base)|``, where ``dil`` is the largest
difference quotient.  For that norm the dual norms of point evaluations have
closed forms: ``max(1, rho(x, base))`` for a single evaluation and
``rho(x, y)`` for a difference of two, each certified here by an explicit
witness function.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .errors import (
    DegenerateSpace,
    EmptySet,
    Frozen,
    Overflow,
    SamePoint,
    ValidationError,
    ZeroFunction,
)
from .serialize import (
    complex_to_json,
    complex_vector_from_json,
    finite,
    index_list,
    integer,
    pair_to_complex,
    pairs_array,
    point_labels,
    real,
    real_matrix,
    rows_array,
)


# Numerators of a dyadic lattice stay below 2^30, so a sum of two fits int32.
_LATTICE_BITS = 30


def _lattice_numerators(dist: np.ndarray) -> tuple[int, np.ndarray] | None:
    """``(k, q)`` with ``dist = q * 2^-k`` for int32 numerators ``0 <= q < 2^30``, or None.

    ``k`` is fixed by the largest entry.  Scaling by a power of two is exact
    unless it underflows, and an entry that underflows (or is not a multiple
    of ``2^-k``) does not come back to itself after rounding and scaling
    back.  ``np.ldexp`` takes the ``k`` beyond 1023 of a subnormal lattice.
    """
    k = _LATTICE_BITS - math.frexp(dist.max())[1]
    scaled = np.ldexp(dist, k)
    q = np.rint(scaled, out=np.empty(dist.shape, np.int32), casting="unsafe")
    np.ldexp(q, -k, out=scaled)
    return (k, q) if np.array_equal(scaled, dist) else None


def _worst_triangle_slack(dist: np.ndarray) -> float:
    """The largest ``d[i,k] - (d[i,j] + d[j,k])`` over all triples, in O(n^2) memory.

    ``dist`` must already be checked finite, symmetric and nonnegative.  On
    a dyadic lattice (:func:`_lattice_numerators`) the int32 numerators are
    first offered to :func:`_split_certificate`; where it proves every
    triangle, the largest slack is exactly 0 (the triple ``j = i``).
    Otherwise the slacks are taken on the numerators, at half the memory
    traffic of the float loop, and no sum or difference rounds there, so
    the float loop would give the same value bit for bit.  Elsewhere the
    float loop runs.
    """
    n = dist.shape[0]
    if n < 2:
        return 0.0
    lattice = _lattice_numerators(dist)
    if lattice is None:
        with np.errstate(over="ignore"):  # a sum past float64 is inf, above every finite distance
            return float(_slack_by_offsets(dist))
    k, q = lattice
    if _split_certificate(q):
        return 0.0
    return math.ldexp(int(_slack_by_offsets(q)), -k)


# Each point's nearest others, tried as midpoints of its pairs by the split certificate.
_SPLIT_CANDIDATES = 4


def _split_certificate(q: np.ndarray) -> bool:
    """True only if ``q[i,b] <= q[i,a] + q[a,b]`` for all triples; False decides nothing.

    ``q`` is a symmetric, nonnegative int32 matrix of numerators below 2^30,
    with ``n >= 2``, so no sum of two entries overflows.

    (S) A pair ``{i,k}`` is split if ``q[k,i] = q[k,p] + q[p,i]`` for some
    ``p`` other than ``i`` and ``k``.  The ``p`` tried are the
    ``_SPLIT_CANDIDATES`` nearest other points of each end, one ``argmin``
    pass each, and a pass is a row gather and one broadcast add over the
    whole matrix.  Let E be the pairs left unsplit.
    (A) Each pair ``{a,b}`` of E has ``|q[i,a] - q[i,b]| <= q[a,b]`` for
    every ``i``; this is checked n pairs at a time.

    Proof that (S) and (A) give every triangle: the first pass refuses a
    zero off the diagonal, so the two parts of a split pair are shorter than
    it, and induction on ``q[i,k]`` gives every pair a walk along E whose
    lengths sum to exactly ``q[i,k]``.  By (A), ``q[i,.]`` grows by at most
    an edge's length along each edge of the walk from ``a`` to ``b``, so
    ``q[i,b] <= q[i,a] + q[a,b]``.  This is the Kuratowski picture: every
    row is 1-Lipschitz along a set of pairs whose shortest paths give back
    the matrix.  All of it is exact in int32.

    The search gives up after one pass that splits no pair (a strict metric
    such as ``1 - I``), and when more than ``n^2/8`` pairs stay unsplit, where
    (A) would cost a quarter of the offset loop or more.  Memory is a few
    n^2 buffers.
    """
    n = q.shape[0]
    rows = np.arange(n)
    far = np.iinfo(np.int32).max
    near = q.copy()  # the candidates still untried, the others set to `far`
    near[rows, rows] = far
    split = np.zeros((n, n), bool)  # split[k, i]: {i,k} is split from end k
    for t in range(min(_SPLIT_CANDIDATES, n - 1)):
        p = near.argmin(axis=1)
        to_p = near[rows, p]
        if t == 0 and not to_p.all():
            return False  # a zero off the diagonal would make a split pair no shorter
        near[rows, p] = far
        via = q[p]
        via += to_p[:, None]  # via[k, i] = q[k, p_k] + q[p_k, i]
        via[rows, p] = -1  # i = p_k splits nothing
        split |= via == q
        if t == 0 and not split.any():
            return False
    del near, via  # two n^2 buffers fewer alive while the edge check allocates its own
    split |= split.T
    a, b = np.divmod(np.flatnonzero(~split), n)
    upper = a < b
    a, b = a[upper], b[upper]
    if len(a) > n * n // 8:
        return False
    for s in range(0, len(a), n):
        ea, eb = a[s : s + n], b[s : s + n]
        gap = q[ea]
        gap -= q[eb]
        np.abs(gap, out=gap)
        if (gap.max(axis=1) > q[ea, eb]).any():
            return False
    return True


def _slack_by_offsets(dist: np.ndarray):
    """The largest slack of ``dist``, in its own dtype, for ``n >= 2``.

    The slack of ``(i, k)`` equals that of ``(k, i)``, since ``fl(a + b)``
    is commutative, and a pair ``(i, i)`` has slack 0, so it suffices to take
    ``fl(d[i,k] - min_j fl(d[i,j] + d[k,j]))`` over the pairs ``i < k``.
    Rounding is monotone, so that is the largest slack over j bit for bit, as
    the full n^3 slack tensor would give it.

    The pairs are visited by diagonal offset ``s``: the pairs ``(i, i+s)``
    are rows ``i`` and ``i+s``, so their sums are one contiguous add of
    ``dist[:n-s]`` and ``dist[s:]``.  Offsets ``s`` and ``n+1-s`` share one
    pass of ``n-1`` pairs: ``flat[s::n+1]`` runs down superdiagonal ``s`` and
    wraps onto subdiagonal ``n+1-s``, which symmetry makes equal to the
    superdiagonal, and row ``t`` of an ``(n-1) x n`` buffer holds the sums of
    the pair of its t-th entry.  ``np.minimum.reduceat`` over the row starts
    gives each pair's minimum, the entries of ``flat[s::n+1]`` minus those
    minima are the slacks, and a running maximum of length ``n-1`` folds
    them.  The buffer and three vectors of length ``n-1`` are all the memory
    it takes (and a copy of a ``dist`` that is not C-contiguous, for
    ``ravel``).
    """
    n = dist.shape[0]
    flat = dist.ravel()
    sums = np.empty((n - 1, n), dist.dtype)
    starts = np.arange(0, sums.size, n)
    best = np.empty(n - 1, dist.dtype)
    worst = np.zeros(n - 1, dist.dtype)
    for s in range(1, (n + 1) // 2 + 1):  # an odd n visits offset (n+1)/2 twice
        np.add(dist[: n - s], dist[s:], out=sums[: n - s])
        np.add(dist[n - s + 1 :], dist[: s - 1], out=sums[n - s :])
        np.minimum.reduceat(sums.ravel(), starts, out=best)
        np.subtract(flat[s :: n + 1], best, out=best)
        np.maximum(worst, best, out=worst)
    return worst.max()


def _validate_distance_matrix(dist: np.ndarray, triangle_tol: float) -> None:
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValidationError("distance matrix must be square")
    n = dist.shape[0]
    if n == 0:
        raise ValidationError("distance matrix must be nonempty")
    finite(dist, "distance matrix")
    if np.any(np.diag(dist) != 0.0):
        raise ValidationError("distance matrix must have zero diagonal")
    if not np.array_equal(dist, dist.T):
        raise ValidationError("distance matrix must be symmetric")
    if dist.min() < 0.0:
        raise ValidationError("distances must be nonnegative")
    # the diagonal holds n zeros, so any further zero is a distinct pair
    if np.count_nonzero(dist == 0.0) > n:
        raise ValidationError("distinct points must have positive distance")
    # d[i,k] <= d[i,j] + d[j,k] for all triples; explicit matrices are checked
    # exactly (triangle_tol == 0), induced metrics may pass a rounding allowance.
    worst = _worst_triangle_slack(dist)
    if worst > triangle_tol:
        # name the first triple (i, j, k) in C order attaining the worst slack
        for i in range(n):
            with np.errstate(over="ignore"):
                slack = dist[i, None, :] - (dist[i, :, None] + dist)  # slack[j, k]
            if slack.max() == worst:
                j, k = np.unravel_index(np.argmax(slack), slack.shape)
                raise ValidationError(
                    f"triangle inequality violated at ({i},{k}) via {j}: "
                    f"{dist[i, k]} > {dist[i, j]} + {dist[j, k]}"
                )


class EuclideanPointSet(Frozen):
    """A finite list of points in C^d with finite coordinates, the common sample type for kernels."""

    _fields = ("points", "labels")

    def __init__(self, points, labels=None):
        pts = np.asarray(points, dtype=complex)
        if pts.ndim == 1:  # a flat list means n points of C^1
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.size == 0:
            raise ValidationError("points must form a nonempty n-by-dim array")
        finite(pts, "points")
        if labels is not None:
            labels = point_labels(labels, pts.shape[0])
        self._set(pts, labels)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def distance_matrix(self) -> np.ndarray:
        """Pairwise Euclidean distances, treating C^d as R^(2d), by ``hypot``:
        nothing is squared, so a distance that is a normal float is found at
        every magnitude, and the matrix is exactly symmetric."""
        diff = self.points[:, None, :] - self.points[None, :, :]
        return np.hypot.reduce(np.abs(diff), axis=-1)

    def to_json(self) -> dict:
        out = {"dim": self.dim, "points": complex_to_json(self.points)}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out

    @classmethod
    def from_json(cls, obj) -> "EuclideanPointSet":
        points = obj.get("points") if isinstance(obj, dict) else None
        if not isinstance(points, list):
            raise ValidationError('point set JSON must contain a "points" list')
        array = None
        # rows of equal length are read in one pass when every entry is an [re, im] pair
        if set(map(type, points)) <= {list} and len(set(map(len, points))) == 1:
            array = pairs_array(list(chain.from_iterable(points)))
        if array is not None:
            array = array.reshape(len(points), len(points[0]))
        else:
            rows = []
            for entry in points:
                # dim-1 shorthand: a bare [re, im] pair or scalar per point
                if isinstance(entry, (int, float)) or (
                    isinstance(entry, list)
                    and len(entry) == 2
                    and isinstance(entry[0], (int, float))
                    and isinstance(entry[1], (int, float))
                ):
                    rows.append([pair_to_complex(entry)])
                else:
                    rows.append(complex_vector_from_json(entry))
            array = rows_array(rows, "points", complex)
        ps = cls(array, labels=obj.get("labels"))
        if "dim" in obj and integer(obj["dim"], "dim") != ps.dim:
            raise ValidationError("declared dim does not match point tuples")
        return ps


class MetricSpace(Frozen):
    """Finite metric space: labeled points, a distance matrix, a base point.

    ``triangle_tol`` is the slack the triangle check allows; it is 0 for an
    explicit matrix, so that every triangle holds exactly.
    """

    _fields = ("labels", "dist", "base", "triangle_tol")

    def __init__(self, dist, labels=None, base: int = 0, triangle_tol: float = 0.0):
        dist = np.asarray(dist, dtype=float)
        triangle_tol = real(triangle_tol, "triangle_tol")
        if not (np.isfinite(triangle_tol) and triangle_tol >= 0.0):
            raise ValidationError("triangle_tol must be finite and nonnegative")
        _validate_distance_matrix(dist, triangle_tol)
        n = dist.shape[0]
        if labels is None:
            labels = tuple(f"p{i}" for i in range(n))
        else:
            labels = point_labels(labels, n)
        base = integer(base, "base index", n)
        self._set(labels, dist, base, triangle_tol)

    def __len__(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    @classmethod
    def from_euclidean(cls, ps: EuclideanPointSet, base: int = 0) -> "MetricSpace":
        """Metric induced on a point set.  Distances are computed in floating
        point, so the triangle check runs with a small rounding allowance."""
        d = ps.distance_matrix()
        tol = 1e-12 * max(1.0, float(d.max()))
        return cls(d, labels=ps.labels, base=base, triangle_tol=tol)

    def to_json(self) -> dict:
        out = {"labels": list(self.labels), "dist": self.dist.tolist(), "base": self.base}
        if self.triangle_tol:
            out["triangle_tol"] = self.triangle_tol
        return out

    @classmethod
    def from_json(cls, obj) -> "MetricSpace":
        if not isinstance(obj, dict) or "dist" not in obj:
            raise ValidationError('metric space JSON must contain a "dist" matrix')
        return cls(
            real_matrix(obj["dist"], "dist"),
            labels=obj.get("labels"),
            base=obj.get("base", 0),
            triangle_tol=obj.get("triangle_tol", 0.0),
        )


class SampledFunction(Frozen):
    """A complex-valued function known through its values on a finite metric space."""

    _fields = ("space", "values")

    def __init__(self, space: MetricSpace, values):
        if not isinstance(space, MetricSpace):
            raise ValidationError(f"a sampled function lives on a MetricSpace, got {type(space).__name__}")
        vals = np.asarray(values, dtype=complex).reshape(-1)
        if len(vals) != len(space):
            raise ValidationError(f"expected {len(space)} values, got {len(vals)}")
        self._set(space, vals)

    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        return SampledFunction(self.space, self.values + other.values)

    def __sub__(self, other: "SampledFunction") -> "SampledFunction":
        return SampledFunction(self.space, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, SampledFunction):
            return SampledFunction(self.space, self.values * other.values)
        return SampledFunction(self.space, self.values * complex(other))

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {"values": complex_to_json(self.values)}

    @classmethod
    def from_json(cls, obj, space: MetricSpace) -> "SampledFunction":
        if not isinstance(obj, dict) or "values" not in obj:
            raise ValidationError('sampled function JSON must contain a "values" list')
        # refused here, not in __init__: a product of finite functions may
        # overflow, and submult_ratio reports that as Overflow
        return cls(space, finite(complex_vector_from_json(obj["values"]), "function values"))


def constant_function(space: MetricSpace, value=1.0) -> SampledFunction:
    return SampledFunction(space, np.full(len(space), complex(value)))


def distance_function(space: MetricSpace, index: int) -> SampledFunction:
    """The function rho(., y) for a point y of the space."""
    return SampledFunction(space, space.dist[:, integer(index, "point index", len(space))].astype(complex))


def set_distance(space: MetricSpace, x: int, A) -> float:
    """Distance from point ``x`` to the nonempty index set ``A``."""
    idx = sorted(set(index_list(A, "points", "point index", len(space))))
    if not idx:
        raise EmptySet("distance to the empty set is undefined")
    x = integer(x, "point index", len(space))
    return float(space.dist[x, idx].min())


def _dils(dist: np.ndarray, rows) -> np.ndarray:
    """:func:`dil` of each vector of values in ``rows`` on the space of ``dist``.

    ``|a - b| = |b - a|`` exactly and ``dist`` is symmetric, so the largest
    quotient over distinct pairs is that over the pairs ``i < j``.  The upper
    triangle of ``dist`` is gathered once per call, by a boolean mask in
    row-major order.  A row's differences are its values repeated for the
    first point of each pair minus one gather for the second, taken in
    place, so that one complex vector of the pairs' length is alive at a
    time.  A value that overflowed makes some quotient ``inf - inf = nan``,
    and the row's maximum nan.
    """
    n = dist.shape[0]
    if n < 2:
        raise DegenerateSpace("dil needs at least two points")
    upper = ~np.tri(n, dtype=bool)  # the pairs i < j
    d_upper = dist[upper]
    j = np.broadcast_to(np.arange(n), (n, n))[upper]
    counts = np.arange(n - 1, 0, -1)  # point i is the first of n - 1 - i pairs
    out = np.empty(len(rows))
    for r, values in enumerate(rows):
        q = np.repeat(values[:-1], counts)
        q -= values.take(j)
        q = np.abs(q)
        q /= d_upper
        out[r] = q.max()
    return out


def dil(f: SampledFunction) -> float:
    """Largest difference quotient |f(x) - f(y)| / rho(x, y) over distinct pairs."""
    return float(_dils(f.space.dist, (f.values,))[0])


def lip_norm(f: SampledFunction) -> float:
    """dil(f) + |f(base)|: the Lipschitz-space norm anchored at the base point."""
    return dil(f) + float(abs(f.values[f.space.base]))


def lip_point_norm(space: MetricSpace, x: int) -> float:
    """Dual norm of the evaluation at x: max(1, rho(x, base))."""
    x = integer(x, "point index", len(space))
    return max(1.0, float(space.dist[x, space.base]))


def lip_dual_pair_norm(space: MetricSpace, x: int, y: int):
    """Dual norm of (evaluation at x) - (evaluation at y), with its witness.

    The value is ``rho(x, y)``.  The witness ``rho(., y) - rho(base, y)`` has
    Lipschitz norm at most 1 and separates x from y by exactly rho(x, y),
    which pins the supremum from below; the upper bound is the Lipschitz
    estimate ``|f(x) - f(y)| <= dil(f) rho(x, y)``.

    Returns:
        (value, witness) with ``lip_norm(witness) <= 1``.
    """
    x, y = integer(x, "point index", len(space)), integer(y, "point index", len(space))
    if x == y:
        raise SamePoint("the pair functional needs two distinct points")
    witness = distance_function(space, y) - constant_function(space, space.dist[space.base, y])
    return float(space.dist[x, y]), witness


def submult_ratio(space: MetricSpace, fs) -> tuple:
    """Worst product-norm inflation over pairs from ``fs``.

    Returns (max_ratio, bound) where
    ``max_ratio = max lip_norm(f g) / (lip_norm(f) lip_norm(g))`` and
    ``bound = 2 max(1, diam) + 1``; the ratio never exceeds the bound, so a
    rescaled norm is submultiplicative on the sampled algebra.

    Raises:
        ValidationError: a function lives on another space.
        Overflow: a norm, a product's norm or a ratio is not finite.
    """
    fs = list(fs)
    if not fs:
        raise EmptySet("need at least one function")
    if any(f.space is not space for f in fs):
        raise ValidationError("every function must live on the given space")
    pairs = [(i, j) for i in range(len(fs)) for j in range(i, len(fs))]
    # overflow is reported as Overflow below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [f.values for f in fs] + [fs[i].values * fs[j].values for i, j in pairs]
        # lip_norm of each row, all dils taken in one pass over the space
        norms = [float(d) + float(abs(v[space.base])) for d, v in zip(_dils(space.dist, rows), rows)]
    for nf in norms[: len(fs)]:
        if nf == 0.0:
            raise ZeroFunction("submultiplicativity ratio undefined for the zero function")
        if not math.isfinite(nf):
            raise Overflow("a Lipschitz norm overflows float64")
    max_ratio = 0.0
    for (i, j), nf in zip(pairs, norms[len(fs) :]):
        ratio = nf / (norms[i] * norms[j])
        if not math.isfinite(ratio):
            raise Overflow(f"the norm ratio of functions {i} and {j} overflows float64")
        max_ratio = max(max_ratio, ratio)
    bound = 2.0 * max(1.0, space.diameter) + 1.0
    return max_ratio, bound
