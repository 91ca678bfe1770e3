"""Kernel expression algebra, Gram-matrix assembly, and PSD testing.

A :class:`KernelExpr` is a closed expression tree whose every node denotes a
positive semi-definite kernel by construction: the Szego kernel on the unit
disk, its ball analogue, nonnegative constants, rank-one kernels
``w(x) conj(w(y))``, sums, positive scalings, entrywise (Schur/Hadamard)
products, and the geometric series ``1 / (1 - K)`` of a strictly contractive
kernel.  One evaluator serves kernels and symbols: :func:`kernel_block`
evaluates every node of an expression once on whole point blocks
``K(X, Y)`` by broadcasting, and :meth:`ClosedFormFunction.eval_points`
does the same for symbols; :func:`kernel_eval` and a symbol's call are their
one-point cases.  A node raises as soon as any entry of its block fails,
and the evaluator then finds the first failing entry by evaluating the
rows of the block alone, then the entries of each failing row.
Finite sections of a kernel on a sample are materialized as read-only,
exactly Hermitian arrays by mirroring the upper triangle of the block
(:func:`mirror_upper`: one copy, then one indexed write of the lower
triangle, for a matrix or a stack), and positive semi-definiteness is
decided from the smallest eigenvalue under a relative tolerance rule;
:func:`multiplier_gram` builds ``(T - w (x) conj(w)) K``, the matrix of
contraction and Pick feasibility.
Hermitian pencils ``(A, G)`` are solved in batches over one factorization of
``G``, and their values can be raised to certified upper bounds; these
matrices are 5 to 12 wide, so the pencil code counts numpy calls, not flops.
One shifted-Cholesky test (:func:`_shift_needed`) proves every certificate,
for Pick norms here and for the pencil value of ``mult-norm --method
bisection``; it bounds the factor's error by one Perron bound.

Expressions travel as JSON objects, and each tree's grammar is stated once,
in ``_KERNEL_GRAMMAR`` and ``_FN_GRAMMAR``: every op or kind with its
constructor, its fields and the keys of its children.  One walker writes a
node from its table and one reads it, refusing an expression more than
:data:`MAX_DEPTH` nodes deep.  Arbitrary user matrices never enter the
grammar; they can only be fed to :func:`psd_check`, which assumes nothing.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    NESTED_TOO_DEEPLY,
    DegenerateGram,
    Frozen,
    GeomDiverges,
    NotHermitian,
    Overflow,
    OutOfDomain,
    ValidationError,
)
from .geometry import EuclideanPointSet
from .serialize import (
    coefficients,
    complex_array,
    complex_to_json,
    complex_vector_from_json,
    integer,
    pair_to_complex,
    real,
    scalar,
    shown,
)


def _as_point(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=complex))


def _as_points(X) -> np.ndarray:
    """An n-by-d complex array; a flat array is n points of C^1."""
    X = np.asarray(X, dtype=complex)
    return X.reshape(-1, 1) if X.ndim == 1 else X


class _Node(Frozen):
    """A node of an expression tree, equal to a node of its class with equal fields."""

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


class ClosedFormFunction(_Node):
    """Symbol usable anywhere: coordinate, polynomial, Moebius, exp, and
    their compositions, products, sums, and scalar multiples.

    Polynomial coefficients are ascending (``coeffs[k]`` multiplies ``z**k``);
    a polynomial has at least one, the Moebius parameter must satisfy
    ``|a| < 1``, and coefficients and scale factors must be finite.  Domain
    problems surface at evaluation time.
    """

    _fields = ("kind", "index", "coeffs", "a", "factor", "children")

    def __init__(
        self,
        kind: str,
        index: int | None = None,
        coeffs: tuple | None = None,
        a: complex | None = None,
        factor: complex | None = None,
        children: tuple = (),
    ):
        _FN_GRAMMAR.node(kind)  # refuses an unknown kind
        if kind == "moebius" and not inside_unit_ball([a := scalar(a, "moebius parameter")])[0]:
            raise ValidationError(f"moebius parameter must satisfy |a| < 1, got |{a}| = {abs(a)}")
        if kind == "polynomial":
            coeffs = tuple(coefficients(coeffs, "polynomial coefficients").tolist())
        if kind == "scale" and not np.isfinite(factor := scalar(factor, "symbol scale factor")):
            raise ValidationError(f"symbol scale factors must be finite, got {factor}")
        if kind == "coordinate" and (index := integer(index, "coordinate index")) < 0:
            raise ValidationError("coordinate index must be nonnegative")
        self._set(kind, index, coeffs, a, factor, children)

    def __call__(self, point) -> complex:
        """Value at one point of C^d: the one-point case of :meth:`eval_points`."""
        return complex(self.eval_points(_as_point(point)[None, :])[0])

    def eval_points(self, P) -> np.ndarray:
        """Values at the rows of an n-by-d array of points, as a length-n array
        (a flat array is n points of C^1).

        Raises:
            OutOfDomain: the symbol is undefined in dimension d.
        """
        P = _as_points(P)
        k = self.kind
        if k == "coordinate":
            if not (0 <= self.index < P.shape[1]):
                raise OutOfDomain(f"coordinate {self.index} undefined for a point of dimension {P.shape[1]}")
            return P[:, self.index].copy()
        if k == "compose":
            outer, inner = self.children
            return outer.eval_points(inner.eval_points(P)[:, None])
        if k == "product":
            out = np.ones(P.shape[0], dtype=complex)
            for child in self.children:
                out = out * child.eval_points(P)
            return out
        if k == "sum":
            out = np.zeros(P.shape[0], dtype=complex)
            for child in self.children:
                out = out + child.eval_points(P)
            return out
        if k == "scale":
            return self.factor * self.children[0].eval_points(P)
        # remaining kinds act on a scalar
        if P.shape[1] != 1:
            raise OutOfDomain(f"{k} expects a scalar input, got dimension {P.shape[1]}")
        z = P[:, 0]
        if k == "polynomial":
            out = np.zeros(P.shape[0], dtype=complex)
            for c in reversed(self.coeffs):
                out = out * z + c
            return out
        if k == "moebius":
            return (z - self.a) / (1.0 - np.conj(self.a) * z)
        if k == "exp":
            return np.exp(z)
        raise AssertionError(k)


def coordinate(index: int = 0) -> ClosedFormFunction:
    return ClosedFormFunction("coordinate", index=index)


def polynomial(coeffs) -> ClosedFormFunction:
    return ClosedFormFunction("polynomial", coeffs=coeffs)


def moebius(a) -> ClosedFormFunction:
    """The disk automorphism z -> (z - a) / (1 - conj(a) z), |a| < 1."""
    return ClosedFormFunction("moebius", a=a)


def exponential() -> ClosedFormFunction:
    return ClosedFormFunction("exp")


def compose(outer: ClosedFormFunction, inner: ClosedFormFunction) -> ClosedFormFunction:
    return ClosedFormFunction("compose", children=(outer, inner))


def fn_product(*fns) -> ClosedFormFunction:
    return ClosedFormFunction("product", children=tuple(fns))


def fn_sum(*fns) -> ClosedFormFunction:
    return ClosedFormFunction("sum", children=tuple(fns))


def fn_scale(factor, fn: ClosedFormFunction) -> ClosedFormFunction:
    return ClosedFormFunction("scale", factor=factor, children=(fn,))


def szego_section(z0) -> ClosedFormFunction:
    """The Szego kernel sliced at z0, i.e. x -> 1 / (1 - x conj(z0)).

    Assembled from grammar primitives: for z0 != 0 the slice equals
    ``conj(z0) / (1 - |z0|^2) * (moebius(z0) + 1/conj(z0))``.  The sum
    cancels as |z0| nears 1, so an anchor whose ``abs()`` rounds to 1.0 is
    refused even where it lies inside the disk: its values would be noise.
    """
    z0 = scalar(z0, "anchor")
    if abs(z0) >= 1.0:
        raise ValidationError("anchor must lie in the open unit disk")
    if z0 == 0:
        return polynomial([1.0])
    c = np.conj(z0)
    return fn_scale(c / (1.0 - abs(z0) ** 2), fn_sum(moebius(z0), polynomial([1.0 / c])))


class KernelExpr(_Node):
    """Expression tree certified to denote a positive semi-definite kernel."""

    _fields = ("op", "dim", "value", "factor", "fn", "children")

    def __init__(
        self,
        op: str,
        dim: int | None = None,
        value: float | None = None,
        factor: float | None = None,
        fn: ClosedFormFunction | None = None,
        children: tuple = (),
    ):
        _KERNEL_GRAMMAR.node(op)  # refuses an unknown op
        if op == "constant" and not 0.0 <= (value := real(value, "constant value")) < np.inf:
            raise ValidationError(f"constant kernels must be finite and nonnegative, got {value}")
        if op == "scale" and not 0.0 < (factor := real(factor, "scale factor")) < np.inf:
            raise ValidationError(f"kernel scalings must be finite and positive, got {factor}")
        if op == "ball" and (dim := integer(dim, "ball dimension")) < 1:
            raise ValidationError("ball dimension must be >= 1")
        if op == "sum" and not children:
            raise ValidationError("kernel sum needs at least one term")
        self._set(op, dim, value, factor, fn, children)


def szego() -> KernelExpr:
    return KernelExpr("szego")


def ball(dim: int) -> KernelExpr:
    return KernelExpr("ball", dim=dim)


def constant(value: float) -> KernelExpr:
    return KernelExpr("constant", value=value)


def rank_one(fn: ClosedFormFunction) -> KernelExpr:
    return KernelExpr("rank1", fn=fn)


def kernel_sum(*kernels) -> KernelExpr:
    return KernelExpr("sum", children=tuple(kernels))


def scale(factor: float, kernel: KernelExpr) -> KernelExpr:
    return KernelExpr("scale", factor=factor, children=(kernel,))


def hadamard(left: KernelExpr, right: KernelExpr) -> KernelExpr:
    return KernelExpr("hadamard", children=(left, right))


def geom(kernel: KernelExpr) -> KernelExpr:
    """1 / (1 - K), valid while |K| < 1 at every evaluated pair."""
    return KernelExpr("geom", children=(kernel,))


def one_minus_norm2(P) -> np.ndarray:
    """``1 - ||p||^2`` correctly rounded for each row p of an n-by-d complex
    array (a flat array is n points of C^1).

    Every float is a dyadic rational, so the sum is formed exactly from the
    integer ratios of the parts and rounded once by an int-by-int division.
    The entries must be finite.
    """
    out = []
    for row in _as_points(P).tolist():
        num, den = 0, 1  # sum of squares num / den^2; every den is a power of two
        for z in row:
            for x in (z.real, z.imag):
                p, q = x.as_integer_ratio()
                if q > den:
                    num *= (q // den) ** 2
                    den = q
                num += (p * (den // q)) ** 2
        out.append((den * den - num) / (den * den))
    return np.array(out)


def inside_unit_ball(P) -> np.ndarray:
    """Mask of the rows p of an n-by-d complex array with ``||p|| < 1``, decided exactly.

    The float ``||p||^2`` is within ``gamma_2d`` of the exact one, so it decides
    every row outside a band of a few units in the last place around 1;
    rows in the band are decided by :func:`one_minus_norm2`.  ``np.abs``
    alone would round some points on or outside the sphere below 1.
    Non-finite rows are outside.
    """
    P = _as_points(P)
    excess = (P.real * P.real + P.imag * P.imag).sum(axis=1) - 1.0
    near = np.abs(excess) <= 8 * (P.shape[1] + 1) * UNIT_ROUNDOFF
    if near.any():
        excess[near] = -one_minus_norm2(P[near])
    return excess < 0.0


def _disk_block(K: KernelExpr, X, Y) -> np.ndarray:
    """``1 / (1 - <x, y>)`` of the Szego (d = 1) or ball kernel."""
    if K.op == "szego":
        if X.shape[1] != 1 or Y.shape[1] != 1:
            raise OutOfDomain("szego kernel lives on the unit disk of C^1")
    elif X.shape[1] != K.dim or Y.shape[1] != K.dim:
        raise OutOfDomain(f"ball kernel expects points of dimension {K.dim}")
    in_x = inside_unit_ball(X)
    in_y = in_x if Y is X else inside_unit_ball(Y)  # a Gram passes one array twice
    if not (in_x.all() and in_y.all()):
        if K.op == "ball":
            raise OutOfDomain("ball kernel needs points inside the open unit ball")
        raise OutOfDomain(f"szego kernel needs |z| < 1, got ({X[0, 0]}, {Y[0, 0]})")
    return 1.0 / (1.0 - (X[:, None, :] * np.conj(Y[None, :, :])).sum(axis=-1))


def _block_values(K: KernelExpr, X, Y) -> np.ndarray:
    """``K(X, Y)`` by broadcasting, walking the tree once in evaluation order.

    A node raises as soon as any entry of its block fails, naming the block's
    first entry; :func:`_evaluate` reports only the errors of 1x1 blocks,
    where that entry is the one that fails.
    """
    op = K.op
    shape = (X.shape[0], Y.shape[0])
    if op in ("szego", "ball"):
        return _disk_block(K, X, Y)
    if op == "constant":
        return np.full(shape, complex(K.value))
    if op == "rank1":
        return K.fn.eval_points(X)[:, None] * np.conj(K.fn.eval_points(Y)[None, :])
    if op == "sum":
        out = np.zeros(shape, dtype=complex)
        for child in K.children:
            out = out + _block_values(child, X, Y)
        return out
    if op == "scale":
        return K.factor * _block_values(K.children[0], X, Y)
    if op == "hadamard":
        return _block_values(K.children[0], X, Y) * _block_values(K.children[1], X, Y)
    if op == "geom":
        v = _block_values(K.children[0], X, Y)
        bad = ~inside_unit_ball(v.reshape(-1)).reshape(shape)  # np.abs(v) can round across 1
        if bad.any():
            raise GeomDiverges(f"geometric series diverges at ({X[0].tolist()}, {Y[0].tolist()}): |K| = {abs(v[0, 0])}")
        return 1.0 / (1.0 - v)
    raise AssertionError(op)


def _evaluate(K: KernelExpr, X, Y, upper: bool = False):
    """``K(X, Y)`` and None, or None and the first failing entry in row-major
    order, among the entries with ``i <= j`` when ``upper``, as ``(i, j, exception)``.

    A failed block is rescanned: each row is evaluated alone, from its
    diagonal on when ``upper``, then each entry of a row that fails, so the
    exception is the one that entry alone raises; a rescan that finds it
    takes at most ``2n + 1`` block evaluations in all.  An entry's
    value does not depend on the block it is evaluated in.  When no entry
    fails alone, the rows and entries make up the result: complex products
    may be fused, so ``K(X, X)`` need not be exactly Hermitian, and an entry
    below the diagonal can fail alone.
    """
    try:
        return _block_values(K, X, Y), None
    except (OutOfDomain, GeomDiverges):
        out = np.zeros((X.shape[0], Y.shape[0]), dtype=complex)
    for i in range(X.shape[0]):
        start = i if upper else 0
        try:
            out[i, start:] = _block_values(K, X[i : i + 1], Y[start:])[0]
        except (OutOfDomain, GeomDiverges):
            for j in range(start, Y.shape[0]):
                try:
                    out[i, j] = _block_values(K, X[i : i + 1], Y[j : j + 1])[0, 0]
                except (OutOfDomain, GeomDiverges) as exc:
                    return None, (i, j, exc)
    return out, None


def kernel_block(K: KernelExpr, X, Y) -> np.ndarray:
    """The matrix ``[K(x_i, y_j)]`` for the rows of ``X`` and ``Y``.

    ``X`` and ``Y`` are n-by-d and m-by-d arrays of points of C^d (a flat
    array is a list of points of C^1).  Every node of the expression is
    evaluated once on the whole block by broadcasting; a block that fails
    is rescanned row by row, then entry by entry, to find where.

    Raises:
        OutOfDomain: a point outside the open disk/ball of a built-in kernel,
            or of the wrong dimension for a kernel or symbol.
        GeomDiverges: a ``geom`` node saw an inner value of modulus >= 1.
        The error is the one that the first failing entry in row-major
        order raises when evaluated alone.
        Overflow: an entry is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out, failure = _evaluate(K, _as_points(X), _as_points(Y))
    if failure:
        raise failure[2]
    require_finite("the kernel block", out)
    return out


def kernel_eval(K: KernelExpr, x, y) -> complex:
    """Evaluate the kernel at a pair of points: the 1x1 :func:`kernel_block`."""
    return complex(kernel_block(K, _as_point(x)[None, :], _as_point(y)[None, :])[0, 0])


def hermitian_from_upper(entry, n: int) -> np.ndarray:
    """Fill a Hermitian matrix from an upper-triangle entry function: each pair
    ``i <= j`` once, then :func:`mirror_upper`.  The package itself evaluates
    whole blocks; this per-entry form stays for callers outside it."""
    n = integer(n, "matrix size")
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            out[i, j] = entry(i, j)
    return mirror_upper(out)


def gram(K: KernelExpr, sample: EuclideanPointSet) -> np.ndarray:
    """The read-only, exactly Hermitian matrix [K(x_i, x_j)] on the sample.

    The block is evaluated at once and its upper triangle mirrored
    (:func:`mirror_upper`).  A block that fails is rescanned row by row,
    each row from its diagonal on, and the error names the first failing
    ``(i, j)`` with ``i <= j`` in row-major order as ``gram entry (i,j)``;
    an entry that fails only below the diagonal is mirrored away.  A matrix
    with an entry that is not finite raises Overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out, failure = _evaluate(K, sample.points, sample.points, upper=True)
    if failure:
        i, j, exc = failure
        raise type(exc)(f"gram entry ({i},{j}): {exc}")
    out = mirror_upper(out)
    require_finite("the Gram matrix", out)
    out.flags.writeable = False
    return out


class PsdReport(NamedTuple):
    """Verdict of a PSD test under the relative eigenvalue rule."""

    is_psd: bool
    min_eigenvalue: float
    tolerance_used: float
    max_abs_eigenvalue: float

    def to_json(self) -> dict:
        return self._asdict()


def psd_check(G, tol: float = 1e-10) -> PsdReport:
    """Decide positive semi-definiteness of a Hermitian matrix.

    The matrix passes when its smallest eigenvalue satisfies
    ``lambda_min >= -tol * max(1, max_i |lambda_i|)``.  ``G`` is any
    nonempty square matrix of finite numbers, from :func:`gram` or not, read
    by :func:`serialize.complex_array`, and must be exactly Hermitian.  An
    eigenvalue past float64 is refused as :class:`Overflow`.
    """
    tol = real(tol, "tolerance")
    if not 0.0 <= tol < np.inf:
        raise ValidationError("tolerance must be nonnegative and finite")
    entries = complex_array(G, "the matrix", 2)
    if entries.shape[0] != entries.shape[1] or entries.shape[0] == 0:
        raise ValidationError("psd_check needs a nonempty square matrix")
    if not np.array_equal(entries, entries.conj().T):
        raise NotHermitian("matrix is not Hermitian")
    eigs = np.linalg.eigvalsh(entries)
    require_finite("max_abs_eigenvalue", eigs)
    min_eig = float(eigs.min())
    max_abs = float(np.abs(eigs).max())
    return PsdReport(
        is_psd=bool(min_eig >= -tol * max(1.0, max_abs)),
        min_eigenvalue=min_eig,
        tolerance_used=tol,
        max_abs_eigenvalue=max_abs,
    )


# ---------------------------------------------------------------------------
# Hermitian pencils

#: Machine epsilon of float64, the spacing of floats just above 1.
_EPS = float(np.finfo(float).eps)
#: Unit roundoff of float64.
UNIT_ROUNDOFF = _EPS / 2.0
#: Smallest positive normal float64.
_TINY = float(np.finfo(float).tiny)
#: Absolute error allowed per matrix entry for results in the subnormal range,
#: where relative error bounds fail; far above any accumulated subnormal error.
_UNDERFLOW_FLOOR = 2.0**-1000
#: How far above the pencil value a certificate may go, in units of
#: ``eps cond(G) max(1, t)`` on top of the caller's tolerance.
_ROUNDING_ALLOWANCE = 32.0


def gamma(k: int) -> float:
    """Higham's ``gamma_k = k u / (1 - k u)``: relative error of k roundings."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


@lru_cache(maxsize=64)
def _mirror_indices(n: int):
    """Flat positions ``i*n + j`` of the strict lower triangle of an n-by-n
    matrix, and of the upper-triangle entries ``(j, i)`` they mirror; read
    only, since every caller shares them."""
    i, j = np.tril_indices(n, -1)
    lower, upper = i * n + j, j * n + i
    lower.flags.writeable = upper.flags.writeable = False
    return lower, upper


def mirror_upper(M) -> np.ndarray:
    """Exactly Hermitian matrix (or stack) from the upper triangle of ``M``.

    The strict upper triangle is mirrored as its conjugate and the diagonal
    keeps its real part, so the result does not depend on two roundings of
    ``M[i, j]`` and ``M[j, i]`` agreeing.  One C-ordered copy is made, and
    its strict lower triangle is written through flat indices cached per
    size.  Signed zeros and NaNs come out as in ``U + conj(U*)`` for ``U``
    the strict upper triangle with zeros elsewhere: the copy adds ``0 - 0j``
    (a real part of ``-0.0`` becomes ``+0.0``) and the mirrored conjugates
    add ``+0``.
    """
    M = np.asarray(M)
    n = M.shape[-1]
    out = np.add(M, complex(0.0, -0.0) if M.dtype.kind == "c" else 0.0, order="C")
    flat = out.reshape(M.shape[:-2] + (n * n,))
    lower, upper = _mirror_indices(n)
    flat[..., lower] = np.conj(flat[..., upper]) + 0.0
    flat[..., :: n + 1] = M.diagonal(0, -2, -1).real
    return out


def require_finite(what: str, *arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise Overflow(f"{what} overflows float64")


def multiplier_gram(T: float, w, G) -> np.ndarray:
    """The exactly Hermitian ``[(T - w_i conj(w_j)) G_ij]``: for the Gram G of a
    kernel and a symbol's values w on a sample, PSD exactly when multiplication
    by w has norm at most ``sqrt(T)`` on the sample.

    Raises:
        Overflow: an entry is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = (T - w[:, None] * np.conj(w[None, :])) * G
    require_finite("the matrix (T - w w*) o G", out)
    return mirror_upper(out)


# Up to this many rows lower_inverse is one LAPACK inverse; above it, blocks.
_INVERSE_BLOCK = 64


def lower_inverse(L) -> np.ndarray:
    """Inverse of a nonsingular lower triangular matrix, exactly lower triangular.

    Up to ``_INVERSE_BLOCK`` rows it is computed as ``inv(L*)*``.  ``L*`` is
    upper triangular, so partial pivoting swaps no rows and its LU
    factorization is ``(I, L*)`` without rounding; the inverse then comes
    from triangular solves with ``L*`` alone, and every entry above the
    diagonal is an exact zero.  numpy has no triangular inverse, and this
    costs a few times the flops of LAPACK's ``trtri``, but it keeps scipy out
    of every caller's import.

    A larger ``L = [[A, 0], [C, D]]`` is split in half, and ``A`` and ``D``
    are inverted the same way.  The lower block ``X21 = -D^-1 C A^-1`` is
    solved from ``X21 A = -(D^-1 C)`` with ``A`` itself, by ``solve`` on
    ``A^T``, which is upper triangular and so again factors without
    rounding.  Multiplying by the computed ``A^-1`` instead would be faster
    but can leave ``|X L - I|`` above ``gamma_{2n} |X| |L|`` on graded
    matrices; the solve keeps that componentwise residual bound.  The upper
    block is an exact zero.  At 240 rows this takes about half the time of
    one ``inv`` (1.7 ms against 3.2 ms, real, one BLAS thread).
    """
    L = np.asarray(L)
    n = L.shape[-1]
    if n <= _INVERSE_BLOCK:
        return np.linalg.inv(L.conj().T).conj().T
    h = n // 2
    A, C, D = L[:h, :h], L[h:, :h], L[h:, h:]
    A_inv, D_inv = lower_inverse(A), lower_inverse(D)
    X = np.zeros(L.shape, A_inv.dtype)
    X[:h, :h] = A_inv
    X[h:, h:] = D_inv
    X[h:, :h] = np.linalg.solve(A.T, -(D_inv @ C).T).T
    return X


def pencil_norms(A, G) -> np.ndarray:
    """sqrt of the top eigenvalue of each Hermitian pencil ``(A[k], G)``.

    That is the least ``t >= 0`` with ``t^2 G - A[k]`` positive semi-definite,
    for a stack ``A`` of Hermitian matrices and one positive definite ``G``.
    ``G`` is scaled to unit diagonal, a congruence that leaves every pencil's
    eigenvalues unchanged, and factored once as ``L L*``; each scaled
    ``A[k]`` is whitened to ``L^-1 A[k] L^-*``, with ``L^-1`` from
    :func:`lower_inverse`, and the top eigenvalues come from one batched
    eigensolve.  The scaling runs even on a diagonal of ones: a complex
    product with 1.0 is not the identity on signed zeros, so skipping it
    would not keep the bits.

    Raises:
        DegenerateGram: the scaled ``G`` is not numerically positive definite.
        Overflow: an entry of ``A`` is not finite.
    """
    return _pencil_solve(A, G)[0]


def _pencil_solve(A, G):
    """:func:`pencil_norms` and what its solve computes on the way: the
    norms, the ascending eigenvalues of each whitened ``A[k]``, ``L^-1``
    for the factor ``L`` of the scaled ``G``, and the diagonal of ``G``."""
    A = np.asarray(A)
    G = np.asarray(G)
    require_finite("the pencil matrix", A)
    diag = G.diagonal().real
    if not np.all(diag > 0.0):
        raise DegenerateGram("the Gram matrix has a nonpositive diagonal entry")
    d = 1.0 / np.sqrt(diag)
    scale = d[:, None] * d[None, :]
    try:
        L = np.linalg.cholesky(G * scale)
    except np.linalg.LinAlgError:
        raise DegenerateGram("the Gram matrix is numerically singular (Cholesky broke down)") from None
    L_inv = lower_inverse(L)
    whitened = L_inv @ (A * scale) @ L_inv.conj().T
    eigs = np.linalg.eigvalsh(whitened)
    return np.sqrt(np.maximum(eigs[..., -1], 0.0)), eigs, L_inv, diag


def _perron_bound(M: np.ndarray) -> np.ndarray:
    """Upper bound on the spectral radius of each nonnegative symmetric M[k].

    Collatz-Wielandt: ``rho(M) <= max_i (M x)_i / x_i`` for every positive x;
    x is one power step from the all-ones vector, scaled to at most 1 and
    kept away from underflow, and the factor covers the rounding of ``M x``
    and the quotient.
    """
    rows = M.sum(axis=-1)
    x = np.maximum(rows / np.maximum(rows.max(axis=-1, keepdims=True), _TINY), 2.0**-20)
    ratio = (M @ x[..., None])[..., 0] / x
    return ratio.max(axis=-1) * (1.0 + gamma(M.shape[-1] + 2))


def _cholesky_each(S: np.ndarray):
    """Lower Cholesky factors of a stack and a mask of those that completed;
    after a breakdown each matrix is factored alone."""
    try:
        return np.linalg.cholesky(S), np.ones(len(S), dtype=bool)
    except np.linalg.LinAlgError:
        L, ok = np.zeros_like(S), np.ones(len(S), dtype=bool)
    for k in range(len(S)):
        try:
            L[k] = np.linalg.cholesky(S[k])
        except np.linalg.LinAlgError:
            ok[k] = False
    return L, ok


def _shift_needed(P: np.ndarray, shift: np.ndarray, entry_radius: np.ndarray) -> np.ndarray:
    """Shift that a Cholesky factorization of ``P[k] - shift[k] I`` shows to suffice.

    Rump's test (BIT 46, 2006): if floating-point Cholesky of ``P - shift I``
    completes with factor L, then ``L L* = P - shift I + E`` with
    ``|E| <= gamma_{n+3} |L| |L*|`` (complex arithmetic adds two roundings to
    the real ``gamma_{n+1}``), and the shifted diagonal is off by at most
    ``u`` of itself.  ``rho(|L| |L*|)`` is bounded by :func:`_perron_bound`.
    By Weyl's inequality every Hermitian matrix within spectral distance
    ``entry_radius[k]`` of ``P[k]`` has its eigenvalues at least ``shift``
    minus the returned sum of the three error terms; the sum is infinite
    where the factorization broke down.  The caller compares the two.
    """
    n = P.shape[-1]
    S = P.copy()
    diag = S.reshape(len(S), n * n)[:, :: n + 1]  # a view of each diagonal
    diag -= shift[:, None]
    L, done = _cholesky_each(S)
    absL = np.abs(L)
    factor_error = gamma(n + 3) * _perron_bound(absL @ np.swapaxes(absL, -1, -2))
    diag_error = 1.01 * UNIT_ROUNDOFF * np.abs(diag.real).max(axis=-1)
    needed = (factor_error + diag_error + entry_radius) * (1.0 + gamma(4))
    return np.where(done, needed, np.inf)


def certify_pencil_norms(G, norms, tol: float, pencil_matrix) -> np.ndarray:
    """Raise pencil norms to certified upper bounds.

    ``G`` is the float Gram of the pencils and ``pencil_matrix(T, idx)``
    returns, for squared norms ``T`` of the pencils ``idx``, the float
    matrices ``T G - A[idx]`` and an entrywise bound on their distance from
    the exact matrices they stand for.  Returns for each ``norms[k]`` a
    float ``t >= norms[k]`` at which ``t^2 G - A[k]`` is proven positive
    definite in exact arithmetic, so ``t`` is at least the exact pencil
    norm.

    The proof factors ``t^2 G - A[k] - shift I``, where ``shift`` covers the
    rounding of the entries and of the factorization.  The smallest
    eigenvalue of ``norms[k]^2 G - A[k]`` is measured, a positive reading
    taken as 0, and one Weyl step ``t^2 += deficit / lambda_min(G)`` aims it
    at ``(1 + 2^-4) shift``, past the shift, so that the shifted matrix is
    not singular to working precision and the first factorization
    completes.  A failed proof is retried with growing increments.  Every
    returned value is checked against the allowance
    ``tol + 32 eps cond(G) max(1, t)`` above ``norms[k]``; the excess is
    typically a few ``eps cond(G) t``.

    Raises:
        DegenerateGram: ``G`` is not numerically positive definite, or a
            value would exceed the allowance.
        Overflow: ``t^2 G - A[k]`` overflows.
    """
    norms = np.asarray(norms, dtype=float)
    eig_G = np.linalg.eigvalsh(G)
    lam_G = float(eig_G[0])
    if not lam_G > 0.0:
        raise DegenerateGram(f"the Gram matrix is not positive definite (smallest eigenvalue {lam_G:.3e})")
    allowance = tol + _ROUNDING_ALLOWANCE * _EPS * (eig_G[-1] / lam_G) * np.maximum(1.0, norms)
    limit = (norms + allowance) ** 2
    margin = 1.0 + 2.0**-4

    def trial(T: np.ndarray, idx: np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            P, bound = pencil_matrix(T, idx)
        require_finite("the matrix t^2 G - A", T, P, bound)
        # one Perron bound on the stack of both nonnegative matrices
        both = np.empty((2,) + P.shape)
        np.add(bound, _UNDERFLOW_FLOOR, out=both[0])
        np.abs(P, out=both[1])
        radius, rho_P = _perron_bound(both)
        estimate = radius + gamma(P.shape[-1] + 4) * rho_P
        return P, radius, np.maximum(estimate, learned[idx]) * margin

    # the factor's |L| |L*| can exceed |P|; a failed proof teaches the shift
    learned = np.zeros(len(norms))
    T = norms**2
    pending = np.arange(len(norms))
    P, _, shift = trial(T, pending)
    # lambda_min(P) is about 0 at the pencil value, so a positive reading is rounding
    T = T + (margin * shift - np.minimum(np.linalg.eigvalsh(P)[:, 0], 0.0)) / lam_G
    attempt = 0
    while pending.size:
        if np.any(T[pending] > limit[pending]):
            raise DegenerateGram("could not certify the pencil norm: the Gram matrix is too ill-conditioned")
        P, radius, shift = trial(T[pending], pending)
        needed = _shift_needed(P, shift, radius)
        failed = ~(shift > needed)
        if not failed.any():  # every remaining proof held
            break
        pending, shift, needed = pending[failed], shift[failed], needed[failed]
        learned[pending] = np.where(np.isfinite(needed), needed, learned[pending])
        T[pending] += np.maximum(shift, learned[pending]) / lam_G * 2.0 ** (attempt - 3)
        attempt += 1
    return np.nextafter(np.sqrt(T), np.inf)


def schur_product_check(K: KernelExpr, L: KernelExpr, sample: EuclideanPointSet, tol: float = 1e-10) -> PsdReport:
    """PSD verdict for the entrywise product of two kernels on a sample."""
    return psd_check(gram(hadamard(K, L), sample), tol=tol)


# ---------------------------------------------------------------------------
# JSON grammar


#: Nodes of an expression read from JSON, counted from the root and through a
#: ``rank1`` kernel into its symbol; a deeper expression is refused.
MAX_DEPTH = 100


class _Grammar(dict):
    """One expression tree's grammar: each op or kind mapped to ``(make,
    fields, children)``, where ``make(*fields, *children)`` builds the node.
    ``fields`` maps each field, stored on the node under its own name, to a
    ``(read, write)`` pair of JSON converters or to the grammar of the
    expression it holds; ``children`` has one key per child, or is the key
    of their list.  ``tag`` is the JSON key of the op or kind."""

    def __init__(self, noun: str, tag: str, nodes: dict):
        super().__init__(nodes)
        self.noun, self.tag = noun, tag

    def node(self, op) -> tuple:
        """The entry of ``op``, refused unless it is one of the tree's ops or kinds."""
        entry = self.get(op) if isinstance(op, str) else None
        if entry is None:
            raise ValidationError(f"unknown {self.noun} {self.tag} {shown(op)}")
        return entry


_AS_IS = (lambda value: value,) * 2  # a number that the constructor checks
_COMPLEX = (pair_to_complex, complex_to_json)

_FN_GRAMMAR = _Grammar("function", "kind", {
    "coordinate": (coordinate, {"index": _AS_IS}, ()),
    "polynomial": (polynomial, {"coeffs": (complex_vector_from_json, complex_to_json)}, ()),
    "moebius": (moebius, {"a": _COMPLEX}, ()),
    "exp": (exponential, {}, ()),
    "compose": (compose, {}, ("outer", "inner")),
    "product": (fn_product, {}, "factors"),
    "sum": (fn_sum, {}, "terms"),
    "scale": (fn_scale, {"factor": _COMPLEX}, ("arg",)),
})

_KERNEL_GRAMMAR = _Grammar("kernel", "op", {
    "szego": (szego, {}, ()),
    "ball": (ball, {"dim": _AS_IS}, ()),
    "constant": (constant, {"value": _AS_IS}, ()),
    "rank1": (rank_one, {"fn": _FN_GRAMMAR}, ()),
    "sum": (kernel_sum, {}, "terms"),
    "scale": (scale, {"factor": _AS_IS}, ("arg",)),
    "hadamard": (hadamard, {}, ("left", "right")),
    "geom": (geom, {}, ("arg",)),
})


def _read(grammar: _Grammar, obj, depth: int):
    """The node that ``obj`` describes, ``depth`` nodes from the root: its
    keys are looked for first, then its fields are read, then its children,
    and ``make`` is called last."""
    if depth > MAX_DEPTH:
        raise ValidationError(NESTED_TOO_DEEPLY)
    if not isinstance(obj, dict) or grammar.tag not in obj:
        article = "an" if grammar.tag[0] in "aeiou" else "a"
        raise ValidationError(f'{grammar.noun} JSON must contain {article} "{grammar.tag}" key')
    op = obj[grammar.tag]
    make, fields, children = grammar.node(op)
    listed = isinstance(children, str)
    for key in (*fields, *((children,) if listed else children)):
        if key not in obj:
            raise ValidationError(f'{grammar.noun} {grammar.tag} "{op}" needs the key "{key}"')
    if listed and not isinstance(obj[children], (list, tuple)):
        raise ValidationError(f'"{children}" of {grammar.noun} {grammar.tag} "{op}" must be a list')
    args = []  # plain loops: a comprehension would add a frame to every node
    for key, codec in fields.items():
        args.append(_read(codec, obj[key], depth + 1) if isinstance(codec, _Grammar) else codec[0](obj[key]))
    for child in obj[children] if listed else (obj[key] for key in children):
        args.append(_read(grammar, child, depth + 1))
    return make(*args)


def _write(grammar: _Grammar, node) -> dict:
    """The JSON object of ``node``: its tag, its fields, then its children."""
    op = getattr(node, grammar.tag)
    _, fields, children = grammar[op]
    out = {grammar.tag: op}
    for key, codec in fields.items():
        value = getattr(node, key)
        out[key] = _write(codec, value) if isinstance(codec, _Grammar) else codec[1](value)
    written = [_write(grammar, child) for child in node.children]
    out.update({children: written} if isinstance(children, str) else zip(children, written))
    return out


def fn_to_json(fn: ClosedFormFunction) -> dict:
    return _write(_FN_GRAMMAR, fn)


def fn_from_json(obj) -> ClosedFormFunction:
    return _read(_FN_GRAMMAR, obj, 1)


def kernel_to_json(K: KernelExpr) -> dict:
    return _write(_KERNEL_GRAMMAR, K)


def kernel_from_json(obj) -> KernelExpr:
    return _read(_KERNEL_GRAMMAR, obj, 1)
