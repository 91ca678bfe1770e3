"""Hardy-space truncations, Pick interpolation, and Carleson-type probes.

Polynomial multiplication on Taylor coefficients is a lower-triangular
Toeplitz matrix; conversely, a matrix acting on a degree truncation is
recognized as a multiplication operator by testing whether its adjoint fixes
the direction of every kernel coefficient vector.  Interpolation with a
multiplier-norm budget is decided by the Pick matrix

    [(t^2 - w_i conj(w_j)) / (1 - y_i conj(y_j))]  =  t^2 C - W C W*

(C the Szego Gram of the nodes, W = diag(w)), whose PSD-ness characterizes
feasibility.  Near the circle ``1 - y_i conj(y_j)`` cancels, so C is built
from the polarization identity: its real part is half the sum of the
nonnegative terms ``1 - |y_i|^2`` (correctly rounded), ``1 - |y_j|^2`` and
``|y_j - y_i|^2``, and its imaginary part is at most ``|y_j - y_i|`` in size,
which ``|1 - z conj(w)|^2 = (1 - |z|^2)(1 - |w|^2) + |z - w|^2`` keeps below
the modulus; so every entry carries a relative error bound of a few units in
the last place.  The minimal interpolation norm is the square root of the top
eigenvalue of the pencil ``(W C W*, C)`` (Agler & McCarthy, *Pick
Interpolation and Hilbert Function Spaces*); it is reported next to a
certified upper bound at which the Pick matrix is proven positive definite
by a shifted Cholesky factorization (Rump, BIT 2006) whose margin counts
every rounding.  Node sequences whose boundary gaps halve support bounded
interpolation of every 0/1 pattern while keeping the interpolants uniformly
separated in sup norm - the finite fingerprint of a non-separable
multiplier algebra; all 2^m patterns are solved in one batch over a single
factorization of C.  Finally, a polynomial multiplies the span of exp(z)
and the monomials z^n (n >= 1) into itself only when it is constant, which
:func:`ardy_multiplier_check` decides exactly from its coefficients.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DuplicatePoint,
    Frozen,
    NotInDisk,
    PatternBudgetExceeded,
    ValidationError,
)
from .geometry import EuclideanPointSet
from .kernels import (
    PsdReport,
    certify_pencil_norms,
    gamma,
    inside_unit_ball,
    kernel_block,
    mirror_upper,
    multiplier_gram,
    one_minus_norm2,
    pencil_norms,
    psd_check,
    require_finite,
    szego,
)
from .serialize import (
    coefficients,
    complex_array,
    complex_to_json,
    complex_vector_from_json,
    finite,
    integer,
    number_array,
    real,
    tolerance,
)


def toeplitz_mo(omega, N: int) -> np.ndarray:
    """Matrix of f -> omega * f from degree <= N into degree <= N + deg(omega).

    Lower-triangular Toeplitz in the monomial bases: column j carries the
    coefficients of omega shifted down by j.
    """
    N = integer(N, "truncation degree")
    if N < 0:
        raise ValidationError("truncation degree must be nonnegative")
    coeffs = coefficients(omega, "symbol coefficients")
    d = coeffs.size - 1
    out = np.zeros((N + 1 + d, N + 1), dtype=complex)
    for j in range(N + 1):
        out[j : j + d + 1, j] = coeffs
    return out


def compress_square(T: np.ndarray, N: int) -> np.ndarray:
    """Keep coefficients of degree <= N: the square truncation of an MO matrix."""
    T = complex_array(T, "the matrix", 2)
    N = integer(N, "truncation degree")
    if T.shape[1] != N + 1 or T.shape[0] < N + 1:
        raise ValidationError(f"expected a matrix with {N + 1} columns and at least {N + 1} rows")
    return T[: N + 1, :]


def detect_mo(T, sample: EuclideanPointSet, tol: float = 1e-6):
    """Recognize a truncated multiplication operator from its adjoint action.

    A multiplication operator's adjoint maps each kernel coefficient vector
    ``(conj(x)^n)_n`` to a multiple of itself, the factor being the
    conjugated symbol value.  For every sample point this tests that
    parallelism within the relative tolerance and, if all points pass,
    returns the recovered symbol values; otherwise returns None.

    For the square truncation of a genuine polynomial symbol the recovery
    error decays like |x|^(N + 1 - deg) in the truncation degree N.
    """
    T = complex_array(T, "the matrix", 2)
    if T.shape[0] != T.shape[1]:
        raise ValidationError("detect_mo needs a square matrix")
    tol = tolerance(tol)
    if sample.dim != 1 or len(sample) < 2:
        raise ValidationError("need a sample of at least 2 points in the disk")
    N = T.shape[0] - 1
    adj = T.conj().T
    out = []
    for pt in sample.points:
        x = complex(pt[0])
        u = np.conj(x) ** np.arange(N + 1)
        v = adj @ u
        c = np.vdot(u, v) / np.vdot(u, u)
        residual = np.linalg.norm(v - c * u)
        if residual > tol * max(np.linalg.norm(v), 1e-300):
            return None
        out.append(np.conj(c))
    return np.array(out, dtype=complex)


class PickProblem(Frozen):
    """Interpolation nodes in the open disk, targets, and a norm budget t."""

    _fields = ("nodes", "values", "bound")

    def __init__(self, nodes, values, bound: float = 1.0):
        nodes = number_array(nodes, "interpolation nodes").reshape(-1)
        values = number_array(values, "interpolation targets").reshape(-1)
        if nodes.size == 0 or nodes.size != values.size:
            raise ValidationError("need equally many (and at least one) nodes and targets")
        finite(nodes, "interpolation nodes")
        finite(values, "interpolation targets")
        if not inside_unit_ball(nodes).all():
            raise NotInDisk("interpolation nodes must lie in the open unit disk")
        if len(set(nodes.tolist())) != nodes.size:
            raise DuplicatePoint("interpolation nodes must be distinct")
        bound = real(bound, "the norm bound")
        if not (np.isfinite(bound) and bound >= 0.0):
            raise ValidationError("the norm bound must be finite and nonnegative")
        self._set(nodes, values, bound)

    def to_json(self) -> dict:
        return {
            "nodes": complex_to_json(self.nodes),
            "values": complex_to_json(self.values),
            "bound": self.bound,
        }

    @classmethod
    def from_json(cls, obj) -> "PickProblem":
        if not isinstance(obj, dict) or "nodes" not in obj or "values" not in obj:
            raise ValidationError('Pick problem JSON needs "nodes" and "values"')
        return cls(
            complex_vector_from_json(obj["nodes"]),
            complex_vector_from_json(obj["values"]),
            bound=obj.get("bound", 1.0),
        )

    def solve(self, tol: float = 1e-9) -> "PickSolution":
        """:func:`pick_solve` on the validated nodes and targets; the budget plays no part."""
        certified, pencil = _solve_pick(self.nodes, self.values[None, :], tol)
        return PickSolution(float(certified[0]), float(pencil[0]))


def pick_feasible(problem: PickProblem, tol: float = 1e-10) -> PsdReport:
    """PSD verdict of the Pick matrix at the problem's norm budget."""
    z = problem.nodes[:, None]
    C = kernel_block(szego(), z, z)
    return psd_check(multiplier_gram(problem.bound * problem.bound, problem.values, C), tol=tol)


def _szego_unit_gram(nodes: np.ndarray):
    """Szego Gram of the nodes scaled to unit diagonal, and its entry error.

    ``D = 1 - z_i conj(z_j)`` cancels for nodes near the circle, so it is
    built from the polarization identity, with ``z = a + ib``,
    ``d_i = 1 - |z_i|^2`` correctly rounded and ``Da = a_j - a_i``:

        Re D = (d_i + d_j + Da^2 + Db^2) / 2,   Im D = a_i Db - b_i Da.

    The real part sums nonnegative terms, so it is off by at most
    ``gamma_3 (d_i + d_j)/2 + gamma_5 (Da^2 + Db^2)/2``; the imaginary part by
    ``gamma_3 (|a_i Db| + |b_i Da|)``, which is small against |D| since
    ``|z_j - z_i| <= |D|``.  Underflow needs no floor: a subnormal product is
    off by at most 2^-1075, and a positive ``d_i`` is at least 2^-158,
    so ``gamma_3 d_i`` dwarfs it within the 1.01 slack.  The scaling
    ``s_i = sqrt(d_i)`` is a congruence by exact floats, so the returned
    matrix stands for ``S C S`` with exact C and exact S.  Returns the Gram
    and a bound on the relative error of each of its entries.
    """
    d = one_minus_norm2(nodes)
    a, b = nodes.real[:, None], nodes.imag[:, None]
    da, db = a.T - a, b.T - b
    dd, sq = d[:, None] + d[None, :], da * da + db * db
    adb, bda = a * db, b * da
    x, y = 0.5 * (dd + sq), adb - bda
    error = gamma(3) * (0.5 * dd + np.abs(adb) + np.abs(bda)) + gamma(5) * 0.5 * sq
    rel_D = float((error / np.hypot(x, y)).max()) * 1.01
    s = np.sqrt(d)
    ss = s[:, None] * s[None, :]
    q = x * x + y * y
    gram = ss / x if not y.any() else (ss * x / q) - 1j * (ss * y / q)
    return mirror_upper(gram), gamma(6) + 1.01 * rel_D


class PickSolution(NamedTuple):
    """Certified minimal interpolation norm and the float pencil value."""

    min_norm: float
    pencil_norm: float


def _solve_pick(nodes: np.ndarray, targets: np.ndarray, tol: float):
    """Pencil norms and certified bounds for a stack of target vectors on shared nodes."""
    tol = tolerance(tol)
    C, rel_C = _szego_unit_gram(nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        products = mirror_upper(targets[:, :, None] * np.conj(targets)[:, None, :])
    require_finite("the Pick matrix", products)
    pencil = pencil_norms(mirror_upper(C * products), C)
    abs_C = np.abs(C)
    abs_targets = np.abs(targets)
    abs_products = abs_targets[:, :, None] * abs_targets[:, None, :]

    def pick_matrices(T: np.ndarray, idx: np.ndarray):
        # C o (T - w w*): the error of C scales with |T - w_i conj(w_j)|, which
        # vanishes where the targets agree; complex products are within sqrt(5) u
        budget = T[:, None, None] - products[idx]
        error = abs_C * ((rel_C + gamma(4)) * np.abs(budget) + gamma(3) * abs_products[idx])
        return mirror_upper(C * budget), error

    return certify_pencil_norms(C, pencil, tol, pick_matrices), pencil


def pick_solve(nodes, values, tol: float = 1e-9) -> PickSolution:
    """Minimal multiplier-norm budget t making interpolation feasible.

    ``pencil_norm`` is the square root of the top eigenvalue of the pencil
    ``(W C W*, C)``, accurate to about ``eps cond(C) t``.  ``min_norm`` is a
    certified upper bound: the Pick matrix ``t^2 C - W C W*`` is proven
    positive definite at it in exact arithmetic, for the float nodes and
    targets as given.  Its excess over the exact minimum is at most
    ``tol + 32 eps cond(C) max(1, t)``, with C scaled to unit diagonal: the
    certificate gives up with DegenerateGram rather than go further above
    the pencil value.  The rounding term cannot be avoided, since near the
    minimum the Pick matrix is only known to about ``eps cond(C) t^2``.

    Raises:
        DegenerateGram: the nodes' Szego Gram is numerically singular.
        Overflow: the Pick matrix overflows float64.
    """
    return PickProblem(nodes, values, bound=0.0).solve(tol)


def pick_min_norm(nodes, values, tol: float = 1e-9) -> float:
    """Certified upper bound on the minimal interpolation norm.

    The Pick matrix is proven positive definite at the returned value, so it
    is never below the exact minimum, and its excess over the exact minimum
    is at most ``tol + 32 eps cond(C) max(1, t)``.  :func:`pick_solve`
    reports it next to the float ``pencil_norm``.
    """
    return pick_solve(nodes, values, tol=tol).min_norm


def carleson_seq(start: float, m: int) -> np.ndarray:
    """Positive nodes marching to the boundary with exactly halving gaps.

    y_{k+1} = 1 - (1 - y_k) / 2, seeded at ``start``; returns m nodes
    (the seed itself is not included).
    """
    start = real(start, "start")
    if not (0.0 <= start < 1.0):
        raise NotInDisk(f"start must lie in [0, 1), got {start}")
    m = integer(m, "node count")
    if m < 1:
        raise ValidationError("need at least one node")
    out, y = [], start
    for k in range(m):
        y = 1.0 - (1.0 - y) / 2.0
        if y >= 1.0:  # the gap fell below resolution and rounded onto the boundary
            raise NotInDisk(f"node {k + 1} rounded onto the unit circle; reduce m")
        out.append(y)
    return np.array(out)


class SeparabilityReport(NamedTuple):
    nodes: np.ndarray
    max_min_norm: float
    min_pairwise_gap: float
    pattern_norms: tuple


def separability_probe(m: int, start: float = 0.0, tol: float = 1e-9) -> SeparabilityReport:
    """Interpolate every 0/1 pattern on a halving node sequence.

    Sweeps all 2^m indicator patterns, solving the minimal-norm
    interpolation for each in one batch over a single factorization of the
    Szego Gram of the swept ``nodes``; every pattern norm is certified as in
    :func:`pick_solve`.  ``max_min_norm`` witnesses that every pattern
    is reachable at a uniformly bounded budget, while ``min_pairwise_gap``
    is the smallest sup-distance between distinct patterns on the nodes
    (exactly 1 for indicators) - together, continuum-many uniformly
    separated multipliers in the limit.
    """
    m = integer(m, "node count")
    if m > 12:
        raise PatternBudgetExceeded("pattern sweeps are capped at m = 12 (4096 solves)")
    nodes = carleson_seq(start, m)
    patterns = ((np.arange(2**m)[:, None] >> np.arange(m)[None, :]) & 1).astype(float)
    norms, _ = _solve_pick(nodes, patterns, tol)
    # distinct 0/1 patterns differ somewhere, and there by exactly 1
    return SeparabilityReport(nodes, float(norms.max()), 1.0, tuple(norms.tolist()))


def ardy_multiplier_check(omega) -> bool:
    """Decide exactly whether a polynomial multiplies the exp-monomial span
    into itself: only a constant does.

    ``omega z^n`` vanishes at 0, so the monomials z^n (n >= 1) stay in the
    span for every finite ``omega``.  ``omega exp`` stays only when
    ``omega`` is constant: ``omega exp = c exp + q`` with q a polynomial
    gives ``(omega - c) exp = q``, and exp is not rational.
    """
    w = coefficients(omega, "polynomial coefficients")
    return not w[1:].any()
