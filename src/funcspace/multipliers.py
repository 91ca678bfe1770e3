"""Sampled multiplier-norm estimation and contraction criteria.

For kernels ``K_F``, ``K_E`` and a symbol ``w`` on a finite sample S, the
sampled multiplier norm is the least ``t >= 0`` making

    t^2 * Gram(K_E, S) - D Gram(K_F, S) D*          (D = diag of w on S)

positive semi-definite.  Restricting the defining kernel inequality to a
finite sample can only relax it, so the exact sampled norm is a lower
estimate of the true multiplier norm; the report says so in its
``semantics`` field and no upper-bound claim is made.  The float pencil value
can exceed the exact sampled norm by rounding.

The Gram matrices, ``D G_F D*`` and the contraction matrix
``[(1 - w_i conj(w_j)) K(x_i, x_j)]`` (:func:`kernels.multiplier_gram`) are
each one broadcast expression over the sample: symbols are evaluated on all
sample points at once (:meth:`ClosedFormFunction.eval_points`) and kernels on
the whole sample block (:func:`kernels.gram`), and upper triangles are
mirrored so that every matrix is exactly Hermitian.

Both methods read one solve of the pencil ``(D G_F D*, G_E)``
(:func:`kernels.pencil_norms`).  ``pencil`` reports its value; ``bisection``
reports an endpoint feasible under ``psd_check``'s 1e-12 rule: the diagonal
lower bound ``max |w| sqrt(K_F(x,x)/K_E(x,x))`` if feasible, else the pencil
value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGram, Overflow, SymbolNotContractive, ValidationError
from .geometry import EuclideanPointSet
from .kernels import (
    ClosedFormFunction,
    KernelExpr,
    PsdReport,
    compose,
    gamma,
    gram,
    mirror_upper,
    multiplier_gram,
    pencil_norms,
    polynomial,
    psd_check,
    szego,
)
from .serialize import coefficients, integer, tolerance

#: Relative condition number of Gram(K_E, S) beyond which the sample is
#: rejected instead of silently regularized.
CONDITION_LIMIT = 1e12

#: Relative eigenvalue tolerance of the ``bisection`` feasibility test.
FEASIBLE_TOL = 1e-12

#: Largest boundary grid of the polynomial sup certificate, allocated whole.
MAX_BOUNDARY_GRID = 65536

#: Bound on the distance of each float grid point ``exp(1j * theta)`` of the
#: sup certificate from its root of unity: ``theta`` is within
#: ``2 |pi - fl(pi)| + 4 pi u < 1.7e-15`` of its angle, and libm's cos and
#: sin are within an ulp, so ``2^-48`` (3.6e-15) covers both.
_GRID_ERROR = 2.0**-48


@dataclass(frozen=True)
class MultNormReport:
    """Finite-sample estimate of a multiplier norm."""

    lower_bound_sup: float
    sampled_norm: float
    method: str

    def to_json(self) -> dict:
        return {**vars(self), "semantics": "finite-sample lower estimate"}


def contraction_check(K: KernelExpr, w: ClosedFormFunction, sample: EuclideanPointSet, tol: float = 1e-10) -> PsdReport:
    """Finite-sample test of membership in the closed multiplier unit ball.

    Checks that ``(1 - w (x) conj(w)) K`` restricted to the sample is PSD.
    Passing is necessary for ``||M_w|| <= 1``; failing certifies the norm
    exceeds 1 already on this sample.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a value that overflows is refused below
        values = w.eval_points(sample.points)
    return psd_check(multiplier_gram(1.0, values, gram(K, sample)), tol=tol)


def _gram_of(role: str, K: KernelExpr, sample: EuclideanPointSet) -> np.ndarray:
    """``gram(K, sample)``; an overflow names ``role``, the
    kernel's name in the caller's docstring."""
    try:
        return gram(K, sample)
    except Overflow:
        raise Overflow(f"the Gram matrix of {role} overflows float64") from None


def _diag_lower_bound(w: np.ndarray, G_F: np.ndarray, G_E: np.ndarray) -> float:
    ratios = np.sqrt(np.maximum(G_F.real.diagonal(), 0.0) / G_E.real.diagonal())
    return float((np.abs(w) * ratios).max())


def sampled_mult_norm(
    K_F: KernelExpr,
    K_E: KernelExpr,
    w: ClosedFormFunction,
    sample: EuclideanPointSet,
    method: str = "pencil",
) -> MultNormReport:
    """Least t with ``t^2 Gram(K_E) - D Gram(K_F) D*`` PSD on the sample.

    Args:
        method: "pencil" (generalized eigenvalue, machine accuracy) or
            "bisection" (feasible under ``psd_check``'s 1e-12 rule).

    Raises:
        DegenerateGram: Gram(K_E) is singular past the conditioning limit,
            or, for "bisection", the pencil value fails the feasibility test.
        Overflow: Gram(K_F) or Gram(K_E) overflows, named as such.
    """
    if method not in ("pencil", "bisection"):
        raise ValidationError(f"unknown method {method!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # a value that overflows is refused below
        values = w.eval_points(sample.points)
        sup = float(np.abs(values).max())
    G_F = _gram_of("K_F", K_F, sample)
    G_E = G_F if K_E == K_F else _gram_of("K_E", K_E, sample)
    eig_E = np.linalg.eigvalsh(G_E)
    if eig_E.min() <= 0.0 or eig_E.max() / eig_E.min() > CONDITION_LIMIT:
        raise DegenerateGram(
            f"Gram(K_E) condition exceeds {CONDITION_LIMIT:g}; perturb the sample "
            f"(eigenvalue range [{eig_E.min():.3e}, {eig_E.max():.3e}])"
        )

    with np.errstate(over="ignore", invalid="ignore"):
        A = mirror_upper((values[:, None] * G_F) * np.conj(values[None, :]))
    t = float(pencil_norms(A[None], G_E)[0])
    if method == "pencil":
        return MultNormReport(sup, t, "pencil")

    t_lo = _diag_lower_bound(values, G_F, G_E)
    if psd_check(t_lo * t_lo * G_E - A, tol=FEASIBLE_TOL).is_psd:
        t = t_lo
    elif not psd_check(t * t * G_E - A, tol=FEASIBLE_TOL).is_psd:
        raise DegenerateGram(f"the pencil value {t!r} is not feasible at tol {FEASIBLE_TOL:g}; perturb the sample")
    return MultNormReport(sup, t, "bisection")


class KlReport(NamedTuple):
    holds: bool
    on_K: PsdReport
    on_KL: PsdReport


def kl_monotonicity_check(
    K: KernelExpr,
    L: KernelExpr,
    w: ClosedFormFunction,
    sample: EuclideanPointSet,
    tol: float = 1e-10,
) -> KlReport:
    """Contractivity for K implies contractivity for the product kernel K*L.

    If ``(1 - w conj(w)) K`` is PSD on the sample then so is its Schur product
    with the PSD matrix of L, hence the implication holds on every instance;
    this check reports both contraction tests and the implication.  The Gram
    of K*L is ``G_K * G_L``, bit for bit: both diagonals are exactly real.
    An overflowing Gram of K or L raises Overflow naming that kernel.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a value that overflows is refused below
        values = w.eval_points(sample.points)
    G_K = _gram_of("K", K, sample)
    G_L = _gram_of("L", L, sample)
    on_K = psd_check(multiplier_gram(1.0, values, G_K), tol=tol)
    on_KL = psd_check(multiplier_gram(1.0, values, G_K * G_L), tol=tol)
    return KlReport(not on_K.is_psd or on_KL.is_psd, on_K, on_KL)


class VonNeumannReport(NamedTuple):
    lhs: float
    rhs: float
    passed: bool


def _modulus_exceeds(z: complex, t: float) -> bool:
    """Whether ``|z| > t``, decided exactly from the integer ratios of the floats."""
    (a, p), (b, q), (c, r) = (x.as_integer_ratio() for x in (z.real, z.imag, t))
    return (a * a * q * q + b * b * p * p) * r * r > c * c * p * p * q * q


def _circle_sup_bound(coeffs: np.ndarray, grid: int) -> float:
    """Upper bound on sup |p| on the unit circle (ascending ``coeffs``, degree n).

    The largest modulus of ``np.polyval`` over the float ``grid`` roots of
    unity, plus Horner's rounding ``gamma_{4n} sum |c_k| r^k`` at points of
    modulus at most ``r = 1 + _GRID_ERROR`` (Higham §5.1, with complex
    products), plus ``sum k |c_k| r^(k-1)``, a bound on ``|p'|``, times the
    distance ``pi / grid + _GRID_ERROR`` from any point of the circle to a
    float grid point.  ``np.abs`` is faithful (libm's hypot), so only a
    modulus equal to the largest can hide a larger exact one; those are
    compared exactly.  The sum is rounded up, and a polynomial whose
    evaluation cannot round (n = 0) keeps its largest modulus.
    """
    n = len(coeffs) - 1
    theta = 2.0 * np.pi * np.arange(grid) / grid
    vals = np.polyval(coeffs[::-1], np.exp(1j * theta))
    moduli = np.abs(vals)
    top = float(moduli.max())
    if any(_modulus_exceeds(z, top) for z in set(vals[moduli == top].tolist())):
        top = float(np.nextafter(top, np.inf))
    r = 1.0 + _GRID_ERROR
    sizes = np.abs(coeffs) * r ** np.arange(n + 1)
    error = gamma(4 * n) * sizes.sum() + (np.arange(n + 1) * sizes).sum() / r * (np.pi / grid + _GRID_ERROR)
    if error == 0.0:
        return top
    # the factor covers the roundings of error's own terms, nextafter that of the sum
    return float(np.nextafter(top + error * (1.0 + gamma(2 * n + 32)), np.inf))


def certify_unit_sup(w: ClosedFormFunction, boundary_grid: int = 4096) -> float:
    """Certified upper bound for sup |w| on the closed unit disk, if <= 1.

    Moebius symbols and the coordinate are exact automorphisms (bound 1).
    Polynomials get a grid certificate: the boundary maximum over
    ``boundary_grid`` roots of unity plus a Lipschitz margin from the
    coefficient bound on |w'|, with the rounding of the evaluation and of
    the grid counted and the sum rounded up (:func:`_circle_sup_bound`).

    Raises:
        ValidationError: ``boundary_grid`` is below 8 or above
            ``MAX_BOUNDARY_GRID``.
        SymbolNotContractive: the bound exceeds 1 or the symbol family is
            not certifiable.
    """
    if not 8 <= integer(boundary_grid, "boundary grid") <= MAX_BOUNDARY_GRID:
        raise ValidationError(f"boundary grid must have between 8 and {MAX_BOUNDARY_GRID} points")
    if w.kind == "moebius":
        return 1.0
    if w.kind == "coordinate" and w.index == 0:
        return 1.0
    if w.kind == "polynomial":
        bound = _circle_sup_bound(np.asarray(w.coeffs, dtype=complex), boundary_grid)
        if bound > 1.0:
            raise SymbolNotContractive(f"certified sup bound {bound!r} exceeds 1 on the closed disk")
        return bound
    raise SymbolNotContractive(f"cannot certify a symbol of kind {w.kind!r}")


def von_neumann_check(
    w: ClosedFormFunction,
    p,
    sample: EuclideanPointSet,
    boundary_grid: int = 4096,
    tol: float = 1e-9,
) -> VonNeumannReport:
    """Sampled polynomial-calculus contraction test on the Hardy kernel.

    With ``||w||_inf <= 1`` certified, the multiplication operator of
    ``p o w`` on the Hardy space is bounded by the sup of |p| on the unit
    circle; the sampled norm must stay below the certified grid bound.

    Returns:
        (lhs, rhs, passed): sampled norm of ``p o w``, the certified bound
        on sup |p| over the circle (:func:`_circle_sup_bound`), and
        ``lhs <= rhs + tol``.

    Raises:
        ValidationError: ``tol`` is not positive and finite.
    """
    tol = tolerance(tol)
    certify_unit_sup(w, boundary_grid)
    coeffs = coefficients(p, "polynomial coefficients")
    symbol = compose(polynomial(coeffs), w)
    lhs = sampled_mult_norm(szego(), szego(), symbol, sample).sampled_norm
    rhs = _circle_sup_bound(coeffs, boundary_grid)
    return VonNeumannReport(lhs, rhs, bool(lhs <= rhs + tol))
