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

Both methods read one solve of the pencil ``(D G_F D*, G_E)``, which
factors ``G_E`` scaled to unit diagonal as ``L L*`` (:func:`kernels.pencil_norms`).
``pencil`` reports its value; ``bisection`` reports an endpoint feasible under
``psd_check``'s 1e-12 rule: the diagonal lower bound
``max |w| sqrt(K_F(x,x)/K_E(x,x))`` if feasible, else the pencil value.

The solve's own data decides the ``CONDITION_LIMIT`` gate and both feasibility
tests wherever it can, and an eigensolve runs only where it cannot
(:func:`sampled_mult_norm`): ``n ||L^-1||_F^2`` bounds the condition of the
scaled ``G_E``, Ostrowski's theorem turns the pencil's top eigenvalue into a
proof that the diagonal bound is infeasible, and the shifted-Cholesky test
that certifies Pick norms (:func:`kernels._shift_needed`; Rump, BIT 46,
2006) proves the pencil value feasible.  Each verdict is the
one ``eigvalsh`` would give, on one assumption: that it returns the
eigenvalues of some ``M + E`` with ``||E||_2 <= n^2 u ||M||_2``, far looser
than LAPACK's backward error.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateGram, Overflow, SymbolNotContractive, ValidationError
from .geometry import EuclideanPointSet
from .kernels import (
    UNIT_ROUNDOFF,
    ClosedFormFunction,
    KernelExpr,
    PsdReport,
    _pencil_solve,
    _shift_needed,
    compose,
    gamma,
    gram,
    mirror_upper,
    multiplier_gram,
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

#: How far inside CONDITION_LIMIT the condition bound read from the pencil's
#: factor must lie for the gate to pass without an eigensolve.
_GATE_MARGIN = 2.0**-10

#: Largest boundary grid of the polynomial sup certificate, allocated whole.
MAX_BOUNDARY_GRID = 65536

#: Bound on the distance of each float grid point ``exp(1j * theta)`` of the
#: sup certificate from its root of unity: ``theta`` is within
#: ``2 |pi - fl(pi)| + 4 pi u < 1.7e-15`` of its angle, and libm's cos and
#: sin are within an ulp, so ``2^-48`` (3.6e-15) covers both.
_GRID_ERROR = 2.0**-48


class MultNormReport(NamedTuple):
    """Finite-sample estimate of a multiplier norm."""

    lower_bound_sup: float
    sampled_norm: float
    method: str

    def to_json(self) -> dict:
        return {**self._asdict(), "semantics": "finite-sample lower estimate"}


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


def _condition_gate(G_E: np.ndarray) -> None:
    eig_E = np.linalg.eigvalsh(G_E)
    if eig_E.min() <= 0.0 or eig_E.max() / eig_E.min() > CONDITION_LIMIT:
        raise DegenerateGram(
            f"Gram(K_E) condition exceeds {CONDITION_LIMIT:g}; perturb the sample "
            f"(eigenvalue range [{eig_E.min():.3e}, {eig_E.max():.3e}])"
        )


def sampled_mult_norm(
    K_F: KernelExpr,
    K_E: KernelExpr,
    w: ClosedFormFunction,
    sample: EuclideanPointSet,
    method: str = "pencil",
) -> MultNormReport:
    """Least t with ``t^2 Gram(K_E) - D Gram(K_F) D*`` PSD on the sample.

    The gate and the ``bisection`` tests read the pencil solve, whose factor
    ``L L*`` is ``G_E`` scaled to unit diagonal (:func:`kernels.pencil_norms`):

    - *Gate.*  ``lambda_max`` of the scaled ``G_E`` is at most n and its
      ``lambda_min`` at least ``1 / ||L^-1||_F^2``, so ``cond(G_E) <= kappa =
      n ||L^-1||_F^2 max(diag) / min(diag)``.  The gate passes unread when
      ``kappa <= 2^-10 CONDITION_LIMIT`` and ``delta = 2^6 n^2 u kappa <=
      1/2``; ``delta`` bounds the relative error of the pencil's eigenvalues
      and of the bound ``min(diag) / ||L^-1||_F^2`` on ``lambda_min(G_E)``,
      eigensolver error included.  Otherwise, or when the solve raises,
      ``eigvalsh(G_E)`` decides it, before any other test.
    - *Diagonal bound.*  For ``M = T G_E - A`` with ``T = t_lo^2`` below the
      top pencil eigenvalue ``mu``, Ostrowski's theorem (Horn & Johnson,
      Thm 4.5.9) gives ``-lambda_min(M) >= depth = (mu - T) lambda_min(G_E)``,
      with ``mu`` and the bound on ``lambda_min(G_E)`` lowered by ``delta``.
      A ``depth`` beyond ``(4 FEASIBLE_TOL + n^2 u) max(1, ||M||_F)`` covers
      the eigensolver's error and the rule's threshold, so it refutes
      feasibility.
    - *Pencil value.*  The shifted-Cholesky test that certifies Pick norms
      (:func:`kernels._shift_needed`) can prove it feasible.  With ``M = t^2
      G_E - A``, ``s = max(1, max |M_ii|)`` and ``sigma = FEASIBLE_TOL s /
      4``, it factors ``M + sigma I`` as ``L L*`` and returns ``needed``:
      ``gamma_{n+3}`` times the largest row sum of ``|L| |L*|`` (lifted by
      the row sums' rounding factor) or, where that is too coarse, its
      Perron bound, plus ``1.01 u`` of the largest shifted diagonal entry,
      all rounded up by ``1 + gamma_4``.  So ``lambda_min(M) >= -(sigma +
      needed)``.  The eigensolver then reads at least ``-(sigma + needed) -
      n^2 u ||M||_2``, and the rule's threshold is at least ``FEASIBLE_TOL
      (1 - n^2 u) max(1, ||M||_2)``, where ``max(1, ||M||_2) >= s``; so
      ``sigma + needed <= (FEASIBLE_TOL - n^2 u (1 + FEASIBLE_TOL)) s``
      settles it.  The test asks ``sigma + needed < budget = (FEASIBLE_TOL -
      (n^2 + 2) u) s``, passed as ``floor = -budget``: wherever ``budget``
      is positive, ``n^2 FEASIBLE_TOL <= 1``, so one extra ``u s`` covers
      ``n^2 u FEASIBLE_TOL s`` and the other the rounding of ``budget`` and
      of ``sigma + needed``.

    A test the data cannot decide runs ``psd_check``.  Every verdict equals
    the eigensolve's on one assumption: ``eigvalsh`` returns the eigenvalues
    of some ``M + E`` with ``||E||_2 <= n^2 u ||M||_2``, far looser than
    LAPACK's backward error.

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
    with np.errstate(over="ignore", invalid="ignore"):
        A = mirror_upper((values[:, None] * G_F) * np.conj(values[None, :]))
    try:
        norms, eigs, L_inv, diag = _pencil_solve(A[None], G_E)
    except (DegenerateGram, Overflow, np.linalg.LinAlgError):
        _condition_gate(G_E)  # the gate's error comes first
        raise
    n = len(diag)
    inverse_norm2 = float(np.vdot(L_inv, L_inv).real)
    kappa = n * inverse_norm2 * float(diag.max() / diag.min())
    delta = 2.0**6 * n * n * UNIT_ROUNDOFF * kappa
    trusted = bool(delta <= 0.5)  # False for a kappa that is not finite
    if not (trusted and kappa <= _GATE_MARGIN * CONDITION_LIMIT):
        _condition_gate(G_E)
    t = float(norms[0])
    if method == "pencil":
        return MultNormReport(sup, t, "pencil")

    t_lo = _diag_lower_bound(values, G_F, G_E)
    M = t_lo * t_lo * G_E - A
    refuted = False
    if trusted:
        mu = eigs[0]
        lam_lo = float(diag.min()) / inverse_norm2 * (1.0 - delta)
        depth = (mu[-1] - delta * max(-mu[0], mu[-1]) - t_lo * t_lo) * lam_lo
        if depth > 0.0:
            size = float(np.linalg.norm(M))
            refuted = bool(np.isfinite(size)) and depth > (4.0 * FEASIBLE_TOL + n * n * UNIT_ROUNDOFF) * max(1.0, size)
    if not refuted and psd_check(M, tol=FEASIBLE_TOL).is_psd:
        return MultNormReport(sup, t_lo, "bisection")

    M = t * t * G_E - A
    s = max(1.0, float(np.abs(M.diagonal().real).max()))
    sigma = FEASIBLE_TOL * s / 4.0
    floor = -(FEASIBLE_TOL - (n * n + 2) * UNIT_ROUNDOFF) * s
    proven = -sigma - _shift_needed(M[None], np.array([-sigma]), np.zeros(1), floor)[0] > floor
    if not (proven or psd_check(M, tol=FEASIBLE_TOL).is_psd):
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
    When ``L == K`` the Gram of K is reused as that of L, as
    :func:`sampled_mult_norm` reuses it.  An overflowing Gram of K or L
    raises Overflow naming that kernel.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a value that overflows is refused below
        values = w.eval_points(sample.points)
    G_K = _gram_of("K", K, sample)
    G_L = G_K if L == K else _gram_of("L", L, sample)
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
