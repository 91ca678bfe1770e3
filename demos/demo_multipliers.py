#!/usr/bin/env python3
"""Sampled multiplier norms: the PSD criterion, the pencil value and its
feasible endpoint, sample refinement, and the polynomial-calculus
contraction check."""

import numpy as np

from funcspace import (
    EuclideanPointSet,
    contraction_check,
    coordinate,
    kl_monotonicity_check,
    moebius,
    sampled_mult_norm,
    szego,
    von_neumann_check,
)
from funcspace.kernels import fn_scale, hadamard, szego_section

rng = np.random.default_rng(1)

print("=== The coordinate symbol on the Hardy kernel ===")
S = EuclideanPointSet([[0.0], [0.5]])
for method in ("pencil", "bisection"):
    report = sampled_mult_norm(szego(), szego(), coordinate(0), S, method=method)
    print(f"{method:10s} sampled norm = {report.sampled_norm:.17g}")
print("(bisection: the diagonal bound max|w| = 0.5 fails the PSD test, so the")
print(" pencil value is checked feasible and reported; no bracket is searched)")
print()

print("=== Sampled norms only grow under refinement ===")
pts = []
while len(pts) < 10:
    z = complex(*rng.uniform(-0.65, 0.65, 2))
    if abs(z) < 0.65 and all(abs(z - w) > 0.08 for w in pts):
        pts.append(z)
w = moebius(0.35 + 0.1j)
print(" n   sampled norm   max |w| on sample")
for n in range(2, 11):
    sub = EuclideanPointSet(np.array(pts[:n]).reshape(-1, 1))
    report = sampled_mult_norm(szego(), szego(), w, sub)
    print(f"{n:2d}   {report.sampled_norm:.9f}    {report.lower_bound_sup:.9f}")
print("(every value is a lower estimate of the true multiplier norm, here 1)")
print()

print("=== The contraction criterion (1 - w (x) conj(w)) K ===")
S8 = EuclideanPointSet(np.array(pts[:8]).reshape(-1, 1))
for factor in (0.5, 1.0, 1.3):
    scaled = fn_scale(factor, coordinate(0))
    verdict = contraction_check(szego(), scaled, S8)
    print(f"|{factor} z|: PSD = {verdict.is_psd}  (min eig {verdict.min_eigenvalue:+.3e})")
print()

print("=== Contractivity survives multiplying the kernel ===")
ok = all(
    kl_monotonicity_check(szego(), szego(), moebius(complex(*rng.uniform(-0.5, 0.5, 2))), S8).holds
    for _ in range(50)
)
print("50 random symbols, K -> K * szego implication held:", ok)
print()

print("=== Two kernels: multiplying by a kernel slice ===")
z0 = 0.3
report = sampled_mult_norm(szego(), hadamard(szego(), szego()), szego_section(z0), S8)
print(f"slice at {z0}: sampled norm {report.sampled_norm:.6f} <= sqrt(K({z0},{z0})) = {np.sqrt(1 / (1 - z0 * z0)):.6f}")
print()

print("=== Polynomial calculus of a contractive symbol ===")
for p, label in [([0.0, 1.0], "w"), ([0.0, -0.5, 1.0], "w^2 - w/2"), ([0.25, 0.0, 0.0, 0.5], "0.25 + w^3/2")]:
    report = von_neumann_check(moebius(0.4), p, S8, boundary_grid=4096)
    print(f"p(w) = {label:12s} sampled {report.lhs:.6f} <= boundary bound {report.rhs:.6f}  pass = {report.passed}")
