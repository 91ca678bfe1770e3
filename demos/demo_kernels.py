#!/usr/bin/env python3
"""Kernel algebra walkthrough: building certified-PSD kernels, assembling
Gram matrices, and watching the closure properties hold numerically."""

import numpy as np

from funcspace import (
    EuclideanPointSet,
    ball,
    constant,
    coordinate,
    geom,
    gram,
    hadamard,
    kernel_eval,
    kernel_to_json,
    moebius,
    psd_check,
    rank_one,
    scale,
    schur_product_check,
    szego,
)

rng = np.random.default_rng(0)


def disk_points(n, radius=0.7):
    pts = []
    while len(pts) < n:
        z = complex(*rng.uniform(-radius, radius, 2))
        if abs(z) < radius:
            pts.append([z])
    return EuclideanPointSet(pts)


print("=== The Szego kernel and its Gram matrix ===")
S = EuclideanPointSet([[0.0], [0.5]])
G = gram(szego(), S)
print("sample {0, 1/2}:")
print(G.real)
print("psd verdict:", psd_check(G))
print()

print("=== Kernels form a cone ===")
S8 = disk_points(8)
K = scale(2.0, szego())
L = rank_one(moebius(0.3 - 0.2j))
for expr, name in [(K, "2 * szego"), (L, "rank-one"), (hadamard(K, L), "their Schur product")]:
    print(f"{name:24s} min eigenvalue {psd_check(gram(expr, S8)).min_eigenvalue:+.3e}")
print()

print("=== Schur products of PSD factors stay PSD ===")
report = schur_product_check(szego(), szego(), S8)
print("szego (.) szego:", "PSD" if report.is_psd else "NOT PSD", f"(min eig {report.min_eigenvalue:+.3e})")
print()

print("=== The geometric series 1/(1 - K) ===")
# closed form vs partial sums of Hadamard powers
K = rank_one(moebius(0.3))
GK = gram(K, S8)
partial = np.zeros_like(GK)
power = np.ones_like(GK)
for _ in range(60):
    partial = partial + power
    power = power * GK
closed = gram(geom(K), S8)
print("max |partial sum - closed form| after 60 terms:", np.abs(partial - closed).max())
print("geom(rank_one(coordinate)) equals szego:",
      np.allclose(gram(geom(rank_one(coordinate(0))), S8), gram(szego(), S8), atol=1e-14))
print()

print("=== A two-variable identity on the unit ball of C^2 ===")
# (1 - w1 (x) conj(w1)) * ball(2) = 1 / (1 - L) with L = w2 (x) conj(w2) / (1 - w1 (x) conj(w1))
w1, w2 = coordinate(0), coordinate(1)
Lk = hadamard(rank_one(w2), geom(rank_one(w1)))
x = np.array([0.5, 0.5], dtype=complex)
lhs = (1 - w1(x) * np.conj(w1(x))) * kernel_eval(ball(2), x, x)
rhs = kernel_eval(geom(Lk), x, x)
print(f"at x = (1/2, 1/2): lhs = {lhs.real}, rhs = {rhs.real}  (hand value 3/2)")
print()

print("=== JSON grammar ===")
print(kernel_to_json(geom(rank_one(coordinate(0)))))
print()

print("=== Divergence is detected, not silently produced ===")
try:
    kernel_eval(geom(constant(1.0)), 0.1, 0.1)
except Exception as exc:
    print(type(exc).__name__, "-", exc)
