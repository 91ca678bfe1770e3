#!/usr/bin/env python3
"""Realizing a coefficient space as functions on a finite metric space:
the clamped distance functions, tempered weights, and the triangular
structure that makes everything invertible."""

import numpy as np

from funcspace import (
    DenseSequence,
    MetricSpace,
    SampledFunction,
    build_model,
    coefficient_roundtrip,
    dil,
    embed,
    point_eval_rank,
    point_functional,
    topology_probe,
    very_independence_check,
)
from funcspace.realization import pair

# the unit interval sampled at multiples of 1/4, enumerated from the middle
xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
space = MetricSpace(np.abs(xs[:, None] - xs[None, :]))
dense = DenseSequence(space, (2, 0, 4, 1, 3))
model = build_model(dense, depth=3)

print("=== The functions g_n = min(dist to prefix, 1) ===")
for n, g in enumerate(model.g):
    print(f"g_{n}: {np.round(g, 4)}   dil = {dil(SampledFunction(space, g))}")
print("weights b_n:", model.b)
print()

print("=== Triangular structure: g_m vanishes at y_1..y_m ===")
print(np.round(model.g[:, list(dense.order[:4])], 4))
print("very independent:", very_independence_check(model))
print()

print("=== Embedding coefficients and evaluating points ===")
f = np.array([1.0, -2.0, 0.5 + 1j, 0.25])
Jf = embed(f, model)
print("J f on the sample:", np.round(Jf.values, 4))
phi = point_functional(0, model)
print("evaluation functional at the left endpoint:", np.round(phi, 4))
print("pairing equals pointwise value exactly:", pair(f, phi) == Jf.values[0])
print()

print("=== Recovering coefficients from values on the prefix ===")
recovered = coefficient_roundtrip(f, model)
print("max |recovered - f| =", np.abs(recovered - f).max())
print()

print("=== A larger space: 64-point dyadic grid ===")
grid = np.arange(64) / 64.0
big_space = MetricSpace(np.abs(grid[:, None] - grid[None, :]))
order = np.random.default_rng(7).permutation(64)
big = build_model(DenseSequence(big_space, order), depth=62)
print("very independent at depth 62:", very_independence_check(big))
print("all g_n exactly 1-Lipschitz:", all(dil(SampledFunction(big_space, g)) <= 1.0 for g in big.g))

rng = np.random.default_rng(8)
pts = rng.choice(64, size=7, replace=False)
print("rank of 7 point evaluations at full depth:", point_eval_rank(pts, big.depth, big))

probe = topology_probe(19, 0.4, big)
print(f"topology probe at 19/64, eps = 0.4: n = {probe.n}, |U| = {len(probe.U)}, pass = {probe.passed}")

shallow = build_model(DenseSequence(big_space, order), depth=16)
f = rng.normal(size=17)
err = np.abs(coefficient_roundtrip(f, shallow) - f).max()
print(f"roundtrip at depth 16: max error {err:.2e}  (the 2^n weights amplify rounding with depth)")
