#!/usr/bin/env python3
"""Lipschitz geometry on finite metric spaces: the anchored norm, exact dual
norms with witnesses, and product-norm inflation."""

import numpy as np

from funcspace import (
    MetricSpace,
    SampledFunction,
    dil,
    lip_dual_pair_norm,
    lip_norm,
    lip_point_norm,
    set_distance,
    submult_ratio,
)
from funcspace.geometry import constant_function, distance_function

xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
space = MetricSpace(np.abs(xs[:, None] - xs[None, :]), labels=[f"{x}" for x in xs], base=0)

print("=== Distances to sets and the anchored Lipschitz norm ===")
print("dist(0, {1/2, 1}):", set_distance(space, 0, {2, 4}))
f = distance_function(space, 2)  # rho(., 1/2)
print("f = rho(., 1/2):", f.values.real)
print("dil f =", dil(f), "  lip_norm f =", lip_norm(f))
print()

print("=== Dual norms have closed forms, each attained by a witness ===")
for x in (4, 1):
    # max(1, rho(x, base)) is attained by rho(., base) when rho(x, base) >= 1 and by 1 otherwise
    witness = distance_function(space, space.base) if space.dist[x, space.base] >= 1 else constant_function(space)
    print(f"||eval at {xs[x]}|| = {lip_point_norm(space, x)}, witness f(x) = {witness.values[x].real}"
          f" with lip_norm {lip_norm(witness)}")
value, witness = lip_dual_pair_norm(space, 0, 4)
print(f"||eval 0 - eval 1|| = {value}, witness values {witness.values.real} with lip_norm {lip_norm(witness)}")
print("witness separates the pair by exactly", abs(witness.values[0] - witness.values[4]))
print()

print("=== Far points have large evaluations, near points are flattened ===")
d = np.array([[0.0, 0.3, 5.0], [0.3, 0.0, 5.0], [5.0, 5.0, 0.0]])
stretched = MetricSpace(d)
for i in range(3):
    print(f"point {i}: rho to base = {d[0, i]:3}, dual norm = {lip_point_norm(stretched, i)}")
print()

print("=== Product-norm inflation is bounded by the diameter ===")
rng = np.random.default_rng(3)
fs = [
    SampledFunction(space, rng.normal(size=5) + 1j * rng.normal(size=5))
    for _ in range(40)
]
ratio, bound = submult_ratio(space, fs)
print(f"worst ratio ||fg|| / (||f|| ||g||) over {len(fs) * (len(fs) + 1) // 2} pairs: {ratio:.4f}")
print(f"bound 2 max(1, diam) + 1 = {bound}")
print("so the rescaled norm (bound * ||.||) is submultiplicative on this algebra")
print()

print("=== Constants meet the bound's unit case ===")
ones = constant_function(space)
print("ratio for f = g = 1:", submult_ratio(space, [ones])[0])
