"""Block evaluation of kernels and symbols against independent references.

``gram`` and ``kernel_block`` evaluate a kernel expression on whole point
blocks by broadcasting.  Their entries are checked against the expression
evaluated entry by entry in 30-digit mpmath, the array evaluator of symbols
against its one-point case, and the errors against the first failing entry
of a pair-by-pair walk over the upper triangle.
"""

import mpmath
import numpy as np
import pytest

from funcspace import kernels
from funcspace.errors import GeomDiverges, OutOfDomain
from funcspace.geometry import EuclideanPointSet
from funcspace.kernels import (
    _KERNEL_GRAMMAR,
    ball,
    compose,
    constant,
    coordinate,
    exponential,
    fn_product,
    fn_scale,
    fn_sum,
    geom,
    gram,
    hadamard,
    kernel_block,
    kernel_eval,
    kernel_sum,
    moebius,
    polynomial,
    rank_one,
    scale,
    szego,
    szego_section,
)
from helpers import ball2_sample, disk_sample

MP = mpmath.mp.clone()
MP.dps = 30
REL_TOL = 1e-14


def mp_symbol(fn, point):
    """A symbol at one point of C^d, in 30-digit arithmetic."""
    k = fn.kind
    if k == "coordinate":
        return point[fn.index]
    if k == "compose":
        outer, inner = fn.children
        return mp_symbol(outer, [mp_symbol(inner, point)])
    if k == "product":
        out = MP.mpc(1)
        for child in fn.children:
            out *= mp_symbol(child, point)
        return out
    if k == "sum":
        return MP.fsum(mp_symbol(child, point) for child in fn.children)
    if k == "scale":
        return MP.mpc(fn.factor) * mp_symbol(fn.children[0], point)
    (z,) = point
    if k == "polynomial":
        return MP.polyval([MP.mpc(c) for c in reversed(fn.coeffs)], z)
    if k == "moebius":
        a = MP.mpc(fn.a)
        return (z - a) / (1 - MP.conj(a) * z)
    if k == "exp":
        return MP.exp(z)
    raise AssertionError(k)


def mp_kernel(K, x, y):
    """A kernel at one pair of points of C^d, in 30-digit arithmetic."""
    op = K.op
    if op in ("szego", "ball"):
        return 1 / (1 - MP.fsum(a * MP.conj(b) for a, b in zip(x, y)))
    if op == "constant":
        return MP.mpc(K.value)
    if op == "rank1":
        return mp_symbol(K.fn, x) * MP.conj(mp_symbol(K.fn, y))
    if op == "sum":
        return MP.fsum(mp_kernel(child, x, y) for child in K.children)
    if op == "scale":
        return MP.mpf(K.factor) * mp_kernel(K.children[0], x, y)
    if op == "hadamard":
        return mp_kernel(K.children[0], x, y) * mp_kernel(K.children[1], x, y)
    if op == "geom":
        return 1 / (1 - mp_kernel(K.children[0], x, y))
    raise AssertionError(op)


def mp_gram(K, points) -> np.ndarray:
    pts = [[MP.mpc(complex(v)) for v in p] for p in points]
    return np.array([[complex(mp_kernel(K, x, y)) for y in pts] for x in pts])


def disk(n, seed):
    return disk_sample(np.random.default_rng(seed), n, radius=0.7)


def ball2(n, seed):
    return ball2_sample(np.random.default_rng(seed), n, radius=0.8)


# (name, kernel, sampler): every kernel op and every symbol kind appears
CASES = [
    ("szego", szego(), disk),
    ("ball1", ball(1), disk),
    ("ball2", ball(2), ball2),
    ("geom_rank1", geom(rank_one(moebius(0.3 + 0.2j))), disk),
    ("hadamard_szego_szego_plus_1", hadamard(szego(), kernel_sum(szego(), constant(1.0))), disk),
    ("scaled_geom_ball2", geom(scale(0.25, ball(2))), ball2),
    ("rank1_compose_exp", rank_one(compose(exponential(), moebius(-0.25j))), disk),
    ("rank1_product_poly", rank_one(fn_product(coordinate(0), polynomial([2.0, 0.5j, 0.25]))), disk),
    ("rank1_scaled_section", rank_one(fn_scale(0.5 - 1j, szego_section(0.4 + 0.1j))), disk),
    (
        "rank1_sum_ball2",
        hadamard(
            ball(2),
            rank_one(fn_sum(coordinate(0), fn_scale(0.25j, coordinate(1)), compose(exponential(), coordinate(1)))),
        ),
        ball2,
    ),
]


@pytest.mark.parametrize("n", [1, 9, 48])
@pytest.mark.parametrize("name, K, sampler", CASES, ids=[c[0] for c in CASES])
def test_gram_matches_mpmath(name, K, sampler, n):
    S = sampler(n, seed=n)
    G = gram(K, S).entries
    R = mp_gram(K, S.points)
    assert np.array_equal(G, G.conj().T)
    assert np.all(G.diagonal().imag == 0.0)
    assert np.max(np.abs(G - R) / np.abs(R)) <= REL_TOL


@pytest.mark.parametrize("name, K, sampler", CASES, ids=[c[0] for c in CASES])
def test_block_entries_do_not_depend_on_the_block(name, K, sampler):
    """Every entry of ``K(X, X)`` is bit for bit the entry evaluated alone or
    in its row, which the rescan of a failed block relies on."""
    X = sampler(24, seed=4).points
    block = kernel_block(K, X, X)
    assert np.array_equal(block, np.array([[kernel_eval(K, x, y) for y in X] for x in X]))
    for i in range(len(X)):
        assert np.array_equal(block[i, i:], kernel_block(K, X[i : i + 1], X[i:])[0])


def test_cases_cover_every_op():
    def ops(K):
        return {K.op}.union(*(ops(child) for child in K.children))

    assert set().union(*(ops(K) for _, K, _ in CASES)) == set(_KERNEL_GRAMMAR)


@pytest.mark.parametrize("name, K, sampler", CASES, ids=[c[0] for c in CASES])
def test_block_matches_pointwise(name, K, sampler):
    X, Y = sampler(7, seed=1).points, sampler(5, seed=2).points
    block = kernel_block(K, X, Y)
    assert block.shape == (7, 5)
    pointwise = np.array([[kernel_eval(K, x, y) for y in Y] for x in X])
    assert np.max(np.abs(block - pointwise) / np.abs(pointwise)) <= REL_TOL


SYMBOLS = [
    coordinate(0),
    polynomial([1.0, -0.5j, 0.25]),
    moebius(0.3 - 0.4j),
    exponential(),
    compose(exponential(), moebius(0.2)),
    fn_product(coordinate(0), exponential(), polynomial([0.5, 1j])),
    fn_sum(moebius(0.1j), polynomial([2.0])),
    fn_scale(3.0 - 1j, compose(polynomial([0.0, 1.0, 1.0]), moebius(-0.5))),
    szego_section(0.6 + 0.2j),
]


@pytest.mark.parametrize("fn", SYMBOLS, ids=[f"{fn.kind}{i}" for i, fn in enumerate(SYMBOLS)])
def test_eval_points_matches_call(fn):
    P = disk(48, seed=3).points
    values = fn.eval_points(P)
    assert values.shape == (48,)
    assert np.array_equal(values, np.array([fn(p) for p in P]))
    reference = np.array([complex(mp_symbol(fn, [MP.mpc(complex(p[0]))])) for p in P])
    assert np.max(np.abs(values - reference) / np.abs(reference)) <= REL_TOL


def test_eval_points_dimension_errors():
    P = ball2(4, seed=0).points
    assert np.array_equal(coordinate(1).eval_points(P), P[:, 1])
    with pytest.raises(OutOfDomain, match="coordinate 2 undefined"):
        coordinate(2).eval_points(P)
    with pytest.raises(OutOfDomain, match="scalar input"):
        fn_sum(coordinate(0), moebius(0.1)).eval_points(P)


def first_failure(K, points):
    """The error of the first failing (i, j), i <= j, of a pair-by-pair walk."""
    n = len(points)
    for i in range(n):
        for j in range(i, n):
            try:
                kernel_eval(K, points[i], points[j])
            except (OutOfDomain, GeomDiverges) as exc:
                return type(exc), f"gram entry ({i},{j}): {exc}"
    return None


ERROR_CASES = [
    ("szego_outside", szego(), [0.1, 0.2, 1.5, 0.3, 2.0], OutOfDomain, "(0,2)"),
    ("geom_off_diagonal", geom(rank_one(coordinate(0))), [0.1, 0.9, 0.2, 1.2], GeomDiverges, "(1,3)"),
    ("ball_outside", ball(2), [[0.1, 0.2], [0.3, 0.1], [0.8, 0.7], [0.0, 0.0]], OutOfDomain, "(0,2)"),
    ("ball_dimension", ball(2), [0.1, 0.2], OutOfDomain, "(0,0)"),
    ("symbol_dimension", rank_one(coordinate(1)), [0.1, 0.2], OutOfDomain, "(0,0)"),
    # both factors fail at (0,0): the left one is evaluated first
    ("geom_before_szego", hadamard(geom(rank_one(coordinate(0))), szego()), [1.01, 0.3], GeomDiverges, "(0,0)"),
    ("szego_before_geom", hadamard(szego(), geom(rank_one(coordinate(0)))), [1.01, 0.3], OutOfDomain, "(0,0)"),
    ("geom_before_dimension", hadamard(geom(rank_one(polynomial([2.0]))), ball(2)), [0.1, 0.2], GeomDiverges, "(0,0)"),
    ("inside_sum", kernel_sum(constant(1.0), geom(scale(2.0, szego()))), [0.1, 0.2, -0.9, 0.6], GeomDiverges, "(0,0)"),
    # failures deep in a 64-point sample, found by the row-then-entry rescan
    ("szego_last_of_64", szego(), [0.01 * k for k in range(63)] + [1.5], OutOfDomain, "(0,63)"),
    (
        "geom_late_row_of_64",
        geom(rank_one(coordinate(0))),
        [0.5 * np.exp(0.1j * k) for k in range(60)] + [0.9, 0.5j, 1.2, 0.1],
        GeomDiverges,
        "(60,62)",
    ),
]


@pytest.mark.parametrize("name, K, points, exc_type, where", ERROR_CASES, ids=[c[0] for c in ERROR_CASES])
def test_gram_error_names_first_entry(name, K, points, exc_type, where):
    S = EuclideanPointSet(points)
    expected = first_failure(K, S.points)
    assert expected is not None and expected[0] is exc_type
    with pytest.raises(exc_type) as info:
        gram(K, S)
    assert str(info.value) == expected[1]
    assert str(info.value).startswith(f"gram entry {where}: ")


def test_block_error_is_first_in_row_major_order():
    with pytest.raises(OutOfDomain, match=r"got \(\(2\+0j\), \(0\.1\+0j\)\)"):
        kernel_block(szego(), [0.1, 2.0], [0.1, 0.2])
    # (0,2) precedes (1,1) in row-major order
    with pytest.raises(GeomDiverges, match=r"\[\(0\.1\+0j\)\], \[\(11\+0j\)\]"):
        kernel_block(geom(rank_one(coordinate(0))), [0.1, 0.2], [0.5, 6.0, 11.0])


def test_gram_skips_a_failure_below_the_diagonal():
    """Where complex products are fused, |x1 conj(x0)| can read 1 while
    every entry with i <= j stays below it; the Gram is then the pairwise
    walk's, with no error."""
    K = geom(rank_one(coordinate(0)))
    S = EuclideanPointSet([-0.17519673956783935 + 0.984533444045858j, 0.7389298566687823 - 0.6737823587208651j])
    assert first_failure(K, S.points) is None
    G = gram(K, S).entries
    x0, x1 = S.points
    assert G[0, 1] == kernel_eval(K, x0, x1)
    assert [G[0, 0], G[1, 1]] == [kernel_eval(K, x0, x0).real, kernel_eval(K, x1, x1).real]


def test_a_row_that_fails_only_as_a_block_keeps_its_entries(monkeypatch):
    """A block may fail where none of its entries fails alone (a fused
    product, say); the rescan then keeps each entry as it evaluates it."""
    block_values = kernels._block_values

    def fails_as_a_block(K, X, Y):
        if X.shape[0] * Y.shape[0] > 1 and 0.3 in np.concatenate([X[:, 0], Y[:, 0]]):
            raise OutOfDomain("a block holding 0.3")
        return block_values(K, X, Y)

    monkeypatch.setattr(kernels, "_block_values", fails_as_a_block)
    K, points = szego(), [0.1, 0.3, 0.5]
    pointwise = np.array([[kernel_eval(K, x, y) for y in points] for x in points])
    assert np.array_equal(kernel_block(K, points, points), pointwise)
    assert np.array_equal(gram(K, EuclideanPointSet(points)).entries, pointwise)
