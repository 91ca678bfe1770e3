import mpmath
import numpy as np
import pytest

from funcspace.errors import (
    CoefficientOverflow,
    DepthExceedsSequence,
    DuplicatePoint,
    ExhaustedSpace,
    IllConditionedPrefix,
    PrefixTooShallow,
    ValidationError,
)
from funcspace.geometry import EuclideanPointSet, MetricSpace, SampledFunction, dil, set_distance
from funcspace.hardy_pick import PickProblem
from funcspace.kernels import gamma, lower_inverse
from funcspace.realization import (
    ROUNDTRIP_TOL,
    DenseSequence,
    RealizationModel,
    build_g,
    build_model,
    choose_b,
    coefficient_roundtrip,
    embed,
    pair,
    point_eval_rank,
    point_functional,
    topology_probe,
    very_independence_check,
)
from helpers import grid64_space, interval5_space, random_graph_metric

# enumeration of {0, 1/4, 1/2, 3/4, 1} starting at the midpoint
INTERVAL_ORDER = (2, 0, 4, 1, 3)


def interval_dense():
    return DenseSequence(interval5_space(), INTERVAL_ORDER)


def interval_model(depth=3):
    return build_model(interval_dense(), depth)


def grid_model(depth, seed=0):
    space = grid64_space()
    order = np.random.default_rng(seed).permutation(len(space))
    return build_model(DenseSequence(space, order), depth)


class TestBuildG:
    def test_first_function_on_interval(self):
        gs = build_g(interval_dense(), 1)
        # y_1 = 1/2, so g_1(0) = min(|0 - 1/2|, 1) = 1/2
        assert gs[1][0] == 0.5
        assert np.array_equal(gs[0], np.ones(5))

    def test_vanishes_on_prefix(self):
        gs = build_g(interval_dense(), 4)
        for n in range(1, 5):
            for k in range(n):
                assert gs[n][INTERVAL_ORDER[k]] == 0.0

    def test_vanishes_only_on_prefix(self):
        gs = build_g(interval_dense(), 4)
        for n in range(1, 5):
            outside = set(range(5)) - set(INTERVAL_ORDER[:n])
            for k in outside:
                assert gs[n][k] > 0.0

    def test_pointwise_monotone_and_clamped(self):
        model = grid_model(depth=30, seed=5)
        for n in range(model.depth):
            a, b = model.g[n], model.g[n + 1]
            assert np.all(b <= a)
            assert np.all((0.0 <= b) & (b <= 1.0))

    def test_each_g_is_one_lipschitz(self):
        model = grid_model(depth=20, seed=6)
        for g in model.g:
            assert dil(SampledFunction(model.dense.space, g)) <= 1.0

    def test_one_read_only_float_array(self):
        model = interval_model(depth=3)
        assert model.g.shape == (4, 5) and model.g.dtype == np.float64
        with pytest.raises(ValueError):
            model.g[1, 0] = 2.0

    def test_depth_exceeding_sequence(self):
        with pytest.raises(DepthExceedsSequence):
            build_g(interval_dense(), 6)

    def test_order_must_be_permutation(self):
        with pytest.raises(ValidationError):
            DenseSequence(interval5_space(), (0, 0, 1, 2, 3))

    @pytest.mark.parametrize("order", [set(INTERVAL_ORDER), frozenset(INTERVAL_ORDER)], ids=["set", "frozenset"])
    def test_order_must_not_be_a_set(self, order):
        """A set has no order of its own, so it would enumerate the points in hash order."""
        with pytest.raises(ValidationError, match="^order must be a list of integers, got a set"):
            DenseSequence(interval5_space(), order)

    def test_set_distance_still_takes_a_set(self):
        space = interval5_space()
        assert set_distance(space, 0, {2, 4}) == set_distance(space, 0, [4, 2]) == 0.5


class TestChooseB:
    def test_clamped_sup_bounds_weights(self):
        gs = build_g(interval_dense(), 4)
        b = choose_b(gs, interval5_space())
        assert np.all(b <= 2.0 ** np.arange(5))

    def test_interval_value(self):
        gs = build_g(interval_dense(), 1)
        b = choose_b(gs, interval5_space())
        assert b[0] == 1.0
        assert b[1] == 1.0  # 2 * sup g_1 = 2 * (1/2)

    def test_weighted_tail_bound(self):
        model = grid_model(depth=40, seed=7)
        sups = np.array([np.abs(g).max() for g in model.g])
        terms = sups / model.b
        assert terms.sum() <= 2.0
        for n0 in (5, 10, 20):
            assert terms[n0 + 1 :].sum() <= 2.0**-n0

    def test_exhausted_space(self):
        gs = build_g(interval_dense(), 5)  # prefix swallows all five points
        with pytest.raises(ExhaustedSpace):
            choose_b(gs, interval5_space())

    def test_ball_policy(self):
        space = interval5_space(base=0)
        gs = build_g(DenseSequence(space, INTERVAL_ORDER), 3)
        b = choose_b(gs, space, policy="balls")
        assert np.all(b > 0)
        # radius-1 ball misses the right endpoint, so sups can only shrink
        assert np.all(b <= choose_b(gs, space))

    def test_weight_overflow_rejected(self):
        space = MetricSpace([[0.0, 1.0], [1.0, 0.0]])
        assert choose_b(np.ones((1024, 2)), space)[-1] == 2.0**1023
        with pytest.raises(ValidationError, match="overflows"):
            choose_b(np.ones((1025, 2)), space)

    def test_unknown_policy_rejected(self):
        gs = build_g(interval_dense(), 2)
        with pytest.raises(ValidationError):
            choose_b(gs, interval5_space(), policy="harmonic")

    def test_model_exponent_validated(self):
        for p in (0.5, np.nan):
            with pytest.raises(ValidationError, match="p >= 1"):
                build_model(interval_dense(), 2, p=p)
        assert build_model(interval_dense(), 2, p=np.inf).p == np.inf  # l^inf


class TestEmbedAndFunctionals:
    def test_basis_vector(self):
        model = interval_model()
        Je0 = embed([1.0], model)
        assert np.array_equal(Je0.values, np.full(5, 1.0 / model.b[0]))

    def test_zero(self):
        model = interval_model()
        assert np.array_equal(embed([0.0, 0.0], model).values, np.zeros(5))

    def test_linearity_exact(self):
        model = interval_model()
        rng = np.random.default_rng(8)
        for _ in range(20):
            f = rng.normal(size=4) + 1j * rng.normal(size=4)
            g = rng.normal(size=4) + 1j * rng.normal(size=4)
            lhs = embed(f + g, model).values
            rhs = embed(f, model).values + embed(g, model).values
            assert np.allclose(lhs, rhs, rtol=0, atol=1e-15)

    def test_overflow(self):
        with pytest.raises(CoefficientOverflow):
            embed(np.ones(6), interval_model(depth=3))

    def test_functional_vanishes_at_first_point(self):
        model = interval_model()
        phi = point_functional(INTERVAL_ORDER[0], model)
        assert np.array_equal(phi[1:], np.zeros(3))

    def test_duality_identity_is_exact(self):
        model = grid_model(depth=25, seed=9)
        rng = np.random.default_rng(10)
        for _ in range(100):
            f = rng.normal(size=model.depth + 1) + 1j * rng.normal(size=model.depth + 1)
            x = int(rng.integers(64))
            lhs = embed(f, model).values[x]
            rhs = pair(f, point_functional(x, model))
            assert lhs == rhs

    def test_duality_identity_keeps_signed_zeros_at_full_depth(self):
        """Bit for bit at depth n - 1, signed zeros included: every coefficient
        one zero of either sign in each part, and then some of them nonzero.
        A sum of terms that are all ``-0.0`` in a part is ``+0.0`` in that
        part, since the pairing starts from ``0j``."""
        model = grid_model(depth=63, seed=12)
        rng = np.random.default_rng(13)

        def bits(z):
            return complex(z).real.hex(), complex(z).imag.hex()

        for zero in (complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0j):
            for share in (0.0, 0.05, 0.3):
                f = np.full(64, zero)
                nonzero = rng.random(64) < share
                f[nonzero] = rng.normal(size=nonzero.sum()) + 1j * rng.normal(size=nonzero.sum())
                values = embed(f, model).values
                for x in range(64):
                    assert bits(values[x]) == bits(pair(f, point_functional(x, model)))

    def test_interval_functional_values(self):
        model = interval_model(depth=1)
        phi = point_functional(0, model)
        assert phi[0] == 1.0 / model.b[0]
        assert phi[1] == 0.5 / model.b[1]

    @pytest.mark.parametrize("x", [1.7, True, 5, -1])
    def test_point_must_be_an_index_of_the_space(self, x):
        with pytest.raises(ValidationError, match="point index"):
            point_functional(x, interval_model())


class TestVeryIndependence:
    def test_valid_model_passes(self):
        assert very_independence_check(interval_model(depth=3))
        assert very_independence_check(grid_model(depth=62, seed=11))

    def test_corrupted_model_fails(self):
        model = interval_model(depth=3)
        # duplicated enumeration point: g_2 also vanishes at y_3
        vals = model.g.copy()
        vals[2, INTERVAL_ORDER[2]] = 0.0
        broken = RealizationModel(model.dense, model.depth, vals, model.b, model.p)
        assert not very_independence_check(broken)

    def test_interval_matrix_by_hand(self):
        model = interval_model(depth=3)
        # rows g_0..g_3 at columns y_1..y_4 = (1/2, 0, 1, 1/4)
        mat = np.array([[model.g[m][INTERVAL_ORDER[n]] for n in range(4)] for m in range(4)])
        expected = np.array(
            [
                [1.0, 1.0, 1.0, 1.0],
                [0.0, 0.5, 0.5, 0.25],
                [0.0, 0.0, 0.5, 0.25],
                [0.0, 0.0, 0.0, 0.25],
            ]
        )
        assert np.array_equal(mat, expected)

    def test_needs_enough_points(self):
        # choose_b refuses depth 5 on five points, and so does a model built by hand
        dense = interval_dense()
        with pytest.raises(DepthExceedsSequence, match="^need at least 6 enumerated points, have 5$"):
            very_independence_check(RealizationModel(dense, 5, build_g(dense, 5), np.ones(6)))

    def test_decided_at_depth_n_minus_one(self):
        # the check reads y_1..y_{N+1} only, so all five points decide depth 4
        assert very_independence_check(interval_model(depth=4)) is True


class TestPointEvalRank:
    def test_single_point(self):
        assert point_eval_rank([3], 0, interval_model()) == 1

    def test_full_rank_at_full_depth(self):
        model = grid_model(depth=62, seed=12)
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(1, 11))
            pts = rng.choice(64, size=n, replace=False)
            assert point_eval_rank(pts, model.depth, model) == n

    def test_duplicates_rejected_by_default(self):
        with pytest.raises(DuplicatePoint):
            point_eval_rank([1, 1], 3, interval_model())

    def test_depth_cap(self):
        with pytest.raises(DepthExceedsSequence):
            point_eval_rank([0, 1], 5, interval_model(depth=3))

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValidationError, match="tolerance must be positive and finite"):
            point_eval_rank([0, 1], 3, interval_model(), tol=tol)


class TestTopologyProbe:
    def test_first_enumerated_point(self):
        model = interval_model()
        probe = topology_probe(INTERVAL_ORDER[0], 0.3, model)
        assert probe.n == 1
        assert INTERVAL_ORDER[0] in probe.U
        assert probe.passed

    def test_grid_point_in_carved_neighborhood(self):
        model = grid_model(depth=62, seed=14)
        x = 19  # the grid point 19/64
        probe = topology_probe(x, 0.4, model)
        assert probe.passed
        space = model.dense.space
        for z in probe.U:
            assert space.dist[x, z] < 0.4

    def test_random_probes_pass(self):
        model = grid_model(depth=62, seed=15)
        rng = np.random.default_rng(16)
        done = 0
        while done < 100:
            x = int(rng.integers(64))
            eps = float(rng.uniform(0.05, 0.95))
            try:
                probe = topology_probe(x, eps, model)
            except PrefixTooShallow:
                continue
            assert probe.passed
            done += 1

    def test_shallow_prefix_raises(self):
        model = interval_model(depth=1)
        # y_1 = 1/2; the endpoint 0 is 1/2 away, farther than eps/2
        with pytest.raises(PrefixTooShallow):
            topology_probe(0, 0.5, model)

    def test_eps_range_validated(self):
        with pytest.raises(ValidationError):
            topology_probe(0, 1.5, interval_model())


class TestCoefficientRoundtrip:
    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValidationError, match="tolerance must be positive and finite"):
            coefficient_roundtrip([1.0], interval_model(), tol=tol)

    def test_basis_vector(self):
        model = interval_model()
        rec, _ = coefficient_roundtrip([1.0], model)
        assert np.array_equal(rec, np.array([1.0, 0, 0, 0], dtype=complex))

    def test_zero(self):
        model = interval_model()
        assert np.array_equal(coefficient_roundtrip(np.zeros(4), model)[0], np.zeros(4, dtype=complex))

    def test_random_roundtrip_interval(self):
        model = interval_model()
        rng = np.random.default_rng(17)
        for _ in range(50):
            f = rng.normal(size=4) + 1j * rng.normal(size=4)
            rec, _ = coefficient_roundtrip(f, model)
            assert np.abs(rec - f).max() <= 1e-9 * max(1.0, np.abs(f).max())

    def test_random_roundtrip_grid(self):
        model = grid_model(depth=16, seed=18)
        rng = np.random.default_rng(19)
        for _ in range(20):
            f = rng.normal(size=17) + 1j * rng.normal(size=17)
            rec, _ = coefficient_roundtrip(f, model)
            assert np.abs(rec - f).max() <= 1e-9 * np.abs(f).max()

    def test_truncation_tail_bound(self):
        model = grid_model(depth=30, seed=20)
        rng = np.random.default_rng(21)
        f = rng.normal(size=31) + 1j * rng.normal(size=31)
        for n0 in (10, 20):
            trunc = f.copy()
            trunc[n0 + 1 :] = 0.0
            delta = np.abs(embed(f, model).values - embed(trunc, model).values).max()
            assert delta <= np.abs(f).max() * 2.0 ** (-n0 + 1)

    def test_tiny_pivot_rejected(self):
        model = interval_model(depth=3)
        vals = model.g.copy()
        vals[2, INTERVAL_ORDER[2]] = 1e-15
        broken = RealizationModel(model.dense, model.depth, vals, model.b, model.p)
        with pytest.raises(IllConditionedPrefix):
            coefficient_roundtrip(np.ones(4), broken)


def graph_model(n, depth, seed):
    rng = np.random.default_rng(seed)
    space = MetricSpace(random_graph_metric(rng, n))
    return build_model(DenseSequence(space, rng.permutation(n)), depth), rng


class TestRoundtripErrorBound:
    """Depths 2-12 recover accurately; at depth n - 1 the 2^n weights push the
    deepest coefficients below float64 resolution, and the bound says so."""

    @pytest.mark.parametrize("n, depth", [(40, 2), (40, 12), (90, 7), (240, 12)])
    def test_accurate_band_returns_coefficients(self, n, depth):
        model, rng = graph_model(n, depth, seed=n + depth)
        for _ in range(5):
            f = rng.normal(size=depth + 1) + 1j * rng.normal(size=depth + 1)
            rec, bound = coefficient_roundtrip(f, model)
            err = float(np.abs(rec - f).max() / np.abs(f).max())
            assert err <= bound <= 1e-9

    @pytest.mark.parametrize("n", [40, 90, 240])
    def test_inaccurate_band_raises(self, n):
        model, rng = graph_model(n, n - 1, seed=n)
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        with pytest.raises(IllConditionedPrefix, match="relative error bound .* exceeds tol 1e-06 at depth"):
            coefficient_roundtrip(f, model)

    def test_bound_covers_the_error_in_the_border_region(self):
        model, rng = graph_model(60, 30, seed=3)
        f = rng.normal(size=31) + 1j * rng.normal(size=31)
        rec, bound = coefficient_roundtrip(f, model, tol=np.finfo(float).max)
        assert np.abs(rec - f).max() / np.abs(f).max() <= bound

    def test_tol_decides(self):
        model, rng = graph_model(40, 12, seed=4)
        f = rng.normal(size=13)
        _, bound = coefficient_roundtrip(f, model)
        assert 0.0 < bound <= ROUNDTRIP_TOL
        coefficient_roundtrip(f, model, tol=bound)
        with pytest.raises(IllConditionedPrefix):
            coefficient_roundtrip(f, model, tol=bound / 2)

    def test_zero_coefficients_have_zero_bound(self):
        model, _ = graph_model(40, 39, seed=5)
        rec, bound = coefficient_roundtrip(np.zeros(40), model)
        assert bound == 0.0
        assert not rec.any()


def prefix_matrix(model):
    """The lower triangular system of coefficient_roundtrip, built as it builds it."""
    rows = list(model.dense.order[: model.depth + 1])
    return np.tril((model.g[:, rows] / model.b[:, None]).T)


def mp_lower_inverse(L):
    """The inverse of L in 50-digit arithmetic, rounded to float64."""
    mp = mpmath.mp.clone()
    mp.dps = 50
    inv = mp.inverse(mp.matrix(L.tolist()))
    return np.array([[float(inv[i, j]) for j in range(len(L))] for i in range(len(L))])


def roundtrip_inputs():
    """The round-trip inputs of the tests above whose system has at most 24 rows."""
    rng = np.random.default_rng(17)
    yield pytest.param(interval_model(), [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(50)], id="interval")
    rng = np.random.default_rng(19)
    fs = [rng.normal(size=17) + 1j * rng.normal(size=17) for _ in range(20)]
    yield pytest.param(grid_model(depth=16, seed=18), fs, id="grid")
    for n, depth in [(40, 2), (40, 12), (90, 7), (240, 12)]:
        model, rng = graph_model(n, depth, seed=n + depth)
        fs = [rng.normal(size=depth + 1) + 1j * rng.normal(size=depth + 1) for _ in range(5)]
        yield pytest.param(model, fs, id=f"graph{n}-{depth}")
    model, rng = graph_model(40, 12, seed=4)
    yield pytest.param(model, [rng.normal(size=13)], id="graph40-12-real")


@pytest.mark.parametrize("model, fs", roundtrip_inputs())
def test_roundtrip_bound_holds_with_the_exact_inverse(model, fs):
    """The bound uses the computed |L^-1|; against a 50-digit inverse it still
    covers the measured error, and the computed inverse is within first-order
    rounding of the exact one."""
    L = prefix_matrix(model)
    n = len(L)
    assert n <= 24
    X = lower_inverse(L)
    exact = mp_lower_inverse(L)
    assert np.all(np.abs(X - exact) <= 2 * gamma(2 * n) * (np.abs(X) @ np.abs(L) @ np.abs(X)))
    for f in fs:
        rec, bound = coefficient_roundtrip(f, model)
        err = float(np.abs(rec - f).max() / np.abs(f).max())
        exact_bound = float((gamma(2 * n) * (np.abs(exact) @ (np.abs(L) @ (np.abs(f) + np.abs(rec))))).max()) / np.abs(f).max()
        assert err <= exact_bound
        assert err <= bound
        assert bound == pytest.approx(exact_bound, rel=1e-12)


def test_array_holding_types_compare_and_hash_by_identity():
    """Equal arrays make no equal instances: ``==`` and ``hash`` are a plain
    object's, not an ambiguous comparison of arrays."""
    space = interval5_space()
    pairs = [
        (EuclideanPointSet([0.1, 0.2]), EuclideanPointSet([0.1, 0.2])),
        (space, interval5_space()),
        (SampledFunction(space, np.ones(5)), SampledFunction(space, np.ones(5))),
        (PickProblem([0.1], [0.2]), PickProblem([0.1], [0.2])),
        (interval_dense(), interval_dense()),
        (interval_model(), interval_model()),
    ]
    for a, b in pairs:
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2
