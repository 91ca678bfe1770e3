import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcspace.errors import (
    DegenerateSpace,
    EmptySet,
    Overflow,
    SamePoint,
    ValidationError,
    ZeroFunction,
)
from funcspace.geometry import (
    EuclideanPointSet,
    MetricSpace,
    SampledFunction,
    constant_function,
    dil,
    distance_function,
    lip_dual_pair_norm,
    lip_norm,
    lip_point_norm,
    set_distance,
    submult_ratio,
)
from funcspace import geometry
from funcspace.geometry import _worst_triangle_slack
from funcspace.realization import DenseSequence, build_g
from helpers import interval5_space, lp_dual_norm, random_dyadic_space, random_graph_metric


def line3_space():
    xs = np.array([0.0, 0.5, 1.0])
    return MetricSpace(np.abs(xs[:, None] - xs[None, :]))


class TestMetricSpaceValidation:
    def test_triangle_violation_rejected(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(ValidationError, match="triangle"):
            MetricSpace(d)

    def test_asymmetric_rejected(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            MetricSpace(d)

    def test_nonzero_diagonal_rejected(self):
        d = np.array([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="diagonal"):
            MetricSpace(d)

    def test_negative_distance_rejected(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValidationError):
            MetricSpace(d)

    def test_negative_zero_is_a_zero_distance(self):
        d = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValidationError, match="distinct points must have positive distance"):
            MetricSpace(d)

    def test_base_out_of_range(self):
        with pytest.raises(ValidationError, match="base"):
            MetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]), base=2)

    def test_from_euclidean_accepts_collinear_points(self):
        ps = EuclideanPointSet(np.array([[0.1], [0.3], [0.7], [0.9]], dtype=complex))
        space = MetricSpace.from_euclidean(ps)
        assert space.dist[0, 3] == pytest.approx(0.8)

    def test_json_roundtrip(self):
        space = interval5_space(base=2)
        again = MetricSpace.from_json(space.to_json())
        assert np.array_equal(space.dist, again.dist)
        assert again.base == 2
        assert again.labels == space.labels


def brute_force_slack(d):
    """The full n^3 tensor slack[i, j, k] = d[i,k] - (d[i,j] + d[j,k])."""
    return d[:, None, :] - (d[:, :, None] + d[None, :, :])


def brute_force_worst(d, rows=16):
    """Largest entry of the slack tensor, built a block of i at a time."""
    return max(
        (d[i : i + rows, None, :] - (d[i : i + rows, :, None] + d[None, :, :])).max() for i in range(0, len(d), rows)
    )


def brute_force_message(d):
    i, j, k = np.unravel_index(np.argmax(brute_force_slack(d)), (len(d),) * 3)
    return f"triangle inequality violated at ({i},{k}) via {j}: {d[i, k]} > {d[i, j]} + {d[j, k]}"


def blocked_brute_force_message(d, rows=16):
    """``brute_force_message`` built a block of i at a time: the first block
    that attains the largest slack holds the first worst triple in C order."""
    worst = brute_force_worst(d, rows)
    for i0 in range(0, len(d), rows):
        block = d[i0 : i0 + rows, None, :] - (d[i0 : i0 + rows, :, None] + d[None, :, :])
        if block.max() == worst:
            i, j, k = np.unravel_index(np.argmax(block), block.shape)
            i += i0
            return f"triangle inequality violated at ({i},{k}) via {j}: {d[i, k]} > {d[i, j]} + {d[j, k]}"


def raise_entry(d, i, k, amount):
    d = d.copy()
    d[i, k] = d[k, i] = d[i, k] + amount
    return d


def verdict(d, tol=0.0):
    try:
        MetricSpace(d, triangle_tol=tol)
    except ValidationError as exc:
        return str(exc)
    return "accepted"


@st.composite
def lattice_matrices(draw):
    """Dyadic distance matrices on at most 12 points, of three kinds:
    symmetric positive integers, graph metrics with k/64 weights and one
    entry moved by a unit (or none), and uniform metrics."""
    n = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["integers", "graph", "uniform"]))
    if kind == "uniform":
        return draw(st.integers(1, 64)) / 8.0 * (1.0 - np.eye(n))
    d = np.zeros((n, n))
    if kind == "integers":
        d[np.triu_indices(n, 1)] = draw(st.lists(st.integers(1, 40), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        return d + d.T
    d[~np.eye(n, dtype=bool)] = np.inf
    tree = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2))
    for a, b in tree + [(a, b) for a, b in extra if a != b]:
        d[a, b] = d[b, a] = min(d[a, b], draw(st.integers(8, 63)) / 64.0)
    for k in range(n):  # Floyd-Warshall
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    i = draw(st.integers(0, n - 1))
    k = draw(st.integers(0, n - 2))
    return raise_entry(d, i, k + (k >= i), draw(st.sampled_from([-1, 0, 1])) / 64.0)


@pytest.fixture
def loop_dtypes(monkeypatch):
    """The scalar type of every matrix the offset loop runs on."""
    seen = []
    loop = geometry._slack_by_offsets

    def spy(dist):
        seen.append(dist.dtype.type)
        return loop(dist)

    monkeypatch.setattr(geometry, "_slack_by_offsets", spy)
    return seen


@pytest.fixture
def decided_by(monkeypatch, loop_dtypes):
    """What decided each check: "certificate" where the split certificate
    proved it, else the scalar type of the offset loop that ran."""
    certificate = geometry._split_certificate

    def spy(q):
        proved = certificate(q)
        if proved:
            loop_dtypes.append("certificate")
        return proved

    monkeypatch.setattr(geometry, "_split_certificate", spy)
    return loop_dtypes


class TestTriangleCheck:
    """The O(n^2) running min-plus check against the n^3 slack tensor."""

    def test_graph_metrics_run_on_int32(self, decided_by):
        # the benchmark's k/64 graph metrics lie on a dyadic lattice
        for n in (2, 40, 240):
            d = random_graph_metric(np.random.default_rng(n), n)
            assert same_bits(_worst_triangle_slack(d), brute_force_worst(d))
        assert decided_by == [np.int32, "certificate", "certificate"]  # two points leave their pair unsplit

    def test_graph_metrics_are_decided_without_the_loop(self, decided_by):
        for n in (40, 240):
            d = random_graph_metric(np.random.default_rng(n), n)
            assert same_bits(_worst_triangle_slack(d), brute_force_worst(d))
        assert decided_by == ["certificate"] * 2
        # no pair of the uniform metric has a midpoint, so nothing is split
        d = 1.0 - np.eye(240)
        assert same_bits(_worst_triangle_slack(d), 0.0)
        assert decided_by[2:] == [np.int32]

    @given(d=lattice_matrices())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_lattice_slack_and_message_match_brute_force(self, d):
        worst = _worst_triangle_slack(d)
        assert same_bits(worst, brute_force_worst(d))
        assert verdict(d) == (brute_force_message(d) if worst > 0.0 else "accepted")

    @pytest.mark.parametrize("raised", [0, 3])
    def test_subnormal_lattice(self, decided_by, raised):
        # multiples of 5e-324, whose lattice exponent is beyond 1023
        q = random_graph_metric(np.random.default_rng(31), 40) * 64
        d = raise_entry(np.ldexp(q, -1074), 4, 30, raised * 5e-324)
        assert d[4, 30] == (q[4, 30] + raised) * 5e-324
        worst = _worst_triangle_slack(d)
        assert same_bits(worst, brute_force_worst(d))
        assert verdict(d) == (brute_force_message(d) if worst > 0.0 else "accepted")
        assert decided_by == [np.int32 if raised else "certificate"] * 2

    @pytest.mark.parametrize("raised", [0.0, 0.375])
    def test_huge_entry_beside_tiny_ones_takes_the_float_path(self, loop_dtypes, raised):
        # scaled to 30 bits below 1e300, the tiny entries underflow
        n = 30
        d = np.full((n, n), 1e300)
        d[: n - 1, : n - 1] = np.ldexp(raise_entry(random_graph_metric(np.random.default_rng(3), n - 1), 2, 9, raised), -1000)
        np.fill_diagonal(d, 0.0)
        worst = _worst_triangle_slack(d)
        assert same_bits(worst, brute_force_worst(d))
        assert verdict(d) == (brute_force_message(d) if worst > 0.0 else "accepted")
        assert set(loop_dtypes) == {np.float64}

    @pytest.mark.parametrize(
        "top, unit, dtype",
        [(2**29, 2**-29, np.int32), (2**30 - 1, 2**-30, np.int32), (2**30, 2**-30, np.float64)],
        ids=["power-of-two", "below-power-of-two", "power-of-two-31-bits"],
    )
    @pytest.mark.parametrize("raised", [False, True])
    def test_largest_entry_at_and_below_a_power_of_two(self, decided_by, top, unit, dtype, raised):
        # numerators up to 2^30 - 1 fit the lattice; 2^30 takes the float path
        rng = np.random.default_rng(top)
        x = np.concatenate([[0, top], rng.choice(top, size=38, replace=False)]) * unit
        x = rng.permutation(x)
        d = np.abs(x[:, None] - x[None, :])
        if raised:  # one lattice unit on a pair with points between
            d = raise_entry(d, *np.unravel_index(np.argsort(d, axis=None)[-3], d.shape), unit)
        assert d.max() == top * unit
        worst = _worst_triangle_slack(d)
        assert same_bits(worst, brute_force_worst(d))
        assert (worst > 0.0) == raised
        assert verdict(d) == (brute_force_message(d) if raised else "accepted")
        assert decided_by[0] == (dtype if dtype is np.float64 or raised else "certificate")

    @pytest.mark.parametrize("direction", [np.inf, 0.0])
    def test_one_ulp_off_the_lattice(self, loop_dtypes, direction):
        d = random_graph_metric(np.random.default_rng(17), 60)
        off = np.nextafter(d[7, 41], direction)
        d[7, 41] = d[41, 7] = off
        worst = _worst_triangle_slack(d)
        assert same_bits(worst, brute_force_worst(d))
        assert verdict(d) == (brute_force_message(d) if worst > 0.0 else "accepted")
        assert loop_dtypes[0] == np.float64

    @pytest.mark.parametrize("raised", [0.0, 0.5])
    def test_negative_zero_diagonal(self, decided_by, raised):
        d = raise_entry(random_graph_metric(np.random.default_rng(23), 50), 3, 44, raised)
        np.fill_diagonal(d, -0.0)
        worst = _worst_triangle_slack(d)
        assert same_bits(worst, brute_force_worst(d))
        assert verdict(d) == (brute_force_message(d) if raised else "accepted")
        assert decided_by[0] == (np.int32 if raised else "certificate")

    @pytest.mark.parametrize("d", [[[0.0, 0.1], [0.1, 0.0]], [[0.0, 0.75], [0.75, 0.0]]], ids=["decimal", "dyadic"])
    def test_two_points(self, loop_dtypes, d):
        d = np.array(d)
        assert same_bits(_worst_triangle_slack(d), brute_force_worst(d))
        assert loop_dtypes == [np.float64 if d[0, 1] == 0.1 else np.int32]
        assert verdict(d) == "accepted"

    def test_one_point_runs_no_loop(self, loop_dtypes):
        assert same_bits(_worst_triangle_slack(np.zeros((1, 1))), 0.0)
        assert loop_dtypes == []

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 35, 36, 90, 129, 240])
    def test_worst_slack_matches_brute_force(self, n):
        d = random_graph_metric(np.random.default_rng(n), n)
        worst = _worst_triangle_slack(d)
        assert worst == brute_force_worst(d)
        assert worst == 0.0  # a shortest-path metric has tight triangles through j = i
        assert verdict(d) == "accepted"

    @pytest.mark.parametrize("n", [3, 17, 90])
    def test_raised_entry_matches_brute_force(self, n):
        rng = np.random.default_rng(100 + n)
        base = random_graph_metric(rng, n)
        for _ in range(5):
            i, k = (int(v) for v in rng.choice(n, size=2, replace=False))
            d = raise_entry(base, i, k, int(rng.integers(1, 40)) / 8.0)
            worst = brute_force_slack(d).max()
            assert _worst_triangle_slack(d) == worst
            assert verdict(d) == (brute_force_message(d) if worst > 0.0 else "accepted")

    def test_raised_entry_at_240_points(self):
        rng = np.random.default_rng(240)
        d = raise_entry(random_graph_metric(rng, 240), 17, 203, 4.0)
        assert _worst_triangle_slack(d) == brute_force_worst(d) > 0.0
        assert verdict(d).startswith("triangle inequality violated at (17,203) via ")

    def test_tied_maxima_name_the_first_triple(self):
        # on the uniform metric, raising two entries to 3 ties the slack 1 at
        # every middle point of both pairs; the first triple in C order is named
        d = 1.0 - np.eye(20)
        d = raise_entry(raise_entry(d, 5, 8, 2.0), 2, 11, 2.0)
        slack = brute_force_slack(d)
        assert (slack == slack.max()).sum() == 4 * 18
        assert verdict(d) == brute_force_message(d) == "triangle inequality violated at (2,11) via 0: 3.0 > 1.0 + 1.0"

    def test_tied_maxima_on_a_graph_metric(self):
        rng = np.random.default_rng(7)
        d = random_graph_metric(rng, 30)
        for i, k in ((21, 4), (9, 13), (2, 27)):
            d = raise_entry(d, i, k, 16.0 - d[i, k])
        slack = brute_force_slack(d)
        assert (slack == slack.max()).sum() > 1
        assert verdict(d) == brute_force_message(d)

    @pytest.mark.parametrize("n", [100, 240])
    def test_rounded_collinear_metric(self, n):
        # |x_i - x_j| on arange(n)/n rounds, so some triangles fail by one ulp
        x = np.arange(n) / n
        d = np.abs(x[:, None] - x[None, :])
        worst = _worst_triangle_slack(d)
        assert worst == brute_force_worst(d) == 1.1102230246251565e-16
        assert verdict(d) == blocked_brute_force_message(d)
        assert verdict(d, tol=1e-12) == "accepted"

    @pytest.mark.parametrize("n", [35, 36, 37, 129, 240])
    @pytest.mark.parametrize("offset", ["1", "(n+1)//2", "n-1"])
    def test_one_ulp_violation_at_an_offset(self, n, offset):
        # dyadic points on a line, visited out of order, so that every pair
        # below has points between it and its distance is a tight path sum
        x = (11 * np.arange(n) % n) / 8.0
        d = np.abs(x[:, None] - x[None, :])
        i, k = {"1": (5, 6), "(n+1)//2": (0, (n + 1) // 2), "n-1": (0, n - 1)}[offset]
        raised = np.nextafter(d[i, k], np.inf)
        d[i, k] = d[k, i] = raised
        worst = _worst_triangle_slack(d)
        assert worst == brute_force_worst(d) == raised - np.nextafter(raised, 0.0) > 0.0
        assert verdict(d) == blocked_brute_force_message(d)
        assert verdict(d).startswith(f"triangle inequality violated at ({i},{k}) via ")

    @pytest.mark.parametrize("n", [36, 50, 129])
    def test_tied_maxima_across_offsets_name_the_first_triple(self, n):
        # the slack 1 ties at offset 1 and at offset n-1; C order names (0, n-1)
        d = raise_entry(raise_entry(1.0 - np.eye(n), 5, 6, 2.0), 0, n - 1, 2.0)
        assert _worst_triangle_slack(d) == brute_force_worst(d) == 1.0
        assert verdict(d) == brute_force_message(d) == f"triangle inequality violated at (0,{n - 1}) via 1: 3.0 > 1.0 + 1.0"

    @pytest.mark.parametrize("n", [35, 36, 129])
    def test_induced_metric_slack_matches_brute_force(self, n):
        # collinear points in C^2, in random order: their Euclidean distances
        # round, so some tight triangles fail by an ulp, which the induced
        # metric's triangle_tol allows
        t = np.random.default_rng(300 + n).permutation(n) / n
        space = MetricSpace.from_euclidean(EuclideanPointSet(np.outer(t, [0.6 + 0.3j, 0.7j])))
        assert space.triangle_tol > 0.0
        d = np.array(space.dist)
        worst = _worst_triangle_slack(d)
        assert 0.0 < worst == brute_force_worst(d) <= space.triangle_tol
        assert verdict(d, tol=np.nextafter(worst, 0.0)) == brute_force_message(d)

    def test_asymmetry_is_rejected_before_the_triangle_check(self):
        # the upper triangle is a metric, the lower one breaks a triangle; the
        # half-matrix slack relies on symmetry, which must be checked first
        d = random_graph_metric(np.random.default_rng(13), 12)
        d[9, 2] += 100.0
        assert brute_force_worst(d) > 0.0
        assert verdict(d) == "distance matrix must be symmetric"

    def test_tolerance_equal_to_the_slack_accepts(self, loop_dtypes):
        # on a lattice, so the tolerance is compared with the int32 loop's slack
        d = raise_entry(random_graph_metric(np.random.default_rng(11), 17), 3, 8, 0.375)
        worst = brute_force_slack(d).max()
        assert worst > 0.0
        assert same_bits(_worst_triangle_slack(d), worst)
        assert set(loop_dtypes) == {np.int32}
        assert verdict(d, tol=worst) == "accepted"
        assert verdict(d, tol=np.nextafter(worst, 0.0)) == brute_force_message(d)

    def test_sums_past_float64_raise_no_warning(self, loop_dtypes):
        # an overflowed sum d[i,j] + d[j,k] is inf, above every finite distance
        fits = np.array([[0.0, 1e308, 1.5e308], [1e308, 0.0, 1e308], [1.5e308, 1e308, 0.0]])
        breaks = np.array(
            [[0.0, 1e308, 1.7e308, 1e308], [1e308, 0.0, 1e307, 1.5e308], [1.7e308, 1e307, 0.0, 1e308], [1e308, 1.5e308, 1e308, 0.0]]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verdict(fits) == "accepted"
            assert verdict(breaks) == "triangle inequality violated at (0,2) via 1: 1.7e+308 > 1e+308 + 1e+307"
        assert set(loop_dtypes) == {np.float64}

    def test_peak_memory_is_quadratic(self):
        n = 240
        d = random_graph_metric(np.random.default_rng(5), n)
        tracemalloc.start()
        try:
            MetricSpace(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * n * 8

    def test_running_minimum_matches_prefix_reduction(self):
        n = 90
        rng = np.random.default_rng(12)
        space = MetricSpace(random_graph_metric(rng, n))
        order = [int(i) for i in rng.permutation(n)]
        gs = build_g(DenseSequence(space, order), n - 1)
        for m in range(1, n):
            expected = np.minimum(space.dist[:, order[:m]].min(axis=1), 1.0)
            assert np.array_equal(gs[m], expected)


class TestTriangleTol:
    X = np.arange(100) / 100  # not dyadic: |x_i - x_j| rounds, and some triangles fail by an ulp

    def line_json(self, **extra):
        return {"dist": np.abs(self.X[:, None] - self.X[None, :]).tolist(), **extra}

    def test_rounded_line_is_rejected_without_a_tolerance(self):
        obj = self.line_json()
        with pytest.raises(ValidationError, match="triangle inequality violated at") as exc:
            MetricSpace.from_json(obj)
        assert str(exc.value) == brute_force_message(np.asarray(obj["dist"]))

    def test_rounded_line_is_accepted_with_a_tolerance(self):
        space = MetricSpace.from_json(self.line_json(triangle_tol=1e-12))
        assert space.triangle_tol == 1e-12
        again = MetricSpace.from_json(json.loads(json.dumps(space.to_json())))
        assert again.triangle_tol == 1e-12
        assert np.array_equal(again.dist, space.dist)

    def test_zero_tolerance_is_not_written(self):
        assert "triangle_tol" not in interval5_space().to_json()
        assert MetricSpace.from_json(interval5_space().to_json()).triangle_tol == 0.0

    @pytest.mark.parametrize("bad", [-1e-12, float("nan"), float("inf"), "1e-12", True, None])
    def test_bad_tolerance_rejected(self, bad):
        with pytest.raises(ValidationError, match="triangle_tol"):
            MetricSpace.from_json({"dist": [[0.0, 1.0], [1.0, 0.0]], "triangle_tol": bad})


class TestSetDistance:
    def test_distance_to_itself(self):
        space = line3_space()
        assert set_distance(space, 1, {1}) == 0.0

    def test_line_minimum(self):
        space = line3_space()
        assert set_distance(space, 0, {1, 2}) == 0.5

    def test_member_of_full_set(self):
        space = line3_space()
        assert set_distance(space, 2, {0, 1, 2}) == 0.0

    def test_empty_set(self):
        with pytest.raises(EmptySet):
            set_distance(line3_space(), 0, set())

    def test_point_outside_the_space(self):
        with pytest.raises(ValidationError, match="out of range"):
            set_distance(line3_space(), 3, {0})


class TestDil:
    def test_constant_has_zero_dil(self):
        space = interval5_space()
        assert dil(constant_function(space, 3 + 4j)) == 0.0

    def test_distance_function_dil_is_one(self):
        # d(0,1) = d(0,1/2) + d(1/2,1) on the line, so the bound is attained
        space = line3_space()
        f = distance_function(space, 0)
        assert dil(f) == 1.0

    def test_distance_function_dil_at_most_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            space = random_dyadic_space(rng, 5)
            assert dil(distance_function(space, int(rng.integers(5)))) <= 1.0

    def test_two_point_quotient(self):
        space = MetricSpace(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert dil(SampledFunction(space, [0.0, 6.0])) == 3.0

    def test_single_point_space_rejected(self):
        space = MetricSpace(np.zeros((1, 1)))
        with pytest.raises(DegenerateSpace):
            dil(constant_function(space))

    @given(
        vals=st.lists(
            st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
            min_size=5,
            max_size=5,
        ),
        other=st.lists(
            st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
            min_size=5,
            max_size=5,
        ),
        c=st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    def test_dil_is_a_seminorm(self, vals, other, c):
        space = interval5_space()
        f = SampledFunction(space, vals)
        g = SampledFunction(space, other)
        assert dil(f + g) <= dil(f) + dil(g) + 1e-12 * (1 + dil(f) + dil(g))
        assert dil(c * f) == pytest.approx(abs(c) * dil(f), rel=1e-12, abs=1e-12)


class TestLipNorm:
    def test_constant_one(self):
        assert lip_norm(constant_function(interval5_space())) == 1.0

    def test_distance_to_base(self):
        space = interval5_space()
        f = distance_function(space, space.base)
        assert lip_norm(f) <= 1.0

    def test_homogeneity(self):
        rng = np.random.default_rng(11)
        space = random_dyadic_space(rng, 5)
        f = SampledFunction(space, rng.normal(size=5) + 1j * rng.normal(size=5))
        c = 2 + 1j
        assert lip_norm(c * f) == pytest.approx(abs(c) * lip_norm(f), rel=1e-12)


class TestDualNorms:
    def test_two_point_pair_norm(self):
        space = MetricSpace(np.array([[0.0, 3.0], [3.0, 0.0]]))
        value, witness = lip_dual_pair_norm(space, 0, 1)
        assert value == 3.0
        assert lip_norm(witness) <= 1.0

    def test_witness_algebra(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            space = random_dyadic_space(rng, 6)
            x, y = rng.choice(6, size=2, replace=False)
            value, witness = lip_dual_pair_norm(space, int(x), int(y))
            assert witness.values[y] == -space.dist[space.base, y]
            assert abs(witness.values[x] - witness.values[y]) == value
            assert lip_norm(witness) <= 1.0

    def test_same_point_rejected(self):
        with pytest.raises(SamePoint):
            lip_dual_pair_norm(interval5_space(), 2, 2)

    def test_pair_norm_matches_lp_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            space = random_dyadic_space(rng, int(rng.integers(3, 7)))
            n = len(space)
            x, y = rng.choice(n, size=2, replace=False)
            value, _ = lip_dual_pair_norm(space, int(x), int(y))
            assert value == pytest.approx(lp_dual_norm(space, int(x), int(y)), abs=1e-9)

    def test_point_norm_base(self):
        space = interval5_space()
        assert lip_point_norm(space, space.base) == 1.0

    def test_point_norm_far_point(self):
        d = np.array([[0.0, 5.0], [5.0, 0.0]])
        assert lip_point_norm(MetricSpace(d), 1) == 5.0

    def test_point_norm_close_point_is_one(self):
        # constants are extremal inside the unit ball around the base
        d = np.array([[0.0, 0.3], [0.3, 0.0]])
        space = MetricSpace(d)
        assert lip_point_norm(space, 1) == 1.0
        assert lp_dual_norm(space, 1) == pytest.approx(1.0, abs=1e-9)

    def test_point_norm_matches_lp_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            space = random_dyadic_space(rng, int(rng.integers(2, 7)))
            x = int(rng.integers(len(space)))
            assert lip_point_norm(space, x) == pytest.approx(lp_dual_norm(space, x), abs=1e-9)

    def test_indices_outside_the_space_rejected(self):
        space = MetricSpace(np.array([[0.0, 3.0], [3.0, 0.0]]))
        for call in (
            lambda: lip_point_norm(space, 7),
            lambda: lip_point_norm(space, -1),
            lambda: lip_dual_pair_norm(space, 0, 5),
            lambda: lip_dual_pair_norm(space, -2, 1),
        ):
            with pytest.raises(ValidationError, match="out of range"):
                call()

    def test_upper_and_lower_bounds_pinch(self):
        rng = np.random.default_rng(29)
        space = random_dyadic_space(rng, 6)
        value, witness = lip_dual_pair_norm(space, 1, 4)
        # witness gives the lower bound; the Lipschitz estimate gives the upper
        assert abs(witness.values[1] - witness.values[4]) >= value - 1e-15
        f = SampledFunction(space, rng.normal(size=6) + 1j * rng.normal(size=6))
        assert abs(f.values[1] - f.values[4]) <= lip_norm(f) * space.dist[1, 4] + 1e-12


class TestSubmultRatio:
    def test_constants(self):
        space = interval5_space()
        ones = constant_function(space)
        ratio, bound = submult_ratio(space, [ones])
        assert ratio == 1.0
        assert ratio <= bound

    def test_bound_on_unit_diameter_space(self):
        space = interval5_space()
        assert submult_ratio(space, [constant_function(space)])[1] == 3.0

    def test_random_pairs_stay_below_bound(self):
        rng = np.random.default_rng(41)
        xs = np.sort(rng.choice(np.arange(9), size=6, replace=False)) / 8.0
        space = MetricSpace(np.abs(xs[:, None] - xs[None, :]))  # diameter <= 1
        fs = [
            SampledFunction(space, rng.normal(size=6) + 1j * rng.normal(size=6))
            for _ in range(15)
        ]
        ratio, bound = submult_ratio(space, fs)  # 15 functions -> 120 pairs
        assert bound == 3.0
        assert ratio <= bound

    def test_zero_function_rejected(self):
        space = interval5_space()
        with pytest.raises(ZeroFunction):
            submult_ratio(space, [constant_function(space, 0.0)])

    def test_bound_holds_on_random_spaces(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            space = random_dyadic_space(rng, 5)
            fs = [
                SampledFunction(space, rng.normal(size=5) + 1j * rng.normal(size=5))
                for _ in range(6)
            ]
            ratio, bound = submult_ratio(space, fs)
            assert ratio <= bound


def full_matrix_dil(f):
    """dil as the full n-by-n quotient matrix gives it, the diagonal 0 / 1."""
    d = f.space.dist
    if d.shape[0] < 2:
        raise DegenerateSpace("dil needs at least two points")
    diffs = np.abs(f.values[:, None] - f.values[None, :])
    np.fill_diagonal(diffs, 0.0)
    denom = d.copy()
    np.fill_diagonal(denom, 1.0)
    diffs /= denom
    return float(diffs.max())


def full_matrix_submult(space, fs):
    """submult_ratio with one full-matrix dil per function and per product."""

    def norm(f):
        return full_matrix_dil(f) + float(abs(f.values[f.space.base]))

    with np.errstate(over="ignore", invalid="ignore"):
        norms = []
        for f in fs:
            nf = norm(f)
            if nf == 0.0:
                raise ZeroFunction("submultiplicativity ratio undefined for the zero function")
            if not np.isfinite(nf):
                raise Overflow("a Lipschitz norm overflows float64")
            norms.append(nf)
        max_ratio = 0.0
        for i in range(len(fs)):
            for j in range(i, len(fs)):
                ratio = norm(fs[i] * fs[j]) / (norms[i] * norms[j])
                if not np.isfinite(ratio):
                    raise Overflow(f"the norm ratio of functions {i} and {j} overflows float64")
                max_ratio = max(max_ratio, ratio)
    return max_ratio, 2.0 * max(1.0, space.diameter) + 1.0


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)


def same_bits(a, b):
    """Equal outcomes, floats compared by their bits (NaN and -0.0 included)."""
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex() if a == a else b != b
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(same_bits, a, b))
    return a == b


class TestDilStack:
    """dil and submult_ratio take the pairs i < j; the full matrix is the reference."""

    @staticmethod
    def spaces(rng):
        for n in [2, 3, 4, 5, 7, 10, 16, 25, 40, 60] + [int(rng.integers(2, 61)) for _ in range(6)] + [240]:
            yield MetricSpace(random_graph_metric(rng, n), base=int(rng.integers(0, n)))

    @staticmethod
    def functions(rng, space, k, scale=1.0):
        n = len(space)
        return [SampledFunction(space, scale * (rng.normal(size=n) + 1j * rng.normal(size=n))) for _ in range(k)]

    def test_same_bits_as_the_full_matrix(self):
        rng = np.random.default_rng(71)
        for space in self.spaces(rng):
            fs = self.functions(rng, space, 6)
            for f in fs:
                assert same_bits(outcome(dil, f), outcome(full_matrix_dil, f))
            assert same_bits(outcome(submult_ratio, space, fs), outcome(full_matrix_submult, space, fs))

    def test_near_overflow_names_the_same_pair(self):
        """Values near 1e150-1e300: a product overflows, first at a pair i < j
        where the smaller function precedes the larger one."""
        rng = np.random.default_rng(72)
        messages = set()
        for space in self.spaces(rng):
            for small, large in ((1e150, 1e200), (1e100, 1e200), (1e200, 1e300), (1.0, 1e150)):
                fs = self.functions(rng, space, 4) + self.functions(rng, space, 1, small) + self.functions(rng, space, 1, large)
                rng.shuffle(fs)
                got = outcome(submult_ratio, space, fs)
                assert same_bits(got, outcome(full_matrix_submult, space, fs))
                messages.add(got[1] if got[0] is Overflow else "finite")
        assert "finite" in messages
        assert any(m.startswith("the norm ratio of functions") and m.split()[5] != m.split()[7] for m in messages)

    def test_overflowing_values_give_the_same_nan(self):
        space = MetricSpace(random_graph_metric(np.random.default_rng(73), 9))
        f = SampledFunction(space, [1e308 * 10] * 3 + [1.0] * 6)
        with np.errstate(invalid="ignore"):
            assert same_bits(outcome(dil, f), outcome(full_matrix_dil, f))
            assert np.isnan(dil(f))

    def test_zero_function_and_single_point(self):
        rng = np.random.default_rng(74)
        space = MetricSpace(random_graph_metric(rng, 12))
        fs = self.functions(rng, space, 3) + [constant_function(space, 0.0)]
        assert outcome(submult_ratio, space, fs) == outcome(full_matrix_submult, space, fs)
        assert outcome(submult_ratio, space, fs)[0] is ZeroFunction
        point = MetricSpace(np.zeros((1, 1)))
        f = constant_function(point)
        assert outcome(dil, f) == outcome(full_matrix_dil, f) == (DegenerateSpace, "dil needs at least two points")
        assert outcome(submult_ratio, point, [f]) == outcome(full_matrix_submult, point, [f])

    def test_functions_on_another_space_are_refused(self):
        space, other = interval5_space(), interval5_space()
        with pytest.raises(ValidationError, match="every function must live on the given space"):
            submult_ratio(space, [constant_function(space), constant_function(other)])


class TestSampledFunctionJson:
    def test_roundtrip(self):
        space = interval5_space()
        f = SampledFunction(space, [1 + 2j, 0, -1, 3j, 0.5])
        again = SampledFunction.from_json(f.to_json(), space)
        assert np.array_equal(f.values, again.values)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            SampledFunction(interval5_space(), [1.0, 2.0])


class TestEuclideanPointSetJson:
    def test_roundtrip_with_labels(self):
        ps = EuclideanPointSet([[0.1 + 0.2j, -0.3j], [0.5, 0.0]], labels=["a", "b"])
        again = EuclideanPointSet.from_json(ps.to_json())
        assert np.array_equal(ps.points, again.points)
        assert again.labels == ("a", "b")
        assert again.dim == 2

    @pytest.mark.parametrize("shape", [(2, 1), (2,)])
    def test_caller_array_stays_writeable(self, shape):
        pts = np.array([0.1 + 0j, 0.2 + 0j]).reshape(shape)
        S = EuclideanPointSet(pts)
        assert pts.flags.writeable and not S.points.flags.writeable
        pts[0] = 0.9
        assert S.points[0, 0] == 0.1

    def test_dim_one_shorthand(self):
        ps = EuclideanPointSet.from_json({"dim": 1, "points": [[0.0, 0.0], [0.5, 0.0]]})
        assert ps.points.shape == (2, 1)

    def test_declared_dim_enforced(self):
        with pytest.raises(ValidationError):
            EuclideanPointSet.from_json({"dim": 3, "points": [[0.0, 0.0], [0.5, 0.0]]})

    def test_empty_points_with_a_declared_dim(self):
        with pytest.raises(ValidationError, match="nonempty"):
            EuclideanPointSet.from_json({"dim": 1, "points": []})
