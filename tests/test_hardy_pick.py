import tracemalloc

import mpmath
import numpy as np
import pytest

from funcspace import hardy_pick, kernels
from funcspace.errors import (
    DegenerateGram,
    DuplicatePoint,
    NotInDisk,
    NumericalError,
    PatternBudgetExceeded,
    ValidationError,
)
from funcspace.geometry import EuclideanPointSet
from funcspace.hardy_pick import (
    PickProblem,
    ardy_multiplier_check,
    carleson_seq,
    compress_square,
    detect_mo,
    pick_feasible,
    pick_min_norm,
    pick_solve,
    separability_probe,
    toeplitz_mo,
)


class TestToeplitzMo:
    def test_identity_symbol(self):
        T = toeplitz_mo([1.0], 3)
        assert np.array_equal(T, np.eye(4, dtype=complex))

    def test_shift_matrix(self):
        T = toeplitz_mo([0.0, 1.0], 2)
        expected = np.zeros((4, 3), dtype=complex)
        expected[1, 0] = expected[2, 1] = expected[3, 2] = 1.0
        assert np.array_equal(T, expected)

    def test_matches_coefficient_convolution(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(0, 4))
            N = int(rng.integers(0, 6))
            omega = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            f = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
            assert np.allclose(toeplitz_mo(omega, N) @ f, np.convolve(omega, f), rtol=0, atol=1e-14)


class TestDetectMo:
    def test_identity_matrix(self):
        S = EuclideanPointSet([[0.1], [0.2]])
        values = detect_mo(np.eye(8, dtype=complex), S)
        assert values is not None
        assert np.allclose(values, 1.0, rtol=0, atol=1e-14)

    def test_compressed_shift_recovers_coordinate(self):
        S = EuclideanPointSet([[0.1], [0.2]])
        T = compress_square(toeplitz_mo([0.0, 1.0], 12), 12)
        values = detect_mo(T, S)
        assert values is not None
        assert abs(values[0] - 0.1) < 1e-10
        assert abs(values[1] - 0.2) < 1e-10

    def test_complex_sample_points(self):
        S = EuclideanPointSet([[0.1 + 0.05j], [-0.12j]])
        T = compress_square(toeplitz_mo([0.0, 1.0], 12), 12)
        values = detect_mo(T, S)
        assert values is not None
        assert np.allclose(values, S.points[:, 0], rtol=0, atol=1e-10)

    def test_complex_coefficient_symbol(self):
        # conjugations in the adjoint must cancel for complex coefficients too
        S = EuclideanPointSet([[0.1 + 0.05j], [0.15], [-0.12j]])
        coeffs = np.array([0.5 - 0.25j, 1j, 0.0, -0.3 + 0.1j])
        T = compress_square(toeplitz_mo(coeffs, 12), 12)
        values = detect_mo(T, S)
        assert values is not None
        expected = [np.polyval(coeffs[::-1], z) for z in S.points[:, 0]]
        assert np.abs(np.asarray(expected) - values).max() <= 1e-9

    def test_random_dense_matrices_rejected(self):
        rng = np.random.default_rng(1)
        S = EuclideanPointSet([[0.1], [0.2]])
        for _ in range(20):
            T = rng.normal(size=(13, 13)) + 1j * rng.normal(size=(13, 13))
            assert detect_mo(T, S) is None

    def test_polynomial_symbol_recovery_decay(self):
        rng = np.random.default_rng(2)
        S = EuclideanPointSet([[0.17], [-0.2], [0.05]])
        for _ in range(10):
            coeffs = np.concatenate([[1.0], rng.uniform(-1, 1, size=3)]).astype(complex)
            T = compress_square(toeplitz_mo(coeffs, 12), 12)
            values = detect_mo(T, S)
            assert values is not None
            expected = [np.polyval(coeffs[::-1], z) for z in S.points[:, 0]]
            assert np.abs(np.asarray(expected) - values).max() <= 1e-8

    def test_tolerance_validated(self):
        S = EuclideanPointSet([[0.1], [0.2]])
        with pytest.raises(ValidationError):
            detect_mo(np.eye(3, dtype=complex), S, tol=0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_non_finite_tolerance_refused(self, tol):
        S = EuclideanPointSet([[0.1], [0.2]])
        with pytest.raises(ValidationError, match="tolerance"):
            detect_mo(np.eye(3, dtype=complex), S, tol=tol)

    def test_zero_matrix_is_the_zero_symbol(self):
        S = EuclideanPointSet([[0.1], [0.2]])
        values = detect_mo(np.zeros((5, 5), dtype=complex), S)
        assert values is not None
        assert np.array_equal(values, np.zeros(2, dtype=complex))


class TestPickFeasible:
    def test_single_node(self):
        report = pick_feasible(PickProblem([0.3], [0.5], bound=1.0))
        assert report.is_psd

    def test_schwarz_boundary_case(self):
        problem = PickProblem([0.0, 0.5], [0.0, 0.5], bound=1.0)
        report = pick_feasible(problem)
        assert report.is_psd
        scale = max(1.0, report.max_abs_eigenvalue)
        assert -1e-12 * scale <= report.min_eigenvalue <= 1e-12 * scale

    def test_infeasible_below_one(self):
        problem = PickProblem([0.0, 0.5], [0.0, 0.5], bound=0.99)
        assert not pick_feasible(problem).is_psd

    def test_nodes_validated(self):
        with pytest.raises(NotInDisk):
            PickProblem([1.0], [0.0])
        with pytest.raises(DuplicatePoint):
            PickProblem([0.3, 0.3], [0.0, 0.1])

    def test_node_outside_the_circle_that_abs_rounds_inside(self):
        z = -0.40700311749865054 - 0.9134267690112764j  # |z|^2 = 1 + 1.8e-17 exactly
        assert np.abs(np.complex128(z)) < 1.0
        with pytest.raises(NotInDisk):
            PickProblem([0.0, z], [0.0, 0.5])
        with pytest.raises(NotInDisk):
            pick_solve([0.0, z], [0.0, 0.5])


class TestPickMinNorm:
    def test_schwarz_value(self):
        assert pick_min_norm([0.0, 0.5], [0.0, 0.5]) == pytest.approx(1.0, abs=1e-9)

    def test_constant_targets(self):
        c = 0.3 - 0.4j
        assert pick_min_norm([0.0, 0.2, 0.5j], [c, c, c]) == pytest.approx(abs(c), rel=1e-12)

    def test_single_node(self):
        assert pick_min_norm([0.4], [0.7 + 0.1j]) == pytest.approx(abs(0.7 + 0.1j), rel=1e-12)

    def test_monotone_in_nodes(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            nodes = rng.uniform(-0.8, 0.8, size=n) + 1j * rng.uniform(-0.5, 0.5, size=n)
            nodes = nodes[np.abs(nodes) < 0.95]
            if len(set(nodes.tolist())) < 2:
                continue
            values = rng.normal(size=len(nodes)) + 1j * rng.normal(size=len(nodes))
            small = pick_min_norm(nodes[:-1], values[:-1])
            big = pick_min_norm(nodes, values)
            assert small <= big + 1e-8

    def test_homogeneity(self):
        rng = np.random.default_rng(4)
        nodes = [0.1, -0.3, 0.2 + 0.4j]
        values = rng.normal(size=3) + 1j * rng.normal(size=3)
        base = pick_min_norm(nodes, values)
        for c in (2.0, 0.5, 1.5 - 2j):
            assert pick_min_norm(nodes, c * values) == pytest.approx(abs(c) * base, rel=1e-6, abs=1e-8)


class TestPickSolve:
    def test_certified_value_is_at_least_the_pencil(self):
        rng = np.random.default_rng(50)
        for n in (1, 4, 9):
            nodes = 0.9 * np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            values = rng.normal(size=n) + 1j * rng.normal(size=n)
            solution = pick_solve(nodes, values)
            assert solution.min_norm >= solution.pencil_norm
            assert solution.min_norm == pick_min_norm(nodes, values)

    def test_infeasible_just_below_feasible_at_certified_value(self):
        nodes = carleson_seq(0.1, 7) * np.exp(0.3j)
        values = np.array([1, 0, 1, 1, 0, 0, 1], dtype=complex)
        t = pick_solve(nodes, values).min_norm
        assert pick_feasible(PickProblem(nodes, values, bound=t), tol=0.0).is_psd
        assert not pick_feasible(PickProblem(nodes, values, bound=t * (1 - 1e-6)), tol=0.0).is_psd

    def test_non_finite_targets_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match=rf"^interpolation targets must be finite, got \({bad}\+0j\) at index 0$"):
                pick_solve([0.1, 0.5], [bad, 0.2])
            with pytest.raises(ValidationError, match=rf"^interpolation nodes must be finite, got \({bad}\+0j\) at index 0$"):
                pick_solve([bad, 0.5], [0.0, 0.2])

    def test_overflow_is_a_numerical_error(self):
        with pytest.raises(NumericalError):
            pick_solve([0.1, 0.5], [1e308, 0.2])
        with pytest.raises(NumericalError):
            pick_feasible(PickProblem([0.1, 0.5], [1e308, 0.2]))

    def test_numerically_singular_gram(self):
        with pytest.raises(DegenerateGram):
            pick_solve([0.5, np.nextafter(0.5, 1.0)], [1.0, 0.2])

    def test_tolerance_validated(self):
        with pytest.raises(ValidationError):
            pick_solve([0.1], [0.2], tol=0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_non_finite_tolerance_refused(self, tol):
        with pytest.raises(ValidationError, match="tolerance"):
            pick_solve([0.1], [0.2], tol=tol)


def _node_families(rng):
    """Halving nodes on a ray, off-ray nodes up to 2^-40 from the circle, and 1e-6 clusters."""
    for _ in range(40):
        yield carleson_seq(rng.uniform(0.0, 0.5), int(rng.integers(2, 13))) * np.exp(2j * np.pi * rng.uniform())
    for _ in range(40):
        m = int(rng.integers(2, 9))
        yield (1.0 - 2.0 ** -rng.uniform(1.0, 40.0, m)) * np.exp(2j * np.pi * rng.uniform(size=m))
    for _ in range(40):
        centre = rng.uniform(0.3, 1.0 - 1e-5) * np.exp(2j * np.pi * rng.uniform())
        m = int(rng.integers(2, 9))
        yield centre + 1e-6 * (rng.uniform(-0.5, 0.5, m) + 1j * rng.uniform(-0.5, 0.5, m))


class TestSzegoUnitGram:
    """The returned bound covers every entry's error against 50-digit arithmetic."""

    def test_entry_error_within_bound(self):
        ctx = mpmath.mp.clone()
        ctx.dps = 50
        for nodes in _node_families(np.random.default_rng(77)):
            C, rel_C = hardy_pick._szego_unit_gram(nodes)
            # C stands for S C S with the float scaling s_i = sqrt(d_i)
            s = [ctx.mpf(float(v)) for v in np.sqrt(kernels.one_minus_norm2(nodes))]
            z = [ctx.mpc(complex(v)) for v in nodes]
            for i in range(len(z)):
                for j in range(i, len(z)):
                    exact = s[i] * s[j] / (1 - z[i] * ctx.conj(z[j]))
                    assert abs(ctx.mpc(complex(C[i, j])) - exact) <= rel_C * abs(exact), (nodes, i, j)

    @pytest.mark.parametrize(
        "z",
        [
            0.0,
            0.5,
            -0.75j,
            0.6 + 0.8j,
            1 - 2**-53,
            5e-324,
            5e-324 + 5e-324j,
            2.2e-308j,
            (1 - 2**-53) + 2**-27 * 1j,
            0.7071067811865475 + 0.7071067811865475j,
            -0.3 + 1e-300j,
        ],
    )
    def test_one_minus_abs2_correctly_rounded(self, z):
        assert kernels.one_minus_norm2([z])[0] == _rounded_one_minus_abs2(complex(z))

    def test_one_minus_abs2_random(self):
        rng = np.random.default_rng(78)
        for z in np.sqrt(rng.uniform(0.0, 1.0, 200)) * np.exp(2j * np.pi * rng.uniform(size=200)):
            assert kernels.one_minus_norm2([z])[0] == _rounded_one_minus_abs2(complex(z))


def _rounded_one_minus_abs2(z: complex) -> float:
    ctx = mpmath.mp.clone()
    ctx.prec = 4400  # 1 - a^2 - b^2 is exact at this precision, subnormal parts included
    exact = 1 - ctx.mpf(z.real) ** 2 - ctx.mpf(z.imag) ** 2
    ctx.prec = 53
    return float(+exact)


class TestCarlesonSeq:
    def test_first_three_nodes(self):
        assert np.array_equal(carleson_seq(0.0, 3), np.array([0.5, 0.75, 0.875]))

    def test_gaps_halve_exactly(self):
        ys = carleson_seq(0.25, 10)
        gaps = 1.0 - ys
        assert np.array_equal(gaps[1:], gaps[:-1] / 2.0)

    def test_stays_in_disk(self):
        assert np.all(np.abs(carleson_seq(0.9, 40)) < 1.0)

    def test_start_validated(self):
        with pytest.raises(NotInDisk):
            carleson_seq(1.0, 3)

    def test_resolution_saturation_detected(self):
        # after ~53 halvings the node would round onto the boundary
        with pytest.raises(NotInDisk, match="rounded onto"):
            carleson_seq(0.0, 60)

    def test_huge_count_fails_without_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(NotInDisk, match="rounded onto"):
                carleson_seq(0.0, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestSeparabilityProbe:
    def test_single_node(self):
        report = separability_probe(1)
        assert report.max_min_norm == pytest.approx(1.0, abs=1e-9)
        assert report.min_pairwise_gap == 1.0
        assert sorted(report.pattern_norms) == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_gap_is_always_one(self):
        for m in range(1, 7):
            patterns = (np.arange(2**m)[:, None] >> np.arange(m)[None, :]) & 1
            cheb = np.abs(patterns[:, None, :] - patterns[None, :, :]).max(axis=2)
            brute_force = cheb[~np.eye(2**m, dtype=bool)].min()
            assert brute_force == 1
            assert separability_probe(m).min_pairwise_gap == 1.0

    def test_norms_nondecreasing_in_m(self):
        values = [separability_probe(m).max_min_norm for m in range(2, 6)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-9

    def test_batched_sweep_matches_single_solves(self):
        nodes = carleson_seq(0.2, 5)
        report = separability_probe(5, start=0.2)
        for mask in (0, 5, 19, 31):
            pattern = [(mask >> k) & 1 for k in range(5)]
            single = pick_solve(nodes, pattern)
            assert report.pattern_norms[mask] >= single.pencil_norm
            assert report.pattern_norms[mask] == pytest.approx(single.min_norm, rel=1e-10, abs=1e-9)

    def test_budget_cap(self):
        with pytest.raises(PatternBudgetExceeded):
            separability_probe(13)


class TestCertificateOnePass:
    """The Weyl step lands past the shift, so every pencil is proven on its first shifted Cholesky."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"certify": 0, "shift_needed": 0, "breakdowns": 0}
        certify, shift_needed, cholesky = hardy_pick.certify_pencil_norms, kernels._shift_needed, np.linalg.cholesky

        def counted_certify(*args):
            counts["certify"] += 1
            return certify(*args)

        def counted_shift_needed(*args):
            counts["shift_needed"] += 1
            return shift_needed(*args)

        def counted_cholesky(*args, **kwargs):
            try:
                return cholesky(*args, **kwargs)
            except np.linalg.LinAlgError:
                counts["breakdowns"] += 1
                raise

        monkeypatch.setattr(hardy_pick, "certify_pencil_norms", counted_certify)
        monkeypatch.setattr(kernels, "_shift_needed", counted_shift_needed)
        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        return counts

    def test_pattern_sweeps(self, counts):
        rng = np.random.default_rng(12)
        for m in range(5, 11):
            for start in rng.uniform(0.0, 0.5, 3):
                separability_probe(m, start=float(start))
        assert counts == {"certify": 18, "shift_needed": 18, "breakdowns": 0}

    def test_single_solves_with_disk_targets(self, counts):
        rng = np.random.default_rng(13)
        for n in range(3, 13):
            for _ in range(4):
                nodes = carleson_seq(rng.uniform(0.0, 0.5), n) * np.exp(2j * np.pi * rng.uniform())
                values = np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(size=n))
                pick_solve(nodes, values)
        assert counts == {"certify": 40, "shift_needed": 40, "breakdowns": 0}


class TestArdyCheck:
    def test_constants_are_multipliers(self):
        assert ardy_multiplier_check([5.0])
        assert ardy_multiplier_check([0.0])
        assert ardy_multiplier_check([3.0, 0.0, 0.0])  # trailing zeros trimmed

    def test_coordinate_is_not(self):
        assert not ardy_multiplier_check([0.0, 1.0])

    def test_cubic_is_not(self):
        assert not ardy_multiplier_check([0.0, -2.0, 0.0, 1.0])

    def test_exhaustive_over_degree(self):
        rng = np.random.default_rng(5)
        for degree in range(6):
            for _ in range(10):
                coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
                while coeffs[-1] == 0:
                    coeffs[-1] = rng.normal()
                assert ardy_multiplier_check(coeffs) == (degree == 0)


class TestPickProblemJson:
    def test_roundtrip(self):
        problem = PickProblem([0.1, 0.2 + 0.3j], [1.0, -0.5j], bound=2.0)
        again = PickProblem.from_json(problem.to_json())
        assert np.array_equal(problem.nodes, again.nodes)
        assert np.array_equal(problem.values, again.values)
        assert again.bound == 2.0
