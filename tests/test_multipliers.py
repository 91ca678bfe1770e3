import itertools

import mpmath
import numpy as np
import pytest

from funcspace import kernels, multipliers
from funcspace.errors import DegenerateGram, Overflow, SymbolNotContractive, ValidationError
from funcspace.geometry import EuclideanPointSet
from funcspace.kernels import (
    UNIT_ROUNDOFF,
    ball,
    constant,
    compose,
    coordinate,
    fn_scale,
    geom,
    gram,
    hadamard,
    kernel_sum,
    mirror_upper,
    moebius,
    pencil_norms,
    polynomial,
    psd_check,
    rank_one,
    szego,
    szego_section,
)
from funcspace.multipliers import (
    CONDITION_LIMIT,
    FEASIBLE_TOL,
    MAX_BOUNDARY_GRID,
    MultNormReport,
    certify_unit_sup,
    contraction_check,
    kl_monotonicity_check,
    sampled_mult_norm,
    von_neumann_check,
)
from helpers import disk_sample

S2 = EuclideanPointSet([[0.0], [0.5]])


def _agreement_cases():
    """The samples and symbols of ``test_methods_agree``, drawn in the same order."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        S = disk_sample(rng, int(rng.integers(2, 8)), radius=0.6, min_sep=0.12)
        w = fn_scale(rng.uniform(0.2, 2.0), moebius(complex(*rng.uniform(-0.5, 0.5, 2))))
        yield S, w


class TestContractionCheck:
    def test_unimodular_constant_gives_zero_matrix(self):
        rng = np.random.default_rng(0)
        S = disk_sample(rng, 5)
        report = contraction_check(szego(), polynomial([1.0]), S)
        assert report.is_psd
        assert report.min_eigenvalue == 0.0
        assert report.max_abs_eigenvalue == 0.0

    def test_coordinate_on_szego_passes(self):
        rng = np.random.default_rng(1)
        S = disk_sample(rng, 8)
        assert contraction_check(szego(), coordinate(0), S).is_psd

    def test_doubled_coordinate_fails_on_diagonal(self):
        S = EuclideanPointSet([[0.1], [0.7]])  # |2 * 0.7| > 1
        report = contraction_check(szego(), fn_scale(2.0, coordinate(0)), S)
        assert not report.is_psd

    def test_overflow_is_reported_as_overflow(self):
        # w conj(w) overflows; the NaN it leaves used to read as NotHermitian
        with pytest.raises(Overflow):
            contraction_check(szego(), fn_scale(1e200, coordinate(0)), S2)

    def test_consistency_with_sampled_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            S = disk_sample(rng, int(rng.integers(2, 7)), min_sep=0.05)
            w = fn_scale(rng.uniform(0.3, 1.6), moebius(complex(*rng.uniform(-0.5, 0.5, 2))))
            passes = contraction_check(szego(), w, S).is_psd
            norm = sampled_mult_norm(szego(), szego(), w, S).sampled_norm
            if passes:
                assert norm <= 1.0 + 1e-8
            else:
                assert norm > 1.0 - 1e-8


class TestSampledMultNorm:
    def test_coordinate_two_point_closed_form(self):
        for method in ("pencil", "bisection"):
            report = sampled_mult_norm(szego(), szego(), coordinate(0), S2, method=method)
            assert report.sampled_norm == pytest.approx(1.0, abs=1e-9)
            assert report.method == method

    def test_constant_symbol_exact(self):
        rng = np.random.default_rng(3)
        S = disk_sample(rng, 5, min_sep=0.05)
        c = 0.75 - 0.5j
        report = sampled_mult_norm(szego(), szego(), polynomial([c]), S, method="bisection")
        assert report.sampled_norm == pytest.approx(abs(c), rel=5e-16)
        pencil = sampled_mult_norm(szego(), szego(), polynomial([c]), S, method="pencil")
        assert pencil.sampled_norm == pytest.approx(abs(c), rel=1e-12)

    def test_two_kernel_section_bound(self):
        # multiplication by a kernel slice maps into the product space with
        # norm sqrt of the slice's diagonal value; samples can only undershoot
        rng = np.random.default_rng(4)
        z0 = 0.3
        w = szego_section(z0)
        bound = np.sqrt(1.0 / (1.0 - z0 * z0))
        for _ in range(10):
            S = disk_sample(rng, int(rng.integers(2, 8)), min_sep=0.05)
            report = sampled_mult_norm(szego(), hadamard(szego(), szego()), w, S)
            assert report.sampled_norm <= bound + 1e-9

    def test_degenerate_sample_rejected(self):
        S = EuclideanPointSet([[0.3], [0.3]])
        with pytest.raises(DegenerateGram):
            sampled_mult_norm(szego(), szego(), coordinate(0), S)

    def test_methods_agree(self):
        rng = np.random.default_rng(5)
        tol = 1e-9
        for _ in range(100):
            S = disk_sample(rng, int(rng.integers(2, 8)), radius=0.6, min_sep=0.12)
            w = fn_scale(
                rng.uniform(0.2, 2.0), moebius(complex(*rng.uniform(-0.5, 0.5, 2)))
            )
            a = sampled_mult_norm(szego(), szego(), w, S, method="pencil")
            b = sampled_mult_norm(szego(), szego(), w, S, method="bisection")
            assert abs(a.sampled_norm - b.sampled_norm) <= 10 * tol

    def test_monotone_under_sample_refinement(self):
        rng = np.random.default_rng(6)
        tol = 1e-9
        for _ in range(20):
            pts = disk_sample(rng, 8, radius=0.6, min_sep=0.1).points
            w = moebius(complex(*rng.uniform(-0.5, 0.5, 2)))
            sub = EuclideanPointSet(pts[:4])
            full = EuclideanPointSet(pts)
            small = sampled_mult_norm(szego(), szego(), w, sub).sampled_norm
            big = sampled_mult_norm(szego(), szego(), w, full).sampled_norm
            assert small <= big + tol

    def test_diagonal_lower_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            S = disk_sample(rng, int(rng.integers(2, 8)), min_sep=0.05)
            w = polynomial([0.2, 0.5, -0.3])
            K_F, K_E = szego(), hadamard(szego(), szego())
            report = sampled_mult_norm(K_F, K_E, w, S)
            vals = np.abs(w.eval_points(S.points))
            diag = [
                v * np.sqrt(
                    (1 / (1 - abs(z[0]) ** 2)) / (1 / (1 - abs(z[0]) ** 2)) ** 2
                )
                for v, z in zip(vals, S.points)
            ]
            assert report.sampled_norm >= max(diag) - 1e-9

    def test_sup_lower_bound_same_kernel(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            S = disk_sample(rng, int(rng.integers(2, 9)), min_sep=0.05)
            w = moebius(complex(*rng.uniform(-0.6, 0.6, 2)))
            report = sampled_mult_norm(szego(), szego(), w, S)
            assert report.lower_bound_sup <= report.sampled_norm + 1e-9

    def test_report_json_fields(self):
        report = sampled_mult_norm(szego(), szego(), coordinate(0), S2)
        obj = report.to_json()
        assert set(obj) == {"sampled_norm", "lower_bound_sup", "method", "semantics"}
        assert obj["semantics"] == "finite-sample lower estimate"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            sampled_mult_norm(szego(), szego(), coordinate(0), S2, method="newton")


class TestBisectionEndpoint:
    def test_pencil_value_where_diagonal_bound_fails(self):
        solves = 0
        for S, w in _agreement_cases():
            pencil = sampled_mult_norm(szego(), szego(), w, S, method="pencil")
            endpoint = sampled_mult_norm(szego(), szego(), w, S, method="bisection")
            # with one kernel the diagonal bound is exactly max |w| on the sample
            if endpoint.sampled_norm != endpoint.lower_bound_sup:
                solves += 1
                assert endpoint.sampled_norm == pencil.sampled_norm
        assert solves >= 50

    def test_at_most_two_feasibility_tests(self, monkeypatch):
        """Each bisection op runs at most one shifted-Cholesky proof and at
        most two eigensolves, each at FEASIBLE_TOL; a proof passes only where
        ``psd_check`` at FEASIBLE_TOL would, and every report is the
        eigensolve's."""
        shift_needed, proofs, tolerances = multipliers._shift_needed, [], []

        def spied_shift_needed(P, shift, radius):
            needed = shift_needed(P, shift, radius)
            n, s = P.shape[-1], max(1.0, float(np.abs(P[0].diagonal().real).max()))
            budget = (FEASIBLE_TOL - (n * n + 2) * UNIT_ROUNDOFF) * s  # the threshold sampled_mult_norm compares
            proofs.append(bool(shift[0] - needed[0] > -budget))
            assert not proofs[-1] or psd_check(P[0], tol=FEASIBLE_TOL).is_psd
            return needed

        def spied_psd_check(M, tol):
            tolerances.append(tol)
            return psd_check(M, tol=tol)

        proven = 0
        for S, w in itertools.islice(_agreement_cases(), 20):
            expected = _outcome(_eigensolve_mult_norm, szego(), szego(), w, S, "bisection")
            monkeypatch.setattr(multipliers, "_shift_needed", spied_shift_needed)
            monkeypatch.setattr(multipliers, "psd_check", spied_psd_check)
            assert _outcome(sampled_mult_norm, szego(), szego(), w, S, "bisection") == expected
            monkeypatch.undo()
            assert len(proofs) <= 1 and len(tolerances) <= 2
            assert set(tolerances) <= {FEASIBLE_TOL}
            proven += sum(proofs)
            proofs.clear()
            tolerances.clear()
        assert proven >= 10

    def test_infeasible_pencil_value_raises(self, monkeypatch):
        solve = kernels._pencil_solve
        monkeypatch.setattr(multipliers, "_pencil_solve", lambda A, G: (0.99 * solve(A, G)[0],) + solve(A, G)[1:])
        # the diagonal bound 0.5 of z on {0, 0.5} is infeasible; the norm is 1
        with pytest.raises(DegenerateGram, match="not feasible"):
            sampled_mult_norm(szego(), szego(), coordinate(0), S2, method="bisection")


#: The kernel families of the benchmark's kernel-mult workload, each with the
#: kernel L its kl-check multiplies by, and a sample in the annulus it uses.
KERNEL_MULT_FAMILIES = {
    "szego": (szego(), szego()),
    "ball2": (ball(2), ball(2)),
    "geom-rank1": (geom(rank_one(coordinate(0))), szego()),
    "hadamard": (hadamard(szego(), kernel_sum(szego(), constant(1.0))), szego()),
}


def _annulus_sample(rng, n: int, dim: int) -> EuclideanPointSet:
    z = rng.uniform(0.88, 0.96, n) * np.exp(2j * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n)
    if dim == 1:
        return EuclideanPointSet(z[:, None])
    alpha, beta = rng.uniform(0, np.pi / 2, n), rng.uniform(0, 2 * np.pi, n)
    return EuclideanPointSet(np.stack([z * np.cos(alpha), z * np.sin(alpha) * np.exp(1j * beta)], axis=1))


class TestOneGramPerKernel:
    @pytest.mark.parametrize("family", KERNEL_MULT_FAMILIES.values(), ids=KERNEL_MULT_FAMILIES)
    def test_product_of_grams_is_the_hadamard_gram_bit_for_bit(self, family):
        K, L = family
        rng = np.random.default_rng(50)
        for n in (1, 16, 48):
            S = _annulus_sample(rng, n, 2 if K.op == "ball" else 1)
            product = gram(K, S) * gram(L, S)
            assert product.tobytes() == gram(hadamard(K, L), S).tobytes()

    def test_equal_kernels_share_one_gram(self):
        K, K2 = hadamard(szego(), szego()), hadamard(szego(), szego())
        assert K2 == K and K2 is not K
        S = disk_sample(np.random.default_rng(51), 7, radius=0.6, min_sep=0.1)
        w = moebius(0.3 - 0.2j)
        values = w.eval_points(S.points)
        G_F, G_E = gram(K, S), gram(K2, S)
        A = mirror_upper((values[:, None] * G_F) * np.conj(values[None, :]))
        assert sampled_mult_norm(K, K2, w, S).sampled_norm == float(pencil_norms(A[None], G_E)[0])

    @pytest.mark.parametrize("family", KERNEL_MULT_FAMILIES.values(), ids=KERNEL_MULT_FAMILIES)
    def test_kl_check_builds_one_gram_per_distinct_kernel(self, family, monkeypatch):
        K, L = family
        S = _annulus_sample(np.random.default_rng(52), 16, 2 if K.op == "ball" else 1)
        w = fn_scale(0.9, coordinate(0))
        expected = (contraction_check(K, w, S), contraction_check(hadamard(K, L), w, S))
        built = []
        monkeypatch.setattr(multipliers, "gram", lambda K, S: built.append(K) or gram(K, S))
        report = kl_monotonicity_check(K, L, w, S)
        assert built == ([K] if L == K else [K, L])
        assert (report.on_K, report.on_KL) == expected


def _eigensolve_mult_norm(K_F, K_E, w, sample, method):
    """``sampled_mult_norm`` as it was decided by eigensolves alone: an
    ``eigvalsh`` gate on Gram(K_E), then ``psd_check`` for each bisection test."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = w.eval_points(sample.points)
        sup = float(np.abs(values).max())
    G_F = multipliers._gram_of("K_F", K_F, sample)
    G_E = G_F if K_E == K_F else multipliers._gram_of("K_E", K_E, sample)
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
    t_lo = multipliers._diag_lower_bound(values, G_F, G_E)
    if psd_check(t_lo * t_lo * G_E - A, tol=FEASIBLE_TOL).is_psd:
        t = t_lo
    elif not psd_check(t * t * G_E - A, tol=FEASIBLE_TOL).is_psd:
        raise DegenerateGram(f"the pencil value {t!r} is not feasible at tol {FEASIBLE_TOL:g}; perturb the sample")
    return MultNormReport(sup, t, "bisection")


def _outcome(solve, *args):
    try:
        return solve(*args)
    except (DegenerateGram, Overflow) as exc:
        return type(exc), str(exc)


def _clustered_sample(rng, n: int, spread: float) -> EuclideanPointSet:
    centre = complex(*rng.uniform(-0.4, 0.4, 2))
    return EuclideanPointSet((centre + spread * (rng.normal(size=n) + 1j * rng.normal(size=n)))[:, None])


class TestVerdictsMatchTheEigensolve:
    """The gate and the bisection tests read the pencil's factor where it
    decides them; every report and every error stays the eigensolve's."""

    def _same(self, K, w, S):
        for method in ("pencil", "bisection"):
            expected = _outcome(_eigensolve_mult_norm, K, K, w, S, method)
            assert _outcome(sampled_mult_norm, K, K, w, S, method) == expected
        return expected

    @pytest.mark.parametrize("family", KERNEL_MULT_FAMILIES.values(), ids=KERNEL_MULT_FAMILIES)
    def test_kernel_mult_families(self, family, monkeypatch):
        K = family[0]
        dim = 2 if K.op == "ball" else 1
        rng = np.random.default_rng(60)
        eigvalsh, eigensolves = np.linalg.eigvalsh, []
        for n in (1, 2, 16, 48):
            S = _annulus_sample(rng, n, dim)
            for w in (moebius(0.5 - 0.3j), polynomial([0.2, 0.5 - 0.1j, -0.3j])):
                w = compose(w, coordinate(0)) if dim == 2 else w
                for method in ("pencil", "bisection"):
                    expected = _eigensolve_mult_norm(K, K, w, S, method)
                    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: eigensolves.append(M) or eigvalsh(M))
                    assert sampled_mult_norm(K, K, w, S, method=method) == expected
                    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
                    # the pencil's own eigensolve alone; one point leaves no gap below its value
                    assert n == 1 or len(eigensolves) == 1, (n, method)
                    eigensolves.clear()

    def test_constant_and_coordinate_symbols(self):
        rng = np.random.default_rng(61)
        for n in (1, 2, 5, 12):
            S = disk_sample(rng, n, radius=0.7, min_sep=0.1)
            for w in (polynomial([0.7]), polynomial([0.75 - 0.5j]), coordinate(0)):
                assert isinstance(self._same(szego(), w, S), MultNormReport)

    def test_clustered_samples_straddle_the_condition_limit(self):
        rng = np.random.default_rng(62)
        kinds = set()
        for spread in np.geomspace(1e-1, 1e-5, 30):
            S = _clustered_sample(rng, int(rng.integers(3, 7)), spread)
            for w in (moebius(0.3 + 0.1j), polynomial([0.7])):
                kinds.add(type(self._same(szego(), w, S)))
        assert kinds == {MultNormReport, tuple}

    def test_errors_keep_their_order(self):
        repeated = EuclideanPointSet([[0.3], [0.3]])
        assert self._same(szego(), coordinate(0), repeated)[1].startswith("Gram(K_E) condition exceeds")
        huge = fn_scale(1e200, coordinate(0))
        assert self._same(szego(), huge, S2) == (Overflow, "the pencil matrix overflows float64")
        # the gate's error still comes before the overflow of the pencil matrix
        assert self._same(szego(), huge, repeated)[1].startswith("Gram(K_E) condition exceeds")


class TestKlMonotonicity:
    def test_reports_both_contraction_verdicts(self):
        rng = np.random.default_rng(12)
        for w in (moebius(0.3), fn_scale(3.0, coordinate(0))):
            S = disk_sample(rng, 5)
            L = rank_one(moebius(0.2j))
            report = kl_monotonicity_check(szego(), L, w, S)
            assert report.on_K == contraction_check(szego(), w, S)
            assert report.on_KL == contraction_check(hadamard(szego(), L), w, S)
            assert report.holds == (not report.on_K.is_psd or report.on_KL.is_psd)

    def test_schur_implication_for_szego_factor(self):
        rng = np.random.default_rng(9)
        S = disk_sample(rng, 6)
        w = moebius(0.3)
        assert contraction_check(szego(), w, S).is_psd
        assert kl_monotonicity_check(szego(), szego(), w, S).holds

    def test_trivial_symbol(self):
        rng = np.random.default_rng(10)
        S = disk_sample(rng, 4)
        assert kl_monotonicity_check(szego(), szego(), polynomial([1.0]), S).holds

    def test_randomized_sweep_has_no_counterexample(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            S = disk_sample(rng, int(rng.integers(2, 11)))
            w = moebius(complex(*rng.uniform(-0.6, 0.6, 2)))
            L = szego() if rng.integers(2) else rank_one(moebius(complex(*rng.uniform(-0.4, 0.4, 2))))
            assert kl_monotonicity_check(szego(), L, w, S).holds

    def test_vacuous_when_premise_fails(self):
        S = EuclideanPointSet([[0.1], [0.7]])
        w = fn_scale(3.0, coordinate(0))
        assert not contraction_check(szego(), w, S).is_psd
        assert kl_monotonicity_check(szego(), szego(), w, S).holds


class TestVonNeumann:
    def test_identity_polynomial(self):
        report = von_neumann_check(coordinate(0), [0.0, 1.0], S2)
        assert report.lhs <= 1.0 + 1e-9
        assert report.rhs == pytest.approx(1.0, abs=2e-3)
        assert report.passed

    def test_constant_polynomial(self):
        rng = np.random.default_rng(12)
        S = disk_sample(rng, 4, min_sep=0.05)
        report = von_neumann_check(moebius(0.2), [0.5 + 0.1j], S)
        assert report.lhs == pytest.approx(abs(0.5 + 0.1j), rel=1e-10)
        assert report.rhs == pytest.approx(abs(0.5 + 0.1j), rel=1e-15)
        assert report.passed

    def test_moebius_with_quadratic(self):
        rng = np.random.default_rng(13)
        p = [0.0, -0.5, 1.0]  # w^2 - w/2
        for _ in range(50):
            S = disk_sample(rng, int(rng.integers(2, 11)), min_sep=0.03)
            report = von_neumann_check(moebius(0.4), p, S)
            assert report.passed

    def test_uncertifiable_symbol_rejected(self):
        with pytest.raises(SymbolNotContractive):
            von_neumann_check(polynomial([0.0, 2.0]), [0.0, 1.0], S2)
        with pytest.raises(SymbolNotContractive):
            von_neumann_check(fn_scale(1.0, coordinate(0)), [1.0], S2)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValidationError, match="tolerance must be positive and finite"):
            von_neumann_check(coordinate(0), [0.0, 3.0], S2, tol=tol)

    def test_boundary_grid_cap(self):
        assert certify_unit_sup(polynomial([0.2, 0.3]), MAX_BOUNDARY_GRID) <= 1.0
        assert von_neumann_check(moebius(0.4), [0.0, 1.0], S2, boundary_grid=MAX_BOUNDARY_GRID).passed
        with pytest.raises(ValidationError, match="boundary grid"):
            certify_unit_sup(polynomial([0.2, 0.3]), MAX_BOUNDARY_GRID + 1)
        with pytest.raises(ValidationError, match="boundary grid"):
            von_neumann_check(moebius(0.4), [0.0, 1.0], S2, boundary_grid=MAX_BOUNDARY_GRID + 1)

    def test_certificate_values(self):
        assert certify_unit_sup(moebius(0.9j)) == 1.0
        assert certify_unit_sup(coordinate(0)) == 1.0
        # a comfortably small polynomial certifies below 1
        assert certify_unit_sup(polynomial([0.2, 0.3])) <= 1.0

    @pytest.mark.parametrize(
        "coeffs", [[1, 1e-16], [1, 1e-17], [1, 1e-300], [1 + 1e-9j]], ids=["1e-16", "1e-17", "1e-300", "modulus"]
    )
    def test_sup_just_above_one_is_not_certified(self, coeffs):
        """The exact sup exceeds 1 by less than the grid's float maximum shows:
        by Horner's rounding, or, for the constant, by the rounding of |c|."""
        with mpmath.workdps(400):
            exact = max(abs(mpmath.polyval([mpmath.mpc(c) for c in reversed(coeffs)], z)) for z in (1, -1, 1j, -1j))
            assert exact > 1
        with pytest.raises(SymbolNotContractive, match="exceeds 1"):
            certify_unit_sup(polynomial(coeffs))

    def test_unrounded_evaluation_certifies_at_its_value(self):
        assert certify_unit_sup(polynomial([1.0])) == 1.0
        assert certify_unit_sup(polynomial([-0.5j])) == 0.5

    def test_circle_bound_covers_the_sup_between_grid_points(self):
        """The bound is at least |p| at points between the float grid points,
        evaluated in 50 digits, including where the sup lies between them."""
        grid = 64
        rng = np.random.default_rng(3)
        cases = [[0.5, 0.5 * np.exp(-1j * np.pi / grid)], [0.0, 0.0, 0.0, 1.0], [1.0, 1e-16]]
        cases += [list(rng.normal(size=n) + 1j * rng.normal(size=n)) for n in (2, 5, 9)]
        for coeffs in cases:
            bound = multipliers._circle_sup_bound(np.asarray(coeffs, dtype=complex), grid)
            with mpmath.workdps(50):
                values = [mpmath.polyval([mpmath.mpc(c) for c in reversed(coeffs)], mpmath.expjpi(mpmath.mpf(k) / (8 * grid)))
                          for k in range(16 * grid)]
                assert bound >= max(map(abs, values))
