import itertools
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from funcspace import hardy_pick, kernels, multipliers
from funcspace.errors import DegenerateGram, GeomDiverges, NotHermitian, OutOfDomain, Overflow, ValidationError
from funcspace.geometry import EuclideanPointSet
from funcspace.kernels import (
    _cholesky_each,
    _perron_bound,
    ball,
    certify_pencil_norms,
    compose,
    constant,
    coordinate,
    exponential,
    fn_from_json,
    fn_product,
    fn_scale,
    fn_sum,
    fn_to_json,
    gamma,
    geom,
    gram,
    hadamard,
    hermitian_from_upper,
    inside_unit_ball,
    kernel_eval,
    kernel_from_json,
    kernel_sum,
    kernel_to_json,
    lower_inverse,
    mirror_upper,
    moebius,
    one_minus_norm2,
    pencil_norms,
    polynomial,
    psd_check,
    rank_one,
    scale,
    schur_product_check,
    szego,
    szego_section,
)
from funcspace.kernels import UNIT_ROUNDOFF, multiplier_gram
from funcspace.hardy_pick import carleson_seq, pick_solve, separability_probe
from helpers import ball2_sample, disk_sample


def principal_minors_psd(entries: np.ndarray, tol: float) -> bool:
    """Independent PSD oracle for small Hermitian matrices: every principal
    minor (all index subsets, not only leading) must be >= -tol."""
    n = entries.shape[0]
    for size in range(1, n + 1):
        for idx in itertools.combinations(range(n), size):
            sub = entries[np.ix_(idx, idx)]
            if np.linalg.det(sub).real < -tol:
                return False
    return True


class TestClosedFormFunctions:
    def test_coordinate(self):
        assert coordinate(1)(np.array([2.0, 5.0 + 1j])) == 5.0 + 1j

    def test_coordinate_out_of_range(self):
        with pytest.raises(OutOfDomain):
            coordinate(3)(np.array([1.0]))

    def test_polynomial_eval(self):
        p = polynomial([1, 0, 2])  # 1 + 2 z^2
        assert p(np.array([2.0 + 0j])) == 9.0

    def test_moebius_is_disk_automorphism(self):
        m = moebius(0.4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = complex(*rng.uniform(-0.7, 0.7, 2))
            if abs(z) >= 1:
                continue
            assert abs(m(np.array([z]))) < 1.0

    def test_moebius_parameter_validated(self):
        with pytest.raises(ValidationError):
            moebius(1.0)

    def test_disk_parameters_are_decided_exactly(self):
        """A Moebius parameter is accepted wherever it would be a sample point or
        a Pick node: inside the disk though abs() rounds it to 1.  A Szego anchor
        there is refused, since the section's construction cancels to noise."""
        a = -0.6520162635843662 - 0.7582049802141122j
        assert abs(a) == 1.0 and 0.0 < one_minus_norm2([a])[0] and inside_unit_ball([a])[0]
        m = moebius(a)
        assert m.a == a
        x = 0.5 + 0.25j
        assert m(np.array([x])) == pytest.approx((x - a) / (1.0 - np.conj(a) * x), rel=1e-13)
        assert abs(1j) == 1.0 and one_minus_norm2([1j])[0] == 0.0
        with pytest.raises(ValidationError, match=r"^moebius parameter must satisfy \|a\| < 1, got \|1j\| = 1.0$"):
            moebius(1j)
        for anchor in (a, 1j):
            with pytest.raises(ValidationError, match="^anchor must lie in the open unit disk$"):
                szego_section(anchor)

    def test_compose_product_sum_scale(self):
        f = compose(polynomial([0, 1, 1]), coordinate(0))  # z + z^2
        z = 0.3 + 0.1j
        assert f(np.array([z])) == pytest.approx(z + z * z)
        g = fn_product(coordinate(0), coordinate(0))
        assert g(np.array([z])) == pytest.approx(z * z)
        h = fn_sum(coordinate(0), fn_scale(2.0, exponential()))
        assert h(np.array([z])) == pytest.approx(z + 2 * np.exp(z))

    def test_scalar_kind_rejects_vectors(self):
        with pytest.raises(OutOfDomain):
            exponential()(np.array([1.0, 2.0]))

    def test_szego_section_matches_slice(self):
        rng = np.random.default_rng(1)
        for z0 in (0.3, 0.5 - 0.2j, 0.0):
            sec = szego_section(z0)
            for _ in range(10):
                z = complex(*rng.uniform(-0.6, 0.6, 2))
                assert sec(np.array([z])) == pytest.approx(1.0 / (1.0 - z * np.conj(z0)), rel=1e-13)


class TestKernelEval:
    def test_szego_half(self):
        assert kernel_eval(szego(), 0.5, 0.5) == 4.0 / 3.0

    def test_szego_left_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            w = complex(*rng.uniform(-0.6, 0.6, 2))
            assert kernel_eval(szego(), 0.0, w) == 1.0

    def test_szego_boundary_rejected(self):
        with pytest.raises(OutOfDomain):
            kernel_eval(szego(), 1.0, 0.0)

    def test_ball_dimension_checked(self):
        with pytest.raises(OutOfDomain):
            kernel_eval(ball(2), np.array([0.1]), np.array([0.1]))

    def test_ball_boundary_rejected(self):
        # norm exactly 1 sits on the sphere, outside the open ball
        x = np.array([0.6, 0.8], dtype=complex)
        with pytest.raises(OutOfDomain):
            kernel_eval(ball(2), x, np.array([0.1, 0.1]))

    def test_ball_interior_value(self):
        x = np.array([0.5, 0.5], dtype=complex)
        assert kernel_eval(ball(2), x, x) == 2.0

    def test_geom_of_coordinate_is_szego(self):
        K = geom(rank_one(coordinate(0)))
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = complex(*rng.uniform(-0.6, 0.6, 2))
            w = complex(*rng.uniform(-0.6, 0.6, 2))
            assert kernel_eval(K, z, w) == pytest.approx(kernel_eval(szego(), z, w), rel=1e-14)

    def test_geom_divergence(self):
        K = geom(rank_one(polynomial([2.0])))
        with pytest.raises(GeomDiverges):
            kernel_eval(K, 0.1, 0.1)

    def test_geom_converges_where_abs_rounds_to_one(self):
        # np.abs reads the block entry x1 conj(x0) as 1.0, but 1 - |x1 conj(x0)|^2 is +3.9e-16
        x0 = -0.17519673956783935 + 0.984533444045858j
        x1 = 0.7389298566687823 - 0.6737823587208651j
        v = x1 * np.conj(x0)
        assert one_minus_norm2([v])[0] > 0.0
        assert kernel_eval(geom(rank_one(coordinate(0))), x1, x0) == pytest.approx(1.0 / (1.0 - v), rel=1e-15)
        with pytest.raises(GeomDiverges):
            kernel_eval(geom(scale(1.0 + 2.0**-52, rank_one(coordinate(0)))), x1, x0)

    def test_constant_negative_rejected(self):
        with pytest.raises(ValidationError):
            constant(-1.0)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValidationError):
            scale(0.0, szego())


#: Points with exact ``||z||^2 >= 1`` that the float norm rounds below 1.
MISREAD_OUTSIDE = {
    "szego": [-0.8791761901422928 + 0.4764968275727375j],
    "szego-found": [-0.40700311749865054 - 0.9134267690112764j],
    "ball2": [-0.42650118953805655 - 0.5905240438271713j, 0.28790281613429075 + 0.6216832452676948j],
}


def exact_one_minus_norm2(p) -> Fraction:
    return 1 - sum(Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in p)


class TestUnitBallMembership:
    @pytest.mark.parametrize("point", MISREAD_OUTSIDE.values(), ids=MISREAD_OUTSIDE)
    def test_misread_points_are_outside(self, point):
        p = np.array(point)
        assert exact_one_minus_norm2(p) <= 0 and (np.abs(p) ** 2).sum() < 1.0
        assert not inside_unit_ball(p[None, :])[0]
        K = szego() if p.size == 1 else ball(2)
        with pytest.raises(OutOfDomain):
            kernel_eval(K, p, p)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_agrees_with_exact_arithmetic_near_the_sphere(self, dim):
        rng = np.random.default_rng(40 + dim)
        P = rng.normal(size=(3000, dim)) + 1j * rng.normal(size=(3000, dim))
        P /= np.sqrt((np.abs(P) ** 2).sum(axis=1))[:, None]
        P[::3] *= 1.0 - 2.0**-50  # just inside, in exact arithmetic or not
        P[1::3] *= rng.uniform(0.0, 1.5, size=(1000, 1))  # far from the sphere, both sides
        expected = [exact_one_minus_norm2(p) > 0 for p in P]
        assert inside_unit_ball(P).tolist() == expected

    def test_non_finite_points_are_outside(self):
        P = np.array([[np.nan], [np.inf], [1j * np.inf], [0.5]])
        assert inside_unit_ball(P).tolist() == [False, False, False, True]

    def test_plane_points_take_the_band_of_the_summed_squares(self, monkeypatch):
        """In C^1 the squares are added without a sum over an axis of length
        1; the float ``|z|^2 - 1`` keeps its bits, so the same points go to
        the exact test and every verdict stays."""

        def by_sum(P):
            P = np.asarray(P, dtype=complex).reshape(-1, 1)
            excess = (P.real * P.real + P.imag * P.imag).sum(axis=1) - 1.0
            near = np.abs(excess) <= 8 * (P.shape[1] + 1) * UNIT_ROUNDOFF
            if near.any():
                excess[near] = -kernels.one_minus_norm2(P[near])
            return excess < 0.0

        rng = np.random.default_rng(45)
        angles = rng.uniform(0.0, 2.0 * np.pi, 400)
        up, down = np.nextafter(1.0, np.inf), np.nextafter(1.0, -np.inf)
        z = np.concatenate([
            np.sqrt(rng.uniform(0.0, 1.0, 400)) * np.exp(1j * angles),  # random, inside
            rng.uniform(0.0, 2.0, 400) * np.exp(1j * angles),  # both sides
            np.cos(angles) + 1j * np.sin(angles),  # in the band around the circle
            (np.cos(angles) + 1j * np.sin(angles)) * down,
            (1.0 + rng.integers(-40, 41, 400) * 2.0**-53) * np.exp(1j * angles),  # across the band's edges
            1.0 + np.arange(-20, 21) * 2.0**-53,
            [1.0, -1.0, 1j, -1j, up, -up, 1j * up, down, -down, 1j * down, -1j * down],
            [complex(down, 2.0**-27), complex(2.0**-27, down), complex(up, 0.0), 0.0, -0.0, 5e-324],
            [np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, 0.5)],
        ])
        sent = []
        exact = kernels.one_minus_norm2
        monkeypatch.setattr(kernels, "one_minus_norm2", lambda P: sent.append(np.array(P)) or exact(P))
        for points in (z, z[:, None], z[::3]):
            sent.clear()
            got = inside_unit_ball(points)
            sent_new = sent[:]
            sent.clear()
            assert got.tolist() == by_sum(points).tolist()
            assert [p.tobytes() for p in sent_new] == [p.tobytes() for p in sent]
            assert len(sent[0]) > len(points) // 4  # the band was exercised

    def test_one_minus_norm2_correctly_rounded_in_c2(self):
        rng = np.random.default_rng(44)
        P = rng.uniform(-0.7, 0.7, size=(200, 2)) + 1j * rng.uniform(-0.7, 0.7, size=(200, 2))
        P[:50] /= np.sqrt((np.abs(P[:50]) ** 2).sum(axis=1))[:, None] * (1 + 2.0**-52)
        got = one_minus_norm2(P)
        assert got.tolist() == [float(exact_one_minus_norm2(p)) for p in P]


class TestGram:
    def test_constant_all_ones(self):
        S = EuclideanPointSet([[0.0], [0.1], [0.2]])
        g = gram(constant(1.0), S)
        assert np.array_equal(g, np.ones((3, 3), dtype=complex))

    def test_szego_two_points(self):
        S = EuclideanPointSet([[0.0], [0.5]])
        g = gram(szego(), S)
        assert np.array_equal(g, np.array([[1.0, 1.0], [1.0, 4.0 / 3.0]], dtype=complex))

    def test_rank_one_gram_has_rank_one(self):
        rng = np.random.default_rng(5)
        S = disk_sample(rng, 6)
        g = gram(rank_one(moebius(0.3 + 0.2j)), S)
        assert np.linalg.matrix_rank(g, tol=1e-10) <= 1

    def test_hermitian_exact(self):
        rng = np.random.default_rng(6)
        S = disk_sample(rng, 7)
        g = gram(hadamard(szego(), geom(rank_one(moebius(0.2)))), S)
        assert np.array_equal(g, g.conj().T)
        assert not g.flags.writeable

    def test_error_identifies_entry(self):
        S = EuclideanPointSet([[0.0], [0.5]])
        with pytest.raises(GeomDiverges, match=r"gram entry"):
            gram(geom(constant(1.0)), S)

    def test_overflow_raises_without_warnings(self):
        S = EuclideanPointSet([[0.1], [0.2]])
        huge = scale(1e308, scale(1e308, szego()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow, match="the Gram matrix overflows float64"):
                gram(huge, S)
            with pytest.raises(Overflow, match="the kernel block overflows float64"):
                kernels.kernel_block(huge, S.points, S.points)


class TestPsdCheck:
    def test_scalar_nonnegative(self):
        assert psd_check(np.array([[1.0 + 0j]])).is_psd

    def test_swap_matrix_not_psd(self):
        report = psd_check(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        assert not report.is_psd
        assert report.min_eigenvalue == pytest.approx(-1.0)

    def test_szego_gram_psd(self):
        S = EuclideanPointSet([[0.0], [0.5]])
        assert psd_check(gram(szego(), S)).is_psd

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            psd_check(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex))

    @pytest.mark.parametrize("tol", [-1e-10, np.nan, np.inf])
    def test_tolerance_validated(self, tol):
        with pytest.raises(ValidationError, match="tolerance"):
            psd_check(np.eye(2), tol=tol)
        assert psd_check(np.eye(2), tol=0.0).is_psd

    def test_report_invariant(self):
        report = psd_check(np.array([[2.0, 0.0], [0.0, -1e-12]], dtype=complex), tol=1e-10)
        assert report.is_psd == (report.min_eigenvalue >= -report.tolerance_used * max(1.0, report.max_abs_eigenvalue))

    def test_agrees_with_principal_minors_oracle(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 40:
            n = int(rng.integers(1, 5))
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            if rng.integers(2):
                entries = raw @ raw.conj().T  # PSD by construction
            else:
                entries = raw + raw.conj().T  # Hermitian, often indefinite
            entries = 0.5 * (entries + entries.conj().T)
            entries = np.triu(entries) + np.triu(entries, 1).conj().T
            report = psd_check(entries, tol=1e-10)
            scale_ = max(1.0, report.max_abs_eigenvalue)
            if abs(report.min_eigenvalue) < 1e-8 * scale_:
                continue  # skip near-degenerate draws where verdicts may differ
            assert report.is_psd == principal_minors_psd(entries, 1e-8 * scale_**n)
            checked += 1


class TestSchurProduct:
    def test_szego_squared_psd(self):
        rng = np.random.default_rng(8)
        S = disk_sample(rng, 5)
        assert schur_product_check(szego(), szego(), S).is_psd

    def test_schur_of_passing_factors_passes(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            S = disk_sample(rng, int(rng.integers(2, 7)))
            K = geom(rank_one(moebius(complex(*rng.uniform(-0.5, 0.5, 2)))))
            L = kernel_sum(szego(), constant(float(rng.uniform(0, 2))))
            if psd_check(gram(K, S)).is_psd and psd_check(gram(L, S)).is_psd:
                assert schur_product_check(K, L, S).is_psd

    def test_identity_element(self):
        rng = np.random.default_rng(10)
        S = disk_sample(rng, 5)
        K = szego()
        assert np.array_equal(gram(hadamard(constant(1.0), K), S), gram(K, S))

    def test_rank_one_product_is_rank_one_of_product(self):
        rng = np.random.default_rng(11)
        S = disk_sample(rng, 6)
        w, eta = moebius(0.2), polynomial([0.1, 0.4])
        lhs = gram(hadamard(rank_one(w), rank_one(eta)), S)
        rhs = gram(rank_one(fn_product(w, eta)), S)
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-15)


def random_kernel(rng: np.random.Generator, depth: int = 2):
    """Random expression from the builder grammar, safe on the unit disk."""
    ops = ["szego", "constant", "rank1", "geom_rank1"] if depth == 0 else [
        "szego", "constant", "rank1", "geom_rank1", "sum", "scale", "hadamard"
    ]
    op = ops[rng.integers(len(ops))]
    if op == "szego":
        return szego()
    if op == "constant":
        return constant(float(rng.uniform(0, 2)))
    if op == "rank1":
        return rank_one(moebius(complex(*rng.uniform(-0.5, 0.5, 2))))
    if op == "geom_rank1":
        return geom(rank_one(moebius(complex(*rng.uniform(-0.5, 0.5, 2)))))
    if op == "sum":
        return kernel_sum(random_kernel(rng, depth - 1), random_kernel(rng, depth - 1))
    if op == "scale":
        return scale(float(rng.uniform(0.1, 3.0)), random_kernel(rng, depth - 1))
    return hadamard(random_kernel(rng, depth - 1), random_kernel(rng, depth - 1))


class TestConeAndSeriesProperties:
    def test_cone_property(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            S = disk_sample(rng, int(rng.integers(2, 13)))
            K = random_kernel(rng)
            L = random_kernel(rng)
            a, b = rng.uniform(0.1, 5.0, size=2)
            combo = kernel_sum(scale(float(a), K), scale(float(b), L))
            assert psd_check(gram(combo, S)).is_psd

    def test_geometric_series_partial_sums(self):
        rng = np.random.default_rng(13)
        S = disk_sample(rng, 6, radius=0.9)
        K = rank_one(moebius(0.3))  # |K| <= 0.9 on a 0.9-disk sample... verified below
        GK = gram(K, S)
        assert np.abs(GK).max() <= 0.9
        # N chosen so the geometric tail 0.9^(N+1)/0.1 is below 1e-10
        N = 1
        while 0.9 ** (N + 1) / 0.1 >= 1e-10:
            N += 1
        partial = np.zeros_like(GK)
        power = np.ones_like(GK)
        for _ in range(N + 1):
            partial = partial + power
            power = power * GK
        closed = gram(geom(K), S)
        assert np.abs(partial - closed).max() < 1e-9


class TestBallKernelIdentity:
    def test_identity_at_random_pairs(self):
        rng = np.random.default_rng(14)
        w1, w2 = coordinate(0), coordinate(1)
        L = hadamard(rank_one(w2), geom(rank_one(w1)))
        B = ball(2)
        for _ in range(50):
            x = ball2_sample(rng, 1).points[0]
            y = ball2_sample(rng, 1).points[0]
            lhs = (1 - w1(x) * np.conj(w1(y))) * kernel_eval(B, x, y)
            rhs = kernel_eval(geom(L), x, y)
            assert abs(lhs - rhs) < 1e-12

    def test_identity_at_half_half(self):
        x = np.array([0.5 + 0j, 0.5 + 0j])
        w1 = coordinate(0)
        lhs = (1 - w1(x) * np.conj(w1(x))) * kernel_eval(ball(2), x, x)
        L = hadamard(rank_one(coordinate(1)), geom(rank_one(w1)))
        rhs = kernel_eval(geom(L), x, x)
        assert lhs == 1.5
        assert abs(rhs - 1.5) < 1e-12


class TestKernelJson:
    def test_spec_grammar_example(self):
        obj = json.loads('{"op":"geom","arg":{"op":"rank1","fn":{"kind":"coordinate","index":0}}}')
        K = kernel_from_json(obj)
        assert K.op == "geom"
        assert kernel_eval(K, 0.5, 0.5) == pytest.approx(4.0 / 3.0)

    def test_roundtrip_all_ops(self):
        K = kernel_sum(
            scale(2.0, hadamard(szego(), ball(2))),
            geom(rank_one(compose(polynomial([0, 1]), moebius(0.1 + 0.2j)))),
            constant(0.5),
        )
        again = kernel_from_json(kernel_to_json(K))
        assert again == K

    def test_fn_roundtrip(self):
        f = fn_sum(fn_scale(1 - 2j, exponential()), fn_product(coordinate(0), moebius(0.5j)))
        assert fn_from_json(fn_to_json(f)) == f

    def test_bad_json_rejected(self):
        with pytest.raises(ValidationError):
            kernel_from_json({"op": "nope"})
        with pytest.raises(ValidationError):
            fn_from_json({"kind": "nope"})


def random_hermitian(rng, n, k=None):
    shape = (n, n) if k is None else (k, n, n)
    M = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return mirror_upper(M)


class TestMirrorUpper:
    def test_exactly_hermitian_with_upper_triangle_kept(self):
        rng = np.random.default_rng(40)
        M = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
        H = mirror_upper(M)
        assert np.array_equal(H, np.conj(np.swapaxes(H, -1, -2)))
        iu = np.triu_indices(5, k=1)
        assert np.array_equal(H[:, iu[0], iu[1]], M[:, iu[0], iu[1]])
        assert np.array_equal(np.diagonal(H, axis1=1, axis2=2), np.diagonal(M, axis1=1, axis2=2).real)

    def test_real_input_stays_real(self):
        H = mirror_upper(np.array([[1.0, 2.0], [5.0, 3.0]]))
        assert H.dtype == float
        assert np.array_equal(H, [[1.0, 2.0], [2.0, 3.0]])

    def test_hermitian_from_upper_reads_each_pair_once(self):
        M = np.random.default_rng(41).normal(size=(4, 4, 2)) @ [1.0, 1.0j]
        calls = []

        def entry(i, j):
            calls.append((i, j))
            return M[i, j]

        assert np.array_equal(hermitian_from_upper(entry, 4), mirror_upper(M))
        assert calls == [(i, j) for i in range(4) for j in range(i, 4)]


def mirror_upper_by_mask(M):
    """The mask formula that :func:`mirror_upper` reproduces bit for bit."""
    M = np.asarray(M)
    upper = np.triu(M, 1)
    out = upper + np.conj(np.swapaxes(upper, -1, -2))
    diag = np.arange(M.shape[-1])
    out[..., diag, diag] = M[..., diag, diag].real
    return out


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def with_mask_mirror(monkeypatch, call):
    """``call()`` with the mask formula bound as ``mirror_upper`` in every module that uses it."""
    with monkeypatch.context() as patch:
        for module in (kernels, hardy_pick, multipliers):
            patch.setattr(module, "mirror_upper", mirror_upper_by_mask)
        return call()


def outcome(call):
    """A call's value, or the type and message of the error it raised."""
    try:
        return call()
    except (DegenerateGram, Overflow) as exc:
        return type(exc), str(exc)


class TestMirrorUpperBits:
    SPECIALS = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf])

    def draw(self, rng, shape, complex_entries):
        parts = []
        for _ in range(2 if complex_entries else 1):
            values = rng.normal(size=shape)
            special = rng.uniform(size=shape) < 0.4
            values[special] = rng.choice(self.SPECIALS, size=int(special.sum()))
            parts.append(values)
        if not complex_entries:
            return parts[0]
        out = np.empty(shape, dtype=complex)
        out.real, out.imag = parts  # no arithmetic, so signed zeros and NaNs stay as drawn
        return out

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (9, 9), (48, 48), (3, 1, 1), (5, 7, 7), (0, 4, 4), (0, 1, 1)])
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_matches_the_mask_formula(self, shape, complex_entries):
        rng = np.random.default_rng(sum(shape) + 7 * complex_entries)
        for _ in range(10):
            M = self.draw(rng, shape, complex_entries)
            big = self.draw(rng, shape[:-2] + (2 * shape[-1], 3 * shape[-1]), complex_entries)
            # C-ordered, transposed, strided, and a view of a larger array's corner
            for X in (M, np.swapaxes(M, -1, -2), big[..., ::2, ::3], big[..., : shape[-1], 1 : shape[-1] + 1]):
                assert same_bits(mirror_upper(X), mirror_upper_by_mask(X))

    def test_pick_solve_is_unchanged(self, monkeypatch):
        rng = np.random.default_rng(46)
        for _ in range(200):
            m = int(rng.integers(2, 13))
            nodes = np.sqrt(rng.uniform(0.0, 0.9, m)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m))
            values = np.sqrt(rng.uniform(0.0, 1.0, m)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m))
            new = outcome(lambda: pick_solve(nodes, values))
            assert new == with_mask_mirror(monkeypatch, lambda: outcome(lambda: pick_solve(nodes, values)))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_separability_probe_is_unchanged(self, monkeypatch, m):
        for start in (0.0, 0.3):
            new = separability_probe(m, start=start)
            ref = with_mask_mirror(monkeypatch, lambda: separability_probe(m, start=start))
            assert new.pattern_norms == ref.pattern_norms and new.max_min_norm == ref.max_min_norm

    def test_gram_and_multiplier_gram_are_unchanged(self, monkeypatch):
        rng = np.random.default_rng(47)
        S = disk_sample(rng, 12)
        w = rng.normal(size=12) + 1j * rng.normal(size=12)
        for K in (szego(), geom(scale(0.5, szego())), kernel_sum(szego(), rank_one(moebius(0.3)))):
            new = gram(K, S)
            ref = with_mask_mirror(monkeypatch, lambda: gram(K, S))
            assert same_bits(new, ref)
            ref = with_mask_mirror(monkeypatch, lambda: multiplier_gram(2.0, w, new))
            assert same_bits(multiplier_gram(2.0, w, new), ref)


def lower_factors():
    """Complex Cholesky factors and graded real lower triangular matrices."""
    rng = np.random.default_rng(43)
    for n in (1, 8, 48):
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        yield np.linalg.cholesky(X @ X.conj().T + n * np.eye(n))
    for n in (24, 240):
        yield np.tril(rng.uniform(0.1, 1.0, size=(n, n))) * 2.0 ** -np.arange(n)


class TestLowerInverse:
    @pytest.mark.parametrize("L", lower_factors(), ids=lambda L: f"{L.dtype}-{len(L)}")
    def test_exactly_lower_with_componentwise_residual(self, L):
        n = len(L)
        X = lower_inverse(L)
        assert X.dtype == L.dtype
        assert np.all(np.triu(X, 1) == 0.0)
        # |X L - I| <= gamma_{2n} |X| |L|: gamma_n for the substitution, gamma_n more for the product
        assert np.all(np.abs(X @ L - np.eye(n)) <= gamma(2 * n) * (np.abs(X) @ np.abs(L)))

    @pytest.mark.parametrize("L", lower_factors(), ids=lambda L: f"{L.dtype}-{len(L)}")
    def test_matches_scipy_triangular_solve(self, L):
        n = len(L)
        X = lower_inverse(L)
        ref = scipy.linalg.solve_triangular(L, np.eye(n), lower=True)
        # each inverse is within gamma_n |L^-1| |L| |L^-1| of the exact one, to first order
        assert np.all(np.abs(X - ref) <= 2 * gamma(2 * n) * (np.abs(X) @ np.abs(L) @ np.abs(X)))


class TestPencilNorms:
    def test_batch_matches_scipy_pencil(self):
        rng = np.random.default_rng(41)
        for n in (1, 3, 8):
            X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            G = mirror_upper(X @ X.conj().T + n * np.eye(n))
            A = random_hermitian(rng, n, k=6)
            got = pencil_norms(A, G)
            for k in range(6):
                top = scipy.linalg.eigh(A[k], G, eigvals_only=True).max()
                assert got[k] == pytest.approx(np.sqrt(max(top, 0.0)), rel=1e-12, abs=1e-14)

    def test_singular_gram_rejected(self):
        G = np.ones((2, 2))
        with pytest.raises(DegenerateGram):
            pencil_norms(np.eye(2)[None], G)

    def test_overflowed_matrix_rejected(self):
        with pytest.raises(Overflow):
            pencil_norms(np.array([[[np.inf, 0.0], [0.0, 1.0]]]), np.eye(2))


class TestCertifyPencilNorms:
    def test_perron_bound_of_a_stack_is_each_bound(self):
        """A trial bounds its entry radius and ``|P|`` in one call on their stack."""
        rng = np.random.default_rng(48)
        for shape in [(1, 1, 1), (1, 2, 2), (1, 9, 9), (32, 5, 5), (64, 6, 6), (128, 7, 7), (3, 12, 12)]:
            radius = rng.uniform(size=shape) * 10.0 ** rng.integers(-300, 3, size=shape)
            modulus = np.abs(rng.normal(size=shape) + 1j * rng.normal(size=shape))
            both = _perron_bound(np.stack((radius, modulus)))
            assert same_bits(both[0], _perron_bound(radius)) and same_bits(both[1], _perron_bound(modulus))

    def test_cholesky_each_factors_around_a_breakdown(self):
        rng = np.random.default_rng(44)
        X = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
        S = X @ np.conj(np.swapaxes(X, -1, -2)) + np.eye(5)
        eig = np.linalg.eigvalsh(S[1])
        S[1] -= (eig[1] + eig[2]) / 2 * np.eye(5)  # indefinite
        L, ok = _cholesky_each(S)
        assert ok.tolist() == [True, False, True]
        for k in (0, 2):
            assert np.array_equal(L[k], np.linalg.cholesky(S[k]))

    def test_certified_bound_is_above_and_close(self):
        rng = np.random.default_rng(42)
        n = 6
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        G = mirror_upper(X @ X.conj().T + np.eye(n))
        A = random_hermitian(rng, n, k=5)
        pencil = pencil_norms(A, G)

        def exact_floats(T, idx):
            # the float matrices are the exact ones; only t^2 G - A is rounded
            return mirror_upper(T[:, None, None] * G - A[idx]), np.zeros((len(idx), n, n))

        certified = certify_pencil_norms(G, pencil, 1e-9, exact_floats)
        assert np.all(certified >= pencil)
        eig = np.linalg.eigvalsh(G)
        assert np.all(certified - pencil <= 32 * np.finfo(float).eps * eig[-1] / eig[0] * np.maximum(1.0, pencil))
        for k in range(5):
            assert np.linalg.eigvalsh(certified[k] ** 2 * G - A[k])[0] > 0.0

    def test_failed_proof_is_retried(self, monkeypatch):
        """Only a pencil whose proof fails is tried again, at a larger t."""
        rng = np.random.default_rng(49)
        n = 5
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        G = mirror_upper(X @ X.conj().T + np.eye(n))
        A = random_hermitian(rng, n, k=3)
        pencil = pencil_norms(A, G)

        def exact_floats(T, idx):
            return mirror_upper(T[:, None, None] * G - A[idx]), np.zeros((len(idx), n, n))

        first_try = certify_pencil_norms(G, pencil, 1e-9, exact_floats)
        proven, sizes = kernels._shift_needed, []

        def second_breaks_down_once(P, shift, radius):
            needed = proven(P, shift, radius)
            sizes.append(len(P))
            if len(sizes) == 1:
                needed[1] = np.inf  # as if its Cholesky factorization broke down
            return needed

        monkeypatch.setattr(kernels, "_shift_needed", second_breaks_down_once)
        retried = certify_pencil_norms(G, pencil, 1e-9, exact_floats)
        assert sizes == [3, 1]
        assert retried[[0, 2]].tolist() == first_try[[0, 2]].tolist() and retried[1] > first_try[1]

    def test_allowance_is_enforced_on_the_first_pass(self):
        # entries known only to 1e-3 need a shift far past the rounding allowance
        rng = np.random.default_rng(43)
        n = 4
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        G = mirror_upper(X @ X.conj().T + np.eye(n))
        A = random_hermitian(rng, n, k=3)

        def loose_entries(T, idx):
            return mirror_upper(T[:, None, None] * G - A[idx]), np.full((len(idx), n, n), 1e-3)

        with pytest.raises(DegenerateGram, match="could not certify"):
            certify_pencil_norms(G, pencil_norms(A, G), 1e-9, loose_entries)


def perron_shift_needed(P, shift, entry_radius):
    """``kernels._shift_needed`` bounding every factor's error by the Perron
    bound alone, frozen as the reference its certificates must keep."""
    n = P.shape[-1]
    S = P.copy()
    diag = S.reshape(len(S), n * n)[:, :: n + 1]
    diag -= shift[:, None]
    L, done = _cholesky_each(S)
    absL = np.abs(L)
    factor_error = gamma(n + 3) * _perron_bound(absL @ np.swapaxes(absL, -1, -2))
    diag_error = 1.01 * UNIT_ROUNDOFF * np.abs(diag.real).max(axis=-1)
    needed = (factor_error + diag_error + entry_radius) * (1.0 + gamma(4))
    return np.where(done, needed, np.inf)


def pick_pool():
    """Pick problems on halving, random-disk and clustered nodes, 2 to 12 of
    them, after one whose certificate a row-sum bound in place of the Perron
    bound would change."""
    yield [-0.5 + 0.7j, 0.5, -0.4 - 0.4j], [-0.6, 0.0, -0.2]
    rng = np.random.default_rng(72)
    for n in range(2, 13):
        turn = np.exp(2j * np.pi * rng.uniform())
        centre = complex(*rng.uniform(-0.5, 0.5, 2))
        for nodes in (
            carleson_seq(rng.uniform(0.0, 0.5), n) * turn,
            np.sqrt(rng.uniform(0.0, 0.81, n)) * np.exp(2j * np.pi * rng.uniform(size=n)),
            centre + 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n)),
        ):
            yield nodes, np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(size=n))


class TestShiftNeeded:
    def test_pick_bits_match_the_perron_bound_alone(self, monkeypatch):
        """Every proof, passed or failed, returns the Perron bound's shift,
        so every certificate keeps the bits of the frozen reference."""
        perron_bound, perron_steps = kernels._perron_bound, []

        def counted_perron_bound(M):
            perron_steps.append(M.ndim == 3)  # a trial bounds a 4-d stack
            return perron_bound(M)

        problems = list(pick_pool())
        sweeps = [(m, start) for m in (5, 8) for start in (0.0, 0.3)]
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_shift_needed", perron_shift_needed)
            expected = [repr(outcome(lambda: pick_solve(*p))) for p in problems]
            expected_sweeps = [separability_probe(m, start=start).pattern_norms for m, start in sweeps]
        monkeypatch.setattr(kernels, "_perron_bound", counted_perron_bound)
        assert [repr(outcome(lambda: pick_solve(*p))) for p in problems] == expected
        assert [separability_probe(m, start=start).pattern_norms for m, start in sweeps] == expected_sweeps
        assert any(perron_steps)

    def test_breakdown_is_infinite(self):
        rng = np.random.default_rng(73)
        X = rng.normal(size=(3, 6, 6)) + 1j * rng.normal(size=(3, 6, 6))
        P = X @ np.conj(np.swapaxes(X, -1, -2)) + np.eye(6)
        eig = np.linalg.eigvalsh(P[1])
        shift = np.array([0.5, (eig[2] + eig[3]) / 2, 0.5])  # P[1] - shift I is indefinite
        needed = kernels._shift_needed(P, shift, np.zeros(3))
        assert np.isinf(needed[1]) and np.all(np.isfinite(needed[[0, 2]]))
        assert np.all(shift[[0, 2]] > needed[[0, 2]])
