"""Tests of the benchmark's own checkers and input generation.

    python3 -m pytest bench/test_checks.py

Each checker must accept the independent reference and reject a result
perturbed just beyond its tolerance.
"""

from __future__ import annotations

import filecmp
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

TOL = 1e-9


@pytest.fixture
def pick6():
    rng = np.random.default_rng(7)
    nodes = checks.halving_nodes(0.3, 6) * np.exp(0.7j)
    values = np.sqrt(rng.uniform(0, 1, 6)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
    return nodes, values


def test_pick_reference_matches_mpmath(pick6):
    ref, margin = checks.pick_reference(*pick6)
    assert abs(checks.pick_reference_mp(*pick6) - ref) <= margin


def test_mp_spot_check_rejects_reference_off_by_twice_its_margin(pick6):
    ref, margin = checks.pick_reference(*pick6)
    pairs = [[[z.real, z.imag] for z in arr] for arr in pick6]
    checks.spot_check_mp([[*pairs, ref, margin]])
    with pytest.raises(RuntimeError, match="mpmath"):
        checks.spot_check_mp([[*pairs, ref + 2 * margin, margin]])


def test_pick_checker_accepts_reference_and_bracket(pick6):
    ref, margin = checks.pick_reference(*pick6)
    assert checks.check_pick_norm(ref, ref, margin, TOL) is None
    assert checks.check_pick_norm(ref + TOL, ref, margin, TOL) is None


def test_pick_checker_rejects_1e8_shortfall(pick6):
    ref, margin = checks.pick_reference(*pick6)
    reason = checks.check_pick_norm(ref - 1e-8, ref, margin, TOL)
    assert reason.startswith(checks.PICK_SHORTFALL)


def test_pick_checker_rejects_excess(pick6):
    ref, margin = checks.pick_reference(*pick6)
    reason = checks.check_pick_norm(ref + TOL + 2 * margin + 1e-12, ref, margin, TOL)
    assert reason.startswith("pick-excess")


def test_pick_reference_of_known_case():
    # one node: the minimal norm is |w|; two nodes 0 and y with targets 0 and 1: 1/|y|
    assert checks.pick_reference(np.array([0.5]), np.array([0.3]))[0] == pytest.approx(0.3, rel=1e-14)
    assert checks.pick_reference(np.array([0.0, 0.5]), np.array([0.0, 1.0]))[0] == pytest.approx(2.0, rel=1e-14)


def _szego_case(seed=3, n=20):
    rng = np.random.default_rng(seed)
    z = (rng.uniform(0.88, 0.96, n) * np.exp(2j * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n))[:, None]
    symbol = {"kind": "moebius", "a": [0.3, -0.2]}
    g = checks.kernel_matrix({"op": "szego"}, z)
    w = checks.eval_symbol(symbol, z)
    return z, symbol, g, w


def test_mult_norm_checker():
    _, _, g, w = _szego_case()
    ref = checks.pencil_norm((w[:, None] * g) * np.conj(w)[None, :], g)
    assert checks.check_mult_norm(ref, ref) is None
    assert checks.check_mult_norm(ref * (1 + 0.9 * checks.MULT_NORM_REL), ref) is None
    assert checks.check_mult_norm(ref * (1 + 1.1 * checks.MULT_NORM_REL), ref) is not None
    assert checks.check_mult_norm(ref * (1 - 1.1 * checks.MULT_NORM_REL), ref) is not None


def test_sandwich_checker():
    _, symbol, g, w = _szego_case()
    ref = checks.pencil_norm((w[:, None] * g) * np.conj(w)[None, :], g)
    low, high = float(np.abs(w).max()), checks.symbol_disk_sup(symbol)
    assert checks.check_sandwich(ref, low, high, TOL) is None
    assert checks.check_sandwich(low * (1 - 1e-12), low, high, TOL) is not None
    assert checks.check_sandwich(high + 2 * TOL, low, high, TOL) is not None


def test_polynomial_disk_bound_is_an_upper_bound():
    spec = {"kind": "polynomial", "coeffs": [[0.3, 0.0], [0.0, 0.4], [-0.2, 0.0]]}
    bound = checks.symbol_disk_sup(spec)
    theta = np.linspace(0, 2 * np.pi, 100001)
    exact = np.abs(np.polyval([-0.2, 0.4j, 0.3], np.exp(1j * theta))).max()
    assert exact <= bound <= exact + 1e-4


def test_psd_checker():
    _, _, g, w = _szego_case()
    m = (1.0 - 0.8 * w[:, None] * np.conj(w)[None, :]) * g
    eig = np.linalg.eigvalsh(m)
    scale = max(1.0, float(np.abs(eig).max()))
    good = {"is_psd": True, "min_eigenvalue": float(eig.min())}
    assert checks.check_psd_report(good, m, 1e-10) is None
    assert checks.check_psd_report({**good, "min_eigenvalue": float(eig.min()) + 2e-10 * scale}, m, 1e-10) is not None
    assert checks.check_psd_report({**good, "is_psd": False}, m, 1e-10) is not None


def test_gram_checker():
    _, _, g, _ = _szego_case()
    assert checks.check_gram({"re": g.real.tolist(), "im": g.imag.tolist()}, g) is None
    bumped = g * (1 + 2e-12)
    assert checks.check_gram({"re": bumped.real.tolist(), "im": bumped.imag.tolist()}, g) is not None
    skew = g.copy()
    skew[0, 1] += 1e-3
    assert checks.check_gram({"re": skew.real.tolist(), "im": skew.imag.tolist()}, g) is not None


def _roundtrip_report(values):
    return {"status": "ok", "error": None, "result": {"recovered": [[v.real, v.imag] for v in values]}}


def test_roundtrip_checker():
    coeffs = np.array([1.0 + 2.0j, -0.5, 0.25j])
    assert checks.check_roundtrip(0, _roundtrip_report(coeffs), coeffs) is None
    ill = {"status": "error", "error": {"code": "IllConditionedPrefix", "message": ""}, "result": None}
    assert checks.check_roundtrip(3, ill, coeffs) is None
    off = coeffs.copy()
    off[1] += 1.1 * checks.ROUNDTRIP_REL * np.abs(coeffs).max()
    assert checks.check_roundtrip(0, _roundtrip_report(off), coeffs).startswith(checks.ROUNDTRIP_INACCURATE)
    other = {"status": "error", "error": {"code": "DepthExceedsSequence", "message": ""}, "result": None}
    assert not checks.check_roundtrip(2, other, coeffs).startswith(checks.ROUNDTRIP_INACCURATE)


def test_close_and_equal_checkers():
    assert checks.check_close("x", 1.0 + 0.9e-12, 1.0, 1e-12) is None
    assert checks.check_close("x", 1.0 + 1.1e-12, 1.0, 1e-12) is not None
    assert checks.check_equal("x", 0.5, 0.5) is None
    assert checks.check_equal("x", 0.5, 0.5000000000000001) is not None


def test_graph_metric_is_exact_and_triangular():
    rng = np.random.default_rng(0)
    d = workloads._random_graph_metric(rng, 60)
    assert np.array_equal(d, d.T) and np.all(np.isfinite(d))
    assert np.all(d * 64 == np.round(d * 64))  # dyadic
    assert (d[:, None, :] <= d[:, :, None] + d[None, :, :]).all()


def test_lip_and_submult_references():
    d = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0))) / 4
    f = d[:, 2] - d[0, 2]
    assert checks.lip_norm(f.astype(complex), d, 0) == 1.0
    fs = np.ones((2, 5), dtype=complex)
    assert checks.submult_reference(d, 0, fs) == 1.0


@pytest.mark.parametrize("workload", sorted(workloads.POOL_ROUNDS))
def test_same_seed_same_inputs_and_rounds(tmp_path, workload):
    pools = []
    for side in ("a", "b"):
        os.makedirs(tmp_path / side)
        pools.append(workloads.build(workload, 5, str(tmp_path / side)))
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    assert all(filecmp.cmp(tmp_path / "a" / n, tmp_path / "b" / n, shallow=False) for n in names)
    assert [[op.label for op in rnd] for rnd in pools[0]] == [[op.label for op in rnd] for rnd in pools[1]]
    # every round attempts the same commands, with the kept faults in the same places
    shape = [[(op.label.split()[0], op.fault) for op in rnd] for rnd in pools[0]]
    assert all(s == shape[0] for s in shape)


def test_speed_factor_scales_timings_to_the_reference():
    calibration = speed.Calibration()
    calibration.group(0.0)
    calibration.group(0.0)
    assert calibration.ends == [0, 1, 2]
    assert all(len(times) == 2 and min(times) > 0 for times in calibration.samples.values())
    for name, times in calibration.samples.items():
        times[:] = [speed.REFERENCE_S[name], 2 * speed.REFERENCE_S[name]]  # then at half the speed
    assert calibration.factor(0, 0) == pytest.approx(1.0)
    assert calibration.factor(1, 1) == pytest.approx(0.5)
    assert calibration.factor() == pytest.approx(1 / 1.5)
