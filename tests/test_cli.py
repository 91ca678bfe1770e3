import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import funcspace
from funcspace import cli
from funcspace.cli import COMMANDS, ExperimentConfig, main, run
from funcspace.errors import ValidationError
from funcspace import geometry, kernels, multipliers
from funcspace.hardy_pick import carleson_seq

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")
NAN = float("nan")
# a Szego kernel scaled by 1e616: its Gram overflows float64
OVERFLOWING_KERNEL = {"op": "scale", "factor": 1e308, "arg": {"op": "scale", "factor": 1e308, "arg": {"op": "szego"}}}
SAMPLE3 = {"points": [0.1, 0.2, [0.3, 0.1]]}


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def inputs(tmp_path):
    files = {
        "szego": write(tmp_path / "szego.json", {"op": "szego"}),
        "coord0": write(tmp_path / "coord0.json", {"kind": "coordinate", "index": 0}),
        "s2": write(tmp_path / "s2.json", {"dim": 1, "points": [[0.0, 0.0], [0.5, 0.0]]}),
        "moebius": write(tmp_path / "moebius.json", {"kind": "moebius", "a": [0.4, 0.0]}),
        "interval": write(
            tmp_path / "interval.json",
            {
                "labels": ["a", "b", "c", "d", "e"],
                "dist": np.abs(
                    np.subtract.outer([0, 0.25, 0.5, 0.75, 1.0], [0, 0.25, 0.5, 0.75, 1.0])
                ).tolist(),
                "base": 0,
            },
        ),
        "tmp": tmp_path,
    }
    files["model"] = write(
        tmp_path / "model.json",
        {
            "space": json.loads((tmp_path / "interval.json").read_text()),
            "order": [2, 0, 4, 1, 3],
            "depth": 3,
            "policy": "default_2n",
            "p": 2,
        },
    )
    return files


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCoreCommands:
    def test_mult_norm_spec_example(self, capsys, inputs):
        code, report = run_cli(
            capsys,
            ["mult-norm", "--kernel", inputs["szego"], "--symbol", inputs["coord0"], "--sample", inputs["s2"]],
        )
        assert code == 0
        assert report["status"] == "ok"
        assert abs(report["result"]["sampled_norm"] - 1.0) <= 1e-9
        assert report["result"]["semantics"] == "finite-sample lower estimate"

    def test_carleson_probe_nodes(self, capsys, inputs):
        code, report = run_cli(capsys, ["carleson-probe", "--m", "3", "--start", "0"])
        assert code == 0
        assert report["result"]["nodes"] == [0.5, 0.75, 0.875]
        assert report["result"]["min_pairwise_gap"] == 1.0

    @pytest.mark.parametrize("m", ["13", "100", "1000000000000"])
    def test_carleson_probe_cap_comes_first(self, capsys, m):
        code, report = run_cli(capsys, ["carleson-probe", "--m", m])
        assert code == 2
        assert report["error"]["code"] == "PatternBudgetExceeded"

    @pytest.mark.parametrize("m, start", [(1, "0"), (5, "0.3"), (7, "0.45")])
    def test_carleson_probe_nodes_match_carleson_seq(self, capsys, m, start):
        code, report = run_cli(capsys, ["carleson-probe", "--m", str(m), "--start", start])
        assert code == 0
        assert report["result"]["nodes"] == carleson_seq(float(start), m).tolist()

    def test_ardy_check_coordinate(self, capsys, inputs):
        code, report = run_cli(capsys, ["ardy-check", "--poly", "[0,1]"])
        assert code == 0
        assert report["result"] == {"is_multiplier": False}

    def test_psd_check_raw_matrix(self, capsys, tmp_path):
        path = write(tmp_path / "m.json", {"re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0, 0], [0, 0]]})
        code, report = run_cli(capsys, ["psd-check", "--matrix", path])
        assert code == 0
        assert report["result"]["is_psd"] is False

    def test_gram_report(self, capsys, inputs):
        code, report = run_cli(capsys, ["gram", "--kernel", inputs["szego"], "--sample", inputs["s2"]])
        assert code == 0
        assert report["result"]["re"][1][1] == pytest.approx(4.0 / 3.0)

    def test_gram_reads_a_ball_sample(self, capsys, tmp_path):
        """A sample of 2-D points, each a row of [re, im] pairs, read by the one-pass pair reader."""
        kernel = write(tmp_path / "ball2.json", {"op": "ball", "dim": 2})
        sample = write(tmp_path / "s2d.json", {"dim": 2, "points": [[[0.1, 0], [0.2, 0.1]], [[0, 0.3], [-0.2, 0]]]})
        code, report = run_cli(capsys, ["gram", "--kernel", kernel, "--sample", sample])
        assert code == 0
        assert report["status"] == "ok" and report["result"]["sample"]["dim"] == 2

    def test_psd_check_reads_a_gram_report(self, capsys, inputs, tmp_path):
        """A gram report's result, sample included, gets the bare matrix's PSD report."""
        _, report = run_cli(capsys, ["gram", "--kernel", inputs["szego"], "--sample", inputs["s2"]])
        result = report["result"]
        bare = {key: result[key] for key in ("re", "im")}
        code, from_gram = run_cli(capsys, ["psd-check", "--matrix", write(tmp_path / "g.json", result)])
        assert code == 0
        _, from_bare = run_cli(capsys, ["psd-check", "--matrix", write(tmp_path / "m.json", bare)])
        assert from_gram["result"] == from_bare["result"]
        assert from_gram["result"]["is_psd"] is True

    def test_mult_norm_bisection_of_a_constant_is_the_constant(self, capsys, inputs, tmp_path):
        """The feasibility test that the pencil's data leaves to the eigensolve."""
        const = write(tmp_path / "const.json", {"kind": "polynomial", "coeffs": [0.7]})
        sample = write(tmp_path / "s3.json", SAMPLE3)
        argv = ["mult-norm", "--method", "bisection", "--kernel", inputs["szego"], "--symbol", const, "--sample", sample]
        code, report = run_cli(capsys, argv)
        assert code == 0
        assert report["result"]["sampled_norm"] == 0.7

    def test_mult_norm_bisection_reports_the_pencil_value(self, capsys, inputs, tmp_path):
        """Of z, the value that a shifted Cholesky proves feasible."""
        sample = write(tmp_path / "s3.json", SAMPLE3)
        files = ["--kernel", inputs["szego"], "--symbol", inputs["coord0"], "--sample", sample]
        norms = []
        for method in ("bisection", "pencil"):
            code, report = run_cli(capsys, ["mult-norm", "--method", method, *files])
            assert code == 0
            norms.append(report["result"]["sampled_norm"])
        assert norms[0] == norms[1]

    def test_contraction(self, capsys, inputs):
        code, report = run_cli(
            capsys,
            ["contraction", "--kernel", inputs["szego"], "--symbol", inputs["coord0"], "--sample", inputs["s2"]],
        )
        assert code == 0
        assert report["result"]["is_psd"] is True

    def test_kl_check(self, capsys, inputs):
        code, report = run_cli(
            capsys,
            [
                "kl-check",
                "--kernel", inputs["szego"],
                "--kernel2", inputs["szego"],
                "--symbol", inputs["moebius"],
                "--sample", inputs["s2"],
            ],
        )
        assert code == 0
        assert report["result"]["implication_holds"] is True

    @pytest.mark.parametrize("factor", [0.5, 3.0], ids=["premise-holds", "vacuous"])
    def test_kl_check_is_the_library_report(self, capsys, tmp_path, factor):
        symbol = {"kind": "scale", "factor": [factor, 0.0], "arg": {"kind": "moebius", "a": [0.2, -0.3]}}
        kernel2 = {"op": "rank1", "fn": {"kind": "moebius", "a": [0.0, 0.4]}}
        sample = {"dim": 1, "points": [[0.1, 0.2], [-0.5, 0.3], [0.6, -0.1], [0.0, -0.7]]}
        files = {name: write(tmp_path / f"{name}.json", obj) for name, obj in
                 [("kernel", {"op": "szego"}), ("kernel2", kernel2), ("symbol", symbol), ("sample", sample)]}
        argv = ["kl-check", *[arg for name, path in files.items() for arg in (f"--{name}", path)]]
        code, report = run_cli(capsys, argv)
        expected = multipliers.kl_monotonicity_check(
            kernels.szego(), kernels.kernel_from_json(kernel2), kernels.fn_from_json(symbol),
            geometry.EuclideanPointSet.from_json(sample),
        )
        assert code == 0
        assert report["result"] == {
            "implication_holds": expected.holds,
            "on_K": expected.on_K.to_json(),
            "on_KL": expected.on_KL.to_json(),
        }
        assert report["result"]["on_K"]["is_psd"] is (factor < 1.0)

    def test_vn_check(self, capsys, inputs):
        code, report = run_cli(
            capsys,
            [
                "vn-check",
                "--symbol", inputs["moebius"],
                "--poly", "[0, -0.5, 1]",
                "--sample", inputs["s2"],
                "--grid", "1024",
            ],
        )
        assert code == 0
        assert report["result"]["pass"] is True

    def test_vn_check_grid_cap(self, capsys, inputs):
        argv = ["vn-check", "--symbol", inputs["moebius"], "--poly", "[0, 1]", "--sample", inputs["s2"], "--grid"]
        code, _ = run_cli(capsys, argv + ["65536"])
        assert code == 0
        code, report = run_cli(capsys, argv + ["65537"])
        assert code == 2
        assert "between 8 and 65536" in report["error"]["message"]

    def test_pick_solve(self, capsys, tmp_path):
        path = write(tmp_path / "pick.json", {"nodes": [[0, 0], [0.5, 0]], "values": [[0, 0], [0.5, 0]], "bound": 1.0})
        code, report = run_cli(capsys, ["pick-solve", "--problem", path])
        assert code == 0
        assert abs(report["result"]["min_norm"] - 1.0) <= 1e-9
        assert report["result"]["feasible_at_bound"]["is_psd"] is True

    def test_pick_solve_reports_pencil_norm(self, capsys, tmp_path):
        """The certified norm is at or just above the float pencil value, also
        on nodes where a row-sum bound in place of the Perron bound would
        change the certificate."""
        for problem in (
            {"nodes": [[0.1, 0.2], [0.5, 0], [-0.3, 0.6]], "values": [[1, 0], [0, 0], [0.5, 0.5]]},
            {"nodes": [0, 0.5, [0, -0.5]], "values": [0, [0.5, 0.5], 0.25]},
            {"nodes": [[-0.5, 0.7], 0.5, [-0.4, -0.4]], "values": [-0.6, 0, -0.2]},
        ):
            code, report = run_cli(capsys, ["pick-solve", "--problem", write(tmp_path / "pick.json", problem)])
            assert code == 0, problem
            result = report["result"]
            assert result["pencil_norm"] <= result["min_norm"] <= result["pencil_norm"] + 1e-9, problem

    def test_pick_solve_validates_once(self, capsys, tmp_path, monkeypatch):
        from funcspace import hardy_pick

        built = []
        init = hardy_pick.PickProblem.__init__
        monkeypatch.setattr(hardy_pick.PickProblem, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        nodes, values = [[0.1, 0.2], [0.5, 0], [-0.3, 0.6]], [[1, 0], [0, 0], [0.5, 0.5]]
        path = write(tmp_path / "pick.json", {"nodes": nodes, "values": values, "bound": 0.0})
        code, report = run_cli(capsys, ["pick-solve", "--problem", path])
        assert code == 0 and len(built) == 1
        solution = hardy_pick.pick_solve([complex(*z) for z in nodes], [complex(*w) for w in values])
        assert report["result"] == solution._asdict()

    def test_pick_solve_non_finite_target(self, capsys, tmp_path):
        path = write(tmp_path / "nan.json", {"nodes": [[0.1, 0], [0.5, 0]], "values": [float("nan"), [0.2, 0]]})
        code, report = run_cli(capsys, ["pick-solve", "--problem", path])
        assert code == 2
        assert report["error"]["code"] == "ValidationError"
        assert report["error"]["message"] == "interpolation targets must be finite, got (nan+0j) at index 0"

    def test_pick_solve_overflow(self, capsys, tmp_path):
        path = write(tmp_path / "huge.json", {"nodes": [[0.1, 0], [0.5, 0]], "values": [[1e308, 0], [0.2, 0]]})
        code, report = run_cli(capsys, ["pick-solve", "--problem", path])
        assert code == 3
        assert report["error"]["code"] == "Overflow"

    def test_pick_solve_singular_gram(self, capsys, tmp_path):
        nodes = [[0.5, 0], [float(np.nextafter(0.5, 1.0)), 0]]
        path = write(tmp_path / "close.json", {"nodes": nodes, "values": [[1, 0], [0.2, 0]]})
        code, report = run_cli(capsys, ["pick-solve", "--problem", path])
        assert code == 3
        assert report["error"]["code"] == "DegenerateGram"

    def test_detect_mo(self, capsys, tmp_path, inputs):
        from funcspace.hardy_pick import compress_square, toeplitz_mo

        T = compress_square(toeplitz_mo([0.0, 1.0], 12), 12)
        path = write(tmp_path / "T.json", {"re": T.real.tolist(), "im": T.imag.tolist()})
        sample = write(tmp_path / "pts.json", {"dim": 1, "points": [[0.1, 0.0], [0.2, 0.0]]})
        code, report = run_cli(capsys, ["detect-mo", "--matrix", path, "--sample", sample])
        assert code == 0
        assert report["result"]["detected"] is True
        assert report["result"]["symbol_values"][0][0] == pytest.approx(0.1, abs=1e-9)


class TestRealizationCommands:
    def test_realize_from_space(self, capsys, inputs):
        code, report = run_cli(
            capsys, ["realize", "--space", inputs["interval"], "--depth", "3", "--seed", "1"]
        )
        assert code == 0
        assert report["result"]["very_independent"] is True
        assert len(report["result"]["b"]) == 4

    def test_topology_probe(self, capsys, inputs):
        code, report = run_cli(
            capsys, ["topology-probe", "--model", inputs["model"], "--x", "2", "--eps", "0.3"]
        )
        assert code == 0
        assert report["result"]["pass"] is True

    def test_rank_check(self, capsys, inputs):
        for points, rank in (("[0, 2, 4]", 3), ("[]", 0)):
            code, report = run_cli(
                capsys, ["rank-check", "--model", inputs["model"], "--points", points]
            )
            assert code == 0
            assert report["result"]["rank"] == rank

    def test_roundtrip(self, capsys, inputs):
        code, report = run_cli(
            capsys, ["roundtrip", "--model", inputs["model"], "--coeffs", "[1, [0, 1], 0.5, -2]"]
        )
        assert code == 0
        assert report["result"]["max_rel_error"] <= 1e-9

    def test_ball_policy_model(self, capsys, inputs, tmp_path):
        model = json.loads((tmp_path / "model.json").read_text())
        model["policy"] = {"balls": {"base": 0}}
        path = write(tmp_path / "ball_model.json", model)
        code, report = run_cli(capsys, ["rank-check", "--model", path, "--points", "[0, 3]"])
        assert code == 0
        assert report["result"]["rank"] == 2

    def test_ball_policy_builds_g_once(self, capsys, inputs, tmp_path, monkeypatch):
        from funcspace import realization

        calls = []
        build_g = realization.build_g
        monkeypatch.setattr(realization, "build_g", lambda *args: calls.append(args[1]) or build_g(*args))
        model = json.loads((tmp_path / "model.json").read_text())
        model["policy"] = {"balls": {"base": 1}}
        code, _ = run_cli(capsys, ["realize", "--model", write(tmp_path / "ball_model.json", model)])
        assert code == 0
        assert calls == [3]

    @pytest.mark.parametrize("policy", [{"balls": 3}, {"balls": None}, {"balls": {"base": 5}}, {"balls": {"base": -1}}])
    def test_malformed_ball_policy(self, capsys, inputs, tmp_path, policy):
        model = json.loads((tmp_path / "model.json").read_text())
        model["policy"] = policy
        code, report = run_cli(capsys, ["rank-check", "--model", write(tmp_path / "bad.json", model), "--points", "[0]"])
        assert code == 2
        assert report["error"]["code"] == "ValidationError"

    def test_roundtrip_reports_its_error_bound(self, capsys, inputs):
        argv = ["roundtrip", "--model", inputs["model"], "--coeffs", "[1, [0, 1], 0.5, -2]"]
        code, report = run_cli(capsys, argv)
        assert code == 0
        result = report["result"]
        assert result["max_rel_error"] <= result["error_bound"] <= 1e-12
        code, report = run_cli(capsys, argv + ["--tol", "1e-300"])
        assert code == 3
        assert report["error"]["code"] == "IllConditionedPrefix"

    def test_deep_roundtrip_raises(self, capsys, tmp_path):
        model = write(tmp_path / "deep.json", {"space": _line_space(64), "order": list(range(64)), "depth": 63})
        code, report = run_cli(capsys, ["roundtrip", "--model", model, "--coeffs", json.dumps([1.0] * 64)])
        assert code == 3
        assert report["error"]["code"] == "IllConditionedPrefix"
        assert "exceeds tol 1e-06" in report["error"]["message"]

    def test_realize_keeps_triangle_tol(self, capsys, tmp_path):
        x = np.arange(40) / 40  # rounded distances: exact triangles fail by an ulp
        space = {"dist": np.abs(np.subtract.outer(x, x)).tolist(), "base": 0}
        code, report = run_cli(capsys, ["realize", "--space", write(tmp_path / "rounded.json", space)])
        assert code == 2
        assert "triangle inequality violated" in report["error"]["message"]
        space["triangle_tol"] = 1e-12
        code, report = run_cli(capsys, ["realize", "--space", write(tmp_path / "tol.json", space), "--seed", "2"])
        assert code == 0
        model = report["result"]["model"]
        assert model["space"]["triangle_tol"] == 1e-12
        code, again = run_cli(capsys, ["realize", "--model", write(tmp_path / "model.json", model)])
        assert code == 0
        assert again["result"]["b"] == report["result"]["b"]

    def test_realize_validates_its_space_once(self, capsys, inputs, monkeypatch):
        from funcspace import geometry

        calls = []
        slack = geometry._worst_triangle_slack
        monkeypatch.setattr(geometry, "_worst_triangle_slack", lambda d: calls.append(len(d)) or slack(d))
        code, _ = run_cli(capsys, ["realize", "--space", inputs["interval"]])
        assert code == 0
        assert calls == [5]

    @pytest.mark.parametrize(
        "flag, value", [("--depth", "0"), ("--policy", "zzz"), ("--order", "[0, 1, 2, 3, 4]"), ("--seed", "-5")]
    )
    def test_realize_model_refuses_options_it_would_not_read(self, capsys, inputs, flag, value):
        code, report = run_cli(capsys, ["realize", "--model", inputs["model"], flag, value])
        assert code == 2
        assert report["error"] == {
            "code": "ValidationError",
            "message": f"realize --model takes no {flag}: the model file fixes it",
        }

    def test_realize_model_refuses_space_without_reading_it(self, capsys, inputs):
        not_json = inputs["tmp"] / "not.json"
        not_json.write_text("not json")
        code, report = run_cli(capsys, ["realize", "--model", inputs["model"], "--space", str(not_json)])
        assert code == 2
        assert report["error"] == {
            "code": "ValidationError",
            "message": "realize --model takes no --space: the model file fixes it",
        }
        assert report["inputs"] == {}

    def test_realize_model_with_infinite_p(self, capsys, tmp_path):
        """p = Infinity, for l^inf, is read, and the report, which the stdlib
        writes, reads back as inf."""
        model = {"space": {"dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}, "order": [0, 2, 1], "depth": 1, "p": float("inf")}
        code, report = run_cli(capsys, ["realize", "--model", write(tmp_path / "model3.json", model)])
        assert code == 0
        assert report["status"] == "ok" and report["result"]["model"]["p"] == float("inf")

    def test_realize_decides_independence_at_depth_n_minus_one(self, capsys, inputs):
        code, report = run_cli(capsys, ["realize", "--space", inputs["interval"], "--depth", "4"])
        assert code == 0
        assert report["result"]["very_independent"] is True


class TestGeometryCommands:
    @pytest.mark.parametrize("rho", [5e-324, 1e308])
    def test_lip_dual_at_the_ends_of_the_float_range(self, capsys, tmp_path, rho):
        space = write(tmp_path / "two.json", {"dist": [[0.0, rho], [rho, 0.0]]})
        code, point = run_cli(capsys, ["lip-dual", "--space", space, "--x", "1"])
        assert code == 0 and point["result"] == {"kind": "point", "value": max(1.0, rho)}
        code, pair = run_cli(capsys, ["lip-dual", "--space", space, "--x", "1", "--y", "0"])
        assert code == 0 and pair["result"]["value"] == rho

    def test_lip_dual_takes_no_oracle(self):
        with pytest.raises(ValidationError, match="^command 'lip-dual' takes no option 'oracle'$"):
            ExperimentConfig("lip-dual", options={"oracle": True})

    def test_lip_dual_point_norm(self, capsys, inputs):
        code, report = run_cli(capsys, ["lip-dual", "--space", inputs["interval"], "--x", "0"])
        assert code == 0
        assert report["result"] == {"kind": "point", "value": 1.0}

    def test_submult_random(self, capsys, inputs):
        code, report = run_cli(
            capsys, ["submult", "--space", inputs["interval"], "--random", "6", "--seed", "7"]
        )
        assert code == 0
        assert report["result"]["max_ratio"] <= report["result"]["bound"]

    def test_submult_overflow_exits_3(self, capsys, tmp_path):
        space = write(tmp_path / "two.json", {"dist": [[0, 1], [1, 0]]})
        functions = write(tmp_path / "fs.json", [{"values": [[1e200, 0], [1, 0]]}, {"values": [[1e200, 0], [2, 0]]}])
        code = main(["submult", "--space", space, "--functions", functions])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ""
        assert json.loads(captured.out)["error"]["code"] == "Overflow"

    def test_submult_counts_functions_against_max_points(self, capsys, inputs, tmp_path):
        functions = write(tmp_path / "fs.json", [{"values": [1, 2, 3, 4, 5]}, {"values": [0, 1, 0, 1, 0]}])
        argv = ["submult", "--space", inputs["interval"], "--max-points", "8"]
        for extra, total in [(["--random", "8"], 8), (["--functions", functions, "--random", "6"], 8)]:
            code, report = run_cli(capsys, argv + extra)
            assert code == 0
            assert report["result"]["n_functions"] == total
            extra[-1] = str(int(extra[-1]) + 1)
            code, report = run_cli(capsys, argv + extra)
            assert code == 2
            assert report["error"]["message"] == "9 functions, above --max-points 8"
        code, report = run_cli(capsys, argv + ["--functions", functions, "--random", "-1"])
        assert code == 2
        assert "nonnegative" in report["error"]["message"]

    def test_submult_functions_that_are_a_number_are_named(self, capsys, inputs, tmp_path):
        functions = write(tmp_path / "fs.json", 5)
        code, report = run_cli(capsys, ["submult", "--space", inputs["interval"], "--functions", functions])
        assert code == 2
        assert report["error"] == {
            "code": "ValidationError",
            "message": "--functions must hold a list of sampled functions, got int",
        }

    def test_submult_functions_that_are_one_object_are_named(self, capsys, inputs, tmp_path):
        """One function not wrapped in a list is refused as such, not read by its keys."""
        functions = write(tmp_path / "fs.json", {"values": [1, 2, 3, 4, 5]})
        code, report = run_cli(capsys, ["submult", "--space", inputs["interval"], "--functions", functions])
        assert code == 2
        assert report["error"] == {
            "code": "ValidationError",
            "message": "--functions must hold a list of sampled functions, got dict",
        }

    @pytest.mark.parametrize("command", ["submult", "gram"])
    def test_labels_that_are_a_number_are_named(self, capsys, inputs, tmp_path, command):
        """Labels on a metric space (submult) and on a sample (gram)."""
        if command == "submult":
            space = write(tmp_path / "space.json", {"dist": [[0, 1], [1, 0]], "labels": 5})
            argv = ["submult", "--space", space, "--random", "1"]
        else:
            sample = write(tmp_path / "sample.json", {"points": [0.1, 0.2], "labels": 5})
            argv = ["gram", "--kernel", inputs["szego"], "--sample", sample]
        code, report = run_cli(capsys, argv)
        assert code == 2
        assert report["error"] == {"code": "ValidationError", "message": "labels must be a list, got 5"}

    def test_labels_that_are_text_are_not_split_into_letters(self, capsys, tmp_path):
        space = write(tmp_path / "space.json", {"dist": [[0, 1], [1, 0]], "labels": "ab"})
        code, report = run_cli(capsys, ["submult", "--space", space, "--random", "1"])
        assert code == 2
        assert report["error"] == {"code": "ValidationError", "message": "labels must be a list, got 'ab'"}


class TestReportContract:
    def test_deterministic_modulo_timestamp(self, capsys, inputs):
        argv = ["mult-norm", "--kernel", inputs["szego"], "--symbol", inputs["coord0"], "--sample", inputs["s2"]]
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        first.pop("timestamp")
        second.pop("timestamp")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_out_file_written(self, capsys, inputs, tmp_path):
        out = tmp_path / "report.json"
        code, _ = run_cli(
            capsys,
            ["ardy-check", "--poly", "[2]", "--out", str(out)],
        )
        assert code == 0
        assert json.loads(out.read_text())["result"]["is_multiplier"] is True

    def test_csv_curve(self, capsys, inputs, tmp_path):
        csv = tmp_path / "curve.csv"
        code, report = run_cli(
            capsys,
            [
                "mult-norm",
                "--kernel", inputs["szego"],
                "--symbol", inputs["coord0"],
                "--sample", inputs["s2"],
                "--csv", str(csv),
            ],
        )
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "n,sampled_norm"
        assert len(lines) == 3

    def test_method_echoed_by_mult_norm_only(self, capsys, inputs):
        _, report = run_cli(capsys, ["gram", "--kernel", inputs["szego"], "--sample", inputs["s2"]])
        assert "method" not in report["parameters"]
        argv = ["mult-norm", "--kernel", inputs["szego"], "--symbol", inputs["coord0"], "--sample", inputs["s2"]]
        _, report = run_cli(capsys, argv)
        assert report["parameters"]["method"] == "pencil"

    def test_parameters_echo_only_what_the_command_reads(self, capsys, inputs, tmp_path):
        _, report = run_cli(capsys, ["gram", "--kernel", inputs["szego"], "--sample", inputs["s2"]])
        assert report["parameters"] == {"max_points": 64}
        _, report = run_cli(capsys, ["carleson-probe", "--m", "2"])
        assert report["parameters"] == {"tol": 1e-9, "m": 2}
        _, report = run_cli(capsys, ["ardy-check", "--poly", "[2]"])
        assert report["parameters"] == {}
        argv = ["mult-norm", "--kernel", inputs["szego"], "--symbol", inputs["coord0"], "--sample", inputs["s2"]]
        _, report = run_cli(capsys, argv + ["--csv", str(tmp_path / "curve.csv")])
        assert report["parameters"] == {"method": "pencil", "max_points": 64, "csv": str(tmp_path / "curve.csv")}
        _, report = run_cli(capsys, ["submult", "--space", inputs["interval"], "--random", "2", "--seed", "7"])
        assert report["parameters"] == {"max_points": 64, "random": 2, "seed": 7}

    def test_seed_defaults_to_zero(self, capsys, inputs):
        argv = ["realize", "--space", inputs["interval"]]
        _, unseeded = run_cli(capsys, argv)
        _, seeded = run_cli(capsys, argv + ["--seed", "0"])
        assert "seed" not in unseeded["parameters"] and seeded["parameters"]["seed"] == 0
        assert unseeded["result"] == seeded["result"]
        assert unseeded["result"]["model"]["order"] == np.random.default_rng(0).permutation(5).tolist()

    def test_commands_that_read_a_tolerance_report_it(self, capsys, inputs):
        defaults = {name: cmd.tol for name, cmd in cli._REGISTRY.items() if cmd.tol is not None}
        assert defaults == {
            "psd-check": 1e-10,
            "contraction": 1e-10,
            "kl-check": 1e-10,
            "vn-check": 1e-9,
            "rank-check": 1e-10,
            "roundtrip": 1e-6,
            "pick-solve": 1e-9,
            "carleson-probe": 1e-9,
            "detect-mo": 1e-6,
        }
        argv = ["contraction", "--kernel", inputs["szego"], "--symbol", inputs["coord0"], "--sample", inputs["s2"]]
        code, report = run_cli(capsys, argv)
        assert code == 0
        assert report["parameters"]["tol"] == 1e-10
        code, report = run_cli(capsys, argv + ["--tol", "1e-6"])
        assert code == 0
        assert report["parameters"]["tol"] == 1e-6
        assert ExperimentConfig("carleson-probe", options={"m": 2}, tol=1e-6).tol == 1e-6
        _, report = run_cli(capsys, ["ardy-check", "--poly", "[2]"])
        assert "tol" not in report["parameters"]

    @pytest.mark.parametrize(
        "name", ["gram", "mult-norm", "realize", "topology-probe", "lip-dual", "submult", "ardy-check"]
    )
    def test_commands_that_read_no_tolerance_take_no_tol(self, capsys, name):
        assert cli._REGISTRY[name].tol is None
        code, report = run_cli(capsys, [name, "--tol", "1e-6"])
        assert code == 2
        assert "unrecognized arguments: --tol 1e-6" in report["error"]["message"]
        with pytest.raises(ValidationError, match="takes no --tol"):
            ExperimentConfig(name, tol=1e-6)

    def test_reports_are_compact_sorted_ascii_lines(self, capsys, tmp_path, monkeypatch):
        """Each report is one compact ASCII line with sorted keys that parses
        to the value the stdlib writes for the same report, floats bit for bit."""
        written = []
        encode = cli._encode
        monkeypatch.setattr(cli, "_encode", lambda report: written.append(report) or encode(report))
        points = [[0.5 * np.cos(k), 0.5 * np.sin(k)] for k in range(48)]
        kernel = write(tmp_path / "szego.json", {"op": "szego"})
        sample = write(tmp_path / "s48.json", {"dim": 1, "points": points})
        space = write(tmp_path / "line.json", _line_space(48))
        for argv in (["gram", "--kernel", kernel, "--sample", sample], ["realize", "--space", space]):
            code = main(argv)
            out = capsys.readouterr().out
            assert code == 0, out
            assert out.count("\n") == 1 and out.endswith("\n")
            assert out.isascii() and " " not in out
            report = json.loads(out)
            assert report["status"] == "ok"
            assert repr(report) == repr(json.loads(json.dumps(written[-1], sort_keys=True)))
            assert _keys_sorted(report)
        assert len(report["result"]["model"]["space"]["dist"]) == 48
        code = main(["gram", "--bogus"])
        out = capsys.readouterr().out
        assert code == 2
        assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize(
        "argv, literal",
        [
            (["carleson-probe", "--m", "3", "--start", "nan"], '"start":NaN'),
            (["carleson-probe", "--m", "3", "--start", "inf"], '"start":Infinity'),
            (["realize", "--space", "absent.json", "--seed", str(2**64)], f'"seed":{2**64}'),
            (["gram", "--sample", "s2", "--kernel", "caf\u00e9"], "caf\\u00e9"),
        ],
        ids=["nan", "inf", "int-beyond-64-bits", "non-ascii-path"],
    )
    def test_reports_orjson_cannot_write_exactly_fall_back_to_the_stdlib(self, capsys, inputs, argv, literal):
        """NaN and infinities, which orjson writes as null, integers beyond 64
        bits and non-ASCII text are written by the stdlib encoder."""
        argv = [inputs.get(arg, arg) for arg in argv]
        if argv[-1] == "caf\u00e9":
            argv[-1] = write(inputs["tmp"] / "caf\u00e9.json", {"op": "szego"})
        main(argv)
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
        assert literal in out

    @pytest.mark.parametrize("where", ["labels", "path"])
    def test_a_report_that_echoes_null_falls_back_to_the_stdlib(self, capsys, tmp_path, where):
        """An echoed ``null`` below the top level, or ``null`` in a path, is
        more ``null`` than the report's own: the stdlib writes the line, so
        its floats take Python's text (``1e-07``)."""
        dist = [[0.0, 1e-7, 2e-7], [1e-7, 0.0, 1e-7], [2e-7, 1e-7, 0.0]]
        space = {"dist": dist, "labels": None} if where == "labels" else {"dist": dist}
        name = "null.json" if where == "path" else "model.json"
        model = write(tmp_path / name, {"space": space, "order": [0, 2, 1], "depth": 1})
        code = main(["realize", "--model", model])
        out = capsys.readouterr().out
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
        assert '"dist":[[0.0,1e-07,2e-07]' in out

    def test_integer_beyond_64_bits_is_read_as_a_float(self, capsys, tmp_path):
        """orjson reads such a literal as a float, so it is refused as not an integer."""
        space = tmp_path / "space.json"
        space.write_text('{"dist": [[0, 1], [1, 0]], "base": 18446744073709551616}')
        code, report = run_cli(capsys, ["lip-dual", "--space", str(space), "--x", "0"])
        assert code == 2
        assert report["error"]["message"] == "base index must be an integer, got 1.8446744073709552e+19"

    def test_input_digests_recorded(self, capsys, inputs):
        _, report = run_cli(capsys, ["gram", "--kernel", inputs["szego"], "--sample", inputs["s2"]])
        assert set(report["inputs"]) == {"kernel", "sample"}
        assert len(report["inputs"]["kernel"]["sha256"]) == 64

    def test_readme_states_what_each_result_field_claims(self):
        """README's table of result fields has a row for every command and names no other."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("### What each result field claims", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `([a-z-]+)` \|", table, flags=re.M)
        assert set(rows) == set(COMMANDS)


class TestErrorPaths:
    def test_malformed_json_line_column(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"op": "szego",\n  broken')
        code, report = run_cli(capsys, ["gram", "--kernel", str(path), "--sample", str(path)])
        assert code == 2
        assert report["status"] == "error"
        assert "line 2" in report["error"]["message"]
        assert "column" in report["error"]["message"]

    def test_a_file_that_is_not_utf8_is_named(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"op": "sz\xffego"}')
        code, report = run_cli(capsys, ["gram", "--kernel", str(path), "--sample", str(path)])
        assert code == 2
        assert report["error"] == {"code": "ValidationError", "message": f"{path}: not UTF-8 text at byte 10"}

    def test_an_inline_flag_that_is_not_utf8_is_named(self, capsys):
        """Python hands argv bytes that are not UTF-8 to ``main`` as lone
        surrogates; any other lone surrogate has no bytes and is refused too."""
        for poly, where in (("[1, \udcff]", "byte 4"), ("[1, \ud800]", "character 4")):
            code, report = run_cli(capsys, ["ardy-check", "--poly", poly])
            assert code == 2
            assert report["error"] == {"code": "ValidationError", "message": f"--poly: not UTF-8 text at {where}"}

    def test_an_inline_flag_that_is_not_utf8_leaves_the_process_named(self):
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(funcspace.__file__)), "PYTHONUTF8": "1"}
        out = subprocess.run(
            [sys.executable, "-m", "funcspace.cli", "ardy-check", "--poly", b"[1, \xff]"],
            env=env, capture_output=True, timeout=120,
        )
        assert out.returncode == 2 and out.stderr == b""
        report = json.loads(out.stdout)
        assert report["error"] == {"code": "ValidationError", "message": "--poly: not UTF-8 text at byte 4"}
        assert report["inputs"]["poly"]["sha256"] == hashlib.sha256(b"[1, \xff]").hexdigest()

    def test_numerical_error_exit_code(self, capsys, tmp_path, inputs):
        """Two equal sample points, and two 1e-9 apart."""
        for points in ([[0.3, 0.0], [0.3, 0.0]], [0.3, 0.300000001]):
            sample = write(tmp_path / "close.json", {"dim": 1, "points": points})
            code, report = run_cli(
                capsys,
                ["mult-norm", "--kernel", inputs["szego"], "--symbol", inputs["coord0"], "--sample", sample],
            )
            assert code == 3
            assert report["error"]["code"] == "DegenerateGram"
            assert "condition exceeds" in report["error"]["message"]

    def test_validation_error_exit_code(self, capsys, tmp_path):
        path = write(tmp_path / "m.json", {"re": [[1.0, 2.0], [0.0, 1.0]], "im": [[0, 0], [0, 0]]})
        code, report = run_cli(capsys, ["psd-check", "--matrix", path])
        assert code == 2
        assert report["error"]["code"] == "NotHermitian"

    def test_psd_check_refuses_an_eigenvalue_past_float64(self, capsys, tmp_path):
        path = write(tmp_path / "m.json", {"re": [[1e308, 1e308], [1e308, 1e308]]})
        code, report = run_cli(capsys, ["psd-check", "--matrix", path])
        assert code == 3
        assert report["error"] == {"code": "Overflow", "message": "max_abs_eigenvalue overflows float64"}

    def test_roundtrip_refuses_an_error_bound_past_float64(self, capsys, tmp_path):
        # the recovered coefficients overflow, which made the bound nan
        model = write(tmp_path / "line3.json", {"space": _line_space(3), "order": [0, 1, 2], "depth": 2})
        code, report = run_cli(capsys, ["roundtrip", "--model", model, "--coeffs", "[1e308, 1e308]"])
        assert code == 3
        message = "the error_bound of the recovered coefficients overflows float64 at depth 2"
        assert report["error"] == {"code": "Overflow", "message": message}

    # the kernel that overflows, by flag, and the message: a command that reads
    # two kernels names the overflowing one's role (README maps roles to flags)
    OVERFLOWING_GRAMS = {
        "gram": ("kernel", "the Gram matrix overflows float64"),
        "mult-norm": ("kernel", "the Gram matrix of K_F overflows float64"),
        "contraction": ("kernel", "the Gram matrix overflows float64"),
        "kl-check": ("kernel", "the Gram matrix of K overflows float64"),
        "mult-norm-kernel2": ("kernel2", "the Gram matrix of K_E overflows float64"),
        "kl-check-kernel2": ("kernel2", "the Gram matrix of L overflows float64"),
    }

    @pytest.mark.parametrize("case", OVERFLOWING_GRAMS)
    def test_overflowing_gram_exits_3(self, capsys, tmp_path, inputs, case):
        command = case.removesuffix("-kernel2")
        overflowing, message = self.OVERFLOWING_GRAMS[case]
        files = {
            "kernel": inputs["szego"],
            "kernel2": inputs["szego"],
            "symbol": inputs["coord0"],
            "sample": write(tmp_path / "s3.json", SAMPLE3),
            overflowing: write(tmp_path / "huge.json", OVERFLOWING_KERNEL),
        }
        argv = [command] + [arg for name in cli._REGISTRY[command].files for arg in ("--" + name, files[name])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = run_cli(capsys, argv)
        assert code == 3
        assert report["error"] == {"code": "Overflow", "message": message}

    @pytest.mark.parametrize(
        "command, kernel, symbol, points",
        [
            ("mult-norm", {"op": "szego"}, {"kind": "polynomial", "coeffs": [1e308, 1e308, 1e308]}, [0.1, 0.2]),
            (
                "contraction",
                {"op": "szego"},
                {"kind": "compose", "outer": {"kind": "exp"}, "inner": {"kind": "polynomial", "coeffs": [0, 3000]}},
                [0.9, 0.95],
            ),
        ],
        ids=["mult-norm-poly", "contraction-exp"],
    )
    def test_overflowing_symbol_exits_3_without_warnings(self, capsys, tmp_path, command, kernel, symbol, points):
        files = {"kernel": kernel, "symbol": symbol, "sample": {"points": points}}
        argv = [command] + [arg for name, obj in files.items() for arg in ("--" + name, write(tmp_path / f"{name}.json", obj))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = run_cli(capsys, argv)
        assert code == 3
        assert report["error"]["code"] == "Overflow"

    @pytest.mark.parametrize(
        "kernel, points",
        [
            ({"op": "szego"}, [[-0.8791761901422928, 0.4764968275727375]]),
            ({"op": "szego"}, [[0.3, 0.0], [-0.40700311749865054, -0.9134267690112764]]),
            (
                {"op": "ball", "dim": 2},
                [[[-0.42650118953805655, -0.5905240438271713], [0.28790281613429075, 0.6216832452676948]]],
            ),
        ],
        ids=["szego", "szego-found", "ball2"],
    )
    def test_gram_refuses_points_rounded_into_the_disk(self, capsys, tmp_path, kernel, points):
        """Points with exact norm >= 1 that np.abs rounds below 1."""
        dim = 2 if kernel["op"] == "ball" else 1
        sample = write(tmp_path / "sample.json", {"dim": dim, "points": points})
        code, report = run_cli(capsys, ["gram", "--kernel", write(tmp_path / "k.json", kernel), "--sample", sample])
        assert code == 2
        assert report["error"]["code"] == "OutOfDomain"

    @pytest.mark.parametrize("entry", [True, "0.5", None])
    def test_psd_check_refuses_non_number_entries(self, capsys, tmp_path, entry):
        path = write(tmp_path / "m.json", {"re": [[1.0, entry], [0.5, 1.0]]})
        code, report = run_cli(capsys, ["psd-check", "--matrix", path])
        assert code == 2
        assert report["error"]["code"] == "ValidationError"
        assert "must be a real number" in report["error"]["message"]

    @pytest.mark.parametrize(
        "dist, entry", [([[0, True], ["1", 0]], "True"), ([[0, "1"], [True, 0]], "'1'"), ([[0, 1], [None, 0]], "None")]
    )
    def test_distances_refuse_non_number_entries(self, capsys, tmp_path, dist, entry):
        """The message names the first such entry in row-major order."""
        space = write(tmp_path / "space.json", {"dist": dist})
        for argv in (["lip-dual", "--space", space, "--x", "0"], ["realize", "--space", space]):
            code, report = run_cli(capsys, argv)
            assert code == 2
            assert report["error"]["message"] == f'an entry of "dist" must be a real number, got {entry}'

    def test_a_sample_part_that_is_true_is_named(self, capsys, tmp_path, inputs):
        sample = write(tmp_path / "true2.json", {"points": [[[True, 0]], [[0.3, 0]]]})
        code, report = run_cli(capsys, ["gram", "--kernel", inputs["szego"], "--sample", sample])
        assert code == 2
        assert report["error"] == {"code": "ValidationError", "message": "real part must be a real number, got True"}

    @pytest.mark.parametrize("points", [5, None, True, "ab", {"a": 1}], ids=["int", "null", "true", "str", "object"])
    def test_points_that_are_not_a_list_are_refused(self, capsys, tmp_path, inputs, points):
        sample = write(tmp_path / "sample.json", {"points": points})
        code, report = run_cli(capsys, ["gram", "--kernel", inputs["szego"], "--sample", sample])
        assert code == 2
        assert report["error"] == {"code": "ValidationError", "message": 'point set JSON must contain a "points" list'}

    @pytest.mark.parametrize(
        "argv, matrix, message",
        [
            (["psd-check", "--matrix"], {"re": [[1, 0], [1]]}, 'row 1 of "re" has length 1, but row 0 has length 2'),
            (["psd-check", "--matrix"], {"re": [[1, 0], 1]}, 'row 1 of "re" is a single number, but row 0 has length 2'),
            (["psd-check", "--matrix"], {"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0], [0]]},
             'row 2 of "im" has length 1, but row 0 has length 2'),
            (["lip-dual", "--x", "0", "--space"], {"dist": [[0, 1, 2], [1, 0, 1], [2, 1]]},
             'row 2 of "dist" has length 2, but row 0 has length 3'),
            (["gram", "--kernel", "szego", "--sample"], {"points": [[[0.1, 0]], [[0.1, 0], [0.2, 0]]]},
             'row 1 of "points" has length 2, but row 0 has length 1'),
            (["gram", "--kernel", "szego", "--sample"], {"points": [0.1, [0.2, 0], [[0.1, 0], [0.2, 0]]]},
             'row 2 of "points" has length 2, but row 0 has length 1'),
        ],
        ids=["re", "re-number", "im", "dist", "points", "points-shorthand"],
    )
    def test_ragged_rows_are_named(self, capsys, tmp_path, inputs, argv, matrix, message):
        argv = [inputs.get(arg, arg) for arg in argv]
        code, report = run_cli(capsys, argv + [write(tmp_path / "m.json", matrix)])
        assert code == 2
        assert report["error"] == {"code": "ValidationError", "message": message}

    @staticmethod
    def _nested(leaf: str, wrap: str, depth: int) -> str:
        for _ in range(depth):
            leaf = wrap.replace("LEAF", leaf)
        return leaf

    def test_deeply_nested_kernel(self, capsys, tmp_path, inputs):
        kernel = self._nested('{"op": "szego"}', '{"op": "scale", "factor": 1.0, "arg": LEAF}', 3000)
        (tmp_path / "deep.json").write_text(kernel)
        code, report = run_cli(capsys, ["gram", "--kernel", str(tmp_path / "deep.json"), "--sample", inputs["s2"]])
        assert code == 2
        message = f"{tmp_path / 'deep.json'}: input nested too deeply"
        assert report["error"] == {"code": "ValidationError", "message": message}

    def test_kernel_at_the_depth_bound_is_read(self, capsys, tmp_path, inputs):
        """A kernel of MAX_DEPTH nodes, under both kernel flags; tests/test_grammar.py refuses one more node."""
        deep = tmp_path / "deep.json"
        deep.write_text(self._nested('{"op": "szego"}', '{"op": "scale", "factor": 1.0, "arg": LEAF}', kernels.MAX_DEPTH - 1))
        sample = write(tmp_path / "s3.json", SAMPLE3)
        argv = ["mult-norm", "--kernel", str(deep), "--kernel2", str(deep), "--symbol", inputs["coord0"], "--sample", sample]
        code, report = run_cli(capsys, argv)
        assert code == 0, report

    def test_deeply_nested_symbol(self, capsys, tmp_path, inputs):
        symbol = self._nested(
            '{"kind": "coordinate", "index": 0}',
            '{"kind": "compose", "outer": {"kind": "exp"}, "inner": LEAF}',
            3000,
        )
        (tmp_path / "deep.json").write_text(symbol)
        argv = ["contraction", "--kernel", inputs["szego"], "--symbol", str(tmp_path / "deep.json"), "--sample", inputs["s2"]]
        code, report = run_cli(capsys, argv)
        assert code == 2
        message = f"{tmp_path / 'deep.json'}: input nested too deeply"
        assert report["error"] == {"code": "ValidationError", "message": message}

    def test_deep_inline_value_names_its_flag(self, capsys):
        code, report = run_cli(capsys, ["ardy-check", "--poly", "[" * 3000 + "NaN" + "]" * 3000])
        assert code == 2
        assert report["error"] == {"code": "ValidationError", "message": "--poly: input nested too deeply"}

    DEEP = "[" * 3000 + "0" + "]" * 3000
    TOO_DEEP = "a value nested too deeply to show"

    @pytest.mark.parametrize(
        "argv, edit, message",
        [
            (["gram", "--kernel", "szego", "--sample"], '{"points": %s, "dim": 1}' % ("[" * 3000 + "NaN" + "]" * 3000),
             "DEEP_FILE: input nested too deeply"),
            (["gram", "--kernel", "szego", "--sample"], '{"points": [%s], "dim": 1}' % DEEP,
             f"expected a real number or an [re, im] pair, got {TOO_DEEP}"),
            (["gram", "--kernel", "szego", "--sample"], '{"points": [0.1, 0.2], "labels": ["a", %s]}' % DEEP,
             "a label is nested too deeply to show"),
            (["realize", "--model"], ("order", "[2, 0, 4, 1, %s]" % DEEP), f"order entry must be an integer, got {TOO_DEEP}"),
            (["realize", "--model"], ("policy", DEEP), f"unknown weight policy {TOO_DEEP}"),
            (["realize", "--model"], ("depth", DEEP), f"depth must be an integer, got {TOO_DEEP}"),
            (["realize", "--model"], ("p", DEEP), f"the model exponent must be a real number, got {TOO_DEEP}"),
            (["realize", "--model"], ("extra", DEEP), "the report is nested too deeply to write"),
            (["lip-dual", "--x", "0", "--space"], '{"dist": [[0, 1], [1, 0]], "base": %s}' % DEEP,
             f"base index must be an integer, got {TOO_DEEP}"),
            (["lip-dual", "--x", "0", "--space"], '{"dist": [[0, %s], [1, 0]]}' % DEEP,
             f'an entry of "dist" must be a real number, got {TOO_DEEP}'),
            (["lip-dual", "--x", "0", "--space"], '{"dist": [[0, 1], [1, 0]], "labels": [%s, "b"]}' % DEEP,
             "a label is nested too deeply to show"),
        ],
        ids=["nan-sample", "sample-entry", "sample-label", "order-entry", "policy", "depth", "p", "echoed-extra",
             "base", "dist-entry", "space-label"],
    )
    def test_deep_values_exit_2(self, capsys, tmp_path, inputs, argv, edit, message):
        """A value nested 3000 levels deep, in a message, a label or the report, ends in exit 2."""
        if isinstance(edit, tuple):  # a key of the valid model, replaced or added
            model = json.loads((inputs["tmp"] / "model.json").read_text())
            key, text = edit
            edit = json.dumps({**model, key: "HOLE"}).replace('"HOLE"', text)
        (tmp_path / "deep.json").write_text(edit)
        code, report = run_cli(capsys, [inputs.get(arg, arg) for arg in argv] + [str(tmp_path / "deep.json")])
        assert code == 2
        assert report["status"] == "error" and report["result"] is None
        message = message.replace("DEEP_FILE", str(tmp_path / "deep.json"))
        assert report["error"] == {"code": "ValidationError", "message": message}

    def test_echoed_model_past_orjson_depth_is_written(self, capsys, inputs):
        """A model nested past orjson's 255 levels but within the stdlib's limit is echoed."""
        model = json.loads((inputs["tmp"] / "model.json").read_text())
        extra = json.loads("[" * 300 + "0" + "]" * 300)
        code, report = run_cli(capsys, ["realize", "--model", write(inputs["tmp"] / "m.json", {**model, "extra": extra})])
        assert code == 0
        assert report["result"]["model"]["extra"] == extra

    @pytest.mark.parametrize(
        "order, message",
        [
            ("[" * 995 + "]" * 995, f"--order must be a flat JSON list, got {TOO_DEEP}"),
            ("[" * 201 + "]" * 201, "--order must be a flat JSON list, got " + "[" * 201 + "]" * 201),
            ("[" * 3000 + "NaN" + "]" * 3000, "argument --order: input nested too deeply"),
            ("5", "--order must be a flat JSON list, got 5"),
            ('{"a": 1}', "--order must be a flat JSON list, got {'a': 1}"),
            ('[0, 1, {"a": 2}, 3, 4]', "--order must be a flat JSON list, got [0, 1, {'a': 2}, 3, 4]"),
        ],
        ids=["995", "201", "nan-3000", "int", "object", "object-entry"],
    )
    def test_deep_json_option_exits_2(self, capsys, inputs, order, message):
        """A JSON-valued option that is not a flat list is refused before any input is read."""
        code, report = run_cli(capsys, ["realize", "--space", inputs["interval"], "--order", order])
        assert code == 2
        assert report == {"status": "error", "error": {"code": "ValidationError", "message": message}}

    def test_json_option_at_the_depth_bound_is_read(self, capsys, inputs):
        # the bound is one level: a flat list reaches the handler, which refuses the entry
        code, report = run_cli(capsys, ["realize", "--space", inputs["interval"], "--order", '[2, 0, 4, 1, "a"]'])
        assert code == 2
        assert report["error"]["message"] == "order entry must be an integer, got 'a'"
        assert report["parameters"]["order"] == [2, 0, 4, 1, "a"]
        with pytest.raises(ValidationError, match=r"^--order must be a flat JSON list, got \[\[0\], 1\]$"):
            ExperimentConfig("realize", inputs={"space": inputs["interval"]}, options={"order": [[0], 1]})

    def test_missing_input_flag(self, capsys, inputs):
        code, report = run_cli(capsys, ["gram", "--kernel", inputs["szego"]])
        assert code == 2
        assert "requires --sample" in report["error"]["message"]

    def test_max_points_guard(self, capsys, inputs):
        code, report = run_cli(
            capsys,
            ["gram", "--kernel", inputs["szego"], "--sample", inputs["s2"], "--max-points", "1"],
        )
        assert code == 2
        assert "max-points" in report["error"]["message"]

    def test_lip_dual_index_out_of_range(self, capsys, tmp_path):
        two_point = write(tmp_path / "two.json", {"dist": [[0.0, 1.0], [1.0, 0.0]], "base": 0})
        for flags in (["--x", "7"], ["--x", "0", "--y", "5"], ["--x", "-1"]):
            code, report = run_cli(capsys, ["lip-dual", "--space", two_point, *flags])
            assert code == 2
            assert report["error"]["code"] == "ValidationError"
            assert "out of range" in report["error"]["message"]

    def test_rank_check_index_out_of_range(self, capsys, inputs):
        # the model has 5 points; -1 must not wrap around to the last one
        for points in ("[0, 9]", "[0, -1]"):
            code, report = run_cli(capsys, ["rank-check", "--model", inputs["model"], "--points", points])
            assert code == 2
            assert report["error"]["code"] == "ValidationError"
            assert "out of range" in report["error"]["message"]

    @pytest.mark.parametrize("depth", ["-1", "-3"])
    def test_rank_check_negative_depth(self, capsys, inputs, depth):
        argv = ["rank-check", "--model", inputs["model"], "--points", "[0]", "--depth", depth]
        code, report = run_cli(capsys, argv)
        assert code == 2
        assert report["error"] == {"code": "ValidationError", "message": "depth must be nonnegative"}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["realize", "--space", "interval", "--order", "[0,1,2,3,4.9]"], "order entry must be an integer, got 4.9"),
            (["realize", "--model", {"depth": 3.7}], "depth must be an integer, got 3.7"),
            (["realize", "--model", {"policy": {"balls": {"base": 1.5}}}], "ball base must be an integer, got 1.5"),
            (["rank-check", "--model", "model", "--points", "[0.7, 1]"], "point index must be an integer, got 0.7"),
            (["rank-check", "--model", "model", "--points", "[true, 0]"], "point index must be an integer, got True"),
            (["rank-check", "--model", "model", "--points", "5"], "points must be a list of integers, got 5"),
            (["rank-check", "--model", "model", "--points", '{"0": 1}'], "points must be a list of integers, got {'0': 1}"),
            (["topology-probe", "--x", "0", "--eps", "0.3", "--model", {"order": 5}], "order must be a list of integers, got 5"),
            (["realize", "--model", {"order": "02413"}], "order must be a list of integers, got '02413'"),
        ],
        ids=["order", "depth", "ball-base", "float-point", "bool-point", "points-int", "points-object", "order-int",
             "order-string"],
    )
    def test_non_integral_indices_rejected(self, capsys, inputs, argv, message):
        """A float or bool index is refused, not truncated to an int, and an
        index list that is not a list is refused by name, not iterated."""
        model = json.loads((inputs["tmp"] / "model.json").read_text())
        resolved = [
            write(inputs["tmp"] / "edited.json", {**model, **arg}) if isinstance(arg, dict) else inputs.get(arg, arg)
            for arg in argv
        ]
        code, report = run_cli(capsys, resolved)
        assert code == 2
        assert report["error"] == {"code": "ValidationError", "message": message}

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["lip-dual", "--x", "0", "--space", {"dist": [[0.0, 1.0]]}], "ValidationError", "must be square"),
            (["lip-dual", "--x", "0", "--space", {"dist": [[0.0, NAN], [NAN, 0.0]]}], "ValidationError", "must be finite"),
            (["lip-dual", "--x", "0", "--space", {"dist": [[0.0, 0.0], [0.0, 0.0]]}], "ValidationError",
             "distinct points must have positive distance"),
            (["lip-dual", "--x", "0", "--space", {"dist": [[0.0, 1.0], [1.0, 0.0]], "labels": ["a"]}], "ValidationError",
             "labels length must equal point count"),
            (["gram", "--kernel", {"op": "szego"}, "--sample", {"dim": 2, "points": [[[0.1, 0], [0.2, 0]]]}],
             "OutOfDomain", "unit disk of C^1"),
            (["gram", "--sample", "s2", "--kernel", {"op": "ball", "dim": 0}], "ValidationError", "ball dimension"),
            (["gram", "--sample", "s2", "--kernel", {"op": "sum", "terms": []}], "ValidationError", "at least one term"),
            (["psd-check", "--matrix", {"re": [[1.0, 0.0]]}], "ValidationError", "nonempty square matrix"),
            (["psd-check", "--matrix", {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0]]}], "ValidationError",
             "identical shapes"),
            (["pick-solve", "--problem", {"nodes": [[0, 0], [0.5, 0]], "values": [[0, 0]]}], "ValidationError",
             "equally many"),
            (["pick-solve", "--problem", {"nodes": [[0, 0]], "values": [[0, 0]], "bound": -1.0}], "ValidationError",
             "norm bound must be finite and nonnegative"),
            (["detect-mo", "--sample", "s2", "--matrix", {"re": [[1.0, 0.0]]}], "ValidationError", "square matrix"),
            (["detect-mo", "--matrix", {"re": [[1.0]]}, "--sample", {"dim": 2, "points": [[[0.1, 0], [0.2, 0]]] * 2}],
             "ValidationError", "at least 2 points in the disk"),
            (["submult", "--space", "interval"], "ValidationError", "provide --functions or --random N"),
            (["realize", "--space", "interval", "--seed", "-1"], "ValidationError", "seed must fit in 64 bits"),
            (["realize", "--space", "interval", "--seed", str(2**64)], "ValidationError", "seed must fit in 64 bits"),
            (["psd-check", "--matrix", {"sample": {"points": [0.1, 0.2, 0.3]}, "re": [[1.0, 0.0], [0.0, 1.0]]}],
             "ValidationError", "expected a 3x3 matrix"),
            (["psd-check", "--matrix", {"sample": {"points": [0.1, 0.2]}, "re": [[1.0, 2.0], [0.0, 1.0]]}],
             "NotHermitian", "matrix is not Hermitian"),
            # a missing key is named by the expression walker
            (["gram", "--sample", "s2", "--kernel", {"op": "ball"}], "ValidationError", 'kernel op "ball" needs the key "dim"'),
        ],
    )
    def test_validation_branches_exit_2(self, capsys, tmp_path, inputs, argv, code, message):
        """An object in argv is written to a file; a name is one of the inputs."""
        argv = [
            write(tmp_path / f"arg{k}.json", arg) if isinstance(arg, dict) else inputs.get(arg, arg)
            for k, arg in enumerate(argv)
        ]
        exit_code, report = run_cli(capsys, argv)
        assert exit_code == 2, report
        assert report["status"] == "error"
        assert report["error"]["code"] == code
        assert message in report["error"]["message"]

    @pytest.mark.parametrize("doc", ["has a sample", ["sample"]])
    @pytest.mark.parametrize("command", ["psd-check", "detect-mo"])
    def test_matrix_file_that_is_not_an_object(self, capsys, tmp_path, inputs, command, doc):
        """A string or list mentioning "sample" is no Gram file: both commands name the format."""
        argv = [command, "--matrix", write(tmp_path / "matrix.json", doc)]
        code, report = run_cli(capsys, argv + (["--sample", inputs["s2"]] if command == "detect-mo" else []))
        assert code == 2
        assert report["error"] == {
            "code": "ValidationError",
            "message": 'expected a matrix object with "re" (and optional "im") keys',
        }

    @pytest.mark.parametrize("key", ["space", "order", "depth"])
    def test_model_without_a_key_is_refused(self, capsys, inputs, key):
        model = json.loads((inputs["tmp"] / "model.json").read_text())
        del model[key]
        code, report = run_cli(capsys, ["realize", "--model", write(inputs["tmp"] / "partial.json", model)])
        assert code == 2
        assert report["error"] == {"code": "ValidationError", "message": 'model JSON needs "space", "order", "depth"'}

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["psd-check", "--matrix", {"re": [[-1.0]]}],
            ["detect-mo", "--sample", "s2", "--matrix", {"re": [[1.0, 0.0], [0.0, 2.0]]}],
            ["vn-check", "--symbol", "coord0", "--sample", "s2", "--poly", "[0, 1]"],
            ["roundtrip", "--model", "model", "--coeffs", "[1, 0.5]"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_non_finite_tolerance_exits_2(self, capsys, tmp_path, inputs, argv, tol):
        """A command that runs at its default tolerance refuses --tol inf and nan."""
        argv = [
            write(tmp_path / f"arg{k}.json", arg) if isinstance(arg, dict) else inputs.get(arg, arg)
            for k, arg in enumerate(argv)
        ]
        assert run_cli(capsys, argv)[0] == 0
        code, report = run_cli(capsys, [*argv, "--tol", tol])
        assert code == 2
        assert report["error"] == {"code": "ValidationError", "message": "tolerance must be positive and finite"}

    def test_distinct_error_codes(self, capsys, tmp_path, inputs):
        seen = set()
        bad_matrix = write(tmp_path / "nh.json", {"re": [[1.0, 2.0], [0.0, 1.0]], "im": [[0, 0], [0, 0]]})
        for argv in (
            ["psd-check", "--matrix", bad_matrix],
            ["carleson-probe", "--m", "13"],
            ["lip-dual", "--space", inputs["interval"], "--x", "2", "--y", "2"],
        ):
            _, report = run_cli(capsys, argv)
            seen.add(report["error"]["code"])
        assert seen == {"NotHermitian", "PatternBudgetExceeded", "SamePoint"}

    @pytest.mark.parametrize("error", [KeyError, TypeError, ValueError, OverflowError])
    def test_a_stray_builtin_error_is_bad_input(self, capsys, monkeypatch, error):
        """A handler that raises a builtin error on input it did not foresee
        exits 2 with one JSON report, not a traceback."""

        def handler(config, loader):
            raise error("planted")

        monkeypatch.setitem(cli._REGISTRY, "ardy-check", cli._REGISTRY["ardy-check"]._replace(handler=handler))
        code = run(ExperimentConfig("ardy-check", inline={"poly": "[1]"}))
        lines = capsys.readouterr().out.splitlines()
        assert code == 2 and len(lines) == 1
        report = json.loads(lines[0])
        assert report["status"] == "error" and report["result"] is None
        assert report["error"]["code"] == "ValidationError"
        assert report["error"]["message"] == f"bad input: {error('planted')!r}"


class TestParserErrors:
    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["gram", "--bogus", "1"], "unrecognized arguments: --bogus"),
            (["carleson-probe"], "requires --m"),
            (["carleson-probe", "--m", "abc"], "invalid int value: 'abc'"),
            (["frobnicate"], "invalid choice: 'frobnicate'"),
            ([], "required"),
            (["gram", "--method", "pencil"], "unrecognized arguments: --method"),
            (["lip-dual", "--csv", "x"], "unrecognized arguments: --csv"),
            # no prefix matching: another command's flag is not --max-points
            (["gram", "--kernel", "k.json", "--sample", "s.json", "--m", "1"], "unrecognized arguments: --m 1"),
            (["carleson-probe", "--m", "3", "--max", "1"], "unrecognized arguments: --max 1"),
            # --seed and --max-points only where a command reads them
            (["gram", "--seed", "1"], "unrecognized arguments: --seed 1"),
            (["carleson-probe", "--m", "3", "--max-points", "8"], "unrecognized arguments: --max-points 8"),
            (["ardy-check", "--poly", "[0, 1]", "--seed", "1"], "unrecognized arguments: --seed 1"),
            (["lip-dual", "--space", "s.json", "--x", "0", "--oracle"], "unrecognized arguments: --oracle"),
        ],
    )
    def test_usage_error_is_a_json_report(self, capsys, argv, needle):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["status"] == "error"
        assert report["error"]["code"] == "ValidationError"
        assert needle in report["error"]["message"]

    def test_each_command_takes_only_the_flags_it_reads(self):
        subparsers = next(action for action in cli._build_parser()._actions if action.dest == "command")
        flags = {
            name: [flag for action in parser._actions for flag in action.option_strings if flag not in ("-h", "--help")]
            for name, parser in subparsers.choices.items()
        }
        assert sum(map(len, flags.values())) == 86
        assert {name for name, taken in flags.items() if "--seed" in taken} == {"realize", "submult"}
        assert {name for name, taken in flags.items() if "--csv" in taken} == {"mult-norm"}
        assert {name for name, taken in flags.items() if "--max-points" not in taken} == {"carleson-probe", "ardy-check"}
        assert all(bool(cli._REGISTRY[name].files) == ("--max-points" in taken) for name, taken in flags.items())

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gram", "--help"])
        assert exc.value.code == 0
        assert "--kernel" in capsys.readouterr().out

    def test_unwritable_out_and_csv(self, capsys, inputs):
        missing = str(inputs["tmp"] / "absent" / "r.json")
        code, report = run_cli(capsys, ["ardy-check", "--poly", "[2]", "--out", missing])
        assert code == 2
        assert "cannot write" in report["error"]["message"]
        argv = ["mult-norm", "--kernel", inputs["szego"], "--symbol", inputs["coord0"], "--sample", inputs["s2"]]
        code, report = run_cli(capsys, argv + ["--csv", str(inputs["tmp"])])
        assert code == 2
        assert "cannot write" in report["error"]["message"]


class TestPolyParsing:
    @pytest.mark.parametrize("poly", ["[[1,2,3]]", "5"])
    def test_ardy_check_rejects_bad_coefficients(self, capsys, poly):
        code, report = run_cli(capsys, ["ardy-check", "--poly", poly])
        assert code == 2
        assert report["error"]["code"] == "ValidationError"
        assert "[re, im]" in report["error"]["message"]

    @pytest.mark.parametrize("poly", ["[[1,2,3]]", "5"])
    def test_vn_check_rejects_bad_coefficients(self, capsys, inputs, poly):
        argv = ["vn-check", "--symbol", inputs["moebius"], "--poly", poly, "--sample", inputs["s2"]]
        code, report = run_cli(capsys, argv)
        assert code == 2
        assert "[re, im]" in report["error"]["message"]

    def test_an_empty_polynomial_is_refused(self, capsys, inputs):
        """As ``--poly`` and as a polynomial ``--symbol``."""
        empty = write(inputs["tmp"] / "empty.json", {"kind": "polynomial", "coeffs": []})
        vn_check = ["vn-check", "--symbol", inputs["moebius"], "--sample", inputs["s2"]]
        files = ["--kernel", inputs["szego"], "--symbol", empty, "--sample", inputs["s2"]]
        for argv in (
            ["ardy-check", "--poly", "[]"],
            vn_check + ["--poly", "[]"],
            ["mult-norm", *files],
            ["contraction", *files],
            ["vn-check", "--symbol", empty, "--poly", "[0, 1]", "--sample", inputs["s2"]],
        ):
            code, report = run_cli(capsys, argv)
            assert code == 2
            assert report["error"] == {
                "code": "ValidationError",
                "message": "polynomial coefficients must hold at least one number",
            }

    def test_an_empty_roundtrip_sequence_is_the_zero_sequence(self, capsys, inputs):
        code, report = run_cli(capsys, ["roundtrip", "--model", inputs["model"], "--coeffs", "[]"])
        assert code == 0
        assert report["result"]["recovered"] == [[0.0, 0.0]] * 4
        assert report["result"]["max_abs_error"] == 0.0

    def test_pairs_and_reals_still_accepted(self, capsys):
        code, report = run_cli(capsys, ["ardy-check", "--poly", "[[2, 0], 0]"])
        assert code == 0
        assert report["result"] == {"is_multiplier": True}


def _keys_sorted(obj):
    if isinstance(obj, dict):
        return list(obj) == sorted(obj) and all(map(_keys_sorted, obj.values()))
    return not isinstance(obj, list) or all(map(_keys_sorted, obj))


def _line_space(n):
    x = np.arange(n) / 128  # dyadic, so the exact triangle check holds
    return {"dist": np.abs(np.subtract.outer(x, x)).tolist(), "base": 0}


class TestMaxPoints:
    def test_realize_rejects_65_points_at_default(self, capsys, tmp_path):
        space = write(tmp_path / "big.json", _line_space(65))
        code, report = run_cli(capsys, ["realize", "--space", space])
        assert code == 2
        assert "max-points" in report["error"]["message"]

    def test_counted_before_the_metric_is_validated(self, capsys, tmp_path):
        # all-zero distances are no metric; the size check must answer first
        space = write(tmp_path / "zero.json", {"dist": [[0.0] * 65] * 65})
        model = write(tmp_path / "zero_model.json", {"space": {"dist": [[0.0] * 65] * 65}, "order": [], "depth": 1})
        for argv in (
            ["realize", "--space", space],
            ["realize", "--model", model],
            ["topology-probe", "--model", model, "--x", "0", "--eps", "0.5"],
            ["rank-check", "--model", model, "--points", "[0]"],
            ["roundtrip", "--model", model, "--coeffs", "[1]"],
            ["lip-dual", "--space", space, "--x", "0"],
        ):
            code, report = run_cli(capsys, argv)
            assert code == 2, argv
            assert "has 65 points, above --max-points 64" in report["error"]["message"], argv

    def test_point_commands_check_their_inputs(self, capsys, tmp_path, inputs):
        nodes = [[0.5 * k / 65, 0.0] for k in range(65)]
        problem = write(tmp_path / "pick.json", {"nodes": nodes, "values": [[0, 0]] * 65})
        sample = write(tmp_path / "sample.json", {"dim": 1, "points": nodes})
        matrix = write(tmp_path / "eye.json", {"re": np.eye(65).tolist()})
        small = write(tmp_path / "eye2.json", {"re": np.eye(2).tolist()})
        for argv in (
            ["pick-solve", "--problem", problem],
            ["detect-mo", "--matrix", small, "--sample", sample],
            ["psd-check", "--matrix", matrix],
        ):
            code, report = run_cli(capsys, argv)
            assert code == 2, argv
            assert "max-points" in report["error"]["message"], argv
        code, _ = run_cli(capsys, ["psd-check", "--matrix", matrix, "--max-points", "65"])
        assert code == 0

    def test_detect_mo_counts_matrix_rows(self, capsys, tmp_path, inputs):
        matrix = write(tmp_path / "eye100.json", {"re": np.eye(100).tolist()})
        code, report = run_cli(capsys, ["detect-mo", "--matrix", matrix, "--sample", inputs["s2"], "--max-points", "8"])
        assert code == 2
        assert report["error"]["message"] == "matrix has 100 points, above --max-points 8"

    def test_a_huge_budget_reads_a_small_file(self, capsys, inputs):
        """The budget of --max-points 10**8 (2.56e18 bytes) is never allocated."""
        argv = ["gram", "--kernel", inputs["szego"], "--sample", inputs["s2"], "--max-points", str(10**8)]
        code, report = run_cli(capsys, argv)
        assert code == 0, report

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
    def test_a_file_past_the_budget_is_refused_unparsed(self, tmp_path, inputs):
        """A 26 MB sample of 2,000,000 one-point rows costs its reader's peak
        RSS nothing: it is refused after 2 MiB + 1 bytes (the budget of
        --max-points 64), where reading and parsing it whole peaked near
        500 MiB.  A small wrapper starts the CLI, since a child started by
        vfork counts its parent's RSS in its own ``ru_maxrss``."""
        sample = tmp_path / "rows.json"
        with open(sample, "w") as fh:
            fh.write('{"points": [[0.1, 0.25]')
            fh.writelines([", [0.1, 0.25]" * 1000] * 1999 + [", [0.1, 0.25]" * 999 + "]}"])
        wrapper = (
            "import json, os, subprocess, sys; child = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE); "
            "out = child.stdout.read(); _, status, usage = os.wait4(child.pid, 0); "
            "print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss, json.loads(out)]))"
        )
        argv = ["-m", "funcspace.cli", "gram", "--kernel", inputs["szego"], "--sample", str(sample)]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(funcspace.__file__))}
        out = subprocess.run([sys.executable, "-c", wrapper, sys.executable, *argv], env=env, capture_output=True, check=True)
        code, maxrss_kib, report = json.loads(out.stdout)
        assert code == 2
        assert report["error"]["message"] == f"{sample} holds more than 2097152 bytes, the budget of --max-points 64"
        assert maxrss_kib < 100 * 1024


class TestConfigObject:
    def test_unknown_command_rejected(self):
        with pytest.raises(Exception):
            ExperimentConfig(command="frobnicate")

    def test_inputs_belong_to_their_command(self, inputs):
        files = {"kernel": inputs["szego"], "sample": inputs["s2"]}
        with pytest.raises(ValidationError, match="^command 'gram' takes no --kernel2$"):
            ExperimentConfig("gram", inputs={**files, "kernel2": inputs["szego"]})
        with pytest.raises(ValidationError, match="^command 'gram' takes no --poly$"):
            ExperimentConfig("gram", inputs=files, inline={"poly": "[0, 1]"})
        with pytest.raises(ValidationError, match="^command 'ardy-check' takes no --poly$"):
            ExperimentConfig("ardy-check", inputs={"poly": "[0, 1]"})

    @pytest.mark.parametrize(
        "command, field, name, value",
        [
            ("gram", "inputs", "kernel", True),  # open(True) would read and close stdout
            ("gram", "inputs", "kernel", 3),
            ("ardy-check", "inline", "poly", 5),
            ("ardy-check", "inline", "poly", b"[0, 1]"),
        ],
    )
    def test_paths_and_inline_values_are_str(self, command, field, name, value):
        with pytest.raises(ValidationError, match=f"^--{name} must be a str, got {re.escape(repr(value))}$"):
            ExperimentConfig(command, **{field: {name: value}})

    @pytest.mark.parametrize("field", ["inputs", "inline", "options"])
    @pytest.mark.parametrize("value", [None, [], "kernel"])
    def test_named_inputs_and_options_are_dicts(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be a dict, got {re.escape(repr(value))}$"):
            ExperimentConfig("gram", **{field: value})

    @pytest.mark.parametrize("method", ["newton", None, 1])
    def test_method_is_one_of_its_choices(self, inputs, method):
        files = {"kernel": inputs["szego"], "symbol": inputs["coord0"], "sample": inputs["s2"]}
        with pytest.raises(ValidationError, match=f"^--method must be one of bisection, pencil, got {method!r}$"):
            ExperimentConfig("mult-norm", inputs=files, method=method)

    def test_method_and_csv_belong_to_mult_norm(self):
        with pytest.raises(ValidationError, match="takes no --method"):
            ExperimentConfig("gram", method="bisection")
        with pytest.raises(ValidationError, match="takes no option 'csv'"):
            ExperimentConfig("lip-dual", options={"csv": "curve.csv"})
        with pytest.raises(ValidationError, match="^--csv must be a str, got 5$"):
            ExperimentConfig("mult-norm", options={"csv": 5})
        assert ExperimentConfig("mult-norm", method="bisection", options={"csv": "curve.csv"}).method == "bisection"

    @pytest.mark.parametrize("name", COMMANDS)
    def test_options_meet_the_declared_kinds(self, name):
        """In process, as from argv: an int option (``seed`` among them) or
        max_points is never truncated from a float or a bool, max_points is
        refused where no input file is read, and an undeclared option is refused."""
        cmd = cli._REGISTRY[name]
        for option in [option for option, kind in cmd.options.items() if kind is int]:
            for value in (1.5, True):
                with pytest.raises(ValidationError, match=f"--{option} must be an integer, got {value!r}"):
                    ExperimentConfig(name, options={option: value})
        for value in (2.5, None):  # None stands for a default only of tol and out
            with pytest.raises(ValidationError, match=f"--max-points must be an integer, got {value!r}"):
                ExperimentConfig(name, max_points=value)
        if not cmd.files:
            with pytest.raises(ValidationError, match="takes no --max-points"):
                ExperimentConfig(name, max_points=8)
        with pytest.raises(ValidationError, match="takes no option 'bogus'"):
            ExperimentConfig(name, options={"bogus": 1})

    def test_run_callable_directly(self, capsys, inputs):
        config = ExperimentConfig(
            command="carleson-probe", options={"m": 2, "start": 0.0}
        )
        assert run(config) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["nodes"] == [0.5, 0.75]

    def test_all_commands_registered(self):
        assert len(COMMANDS) == 16

    def test_no_command_loads_scipy(self, tmp_path, inputs):
        # scipy is a test dependency only; the import also loads none of three
        # stdlib modules that nothing in the package needs (dataclasses would
        # also load copy)
        from funcspace.hardy_pick import compress_square, toeplitz_mo

        T = compress_square(toeplitz_mo([0.0, 1.0], 12), 12)
        mo = write(tmp_path / "T.json", {"re": T.real.tolist(), "im": T.imag.tolist()})
        pts = write(tmp_path / "pts.json", {"dim": 1, "points": [[0.1, 0.0], [0.2, 0.0]]})
        psd = write(tmp_path / "m.json", {"re": [[2.0, 1.0], [1.0, 2.0]], "im": [[0, 0], [0, 0]]})
        pick = write(tmp_path / "pick.json", {"nodes": [[0.1, 0.2], [0.5, 0]], "values": [[0.3, 0], [0, 0.1]]})
        mult_norm = ["mult-norm", "--kernel", inputs["szego"], "--symbol", inputs["coord0"], "--sample", inputs["s2"]]
        commands = [
            ["psd-check", "--matrix", psd],
            ["gram", "--kernel", inputs["szego"], "--sample", inputs["s2"]],
            [*mult_norm, "--method", "pencil"],
            [*mult_norm, "--method", "bisection"],
            ["contraction", "--kernel", inputs["szego"], "--symbol", inputs["coord0"], "--sample", inputs["s2"]],
            ["kl-check", "--kernel", inputs["szego"], "--kernel2", inputs["szego"], "--symbol", inputs["moebius"],
             "--sample", inputs["s2"]],
            ["vn-check", "--symbol", inputs["moebius"], "--poly", "[0, -0.5, 1]", "--sample", inputs["s2"]],
            ["realize", "--space", inputs["interval"], "--depth", "3"],
            ["topology-probe", "--model", inputs["model"], "--x", "2", "--eps", "0.3"],
            ["rank-check", "--model", inputs["model"], "--points", "[0, 2, 4]"],
            ["roundtrip", "--model", inputs["model"], "--coeffs", "[1, [0, 1], 0.5, -2]"],
            ["lip-dual", "--space", inputs["interval"], "--x", "3"],
            ["lip-dual", "--space", inputs["interval"], "--x", "0", "--y", "4"],
            ["submult", "--space", inputs["interval"], "--random", "6"],
            ["pick-solve", "--problem", pick],
            ["carleson-probe", "--m", "4"],
            ["detect-mo", "--matrix", mo, "--sample", pts],
            ["ardy-check", "--poly", "[0, 1]"],
        ]
        assert {argv[0] for argv in commands} == set(COMMANDS)
        code = """if True:
            import contextlib, io, json, sys
            import funcspace.cli

            def scipy_modules():
                return sorted(name for name in sys.modules if name.startswith("scipy"))

            def run(argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    return funcspace.cli.main(argv)

            commands = json.loads(sys.argv[1])
            seen = {"import": scipy_modules(), "stdlib": sorted({"dataclasses", "decimal", "fractions"} & set(sys.modules))}
            for argv in commands:
                seen[" ".join(argv[:1] + argv[-2:])] = [run(argv), scipy_modules()]
            print(json.dumps(seen))
        """
        src = os.path.dirname(os.path.dirname(funcspace.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(commands)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        seen = json.loads(out.stdout)
        assert seen.pop("import") == []
        assert seen.pop("stdlib") == []
        assert len(seen) == len(commands)
        assert seen == {name: [0, []] for name in seen}


class TestEntryPoint:
    @pytest.mark.parametrize(
        "argv, code, outcome",
        [
            (["carleson-probe", "--m", "3"], 0, "ok"),
            (["ardy-check", "--poly", "[0, 1]", "--seed", "1"], 2, "ValidationError"),
            (["gram", "--kernel", "huge", "--sample", "sample3"], 3, "Overflow"),
        ],
        ids=["exit-0", "exit-2", "exit-3"],
    )
    def test_exit_status_leaves_the_process(self, tmp_path, argv, code, outcome):
        """``python -m funcspace.cli`` exits with its report's status and writes one report line, nothing to stderr."""
        files = {"huge": write(tmp_path / "huge.json", OVERFLOWING_KERNEL), "sample3": write(tmp_path / "s3.json", SAMPLE3)}
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(funcspace.__file__))}
        out = subprocess.run(
            [sys.executable, "-m", "funcspace.cli", *[files.get(arg, arg) for arg in argv]],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == code, out.stderr
        assert out.stderr == "" and out.stdout.count("\n") == 1
        report = json.loads(out.stdout)
        assert (report["status"] if code == 0 else report["error"]["code"]) == outcome
