import json
import os
import subprocess
import sys

import numpy as np
import pytest

import funcspace
from funcspace.cli import COMMANDS, ExperimentConfig, main, run

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


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

    def test_pick_solve(self, capsys, tmp_path):
        path = write(tmp_path / "pick.json", {"nodes": [[0, 0], [0.5, 0]], "values": [[0, 0], [0.5, 0]], "bound": 1.0})
        code, report = run_cli(capsys, ["pick-solve", "--problem", path])
        assert code == 0
        assert abs(report["result"]["min_norm"] - 1.0) <= 1e-9
        assert report["result"]["feasible_at_bound"]["is_psd"] is True

    def test_pick_solve_reports_pencil_norm(self, capsys, tmp_path):
        path = write(tmp_path / "pick.json", {"nodes": [[0.1, 0.2], [0.5, 0], [-0.3, 0.6]], "values": [[1, 0], [0, 0], [0.5, 0.5]]})
        code, report = run_cli(capsys, ["pick-solve", "--problem", path])
        assert code == 0
        result = report["result"]
        assert result["pencil_norm"] <= result["min_norm"] <= result["pencil_norm"] + 1e-9

    def test_pick_solve_non_finite_target(self, capsys, tmp_path):
        path = write(tmp_path / "nan.json", {"nodes": [[0.1, 0], [0.5, 0]], "values": [float("nan"), [0.2, 0]]})
        code, report = run_cli(capsys, ["pick-solve", "--problem", path])
        assert code == 2
        assert report["error"]["code"] == "ValidationError"
        assert "non-finite" in report["error"]["message"]

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
        code, report = run_cli(
            capsys, ["rank-check", "--model", inputs["model"], "--points", "[0, 2, 4]"]
        )
        assert code == 0
        assert report["result"]["rank"] == 3

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


class TestGeometryCommands:
    def test_lip_dual_pair_with_oracle(self, capsys, inputs):
        code, report = run_cli(
            capsys, ["lip-dual", "--space", inputs["interval"], "--x", "0", "--y", "4", "--oracle"]
        )
        assert code == 0
        assert report["result"]["value"] == 1.0
        assert report["result"]["lp_oracle"] == pytest.approx(1.0, abs=1e-9)

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

    def test_input_digests_recorded(self, capsys, inputs):
        _, report = run_cli(capsys, ["gram", "--kernel", inputs["szego"], "--sample", inputs["s2"]])
        assert set(report["inputs"]) == {"kernel", "sample"}
        assert len(report["inputs"]["kernel"]["sha256"]) == 64


class TestErrorPaths:
    def test_malformed_json_line_column(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"op": "szego",\n  broken')
        code, report = run_cli(capsys, ["gram", "--kernel", str(path), "--sample", str(path)])
        assert code == 2
        assert report["status"] == "error"
        assert "line 2" in report["error"]["message"]
        assert "column" in report["error"]["message"]

    def test_numerical_error_exit_code(self, capsys, tmp_path, inputs):
        dup = write(tmp_path / "dup.json", {"dim": 1, "points": [[0.3, 0.0], [0.3, 0.0]]})
        code, report = run_cli(
            capsys,
            ["mult-norm", "--kernel", inputs["szego"], "--symbol", inputs["coord0"], "--sample", dup],
        )
        assert code == 3
        assert report["error"]["code"] == "DegenerateGram"

    def test_validation_error_exit_code(self, capsys, tmp_path):
        path = write(tmp_path / "m.json", {"re": [[1.0, 2.0], [0.0, 1.0]], "im": [[0, 0], [0, 0]]})
        code, report = run_cli(capsys, ["psd-check", "--matrix", path])
        assert code == 2
        assert report["error"]["code"] == "NotHermitian"

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

    def test_pairs_and_reals_still_accepted(self, capsys):
        code, report = run_cli(capsys, ["ardy-check", "--poly", "[[2, 0], 0]"])
        assert code == 0
        assert report["result"] == {"is_multiplier": True}


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


class TestLpOracle:
    def test_skipped_oracle_is_reported(self, capsys, tmp_path):
        space = write(tmp_path / "seven.json", _line_space(7))
        code, report = run_cli(capsys, ["lip-dual", "--space", space, "--x", "1", "--oracle"])
        assert code == 0
        assert report["result"]["lp_oracle"] == {"skipped": "n > 6"}


class TestConfigObject:
    def test_unknown_command_rejected(self):
        with pytest.raises(Exception):
            ExperimentConfig(command="frobnicate")

    def test_run_callable_directly(self, capsys, inputs):
        config = ExperimentConfig(
            command="carleson-probe", options={"m": 2, "start": 0.0}
        )
        assert run(config) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["nodes"] == [0.5, 0.75]

    def test_all_commands_registered(self):
        assert len(COMMANDS) == 16

    def test_import_leaves_scipy_optimize_unloaded(self):
        # linprog is imported by the LP oracle of lip-dual --oracle only
        src = os.path.dirname(os.path.dirname(funcspace.__file__))
        code = "import sys, funcspace.cli; print('scipy.optimize' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        assert out.stdout.strip() == "False"
