import json


import numpy as np
import pytest

from opcalc import cli, hodge, torus


class TestAnalyzeSymbol:
    def test_bundled_pass(self, capsys):
        assert cli.main(["analyze-symbol", "bundled:dirac1d"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_bundled_counterexample_fails_with_name(self, capsys):
        assert cli.main(["analyze-symbol", "bundled:dirac1d_nilpotent"]) == 1
        out = capsys.readouterr().out
        assert "coercive_on_range" in out

    def test_pair_counterexample(self, capsys):
        assert cli.main(["analyze-symbol", "bundled:pair_gamma_equal"]) == 1
        assert "coercive_on_range" in capsys.readouterr().out

    def test_grad_div_pass(self, capsys):
        assert cli.main(["analyze-symbol", "bundled:graddiv2d", "--sphere-samples", "64"]) == 0
        out = capsys.readouterr().out
        assert '"failures": []' in out

    def test_missing_file_is_config_error(self):
        assert cli.main(["analyze-symbol", "/nonexistent/path.json"]) == 2

    def test_unparsable_file_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["analyze-symbol", str(bad)]) == 2

    def test_grid_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze-symbol", "bundled:dirac1d", "--grid", "10"])
        capsys.readouterr()
        assert exc.value.code == 2

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        cli.main(["analyze-symbol", "bundled:dirac1d", "--json", str(out)])
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["pass"] is True
        assert data["constants"]["kappa"] == 1.0


SMALL = {
    "seed": 3,
    "grid": {"n": 1, "g": 16},
    "sphere_samples": 16,
    "samples": 16,
    "trials": 1,
    "k_min": -3,
    "k_max": 3,
    "windows": [2, 4],
    "tolerance": 1e-3,
    "deltas": [0.02, 0.01],
    "nodes": 48,
    "circle_nodes": 4,
    "triple_g": 8,
}


class TestSuite:
    def test_runs_and_reports(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        code = cli.main(
            ["suite", "hodge-var", "--config", str(cfg), "--out", str(tmp_path / "r")]
        )
        capsys.readouterr()
        assert code == 0
        files = list((tmp_path / "r").glob("*.json"))
        assert len(files) == 1
        data = json.loads(files[0].read_text())
        assert data["pass"] is True
        assert "inputs_digest" in data

    def test_deterministic_bytes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        for name in ("a", "b"):
            cli.main(
                ["suite", "hodge-const", "--config", str(cfg),
                 "--out", str(tmp_path / name)]
            )
        capsys.readouterr()
        a = (tmp_path / "a" / "hodge-const__hodge-const.json").read_bytes()
        b = (tmp_path / "b" / "hodge-const__hodge-const.json").read_bytes()
        assert a == b

    def test_failure_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL, "symbol": "bundled:pair_gamma_equal"}))
        code = cli.main(
            ["suite", "symbols", "--config", str(cfg), "--out", str(tmp_path / "r")]
        )
        capsys.readouterr()
        assert code == 1

    def test_unknown_suite_is_config_error(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["suite", "no-such-suite"])

    def test_bad_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        code = cli.main(["suite", "symbols", "--config", str(cfg)])
        capsys.readouterr()
        assert code == 2

    def test_array_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code = cli.main(["suite", "symbols", "--config", str(cfg)])
        capsys.readouterr()
        assert code == 2

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "r")
        assert cli.main(["suite", "hodge-const", "--seed", "-1", "--out", out]) == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        assert cli.main(["suite", "hodge-const", "--config", str(cfg), "--out", out]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "suite, config",
        [
            ("hodge-const", {"grid": {"n": 1, "g": 10}}),
            ("hodge-const", {"grid": {"n": "x"}}),
            ("hodge-var", {"coefficients": {"b1": "/nonexistent.bin"}}),
            ("quadest", {"k_min": 5, "k_max": -5}),
            ("quadest", {"samples": 8}),
        ],
    )
    def test_bad_values_are_config_errors(self, tmp_path, capsys, suite, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = cli.main(["suite", suite, "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert "error:" in capsys.readouterr().err
        assert code == 2

    def test_perturb_suite_emits_ratio_table(self, tmp_path, capsys):
        code = cli.main(
            ["suite", "perturb", "--seed", "5", "--out", str(tmp_path / "r")]
        )
        capsys.readouterr()
        assert code == 0
        data = json.loads((tmp_path / "r" / "perturb__perturb.json").read_text())
        rows = data["constants"]["ratios"]
        # deltas are measured sup-norm distances, not the requested values
        assert np.allclose([r["delta"] for r in rows], [0.04, 0.02, 0.01])

    def test_threaded_run_matches_serial_bytes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        cli.run_suite("quadest", json.loads(cfg.read_text()), tmp_path / "serial",
                      threads=1)
        cli.run_suite("quadest", json.loads(cfg.read_text()), tmp_path / "parallel",
                      threads=4)
        capsys.readouterr()
        for fa in sorted((tmp_path / "serial").glob("*.json")):
            assert fa.read_bytes() == (tmp_path / "parallel" / fa.name).read_bytes()


class TestReportMerge:
    def test_merge(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        cli.main(["suite", "hodge-const", "--config", str(cfg),
                  "--out", str(tmp_path / "r")])
        capsys.readouterr()
        out = tmp_path / "merged.json"
        code = cli.main(["report", "--merge", str(tmp_path / "r"), "--out", str(out)])
        assert code == 0
        merged = json.loads(out.read_text())
        assert "hodge-const__hodge-const" in merged

    def test_merge_missing_dir(self):
        assert cli.main(["report", "--merge", "/nonexistent"]) == 2


class TestCoefficientExpressions:
    def test_identity(self, grid16):
        mf = hodge.parse_coefficient("identity", grid16, 2)
        assert np.allclose(mf.values, np.eye(2))

    def test_random_expression(self, grid16):
        mf = hodge.parse_coefficient("identity+0.05*random(7)", grid16, 2)
        dist = (mf - hodge.MatrixField.identity(grid16, 2)).inf_norm
        assert abs(dist - 0.05) < 1e-12

    def test_diag_expression_keeps_structure(self, grid16):
        mf = hodge.parse_coefficient("identity+0.1*diagrandom(7)", grid16, 2)
        off = mf.values.copy()
        off[..., np.arange(2), np.arange(2)] = 0.0
        assert np.abs(off).max() == 0.0

    def test_file_round_trip(self, grid16, tmp_path):
        mf = hodge.perturbed_identity(grid16, 2, 0.2, 9)
        path = tmp_path / "coef.bin"
        torus.save_field(path, hodge.MatrixField(grid16, mf.values))
        loaded = hodge.parse_coefficient(str(path), grid16, 2)
        assert (loaded - mf).inf_norm < 1e-6

    def test_bad_expression(self, grid16):
        with pytest.raises((ValueError, FileNotFoundError)):
            hodge.parse_coefficient("identity+oops", grid16, 2)
