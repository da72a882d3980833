import collections
import contextlib
import importlib.util
import inspect
import io
import json
import math
import sys
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from opcalc import cli, hodge, torus
from opcalc.errors import (
    DecompositionFailure,
    HodgeDecompositionUncertain,
    NotInvertible,
    OpcalcError,
)

from conftest import symbol_to_dict


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

    @pytest.mark.parametrize("obj", [
        [1],
        {"kind": "hodge_pair", "n": 1, "N": 2, "gamma": 5, "gamma_tilde": 5},
        {"kind": "homogeneous_symbol", "n": 1, "N": 1, "k": 1, "coeffs": [1]},
    ])
    def test_wrong_json_shape_is_config_error(self, tmp_path, capsys, obj):
        path = tmp_path / "symbol.json"
        path.write_text(json.dumps(obj))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"symbol": str(path)}))
        for argv in (["analyze-symbol", str(path)],
                     ["suite", "hodge-const", "--config", str(cfg), "--out", str(tmp_path)]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        cli.main(["analyze-symbol", "bundled:dirac1d", "--json", str(out)])
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["pass"] is True
        assert data["constants"]["kappa"] == 1.0

    def test_unwritable_json_is_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.json")
        assert cli.main(["analyze-symbol", "bundled:dirac1d", "--json", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and out in err

    @pytest.mark.parametrize("key, value", [("n", 1.9), ("k", True), ("N", "1")])
    def test_sizes_must_be_json_integers(self, tmp_path, capsys, key, value):
        path = tmp_path / "symbol.json"
        path.write_text(json.dumps({**symbol_to_dict(cli.DX), key: value}))
        assert cli.main(["analyze-symbol", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n, N and k must be JSON integers" in err


def stub_matplotlib(monkeypatch) -> dict:
    """Put stub ``matplotlib`` and ``matplotlib.pyplot`` modules in sys.modules;
    the returned dict maps the path of each figure saved to the (x, y) of its
    axes' one curve."""
    saved = {}

    class Axes:
        def plot(self, x, y, style):
            self.curve = (list(x), list(y))

        semilogy = loglog = plot

        def set_xlabel(self, label):
            pass

        set_ylabel = set_xlabel

    class Figure:
        def __init__(self):
            self.ax = Axes()

        def savefig(self, path, dpi):
            saved[path] = self.ax.curve

    def subplots():
        fig = Figure()
        return fig, fig.ax

    mpl = types.ModuleType("matplotlib")
    mpl.use = lambda backend: None
    mpl.pyplot = types.ModuleType("matplotlib.pyplot")
    mpl.pyplot.subplots, mpl.pyplot.close = subplots, lambda fig: None
    monkeypatch.setitem(sys.modules, "matplotlib", mpl)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", mpl.pyplot)
    return saved


def unreported_error_data(classes) -> list[str]:
    """"Class.parameter" for each keyword parameter of an error class's
    ``__init__`` beyond its message that cli.ERROR_FIELDS does not keep in a
    failed report."""
    kinds = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    return [f"{cls.__name__}.{name}" for cls in classes
            for name, param in inspect.signature(cls.__init__).parameters.items()
            if param.kind in kinds and name not in ("self", "msg", *cli.ERROR_FIELDS)]


def error_types(base=OpcalcError):
    """Every subclass of ``base``, at any depth."""
    for sub in base.__subclasses__():
        yield sub
        yield from error_types(sub)


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
    "circle_nodes": 4,
    "triple_g": 8,
}


# (suite, config, probe, key): values a probe would otherwise meet only
# mid-run, or that would let it pass having checked nothing
NAMED_BAD_VALUES = [
    ("hodge-const", {"tolerance": "a"}, "hodge-const", "tolerance"),
    ("hodge-const", {"trials": "x"}, "hodge-const", "trials"),
    ("hodge-const", {"grid": {"n": 3, "g": 4}}, "hodge-const", "grid"),
    ("perturb", {"deltas": "x"}, "perturb", "deltas"),
    ("perturb", {"deltas": [0.0]}, "perturb", "deltas"),
    ("reproducing", {"windows": "x"}, "reproducing", "windows"),
    ("reproducing", {"windows": []}, "reproducing", "windows"),
    ("lipschitz", {"triple_g": 10}, "lipschitz", "triple_g"),
    ("block", {"trials": math.inf}, "block", "trials"),
    ("symbols", {"sphere_samples": 0}, "symbol", "sphere_samples"),
    ("hodge-const", {"trials": 0}, "hodge-const", "trials"),
    # only the suite's last probe reads this one
    ("quadest", {"overrides": {"offdiag": {"trials": 0}}}, "offdiag", "trials"),
    ("hodge-const", {"grid": {"length": math.inf}}, "hodge-const", "grid"),
    ("hodge-var", {"coefficients": {"b1": "identity+1e999*random(1)"}}, "hodge-var",
     "coefficients"),
    # integers must be JSON integers: no floats, strings or booleans
    ("hodge-const", {"trials": 2.9}, "hodge-const", "trials"),
    ("hodge-const", {"trials": "3"}, "hodge-const", "trials"),
    ("hodge-const", {"trials": True}, "hodge-const", "trials"),
    ("hodge-const", {"grid": {"g": 64.7}}, "hodge-const", "grid"),
    ("quadest", {"k_min": -5.5}, "quadest", "k_min"),
    ("quadest", {"k_max": "5"}, "quadest", "k_max"),
    ("block", {"eps": math.inf}, "block", "eps"),
    ("holomorphy", {"circle_nodes": 1.5}, "holomorphy", "circle_nodes"),
    ("reproducing", {"windows": [4, 8.5]}, "reproducing", "windows"),
    ("lipschitz", {"triple_g": 16.0}, "lipschitz", "triple_g"),
    ("symbols", {"seed": 1.0}, "symbol", "seed"),
    # numbers must be JSON numbers: no strings or booleans
    ("hodge-const", {"tolerance": True}, "hodge-const", "tolerance"),
    ("block", {"eps": "0.05"}, "block", "eps"),
    ("perturb", {"deltas": ["0.01"]}, "perturb", "deltas"),
    ("hodge-const", {"grid": {"length": "6.28"}}, "hodge-const", "grid"),
]


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

    def test_offdiag_without_two_separations_fails_in_strict_json(self, tmp_path, capsys):
        # at g=4 only rho = 1 leaves a nonempty E, so no decay can be fitted
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n": 1, "g": 4}}))
        code = cli.main(["suite", "quadest", "--config", str(cfg), "--out", str(tmp_path / "r")])
        capsys.readouterr()
        assert code == 1

        def strict(name):
            raise ValueError(f"non-finite number {name} in a report")

        reports = {path.name: json.loads(path.read_text(), parse_constant=strict)
                   for path in (tmp_path / "r").glob("*.json")}
        assert len(reports) == len(cli.SUITES["quadest"]["probes"])
        offdiag = reports["quadest__offdiag.json"]
        assert offdiag["constants"]["rho"] == [1.0]
        assert offdiag["constants"]["exponent"] is None
        assert offdiag["passes"] == {"decaying": False}

    def test_non_finite_constants_are_null(self):
        got = cli._plain({"a": [math.inf, np.float64(np.nan), complex(1.0, -math.inf), 2.5]})
        assert got == {"a": [None, None, [1.0, None], 2.5]}

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

    def test_file_as_out_is_config_error(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "file"
        out.write_text("")
        monkeypatch.setattr(cli, "_run_probe", mock.Mock(side_effect=AssertionError))
        assert cli.main(["suite", "symbols", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        cli._run_probe.assert_not_called()

    def test_directory_as_report_is_config_error(self, tmp_path, monkeypatch, capsys):
        report = tmp_path / "symbols__symbol.json"
        report.mkdir()
        monkeypatch.setattr(cli, "_run_probe", mock.Mock(side_effect=AssertionError))
        assert cli.main(["suite", "symbols", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad report file ") and str(report) in err
        cli._run_probe.assert_not_called()

    def test_failed_report_write_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(Path, "write_text", mock.Mock(side_effect=OSError("disk full")))
        assert cli.main(["suite", "symbols", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad report file ") and "disk full" in err

    @pytest.mark.skipif(importlib.util.find_spec("matplotlib") is not None,
                        reason="matplotlib is installed")
    def test_plots_without_matplotlib(self, tmp_path, capsys):
        assert cli.main(["suite", "symbols", "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        assert cli.main(["suite", "symbols", "--plots", "--out", str(tmp_path / "b")]) == 0
        assert "matplotlib is unavailable" in capsys.readouterr().err
        plain = {f.name: f.read_bytes() for f in (tmp_path / "a").iterdir()}
        assert {f.name: f.read_bytes() for f in (tmp_path / "b").iterdir()} == plain

    def test_plots_each_reports_own_curve(self, tmp_path, monkeypatch, capsys):
        saved = stub_matplotlib(monkeypatch)
        reps = {r.probe: r.constants for r in cli.run_suite("smoke", {}, tmp_path, plots=True)}
        capsys.readouterr()
        curve, sweep = reps["reproducing-sum"]["curve"], reps["lipschitz"]["sweep"]
        decay = reps["offdiagonal-decay"]
        assert saved == {
            tmp_path / "reproducing_residual.png":
                ([r["window"] for r in curve], [r["residual"] for r in curve]),
            tmp_path / "lipschitz_ratio.png":
                ([r["delta"] for r in sweep], [r["ratio"] for r in sweep]),
            tmp_path / "offdiagonal_decay.png": ([1 + r for r in decay["rho"]], decay["ratios"]),
        }

    def test_failed_reports_plot_nothing(self, tmp_path, monkeypatch, capsys):
        # a failed report keeps the error's curve, but is no probe's result
        def unsettled(**values):
            raise HodgeDecompositionUncertain("injected", curve=[{"window": 4, "residual": 1.0}])

        saved = stub_matplotlib(monkeypatch)
        for probe in ("reproducing", "lipschitz", "offdiag"):
            monkeypatch.setitem(cli.PROBES, probe, unsettled)
        reps = cli.run_suite("smoke", {}, tmp_path, plots=True)
        capsys.readouterr()
        failed = [r for r in reps if not r.passed]
        assert sorted(r.probe for r in failed) == ["lipschitz", "offdiag", "reproducing"]
        assert all("curve" in r.constants for r in failed)
        assert saved == {}

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
            ("hodge-const", {"grid": 5}),
            ("hodge-const", {"overrides": 3}),
            ("hodge-const", {"symbol": 5}),
            ("block", {"trials": 0}),
            ("holomorphy", {"circle_nodes": "16"}),
            ("block", {"eps": "x"}),
            ("holomorphy", {"circle_nodes": 0}),
        ] + [case[:2] for case in NAMED_BAD_VALUES],
    )
    def test_bad_values_are_config_errors(self, tmp_path, capsys, suite, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = cli.main(["suite", suite, "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert "error:" in capsys.readouterr().err
        assert code == 2

    @pytest.mark.parametrize("suite, config, probe, key", NAMED_BAD_VALUES)
    def test_bad_value_is_named_and_nothing_runs(
        self, tmp_path, capsys, suite, config, probe, key
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = cli.main(["suite", suite, "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert f"error: bad {key} for probe {probe}:" in capsys.readouterr().err
        assert code == 2
        assert not (tmp_path / "r").exists()

    def test_vector_field_coefficient_file_names_the_layout(self, tmp_path, capsys):
        grid = torus.TorusGrid(1, 16)  # the hodge-var suite's grid
        field = tmp_path / "b2.bin"
        torus.save_field(field, torus.random_band_limited(grid, 2, seed=1))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"coefficients": {"b2": str(field)}}))
        code = cli.main(["suite", "hodge-var", "--config", str(cfg), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert "error: bad coefficients for probe hodge-var:" in err
        assert "holds a vector field (layout 1)" in err and "matrix field (layout 2)" in err
        assert code == 2 and not (tmp_path / "r").exists()

    def test_non_finite_coefficient_file_is_named(self, tmp_path, capsys):
        grid = torus.TorusGrid(1, 16)  # the hodge-var suite's grid
        values = torus.MatrixField.identity(grid, 2).mats.copy()
        values[7, 0, 1] = np.nan
        field = tmp_path / "b1.bin"
        torus.save_field(field, torus.MatrixField(grid, values))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"coefficients": {"b1": str(field)}}))
        code = cli.main(["suite", "hodge-var", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert "error: bad coefficients for probe hodge-var:" in capsys.readouterr().err
        assert code == 2

    def test_unread_key_warns(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grdi": 1, "grid": SMALL["grid"]}))
        code = cli.main(
            ["suite", "hodge-const", "--config", str(cfg), "--out", str(tmp_path / "r")]
        )
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert code == 0
        assert len(warnings) == 1 and "'grdi'" in warnings[0]

    @pytest.mark.parametrize("suite, config, warning", [
        pytest.param("block", {"nodes": 128},
                     "warning: no probe of suite block reads config key 'nodes'; ignored",
                     id="deleted-nodes-key"),
        pytest.param("hodge-var", {"overrides": {"hodge-vr": {"grid": {"n": 1, "g": 8}}}},
                     "warning: suite hodge-var has no probe 'hodge-vr'; its overrides are ignored",
                     id="misspelt-probe-overrides"),
    ])
    def test_ignored_config_warns(self, tmp_path, monkeypatch, capsys, suite, config, warning):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        monkeypatch.setattr(cli, "PROBES", dict.fromkeys(cli.PROBES, _stub_probe))
        code = cli.main(["suite", suite, "--config", str(cfg), "--out", str(tmp_path / "r")])
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert code == 0
        assert warnings == [warning]

    def test_unread_override_key_warns(self, tmp_path, monkeypatch, capsys):
        # smoke's other probes read symbol and samples; block reads neither
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"overrides": {"block": {"symbol": "bundled:graddiv2d", "samples": 99}}}
        ))
        monkeypatch.setattr(cli, "PROBES", dict.fromkeys(cli.PROBES, _stub_probe))
        code = cli.main(["suite", "smoke", "--config", str(cfg), "--out", str(tmp_path / "r")])
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert code == 0
        assert warnings == [
            "warning: probe block does not read override key 'samples'; ignored",
            "warning: probe block does not read override key 'symbol'; ignored",
        ]

    def test_probe_crash_leaves_the_other_reports(self, tmp_path, monkeypatch, capsys):
        def crash(**values):
            raise RuntimeError("injected")

        monkeypatch.setitem(cli.PROBES, "schur", crash)
        cli.run_suite("quadest", dict(SMALL), tmp_path / "r")
        capsys.readouterr()
        data = {p.stem: json.loads(p.read_text()) for p in (tmp_path / "r").glob("*.json")}
        crashed = data.pop("quadest__schur")
        assert crashed["passes"] == {"completed": False}
        assert crashed["constants"]["error"].startswith("RuntimeError")
        assert sorted(data) == ["quadest__offdiag", "quadest__quadest", "quadest__translated"]
        assert all(d["pass"] for d in data.values())

    def test_failed_report_keeps_the_error_data(self, tmp_path, monkeypatch, capsys):
        def stall(**values):
            raise NotInvertible("injected stall", residual=np.float64(0.25), iterations=40)

        def off_lattice(**values):
            raise DecompositionFailure("injected split", xi=np.array([1.0, -2.0]))

        monkeypatch.setitem(cli.PROBES, "schur", stall)
        monkeypatch.setitem(cli.PROBES, "translated", off_lattice)
        cli.run_suite("quadest", dict(SMALL), tmp_path / "r")
        capsys.readouterr()
        read = lambda probe: json.loads((tmp_path / "r" / f"quadest__{probe}.json").read_text())
        assert read("schur")["constants"] == {
            "error": "NotInvertible: injected stall", "residual": 0.25, "iterations": 40,
        }
        assert read("translated")["constants"] == {
            "error": "DecompositionFailure: injected split", "xi": [1.0, -2.0],
        }
        assert read("schur")["passes"] == {"completed": False}

    def test_every_error_datum_reaches_failed_reports(self):
        package = [cls for cls in error_types() if cls.__module__.startswith("opcalc.")]
        assert NotInvertible in package
        assert unreported_error_data(package) == []

    def test_error_data_guard_sees_a_planted_field(self):
        class Stalled(NotInvertible):
            def __init__(self, msg, residual=None, iterations=None, *, shift=None):
                super().__init__(msg, residual, iterations)
                self.shift = shift

        assert Stalled in error_types()
        assert unreported_error_data([Stalled, NotInvertible]) == ["Stalled.shift"]

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

    @pytest.mark.parametrize("suite, deltas, report, band, spread", [
        ("perturb", [1e-20], "perturb__perturb.json", "ratio_band", "ratio_spread"),
        # measures 0: a subnormal delta underflows in the coefficients
        ("perturb", [5e-324], "perturb__perturb.json", "ratio_band", "ratio_spread"),
        ("lipschitz", [0.04], "lipschitz__lipschitz.json", "stable_band", "spread"),
    ])
    def test_sweep_of_one_ratio_fails_its_band(
        self, tmp_path, capsys, suite, deltas, report, band, spread
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"deltas": deltas}))
        out = tmp_path / "r"
        assert cli.main(["suite", suite, "--config", str(cfg), "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        data = json.loads((out / report).read_text())
        assert data["passes"][band] is False
        assert data["constants"][spread] is None


class TestSeedSweep:
    """What `perfbench/run.py` checks of every pass: each probe of the ten default
    suites passes at seeds 0-9, and a second run_suite call in the same
    process writes the same bytes (no state is carried between calls)."""

    @pytest.mark.parametrize("suite", sorted(cli.SUITES))
    def test_default_suite_passes_at_every_seed(self, suite, tmp_path, capsys):
        for seed in range(10):
            reps = cli.run_suite(suite, {"seed": seed}, tmp_path / str(seed))
            failed = [(rep.probe, rep.passes) for rep in reps if not rep.passed]
            assert not failed, (seed, failed)
        cli.run_suite(suite, {"seed": 0}, tmp_path / "again")
        capsys.readouterr()
        paths = sorted((tmp_path / "0").iterdir())
        assert [p.name for p in paths] == sorted(p.name for p in (tmp_path / "again").iterdir())
        for path in paths:
            assert path.read_bytes() == (tmp_path / "again" / path.name).read_bytes()


# JSON values, small enough that no drawn grid or coefficient field is large
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-8, 64) | st.floats(-8, 64)
    | st.sampled_from([math.nan, math.inf, -math.inf, "bundled:dirac1d",
                       "bundled:graddiv2d", "identity"])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["n", "g", "length", "b1", "b2"]) | st.text(max_size=2),
        inner, max_size=3,
    ),
    max_leaves=6,
)


class TestReadConfig:
    @settings(max_examples=300, deadline=None)
    @given(probe=st.sampled_from(sorted(cli.PROBE_KEYS)), data=st.data())
    def test_returns_or_raises_config_error(self, probe, data):
        keys = st.sampled_from(sorted(cli.PROBE_KEYS[probe]))
        cfg = data.draw(st.dictionaries(keys, JSON_VALUES, max_size=4))
        try:
            values = cli.read_config(probe, cfg)
        except cli.ConfigError:
            return
        assert values.keys() == cli.PROBE_KEYS[probe].keys()

    def test_every_key_is_read(self):
        keys = {key for table in cli.PROBE_KEYS.values() for key in table}
        assert keys == set(cli.READERS)


# symbol files: any JSON value, and symbol and pair objects whose fields are
# JSON values or, to reach the checks past parsing, small well-formed ones
_NUMBERS = st.floats(-8, 64) | st.sampled_from([0.0, 1.0, math.nan, math.inf])
_MATRICES = st.integers(1, 3).flatmap(
    lambda m: st.lists(st.lists(st.lists(_NUMBERS, min_size=2, max_size=2),
                                min_size=m, max_size=m), min_size=m, max_size=m)
)
_SIZES = st.integers(1, 3) | JSON_VALUES
_SYMBOL_OBJECTS = st.fixed_dictionaries(
    {"kind": st.just("homogeneous_symbol")},
    optional={"n": _SIZES, "N": _SIZES, "k": _SIZES, "coeffs": JSON_VALUES | st.dictionaries(
        st.sampled_from(["1", "2", "0,1", "1,0", "1,1"]), _MATRICES | JSON_VALUES, max_size=3
    )},
)
SYMBOL_FILES = JSON_VALUES | _SYMBOL_OBJECTS | st.fixed_dictionaries(
    {"kind": st.just("hodge_pair")},
    optional={"gamma": _SYMBOL_OBJECTS | JSON_VALUES, "gamma_tilde": _SYMBOL_OBJECTS},
)


@pytest.fixture(scope="module")
def symbol_path(tmp_path_factory):
    return tmp_path_factory.mktemp("symbol") / "symbol.json"


class TestSymbolFiles:
    @settings(max_examples=300, deadline=None)
    @given(obj=SYMBOL_FILES)
    def test_exit_code_without_traceback(self, symbol_path, obj):
        symbol_path.write_text(json.dumps(obj))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["analyze-symbol", str(symbol_path)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


_CONFIG_KEYS = st.sampled_from(sorted(cli.READERS)) | st.text(max_size=3)
_PROBE_CONFIGS = st.dictionaries(_CONFIG_KEYS, JSON_VALUES, max_size=4)
WHOLE_CONFIGS = JSON_VALUES | st.dictionaries(
    _CONFIG_KEYS | st.just("overrides"),
    JSON_VALUES | st.dictionaries(
        st.sampled_from(sorted(cli.PROBES)) | st.text(max_size=2),
        _PROBE_CONFIGS | JSON_VALUES,
        max_size=3,
    ),
    max_size=6,
)


def _stub_probe(**values):
    # odd seeds fail, so exit code 1 is reachable as well
    return "stub", {}, {"even_seed": values["seed"] % 2 == 0}


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("suite")


class TestWholeConfigs:
    @settings(max_examples=200, deadline=None)
    @given(suite=st.sampled_from(sorted(cli.SUITES)), config=WHOLE_CONFIGS,
           seed=st.none() | st.integers(-2, 3))
    def test_exit_code_without_traceback(self, suite_dir, suite, config, seed):
        cfg = suite_dir / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["suite", suite, "--config", str(cfg), "--out", str(suite_dir / "r")]
        if seed is not None:
            argv += ["--seed", str(seed)]
        err = io.StringIO()
        stubs = dict.fromkeys(cli.PROBES, _stub_probe)
        with mock.patch.dict(cli.PROBES, stubs), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        event(f"exit {code}")
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


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

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        (tmp_path / "a.json").write_text('{"pass": true}')
        out = str(tmp_path / "missing" / "m.json")
        assert cli.main(["report", "--merge", str(tmp_path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and out in err

    @pytest.mark.parametrize("text", ["{broken", "[1, 2]"])
    def test_merge_bad_report_is_config_error(self, tmp_path, capsys, text):
        (tmp_path / "bad.json").write_text(text)
        code = cli.main(["report", "--merge", str(tmp_path)])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.json" in err
        assert code == 2


class TestOneGridSymbolPerProbe:
    """A constant-coefficient probe builds the GridSymbol of its pair once
    and decomposes it once; the holomorphy probe draws the trial stack of
    its coefficient checks once for the whole circle."""

    @pytest.fixture
    def count(self, monkeypatch):
        count = collections.Counter()

        def counted(owner, name, key):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                count[key] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(np.linalg, "eig", "eig")
        counted(torus.GridSymbol, "__init__", "grid_symbol")
        counted(torus, "random_trials", "trial_stack")
        return count

    @pytest.mark.parametrize("probe, config, want", [
        ("reproducing", {}, {"eig": 1, "grid_symbol": 1}),
        ("quadest", {}, {"eig": 1, "grid_symbol": 1}),
        ("holomorphy", {"grid": {"n": 1, "g": 32}}, {"trial_stack": 1}),
    ])
    def test_counts(self, count, probe, config, want):
        _, _, passes = cli.PROBES[probe](**cli.read_config(probe, {"seed": 0, **config}))
        assert all(passes.values())
        assert {key: count[key] for key in want} == want


class TestCoefficientExpressions:
    def test_identity(self, grid16):
        mf = hodge.parse_coefficient("identity", grid16, 2)
        assert np.allclose(mf.mats, np.eye(2))

    def test_random_expression(self, grid16):
        mf = hodge.parse_coefficient("identity+0.05*random(7)", grid16, 2)
        dist = (mf - torus.MatrixField.identity(grid16, 2)).inf_norm
        assert abs(dist - 0.05) < 1e-12

    def test_diag_expression_keeps_structure(self, grid16):
        mf = hodge.parse_coefficient("identity+0.1*diagrandom(7)", grid16, 2)
        off = mf.mats.copy()
        off[..., np.arange(2), np.arange(2)] = 0.0
        assert np.abs(off).max() == 0.0

    def test_file_round_trip(self, grid16, tmp_path):
        mf = hodge.perturbed_identity(grid16, 2, 0.2, 9)
        path = tmp_path / "coef.bin"
        torus.save_field(path, mf)
        loaded = hodge.parse_coefficient(str(path), grid16, 2)
        assert (loaded - mf).inf_norm < 1e-6

    def test_bad_expression(self, grid16):
        with pytest.raises((ValueError, FileNotFoundError)):
            hodge.parse_coefficient("identity+oops", grid16, 2)
