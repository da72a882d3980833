"""Tests of the benchmark's own code, at tiny configs.

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import tracing

cli = run.load_opcalc()


def tiny(runs):
    """The same suites on 16-point grids with few sphere samples."""
    return [
        (suite, {**cfg, "grid": {**cfg.get("grid", {}), "g": 16}, "sphere_samples": 32})
        for suite, cfg in runs
    ]


def declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_tracing_leaves_reports_unchanged_and_restores_opcalc():
    runs = tiny(run.WORKLOADS["lattice-2d"]["runs"] + run.WORKLOADS["contour-1d"]["runs"])
    def attached():
        return (dict(cli.PROBES), cli.run_suite, cli.torus.apply_multiplier, Path.write_text,
                cli.torus.GridField.__post_init__, cli.symbols.HomogeneousSymbol.__call__)

    originals = attached()
    with run.Loop(cli, runs, seed=3) as loop:
        loop.timed_pass()
        with tracing.Tracer() as tr:
            loop.timed_pass()
    loop.check()  # raises if the traced reports differ from the untraced ones
    assert tr.spans and tr.counts["torus.fft.count"] > 0
    assert attached() == originals


def test_changed_reports_are_a_wrong_output(monkeypatch):
    with run.Loop(cli, [("perturb", {})], seed=0) as loop:
        loop.timed_pass()
        monkeypatch.setitem(cli.PROBES, "perturb", lambda cfg: cli.ProbeReport(
            "perturbation", 0, "x", {}, {"ok": True}))
        loop.timed_pass()
    with pytest.raises(run.WrongOutput, match="differ"):
        loop.check()


def test_self_time_excludes_children():
    tr = tracing.Tracer()
    tr.spans[:] = [["cli.run_suite", 0.0, 10.0, -1], ["torus.apply_multiplier", 1.0, 4.0, 0],
                   ["torus.GridField.__post_init__", 2.0, 3.0, 1]]
    m = tr.metrics()
    assert m["cli.self_s"] == 7.0 and m["cli.s"] == 10.0
    assert m["torus.s"] == 3.0 and m["torus.self_s"] == 3.0 and m["torus.calls"] == 2
    assert m["torus.field_checks.s"] == 1.0 and m["torus.apply_multiplier.calls"] == 1


def test_every_emitted_metric_is_declared():
    workload = {"runs": tiny(run.WORKLOADS["krylov-2d"]["runs"]), "symbols": []}
    values, _, loop = run.measure_end_to_end(cli, workload, seed=1, seconds=0)
    loop.check()
    assert set(values) == set(run.END_TO_END_UNITS) == set(declared("end_to_end"))
    assert run.END_TO_END_UNITS == declared("end_to_end")
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        values, _, loop = run.measure_per_layer(cli, workload, 1, 0, Path(tmp) / "spans.json")
    loop.check()
    assert set(values) == set(tracing.metric_units())
    assert tracing.metric_units() == declared("per_layer")
    assert values["krylov.gmres.calls"] > 0 and values["krylov.gmres.matvecs"] > 0


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_workload_completes(name):
    workload = {**run.WORKLOADS[name], "runs": tiny(run.WORKLOADS[name]["runs"])}
    values, samples, loop = run.measure_end_to_end(cli, workload, seed=2, seconds=0)
    loop.check()
    assert loop.attempted > 0 and loop.failed == 0
    assert len(samples["wall_s"]) == 2 and all(v > 0 for v in values.values())


def test_refuses_to_run_without_sources():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        for rel in spec["paths"]:
            shutil.copytree(run.ROOT / rel, Path(tmp) / rel,
                            ignore=shutil.ignore_patterns("_out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "desk", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
