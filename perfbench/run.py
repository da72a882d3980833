"""opcalc benchmark: one workload's suites, run by a single client in a closed loop.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports opcalc from its
``src``.  Each pass runs the workload's suites once, one after another,
through ``opcalc.cli.run_suite`` with the seed in every config; passes
repeat until ``--seconds`` have elapsed, and at least two run.  Every
pass's reports must be byte-identical to the first pass's and every probe
must pass; otherwise the command prints the failure, reports no metrics
and exits with 1.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the traced ones (see tracing.py), plus the tracing overhead.
The last stdout line is the JSON result; the line before it records the
environment.  Run records and spans go to ``perfbench/_out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

GRADDIV = "bundled:graddiv2d"
LATTICE_2D = {
    "symbol": GRADDIV, "grid": {"n": 2, "g": 64}, "sphere_samples": 128, "windows": [8, 16],
}

# name -> (suite, config) runs of one pass, and the symbol files set-up loads
WORKLOADS = {
    # every suite at its default config: what users and the acceptance test
    # run; set-up, orchestration and report writing weigh most here
    "desk": {
        "runs": [(s, {}) for s in (
            "smoke", "symbols", "hodge-const", "hodge-var", "perturb", "quadest",
            "reproducing", "block", "holomorphy", "lipschitz",
        )],
        "symbols": ["bundled:dirac1d"],
    },
    # 4,096 frequencies: symbol evaluation and per-frequency SVD/eig loops
    "lattice-2d": {
        "runs": [(s, LATTICE_2D) for s in ("symbols", "hodge-const", "reproducing", "quadest")],
        "symbols": [GRADDIV],
    },
    # dim <= 1024: dense assembly plus one LU per contour node, no per-frequency loops
    "contour-1d": {
        "runs": [
            ("block", {"grid": {"n": 1, "g": 128}}),
            ("holomorphy", {"grid": {"n": 1, "g": 32}}),
            ("lipschitz", {"grid": {"n": 1, "g": 64}}),
        ],
        "symbols": [],
    },
    # dim 16,384, past the dense oracle: preconditioned GMRES with FFT matvecs
    "krylov-2d": {
        "runs": [("hodge-var", {"symbol": GRADDIV, "grid": {"n": 2, "g": 64}})],
        "symbols": [GRADDIV],
    },
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "OPCALC_THREADS")

SETUP_SAMPLES = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from opcalc import cli\n"
    "for name in sys.argv[2:]: cli.load_symbol_arg(name)"
)


class WrongOutput(Exception):
    """A probe failed or a pass's reports differ from the first pass's."""


class Loop:
    """Closed-loop passes over one workload, checking every pass's outputs."""

    def __init__(self, cli, runs, seed: int):
        self.cli, self.runs, self.seed = cli, runs, seed
        self.reference = None
        self.attempted = self.failed = 0
        self.mismatches: list[str] = []
        self._count = 0
        OUT.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=OUT)

    def __enter__(self) -> "Loop":
        return self

    def __exit__(self, *exc):
        self._tmp.cleanup()
        return False

    def timed_pass(self) -> tuple[float, float]:
        """Run every suite once and check the outputs; return (wall s, CPU s)."""
        self._count += 1
        out_dir = Path(self._tmp.name) / f"pass{self._count}"
        outcomes = []
        c0, t0 = time.process_time(), time.perf_counter()
        for suite, cfg in self.runs:
            try:
                reps = self.cli.run_suite(suite, {**cfg, "seed": self.seed}, out_dir / suite)
            except Exception:  # an attempt that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                reps = None
            outcomes.append((suite, reps))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self._check(outcomes, out_dir)
        return wall, cpu

    def _check(self, outcomes, out_dir: Path):
        reports = {}
        for suite, reps in outcomes:
            if reps is None:
                n = len(self.cli.SUITES[suite]["probes"])
                self.attempted += n
                self.failed += n
                continue
            self.attempted += len(reps)
            for rep in reps:
                if not rep.passed:
                    self.failed += 1
                    print(f"probe failed: {suite}/{rep.probe}: {rep.passes}", file=sys.stderr)
            for path in sorted((out_dir / suite).iterdir()):
                reports[f"{suite}/{path.name}"] = path.read_bytes()
        if self.reference is None:
            self.reference = reports
        elif reports != self.reference:
            diff = sorted(k for k in reports.keys() | self.reference.keys()
                          if reports.get(k) != self.reference.get(k))
            self.mismatches.append(f"pass {self._count} reports differ: {diff}")

    def check(self):
        """Raise WrongOutput if any probe failed or any pass's reports differed."""
        problems = list(self.mismatches)
        if self.failed:
            problems.append(f"{self.failed} of {self.attempted} probes failed")
        if problems:
            raise WrongOutput("; ".join(problems))


def setup_seconds(symbol_args, samples: int = SETUP_SAMPLES) -> list[float]:
    """Fresh-interpreter times to import opcalc and load the symbol files."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *symbol_args], cwd=ROOT, check=True
        )
        times.append(time.perf_counter() - t0)
    return times


def measure_end_to_end(cli, workload: dict, seed: int, seconds: float):
    setup = setup_seconds(workload["symbols"])
    walls, cpus = [], []
    start = time.perf_counter()
    with Loop(cli, workload["runs"], seed) as loop:
        while len(walls) < 2 or time.perf_counter() - start < seconds:
            wall, cpu = loop.timed_pass()
            walls.append(wall)
            cpus.append(cpu)
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setup}
    return values, samples, loop


def measure_per_layer(cli, workload: dict, seed: int, seconds: float, spans_path: Path):
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    with Loop(cli, workload["runs"], seed) as loop:
        while not traced or time.perf_counter() - start < seconds:
            plain.append(loop.timed_pass()[0])
            with tracing.Tracer() as tr:
                traced.append(loop.timed_pass()[0])
            per_pass.append(tr.metrics())
    tr.write_spans(spans_path)
    units = tracing.metric_units()
    # counts repeat exactly across passes; median_low keeps them whole numbers
    values = {
        k: (statistics.median if u == "s" else statistics.median_low)([p[k] for p in per_pass])
        for k, u in units.items()
    }
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    samples = {"untraced_wall_s": plain, "traced_wall_s": traced}
    return values, samples, loop


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}: {blas.get('openblas configuration', '')}"
    except (TypeError, KeyError) as exc:
        blas = f"unknown ({exc!r})"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "opcalc").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        **{k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def load_opcalc():
    """Import opcalc from this checkout's src, refusing any other copy."""
    if not (SRC / "opcalc" / "__init__.py").is_file():
        raise SystemExit(f"error: no opcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from opcalc import cli

    if Path(cli.__file__).resolve().parent != SRC / "opcalc":
        raise SystemExit(f"error: imported opcalc from {cli.__file__}, not {SRC}")
    return cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    cli = load_opcalc()
    workload = WORKLOADS[args.workload]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment()
    if args.trace:
        units = tracing.metric_units()
        spans = OUT / f"spans-{args.workload}.json"
        values, samples, loop = measure_per_layer(cli, workload, args.seed, args.seconds, spans)
    else:
        units = END_TO_END_UNITS
        values, samples, loop = measure_end_to_end(cli, workload, args.seed, args.seconds)
    result = {"correct": True, "attempted": loop.attempted, "failed": loop.failed, "metrics": {}}
    try:
        loop.check()
    except WrongOutput as exc:
        print(f"error: wrong output, no metrics reported: {exc}", file=sys.stderr)
        result["correct"] = False
    else:
        result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    record = {"args": vars(args), "environment": env, "samples": samples, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
