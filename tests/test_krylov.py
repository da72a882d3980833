import collections
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import opcalc
from opcalc import krylov
from opcalc.errors import NotInvertible

from conftest import random_matrix


class TestGmres:
    def test_matches_dense_solve(self):
        a = np.eye(30) + 0.4 * random_matrix(30, 0)
        b = random_matrix(30, 1)[:, 0]
        x, info = krylov.gmres(lambda v: a @ v, b, rtol=1e-12)
        assert info.converged
        assert np.linalg.norm(a @ x - b) <= 1e-11 * np.linalg.norm(b)

    def test_exact_preconditioner_one_iteration(self):
        a = np.eye(20) + 0.4 * random_matrix(20, 2)
        ainv = np.linalg.inv(a)
        b = random_matrix(20, 3)[:, 0]
        x, info = krylov.gmres(lambda v: a @ v, b, precond=lambda v: ainv @ v, rtol=1e-12)
        assert info.converged and info.iterations <= 2

    def test_restart_cycles(self):
        # near-identity system, the post-preconditioning regime: restarts
        # must keep making progress across cycles
        a = np.eye(60) + random_matrix(60, 4, scale=0.05)
        b = random_matrix(60, 5)[:, 0]
        x, info = krylov.gmres(lambda v: a @ v, b, rtol=1e-11, restart=10)
        assert info.converged
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("precond", [False, True])
    def test_one_matvec_per_iteration_and_per_cycle(self, precond):
        # the residual is carried across restarts, never recomputed
        a = np.eye(60) + random_matrix(60, 4, scale=0.05)
        b = random_matrix(60, 5)[:, 0]
        calls = collections.Counter()

        def counted(key, fn):
            def call(v):
                calls[key] += 1
                return fn(v)
            return call

        m = counted("precond", lambda v: v / 1.01) if precond else None
        _, info = krylov.gmres(counted("matvec", lambda v: a @ v), b, rtol=1e-11, restart=4,
                               precond=m)
        cycles = math.ceil(info.iterations / 4)
        assert info.converged and cycles >= 2
        assert calls["matvec"] == info.iterations + cycles
        assert calls["precond"] == (info.iterations + cycles if precond else 0)

    def test_zero_rhs(self):
        x, info = krylov.gmres(lambda v: v, np.zeros(5, dtype=complex))
        assert info.converged and np.all(x == 0)

    def test_nan_rhs_ends_at_once(self):
        b = np.array([1.0, np.nan, 0.0], dtype=complex)
        _, info = krylov.gmres(lambda v: 2.0 * v, b)
        assert not info.converged and info.iterations == 0

    def test_singular_raises(self):
        a = np.diag([1.0, 1.0, 0.0])
        b = np.array([1.0, 1.0, 1.0], dtype=complex)
        with pytest.raises(NotInvertible):
            krylov.solve_or_raise(lambda v: a @ v, b, rtol=1e-12, maxiter=60)


# One GMRES-route solve (dirac1d at g = 8192: 16,384 unknowns) in a fresh
# interpreter: the SHA-256 of the solution, and the CPU seconds that threads
# other than the main one spent over the solve and the 0.2 s after it (null
# without /proc/self/task).  OpenBLAS reads its thread count at load time.
ONE_SOLVE = """
import hashlib, json, os, time
import numpy as np
from opcalc import hodge, symbols, torus

def others():
    if not os.path.isdir("/proc/self/task"):
        return None
    tick, ticks = os.sysconf("SC_CLK_TCK"), {}
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            ticks[tid] = (int(fields[11]) + int(fields[12])) / tick
    return ticks

grid, pair = torus.TorusGrid(1, 8192), symbols.dirac_pair_1d()
b1, b2 = (hodge.parse_coefficient(f"identity+0.05*diagrandom({s})", grid, pair.big_n)
          for s in (23, 24))
op = hodge.VariableOp(pair, hodge.CoefficientPair(b1, b2), grid)
rng = np.random.default_rng(5)
u = torus.GridField(grid, rng.standard_normal((8192, 2)) + 1j * rng.standard_normal((8192, 2)))
time.sleep(0.3)  # let any BLAS thread woken by the set-up fall idle
before = others()
x = hodge.variable_resolvent(op, 2**10, u)
time.sleep(0.2)
after = others()
cpu = None if before is None else sum(v - before.get(t, 0.0) for t, v in after.items())
print(json.dumps({"sha": hashlib.sha256(x.values.tobytes()).hexdigest(), "others_cpu": cpu}))
"""


def test_gmres_route_runs_on_one_thread():
    # the Krylov reductions wake no BLAS thread: the solution does not depend
    # on OPENBLAS_NUM_THREADS, and a second thread stays idle through the solve
    src = str(pathlib.Path(opcalc.__file__).parents[1])
    runs = {}
    for threads in ("1", "2"):
        path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(path)}
        proc = subprocess.run([sys.executable, "-c", ONE_SOLVE], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        runs[threads] = json.loads(proc.stdout.splitlines()[-1])
    assert runs["1"]["sha"] == runs["2"]["sha"]
    if runs["2"]["others_cpu"] is not None:
        assert runs["2"]["others_cpu"] <= 0.02
