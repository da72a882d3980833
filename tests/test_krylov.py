import numpy as np
import pytest

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


class TestDenseAssembly:
    def test_reconstructs_matrix(self):
        a = random_matrix(12, 6)
        out = krylov.dense_from_matvec(lambda v: a @ v, 12)
        assert np.allclose(out, a)


class TestNormEstimates:
    def test_power_matches_svd(self):
        a = random_matrix(25, 7)
        assert abs(krylov.operator_norm_power(a) - np.linalg.norm(a, 2)) < 1e-8
