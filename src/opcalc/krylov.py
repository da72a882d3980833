"""Matrix-free linear algebra: restarted GMRES and norm estimators.

The solver is deliberately self-contained (complex arithmetic, right
preconditioning, Givens-rotation least squares) so that residual
semantics do not depend on external library versions.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .errors import NotInvertible


@dataclasses.dataclass
class SolveInfo:
    iterations: int
    residual: float
    converged: bool


def _identity(v):
    return v


def gmres(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    *,
    rtol: float = 1e-10,
    restart: int = 50,
    maxiter: int = 5000,
    precond: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, SolveInfo]:
    """Solve A x = b with restarted GMRES from x = 0, right-preconditioned.

    With right preconditioning the minimized residual is the true
    residual of the original system, so convergence means
    ``||b - A x|| <= rtol * ||b||``.  A residual that is not finite ends
    the solve, unconverged.
    """
    b = np.asarray(b, dtype=complex).reshape(-1)
    n = b.size
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), SolveInfo(0, 0.0, True)
    apply_m = precond if precond is not None else _identity
    x = np.zeros_like(b)
    total = 0
    res = np.inf
    while total < maxiter:
        r = b - matvec(x)
        beta = float(np.linalg.norm(r))
        res = beta / bnorm
        if res <= rtol:
            return x, SolveInfo(total, res, True)
        if not math.isfinite(res):
            break
        prev_res = res
        m = min(restart, maxiter - total, n)
        v = np.zeros((m + 1, n), dtype=complex)
        h = np.zeros((m + 1, m), dtype=complex)
        cs = np.zeros(m, dtype=complex)
        sn = np.zeros(m, dtype=complex)
        g = np.zeros(m + 1, dtype=complex)
        v[0] = r / beta
        g[0] = beta
        cols = 0
        for j in range(m):
            w = matvec(apply_m(v[j]))
            for i in range(j + 1):
                h[i, j] = np.vdot(v[i], w)
                w -= h[i, j] * v[i]
            hnext = float(np.linalg.norm(w))
            h[j + 1, j] = hnext
            for i in range(j):
                tmp = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
                h[i + 1, j] = -np.conj(sn[i]) * h[i, j] + np.conj(cs[i]) * h[i + 1, j]
                h[i, j] = tmp
            rho = np.sqrt(abs(h[j, j]) ** 2 + abs(h[j + 1, j]) ** 2)
            if rho == 0.0:
                break
            cs[j] = np.conj(h[j, j]) / rho
            sn[j] = np.conj(h[j + 1, j]) / rho
            h[j, j] = rho
            h[j + 1, j] = 0.0
            g[j + 1] = -np.conj(sn[j]) * g[j]
            g[j] = cs[j] * g[j]
            cols = j + 1
            total += 1
            res = abs(g[j + 1]) / bnorm
            if not math.isfinite(res):
                return x, SolveInfo(total, res, False)
            if res <= rtol or hnext < 1e-300:
                break
            v[j + 1] = w / hnext
        if cols == 0:
            break
        y = np.linalg.solve(h[:cols, :cols], g[:cols])
        x = x + apply_m(y @ v[:cols])
        r = b - matvec(x)
        res = float(np.linalg.norm(r)) / bnorm
        if res <= rtol:
            return x, SolveInfo(total, res, True)
        if res > prev_res * 0.99:
            break  # under 1% progress over a whole restart cycle: stagnated
    return x, SolveInfo(total, res, False)


def solve_or_raise(matvec, b, what: str = "linear system", **kwargs) -> np.ndarray:
    x, info = gmres(matvec, b, **kwargs)
    if not info.converged:
        raise NotInvertible(
            f"{what}: GMRES stagnated at residual {info.residual:.3e} "
            f"after {info.iterations} iterations",
            residual=info.residual,
            iterations=info.iterations,
        )
    return x


def operator_norm_power(mat: np.ndarray, *, iters: int = 100, seed: int = 0) -> float:
    """2-norm by power iteration on A^H A (dense input)."""
    rng = np.random.default_rng(seed)
    a = np.asarray(mat)
    v = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(iters):
        w = a.conj().T @ (a @ v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        sigma = nw**0.5
    return float(sigma)
