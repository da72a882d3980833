"""Matrix-free linear algebra: restarted GMRES.

The solver is deliberately self-contained (complex arithmetic, right
preconditioning, Givens-rotation least squares) so that residual
semantics do not depend on external library versions.

Its inner products, norms and solution update are summed by numpy's own
loops, never by BLAS.  OpenBLAS (0.3.31) runs a dot product of more than
10,000 elements, and a matrix-vector product, on all its threads, and its
workers then spin for about 0.1 s: at Krylov sizes they would keep a
second core busy for one core's work, and the sums, split by thread count,
would move the low bits of every solution with OPENBLAS_NUM_THREADS.
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


def _vdot(u: np.ndarray, w: np.ndarray):
    """u^H w, summed by numpy's own loop."""
    return np.einsum("i,i->", u.conj(), w)


def _norm(w: np.ndarray) -> float:
    """||w||_2 as np.linalg.norm forms it, from the real and imaginary
    parts, summed by numpy's own loops."""
    re, im = w.real, w.imag
    return math.sqrt(np.einsum("i,i->", re, re) + np.einsum("i,i->", im, im))


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
    bnorm = _norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), SolveInfo(0, 0.0, True)
    apply_m = precond if precond is not None else _identity
    x = np.zeros_like(b)
    r = b  # the residual b - A x, carried from one restart cycle to the next
    total = 0
    prev_res = math.inf
    while True:
        beta = _norm(r)
        res = beta / bnorm
        if res <= rtol:
            return x, SolveInfo(total, res, True)
        # out of iterations, not finite, or under 1% progress over a whole
        # restart cycle: stagnated
        if total >= maxiter or not math.isfinite(res) or res > prev_res * 0.99:
            break
        prev_res = res
        m = min(restart, maxiter - total, n)
        v = [r / beta]  # the Krylov basis, grown one row per iteration
        h = np.zeros((m + 1, m), dtype=complex)
        cs = np.zeros(m, dtype=complex)
        sn = np.zeros(m, dtype=complex)
        g = np.zeros(m + 1, dtype=complex)
        g[0] = beta
        cols = 0
        for j in range(m):
            w = matvec(apply_m(v[j]))
            for i in range(j + 1):
                h[i, j] = _vdot(v[i], w)
                w -= h[i, j] * v[i]
            hnext = _norm(w)
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
            v.append(w / hnext)
        if cols == 0:
            break
        y = np.linalg.solve(h[:cols, :cols], g[:cols])
        x = x + apply_m(sum(yk * vk for yk, vk in zip(y, v)))  # the first cols rows of v
        r = b - matvec(x)
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

