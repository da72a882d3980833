"""Hodge splittings for constant and variable coefficients.

The central object is the perturbed operator ``gamma + B1 gamma_tilde B2``
with bounded matrix-valued coefficient fields B1, B2.  Constant
coefficients are handled frequency by frequency; variable coefficients
go through shifted solves.  Every resolvent, resolvent pair, limit-formula
ladder and partial-fraction calculus is a weighted sum of solves
(p_k - T)^{-1} u of one operator T, and :func:`solve_shifts` is the one
layer that takes them: on small grids by one dense assembly of T per call,
past DENSE_SOLVE_LIMIT by preconditioned GMRES.  Dense assembly is also the
oracle on small grids.
"""

from __future__ import annotations

import dataclasses
import math
import re
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import krylov, matcalc, symbols, torus
from .errors import (
    DecompositionFailure,
    HodgeDecompositionUncertain,
    NotInvertible,
    PerturbationTooLarge,
)

OFFRANGE_NILPOTENCE = "offrange_nilpotence"
COERCIVE_MULTIPLIERS = "coercive_multipliers"


def random_direction(grid: torus.TorusGrid, big_n: int, seed: int) -> torus.MatrixField:
    """Random matrix field normalized to sup norm one."""
    rng = np.random.default_rng(seed)
    shape = grid.shape + (big_n, big_n)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return torus.MatrixField(grid, vals / torus.MatrixField(grid, vals).inf_norm)


def diagonal_direction(grid: torus.TorusGrid, big_n: int, seed: int) -> torus.MatrixField:
    """Random pointwise-diagonal matrix field with sup norm one.

    Diagonal coefficients commute with coordinate-aligned kernels and
    ranges, so products of them keep the twisted part nilpotent for the
    bundled symbol pairs; use these to perturb within the admissible class.
    """
    rng = np.random.default_rng(seed)
    shape = grid.shape + (big_n,)
    diag = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vals = np.zeros(grid.shape + (big_n, big_n), dtype=complex)
    idx = np.arange(big_n)
    vals[..., idx, idx] = diag
    return torus.MatrixField(grid, vals / torus.MatrixField(grid, vals).inf_norm)


def perturbed_identity(
    grid: torus.TorusGrid, big_n: int, eps: float, seed: int, *, diagonal: bool = False
) -> torus.MatrixField:
    direction = diagonal_direction if diagonal else random_direction
    return torus.MatrixField.identity(grid, big_n) + eps * direction(grid, big_n, seed)


_EXPR_RE = re.compile(r"^identity\+([0-9.eE+-]+)\*(random|diagrandom)\((\d+)\)$")


def parse_coefficient(expr: str, grid: torus.TorusGrid, big_n: int) -> torus.MatrixField:
    """CLI coefficient syntax: 'identity', 'identity+eps*random(seed)',
    'identity+eps*diagrandom(seed)', or a path to a binary matrix-field
    file.  The diagonal form stays inside the admissible class for the
    bundled pairs (twisted nilpotence is preserved)."""
    if expr == "identity":
        return torus.MatrixField.identity(grid, big_n)
    m = _EXPR_RE.match(expr.replace(" ", ""))
    if m:
        eps = float(m.group(1))
        if not math.isfinite(eps):
            raise ValueError(f"{expr}: the scale must be finite")
        return perturbed_identity(
            grid, big_n, eps, int(m.group(3)), diagonal=m.group(2) == "diagrandom"
        )
    field = torus.load_field(expr)
    if not isinstance(field, torus.MatrixField):
        raise ValueError(f"{expr}: holds a vector field (layout {torus.LAYOUT_VECTOR}); "
                         f"a coefficient file holds a matrix field (layout {torus.LAYOUT_MATRIX})")
    if field.grid != grid or field.big_n != big_n:
        raise ValueError(f"{expr}: coefficient file does not match grid/N")
    return field


@dataclasses.dataclass(frozen=True)
class CoefficientPair:
    b1: torus.MatrixField
    b2: torus.MatrixField

    def __post_init__(self):
        if self.b1.grid != self.b2.grid or self.b1.big_n != self.b2.big_n:
            raise ValueError("coefficient fields must share grid and size")

    @classmethod
    def identity(cls, grid: torus.TorusGrid, big_n: int) -> "CoefficientPair":
        eye = torus.MatrixField.identity(grid, big_n)
        return cls(eye, eye)

    def distance(self, other: "CoefficientPair") -> float:
        """Sup-norm distance: ||B1 - A1|| + ||B2 - A2||."""
        return (self.b1 - other.b1).inf_norm + (self.b2 - other.b2).inf_norm


@dataclasses.dataclass(frozen=True)
class VariableOp:
    """First-order operator: constant part plus coefficient-twisted part."""

    pair: symbols.HodgeDiracSymbolPair
    coeffs: CoefficientPair
    grid: torus.TorusGrid

    def __post_init__(self):
        if self.coeffs.b1.grid != self.grid:
            raise ValueError("coefficients live on a different grid")
        if self.coeffs.b1.big_n != self.pair.big_n:
            raise ValueError("coefficient size does not match symbol size")

    @property
    def big_n(self) -> int:
        return self.pair.big_n

    @property
    def dim(self) -> int:
        return self.grid.size * self.big_n

    @cached_property
    def symbol(self) -> torus.GridSymbol:
        """The constant-coefficient symbol gamma + gamma_tilde on the grid."""
        return torus.GridSymbol(self.pair.total(), self.grid)

    @cached_property
    def gamma_op(self) -> torus.MultiplierOp:
        return torus.GridSymbol(self.pair.gamma, self.grid).multiplier()

    @cached_property
    def gamma_tilde_op(self) -> torus.MultiplierOp:
        return torus.GridSymbol(self.pair.gamma_tilde, self.grid).multiplier()

    @cached_property
    def twisted_coeffs(self) -> CoefficientPair:
        """B1 with the columns gamma_tilde does not write set to zero, and B2
        with the rows it does not read: the same twisted product, on supports
        that skip what gamma_tilde would discard or leave zero."""
        rows, cols, _ = self.gamma_tilde_op.support
        b1, b2 = np.zeros_like(self.coeffs.b1.mats), np.zeros_like(self.coeffs.b2.mats)
        b1[..., rows] = self.coeffs.b1.mats[..., rows]
        b2[..., cols, :] = self.coeffs.b2.mats[..., cols, :]
        return CoefficientPair(torus.MatrixField(self.grid, b1), torus.MatrixField(self.grid, b2))

    def apply_twisted(self, u: torus.GridField) -> torus.GridField:
        """B1 gamma_tilde (B2 u)."""
        b1, b2 = self.twisted_coeffs.b1, self.twisted_coeffs.b2
        return b1.apply(torus.apply_multiplier(self.gamma_tilde_op, b2.apply(u)))

    def apply(self, u: torus.GridField) -> torus.GridField:
        return torus.apply_multiplier(self.gamma_op, u) + self.apply_twisted(u)

    @classmethod
    def constant(
        cls, pair: symbols.HodgeDiracSymbolPair, grid: torus.TorusGrid
    ) -> "VariableOp":
        return cls(pair, CoefficientPair.identity(grid, pair.big_n), grid)


def swap_operator(op: VariableOp) -> VariableOp:
    """The companion operator with the two parts and coefficients exchanged;
    it takes op's two multipliers, exchanged, rather than evaluating them again."""
    pair = symbols.HodgeDiracSymbolPair(op.pair.gamma_tilde, op.pair.gamma)
    swapped = VariableOp(pair, CoefficientPair(op.coeffs.b2, op.coeffs.b1), op.grid)
    vars(swapped).update(gamma_op=op.gamma_tilde_op, gamma_tilde_op=op.gamma_op)
    return swapped


# ---------------------------------------------------------------------------
# Projections.
# ---------------------------------------------------------------------------


class HodgeProjections(NamedTuple):
    """The three complementary constant-coefficient projections, as multipliers."""

    p0: torus.MultiplierOp
    p_gamma: torus.MultiplierOp
    p_gamma_tilde: torus.MultiplierOp


# Largest condition number of the joined kernel/range basis matrix that the
# constant Hodge projections accept.
HODGE_COND_LIMIT = 1e12


def constant_hodge_projections(
    pair: symbols.HodgeDiracSymbolPair, grid: torus.TorusGrid
) -> HodgeProjections:
    """Frequency-wise projections onto kernel / range(gamma) / range(gamma_tilde).

    At each frequency the three subspace bases are joined into a basis
    matrix which is inverted; failure to span, or a condition number above
    HODGE_COND_LIMIT, raises DecompositionFailure at the first such frequency.
    The zero frequency carries p0 = I.  Subspaces, projections and checks are
    invariant under scaling xi, so they are taken once per ray direction of
    the grid (``torus.TorusGrid.rays``) and gathered per frequency; the first
    failing direction holds the first failing frequency.
    """
    rays = grid.rays
    lattice = grid.lattice.reshape(-1, grid.n)
    g, gt = pair.gamma(rays.directions), pair.gamma_tilde(rays.directions)
    p0, pg, pgt = matcalc.subspace_projections(
        [(g + gt, "ker"), (g, "ran"), (gt, "ran")],
        cond_limit=HODGE_COND_LIMIT,
        fail=lambda msg, d: DecompositionFailure(msg, xi=lattice[rays.first_frequency(d)]),
    )
    shape = grid.shape + (pair.big_n, pair.big_n)
    return HodgeProjections(
        *(torus.MultiplierOp(grid, p[rays.index].reshape(shape)) for p in (p0, pg, pgt))
    )


# ---------------------------------------------------------------------------
# Coefficient conditions.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class CoefficientConditionReport:
    nilpotence_residual: float
    coercivity_primal: float
    coercivity_dual: float
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        status = "pass" if self.passed else "fail: " + ", ".join(self.failures)
        return (
            f"{status} (twisted nilpotence residual {self.nilpotence_residual:.2e}, "
            f"coercivity {self.coercivity_primal:.3g} / dual {self.coercivity_dual:.3g})"
        )


def check_coefficient_conditions(op: VariableOp, *, seed: int = 0) -> CoefficientConditionReport:
    """:func:`coefficient_checks` of op, drawing from ``seed``, on op's own coefficients."""
    return coefficient_checks(op, seed=seed)(op.coeffs)


def coefficient_checks(
    op: VariableOp,
    *,
    p: float = 2.0,
    seed: int = 0,
) -> Callable[[CoefficientPair], CoefficientConditionReport]:
    """The Monte-Carlo check of the two coefficient conditions, as a function
    of a coefficient pair for op's symbol pair on op's grid: the twisted
    operator stays nilpotent (gamma_tilde B2 B1 gamma_tilde annihilates
    random band-limited fields, to 1e-8), and B1 is bounded below on
    range(gamma_tilde) and B2* on the adjoint range (by at least 1e-6), with
    the observed lower bounds reported.  The 8 fields of
    ``torus.random_trials`` and their images under gamma_tilde and its
    adjoint are drawn once, with their norms; each pair checked pushes them
    through B1 and B2 as one stack."""
    v = torus.random_trials(op.grid, op.big_n, 8, seed)
    gv = torus.apply_multiplier(op.gamma_tilde_op, v)
    adj_v = torus.apply_multiplier(op.gamma_tilde_op.adjoint(), v)
    p_dual = p / (p - 1.0)
    vn = torus.lp_norms(v, p)
    gn = torus.lp_norms(gv, p)
    adj_n = torus.lp_norms(adj_v, p_dual)
    live = vn > 0
    on_range = live & (gn > 1e-13 * vn)
    on_adj = live & (adj_n > 1e-13 * vn)

    def check(coeffs: CoefficientPair) -> CoefficientConditionReport:
        b1, b2 = coeffs.b1, coeffs.b2
        b1_gv = b1.apply(gv)
        chain = torus.apply_multiplier(op.gamma_tilde_op, b2.apply(b1_gv))
        nilp = torus.max_ratio(chain, p, vn)
        primal = torus.lp_norms(b1_gv, p)[on_range] / gn[on_range]
        c_primal = float(primal.min()) if primal.size else 0.0
        dual = torus.lp_norms(b2.adjoint().apply(adj_v), p_dual)[on_adj] / adj_n[on_adj]
        c_dual = float(dual.min()) if dual.size else 0.0
        failures = []
        if nilp > 1e-8:
            failures.append(OFFRANGE_NILPOTENCE)
        if min(c_primal, c_dual) < 1e-6:
            failures.append(COERCIVE_MULTIPLIERS)
        return CoefficientConditionReport(nilp, c_primal, c_dual, failures)

    return check


# ---------------------------------------------------------------------------
# Shifted solves: resolvents, their halves and the calculus.
# ---------------------------------------------------------------------------


# Largest field dimension (grid.size * big_n) that solve_shifts takes by
# dense linear algebra (one assembly and a checked LU per shift) instead of
# GMRES (shifts x fields x iterations).  ms, dense / GMRES, 3 fields, the
# suites' default coefficients, the lower of two runs of min of 5, one
# OpenBLAS thread (the package default) on a 2-core VM:
#   dim                                     128      256      512      1024
#   six-shift ladder, dirac1d VariableOp   4 / 33  15 / 34  65 / 36  406 / 49
#   two-pole f_rational_odd, CompositionOp 1 / 7    5 / 8   23 / 9   154 / 11
DENSE_SOLVE_LIMIT = 256

# From this many shifts up, the dense route diagonalizes the operator once
# instead of one LU solve per shift.  One eig, cond(V) and solve with V cost
# as much as this many LU solves with 3 fields (min of 7, one thread):
#   dim       64    128    256    512   1024
#   LU ms   0.14   0.73   3.55   18.5    104
#   eig ms   9.6   52.0    159   1061   4296
#   poles     71     72     45     57     41
EIG_ROUTE_POLES = 64


def lu_solve(mat: np.ndarray, cols: np.ndarray, what: str) -> np.ndarray:
    """np.linalg.solve(mat, cols); a matrix LAPACK finds singular raises
    NotInvertible naming ``what``, with residual inf."""
    try:
        return np.linalg.solve(mat, cols)
    except np.linalg.LinAlgError as exc:
        raise NotInvertible(f"{what}: singular matrix", residual=math.inf) from exc


def solve_shifts(
    op,
    u: torus.GridField,
    shifts: Sequence[complex],
    weights,
    *,
    rtol,
    what: str,
    contour: matcalc.ContourSpec | None = None,
) -> list[torus.GridField]:
    """sum_k weights[j][k] (p_k - T)^{-1} u for each row j of ``weights``, with
    p_k = ``shifts[k]`` and T = ``op``: any object with ``apply`` (acting on
    stacks) and ``symbol``, the torus.GridSymbol S of its constant-coefficient
    part; on a field or a stack ``u``.  Each solve meets
    ||u - (p_k - T) x|| <= rtol ||u||, with one rtol or one per shift.

    Up to DENSE_SOLVE_LIMIT unknowns T is assembled once.  From
    EIG_ROUTE_POLES shifts up, when cond(V) <= matcalc.EIG_COND_LIMIT, row j
    is V g_j(lam) V^{-1} u, g_j(z) = sum_k weights[j][k] / (p_k - z), and a
    nonzero eigenvalue the ``contour`` of the shifts does not enclose raises
    ContourTooClose.  Otherwise each shift is one LU for all fields, each
    field's true residual checked.  Past the limit each shift and field is
    one GMRES solve, in that order, right-preconditioned by
    ``op.symbol.shifted(p_k)`` = (p_k - S)^{-1}.  A residual above rtol or not
    finite, or a singular matrix or preconditioner, raises NotInvertible
    naming ``what`` and the shift, with the residual (inf where singular).
    """
    grid, big_n, shape = u.grid, u.big_n, u.values.shape
    dim = grid.size * big_n
    weights = np.asarray(weights, dtype=complex)
    rtols = rtol if np.ndim(rtol) else [rtol] * len(shifts)
    if dim <= DENSE_SOLVE_LIMIT:
        mat = dense_operator(op.apply, grid, big_n)
        cols = u.values.reshape(-1, dim).T
        if len(shifts) >= EIG_ROUTE_POLES:
            lam, v = np.linalg.eig(mat)
            if np.linalg.cond(v) <= matcalc.EIG_COND_LIMIT:
                if contour is not None:
                    contour.check_enclosed(lam, float(np.abs(lam).max()))
                y = lu_solve(v, cols, "eigenvector matrix")
                out = []
                for row in weights:
                    g = matcalc.PartialFractions(tuple(shifts), tuple(-row))(lam)
                    out.append(torus.GridField(grid, (v @ (g[:, None] * y)).T.reshape(shape)))
                return out
        layout, to_field = cols.shape, lambda a: a.T.reshape(shape)
        eye, bn = np.eye(dim), np.linalg.norm(cols, axis=0)
        bn[bn == 0] = 1.0

        def pieces(k, p, name):
            shifted = p * eye - mat
            x = lu_solve(shifted, cols, name)
            with np.errstate(invalid="ignore", over="ignore"):
                worst = float((np.linalg.norm(cols - shifted @ x, axis=0) / bn).max())
            if not worst <= rtols[k]:
                msg = f"{name}: dense solve residual {worst:.3e} above {rtols[k]:.1e}"
                raise NotInvertible(msg, residual=worst)
            yield ..., x
    else:
        rhs = u.values.reshape(-1, dim)
        layout, to_field = rhs.shape, lambda a: a.reshape(shape)

        def on_flat(fn):
            return lambda vec: fn(torus.GridField.from_flat(grid, big_n, vec)).flat()

        def pieces(k, p, name):
            # one field at a time, so one solution is held beside the rows
            matvec = on_flat(lambda y: p * y - op.apply(y))
            try:
                apply_m = on_flat(op.symbol.shifted(p).apply)
            except NotInvertible as exc:
                raise NotInvertible(f"{name}: singular preconditioner", residual=math.inf) from exc
            for i, b in enumerate(rhs):
                yield i, krylov.solve_or_raise(matvec, b, what=name, rtol=rtols[k], precond=apply_m)

    acc = [np.zeros(layout, dtype=complex) for _ in weights]
    for k, p in enumerate(shifts):
        for at, x in pieces(k, p, f"{what}, z={p:.4g}"):
            for j in np.flatnonzero(weights[:, k]):
                acc[j][at] += weights[j, k] * x
    return [torus.GridField(grid, to_field(a)) for a in acc]


def variable_resolvent(
    op: VariableOp, t: float, u: torus.GridField, *, rtol: float = 1e-10
) -> torus.GridField:
    """(I + i t Op)^{-1} u = p (p - Op)^{-1} u with p = i/t: one shift of
    :func:`solve_shifts`, whose preconditioner (p - S)^{-1} is exact at B = I."""
    if t == 0:
        return u
    p = 1j / t
    return solve_shifts(op, u, [p], [[p]], rtol=rtol, what=f"resolvent at t={t}")[0]


def resolvent_halves(
    op, scales: Sequence[float], u: torus.GridField, *, rtol=1e-10
) -> list[torus.GridField]:
    """For each t of ``scales`` in turn, the even and odd halves of the pair
    R(+-t) = (I +- i t Op)^{-1} = (+-p)(+-p - Op)^{-1}, p = i/t:
    (R(t)u + R(-t)u) / 2 = (I + t^2 Op^2)^{-1} u and
    (i/2)(R(t)u - R(-t)u) = t Op (I + t^2 Op^2)^{-1} u; every scale's pair
    in one :func:`solve_shifts` call on ``op``, with one rtol or one per scale."""
    n = len(scales)
    shifts, weights = [], np.zeros((2 * n, 2 * n), dtype=complex)
    for k, t in enumerate(scales):
        p = 1j / t
        shifts += [p, -p]
        weights[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[p / 2, -p / 2], [-0.5 / t, -0.5 / t]]
    return solve_shifts(op, u, shifts, weights, rtol=np.repeat(np.broadcast_to(rtol, n), 2),
                        what="resolvent pair")


# ---------------------------------------------------------------------------
# Dense assembly (small grids: the oracles and the dense solve and calculus routes).
# ---------------------------------------------------------------------------


# columns of the identity pushed through the operator per batched call
DENSE_CHUNK = 64


def dense_operator(apply_fn, grid: torus.TorusGrid, big_n: int) -> np.ndarray:
    """Dense matrix of a linear map on fields, in the order of GridField.flat.

    ``apply_fn`` must act on batched fields: it is applied to the identity,
    DENSE_CHUNK columns at a time, stacked on the batch axis.
    """
    dim = grid.size * big_n
    out = np.empty((dim, dim), dtype=complex)
    for lo in range(0, dim, DENSE_CHUNK):
        k = min(DENSE_CHUNK, dim - lo)
        eye = np.zeros((k, dim), dtype=complex)
        eye[:, lo : lo + k] = np.eye(k)
        unit = torus.GridField(grid, eye.reshape((k,) + grid.shape + (big_n,)))
        out[:, lo : lo + k] = apply_fn(unit).values.reshape(k, dim).T
    return out


def dense_hodge_projections(op: VariableOp):
    """Dense subspace oracle: projections from explicit kernel/range bases.
    Pi_B's matrix is the sum of its two parts' matrices, as op.apply sums
    their fields."""
    g = dense_operator(op.gamma_op.apply, op.grid, op.big_n)
    gt_b = dense_operator(op.apply_twisted, op.grid, op.big_n)
    p0, pg, pgt = matcalc.subspace_projections(
        [((g + gt_b)[None], "ker"), (g[None], "ran"), (gt_b[None], "ran")],
        fail=lambda msg, i: DecompositionFailure(f"dense {msg}"),
    )
    return p0[0], pg[0], pgt[0]


def untwist(op: VariableOp, p_gamma_tilde: np.ndarray) -> np.ndarray:
    """The restricted inverse of B1 on range(gamma_tilde) after the dense
    projection ``p_gamma_tilde`` onto range(B1 gamma_tilde B2): V (B1 V)^+ P
    by least squares, V an orthonormal basis of range(gamma_tilde)."""
    v = matcalc.range_basis(dense_operator(op.gamma_tilde_op.apply, op.grid, op.big_n))
    w = dense_operator(op.coeffs.b1.apply, op.grid, op.big_n) @ v
    return v @ np.linalg.lstsq(w, p_gamma_tilde, rcond=None)[0]


# ---------------------------------------------------------------------------
# Limit-formula projections for variable coefficients.
# ---------------------------------------------------------------------------


# The ladder of the limit formulas: successive scales must agree, and the
# projections are the values at the last.
LIMIT_SCALES = (2.0**10, 2.0**12, 2.0**14)


def limit_projections(
    op: VariableOp, scales: Sequence[float], u: torus.GridField
) -> Iterator[tuple[torus.GridField, torus.GridField, torus.GridField]]:
    """For each t of ``scales`` in turn, the limit-formula parts of u:
    p0 ~ (I + t^2 Op^2)^{-1}, p_gamma ~ gamma . t^2 Op (I + t^2 Op^2)^{-1},
    and likewise for the twisted part, all three from the one resolvent
    pair at t.  Every scale's pair is taken by one :func:`resolvent_halves`
    call, and each is released as its scale is yielded."""
    # the attainable residual degrades like eps * t * ||op||; ask only
    # for what floating point can deliver at the largest scales
    big = op.symbol.multiplier().inf_norm
    big *= max(1.0, op.coeffs.b1.inf_norm * op.coeffs.b2.inf_norm)
    floors = [max(1e-10, 30.0 * np.finfo(float).eps * (1.0 + t * big)) for t in scales]
    halves = resolvent_halves(op, scales, u, rtol=floors)
    for t in scales:
        smooth, band = halves.pop(0), t * halves.pop(0)
        yield smooth, torus.apply_multiplier(op.gamma_op, band), op.apply_twisted(band)


class LimitReport(NamedTuple):
    """The settling curve of the limit formulas, the probe ``fields`` and
    their projections ``final`` (p0, p_gamma, p_gamma_tilde) at the last scale."""

    curve: list[dict]
    fields: torus.GridField
    final: tuple[torus.GridField, torus.GridField, torus.GridField]


def variable_hodge_projections(op: VariableOp, *, seed: int = 0) -> LimitReport:
    """The limit formulas along LIMIT_SCALES on a stack of three random
    probe fields of unit norm.  Convergence is accepted when successive
    values agree within 1e-6; otherwise HodgeDecompositionUncertain carries
    the curve."""
    fields = torus.random_trials(op.grid, op.big_n, 3, seed)
    inv_norms = 1.0 / torus.lp_norms(fields, 2.0)
    fields = fields * inv_norms.reshape(fields.batch + (1,) * (op.grid.n + 1))
    curve = []
    prev = None
    for t, vals in zip(LIMIT_SCALES, limit_projections(op, LIMIT_SCALES, fields)):
        if prev is not None:
            diff = max(float(torus.lp_norms(a - b, 2.0).max()) for a, b in zip(vals, prev))
            curve.append({"t": t, "max_diff": diff})
        prev = vals
    worst = max(c["max_diff"] for c in curve)
    if worst > 1e-6:
        raise HodgeDecompositionUncertain(
            f"limit formulas not settled: max successive difference {worst:.3e}",
            curve=curve,
        )
    return LimitReport(curve, fields, prev)


# ---------------------------------------------------------------------------
# Perturbation machinery.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SplitPerturbation:
    p0_new: np.ndarray
    p1_new: np.ndarray
    shift0: float


def perturb_splitting(p0: np.ndarray, p1: np.ndarray, t_op: np.ndarray) -> SplitPerturbation:
    """Perturb a complementary splitting by a small map on range(p1).

    Builds U = (I - T p1)^{-1} and the tilted projections p0 U and
    (I - T p1) p1 U; requires ||T|| < 1/(2 ||p1||).
    """
    p0 = np.asarray(p0, dtype=complex)
    p1 = np.asarray(p1, dtype=complex)
    t_op = np.asarray(t_op, dtype=complex)
    norm_t = matcalc.operator_norm(t_op)
    norm_p1 = matcalc.operator_norm(p1)
    if norm_t >= 1.0 / (2.0 * norm_p1):
        raise PerturbationTooLarge(
            f"||T|| = {norm_t:.3e} >= 1/(2||p1||) = {1/(2*norm_p1):.3e}"
        )
    n = p0.shape[0]
    eye = np.eye(n)
    try:
        u = np.linalg.solve(eye - t_op @ p1, eye)
    except np.linalg.LinAlgError as exc:
        raise PerturbationTooLarge("I - T p1 numerically singular") from exc
    p0_new = p0 @ u
    p1_new = (eye - t_op @ p1) @ p1 @ u
    return SplitPerturbation(p0_new, p1_new, matcalc.operator_norm(p0_new - p0))


@dataclasses.dataclass
class PerturbationReport:
    """The coefficient distance ``delta`` and the operator-norm distances
    ``diffs`` of p0, p_gamma, p_gamma_tilde and the restricted inverse."""

    delta: float
    diffs: dict[str, float]


def hodge_perturbation_report(
    base: VariableOp, others: Sequence[VariableOp]
) -> list[PerturbationReport]:
    """Operator-norm distances between the Hodge projections of ``base`` and
    of each operator of the sweep ``others``, which share its symbol pair and
    grid, with their coefficient distance; one report per member.
    base's projections and restricted inverse are computed once for the
    whole sweep (:func:`untwist`).  Dense path; intended for small grids."""
    if any(op.grid != base.grid or op.pair != base.pair for op in others):
        raise ValueError("operators must share grid and symbol pair")
    pa = dense_hodge_projections(base)
    inv_a = untwist(base, pa[2])
    reports = []
    for op in others:
        delta = op.coeffs.distance(base.coeffs)
        pb = dense_hodge_projections(op)
        diffs = {key: matcalc.operator_norm(b - a)
                 for key, a, b in zip(HodgeProjections._fields, pa, pb)}
        diffs["restricted_inverse"] = matcalc.operator_norm(untwist(op, pb[2]) - inv_a)
        reports.append(PerturbationReport(delta, diffs))
    return reports


def underline_intertwining_residual(op: VariableOp, t: float, *, seed: int = 0) -> float:
    """Residual of the companion-operator intertwining on range(gamma_tilde).

    Checks gamma B1 (I + (t Op_swap)^2)^{-1} v = gamma (I + (t Op)^2)^{-1} B1 v
    for v = gamma_tilde(w) with random w; exact in exact arithmetic when the
    twisted-nilpotence and coercivity conditions hold.
    """
    swapped = swap_operator(op)
    w = torus.random_band_limited(op.grid, op.big_n, seed=seed)
    v = torus.apply_multiplier(op.gamma_tilde_op, w)
    vn = torus.lp_norm(v, 2.0)
    if vn == 0:
        return 0.0
    lhs = torus.apply_multiplier(
        op.gamma_op, op.coeffs.b1.apply(resolvent_halves(swapped, [t], v, rtol=1e-11)[0])
    )
    rhs = torus.apply_multiplier(
        op.gamma_op, resolvent_halves(op, [t], op.coeffs.b1.apply(v), rtol=1e-11)[0]
    )
    return torus.lp_norm(lhs - rhs, 2.0) / vn
