"""Hodge splittings for constant and variable coefficients.

The central object is the perturbed operator ``gamma + B1 gamma_tilde B2``
with bounded matrix-valued coefficient fields B1, B2.  Constant
coefficients are handled frequency by frequency; variable coefficients
go through preconditioned Krylov resolvents, with dense assembly as the
oracle on small grids.
"""

from __future__ import annotations

import dataclasses
import math
import re
from functools import cached_property
from typing import Callable

import numpy as np

from . import krylov, matcalc, symbols, torus
from .errors import (
    DecompositionFailure,
    HodgeDecompositionUncertain,
    PerturbationTooLarge,
)

OFFRANGE_NILPOTENCE = "offrange_nilpotence"
COERCIVE_MULTIPLIERS = "coercive_multipliers"


@dataclasses.dataclass(frozen=True)
class MatrixField:
    """Pointwise N x N multiplication operator on grid fields."""

    grid: torus.TorusGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.grid.shape + v.shape[-2:] or v.shape[-1] != v.shape[-2]:
            raise ValueError(f"matrix field shape {v.shape} incompatible with grid")
        object.__setattr__(self, "values", v)

    @property
    def big_n(self) -> int:
        return self.values.shape[-1]

    @cached_property
    def inf_norm(self) -> float:
        """Essential sup of the pointwise operator norm."""
        flat = self.values.reshape(-1, self.big_n, self.big_n)
        return float(np.linalg.svd(flat, compute_uv=False)[:, 0].max())

    def apply(self, u: torus.GridField) -> torus.GridField:
        return torus.GridField(
            u.grid, np.einsum("...ij,...j->...i", self.values, u.values)
        )

    def adjoint(self) -> "MatrixField":
        return MatrixField(self.grid, np.conj(np.swapaxes(self.values, -1, -2)))

    def __add__(self, other: "MatrixField") -> "MatrixField":
        return MatrixField(self.grid, self.values + other.values)

    def __sub__(self, other: "MatrixField") -> "MatrixField":
        return MatrixField(self.grid, self.values - other.values)

    def __mul__(self, c) -> "MatrixField":
        return MatrixField(self.grid, self.values * c)

    __rmul__ = __mul__

    @classmethod
    def identity(cls, grid: torus.TorusGrid, big_n: int) -> "MatrixField":
        eye = np.broadcast_to(np.eye(big_n, dtype=complex), grid.shape + (big_n, big_n))
        return cls(grid, eye.copy())


def random_direction(grid: torus.TorusGrid, big_n: int, seed: int) -> MatrixField:
    """Random matrix field normalized to sup norm one."""
    rng = np.random.default_rng(seed)
    shape = grid.shape + (big_n, big_n)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    e = MatrixField(grid, vals)
    return MatrixField(grid, vals / e.inf_norm)


def diagonal_direction(grid: torus.TorusGrid, big_n: int, seed: int) -> MatrixField:
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
    e = MatrixField(grid, vals)
    return MatrixField(grid, vals / e.inf_norm)


def perturbed_identity(
    grid: torus.TorusGrid, big_n: int, eps: float, seed: int, *, diagonal: bool = False
) -> MatrixField:
    direction = diagonal_direction if diagonal else random_direction
    return MatrixField.identity(grid, big_n) + eps * direction(grid, big_n, seed)


_EXPR_RE = re.compile(r"^identity\+([0-9.eE+-]+)\*(random|diagrandom)\((\d+)\)$")


def parse_coefficient(expr: str, grid: torus.TorusGrid, big_n: int) -> MatrixField:
    """CLI coefficient syntax: 'identity', 'identity+eps*random(seed)',
    'identity+eps*diagrandom(seed)', or a path to a binary matrix-field
    file.  The diagonal form stays inside the admissible class for the
    bundled pairs (twisted nilpotence is preserved)."""
    if expr == "identity":
        return MatrixField.identity(grid, big_n)
    m = _EXPR_RE.match(expr.replace(" ", ""))
    if m:
        eps = float(m.group(1))
        if not math.isfinite(eps):
            raise ValueError(f"{expr}: the scale must be finite")
        return perturbed_identity(
            grid, big_n, eps, int(m.group(3)), diagonal=m.group(2) == "diagrandom"
        )
    loaded_grid, values = torus.load_field(expr)
    if loaded_grid != grid or values.shape[-1] != big_n:
        raise ValueError(f"{expr}: coefficient file does not match grid/N")
    return MatrixField(grid, values)


@dataclasses.dataclass(frozen=True)
class CoefficientPair:
    b1: MatrixField
    b2: MatrixField

    def __post_init__(self):
        if self.b1.grid != self.b2.grid or self.b1.big_n != self.b2.big_n:
            raise ValueError("coefficient fields must share grid and size")

    @classmethod
    def identity(cls, grid: torus.TorusGrid, big_n: int) -> "CoefficientPair":
        eye = MatrixField.identity(grid, big_n)
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
    def total_symbol(self) -> torus.GridSymbol:
        """The constant-coefficient symbol gamma + gamma_tilde on the grid."""
        return torus.GridSymbol(self.pair.total(), self.grid)

    @cached_property
    def gamma_op(self) -> torus.MultiplierOp:
        return torus.GridSymbol(self.pair.gamma, self.grid).multiplier()

    @cached_property
    def gamma_tilde_op(self) -> torus.MultiplierOp:
        return torus.GridSymbol(self.pair.gamma_tilde, self.grid).multiplier()

    def apply_twisted(self, u: torus.GridField) -> torus.GridField:
        """B1 gamma_tilde (B2 u)."""
        return self.coeffs.b1.apply(
            torus.apply_multiplier(self.gamma_tilde_op, self.coeffs.b2.apply(u))
        )

    def apply(self, u: torus.GridField) -> torus.GridField:
        return torus.apply_multiplier(self.gamma_op, u) + self.apply_twisted(u)

    @classmethod
    def constant(
        cls, pair: symbols.HodgeDiracSymbolPair, grid: torus.TorusGrid
    ) -> "VariableOp":
        return cls(pair, CoefficientPair.identity(grid, pair.big_n), grid)


def swap_operator(op: VariableOp) -> VariableOp:
    """The companion operator with the two parts and coefficients exchanged."""
    swapped = symbols.HodgeDiracSymbolPair(op.pair.gamma_tilde, op.pair.gamma)
    return VariableOp(swapped, CoefficientPair(op.coeffs.b2, op.coeffs.b1), op.grid)


# ---------------------------------------------------------------------------
# Projections.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class HodgeProjections:
    """Three complementary projections; callables on grid fields."""

    p0: Callable[[torus.GridField], torus.GridField]
    p_gamma: Callable[[torus.GridField], torus.GridField]
    p_gamma_tilde: Callable[[torus.GridField], torus.GridField]
    multipliers: dict | None = None
    report: dict | None = None


def constant_hodge_projections(
    pair: symbols.HodgeDiracSymbolPair, grid: torus.TorusGrid, *, cond_limit=1e12
) -> HodgeProjections:
    """Frequency-wise projections onto kernel / range(gamma) / range(gamma_tilde).

    At each frequency the three subspace bases are joined into a basis
    matrix which is inverted; failure to span, or a condition number above
    cond_limit, raises DecompositionFailure at the first such frequency.
    The zero frequency carries p0 = I.
    """
    n_comp = pair.big_n
    lattice = grid.lattice.reshape(-1, grid.n)
    g = torus.GridSymbol(pair.gamma, grid).mats.reshape(-1, n_comp, n_comp)
    gt = torus.GridSymbol(pair.gamma_tilde, grid).mats.reshape(-1, n_comp, n_comp)
    p0, pg, pgt = matcalc.subspace_projections(
        [(g + gt, "ker"), (g, "ran"), (gt, "ran")],
        cond_limit=cond_limit,
        fail=lambda msg, i: DecompositionFailure(msg, xi=lattice[i]),
    )
    shape = grid.shape + (n_comp, n_comp)
    ops = {
        "p0": torus.MultiplierOp(grid, p0.reshape(shape)),
        "p_gamma": torus.MultiplierOp(grid, pg.reshape(shape)),
        "p_gamma_tilde": torus.MultiplierOp(grid, pgt.reshape(shape)),
    }
    return HodgeProjections(
        p0=lambda u: torus.apply_multiplier(ops["p0"], u),
        p_gamma=lambda u: torus.apply_multiplier(ops["p_gamma"], u),
        p_gamma_tilde=lambda u: torus.apply_multiplier(ops["p_gamma_tilde"], u),
        multipliers=ops,
    )


# ---------------------------------------------------------------------------
# Coefficient conditions.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class CoefficientConditionReport:
    nilpotence_residual: float
    coercivity_primal: float
    coercivity_dual: float
    floor: float
    nilpotence_tol: float
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


def check_coefficient_conditions(
    op: VariableOp,
    *,
    p: float = 2.0,
    trials: int = 8,
    seed: int = 0,
    floor: float = 1e-6,
    nilpotence_tol: float = 1e-8,
) -> CoefficientConditionReport:
    """Monte-Carlo check of the two coefficient conditions.

    First, the twisted operator must stay nilpotent:
    gamma_tilde B2 B1 gamma_tilde annihilates random band-limited fields.
    Second, B1 must be bounded below on range(gamma_tilde) and B2* on the
    adjoint range; the observed lower bounds are reported.  The ``trials``
    fields of ``torus.random_trials`` go through gamma_tilde, its adjoint,
    B1 and B2 as one stack, and their norms are taken as one stack too.
    """
    b1, b2 = op.coeffs.b1, op.coeffs.b2
    v = torus.random_trials(op.grid, op.big_n, trials, seed)
    gv = torus.apply_multiplier(op.gamma_tilde_op, v)
    b1_gv = b1.apply(gv)
    chain = torus.apply_multiplier(op.gamma_tilde_op, b2.apply(b1_gv))
    adj_v = torus.apply_multiplier(op.gamma_tilde_op.adjoint(), v)
    b2_adj_v = b2.adjoint().apply(adj_v)
    p_dual = p / (p - 1.0)
    vn = torus.lp_norms(v, p)
    gn = torus.lp_norms(gv, p)
    adj_n = torus.lp_norms(adj_v, p_dual)
    nilp = torus.max_ratio(chain, p, vn)
    live = vn > 0
    on_range = live & (gn > 1e-13 * vn)
    primal = torus.lp_norms(b1_gv, p)[on_range] / gn[on_range]
    c_primal = float(primal.min()) if primal.size else 0.0
    on_adj = live & (adj_n > 1e-13 * vn)
    dual = torus.lp_norms(b2_adj_v, p_dual)[on_adj] / adj_n[on_adj]
    c_dual = float(dual.min()) if dual.size else 0.0
    failures = []
    if nilp > nilpotence_tol:
        failures.append(OFFRANGE_NILPOTENCE)
    if min(c_primal, c_dual) < floor:
        failures.append(COERCIVE_MULTIPLIERS)
    return CoefficientConditionReport(nilp, c_primal, c_dual, floor, nilpotence_tol, failures)


# ---------------------------------------------------------------------------
# Resolvents.
# ---------------------------------------------------------------------------


def solve_field(
    apply_fn: Callable[[torus.GridField], torus.GridField],
    rhs: torus.GridField,
    *,
    what: str,
    rtol: float,
    precond: torus.MultiplierOp | None = None,
) -> torus.GridField:
    """Solve apply_fn(x) = rhs for the field x, or for each field of a stack
    ``rhs``, by GMRES to relative residual rtol, right-preconditioned by the
    multiplier ``precond`` when given.

    One GMRES solve per field, in C order; ``apply_fn`` sees single fields.
    Raises NotInvertible, naming ``what``, when GMRES stagnates or meets a
    non-finite residual.
    """
    grid, big_n = rhs.grid, rhs.big_n

    def on_flat(fn):
        return lambda vec: fn(torus.GridField.from_flat(grid, big_n, vec)).flat()

    matvec = on_flat(apply_fn)
    apply_m = None if precond is None else on_flat(lambda f: torus.apply_multiplier(precond, f))
    xs = [
        krylov.solve_or_raise(matvec, field.flat(), what=what, rtol=rtol, precond=apply_m)
        for field in rhs.members()
    ]
    return torus.GridField(grid, np.reshape(xs, rhs.values.shape))


def variable_resolvent(
    op: VariableOp,
    t: float,
    u: torus.GridField,
    *,
    rtol: float = 1e-10,
) -> torus.GridField:
    """Solve (I + i t Op) x = u by preconditioned GMRES.

    The preconditioner is the exact constant-coefficient resolvent
    multiplier, which inverts the system exactly at B = I.
    """
    if t == 0:
        return u
    return solve_field(
        lambda f: f + 1j * t * op.apply(f),
        u,
        what=f"resolvent at t={t}",
        rtol=rtol,
        precond=op.total_symbol.resolvent(t),
    )


def smoothing_apply(op: VariableOp, t: float, u: torus.GridField, **kw) -> torus.GridField:
    """(I + t^2 Op^2)^{-1} u via the two commuting resolvent factors."""
    return variable_resolvent(op, -t, variable_resolvent(op, t, u, **kw), **kw)


def bandpass_apply(op: VariableOp, t: float, u: torus.GridField, **kw) -> torus.GridField:
    """t Op (I + t^2 Op^2)^{-1} u, computed from the two resolvents."""
    plus = variable_resolvent(op, t, u, **kw)
    minus = variable_resolvent(op, -t, u, **kw)
    return 0.5j * (plus - minus)


# ---------------------------------------------------------------------------
# Dense assembly (small grids: the oracles and the dense contour route).
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
    """Dense subspace oracle: projections from explicit kernel/range bases."""
    m = dense_operator(op.apply, op.grid, op.big_n)
    g = dense_operator(
        lambda u: torus.apply_multiplier(op.gamma_op, u), op.grid, op.big_n
    )
    gt_b = dense_operator(op.apply_twisted, op.grid, op.big_n)
    p0, pg, pgt = matcalc.subspace_projections(
        [(m[None], "ker"), (g[None], "ran"), (gt_b[None], "ran")],
        fail=lambda msg, i: DecompositionFailure(f"dense {msg}"),
    )
    return p0[0], pg[0], pgt[0]


# ---------------------------------------------------------------------------
# Limit-formula projections for variable coefficients.
# ---------------------------------------------------------------------------


def variable_hodge_projections(op: VariableOp, *, seed: int = 0) -> HodgeProjections:
    """Projections from the large-t limit formulas.

    p0 ~ (I + t^2 Op^2)^{-1}, p_gamma ~ gamma . t^2 Op (I + t^2 Op^2)^{-1},
    and likewise for the twisted part.  Convergence is accepted when
    successive values along t = 2^10, 2^12, 2^14 agree within 1e-6 on a
    stack of three random probe fields; otherwise
    HodgeDecompositionUncertain carries the curve.
    """
    # the attainable GMRES residual degrades like eps * t * ||op||; ask only
    # for what floating point can deliver at the largest scales
    mats = op.total_symbol.mats.reshape(-1, op.big_n, op.big_n)
    big = float(np.linalg.svd(mats, compute_uv=False)[:, 0].max())
    big *= max(1.0, op.coeffs.b1.inf_norm * op.coeffs.b2.inf_norm)

    def kw(t):
        floor = 30.0 * np.finfo(float).eps * (1.0 + abs(t) * big)
        return dict(rtol=max(1e-10, floor))

    def all_at(t, u):
        # the three projections from three solves: R(t)u, R(-t)u, R(-t)R(t)u
        plus = variable_resolvent(op, t, u, **kw(t))
        band = t * (0.5j * (plus - variable_resolvent(op, -t, u, **kw(t))))
        return (
            variable_resolvent(op, -t, plus, **kw(t)),
            torus.apply_multiplier(op.gamma_op, band),
            op.apply_twisted(band),
        )

    fields = torus.random_trials(op.grid, op.big_n, 3, seed)
    inv_norms = 1.0 / torus.lp_norms(fields, 2.0)
    fields = fields * inv_norms.reshape(fields.batch + (1,) * (op.grid.n + 1))
    curve = []
    prev = None
    for t in (2.0**10, 2.0**12, 2.0**14):
        vals = all_at(t, fields)
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
    t_final = t  # the largest scale
    band = lambda u: t_final * bandpass_apply(op, t_final, u, **kw(t_final))
    return HodgeProjections(
        p0=lambda u: smoothing_apply(op, t_final, u, **kw(t_final)),
        p_gamma=lambda u: torus.apply_multiplier(op.gamma_op, band(u)),
        p_gamma_tilde=lambda u: op.apply_twisted(band(u)),
        report={"curve": curve, "t_final": t_final},
    )


# ---------------------------------------------------------------------------
# Perturbation machinery.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SplitPerturbation:
    p0_new: np.ndarray
    p1_new: np.ndarray
    shift0: float
    shift1: float


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
    return SplitPerturbation(
        p0_new,
        p1_new,
        matcalc.operator_norm(p0_new - p0),
        matcalc.operator_norm(p1_new - p1),
    )


@dataclasses.dataclass
class PerturbationReport:
    delta: float
    diff_p0: float
    diff_p_gamma: float
    diff_p_gamma_tilde: float
    diff_restricted_inverse: float
    ratios: dict | None


def hodge_perturbation_report(opa: VariableOp, opb: VariableOp) -> PerturbationReport:
    """Operator-norm distances between the Hodge projections of two
    operators sharing a symbol pair, normalized by the coefficient
    distance.  Dense path; intended for small grids."""
    if opa.grid != opb.grid or opa.pair != opb.pair:
        raise ValueError("operators must share grid and symbol pair")
    delta = opb.coeffs.distance(opa.coeffs)
    pa = dense_hodge_projections(opa)
    pb = dense_hodge_projections(opb)
    diffs = [krylov.operator_norm_power(b - a) for a, b in zip(pa, pb)]
    # restricted inverse: basis of range(gamma_tilde) mapped through A1, B1
    gt = dense_operator(
        lambda u: torus.apply_multiplier(opa.gamma_tilde_op, u), opa.grid, opa.big_n
    )
    v = matcalc.range_basis(gt)
    wa = dense_operator(opa.coeffs.b1.apply, opa.grid, opa.big_n) @ v
    wb = dense_operator(opb.coeffs.b1.apply, opb.grid, opb.big_n) @ v
    inv_a = v @ np.linalg.lstsq(wa, pa[2], rcond=None)[0]
    inv_b = v @ np.linalg.lstsq(wb, pb[2], rcond=None)[0]
    diff_inv = krylov.operator_norm_power(inv_b - inv_a)
    ratios = None
    if delta > 0:
        ratios = {
            "p0": diffs[0] / delta,
            "p_gamma": diffs[1] / delta,
            "p_gamma_tilde": diffs[2] / delta,
            "restricted_inverse": diff_inv / delta,
        }
    return PerturbationReport(delta, diffs[0], diffs[1], diffs[2], diff_inv, ratios)


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
        op.gamma_op, op.coeffs.b1.apply(smoothing_apply(swapped, t, v, rtol=1e-11))
    )
    rhs = torus.apply_multiplier(
        op.gamma_op, smoothing_apply(op, t, op.coeffs.b1.apply(v), rtol=1e-11)
    )
    return torus.lp_norm(lhs - rhs, 2.0) / vn
