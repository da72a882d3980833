"""Correspondence between composed first-order operators and their block form.

A first-order coercive operator composed with a bounded multiplication,
``u -> D(A u)``, embeds into a two-component twisted operator whose
functional calculus can be transported back and forth.  This module
builds that block operator, checks the transport identities, and probes
holomorphic and Lipschitz dependence on the coefficient.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import hodge, matcalc, symbols, torus
from .errors import CoercivityError, ProbeAborted


@dataclasses.dataclass(frozen=True)
class FirstOrderD:
    """First-order symbol verified coercive-on-range with bisectorial spectrum."""

    symbol: symbols.HomogeneousSymbol
    params: matcalc.BisectorParams

    def __post_init__(self):
        if self.symbol.k != 1:
            raise ValueError("first-order operator requires k = 1")

    @classmethod
    def verified(
        cls, symbol: symbols.HomogeneousSymbol, sample: symbols.SphereSample | None = None
    ) -> "FirstOrderD":
        report = symbols.verify_symbol_conditions(symbol, sample)
        if not report.passed:
            raise CoercivityError(
                "first-order symbol conditions fail: " + ", ".join(report.failures)
            )
        return cls(symbol, report.params)


@dataclasses.dataclass(frozen=True)
class CompositionOp:
    """The operator u -> D(A u): multiplier after pointwise multiplication."""

    d: FirstOrderD
    a: torus.MatrixField

    @cached_property
    def symbol(self) -> torus.GridSymbol:
        return torus.GridSymbol(self.d.symbol, self.a.grid)

    @cached_property
    def d_op(self) -> torus.MultiplierOp:
        return self.symbol.multiplier()

    @property
    def big_n(self):
        return self.d.symbol.big_n

    def apply(self, u: torus.GridField) -> torus.GridField:
        return torus.apply_multiplier(self.d_op, self.a.apply(u))


def _embed_block(
    symbol: symbols.HomogeneousSymbol, row: int, col: int, blocks: int
) -> symbols.HomogeneousSymbol:
    """``symbol`` as block (row, col) of a blocks x blocks block symbol."""
    unit = np.zeros((blocks, blocks))
    unit[row, col] = 1.0
    coeffs = {theta: np.kron(unit, mat) for theta, mat in symbol.coeffs.items()}
    return symbols.HomogeneousSymbol(symbol.n, blocks * symbol.big_n, symbol.k, coeffs)


def block_pair(d: FirstOrderD) -> symbols.HodgeDiracSymbolPair:
    """Two-component pair with the first-order coefficients in off-diagonal
    blocks: the plain part lowers, the twisted part raises."""
    return symbols.HodgeDiracSymbolPair(
        _embed_block(d.symbol, 1, 0, 2), _embed_block(d.symbol, 0, 1, 2)
    )


def block_coefficients(a: torus.MatrixField) -> hodge.CoefficientPair:
    """B1 = diag(A, 0), B2 = diag(0, A) on the doubled component space."""
    grid, size = a.grid, a.big_n
    b1 = np.zeros(grid.shape + (2 * size, 2 * size), dtype=complex)
    b2 = np.zeros_like(b1)
    b1[..., :size, :size] = a.mats
    b2[..., size:, size:] = a.mats
    return hodge.CoefficientPair(torus.MatrixField(grid, b1), torus.MatrixField(grid, b2))


def build_block(d: FirstOrderD, a: torus.MatrixField, *, seed: int = 0) -> hodge.VariableOp:
    """Assemble the doubled-space twisted operator for u -> D(A u).

    The result acts as [[0, A D A], [D, 0]] on component pairs.  The
    coercivity of A on range(D) and of A* on the adjoint range is checked
    by ``hodge.check_coefficient_conditions`` (drawing from ``seed``), and
    CoercivityError raised on failure.
    """
    op = hodge.VariableOp(block_pair(d), block_coefficients(a), a.grid)
    report = hodge.check_coefficient_conditions(op, seed=seed)
    if not report.passed:
        raise CoercivityError("block coefficients fail: " + report.describe())
    return op


def split_components(v: torus.GridField, size: int) -> tuple[torus.GridField, torus.GridField]:
    return (
        torus.GridField(v.grid, v.values[..., :size]),
        torus.GridField(v.grid, v.values[..., size:]),
    )


def stack_components(u1: torus.GridField, u2: torus.GridField) -> torus.GridField:
    return torus.GridField(
        u1.grid, np.concatenate([u1.values, u2.values], axis=-1)
    )


# ---------------------------------------------------------------------------
# Matrix-free calculus by partial fractions; a contour quadrature is one.
# ---------------------------------------------------------------------------


def contour_fractions(contour: matcalc.ContourSpec, f: Callable) -> matcalc.PartialFractions:
    """The quadrature sum_k w_k f(z_k) / (z_k - z) of the Cauchy integral of
    f over ``contour``, as partial fractions: poles z_k, residues -w_k f(z_k).
    Requires f(0) = 0 (every member of the bundled test family vanishes at
    the origin), so no kernel-projection term is needed."""
    if abs(complex(f(0.0))) > 1e-13:
        raise ValueError("contour fractions require f(0) = 0")
    z, w = (q.ravel() for q in contour.quadrature)
    r = -w * matcalc._feval(f, z)
    return matcalc.PartialFractions(tuple(z.tolist()), tuple(r.tolist()), contour)


def discrete_contour(
    params: matcalc.BisectorParams,
    grid: torus.TorusGrid,
    *,
    coeff_distance: float = 0.0,
    coeff_sup: float = 1.0,
    nodes: int = 128,
) -> matcalc.ContourSpec:
    """Contour enclosing the discrete nonzero spectrum with coefficient slack.

    Radii follow the measured sphere constants scaled to the frequency
    lattice: inner radius a quarter of the deflated coercivity scale,
    outer radius four times the inflated sup.
    """
    scale = 2 * math.pi / grid.length
    xi_min = scale
    xi_max = scale * (grid.g / 2) * math.sqrt(grid.n)
    kappa_est = params.kappa * xi_min * max(0.05, 1.0 - coeff_distance)
    m_est = params.big_m * xi_max * max(1.0, coeff_sup)
    omega_est = min(params.omega + min(0.4, 2.0 * coeff_distance), math.pi / 2 - 0.05)
    theta = 0.5 * (omega_est + math.pi / 2)
    return matcalc.ContourSpec(theta, kappa_est / 4.0, 4.0 * m_est * (1.0 + coeff_sup**2), nodes)


DENSE_CALCULUS_LIMIT = 1024

# From this many poles up, the dense route diagonalizes the operator once
# instead of one LU solve per pole.  One eig, cond(V) and solve with V cost
# as much as this many LU solves with 3 fields (min of 7, one thread):
#   dim       64    128    256    512   1024
#   LU ms   0.14   0.73   3.55   18.5    104
#   eig ms   9.6   52.0    159   1061   4296
#   poles     71     72     45     57     41
EIG_ROUTE_POLES = 64


def fraction_calculus(
    apply_fn: Callable[[torus.GridField], torus.GridField],
    u: torus.GridField,
    f: matcalc.PartialFractions,
    *,
    precond_for: Callable[[complex], torus.MultiplierOp] | None = None,
) -> torus.GridField:
    """f(T)U = sum_k (-r_k) (p_k - T)^{-1} U for a matrix-free T and f given
    by its partial fractions, on a field or each field of a stack ``u``;
    ``apply_fn`` must act on stacks of fields.

    Past DENSE_CALCULUS_LIMIT unknowns each pole is one GMRES solve per
    field, to relative residual 1e-12, preconditioned by ``precond_for(p)``
    when given.  Up to it T is assembled once.  With at least
    EIG_ROUTE_POLES poles it is diagonalized, T = V diag(lam) V^{-1}, and
    f(T)U = V f(lam) V^{-1} U, taken only when cond(V) <=
    matcalc.EIG_COND_LIMIT (its error grows with cond(V)); for fractions
    from a contour it raises ContourTooClose when a nonzero eigenvalue is
    not enclosed.  Otherwise each pole is one dense solve for all fields.
    """
    dim = u.grid.size * u.big_n
    cs = [-r for r in f.residues]
    if dim > DENSE_CALCULUS_LIMIT:
        acc = np.zeros_like(u.values)
        for p, c in zip(f.poles, cs):
            precond = None if precond_for is None else precond_for(p)
            x = hodge.solve_field(lambda y: p * y - apply_fn(y), u, rtol=1e-12,
                                  precond=precond, what=f"shifted solve at z={p:.4g}")
            acc += c * x.values
        return torus.GridField(u.grid, acc)
    a = hodge.dense_operator(apply_fn, u.grid, u.big_n)
    cols = u.values.reshape(-1, dim).T
    out = None
    if len(f.poles) >= EIG_ROUTE_POLES:
        lam, v = np.linalg.eig(a)
        if np.linalg.cond(v) <= matcalc.EIG_COND_LIMIT:
            if f.contour is not None:
                nz, _ = matcalc._classify(lam, float(np.abs(lam).max()))
                matcalc._check_enclosed(nz, f.contour, 1e-6)
            out = v @ (f(lam)[:, None] * np.linalg.solve(v, cols))
    if out is None:
        out = sum(c * np.linalg.solve(p * np.eye(dim) - a, cols) for p, c in zip(f.poles, cs))
    return torus.GridField(u.grid, out.T.reshape(u.values.shape))


def composition_calculus(
    op: CompositionOp, f: matcalc.PartialFractions, u: torus.GridField
) -> torus.GridField:
    """f(D A) u, preconditioned by the shifted symbol of D."""
    return fraction_calculus(op.apply, u, f, precond_for=op.symbol.shifted)


def intertwine_check(
    d: FirstOrderD,
    a: torus.MatrixField,
    f: Callable,
    *,
    trials: int = 3,
    nodes: int = 128,
    seed: int = 0,
) -> float:
    """Max relative residual of f(block)(Au, u) = (A f(DA) u, f(DA) u).

    A general f is taken by its contour fractions, on a ``nodes``-point
    contour sized for each side's coefficients; PartialFractions as given.
    """
    grid = a.grid
    block_op = build_block(d, a, seed=seed)
    comp = CompositionOp(d, a)
    f_block = f_comp = f
    if not isinstance(f, matcalc.PartialFractions):

        def sized(dist, sup):
            contour = discrete_contour(
                d.params, grid, coeff_distance=dist, coeff_sup=sup, nodes=nodes
            )
            return contour_fractions(contour, f)

        b1, b2 = block_op.coeffs.b1, block_op.coeffs.b2
        eye = torus.MatrixField.identity(grid, block_op.big_n)
        f_block = sized(
            min((b1 + b2 - eye).inf_norm, 2.0), max(b1.inf_norm, b2.inf_norm, 1.0)
        )
        f_comp = sized((a - torus.MatrixField.identity(grid, comp.big_n)).inf_norm, a.inf_norm)
    us = torus.random_trials(grid, comp.big_n, trials, seed)
    vs = stack_components(a.apply(us), us)
    lhs = fraction_calculus(
        block_op.apply, vs, f_block, precond_for=block_op.total_symbol.shifted
    )
    x = composition_calculus(comp, f_comp, us)
    rhs = stack_components(a.apply(x), x)
    return torus.max_ratio(lhs - rhs, 2.0, torus.lp_norms(vs, 2.0))


def block_resolvent_product(
    d: FirstOrderD,
    a: torus.MatrixField,
    t: float,
    v: torus.GridField,
) -> torus.GridField:
    """Resolvent of the block operator via the three-factor product formula.

    Applies, in order: a shear by the plain part, the central smoothing
    inverse (I + t^2 (DA)^2)^{-1}, and a shear by the twisted part.
    """
    comp = CompositionOp(d, a)
    size = comp.big_n
    u1, u2 = split_components(v, size)
    d_u1 = torus.apply_multiplier(comp.d_op, u1)
    y2 = hodge.solve_field(
        lambda f: f + (t * t) * comp.apply(comp.apply(f)),
        u2 - 1j * t * d_u1,
        what="central block solve",
        rtol=1e-12,
        precond=comp.symbol.smoothing(t),
    )
    ada_y2 = a.apply(torus.apply_multiplier(comp.d_op, a.apply(y2)))
    return stack_components(u1 - 1j * t * ada_y2, y2)


# ---------------------------------------------------------------------------
# Triple-space similarity maps.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SimilarityMaps:
    """split : u -> (kernel part, untwisted twisted-range part, plain-range
    part) on the tripled space; assemble is its left inverse."""

    split: Callable[[torus.GridField], torus.GridField]
    assemble: Callable[[torus.GridField], torus.GridField]
    triple_apply: Callable[[torus.GridField], torus.GridField]
    triple_symbol: torus.GridSymbol
    size: int


def build_similarity(
    pair: symbols.HodgeDiracSymbolPair,
    coeffs: hodge.CoefficientPair,
    grid: torus.TorusGrid,
) -> SimilarityMaps:
    """Maps transporting the twisted operator to a composed first-order one.

    Dense path: the Hodge projections and the restricted inverse of B1 on
    range(gamma_tilde) are assembled explicitly; intended for small grids.
    """
    op = hodge.VariableOp(pair, coeffs, grid)
    size = pair.big_n
    p0, pg, pgt = hodge.dense_hodge_projections(op)
    gt = hodge.dense_operator(op.gamma_tilde_op.apply, grid, size)
    v_basis = matcalc.range_basis(gt)
    b1_dense = hodge.dense_operator(coeffs.b1.apply, grid, size)
    w = b1_dense @ v_basis
    b1_restricted_inv = v_basis @ np.linalg.pinv(w, rcond=1e-12)

    def split(u: torus.GridField) -> torus.GridField:
        x = u.flat()
        parts = [p0 @ x, b1_restricted_inv @ (pgt @ x), pg @ x]
        vals = np.concatenate(
            [pp.reshape(grid.shape + (size,)) for pp in parts], axis=-1
        )
        return torus.GridField(grid, vals)

    def assemble(v3: torus.GridField) -> torus.GridField:
        vals = v3.values
        x0 = vals[..., :size].reshape(-1)
        x1 = vals[..., size : 2 * size].reshape(-1)
        x2 = vals[..., 2 * size :].reshape(-1)
        out = p0 @ x0 + pg @ x2 + pgt @ (b1_dense @ x1)
        return torus.GridField.from_flat(grid, size, out)

    def triple_apply(v3: torus.GridField) -> torus.GridField:
        vals = v3.values
        u1 = torus.GridField(grid, vals[..., size : 2 * size])
        u2 = torus.GridField(grid, vals[..., 2 * size :])
        mid = torus.apply_multiplier(op.gamma_tilde_op, coeffs.b2.apply(u2))
        last = torus.apply_multiplier(op.gamma_op, coeffs.b1.apply(u1))
        zeros = np.zeros_like(vals[..., :size])
        return torus.GridField(
            grid, np.concatenate([zeros, mid.values, last.values], axis=-1)
        )

    # constant-coefficient symbol of the tripled operator, for preconditioning
    tri_symbol = torus.GridSymbol(
        _embed_block(pair.gamma_tilde, 1, 2, 3) + _embed_block(pair.gamma, 2, 1, 3), grid
    )
    return SimilarityMaps(split, assemble, triple_apply, tri_symbol, size)


# ---------------------------------------------------------------------------
# Holomorphy and Lipschitz probes.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CoefficientPath:
    """Affine coefficient path z -> base + z * direction.

    The direction is normalized to sup norm one; the degenerate zero
    direction (a constant path) is also accepted.
    """

    base: torus.MatrixField
    direction: torus.MatrixField

    def __post_init__(self):
        nrm = self.direction.inf_norm
        if nrm != 0.0 and abs(nrm - 1.0) > 1e-8:
            raise ValueError("direction must have sup norm 1 (or be zero)")

    def at(self, z: complex) -> torus.MatrixField:
        return self.base + z * self.direction


@dataclasses.dataclass
class HolomorphyReport:
    residual: float
    residual_refined: float


def holomorphy_probe(
    path: CoefficientPath,
    d: FirstOrderD,
    f: matcalc.PartialFractions,
    u: torus.GridField,
    *,
    radius: float,
    nodes: int = 16,
) -> HolomorphyReport:
    """Mean-value test of analytic dependence on the coefficient.

    Compares f(D A_0) u with the average of f(D A_z) u over an equispaced
    circle |z| = radius (the trapezoid Cauchy integral of g(z)/z).  One
    sweep of the 2 * ``nodes`` circle gives both means: ``residual`` from
    the even nodes, which are the ``nodes``-point circle, and
    ``residual_refined`` from all of them.  Each node is one coercivity
    check of the block coefficients, all against one trial stack
    (ProbeAborted names the first node that fails it), and one
    :func:`fraction_calculus` call.
    """
    if not isinstance(f, matcalc.PartialFractions):
        raise TypeError("the holomorphy probe takes f as PartialFractions")
    grid = u.grid
    zs = radius * np.exp(2j * math.pi * np.arange(2 * nodes) / (2 * nodes))
    check = hodge.coefficient_checks(
        hodge.VariableOp(block_pair(d), block_coefficients(path.base), grid)
    )
    for z in zs:
        report = check(block_coefficients(path.at(z)))
        if not report.passed:
            msg = f"block coefficients fail: {report.describe()} at node {z:.6g}"
            raise ProbeAborted(msg, node=z)

    def at(z: complex) -> np.ndarray:
        return composition_calculus(CompositionOp(d, path.at(z)), f, u).values

    center = torus.GridField(grid, at(0.0))
    # summed in node order, so the even-node mean is bitwise the mean over
    # a sweep of the nodes-point circle alone
    acc_even = np.zeros_like(center.values)
    acc_all = np.zeros_like(center.values)
    for j, z in enumerate(zs):
        val = at(z)
        acc_all += val
        if j % 2 == 0:
            acc_even += val
    cn = torus.lp_norm(center, 2.0)
    denom = cn if cn > 0 else torus.lp_norm(u, 2.0)
    residual, refined = (
        torus.lp_norm(torus.GridField(grid, acc / m) - center, 2.0) / denom
        for acc, m in ((acc_even, nodes), (acc_all, 2 * nodes))
    )
    return HolomorphyReport(residual, refined)


def sup_norm_on_bisector(f: Callable, theta: float) -> float:
    """Numerical sup of |f| over the boundary rays of the bisector, sampled
    at 4,000 radii from 1e-6 to 1e6."""
    rr = np.logspace(-6, 6, 4000)
    return max(
        float(np.abs(matcalc._feval(f, rr * np.exp(1j * ang))).max())
        for ang in (theta, -theta, math.pi - theta, math.pi + theta)
    )


@dataclasses.dataclass
class LipschitzReport:
    max_ratio: float
    distance: float
    f_sup: float


def lipschitz_probe(
    d: FirstOrderD,
    a: torus.MatrixField,
    a_tildes: Sequence[torus.MatrixField],
    f: matcalc.PartialFractions,
    *,
    trials: int = 3,
    p: float = 2.0,
    seed: int = 0,
) -> list[LipschitzReport]:
    """Observed ratio ||f(DA)u - f(DA~)u||_p / (||A - A~|| ||f||_sup ||u||_p)
    for each A~ of the sweep ``a_tildes``, one report per member.

    f(DA)U on the stack U of random trials and ||f||_sup are computed once
    for the whole sweep.
    """
    if not isinstance(f, matcalc.PartialFractions):
        raise TypeError("the Lipschitz probe takes f as PartialFractions")
    theta = 0.5 * (d.params.omega + math.pi / 2)
    f_sup = sup_norm_on_bisector(f, theta)
    us = torus.random_trials(a.grid, a.big_n, trials, seed)
    fa = composition_calculus(CompositionOp(d, a), f, us)
    un = torus.lp_norms(us, p)
    reports = []
    for a_tilde in a_tildes:
        dist = (a - a_tilde).inf_norm
        worst = 0.0
        if dist > 0:
            fb = composition_calculus(CompositionOp(d, a_tilde), f, us)
            worst = torus.max_ratio(fa - fb, p, dist * f_sup * un)
        reports.append(LipschitzReport(worst, dist, f_sup))
    return reports


def lipschitz_triple_decomposition(
    pair: symbols.HodgeDiracSymbolPair,
    coeffs_a: hodge.CoefficientPair,
    coeffs_b: hodge.CoefficientPair,
    f: matcalc.PartialFractions,
    u: torus.GridField,
) -> float:
    """Residual of the direct difference of the transported calculi against
    its three-term split (map difference, calculus difference, split
    difference), relative to ||u||_2.

    The identity is algebraically exact; the residual reflects round-off
    and solver tolerance only.
    """
    if not isinstance(f, matcalc.PartialFractions):
        raise TypeError("the triple decomposition takes f as PartialFractions")
    grid = u.grid
    maps_a = build_similarity(pair, coeffs_a, grid)
    maps_b = build_similarity(pair, coeffs_b, grid)

    def fd(maps: SimilarityMaps, v: torus.GridField) -> torus.GridField:
        return fraction_calculus(
            maps.triple_apply, v, f, precond_for=maps.triple_symbol.shifted
        )

    sa_u = maps_a.split(u)
    sb_u = maps_b.split(u)
    fda_sa = fd(maps_a, sa_u)
    fdb_sb, fdb_sa, fdb_diff = fd(
        maps_b, torus.GridField.stack([sb_u, sa_u, sa_u - sb_u])
    ).members()
    direct = maps_a.assemble(fda_sa) - maps_b.assemble(fdb_sb)
    term1 = maps_a.assemble(fda_sa) - maps_b.assemble(fda_sa)
    term2 = maps_b.assemble(fda_sa - fdb_sa)
    term3 = maps_b.assemble(fdb_diff)
    recombined = term1 + term2 + term3
    return torus.lp_norm(direct - recombined, 2.0) / max(torus.lp_norm(u, 2.0), 1e-300)


# Bundled bounded-holomorphic test family, with matcalc.f_rational_odd;
# every member vanishes at 0 and is bounded on any bisector of half-angle
# < pi/4.
def f_rational_even(z):
    z2 = z * z
    return z2 / (1.0 + z2) ** 2


def f_sign_approx(z, eps: float = 0.1):
    return z / np.sqrt(z * z + eps * eps)


TEST_FAMILY = {
    "rational_odd": matcalc.f_rational_odd,
    "rational_even": f_rational_even,
    "sign_approx": f_sign_approx,
}
