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
    a: hodge.MatrixField
    grid: torus.TorusGrid

    @cached_property
    def symbol(self) -> torus.GridSymbol:
        return torus.GridSymbol(self.d.symbol, self.grid)

    @cached_property
    def d_op(self) -> torus.MultiplierOp:
        return self.symbol.multiplier()

    @property
    def big_n(self):
        return self.d.symbol.big_n

    def apply(self, u: torus.GridField) -> torus.GridField:
        return torus.apply_multiplier(self.d_op, self.a.apply(u))


def composition(d: FirstOrderD, a: hodge.MatrixField, grid: torus.TorusGrid) -> CompositionOp:
    return CompositionOp(d, a, grid)


def _embed_block(mat: np.ndarray, row: int, col: int, size: int) -> np.ndarray:
    out = np.zeros((2 * size, 2 * size), dtype=complex)
    out[row * size : (row + 1) * size, col * size : (col + 1) * size] = mat
    return out


def block_pair(d: FirstOrderD) -> symbols.HodgeDiracSymbolPair:
    """Two-component pair with the first-order coefficients in off-diagonal
    blocks: the plain part lowers, the twisted part raises."""
    n, size = d.symbol.n, d.symbol.big_n
    g_coeffs = {}
    gt_coeffs = {}
    for theta, mat in d.symbol.coeffs.items():
        g_coeffs[theta] = _embed_block(mat, 1, 0, size)
        gt_coeffs[theta] = _embed_block(mat, 0, 1, size)
    return symbols.HodgeDiracSymbolPair(
        symbols.HomogeneousSymbol(n, 2 * size, 1, g_coeffs),
        symbols.HomogeneousSymbol(n, 2 * size, 1, gt_coeffs),
    )


def block_coefficients(a: hodge.MatrixField) -> hodge.CoefficientPair:
    """B1 = diag(A, 0), B2 = diag(0, A) on the doubled component space."""
    grid, size = a.grid, a.big_n
    zeros = np.zeros(grid.shape + (2 * size, 2 * size), dtype=complex)
    b1 = zeros.copy()
    b1[..., :size, :size] = a.values
    b2 = zeros.copy()
    b2[..., size:, size:] = a.values
    return hodge.CoefficientPair(
        hodge.MatrixField(grid, b1), hodge.MatrixField(grid, b2)
    )


def build_block(d: FirstOrderD, a: hodge.MatrixField, *, seed: int = 0) -> hodge.VariableOp:
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
# Matrix-free contour calculus.
# ---------------------------------------------------------------------------


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


def contour_calculus(
    apply_fn: Callable[[torus.GridField], torus.GridField],
    u: torus.GridField,
    f: Callable,
    contour: matcalc.ContourSpec,
    *,
    precond_for: Callable[[complex], torus.MultiplierOp] | None = None,
) -> torus.GridField:
    """f of a matrix-free operator applied to a field, or to each field of
    a stack ``u``, via the contour.

    ``apply_fn`` must act on stacks of fields.  Requires f(0) = 0 (all
    members of the bundled test family vanish at the origin, so no
    kernel-projection term is needed).  The quadrature is
    ``contour.quadrature``; the size picks how its shifted solves are
    done.  Up to DENSE_CALCULUS_LIMIT unknowns the operator is assembled
    and diagonalized once, A = V diag(lam) V^{-1}, and the sum over nodes
    becomes V (sum_k w_k f(z_k) / (z_k - lam)) V^{-1} U, one solve with V
    for all the fields.  That route is taken only when cond(V) <=
    matcalc.EIG_COND_LIMIT (its error grows with cond(V)), and it raises
    ContourTooClose when a nonzero eigenvalue is not enclosed by the
    contour.  Past the size limit, or with V too ill-conditioned or
    singular, each node runs a GMRES solve per field to relative residual
    1e-12, preconditioned by ``precond_for(z)`` when given.
    """
    if abs(complex(f(0.0))) > 1e-13:
        raise ValueError("contour calculus requires f(0) = 0")
    grid, big_n = u.grid, u.big_n
    dim = grid.size * big_n
    z, w = contour.quadrature
    fw = matcalc._feval(f, z.ravel()).reshape(z.shape) * w
    if dim <= DENSE_CALCULUS_LIMIT:
        lam, v = np.linalg.eig(hodge.dense_operator(apply_fn, grid, big_n))
        if np.linalg.cond(v) <= matcalc.EIG_COND_LIMIT:
            nz, _ = matcalc._classify(lam, float(np.abs(lam).max()))
            matcalc._check_enclosed(nz, contour, 1e-6)
            scal = fw.ravel() @ (1 / (z.ravel()[:, None] - lam))
            cols = u.values.reshape(-1, dim).T
            out = v @ (scal[:, None] * np.linalg.solve(v, cols))
            return torus.GridField(grid, out.T.reshape(u.values.shape))
    acc = np.zeros_like(u.values)
    for zz, c in zip(z.ravel(), fw.ravel()):
        x = hodge.solve_field(
            lambda f: zz * f - apply_fn(f),
            u,
            what=f"shifted solve at z={zz:.4g}",
            rtol=1e-12,
            precond=None if precond_for is None else precond_for(zz),
        )
        acc += c * x.values
    return torus.GridField(grid, acc)


def composition_calculus(
    op: CompositionOp,
    f: Callable,
    u: torus.GridField,
    d: FirstOrderD,
    *,
    nodes: int = 128,
    contour: matcalc.ContourSpec | None = None,
) -> torus.GridField:
    """f(D A) u through the contour calculus on the undoubled space.

    Pass an explicit contour when comparing values across a coefficient
    family: a shared contour makes the quadrature error vary analytically
    with the coefficient, so it cancels in differences and Cauchy means.
    """
    if contour is None:
        dist = (op.a - hodge.MatrixField.identity(op.grid, op.big_n)).inf_norm
        contour = discrete_contour(
            d.params, op.grid, coeff_distance=dist, coeff_sup=op.a.inf_norm, nodes=nodes
        )
    return contour_calculus(op.apply, u, f, contour, precond_for=op.symbol.shifted)


def block_calculus(
    block_op: hodge.VariableOp,
    f: Callable,
    v: torus.GridField,
    d: FirstOrderD,
    *,
    nodes: int = 128,
) -> torus.GridField:
    """f of the doubled-space operator applied to a field of component
    pairs, or to each field of a stack of them."""
    eye = hodge.MatrixField.identity(block_op.grid, block_op.big_n)
    b1 = block_op.coeffs.b1
    dist = min((b1 + block_op.coeffs.b2 - eye).inf_norm, 2.0)
    sup = max(b1.inf_norm, block_op.coeffs.b2.inf_norm, 1.0)
    contour = discrete_contour(
        d.params, block_op.grid, coeff_distance=dist, coeff_sup=sup, nodes=nodes
    )
    return contour_calculus(
        block_op.apply, v, f, contour, precond_for=block_op.total_symbol.shifted
    )


def intertwine_check(
    d: FirstOrderD,
    a: hodge.MatrixField,
    f: Callable,
    *,
    trials: int = 3,
    nodes: int = 128,
    seed: int = 0,
) -> float:
    """Max relative residual of f(block)(Au, u) = (A f(DA) u, f(DA) u)."""
    grid = a.grid
    block_op = build_block(d, a, seed=seed)
    comp = composition(d, a, grid)
    us = torus.random_trials(grid, comp.big_n, trials, seed)
    vs = stack_components(a.apply(us), us)
    lhs = block_calculus(block_op, f, vs, d, nodes=nodes)
    x = composition_calculus(comp, f, us, d, nodes=nodes)
    rhs = stack_components(a.apply(x), x)
    return torus.max_ratio(lhs - rhs, 2.0, torus.lp_norms(vs, 2.0))


def block_resolvent_product(
    d: FirstOrderD,
    a: hodge.MatrixField,
    t: float,
    v: torus.GridField,
) -> torus.GridField:
    """Resolvent of the block operator via the three-factor product formula.

    Applies, in order: a shear by the plain part, the central smoothing
    inverse (I + t^2 (DA)^2)^{-1}, and a shear by the twisted part.
    """
    comp = composition(d, a, a.grid)
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
    gt = hodge.dense_operator(
        lambda u: torus.apply_multiplier(op.gamma_tilde_op, u), grid, size
    )
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
    tri_coeffs = {}
    for theta in set(pair.gamma.coeffs) | set(pair.gamma_tilde.coeffs):
        g = pair.gamma.coeffs.get(theta, np.zeros((size, size)))
        gtm = pair.gamma_tilde.coeffs.get(theta, np.zeros((size, size)))
        block = np.zeros((3 * size, 3 * size), dtype=complex)
        block[size : 2 * size, 2 * size :] = gtm
        block[2 * size :, size : 2 * size] = g
        tri_coeffs[theta] = block
    tri_symbol = torus.GridSymbol(
        symbols.HomogeneousSymbol(pair.n, 3 * size, 1, tri_coeffs), grid
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

    base: hodge.MatrixField
    direction: hodge.MatrixField

    def __post_init__(self):
        nrm = self.direction.inf_norm
        if nrm != 0.0 and abs(nrm - 1.0) > 1e-8:
            raise ValueError("direction must have sup norm 1 (or be zero)")

    def at(self, z: complex) -> hodge.MatrixField:
        return hodge.MatrixField(
            self.base.grid, self.base.values + z * self.direction.values
        )


@dataclasses.dataclass
class HolomorphyReport:
    residual: float
    residual_refined: float
    nodes: int
    radius: float
    center_norm: float


def holomorphy_probe(
    path: CoefficientPath,
    d: FirstOrderD,
    f: Callable,
    u: torus.GridField,
    *,
    radius: float,
    nodes: int = 16,
    calculus_nodes: int = 128,
) -> HolomorphyReport:
    """Mean-value test of analytic dependence on the coefficient.

    Compares f(D A_0) u with the average of f(D A_z) u over an equispaced
    circle |z| = radius (the trapezoid Cauchy integral of g(z)/z).  One
    sweep of the 2 * ``nodes`` circle gives both means: ``residual`` from
    the even nodes, which are the ``nodes``-point circle, and
    ``residual_refined`` from all of them.  Each node is one coercivity
    check of the block coefficients (ProbeAborted names the first node
    that fails it) and one contour call, all on one contour for the disc.
    """
    grid = u.grid
    zs = radius * np.exp(2j * math.pi * np.arange(2 * nodes) / (2 * nodes))
    for z in zs:
        try:
            build_block(d, path.at(z))
        except CoercivityError as exc:
            raise ProbeAborted(f"{exc} at node {z:.6g}", node=z) from exc
    # one contour for the whole disc: quadrature error then varies
    # analytically with z and cancels in the Cauchy mean
    base_dist = (path.base - hodge.MatrixField.identity(grid, u.big_n)).inf_norm
    contour = discrete_contour(
        d.params,
        grid,
        coeff_distance=base_dist + radius,
        coeff_sup=path.base.inf_norm + radius,
        nodes=calculus_nodes,
    )

    def at(z: complex) -> np.ndarray:
        return composition_calculus(
            composition(d, path.at(z), grid), f, u, d, contour=contour
        ).values

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
    return HolomorphyReport(residual, refined, nodes, radius, cn)


def sup_norm_on_bisector(f: Callable, theta: float) -> float:
    """Numerical sup of |f| over the boundary rays of the bisector, sampled
    at 4,000 radii from 1e-6 to 1e6."""
    rr = np.logspace(-6, 6, 4000)
    worst = 0.0
    for ang in (theta, -theta, math.pi - theta, math.pi + theta):
        vals = np.abs([complex(f(r * np.exp(1j * ang))) for r in rr])
        worst = max(worst, float(vals.max()))
    return worst


@dataclasses.dataclass
class LipschitzReport:
    max_ratio: float
    distance: float
    f_sup: float


def lipschitz_probe(
    d: FirstOrderD,
    a: hodge.MatrixField,
    a_tildes: Sequence[hodge.MatrixField],
    f: Callable,
    *,
    trials: int = 3,
    p: float = 2.0,
    calculus_nodes: int = 128,
    seed: int = 0,
) -> list[LipschitzReport]:
    """Observed ratio ||f(DA)u - f(DA~)u||_p / (||A - A~|| ||f||_sup ||u||_p)
    for each A~ of the sweep ``a_tildes``, one report per member.

    The sweep shares one contour, sized by the largest distance from the
    identity and the largest sup over A and the whole sweep, so f(DA)U on
    the stack U of random trials and ||f||_sup are computed once.
    """
    grid = a.grid
    theta = 0.5 * (d.params.omega + math.pi / 2)
    f_sup = sup_norm_on_bisector(f, theta)
    eye = hodge.MatrixField.identity(grid, a.big_n)
    family = [a, *a_tildes]
    contour = discrete_contour(
        d.params,
        grid,
        coeff_distance=max((m - eye).inf_norm for m in family),
        coeff_sup=max(m.inf_norm for m in family),
        nodes=calculus_nodes,
    )
    us = torus.random_trials(grid, a.big_n, trials, seed)
    fa = composition_calculus(composition(d, a, grid), f, us, d, contour=contour)
    un = torus.lp_norms(us, p)
    reports = []
    for a_tilde in a_tildes:
        dist = (a - a_tilde).inf_norm
        worst = 0.0
        if dist > 0:
            fb = composition_calculus(
                composition(d, a_tilde, grid), f, us, d, contour=contour
            )
            worst = torus.max_ratio(fa - fb, p, dist * f_sup * un)
        reports.append(LipschitzReport(worst, dist, f_sup))
    return reports


def lipschitz_triple_decomposition(
    pair: symbols.HodgeDiracSymbolPair,
    coeffs_a: hodge.CoefficientPair,
    coeffs_b: hodge.CoefficientPair,
    f: Callable,
    u: torus.GridField,
    params: matcalc.BisectorParams,
    *,
    nodes: int = 128,
) -> dict:
    """Direct difference of the transported calculi against its three-term
    split (map difference, calculus difference, split difference).

    The identity is algebraically exact; the residual reflects solver and
    quadrature tolerance only.
    """
    grid = u.grid
    maps_a = build_similarity(pair, coeffs_a, grid)
    maps_b = build_similarity(pair, coeffs_b, grid)
    dist = coeffs_a.distance(coeffs_b)
    sup = max(
        coeffs_a.b1.inf_norm, coeffs_a.b2.inf_norm,
        coeffs_b.b1.inf_norm, coeffs_b.b2.inf_norm, 1.0,
    )
    contour = discrete_contour(
        params, grid, coeff_distance=dist, coeff_sup=sup, nodes=nodes
    )

    def fd(maps: SimilarityMaps, v: torus.GridField) -> torus.GridField:
        return contour_calculus(
            maps.triple_apply, v, f, contour, precond_for=maps.triple_symbol.shifted
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
    un = torus.lp_norm(u, 2.0)
    return {
        "direct_norm": torus.lp_norm(direct, 2.0),
        "identity_residual": torus.lp_norm(direct - recombined, 2.0) / max(un, 1e-300),
        "distance": dist,
    }


# Bundled bounded-holomorphic test family; every member vanishes at 0 and
# is bounded on any bisector of half-angle < pi/4.
def f_rational_odd(z):
    return z / (1.0 + z * z)


def f_rational_even(z):
    z2 = z * z
    return z2 / (1.0 + z2) ** 2


def f_sign_approx(z, eps: float = 0.1):
    return z / np.sqrt(z * z + eps * eps)


TEST_FAMILY = {
    "rational_odd": f_rational_odd,
    "rational_even": f_rational_even,
    "sign_approx": f_sign_approx,
}
