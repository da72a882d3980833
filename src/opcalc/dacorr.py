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
    def verified(cls, symbol: symbols.HomogeneousSymbol) -> "FirstOrderD":
        report = symbols.verify_symbol_conditions(symbol)
        if not report.passed:
            raise CoercivityError(
                "first-order symbol conditions fail: " + ", ".join(report.failures)
            )
        return cls(symbol, report.params)


@dataclasses.dataclass(frozen=True)
class CompositionOp:
    """The operator u -> D(A u): the multiplier of the symbol ``d`` after
    pointwise multiplication by A."""

    d: symbols.HomogeneousSymbol
    a: torus.MatrixField

    @cached_property
    def symbol(self) -> torus.GridSymbol:
        return torus.GridSymbol(self.d, self.a.grid)

    @cached_property
    def d_op(self) -> torus.MultiplierOp:
        return self.symbol.multiplier()

    @property
    def big_n(self):
        return self.d.big_n

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


def _block_diagonal(*blocks: torus.MatrixField | None) -> torus.MatrixField:
    """diag(blocks) on one grid, each block N x N or None for a zero block."""
    some = next(b for b in blocks if b is not None)
    grid, size = some.grid, some.big_n
    mats = np.zeros(grid.shape + (len(blocks) * size,) * 2, dtype=complex)
    for k, b in enumerate(blocks):
        if b is not None:
            mats[..., k * size : (k + 1) * size, k * size : (k + 1) * size] = b.mats
    return torus.MatrixField(grid, mats)


def block_coefficients(a: torus.MatrixField) -> hodge.CoefficientPair:
    """B1 = diag(A, 0), B2 = diag(0, A) on the doubled component space."""
    return hodge.CoefficientPair(_block_diagonal(a, None), _block_diagonal(None, a))


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
    """``contour.fractions(f)``, the quadrature of f's Cauchy integral as
    partial fractions.  Requires f(0) = 0 (every member of the bundled test
    family vanishes at the origin), so no kernel-projection term is needed."""
    if abs(complex(f(0.0))) > 1e-13:
        raise ValueError("contour fractions require f(0) = 0")
    return contour.fractions(f)


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


def fraction_calculus(op, u: torus.GridField, f: matcalc.PartialFractions) -> torus.GridField:
    """f(T)U = sum_k (-r_k) (p_k - T)^{-1} U for the operator T = ``op``, with
    ``apply`` and ``symbol`` as :func:`hodge.solve_shifts` takes it, and f
    given by its partial fractions, on a field or each field of a stack
    ``u``: one solve_shifts call over the poles, each solve to relative
    residual 1e-12; fractions from a contour take its enclosure check on the
    eig route."""
    return hodge.solve_shifts(op, u, f.poles, [[-r for r in f.residues]], rtol=1e-12,
                              what="shifted solve", contour=f.contour)[0]


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
    comp = CompositionOp(d.symbol, a)
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
    lhs = fraction_calculus(block_op, vs, f_block)
    x = fraction_calculus(comp, us, f_comp)
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
    comp = CompositionOp(d.symbol, a)
    size = comp.big_n
    u1, u2 = split_components(v, size)
    d_u1 = torus.apply_multiplier(comp.d_op, u1)
    # (I + t^2 (DA)^2)^{-1} is the even half of DA's resolvent pair
    y2 = hodge.resolvent_halves(comp, [t], u2 - 1j * t * d_u1, rtol=1e-12)[0]
    ada_y2 = a.apply(torus.apply_multiplier(comp.d_op, a.apply(y2)))
    return stack_components(u1 - 1j * t * ada_y2, y2)


# ---------------------------------------------------------------------------
# Triple-space similarity maps.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SimilarityMaps:
    """split : u -> (kernel part, untwisted twisted-range part, plain-range
    part) on the tripled space; assemble is its left inverse; ``op`` is the
    tripled operator, D A with D the tripled symbol and A = diag(0, B1, B2)."""

    split: Callable[[torus.GridField], torus.GridField]
    assemble: Callable[[torus.GridField], torus.GridField]
    op: CompositionOp


def build_similarity(
    pair: symbols.HodgeDiracSymbolPair,
    coeffs: hodge.CoefficientPair,
    grid: torus.TorusGrid,
) -> SimilarityMaps:
    """Maps transporting the twisted operator to a composed first-order one.

    Dense path: the Hodge projections and the restricted inverse of B1 on
    range(gamma_tilde) (:func:`hodge.untwist`) are assembled explicitly;
    intended for small grids.
    """
    op = hodge.VariableOp(pair, coeffs, grid)
    size = pair.big_n
    p0, pg, pgt = hodge.dense_hodge_projections(op)
    untwisted = hodge.untwist(op, pgt)

    def split(u: torus.GridField) -> torus.GridField:
        x = u.flat()
        parts = [p0 @ x, untwisted @ x, pg @ x]
        vals = np.concatenate(
            [pp.reshape(grid.shape + (size,)) for pp in parts], axis=-1
        )
        return torus.GridField(grid, vals)

    def assemble(v3: torus.GridField) -> torus.GridField:
        x0, x1, x2 = (
            torus.GridField(grid, v3.values[..., k * size : (k + 1) * size]) for k in range(3)
        )
        out = p0 @ x0.flat() + pg @ x2.flat() + pgt @ coeffs.b1.apply(x1).flat()
        return torus.GridField.from_flat(grid, size, out)

    tri = _embed_block(pair.gamma_tilde, 1, 2, 3) + _embed_block(pair.gamma, 2, 1, 3)
    a = _block_diagonal(None, coeffs.b1, coeffs.b2)
    return SimilarityMaps(split, assemble, CompositionOp(tri, a))


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
        return fraction_calculus(CompositionOp(d.symbol, path.at(z)), u, f).values

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
        float(np.abs(matcalc.feval(f, rr * np.exp(1j * ang))).max())
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
    fa = fraction_calculus(CompositionOp(d.symbol, a), us, f)
    un = torus.lp_norms(us, p)
    reports = []
    for a_tilde in a_tildes:
        dist = (a - a_tilde).inf_norm
        worst = 0.0
        if dist > 0:
            fb = fraction_calculus(CompositionOp(d.symbol, a_tilde), us, f)
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
    sa_u = maps_a.split(u)
    sb_u = maps_b.split(u)
    fda_sa = fraction_calculus(maps_a.op, sa_u, f)
    fdb_sb, fdb_sa, fdb_diff = fraction_calculus(
        maps_b.op, torus.GridField.stack([sb_u, sa_u, sa_u - sb_u]), f
    ).members()
    a_fda_sa = maps_a.assemble(fda_sa)
    direct = a_fda_sa - maps_b.assemble(fdb_sb)
    term1 = a_fda_sa - maps_b.assemble(fda_sa)
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


def f_sign_approx(z):
    return z / np.sqrt(z * z + 0.1 * 0.1)


TEST_FAMILY = {
    "rational_odd": matcalc.f_rational_odd,
    "rational_even": f_rational_even,
    "sign_approx": f_sign_approx,
}
