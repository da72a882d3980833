"""Dyadic scale machinery and randomized quadratic estimates.

Monte-Carlo Rademacher sums, the telescoping reproducing identity, the
cross-scale Schur weight, one- and two-sided quadratic estimates, the
translated variant, and off-diagonal decay probes.  All randomized
quantities carry their standard error and are reported, never asserted
exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from typing import Iterable, Sequence

import numpy as np

from . import hodge, matcalc, torus


@dataclasses.dataclass(frozen=True)
class DyadicScales:
    """Integer window of dyadic scales 2^k, k_min <= k <= k_max."""

    k_min: int
    k_max: int

    def __post_init__(self):
        if self.k_min > self.k_max:
            raise ValueError("k_min must not exceed k_max")
        if self.k_max - self.k_min + 1 > 64:
            raise ValueError("at most 64 scales")

    @property
    def ks(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def scales(self) -> list[float]:
        return [2.0**k for k in self.ks]


@dataclasses.dataclass
class RademacherEstimate:
    mean: float
    std_error: float
    # the sample mean of the squared norm, unbiased for the p=2 exact_square
    mean_square: float
    std_error_square: float
    exact_square: float


def rademacher_norm(
    u_k: torus.GridField,
    p: float = 2.0,
    samples: int = 64,
    seed: int = 0,
) -> RademacherEstimate:
    """Monte-Carlo estimate of E || sum_k eps_k u_k ||_p over the members u_k
    of the stack ``u_k`` (one batch axis), with the p = 2 closed form
    :func:`exact_l2_square_expectation` beside it.

    The fields are fixed; only the random signs are resampled.
    """
    if len(u_k.batch) != 1 or not u_k.batch[0]:
        raise ValueError(f"need a nonempty stack on one batch axis, got batch {u_k.batch}")
    if samples < 16:
        raise ValueError("need at least 16 sign samples")
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(samples, u_k.batch[0])) * 2 - 1
    norms = np.empty(samples)
    for i in range(samples):
        total = np.tensordot(signs[i], u_k.values, axes=(0, 0))
        norms[i] = torus.lp_norm(torus.GridField(u_k.grid, total), p)
    sq, root = norms**2, math.sqrt(samples)
    return RademacherEstimate(
        float(norms.mean()), float(norms.std(ddof=1) / root),
        float(sq.mean()), float(sq.std(ddof=1) / root), exact_l2_square_expectation(u_k),
    )


def exact_l2_square_expectation(u_k: torus.GridField) -> float:
    """Closed form E || sum eps_k w_k ||_2^2 = sum ||w_k||_2^2 over the members
    w_k of the stack ``u_k``, in order."""
    return float(sum((torus.lp_norms(u_k, 2.0) ** 2).tolist()))


def _filled(fields: Iterable[torus.GridField], count: int, like: torus.GridField):
    """The ``count`` fields of ``fields``, each shaped like ``like``, as one
    stack on a new leading axis, written slot by slot as they come."""
    out = np.empty((count,) + like.values.shape, dtype=complex)
    for slot, w in zip(out, fields, strict=True):
        slot[...] = w.values
    return torus.GridField(like.grid, out)


def eta(x: float) -> float:
    """Cross-scale Schur weight min(x,1/x) * (1 + log max(x,1/x))."""
    if not (x > 0):
        raise ValueError(f"eta needs x > 0, got {x}")
    lo = min(x, 1.0 / x)
    hi = max(x, 1.0 / x)
    return lo * (1.0 + math.log(hi))


def bandpass_fields_constant(
    gs: torus.GridSymbol,
    u: torus.GridField,
    scales: DyadicScales,
) -> torus.GridField:
    """Q_t u for every dyadic t in the window, as one stack on a new leading
    axis (constant coefficients: ``gs`` is the total symbol of the pair on
    u's grid), each scale formed on u's eigen-coordinates into its slot."""
    return _filled(gs.apply((gs.bandpass(t) for t in scales.scales()), u), len(scales.ks), u)


def bandpass_fields_variable(
    op: hodge.VariableOp,
    u: torus.GridField,
    scales: DyadicScales,
) -> torus.GridField:
    """Q_t^B u for every dyadic t, as one stack on a new leading axis: the
    odd halves of the resolvent pairs of all scales, from one
    :func:`hodge.resolvent_halves` call."""
    return _filled(hodge.resolvent_halves(op, scales.scales(), u)[1::2], len(scales.ks), u)


def reproducing_sum(
    gs: torus.GridSymbol,
    u: torus.GridField,
    scales: DyadicScales,
) -> torus.GridField:
    """(3/2) sum_k Q_{2^k} Q_{2^{k+1}} u.

    Telescopes to the projection onto the closure of the range as the
    window widens; the residual against that projection is the quantity
    tests track.  The sum is one function of the symbol, built two scales
    at a time and applied once.
    """
    bands = (gs.bandpass(2.0**k) for k in range(scales.k_min, scales.k_max + 2))
    total = 1.5 * functools.reduce(operator.add, (a * b for a, b in itertools.pairwise(bands)))
    return next(gs.apply([total], u))


def reproducing_residual(
    gs: torus.GridSymbol,
    u: torus.GridField,
    scales: DyadicScales,
) -> float:
    """Relative L2 distance of the reproducing sum of u from u, for u in the
    closure of the range, where the sum telescopes to u.  Project a general
    field onto the range first, with ``gs.kernel_range[1]``."""
    denom = torus.lp_norm(u, 2.0)
    if denom == 0:
        return 0.0
    return torus.lp_norm(reproducing_sum(gs, u, scales) - u, 2.0) / denom


@dataclasses.dataclass
class SchurProbeResult:
    max_ratio: float
    table: list[dict]


def schur_bound_probe(
    gs: torus.GridSymbol,
    f: matcalc.PartialFractions,
    t_list: Sequence[float],
    s_list: Sequence[float],
    *,
    trials: int = 8,
    p: float = 2.0,
    seed: int = 0,
) -> SchurProbeResult:
    """max over (t, s) of ||Q_t f(S) Q_s||_est / eta(s/t).

    Operator norms are estimated by maximizing over random band-limited
    inputs, all on one batch axis; each (t, s) is the product of functions
    of the symbol ``gs``, f by its partial fractions, applied on its
    eigen-coordinates one at a time.
    """
    f_s = gs.fractions(f)
    bands = {t: gs.bandpass(t) for t in set(t_list) | set(s_list)}
    fields = torus.random_trials(gs.grid, gs.symbol.big_n, trials, seed)
    norms = torus.lp_norms(fields, p)
    pairs = [(t, s) for t in t_list for s in s_list]
    outs = gs.apply((bands[t] * f_s * bands[s] for t, s in pairs), fields)
    table = []
    worst = 0.0
    for (t, s), out in zip(pairs, outs):
        est = torus.max_ratio(out, p, norms)
        ratio = est / eta(s / t)
        table.append({"t": t, "s": s, "norm_est": est, "ratio": ratio})
        worst = max(worst, ratio)
    return SchurProbeResult(worst, table)


@dataclasses.dataclass
class QuadraticEstimateReport:
    estimate: RademacherEstimate
    ratio: float
    constant: float


def quadratic_estimate(
    op,
    u: torus.GridField,
    scales: DyadicScales,
    *,
    p: float = 2.0,
    samples: int = 64,
    seed: int = 0,
) -> QuadraticEstimateReport:
    """Randomized square-function probe E||sum eps_k Q_{2^k} u||_p / ||u||_p,
    reported as numbers: the estimate (with the p = 2 closed form
    sum_k ||Q_{2^k} u||_2^2 as its ``exact_square``), the ratio and the constant.

    For constant coefficients, ``op`` the GridSymbol of the pair's total
    symbol, the ratio probes both sides of the norm equivalence, so the
    reported constant is max(ratio, 1/ratio); for a variable-coefficient
    operator only the upper bound is meaningful.
    """
    two_sided = isinstance(op, torus.GridSymbol)
    bandpass = bandpass_fields_constant if two_sided else bandpass_fields_variable
    est = rademacher_norm(bandpass(op, u, scales), p=p, samples=samples, seed=seed)
    un = torus.lp_norm(u, p)
    ratio = est.mean / un if un > 0 else 0.0
    constant = max(ratio, 1.0 / ratio) if two_sided and ratio > 0 else ratio
    return QuadraticEstimateReport(est, ratio, constant)


def translated_quadratic_estimate(
    gs: torus.GridSymbol,
    u: torus.GridField,
    zs,
    scales: DyadicScales,
    *,
    p: float = 2.0,
    samples: int = 64,
    seed: int = 0,
) -> list[QuadraticEstimateReport]:
    """Scale-coupled translations: E||sum eps_k tau_{2^k z} Q_{2^k} u||_p,
    normalized by (1 + log_+ |z|) ||u||_p, one report per shift z of ``zs``
    (n numbers each), with the signs drawn from ``seed`` for every shift.

    The stack of the Q_{2^k} u is formed once, ``gs`` being the pair's total
    symbol, and each nonzero shift translates its members into one more
    stack; a zero shift takes them untranslated.
    """
    ws = bandpass_fields_constant(gs, u, scales)
    un = torus.lp_norm(u, p)
    reports = []
    for z in np.asarray(zs, dtype=float).reshape(-1, u.grid.n):
        shifted = ws
        if z.any():
            moved = (torus.translate(w, (2.0**k) * z) for k, w in zip(scales.ks, ws.members()))
            shifted = _filled(moved, len(scales.ks), u)
        est = rademacher_norm(shifted, p=p, samples=samples, seed=seed)
        denom = (1.0 + math.log(max(float(np.linalg.norm(z)), 1.0))) * un
        ratio = est.mean / denom if denom > 0 else 0.0
        reports.append(QuadraticEstimateReport(est, ratio, ratio))
    return reports


def corner_block_distance(grid: torus.TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    """F, the block of the first max(1, g/8) cells along each axis, as a mask,
    and each cell's torus distance to F: F is a product of intervals, so the
    per-axis distances to them, squared and summed in axis order (to the
    last bit the minimum over F's points, as rounding is monotone)."""
    m = max(1, grid.g // 8)
    mask_f = np.zeros(grid.shape, dtype=bool)
    mask_f[(slice(0, m),) * grid.n] = True
    x = np.arange(grid.g) * grid.cell_width  # as in grid.coordinates
    d = np.abs(x[:, None] - x[:m])
    d = np.minimum(d, grid.length - d).min(axis=1)
    return mask_f, np.sqrt(sum(np.ix_(*[d**2] * grid.n)))


@dataclasses.dataclass
class OffDiagonalResult:
    rho_values: list[float]
    ratios: list[float]
    decay_exponent: float


def offdiagonal_probe(
    op: hodge.VariableOp,
    t: float,
    *,
    rho_list: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    trials: int = 4,
    p: float = 2.0,
    seed: int = 0,
) -> OffDiagonalResult:
    """Decay of 1_E Q_t^B 1_F with the separation dist(E, F)/t = rho.

    F is the block of the first g/8 cells along each axis; for each rho, E
    collects the cells at torus distance at least rho * t from F.  The
    ``trials`` fields of ``torus.random_trials``, cut to F, go through
    Q_t^B once, and every rho cuts the same Q_t^B 1_F u to its E, so the
    ratios do not increase with rho.  The fitted exponent of the ratio
    against (1 + rho) is reported; it is nan, evidence of nothing, when
    fewer than two rho leave a nonempty E or some ratio is 0.
    """
    grid = op.grid
    mask_f, dist = corner_block_distance(grid)
    rhos, masks = [], []
    for rho in rho_list:
        mask_e = dist >= rho * t
        if not mask_e.any():
            continue
        if (mask_e & mask_f).any():
            raise ValueError(f"separated sets overlap at rho={rho}")
        rhos.append(float(rho))
        masks.append(mask_e[..., None])
    us = torus.random_trials(grid, op.big_n, trials, seed)
    uf = torus.GridField(grid, np.where(mask_f[..., None], us.values, 0.0))
    denom = torus.lp_norms(uf, p)
    qu = hodge.resolvent_halves(op, [t], uf)[1].values
    ratios = [
        torus.max_ratio(torus.GridField(grid, np.where(m, qu, 0.0)), p, denom) for m in masks
    ]
    if len(rhos) >= 2 and all(r > 0 for r in ratios):
        slope = np.polyfit(np.log1p(rhos), np.log(ratios), 1)[0]
        exponent = float(-slope)
    else:
        exponent = math.nan
    return OffDiagonalResult(rhos, ratios, exponent)
