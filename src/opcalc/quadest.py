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
from typing import Sequence

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
    samples: int
    # sample mean of the squared norm: unbiased for the exact p=2 expectation
    mean_square: float = 0.0
    std_error_square: float = 0.0

    def __post_init__(self):
        if self.samples < 16:
            raise ValueError("need at least 16 sign samples")
        if self.std_error < 0:
            raise ValueError("negative standard error")


def rademacher_norm(
    u_k: Sequence[torus.GridField],
    p: float = 2.0,
    samples: int = 64,
    seed: int = 0,
) -> RademacherEstimate:
    """Monte-Carlo estimate of E || sum_k eps_k u_k ||_p.

    The summands are fixed; only the random signs are resampled.
    """
    ws = list(u_k)
    if not ws:
        raise ValueError("empty index set")
    stack = np.stack([w.values for w in ws])
    grid = ws[0].grid
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(samples, len(ws))) * 2 - 1
    norms = np.empty(samples)
    for i in range(samples):
        total = np.tensordot(signs[i], stack, axes=(0, 0))
        norms[i] = torus.lp_norm(torus.GridField(grid, total), p)
    mean = float(norms.mean())
    std_error = float(norms.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    sq = norms**2
    return RademacherEstimate(
        mean,
        std_error,
        samples,
        float(sq.mean()),
        float(sq.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0,
    )


def exact_l2_square_expectation(u_k: Sequence[torus.GridField]) -> float:
    """Closed form E || sum eps_k w_k ||_2^2 = sum ||w_k||_2^2."""
    return float(sum(torus.lp_norm(w, 2.0) ** 2 for w in u_k))


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
) -> list[torus.GridField]:
    """Q_t u for every dyadic t in the window (constant coefficients: ``gs``
    is the total symbol of the pair on u's grid), one scale formed at a time
    on u's eigen-coordinates."""
    return list(gs.apply((gs.bandpass(t) for t in scales.scales()), u))


def bandpass_fields_variable(
    op: hodge.VariableOp,
    u: torus.GridField,
    scales: DyadicScales,
) -> list[torus.GridField]:
    """Q_t^B u for every dyadic t: the odd halves of the resolvent pairs of
    all scales, from one :func:`hodge.resolvent_halves` call."""
    return hodge.resolvent_halves(op, scales.scales(), u)[1::2]


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
    # the fields whose Rademacher sum was estimated
    summands: list[torus.GridField]


def quadratic_estimate(
    op,
    u: torus.GridField,
    scales: DyadicScales,
    *,
    p: float = 2.0,
    samples: int = 64,
    seed: int = 0,
) -> QuadraticEstimateReport:
    """Randomized square-function probe E||sum eps_k Q_{2^k} u||_p / ||u||_p.

    For constant coefficients, ``op`` the GridSymbol of the pair's total
    symbol, the ratio probes both sides of the norm equivalence, so the
    reported constant is max(ratio, 1/ratio); for a variable-coefficient
    operator only the upper bound is meaningful.
    """
    if isinstance(op, torus.GridSymbol):
        ws = bandpass_fields_constant(op, u, scales)
        two_sided = True
    else:
        ws = bandpass_fields_variable(op, u, scales)
        two_sided = False
    est = rademacher_norm(ws, p=p, samples=samples, seed=seed)
    un = torus.lp_norm(u, p)
    ratio = est.mean / un if un > 0 else 0.0
    if two_sided and ratio > 0:
        constant = max(ratio, 1.0 / ratio)
    else:
        constant = ratio
    return QuadraticEstimateReport(est, ratio, constant, ws)


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

    The Q_{2^k} u are formed once, ``gs`` being the pair's total symbol; a
    zero shift takes them untranslated.
    """
    ws = bandpass_fields_constant(gs, u, scales)
    un = torus.lp_norm(u, p)
    reports = []
    for z in np.asarray(zs, dtype=float).reshape(-1, u.grid.n):
        shifted = ws
        if z.any():
            shifted = [torus.translate(w, (2.0**k) * z) for k, w in zip(scales.ks, ws)]
        est = rademacher_norm(shifted, p=p, samples=samples, seed=seed)
        denom = (1.0 + math.log(max(float(np.linalg.norm(z)), 1.0))) * un
        ratio = est.mean / denom if denom > 0 else 0.0
        reports.append(QuadraticEstimateReport(est, ratio, ratio, shifted))
    return reports


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
    mask_f = np.zeros(grid.shape, dtype=bool)
    mask_f[(slice(0, max(1, grid.g // 8)),) * grid.n] = True
    coords = grid.coordinates
    xf = coords[mask_f].reshape(-1, grid.n)
    dist = np.full(grid.shape, np.inf)
    for pt in xf:
        d = np.abs(coords - pt)
        d = np.minimum(d, grid.length - d)
        dist = np.minimum(dist, np.sqrt((d**2).sum(axis=-1)))
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
