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
import math
from typing import Callable, Sequence

import numpy as np

from . import hodge, symbols, torus


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


def exact_l2_square_expectation(u_k: Sequence[torus.GridField], p: float = 2.0) -> float:
    """Closed form E || sum eps_k w_k ||_2^2 = sum ||w_k||_2^2 (p = 2 only)."""
    if p != 2.0:
        raise ValueError("closed form only available for p = 2")
    return float(sum(torus.lp_norm(w, 2.0) ** 2 for w in u_k))


def eta(x: float) -> float:
    """Cross-scale Schur weight min(x,1/x) * (1 + log max(x,1/x))."""
    if not (x > 0):
        raise ValueError(f"eta needs x > 0, got {x}")
    lo = min(x, 1.0 / x)
    hi = max(x, 1.0 / x)
    return lo * (1.0 + math.log(hi))


def bandpass_fields_constant(
    pair: symbols.HodgeDiracSymbolPair,
    u: torus.GridField,
    scales: DyadicScales,
) -> list[torus.GridField]:
    """Q_t u for every dyadic t in the window (constant coefficients).

    u is transformed once to the eigen-coordinates of the symbol, where each
    scale is the scalar t lam / (1 + t^2 lam^2); one scale is formed at a
    time.
    """
    gs = torus.GridSymbol(pair.total(), u.grid)
    hat, w = gs.to_spectral(u)
    out = []
    for t in scales.scales():
        phi, mask = gs.bandpass_spectral(t)
        out.append(gs.from_spectral(phi, w, hat, mask, functools.partial(gs.bandpass_at, t)))
    return out


def bandpass_fields_variable(
    op: hodge.VariableOp,
    u: torus.GridField,
    scales: DyadicScales,
) -> list[torus.GridField]:
    """Q_t^B u for every dyadic t, via the two resolvent solves per scale."""
    return [hodge.bandpass_apply(op, t, u) for t in scales.scales()]


def _telescoped(scales: DyadicScales, term: Callable, mul: Callable):
    """(3/2) sum_k mul(term(2^k), term(2^{k+1})), one scale at a time."""
    nxt = term(2.0**scales.k_min)
    acc = None
    for k in scales.ks:
        cur, nxt = nxt, term(2.0 ** (k + 1))
        prod = mul(cur, nxt)
        acc = prod if acc is None else acc + prod
    return 1.5 * acc


def reproducing_sum(
    pair: symbols.HodgeDiracSymbolPair,
    u: torus.GridField,
    scales: DyadicScales,
) -> torus.GridField:
    """(3/2) sum_k Q_{2^k} Q_{2^{k+1}} u.

    Telescopes to the projection onto the closure of the range as the
    window widens; the residual against that projection is the quantity
    tests track.  The sum is a scalar function of the symbol, formed on its
    eigenvalues and applied once.
    """
    gs = torus.GridSymbol(pair.total(), u.grid)
    masks = []

    def band(t):
        phi, mask = gs.bandpass_spectral(t)
        masks.append(mask)
        return phi

    coeff = _telescoped(scales, band, np.multiply)
    hat, w = gs.to_spectral(u)
    fallback = lambda m: _telescoped(scales, lambda t: gs.bandpass_at(t, m), np.matmul)
    return gs.from_spectral(coeff, w, hat, np.logical_or.reduce(masks), fallback)


def reproducing_residual(
    pair: symbols.HodgeDiracSymbolPair,
    u: torus.GridField,
    scales: DyadicScales,
    *,
    p_ran: torus.MultiplierOp | None = None,
) -> float:
    """Relative L2 distance of the reproducing sum from the range projection
    (``p_ran``, built from the pair when not given)."""
    if p_ran is None:
        _, p_ran = torus.kernel_range_multipliers(pair.total(), u.grid)
    target = torus.apply_multiplier(p_ran, u)
    got = reproducing_sum(pair, u, scales)
    denom = torus.lp_norm(u, 2.0)
    if denom == 0:
        return 0.0
    return torus.lp_norm(got - target, 2.0) / denom


@dataclasses.dataclass
class SchurProbeResult:
    max_ratio: float
    table: list[dict]


def schur_bound_probe(
    pair: symbols.HodgeDiracSymbolPair,
    f: Callable,
    t_list: Sequence[float],
    s_list: Sequence[float],
    grid: torus.TorusGrid,
    *,
    trials: int = 8,
    p: float = 2.0,
    seed: int = 0,
) -> SchurProbeResult:
    """max over (t, s) of ||Q_t f(S) Q_s||_est / eta(s/t).

    Operator norms are estimated by maximizing over random band-limited
    inputs, all on one batch axis; each (t, s) is the scalar
    q(t lam) f(lam) q(s lam) on the eigen-coordinates of the symbol.
    """
    gs = torus.GridSymbol(pair.total(), grid)
    f_lam = gs.spectral_function(f)
    f_mats = gs.function(f).mats.reshape(-1, pair.big_n, pair.big_n)
    bands = {t: gs.bandpass_spectral(t) for t in set(t_list) | set(s_list)}
    fields = torus.random_trials(grid, pair.big_n, trials, seed)
    norms = torus.lp_norms(fields, p)
    hat, w = gs.to_spectral(fields)
    table = []
    worst = 0.0
    for t in t_list:
        for s in s_list:
            (phi_t, mask_t), (phi_s, mask_s) = bands[t], bands[s]
            fallback = lambda m: gs.bandpass_at(t, m) @ f_mats[m] @ gs.bandpass_at(s, m)
            out = gs.from_spectral(phi_t * f_lam * phi_s, w, hat, mask_t | mask_s, fallback)
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
    input_norm: float
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
    summands: Sequence[torus.GridField] | None = None,
) -> QuadraticEstimateReport:
    """Randomized square-function probe E||sum eps_k Q_{2^k} u||_p / ||u||_p.

    For a symbol pair (constant coefficients) the ratio probes both sides
    of the norm equivalence, so the reported constant is
    max(ratio, 1/ratio); for a variable-coefficient operator only the
    upper bound is meaningful.  ``summands`` passes the fields
    :func:`bandpass_fields_constant` gives for a pair, when the caller
    already has them.
    """
    if isinstance(op, symbols.HodgeDiracSymbolPair):
        ws = bandpass_fields_constant(op, u, scales) if summands is None else summands
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
    return QuadraticEstimateReport(est, ratio, constant, un, ws)


def translated_quadratic_estimate(
    pair: symbols.HodgeDiracSymbolPair,
    u: torus.GridField,
    z,
    scales: DyadicScales,
    *,
    p: float = 2.0,
    samples: int = 64,
    seed: int = 0,
    summands: Sequence[torus.GridField] | None = None,
) -> QuadraticEstimateReport:
    """Scale-coupled translations: E||sum eps_k tau_{2^k z} Q_{2^k} u||_p,
    normalized by (1 + log_+ |z|) ||u||_p.  ``summands`` passes the
    untranslated Q_{2^k} u when the caller already has them."""
    z = np.asarray(z, dtype=float).reshape(u.grid.n)
    ws = bandpass_fields_constant(pair, u, scales) if summands is None else summands
    shifted = [torus.translate(w, (2.0**k) * z) for k, w in zip(scales.ks, ws)]
    est = rademacher_norm(shifted, p=p, samples=samples, seed=seed)
    zmod = float(np.linalg.norm(z))
    log_plus = math.log(zmod) if zmod > 1.0 else 0.0
    un = torus.lp_norm(u, p)
    denom = (1.0 + log_plus) * un
    ratio = est.mean / denom if denom > 0 else 0.0
    return QuadraticEstimateReport(est, ratio, ratio, un, shifted)


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
    against (1 + rho) is reported.
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
    qu = hodge.bandpass_apply(op, t, uf).values
    ratios = [
        torus.max_ratio(torus.GridField(grid, np.where(m, qu, 0.0)), p, denom) for m in masks
    ]
    if len(rhos) >= 2 and all(r > 0 for r in ratios):
        slope = np.polyfit(np.log1p(rhos), np.log(ratios), 1)[0]
        exponent = float(-slope)
    else:
        exponent = math.inf
    return OffDiagonalResult(rhos, ratios, exponent)
