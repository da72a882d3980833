"""Dyadic scale machinery and randomized quadratic estimates.

Monte-Carlo Rademacher sums, the telescoping reproducing identity, the
cross-scale Schur weight, one- and two-sided quadratic estimates, the
translated variant, principal parts over dyadic cubes, and off-diagonal
decay probes.  All randomized quantities carry their standard error and
are reported, never asserted exactly.
"""

from __future__ import annotations

import dataclasses
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
    apply_k: Sequence[Callable] | None,
    u_k: Sequence[torus.GridField],
    p: float = 2.0,
    samples: int = 64,
    seed: int = 0,
) -> RademacherEstimate:
    """Monte-Carlo estimate of E || sum_k eps_k T_k u_k ||_p.

    The operators are applied once; only the random signs are resampled.
    Pass apply_k=None when the fields are already the summands.
    """
    if apply_k is None:
        ws = list(u_k)
    else:
        if len(apply_k) != len(u_k):
            raise ValueError("family and fields must share the index set")
        ws = [t(u) for t, u in zip(apply_k, u_k)]
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
    """Q_t u for every dyadic t in the window (constant coefficients)."""
    gs = torus.GridSymbol(pair.total(), u.grid)
    hat = torus.fft_field(u)
    return [
        torus.ifft_field(u.grid, np.einsum("...ij,...j->...i", gs.bandpass(t).mats, hat))
        for t in scales.scales()
    ]


def bandpass_fields_variable(
    op: hodge.VariableOp,
    u: torus.GridField,
    scales: DyadicScales,
    *,
    rtol: float = 1e-10,
) -> list[torus.GridField]:
    """Q_t^B u for every dyadic t, via the two resolvent solves per scale."""
    return [hodge.bandpass_apply(op, t, u, rtol=rtol) for t in scales.scales()]


def reproducing_sum(
    pair: symbols.HodgeDiracSymbolPair,
    u: torus.GridField,
    scales: DyadicScales,
) -> torus.GridField:
    """(3/2) sum_k Q_{2^k} Q_{2^{k+1}} u.

    Telescopes to the projection onto the closure of the range as the
    window widens; the residual against that projection is the quantity
    tests track.
    """
    gs = torus.GridSymbol(pair.total(), u.grid)
    q_next = gs.bandpass(2.0**scales.k_min).mats
    acc = None
    for k in scales.ks:
        q, q_next = q_next, gs.bandpass(2.0 ** (k + 1)).mats
        prod = q @ q_next
        acc = prod if acc is None else acc + prod
    op = torus.MultiplierOp(u.grid, 1.5 * acc)
    return torus.apply_multiplier(op, u)


def reproducing_residual(
    pair: symbols.HodgeDiracSymbolPair,
    u: torus.GridField,
    scales: DyadicScales,
) -> float:
    """Relative L2 distance of the reproducing sum from the range projection."""
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
    samples_band: int | None = None,
    seed: int = 0,
) -> SchurProbeResult:
    """max over (t, s) of ||Q_t f(S) Q_s||_est / eta(s/t).

    Operator norms are estimated by maximizing over random band-limited
    inputs; f is applied through the per-frequency matrix calculus.
    """
    gs = torus.GridSymbol(pair.total(), grid)
    f_op = torus.matrix_function_multiplier(gs, f)
    qmats = {t: gs.bandpass(t).mats for t in set(t_list) | set(s_list)}
    rng = np.random.default_rng(seed)
    fields = [
        torus.random_band_limited(grid, pair.big_n, seed=int(rng.integers(2**31)),
                                  band=samples_band)
        for _ in range(trials)
    ]
    table = []
    worst = 0.0
    for t in t_list:
        for s in s_list:
            op = torus.MultiplierOp(grid, qmats[t] @ f_op.mats @ qmats[s])
            est = 0.0
            for u in fields:
                un = torus.lp_norm(u, p)
                if un == 0:
                    continue
                est = max(est, torus.lp_norm(torus.apply_multiplier(op, u), p) / un)
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
    rtol: float = 1e-10,
) -> QuadraticEstimateReport:
    """Randomized square-function probe E||sum eps_k Q_{2^k} u||_p / ||u||_p.

    For a symbol pair (constant coefficients) the ratio probes both sides
    of the norm equivalence, so the reported constant is
    max(ratio, 1/ratio); for a variable-coefficient operator only the
    upper bound is meaningful.
    """
    if isinstance(op, symbols.HodgeDiracSymbolPair):
        ws = bandpass_fields_constant(op, u, scales)
        two_sided = True
    else:
        ws = bandpass_fields_variable(op, u, scales, rtol=rtol)
        two_sided = False
    est = rademacher_norm(None, ws, p=p, samples=samples, seed=seed)
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
) -> QuadraticEstimateReport:
    """Scale-coupled translations: E||sum eps_k tau_{2^k z} Q_{2^k} u||_p,
    normalized by (1 + log_+ |z|) ||u||_p."""
    z = np.asarray(z, dtype=float).reshape(u.grid.n)
    ws = bandpass_fields_constant(pair, u, scales)
    shifted = [torus.translate(w, (2.0**k) * z) for k, w in zip(scales.ks, ws)]
    est = rademacher_norm(None, shifted, p=p, samples=samples, seed=seed)
    zmod = float(np.linalg.norm(z))
    log_plus = math.log(zmod) if zmod > 1.0 else 0.0
    un = torus.lp_norm(u, p)
    denom = (1.0 + log_plus) * un
    ratio = est.mean / denom if denom > 0 else 0.0
    return QuadraticEstimateReport(est, ratio, ratio, un, shifted)


def dyadic_cells_for_scale(grid: torus.TorusGrid, t: float) -> int:
    """Side length in cells of the dyadic cubes matching physical scale t."""
    cells = t / grid.cell_width
    c = int(round(cells))
    if not math.isclose(cells, c, rel_tol=1e-12) or c < 1 or (c & (c - 1)) or grid.g % c:
        raise ValueError(
            f"scale {t} is not a power-of-two multiple of the cell width "
            f"dividing g={grid.g}"
        )
    return c


def _cube_masks(grid: torus.TorusGrid, cells: int):
    """Boolean indicators of the dyadic cubes of the given cell side."""
    per_axis = grid.g // cells
    for flat in range(per_axis**grid.n):
        idx = []
        rem = flat
        for _ in range(grid.n):
            idx.append(rem % per_axis)
            rem //= per_axis
        mask = np.zeros(grid.shape, dtype=bool)
        region = tuple(slice(i * cells, (i + 1) * cells) for i in idx)
        mask[region] = True
        yield mask


def principal_part(
    op: hodge.VariableOp,
    t: float,
    w,
    *,
    rtol: float = 1e-10,
) -> torus.GridField:
    """Pointwise action of Q_t^B on the cube-wise constant extensions of w.

    Sums Q_t^B (w 1_Q) over the dyadic cubes Q of side t; on the torus the
    indicators add to one, so the sum agrees with Q_t^B applied to the
    constant field w up to solver tolerance.
    """
    cells = dyadic_cells_for_scale(op.grid, t)
    w = np.asarray(w, dtype=complex).reshape(op.big_n)
    acc = torus.zero_field(op.grid, op.big_n)
    for mask in _cube_masks(op.grid, cells):
        vals = np.zeros(op.grid.shape + (op.big_n,), dtype=complex)
        vals[mask] = w
        acc = acc + hodge.bandpass_apply(op, t, torus.GridField(op.grid, vals), rtol=rtol)
    return acc


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
    f_fraction: int = 8,
    rtol: float = 1e-10,
) -> OffDiagonalResult:
    """Decay of 1_E Q_t^B 1_F with the separation dist(E, F)/t = rho.

    F is a fixed block of cells; for each rho, E collects the cells at
    torus distance at least rho * t from F.  The fitted exponent of the
    ratio against (1 + rho) is reported.
    """
    grid = op.grid
    mask_f = np.zeros(grid.shape, dtype=bool)
    block = tuple(slice(0, max(1, grid.g // f_fraction)) for _ in range(grid.n))
    mask_f[block] = True
    coords = grid.coordinates
    xf = coords[mask_f].reshape(-1, grid.n)
    dist = np.full(grid.shape, np.inf)
    for pt in xf:
        d = np.abs(coords - pt)
        d = np.minimum(d, grid.length - d)
        dist = np.minimum(dist, np.sqrt((d**2).sum(axis=-1)))
    rng = np.random.default_rng(seed)
    rhos, ratios = [], []
    for rho in rho_list:
        mask_e = dist >= rho * t
        if not mask_e.any():
            continue
        if (mask_e & mask_f).any():
            raise ValueError(f"separated sets overlap at rho={rho}")
        worst = 0.0
        for _ in range(trials):
            u = torus.random_band_limited(grid, op.big_n, seed=int(rng.integers(2**31)))
            vals = np.where(mask_f[..., None], u.values, 0.0)
            uf = torus.GridField(grid, vals)
            denom = torus.lp_norm(uf, p)
            if denom == 0:
                continue
            qu = hodge.bandpass_apply(op, t, uf, rtol=rtol)
            cut = np.where(mask_e[..., None], qu.values, 0.0)
            worst = max(worst, torus.lp_norm(torus.GridField(grid, cut), p) / denom)
        rhos.append(float(rho))
        ratios.append(worst)
    if len(rhos) >= 2 and all(r > 0 for r in ratios):
        slope = np.polyfit(np.log1p(rhos), np.log(ratios), 1)[0]
        exponent = float(-slope)
    else:
        exponent = math.inf
    return OffDiagonalResult(rhos, ratios, exponent)
