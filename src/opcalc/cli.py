"""Command-line driver: symbol analysis, probe suites, report merging.

Reports are canonical JSON (sorted keys, no wall-clock content), so a
rerun with the same config and seed produces byte-identical files.
Timings go to the console summary only.

Exit codes: 0 all probes pass, 1 at least one probe fails, 2 bad
configuration or unreadable input.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import hashlib
import importlib.resources
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import dacorr, hodge, matcalc, quadest, symbols, torus
from .errors import OpcalcError

BUNDLED = {
    "dirac1d": "dirac1d.json",
    "graddiv2d": "graddiv2d.json",
    "dirac1d_nilpotent": "dirac1d_nilpotent.json",
    "pair_gamma_equal": "pair_gamma_equal.json",
}


class ConfigError(Exception):
    pass


@dataclasses.dataclass
class ProbeReport:
    probe: str
    seed: int
    digest: str
    constants: dict
    passes: dict
    timing_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(self.passes.values())

    def to_json(self) -> str:
        # timing is volatile and therefore excluded from the report bytes
        payload = {
            "probe": self.probe,
            "seed": self.seed,
            "inputs_digest": self.digest,
            "constants": _plain(self.constants),
            "passes": self.passes,
            "pass": self.passed,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def canonical_digest(cfg: dict) -> str:
    blob = json.dumps(_plain(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load_symbol_arg(name_or_path: str):
    if name_or_path.startswith("bundled:"):
        key = name_or_path.split(":", 1)[1]
        if key not in BUNDLED:
            raise ConfigError(f"unknown bundled symbol {key!r}")
        ref = importlib.resources.files("opcalc.data") / BUNDLED[key]
        with importlib.resources.as_file(ref) as path:
            return symbols.load_symbol_file(path)
    if not Path(name_or_path).exists():
        raise ConfigError(f"symbol file not found: {name_or_path}")
    try:
        return symbols.load_symbol_file(name_or_path)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse symbol file {name_or_path}: {exc}") from exc


@contextlib.contextmanager
def _config_values(what: str):
    """Turn a bad value met while reading ``what`` into a ConfigError."""
    try:
        yield
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _grid_from(cfg: dict) -> torus.TorusGrid:
    g = cfg.get("grid", {})
    with _config_values("grid"):
        return torus.TorusGrid(
            int(g.get("n", 1)), int(g.get("g", 64)), float(g.get("length", 2 * math.pi))
        )


def _scales_from(cfg: dict) -> quadest.DyadicScales:
    with _config_values("scale window"):
        return quadest.DyadicScales(int(cfg.get("k_min", -6)), int(cfg.get("k_max", 6)))


def _samples_from(cfg: dict, default: int) -> int:
    with _config_values("samples"):
        samples = int(cfg.get("samples", default))
        if samples < 16:
            raise ValueError(f"need at least 16 sign samples, got {samples}")
    return samples


def _pair_from(cfg: dict) -> symbols.HodgeDiracSymbolPair:
    obj = load_symbol_arg(cfg.get("symbol", "bundled:dirac1d"))
    if not isinstance(obj, symbols.HodgeDiracSymbolPair):
        raise ConfigError("this probe needs a symbol pair, got a single symbol")
    return obj


def _coeffs_from(cfg: dict, grid, big_n) -> hodge.CoefficientPair:
    c = cfg.get("coefficients", {})
    seed = int(cfg.get("seed", 0))
    with _config_values("coefficients"):
        b1 = hodge.parse_coefficient(
            c.get("b1", f"identity+0.05*diagrandom({seed + 23})"), grid, big_n
        )
        b2 = hodge.parse_coefficient(
            c.get("b2", f"identity+0.05*diagrandom({seed + 24})"), grid, big_n
        )
        return hodge.CoefficientPair(b1, b2)


# ---------------------------------------------------------------------------
# Probes.  Each takes the merged config and returns a ProbeReport.
# ---------------------------------------------------------------------------


def probe_symbol(cfg) -> ProbeReport:
    obj = load_symbol_arg(cfg.get("symbol", "bundled:dirac1d"))
    count = int(cfg.get("sphere_samples", 512))
    if isinstance(obj, symbols.HodgeDiracSymbolPair):
        sample = symbols.sphere_sample(obj.n, count)
        rep = symbols.verify_hodge_pair(obj, sample)
    else:
        sample = symbols.sphere_sample(obj.n, count)
        rep = symbols.verify_symbol_conditions(obj, sample)
    constants = {"failures": rep.failures}
    if rep.params is not None:
        constants.update(
            omega=rep.params.omega, kappa=rep.params.kappa, big_m=rep.params.big_m
        )
    return ProbeReport(
        "symbol-conditions",
        int(cfg.get("seed", 0)),
        canonical_digest(cfg),
        constants,
        {"conditions": rep.passed},
    )


def probe_mikhlin(cfg) -> ProbeReport:
    pair = _pair_from(cfg)
    sample = symbols.sphere_sample(pair.n, int(cfg.get("sphere_samples", 64)))
    taus = [2.0**k for k in range(-4, 5)]
    alphas = cfg.get("alphas")
    if alphas is None and pair.n == 1:
        alphas = [(0,), (1,), (2,)]
    table = {}
    stable = True
    for kind in ("resolvent", "even", "odd"):
        fam = symbols.resolvent_symbol_family(pair.total(), kind)
        rows = symbols.mikhlin_probe(fam, alphas, sample, taus)
        table[kind] = [
            {"alpha": list(r.alpha), "value": r.value, "half": r.value_half_step}
            for r in rows
        ]
        stable = stable and all(r.stable for r in rows)
    return ProbeReport(
        "mikhlin",
        int(cfg.get("seed", 0)),
        canonical_digest(cfg),
        {"table": table},
        {"stable_under_step_halving": stable},
    )


def probe_hodge_const(cfg) -> ProbeReport:
    pair = _pair_from(cfg)
    grid = _grid_from(cfg)
    seed = int(cfg.get("seed", 0))
    proj = hodge.constant_hodge_projections(pair, grid)
    gamma_op = torus.GridSymbol(pair.gamma, grid).multiplier()
    gt_op = torus.GridSymbol(pair.gamma_tilde, grid).multiplier()
    worst_sum = worst_idem = worst_annih = 0.0
    for trial in range(int(cfg.get("trials", 3))):
        u = torus.random_band_limited(grid, pair.big_n, seed=seed + trial)
        un = torus.lp_norm(u, 2.0)
        s = proj.p0(u) + proj.p_gamma(u) + proj.p_gamma_tilde(u)
        worst_sum = max(worst_sum, torus.lp_norm(s - u, 2.0) / un)
        for p_fn in (proj.p0, proj.p_gamma, proj.p_gamma_tilde):
            v = p_fn(u)
            worst_idem = max(worst_idem, torus.lp_norm(p_fn(v) - v, 2.0) / un)
        gu = torus.apply_multiplier(gamma_op, u)
        worst_annih = max(
            worst_annih, torus.lp_norm(gu - proj.p_gamma(gu), 2.0) / max(un, 1e-300)
        )
        gtu = torus.apply_multiplier(gt_op, u)
        worst_annih = max(
            worst_annih,
            torus.lp_norm(gtu - proj.p_gamma_tilde(gtu), 2.0) / max(un, 1e-300),
        )
    tol = float(cfg.get("tolerance", 1e-10))
    return ProbeReport(
        "hodge-constant",
        seed,
        canonical_digest(cfg),
        {
            "sum_residual": worst_sum,
            "idempotence_residual": worst_idem,
            "range_residual": worst_annih,
        },
        {"sum": worst_sum <= tol, "idempotence": worst_idem <= tol,
         "ranges": worst_annih <= 1e-8},
    )


def probe_hodge_var(cfg) -> ProbeReport:
    pair = _pair_from(cfg)
    grid = _grid_from(cfg)
    seed = int(cfg.get("seed", 0))
    coeffs = _coeffs_from(cfg, grid, pair.big_n)
    op = hodge.VariableOp(pair, coeffs, grid)
    cond = hodge.check_coefficient_conditions(op, seed=seed)
    proj = hodge.variable_hodge_projections(op, seed=seed)
    constants = {
        "nilpotence_residual": cond.nilpotence_residual,
        "coercivity": cond.coercivity_primal,
        "coercivity_dual": cond.coercivity_dual,
        "curve": proj.report["curve"],
    }
    passes = {"coefficient_conditions": cond.passed}
    if op.dim <= 4096:
        dense = hodge.dense_hodge_projections(op)
        worst = 0.0
        for trial in range(3):
            u = torus.random_band_limited(grid, pair.big_n, seed=seed + 50 + trial)
            un = torus.lp_norm(u, 2.0)
            for fn, mat in zip((proj.p0, proj.p_gamma, proj.p_gamma_tilde), dense):
                ref = torus.GridField.from_flat(grid, pair.big_n, mat @ u.flat())
                worst = max(worst, torus.lp_norm(fn(u) - ref, 2.0) / un)
        constants["limit_vs_dense"] = worst
        passes["limit_vs_dense"] = worst <= float(cfg.get("tolerance", 1e-6))
    t = 2.0 ** int(cfg.get("intertwine_log_scale", 1))
    res = hodge.underline_intertwining_residual(op, t, seed=seed)
    constants["swap_intertwining"] = res
    passes["swap_intertwining"] = res <= 1e-8
    return ProbeReport("hodge-variable", seed, canonical_digest(cfg), constants, passes)


def probe_perturb(cfg) -> ProbeReport:
    pair = _pair_from(cfg)
    grid = _grid_from(cfg)
    seed = int(cfg.get("seed", 0))
    deltas = cfg.get("deltas", [0.04, 0.02, 0.01])
    e1 = hodge.diagonal_direction(grid, pair.big_n, seed + 41)
    e2 = hodge.diagonal_direction(grid, pair.big_n, seed + 42)
    base = hodge.VariableOp.constant(pair, grid)
    eye = hodge.MatrixField.identity(grid, pair.big_n)
    ratio_rows = []
    for d in deltas:
        coeffs = hodge.CoefficientPair(eye + (d / 2) * e1, eye + (d / 2) * e2)
        rep = hodge.hodge_perturbation_report(base, hodge.VariableOp(pair, coeffs, grid))
        ratio_rows.append({"delta": rep.delta, **rep.ratios})
    spread = 0.0
    for key in ("p0", "p_gamma", "p_gamma_tilde"):
        vals = [r[key] for r in ratio_rows if r[key] > 0]
        if vals:
            spread = max(spread, max(vals) / min(vals))
    rng = np.random.default_rng(seed + 37)
    dim = int(cfg.get("split_dim", 24))
    p0 = np.zeros((dim, dim), dtype=complex)
    p0[: dim // 2, : dim // 2] = np.eye(dim // 2)
    p1 = np.eye(dim) - p0
    t_dir = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    t_dir /= matcalc.operator_norm(t_dir)
    split = hodge.perturb_splitting(p0, p1, 0.1 * t_dir)
    ident = matcalc.operator_norm(split.p0_new + split.p1_new - np.eye(dim))
    idem = matcalc.operator_norm(split.p0_new @ split.p0_new - split.p0_new)
    return ProbeReport(
        "perturbation",
        seed,
        canonical_digest(cfg),
        {"ratios": ratio_rows, "ratio_spread": spread,
         "split_sum_residual": ident, "split_idem_residual": idem},
        {"ratio_band": spread <= 4.0, "split_identities": max(ident, idem) <= 1e-10},
    )


def probe_quadest(cfg) -> ProbeReport:
    pair = _pair_from(cfg)
    grid = _grid_from(cfg)
    seed = int(cfg.get("seed", 0))
    samples = _samples_from(cfg, 64)
    scales = _scales_from(cfg)
    _, p_ran = torus.kernel_range_multipliers(pair.total(), grid)
    u = torus.apply_multiplier(
        p_ran, torus.random_band_limited(grid, pair.big_n, seed=seed + 5)
    )
    rep = quadest.quadratic_estimate(pair, u, scales, samples=samples, seed=seed)
    est = rep.estimate
    exact_sq = quadest.exact_l2_square_expectation(rep.summands)
    sq_err = abs(est.mean_square - exact_sq)
    # 5 standard errors: the gate must hold for every user-chosen seed, and
    # the squared-norm distribution is skewed enough that 3 SE trips on
    # roughly 1 seed in 100 at small sample counts
    sq_ok = sq_err <= 5.0 * max(est.std_error_square, 1e-14)
    return ProbeReport(
        "quadratic-estimate",
        seed,
        canonical_digest(cfg),
        {
            "params": {"k_min": scales.k_min, "k_max": scales.k_max,
                       "samples": samples, "p": 2.0},
            "mean": est.mean,
            "std_error": est.std_error,
            "mean_square": est.mean_square,
            "exact_square": exact_sq,
            "constant": rep.constant,
        },
        {"closed_form_within_5se": bool(sq_ok), "bounded": rep.constant < 1e3},
    )


def probe_translated(cfg) -> ProbeReport:
    pair = _pair_from(cfg)
    grid = _grid_from(cfg)
    seed = int(cfg.get("seed", 0))
    samples = _samples_from(cfg, 32)
    scales = _scales_from(cfg)
    u = torus.random_band_limited(grid, pair.big_n, seed=seed + 59, kill_zero_mode=True)
    zmods = cfg.get("translations", [0.0, 1.0, 4.0, 16.0])
    rows = []
    for zm in zmods:
        z = np.zeros(grid.n)
        z[0] = zm
        if zm == 0.0:
            rep = quadest.quadratic_estimate(pair, u, scales, samples=samples, seed=seed)
            rows.append({"z": zm, "mean": rep.estimate.mean, "ratio": rep.ratio})
        else:
            rep = quadest.translated_quadratic_estimate(
                pair, u, z, scales, samples=samples, seed=seed
            )
            rows.append({"z": zm, "mean": rep.estimate.mean, "ratio": rep.ratio})
    base = rows[0]["mean"] / torus.lp_norm(u, 2.0)
    pos = [r for r in rows if r["z"] > 1.0]
    slope = 0.0
    if len(pos) >= 2:
        slope = float(
            np.polyfit([math.log(r["z"]) for r in pos], [r["mean"] for r in pos], 1)[0]
        ) / torus.lp_norm(u, 2.0)
    return ProbeReport(
        "translated-quadratic",
        seed,
        canonical_digest(cfg),
        {"rows": rows, "fitted_slope": slope, "base_ratio": base},
        {"log_growth": slope <= base},
    )


def probe_reproducing(cfg) -> ProbeReport:
    pair = _pair_from(cfg)
    grid = _grid_from(cfg)
    seed = int(cfg.get("seed", 0))
    u = torus.random_band_limited(
        grid, pair.big_n, seed=seed + 43, band=grid.g // 4, kill_zero_mode=True
    )
    _, p_ran = torus.kernel_range_multipliers(pair.total(), grid)
    u = torus.apply_multiplier(p_ran, u)
    widths = cfg.get("windows", [4, 8, 12, 16, 20])
    rows = []
    for w in widths:
        res = quadest.reproducing_residual(pair, u, quadest.DyadicScales(-w, w))
        rows.append({"window": w, "residual": res})
    monotone = all(
        rows[i + 1]["residual"] <= rows[i]["residual"] * 1.1 for i in range(len(rows) - 1)
    )
    final = rows[-1]["residual"]
    tol = float(cfg.get("tolerance", 1e-5))
    return ProbeReport(
        "reproducing-sum",
        seed,
        canonical_digest(cfg),
        {"curve": rows},
        {"monotone": monotone, "final_residual": final <= tol},
    )


def probe_schur(cfg) -> ProbeReport:
    pair = _pair_from(cfg)
    grid = _grid_from(cfg)
    seed = int(cfg.get("seed", 0))
    ts = [2.0**k for k in range(-3, 4, 2)]
    res = quadest.schur_bound_probe(
        pair, dacorr.f_rational_odd, ts, ts, grid,
        trials=int(cfg.get("trials", 4)), seed=seed,
    )
    return ProbeReport(
        "schur-bound",
        seed,
        canonical_digest(cfg),
        {"max_ratio": res.max_ratio, "table": res.table},
        {"bounded": res.max_ratio < 100.0},
    )


def probe_offdiag(cfg) -> ProbeReport:
    pair = _pair_from(cfg)
    grid = _grid_from(cfg)
    seed = int(cfg.get("seed", 0))
    coeffs = _coeffs_from(cfg, grid, pair.big_n)
    op = hodge.VariableOp(pair, coeffs, grid)
    t = grid.cell_width * int(cfg.get("scale_cells", 2))
    res = quadest.offdiagonal_probe(op, t, trials=int(cfg.get("trials", 2)), seed=seed)
    return ProbeReport(
        "offdiagonal-decay",
        seed,
        canonical_digest(cfg),
        {"rho": res.rho_values, "ratios": res.ratios, "exponent": res.decay_exponent},
        {"decaying": res.decay_exponent >= 1.0},
    )


def _first_order_from(cfg) -> dacorr.FirstOrderD:
    sym = symbols.HomogeneousSymbol(1, 1, 1, {(1,): np.array([[1.0]], dtype=complex)})
    return dacorr.FirstOrderD.verified(sym)


def probe_block(cfg) -> ProbeReport:
    grid = _grid_from(cfg)
    seed = int(cfg.get("seed", 0))
    d = _first_order_from(cfg)
    a = hodge.perturbed_identity(grid, 1, float(cfg.get("eps", 0.05)), seed + 67)
    block = dacorr.build_block(d, a, seed=seed)
    comp = dacorr.composition(d, a, grid)
    u2 = torus.random_band_limited(grid, 2, seed=seed + 2)
    u1c, u2c = dacorr.split_components(u2, 1)
    direct = dacorr.stack_components(
        a.apply(comp.apply(u2c)), torus.apply_multiplier(comp.d_op, u1c)
    )
    structure = torus.lp_norm(block.apply(u2) - direct, 2.0) / torus.lp_norm(u2, 2.0)
    t = 0.7
    v = torus.random_band_limited(grid, 2, seed=seed + 3)
    lhs = hodge.variable_resolvent(block, t, v, rtol=1e-12)
    rhs = dacorr.block_resolvent_product(d, a, t, v, rtol=1e-12)
    factor = torus.lp_norm(lhs - rhs, 2.0) / torus.lp_norm(v, 2.0)
    inter = dacorr.intertwine_check(
        d, a, dacorr.f_rational_odd,
        trials=int(cfg.get("trials", 2)), nodes=int(cfg.get("nodes", 128)), seed=seed,
    )
    return ProbeReport(
        "block-correspondence",
        seed,
        canonical_digest(cfg),
        {"structure_residual": structure, "resolvent_product_residual": factor,
         "intertwine_residual": inter},
        {"structure": structure <= 1e-10, "resolvent_product": factor <= 1e-9,
         "intertwine": inter <= 1e-6},
    )


def probe_holomorphy(cfg) -> ProbeReport:
    grid = _grid_from(cfg)
    seed = int(cfg.get("seed", 0))
    d = _first_order_from(cfg)
    u = torus.random_band_limited(grid, 1, seed=seed + 71)
    path = dacorr.CoefficientPath(
        hodge.MatrixField.identity(grid, 1), hodge.random_direction(grid, 1, seed + 71)
    )
    radius = float(cfg.get("radius", 0.3))
    nodes = int(cfg.get("circle_nodes", 16))
    cn = int(cfg.get("nodes", 128))
    r1 = dacorr.holomorphy_probe(
        path, d, dacorr.f_rational_odd, u, radius=radius, nodes=nodes, calculus_nodes=cn
    )
    r2 = dacorr.holomorphy_probe(
        path, d, dacorr.f_rational_odd, u, radius=radius, nodes=2 * nodes,
        calculus_nodes=cn,
    )
    improves = r1.residual >= 4.0 * r2.residual
    return ProbeReport(
        "holomorphy",
        seed,
        canonical_digest(cfg),
        {"residual": r1.residual, "residual_refined": r2.residual,
         "radius": radius, "circle_nodes": nodes},
        {"residual_small": r1.residual <= 1e-4, "improves_4x": bool(improves)},
    )


def probe_lipschitz(cfg) -> ProbeReport:
    grid = _grid_from(cfg)
    seed = int(cfg.get("seed", 0))
    d = _first_order_from(cfg)
    eye = hodge.MatrixField.identity(grid, 1)
    e = hodge.random_direction(grid, 1, seed + 73)
    ratios = []
    for eps in cfg.get("deltas", [0.04, 0.02, 0.01]):
        rep = dacorr.lipschitz_probe(
            d, eye, eye + eps * e, dacorr.f_rational_odd,
            trials=int(cfg.get("trials", 2)), calculus_nodes=int(cfg.get("nodes", 128)),
            seed=seed,
        )
        ratios.append({"delta": eps, "ratio": rep.max_ratio})
    vals = [r["ratio"] for r in ratios if r["ratio"] > 0]
    spread = max(vals) / min(vals) if vals else math.inf
    pair = symbols.dirac_pair_1d()
    grid_small = torus.TorusGrid(1, int(cfg.get("triple_g", 16)))
    params = symbols.verify_hodge_pair(pair).params
    ca = hodge.CoefficientPair(
        hodge.perturbed_identity(grid_small, 2, 0.05, seed + 81, diagonal=True),
        hodge.perturbed_identity(grid_small, 2, 0.05, seed + 82, diagonal=True),
    )
    cb = hodge.CoefficientPair(
        hodge.perturbed_identity(grid_small, 2, 0.03, seed + 83, diagonal=True),
        hodge.perturbed_identity(grid_small, 2, 0.03, seed + 84, diagonal=True),
    )
    u = torus.random_band_limited(grid_small, 2, seed=seed + 85)
    triple = dacorr.lipschitz_triple_decomposition(
        pair, ca, cb, dacorr.f_rational_odd, u, params
    )
    return ProbeReport(
        "lipschitz",
        seed,
        canonical_digest(cfg),
        {"sweep": ratios, "spread": spread,
         "triple_identity_residual": triple["identity_residual"]},
        {"stable_band": spread <= 4.0,
         "triple_identity": triple["identity_residual"] <= 1e-8},
    )


PROBES = {
    "symbol": probe_symbol,
    "mikhlin": probe_mikhlin,
    "hodge-const": probe_hodge_const,
    "hodge-var": probe_hodge_var,
    "perturb": probe_perturb,
    "quadest": probe_quadest,
    "translated": probe_translated,
    "reproducing": probe_reproducing,
    "schur": probe_schur,
    "offdiag": probe_offdiag,
    "block": probe_block,
    "holomorphy": probe_holomorphy,
    "lipschitz": probe_lipschitz,
}

SUITES = {
    "smoke": {
        "probes": list(PROBES),
        "defaults": {
            "grid": {"n": 1, "g": 64},
            "sphere_samples": 64,
            "samples": 32,
            "trials": 2,
            "k_min": -5,
            "k_max": 5,
            "windows": [4, 8, 12, 16],
            "tolerance": 1e-5,
            "deltas": [0.04, 0.02],
            "nodes": 96,
            "circle_nodes": 8,
            "triple_g": 8,
            "overrides": {
                "hodge-var": {"grid": {"n": 1, "g": 16}, "tolerance": 1e-6},
                "perturb": {"grid": {"n": 1, "g": 8}},
                "offdiag": {"grid": {"n": 1, "g": 32}},
                "holomorphy": {"grid": {"n": 1, "g": 32}},
                "lipschitz": {"grid": {"n": 1, "g": 32}},
                "block": {"grid": {"n": 1, "g": 32}},
            },
        },
    },
    "symbols": {"probes": ["symbol", "mikhlin"], "defaults": {}},
    "hodge-const": {"probes": ["hodge-const"], "defaults": {"grid": {"n": 1, "g": 256}}},
    "hodge-var": {"probes": ["hodge-var"], "defaults": {"grid": {"n": 1, "g": 16}}},
    "perturb": {"probes": ["perturb"], "defaults": {"grid": {"n": 1, "g": 8},
                                                    "deltas": [0.04, 0.02, 0.01]}},
    "quadest": {"probes": ["quadest", "translated", "schur", "offdiag"],
                "defaults": {"grid": {"n": 1, "g": 64}}},
    "reproducing": {"probes": ["reproducing"],
                    "defaults": {"grid": {"n": 1, "g": 256},
                                 "windows": [4, 8, 12, 16, 20]}},
    "block": {"probes": ["block"], "defaults": {"grid": {"n": 1, "g": 64}}},
    "holomorphy": {"probes": ["holomorphy"], "defaults": {"grid": {"n": 1, "g": 32}}},
    "lipschitz": {"probes": ["lipschitz"], "defaults": {"grid": {"n": 1, "g": 32}}},
}


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def run_suite(name: str, config: dict, out_dir: Path, *, threads: int = 1, plots=False):
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; options: {sorted(SUITES)}")
    suite = SUITES[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for probe_name in suite["probes"]:
        cfg = _merge(suite["defaults"], config)
        # per-probe blocks under "overrides" take precedence over suite keys
        overrides = cfg.pop("overrides", {})
        cfg = _merge(cfg, overrides.get(probe_name, {}))
        jobs.append((probe_name, cfg))

    def run_one(item):
        probe_name, cfg = item
        t0 = time.perf_counter()
        try:
            rep = PROBES[probe_name](cfg)
        except OpcalcError as exc:
            rep = ProbeReport(
                probe_name, int(cfg.get("seed", 0)), canonical_digest(cfg),
                {"error": f"{type(exc).__name__}: {exc}"}, {"completed": False},
            )
        rep.timing_s = time.perf_counter() - t0
        return probe_name, rep

    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_one, jobs))
    else:
        results = [run_one(j) for j in jobs]
    reports = []
    for probe_name, rep in sorted(results, key=lambda r: r[0]):
        path = out_dir / f"{name}__{probe_name}.json"
        path.write_text(rep.to_json(), encoding="utf-8")
        reports.append(rep)
    if plots:
        _write_plots(reports, out_dir)
    return reports


def _write_plots(reports, out_dir: Path):
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("plots requested but matplotlib is unavailable; skipping", file=sys.stderr)
        return
    for rep in reports:
        curve = rep.constants.get("curve")
        if rep.probe == "reproducing-sum" and curve:
            fig, ax = plt.subplots()
            ax.semilogy([r["window"] for r in curve], [r["residual"] for r in curve], "o-")
            ax.set_xlabel("window half-width")
            ax.set_ylabel("relative residual")
            fig.savefig(out_dir / "reproducing_residual.png", dpi=120)
            plt.close(fig)
        if rep.probe == "lipschitz":
            sweep = rep.constants.get("sweep") or []
            if sweep:
                fig, ax = plt.subplots()
                ax.loglog([r["delta"] for r in sweep], [r["ratio"] for r in sweep], "o-")
                ax.set_xlabel("coefficient distance")
                ax.set_ylabel("ratio")
                fig.savefig(out_dir / "lipschitz_ratio.png", dpi=120)
                plt.close(fig)
        if rep.probe == "offdiagonal-decay":
            rho = rep.constants.get("rho") or []
            if rho:
                fig, ax = plt.subplots()
                ax.loglog(
                    [1 + r for r in rho], rep.constants["ratios"], "o-"
                )
                ax.set_xlabel("1 + separation")
                ax.set_ylabel("masked-norm ratio")
                fig.savefig(out_dir / "offdiagonal_decay.png", dpi=120)
                plt.close(fig)


def _print_summary(reports):
    width = max(len(r.probe) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        flags = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in r.passes.items())
        print(f"{r.probe:<{width}}  {status}  [{r.timing_s:7.2f}s]  {flags}")


def cmd_analyze_symbol(args) -> int:
    rep = probe_symbol({"symbol": args.file, "sphere_samples": args.sphere_samples})
    print(json.dumps(_plain(rep.constants), sort_keys=True, indent=2))
    print("PASS" if rep.passed else "FAIL")
    if args.json:
        Path(args.json).write_text(rep.to_json(), encoding="utf-8")
    return 0 if rep.passed else 1


def cmd_suite(args) -> int:
    config = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
    if args.seed is not None:
        config["seed"] = args.seed
    seed = config.setdefault("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    threads = int(os.environ.get("OPCALC_THREADS", "1"))
    out_dir = Path(args.out) if args.out else Path(f"reports-{args.name}")
    reports = run_suite(args.name, config, out_dir, threads=threads, plots=args.plots)
    _print_summary(reports)
    return 0 if all(r.passed for r in reports) else 1


def cmd_report(args) -> int:
    directory = Path(args.merge)
    if not directory.is_dir():
        raise ConfigError(f"not a directory: {directory}")
    merged = {}
    for path in sorted(directory.glob("*.json")):
        merged[path.stem] = json.loads(path.read_text(encoding="utf-8"))
    text = json.dumps(merged, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    ok = all(item.get("pass", False) for item in merged.values())
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="opcalc",
        description="Probe suites for bisectorial multiplier calculus on the torus",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    a = sub.add_parser("analyze-symbol", help="verify conditions of a symbol file")
    a.add_argument("file", help="path or bundled:<name>")
    a.add_argument("--sphere-samples", type=int, default=512)
    a.add_argument("--json", default=None, help="also write the report here")
    a.set_defaults(fn=cmd_analyze_symbol)
    s = sub.add_parser("suite", help="run a named probe suite")
    s.add_argument("name", choices=sorted(SUITES))
    s.add_argument("--config", default=None)
    s.add_argument("--out", default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--plots", action="store_true")
    s.set_defaults(fn=cmd_suite)
    r = sub.add_parser("report", help="merge per-probe reports")
    r.add_argument("--merge", required=True)
    r.add_argument("--out", default=None)
    r.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
