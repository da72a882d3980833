"""Command-line driver: symbol analysis, probe suites, report merging.

Reports are canonical JSON (sorted keys, no wall-clock content), so a
rerun with the same config and seed produces byte-identical files.
Timings go to the console summary only.

Exit codes: 0 all probes pass, 1 at least one probe fails, 2 bad
configuration, unreadable input or unwritable output.
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
import traceback
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
    """obj as JSON values, with every non-finite float as null (strict JSON)."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, complex):
        return [_plain(obj.real), _plain(obj.imag)]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def canonical_digest(cfg: dict) -> str:
    blob = json.dumps(_plain(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load_symbol_arg(name_or_path: str):
    if not isinstance(name_or_path, str):
        raise ConfigError(f"symbol must be a name or a path, got {name_or_path!r}")
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
    except (ConfigError, ValueError, TypeError, OverflowError, OSError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


# ---------------------------------------------------------------------------
# The config surface.  READERS turns the raw value of one key into a typed
# value; a reader may use the values already read for the same probe, so
# PROBE_KEYS lists seed, symbol and grid before the keys that need them.
# ---------------------------------------------------------------------------

# scalar d/dx on the line: the first-order operator of block, holomorphy
# and lipschitz
DX = symbols.HomogeneousSymbol(1, 1, 1, {(1,): np.array([[1.0]], dtype=complex)})


def _integer(least: int | None = None):
    def read(raw, got) -> int:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise TypeError(f"need an integer, got {raw!r}")
        if least is not None and raw < least:
            raise ValueError(f"need at least {least}, got {raw}")
        return raw

    return read


def _real(*, positive: bool):
    def read(raw, got) -> float:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise TypeError(f"need a number, got {raw!r}")
        x = float(raw)
        if not math.isfinite(x) or (positive and x <= 0):
            raise ValueError(f"need a finite{' positive' if positive else ''} number, got {x}")
        return x

    return read


def _nonempty_list(item):
    def read(raw, got) -> list:
        if not isinstance(raw, (list, tuple)) or not raw:
            raise TypeError(f"expected a non-empty list, got {raw!r}")
        return [item(x, got) for x in raw]

    return read


def _object(raw) -> dict:
    if not isinstance(raw, dict):
        raise TypeError(f"expected an object, got {raw!r}")
    return raw


def _grid(raw, got) -> torus.TorusGrid:
    g = _object(raw)
    grid = torus.TorusGrid(
        _integer()(g.get("n", 1), got),
        _integer()(g.get("g", 64), got),
        _real(positive=True)(g.get("length", 2 * math.pi), got),
    )
    n = got["symbol"].n if "symbol" in got else DX.n
    if grid.n != n:
        raise ValueError(f"the grid has {grid.n} axes, the symbol {n}")
    return grid


def _coefficients(raw, got) -> hodge.CoefficientPair:
    c, seed = _object(raw), got["seed"]
    fields = []
    for key, offset in (("b1", 23), ("b2", 24)):
        expr = c.get(key, f"identity+0.05*diagrandom({seed + offset})")
        if not isinstance(expr, str):
            raise TypeError(f"{key}: expected a string, got {expr!r}")
        fields.append(hodge.parse_coefficient(expr, got["grid"], got["symbol"].big_n))
    return hodge.CoefficientPair(*fields)


def _scale_window(k_min: int, k_max: int) -> int:
    quadest.DyadicScales(k_min, k_max)  # raises on an empty or too wide window
    return k_max


READERS = {
    "seed": _integer(0),
    "symbol": lambda raw, got: load_symbol_arg(raw),
    "grid": _grid,
    "coefficients": _coefficients,
    "sphere_samples": _integer(1),
    "samples": _integer(16),
    "trials": _integer(1),
    "circle_nodes": _integer(1),
    "k_min": _integer(),
    "k_max": lambda raw, got: _scale_window(got["k_min"], _integer()(raw, got)),
    "windows": _nonempty_list(lambda raw, got: _scale_window(-_integer()(raw, got), raw)),
    "triple_g": lambda raw, got: torus.TorusGrid(1, _integer()(raw, got)),
    "tolerance": _real(positive=True),
    "eps": _real(positive=False),
    "deltas": _nonempty_list(_real(positive=True)),
}

PAIR = "bundled:dirac1d"
DELTAS = [0.04, 0.02, 0.01]

# probe -> its keys, in reading order, with their defaults
PROBE_KEYS = {
    "symbol": {"seed": 0, "symbol": PAIR, "sphere_samples": 512},
    "mikhlin": {"seed": 0, "symbol": PAIR, "sphere_samples": 64},
    "hodge-const": {"seed": 0, "symbol": PAIR, "grid": {}, "trials": 3, "tolerance": 1e-10},
    "hodge-var": {"seed": 0, "symbol": PAIR, "grid": {}, "coefficients": {},
                  "tolerance": 1e-6},
    "perturb": {"seed": 0, "symbol": PAIR, "grid": {}, "deltas": DELTAS},
    "quadest": {"seed": 0, "symbol": PAIR, "grid": {}, "samples": 64, "k_min": -6, "k_max": 6},
    "translated": {"seed": 0, "symbol": PAIR, "grid": {}, "samples": 32, "k_min": -6,
                   "k_max": 6},
    "reproducing": {"seed": 0, "symbol": PAIR, "grid": {}, "windows": [4, 8, 12, 16, 20],
                    "tolerance": 1e-5},
    "schur": {"seed": 0, "symbol": PAIR, "grid": {}, "trials": 4},
    "offdiag": {"seed": 0, "symbol": PAIR, "grid": {}, "coefficients": {}, "trials": 2},
    "block": {"seed": 0, "grid": {}, "eps": 0.05, "trials": 2},
    "holomorphy": {"seed": 0, "grid": {}, "circle_nodes": 16},
    "lipschitz": {"seed": 0, "grid": {}, "deltas": DELTAS, "trials": 2, "triple_g": 16},
}


def read_config(probe: str, cfg: dict) -> dict:
    """The typed values of ``probe``'s keys in its merged config ``cfg``.

    A missing key takes its default.  A bad value raises a ConfigError
    that names the probe and the key.
    """
    values = {}
    for key, default in PROBE_KEYS[probe].items():
        with _config_values(f"{key} for probe {probe}"):
            values[key] = READERS[key](cfg.get(key, default), values)
            needs_pair = key == "symbol" and probe != "symbol"
            if needs_pair and not isinstance(values[key], symbols.HodgeDiracSymbolPair):
                raise TypeError("this probe needs a symbol pair, got a single symbol")
    return values


# ---------------------------------------------------------------------------
# Probes.  Each takes, as keywords, the values read_config read for it and
# returns (report name, constants, passes).  Every probe gets its seed, which
# the report records, whether or not the probe draws from it.
# ---------------------------------------------------------------------------


def probe_symbol(seed, symbol, sphere_samples):
    sample = symbols.sphere_sample(symbol.n, sphere_samples)
    if isinstance(symbol, symbols.HodgeDiracSymbolPair):
        rep = symbols.verify_hodge_pair(symbol, sample)
    else:
        rep = symbols.verify_symbol_conditions(symbol, sample)
    constants = {"failures": rep.failures}
    if rep.params is not None:
        constants.update(
            omega=rep.params.omega, kappa=rep.params.kappa, big_m=rep.params.big_m
        )
    return "symbol-conditions", constants, {"conditions": rep.passed}


def probe_mikhlin(seed, symbol, sphere_samples):
    sample = symbols.sphere_sample(symbol.n, sphere_samples)
    taus = [2.0**k for k in range(-4, 5)]
    alphas = [(0,), (1,), (2,)] if symbol.n == 1 else None
    table = {}
    stable = True
    for kind in ("resolvent", "even", "odd"):
        fam = symbols.resolvent_symbol_family(symbol.total(), kind)
        rows = symbols.mikhlin_probe(fam, alphas, sample, taus)
        table[kind] = [
            {"alpha": list(r.alpha), "value": r.value, "half": r.value_half_step}
            for r in rows
        ]
        stable = stable and all(r.stable for r in rows)
    return "mikhlin", {"table": table}, {"stable_under_step_halving": stable}


def probe_hodge_const(seed, symbol, grid, trials, tolerance):
    proj = hodge.constant_hodge_projections(symbol, grid)
    gamma_op = torus.GridSymbol(symbol.gamma, grid).multiplier()
    gt_op = torus.GridSymbol(symbol.gamma_tilde, grid).multiplier()
    us = torus.GridField.stack([
        torus.random_band_limited(grid, symbol.big_n, seed=seed + trial) for trial in range(trials)
    ])
    un = torus.lp_norms(us, 2.0)
    vs = [p.apply(us) for p in proj]
    worst_sum = torus.max_ratio(vs[0] + vs[1] + vs[2] - us, 2.0, un)
    worst_idem = max(0.0, *(torus.max_ratio(p.apply(v) - v, 2.0, un) for p, v in zip(proj, vs)))
    gu = torus.apply_multiplier(gamma_op, us)
    gtu = torus.apply_multiplier(gt_op, us)
    worst_annih = max(
        torus.max_ratio(gu - proj.p_gamma.apply(gu), 2.0, un),
        torus.max_ratio(gtu - proj.p_gamma_tilde.apply(gtu), 2.0, un),
    )
    return (
        "hodge-constant",
        {
            "sum_residual": worst_sum,
            "idempotence_residual": worst_idem,
            "range_residual": worst_annih,
        },
        {"sum": worst_sum <= tolerance, "idempotence": worst_idem <= tolerance,
         "ranges": worst_annih <= 1e-8},
    )


def probe_hodge_var(seed, symbol, grid, coefficients, tolerance):
    op = hodge.VariableOp(symbol, coefficients, grid)
    cond = hodge.check_coefficient_conditions(op, seed=seed)
    # first, so that its solves do not overlap the stacks the projections keep
    res = hodge.underline_intertwining_residual(op, 2.0, seed=seed)
    limit = hodge.variable_hodge_projections(op, seed=seed)
    constants = {
        "nilpotence_residual": cond.nilpotence_residual,
        "coercivity": cond.coercivity_primal,
        "coercivity_dual": cond.coercivity_dual,
        "curve": limit.curve,
    }
    passes = {"coefficient_conditions": cond.passed}
    if op.dim <= 4096:
        # the projections the curve settled on, against the dense oracle
        us = limit.fields
        un = torus.lp_norms(us, 2.0)
        cols = us.values.reshape(us.batch[0], -1).T
        worst = 0.0
        for val, mat in zip(limit.final, hodge.dense_hodge_projections(op)):
            ref = torus.GridField(grid, (mat @ cols).T.reshape(us.values.shape))
            worst = max(worst, torus.max_ratio(val - ref, 2.0, un))
        constants["limit_vs_dense"] = worst
        passes["limit_vs_dense"] = worst <= tolerance
    constants["swap_intertwining"] = res
    passes["swap_intertwining"] = res <= 1e-8
    return "hodge-variable", constants, passes


def probe_perturb(seed, symbol, grid, deltas):
    e1 = hodge.diagonal_direction(grid, symbol.big_n, seed + 41)
    e2 = hodge.diagonal_direction(grid, symbol.big_n, seed + 42)
    base = hodge.VariableOp.constant(symbol, grid)
    eye = torus.MatrixField.identity(grid, symbol.big_n)
    pairs = [hodge.CoefficientPair(eye + (d / 2) * e1, eye + (d / 2) * e2) for d in deltas]
    others = [hodge.VariableOp(symbol, coeffs, grid) for coeffs in pairs]
    # read_config keeps the deltas positive
    ratio_rows = [{"delta": rep.delta, **{k: d / rep.delta for k, d in rep.diffs.items()}}
                  for rep in hodge.hodge_perturbation_report(base, others)]
    spread = 0.0
    for key in ("p0", "p_gamma", "p_gamma_tilde"):
        vals = [r[key] for r in ratio_rows if r[key] > 0]
        if vals:
            spread = max(spread, max(vals) / min(vals))
    rng = np.random.default_rng(seed + 37)
    dim = 24
    p0 = np.zeros((dim, dim), dtype=complex)
    p0[: dim // 2, : dim // 2] = np.eye(dim // 2)
    p1 = np.eye(dim) - p0
    t_dir = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    t_dir /= matcalc.operator_norm(t_dir)
    split = hodge.perturb_splitting(p0, p1, 0.1 * t_dir)
    ident = matcalc.operator_norm(split.p0_new + split.p1_new - np.eye(dim))
    idem = matcalc.operator_norm(split.p0_new @ split.p0_new - split.p0_new)
    return (
        "perturbation",
        {"ratios": ratio_rows, "ratio_spread": spread,
         "split_sum_residual": ident, "split_idem_residual": idem},
        {"ratio_band": spread <= 4.0, "split_identities": max(ident, idem) <= 1e-10},
    )


def probe_quadest(seed, symbol, grid, samples, k_min, k_max):
    scales = quadest.DyadicScales(k_min, k_max)
    gs = torus.GridSymbol(symbol.total(), grid)
    _, p_ran = gs.kernel_range
    u = torus.apply_multiplier(
        p_ran, torus.random_band_limited(grid, symbol.big_n, seed=seed + 5)
    )
    rep = quadest.quadratic_estimate(gs, u, scales, samples=samples, seed=seed)
    est = rep.estimate
    sq_err = abs(est.mean_square - est.exact_square)
    # 5 standard errors: the gate must hold for every user-chosen seed, and
    # the squared-norm distribution is skewed enough that 3 SE trips on
    # roughly 1 seed in 100 at small sample counts
    sq_ok = sq_err <= 5.0 * max(est.std_error_square, 1e-14)
    return (
        "quadratic-estimate",
        {
            "params": {"k_min": k_min, "k_max": k_max, "samples": samples, "p": 2.0},
            "mean": est.mean,
            "std_error": est.std_error,
            "mean_square": est.mean_square,
            "exact_square": est.exact_square,
            "constant": rep.constant,
        },
        {"closed_form_within_5se": bool(sq_ok), "bounded": rep.constant < 1e3},
    )


def probe_translated(seed, symbol, grid, samples, k_min, k_max):
    scales = quadest.DyadicScales(k_min, k_max)
    u = torus.random_band_limited(grid, symbol.big_n, seed=seed + 59, kill_zero_mode=True)
    zms = (0.0, 1.0, 4.0, 16.0)
    reps = quadest.translated_quadratic_estimate(
        torus.GridSymbol(symbol.total(), grid), u, np.outer(zms, np.eye(grid.n)[0]), scales,
        samples=samples, seed=seed,
    )
    rows = [{"z": zm, "mean": r.estimate.mean, "ratio": r.ratio} for zm, r in zip(zms, reps)]
    un = torus.lp_norm(u, 2.0)
    pos = [r for r in rows if r["z"] > 1.0]
    slope = float(
        np.polyfit([math.log(r["z"]) for r in pos], [r["mean"] for r in pos], 1)[0]
    ) / un
    base = rows[0]["mean"] / un
    return (
        "translated-quadratic",
        {"rows": rows, "fitted_slope": slope, "base_ratio": base},
        {"log_growth": slope <= base},
    )


def probe_reproducing(seed, symbol, grid, windows, tolerance):
    u = torus.random_band_limited(
        grid, symbol.big_n, seed=seed + 43, band=grid.g // 4, kill_zero_mode=True
    )
    gs = torus.GridSymbol(symbol.total(), grid)
    u = torus.apply_multiplier(gs.kernel_range[1], u)
    rows = [
        {"window": w, "residual": quadest.reproducing_residual(gs, u, quadest.DyadicScales(-w, w))}
        for w in windows
    ]
    monotone = all(
        rows[i + 1]["residual"] <= rows[i]["residual"] * 1.1 for i in range(len(rows) - 1)
    )
    final = rows[-1]["residual"]
    return (
        "reproducing-sum",
        {"curve": rows},
        {"monotone": monotone, "final_residual": final <= tolerance},
    )


def probe_schur(seed, symbol, grid, trials):
    ts = [2.0**k for k in range(-3, 4, 2)]
    res = quadest.schur_bound_probe(
        torus.GridSymbol(symbol.total(), grid), matcalc.f_rational_odd, ts, ts, trials=trials,
        seed=seed,
    )
    return (
        "schur-bound",
        {"max_ratio": res.max_ratio, "table": res.table},
        {"bounded": res.max_ratio < 100.0},
    )


def probe_offdiag(seed, symbol, grid, coefficients, trials):
    op = hodge.VariableOp(symbol, coefficients, grid)
    res = quadest.offdiagonal_probe(op, 2 * grid.cell_width, trials=trials, seed=seed)
    return (
        "offdiagonal-decay",
        {"rho": res.rho_values, "ratios": res.ratios, "exponent": res.decay_exponent},
        {"decaying": res.decay_exponent >= 1.0},  # False for a nan exponent
    )


def probe_block(seed, grid, eps, trials):
    d = dacorr.FirstOrderD.verified(DX)
    a = hodge.perturbed_identity(grid, 1, eps, seed + 67)
    block = dacorr.build_block(d, a, seed=seed)
    comp = dacorr.CompositionOp(d.symbol, a)
    u2 = torus.random_band_limited(grid, 2, seed=seed + 2)
    u1c, u2c = dacorr.split_components(u2, 1)
    direct = dacorr.stack_components(
        a.apply(comp.apply(u2c)), torus.apply_multiplier(comp.d_op, u1c)
    )
    structure = torus.lp_norm(block.apply(u2) - direct, 2.0) / torus.lp_norm(u2, 2.0)
    t = 0.7
    v = torus.random_band_limited(grid, 2, seed=seed + 3)
    lhs = hodge.variable_resolvent(block, t, v, rtol=1e-12)
    rhs = dacorr.block_resolvent_product(d, a, t, v)
    factor = torus.lp_norm(lhs - rhs, 2.0) / torus.lp_norm(v, 2.0)
    inter = dacorr.intertwine_check(d, a, matcalc.f_rational_odd, trials=trials, seed=seed)
    return (
        "block-correspondence",
        {"structure_residual": structure, "resolvent_product_residual": factor,
         "intertwine_residual": inter},
        {"structure": structure <= 1e-10, "resolvent_product": factor <= 1e-9,
         "intertwine": inter <= 1e-6},
    )


def probe_holomorphy(seed, grid, circle_nodes):
    d = dacorr.FirstOrderD.verified(DX)
    u = torus.random_band_limited(grid, 1, seed=seed + 71)
    path = dacorr.CoefficientPath(
        torus.MatrixField.identity(grid, 1), hodge.random_direction(grid, 1, seed + 71)
    )
    radius = 0.3
    rep = dacorr.holomorphy_probe(
        path, d, matcalc.f_rational_odd, u, radius=radius, nodes=circle_nodes
    )
    improves = rep.residual >= 4.0 * rep.residual_refined
    return (
        "holomorphy",
        {"residual": rep.residual, "residual_refined": rep.residual_refined,
         "radius": radius, "circle_nodes": circle_nodes},
        {"residual_small": rep.residual <= 1e-4, "improves_4x": bool(improves)},
    )


def probe_lipschitz(seed, grid, deltas, trials, triple_g):
    d = dacorr.FirstOrderD.verified(DX)
    eye = torus.MatrixField.identity(grid, 1)
    e = hodge.random_direction(grid, 1, seed + 73)
    reps = dacorr.lipschitz_probe(
        d, eye, [eye + eps * e for eps in deltas], matcalc.f_rational_odd, trials=trials, seed=seed
    )
    ratios = [{"delta": eps, "ratio": rep.max_ratio} for eps, rep in zip(deltas, reps)]
    vals = [r["ratio"] for r in ratios if r["ratio"] > 0]
    spread = max(vals) / min(vals) if vals else math.inf
    pair = symbols.dirac_pair_1d()
    ca = hodge.CoefficientPair(
        hodge.perturbed_identity(triple_g, 2, 0.05, seed + 81, diagonal=True),
        hodge.perturbed_identity(triple_g, 2, 0.05, seed + 82, diagonal=True),
    )
    cb = hodge.CoefficientPair(
        hodge.perturbed_identity(triple_g, 2, 0.03, seed + 83, diagonal=True),
        hodge.perturbed_identity(triple_g, 2, 0.03, seed + 84, diagonal=True),
    )
    u = torus.random_band_limited(triple_g, 2, seed=seed + 85)
    triple = dacorr.lipschitz_triple_decomposition(pair, ca, cb, matcalc.f_rational_odd, u)
    return (
        "lipschitz",
        {"sweep": ratios, "spread": spread, "triple_identity_residual": triple},
        {"stable_band": spread <= 4.0, "triple_identity": triple <= 1e-8},
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


# the data an OpcalcError may carry, kept beside "error" in a failed report
ERROR_FIELDS = ("residual", "iterations", "curve", "node", "xi")


def _run_probe(job) -> ProbeReport:
    """Run one probe on its read values; an exception becomes a failed report."""
    probe_name, cfg, values = job
    t0 = time.perf_counter()
    try:
        name, constants, passes = PROBES[probe_name](**values)
    except Exception as exc:  # one probe's crash must not take down the suite
        constants = {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(exc, OpcalcError):
            constants |= {k: v for k in ERROR_FIELDS if (v := getattr(exc, k, None)) is not None}
        else:  # a defect, not a numerical verdict
            traceback.print_exc(file=sys.stderr)
        name, passes = probe_name, {"completed": False}
    rep = ProbeReport(name, values["seed"], canonical_digest(cfg), constants, passes)
    rep.timing_s = time.perf_counter() - t0
    return rep


def run_suite(name: str, config: dict, out_dir: Path, *, threads: int = 1, plots=False):
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; options: {sorted(SUITES)}")
    suite = SUITES[name]
    base = _merge(suite["defaults"], config)
    # per-probe blocks under "overrides" take precedence over suite keys
    overrides = base.pop("overrides", {})
    jobs = []
    for probe_name in suite["probes"]:
        with _config_values("overrides"):
            if not isinstance(overrides, dict):
                raise TypeError(f"expected an object, got {overrides!r}")
            extra = overrides.get(probe_name, {})
            if not isinstance(extra, dict):
                raise TypeError(f"{probe_name}: expected an object, got {extra!r}")
        cfg = _merge(base, extra)
        jobs.append((probe_name, cfg, read_config(probe_name, cfg)))
        for key in sorted(extra.keys() - PROBE_KEYS[probe_name].keys()):
            print(f"warning: probe {probe_name} does not read override key {key!r}; ignored",
                  file=sys.stderr)
    read = {key for probe_name in suite["probes"] for key in PROBE_KEYS[probe_name]}
    for key in sorted(base.keys() - read):
        print(f"warning: no probe of suite {name} reads config key {key!r}; ignored",
              file=sys.stderr)
    for key in sorted(overrides.keys() - set(suite["probes"])):
        print(f"warning: suite {name} has no probe {key!r}; its overrides are ignored",
              file=sys.stderr)

    with _config_values(f"report directory {out_dir}"):
        out_dir.mkdir(parents=True, exist_ok=True)
    paths = {probe_name: out_dir / f"{name}__{probe_name}.json" for probe_name in suite["probes"]}
    for path in paths.values():
        # caught before any probe spends its work; other write errors at the write
        if path.is_dir() or (path.exists() and not os.access(path, os.W_OK)):
            raise ConfigError(f"bad report file {path}: not a writable file")
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_probe, jobs))
    else:
        results = [_run_probe(j) for j in jobs]
    reports = []
    for probe_name, rep in sorted(zip(suite["probes"], results), key=lambda r: r[0]):
        with _config_values(f"report file {paths[probe_name]}"):
            paths[probe_name].write_text(rep.to_json(), encoding="utf-8")
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
    cfg = {"symbol": args.file, "sphere_samples": args.sphere_samples}
    rep = _run_probe(("symbol", cfg, read_config("symbol", cfg)))
    print(json.dumps(_plain(rep.constants), sort_keys=True, indent=2))
    print("PASS" if rep.passed else "FAIL")
    if args.json:
        with _config_values(f"output file {args.json}"):
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
    config.setdefault("seed", 0)  # so the inputs digest covers the seed
    try:
        threads = _integer(1)(int(os.environ.get("OPCALC_THREADS", "1")), {})
    except ValueError as exc:
        raise ConfigError(f"OPCALC_THREADS must be a positive integer: {exc}") from exc
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
        try:
            merged[path.stem] = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read report {path}: {exc}") from exc
        if not isinstance(merged[path.stem], dict):
            raise ConfigError(f"report {path} must hold a JSON object")
    text = json.dumps(merged, sort_keys=True, indent=2) + "\n"
    if args.out:
        with _config_values(f"output file {args.out}"):
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
