"""Acceptance criteria, one test per criterion, printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import json
import time

import numpy as np
import pytest

from opcalc import cli, dacorr, hodge, matcalc, quadest, symbols, torus

from conftest import diagonal_coefficients, diagonalizable_matrix


def announce(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def f_odd(z):
    return z / (1 + z * z)


def test_01_spectral_core_against_eigendecomposition():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(2, 9))
        t, lam, v = diagonalizable_matrix(n, int(rng.integers(2**31)))
        oracle = v @ np.diag(f_odd(lam)) @ np.linalg.inv(v)
        spec = matcalc.default_contour(matcalc.bisector_params(t), nodes=256)
        got = matcalc.contour_fc(t, f_odd, spec)
        worst = max(worst, np.linalg.norm(got - oracle) / np.linalg.norm(oracle))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8, f"max relative error {worst:.3e}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    announce(1, f"contour calculus vs eigendecomposition: err={worst:.2e}, "
                f"{elapsed:.1f}s for 100 matrices")


def test_02_symbol_conditions_and_counterexamples():
    pair = symbols.dirac_pair_1d()
    rep = symbols.verify_hodge_pair(pair)
    assert rep.passed
    assert rep.params.omega <= 1e-8
    assert abs(rep.params.kappa - 1.0) <= 1e-8
    assert abs(rep.params.big_m - 1.0) <= 1e-8
    nilp = symbols.HomogeneousSymbol(
        1, 2, 1, {(1,): np.array([[0.0, 1.0], [0.0, 0.0]])}
    )
    rep_nilp = symbols.verify_symbol_conditions(nilp)
    assert not rep_nilp.passed
    assert symbols.COERCIVE_ON_RANGE in rep_nilp.failures
    bad_pair = symbols.HodgeDiracSymbolPair(pair.gamma, pair.gamma)
    rep_bad = symbols.verify_hodge_pair(bad_pair)
    assert not rep_bad.passed
    assert symbols.COERCIVE_ON_RANGE in rep_bad.failures
    announce(2, f"model pair omega={rep.params.omega:.1e}, kappa={rep.params.kappa}, "
                f"M={rep.params.big_m}; counterexamples fail by name")


def closed_form_mikhlin(kind, order, taus):
    worst = 0.0
    for t in taus:
        for xi in (1.0, -1.0):
            p = 1.0 / (1.0 + t * t * xi * xi)
            dp = -2.0 * t * t * xi * p * p
            ddp = -2.0 * t * t * p * p + 8.0 * t**4 * xi * xi * p**3
            q = t * xi * p
            dq = t * (p + xi * dp)
            ddq = t * (2.0 * dp + xi * ddp)
            pd = (p, dp, ddp)[order]
            qd = (q, dq, ddq)[order]
            if kind == "even":
                val = abs(pd)
            elif kind == "odd":
                val = max(abs(qd), abs(-qd))
            else:
                rd = (-1j * q, -1j * dq, -1j * ddq)[order]
                val = max(abs(pd + rd), abs(pd - rd))
            worst = max(worst, val)
    return worst


def test_03_mikhlin_probe_matches_closed_form():
    pair = symbols.dirac_pair_1d()
    sample = symbols.sphere_sample(1)
    taus = [2.0**k for k in range(-4, 5)]
    alphas = [(0,), (1,), (2,)]
    for kind in ("even", "odd", "resolvent"):
        fam = symbols.resolvent_symbol_family(pair.total(), kind)
        rows = symbols.mikhlin_probe(fam, alphas, sample, taus)
        for row in rows:
            expected = closed_form_mikhlin(kind, sum(row.alpha), taus)
            assert abs(row.value - expected) <= 0.01 * expected, (kind, row.alpha)
            assert row.stable, (kind, row.alpha)
    announce(3, "resolvent-family derivative sups match the closed forms "
                "within 1% and are stable under step halving")


def test_04_reproducing_formula():
    pair = symbols.dirac_pair_1d()
    grid = torus.TorusGrid(1, 256)
    u = torus.random_band_limited(grid, 2, seed=404, band=grid.g // 4,
                                  kill_zero_mode=True)
    gs = torus.GridSymbol(pair.total(), grid)
    _, p_ran = gs.kernel_range
    u = torus.apply_multiplier(p_ran, u)
    t0 = time.perf_counter()
    resid = quadest.reproducing_residual(gs, u, quadest.DyadicScales(-20, 20))
    elapsed = time.perf_counter() - t0
    assert resid <= 1e-5, f"residual {resid:.3e}"
    curve = [
        quadest.reproducing_residual(gs, u, quadest.DyadicScales(-w, w))
        for w in (4, 8, 12, 16, 20)
    ]
    assert all(curve[i + 1] <= curve[i] * 1.1 for i in range(len(curve) - 1)), curve
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s"
    announce(4, f"window [-20,20] residual {resid:.2e} on g=256 in {elapsed:.2f}s, "
                f"monotone curve {['%.1e' % c for c in curve]}")


def test_05_hodge_decompositions():
    pair = symbols.dirac_pair_1d()
    grid = torus.TorusGrid(1, 256)
    proj = hodge.constant_hodge_projections(pair, grid)
    gamma_op = torus.GridSymbol(pair.gamma, grid).multiplier()
    gt_op = torus.GridSymbol(pair.gamma_tilde, grid).multiplier()
    worst = 0.0
    for seed in (1, 2):
        u = torus.random_band_limited(grid, 2, seed=seed)
        un = torus.lp_norm(u, 2.0)
        s = proj.p0(u) + proj.p_gamma(u) + proj.p_gamma_tilde(u)
        worst = max(worst, torus.lp_norm(s - u, 2.0) / un)
        for fn in (proj.p0, proj.p_gamma, proj.p_gamma_tilde):
            v = fn(u)
            worst = max(worst, torus.lp_norm(fn(v) - v, 2.0) / un)
        gu = torus.apply_multiplier(gamma_op, u)
        worst = max(worst, torus.lp_norm(gu - proj.p_gamma(gu), 2.0) / un)
        gtu = torus.apply_multiplier(gt_op, u)
        worst = max(worst, torus.lp_norm(gtu - proj.p_gamma_tilde(gtu), 2.0) / un)
    assert worst <= 1e-10, f"constant-case residual {worst:.3e}"
    grid16 = torus.TorusGrid(1, 16)
    coeffs = diagonal_coefficients(grid16, 2, 0.05, 505)
    op = hodge.VariableOp(pair, coeffs, grid16)
    proj_v = hodge.variable_hodge_projections(op, seed=505)
    dense = hodge.dense_hodge_projections(op)
    worst_v = 0.0
    for seed in (3, 4, 5):
        u = torus.random_band_limited(grid16, 2, seed=seed)
        un = torus.lp_norm(u, 2.0)
        for fn, mat in zip((proj_v.p0, proj_v.p_gamma, proj_v.p_gamma_tilde), dense):
            ref = torus.GridField.from_flat(grid16, 2, mat @ u.flat())
            worst_v = max(worst_v, torus.lp_norm(fn(u) - ref, 2.0) / un)
    assert worst_v <= 1e-6, f"variable-case difference {worst_v:.3e}"
    announce(5, f"constant identities {worst:.2e} (g=256); "
                f"limit formulas vs dense oracle {worst_v:.2e} (g=16)")


def test_06_perturbation_scaling():
    pair = symbols.dirac_pair_1d()
    grid = torus.TorusGrid(1, 8)
    base = hodge.VariableOp.constant(pair, grid)
    eye = torus.MatrixField.identity(grid, 2)
    e1 = hodge.diagonal_direction(grid, 2, 606)
    e2 = hodge.diagonal_direction(grid, 2, 607)
    ratios = {k: [] for k in ("p0", "p_gamma", "p_gamma_tilde", "restricted_inverse")}
    for d in (0.04, 0.02, 0.01):
        coeffs = hodge.CoefficientPair(eye + (d / 2) * e1, eye + (d / 2) * e2)
        rep = hodge.hodge_perturbation_report(
            base, hodge.VariableOp(pair, coeffs, grid)
        )
        for k in ratios:
            ratios[k].append(rep.ratios[k])
    for k, vals in ratios.items():
        assert max(vals) <= 4.0 * min(vals), (k, vals)
    rng = np.random.default_rng(37)
    dim = 16
    p0 = np.zeros((dim, dim), dtype=complex)
    p0[:6, :6] = np.eye(6)
    p1 = np.eye(dim) - p0
    t = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    t *= 0.1 / matcalc.operator_norm(t)
    out = hodge.perturb_splitting(p0, p1, t)
    ident = matcalc.operator_norm(out.p0_new + out.p1_new - np.eye(dim))
    idem = matcalc.operator_norm(out.p0_new @ out.p0_new - out.p0_new)
    assert max(ident, idem) <= 1e-10
    announce(6, f"difference/delta ratios within factor-4 bands "
                f"{ {k: ['%.3g' % v for v in vals] for k, vals in ratios.items()} }; "
                f"splitting identities {max(ident, idem):.2e}")


def test_07_quadratic_estimates():
    pair = symbols.dirac_pair_1d()
    grid = torus.TorusGrid(1, 64)
    scales = quadest.DyadicScales(-6, 6)
    gs = torus.GridSymbol(pair.total(), grid)
    _, p_ran = gs.kernel_range
    u = torus.apply_multiplier(
        p_ran, torus.random_band_limited(grid, 2, seed=707, kill_zero_mode=True)
    )
    fields = quadest.bandpass_fields_constant(gs, u, scales)
    est = quadest.rademacher_norm(fields, p=2.0, samples=128, seed=7)
    exact_sq = quadest.exact_l2_square_expectation(fields)
    assert abs(est.mean_square - exact_sq) <= 3.0 * est.std_error_square, (
        est.mean_square, exact_sq, est.std_error_square,
    )
    constants = []
    for g, samples in ((64, 64), (128, 64), (64, 256)):
        gsg = torus.GridSymbol(pair.total(), torus.TorusGrid(1, g))
        _, pr = gsg.kernel_range
        v = torus.apply_multiplier(
            pr, torus.random_band_limited(gsg.grid, 2, seed=708, kill_zero_mode=True)
        )
        rep = quadest.quadratic_estimate(gsg, v, scales, samples=samples, seed=8)
        assert 1.0 <= rep.constant
        constants.append(rep.constant)
    assert max(constants) <= 2.0 * min(constants), constants
    zs = [1.0, 4.0, 16.0]
    reps = quadest.translated_quadratic_estimate(gs, u, zs, scales, samples=64, seed=9)
    means = [rep.estimate.mean for rep in reps]
    base = quadest.quadratic_estimate(gs, u, scales, samples=64, seed=9)
    slope = float(np.polyfit(np.log(zs), means, 1)[0])
    assert slope <= base.estimate.mean, (slope, base.estimate.mean)
    announce(7, f"p=2 closed form within 3 SE; two-sided constants {constants} "
                f"stable; translated slope {slope:.3g} <= {base.estimate.mean:.3g}")


def test_08_block_correspondence():
    grid = torus.TorusGrid(1, 64)
    dsym = symbols.HomogeneousSymbol(1, 1, 1, {(1,): np.array([[1.0]], dtype=complex)})
    d = dacorr.FirstOrderD.verified(dsym)
    a = torus.MatrixField.identity(grid, 1) + 0.05 * hodge.random_direction(grid, 1, 808)
    worst = 0.0
    for f in dacorr.TEST_FAMILY.values():
        worst = max(
            worst,
            dacorr.intertwine_check(d, a, f, trials=2, nodes=128, seed=80),
        )
    assert worst <= 1e-6, f"intertwine residual {worst:.3e}"
    block = dacorr.build_block(d, a, seed=81)
    v = torus.random_band_limited(grid, 2, seed=81)
    t = 0.7
    lhs = hodge.variable_resolvent(block, t, v, rtol=1e-12)
    rhs = dacorr.block_resolvent_product(d, a, t, v)
    factor = torus.lp_norm(lhs - rhs, 2.0) / torus.lp_norm(v, 2.0)
    assert factor <= 1e-9, f"3-factor residual {factor:.3e}"
    announce(8, f"intertwining residual {worst:.2e} over the test family; "
                f"3-factor resolvent residual {factor:.2e}")


def test_09_holomorphy_and_lipschitz():
    grid = torus.TorusGrid(1, 32)
    dsym = symbols.HomogeneousSymbol(1, 1, 1, {(1,): np.array([[1.0]], dtype=complex)})
    d = dacorr.FirstOrderD.verified(dsym)
    path = dacorr.CoefficientPath(
        torus.MatrixField.identity(grid, 1), hodge.random_direction(grid, 1, 909)
    )
    u = torus.random_band_limited(grid, 1, seed=909)
    rep = dacorr.holomorphy_probe(path, d, matcalc.f_rational_odd, u, radius=0.3, nodes=16)
    r16, r32 = rep.residual, rep.residual_refined
    assert r16 <= 1e-4, f"residual {r16:.3e}"
    assert r32 <= r16 / 4.0, (r16, r32)
    eye = torus.MatrixField.identity(grid, 1)
    e = hodge.random_direction(grid, 1, 910)
    sweep = dacorr.lipschitz_probe(
        d, eye, [eye + eps * e for eps in (0.04, 0.02, 0.01)], matcalc.f_rational_odd,
        trials=2, seed=91,
    )
    ratios = [r.max_ratio for r in sweep]
    assert max(ratios) <= 4.0 * min(ratios), ratios
    pair = symbols.dirac_pair_1d()
    grid16 = torus.TorusGrid(1, 16)
    ca = diagonal_coefficients(grid16, 2, 0.05, 911)
    cb = diagonal_coefficients(grid16, 2, 0.02, 913)
    w = torus.random_band_limited(grid16, 2, seed=914)
    triple = dacorr.lipschitz_triple_decomposition(pair, ca, cb, matcalc.f_rational_odd, w)
    assert triple <= 1e-8
    announce(9, f"holomorphy {r16:.2e} -> {r32:.2e} "
                f"(16 -> 32 nodes); Lipschitz ratios {['%.3g' % r for r in ratios]}; "
                f"triple identity {triple:.2e}")


def test_10_smoke_suite_runtime_and_determinism(tmp_path):
    cfg = {"seed": 1010}
    t0 = time.perf_counter()
    reports = cli.run_suite("smoke", cfg, tmp_path / "a", threads=1)
    elapsed = time.perf_counter() - t0
    assert all(r.passed for r in reports), [
        (r.probe, r.passes) for r in reports if not r.passed
    ]
    assert elapsed < 60.0, f"smoke suite took {elapsed:.1f}s"
    cli.run_suite("smoke", cfg, tmp_path / "b", threads=1)
    for fa in sorted((tmp_path / "a").glob("*.json")):
        fb = tmp_path / "b" / fa.name
        assert fa.read_bytes() == fb.read_bytes(), fa.name
    announce(10, f"smoke suite: {len(reports)} probes pass in {elapsed:.1f}s, "
                 f"reports byte-identical across reruns")
