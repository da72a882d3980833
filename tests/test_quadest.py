import importlib.util
import inspect
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from opcalc import cli, hodge, krylov, matcalc, quadest, torus

from conftest import (
    bandpass,
    bandpass_fields_by_inverse,
    defective_pair_1d,
    diagonal_coefficients,
    jordan_symbol_2d,
    plane_wave,
    rel_err,
    reproducing_sum_by_inverse,
    schur_table_by_inverse,
    zero_field,
)


def scalar_bandpass(t, x):
    return t * x / (1.0 + t * t * x * x)


def scalar_smoothing(t, x):
    return 1.0 / (1.0 + t * t * x * x)


class TestRademacherNorm:
    def test_single_index_exact(self, dirac_pair, grid64):
        u = torus.random_band_limited(grid64, 2, seed=1)
        est = quadest.rademacher_norm([u], p=2.0, samples=16, seed=0)
        assert est.std_error == 0.0
        assert abs(est.mean - torus.lp_norm(u, 2.0)) < 1e-12

    def test_zero_second_summand(self, grid64):
        u = torus.random_band_limited(grid64, 2, seed=2)
        z = zero_field(grid64, 2)
        est = quadest.rademacher_norm([u, z], p=2.0, samples=16, seed=0)
        assert abs(est.mean - torus.lp_norm(u, 2.0)) < 1e-12

    def test_orthogonal_summands_deterministic(self, grid64):
        # disjoint frequencies: the norm of the signed sum never varies
        u1 = plane_wave(grid64, [1], [1.0, 0.0])
        u2 = plane_wave(grid64, [3], [0.0, 2.0])
        est = quadest.rademacher_norm([u1, u2], p=2.0, samples=32, seed=3)
        exact_sq = quadest.exact_l2_square_expectation([u1, u2])
        assert est.std_error <= 1e-12
        assert abs(est.mean**2 - exact_sq) <= 1e-10 * exact_sq

    def test_closed_form_within_three_se(self, dirac64, grid64):
        u = torus.random_band_limited(grid64, 2, seed=4, kill_zero_mode=True)
        fields = quadest.bandpass_fields_constant(
            dirac64, u, quadest.DyadicScales(-5, 5)
        )
        est = quadest.rademacher_norm(fields, p=2.0, samples=128, seed=5)
        exact_sq = quadest.exact_l2_square_expectation(fields)
        assert abs(est.mean_square - exact_sq) <= 3.0 * est.std_error_square

    def test_minimum_samples_enforced(self, grid64):
        u = torus.random_band_limited(grid64, 2, seed=8)
        with pytest.raises(ValueError):
            quadest.rademacher_norm([u], samples=8)


class TestEta:
    def test_at_one(self):
        assert quadest.eta(1.0) == 1.0

    def test_at_two(self):
        assert abs(quadest.eta(2.0) - 0.5 * (1 + math.log(2))) < 1e-15

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        for x in rng.uniform(0.01, 100.0, 100):
            assert abs(quadest.eta(x) - quadest.eta(1.0 / x)) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            quadest.eta(0.0)


class TestReproducingSum:
    def test_kernel_field_maps_to_zero(self, dirac64, grid64):
        c = torus.GridField(
            grid64, np.broadcast_to([1.0, 2.0], grid64.shape + (2,)).astype(complex)
        )
        out = quadest.reproducing_sum(dirac64, c, quadest.DyadicScales(-8, 8))
        assert torus.lp_norm(out, 2.0) <= 1e-12 * torus.lp_norm(c, 2.0)

    def test_single_wave_telescoping_oracle(self, dirac64, grid64):
        u = plane_wave(grid64, [1], [1.0, 0.5])
        scales = quadest.DyadicScales(-20, 20)
        out = quadest.reproducing_sum(dirac64, u, scales)
        resid = torus.lp_norm(out - u, 2.0) / torus.lp_norm(u, 2.0)
        # telescoping oracle at xi = 1: sum collapses to p(2^-20) - p(2^21)
        oracle = abs(scalar_smoothing(2.0**-20, 1.0) - scalar_smoothing(2.0**21, 1.0) - 0.0)
        gap = abs((1.0 - oracle) - 1.0)  # = |p_small - p_large| distance from 1
        assert resid <= 1e-6
        assert abs(resid - abs(1.0 - oracle)) <= 1e-8 + 0.1 * max(resid, gap)

    def test_window_doubling_improves(self, dirac64, grid64):
        u = torus.random_band_limited(grid64, 2, seed=43, kill_zero_mode=True, band=8)
        r1 = quadest.reproducing_residual(dirac64, u, quadest.DyadicScales(-6, 6))
        r2 = quadest.reproducing_residual(dirac64, u, quadest.DyadicScales(-12, 12))
        assert r2 <= 0.5 * r1

    def test_scalar_identity_on_lattice(self, dirac_pair, grid64):
        # per-frequency eigenvalue form of the telescoping identity
        for x in (1.0, 3.0, 16.0, 32.0):
            acc = 0.0
            for k in range(-20, 21):
                acc += scalar_bandpass(2.0**k, x) * scalar_bandpass(2.0 ** (k + 1), x)
            assert abs(1.5 * acc - 1.0) <= 1e-6

    def test_band_limited_invariant(self, dirac_pair):
        grid = torus.TorusGrid(1, 64)
        u = torus.random_band_limited(grid, 2, seed=44, band=grid.g // 4,
                                      kill_zero_mode=True)
        gs = torus.GridSymbol(dirac_pair.total(), grid)
        resid = quadest.reproducing_residual(gs, u, quadest.DyadicScales(-20, 20))
        assert resid <= 1e-5


class TestSchurProbe:
    def test_zero_function(self, dirac64):
        res = quadest.schur_bound_probe(
            dirac64, matcalc.PartialFractions((), ()), [1.0], [1.0], trials=2, seed=0
        )
        assert res.max_ratio == 0.0

    def test_equal_scales_scalar_oracle(self, dirac64, grid64):
        # f = 1 / (1 + z^2): the probe estimates ||Q_t f(S) Q_t|| <= max
        # over the lattice of |q(t xi)|^2 / (1 + xi^2) <= 1/4
        t = 1.0
        f = matcalc.PartialFractions((1j, -1j), (-0.5j, 0.5j))
        res = quadest.schur_bound_probe(dirac64, f, [t], [t], trials=6, seed=1)
        xs = np.abs(grid64.lattice[..., 0])
        oracle = (scalar_bandpass(t, xs) ** 2 * scalar_smoothing(1.0, xs)).max()
        assert res.max_ratio <= oracle + 1e-12
        assert oracle <= 0.25 + 1e-12

    def test_refinement_stability(self, dirac_pair):
        vals = []
        ts = [0.25, 1.0, 4.0]
        for g in (64, 128):
            grid = torus.TorusGrid(1, g)
            res = quadest.schur_bound_probe(
                torus.GridSymbol(dirac_pair.total(), grid), matcalc.f_rational_odd, ts, ts,
                trials=4, seed=47,
            )
            vals.append(res.max_ratio)
        assert max(vals) <= 2.0 * min(vals)


SPECTRAL_CASES = {
    "dirac1d": (lambda: cli.load_symbol_arg("bundled:dirac1d"), torus.TorusGrid(1, 64)),
    "graddiv2d": (lambda: cli.load_symbol_arg("bundled:graddiv2d"), torus.TorusGrid(2, 16)),
    "defective": (defective_pair_1d, torus.TorusGrid(1, 32)),
}


class TestSpectralRoute:
    """The eigen-coordinate scale families against the per-scale inverse
    route, to 1e-12 relative."""

    @pytest.fixture(params=list(SPECTRAL_CASES))
    def case(self, request):
        make, grid = SPECTRAL_CASES[request.param]
        return make(), grid

    def test_bandpass_fields(self, case):
        pair, grid = case
        u = torus.random_trials(grid, pair.big_n, 2, seed=3)
        scales = quadest.DyadicScales(-6, 6)
        got = quadest.bandpass_fields_constant(torus.GridSymbol(pair.total(), grid), u, scales)
        want = bandpass_fields_by_inverse(pair, u, scales)
        for g, w in zip(got, want, strict=True):
            assert rel_err(g.values, w.values) < 1e-12

    def test_reproducing_sum(self, case):
        pair, grid = case
        u = torus.random_band_limited(grid, pair.big_n, seed=4)
        scales = quadest.DyadicScales(-8, 8)
        got = quadest.reproducing_sum(torus.GridSymbol(pair.total(), grid), u, scales)
        want = reproducing_sum_by_inverse(pair, u, scales)
        assert rel_err(got.values, want.values) < 1e-12

    @pytest.mark.parametrize("name", ["dirac1d", "graddiv2d"])
    def test_schur_table(self, name):
        make, grid = SPECTRAL_CASES[name]
        pair, ts, f = make(), [0.25, 1.0, 4.0], matcalc.f_rational_odd
        gs = torus.GridSymbol(pair.total(), grid)
        got = quadest.schur_bound_probe(gs, f, ts, ts, trials=3, seed=5).table
        want = schur_table_by_inverse(pair, f, ts, ts, grid, trials=3, seed=5)
        for g, w in zip(got, want, strict=True):
            assert (g["t"], g["s"]) == (w["t"], w["s"])
            assert abs(g["ratio"] - w["ratio"]) <= 1e-12 * w["ratio"]

    def test_defective_symbol_takes_the_fallback(self):
        make, grid = SPECTRAL_CASES["defective"]
        pair = make()
        gs = torus.GridSymbol(pair.total(), grid)
        # V is used at the zero frequency only
        assert np.array_equal(np.nonzero(gs.spectral.good)[0], [0])
        assert np.array_equal(gs.bandpass(1.0).mask, ~gs.spectral.good)
        # elsewhere f(S) is the resolvent sum, which exists at a defective
        # zero eigenvalue: S^2 = 0, so Q_1 f(S) Q_1 = S^3 = 0
        fs = gs.fractions(matcalc.f_rational_odd)
        s = gs.mats.reshape(-1, 2, 2)[fs.mask]
        assert rel_err(fs.at(fs.mask), s) < 1e-14
        res = quadest.schur_bound_probe(gs, matcalc.f_rational_odd, [1.0], [1.0], trials=1)
        (row,) = res.table
        assert row["norm_est"] == 0.0


    def test_masked_schur_table_takes_the_composed_matrices(self):
        # V serves only where xi_1 = 0: elsewhere every Q_t f(S) Q_s is the
        # product of the resolvent sums
        grid = torus.TorusGrid(2, 4)
        gs = torus.GridSymbol(jordan_symbol_2d(), grid)
        assert 0 < gs.bandpass(1.0).mask.sum() < grid.size
        ts = [0.5, 2.0]
        got = quadest.schur_bound_probe(gs, matcalc.f_rational_odd, ts, ts, trials=3, seed=5)
        # f(z) = z / (1 + z^2) is Q_1
        fields = torus.random_trials(grid, 3, 3, 5)
        norms = torus.lp_norms(fields, 2.0)
        for row in got.table:
            mats = bandpass(gs, row["t"]).mats @ bandpass(gs, 1.0).mats @ bandpass(gs, row["s"]).mats
            want = torus.max_ratio(torus.MultiplierOp(grid, mats).apply(fields), 2.0, norms)
            assert abs(row["norm_est"] - want) <= 1e-12 * want

    def test_reproducing_sum_holds_two_scales_at_a_time(self):
        pair = cli.load_symbol_arg("bundled:graddiv2d")
        gs = torus.GridSymbol(pair.total(), torus.TorusGrid(2, 64))
        u = torus.random_band_limited(gs.grid, pair.big_n, seed=1)
        one = gs.spectral.lam.nbytes  # one scale's values, (F, N) complex
        tracemalloc.start()
        try:
            quadest.reproducing_sum(gs, u, quadest.DyadicScales(-16, 17))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 9 arrays of that size: a bandpass's temporaries, the pair in
        # hand, the running sum and the transformed field.  The 35 scales
        # kept alive at once would take 35.
        assert peak < 16 * one


def test_the_benchmark_tracer_finds_its_quadest_stages():
    # perfbench/tracing.py wraps these public functions by name and skips a
    # name that no longer resolves without a word
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = {n for stage in tracing.STAGES.values() for n in stage if n.startswith("quadest.")}
    assert names >= {
        "quadest.bandpass_fields_constant", "quadest.bandpass_fields_variable",
        "quadest.reproducing_sum", "quadest.reproducing_residual",
    }
    for name in names:
        fn = getattr(quadest, name.split(".", 1)[1], None)
        assert inspect.isfunction(fn) and fn.__module__ == quadest.__name__, name


class TestQuadraticEstimate:
    def test_kernel_input_vanishes(self, dirac64, grid64):
        c = torus.GridField(
            grid64, np.broadcast_to([1.0, 0.0], grid64.shape + (2,)).astype(complex)
        )
        rep = quadest.quadratic_estimate(
            dirac64, c, quadest.DyadicScales(-5, 5), samples=16, seed=0
        )
        assert rep.estimate.mean <= 1e-12 * torus.lp_norm(c, 2.0)

    def test_plane_wave_frequency_oracle(self, dirac64, grid64):
        u = plane_wave(grid64, [2], [1.0, 1.0])
        scales = quadest.DyadicScales(-6, 6)
        rep = quadest.quadratic_estimate(dirac64, u, scales, samples=256, seed=53)
        # frequency-wise exact second moment: per-scale norms of q(t S) on
        # the single excited frequency
        fields = quadest.bandpass_fields_constant(dirac64, u, scales)
        exact = quadest.exact_l2_square_expectation(fields)
        assert abs(rep.estimate.mean_square - exact) <= 3.0 * rep.estimate.std_error_square

    def test_sample_count_stability(self, dirac64, grid64):
        u = torus.random_band_limited(grid64, 2, seed=53, kill_zero_mode=True)
        scales = quadest.DyadicScales(-5, 5)
        r1 = quadest.quadratic_estimate(dirac64, u, scales, samples=64, seed=1)
        r2 = quadest.quadratic_estimate(dirac64, u, scales, samples=256, seed=2)
        assert max(r1.ratio, r2.ratio) <= 2.0 * min(r1.ratio, r2.ratio)

    def test_variable_upper_probe(self, dirac_pair, grid16):
        coeffs = diagonal_coefficients(grid16, 2, 0.05, 3)
        op = hodge.VariableOp(dirac_pair, coeffs, grid16)
        u = torus.random_band_limited(grid16, 2, seed=4, kill_zero_mode=True)
        rep = quadest.quadratic_estimate(
            op, u, quadest.DyadicScales(-4, 4), samples=32, seed=5
        )
        assert 0.0 < rep.ratio < 10.0

    def test_calculus_constant_couples_to_square_function(self, dirac64, grid64):
        # sanity coupling: the measured bounded-calculus constant stays
        # within an order of magnitude of the square of the measured
        # quadratic-estimate constant (no equality claimed)
        f = matcalc.f_rational_odd
        f_s = dirac64.fractions(f)
        from opcalc import dacorr

        f_sup = dacorr.sup_norm_on_bisector(f, np.pi / 8)
        _, p_ran = dirac64.kernel_range
        scales = quadest.DyadicScales(-6, 6)
        c_f = 0.0
        c_q = 1.0
        for seed in (1, 2, 3):
            u = torus.apply_multiplier(
                p_ran, torus.random_band_limited(grid64, 2, seed=seed)
            )
            un = torus.lp_norm(u, 2.0)
            c_f = max(
                c_f,
                torus.lp_norm(next(dirac64.apply([f_s], u)), 2.0) / (f_sup * un),
            )
            rep = quadest.quadratic_estimate(dirac64, u, scales, samples=64,
                                             seed=seed)
            c_q = max(c_q, rep.constant)
        assert np.isfinite(c_f) and c_f > 0
        assert c_f <= 10.0 * c_q * c_q


class TestTranslatedEstimate:
    def test_zero_shift_reduces(self, dirac64, grid64):
        u = torus.random_band_limited(grid64, 2, seed=59, kill_zero_mode=True)
        scales = quadest.DyadicScales(-4, 4)
        plain = quadest.quadratic_estimate(dirac64, u, scales, samples=32, seed=6)
        (shifted,) = quadest.translated_quadratic_estimate(
            dirac64, u, [0.0], scales, samples=32, seed=6
        )
        assert abs(plain.estimate.mean - shifted.estimate.mean) < 1e-12

    def test_log_plus_inside_unit_ball(self, dirac64, grid64):
        u = torus.random_band_limited(grid64, 2, seed=60, kill_zero_mode=True)
        scales = quadest.DyadicScales(-4, 4)
        (r,) = quadest.translated_quadratic_estimate(
            dirac64, u, [0.5], scales, samples=32, seed=7
        )
        # |z| <= 1: normalization is exactly ||u||_p
        assert abs(r.ratio - r.estimate.mean / torus.lp_norm(u, 2.0)) < 1e-12

    def test_growth_at_most_logarithmic(self, dirac64, grid64):
        u = torus.random_band_limited(grid64, 2, seed=59, kill_zero_mode=True)
        scales = quadest.DyadicScales(-4, 4)
        zs = [1.0, 4.0, 16.0]
        reps = quadest.translated_quadratic_estimate(dirac64, u, zs, scales, samples=64, seed=8)
        means = [rep.estimate.mean for rep in reps]
        base = quadest.quadratic_estimate(dirac64, u, scales, samples=64, seed=8)
        slope = np.polyfit(np.log(zs), means, 1)[0]
        assert slope <= base.estimate.mean


class TestOffDiagonal:
    def test_ratio_decreases_with_separation(self, dirac_pair):
        grid = torus.TorusGrid(1, 64)
        op = hodge.VariableOp.constant(dirac_pair, grid)
        res = quadest.offdiagonal_probe(
            op, 2 * grid.cell_width, rho_list=(1.0, 4.0), trials=3, seed=63
        )
        assert res.ratios[0] < 1.0
        assert res.ratios[1] < res.ratios[0]
        assert res.decay_exponent >= 1.0

    def test_default_probe_solves_each_trial_once(self, monkeypatch):
        # Q_t^B 1_F u is solved once per trial (two GMRES solves) and cut
        # to every E, so the ratios cannot grow with the separation
        calls = []
        solve = krylov.solve_or_raise
        monkeypatch.setattr(
            krylov, "solve_or_raise", lambda *a, **kw: calls.append(1) or solve(*a, **kw)
        )
        values = cli.read_config("offdiag", {"seed": 3})
        _, constants, passes = cli.probe_offdiag(**values)
        assert len(calls) == 2 * values["trials"]
        ratios = constants["ratios"]
        assert len(ratios) == 4 and passes["decaying"]
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))

    def test_masked_norm_of_annihilated_input_zero(self, dirac_pair, grid64):
        # an input the operator kills contributes zero to the masked ratio
        op = hodge.VariableOp.constant(dirac_pair, grid64)
        c = torus.GridField(
            grid64, np.broadcast_to([2.0, 1.0], grid64.shape + (2,)).astype(complex)
        )
        out = hodge.resolvent_halves(op, 0.5, c)[1]
        assert torus.lp_norm(out, 2.0) <= 1e-12 * torus.lp_norm(c, 2.0)

    def test_scales_metadata(self):
        s = quadest.DyadicScales(-3, 3)
        assert list(s.ks) == list(range(-3, 4))
        assert s.scales()[0] == 0.125
        with pytest.raises(ValueError):
            quadest.DyadicScales(5, 1)
        with pytest.raises(ValueError):
            quadest.DyadicScales(0, 100)
