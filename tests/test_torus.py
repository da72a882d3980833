import numpy as np
import pytest

from opcalc import cli, hodge, matcalc, quadest, symbols, torus
from opcalc.errors import DecompositionFailure, NotInvertible, SplitUndefined

from conftest import bandpass, plane_wave, rel_err, zero_field, zero_mode


def dft_matrix(g):
    j = np.arange(g)
    return np.exp(-2j * np.pi * np.outer(j, j) / g)


class TestGrid:
    def test_validation(self):
        for length in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                torus.TorusGrid(1, 8, length)
        with pytest.raises(ValueError):
            torus.TorusGrid(1, 3)
        with pytest.raises(ValueError):
            torus.TorusGrid(1, 48)
        torus.TorusGrid(2, 4)

    def test_frequency_lattice_nyquist_positive(self):
        grid = torus.TorusGrid(1, 8)
        assert list(grid.axis_integers) == [0, 1, 2, 3, 4, -3, -2, -1]

    def test_lattice_scaling(self):
        grid = torus.TorusGrid(1, 8, length=np.pi)
        # scale 2*pi/length = 2
        assert np.allclose(grid.lattice[1], [2.0])


class TestApplyMultiplier:
    def test_identity(self, dirac_pair, grid64):
        u = torus.random_band_limited(grid64, 2, seed=1)
        m = torus.MultiplierOp.identity(grid64, 2)
        assert rel_err(torus.apply_multiplier(m, u).values, u.values) < 1e-12

    def test_plane_wave_oracle(self, dirac_pair, grid64):
        # bandpass at t=1 on the frequency-1 wave with vector (1, 0):
        # the per-frequency matrix is half the swap, so output (0, 1/2)
        u = plane_wave(grid64, [1], [1.0, 0.0])
        q = bandpass(torus.GridSymbol(dirac_pair.total(), grid64), 1.0)
        out = torus.apply_multiplier(q, u)
        expected = plane_wave(grid64, [1], [0.0, 0.5])
        assert rel_err(out.values, expected.values) < 1e-12

    def test_composition_is_pointwise_product(self, dirac_pair, grid64):
        u = torus.random_band_limited(grid64, 2, seed=5)
        gs = torus.GridSymbol(dirac_pair.total(), grid64)
        p, q = gs.smoothing(0.7), bandpass(gs, 0.7)
        once = torus.apply_multiplier(torus.MultiplierOp(grid64, p.mats @ q.mats), u)
        twice = torus.apply_multiplier(p, torus.apply_multiplier(q, u))
        assert rel_err(once.values, twice.values) < 1e-10

    def test_linearity(self, dirac_pair, grid64):
        u = torus.random_band_limited(grid64, 2, seed=6)
        v = torus.random_band_limited(grid64, 2, seed=7)
        q = bandpass(torus.GridSymbol(dirac_pair.total(), grid64), 1.3)
        lhs = torus.apply_multiplier(q, 2.0 * u + 3.0 * v)
        rhs = 2.0 * torus.apply_multiplier(q, u) + 3.0 * torus.apply_multiplier(q, v)
        denom = torus.lp_norm(u, 2.0) + torus.lp_norm(v, 2.0)
        assert torus.lp_norm(lhs - rhs, 2.0) <= 1e-10 * denom

    def test_dense_oracle_small_grid(self, dirac_pair):
        # multiplier against the explicit DFT conjugation on a tiny grid
        grid = torus.TorusGrid(1, 8)
        q = bandpass(torus.GridSymbol(dirac_pair.total(), grid), 1.0)
        u = torus.random_band_limited(grid, 2, seed=8)
        f = dft_matrix(8)
        finv = np.conj(f) / 8
        hats = np.einsum("fij,fj->fi", q.mats, f @ u.values)
        expected = finv @ hats
        got = torus.apply_multiplier(q, u).values
        assert rel_err(got, expected) < 1e-12


def resolvent_family(pair, grid, t):
    """(r, p, q) = ((I + itS)^{-1}, (I + t^2 S^2)^{-1}, t S p) of the total symbol."""
    gs = torus.GridSymbol(pair.total(), grid)
    return gs.resolvent(t), gs.smoothing(t), bandpass(gs, t)


class TestBatchAxis:
    def test_shape_check(self, grid16):
        torus.GridField(grid16, np.zeros((3, 2, 16, 2)))
        with pytest.raises(ValueError):
            torus.GridField(grid16, np.zeros((16, 2, 2)))
        with pytest.raises(ValueError):
            torus.GridField(grid16, np.zeros(16))

    def test_stack_and_members(self, grid16):
        fields = [torus.random_band_limited(grid16, 2, seed=s) for s in range(3)]
        batch = torus.GridField.stack(fields)
        assert batch.batch == (3,) and fields[0].batch == ()
        for got, want in zip(batch.members(), fields):
            assert np.array_equal(got.values, want.values)
        assert len(fields[0].members()) == 1

    def test_operators_act_per_member(self, dirac_pair, grid16):
        fields = [torus.random_band_limited(grid16, 2, seed=s) for s in range(3)]
        q = bandpass(torus.GridSymbol(dirac_pair.total(), grid16), 0.7)
        coeff = hodge.perturbed_identity(grid16, 2, 0.3, 5)
        ops = (
            lambda u: torus.apply_multiplier(q, u),
            coeff.apply,
            lambda u: torus.translate(u, [0.3]),
        )
        for op in ops:
            got = op(torus.GridField.stack(fields)).members()
            for member, u in zip(got, fields):
                assert rel_err(member.values, op(u).values) < 1e-15

    @pytest.mark.parametrize("p", [2.0, 1.5, 3.0])
    def test_norms_of_a_stack_are_the_member_norms(self, p):
        for grid, big_n in ((torus.TorusGrid(1, 64), 2), (torus.TorusGrid(2, 16), 4)):
            stack = torus.random_trials(grid, big_n, 6, seed=7)
            got = torus.lp_norms(stack, p)
            want = [torus.lp_norm(u, p) for u in stack.members()]
            assert got.shape == (6,)
            np.testing.assert_allclose(got, want, rtol=5e-16, atol=0)
            nested = torus.GridField(grid, stack.values.reshape((2, 3) + stack.values.shape[1:]))
            assert np.array_equal(torus.lp_norms(nested, p), got.reshape(2, 3))

    def test_max_ratio_skips_zero_scales(self, grid16):
        stack = torus.random_trials(grid16, 2, 3, seed=1)
        norms = torus.lp_norms(stack, 2.0)
        assert torus.max_ratio(stack, 2.0, norms * np.array([1.0, 0.0, 2.0])) == 1.0
        assert torus.max_ratio(stack, 2.0, np.zeros(3)) == 0.0

    @pytest.mark.parametrize("consumer", [
        lambda u, path: torus.lp_norm(u, 2.0),
        lambda u, path: torus.save_field(path, u),
        lambda u, path: u.flat(),
    ], ids=["lp_norm", "save_field", "flat"])
    def test_single_field_consumers_reject_a_batch(self, grid16, tmp_path, consumer):
        batch = torus.GridField(grid16, np.ones((2, 16, 2), dtype=complex))
        with pytest.raises(ValueError, match="batch"):
            consumer(batch, tmp_path / "field.bin")
        assert not (tmp_path / "field.bin").exists()


class TestResolventMultipliers:
    def test_zero_scale(self, dirac_pair, grid64):
        r, p, q = resolvent_family(dirac_pair, grid64, 0.0)
        eye = np.eye(2)
        assert np.allclose(r.mats, eye) and np.allclose(p.mats, eye)
        assert np.allclose(q.mats, 0)

    def test_dirac_at_unit_frequency(self, dirac_pair, grid64):
        _, p, q = resolvent_family(dirac_pair, grid64, 1.0)
        idx = 1  # frequency +1
        assert rel_err(p.mats[idx], np.eye(2) / 2) < 1e-12
        assert rel_err(q.mats[idx], np.array([[0, 0.5], [0.5, 0]])) < 1e-12

    def test_even_odd_from_resolvents(self, dirac_pair, grid64):
        r_plus, p, q = resolvent_family(dirac_pair, grid64, 1.7)
        r_minus, _, _ = resolvent_family(dirac_pair, grid64, -1.7)
        assert np.abs((r_plus.mats + r_minus.mats) / 2 - p.mats).max() < 1e-12
        assert np.abs(0.5j * (r_plus.mats - r_minus.mats) - q.mats).max() < 1e-12

    def test_zero_modes(self, dirac_pair, grid64):
        r, p, q = resolvent_family(dirac_pair, grid64, 2.5)
        assert np.allclose(zero_mode(r), np.eye(2))
        assert np.allclose(zero_mode(p), np.eye(2))
        assert np.allclose(zero_mode(q), 0)

    @pytest.mark.parametrize("seed", [9])
    def test_smoothing_residual_identity(self, dirac_pair, grid64, seed):
        rng = np.random.default_rng(seed)
        t = float(rng.uniform(0.1, 4.0))
        _, p, _ = resolvent_family(dirac_pair, grid64, t)
        mats = dirac_pair.total()(grid64.lattice)
        resid = p.mats + (t * t) * mats @ mats @ p.mats - np.eye(2)
        assert np.abs(resid).max() < 1e-12


    def test_singular_frequency_is_not_invertible(self):
        # S(xi) = xi [[0, -1], [1, 0]] squares to -xi^2 I, so I + t^2 S^2
        # vanishes at xi = +-1 for t = 1
        grid = torus.TorusGrid(1, 16)
        pair = symbols.HodgeDiracSymbolPair(
            symbols.HomogeneousSymbol(1, 2, 1, {(1,): [[0, 0], [1, 0]]}),
            symbols.HomogeneousSymbol(1, 2, 1, {(1,): [[0, -1], [0, 0]]}),
        )
        with pytest.raises(NotInvertible):
            torus.GridSymbol(pair.total(), grid).smoothing(1.0)
        u = torus.random_band_limited(grid, 2, seed=1)
        with pytest.raises(NotInvertible):
            quadest.bandpass_fields_constant(pair, u, quadest.DyadicScales(0, 0))

    def test_near_zero_denominator_takes_the_inverse_route(self):
        # the same symbol on the eigenvalue route: lam = +-i xi comes out of
        # eig with 1 + lam^2 a few ulps from zero at xi = +-1, not exactly
        # zero, so those frequencies are masked and inverted, and raise
        grid = torus.TorusGrid(1, 16)
        pair = symbols.HodgeDiracSymbolPair(
            symbols.HomogeneousSymbol(1, 2, 1, {(1,): [[0, 0], [1, 0]]}),
            symbols.HomogeneousSymbol(1, 2, 1, {(1,): [[0, -1], [0, 0]]}),
        )
        gs = torus.GridSymbol(pair.total(), grid)
        at_one = np.abs(grid.lattice[:, 0]) == 1.0
        assert gs.spectral.good.all()
        assert np.abs(1.0 + gs.spectral.lam[at_one] ** 2).min() < 1e-15
        phi, mask = gs.bandpass_spectral(1.0)
        assert np.array_equal(mask, at_one)
        assert np.all(np.isfinite(phi))
        u = torus.random_band_limited(grid, 2, seed=1)
        with pytest.raises(NotInvertible):
            quadest.bandpass_fields_constant(pair, u, quadest.DyadicScales(-2, 2))
        # away from t = 1 no denominator vanishes and nothing is masked
        assert not gs.bandpass_spectral(0.75)[1].any()


def per_point_splits(pair, grid):
    """Oracle: a per-frequency loop over the contour-based spectral_split.

    On ran S the total symbol S is invertible, and the Hodge pieces of S v
    are gamma v and gamma_tilde v, so p_gamma = gamma (S + p_ker)^{-1} p_ran.
    """
    n = pair.big_n
    g = pair.gamma(grid.lattice).reshape(-1, n, n)
    gt = pair.gamma_tilde(grid.lattice).reshape(-1, n, n)
    out = {k: np.empty_like(g) for k in ("p_ker", "p_ran", "p_gamma", "p_gamma_tilde")}
    for i, (a, b) in enumerate(zip(g, gt)):
        pk, pr = matcalc.spectral_split(a + b, check=False)
        inv_on_range = np.linalg.inv(a + b + pk) @ pr
        out["p_ker"][i], out["p_ran"][i] = pk, pr
        out["p_gamma"][i], out["p_gamma_tilde"][i] = a @ inv_on_range, b @ inv_on_range
    return out


class TestBatchedSplits:
    @pytest.mark.parametrize("case", [("dirac1d", 1, 256), ("graddiv2d", 2, 16)])
    def test_match_per_point_oracle(self, case, dirac_pair, grad_div_pair):
        name, n, g = case
        pair = dirac_pair if name == "dirac1d" else grad_div_pair
        grid = torus.TorusGrid(n, g)
        ref = per_point_splits(pair, grid)
        p_ker, p_ran = torus.kernel_range_multipliers(pair.total(), grid)
        hp = hodge.constant_hodge_projections(pair, grid).multipliers
        got = {
            "p_ker": p_ker, "p_ran": p_ran, "p0": hp["p0"],
            "p_gamma": hp["p_gamma"], "p_gamma_tilde": hp["p_gamma_tilde"],
        }
        for key, op in got.items():
            want = ref["p_ker" if key == "p0" else key]
            assert np.abs(op.mats.reshape(want.shape) - want).max() < 1e-12, key

    def test_unsplittable_pair(self, grid64):
        pair = cli.load_symbol_arg("bundled:pair_gamma_equal")
        with pytest.raises(SplitUndefined):
            torus.kernel_range_multipliers(pair.total(), grid64)
        with pytest.raises(DecompositionFailure) as exc:
            hodge.constant_hodge_projections(pair, grid64)
        # the first failing frequency in FFT order is +1
        assert np.array_equal(exc.value.xi, grid64.lattice[1])


class TestTranslate:
    def test_zero_shift(self, grid64):
        u = torus.random_band_limited(grid64, 2, seed=10)
        assert rel_err(torus.translate(u, [0.0]).values, u.values) < 1e-14

    def test_one_cell_is_index_shift(self, grid64):
        u = torus.random_band_limited(grid64, 2, seed=11)
        out = torus.translate(u, [grid64.cell_width])
        assert rel_err(out.values, np.roll(u.values, 1, axis=0)) < 1e-12

    def test_round_trip(self, grid64):
        u = torus.random_band_limited(grid64, 2, seed=12)
        z = [0.37]
        back = torus.translate(torus.translate(u, z), [-z[0]])
        assert torus.lp_norm(back - u, 2.0) <= 1e-12 * torus.lp_norm(u, 2.0)


class TestLpNorm:
    def test_zero(self, grid64):
        assert torus.lp_norm(zero_field(grid64, 2), 2.0) == 0.0

    def test_constant_field(self):
        grid = torus.TorusGrid(1, 16)
        c = np.array([3.0, 4.0])  # |c| = 5
        u = torus.GridField(grid, np.broadcast_to(c, grid.shape + (2,)).astype(complex))
        for p in (1.5, 2.0, 3.0):
            assert abs(torus.lp_norm(u, p) - 5.0 * (2 * np.pi) ** (1.0 / p)) < 1e-12

    def test_parseval(self, grid64):
        u = torus.random_band_limited(grid64, 2, seed=13)
        hat = torus.fft_field(u)
        freq_side = np.sqrt(
            (np.abs(hat) ** 2).sum() / grid64.g * grid64.cell_volume
        )
        assert abs(torus.lp_norm(u, 2.0) - freq_side) < 1e-10

    def test_invalid_exponent(self, grid64):
        u = zero_field(grid64, 1)
        with pytest.raises(ValueError):
            torus.lp_norm(u, 1.0)
        with pytest.raises(ValueError):
            torus.lp_norm(u, np.inf)


class TestFieldIO:
    def test_vector_round_trip(self, grid64, tmp_path):
        u = torus.random_band_limited(grid64, 3, seed=17)
        path = tmp_path / "field.bin"
        torus.save_field(path, u)
        v = torus.load_field(path)
        assert v.grid == grid64
        # complex64 storage: single-precision round trip
        assert rel_err(v.values, u.values) < 1e-6

    def test_matrix_round_trip(self, grid16, tmp_path):
        from opcalc import hodge

        mf = hodge.perturbed_identity(grid16, 2, 0.2, 18)
        path = tmp_path / "coeff.bin"
        torus.save_field(path, hodge.MatrixField(grid16, mf.values))
        grid, values = torus.load_field(path)
        assert grid == grid16
        assert values.shape == grid16.shape + (2, 2)
        assert rel_err(values, mf.values) < 1e-6

    def test_header_layout(self, grid16, tmp_path):
        u = zero_field(grid16, 2)
        path = tmp_path / "field.bin"
        torus.save_field(path, u)
        raw = path.read_bytes()
        assert raw[:8] == b"TORUSFLD"
        assert len(raw) == 32 + 16 * 2 * 8  # header + g*N complex64

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAFILE" + b"\0" * 64)
        with pytest.raises(ValueError):
            torus.load_field(path)

    @pytest.mark.parametrize("shape", [(2,), (2, 2)])
    def test_non_finite_values_rejected(self, grid16, tmp_path, shape):
        values = np.ones(grid16.shape + shape, dtype=complex)
        values[3, ..., 0] = np.nan
        path = tmp_path / "field.bin"
        field = torus.GridField if len(shape) == 1 else hodge.MatrixField
        torus.save_field(path, field(grid16, values))
        with pytest.raises(ValueError, match="non-finite"):
            torus.load_field(path)


class TestProbes:
    def test_matrix_function_multiplier_matches_formula(self, dirac_pair, grid64):
        f = lambda z: z / (1 + z * z)
        gs = torus.GridSymbol(dirac_pair.total(), grid64)
        op = gs.function(f)
        q = bandpass(gs, 1.0)
        assert np.abs(op.mats - q.mats).max() < 1e-12
