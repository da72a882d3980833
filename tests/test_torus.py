import collections

import numpy as np
import pytest

from opcalc import cli, dacorr, hodge, krylov, matcalc, quadest, symbols, torus
from opcalc.errors import DecompositionFailure, NotInvertible, SplitUndefined

from conftest import (
    bandpass, defective_pair_1d, grad_div_pair_2d, hodge_projections_by_frequency,
    jordan_symbol_2d, kernel_range_by_frequency, plane_wave, rel_err, resolvent, smoothing,
    spectral_by_frequency, zero_field, zero_mode,
)


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


class TestRays:
    """TorusGrid.rays: the lattice as integer multiples of primitive directions."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("g", [4, 8, 64])
    def test_every_point_is_its_multiple_of_its_direction(self, n, g):
        grid = torus.TorusGrid(n, g)
        rays = grid.rays
        xi = grid.lattice.reshape(-1, n)
        # at the default length the physical frequencies are the integers
        assert np.array_equal(xi, rays.multiple[:, None] * rays.directions[rays.index])
        ints = rays.directions.astype(int)
        assert np.array_equal(ints, rays.directions)
        # direction 0 is xi = 0, every other one primitive with its first
        # nonzero coordinate positive, and no direction twice
        assert not ints[0].any() and rays.multiple[0] == 1
        assert np.all(np.gcd.reduce(ints[1:], axis=-1) == 1)
        assert np.all(ints[1:][np.arange(len(ints) - 1), np.argmax(ints[1:] != 0, axis=-1)] > 0)
        assert len(np.unique(ints, axis=0)) == len(ints)
        # numbered by first appearance in FFT order, each one used
        _, first = np.unique(rays.index, return_index=True)
        assert np.all(np.diff(first) > 0) and first.size == len(ints)
        assert [rays.first_frequency(d) for d in (0, len(ints) - 1)] == [0, first[-1]]
        # the Nyquist row, +g/2 on the first axis
        row = xi[:, 0] == g // 2
        assert row.sum() == g ** (n - 1)
        assert np.all(np.abs(rays.multiple[row]) * ints[rays.index[row], 0] == g // 2)

    def test_direction_counts(self):
        assert len(torus.TorusGrid(2, 64).rays.directions) == 1297
        assert len(torus.TorusGrid(1, 64).rays.directions) == 2

    def test_scaled_with_the_lattice(self):
        grid = torus.TorusGrid(2, 8, length=np.pi)
        rays = grid.rays
        assert np.array_equal(rays.directions, 2.0 * torus.TorusGrid(2, 8).rays.directions)
        assert np.array_equal(grid.lattice.reshape(-1, 2),
                              rays.multiple[:, None] * rays.directions[rays.index])


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
        p, q = smoothing(gs, 0.7), bandpass(gs, 0.7)
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

    @pytest.mark.parametrize("case", [
        "dirac1d-bandpass", "graddiv2d-gamma", "graddiv2d-gamma_tilde", "graddiv2d-bandpass",
        "graddiv2d-smoothing",
    ])
    def test_dense_oracle_small_grid(self, case, dirac_pair, grad_div_pair):
        # multiplier against the explicit DFT conjugation on a tiny grid: in
        # 2-D by kron(F, F), on a stack of two fields.  graddiv2d's gamma
        # reads [0] and writes [1, 2], gamma_tilde the reverse, its bandpass
        # reads and writes [0, 1, 2], and its smoothing has full support
        name, kind = case.split("-")
        if name == "dirac1d":
            pair, grid = dirac_pair, torus.TorusGrid(1, 8)
            u = torus.random_band_limited(grid, 2, seed=8)
        else:
            pair, grid = grad_div_pair, torus.TorusGrid(2, 4)
            u = torus.random_trials(grid, 4, 2, seed=8)
        gs, op = torus.GridSymbol(pair.total(), grid), hodge.VariableOp.constant(pair, grid)
        q = {"gamma": op.gamma_op, "gamma_tilde": op.gamma_tilde_op,
             "bandpass": bandpass(gs, 1.0), "smoothing": smoothing(gs, 1.0)}[kind]
        f = dft_matrix(grid.g)
        for _ in range(grid.n - 1):
            f = np.kron(f, dft_matrix(grid.g))
        finv = np.conj(f) / grid.size
        big_n = pair.big_n
        vals = u.values.reshape(u.batch + (grid.size, big_n))
        hats = np.einsum("fij,...fj->...fi", q.mats.reshape(-1, big_n, big_n), f @ vals)
        expected = (finv @ hats).reshape(u.values.shape)
        got = torus.apply_multiplier(q, u).values
        assert rel_err(got, expected) < 1e-12


def full_product(m, u):
    """The multiplier by the full N x N product at every frequency."""
    hat = torus.fft_field(u)
    return torus.ifft_field(u.grid, np.einsum("...ij,...j->...i", m.mats, hat)).values


def support_cases(pair, grid):
    """Gamma, gamma_tilde, their adjoints and the three Hodge projections."""
    op = hodge.VariableOp.constant(pair, grid)
    cases = {"gamma": op.gamma_op, "gamma_tilde": op.gamma_tilde_op}
    cases.update({f"{k}*": m.adjoint() for k, m in cases.items()})
    return {**cases, **hodge.constant_hodge_projections(pair, grid)._asdict()}


class TestSupport:
    @pytest.mark.parametrize("name", ["graddiv2d", "dirac1d"])
    def test_equals_full_product_bitwise(self, name, dirac_pair, grad_div_pair):
        pair, grid = {"graddiv2d": (grad_div_pair, torus.TorusGrid(2, 16)),
                      "dirac1d": (dirac_pair, torus.TorusGrid(1, 64))}[name]
        single = torus.random_band_limited(grid, pair.big_n, seed=3)
        stack = torus.random_trials(grid, pair.big_n, 3, seed=4)
        partial = 0
        for m in support_cases(pair, grid).values():
            rows, cols, _ = m.support
            partial += rows.size < pair.big_n or cols.size < pair.big_n
            for u in (single, stack):
                assert np.array_equal(torus.apply_multiplier(m, u).values, full_product(m, u))
        assert partial >= 5

    def test_graddiv_gamma_reads_and_writes_few(self, grad_div_pair):
        op = hodge.VariableOp.constant(grad_div_pair, torus.TorusGrid(2, 16))
        for m, rows, cols in ((op.gamma_op, [1, 2], [0]), (op.gamma_tilde_op, [0], [1, 2])):
            assert m.support.rows.tolist() == rows and m.support.cols.tolist() == cols
            assert m.support.mats.shape == (16, 16, len(rows), len(cols))

    def test_one_sided_supports(self, grid16):
        rng = np.random.default_rng(0)
        mats = rng.standard_normal((16, 3, 3)) + 1j * rng.standard_normal((16, 3, 3))
        u = torus.random_trials(grid16, 3, 2, seed=1)
        for zero_col in (True, False):
            m = mats.copy()
            if zero_col:
                m[..., 1] = 0.0  # reads components 0 and 2, writes all three
            else:
                m[..., 1, :] = 0.0  # reads all three, writes 0 and 2
            op = torus.MultiplierOp(grid16, m)
            assert (op.support.cols if zero_col else op.support.rows).tolist() == [0, 2]
            assert np.array_equal(torus.apply_multiplier(op, u).values, full_product(op, u))

    def test_full_support_is_the_array_itself(self, dirac64):
        m = resolvent(dirac64, 0.5)
        assert m.support.mats is m.mats

    def test_zero_multiplier_returns_zeros_without_fft(self, grid16, monkeypatch):
        m = torus.MultiplierOp(grid16, np.zeros((16, 2, 2)))
        u = torus.random_trials(grid16, 2, 2, seed=2)
        monkeypatch.setattr(torus, "fft_field", None)
        out = torus.apply_multiplier(m, u)
        assert out.values.shape == u.values.shape and not out.values.any()

    def test_unread_components_do_not_reach_the_output(self, grad_div_pair):
        gamma = hodge.VariableOp.constant(grad_div_pair, torus.TorusGrid(2, 16)).gamma_op
        u = torus.random_band_limited(gamma.grid, 4, seed=5)
        u.values[..., 3] = np.nan
        assert np.isfinite(torus.apply_multiplier(gamma, u).values).all()

    def test_mats_are_read_only(self, dirac64):
        m = dirac64.multiplier()
        assert m.support is m.support
        reads_one = torus.MultiplierOp(dirac64.grid, np.ones((64, 2, 2)) * [1.0, 0.0])
        for op in (m, reads_one):
            for a in (op.mats, *op.support):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0

    def test_fft_volume_of_a_variable_resolvent(self, grad_div_pair, monkeypatch):
        # per preconditioned GMRES iteration: the shifted preconditioner
        # transforms all 4 components both ways (8), gamma reads {0} and
        # writes {1, 2} (3), gamma_tilde reads {1, 2} and writes {0} (3):
        # 14 component transforms, not the 3 * 2 * 4 = 24 of full products
        grid = torus.TorusGrid(2, 16)
        coeffs = hodge.CoefficientPair(*(
            hodge.perturbed_identity(grid, 4, 0.1, s, diagonal=True) for s in (1, 2)))
        op = hodge.VariableOp(grad_div_pair, coeffs, grid)
        u = torus.random_band_limited(grid, 4, seed=6)
        counts = collections.Counter()

        def counted(fn, key, weight):
            def call(a, *args, **kwargs):
                counts[key] += weight(a)
                return fn(a, *args, **kwargs)
            return call

        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name), "values", np.size))
        gmres = krylov.gmres
        monkeypatch.setattr(krylov, "gmres", lambda matvec, b, **kw: gmres(
            counted(matvec, "matvecs", lambda v: 1), b, **kw))
        hodge.variable_resolvent(op, 0.7, u)
        assert counts["matvecs"] > 2
        # one preconditioner application per matvec, none elsewhere
        assert counts["values"] == 14 * grid.size * counts["matvecs"]


def default_op(pair, grid):
    """The VariableOp of the suites' default coefficients at seed 0."""
    b1, b2 = (hodge.parse_coefficient(f"identity+0.05*diagrandom({s})", grid, pair.big_n)
              for s in (23, 24))
    return hodge.VariableOp(pair, hodge.CoefficientPair(b1, b2), grid)


class TestCoefficientSupport:
    @pytest.mark.parametrize("name", ["graddiv2d", "dirac1d"])
    def test_equals_full_product_bitwise(self, name, dirac_pair, grad_div_pair):
        pair, grid = {"graddiv2d": (grad_div_pair, torus.TorusGrid(2, 16)),
                      "dirac1d": (dirac_pair, torus.TorusGrid(1, 16))}[name]
        op = default_op(pair, grid)
        a = hodge.perturbed_identity(grid, 1, 0.05, 7)
        block = dacorr.block_coefficients(a)
        fields = (op.coeffs.b1, op.coeffs.b2, op.twisted_coeffs.b1, op.twisted_coeffs.b2,
                  block.b1, block.b2, hodge.perturbed_identity(grid, pair.big_n, 0.05, 8))
        partial = 0
        for m in fields:
            rows, cols, _ = m.support
            partial += rows.size < m.big_n or cols.size < m.big_n
            # a single field and a stack of one dense_operator chunk
            for u in (torus.random_band_limited(grid, m.big_n, seed=3),
                      torus.random_trials(grid, m.big_n, hodge.DENSE_CHUNK, seed=4)):
                want = np.einsum("...ij,...j->...i", m.mats, u.values)
                assert np.array_equal(m.apply(u).values, want)
        assert partial == 4

    @pytest.mark.parametrize("name", ["graddiv2d", "dirac1d"])
    def test_twisted_product_equals_full_coefficients_bitwise(
        self, name, dirac_pair, grad_div_pair
    ):
        pair, grid = {"graddiv2d": (grad_div_pair, torus.TorusGrid(2, 16)),
                      "dirac1d": (dirac_pair, torus.TorusGrid(1, 16))}[name]
        for op in (default_op(pair, grid), hodge.VariableOp(pair, hodge.CoefficientPair(
                *(hodge.perturbed_identity(grid, pair.big_n, 0.05, s) for s in (5, 6))), grid)):
            for u in (torus.random_band_limited(grid, op.big_n, seed=3),
                      torus.random_trials(grid, op.big_n, hodge.DENSE_CHUNK, seed=4)):
                b2u = np.einsum("...ij,...j->...i", op.coeffs.b2.mats, u.values)
                mid = torus.apply_multiplier(op.gamma_tilde_op, torus.GridField(grid, b2u))
                want = np.einsum("...ij,...j->...i", op.coeffs.b1.mats, mid.values)
                assert np.array_equal(op.apply_twisted(u).values, want)

    def test_graddiv_twisted_coeffs_act_on_gamma_tilde_support(self, grad_div_pair):
        op = default_op(grad_div_pair, torus.TorusGrid(2, 16))
        b1, b2 = op.twisted_coeffs.b1, op.twisted_coeffs.b2
        assert b2.support.rows.tolist() == [1, 2] and b1.support.cols.tolist() == [0]
        # the diagonal defaults: B2 reads what it writes, B1 writes component 0 only
        assert b2.support.cols.tolist() == [1, 2] and b1.support.rows.tolist() == [0]
        assert b2.support.mats.shape == (16, 16, 2, 2) and b1.support.mats.shape == (16, 16, 1, 1)

    def test_twisted_coeffs_are_cached_per_operator(self, grad_div_pair):
        grid = torus.TorusGrid(2, 16)
        op, again = default_op(grad_div_pair, grid), default_op(grad_div_pair, grid)
        assert op.twisted_coeffs is op.twisted_coeffs
        assert "twisted_coeffs" not in vars(again)
        assert op.twisted_coeffs is not again.twisted_coeffs

    def test_mats_are_read_only(self, dirac_pair, grid16, tmp_path):
        coeff = hodge.parse_coefficient("identity+0.05*diagrandom(3)", grid16, 2)
        path = tmp_path / "coeff.bin"
        torus.save_field(path, coeff)
        op = default_op(dirac_pair, grid16)
        for m in (coeff, torus.load_field(path), op.twisted_coeffs.b1, coeff + coeff):
            for a in (m.mats, *m.support):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0

    def test_multiplier_is_a_matrix_field_applied_in_frequency(self, dirac64):
        m = dirac64.multiplier()
        u = torus.random_band_limited(dirac64.grid, 2, seed=9)
        assert isinstance(m, torus.MatrixField) and not hasattr(hodge, "MatrixField")
        assert type(m.adjoint()) is type(2.0 * m) is torus.MultiplierOp
        assert np.array_equal(m.apply(u).values, torus.apply_multiplier(m, u).values)


def resolvent_family(pair, grid, t):
    """(r, p, q) = ((I + itS)^{-1}, (I + t^2 S^2)^{-1}, t S p) of the total symbol."""
    gs = torus.GridSymbol(pair.total(), grid)
    return resolvent(gs, t), smoothing(gs, t), bandpass(gs, t)


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
            smoothing(torus.GridSymbol(pair.total(), grid), 1.0)
        u = torus.random_band_limited(grid, 2, seed=1)
        with pytest.raises(NotInvertible):
            quadest.bandpass_fields_constant(
                torus.GridSymbol(pair.total(), grid), u, quadest.DyadicScales(0, 0)
            )

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
        q = gs.bandpass(1.0)
        assert np.array_equal(q.mask, at_one)
        assert np.all(np.isfinite(q.coeff))
        u = torus.random_band_limited(grid, 2, seed=1)
        with pytest.raises(NotInvertible):
            quadest.bandpass_fields_constant(gs, u, quadest.DyadicScales(-2, 2))
        # away from t = 1 no denominator vanishes and nothing is masked
        assert not gs.bandpass(0.75).mask.any()


class TestFractions:
    """GridSymbol.fractions: f(S) for f given by its partial fractions."""

    @pytest.mark.parametrize("t", [2.0**-20, 0.3, 1.0, 2.0**21])
    def test_scaled_is_f_of_t_z(self, t):
        f = matcalc.f_rational_odd
        z = np.linspace(-3.0, 3.0, 61) + 0.25j
        if np.log2(t).is_integer():  # a power of two scales without rounding
            assert np.array_equal(f.scaled(t)(z), f(t * z))
        assert np.abs(f.scaled(t)(z) - f(t * z)).max() <= 1e-15 * np.abs(f(t * z)).max()

    @pytest.mark.parametrize("name, grid", [
        ("dirac1d", torus.TorusGrid(1, 64)), ("graddiv2d", torus.TorusGrid(2, 16)),
    ])
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_agrees_with_the_inverse_oracle(self, name, grid, t):
        gs = torus.GridSymbol(cli.load_symbol_arg(f"bundled:{name}").total(), grid)
        fn = gs.fractions(matcalc.f_rational_odd.scaled(t))
        _, v, v_inv, _ = gs.spectral
        mats = v @ (fn.coeff[..., None] * v_inv)
        mats[fn.mask] = fn.at(fn.mask)
        assert rel_err(mats, bandpass(gs, t).mats.reshape(mats.shape)) < 1e-12

    def test_masked_frequencies_take_the_resolvent_sum(self):
        gs = torus.GridSymbol(jordan_symbol_2d(), torus.TorusGrid(2, 4))
        f = matcalc.f_rational_odd
        fn = gs.fractions(f)
        m = fn.mask
        assert m.sum() == 12 and not fn.coeff[m].any()
        s = gs.mats.reshape(-1, 3, 3)[m]
        assert np.array_equal(fn.at(m), f.of(s))
        # the contour calculus of the same function, to its quadrature error
        for got, one in zip(fn.at(m), s):
            assert rel_err(got, matcalc.contour_fc(one, f)) < 1e-12

    def test_one_pole_takes_no_sum_over_the_poles(self):
        # the preconditioner (z - S)^{-1}, residue -1: the same values as the
        # sum over the poles that several poles take
        gs = torus.GridSymbol(cli.load_symbol_arg("bundled:graddiv2d").total(),
                              torus.TorusGrid(2, 16))
        z = 1j / 2**10
        inv = np.linalg.inv(gs.mats - z * np.eye(4))
        assert np.array_equal(gs.shifted(z).mats, np.tensordot((-1,), inv[None], axes=1))


class TestSpectralFunction:
    """Functions of S carry their matrix formulas through products, sums and
    scalings, for the frequencies where the eigenvalue route does not serve."""

    def test_composites_equal_the_matrix_formulas_bitwise(self):
        grid = torus.TorusGrid(2, 4)
        gs = torus.GridSymbol(jordan_symbol_2d(), grid)
        a, b, fs = gs.bandpass(0.5), gs.bandpass(2.0), gs.fractions(matcalc.f_rational_odd)
        m = a.mask
        assert np.array_equal(m, grid.lattice[..., 0].ravel() != 0)
        qa, qb, f_mats = a.at(m), b.at(m), fs.at(m)
        # the factors' resolvent sums are the closed form to rounding
        for q, t in ((qa, 0.5), (qb, 2.0)):
            assert rel_err(q, bandpass(gs, t).mats.reshape(-1, 3, 3)[m]) < 1e-13
        for got, want in [
            (a * b, qa @ qb),
            (a + b, qa + qb),
            (1.5 * a, 1.5 * qa),
            (a * fs * b, qa @ f_mats @ qb),
        ]:
            assert np.array_equal(got.mask, m)
            assert np.array_equal(got.at(m), want)
        # a factor masked on part of m only: products and sums take the union
        part = torus.SpectralFunction(b.coeff, m & (np.arange(m.size) % 2 == 0), b.at)
        assert np.array_equal((part * a).mask, m) and np.array_equal((part + a).mask, m)

    def test_apply_transforms_once_and_forms_each_output_when_asked(self, monkeypatch):
        grid = torus.TorusGrid(2, 4)
        gs = torus.GridSymbol(jordan_symbol_2d(), grid)
        u = torus.random_trials(grid, 3, 2, seed=7)
        ts = (0.5, 1.0, 2.0)
        alone = [next(gs.apply([gs.bandpass(t)], u)) for t in ts]
        ffts, made = [], []
        fft = torus.fft_field
        monkeypatch.setattr(torus, "fft_field", lambda v: ffts.append(1) or fft(v))

        def bands():
            for t in ts:
                made.append(t)
                yield gs.bandpass(t)

        outs = gs.apply(bands(), u)
        assert not ffts and not made
        first = next(outs)
        assert len(ffts) == 1 and made == [0.5]
        got = [first, *outs]
        assert len(ffts) == 1 and made == list(ts)
        for g, w in zip(got, alone, strict=True):
            assert np.array_equal(g.values, w.values)


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
        pk, pr = matcalc.spectral_split(a + b)
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
        p_ker, p_ran = torus.GridSymbol(pair.total(), grid).kernel_range
        hp = hodge.constant_hodge_projections(pair, grid)._asdict()
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
            torus.GridSymbol(pair.total(), grid64).kernel_range
        with pytest.raises(DecompositionFailure) as exc:
            hodge.constant_hodge_projections(pair, grid64)
        # the first failing frequency in FFT order is +1
        assert np.array_equal(exc.value.xi, grid64.lattice[1])


def per_direction_cases():
    """name -> (symbol pair, grid): the pairs' builds and their total symbols'.
    jordan_symbol_2d comes as the pair with a zero second part."""
    jordan = jordan_symbol_2d()
    zero = symbols.HomogeneousSymbol(2, 3, 1, {})
    return {
        "graddiv2d": (grad_div_pair_2d(), torus.TorusGrid(2, 64)),
        "dirac1d": (symbols.dirac_pair_1d(), torus.TorusGrid(1, 64)),
        "jordan2d": (symbols.HodgeDiracSymbolPair(jordan, zero), torus.TorusGrid(2, 16)),
        "defective1d": (defective_pair_1d(), torus.TorusGrid(1, 64)),
    }


def outcome(build):
    """build()'s result, or the type, message and xi of the error it raises."""
    try:
        return build()
    except (SplitUndefined, DecompositionFailure) as exc:
        return type(exc), str(exc), getattr(exc, "xi", None)


class TestPerDirectionBuilds:
    """spectral, kernel_range and the constant Hodge projections decompose S
    once per ray direction; they agree with the builds at every frequency."""

    @pytest.mark.parametrize("name", sorted(per_direction_cases()))
    def test_spectral_matches_the_batched_eig(self, name):
        pair, grid = per_direction_cases()[name]
        gs = torus.GridSymbol(pair.total(), grid)
        got, want = gs.spectral, spectral_by_frequency(gs)
        assert np.array_equal(got.good, want.good)
        g = got.good
        assert g[0] and (name != "defective1d" or g.sum() == 1)
        mats = gs.mats.reshape(-1, *gs.mats.shape[-2:])[g]
        for lam, v, v_inv in ((got.lam, got.v, got.v_inv), (want.lam, want.v, want.v_inv)):
            assert rel_err(v[g] @ (lam[g][..., None] * v_inv[g]), mats) < 1e-12
        assert not got.v[~g].any() and not got.v_inv[~g].any()

    @pytest.mark.parametrize("name", sorted(per_direction_cases()))
    def test_kernel_range_matches_the_split_per_frequency(self, name):
        pair, grid = per_direction_cases()[name]
        gs = torus.GridSymbol(pair.total(), grid)
        got = outcome(lambda: tuple(p.mats.reshape(grid.size, -1) for p in gs.kernel_range))
        want = outcome(lambda: kernel_range_by_frequency(gs))
        if name == "defective1d":
            assert got[:2] == want[:2] and got[0] is SplitUndefined
            return
        for a, b in zip(got, want, strict=True):
            assert np.abs(a - b.reshape(a.shape)).max() < 1e-12

    @pytest.mark.parametrize("name", sorted(per_direction_cases()))
    def test_hodge_projections_match_the_projections_per_frequency(self, name):
        pair, grid = per_direction_cases()[name]
        got = outcome(lambda: hodge.constant_hodge_projections(pair, grid)._asdict())
        want = outcome(lambda: hodge_projections_by_frequency(pair, grid))
        if name == "defective1d":
            assert got[:2] == want[:2] and got[0] is DecompositionFailure
            assert np.array_equal(got[2], want[2]) and np.array_equal(got[2], grid.lattice[1])
            return
        for key, p in want.items():
            assert np.abs(got[key].mats.reshape(p.shape) - p).max() < 1e-12, key

    def test_one_decomposition_per_direction(self, monkeypatch):
        # a g=64 graddiv2d build decomposes 1,297 matrices, not 4,096
        sizes = collections.defaultdict(list)
        for fname in ("eig", "svd"):
            real = getattr(np.linalg, fname)

            def counted(a, *args, _real=real, _name=fname, **kw):
                sizes[_name].append(int(np.prod(np.shape(a)[:-2])))
                return _real(a, *args, **kw)

            monkeypatch.setattr(np.linalg, fname, counted)
        pair, grid = grad_div_pair_2d(), torus.TorusGrid(2, 64)
        gs = torus.GridSymbol(pair.total(), grid)
        gs.spectral
        assert dict(sizes) == {"eig": [1297]}
        gs.kernel_range
        hodge.constant_hodge_projections(pair, grid)
        # stacked_split: one SVD of S and the two ranks; the Hodge
        # projections: one SVD of each of gamma + gamma_tilde, gamma, gamma_tilde
        assert dict(sizes) == {"eig": [1297], "svd": [1297] * 6}


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
        torus.save_field(path, mf)
        loaded = torus.load_field(path)
        assert isinstance(loaded, torus.MatrixField) and loaded.grid == grid16
        assert loaded.mats.shape == grid16.shape + (2, 2)
        assert rel_err(loaded.mats, mf.mats) < 1e-6

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
        field = torus.GridField if len(shape) == 1 else torus.MatrixField
        torus.save_field(path, field(grid16, values))
        with pytest.raises(ValueError, match="non-finite"):
            torus.load_field(path)


class TestProbes:
    def test_matrix_function_multiplier_matches_formula(self, dirac_pair, grid64):
        # a general f reaches the symbol by the fractions of a contour
        # enclosing the spectrum, |lam| in [1, 32]
        f = lambda z: z / (1 + z * z)
        gs = torus.GridSymbol(dirac_pair.total(), grid64)
        contour = matcalc.ContourSpec(np.pi / 4, 0.5, 64.0)
        fn = gs.fractions(dacorr.contour_fractions(contour, f))
        assert not fn.mask.any()
        _, v, v_inv, _ = gs.spectral
        mats = v @ (fn.coeff[..., None] * v_inv)
        q = bandpass(gs, 1.0)
        assert np.abs(mats - q.mats.reshape(mats.shape)).max() < 1e-12
