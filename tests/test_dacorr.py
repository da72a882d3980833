import numpy as np
import pytest

from opcalc import dacorr, hodge, matcalc, symbols, torus
from opcalc.errors import CoercivityError, ContourTooClose, ProbeAborted

from conftest import diagonal_coefficients, rel_err


@pytest.fixture(scope="module")
def d_scalar():
    sym = symbols.HomogeneousSymbol(1, 1, 1, {(1,): np.array([[1.0]], dtype=complex)})
    return dacorr.FirstOrderD.verified(sym)


@pytest.fixture(scope="module")
def grid32():
    return torus.TorusGrid(1, 32)


def f_odd(z):
    return z / (1 + z * z)


class TestBuildBlock:
    def test_identity_recovers_model_pair(self, d_scalar, grid32, dirac_pair):
        a = hodge.MatrixField.identity(grid32, 1)
        block = dacorr.build_block(d_scalar, a, seed=0)
        ref = hodge.VariableOp.constant(dirac_pair, grid32)
        u = torus.random_band_limited(grid32, 2, seed=1)
        assert torus.lp_norm(block.apply(u) - ref.apply(u), 2.0) <= 1e-12 * torus.lp_norm(
            u, 2.0
        )

    def test_block_structure(self, d_scalar, grid32):
        a = hodge.perturbed_identity(grid32, 1, 0.05, 67)
        block = dacorr.build_block(d_scalar, a, seed=0)
        comp = dacorr.composition(d_scalar, a, grid32)
        u = torus.random_band_limited(grid32, 2, seed=2)
        u1, u2 = dacorr.split_components(u, 1)
        expected = dacorr.stack_components(
            a.apply(comp.apply(u2)), torus.apply_multiplier(comp.d_op, u1)
        )
        assert torus.lp_norm(block.apply(u) - expected, 2.0) <= 1e-10 * torus.lp_norm(
            u, 2.0
        )

    def test_zero_coefficient_rejected(self, d_scalar, grid32):
        zero = hodge.MatrixField(grid32, np.zeros(grid32.shape + (1, 1), dtype=complex))
        with pytest.raises(CoercivityError):
            dacorr.build_block(d_scalar, zero, seed=0)

    def test_three_factor_resolvent_product(self, d_scalar, grid32):
        a = hodge.perturbed_identity(grid32, 1, 0.05, 68)
        block = dacorr.build_block(d_scalar, a, seed=0)
        v = torus.random_band_limited(grid32, 2, seed=3)
        t = 0.7
        lhs = hodge.variable_resolvent(block, t, v, rtol=1e-12)
        rhs = dacorr.block_resolvent_product(d_scalar, a, t, v)
        assert torus.lp_norm(lhs - rhs, 2.0) <= 1e-9 * torus.lp_norm(v, 2.0)

    def test_block_square_second_component(self, d_scalar, grid32):
        a = hodge.perturbed_identity(grid32, 1, 0.05, 69)
        block = dacorr.build_block(d_scalar, a, seed=0)
        comp = dacorr.composition(d_scalar, a, grid32)
        u = torus.random_band_limited(grid32, 1, seed=4)
        stacked = dacorr.stack_components(torus.zero_field(grid32, 1), u)
        sq = block.apply(block.apply(stacked))
        first, second = dacorr.split_components(sq, 1)
        ref = comp.apply(comp.apply(u))
        assert torus.lp_norm(second - ref, 2.0) <= 1e-9 * torus.lp_norm(u, 2.0)
        assert torus.lp_norm(first, 2.0) <= 1e-12 * torus.lp_norm(u, 2.0)


class TestIntertwine:
    def test_zero_function(self, d_scalar, grid32):
        a = hodge.perturbed_identity(grid32, 1, 0.05, 70)
        res = dacorr.intertwine_check(
            d_scalar, a, lambda z: 0.0 * z, trials=1, nodes=32, seed=0
        )
        assert res <= 1e-14

    def test_identity_coefficient(self, d_scalar, grid32):
        res = dacorr.intertwine_check(
            d_scalar, hodge.MatrixField.identity(grid32, 1), f_odd,
            trials=1, nodes=128, seed=1,
        )
        assert res <= 1e-8

    def test_perturbed_and_refines(self, d_scalar, grid32):
        a = hodge.perturbed_identity(grid32, 1, 0.05, 67)
        coarse = dacorr.intertwine_check(d_scalar, a, f_odd, trials=1, nodes=48, seed=2)
        fine = dacorr.intertwine_check(d_scalar, a, f_odd, trials=1, nodes=128, seed=2)
        assert fine <= 1e-6
        assert fine <= coarse + 1e-12


class TestSimilarity:
    def test_left_inverse_identity_coefficients(self, dirac_pair, grid16):
        maps = dacorr.build_similarity(
            dirac_pair, hodge.CoefficientPair.identity(grid16, 2), grid16
        )
        u = torus.random_band_limited(grid16, 2, seed=5)
        out = maps.assemble(maps.split(u))
        assert torus.lp_norm(out - u, 2.0) <= 1e-12 * torus.lp_norm(u, 2.0)

    def test_left_inverse_perturbed(self, dirac_pair, grid16):
        coeffs = diagonal_coefficients(grid16, 2, 0.05, 80)
        maps = dacorr.build_similarity(dirac_pair, coeffs, grid16)
        u = torus.random_band_limited(grid16, 2, seed=6)
        out = maps.assemble(maps.split(u))
        assert torus.lp_norm(out - u, 2.0) <= 1e-8 * torus.lp_norm(u, 2.0)

    def test_intertwines_operator(self, dirac_pair, grid16):
        coeffs = diagonal_coefficients(grid16, 2, 0.05, 81)
        maps = dacorr.build_similarity(dirac_pair, coeffs, grid16)
        op = hodge.VariableOp(dirac_pair, coeffs, grid16)
        u = torus.random_band_limited(grid16, 2, seed=7)
        lhs = maps.split(op.apply(u))
        rhs = maps.triple_apply(maps.split(u))
        assert torus.lp_norm(lhs - rhs, 2.0) <= 1e-8 * torus.lp_norm(u, 2.0)

    def test_projection_not_identity_but_idempotent(self, dirac_pair, grid16):
        coeffs = diagonal_coefficients(grid16, 2, 0.05, 82)
        maps = dacorr.build_similarity(dirac_pair, coeffs, grid16)
        u = torus.random_band_limited(grid16, 2, seed=8)
        v = maps.split(u)
        once = maps.split(maps.assemble(v))
        twice = maps.split(maps.assemble(once))
        assert torus.lp_norm(twice - once, 2.0) <= 1e-8 * torus.lp_norm(u, 2.0)

    def test_kernel_component_pattern(self, dirac_pair, grid16):
        coeffs = diagonal_coefficients(grid16, 2, 0.05, 83)
        op = hodge.VariableOp(dirac_pair, coeffs, grid16)
        maps = dacorr.build_similarity(dirac_pair, coeffs, grid16)
        p0, _, _ = hodge.dense_hodge_projections(op)
        u = torus.random_band_limited(grid16, 2, seed=9)
        uk = torus.GridField.from_flat(grid16, 2, p0 @ u.flat())
        sk = maps.split(uk)
        expected = dacorr.stack_components(uk, torus.zero_field(grid16, 4))
        assert torus.lp_norm(sk - expected, 2.0) <= 1e-10 * torus.lp_norm(u, 2.0)

    def test_transported_calculus_matches_direct(self, dirac_pair, grid16):
        coeffs = diagonal_coefficients(grid16, 2, 0.05, 84)
        op = hodge.VariableOp(dirac_pair, coeffs, grid16)
        params = symbols.verify_hodge_pair(dirac_pair).params
        maps = dacorr.build_similarity(dirac_pair, coeffs, grid16)
        u = torus.random_band_limited(grid16, 2, seed=10)
        contour = dacorr.discrete_contour(params, grid16, coeff_distance=0.1,
                                          coeff_sup=1.1)
        via_maps = maps.assemble(dacorr.contour_calculus(
            maps.triple_apply, maps.split(u), f_odd, contour,
            precond_for=maps.triple_symbol.shifted,
        ))
        direct = dacorr.contour_calculus(
            op.apply, u, f_odd, contour,
            precond_for=torus.GridSymbol(dirac_pair.total(), grid16).shifted,
        )
        assert torus.lp_norm(via_maps - direct, 2.0) <= 1e-6 * torus.lp_norm(u, 2.0)


class TestEigOracle:
    @pytest.mark.parametrize("eps", [0.05, 0.3])
    def test_composition_calculus_matches_eigendecomposition(self, d_scalar, eps):
        # exact f(DA) from the eigendecomposition of the assembled operator
        grid = torus.TorusGrid(1, 16)
        a = hodge.perturbed_identity(grid, 1, eps, 67)
        comp = dacorr.composition(d_scalar, a, grid)
        u = torus.random_band_limited(grid, 1, seed=12)
        got = dacorr.composition_calculus(
            comp, dacorr.f_rational_odd, u, d_scalar, nodes=128
        )
        exact = matcalc.matrix_function_eig(
            hodge.dense_operator(comp.apply, grid, 1), dacorr.f_rational_odd
        ) @ u.flat()
        assert rel_err(got.flat(), exact) < 1e-6


class TestGmresPath:
    def test_matches_dense_path(self, d_scalar, monkeypatch):
        grid = torus.TorusGrid(1, 16)
        comp = dacorr.composition(d_scalar, hodge.perturbed_identity(grid, 1, 0.3, 67), grid)
        u = torus.random_band_limited(grid, 1, seed=12)
        dense = dacorr.composition_calculus(comp, dacorr.f_rational_odd, u, d_scalar, nodes=32)
        monkeypatch.setattr(dacorr, "DENSE_CALCULUS_LIMIT", 0)
        gmres = dacorr.composition_calculus(comp, dacorr.f_rational_odd, u, d_scalar, nodes=32)
        assert rel_err(gmres.flat(), dense.flat()) < 1e-10


def lu_contour_oracle(apply_fn, u, f, contour):
    """The contour sum with one dense LU solve per node."""
    dim = u.grid.size * u.big_n
    mat = hodge.dense_operator(apply_fn, u.grid, u.big_n)
    z, w = (q.ravel() for q in contour.quadrature)
    rhs = np.broadcast_to(u.flat()[:, None], (z.size, dim, 1))
    sols = np.linalg.solve(z[:, None, None] * np.eye(dim) - mat, rhs)[..., 0]
    return (matcalc._feval(f, z) * w) @ sols


def _composition_case(d, grid16, dirac_pair):
    comp = dacorr.composition(d, hodge.perturbed_identity(grid16, 1, 0.3, 67), grid16)
    contour = dacorr.discrete_contour(d.params, grid16, coeff_distance=0.3, coeff_sup=1.3)
    return comp.apply, torus.random_band_limited(grid16, 1, seed=12), contour


def _block_case(d, grid16, dirac_pair):
    block = dacorr.build_block(d, hodge.perturbed_identity(grid16, 1, 0.3, 67), seed=0)
    v = torus.random_band_limited(grid16, 2, seed=13)
    contour = dacorr.discrete_contour(d.params, grid16, coeff_distance=0.6, coeff_sup=1.3)
    return block.apply, v, contour


def _triple_case(d, grid16, dirac_pair):
    coeffs = diagonal_coefficients(grid16, 2, 0.05, 84)
    maps = dacorr.build_similarity(dirac_pair, coeffs, grid16)
    params = symbols.verify_hodge_pair(dirac_pair).params
    contour = dacorr.discrete_contour(params, grid16, coeff_distance=0.1, coeff_sup=1.1)
    return maps.triple_apply, maps.split(torus.random_band_limited(grid16, 2, seed=10)), contour


class TestDenseRoute:
    @pytest.mark.parametrize("case", [_composition_case, _block_case, _triple_case])
    def test_eig_route_matches_lu_oracle(self, case, d_scalar, grid16, dirac_pair, monkeypatch):
        apply_fn, u, contour = case(d_scalar, grid16, dirac_pair)

        def no_gmres(*args, **kwargs):
            raise AssertionError("GMRES fallback taken")

        monkeypatch.setattr(hodge, "solve_field", no_gmres)
        got = dacorr.contour_calculus(apply_fn, u, f_odd, contour)
        assert rel_err(got.flat(), lu_contour_oracle(apply_fn, u, f_odd, contour)) < 1e-12

    def test_jordan_block_falls_back_to_gmres(self, grid16):
        # 2 I plus the lower shift: one Jordan block, so V is singular
        def apply_fn(v):
            x = v.flat()
            out = 2 * x
            out[1:] += x[:-1]
            return torus.GridField.from_flat(grid16, 1, out)

        dense = hodge.dense_operator(apply_fn, grid16, 1)
        assert not np.linalg.cond(np.linalg.eig(dense)[1]) <= matcalc.EIG_COND_LIMIT
        spec = matcalc.ContourSpec(1.0, 0.1, 10.0, 64)
        u = torus.random_band_limited(grid16, 1, seed=3)
        got = dacorr.contour_calculus(apply_fn, u, f_odd, spec)
        exact = matcalc.contour_fc(dense, f_odd, spec) @ u.flat()
        assert rel_err(got.flat(), exact) < 1e-10

    def test_spectrum_outside_contour_raises(self, d_scalar, grid16):
        comp = dacorr.composition(d_scalar, hodge.perturbed_identity(grid16, 1, 0.3, 67), grid16)
        lam = np.linalg.eigvals(hodge.dense_operator(comp.apply, grid16, 1))
        spec = matcalc.ContourSpec(1.0, 0.1, 0.5 * np.abs(lam).max(), 32)
        u = torus.random_band_limited(grid16, 1, seed=12)
        with pytest.raises(ContourTooClose):
            dacorr.contour_calculus(comp.apply, u, f_odd, spec)


class TestHolomorphy:
    def test_zero_direction(self, d_scalar, grid32):
        zero_dir = hodge.MatrixField(
            grid32, np.zeros(grid32.shape + (1, 1), dtype=complex)
        )
        path = dacorr.CoefficientPath(hodge.MatrixField.identity(grid32, 1), zero_dir)
        u = torus.random_band_limited(grid32, 1, seed=11)
        rep = dacorr.holomorphy_probe(
            path, d_scalar, f_odd, u, radius=0.05, nodes=8, calculus_nodes=64
        )
        assert rep.residual <= 1e-12

    def test_quadrature_order(self, d_scalar, grid32):
        path = dacorr.CoefficientPath(
            hodge.MatrixField.identity(grid32, 1),
            hodge.random_direction(grid32, 1, 71),
        )
        u = torus.random_band_limited(grid32, 1, seed=71)
        r8 = dacorr.holomorphy_probe(
            path, d_scalar, f_odd, u, radius=0.05, nodes=8, calculus_nodes=128
        )
        r16 = dacorr.holomorphy_probe(
            path, d_scalar, f_odd, u, radius=0.05, nodes=16, calculus_nodes=128
        )
        assert r8.residual <= 1e-4
        assert r16.residual <= r8.residual / 4.0

    def test_default_radius_estimated(self, d_scalar, grid32):
        path = dacorr.CoefficientPath(
            hodge.MatrixField.identity(grid32, 1),
            hodge.random_direction(grid32, 1, 74),
        )
        u = torus.random_band_limited(grid32, 1, seed=16)
        rep = dacorr.holomorphy_probe(path, d_scalar, f_odd, u, calculus_nodes=128)
        assert 0.0 < rep.radius <= 0.5
        assert rep.residual <= 1e-4

    def test_coercivity_floor_aborts(self, d_scalar, grid32):
        # direction -I: the node at z = radius = 1 kills the coefficient
        minus_eye = -1.0 * hodge.MatrixField.identity(grid32, 1)
        path = dacorr.CoefficientPath(hodge.MatrixField.identity(grid32, 1), minus_eye)
        u = torus.random_band_limited(grid32, 1, seed=12)
        with pytest.raises(ProbeAborted):
            dacorr.holomorphy_probe(
                path, d_scalar, f_odd, u, radius=1.0, nodes=8, calculus_nodes=32
            )


class TestLipschitz:
    def test_equal_coefficients(self, d_scalar, grid32):
        a = hodge.perturbed_identity(grid32, 1, 0.05, 73)
        rep = dacorr.lipschitz_probe(d_scalar, a, a, f_odd, trials=1)
        assert rep.max_ratio == 0.0

    def test_scalar_frequency_oracle(self, d_scalar, grid32):
        # constant scalar coefficients: the calculus acts frequency-wise as
        # f(c xi), so the difference norm has a closed form
        c, c2 = 1.0, 1.05
        a = hodge.MatrixField(grid32, np.full(grid32.shape + (1, 1), c, dtype=complex))
        a2 = hodge.MatrixField(grid32, np.full(grid32.shape + (1, 1), c2, dtype=complex))
        u = torus.random_band_limited(grid32, 1, seed=13)
        fa = dacorr.composition_calculus(
            dacorr.composition(d_scalar, a, grid32), f_odd, u, d_scalar
        )
        xs = grid32.lattice[..., 0]
        hat = torus.fft_field(u)
        exact = torus.ifft_field(grid32, f_odd(c * xs)[..., None] * hat)
        assert torus.lp_norm(fa - exact, 2.0) <= 1e-8 * torus.lp_norm(u, 2.0)
        fa2 = dacorr.composition_calculus(
            dacorr.composition(d_scalar, a2, grid32), f_odd, u, d_scalar
        )
        exact2 = torus.ifft_field(grid32, f_odd(c2 * xs)[..., None] * hat)
        diff_exact = torus.lp_norm(exact - exact2, 2.0)
        diff_got = torus.lp_norm(fa - fa2, 2.0)
        # each calculus value carries its own quadrature error; 1% of the
        # difference is well above that floor
        assert abs(diff_got - diff_exact) <= 1e-2 * diff_exact

    def test_three_scale_stability(self, d_scalar, grid32):
        eye = hodge.MatrixField.identity(grid32, 1)
        e = hodge.random_direction(grid32, 1, 73)
        ratios = []
        for eps in (0.04, 0.02, 0.01):
            rep = dacorr.lipschitz_probe(
                d_scalar, eye, eye + eps * e, f_odd, trials=2, seed=14
            )
            ratios.append(rep.max_ratio)
        assert max(ratios) <= 4.0 * min(ratios)

    def test_triple_decomposition_identity(self, dirac_pair, grid16):
        params = symbols.verify_hodge_pair(dirac_pair).params
        ca = diagonal_coefficients(grid16, 2, 0.05, 90)
        cb = diagonal_coefficients(grid16, 2, 0.02, 92)
        u = torus.random_band_limited(grid16, 2, seed=15)
        out = dacorr.lipschitz_triple_decomposition(
            dirac_pair, ca, cb, f_odd, u, params
        )
        assert out["identity_residual"] <= 1e-8


class TestTestFamily:
    def test_all_vanish_at_zero(self):
        for f in dacorr.TEST_FAMILY.values():
            assert abs(f(0.0)) < 1e-15

    def test_bounded_on_bisector(self):
        for name, f in dacorr.TEST_FAMILY.items():
            sup = dacorr.sup_norm_on_bisector(f, np.pi / 8)
            assert np.isfinite(sup) and sup <= 1.5, name

    def test_sign_approx_limits(self):
        assert abs(dacorr.f_sign_approx(10.0) - 1.0) < 1e-3
        assert abs(dacorr.f_sign_approx(-10.0) + 1.0) < 1e-3
