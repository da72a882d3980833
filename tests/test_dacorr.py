import numpy as np
import pytest

from opcalc import cli, dacorr, hodge, matcalc, symbols, torus
from opcalc.errors import CoercivityError, ContourTooClose, NotInvertible, ProbeAborted

from conftest import (
    dense_by_columns,
    dense_resolvent,
    diagonal_coefficients,
    map_operator,
    matrix_function_eig,
    rel_err,
    zero_field,
)


@pytest.fixture(scope="module")
def d_scalar():
    sym = symbols.HomogeneousSymbol(1, 1, 1, {(1,): np.array([[1.0]], dtype=complex)})
    return dacorr.FirstOrderD.verified(sym)


@pytest.fixture(scope="module")
def grid32():
    return torus.TorusGrid(1, 32)


def f_odd(z):
    return z / (1 + z * z)


def composition_fractions(comp, d, f=f_odd, nodes=128):
    """f by its fractions on the contour sized for the coefficient of comp."""
    dist = (comp.a - torus.MatrixField.identity(comp.a.grid, comp.big_n)).inf_norm
    contour = dacorr.discrete_contour(
        d.params, comp.a.grid, coeff_distance=dist, coeff_sup=comp.a.inf_norm, nodes=nodes
    )
    return dacorr.contour_fractions(contour, f)


class TestBuildBlock:
    def test_identity_recovers_model_pair(self, d_scalar, grid32, dirac_pair):
        a = torus.MatrixField.identity(grid32, 1)
        block = dacorr.build_block(d_scalar, a, seed=0)
        ref = hodge.VariableOp.constant(dirac_pair, grid32)
        u = torus.random_band_limited(grid32, 2, seed=1)
        assert torus.lp_norm(block.apply(u) - ref.apply(u), 2.0) <= 1e-12 * torus.lp_norm(
            u, 2.0
        )

    def test_block_structure(self, d_scalar, grid32):
        a = hodge.perturbed_identity(grid32, 1, 0.05, 67)
        block = dacorr.build_block(d_scalar, a, seed=0)
        comp = dacorr.CompositionOp(d_scalar.symbol, a)
        u = torus.random_band_limited(grid32, 2, seed=2)
        u1, u2 = dacorr.split_components(u, 1)
        expected = dacorr.stack_components(
            a.apply(comp.apply(u2)), torus.apply_multiplier(comp.d_op, u1)
        )
        assert torus.lp_norm(block.apply(u) - expected, 2.0) <= 1e-10 * torus.lp_norm(
            u, 2.0
        )

    def test_zero_coefficient_rejected(self, d_scalar, grid32):
        zero = torus.MatrixField(grid32, np.zeros(grid32.shape + (1, 1), dtype=complex))
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

    @pytest.mark.parametrize("g", [16, 256])
    def test_resolvent_product_routes(self, d_scalar, g, field_solves, monkeypatch):
        # the central solve has g unknowns, and takes the two shifts +-i/t
        # of DA's resolvent pair for each of the 3 fields
        grid = torus.TorusGrid(1, g)
        a = hodge.perturbed_identity(grid, 1, 0.05, 68)
        v = torus.random_trials(grid, 2, 3, seed=3)
        dense = dacorr.block_resolvent_product(d_scalar, a, 0.7, v)
        assert field_solves == ["dense"] * 2 * 3
        monkeypatch.setattr(hodge, "DENSE_SOLVE_LIMIT", 0)
        gmres = dacorr.block_resolvent_product(d_scalar, a, 0.7, v)
        assert field_solves[6:] == ["gmres"] * 2 * 3
        ref = dense_resolvent(dacorr.build_block(d_scalar, a, seed=0), 0.7, v)
        vn = torus.lp_norms(v, 2.0)
        for got in (dense, gmres):
            assert torus.max_ratio(got - ref, 2.0, vn) <= 1e-10
        assert torus.max_ratio(dense - gmres, 2.0, vn) <= 1e-10

    def test_block_square_second_component(self, d_scalar, grid32):
        a = hodge.perturbed_identity(grid32, 1, 0.05, 69)
        block = dacorr.build_block(d_scalar, a, seed=0)
        comp = dacorr.CompositionOp(d_scalar.symbol, a)
        u = torus.random_band_limited(grid32, 1, seed=4)
        stacked = dacorr.stack_components(zero_field(grid32, 1), u)
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
            d_scalar, torus.MatrixField.identity(grid32, 1), f_odd,
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
        rhs = maps.op.apply(maps.split(u))
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
        expected = dacorr.stack_components(uk, zero_field(grid16, 4))
        assert torus.lp_norm(sk - expected, 2.0) <= 1e-10 * torus.lp_norm(u, 2.0)

    def test_transported_calculus_matches_direct(self, dirac_pair, grid16):
        coeffs = diagonal_coefficients(grid16, 2, 0.05, 84)
        op = hodge.VariableOp(dirac_pair, coeffs, grid16)
        params = symbols.verify_hodge_pair(dirac_pair).params
        maps = dacorr.build_similarity(dirac_pair, coeffs, grid16)
        u = torus.random_band_limited(grid16, 2, seed=10)
        contour = dacorr.discrete_contour(params, grid16, coeff_distance=0.1,
                                          coeff_sup=1.1)
        f = dacorr.contour_fractions(contour, f_odd)
        via_maps = maps.assemble(dacorr.fraction_calculus(maps.op, maps.split(u), f))
        direct = dacorr.fraction_calculus(op, u, f)
        assert torus.lp_norm(via_maps - direct, 2.0) <= 1e-6 * torus.lp_norm(u, 2.0)


class TestEigOracle:
    @pytest.mark.parametrize("eps", [0.05, 0.3])
    def test_composition_matches_eigendecomposition(self, d_scalar, eps):
        # exact f(DA) from the eigendecomposition of the assembled operator
        grid = torus.TorusGrid(1, 16)
        a = hodge.perturbed_identity(grid, 1, eps, 67)
        comp = dacorr.CompositionOp(d_scalar.symbol, a)
        u = torus.random_band_limited(grid, 1, seed=12)
        got = dacorr.fraction_calculus(comp, u, composition_fractions(comp, d_scalar))
        exact = matrix_function_eig(hodge.dense_operator(comp.apply, grid, 1), f_odd) @ u.flat()
        assert rel_err(got.flat(), exact) < 1e-6


class TestContourFractions:
    """A contour quadrature of the Cauchy integral as partial fractions."""

    @pytest.mark.parametrize("route", ["eig", "per-pole"])
    @pytest.mark.parametrize("name", sorted(dacorr.TEST_FAMILY))
    def test_family_matches_eigendecomposition(self, d_scalar, name, route, monkeypatch):
        # the general-f route, against V f(lam) V^{-1} u of the assembled operator
        grid = torus.TorusGrid(1, 64)
        comp = dacorr.CompositionOp(d_scalar.symbol, hodge.perturbed_identity(grid, 1, 0.3, 67))
        u = torus.random_band_limited(grid, 1, seed=12)
        f = dacorr.TEST_FAMILY[name]
        if route == "per-pole":
            monkeypatch.setattr(hodge, "EIG_ROUTE_POLES", np.inf)
        got = dacorr.fraction_calculus(comp, u, composition_fractions(comp, d_scalar, f))
        exact = matrix_function_eig(hodge.dense_operator(comp.apply, grid, 1), f) @ u.flat()
        assert rel_err(got.flat(), exact) < 1e-10

    def test_log_rays_resolve_wide_spectrum(self, d_scalar):
        # at g=256 the nonzero spectrum of DA spans over two decades of modulus
        grid = torus.TorusGrid(1, 256)
        comp = dacorr.CompositionOp(d_scalar.symbol, hodge.perturbed_identity(grid, 1, 0.9, 67))
        lam = np.linalg.eigvals(hodge.dense_operator(comp.apply, grid, 1))
        fractions = composition_fractions(comp, d_scalar)
        assert len(fractions.poles) == 8 * 128
        assert np.abs(fractions(lam) - f_odd(lam)).max() <= 1e-10

    def test_requires_f_vanishing_at_zero(self, d_scalar, grid16):
        contour = dacorr.discrete_contour(d_scalar.params, grid16)
        with pytest.raises(ValueError):
            dacorr.contour_fractions(contour, lambda z: 1.0 + z)


class TestGmresPath:
    def test_matches_dense_path(self, d_scalar, field_solves, monkeypatch):
        grid = torus.TorusGrid(1, 16)
        comp = dacorr.CompositionOp(d_scalar.symbol, hodge.perturbed_identity(grid, 1, 0.3, 67))
        u = torus.random_band_limited(grid, 1, seed=12)
        f = composition_fractions(comp, d_scalar, nodes=32)
        dense = dacorr.fraction_calculus(comp, u, f)
        monkeypatch.setattr(hodge, "DENSE_SOLVE_LIMIT", 0)
        del field_solves[:]
        gmres = dacorr.fraction_calculus(comp, u, f)
        assert field_solves == ["gmres"] * len(f.poles)
        assert rel_err(gmres.flat(), dense.flat()) < 1e-10


def lu_contour_oracle(apply_fn, u, f, contour):
    """The contour sum with one dense LU solve per node."""
    dim = u.grid.size * u.big_n
    mat = hodge.dense_operator(apply_fn, u.grid, u.big_n)
    z, w = (q.ravel() for q in contour.quadrature)
    rhs = np.broadcast_to(u.flat()[:, None], (z.size, dim, 1))
    sols = np.linalg.solve(z[:, None, None] * np.eye(dim) - mat, rhs)[..., 0]
    return (matcalc.feval(f, z) * w) @ sols


# each case: (operator, field, contour)
def _composition_case(d, grid16, dirac_pair):
    comp = dacorr.CompositionOp(d.symbol, hodge.perturbed_identity(grid16, 1, 0.3, 67))
    contour = dacorr.discrete_contour(d.params, grid16, coeff_distance=0.3, coeff_sup=1.3)
    u = torus.random_band_limited(grid16, 1, seed=12)
    return comp, u, contour


def _block_case(d, grid16, dirac_pair):
    block = dacorr.build_block(d, hodge.perturbed_identity(grid16, 1, 0.3, 67), seed=0)
    v = torus.random_band_limited(grid16, 2, seed=13)
    contour = dacorr.discrete_contour(d.params, grid16, coeff_distance=0.6, coeff_sup=1.3)
    return block, v, contour


def _triple_case(d, grid16, dirac_pair):
    coeffs = diagonal_coefficients(grid16, 2, 0.05, 84)
    maps = dacorr.build_similarity(dirac_pair, coeffs, grid16)
    params = symbols.verify_hodge_pair(dirac_pair).params
    contour = dacorr.discrete_contour(params, grid16, coeff_distance=0.1, coeff_sup=1.1)
    v = maps.split(torus.random_band_limited(grid16, 2, seed=10))
    return maps.op, v, contour


CASES = [_composition_case, _block_case, _triple_case]


def jordan_block(grid):
    """T = 2 I plus the lower shift N of the grid points: one Jordan block
    at the eigenvalue 2."""
    def apply_fn(v):
        x = v.values
        out = 2 * x
        out[..., 1:, :] += x[..., :-1, :]
        return torus.GridField(grid, out)

    return apply_fn


class TestDenseRoute:
    @pytest.mark.parametrize("case", CASES)
    def test_eig_route_matches_lu_oracle(self, case, d_scalar, grid16, dirac_pair, monkeypatch):
        op, u, contour = case(d_scalar, grid16, dirac_pair)
        solves = []
        solve = np.linalg.solve
        # the eig route solves once, with V; the per-pole route once per pole
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
        got = dacorr.fraction_calculus(op, u, dacorr.contour_fractions(contour, f_odd))
        monkeypatch.undo()
        assert len(solves) == 1
        assert rel_err(got.flat(), lu_contour_oracle(op.apply, u, f_odd, contour)) < 1e-12

    def test_jordan_block_takes_per_pole_route(self, grid16):
        # one Jordan block, so V is singular
        apply_fn = jordan_block(grid16)
        dense = hodge.dense_operator(apply_fn, grid16, 1)
        assert not np.linalg.cond(np.linalg.eig(dense)[1]) <= matcalc.EIG_COND_LIMIT
        spec = matcalc.ContourSpec(1.0, 0.1, 10.0, 64)
        u = torus.random_band_limited(grid16, 1, seed=3)
        got = dacorr.fraction_calculus(map_operator(apply_fn, grid16, 1), u,
                                       dacorr.contour_fractions(spec, f_odd))
        exact = matcalc.contour_fc(dense, f_odd, spec) @ u.flat()
        assert rel_err(got.flat(), exact) < 1e-10

    @pytest.mark.parametrize("solve_limit", [
        pytest.param(hodge.DENSE_SOLVE_LIMIT, id="per-pole"),
        pytest.param(0, id="gmres"),
    ])
    def test_singular_shift_is_not_invertible(self, grid16, solve_limit, monkeypatch):
        monkeypatch.setattr(hodge, "DENSE_SOLVE_LIMIT", solve_limit)
        u = torus.random_band_limited(grid16, 1, seed=1)
        f = matcalc.PartialFractions((0.0,), (1.0,))
        with pytest.raises(NotInvertible, match="z=0") as info:
            dacorr.fraction_calculus(map_operator(lambda v: 0 * v, grid16, 1), u, f)
        assert info.value.residual is not None

    def test_singular_preconditioner_names_its_shift(self, d_scalar, grid16, monkeypatch):
        # S(0) = 0, so the pole 0 makes the GMRES preconditioner (p - S)^{-1}
        # singular; it fails as a singular LU does
        monkeypatch.setattr(hodge, "DENSE_SOLVE_LIMIT", 0)
        comp = dacorr.CompositionOp(d_scalar.symbol, hodge.perturbed_identity(grid16, 1, 0.3, 67))
        u = torus.random_band_limited(grid16, 1, seed=1)
        with pytest.raises(NotInvertible, match="shifted solve, z=0") as info:
            dacorr.fraction_calculus(comp, u, matcalc.PartialFractions((0.0,), (1.0,)))
        assert info.value.residual == np.inf

    def test_near_singular_pole_fails_its_residual_check(self, grid16):
        # at the pole 2.1, (p - T)^{-1} = (0.1 I - N)^{-1} has entries up to
        # 1e15: LU returns without complaint, but far from the solution
        u = torus.random_band_limited(grid16, 1, seed=1)
        f = matcalc.PartialFractions((2.1,), (1.0,))
        with pytest.raises(NotInvertible, match="z=2.1: dense solve residual") as info:
            dacorr.fraction_calculus(map_operator(jordan_block(grid16), grid16, 1), u, f)
        assert 1e-12 < info.value.residual < np.inf

    def test_spectrum_outside_contour_raises(self, d_scalar, grid16):
        comp = dacorr.CompositionOp(d_scalar.symbol, hodge.perturbed_identity(grid16, 1, 0.3, 67))
        lam = np.linalg.eigvals(hodge.dense_operator(comp.apply, grid16, 1))
        spec = matcalc.ContourSpec(1.0, 0.1, 0.5 * np.abs(lam).max(), 32)
        u = torus.random_band_limited(grid16, 1, seed=12)
        f = dacorr.contour_fractions(spec, f_odd)
        with pytest.raises(ContourTooClose):
            dacorr.fraction_calculus(comp, u, f)
        stack = torus.random_trials(grid16, 1, 3, 0)
        with pytest.raises(ContourTooClose):
            dacorr.fraction_calculus(comp, stack, f)

    @pytest.mark.parametrize("case", CASES)
    def test_dense_operator_matches_unit_vector_oracle(self, case, d_scalar, grid16, dirac_pair):
        op, u, _ = case(d_scalar, grid16, dirac_pair)
        got = hodge.dense_operator(op.apply, u.grid, u.big_n)
        assert np.array_equal(got, dense_by_columns(op.apply, u.grid, u.big_n))


def _stack_of_three(case, d, grid16, dirac_pair):
    op, u, contour = case(d, grid16, dirac_pair)
    rng = np.random.default_rng(5)
    fields = [u] + [
        torus.GridField(grid16, rng.standard_normal(u.values.shape) + 0j) for _ in range(2)
    ]
    return op, fields, contour


class TestFractionRoute:
    """f(T)U from the partial fractions of f, against A (I + A^2)^{-1} U."""

    @pytest.mark.parametrize("case", CASES)
    def test_dense_route_matches_resolvent_formula(self, case, d_scalar, grid16, dirac_pair):
        op, fields, _ = _stack_of_three(case, d_scalar, grid16, dirac_pair)
        u = torus.GridField.stack(fields)
        a = dense_by_columns(op.apply, grid16, u.big_n)
        cols = u.values.reshape(3, -1).T
        exact = np.linalg.solve(np.eye(len(a)) + a @ a, a @ cols)
        got = dacorr.fraction_calculus(op, u, matcalc.f_rational_odd)
        assert got.batch == (3,)
        assert rel_err(got.values.reshape(3, -1).T, exact) < 1e-12

    @pytest.mark.parametrize("case", CASES)
    def test_gmres_route_matches_dense_route(
        self, case, d_scalar, grid16, dirac_pair, field_solves, monkeypatch
    ):
        op, fields, _ = _stack_of_three(case, d_scalar, grid16, dirac_pair)
        u = torus.GridField.stack(fields)
        dense = dacorr.fraction_calculus(op, u, matcalc.f_rational_odd)
        monkeypatch.setattr(hodge, "DENSE_SOLVE_LIMIT", 0)
        del field_solves[:]
        gmres = dacorr.fraction_calculus(op, u, matcalc.f_rational_odd)
        assert field_solves == ["gmres"] * 2 * 3
        assert rel_err(gmres.values, dense.values) < 1e-10

    def test_partial_fractions_reproduce_closed_form(self):
        x, y = np.meshgrid(np.linspace(-3, 3, 61), np.linspace(-2.95, 2.95, 60))
        z = x + 1j * y  # no point of the grid is a pole
        exact = z / (1 + z * z)
        got = matcalc.f_rational_odd(z)
        assert got.shape == z.shape
        assert np.abs(got - exact).max() <= 1e-15 * max(np.abs(exact).max(), 1.0)
        assert matcalc.f_rational_odd(0.0) == 0.0

    @pytest.mark.parametrize("probe", ["holomorphy", "lipschitz", "triple"])
    def test_probes_take_only_partial_fractions(self, probe, d_scalar, grid16, dirac_pair):
        eye = torus.MatrixField.identity(grid16, 1)
        u = torus.random_band_limited(grid16, 1, seed=1)
        calls = {
            "holomorphy": lambda f: dacorr.holomorphy_probe(
                dacorr.CoefficientPath(eye, hodge.random_direction(grid16, 1, 1)),
                d_scalar, f, u, radius=0.1, nodes=4,
            ),
            "lipschitz": lambda f: dacorr.lipschitz_probe(d_scalar, eye, [eye], f, trials=1),
            "triple": lambda f: dacorr.lipschitz_triple_decomposition(
                dirac_pair, hodge.CoefficientPair.identity(grid16, 2),
                hodge.CoefficientPair.identity(grid16, 2), f,
                torus.random_band_limited(grid16, 2, seed=2),
            ),
        }
        with pytest.raises(TypeError):
            calls[probe](f_odd)


class TestStackedCalls:
    """A contour call on a stack of fields equals one call per field."""

    @pytest.mark.parametrize("case", CASES)
    def test_eig_route(self, case, d_scalar, grid16, dirac_pair):
        op, fields, contour = _stack_of_three(case, d_scalar, grid16, dirac_pair)
        f = dacorr.contour_fractions(contour, f_odd)
        got = dacorr.fraction_calculus(op, torus.GridField.stack(fields), f)
        assert got.batch == (3,)
        for member, u in zip(got.members(), fields):
            one = dacorr.fraction_calculus(op, u, f)
            assert rel_err(member.flat(), one.flat()) < 1e-13

    def test_gmres_route(self, d_scalar, grid16, dirac_pair, field_solves, monkeypatch):
        monkeypatch.setattr(hodge, "DENSE_SOLVE_LIMIT", 0)
        op, fields, _ = _stack_of_three(_composition_case, d_scalar, grid16, dirac_pair)
        contour = dacorr.discrete_contour(
            d_scalar.params, grid16, coeff_distance=0.3, coeff_sup=1.3, nodes=16
        )
        f = dacorr.contour_fractions(contour, f_odd)
        got = dacorr.fraction_calculus(op, torus.GridField.stack(fields), f)
        assert set(field_solves) == {"gmres"}
        for member, u in zip(got.members(), fields):
            one = dacorr.fraction_calculus(op, u, f)
            assert rel_err(member.flat(), one.flat()) < 1e-10

    @pytest.mark.parametrize("suite, g, calls, checks", [
        pytest.param("block", 128, 2, 2, id="block-2"),
        pytest.param("holomorphy", 32, 33, 1, id="holomorphy-33"),
        pytest.param("lipschitz", 64, 6, 0, id="lipschitz-6"),
    ])
    def test_contour_calls_per_probe(self, suite, g, calls, checks, monkeypatch):
        # the contour-1d benchmark configs: one partial-fraction call per
        # operator, not per trial, per circle or per sweep member, and no
        # contour; one coefficient-check trial stack per block operator
        # built, and one for the whole holomorphy circle
        count = {"fraction": 0, "contour": 0, "sized": 0, "check": 0}

        def counted(module, name, key):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                count[key] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(dacorr, "fraction_calculus", "fraction")
        counted(dacorr, "contour_fractions", "contour")
        counted(dacorr, "discrete_contour", "sized")
        counted(hodge, "coefficient_checks", "check")
        values = cli.read_config(suite, {"seed": 0, "grid": {"n": 1, "g": g}})
        _, _, passes = cli.PROBES[suite](**values)
        assert all(passes.values())
        assert count == {"fraction": calls, "contour": 0, "sized": 0, "check": checks}


class TestHolomorphy:
    def test_zero_direction(self, d_scalar, grid32):
        zero_dir = torus.MatrixField(
            grid32, np.zeros(grid32.shape + (1, 1), dtype=complex)
        )
        path = dacorr.CoefficientPath(torus.MatrixField.identity(grid32, 1), zero_dir)
        u = torus.random_band_limited(grid32, 1, seed=11)
        rep = dacorr.holomorphy_probe(
            path, d_scalar, matcalc.f_rational_odd, u, radius=0.05, nodes=8
        )
        assert rep.residual <= 1e-12

    def test_quadrature_order(self, d_scalar, grid32):
        path = dacorr.CoefficientPath(
            torus.MatrixField.identity(grid32, 1),
            hodge.random_direction(grid32, 1, 71),
        )
        u = torus.random_band_limited(grid32, 1, seed=71)
        rep = dacorr.holomorphy_probe(
            path, d_scalar, matcalc.f_rational_odd, u, radius=0.05, nodes=8
        )
        assert rep.residual <= 1e-4
        assert rep.residual_refined <= rep.residual / 4.0

    @pytest.mark.parametrize("nodes", [4, 8])
    def test_residuals_equal_separate_circle_sweeps(self, d_scalar, grid32, nodes):
        # the old path: the nodes- and 2 nodes-point circles swept one at a
        # time, each mean summed in node order
        path = dacorr.CoefficientPath(
            torus.MatrixField.identity(grid32, 1),
            hodge.random_direction(grid32, 1, 72),
        )
        u = torus.random_band_limited(grid32, 1, seed=72)
        radius = 0.3
        rep = dacorr.holomorphy_probe(
            path, d_scalar, matcalc.f_rational_odd, u, radius=radius, nodes=nodes
        )

        def at(z):
            comp = dacorr.CompositionOp(d_scalar.symbol, path.at(z))
            return dacorr.fraction_calculus(comp, u, matcalc.f_rational_odd)

        center = at(0.0)
        for m, got in ((nodes, rep.residual), (2 * nodes, rep.residual_refined)):
            acc = np.zeros_like(center.values)
            for z in radius * np.exp(2j * np.pi * np.arange(m) / m):
                acc += at(z).values
            mean = torus.GridField(grid32, acc / m)
            assert got == torus.lp_norm(mean - center, 2.0) / torus.lp_norm(center, 2.0)

    def test_coercivity_floor_aborts(self, d_scalar, grid32):
        # direction -I: the node at z = radius = 1 kills the coefficient
        minus_eye = -1.0 * torus.MatrixField.identity(grid32, 1)
        path = dacorr.CoefficientPath(torus.MatrixField.identity(grid32, 1), minus_eye)
        u = torus.random_band_limited(grid32, 1, seed=12)
        with pytest.raises(ProbeAborted):
            dacorr.holomorphy_probe(
                path, d_scalar, matcalc.f_rational_odd, u, radius=1.0, nodes=8
            )


class TestLipschitz:
    def test_equal_coefficients(self, d_scalar, grid32):
        a = hodge.perturbed_identity(grid32, 1, 0.05, 73)
        (rep,) = dacorr.lipschitz_probe(d_scalar, a, [a], matcalc.f_rational_odd, trials=1)
        assert rep.max_ratio == 0.0

    def test_scalar_frequency_oracle(self, d_scalar, grid32):
        # constant scalar coefficients: the calculus acts frequency-wise as
        # f(c xi), so the difference norm has a closed form
        c, c2 = 1.0, 1.05
        a = torus.MatrixField(grid32, np.full(grid32.shape + (1, 1), c, dtype=complex))
        a2 = torus.MatrixField(grid32, np.full(grid32.shape + (1, 1), c2, dtype=complex))
        u = torus.random_band_limited(grid32, 1, seed=13)
        comp = dacorr.CompositionOp(d_scalar.symbol, a)
        fa = dacorr.fraction_calculus(comp, u, composition_fractions(comp, d_scalar))
        xs = grid32.lattice[..., 0]
        hat = torus.fft_field(u)
        exact = torus.ifft_field(grid32, f_odd(c * xs)[..., None] * hat)
        assert torus.lp_norm(fa - exact, 2.0) <= 1e-8 * torus.lp_norm(u, 2.0)
        comp2 = dacorr.CompositionOp(d_scalar.symbol, a2)
        fa2 = dacorr.fraction_calculus(comp2, u, composition_fractions(comp2, d_scalar))
        exact2 = torus.ifft_field(grid32, f_odd(c2 * xs)[..., None] * hat)
        diff_exact = torus.lp_norm(exact - exact2, 2.0)
        diff_got = torus.lp_norm(fa - fa2, 2.0)
        # each calculus value carries its own quadrature error; 1% of the
        # difference is well above that floor
        assert abs(diff_got - diff_exact) <= 1e-2 * diff_exact

    def test_three_scale_stability(self, d_scalar, grid32):
        eye = torus.MatrixField.identity(grid32, 1)
        e = hodge.random_direction(grid32, 1, 73)
        for p in (2.0, 3.0):
            sweep = dacorr.lipschitz_probe(
                d_scalar, eye, [eye + eps * e for eps in (0.04, 0.02, 0.01)],
                matcalc.f_rational_odd, trials=2, p=p, seed=14,
            )
            ratios = [rep.max_ratio for rep in sweep]
            assert max(ratios) <= 4.0 * min(ratios)

    def test_sweep_matches_one_member_sweeps(self, d_scalar, grid32):
        # one call per member: the calculus is exact, so the sweep changes
        # no ratio
        eye = torus.MatrixField.identity(grid32, 1)
        e = hodge.random_direction(grid32, 1, 75)
        members = [eye + eps * e for eps in (0.04, 0.02, 0.01)]
        f = matcalc.f_rational_odd
        sweep = dacorr.lipschitz_probe(d_scalar, eye, members, f, trials=2, seed=15)
        for k, (rep, a_tilde) in enumerate(zip(sweep, members)):
            (one,) = dacorr.lipschitz_probe(d_scalar, eye, [a_tilde], f, trials=2, seed=15)
            assert rep.distance == one.distance and rep.f_sup == one.f_sup
            assert abs(rep.max_ratio - one.max_ratio) <= 1e-6 * one.max_ratio
            if k == 0:
                assert rep.max_ratio == one.max_ratio

    def test_triple_decomposition_identity(self, dirac_pair, grid16):
        ca = diagonal_coefficients(grid16, 2, 0.05, 90)
        cb = diagonal_coefficients(grid16, 2, 0.02, 92)
        u = torus.random_band_limited(grid16, 2, seed=15)
        residual = dacorr.lipschitz_triple_decomposition(
            dirac_pair, ca, cb, matcalc.f_rational_odd, u
        )
        assert residual <= 1e-8


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
