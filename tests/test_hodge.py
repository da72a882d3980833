import inspect
import re

import numpy as np
import pytest

import opcalc
from opcalc import cli, dacorr, hodge, matcalc, symbols, torus
from opcalc.errors import (
    DecompositionFailure,
    HodgeDecompositionUncertain,
    NotInvertible,
    PerturbationTooLarge,
)

from conftest import (
    SOLVE_ROUTES,
    coefficient_conditions_by_trial,
    dense_by_columns,
    dense_resolvent,
    diagonal_coefficients,
    grad_div_pair_2d,
    limit_parts,
    map_operator,
    random_matrix,
    rel_err,
    resolvent,
    zero_mode,
)


@pytest.fixture(scope="module")
def var_op16(dirac_pair, grid16):
    return hodge.VariableOp(dirac_pair, diagonal_coefficients(grid16, 2, 0.05, 23), grid16)


def dft_matrix(g):
    j = np.arange(g)
    return np.exp(-2j * np.pi * np.outer(j, j) / g)


def dense_via_dft(op):
    """Independent dense assembly of the twisted operator on a 1-D grid:
    explicit DFT conjugation for the multipliers, block-diagonal pointwise
    factors, ordered with the component index fastest."""
    g = op.grid.g
    n_comp = op.big_n
    f = dft_matrix(g)
    finv = np.conj(f) / g
    sym_g = op.pair.gamma(op.grid.lattice)
    sym_gt = op.pair.gamma_tilde(op.grid.lattice)

    def multiplier_dense(sym):
        # F^{-1} diag(sym) F acting per component pair
        out = np.zeros((g * n_comp, g * n_comp), dtype=complex)
        for i in range(n_comp):
            for j in range(n_comp):
                out[i::n_comp, j::n_comp] = finv @ np.diag(sym[:, i, j]) @ f
        return out

    def pointwise_dense(mf):
        out = np.zeros((g * n_comp, g * n_comp), dtype=complex)
        for x in range(g):
            out[x * n_comp:(x + 1) * n_comp, x * n_comp:(x + 1) * n_comp] = mf.mats[x]
        return out

    # reorder to match GridField.flat(): component fastest == same layout
    m_g = multiplier_dense(sym_g)
    m_gt = multiplier_dense(sym_gt)
    b1 = pointwise_dense(op.coeffs.b1)
    b2 = pointwise_dense(op.coeffs.b2)
    return m_g + b1 @ m_gt @ b2


class TestConstantProjections:
    def test_dirac_pointwise_values(self, dirac_pair, grid64):
        proj = hodge.constant_hodge_projections(dirac_pair, grid64)
        idx = 1  # frequency +1
        assert rel_err(proj.p_gamma.mats[idx], np.diag([0.0, 1.0])) < 1e-12
        assert rel_err(
            proj.p_gamma_tilde.mats[idx], np.diag([1.0, 0.0])
        ) < 1e-12
        assert np.abs(proj.p0.mats[idx]).max() < 1e-12

    def test_zero_mode(self, dirac_pair, grid64):
        proj = hodge.constant_hodge_projections(dirac_pair, grid64)
        assert np.allclose(zero_mode(proj.p0), np.eye(2))
        assert np.allclose(zero_mode(proj.p_gamma), 0)

    def test_identities_grad_div(self, grad_div_pair):
        grid = torus.TorusGrid(2, 8)
        proj = hodge.constant_hodge_projections(grad_div_pair, grid)
        rng = np.random.default_rng(17)
        for _ in range(3):
            u = torus.random_band_limited(grid, 4, seed=int(rng.integers(2**31)))
            un = torus.lp_norm(u, 2.0)
            s = proj.p0.apply(u) + proj.p_gamma.apply(u) + proj.p_gamma_tilde.apply(u)
            assert torus.lp_norm(s - u, 2.0) <= 1e-10 * un
            for fn in (p.apply for p in proj):
                v = fn(u)
                assert torus.lp_norm(fn(v) - v, 2.0) <= 1e-10 * un

    def test_matches_dense_subspace_oracle(self, dirac_pair, grid16):
        proj = hodge.constant_hodge_projections(dirac_pair, grid16)
        op = hodge.VariableOp.constant(dirac_pair, grid16)
        dense = hodge.dense_hodge_projections(op)
        u = torus.random_band_limited(grid16, 2, seed=17)
        for p, mat in zip(proj, dense):
            ref = torus.GridField.from_flat(grid16, 2, mat @ u.flat())
            assert torus.lp_norm(p.apply(u) - ref, 2.0) <= 1e-10 * torus.lp_norm(u, 2.0)

    def test_unsplittable_pair_raises(self, dirac_pair, grid64):
        bad = symbols.HodgeDiracSymbolPair(dirac_pair.gamma, dirac_pair.gamma)
        with pytest.raises(DecompositionFailure):
            hodge.constant_hodge_projections(bad, grid64)


class TestApply:
    def test_identity_coefficients_reduce_to_multiplier(self, dirac_pair, grid64):
        op = hodge.VariableOp.constant(dirac_pair, grid64)
        u = torus.random_band_limited(grid64, 2, seed=2)
        total = torus.GridSymbol(dirac_pair.total(), grid64).multiplier()
        assert rel_err(op.apply(u).values, torus.apply_multiplier(total, u).values) < 1e-12

    def test_constant_field_annihilated(self, dirac_pair, grid16):
        # constants lie in the kernel when the inner coefficient is constant
        # in space (a varying B2 re-introduces x-dependence before the
        # derivative acts)
        coeffs = hodge.CoefficientPair(
            hodge.perturbed_identity(grid16, 2, 0.3, 21, diagonal=True),
            torus.MatrixField.identity(grid16, 2),
        )
        op = hodge.VariableOp(dirac_pair, coeffs, grid16)
        c = torus.GridField(
            grid16, np.broadcast_to([1.0, 2.0], grid16.shape + (2,)).astype(complex)
        )
        assert torus.lp_norm(op.apply(c), 2.0) < 1e-12

    def test_against_dft_dense_oracle(self, dirac_pair, grid16):
        rng = np.random.default_rng(19)
        coeffs = diagonal_coefficients(grid16, 2, 0.3, 19)
        op = hodge.VariableOp(dirac_pair, coeffs, grid16)
        dense = dense_via_dft(op)
        for _ in range(3):
            u = torus.random_band_limited(grid16, 2, seed=int(rng.integers(2**31)))
            got = op.apply(u).flat()
            ref = dense @ u.flat()
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(u.flat())

    def test_library_dense_matches_dft_oracle(self, var_op16):
        dense = hodge.dense_operator(var_op16.apply, var_op16.grid, var_op16.big_n)
        assert np.abs(dense - dense_via_dft(var_op16)).max() < 1e-10


class TestDenseOperator:
    def test_reconstructs_matrix(self):
        # 8 points x 3 components: 24 columns, less than one chunk
        grid, big_n = torus.TorusGrid(1, 8), 3
        a = random_matrix(24, 6)

        def apply_fn(u):
            flat = u.values.reshape(-1, 24)
            return torus.GridField(grid, (flat @ a.T).reshape(u.values.shape))

        assert np.allclose(hodge.dense_operator(apply_fn, grid, big_n), a)

    def test_spans_several_chunks(self, dirac_pair, grid64):
        op = hodge.VariableOp(dirac_pair, diagonal_coefficients(grid64, 2, 0.05, 24), grid64)
        assert op.dim > hodge.DENSE_CHUNK
        dense = hodge.dense_operator(op.apply, grid64, 2)
        assert np.array_equal(dense, dense_by_columns(op.apply, grid64, 2))

    def test_pointwise_field_is_block_diagonal(self, grid16):
        mf = hodge.perturbed_identity(grid16, 2, 0.3, 22)
        blocks = mf.mats.reshape(-1, 2, 2)
        expected = np.zeros((32, 32), dtype=complex)
        for i, b in enumerate(blocks):
            expected[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = b
        assert np.array_equal(hodge.dense_operator(mf.apply, grid16, 2), expected)


class TestCoefficientConditions:
    def test_identity_passes_exactly(self, dirac_pair, grid16):
        op = hodge.VariableOp.constant(dirac_pair, grid16)
        for p in (2.0, 3.0):
            rep = hodge.coefficient_checks(op, p=p, seed=1)(op.coeffs)
            assert rep.passed
            assert rep.nilpotence_residual <= 1e-12
            assert abs(rep.coercivity_primal - 1.0) < 1e-12

    def test_scalar_scaling(self, dirac_pair, grid16):
        two = torus.MatrixField.identity(grid16, 2) * 2.0
        op = hodge.VariableOp(
            dirac_pair, hodge.CoefficientPair(two, torus.MatrixField.identity(grid16, 2)),
            grid16,
        )
        rep = hodge.check_coefficient_conditions(op, seed=2)
        assert abs(rep.coercivity_primal - 2.0) < 1e-12

    def test_offrange_counterexample_fails(self, dirac_pair, grid16):
        # lower-triangular product pushes range(gamma_tilde) off its kernel
        vals = np.broadcast_to(np.eye(2), grid16.shape + (2, 2)).copy().astype(complex)
        vals[..., 1, 0] = 0.3
        bad = hodge.CoefficientPair(
            torus.MatrixField(grid16, vals), torus.MatrixField.identity(grid16, 2)
        )
        rep = hodge.check_coefficient_conditions(
            hodge.VariableOp(dirac_pair, bad, grid16), seed=3
        )
        assert not rep.passed
        assert hodge.OFFRANGE_NILPOTENCE in rep.failures
        assert rep.nilpotence_residual > 1e-3


    @pytest.mark.parametrize("case", ["block", "graddiv2d"])
    def test_batched_equals_per_trial_loop(self, case, grad_div_pair):
        if case == "block":
            grid = torus.TorusGrid(1, 32)
            d = dacorr.FirstOrderD.verified(
                symbols.HomogeneousSymbol(1, 1, 1, {(1,): np.array([[1.0]], dtype=complex)})
            )
            a = hodge.perturbed_identity(grid, 1, 0.05, 67)
            op = hodge.VariableOp(dacorr.block_pair(d), dacorr.block_coefficients(a), grid)
        else:
            grid = torus.TorusGrid(2, 16)
            op = hodge.VariableOp(
                grad_div_pair, diagonal_coefficients(grid, 4, 0.05, 23), grid
            )
        for seed in (0, 5):
            got = hodge.check_coefficient_conditions(op, seed=seed)
            assert got == coefficient_conditions_by_trial(op, seed=seed)


class TestVariableResolvent:
    def test_zero_scale(self, var_op16, grid16):
        u = torus.random_band_limited(grid16, 2, seed=4)
        assert hodge.variable_resolvent(var_op16, 0.0, u) is u

    def test_identity_coefficients_match_multiplier(self, dirac_pair, grid64):
        op = hodge.VariableOp.constant(dirac_pair, grid64)
        u = torus.random_band_limited(grid64, 2, seed=5)
        got = hodge.variable_resolvent(op, 1.3, u, rtol=1e-12)
        r = resolvent(torus.GridSymbol(dirac_pair.total(), grid64), 1.3)
        ref = torus.apply_multiplier(r, u)
        assert torus.lp_norm(got - ref, 2.0) <= 1e-10 * torus.lp_norm(u, 2.0)

    def test_krylov_vs_dense_lu(self, dirac_pair, grid16, field_solves, monkeypatch):
        monkeypatch.setattr(hodge, "DENSE_SOLVE_LIMIT", 0)
        coeffs = diagonal_coefficients(grid16, 2, 0.01, 23)
        op = hodge.VariableOp(dirac_pair, coeffs, grid16)
        u = torus.random_band_limited(grid16, 2, seed=23)
        got = hodge.variable_resolvent(op, 2.0, u, rtol=1e-12)
        assert field_solves == ["gmres"]
        ref = dense_resolvent(op, 2.0, u)
        assert torus.lp_norm(got - ref, 2.0) <= 1e-9 * torus.lp_norm(u, 2.0)

    def test_nan_rhs_is_not_invertible(self, var_op16, grid16, field_solves, monkeypatch):
        monkeypatch.setattr(hodge, "DENSE_SOLVE_LIMIT", 0)
        values = torus.random_band_limited(grid16, 2, seed=6).values.copy()
        values[5, 1] = np.nan
        with pytest.raises(NotInvertible):
            hodge.solve_shifts(
                var_op16,
                torus.GridField(grid16, values),
                [1j],
                [[1j]],
                what="resolvent at t=1",
                rtol=1e-10,
            )
        assert field_solves == ["gmres"]

    def test_stack_solves_each_member(self, var_op16, grid16):
        stack = torus.random_trials(grid16, 2, 3, seed=8)
        got = hodge.variable_resolvent(var_op16, 1.5, stack)
        assert got.batch == (3,)
        for member, u in zip(got.members(), stack.members()):
            assert np.array_equal(member.values, hodge.variable_resolvent(var_op16, 1.5, u).values)

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_resolvent_pair_halves_vs_dense(self, var_op16, grid16, t):
        # P_t and t Op P_t from R(t) and R(-t), against LU of I + t^2 Op^2
        stack = torus.random_trials(grid16, 2, 3, seed=12)
        m = hodge.dense_operator(var_op16.apply, grid16, 2)
        cols = stack.values.reshape(3, -1).T
        smooth = np.linalg.solve(np.eye(var_op16.dim) + t * t * m @ m, cols)
        un = torus.lp_norms(stack, 2.0)
        for got, ref in zip(hodge.resolvent_halves(var_op16, [t], stack), (smooth, t * m @ smooth)):
            ref = torus.GridField(grid16, ref.T.reshape(stack.values.shape))
            assert torus.max_ratio(got - ref, 2.0, un) <= 1e-9


def route_case(name):
    """A variable operator at desk size: dirac1d at g=16 (32 unknowns) and
    graddiv2d at g=8 (256 unknowns, DENSE_SOLVE_LIMIT)."""
    if name == "dirac1d":
        pair, grid = symbols.dirac_pair_1d(), torus.TorusGrid(1, 16)
    else:
        pair, grid = grad_div_pair_2d(), torus.TorusGrid(2, 8)
    return hodge.VariableOp(pair, diagonal_coefficients(grid, pair.big_n, 0.05, 31), grid)


class TestDenseSolveRoute:
    """solve_shifts's dense route against its GMRES route and the LU oracle."""

    @pytest.mark.parametrize("case", ["dirac1d", "graddiv2d"])
    def test_resolvents_match_gmres_and_lu(self, case, field_solves, monkeypatch):
        op = route_case(case)
        stack = torus.random_trials(op.grid, op.big_n, 3, seed=14)
        un = torus.lp_norms(stack, 2.0)
        t = 2.0

        def resolvents():
            return (hodge.variable_resolvent(op, t, stack, rtol=1e-12),
                    *hodge.resolvent_halves(op, [t], stack, rtol=1e-12))

        dense = resolvents()
        assert field_solves == ["dense"] * 9
        monkeypatch.setattr(hodge, "DENSE_SOLVE_LIMIT", 0)
        gmres = resolvents()
        assert field_solves[9:] == ["gmres"] * 9
        plus, minus = dense_resolvent(op, t, stack), dense_resolvent(op, -t, stack)
        refs = (plus, 0.5 * (plus + minus), 0.5j * (plus - minus))
        for d, g, ref in zip(dense, gmres, refs):
            assert torus.max_ratio(d - ref, 2.0, un) <= 1e-10
            assert torus.max_ratio(g - ref, 2.0, un) <= 1e-10
            assert torus.max_ratio(d - g, 2.0, un) <= 1e-10

    @pytest.mark.parametrize("big_n, route", [
        pytest.param(hodge.DENSE_SOLVE_LIMIT // 4, "dense", id="at-limit"),
        pytest.param(hodge.DENSE_SOLVE_LIMIT // 4 + 1, "gmres", id="past-limit"),
    ])
    def test_route_by_size(self, big_n, route, field_solves):
        # 3I plus a cyclic shift of the components, the shift 3 of minus the
        # cyclic shift, at the limit and at the next size a field on 4 points
        # can have; both meet rtol
        grid = torus.TorusGrid(1, 4)

        def apply_fn(f):
            return 3.0 * f + torus.GridField(grid, np.roll(f.values, 1, axis=-1))

        def minus_shift(f):
            return torus.GridField(grid, -np.roll(f.values, 1, axis=-1))

        rhs = torus.random_trials(grid, big_n, 2, seed=3)
        x, = hodge.solve_shifts(map_operator(minus_shift, grid, big_n), rhs, [3.0], [[1.0]],
                                what="shifted", rtol=1e-12)
        assert field_solves == [route] * 2
        assert torus.max_ratio(apply_fn(x) - rhs, 2.0, torus.lp_norms(rhs, 2.0)) <= 1e-12

    def test_nan_rhs_is_not_invertible(self, var_op16, grid16, field_solves):
        values = torus.random_band_limited(grid16, 2, seed=6).values.copy()
        values[5, 1] = np.nan
        with pytest.raises(NotInvertible, match="resolvent at t=1") as info:
            hodge.solve_shifts(
                var_op16,
                torus.GridField(grid16, values),
                [1j],
                [[1j]],
                what="resolvent at t=1",
                rtol=1e-10,
            )
        assert field_solves == ["dense"]
        assert np.isnan(info.value.residual)

    def test_singular_operator_is_not_invertible(self, grid16):
        stack = torus.random_trials(grid16, 2, 2, seed=6)
        with pytest.raises(NotInvertible, match="zero map") as info:
            hodge.solve_shifts(map_operator(lambda f: 0 * f, grid16, 2), stack, [0.0], [[1.0]],
                               what="zero map", rtol=1e-10)
        assert info.value.residual == np.inf

    def test_residual_above_rtol_is_not_invertible(self, var_op16, grid16):
        u = torus.random_band_limited(grid16, 2, seed=6)
        with pytest.raises(NotInvertible, match="above") as info:
            hodge.solve_shifts(var_op16, u, [1j], [[1j]], what="r", rtol=1e-30)
        assert 1e-30 < info.value.residual < 1e-12


class TestSolveShifts:
    """solve_shifts on each of its routes against the LU oracle, on stacks,
    with one rtol per shift."""

    @pytest.mark.parametrize("route", ["lu", "eig", "gmres"])
    @pytest.mark.parametrize("case", ["dirac1d", "graddiv2d"])
    def test_resolvents_match_lu_oracle(self, case, route, field_solves, monkeypatch):
        # R(t) = p (p - Op)^{-1} with p = i/t, one row per shift
        op = route_case(case)
        stack = torus.random_trials(op.grid, op.big_n, 3, seed=15)
        ts = [0.5, -0.5, 2.0, -2.0]
        shifts = [1j / t for t in ts]
        if route == "eig":
            monkeypatch.setattr(hodge, "EIG_ROUTE_POLES", len(shifts))
        if route == "gmres":
            monkeypatch.setattr(hodge, "DENSE_SOLVE_LIMIT", 0)
        got = hodge.solve_shifts(
            op, stack, shifts, np.diag(shifts), what="resolvent",
            rtol=[1e-12, 1e-12, 1e-11, 1e-11],
        )
        # the eig route solves once with V, for all shifts
        routes = {"lu": ["dense"] * 4 * 3, "eig": ["dense"] * 3, "gmres": ["gmres"] * 4 * 3}
        assert field_solves == routes[route]
        un = torus.lp_norms(stack, 2.0)
        for x, t in zip(got, ts):
            assert torus.max_ratio(x - dense_resolvent(op, t, stack), 2.0, un) <= 1e-10

    def test_rtol_per_shift(self, var_op16):
        # the second shift's rtol is out of reach, and the error names it
        u = torus.random_band_limited(var_op16.grid, 2, seed=6)
        with pytest.raises(NotInvertible, match=r"pair, z=-0-0\.5j") as info:
            hodge.solve_shifts(var_op16, u, [0.5j, -0.5j], [[1.0, 1.0]], what="pair",
                               rtol=[1e-10, 1e-30])
        assert 1e-30 < info.value.residual < 1e-12


def test_one_dense_size_limit():
    # every route between dense linear algebra and GMRES reads one limit
    limits = [f"{name}.{attr}" for name, mod in vars(opcalc).items() if inspect.ismodule(mod)
              for attr in vars(mod) if re.fullmatch(r"DENSE_\w*_LIMIT", attr)]
    assert limits == ["hodge.DENSE_SOLVE_LIMIT"]


class TestVariableProjections:
    def test_identity_matches_constant(self, dirac_pair, grid16):
        op = hodge.VariableOp.constant(dirac_pair, grid16)
        hodge.variable_hodge_projections(op, seed=6)
        proj_c = hodge.constant_hodge_projections(dirac_pair, grid16)
        u = torus.random_band_limited(grid16, 2, seed=7)
        un = torus.lp_norm(u, 2.0)
        v0, vg, vgt = limit_parts(op, u)
        assert torus.lp_norm(v0 - proj_c.p0.apply(u), 2.0) <= 1e-8 * un
        assert torus.lp_norm(vg - proj_c.p_gamma.apply(u), 2.0) <= 1e-8 * un
        assert (
            torus.lp_norm(vgt - proj_c.p_gamma_tilde.apply(u), 2.0)
            <= 1e-8 * un
        )

    def test_constant_field_in_kernel(self, dirac_pair, grid16):
        # see TestApply.test_constant_field_annihilated: constant B2 regime
        coeffs = hodge.CoefficientPair(
            hodge.perturbed_identity(grid16, 2, 0.1, 22, diagonal=True),
            torus.MatrixField.identity(grid16, 2),
        )
        op = hodge.VariableOp(dirac_pair, coeffs, grid16)
        c = torus.GridField(
            grid16, np.broadcast_to([1.0, -0.5], grid16.shape + (2,)).astype(complex)
        )
        hodge.variable_hodge_projections(op, seed=8)
        assert torus.lp_norm(limit_parts(op, c)[0] - c, 2.0) <= 1e-8 * torus.lp_norm(c, 2.0)

    def test_against_dense_subspace_oracle(self, dirac_pair, grid16):
        coeffs = diagonal_coefficients(grid16, 2, 0.05, 29)
        op = hodge.VariableOp(dirac_pair, coeffs, grid16)
        hodge.variable_hodge_projections(op, seed=29)
        dense = hodge.dense_hodge_projections(op)
        rng = np.random.default_rng(29)
        worst = 0.0
        for _ in range(3):
            u = torus.random_band_limited(grid16, 2, seed=int(rng.integers(2**31)))
            un = torus.lp_norm(u, 2.0)
            for val, mat in zip(limit_parts(op, u), dense):
                ref = torus.GridField.from_flat(grid16, 2, mat @ u.flat())
                worst = max(worst, torus.lp_norm(val - ref, 2.0) / un)
        assert worst <= 1e-6

    def test_projection_identities(self, var_op16, grid16):
        hodge.variable_hodge_projections(var_op16, seed=9)
        u = torus.random_band_limited(grid16, 2, seed=10)
        un = torus.lp_norm(u, 2.0)
        parts = limit_parts(var_op16, u)
        s = parts[0] + parts[1] + parts[2]
        assert torus.lp_norm(s - u, 2.0) <= 1e-6 * un
        v = parts[1]
        assert torus.lp_norm(limit_parts(var_op16, v)[1] - v, 2.0) <= 1e-6 * un

    def test_solves_each_resolvent_once(self, var_op16, grid16, field_solves, monkeypatch):
        # per probe field and scale: the resolvent pair R(t)u, R(-t)u, on either route
        calls = field_solves
        for route, limit in SOLVE_ROUTES.items():
            monkeypatch.setattr(hodge, "DENSE_SOLVE_LIMIT", limit)
            del calls[:]
            hodge.variable_hodge_projections(var_op16, seed=9)
            assert len(calls) == 2 * 3 * 3
            assert set(calls) == {route}
            u = torus.random_band_limited(grid16, 2, seed=10)
            # all three parts of u from the last scale's one resolvent pair
            del calls[:]
            limit_parts(var_op16, u)
            assert len(calls) == 2

    def test_probe_checks_its_curve_against_dense(self, field_solves, monkeypatch):
        # the dense check reuses the projections the curve settled on:
        # 18 curve solves and 4 for the intertwining residual, on either
        # route; at the default limit the probe runs no GMRES, and its solves
        # assemble 3 operators: one for the six-shift ladder and one for each
        # resolvent pair of the intertwining residual
        calls = field_solves
        values = cli.read_config("hodge-var", {"seed": 0, **cli.SUITES["hodge-var"]["defaults"]})
        for route, limit in SOLVE_ROUTES.items():
            monkeypatch.setattr(hodge, "DENSE_SOLVE_LIMIT", limit)
            del calls[:]
            calls.assemblies.clear()
            _, constants, passes = cli.PROBES["hodge-var"](**values)
            assert len(calls) == 22
            assert set(calls) == {route}
            assert calls.assemblies["solve_shifts"] == {"dense": 3, "gmres": 0}[route]
            assert constants["limit_vs_dense"] <= values["tolerance"]
            assert passes["limit_vs_dense"]

    def test_unsettled_ladder_raises_with_its_curve(self, dirac_pair, grid16, monkeypatch):
        # scales far below the operator's resolution: successive limits differ
        monkeypatch.setattr(hodge, "LIMIT_SCALES", (1.0, 2.0, 4.0))
        coeffs = hodge.CoefficientPair(hodge.perturbed_identity(grid16, 2, 0.1, 3),
                                       hodge.perturbed_identity(grid16, 2, 0.1, 4))
        op = hodge.VariableOp(dirac_pair, coeffs, grid16)
        with pytest.raises(HodgeDecompositionUncertain, match="not settled") as info:
            hodge.variable_hodge_projections(op, seed=9)
        assert [c["t"] for c in info.value.curve] == [2.0, 4.0]
        diffs = [c["max_diff"] for c in info.value.curve]
        assert diffs == pytest.approx([0.187, 0.084], abs=1e-3)


class TestSwapOperator:
    def test_identity_coefficients_same_action(self, dirac_pair, grid16):
        op = hodge.VariableOp.constant(dirac_pair, grid16)
        sw = hodge.swap_operator(op)
        u = torus.random_band_limited(grid16, 2, seed=11)
        assert rel_err(sw.apply(u).values, op.apply(u).values) < 1e-12

    def test_swap_takes_the_multipliers_exchanged(self, var_op16):
        swapped = hodge.swap_operator(var_op16)
        assert swapped.gamma_op is var_op16.gamma_tilde_op
        assert swapped.gamma_tilde_op is var_op16.gamma_op
        fresh = torus.GridSymbol(swapped.pair.gamma, swapped.grid).multiplier()
        assert np.array_equal(swapped.gamma_op.mats, fresh.mats)

    def test_double_swap_restores(self, var_op16):
        back = hodge.swap_operator(hodge.swap_operator(var_op16))
        assert back.pair == var_op16.pair
        assert np.array_equal(back.coeffs.b1.mats, var_op16.coeffs.b1.mats)

    def test_nonzero_spectra_agree(self, dirac_pair):
        grid = torus.TorusGrid(1, 8)
        coeffs = diagonal_coefficients(grid, 2, 0.1, 31)
        op = hodge.VariableOp(dirac_pair, coeffs, grid)
        sw = hodge.swap_operator(op)
        lam_a = np.linalg.eigvals(hodge.dense_operator(op.apply, grid, 2))
        lam_b = np.linalg.eigvals(hodge.dense_operator(sw.apply, grid, 2))
        nz_a = np.sort_complex(lam_a[np.abs(lam_a) > 1e-8])
        nz_b = np.sort_complex(lam_b[np.abs(lam_b) > 1e-8])
        assert nz_a.size == nz_b.size
        assert np.max(np.abs(nz_a - nz_b)) < 1e-8

    @pytest.mark.parametrize("t", [0.5, 2.0, 8.0])
    def test_intertwining_identity(self, var_op16, t):
        assert hodge.underline_intertwining_residual(var_op16, t, seed=12) <= 1e-8


class TestPerturbSplitting:
    def test_zero_perturbation(self):
        p0 = np.diag([1.0, 1.0, 0.0, 0.0])
        p1 = np.eye(4) - p0
        out = hodge.perturb_splitting(p0, p1, np.zeros((4, 4)))
        assert np.allclose(out.p0_new, p0) and np.allclose(out.p1_new, p1)

    def test_identities_random(self):
        rng = np.random.default_rng(37)
        dim = 12
        p0 = np.zeros((dim, dim), dtype=complex)
        p0[:5, :5] = np.eye(5)
        p1 = np.eye(dim) - p0
        t = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        t *= 0.1 / matcalc.operator_norm(t)
        out = hodge.perturb_splitting(p0, p1, t)
        assert matcalc.operator_norm(out.p0_new + out.p1_new - np.eye(dim)) <= 1e-10
        assert matcalc.operator_norm(out.p0_new @ out.p0_new - out.p0_new) <= 1e-10
        assert matcalc.operator_norm(out.p1_new @ out.p1_new - out.p1_new) <= 1e-10

    def test_first_order_scaling(self):
        rng = np.random.default_rng(38)
        dim = 10
        p0 = np.zeros((dim, dim), dtype=complex)
        p0[:4, :4] = np.eye(4)
        p1 = np.eye(dim) - p0
        t = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        t /= matcalc.operator_norm(t)
        big = hodge.perturb_splitting(p0, p1, 0.1 * t)
        small = hodge.perturb_splitting(p0, p1, 0.05 * t)
        ratio = big.shift0 / small.shift0
        assert 1.0 <= ratio <= 4.0  # linear to first order: about 2

    def test_too_large_raises(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.eye(2) - p0
        with pytest.raises(PerturbationTooLarge):
            hodge.perturb_splitting(p0, p1, np.eye(2))


class TestDenseOracle:
    def test_two_assemblies_per_build(self, var_op16, field_solves):
        hodge.dense_hodge_projections(var_op16)
        assert field_solves.assemblies == {"dense_hodge_projections": 2}

    def test_pi_b_is_the_sum_of_its_parts(self, var_op16, grid16):
        # op.apply sums the two fields, so the sum of the matrices is bitwise
        # the assembly of op.apply
        parts = [hodge.dense_operator(fn, grid16, 2)
                 for fn in (var_op16.apply, var_op16.gamma_op.apply, var_op16.apply_twisted)]
        assert np.array_equal(parts[0], parts[1] + parts[2])

    def test_untwist_is_b1_inverse_on_gamma_tilde_range(self, dirac_pair, grid16):
        op = hodge.VariableOp(dirac_pair, diagonal_coefficients(grid16, 2, 0.05, 31), grid16)
        pgt = hodge.dense_hodge_projections(op)[2]
        inv = hodge.untwist(op, pgt)
        gt = hodge.dense_operator(op.gamma_tilde_op.apply, grid16, 2)
        b1 = hodge.dense_operator(op.coeffs.b1.apply, grid16, 2)
        in_range = gt @ np.linalg.lstsq(gt, inv, rcond=None)[0]
        assert matcalc.operator_norm(in_range - inv) <= 1e-10 * matcalc.operator_norm(inv)
        assert matcalc.operator_norm(b1 @ inv - pgt) <= 1e-10 * matcalc.operator_norm(pgt)


class TestPerturbationReport:
    def test_equal_operators(self, dirac_pair, grid16, var_op16):
        (rep,) = hodge.hodge_perturbation_report(var_op16, [var_op16])
        assert rep.delta == 0.0
        assert rep.diffs.keys() == {"p0", "p_gamma", "p_gamma_tilde", "restricted_inverse"}
        assert max(rep.diffs["p0"], rep.diffs["p_gamma"], rep.diffs["p_gamma_tilde"]) < 1e-10

    def test_pairs_equal_but_not_identical(self):
        grid = torus.TorusGrid(1, 8)
        opa = hodge.VariableOp.constant(symbols.dirac_pair_1d(), grid)
        opb = hodge.VariableOp.constant(symbols.dirac_pair_1d(), grid)
        assert opa.pair is not opb.pair
        (rep,) = hodge.hodge_perturbation_report(opa, [opb])
        assert rep.delta == 0.0
        assert max(rep.diffs["p0"], rep.diffs["p_gamma"], rep.diffs["p_gamma_tilde"]) < 1e-10

    def test_delta_sweep_ratio_band(self, dirac_pair):
        grid = torus.TorusGrid(1, 8)
        base = hodge.VariableOp.constant(dirac_pair, grid)
        e1 = hodge.diagonal_direction(grid, 2, 41)
        e2 = hodge.diagonal_direction(grid, 2, 42)
        eye = torus.MatrixField.identity(grid, 2)
        deltas = (0.02, 0.01, 0.005)
        others = [hodge.VariableOp(dirac_pair, hodge.CoefficientPair(
            eye + (d / 2) * e1, eye + (d / 2) * e2), grid) for d in deltas]
        ratios = []
        for d, rep in zip(deltas, hodge.hodge_perturbation_report(base, others)):
            assert abs(rep.delta - d) < 1e-12
            ratios.append({k: diff / rep.delta for k, diff in rep.diffs.items()})
        for key in ("p0", "p_gamma", "p_gamma_tilde", "restricted_inverse"):
            vals = [r[key] for r in ratios]
            assert max(vals) <= 4.0 * min(vals)


class TestStructuralInvariants:
    def test_range_membership(self, var_op16, grid16):
        hodge.variable_hodge_projections(var_op16, seed=13)
        u = torus.random_band_limited(grid16, 2, seed=14)
        un = torus.lp_norm(u, 2.0)
        gu = torus.apply_multiplier(var_op16.gamma_op, u)
        assert torus.lp_norm(gu - limit_parts(var_op16, gu)[1], 2.0) <= 1e-8 * un
        gtu = var_op16.apply_twisted(u)
        assert torus.lp_norm(gtu - limit_parts(var_op16, gtu)[2], 2.0) <= 1e-8 * un

    def test_nilpotence_transfer(self, var_op16, grid16):
        u = torus.random_band_limited(grid16, 2, seed=15)
        un = torus.lp_norm(u, 2.0)
        gg = torus.apply_multiplier(
            var_op16.gamma_op, torus.apply_multiplier(var_op16.gamma_op, u)
        )
        assert torus.lp_norm(gg, 2.0) <= 1e-10 * un
        tt = var_op16.apply_twisted(var_op16.apply_twisted(u))
        assert torus.lp_norm(tt, 2.0) <= 1e-8 * un

    def test_duality_of_projections(self, dirac_pair, grid16):
        coeffs = diagonal_coefficients(grid16, 2, 0.05, 43)
        op = hodge.VariableOp(dirac_pair, coeffs, grid16)
        p0, pg, pgt = hodge.dense_hodge_projections(op)

        def adjoint_symbol(s):
            return symbols.HomogeneousSymbol(
                s.n, s.big_n, s.k, {th: m.conj().T for th, m in s.coeffs.items()}
            )

        adj_pair = symbols.HodgeDiracSymbolPair(
            adjoint_symbol(dirac_pair.gamma), adjoint_symbol(dirac_pair.gamma_tilde)
        )
        adj = hodge.VariableOp(
            adj_pair,
            hodge.CoefficientPair(coeffs.b2.adjoint(), coeffs.b1.adjoint()),
            grid16,
        )
        q0, qg, qgt = hodge.dense_hodge_projections(adj)
        # dualizing swaps the plain and twisted range projections
        assert np.abs(q0 - p0.conj().T).max() <= 1e-8
        assert np.abs(qg - pgt.conj().T).max() <= 1e-8
        assert np.abs(qgt - pg.conj().T).max() <= 1e-8
