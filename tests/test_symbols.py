import json
import math

import numpy as np
import pytest

from opcalc import cli, matcalc, symbols
from opcalc.errors import NotBisectorial, SplitUndefined

from conftest import (
    grad_div_pair_2d,
    kernel_basis,
    principal_angles,
    rel_err,
    save_symbol_file,
)


@pytest.fixture(scope="module")
def sample1d():
    return symbols.sphere_sample(1)


@pytest.fixture(scope="module")
def sample2d():
    return symbols.sphere_sample(2, 128)


class TestEval:
    def test_dirac_gamma_entry(self, dirac_pair):
        out = dirac_pair.gamma(np.array([2.0]))
        assert np.allclose(out, [[0, 0], [2, 0]])

    def test_zero_frequency(self, dirac_pair):
        assert np.allclose(dirac_pair.total()(np.array([0.0])), 0)

    def test_homogeneity_random(self, grad_div_pair):
        rng = np.random.default_rng(1)
        s = grad_div_pair.total()
        for _ in range(20):
            xi = rng.standard_normal(2)
            assert rel_err(s(3.0 * xi), 3.0 * s(xi)) < 1e-12

    def test_homogeneity_order2(self):
        s = symbols.HomogeneousSymbol(
            1, 2, 2, {(2,): np.diag([1.0 + 1.0j, 0.0])}
        )
        xi = np.array([1.7])
        assert rel_err(s(3.0 * xi), 9.0 * s(xi)) < 1e-12

    def test_batched_eval(self, dirac_pair):
        xis = np.array([[1.0], [2.0], [0.0]])
        out = dirac_pair.total()(xis)
        assert out.shape == (3, 2, 2)
        assert np.allclose(out[2], 0)

    def test_homogeneity_invariant_sampled(self, dirac_pair):
        # 100 random (xi, t): ||s(t xi) - t^k s(xi)|| <= 1e-10 t^k M
        rng = np.random.default_rng(100)
        s = dirac_pair.total()
        for _ in range(100):
            xi = rng.standard_normal(1)
            t = float(rng.uniform(0.1, 10.0))
            lhs = s(t * xi)
            rhs = (t**s.k) * s(xi)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * t**s.k * 1.0 * max(
                1.0, np.linalg.norm(xi)
            )


class TestSymbolConditions:
    def test_dirac_pass(self, dirac_pair, sample1d):
        rep = symbols.verify_symbol_conditions(dirac_pair.total(), sample1d)
        assert rep.passed
        assert abs(rep.params.kappa - 1.0) < 1e-12
        assert rep.params.omega == 0.0
        assert abs(rep.params.big_m - 1.0) < 1e-12

    def test_nilpotent_fails_coercivity(self, sample1d):
        s = symbols.HomogeneousSymbol(1, 2, 1, {(1,): np.array([[0, 1], [0, 0.0]])})
        rep = symbols.verify_symbol_conditions(s, sample1d)
        assert not rep.passed
        assert symbols.COERCIVE_ON_RANGE in rep.failures

    def test_diagonal_order2(self, sample1d):
        s = symbols.HomogeneousSymbol(1, 2, 2, {(2,): np.diag([1 + 1j, 0.0])})
        rep = symbols.verify_symbol_conditions(s, sample1d)
        assert rep.passed
        assert abs(rep.params.kappa - np.sqrt(2)) < 1e-12
        assert abs(rep.params.omega - np.pi / 4) < 1e-12

    def test_imaginary_spectrum_fails(self, sample1d):
        s = symbols.HomogeneousSymbol(1, 2, 1, {(1,): 1j * np.eye(2)})
        rep = symbols.verify_symbol_conditions(s, sample1d)
        assert symbols.SPECTRUM_IN_BISECTOR in rep.failures

    def test_tiny_corner_fails_coercivity(self, sample1d):
        # both eigenvalues +-1e-11 sit in the zero cluster of a rank-1 symbol
        s = symbols.HomogeneousSymbol(1, 2, 1, {(1,): np.array([[0, 1], [1e-22, 0]])})
        rep = symbols.verify_symbol_conditions(s, sample1d)
        assert rep.failures == [symbols.COERCIVE_ON_RANGE]

    def test_annulus_invariant(self, grad_div_pair, sample2d):
        # every nonzero eigenvalue modulus lies in [kappa - eps, M + eps]
        rep = symbols.verify_symbol_conditions(grad_div_pair.total(), sample2d)
        kappa, big_m = rep.params.kappa, rep.params.big_m
        for xi in sample2d.points:
            lam = matcalc.spectrum(grad_div_pair.total()(xi))
            nz = lam[np.abs(lam) > 1e-10]
            if nz.size:
                assert np.abs(nz).min() >= kappa - 1e-8
                assert np.abs(nz).max() <= big_m + 1e-8


class TestHodgePair:
    def test_dirac_pass(self, dirac_pair, sample1d):
        rep = symbols.verify_hodge_pair(dirac_pair, sample1d)
        assert rep.passed
        assert rep.params.omega == 0.0
        assert abs(rep.params.kappa - 1.0) < 1e-12

    def test_equal_parts_fail(self, dirac_pair, sample1d):
        bad = symbols.HodgeDiracSymbolPair(dirac_pair.gamma, dirac_pair.gamma)
        rep = symbols.verify_hodge_pair(bad, sample1d)
        assert not rep.passed
        assert symbols.COERCIVE_ON_RANGE in rep.failures

    def test_grad_div_kernel_dims(self, grad_div_pair, sample2d):
        rep = symbols.verify_hodge_pair(grad_div_pair, sample2d)
        assert rep.passed
        # at every nonzero frequency the kernel has dimension 4 - 2 = 2
        assert set(rep.kernel_dims) == {2}

    def test_non_nilpotent_flagged(self, sample1d):
        g = symbols.HomogeneousSymbol(1, 2, 1, {(1,): np.array([[1.0, 0], [0, 0]])})
        gt = symbols.HomogeneousSymbol(1, 2, 1, {(1,): np.array([[0, 0], [0, 1.0]])})
        rep = symbols.verify_hodge_pair(symbols.HodgeDiracSymbolPair(g, gt), sample1d)
        assert symbols.GAMMA_NILPOTENT in rep.failures
        assert symbols.GAMMA_TILDE_NILPOTENT in rep.failures

    @pytest.mark.parametrize("eps, flagged", [(1e-10, True), (1e-14, False)])
    def test_nilpotence_gate_boundary(self, sample1d, eps, flagged):
        # gamma^2 = eps xi^2 [[eps, 0], [1, 0]]: about eps of |gamma|^2, against 1e-12
        g = symbols.HomogeneousSymbol(1, 2, 1, {(1,): np.array([[eps, 0], [1.0, 0]])})
        gt = symbols.HomogeneousSymbol(1, 2, 1, {(1,): np.array([[0, 1.0], [0, 0]])})
        rep = symbols.verify_hodge_pair(symbols.HodgeDiracSymbolPair(g, gt), sample1d)
        assert (symbols.GAMMA_NILPOTENT in rep.failures) is flagged

    def test_kernel_angles_tight(self, grad_div_pair, sample2d):
        # principal angles between ker(total) and the kernel intersection < 1e-8
        for xi in sample2d.points[:40]:
            g = grad_div_pair.gamma(xi)
            gt = grad_div_pair.gamma_tilde(xi)
            k1 = kernel_basis(g + gt)
            k2 = kernel_basis(np.vstack([g, gt]))
            assert principal_angles(k1, k2).max() < 1e-8


def dirac_resolvent_entries(t, xi):
    """Closed-form entries of the 1-D model resolvents: scalar weight
    p = 1/(1 + t^2 xi^2) against the identity and the swap matrix."""
    p = 1.0 / (1.0 + t * t * xi * xi)
    dp = -2.0 * t * t * xi * p * p
    ddp = -2.0 * t * t * p * p + 8.0 * t**4 * xi * xi * p**3
    q = t * xi * p
    dq = t * (p + xi * dp)
    ddq = t * (2.0 * dp + xi * ddp)
    return (p, dp, ddp), (q, dq, ddq)


def norm_id_swap(a, b):
    # singular values of a*I + b*X are |a + b| and |a - b|
    return max(abs(a + b), abs(a - b))


class TestMikhlinProbe:
    taus = [2.0**k for k in range(-4, 5)]
    alphas = [(0,), (1,), (2,)]

    def closed_form(self, kind, alpha):
        worst = 0.0
        for t in self.taus:
            for xi in (1.0, -1.0):
                (p, dp, ddp), (q, dq, ddq) = dirac_resolvent_entries(t, xi)
                pd = {0: p, 1: dp, 2: ddp}[alpha]
                qd = {0: q, 1: dq, 2: ddq}[alpha]
                if kind == "even":
                    val = abs(pd)
                elif kind == "odd":
                    val = norm_id_swap(0.0, qd)
                else:  # resolvent: p*I - i*t*xi*p*X
                    rd = {0: -1j * q, 1: -1j * dq, 2: -1j * ddq}[alpha]
                    val = norm_id_swap(pd, rd)
                worst = max(worst, val)
        return worst

    @pytest.mark.parametrize("kind", ["even", "odd", "resolvent"])
    def test_against_closed_form(self, dirac_pair, sample1d, kind):
        fam = symbols.resolvent_symbol_family(dirac_pair.total(), kind)
        rows = symbols.mikhlin_probe(fam, self.alphas, sample1d, self.taus)
        for row in rows:
            expected = self.closed_form(kind, sum(row.alpha))
            assert abs(row.value - expected) <= 0.01 * expected
            assert row.stable

    def test_even_family_first_derivative_value(self, dirac_pair, sample1d):
        # max over tau of |dp/dxi| at |xi|=1 is attained at tau = 1: value 1/2
        fam = symbols.resolvent_symbol_family(dirac_pair.total(), "even")
        rows = symbols.mikhlin_probe(fam, [(1,)], sample1d, [1.0])
        assert abs(rows[0].value - 0.5) < 1e-5

    def test_zeroth_row_is_sup_of_symbol(self, dirac_pair, sample1d):
        fam = symbols.resolvent_symbol_family(dirac_pair.total(), "even")
        rows = symbols.mikhlin_probe(fam, [(0,)], sample1d, [1.0])
        assert abs(rows[0].value - 0.5) < 1e-12

    def test_stable_under_sample_refinement(self, grad_div_pair):
        fam = symbols.resolvent_symbol_family(grad_div_pair.total(), "even")
        taus = [0.5, 1.0, 2.0]
        alphas = [(0, 0), (1, 0), (0, 1)]
        vals = []
        for count in (32, 64):
            sample = symbols.sphere_sample(2, count)
            rows = symbols.mikhlin_probe(fam, alphas, sample, taus)
            vals.append([r.value for r in rows])
        for a, b in zip(*vals):
            assert max(a, b) <= 2.0 * max(min(a, b), 1e-14)


def per_point_symbol_conditions(s, sample):
    """Oracle: one point at a time through spectral_split, bisector_params
    and range_basis.  Returns (params, failures, failure_points)."""
    failures, points = [], {}
    kappa, omega, big_m = math.inf, 0.0, 0.0

    def flag(name, xi):
        if name not in failures:
            failures.append(name)
            points[name] = xi

    for xi in sample.points:
        t = s(xi)
        big_m = max(big_m, matcalc.operator_norm(t))
        try:
            matcalc.spectral_split(t)
        except SplitUndefined:
            flag(symbols.COERCIVE_ON_RANGE, xi)
            continue
        try:
            omega = max(omega, matcalc.bisector_params(t).omega)
        except NotBisectorial:
            flag(symbols.SPECTRUM_IN_BISECTOR, xi)
        vr = matcalc.range_basis(t)
        if vr.shape[1] > 0:
            kappa = min(kappa, float(np.linalg.svd(t @ vr, compute_uv=False).min()))
    kappa = 0.0 if math.isinf(kappa) else kappa
    if kappa <= 0.0 and symbols.COERCIVE_ON_RANGE not in failures:
        failures.append(symbols.COERCIVE_ON_RANGE)
    params = None if failures else matcalc.BisectorParams(omega, kappa, big_m)
    return params, failures, points


def per_point_hodge_pair(pair, sample, nilpotence_tol=1e-12, angle_tol=1e-8):
    """Oracle: one point at a time through kernel_basis and principal_angles,
    then per_point_symbol_conditions of the sum.  Returns (params,
    failures, failure_points, kernel_dims)."""
    failures, points, kdims = [], {}, []

    def flag(name, xi):
        if name not in failures:
            failures.append(name)
            points[name] = xi

    for xi in sample.points:
        g, gt = pair.gamma(xi), pair.gamma_tilde(xi)
        for name, a in ((symbols.GAMMA_NILPOTENT, g), (symbols.GAMMA_TILDE_NILPOTENT, gt)):
            scale = max(matcalc.operator_norm(a) ** 2, 1e-300)
            if matcalc.operator_norm(a @ a) > nilpotence_tol * scale:
                flag(name, xi)
        k_pi = kernel_basis(g + gt)
        k_both = kernel_basis(np.vstack([g, gt]))
        kdims.append(k_pi.shape[1])
        if k_pi.shape[1] != k_both.shape[1]:
            flag(symbols.KERNEL_INTERSECTION, xi)
        elif k_pi.shape[1] > 0:
            if principal_angles(k_pi, k_both).max() > angle_tol:
                flag(symbols.KERNEL_INTERSECTION, xi)
    params, sym_failures, sym_points = per_point_symbol_conditions(pair.total(), sample)
    return params, sym_failures + failures, {**sym_points, **points}, kdims


def per_point_mikhlin(family, alphas, sample, taus, h=1e-4):
    """Oracle: the Mikhlin sups with the family called at one point at a time."""
    rows = []
    for alpha in alphas:
        vals = []
        for step in (h, h / 2):
            worst = 0.0
            for tau in taus:
                for xi in sample.points:
                    d = symbols.finite_difference(lambda x: family(tau, x), xi, alpha, step)
                    factor = float(np.linalg.norm(xi)) ** sum(alpha)
                    worst = max(worst, factor * matcalc.operator_norm(d))
            vals.append(worst)
        rows.append(tuple(vals))
    return rows


def random_symbol(seed):
    """n=2, N=3: Hermitian parts for even seeds, a common kernel for odd."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for theta in ((1, 0), (0, 1)):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        coeffs[theta] = a + a.conj().T if seed % 2 == 0 else a @ np.diag([1.0, 1.0, 0.0])
    return symbols.HomogeneousSymbol(2, 3, 1, coeffs)


def two_failures(k):
    """n=2, N=3 on the 128-point circle: an eigenvalue xi_1 + i xi_2 that
    reaches the imaginary axis at point 32, and a block that is nilpotent
    exactly at point k."""
    c, s = symbols.sphere_sample(2, 128).points[k]
    # diagonal s xi_1 - c xi_2 of the 2 x 2 block vanishes at (c, s)
    g1 = np.array([[1, 0, 0], [0, s, 1], [0, 0, s]], dtype=complex)
    g2 = np.array([[1j, 0, 0], [0, -c, 0], [0, 0, -c]], dtype=complex)
    return symbols.HomogeneousSymbol(2, 3, 1, {(1, 0): g1, (0, 1): g2})


def assert_same_points(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


SINGLE_SYMBOLS = {
    "d/dx": lambda: symbols.HomogeneousSymbol(1, 1, 1, {(1,): np.array([[1.0]])}),
    "xi^2 diag(1+i, 0)": lambda: symbols.HomogeneousSymbol(
        1, 2, 2, {(2,): np.diag([1 + 1j, 0.0])}
    ),
    "xi iI": lambda: symbols.HomogeneousSymbol(1, 2, 1, {(1,): 1j * np.eye(2)}),
    "xi [[0,1],[1e-22,0]]": lambda: symbols.HomogeneousSymbol(
        1, 2, 1, {(1,): np.array([[0, 1], [1e-22, 0]])}
    ),
    "xi diag(1, 5e-10, 0)": lambda: symbols.HomogeneousSymbol(
        1, 3, 1, {(1,): np.diag([1.0, 5e-10, 0.0])}
    ),
    "dirac1d_nilpotent": lambda: cli.load_symbol_arg("bundled:dirac1d_nilpotent"),
    **{f"random{seed}": (lambda seed=seed: random_symbol(seed)) for seed in range(5)},
    "nilpotent at 24, imaginary at 32": lambda: two_failures(24),
    "imaginary at 32, nilpotent at 40": lambda: two_failures(40),
}

PAIRS = {
    "dirac1d": (lambda: symbols.dirac_pair_1d(), 2),
    "graddiv2d-128": (lambda: grad_div_pair_2d(), 128),
    "graddiv2d-512": (lambda: grad_div_pair_2d(), 512),
    "pair_gamma_equal": (lambda: cli.load_symbol_arg("bundled:pair_gamma_equal"), 2),
    "non-nilpotent": (
        lambda: symbols.HodgeDiracSymbolPair(
            symbols.HomogeneousSymbol(1, 2, 1, {(1,): np.diag([1.0, 0.0])}),
            symbols.HomogeneousSymbol(1, 2, 1, {(1,): np.diag([0.0, 1.0])}),
        ),
        2,
    ),
}


class TestBatchedAgainstPerPointOracle:
    @pytest.mark.parametrize("name", sorted(SINGLE_SYMBOLS))
    def test_symbol_conditions(self, name):
        s = SINGLE_SYMBOLS[name]()
        sample = symbols.sphere_sample(s.n, 128)
        rep = symbols.verify_symbol_conditions(s, sample)
        params, failures, points = per_point_symbol_conditions(s, sample)
        assert rep.params == params
        assert rep.failures == failures
        assert_same_points(rep.failure_points, points)

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_hodge_pair(self, name):
        make, count = PAIRS[name]
        pair = make()
        sample = symbols.sphere_sample(pair.n, count)
        rep = symbols.verify_hodge_pair(pair, sample)
        params, failures, points, kdims = per_point_hodge_pair(pair, sample)
        assert rep.params == params
        assert rep.failures == failures
        assert_same_points(rep.failure_points, points)
        assert rep.kernel_dims == kdims

    @pytest.mark.parametrize("kind", ["resolvent", "even", "odd"])
    @pytest.mark.parametrize("case", [("dirac1d", 2), ("graddiv2d", 64)])
    def test_mikhlin_rows(self, kind, case):
        name, count = case
        pair = symbols.dirac_pair_1d() if name == "dirac1d" else grad_div_pair_2d()
        sample = symbols.sphere_sample(pair.n, count)
        alphas = symbols.default_alphas(pair.n) if pair.n > 1 else [(0,), (1,), (2,)]
        taus = [2.0**k for k in range(-4, 5)]
        fam = symbols.resolvent_symbol_family(pair.total(), kind)
        rows = symbols.mikhlin_probe(fam, alphas, sample, taus)
        want = per_point_mikhlin(fam, alphas, sample, taus)
        assert [(r.value, r.value_half_step) for r in rows] == want


class TestSphereSample:
    def test_includes_basis(self):
        s = symbols.sphere_sample(2, 16)
        pts = {tuple(np.round(p, 12)) for p in s.points}
        assert (1.0, 0.0) in pts and (-1.0, 0.0) in pts

    def test_unit_norm_any_dim(self):
        for n in (1, 2, 3, 4):
            s = symbols.sphere_sample(n, 32)
            assert np.allclose(np.linalg.norm(s.points, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        a = symbols.sphere_sample(3, 64).points
        b = symbols.sphere_sample(3, 64).points
        assert np.array_equal(a, b)


class TestSerialization:
    def test_round_trip_pair(self, dirac_pair, tmp_path):
        path = tmp_path / "pair.json"
        save_symbol_file(path, dirac_pair)
        loaded = symbols.load_symbol_file(path)
        assert isinstance(loaded, symbols.HodgeDiracSymbolPair)
        xi = np.array([1.3])
        assert rel_err(loaded.total()(xi), dirac_pair.total()(xi)) < 1e-15

    def test_round_trip_symbol(self, tmp_path):
        s = symbols.HomogeneousSymbol(
            2, 2, 2, {(1, 1): np.array([[1.0, 2j], [0, 1.0]])}
        )
        path = tmp_path / "s.json"
        save_symbol_file(path, s)
        loaded = symbols.load_symbol_file(path)
        xi = np.array([0.3, -0.7])
        assert rel_err(loaded(xi), s(xi)) < 1e-15

    def test_schema_shape(self, dirac_pair, tmp_path):
        path = tmp_path / "pair.json"
        save_symbol_file(path, dirac_pair)
        d = json.loads(path.read_text())
        assert d["kind"] == "hodge_pair"
        entry = d["gamma"]["coeffs"]["1"]
        assert np.asarray(entry).shape == (2, 2, 2)

    def test_bad_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError):
            symbols.load_symbol_file(path)


class TestEquality:
    def test_equal_values_compare_equal(self, tmp_path):
        assert symbols.dirac_pair_1d() == symbols.dirac_pair_1d()
        path = tmp_path / "pair.json"
        save_symbol_file(path, symbols.dirac_pair_1d())
        assert symbols.load_symbol_file(path) == symbols.load_symbol_file(path)

    def test_equal_values_hash_equal(self, tmp_path):
        path = tmp_path / "pair.json"
        save_symbol_file(path, symbols.dirac_pair_1d())
        a, b = symbols.load_symbol_file(path), symbols.load_symbol_file(path)
        assert a is not b and hash(a) == hash(b)
        assert hash(a.gamma) == hash(symbols.dirac_pair_1d().gamma)
        assert len({a: 1, b: 2}) == 1 and len({a.gamma: 1, b.gamma: 2}) == 1
        minus_zero = symbols.HomogeneousSymbol(1, 1, 1, {(1,): np.array([[-0.0]])})
        zero = symbols.HomogeneousSymbol(1, 1, 1, {(1,): np.array([[0.0]])})
        assert minus_zero == zero and hash(minus_zero) == hash(zero)

    def test_differences_compare_unequal(self):
        s = symbols.HomogeneousSymbol(2, 2, 1, {(1, 0): np.eye(2), (0, 1): np.eye(2)})
        changed = symbols.HomogeneousSymbol(2, 2, 1, {(1, 0): np.eye(2), (0, 1): 2 * np.eye(2)})
        fewer = symbols.HomogeneousSymbol(2, 2, 1, {(1, 0): np.eye(2)})
        other_k = symbols.HomogeneousSymbol(2, 2, 2, {(2, 0): np.eye(2), (0, 2): np.eye(2)})
        for other in (changed, fewer, other_k, "not a symbol"):
            assert s != other
        assert symbols.dirac_pair_1d() != symbols.HodgeDiracSymbolPair(
            symbols.dirac_pair_1d().gamma_tilde, symbols.dirac_pair_1d().gamma
        )
