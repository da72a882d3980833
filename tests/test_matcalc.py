import numpy as np
import pytest

from opcalc import matcalc
from opcalc.errors import ContourTooClose, NotBisectorial, SplitUndefined

from conftest import diagonalizable_matrix, principal_angles, random_matrix, rel_err


def char_poly_roots(a):
    """Independent spectrum oracle: Faddeev-LeVerrier characteristic
    polynomial coefficients, then companion-matrix roots via np.roots."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.roots(np.array(coeffs))


def f_odd(z):
    return z / (1 + z * z)


def f_even(z):
    return z * z / (1 + z * z) ** 2


class TestSpectrum:
    def test_identity(self):
        assert np.allclose(matcalc.spectrum(np.eye(3)), [1, 1, 1])

    def test_swap(self):
        lam = matcalc.spectrum(np.array([[0, 1], [1, 0]]))
        assert np.allclose(sorted(lam.real), [-1, 1])
        assert np.allclose(lam.imag, 0)

    def test_against_companion_oracle(self):
        t = random_matrix(4, 42)
        lam = matcalc.spectrum(t)
        oracle = sorted(char_poly_roots(t), key=lambda z: (abs(z), np.angle(z)))
        assert np.max(np.abs(lam - np.array(oracle))) <= 1e-8

    def test_ordering(self):
        # modulus first, then argument (0 before pi)
        t = np.diag([2.0, 1.0, -1.0])
        lam = matcalc.spectrum(t)
        assert np.allclose(lam, [1, -1, 2])


class TestSpectralSplit:
    def test_zero_matrix(self):
        pk, pr = matcalc.spectral_split(np.zeros((3, 3)))
        assert np.allclose(pk, np.eye(3)) and np.allclose(pr, 0)

    def test_invertible(self):
        pk, pr = matcalc.spectral_split(np.array([[0, 1], [1, 0]]))
        assert np.allclose(pk, 0) and np.allclose(pr, np.eye(2))

    def test_nilpotent_raises(self):
        with pytest.raises(SplitUndefined):
            matcalc.spectral_split(np.array([[0, 1], [0, 0]]))

    def test_semisimple_kernel(self):
        # rank-1 projection-like matrix with nontrivial kernel
        t = np.array([[1.0, 1.0], [0.0, 0.0]])
        pk, pr = matcalc.spectral_split(t)
        assert np.allclose(pk + pr, np.eye(2), atol=1e-10)
        assert np.linalg.norm(t @ pk) < 1e-10
        assert np.linalg.norm(pk @ pk - pk) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_complementarity_random(self, seed):
        t, _, _ = diagonalizable_matrix(5, seed)
        # make a kernel: zero out one eigenvalue via deflation
        lam, v = np.linalg.eig(t)
        lam[0] = 0.0
        t = v @ np.diag(lam) @ np.linalg.inv(v)
        pk, pr = matcalc.spectral_split(t)
        assert np.linalg.norm(pk + pr - np.eye(5)) < 1e-10
        assert np.linalg.norm(pk @ pr) < 1e-10
        assert np.linalg.norm(t @ pk) < 1e-9

    def test_zero_cluster_larger_than_kernel_raises(self):
        # rank(T^2) = 2 >= rank(T) = 1 under the relative rank cut, but both
        # eigenvalues +-1e-11 fall in the zero cluster
        with pytest.raises(SplitUndefined):
            matcalc.spectral_split(np.array([[0, 1], [1e-22, 0]]))

    def test_stacked_split_flags_each_matrix(self):
        # a defective and a singular-basis matrix do not spoil their neighbours
        mats = np.array(
            [[[0, 1], [0, 0]], [[0, 1], [1, 0]], [[0, 1], [1e-22, 0]], [[1, 1], [0, 0]]],
            dtype=complex,
        )
        p_ker, p_ran, why = matcalc.stacked_split(mats)
        assert [w != "" for w in why] == [True, False, True, False]
        for i in (1, 3):
            pk, pr = matcalc.spectral_split(mats[i])
            assert np.abs(p_ker[i] - pk).max() < 1e-12
            assert np.abs(p_ran[i] - pr).max() < 1e-12

    def test_matches_subspace_oracle(self):
        t, _, _ = diagonalizable_matrix(4, 3)
        lam, v = np.linalg.eig(t)
        lam[1] = 0.0
        t = v @ np.diag(lam) @ np.linalg.inv(v)
        pk, _ = matcalc.spectral_split(t)
        pk2 = matcalc.subspace_projections([(t[None], "ker"), (t[None], "ran")])[0][0]
        assert np.linalg.norm(pk - pk2) < 1e-9


class TestBisectorParams:
    def test_swap_matrix(self):
        bp = matcalc.bisector_params(np.array([[0, 1], [1, 0]]))
        assert bp.omega == 0.0
        assert abs(bp.kappa - 1.0) < 1e-12

    def test_diag_complex(self):
        bp = matcalc.bisector_params(np.diag([1 + 1j, 0.0]))
        assert abs(bp.omega - np.pi / 4) < 1e-12
        assert abs(bp.kappa - np.sqrt(2)) < 1e-12

    def test_imaginary_raises(self):
        with pytest.raises(NotBisectorial):
            matcalc.bisector_params(1j * np.eye(2))

    def test_negative_axis_is_angle_zero(self):
        bp = matcalc.bisector_params(np.diag([-2.0, 1.0]))
        assert bp.omega == 0.0


class TestQuadrature:
    spec = matcalc.ContourSpec(np.pi / 4, 0.5, 4.0, 64)

    @pytest.mark.parametrize(
        "lam, winding",
        [(1.0, 1), (2 * np.exp(0.3j), 1), (-1.5, 1), (-2 * np.exp(-0.5j), 1),
         (0.1, 0), (0.0, 0), (10.0, 0), (2j, 0), (np.exp(1.2j), 0), (-6.0, 0)],
    )
    def test_winding_number(self, lam, winding):
        # (2 pi i)^{-1} times the integral of dz / (z - lam) over the path
        z, w = self.spec.quadrature
        assert abs(np.sum(w / (z - lam)) - winding) < 1e-12

    def test_piece_geometry(self):
        spec = self.spec
        z, w = spec.quadrature
        th, r0, r1 = spec.theta_prime, spec.r_inner, spec.r_outer
        s = 0.5 * (np.polynomial.legendre.leggauss(spec.nodes_per_segment)[0] + 1.0)
        for comp, base in enumerate((0.0, np.pi)):
            a0, a1 = base - th, base + th
            # outer arc, inward segment, inner arc, outward segment
            corners = [r1 * np.exp(1j * a0), r1 * np.exp(1j * a1),
                       r0 * np.exp(1j * a1), r0 * np.exp(1j * a0)]
            for k, start in enumerate(corners):
                end = corners[(k + 1) % 4]
                zk, wk = z[4 * comp + k], w[4 * comp + k]
                # sum of w = (2 pi i)^{-1} times the integral of dz along the piece
                assert abs(wk.sum() - (end - start) / (2j * np.pi)) <= 1e-14 * abs(end - start)
                if k % 2 == 0:
                    assert np.allclose(np.abs(zk), abs(start), rtol=1e-14, atol=0)
                    turn = np.angle(zk * np.exp(-1j * base))
                    assert np.all(np.diff(turn) * (1 if k == 0 else -1) > 0)
                else:
                    ray = start / abs(start)
                    assert np.abs(zk / np.abs(zk) - ray).max() < 1e-14
                    line = np.log(abs(start)) + np.log(abs(end) / abs(start)) * s
                    assert np.abs(np.log(np.abs(zk)) - line).max() < 1e-14

    def test_shape_and_read_only(self):
        z, w = self.spec.quadrature
        assert z.shape == w.shape == (8, 64)
        assert self.spec.quadrature[0] is z
        for arr in (z, w):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0


class TestContourFC:
    def test_involution_closed_form(self):
        t = np.array([[0, 1], [1, 0]], dtype=complex)
        # t*t = I forces f(t) = t/2 for f(z) = z/(1+z^2)
        out = matcalc.contour_fc(t, f_odd)
        assert rel_err(out, t / 2) < 1e-12

    def test_constant_function_reproduces_identity(self):
        t, _, _ = diagonalizable_matrix(4, 11)
        out = matcalc.contour_fc(t, lambda z: 1.0 + 0 * z)
        assert rel_err(out, np.eye(4)) < 1e-10

    def test_against_eigendecomposition_oracle(self):
        rng = np.random.default_rng(7)
        t, lam, v = diagonalizable_matrix(4, 7, mod_range=(0.5, 2.0), angle=0.0)
        oracle = v @ np.diag(f_odd(lam)) @ np.linalg.inv(v)
        spec = matcalc.default_contour(matcalc.bisector_params(t), nodes=256)
        out = matcalc.contour_fc(t, f_odd, spec)
        assert rel_err(out, oracle) <= 1e-8

    def test_linear_in_f(self):
        t, _, _ = diagonalizable_matrix(4, 13)
        combo = matcalc.contour_fc(t, lambda z: 2 * f_odd(z) + 3 * f_even(z))
        parts = 2 * matcalc.contour_fc(t, f_odd) + 3 * matcalc.contour_fc(t, f_even)
        assert rel_err(combo, parts) < 1e-10

    def test_multiplicative_in_f(self):
        t, _, _ = diagonalizable_matrix(4, 17)
        prod = matcalc.contour_fc(t, lambda z: f_odd(z) * f_even(z))
        comp = matcalc.contour_fc(t, f_odd) @ matcalc.contour_fc(t, f_even)
        assert rel_err(prod, comp) < 1e-10

    def test_node_doubling_stable(self):
        t, _, _ = diagonalizable_matrix(5, 19)
        bp = matcalc.bisector_params(t)
        a = matcalc.contour_fc(t, f_odd, matcalc.default_contour(bp, nodes=256))
        b = matcalc.contour_fc(t, f_odd, matcalc.default_contour(bp, nodes=512))
        assert np.linalg.norm(a - b) < 1e-8

    def test_contour_too_close(self):
        t = np.diag([1.0, 2.0])
        spec = matcalc.ContourSpec(np.pi / 4, 1.0, 2.0, 64)
        with pytest.raises(ContourTooClose):
            matcalc.contour_fc(t, f_odd, spec)

    def test_enclosure_margin_boundary(self):
        # an eigenvalue inside the bisector by less than 1e-6 radians is too close
        spec = matcalc.ContourSpec(np.pi / 4, 0.5, 4.0, 16)
        at = lambda margin: np.array([2.0 * np.exp(1j * (np.pi / 4 - margin))])
        with pytest.raises(ContourTooClose):
            spec.check_enclosed(at(1e-7), 1.0)
        spec.check_enclosed(at(1e-5), 1.0)

    def test_split_undefined_propagates(self):
        with pytest.raises(SplitUndefined):
            matcalc.contour_fc(np.array([[0, 1], [0, 0]]), f_odd)


class TestPrincipalAngles:
    def test_same_space(self):
        q = np.linalg.qr(random_matrix(5, 1))[0][:, :2]
        ang = principal_angles(q, q)
        assert ang.max() < 1e-12

    def test_orthogonal_spaces(self):
        e = np.eye(4)
        ang = principal_angles(e[:, :1], e[:, 1:2])
        assert abs(ang.max() - np.pi / 2) < 1e-12
