import json
import math

import numpy as np
import pytest

from opcalc import hodge, matcalc, quadest, symbols, torus
from opcalc.errors import EigensolverError


@pytest.fixture(scope="session")
def dirac_pair():
    return symbols.dirac_pair_1d()


@pytest.fixture(scope="session")
def grad_div_pair():
    return grad_div_pair_2d()


@pytest.fixture(scope="session")
def grid64():
    return torus.TorusGrid(1, 64)


@pytest.fixture(scope="session")
def grid16():
    return torus.TorusGrid(1, 16)


@pytest.fixture(scope="session")
def dirac64(dirac_pair, grid64):
    """The total symbol of the Dirac pair on grid64."""
    return torus.GridSymbol(dirac_pair.total(), grid64)


def random_matrix(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def diagonalizable_matrix(n, seed, *, mod_range=(0.5, 2.0), angle=np.pi / 4):
    """Random diagonalizable matrix with spectrum inside the bisector of the
    given half-angle intersected with the annulus mod_range."""
    rng = np.random.default_rng(seed)
    mods = rng.uniform(*mod_range, n)
    angs = rng.uniform(-angle, angle, n) + rng.choice([0.0, np.pi], n)
    lam = mods * np.exp(1j * angs)
    v = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return v @ np.diag(lam) @ np.linalg.inv(v), lam, v


def diagonal_coefficients(grid, big_n, eps, seed):
    return hodge.CoefficientPair(
        hodge.perturbed_identity(grid, big_n, eps, seed, diagonal=True),
        hodge.perturbed_identity(grid, big_n, eps, seed + 1, diagonal=True),
    )


def rel_err(a, b):
    na = np.linalg.norm(np.asarray(a) - np.asarray(b))
    return na / max(np.linalg.norm(np.asarray(b)), 1e-300)


def grad_div_pair_2d() -> symbols.HodgeDiracSymbolPair:
    """n=2, N=4 pair: gradient into components (1,2), divergence back to 0."""
    g1 = np.zeros((4, 4), dtype=complex)
    g1[1, 0] = 1.0
    g2 = np.zeros((4, 4), dtype=complex)
    g2[2, 0] = 1.0
    gt1 = np.zeros((4, 4), dtype=complex)
    gt1[0, 1] = 1.0
    gt2 = np.zeros((4, 4), dtype=complex)
    gt2[0, 2] = 1.0
    g = symbols.HomogeneousSymbol(2, 4, 1, {(1, 0): g1, (0, 1): g2})
    gt = symbols.HomogeneousSymbol(2, 4, 1, {(1, 0): gt1, (0, 1): gt2})
    return symbols.HodgeDiracSymbolPair(g, gt)


def symbol_to_dict(s: symbols.HomogeneousSymbol) -> dict:
    def matrix(a):
        return [[[float(x.real), float(x.imag)] for x in row] for row in a]

    coeffs = {",".join(str(x) for x in th): matrix(m) for th, m in sorted(s.coeffs.items())}
    return {"kind": "homogeneous_symbol", "n": s.n, "N": s.big_n, "k": s.k, "coeffs": coeffs}


def save_symbol_file(path, obj):
    """Write a symbol or a pair in the format symbols.load_symbol_file reads."""
    if isinstance(obj, symbols.HodgeDiracSymbolPair):
        d = {
            "kind": "hodge_pair", "n": obj.n, "N": obj.big_n,
            "gamma": symbol_to_dict(obj.gamma), "gamma_tilde": symbol_to_dict(obj.gamma_tilde),
        }
    else:
        d = symbol_to_dict(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(d, fh, indent=2, sort_keys=True)
        fh.write("\n")


def zero_field(grid, big_n):
    return torus.GridField(grid, np.zeros(grid.shape + (big_n,), dtype=complex))


def plane_wave(grid, freq, vector):
    """Single-frequency field exp(i x . xi) * vector."""
    vec = np.asarray(vector, dtype=complex)
    xi = 2 * math.pi / grid.length * np.asarray(freq, dtype=float)
    phase = np.exp(1j * np.tensordot(grid.coordinates, xi, axes=([-1], [0])))
    return torus.GridField(grid, phase[..., None] * vec)


def bandpass(gs, t):
    """Q_t = t S (I + t^2 S^2)^{-1} of a GridSymbol at every frequency, by
    one batched inverse per scale: the oracle for the eigen-coordinate
    route of the quadest scale families."""
    return torus.MultiplierOp(gs.grid, t * gs.mats @ gs.smoothing(t).mats)


def bandpass_fields_by_inverse(pair, u, scales):
    """Q_t u for every dyadic t by the inverse route, one multiplier per
    scale: the oracle for quadest.bandpass_fields_constant."""
    gs = torus.GridSymbol(pair.total(), u.grid)
    return [torus.apply_multiplier(bandpass(gs, t), u) for t in scales.scales()]


def reproducing_sum_by_inverse(pair, u, scales):
    """(3/2) sum_k Q_{2^k} Q_{2^{k+1}} u as one matrix per frequency, from
    the inverse route: the oracle for quadest.reproducing_sum."""
    gs = torus.GridSymbol(pair.total(), u.grid)
    acc = sum(bandpass(gs, 2.0**k).mats @ bandpass(gs, 2.0 ** (k + 1)).mats for k in scales.ks)
    return torus.apply_multiplier(torus.MultiplierOp(u.grid, 1.5 * acc), u)


def schur_table_by_inverse(pair, f, t_list, s_list, grid, *, trials, seed, p=2.0):
    """quadest.schur_bound_probe's table from the matrices Q_t f(S) Q_s,
    with f(S) by a per-frequency eigendecomposition: the oracle for the
    eigen-coordinate probe."""
    gs = torus.GridSymbol(pair.total(), grid)
    n = pair.big_n
    f_mats = np.stack([matrix_function_eig(m, f) for m in gs.mats.reshape(-1, n, n)])
    f_op = f_mats.reshape(gs.mats.shape)
    fields = torus.random_trials(grid, n, trials, seed).members()
    table = []
    for t in t_list:
        for s in s_list:
            op = torus.MultiplierOp(grid, bandpass(gs, t).mats @ f_op @ bandpass(gs, s).mats)
            est = max(
                torus.lp_norm(torus.apply_multiplier(op, u), p) / torus.lp_norm(u, p)
                for u in fields
            )
            table.append({"t": t, "s": s, "norm_est": est, "ratio": est / quadest.eta(s / t)})
    return table


def defective_pair_1d():
    """S(xi) = xi [[0, 1], [0, 0]]: a Jordan block at every xi != 0."""
    jordan = symbols.HomogeneousSymbol(1, 2, 1, {(1,): [[0, 1], [0, 0]]})
    return symbols.HodgeDiracSymbolPair(jordan, symbols.HomogeneousSymbol(1, 2, 1, {}))


def jordan_symbol_2d():
    """S(xi) = xi_1 [[1, 1], [0, 1]] (+) xi_2: a Jordan block at the nonzero
    eigenvalue xi_1 wherever xi_1 != 0.  So V serves only where xi_1 = 0;
    elsewhere a function of S takes its resolvent sum, sum_k r_k (S - p_k)^{-1}
    over its partial fractions, which exists wherever no eigenvalue is a pole."""
    return symbols.HomogeneousSymbol(2, 3, 1, {
        (1, 0): [[1, 1, 0], [0, 1, 0], [0, 0, 0]],
        (0, 1): [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
    })


def zero_mode(op):
    """The matrix of a multiplier at the zero frequency."""
    return op.mats[(0,) * op.grid.n]


def kernel_basis(a, tol=matcalc.RANK_TOL):
    """Orthonormal basis of the numerical kernel, as columns."""
    _, s, vh = np.linalg.svd(np.asarray(a, dtype=complex))
    cut = tol * s[0] if s.size and s[0] > 0 else np.inf
    return vh[int(np.sum(s > cut)):].conj().T


def principal_angles(u, v):
    """Principal angles between the column spans of two orthonormal bases.

    Sine-based formulation: the singular values of (I - u u^H) v are the
    sines of the angles, which stays accurate for angles near zero where
    the cosine route loses half the digits.
    """
    u, v = np.asarray(u), np.asarray(v)
    if u.shape[1] == 0 and v.shape[1] == 0:
        return np.zeros(0)
    if u.shape[1] != v.shape[1]:
        return np.array([math.pi / 2])
    s = np.linalg.svd(v - u @ (u.conj().T @ v), compute_uv=False)
    return np.sort(np.arcsin(np.clip(s, 0.0, 1.0)))[::-1]


def matrix_function_eig(t, f):
    """Eigendecomposition route f(T) = V f(L) V^{-1} (diagonalizable T),
    independent of the contour machinery."""
    lam, v = np.linalg.eig(np.asarray(t, dtype=complex))
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > matcalc.EIG_COND_LIMIT:
        raise EigensolverError(f"eigenvector matrix too ill-conditioned: {cond:.2e}")
    fl = np.asarray([complex(f(z)) for z in lam])
    return v @ (fl[:, None] * np.linalg.inv(v))


def dense_by_columns(apply_fn, grid, big_n):
    """Dense matrix of a linear map on fields, one unit vector at a time:
    the oracle for hodge.dense_operator."""
    dim = grid.size * big_n
    out = np.zeros((dim, dim), dtype=complex)
    e = np.zeros(dim, dtype=complex)
    for j in range(dim):
        e[j] = 1.0
        out[:, j] = apply_fn(torus.GridField.from_flat(grid, big_n, e)).flat()
        e[j] = 0.0
    return out


def coefficient_conditions_by_trial(op, *, p=2.0, trials=8, seed=0, floor=1e-6,
                                    nilpotence_tol=1e-8):
    """hodge.check_coefficient_conditions one trial field at a time, each
    drawn from its own seed: the oracle for the batched check."""
    rng = np.random.default_rng(seed)
    gt = op.gamma_tilde_op
    b2_adj = op.coeffs.b2.adjoint()
    p_dual = p / (p - 1.0)
    nilp, c_primal, c_dual = 0.0, np.inf, np.inf
    for _ in range(trials):
        v = torus.random_band_limited(op.grid, op.big_n, seed=int(rng.integers(2**31)))
        vn = torus.lp_norm(v, p)
        if vn == 0:
            continue
        w = torus.apply_multiplier(gt, v)
        chain = torus.apply_multiplier(gt, op.coeffs.b2.apply(op.coeffs.b1.apply(w)))
        nilp = max(nilp, torus.lp_norm(chain, p) / vn)
        wn = torus.lp_norm(w, p)
        if wn > 1e-13 * vn:
            c_primal = min(c_primal, torus.lp_norm(op.coeffs.b1.apply(w), p) / wn)
        wd = torus.apply_multiplier(gt.adjoint(), v)
        wdn = torus.lp_norm(wd, p_dual)
        if wdn > 1e-13 * vn:
            c_dual = min(c_dual, torus.lp_norm(b2_adj.apply(wd), p_dual) / wdn)
    c_primal = float(c_primal) if np.isfinite(c_primal) else 0.0
    c_dual = float(c_dual) if np.isfinite(c_dual) else 0.0
    failures = []
    if nilp > nilpotence_tol:
        failures.append(hodge.OFFRANGE_NILPOTENCE)
    if min(c_primal, c_dual) < floor:
        failures.append(hodge.COERCIVE_MULTIPLIERS)
    return hodge.CoefficientConditionReport(
        nilp, c_primal, c_dual, floor, nilpotence_tol, failures
    )
