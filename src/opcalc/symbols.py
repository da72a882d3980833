"""Homogeneous matrix-valued Fourier symbols and their verification probes.

A symbol is a map xi -> sum_theta C_theta xi^theta over multi-indices of a
fixed total degree k, with N x N complex coefficient matrices.  The probes
check, on a deterministic sphere sample: coercivity on the range, spectral
containment in a bisector, nilpotence and kernel-splitting of Hodge-Dirac
pairs, and Mikhlin-type derivative bounds.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Callable, Mapping, Sequence

import numpy as np

from . import matcalc

# Condition names used in reports and error messages.
COERCIVE_ON_RANGE = "coercive_on_range"
SPECTRUM_IN_BISECTOR = "spectrum_in_bisector"
GAMMA_NILPOTENT = "gamma_nilpotent"
GAMMA_TILDE_NILPOTENT = "gamma_tilde_nilpotent"
KERNEL_INTERSECTION = "kernel_intersection"


def _normalize_coeffs(n, big_n, k, coeffs):
    out = {}
    for theta, mat in coeffs.items():
        th = tuple(int(x) for x in theta)
        if len(th) != n or any(x < 0 for x in th) or sum(th) != k:
            raise ValueError(f"multi-index {th} incompatible with n={n}, k={k}")
        a = np.asarray(mat, dtype=complex)
        if a.shape != (big_n, big_n):
            raise ValueError(f"coefficient for {th} has shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"coefficient for {th} has non-finite entries")
        a = a.copy()
        a.flags.writeable = False
        out[th] = a
    return out


@dataclasses.dataclass(frozen=True)
class HomogeneousSymbol:
    """k-homogeneous matrix symbol: xi -> sum_{|theta|=k} C_theta xi^theta."""

    n: int
    big_n: int
    k: int
    coeffs: Mapping[tuple[int, ...], np.ndarray]

    def __post_init__(self):
        if self.n < 1 or self.big_n < 1 or self.k < 1:
            raise ValueError("need n, N, k >= 1")
        object.__setattr__(
            self, "coeffs", _normalize_coeffs(self.n, self.big_n, self.k, self.coeffs)
        )

    def __call__(self, xi) -> np.ndarray:
        """Evaluate at xi; batched over leading axes of xi."""
        x = np.asarray(xi, dtype=float)
        if x.shape[-1:] != (self.n,):
            if self.n == 1 and x.ndim == 0:
                x = x.reshape(1)
            else:
                raise ValueError(f"xi must have last axis {self.n}")
        batch = x.shape[:-1]
        out = np.zeros(batch + (self.big_n, self.big_n), dtype=complex)
        for theta, mat in self.coeffs.items():
            mono = np.ones(batch)
            for j, p in enumerate(theta):
                if p:
                    mono = mono * x[..., j] ** p
            out += mono[..., None, None] * mat
        return out

    def __eq__(self, other) -> bool:
        """Value equality: the same n, N and k, the same multi-indices, and
        equal coefficient matrices."""
        if not isinstance(other, HomogeneousSymbol):
            return NotImplemented
        return (
            (self.n, self.big_n, self.k) == (other.n, other.big_n, other.k)
            and self.coeffs.keys() == other.coeffs.keys()
            and all(np.array_equal(m, other.coeffs[th]) for th, m in self.coeffs.items())
        )

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which array_equal counts as equal
        mats = tuple((th, (self.coeffs[th] + 0.0).tobytes()) for th in sorted(self.coeffs))
        return hash((self.n, self.big_n, self.k, mats))

    def __add__(self, other: "HomogeneousSymbol") -> "HomogeneousSymbol":
        if (self.n, self.big_n, self.k) != (other.n, other.big_n, other.k):
            raise ValueError("incompatible symbols")
        merged = {th: np.array(m) for th, m in self.coeffs.items()}
        for th, m in other.coeffs.items():
            merged[th] = merged.get(th, 0) + m
        return HomogeneousSymbol(self.n, self.big_n, self.k, merged)


@dataclasses.dataclass(frozen=True)
class HodgeDiracSymbolPair:
    """Pair of first-order nilpotent symbols whose sum is the full symbol."""

    gamma: HomogeneousSymbol
    gamma_tilde: HomogeneousSymbol

    def __post_init__(self):
        a, b = self.gamma, self.gamma_tilde
        if (a.n, a.big_n, a.k) != (b.n, b.big_n, b.k) or a.k != 1:
            raise ValueError("pair must share n, N and have order k=1")

    @property
    def n(self):
        return self.gamma.n

    @property
    def big_n(self):
        return self.gamma.big_n

    def total(self) -> HomogeneousSymbol:
        return self.gamma + self.gamma_tilde


@dataclasses.dataclass(frozen=True)
class SphereSample:
    """Deterministic sample of unit vectors; includes +-e_j by construction."""

    points: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        if p.ndim != 2:
            raise ValueError("points must be (count, n)")
        norms = np.linalg.norm(p, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("sample points must be unit vectors")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "points", p)

    @property
    def n(self):
        return self.points.shape[1]


def _halton(count, base):
    out = np.zeros(count)
    for i in range(count):
        f, x, j = 1.0, 0.0, i + 1
        while j > 0:
            f /= base
            x += f * (j % base)
            j //= base
        out[i] = x
    return out


def sphere_sample(n: int, count: int = 2048) -> SphereSample:
    """Low-discrepancy unit vectors plus all +-standard basis vectors."""
    if n == 1:
        pts = np.array([[1.0], [-1.0]])
        return SphereSample(pts)
    if n == 2:
        ang = 2 * math.pi * np.arange(count) / count
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    elif n == 3:
        # Fibonacci sphere lattice
        golden = (1 + 5**0.5) / 2
        i = np.arange(count)
        z = 1 - (2 * i + 1) / count
        r = np.sqrt(np.maximum(0.0, 1 - z * z))
        phi = 2 * math.pi * ((i / golden) % 1.0)
        pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    else:
        # Box-Muller on Halton pairs, then normalize: deterministic and
        # asymptotically uniform for any n.
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        m = 2 * ((n + 1) // 2)
        cols = [_halton(count, primes[j % len(primes)]) for j in range(m)]
        gauss = []
        for j in range(0, m, 2):
            u1 = np.clip(cols[j], 1e-12, 1.0)
            u2 = cols[j + 1]
            r = np.sqrt(-2 * np.log(u1))
            gauss.append(r * np.cos(2 * math.pi * u2))
            gauss.append(r * np.sin(2 * math.pi * u2))
        pts = np.stack(gauss[:n], axis=1)
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    basis = np.concatenate([np.eye(n), -np.eye(n)], axis=0)
    return SphereSample(np.concatenate([pts, basis], axis=0))


@dataclasses.dataclass
class SymbolConditionReport:
    """Result of the coercivity/bisector verification on a sphere sample."""

    params: matcalc.BisectorParams | None
    passed: bool
    failures: list[str]
    failure_points: dict[str, np.ndarray]

    def describe(self) -> str:
        if self.passed:
            p = self.params
            return (
                f"pass: omega={p.omega:.3e}, kappa={p.kappa:.6g}, M={p.big_m:.6g}"
            )
        return "fail: " + ", ".join(self.failures)


def _first_failures(checks, points):
    """Failed checks ordered by their first failing point, then by check
    order, and that point for each: ``checks`` lists (name, mask)."""
    first = {name: int(np.argmax(bad)) for name, bad in checks if bad.any()}
    failures = sorted(first, key=first.get)
    return failures, {name: points[first[name]] for name in failures}


def verify_symbol_conditions(
    s: HomogeneousSymbol, sample: SphereSample | None = None
) -> SymbolConditionReport:
    """Check coercivity-on-range and bisector containment on the sphere.

    kappa is the least singular value of the symbol restricted to its
    range (a singular-value bound, not an eigenvalue bound), omega the
    largest bisector half-angle over the sample, M the largest norm.  All
    points at once: the split check is :func:`matcalc.stacked_split` plus
    the eigenvalue tests of :func:`matcalc.spectral_split`.
    """
    if sample is None:
        sample = sphere_sample(s.n)
    t = s(sample.points)
    norms = np.linalg.svd(t, compute_uv=False)[:, 0]
    rank = matcalc.numerical_rank(t)
    lam = np.linalg.eigvals(t)
    zero_tol = matcalc.ZERO_EIG_TOL * np.maximum(norms, 1e-300)
    nonzero = np.abs(lam) > zero_tol[:, None]
    count = nonzero.sum(axis=-1)
    min_nz = np.where(nonzero, np.abs(lam), np.inf).min(axis=-1)
    no_split = (matcalc.stacked_split(t)[2] != "") | (count < rank)
    no_split |= (count < s.big_n) & (min_nz < 10 * zero_tol)
    angles = np.minimum(np.abs(np.angle(lam)), np.abs(np.angle(-lam)))
    omegas = np.where(nonzero, angles, 0.0).max(axis=-1)
    not_bisectorial = ~no_split & (omegas >= math.pi / 2 - 1e-9)
    omega = float(np.max(omegas[~no_split & ~not_bisectorial], initial=0.0))
    u = np.linalg.svd(t)[0]
    ran_dim = np.where(no_split, 0, rank)
    kappa = math.inf
    for r in np.unique(ran_dim[ran_dim > 0]):
        idx = np.nonzero(ran_dim == r)[0]
        smin = np.linalg.svd(t[idx] @ u[idx, :, :r], compute_uv=False)[:, -1]
        kappa = min(kappa, float(smin.min()))
    failures, points = _first_failures(
        [(COERCIVE_ON_RANGE, no_split), (SPECTRUM_IN_BISECTOR, not_bisectorial)],
        sample.points,
    )
    if math.isinf(kappa):
        kappa = 0.0
    if kappa <= 0.0 and COERCIVE_ON_RANGE not in failures:
        failures.append(COERCIVE_ON_RANGE)
    params = None if failures else matcalc.BisectorParams(omega, kappa, float(norms.max()))
    return SymbolConditionReport(params, not failures, failures, points)


@dataclasses.dataclass
class HodgePairReport:
    symbol_report: SymbolConditionReport
    passed: bool
    failures: list[str]
    failure_points: dict[str, np.ndarray]
    kernel_dims: list[int]

    @property
    def params(self):
        return self.symbol_report.params

    def describe(self) -> str:
        if self.passed:
            return self.symbol_report.describe()
        return "fail: " + ", ".join(self.failures)


def verify_hodge_pair(
    pair: HodgeDiracSymbolPair, sample: SphereSample | None = None
) -> HodgePairReport:
    """Nilpotence of both parts (|a^2| <= 1e-12 |a|^2), symbol conditions for
    the sum, and the pointwise identity of ker(sum) with the intersection of
    the two kernels (to a principal angle of 1e-8)."""
    if sample is None:
        sample = sphere_sample(pair.n)
    n = pair.big_n
    g = pair.gamma(sample.points)
    gt = pair.gamma_tilde(sample.points)

    def nilpotent_fails(a):
        norm = np.linalg.svd(a, compute_uv=False)[:, 0]
        square = np.linalg.svd(a @ a, compute_uv=False)[:, 0]
        return square > 1e-12 * np.maximum(norm**2, 1e-300)

    pi, both = g + gt, np.concatenate([g, gt], axis=-2)
    vh_pi, vh_both = np.linalg.svd(pi)[2], np.linalg.svd(both)[2]
    kdims = n - matcalc.numerical_rank(pi)
    kernel_bad = kdims != n - matcalc.numerical_rank(both)
    for d in np.unique(kdims[~kernel_bad & (kdims > 0)]):
        idx = np.nonzero(~kernel_bad & (kdims == d))[0]
        k_pi = vh_pi[idx, n - d :].conj().swapaxes(-1, -2)
        k_both = vh_both[idx, n - d :].conj().swapaxes(-1, -2)
        resid = k_both - k_pi @ (k_pi.conj().swapaxes(-1, -2) @ k_both)
        sines = np.linalg.svd(resid, compute_uv=False)[:, 0]
        kernel_bad[idx] = np.arcsin(np.clip(sines, 0.0, 1.0)) > 1e-8
    failures, points = _first_failures(
        [
            (GAMMA_NILPOTENT, nilpotent_fails(g)),
            (GAMMA_TILDE_NILPOTENT, nilpotent_fails(gt)),
            (KERNEL_INTERSECTION, kernel_bad),
        ],
        sample.points,
    )
    sym_report = verify_symbol_conditions(pair.total(), sample)
    failures = sym_report.failures + failures
    points = {**sym_report.failure_points, **points}
    passed = not failures
    return HodgePairReport(sym_report, passed, failures, points, kdims.tolist())


def finite_difference(fun: Callable, xi, alpha, h: float) -> np.ndarray:
    """Nested central differences for the mixed partial d^alpha fun(xi)."""
    alpha = tuple(int(a) for a in alpha)
    if sum(alpha) == 0:
        return np.asarray(fun(np.asarray(xi, dtype=float)), dtype=complex)
    j = next(i for i, a in enumerate(alpha) if a > 0)
    step = np.zeros(len(alpha))
    step[j] = h
    rest = tuple(a - (1 if i == j else 0) for i, a in enumerate(alpha))
    hi = finite_difference(fun, np.asarray(xi) + step, rest, h)
    lo = finite_difference(fun, np.asarray(xi) - step, rest, h)
    return (hi - lo) / (2 * h)


def default_alphas(n: int) -> list[tuple[int, ...]]:
    """Multi-indices with components <= 1 and |alpha| <= n."""
    out = []
    for mask in range(2**n):
        alpha = tuple((mask >> j) & 1 for j in range(n))
        if sum(alpha) <= n:
            out.append(alpha)
    return sorted(out, key=lambda a: (sum(a), a))


@dataclasses.dataclass
class MikhlinRow:
    alpha: tuple[int, ...]
    value: float
    value_half_step: float
    stable: bool


def mikhlin_probe(
    family: Callable,
    alphas: Sequence[Sequence[int]] | None,
    sample: SphereSample,
    taus: Sequence,
) -> list[MikhlinRow]:
    """Estimated sup over sample and taus of |xi|^{|alpha|} |d^alpha m_tau(xi)|.

    ``family(taus, xi)`` maps a (T,) array of taus and a (P, n) stack of
    points to the (T, P, N, N) stack of m_tau there, so each derivative
    covers every tau and the whole sample at once, with one SVD.
    Derivatives by central differences at step h = 1e-4; each row is
    recomputed at h/2 and flagged unstable when the two differ by more
    than a factor 2.  The zeroth derivative takes no step, so its h/2 value
    is its h value.
    """
    h = 1e-4
    if alphas is None:
        alphas = default_alphas(sample.n)
    pts = sample.points
    taus = np.asarray(taus, dtype=float)
    # |xi| by a dot product, as np.linalg.norm takes it for one vector, so
    # the rows equal a point-by-point evaluation bit for bit
    norms = np.sqrt((pts[:, None, :] @ pts[:, :, None])[:, 0, 0])
    rows = []
    for alpha in alphas:
        alpha = tuple(int(a) for a in alpha)
        factor = norms ** sum(alpha)
        vals = []
        for step in (h, h / 2) if sum(alpha) else (h,):
            d = finite_difference(lambda x: family(taus, x), pts, alpha, step)
            sups = (factor * np.linalg.svd(d, compute_uv=False)[..., 0]).max(axis=-1)
            # a running max from 0.0 over the taus, so a NaN sup never wins
            vals.append(max([0.0, *sups.tolist()]))
        v, vh = vals[0], vals[-1]
        hi, lo = max(v, vh), min(v, vh)
        stable = hi <= 2.0 * max(lo, 1e-14)
        rows.append(MikhlinRow(alpha, v, vh, stable))
    return rows


def resolvent_symbol_family(s: HomogeneousSymbol, kind: str) -> Callable:
    """Families (tau, xi) -> m_tau(xi) built from the resolvent of the symbol.

    kind 'resolvent': (I + i tau D)^{-1}; 'even': (I + tau^2 D^2)^{-1};
    'odd': tau D (I + tau^2 D^2)^{-1}.  xi is one point or a (P, n) stack
    of points, tau one value or an array of them, and the result has the
    axes of tau, then those of xi, then (N, N).  The symbol is evaluated
    once for all taus.
    """
    if kind not in ("resolvent", "even", "odd"):
        raise ValueError(f"unknown kind {kind!r}")

    def fam(tau, xi):
        d = s(np.asarray(xi, dtype=float))
        tau = np.reshape(tau, np.shape(tau) + (1,) * d.ndim)
        eye = np.eye(s.big_n)
        if kind == "resolvent":
            return np.linalg.inv(eye + 1j * tau * d)
        p = np.linalg.inv(eye + tau * tau * (d @ d))
        if kind == "even":
            return p
        return tau * d @ p

    return fam


# ---------------------------------------------------------------------------
# JSON serialization.  Schema (documented in the README):
#   symbol:  {"kind": "homogeneous_symbol", "n": int, "N": int, "k": int,
#             "coeffs": {"<i,j,...>": [[[re, im], ...], ...]}}
#   pair:    {"kind": "hodge_pair", "n": int, "N": int,
#             "gamma": <symbol>, "gamma_tilde": <symbol>}
# Multi-index keys are comma-separated nonnegative integers of length n;
# each matrix is an N x N array of [re, im] pairs.
# ---------------------------------------------------------------------------


def _matrix_from_json(rows, big_n):
    a = np.asarray(rows, dtype=float)
    if a.shape != (big_n, big_n, 2):
        raise ValueError(f"matrix entry has shape {a.shape}, want ({big_n},{big_n},2)")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entry has non-finite values")
    return a[..., 0] + 1j * a[..., 1]


def _object(d, what: str) -> dict:
    if not isinstance(d, dict):
        raise ValueError(f"{what}: expected a JSON object, got {type(d).__name__}")
    return d


def symbol_from_dict(d: dict) -> HomogeneousSymbol:
    if _object(d, "symbol").get("kind") != "homogeneous_symbol":
        raise ValueError(f"not a symbol object: kind={d.get('kind')!r}")
    n, big_n, k = d["n"], d["N"], d["k"]
    if any(isinstance(x, bool) or not isinstance(x, int) for x in (n, big_n, k)):
        raise ValueError(f"n, N and k must be JSON integers, got {n!r}, {big_n!r}, {k!r}")
    coeffs = {
        tuple(int(x) for x in key.split(",")): _matrix_from_json(val, big_n)
        for key, val in _object(d["coeffs"], "coeffs").items()
    }
    return HomogeneousSymbol(n, big_n, k, coeffs)


def pair_from_dict(d: dict) -> HodgeDiracSymbolPair:
    if _object(d, "pair").get("kind") != "hodge_pair":
        raise ValueError(f"not a pair object: kind={d.get('kind')!r}")
    return HodgeDiracSymbolPair(
        symbol_from_dict(d["gamma"]), symbol_from_dict(d["gamma_tilde"])
    )


def load_symbol_file(path):
    """Load either a single symbol or a Hodge pair from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    kind = _object(d, "top level").get("kind")
    if kind == "homogeneous_symbol":
        return symbol_from_dict(d)
    if kind == "hodge_pair":
        return pair_from_dict(d)
    raise ValueError(f"unrecognized kind {kind!r} in {path}")


def dirac_pair_1d() -> HodgeDiracSymbolPair:
    """The bundled 1-D model pair: lower/upper triangular first-order parts."""
    g = HomogeneousSymbol(1, 2, 1, {(1,): np.array([[0, 0], [1, 0]], dtype=complex)})
    gt = HomogeneousSymbol(1, 2, 1, {(1,): np.array([[0, 1], [0, 0]], dtype=complex)})
    return HodgeDiracSymbolPair(g, gt)
