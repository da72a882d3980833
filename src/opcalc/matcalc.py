"""Finite-dimensional complex spectral core.

Eigenvalues, kernel/range splittings, rational functions by their
partial fractions and contour-integral matrix functions for operators
whose nonzero spectrum lies in a bisector around the real axis.
Everything here works on plain square complex ndarrays; all routines are
pure functions of their inputs.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable

import numpy as np

from .errors import (
    ContourTooClose,
    EigensolverError,
    NotBisectorial,
    NotInvertible,
    SplitUndefined,
)

# Singular values below RANK_TOL * s_max count as zero in all rank decisions.
RANK_TOL = 1e-10
# Relative residual allowed when a kernel/range splitting is cross-checked.
SPLIT_CHECK_TOL = 1e-8
# Eigenvalues below ZERO_EIG_TOL * |T| are classified as the zero eigenvalue.
ZERO_EIG_TOL = 1e-10
# Eigendecomposition routes f(T) = V f(L) V^{-1} require cond(V) <= EIG_COND_LIMIT.
EIG_COND_LIMIT = 1e8


def _as_matrix(t) -> np.ndarray:
    a = np.asarray(t, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def operator_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a), 2))


@dataclasses.dataclass(frozen=True)
class BisectorParams:
    """Measured bisector data: half-angle, coercivity floor, sup norm."""

    omega: float
    kappa: float
    big_m: float

    def __post_init__(self):
        if not (0.0 <= self.omega < math.pi / 2):
            raise ValueError(f"omega out of [0, pi/2): {self.omega}")
        if self.kappa < 0 or self.big_m < self.kappa - 1e-12:
            raise ValueError(f"need 0 <= kappa <= big_m, got {self.kappa}, {self.big_m}")


@dataclasses.dataclass(frozen=True)
class ContourSpec:
    """Truncated-bisector integration path.

    The path is the positively oriented boundary of
    ``{r_inner <= |z| <= r_outer}`` intersected with the bisector of
    half-angle ``theta_prime``; it has two annular-sector components of
    four pieces each, every piece z = z0 exp(c s) for s in [0, 1].
    """

    theta_prime: float
    r_inner: float
    r_outer: float
    nodes_per_segment: int = 256

    def __post_init__(self):
        if not (0.0 < self.theta_prime < math.pi / 2):
            raise ValueError("theta_prime must lie in (0, pi/2)")
        if not (0.0 < self.r_inner < self.r_outer):
            raise ValueError("need 0 < r_inner < r_outer")
        if self.nodes_per_segment < 8:
            raise ValueError("nodes_per_segment must be >= 8")

    def pieces(self) -> list[tuple[complex, complex]]:
        """(z0, c) of each piece z = z0 exp(c s), s in [0, 1], so that
        dz = c z ds: per component the outer arc, the inward segment, the
        inner arc and the outward segment, anticlockwise.  On an arc c is i
        times the swept angle, on a segment log(r_end / r_start)."""
        th, r0, r1 = self.theta_prime, self.r_inner, self.r_outer
        ell = math.log(r1 / r0)
        out = []
        for base in (0.0, math.pi):
            a0, a1 = base - th, base + th
            out += [(r1 * np.exp(1j * a0), 1j * (a1 - a0)), (r1 * np.exp(1j * a1), -ell),
                    (r0 * np.exp(1j * a1), 1j * (a0 - a1)), (r0 * np.exp(1j * a0), ell)]
        return out

    @functools.cached_property
    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes z and weights w with sum(w * g(z)) ~ (2 pi i)^{-1} times
        the integral of g over the path; read-only, of shape
        (pieces, nodes_per_segment), one row per entry of :meth:`pieces`.

        Gauss-Legendre in s on each piece z0 exp(c s): the plain trapezoid
        rule loses too much accuracy at the contour corners to certify 1e-8
        agreement.  On a radial segment the nodes are thereby spaced
        geometrically, so that spectrum spread over decades of modulus is
        resolved at every scale (Hale, Higham & Trefethen, SIAM J. Numer.
        Anal. 46, 2008).
        """
        x, gw = np.polynomial.legendre.leggauss(self.nodes_per_segment)
        z0, c = (np.array(col)[:, None] for col in zip(*self.pieces()))
        z = z0 * np.exp(c * (0.5 * (x + 1.0)))
        w = 0.5 * gw * (c * z) / (2j * math.pi)
        z.flags.writeable = False
        w.flags.writeable = False
        return z, w

    def fractions(self, f: Callable) -> PartialFractions:
        """The quadrature sum_k w_k f(z_k) / (z_k - z) of the Cauchy integral
        of f over this path, as partial fractions: poles z_k, residues
        -w_k f(z_k), with this path as their contour."""
        z, w = (q.ravel() for q in self.quadrature)
        return PartialFractions(tuple(z.tolist()), tuple((-w * feval(f, z)).tolist()), self)

    def check_enclosed(self, lam: np.ndarray, scale: float):
        """ContourTooClose where an eigenvalue of ``lam`` above ZERO_EIG_TOL *
        ``scale`` is not inside the path by a relative margin of 1e-6."""
        nz, _ = _classify(lam, scale)
        mods = np.abs(nz)
        angs = np.minimum(np.abs(np.angle(nz)), np.abs(np.angle(-nz)))
        ok_r = (mods >= self.r_inner * (1 + 1e-6)) & (mods <= self.r_outer * (1 - 1e-6))
        bad = ~(ok_r & (angs <= self.theta_prime - 1e-6))
        if np.any(bad):
            raise ContourTooClose(f"eigenvalue {nz[bad][0]:.6g} within margin of the contour")


@dataclasses.dataclass(frozen=True)
class PartialFractions:
    """f(z) = sum_k r_k / (z - p_k): simple ``poles`` p_k, ``residues`` r_k.
    Called on an array it gives f there; :meth:`of` gives f of matrices.
    ``contour`` is the path whose quadrature gave them, if any."""

    poles: tuple[complex, ...]
    residues: tuple[complex, ...]
    contour: ContourSpec | None = None

    def __call__(self, z):
        terms = (r / (z - p) for p, r in zip(self.poles, self.residues))
        return sum(terms, np.zeros(np.shape(z), dtype=complex))

    def of(self, mats) -> np.ndarray:
        """sum_k r_k (M - p_k I)^{-1} for each M of a stack, by one batched
        inverse; NotInvertible where some M - p_k I is singular."""
        mats = np.asarray(mats, dtype=complex)
        p = np.reshape(self.poles, (-1,) + (1,) * mats.ndim)
        inv = batched_inv(mats - p * np.eye(mats.shape[-1]), "M - p I")
        if len(self.poles) == 1:  # no copy of the stack, and no BLAS call
            return self.residues[0] * inv[0]
        return np.tensordot(self.residues, inv, axes=1)

    def scaled(self, t: float) -> "PartialFractions":
        """The fractions of z -> f(t z): poles p_k / t, residues r_k / t."""
        return PartialFractions(
            tuple(p / t for p in self.poles), tuple(r / t for r in self.residues)
        )


# z / (1 + z^2) by its partial fractions: the function psi of Q_t = psi(t S)
# (Axelsson, Keith & McIntosh, Invent. Math. 163, 2006).  It vanishes at 0
# and is bounded on any bisector of half-angle < pi/4.
f_rational_odd = PartialFractions((1j, -1j), (0.5, 0.5))


def spectrum(t) -> np.ndarray:
    """Eigenvalues with multiplicity, ordered by (modulus, argument)."""
    a = _as_matrix(t)
    try:
        lam = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
    order = np.lexsort((np.angle(lam), np.abs(lam)))
    return lam[order]


def numerical_rank(a):
    """Numerical rank; batched over the leading axes of a stack."""
    s = np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)
    return np.sum(s > RANK_TOL * s[..., :1], axis=-1)


def range_basis(a) -> np.ndarray:
    """Orthonormal basis of the column space, as columns."""
    a = np.asarray(a, dtype=complex)
    u, s, _ = np.linalg.svd(a)
    cut = RANK_TOL * s[0] if s.size and s[0] > 0 else np.inf
    rank = int(np.sum(s > cut))
    return u[:, :rank]


def _classify(lam: np.ndarray, scale: float):
    """Split eigenvalues into the zero cluster and the rest."""
    zero_tol = ZERO_EIG_TOL * max(scale, 1e-300)
    mask = np.abs(lam) > zero_tol
    return lam[mask], zero_tol


def batched_inv(mats: np.ndarray, what: str) -> np.ndarray:
    """Inverse of every matrix in a stack; a singular one is NotInvertible."""
    try:
        return np.linalg.inv(mats)
    except np.linalg.LinAlgError as exc:
        raise NotInvertible(f"{what} is singular for some matrix of the stack") from exc


def _projections(pieces, cond_limit=None):
    """:func:`subspace_projections` without raising: the projections and
    a list of (positions, message), one entry per failed check and group."""
    n = pieces[0][0].shape[-1]
    svds, bases = {}, []
    for mats, kind in pieces:
        if id(mats) not in svds:
            u, s, vh = np.linalg.svd(mats)
            svds[id(mats)] = u, vh, np.sum(s > RANK_TOL * s[:, :1], axis=-1)
        u, vh, rank = svds[id(mats)]
        # (columns, first column, end column): ran = u[:, :r], ker = v[:, r:]
        if kind == "ran":
            bases.append((u, np.zeros_like(rank), rank))
        else:
            bases.append((vh.conj().swapaxes(-1, -2), rank, np.full_like(rank, n)))
    dims = np.stack([hi - lo for _, lo, hi in bases], axis=-1)
    keys, group = np.unique(dims, axis=0, return_inverse=True)
    out = [np.zeros(mats.shape, dtype=complex) for mats, _ in pieces]
    bad = []
    for key, d in enumerate(keys):
        idx = np.nonzero(group.ravel() == key)[0]
        if d.sum() != n:
            bad.append((idx, f"subspace dimensions {'+'.join(map(str, d))} != {n}"))
            continue
        if d.max() == n:
            out[int(np.argmax(d))][idx] = np.eye(n)
            continue
        i0 = idx[0]
        basis = np.concatenate([q[idx, :, lo[i0] : hi[i0]] for q, lo, hi in bases], axis=-1)
        if cond_limit is not None:
            over = np.nonzero(~(np.linalg.cond(basis) <= cond_limit))[0]
            if over.size:
                bad.append((idx[over], "subspace basis matrix ill-conditioned"))
                continue
        # an exact zero pivot, as np.linalg.inv would meet it
        singular = np.linalg.slogdet(basis)[0] == 0
        if singular.any():
            bad.append((idx[singular], "subspace basis matrix singular"))
            idx, basis = idx[~singular], basis[~singular]
        inv = batched_inv(basis, "subspace basis matrix")
        edges = np.concatenate([[0], np.cumsum(d)])
        for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            out[j][idx] = basis[..., lo:hi] @ inv[..., lo:hi, :]
    return out, bad


def subspace_projections(pieces, *, cond_limit=None, fail=None) -> list[np.ndarray]:
    """Complementary projections onto subspaces named per stacked matrix.

    ``pieces`` lists ``(mats, kind)``: a stack of shape (F, N, N) and
    "ker" or "ran" for the kernel or the column space of each matrix,
    from a batched SVD with the RANK_TOL cut.  At each of the F positions
    the orthonormal bases are joined into one N x N matrix and inverted;
    the j-th projection is the j-th block of columns times the j-th block
    of rows of the inverse.  Positions with equal subspace dimensions
    share one batched inversion, and where one subspace is everything its
    projection is the identity exactly.  ``fail(msg, index)`` builds the
    error (default SplitUndefined) for the first position whose dimensions
    do not add up to N, whose basis matrix is singular, or whose condition
    number exceeds ``cond_limit``.
    """
    out, bad = _projections(pieces, cond_limit)
    if bad:
        i, msg = min((int(idx[0]), msg) for idx, msg in bad)
        raise (fail or (lambda msg, i: SplitUndefined(msg)))(msg, i)
    return out


def stacked_split(mats):
    """Kernel/range projections (p_ker, p_ran) of each matrix of a stack
    (F, N, N), formed as in :func:`subspace_projections`, and ``why``: ""
    where matrix i splits, else the first check it fails of rank(T^2) >=
    rank(T), an invertible basis matrix, and T P, P T, P^2 - P vanishing to
    SPLIT_CHECK_TOL relative to |T| (times max(1, |P|)) in Frobenius norm.
    The projections mean nothing where a check fails."""
    (p_ker, p_ran), bad = _projections([(mats, "ker"), (mats, "ran")])
    fro = lambda x: np.linalg.norm(x, axis=(-2, -1))
    scale = fro(mats)
    scale[scale == 0] = 1.0
    resid = np.maximum.reduce(
        [fro(mats @ p_ker) / scale, fro(p_ker @ mats) / scale, fro(p_ker @ p_ker - p_ker)]
    )
    why = np.full(mats.shape[0], "", dtype=object)
    why[resid > SPLIT_CHECK_TOL * np.maximum(1.0, fro(p_ker))] = "split residual above tolerance"
    for idx, msg in bad:
        why[idx] = msg
    defective = numerical_rank(mats @ mats) < numerical_rank(mats)
    why[defective] = "rank(T^2) < rank(T): zero eigenvalue is defective"
    return p_ker, p_ran, why


def spectral_split(t):
    """Complementary projections (p_ker, p_ran) onto ker(T) and ran(T).

    p_ker is computed as the Riesz contour integral of the resolvent
    around the zero eigenvalue only; raises SplitUndefined when 0 is a
    defective eigenvalue (rank T^2 < rank T), in which case no such
    splitting exists, and when the eigenvalues do not separate into a zero
    cluster of size dim ker(T) and a nonzero rest.  The circle carries 128
    trapezoid nodes.  The result is cross-checked against the dense
    invariant-subspace oracle, :func:`subspace_projections`, to
    SPLIT_CHECK_TOL.
    """
    a = _as_matrix(t)
    n = a.shape[0]
    big_m = operator_norm(a)
    rank = numerical_rank(a)
    if numerical_rank(a @ a) < rank:
        raise SplitUndefined("rank(T^2) < rank(T): zero eigenvalue is defective")
    if rank == 0:
        return np.eye(n), np.zeros((n, n))
    lam = spectrum(a)
    nz, zero_tol = _classify(lam, big_m)
    if nz.size == n:
        # invertible: nothing to project out
        return np.zeros((n, n)), np.eye(n)
    if nz.size < rank:
        raise SplitUndefined(f"{n - nz.size} eigenvalues at 0 but dim ker(T) = {n - rank}")
    min_nz = float(np.abs(nz).min())
    if min_nz < 10 * zero_tol:
        raise SplitUndefined(
            f"nonzero spectrum at {min_nz:.3e} cannot be separated from 0"
        )
    # The trapezoid rule on |z| = min_nz / 2 is spectrally accurate
    # (Trefethen & Weideman, SIAM Rev. 56, 2014); as dz = i z dtheta, the
    # residues of its partial fractions are -z_k / nodes.
    nodes = 128
    zs = 0.5 * min_nz * np.exp(1j * (2 * math.pi * np.arange(nodes) / nodes))
    p_ker = PartialFractions(tuple(zs), tuple(-zs / nodes)).of(a)
    p_ran = np.eye(n) - p_ker
    pk_oracle = subspace_projections([(a[None], "ker"), (a[None], "ran")])[0][0]
    if operator_norm(p_ker - pk_oracle) > SPLIT_CHECK_TOL * max(1.0, operator_norm(p_ker)):
        raise SplitUndefined("contour and subspace splittings disagree")
    return p_ker, p_ran


def bisector_params(t) -> BisectorParams:
    """Measured (omega, kappa, big_m) of a matrix; see BisectorParams.

    omega is the smallest bisector half-angle containing the nonzero
    spectrum, kappa the smallest nonzero eigenvalue modulus, big_m the
    operator norm.  Raises NotBisectorial when omega reaches pi/2.
    """
    a = _as_matrix(t)
    big_m = operator_norm(a)
    lam = spectrum(a)
    nz, _ = _classify(lam, big_m)
    if nz.size == 0:
        return BisectorParams(0.0, big_m, big_m)
    angles = np.minimum(np.abs(np.angle(nz)), np.abs(np.angle(-nz)))
    omega = float(angles.max())
    if omega >= math.pi / 2 - 1e-9:
        raise NotBisectorial(f"spectral angle {omega:.6f} reaches pi/2")
    kappa = float(np.abs(nz).min())
    return BisectorParams(omega, kappa, big_m)


def default_contour(params: BisectorParams, nodes=256) -> ContourSpec:
    """Contour enclosing the annulus A(kappa, big_m) inside the bisector.

    theta' is the midpoint of (omega, pi/2); radii kappa/2 and 2*big_m.
    """
    theta = 0.5 * (params.omega + math.pi / 2)
    return ContourSpec(theta, 0.5 * params.kappa, 2.0 * params.big_m, nodes)


def feval(f: Callable, z: np.ndarray) -> np.ndarray:
    """Evaluate a scalar function on an array, vectorized when possible."""
    try:
        out = np.asarray(f(z), dtype=complex)
        if out.shape == z.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.asarray([complex(f(zz)) for zz in z])


def contour_fc(t, f: Callable, spec: ContourSpec | None = None):
    """Matrix function f(T) via the truncated-bisector Dunford integral.

    Returns ``f(0) * p_ker + (2 pi i)^{-1} * integral of f(z)(z-T)^{-1} dz``
    over the positively oriented boundary of the truncated bisector, by the
    quadrature's :meth:`ContourSpec.fractions`.  The nonzero spectrum must lie
    strictly inside the contour; f must be holomorphic on a neighbourhood
    of the enclosed region and defined at 0.
    ContourTooClose is raised when a nonzero eigenvalue lies within a
    relative margin of 1e-6 of the contour.
    """
    a = _as_matrix(t)
    p_ker, _ = spectral_split(a)
    lam, big_m = spectrum(a), operator_norm(a)
    nz, _ = _classify(lam, big_m)
    f0 = complex(f(0.0))
    if nz.size == 0:
        return f0 * p_ker
    if spec is None:
        spec = default_contour(bisector_params(a))
    spec.check_enclosed(lam, big_m)
    return f0 * p_ker + spec.fractions(f).of(a)
