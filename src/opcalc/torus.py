"""Discrete periodic function spaces and the FFT multiplier engine.

Fields live on a uniform n-dimensional periodic grid with g points per
axis (g a power of two) and values in C^N.  All frequency-diagonal
operators are applied as forward FFT, per-frequency matrix multiply,
inverse FFT; this is exact on band-limited data, which is the modeling
decision that stands in for the continuum: continuum statements are
probed on band-limited periodic fields.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import matcalc, symbols
from .errors import SplitUndefined

FIELD_MAGIC = b"TORUSFLD"
LAYOUT_VECTOR = 1  # row-major spatial axes, trailing component axis
LAYOUT_MATRIX = 2  # row-major spatial axes, trailing (N, N) matrix axes


def _is_pow2(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclasses.dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid: n axes, g points per axis, period length."""

    n: int
    g: int
    length: float = 2 * math.pi

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.g < 4 or not _is_pow2(self.g):
            raise ValueError("g must be a power of two, >= 4")
        if not (0 < self.length < math.inf):
            raise ValueError(f"length must be positive and finite, got {self.length}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.g,) * self.n

    @property
    def size(self) -> int:
        return self.g**self.n

    @property
    def cell_width(self) -> float:
        return self.length / self.g

    @property
    def cell_volume(self) -> float:
        return self.cell_width**self.n

    @cached_property
    def axis_integers(self) -> np.ndarray:
        """Integer frequencies per axis, in FFT bin order, Nyquist = +g/2."""
        m = np.arange(self.g)
        m = np.where(m > self.g // 2, m - self.g, m)
        return m

    @cached_property
    def lattice(self) -> np.ndarray:
        """Physical frequencies, shape (g,)*n + (n,): 2*pi/length * integers."""
        scale = 2 * math.pi / self.length
        axes = np.meshgrid(*([self.axis_integers] * self.n), indexing="ij")
        return scale * np.stack(axes, axis=-1).astype(float)

    @cached_property
    def coordinates(self) -> np.ndarray:
        """Cell coordinates x_j = j * length / g, shape (g,)*n + (n,)."""
        x = np.arange(self.g) * self.cell_width
        axes = np.meshgrid(*([x] * self.n), indexing="ij")
        return np.stack(axes, axis=-1)


@dataclasses.dataclass(frozen=True)
class GridField:
    """Function on the grid with values in C^N, or a stack of them.

    ``values`` has shape ``batch + grid.shape + (N,)``: leading batch axes,
    if any, hold independent fields that every operator acts on at once.
    """

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        n = self.grid.n
        if v.ndim < n + 1 or v.shape[v.ndim - n - 1 : -1] != self.grid.shape:
            raise ValueError(f"values shape {v.shape} incompatible with grid")
        object.__setattr__(self, "values", v)

    @property
    def big_n(self) -> int:
        return self.values.shape[-1]

    @property
    def batch(self) -> tuple[int, ...]:
        return self.values.shape[: self.values.ndim - self.grid.n - 1]

    def single(self) -> "GridField":
        """This field, after checking that it carries no batch axis."""
        if self.batch:
            raise ValueError(f"expected a single field, got a batch of shape {self.batch}")
        return self

    def __add__(self, other):
        return GridField(self.grid, self.values + other.values)

    def __sub__(self, other):
        return GridField(self.grid, self.values - other.values)

    def __mul__(self, c):
        return GridField(self.grid, self.values * c)

    __rmul__ = __mul__

    def flat(self) -> np.ndarray:
        return self.single().values.reshape(-1)

    @staticmethod
    def from_flat(grid: TorusGrid, big_n: int, vec: np.ndarray) -> "GridField":
        return GridField(grid, np.asarray(vec, dtype=complex).reshape(grid.shape + (big_n,)))

    @staticmethod
    def stack(fields: Sequence["GridField"]) -> "GridField":
        """Single fields on one grid as one batch along a new leading axis."""
        return GridField(fields[0].grid, np.stack([f.single().values for f in fields]))

    def members(self) -> list["GridField"]:
        """The single fields of the batch, in C order (just this field if unbatched)."""
        shape = (-1,) + self.grid.shape + (self.big_n,)
        return [GridField(self.grid, v) for v in self.values.reshape(shape)]


def _grid_axes(grid: TorusGrid) -> tuple[int, ...]:
    """The grid axes of field values, counted from the end."""
    return tuple(range(-grid.n - 1, -1))


def fft_field(u: GridField) -> np.ndarray:
    return np.fft.fftn(u.values, axes=_grid_axes(u.grid))


def ifft_field(grid: TorusGrid, hat: np.ndarray) -> GridField:
    return GridField(grid, np.fft.ifftn(hat, axes=_grid_axes(grid)))


class Support(NamedTuple):
    """Where a pointwise-matrix operator acts: the components ``rows`` it
    writes and ``cols`` it reads (those in which some point's matrix has a
    nonzero row or column, ascending), and ``mats`` restricted to them, of
    shape grid.shape + (len(rows), len(cols)).  At full support ``mats`` is
    the operator's own array."""

    rows: np.ndarray
    cols: np.ndarray
    mats: np.ndarray


@dataclasses.dataclass(frozen=True)
class MatrixField:
    """One N x N matrix per grid point, acting on fields by the pointwise
    product on its support.

    ``mats`` is read-only, so that the cached ``support`` stays valid."""

    grid: TorusGrid
    mats: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mats, dtype=complex)
        if m.shape[: self.grid.n] != self.grid.shape or m.ndim != self.grid.n + 2:
            raise ValueError(f"mats shape {m.shape} incompatible with grid")
        if m.shape[-1] != m.shape[-2]:
            raise ValueError("per-point entries must be square")
        m.flags.writeable = False
        object.__setattr__(self, "mats", m)

    @property
    def big_n(self) -> int:
        return self.mats.shape[-1]

    @cached_property
    def support(self) -> Support:
        nonzero = (self.mats != 0).any(axis=tuple(range(self.grid.n)))
        rows = np.flatnonzero(nonzero.any(axis=1))
        cols = np.flatnonzero(nonzero.any(axis=0))
        full = rows.size == cols.size == self.big_n
        support = Support(rows, cols, self.mats if full else self.mats[..., rows[:, None], cols])
        for a in support:
            a.flags.writeable = False
        return support

    @cached_property
    def _components(self) -> tuple:
        """The support's (rows, cols) as component indices: None for all of
        them, a slice where contiguous, so that products take views."""
        def index(c):
            if c.size == self.big_n:
                return None
            return slice(c[0], c[-1] + 1) if c[-1] - c[0] + 1 == c.size else c
        return index(self.support.rows), index(self.support.cols)

    @cached_property
    def inf_norm(self) -> float:
        """Sup over the points of the matrices' operator norm."""
        flat = self.mats.reshape(-1, self.big_n, self.big_n)
        return float(np.linalg.svd(flat, compute_uv=False)[:, 0].max())

    @classmethod
    def identity(cls, grid: TorusGrid, big_n: int):
        eye = np.broadcast_to(np.eye(big_n, dtype=complex), grid.shape + (big_n, big_n))
        return cls(grid, eye.copy())

    def adjoint(self):
        return type(self)(self.grid, np.conj(np.swapaxes(self.mats, -1, -2)))

    def __add__(self, other):
        return type(self)(self.grid, self.mats + other.mats)

    def __sub__(self, other):
        return type(self)(self.grid, self.mats - other.mats)

    def __mul__(self, c):
        return type(self)(self.grid, self.mats * c)

    def __rmul__(self, c):
        # c * mats, not mats * c: numpy's complex products differ in the last bit
        return type(self)(self.grid, c * self.mats)

    def apply(self, u: GridField) -> GridField:
        return _pointwise(self, u, in_frequency=False)


class MultiplierOp(MatrixField):
    """Frequency-diagonal operator: one N x N matrix per lattice frequency,
    applied by :func:`apply_multiplier`."""

    def apply(self, u: GridField) -> GridField:
        return apply_multiplier(self, u)


def _pointwise(m: MatrixField, u: GridField, *, in_frequency: bool) -> GridField:
    """m's support matrices times the components of u that m reads (in
    frequency: transformed before the product, and back after it), scattered
    to the components m writes; the other components are zero whatever u
    holds where m does not read.  Exactly the full product where u is finite."""
    if m.grid != u.grid or m.big_n != u.big_n:
        raise ValueError("grid or component mismatch between operator and field")
    values = u.values
    if not m.support.rows.size:
        return GridField(u.grid, np.zeros_like(values))
    write, read = m._components
    x = values if read is None else values[..., read]
    if in_frequency:
        x = fft_field(u if read is None else GridField(u.grid, x))
    out = np.einsum("...ij,...j->...i", m.support.mats, x)
    if in_frequency:
        if write is None:
            return ifft_field(u.grid, out)
        out = ifft_field(u.grid, out).values
    if write is not None:
        out, part = np.zeros_like(values), out
        out[..., write] = part
    return GridField(u.grid, out)


def apply_multiplier(m: MultiplierOp, u: GridField) -> GridField:
    """The product of :func:`_pointwise` in frequency: FFT of the components
    m reads, product with its support matrices, inverse FFT of those written."""
    return _pointwise(m, u, in_frequency=True)


class SpectralTriple(NamedTuple):
    """S = V diag(lam) V^{-1} at each frequency, flattened: lam (F, N), v and
    v_inv (F, N, N), and good (F,), cond(V) <= matcalc.EIG_COND_LIMIT; v and
    v_inv are zero where good is false."""

    lam: np.ndarray
    v: np.ndarray
    v_inv: np.ndarray
    good: np.ndarray


class SpectralFunction(NamedTuple):
    """A function of S at every frequency: ``coeff`` (F, N), its values on
    the eigenvalues, and ``at(m)``, its matrices at the frequencies of a
    mask m, which act instead wherever ``mask`` (F,) is set.

    ``a * b`` and ``a + b`` act on the values and on the matrices alike,
    with the union of the masks; ``c * a`` scales both.  The composite's
    ``at`` keeps only the factors' ``at``, not their values."""

    coeff: np.ndarray
    mask: np.ndarray
    at: Callable[[np.ndarray], np.ndarray]

    def __mul__(self, other: "SpectralFunction") -> "SpectralFunction":
        a, b = self.at, other.at
        mask = self.mask | other.mask
        return SpectralFunction(self.coeff * other.coeff, mask, lambda m: a(m) @ b(m))

    def __rmul__(self, c: complex) -> "SpectralFunction":
        at = self.at
        return SpectralFunction(c * self.coeff, self.mask, lambda m: c * at(m))

    def __add__(self, other: "SpectralFunction") -> "SpectralFunction":
        a, b = self.at, other.at
        mask = self.mask | other.mask
        return SpectralFunction(self.coeff + other.coeff, mask, lambda m: a(m) + b(m))


# An eigenvalue within DENOM_ULPS ulps of a pole p, relative to |lam| + |p|,
# takes the resolvent sum, which raises where S - p is singular.
DENOM_ULPS = 8


@dataclasses.dataclass(frozen=True)
class GridSymbol:
    """One homogeneous symbol S on one grid, and the multipliers built from it.

    ``mats`` (S on the lattice), ``spectral`` (its eigendecomposition) and
    ``kernel_range`` (its kernel/range split) are computed once and kept
    read-only.  ``fractions`` gives a function of S by its partial fractions
    as a SpectralFunction, which ``apply`` takes to a field transformed once
    to V^{-1} u_hat, one product each; frequencies where V is ill-conditioned
    or an eigenvalue is a pole to rounding take the resolvent sum.  The
    preconditioners ``resolvent``, ``smoothing`` and ``shifted`` are one
    batched inverse each, not cached.  S(0) = 0 (k >= 1): there the
    resolvent and smoothing act as the identity and the bandpass as zero.
    """

    symbol: symbols.HomogeneousSymbol
    grid: TorusGrid

    @cached_property
    def mats(self) -> np.ndarray:
        mats = self.symbol(self.grid.lattice)
        mats.flags.writeable = False
        return mats

    @property
    def _flat(self) -> np.ndarray:
        n = self.symbol.big_n
        return self.mats.reshape(-1, n, n)

    @cached_property
    def spectral(self) -> SpectralTriple:
        """One batched eig of ``mats``, guarded per frequency by cond(V)."""
        lam, v = np.linalg.eig(self._flat)
        good = np.linalg.cond(v) <= matcalc.EIG_COND_LIMIT
        v[~good] = 0.0
        v_inv = np.zeros_like(v)
        v_inv[good] = matcalc._batched_inv(v[good], "eigenvector matrix")
        for a in (lam, v, v_inv, good):
            a.flags.writeable = False
        return SpectralTriple(lam, v, v_inv, good)

    @cached_property
    def kernel_range(self) -> tuple[MultiplierOp, MultiplierOp]:
        """Projections onto ker S(xi) along ran S(xi), and back, at every
        frequency; the kernel projection is the identity at xi = 0.  Raises
        SplitUndefined at the first frequency that fails a check of
        :func:`matcalc.stacked_split`: rank S^2 < rank S (no such splitting), a
        singular basis matrix, or S P, P S and P^2 - P above SPLIT_CHECK_TOL
        relative to |S(xi)| (times max(1, |P|))."""
        p_ker, p_ran, why = matcalc.stacked_split(self._flat)
        bad = np.nonzero(why != "")[0]
        if bad.size:
            xi = self.grid.lattice.reshape(-1, self.grid.n)[bad[0]]
            raise SplitUndefined(f"{why[bad[0]]} at xi={xi}")
        p_ker.flags.writeable = p_ran.flags.writeable = False
        return (MultiplierOp(self.grid, p_ker.reshape(self.mats.shape)),
                MultiplierOp(self.grid, p_ran.reshape(self.mats.shape)))

    def _inv(self, mats: np.ndarray, what: str) -> MultiplierOp:
        return MultiplierOp(self.grid, matcalc._batched_inv(mats, what))

    @property
    def _eye(self) -> np.ndarray:
        return np.eye(self.symbol.big_n, dtype=complex)

    def multiplier(self) -> MultiplierOp:
        """S itself."""
        return MultiplierOp(self.grid, self.mats)

    def resolvent(self, t: complex) -> MultiplierOp:
        """(I + i t S)^{-1}."""
        return self._inv(self._eye + 1j * t * self.mats, "I + i t S")

    def smoothing(self, t: complex) -> MultiplierOp:
        """(I + t^2 S^2)^{-1}."""
        return self._inv(self._eye + (t * t) * (self.mats @ self.mats), "I + t^2 S^2")

    def shifted(self, z: complex) -> MultiplierOp:
        """(z - S)^{-1}: the exact constant-coefficient inverse that
        preconditions shifted solves."""
        return self._inv(z * self._eye - self.mats, "z - S")

    def fractions(self, f: matcalc.PartialFractions) -> SpectralFunction:
        """f(S): f(lam) on the eigenvalues where V serves and no eigenvalue
        lies within DENOM_ULPS ulps of a pole of f; ``at`` is the resolvent
        sum ``f.of(S)``, which a product's mask can take to any frequency."""
        lam, _, _, good = self.spectral
        size, tol = np.abs(lam), DENOM_ULPS * np.finfo(float).eps
        near = np.zeros(lam.shape, dtype=bool)
        for p in f.poles:
            near |= np.abs(lam - p) <= tol * (size + abs(p))
        mask = ~good | near.any(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            coeff = f(lam)
        coeff[mask] = 0.0
        return SpectralFunction(coeff, mask, lambda m: f.of(self._flat[m]))

    def bandpass(self, t: float) -> SpectralFunction:
        """Q_t = t S (I + t^2 S^2)^{-1} = psi(t S), psi = matcalc.f_rational_odd
        = z / (1 + z^2); its ``at`` raises NotInvertible where I + t^2 S^2 is
        singular."""
        return self.fractions(matcalc.f_rational_odd.scaled(t))

    def apply(self, fns: Iterable[SpectralFunction], u: GridField) -> Iterator[GridField]:
        """f(S) u for each f of ``fns`` in turn, u a field or a batch.  u is
        transformed once to V^{-1} u_hat, and each output is formed only when
        asked for; at the frequencies of f's mask, f's matrices act on u_hat."""
        hat = fft_field(u).reshape(u.batch + (-1, u.big_n))
        w = np.einsum("fij,...fj->...fi", self.spectral.v_inv, hat)
        for fn in fns:
            out = np.einsum("fij,...fj->...fi", self.spectral.v, fn.coeff * w)
            if fn.mask.any():
                out[..., fn.mask, :] = np.einsum(
                    "fij,...fj->...fi", fn.at(fn.mask), hat[..., fn.mask, :]
                )
            yield ifft_field(self.grid, out.reshape(hat.shape[:-2] + self.grid.shape + (-1,)))


def translate(u: GridField, z) -> GridField:
    """Translation u(. - z), as modulation by exp(-i xi . z) in frequency."""
    z = np.asarray(z, dtype=float).reshape(u.grid.n)
    phase = np.exp(-1j * np.tensordot(u.grid.lattice, z, axes=([-1], [0])))
    hat = fft_field(u) * phase[..., None]
    return ifft_field(u.grid, hat)


def lp_norms(u: GridField, p: float) -> np.ndarray:
    """Midpoint-rule L^p norm with the Euclidean norm on components, one per
    field of the stack ``u``: shape ``u.batch``."""
    if not (1.0 < p < math.inf):
        raise ValueError(f"p must lie in (1, inf), got {p}")
    # rows even for a single field, so that it takes the same array
    # arithmetic as each member of a stack
    mags = np.linalg.norm(u.values, axis=-1).reshape(-1, u.grid.size)
    norms = (np.sum(mags**p, axis=-1) * u.grid.cell_volume) ** (1.0 / p)
    return norms.reshape(u.batch)


def lp_norm(u: GridField, p: float) -> float:
    """The L^p norm of :func:`lp_norms` of a single field."""
    return float(lp_norms(u.single(), p))


def max_ratio(u: GridField, p: float, scale: np.ndarray) -> float:
    """The largest ||u_j||_p / scale_j over the fields u_j of the stack ``u``
    with scale_j > 0, or 0.0 if there is none."""
    live = scale > 0
    return float(np.max(lp_norms(u, p)[live] / scale[live], initial=0.0))


# ---------------------------------------------------------------------------
# Random and structured test fields.
# ---------------------------------------------------------------------------


def random_band_limited(
    grid: TorusGrid,
    big_n: int,
    *,
    band: int | None = None,
    seed: int = 0,
    kill_zero_mode: bool = False,
) -> GridField:
    """Random complex field supported on |integer frequency| <= band per axis."""
    rng = np.random.default_rng(seed)
    if band is None:
        band = grid.g // 4
    hat = np.zeros(grid.shape + (big_n,), dtype=complex)
    mask = np.abs(grid.axis_integers) <= band
    sel = np.ix_(*([np.nonzero(mask)[0]] * grid.n))
    shape = tuple(int(mask.sum()) for _ in range(grid.n)) + (big_n,)
    hat[sel] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kill_zero_mode:
        hat[(0,) * grid.n] = 0.0
    return ifft_field(grid, hat)


def random_trials(grid: TorusGrid, big_n: int, trials: int, seed: int) -> GridField:
    """``trials`` random band-limited fields as one stack, each drawn from
    its own seed out of the generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    return GridField.stack([
        random_band_limited(grid, big_n, seed=int(rng.integers(2**31))) for _ in range(trials)
    ])


# ---------------------------------------------------------------------------
# Binary field files.  Layout (little endian):
#   bytes  0-7   magic "TORUSFLD"
#   bytes  8-11  uint32 layout tag (1 = vector field, 2 = matrix field)
#   bytes 12-15  uint32 n
#   bytes 16-19  uint32 g
#   bytes 20-23  uint32 N
#   bytes 24-31  float64 period length
# followed by the values as complex64, C order, shape (g,)*n + (N,) for
# tag 1 and (g,)*n + (N, N) for tag 2.
# ---------------------------------------------------------------------------


def save_field(path, u) -> None:
    """Write a single GridField (tag 1) or a matrix field (tag 2)."""
    vector = isinstance(u, GridField)
    values = u.single().values if vector else u.mats
    tag = LAYOUT_VECTOR if vector else LAYOUT_MATRIX
    header = FIELD_MAGIC + struct.pack(
        "<IIIId", tag, u.grid.n, u.grid.g, values.shape[-1], u.grid.length
    )
    assert len(header) == 32
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values.astype(np.complex64)).tobytes())


def load_field(path):
    """Load a vector field (GridField) or a matrix field (MatrixField) from disk."""
    with open(path, "rb") as fh:
        header = fh.read(32)
        if len(header) != 32 or header[:8] != FIELD_MAGIC:
            raise ValueError(f"{path}: not a torus field file")
        tag, n, g, big_n, length = struct.unpack("<IIIId", header[8:])
        grid = TorusGrid(int(n), int(g), float(length))
        if tag == LAYOUT_VECTOR:
            shape = grid.shape + (int(big_n),)
        elif tag == LAYOUT_MATRIX:
            shape = grid.shape + (int(big_n), int(big_n))
        else:
            raise ValueError(f"{path}: unknown layout tag {tag}")
        data = np.frombuffer(fh.read(), dtype=np.complex64).reshape(shape)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite values")
    field = GridField if tag == LAYOUT_VECTOR else MatrixField
    return field(grid, data.astype(complex))
