"""Quantized operators on a periodic fiber grid.

Wave sections live on a uniform grid over the box [-L, L) per fiber
axis (one or two axes), with the endpoints identified.  The first
derivative is the periodic central difference, which is exactly
antisymmetric; momentum-affine observables a^k p_k + b are assembled in
the symmetrized form

    -(i/2) sum_k (A_k D_k + D_k A_k) + B,

so the matrices are Hermitian to the bit, not just to rounding.  Every
such generator is a banded stencil, stored as a CSR array over one
sparsity pattern per grid (the diagonal plus the neighbours along each
axis); an assembly only fills its values.  Higher momentum polynomials
go through the affine factorization and ordered sparse products of the
factor operators.  Exponentials and their products are dense.  A small
operator-symbol layer mirrors first-order operators symbolically so the
commutator algebra can be checked without any grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .expressions import Const, Expression
from .observables import (
    BumpCover,
    PolynomialObservable,
    decompose_polynomial,
    poisson_bracket,
)

__all__ = [
    "FiberGrid",
    "WaveSection",
    "LinearOperator",
    "OperatorSymbol",
    "derivative_matrix",
    "quantize_affine",
    "quantize_affine_block",
    "quantize_affine_literal",
    "quantize_polynomial",
    "inner_product",
    "hermiticity_defect",
    "expectation_value",
    "position_expectations",
    "momentum_expectations",
    "expm_hermitian",
    "affine_symbol",
    "symbol_commutator",
    "symbol_scale",
    "symbol_difference",
    "dirac_symbol_defect",
    "dirac_grid_defect",
]

ORDERINGS = ("symmetric", "left", "right")

_ZERO = Const(0.0)


@dataclass(frozen=True)
class FiberGrid:
    """Uniform periodic grid over the fiber box, one or two axes."""

    shape: tuple[int, ...]
    half_widths: tuple[float, ...]

    def __init__(self, shape, half_widths):
        shape = tuple(int(n) for n in np.atleast_1d(shape))
        hw = tuple(float(x) for x in np.atleast_1d(half_widths))
        if len(hw) == 1 and len(shape) > 1:
            hw = hw * len(shape)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "half_widths", hw)
        if len(shape) not in (1, 2):
            raise ValueError("grid supports one or two fiber axes")
        if len(hw) != len(shape):
            raise ValueError("one half-width per axis required")
        if any(n < 8 for n in shape):
            raise ValueError("each axis needs at least 8 points")
        if any(l <= 0 for l in hw):
            raise ValueError("half-widths must be positive")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(2.0 * l / n for n, l in zip(self.shape, self.half_widths))

    @property
    def cell_volume(self) -> float:
        return float(math.prod(self.spacings))

    def axis(self, a: int) -> np.ndarray:
        n, l = self.shape[a], self.half_widths[a]
        return -l + (2.0 * l / n) * np.arange(n)

    def coordinates(self) -> list[np.ndarray]:
        """Flattened coordinate arrays (C order), one per axis, read-only."""
        return list(_coordinates(self))

    def points(self) -> np.ndarray:
        """(size, dim) array of grid points."""
        return np.stack(self.coordinates(), axis=1)


@dataclass
class WaveSection:
    """Complex amplitudes over the grid, stamped with time and parameters."""

    grid: FiberGrid
    values: np.ndarray
    time: float = 0.0
    sigma: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).reshape(-1)
        if self.values.size != self.grid.size:
            raise ValueError("value count does not match the grid")
        if self.sigma is not None:
            self.sigma = np.asarray(self.sigma, dtype=float)

    @classmethod
    def gaussian(cls, grid: FiberGrid, center=0.0, width=1.0, momentum=0.0,
                 time=0.0, sigma=None) -> "WaveSection":
        """Normalized packet exp(-(x-c)^2 / (2 w^2)) exp(i k x) per axis."""
        center = np.broadcast_to(np.atleast_1d(center), (grid.dim,))
        width = np.broadcast_to(np.atleast_1d(width), (grid.dim,))
        kick = np.broadcast_to(np.atleast_1d(momentum), (grid.dim,))
        coords = grid.coordinates()
        psi = np.ones(grid.size, dtype=complex)
        for a in range(grid.dim):
            x = coords[a]
            psi = psi * np.exp(-((x - center[a]) ** 2) / (2.0 * width[a] ** 2)
                               + 1j * kick[a] * x)
        ws = cls(grid, psi, time=time, sigma=sigma)
        return ws.normalized()

    def norm(self) -> float:
        return float(np.sqrt(self.grid.cell_volume
                             * np.vdot(self.values, self.values).real))

    def normalized(self) -> "WaveSection":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero section")
        return WaveSection(self.grid, self.values / n, self.time, self.sigma)

    def mass_confinement(self, fraction: float = 0.9) -> float:
        """Probability mass inside the shrunken box |x_a| <= fraction L_a."""
        density = np.abs(self.values) ** 2
        inside = np.ones(self.grid.size, dtype=bool)
        coords = self.grid.coordinates()
        for a in range(self.grid.dim):
            inside &= np.abs(coords[a]) <= fraction * self.grid.half_widths[a]
        total = density.sum()
        return float(density[inside].sum() / total) if total > 0 else 0.0


@lru_cache(maxsize=64)
def _coordinates(grid: FiberGrid) -> tuple[np.ndarray, ...]:
    if grid.dim == 1:
        coords = (grid.axis(0),)
    else:
        g0, g1 = np.meshgrid(grid.axis(0), grid.axis(1), indexing="ij")
        coords = (g0.ravel(), g1.ravel())
    for c in coords:
        c.flags.writeable = False
    return coords


def _to_dense(m) -> np.ndarray:
    return m.toarray() if sp.issparse(m) else np.asarray(m)


class LinearOperator:
    """Operator over a fiber grid: a CSR stencil or a dense matrix.

    Quantized generators are CSR arrays; exponentials and their products
    are dense ndarrays.  Arithmetic accepts either storage on each side
    (sparse with sparse stays sparse), and ``dense()`` gives the ndarray.
    """

    __slots__ = ("grid", "matrix")

    def __init__(self, grid: FiberGrid, matrix):
        if sp.issparse(matrix):
            if matrix.format != "csr" or matrix.dtype != complex:
                matrix = sp.csr_array(matrix, dtype=complex)
        else:
            matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (grid.size, grid.size):
            raise ValueError("matrix shape does not match the grid")
        self.grid = grid
        self.matrix = matrix

    @classmethod
    def identity(cls, grid: FiberGrid) -> "LinearOperator":
        return cls(grid, np.eye(grid.size, dtype=complex))

    def dense(self) -> np.ndarray:
        """The matrix as an ndarray (the stored one when already dense)."""
        return _to_dense(self.matrix)

    def _require_same_grid(self, other: "LinearOperator"):
        if self.grid != other.grid:
            raise ValueError("operators live on different grids")

    def __matmul__(self, other):
        if isinstance(other, LinearOperator):
            self._require_same_grid(other)
            return LinearOperator(self.grid, self.matrix @ other.matrix)
        return NotImplemented

    def __add__(self, other):
        self._require_same_grid(other)
        return LinearOperator(self.grid, self.matrix + other.matrix)

    def __sub__(self, other):
        self._require_same_grid(other)
        return LinearOperator(self.grid, self.matrix - other.matrix)

    def __mul__(self, scalar):
        return LinearOperator(self.grid, self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return LinearOperator(self.grid, -self.matrix)

    def adjoint(self) -> "LinearOperator":
        return LinearOperator(self.grid, self.matrix.conj().T)

    def commutator(self, other: "LinearOperator") -> "LinearOperator":
        self._require_same_grid(other)
        return LinearOperator(
            self.grid, self.matrix @ other.matrix - other.matrix @ self.matrix)

    def frobenius(self) -> float:
        m = self.matrix
        return float(spla.norm(m) if sp.issparse(m) else np.linalg.norm(m))

    def apply(self, target):
        if isinstance(target, WaveSection):
            return WaveSection(self.grid, self.matrix @ target.values,
                               target.time, target.sigma)
        return self.matrix @ np.asarray(target, dtype=complex)


@dataclass(frozen=True)
class _Stencil:
    """CSR pattern of the diagonal and every axis difference on a grid.

    ``rows[k]``, ``cols[k]`` and ``steps[k]`` list the nonzero entries
    of the central difference D_k (steps are +-1/(2h_k)); ``slots[k]``
    and ``diagonal`` give their positions in the CSR data array.
    """

    indptr: np.ndarray
    indices: np.ndarray
    diagonal: np.ndarray
    rows: tuple[np.ndarray, ...]
    cols: tuple[np.ndarray, ...]
    steps: tuple[np.ndarray, ...]
    slots: tuple[np.ndarray, ...]

    def csr(self, data: np.ndarray) -> sp.csr_array:
        n = len(self.indptr) - 1
        return sp.csr_array((data, self.indices, self.indptr), shape=(n, n))

    def union(self, m: sp.csr_array):
        """The union of this pattern and ``m``'s, for adding ``m`` once.

        Returns a CSR array on the union, the positions of this
        pattern's entries in its data, and ``m``'s values placed there.
        The union keeps the column order of the sparse sum
        stencil + ``m``, so a mat-vec with data filled on it adds its
        terms in the same order as a mat-vec with that sum.
        """
        n = len(self.indptr) - 1

        def keys(a):
            return np.repeat(np.arange(n), np.diff(a.indptr)) * n + a.indices

        stencil = self.csr(np.ones(len(self.indices), dtype=complex))
        total = stencil + sp.csr_array(
            (np.ones(m.nnz), m.indices, m.indptr), shape=(n, n))
        union = keys(total)
        order = np.argsort(union)

        def locate(a):
            return order[np.searchsorted(union, keys(a), sorter=order)]

        values = np.zeros(total.nnz, dtype=complex)
        np.add.at(values, locate(m), m.data)
        return total, locate(stencil), values


@lru_cache(maxsize=64)
def _stencil(grid: FiberGrid) -> _Stencil:
    n = grid.size
    flat = np.arange(n).reshape(grid.shape)
    rows, cols, steps = [], [], []
    for k, h in enumerate(grid.spacings):
        c = 1.0 / (2.0 * h)
        # rolling by -1 along axis k brings the i + 1 neighbour to i
        up = np.roll(flat, -1, axis=k).ravel()
        down = np.roll(flat, 1, axis=k).ravel()
        rows.append(np.tile(np.arange(n), 2))
        cols.append(np.concatenate([up, down]))
        steps.append(np.repeat([c, -c], n))
    keys = [np.arange(n) * (n + 1)] + [r * n + c for r, c in zip(rows, cols)]
    # with at least 8 points per axis the pieces never overlap
    pattern = np.unique(np.concatenate(keys))
    slots = [np.searchsorted(pattern, key) for key in keys]
    indptr = np.searchsorted(pattern, np.arange(n + 1) * n).astype(np.int32)
    indices = (pattern % n).astype(np.int32)
    st = _Stencil(indptr, indices, slots[0], tuple(rows), tuple(cols),
                  tuple(steps), tuple(slots[1:]))
    for a in (indptr, indices, *slots, *rows, *cols, *steps):
        a.flags.writeable = False
    return st


def derivative_matrix(grid: FiberGrid, axis: int = 0) -> LinearOperator:
    """Periodic central-difference derivative along the given axis."""
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} out of range for a {grid.dim}d grid")
    st = _stencil(grid)
    data = np.zeros(len(st.indices), dtype=complex)
    data[st.slots[axis]] = st.steps[axis]
    return LinearOperator(grid, st.csr(data))


def _sample(expr: Expression, binding: dict, shape) -> np.ndarray:
    out = np.asarray(expr.evaluate(binding), dtype=float)
    if out.shape == shape:
        return out
    # a single value is cheaper to fill than to broadcast
    return (np.full(shape, out) if out.size == 1
            else np.broadcast_to(out, shape))


def _bind_affine(f: PolynomialObservable, grid: FiberGrid, t, sigma, rate):
    """(a_1..a_n, b) of an affine observable, one numeric binding, k.

    ``t`` holds k clock times and ``sigma``/``rate`` k rows.  The
    binding holds t, s1.., v1.. as (k, 1) columns and the grid
    coordinates q1.. as (1, N) rows; the coefficient trees are sampled
    under it as they are, broadcasting to (k, N).
    """
    if f.dim != grid.dim:
        raise ValueError("observable and grid dimensions differ")
    a, b = f.linear_coefficients()
    t = np.asarray(t, dtype=float).reshape(-1, 1)
    k = len(t)
    sigma = np.asarray(sigma, dtype=float).reshape(k, -1)
    rate = np.asarray(rate, dtype=float).reshape(k, -1)
    binding = {"t": t}
    binding.update((f"s{i + 1}", sigma[:, i:i + 1])
                   for i in range(sigma.shape[1]))
    binding.update((f"v{i + 1}", rate[:, i:i + 1])
                   for i in range(rate.shape[1]))
    binding.update((f"q{j + 1}", c.reshape(1, -1))
                   for j, c in enumerate(grid.coordinates()))
    for e in (*a, b):
        stray = e.free_variables() - binding.keys()
        if stray:
            raise ValueError(
                f"t/sigma/rate binding incomplete: '{sorted(stray)[0]}' "
                f"remains free in coefficient '{e.to_source()}'")
    return a, b, binding, k


def quantize_affine_block(f: PolynomialObservable, grid: FiberGrid, t,
                          sigma, rate=()) -> np.ndarray:
    """CSR data of ``quantize_affine`` at k samples, one row each.

    ``t`` has k entries, ``sigma`` (s1..sm) and ``rate`` (v1..vm) k
    rows each (``rate`` may be empty).  Row r is the data array, on the
    grid's cached stencil pattern, of the operator at (t[r], sigma[r],
    rate[r]): the coefficient trees are sampled once over the whole
    (k, N) block, and each drift entry is -(i/2) d_ij (a_i + a_j), so
    every row is Hermitian to the bit.  A non-finite sample anywhere in
    the block raises EvaluationError.
    """
    a, b, binding, k = _bind_affine(f, grid, t, sigma, rate)
    st = _stencil(grid)
    shape = (k, grid.size)
    data = np.zeros((k, len(st.indices)), dtype=complex)
    data[:, st.diagonal] = _sample(b, binding, shape)
    for ax in range(grid.dim):
        ak = _sample(a[ax], binding, shape)
        pair = ak.take(st.rows[ax], axis=1) + ak.take(st.cols[ax], axis=1)
        data[:, st.slots[ax]] = (-0.5j) * (st.steps[ax] * pair)
    return data


def quantize_affine(f: PolynomialObservable, grid: FiberGrid,
                    t: float = 0.0, sigma: Sequence[float] = (),
                    rate: Sequence[float] = ()) -> LinearOperator:
    """Hermitian operator of a momentum-affine observable.

    The coefficients are sampled at clock time ``t``, parameters
    ``sigma`` (s1..sm) and parameter rates ``rate`` (v1..vm); a
    coefficient that keeps a variable unbound raises ValueError.  The
    drift part is assembled in the symmetrized form, which for the
    antisymmetric difference matrix is Hermitian exactly; q^1 p_1, for
    instance, becomes -(i/2)(Q D + D Q).  This is the one-row case of
    ``quantize_affine_block``.
    """
    data = quantize_affine_block(f, grid, [t], [sigma], [rate])
    return LinearOperator(grid, _stencil(grid).csr(data[0]))


def quantize_affine_literal(f: PolynomialObservable, grid: FiberGrid,
                            t: float = 0.0, sigma: Sequence[float] = (),
                            rate: Sequence[float] = ()) -> LinearOperator:
    """One-sided assembly -i a^k D_k - (i/2) div(a) + b.

    Kept as an independent route: it matches the symmetrized form on
    smooth states to second order in the spacing but is not Hermitian
    once the drift varies, which the tests exploit.
    """
    a, b, binding, _ = _bind_affine(f, grid, [t], [sigma], [rate])
    st = _stencil(grid)

    def sample(e):
        return _sample(e, binding, (1, grid.size))[0]

    data = np.zeros(len(st.indices), dtype=complex)
    divergence = np.zeros(grid.size)
    for k in range(grid.dim):
        ak = sample(a[k])
        data[st.slots[k]] = (-1j) * (ak[st.rows[k]] * st.steps[k])
        divergence = divergence + sample(a[k].diff(f"q{k + 1}"))
    data[st.diagonal] = sample(b) + (-0.5j) * divergence
    return LinearOperator(grid, st.csr(data))


def quantize_polynomial(f: PolynomialObservable, grid: FiberGrid,
                        t: float = 0.0, sigma: Sequence[float] = (),
                        cover: BumpCover | None = None,
                        ordering: str = "symmetric") -> LinearOperator:
    """Quantize a momentum polynomial through its affine factorization.

    ``ordering`` fixes the operator order inside each factor group:
    ``symmetric`` averages over all factor permutations (Hermitian by
    construction), ``left``/``right`` keep one-sided products, retained
    to expose the ordering ambiguity.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}")
    if f.dim != grid.dim:
        raise ValueError("observable and grid dimensions differ")
    if f.degree >= 2 and cover is not None:
        cover.check_covers(grid.points())
    fact = decompose_polynomial(f, cover)
    total = sp.csr_array((grid.size, grid.size), dtype=complex)
    for group in fact.factors:
        mats = [quantize_affine(g, grid, t, sigma).matrix for g in group]
        total = total + _ordered_product(mats, ordering)
    return LinearOperator(grid, total)


def _ordered_product(mats: list[sp.csr_array], ordering: str) -> sp.csr_array:
    if len(mats) == 1:
        return mats[0]
    if ordering == "left":
        orders = [tuple(range(len(mats)))]
    elif ordering == "right":
        orders = [tuple(reversed(range(len(mats))))]
    else:
        # the factors are Hermitian, so the reversed product is the
        # adjoint: half the permutations plus their adjoints give the
        # average, and x_ij + conj(x_ji) makes it Hermitian to the bit
        orders = [o for o in permutations(range(len(mats))) if o[0] < o[-1]]
    acc = None
    for order in orders:
        prod = mats[order[0]]
        for i in order[1:]:
            prod = prod @ mats[i]
        acc = prod if acc is None else acc + prod
    if ordering == "symmetric":
        return (acc + acc.conj().T) / (2 * len(orders))
    return acc / len(orders)


def inner_product(a: WaveSection, b: WaveSection) -> complex:
    """Fiberwise integral of a times the conjugate of b."""
    if a.grid != b.grid:
        raise ValueError("sections live on different grids")
    return complex(a.grid.cell_volume * np.sum(a.values * b.values.conj()))


def hermiticity_defect(op: LinearOperator) -> float:
    """Relative Frobenius distance from the adjoint."""
    return _relative_defect(op.dense())


def _relative_defect(m: np.ndarray) -> float:
    gap = np.linalg.norm(m - m.conj().T)
    return float(gap / max(1.0, np.linalg.norm(m)))


def expectation_value(op: LinearOperator, ws: WaveSection) -> float:
    """Real part of <op psi, psi> / <psi, psi>."""
    num = inner_product(op.apply(ws), ws)
    den = inner_product(ws, ws).real
    return float(num.real / den)


def position_expectations(ws: WaveSection) -> np.ndarray:
    density = np.abs(ws.values) ** 2
    total = density.sum()
    coords = ws.grid.coordinates()
    return np.array([float((coords[a] * density).sum() / total)
                     for a in range(ws.grid.dim)])


def momentum_expectations(ws: WaveSection) -> np.ndarray:
    out = []
    for a in range(ws.grid.dim):
        d = derivative_matrix(ws.grid, a)
        val = np.vdot(ws.values, -1j * d.apply(ws.values)).real
        out.append(val * ws.grid.cell_volume)
    return np.array(out) / (ws.norm() ** 2)


def expm_hermitian(op, prefactor: complex = 1.0,
                   defect_tol: float = 1e-9) -> np.ndarray:
    """exp(prefactor * H) for Hermitian H through its eigensystem.

    ``op`` is a LinearOperator, an ndarray or a sparse array; the
    result is dense.
    """
    h = _to_dense(op.matrix if isinstance(op, LinearOperator) else op)
    gap = _relative_defect(h)
    if gap > defect_tol:
        raise ValueError(
            f"matrix is not Hermitian (relative defect {gap:.3e})")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(prefactor * w)) @ v.conj().T


# -- symbol layer --------------------------------------------------------


@dataclass(frozen=True)
class OperatorSymbol:
    """First-order operator sum_k c_k(q) d/dq_k + c_0(q), complex c."""

    dim: int
    drift_re: tuple[Expression, ...]
    drift_im: tuple[Expression, ...]
    zero_re: Expression
    zero_im: Expression


def affine_symbol(f: PolynomialObservable) -> OperatorSymbol:
    """Symbol of the quantized affine observable a^k p_k + b."""
    a, b = f.linear_coefficients()
    half_div = _ZERO
    for k in range(f.dim):
        half_div = half_div + a[k].diff(f"q{k + 1}")
    return OperatorSymbol(
        dim=f.dim,
        drift_re=tuple([_ZERO] * f.dim),
        drift_im=tuple(-ak for ak in a),
        zero_re=b,
        zero_im=-0.5 * half_div,
    )


def _cmul(ar, ai, br, bi):
    return ar * br - ai * bi, ar * bi + ai * br


def symbol_commutator(x: OperatorSymbol, y: OperatorSymbol) -> OperatorSymbol:
    """Commutator by the first-order composition rules."""
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    n = x.dim
    drift_re, drift_im = [], []
    for k in range(n):
        re, im = _ZERO, _ZERO
        for j in range(n):
            qj = f"q{j + 1}"
            tr, ti = _cmul(x.drift_re[j], x.drift_im[j],
                           y.drift_re[k].diff(qj), y.drift_im[k].diff(qj))
            re, im = re + tr, im + ti
            tr, ti = _cmul(y.drift_re[j], y.drift_im[j],
                           x.drift_re[k].diff(qj), x.drift_im[k].diff(qj))
            re, im = re - tr, im - ti
        drift_re.append(re)
        drift_im.append(im)
    zre, zim = _ZERO, _ZERO
    for j in range(n):
        qj = f"q{j + 1}"
        tr, ti = _cmul(x.drift_re[j], x.drift_im[j],
                       y.zero_re.diff(qj), y.zero_im.diff(qj))
        zre, zim = zre + tr, zim + ti
        tr, ti = _cmul(y.drift_re[j], y.drift_im[j],
                       x.zero_re.diff(qj), x.zero_im.diff(qj))
        zre, zim = zre - tr, zim - ti
    return OperatorSymbol(n, tuple(drift_re), tuple(drift_im), zre, zim)


def symbol_scale(factor: complex, s: OperatorSymbol) -> OperatorSymbol:
    fr, fi = float(np.real(factor)), float(np.imag(factor))
    def scale(re, im):
        return fr * re - fi * im, fr * im + fi * re
    drift = [scale(r, i) for r, i in zip(s.drift_re, s.drift_im)]
    zr, zi = scale(s.zero_re, s.zero_im)
    return OperatorSymbol(s.dim,
                          tuple(r for r, _ in drift),
                          tuple(i for _, i in drift),
                          zr, zi)


def symbol_difference(x: OperatorSymbol, y: OperatorSymbol,
                      bindings: Sequence[dict]) -> float:
    """Largest component difference over the sample bindings."""
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    pairs = list(zip((*x.drift_re, *x.drift_im, x.zero_re, x.zero_im),
                     (*y.drift_re, *y.drift_im, y.zero_re, y.zero_im)))
    worst = 0.0
    for binding in bindings:
        for ex, ey in pairs:
            worst = max(worst, abs(ex.evaluate(binding) - ey.evaluate(binding)))
    return worst


def dirac_symbol_defect(f: PolynomialObservable, g: PolynomialObservable,
                        bindings: Sequence[dict]) -> float:
    """Defect of [f_hat, g_hat] = -i (bracket of f, g)_hat at the symbol level."""
    lhs = symbol_commutator(affine_symbol(f), affine_symbol(g))
    rhs = symbol_scale(-1j, affine_symbol(poisson_bracket(f, g)))
    return symbol_difference(lhs, rhs, bindings)


def dirac_grid_defect(f: PolynomialObservable, g: PolynomialObservable,
                      grid: FiberGrid, state: WaveSection,
                      t: float = 0.0, sigma: Sequence[float] = ()) -> float:
    """Residual norm of ([f_hat, g_hat] + i bracket_hat) psi / |psi|."""
    fh = quantize_affine(f, grid, t, sigma)
    gh = quantize_affine(g, grid, t, sigma)
    ph = quantize_affine(poisson_bracket(f, g), grid, t, sigma)
    res = fh.commutator(gh).matrix @ state.values \
        + 1j * (ph.matrix @ state.values)
    return float(np.linalg.norm(res) / np.linalg.norm(state.values))
