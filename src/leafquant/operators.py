"""Quantized operators on a periodic fiber grid.

Wave sections live on a uniform grid over the box [-L, L) per fiber
axis (one or two axes), with the endpoints identified.  The first
derivative is the periodic central difference, which is exactly
antisymmetric; momentum-affine observables a^k p_k + b are assembled in
the symmetrized form

    -(i/2) sum_k (A_k D_k + D_k A_k) + B,

so the matrices are Hermitian to the bit, not just to rounding.  In the
affine factorization of a higher polynomial only the first factor of
each product has a coefficient that is not a function of q, so the
product is a fixed linear map of its samples.  ``quantizer`` builds one
CSR pattern per observable (the banded stencil for an affine one) and
that map, with the diagonal gauge S of ``_gauge`` folded in once: a
fill (``Quantizer.block``) is the real data of S h S^dagger, and
``quantizer(f, grid, cover).operator(t, sigma, rate)`` is the complex
operator h at one point.  Quantized operators are
``scipy.sparse`` ``csr_array``s; exponentials and their products
(``evolution``) are dense ndarrays.  A small operator-symbol layer
mirrors first-order operators symbolically so the commutator algebra
can be checked without any grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import permutations
from operator import matmul
from typing import Sequence

import numpy as np
import scipy.sparse as sp

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
    "OperatorSymbol",
    "Quantizer",
    "quantizer",
    "quantize_affine_literal",
    "hermiticity_defect",
    "position_expectations",
    "momentum_expectations",
    "affine_symbol",
    "symbol_commutator",
    "symbol_scale",
    "symbol_difference",
    "dirac_symbol_defect",
    "dirac_grid_defect",
]

_ZERO = Const(0.0)


@dataclass(frozen=True)
class FiberGrid:
    """Uniform periodic grid over the fiber box, one or two axes, each
    with an even number of points (at least 8), so that the diagonal
    gauge of ``_gauge`` makes every step generator real."""

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
        if any(n % 2 for n in shape):
            raise ValueError("each axis needs an even number of points")
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


@lru_cache(maxsize=64)
def _gauge(grid: FiberGrid) -> np.ndarray:
    """The diagonal of S = diag(i^(j_1 + ... + j_n)) over the grid
    indices (C order), from the exact values {1, i, -1, -i}, read-only.

    A term of momentum degree d in a quantized observable with real
    coefficients is (-i)^d times a real matrix whose entries sit at
    index offsets of the parity of d; with an even number of points per
    axis the periodic wrap keeps that parity, and S h S^dagger is real,
    exactly in floating point, and symmetric.
    """
    s = np.array([1, 1j, -1, -1j])[np.indices(grid.shape).sum(axis=0).ravel()
                                   % 4]
    s.flags.writeable = False
    return s


@lru_cache(maxsize=64)
def _parity(grid: FiberGrid) -> tuple[np.ndarray, np.ndarray]:
    """The grid indices (C order) of even and of odd j_1 + ... + j_n,
    read-only: a quantized observable whose every term has even momentum
    degree joins no index of one set to one of the other (``_gauge``)."""
    odd = np.indices(grid.shape).sum(axis=0).ravel() % 2 == 1
    parts = np.flatnonzero(~odd), np.flatnonzero(odd)
    for a in parts:
        a.flags.writeable = False
    return parts


def _phases(grid: FiberGrid, indptr, indices) -> np.ndarray:
    """The exact S_i conj(S_j) (``_gauge``) at each entry of a CSR pattern."""
    s = _gauge(grid)
    return np.repeat(s, np.diff(indptr)) * s.conj()[indices]


def _layout(grid: FiberGrid, pattern: np.ndarray):
    """(indptr, indices, mirror, phases) of a CSR pattern closed under
    transpose, given as its sorted keys row * N + col: ``mirror[e]`` is
    the position of entry e's mirror (j, i) in the data, and ``phases``
    the entries' S_i conj(S_j) (``_phases``)."""
    n = grid.size
    mirror = np.searchsorted(pattern, pattern % n * n + pattern // n)
    indptr = np.searchsorted(pattern, np.arange(n + 1) * n).astype(np.int32)
    indices = (pattern % n).astype(np.int32)
    return indptr, indices, mirror, _phases(grid, indptr, indices)


def _real(values: np.ndarray) -> np.ndarray:
    """Gauged values as a C-contiguous float64 copy: the one conversion
    out of complex, and every imaginary part must be exactly 0.0."""
    if np.any(values.imag):
        raise RuntimeError(
            f"gauged generator is not real (largest imaginary part "
            f"{np.abs(values.imag).max():.3e})")
    return values.real.copy()


@dataclass(frozen=True)
class _Stencil:
    """CSR pattern of the diagonal and every axis difference on a grid.

    ``rows[k]``, ``cols[k]`` and ``steps[k]`` list the nonzero entries
    d_ij of the central difference D_k (steps are +-1/(2h_k)), and
    ``drift_signs[k]`` the real S_i conj(S_j) (-i/2) = +-1/2 that the
    gauge gives their drift term -(i/2) d_ij (a_i + a_j); ``slots[k]``
    and ``diagonal`` give their positions in the CSR data, and
    ``mirror`` and ``phases`` are the pattern's (``_layout``).
    """

    indptr: np.ndarray
    indices: np.ndarray
    mirror: np.ndarray
    phases: np.ndarray
    diagonal: np.ndarray
    rows: tuple[np.ndarray, ...]
    cols: tuple[np.ndarray, ...]
    steps: tuple[np.ndarray, ...]
    drift_signs: tuple[np.ndarray, ...]
    slots: tuple[np.ndarray, ...]


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
    indptr, indices, mirror, phases = _layout(grid, pattern)
    signs = tuple(_real(-0.5j * phases[slot]) for slot in slots[1:])
    st = _Stencil(indptr, indices, mirror, phases, slots[0], tuple(rows),
                  tuple(cols), tuple(steps), signs, tuple(slots[1:]))
    for a in (indptr, indices, mirror, phases, *slots, *rows, *cols, *steps,
              *signs):
        a.flags.writeable = False
    return st


def _sample(expr: Expression, binding: dict, size: int) -> np.ndarray:
    """``expr`` under a block binding as rows of ``size`` values: one row
    when it is the same for every row of the block, else one per row."""
    out = np.asarray(expr.evaluate(binding), dtype=float)
    shape = (out.shape[0] if out.ndim == 2 else 1, size)
    if out.shape == shape:
        return out
    # a single value is cheaper to fill than to broadcast
    return (np.full(shape, out) if out.size == 1
            else np.broadcast_to(out, shape))


def _binding(grid: FiberGrid, t, sigma, rate, trees) -> tuple[dict, int]:
    """k rows of (t, sigma, rate) bound as (k, 1) columns t, s1.., v1..
    and the grid coordinates q1.. as (1, N) rows, and k.  A tree left
    with an unbound variable raises ValueError."""
    t = np.asarray(t, dtype=float).reshape(-1, 1)
    k = len(t)
    binding = {"t": t}
    for name, rows in (("s", sigma), ("v", rate)):
        rows = np.asarray(rows, dtype=float).reshape(k, -1)
        binding.update((f"{name}{i + 1}", rows[:, i:i + 1])
                       for i in range(rows.shape[1]))
    binding.update((f"q{j + 1}", c.reshape(1, -1))
                   for j, c in enumerate(grid.coordinates()))
    for e in trees:
        stray = e.free_variables() - binding.keys()
        if stray:
            raise ValueError(
                f"t/sigma/rate binding incomplete: '{sorted(stray)[0]}' "
                f"remains free in coefficient '{e.to_source()}'")
    return binding, k


def _difference_sums(st: _Stencil, ax: int, a: np.ndarray) -> np.ndarray:
    """d_ij (a_i + a_j) at every entry of D_ax, for k rows of samples a."""
    return st.steps[ax] * (a.take(st.rows[ax], axis=1)
                           + a.take(st.cols[ax], axis=1))


@dataclass(frozen=True, eq=False)
class Quantizer:
    """The operator h of one observable as a fill of one fixed CSR
    pattern, in the gauge: a fill is the real data of S h S^dagger.

    The pattern is closed under transpose, and ``mirror`` and
    ``phases`` are its transpose map and entry phases (``_layout``).
    ``drift`` (a_1..a_n) and ``potential`` (b), the trees of the affine
    slice, fill the stencil entries at ``slots`` and ``diagonal``.  Per
    product of the affine factorization with first factor c p_k,
    ``high`` holds (k, c, weights): the real weights map that factor's
    entries -(1/2) d_ij (c_i + c_j) to the product's gauged data.
    ``parts`` are the index sets that no fill joins: the two parities of
    ``_parity`` when every term of the observable has even momentum
    degree, else one slice of every index.
    """

    grid: FiberGrid
    indptr: np.ndarray
    indices: np.ndarray
    mirror: np.ndarray
    phases: np.ndarray
    drift: tuple[Expression, ...]
    potential: Expression
    diagonal: np.ndarray
    slots: tuple[np.ndarray, ...]
    parts: tuple[np.ndarray | slice, ...]
    high: tuple[tuple[int, Expression, sp.csr_array], ...] = ()

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def csr(self, data: np.ndarray) -> sp.csr_array:
        return sp.csr_array((data, self.indices, self.indptr),
                            shape=(self.grid.size,) * 2)

    def block(self, t, sigma, rate=()) -> np.ndarray:
        """C-contiguous float64 (k, nnz) data of S h S^dagger at k rows.

        ``t`` has k entries, ``sigma`` (s1..sm) and ``rate`` (v1..vm,
        may be empty) k rows each.  Every tree is sampled once over the
        (k, N) block; a non-finite sample raises EvaluationError.
        """
        trees = (*self.drift, self.potential, *(c for _, c, _ in self.high))
        binding, k = _binding(self.grid, t, sigma, rate, trees)
        st, n = _stencil(self.grid), self.grid.size
        data = np.zeros((k, self.nnz))
        data[:, self.diagonal] = _sample(self.potential, binding, n)
        for ax, a in enumerate(self.drift):
            data[:, self.slots[ax]] = st.drift_signs[ax] * _difference_sums(
                st, ax, _sample(a, binding, n))
        if self.high:
            # a coefficient equal in every row is multiplied out once;
            # adding in place keeps the rows contiguous for mat-vecs
            data += reduce(np.add, ((-0.5 * _difference_sums(
                st, ax, _sample(c, binding, n))) @ weights
                for ax, c, weights in self.high))
        return data

    def operator(self, t: float = 0.0, sigma: Sequence[float] = (),
                 rate: Sequence[float] = ()) -> sp.csr_array:
        """The complex operator h at one (t, sigma, rate): a one-row
        block taken back from the gauge."""
        return self.csr(self.block([t], [sigma], [rate])[0]
                        * self.phases.conj())


def _ranges(starts: np.ndarray, counts: np.ndarray):
    """Owner and position of each element of [starts[r], + counts[r])."""
    owner = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
    return owner, starts[owner] + offset


def _joint(left, right, x: np.ndarray, b: np.ndarray):
    """(e, i, j, left[i, x[e]] right[b[e], j]) over every stored pair."""
    left, right = sp.csc_array(left), sp.csr_array(right)
    e, li = _ranges(left.indptr[x], np.diff(left.indptr)[x])
    p, ri = _ranges(right.indptr[b[e]], np.diff(right.indptr)[b[e]])
    return (e[p], left.indices[li[p]], right.indices[ri],
            left.data[li[p]] * right.data[ri])


def quantizer(f: PolynomialObservable, grid: FiberGrid,
              cover: BumpCover | None = None) -> Quantizer:
    """Build the ``Quantizer`` of a momentum polynomial once.

    A product of the affine factorization (``decompose_polynomial``) is
    L F R, F = -(i/2)(C D_k + D_k C) its first factor with C = diag(c)
    and L, R fixed products of its q-only factors, averaged over every
    factor order.  Only the orders whose first factor index is below
    their last are built: the reverse of each is its adjoint, which
    folding the weights onto their mirror entries adds, so every fill is
    Hermitian to the bit.  An affine observable keeps the stencil
    pattern.
    The gauge is folded in once: each weight is multiplied by the phase
    of its entry and must come out real (``_real``).  The index sets
    kept apart (``Quantizer.parts``) are read from the definition: every
    key of ``f.terms`` of even length gives the two parities.
    """
    if f.dim != grid.dim:
        raise ValueError("observable and grid dimensions differ")
    a, b = f.up_to_degree(1).linear_coefficients()
    n, st = grid.size, _stencil(grid)
    parts = (_parity(grid) if all(len(k) % 2 == 0 for k in f.terms)
             else (slice(None),))
    if f.degree < 2:
        return Quantizer(grid, st.indptr, st.indices, st.mirror, st.phases,
                         tuple(a), b, st.diagonal, st.slots, parts)
    if cover is not None:
        cover.check_covers(grid.points())
    eye = sp.identity(n, dtype=complex, format="csr")
    products = []
    for group in decompose_polynomial(f, cover).factors:
        if len(group) == 1:
            continue
        ((axis,), c), = group[0].terms.items()
        mats = [None] + [quantizer(h, grid).operator() for h in group[1:]]
        orders = [o for o in permutations(range(len(group)))
                  if o[0] < o[-1]]
        # entry e = (x, b) of F enters (L F R)_ij as i L_ix R_bj
        e, x, y, v = (np.concatenate(z) for z in zip(*(_joint(
            reduce(matmul, [mats[i] for i in o[:o.index(0)]], eye),
            reduce(matmul, [mats[i] for i in o[o.index(0) + 1:]], eye),
            st.rows[axis - 1], st.cols[axis - 1]) for o in orders)))
        products.append((axis - 1, c, e, x * n + y, (1j / len(orders)) * v))
    keys = np.concatenate([key for _, _, _, key, _ in products])
    stencil = np.repeat(np.arange(n), np.diff(st.indptr)) * n + st.indices
    pattern = np.unique(np.concatenate(
        (stencil, keys, keys % n * n + keys // n)))
    indptr, indices, mirror, phases = _layout(grid, pattern)
    high = []
    for ax, c, e, key, v in products:
        col = np.searchsorted(pattern, key)
        weights = sp.csr_array((_real(v * phases[col]), (e, col)),
                               shape=(2 * n, len(pattern)))
        # the adjoint fold: every fill is symmetric to the bit
        high.append((ax, c, (weights + weights[:, mirror]) / 2))
    place = np.searchsorted(pattern, stencil)
    return Quantizer(grid, indptr, indices, mirror, phases, tuple(a), b,
                     place[st.diagonal], tuple(place[s] for s in st.slots),
                     parts, tuple(high))


def quantize_affine_literal(f: PolynomialObservable, grid: FiberGrid,
                            t: float = 0.0, sigma: Sequence[float] = (),
                            rate: Sequence[float] = ()) -> sp.csr_array:
    """One-sided assembly -i a^k D_k - (i/2) div(a) + b.

    Kept as an independent route: it matches the symmetrized form on
    smooth states to second order in the spacing but is not Hermitian
    once the drift varies, which the tests exploit.
    """
    if f.dim != grid.dim:
        raise ValueError("observable and grid dimensions differ")
    a, b = f.linear_coefficients()
    binding, _ = _binding(grid, [t], [sigma], [rate], (*a, b))
    st = _stencil(grid)

    def sample(e):
        return _sample(e, binding, grid.size)[0]

    data = np.zeros(len(st.indices), dtype=complex)
    divergence = np.zeros(grid.size)
    for k in range(grid.dim):
        ak = sample(a[k])
        data[st.slots[k]] = (-1j) * (ak[st.rows[k]] * st.steps[k])
        divergence = divergence + sample(a[k].diff(f"q{k + 1}"))
    data[st.diagonal] = sample(b) + (-0.5j) * divergence
    return sp.csr_array((data, st.indices, st.indptr), shape=(grid.size,) * 2)


def hermiticity_defect(h: sp.csr_array) -> float:
    """||h - h^dagger||_F / max(1, ||h||_F), read in O(nnz) from the CSR
    data (duplicates summed first) and the transpose permutation of its
    pattern (``_transpose_slots``).  An entry whose mirror is not stored
    enters h - h^dagger twice, at (i, j) and at (j, i)."""
    if not h.has_canonical_format:
        h = h.copy()
        h.sum_duplicates()
    slot, stored = _transpose_slots(h)
    gap = h.data - np.where(stored, h.data[slot].conj(), 0.0)
    lone = h.data[~stored]
    squares = np.vdot(gap, gap).real + np.vdot(lone, lone).real
    return float(math.sqrt(squares) / max(1.0, np.linalg.norm(h.data)))


def _transpose_slots(h: sp.csr_array) -> tuple[np.ndarray, np.ndarray]:
    """(slot, stored) at each entry (i, j) of h's canonical pattern: the
    position of its mirror (j, i) in the data, and whether it is stored
    at all."""
    n = h.shape[0]
    row = np.repeat(np.arange(n), np.diff(h.indptr))
    # a canonical pattern's keys row * n + col are sorted and unique
    keys = row * n + h.indices
    mirror = h.indices * n + row
    slot = np.minimum(np.searchsorted(keys, mirror), len(keys) - 1)
    return slot, keys[slot] == mirror


def position_expectations(ws: WaveSection) -> np.ndarray:
    density = np.abs(ws.values) ** 2
    total = density.sum()
    coords = ws.grid.coordinates()
    return np.array([float((coords[a] * density).sum() / total)
                     for a in range(ws.grid.dim)])


def momentum_expectations(ws: WaveSection) -> np.ndarray:
    """<p_a> of the quantized momentum -i D_a in closed form: dV Im<psi,
    u - d> / (2 h_a |psi|^2), u_i = psi_(i+1) and d_i = psi_(i-1) the
    periodic neighbours along axis a.  It equals dV Im<psi, u> / (h_a
    |psi|^2); the difference of the neighbours spares a smooth state the
    cancellation in <psi, u> alone."""
    psi = ws.values.reshape(ws.grid.shape)
    scale = ws.grid.cell_volume / ws.norm() ** 2
    return np.array([
        scale * np.vdot(psi, np.roll(psi, -1, axis=a)
                        - np.roll(psi, 1, axis=a)).imag / (2.0 * h)
        for a, h in enumerate(ws.grid.spacings)])


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
    fh, gh, ph = (quantizer(h, grid).operator(t, sigma)
                  for h in (f, g, poisson_bracket(f, g)))
    res = (fh @ gh - gh @ fh) @ state.values + 1j * (ph @ state.values)
    return float(np.linalg.norm(res) / np.linalg.norm(state.values))
