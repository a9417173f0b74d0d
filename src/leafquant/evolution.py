"""Time-ordered evolution and the geometric factor along parameter paths.

The driven Hamiltonian is affine in the parameter rates v = sigma'(t):

    H* = H(t, s, q, p) + p_k (drift^k(t, s, q) + v^lam Lambda^k_lam(t, s, q)).

``DrivenHamiltonian`` builds it once, as symbolic observables over the
rate variables v1..vm: the geometric part G = p_k v^lam Lambda^k_lam,
the frozen-parameter Hamiltonian H' (H plus the frame drift) and their
sum H*.  Each is quantized by one ``operators.Quantizer``, built once on
first use, and everything else binds numbers into these:

- Every step, transport segment and commutator sample of a window
  binds through ``_steps``: the step midpoint t, the mean s of sigma
  at the step's ends and v = delta sigma / dt.  G is linear in v, so
  dt G(v) = G(delta sigma): only the traced image enters the
  transport, and a step of H* carries exactly its segment's
  increment, so a commuting split closes.
- A commuting family (``_commuting_family``: couplings in q alone, and
  one parameter or constant couplings) has unit-rate couplings with one
  joint real eigenbasis V and eigenvalue rows W (``commuting_basis``,
  one ``_eigh``), so its transport to any time is S^dagger V
  diag(exp(-i delta sigma . W)) V^T S in closed form.
- The classical flow is the Hamiltonian vector field of H*, its
  coefficients compiled once per ``DrivenHamiltonian``
  (``classical_field``).

``_steps`` reads the path once per call, at a window's times, and
``_rows`` fills blocks of at most ``BLOCK_BYTES`` and points one reused
CSR array at each row; the classical flow reads the path at all its RK4
stage times at once.

Every grid axis has an even number of points, so the diagonal gauge S
of ``operators._gauge`` makes each quantized generator h the real
symmetric S h S^dagger, and every row filled here is that float64 data
(``Quantizer.block``).  U, U_geo, U_dyn and every carried state stay
gauged and are taken back, exactly, where they are read.  Every
generator of the dense pass and of the transport walk passes the one
gate (``_gated``): its relative hermiticity defect, which the gauge
keeps, read through the transpose map its quantizer built
(``Quantizer.mirror``), at most ``HERMITICITY_STEP_TOL``.  The Taylor
state steps of H* are not gated; every quantizer fill is symmetric to
the bit.  The dense pass forms U once per window, and the split reads it
and forms U_geo and U_dyn over the same times.  U and U_dyn are
products of exact step exponentials, so unitarity holds to rounding at
every step count; each step comes from the one eigendecomposition
``_eigh``, whose eigenvectors V are real, and acts as V (e * (V^T x))
through real GEMMs.  When every term of the stepped observable has even
momentum degree, read from its definition (``Quantizer.parts``), its
gauged row joins no index of even j_1 + ... + j_n to one of odd: the
step is two blocks of size N/2, each with its own eigenbasis, and the
product is carried as those two diagonal blocks.  That holds for H'
without frame drift, so for U_dyn of a kinetic-plus-potential H, and
for H* when G is empty; any other generator is one block.  The gate
still reads the whole row.  The transport of a commuting family is
V diag(e) V^T of its joint basis.
The geometric phase, fine column and coarse value alike, is the
unwrapped angle of the initial state carried through the transport
segments (``_transport_phases``).

Smaller exponentials are applied, not formed, by series whose every
term is one native ``csr_matvecs`` product of a gauged row on the float
view of a complex vector or block.  A state step of H* takes an
adaptive Taylor series (``_taylor_apply``), which stops early on a
smooth state and raises on a step too large for it.  Every walk of a
non-commuting transport, U_geo and the phase column alike, takes one
real Chebyshev series per segment (Tal-Ezer and Kosloff,
``_chebyshev_walk``) of the row scaled by its Gershgorin bound, whose
Bessel tail (``TRANSPORT_TAIL_TOL``) fixes the term count in advance.
U, U_geo, U_dyn and the geometric factor are returned as ndarrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs

from .bundle import BundleModel, ParameterPath
from .expressions import Const, EvaluationError, Var
from .observables import (
    BumpCover,
    PolynomialObservable,
    hamiltonian_vector_field,
)
from .operators import (
    FiberGrid,
    WaveSection,
    momentum_expectations,
    position_expectations,
    Quantizer,
    quantizer,
    _gauge,
)

__all__ = [
    "DrivenHamiltonian",
    "EvolutionResult",
    "StateTrajectory",
    "ClassicalState",
    "ClassicalTrajectory",
    "SplitReport",
    "evolve_time_ordered",
    "geometric_factor",
    "split_evolution",
    "propagate_state",
    "classical_hamilton_flow",
]

_ZERO = Const(0.0)

HERMITICITY_STEP_TOL = 1e-10
# Taylor stopping tolerance of a state step relative to the state's
# norm: its truncation sits far below the second-order step or segment
# error
STATE_TAYLOR_TOL = 1e-13
# a state's Taylor series still above its tolerance after this many
# terms raises
TAYLOR_MAX_TERMS = 64
# bound on the Bessel tail 2 sum_{k > K} |J_k| that each Chebyshev step
# of a transport walk drops: a product multiplies up to thousands of
# factors, so each stops at rounding to stay unitary to about 1e-13
TRANSPORT_TAIL_TOL = 1e-16
# the split's reported commutator samples, and the factorization
# defect a commuting family must close to
SPLIT_SAMPLES = 32
SPLIT_TOL = 1e-8
# off-diagonal residual of a commuting family's couplings in their joint
# basis, relative to each coupling (``_commuting_basis``)
COMMUTING_THRESHOLD = 1e-10
# bytes of gauged generator data (8-byte float entries), or of a
# commuting family's phase table, formed at once: a long window is taken
# in blocks of rows, so it adds little to peak memory
BLOCK_BYTES = 1 << 20


@dataclass
class DrivenHamiltonian:
    """Bundle + path + polynomial Hamiltonian + grid, ready to propagate.

    Construction builds the observables ``geometric`` (G), ``dynamic``
    (H' = H plus the frame drift) and ``star`` (H* = G + H') once, over
    the rate variables v1..vm; ``geometric_quantizer``,
    ``dynamic_quantizer``, ``full_quantizer`` (of H*), the joint
    eigenbasis ``commuting_basis`` of a commuting family's couplings and
    the compiled ``classical_field`` of H* are built on first use.
    """

    bundle: BundleModel
    path: ParameterPath
    hamiltonian: PolynomialObservable
    grid: FiberGrid
    cover: BumpCover | None = None

    def __post_init__(self):
        if self.bundle.n_fiber != self.grid.dim:
            raise ValueError("bundle fiber dimension does not match the grid")
        if self.hamiltonian.dim != self.grid.dim:
            raise ValueError("Hamiltonian dimension does not match the grid")
        if self.path.n_parameters != self.bundle.n_parameters:
            raise ValueError("path and bundle disagree on parameter count")
        allowed = set(self.bundle.variables())
        stray = self.hamiltonian.free_variables() - allowed
        if stray:
            raise ValueError(
                f"Hamiltonian references '{sorted(stray)[0]}' outside the "
                f"scenario variables {sorted(allowed)}")
        n, m = self.grid.dim, self.bundle.n_parameters
        terms = dict(self.hamiltonian.terms)
        for k, d in enumerate(self.bundle.time_drift):
            if d != _ZERO:
                terms[(k + 1,)] = terms.get((k + 1,), _ZERO) + d
        rates = [Var(f"v{lam + 1}") for lam in range(m)]
        self.geometric = PolynomialObservable(n, {
            (k + 1,): sum((v * c for v, c in zip(rates, row)), _ZERO)
            for k, row in enumerate(self.bundle.sigma_coupling)})
        self.dynamic = PolynomialObservable(n, terms)
        self.star = self.geometric + self.dynamic
        self._coupling_free = frozenset().union(
            *(c.free_variables() for row in self.bundle.sigma_coupling
              for c in row)) if self.bundle.sigma_coupling else frozenset()

    # -- pieces ----------------------------------------------------------

    @property
    def span(self) -> tuple[float, float]:
        return self.path.span

    @cached_property
    def geometric_quantizer(self) -> Quantizer:
        return quantizer(self.geometric, self.grid)

    @cached_property
    def dynamic_quantizer(self) -> Quantizer:
        return quantizer(self.dynamic, self.grid, self.cover)

    @cached_property
    def full_quantizer(self) -> Quantizer:
        return quantizer(self.star, self.grid, self.cover)

    @cached_property
    def commuting_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """(V, W) of ``_commuting_basis``."""
        return _commuting_basis(self)

    @cached_property
    def classical_field(self) -> tuple:
        """The 2n components of H*'s Hamiltonian vector field, dq then
        dp, each as (compiled coefficient, momentum index) pairs."""
        field = hamiltonian_vector_field(self.star)
        return tuple(tuple((c.compiled, idx) for idx, c in f.terms.items())
                     for f in (*field.dq, *field.dp))


# -- results -------------------------------------------------------------


@dataclass
class EvolutionResult:
    """The dense pass over one window (``evolve_time_ordered``).

    ``final_state`` and the phases are None unless the pass was given
    ``initial``.
    """

    unitary: np.ndarray
    times: np.ndarray
    unitarity_defect: float
    max_step_hermiticity_defect: float
    static_collapse: bool = False
    final_state: WaveSection | None = None
    phase_total_unwrapped: float | None = None
    phase_geometric_unwrapped: float | None = None


@dataclass
class SplitReport:
    """The split of a dense pass (``split_evolution``).

    ``commuting`` is the verdict, read from the definitions.
    ``commutator_max`` is a sampled figure, the largest relative norm of
    [G, H'] at SPLIT_SAMPLES steps: 0.0 does not mean that G and H'
    commute, since G or [G, H'] can vanish at every sample of a family
    that does not.
    """

    commutator_max: float
    factorization_defect: float
    commuting: bool


@dataclass
class StateTrajectory:
    times: np.ndarray
    sigma: np.ndarray
    sigma_rate: np.ndarray
    positions: np.ndarray
    momenta: np.ndarray
    norms: np.ndarray
    phase_total: np.ndarray
    phase_geometric: np.ndarray | None
    final_state: WaveSection


@dataclass(frozen=True)
class ClassicalState:
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, float)))
        object.__setattr__(self, "p", np.atleast_1d(np.asarray(self.p, float)))
        if self.q.shape != self.p.shape:
            raise ValueError("q and p must have matching shapes")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))):
            raise ValueError("classical state must be finite")


@dataclass
class ClassicalTrajectory:
    times: np.ndarray
    positions: np.ndarray
    momenta: np.ndarray


# -- dense time-ordered evolution ---------------------------------------


def _window(dh: DrivenHamiltonian, count: int, t_start: float | None,
            t_end: float | None, what: str = "steps") -> np.ndarray:
    """The ``count`` + 1 uniform times of the window [t_start, t_end],
    each end the path span's when None: the one binding of a window.
    The geometric factor takes a window inside the span and the dense
    pass one that may end early; the state route and the classical flow
    cover all of it."""
    if count < 1:
        raise ValueError(f"{what} must be at least 1")
    t0 = dh.span[0] if t_start is None else float(t_start)
    t1 = dh.span[1] if t_end is None else float(t_end)
    lo, hi = dh.span
    if not (lo - 1e-12 <= t0 < t1 <= hi + 1e-12):
        raise ValueError(
            f"requested window [{t0}, {t1}] outside the path span {dh.span}")
    return np.linspace(t0, t1, count + 1)


def _is_static(dh: DrivenHamiltonian) -> bool:
    """True when the full generator is one fixed operator over the span.

    Read from the definitions, not from samples: no coefficient depends
    on ``t`` and the path is a single point.
    """
    free = dh.hamiltonian.free_variables()
    for c in dh.bundle.time_drift:
        free = free | c.free_variables()
    if "t" in free or "t" in dh._coupling_free:
        return False
    return dh.path.is_constant()


def _commuting_family(dh: DrivenHamiltonian) -> bool:
    """True when the transport generators commute with each other at
    every point, so the increments telescope.

    Read from the definitions: the couplings depend on q alone, and
    there is one parameter or every coupling component is constant.
    """
    qvars = {f"q{k}" for k in range(1, dh.grid.dim + 1)}
    return dh._coupling_free <= qvars and (
        dh.bundle.n_parameters == 1
        or all(isinstance(c, Const) for row in dh.bundle.sigma_coupling
               for c in row))


def _gated(data: np.ndarray, mirror: np.ndarray) -> float:
    """The relative hermiticity defect ||h - h^dagger||_F / max(1,
    ||h||_F) of a gauged real fill ``data`` of a quantizer's pattern,
    read through its transpose map ``mirror`` (``Quantizer.mirror``), if
    it is at most HERMITICITY_STEP_TOL: the one gate on a generator."""
    gap = data - data[mirror]
    defect = float(math.sqrt(np.vdot(gap, gap))
                   / max(1.0, np.linalg.norm(data)))
    if defect > HERMITICITY_STEP_TOL:
        raise RuntimeError(
            f"step generator lost hermiticity (relative defect {defect:.3e})")
    return defect


def _eigh(h: sp.csr_array, mirror: np.ndarray, parts):
    """([(idx, w, V), ...], defect) with h = V diag(w) V^T on each index
    set idx of ``parts`` (``Quantizer.parts``), which h joins nowhere,
    for a gauged real h whose pattern has the transpose map ``mirror``:
    the one eigendecomposition.  The gate (``_gated``) reads the whole
    row once; then each block of h made dense is decomposed on its own,
    so every V is real orthogonal."""
    defect = _gated(h.data, mirror)
    a = h.toarray()
    return [(idx, *np.linalg.eigh(a[idx][:, idx])) for idx in parts], defect


def _exponential(v: np.ndarray, e: np.ndarray) -> np.ndarray:
    """V diag(e) V^T for real V: one real GEMM on a complex float view."""
    return (v @ np.multiply(e[:, None], v.T, order="C").view(float)
            ).view(complex)


def _apply(v: np.ndarray, e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """V (e * (V^T x)) for real V and a complex vector or block x: two
    real GEMMs on float views, without forming V diag(e) V^T."""
    y = (v.T @ x.view(float).reshape(len(v), -1)).view(complex)
    y *= e[:, None]
    return (v @ y.view(float)).view(complex).reshape(x.shape)


def _ungauged(u: np.ndarray, grid: FiberGrid) -> np.ndarray:
    """S^dagger u S in place: exact, as S holds only 1, i, -1 and -i."""
    s = _gauge(grid)
    u *= s.conj()[:, None]
    u *= s
    return u


def _assembled(parts, blocks: list[np.ndarray]) -> np.ndarray:
    """The N x N matrix whose diagonal block on each index set of
    ``parts`` is the matching one of ``blocks``, zero elsewhere: the
    block itself when one set holds every index."""
    if len(blocks) == 1:
        return blocks[0]
    n = sum(map(len, parts))
    u = np.zeros((n, n), dtype=complex)
    for idx, b in zip(parts, blocks):
        u[np.ix_(idx, idx)] = b
    return u


def _step_product(q: Quantizer, dh: DrivenHamiltonian, times: np.ndarray,
                  static: bool, psi: np.ndarray | None = None):
    """Ordered product of exact step exponentials of q's ``_steps``
    rows, a static window's one step taken to the power: (U, worst
    defect, ``psi`` carried along, its overlaps with ``psi`` per step).

    Each step is block-diagonal on the index sets ``q.parts`` (two
    parities when every term of q's observable has even momentum
    degree, ``_eigh``), and so is the product: it is carried as its
    diagonal blocks, and U is assembled once, at the end.  U and the
    state stay gauged: each block's first step V diag(e) V^T is formed,
    every later one acts as V (e * (V^T U)), and both are taken back at
    the end.
    """
    steps = len(times) - 1
    s = _gauge(dh.grid)
    dt, rows = _steps(dh, times[:2] if static else times, q)
    us, max_defect, overlaps = None, 0.0, []
    start = None if psi is None else s * psi
    x = None if psi is None else start.copy()
    for h in rows:
        blocks, defect = _eigh(h, q.mirror, q.parts)
        max_defect = max(max_defect, defect)
        factors = [(idx, v, np.exp(-1j * dt * w)) for idx, w, v in blocks]
        if x is not None:
            for _ in range(steps if static else 1):
                for idx, v, e in factors:
                    x[idx] = _apply(v, e, x[idx])
                overlaps.append(np.vdot(start, x))
        us = ([_exponential(v, e) for _, v, e in factors] if us is None
              else [_apply(v, e, u) for (_, v, e), u in zip(factors, us)])
    if static:
        us = [np.linalg.matrix_power(u, steps) for u in us]
    return (_ungauged(_assembled(q.parts, us), dh.grid), max_defect,
            None if x is None else s.conj() * x, overlaps)


def evolve_time_ordered(dh: DrivenHamiltonian, steps: int,
                        initial: WaveSection | None = None,
                        t_end: float | None = None) -> EvolutionResult:
    """The dense pass: U over the window from the path span's start to
    ``t_end`` (the span's end when None).

    U is the midpoint-ordered product of exact step exponentials, which
    ``split_evolution`` reads.  With ``initial`` the state is carried
    along, and the total phase, unwrapped over the steps, and the
    geometric phase, the unwrapped angle of the initial state carried
    through the transport segments over the same times
    (``_transport_phases``), are reported.
    """
    times = _window(dh, steps, None, t_end)
    psi0 = None
    if initial is not None:
        if initial.grid != dh.grid:
            raise ValueError("initial state lives on a different grid")
        psi0 = initial.values

    static = _is_static(dh)
    u, max_defect, psi, overlaps = _step_product(dh.full_quantizer, dh,
                                                 times, static, psi0)
    defect = float(np.linalg.norm(u @ u.conj().T - np.eye(len(u))))
    result = EvolutionResult(
        unitary=u,
        times=times,
        unitarity_defect=defect,
        max_step_hermiticity_defect=max_defect,
        static_collapse=static,
    )
    if psi is not None:
        t1 = float(times[-1])
        result.final_state = WaveSection(dh.grid, psi, t1,
                                         dh.path.value(t1))
        result.phase_total_unwrapped = float(np.unwrap(
            np.concatenate(([0.0], np.angle(np.asarray(overlaps)))))[-1])
        result.phase_geometric_unwrapped = float(
            _transport_phases(dh, times, psi0)[-1])
    return result


# -- geometric factor ----------------------------------------------------


def _commuting_basis(dh: DrivenHamiltonian):
    """(V, W) with S A_lam S^dagger = V diag(W[lam]) V^T for every
    unit-rate coupling A_lam (G bound at v = e_lam) of a commuting
    family, V real orthogonal.

    V is the ``_eigh`` basis of sum_lam pi^(1 - lam) A_lam: one
    parameter decomposes A itself, and the transcendental weights keep
    joint eigenspaces of distinct eigenvalue rows apart.  W[lam] is the
    diagonal of V^T S A_lam S^dagger V, and the off-diagonal residual
    must stay within COMMUTING_THRESHOLD of A_lam in Frobenius norm,
    which bounds its hermiticity defect by twice as much.  The rows are
    filled through ``_rows``, with t and s bound to zero.
    """
    m, q = dh.bundle.n_parameters, dh.geometric_quantizer
    rate = np.vstack([np.pi ** -np.arange(m), np.eye(m)])
    zeros = np.zeros((m + 1, m))
    rows = _rows(q, zeros[:, 0], zeros, rate)
    # one basis over every index, whatever sets G keeps apart
    [(_, _, v)], _ = _eigh(next(rows), q.mirror, (slice(None),))
    w = np.empty((m, len(v)))
    for lam, h in enumerate(rows):
        av = h @ v
        w[lam] = np.einsum("ij,ij->j", v, av)
        residual = np.linalg.norm(av - v * w[lam])
        if residual > COMMUTING_THRESHOLD * np.linalg.norm(h.data):
            raise RuntimeError(
                f"coupling {lam + 1} is not diagonal in the joint basis "
                f"(off-diagonal norm {residual:.3e})")
    return v, w


def _transport_phases(dh: DrivenHamiltonian, times: np.ndarray,
                      psi0: np.ndarray) -> np.ndarray:
    """Unwrapped arg<psi0|psi_j> of ``psi0`` carried through the
    transport segments over ``times``: the geometric phase at each time,
    zero throughout on a constant path.

    A commuting family's transport to time j is S^dagger V diag(exp(-i
    c_j . W)) V^T S (``commuting_basis``), c_j = sigma_j - sigma_0, so
    <psi0|psi_j> = sum_k |a_k|^2 exp(-i c_j . W_k), a = V^T S psi0, taken
    in blocks of times (``_blocks``) whose complex exponentials fill at
    most BLOCK_BYTES.  Any other family walks S psi0
    (``_chebyshev_walk``) and reads <S psi0|S psi_j> = <psi0|psi_j>.
    """
    if dh.path.is_constant():
        return np.zeros(len(times))
    start = _gauge(dh.grid) * psi0
    if _commuting_family(dh):
        v, w = dh.commuting_basis
        weights = (v.T @ start.real) ** 2 + (v.T @ start.imag) ** 2
        sig = dh.path.values(times)
        c = sig - sig[0]
        overlaps = np.concatenate([
            np.exp(-1j * (c[rows] @ w)) @ weights
            for rows in _blocks(len(times), 2 * len(weights))])
        return np.unwrap(np.angle(overlaps))
    x = start.copy()
    return np.unwrap([0.0, *(np.angle(np.vdot(start, x))
                             for _ in _chebyshev_walk(dh, times, x))])


def _geometric_product(dh: DrivenHamiltonian, times: np.ndarray):
    """Ordered product U_geo of the transport segments over ``times``.

    A constant path has zero increments, so U_geo is the identity; a
    commuting family telescopes to S^dagger V diag(exp(-i delta sigma .
    W)) V^T S of its ``commuting_basis``, delta sigma the window's
    increment.  Any other family walks the identity through every
    segment (``_chebyshev_walk``).
    """
    if dh.path.is_constant():
        return np.eye(dh.grid.size, dtype=complex)
    if _commuting_family(dh):
        v, w = dh.commuting_basis
        sig = dh.path.values(times[[0, -1]])
        e = np.exp(-1j * ((sig[1] - sig[0]) @ w))
        return _ungauged(_exponential(v, e), dh.grid)
    u = np.eye(dh.grid.size, dtype=complex)
    for _ in _chebyshev_walk(dh, times, u):
        pass
    return _ungauged(u, dh.grid)


def _chebyshev_walk(dh: DrivenHamiltonian, times: np.ndarray,
                    x: np.ndarray):
    """Apply exp(-i dt h) of each transport segment h over ``times``
    (``_steps``) in turn, in place, to x, a gauged C-contiguous complex
    vector or block, yielding after each step: the one walk of a
    non-commuting transport.

    Each gauged real h passes the one gate (``_gated``); its step is one
    real Chebyshev series (``_chebyshev_terms``) of h's data scaled by
    2/R, R = ||h||_1 the Gershgorin bound, on the float view of x: 2k
    real columns for k complex ones.
    """
    n, q = dh.grid.size, dh.geometric_quantizer
    flat = x.view(float).reshape(-1)
    dt, rows = _steps(dh, times, q)
    cur = None
    for h in rows:
        if cur is None:
            # the buffers are taken after the first block of rows is
            # filled, so they do not add to the peak of the fill
            cur, even, odd, term = (np.empty_like(flat) for _ in range(4))
        _gated(h.data, q.mirror)
        r = np.bincount(h.indices, weights=np.abs(h.data), minlength=n).max()
        if r == 0.0:
            yield
            continue
        # b = 2 h / r, whose spectrum lies in [-2, 2]
        b = h.data * (2.0 / r)
        signed = (-b, b)
        j = _chebyshev_terms(dt * r)
        # S_k = (-1)^(k // 2) T_k(b / 2) x carries the signs of the
        # coefficients 2 (-i)^k J_k, so that exp(-i dt h) x = E - i O with
        # E = J_0 S_0 + 2 sum_{k even > 0} J_k S_k and O = 2 sum_{k odd}
        # J_k S_k; S_k = (-1)^(k - 1) b S_{k-1} + S_{k-2} is written over
        # S_{k-2}, one sparse product a term, and S_1 = (b / 2) S_0 over
        # S_{-1} = 0
        np.multiply(flat, j[0], out=even)
        odd.fill(0.0)
        cur.fill(0.0)
        prev, now = cur, flat
        for k in range(1, len(j)):
            csr_matvecs(n, n, len(flat) // n, h.indptr, h.indices,
                        signed[k % 2] if k > 1 else 0.5 * b, now, prev)
            prev, now = now, prev
            np.multiply(now, 2.0 * j[k], out=term)
            acc = odd if k % 2 else even
            acc += term
        # x <- E - i O: multiplying by -i is exact
        o = odd.view(complex)
        o *= -1j
        np.add(even.view(complex), o, out=flat.view(complex))
        yield


def _chebyshev_terms(x: float) -> np.ndarray:
    """J_0(x), ..., J_K(x): the Bessel factors of the Chebyshev series
    exp(-i x y) = J_0(x) + 2 sum_{k >= 1} (-i)^k J_k(x) T_k(y) on
    [-1, 1] (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984)).

    K is the smallest order whose tail 2 sum_{k > K} |J_k(x)| is at most
    TRANSPORT_TAIL_TOL, read from one ``jv`` call over orders 0 to
    1.5 x + 40; a range that does not meet the bound raises.
    """
    # imported here, so that importing the package does not load it
    from scipy.special import jv

    j = jv(np.arange(int(1.5 * x) + 41), x)
    # tails[k] = 2 sum_{i > k} |J_i|, summed from the smallest term up
    tails = 2.0 * np.cumsum(np.abs(j[:0:-1]))[::-1]
    met = np.flatnonzero(tails <= TRANSPORT_TAIL_TOL)
    if not len(met):
        raise RuntimeError(
            f"Chebyshev series at x = {x:.6g} does not reach its tail "
            f"bound {TRANSPORT_TAIL_TOL:.1e} within {len(j)} orders")
    return j[:met[0] + 1]


def geometric_factor(dh: DrivenHamiltonian, t_end: float | None = None,
                     t_start: float | None = None,
                     segments: int = 2048) -> np.ndarray:
    """Parallel-displacement factor along the path image.

    Path-ordered product of exp(-i dt G) over uniform clock segments,
    G bound by ``_steps`` to the rates delta sigma / dt, so only the
    traced image curve enters.  A commuting family telescopes to one
    exponential, and a constant path gives the identity
    (``_geometric_product``).
    """
    return _geometric_product(
        dh, _window(dh, segments, t_start, t_end, "segments"))


def _commutator_max(dh: DrivenHamiltonian, times: np.ndarray) -> float:
    """Largest relative commutator norm of G and H' at SPLIT_SAMPLES
    even steps of the window ``times`` (``_steps``)."""
    comm_max = 0.0
    ts = np.linspace(times[0], times[-1], SPLIT_SAMPLES + 1)
    _, geo, dyn = _steps(dh, ts, dh.geometric_quantizer, dh.dynamic_quantizer)
    for g, h in zip(geo, dyn):
        ng, nh = np.linalg.norm(g.data), np.linalg.norm(h.data)
        if ng == 0.0 or nh == 0.0:
            continue
        c = g @ h - h @ g
        # a product's entries come unsorted; sorting them fixes the
        # order in which the norm sums them
        c.sum_duplicates()
        comm_max = max(comm_max, np.linalg.norm(c.data) / (ng * nh))
    return comm_max


def _split_commutes(dh: DrivenHamiltonian) -> bool:
    """True when G and H' commute at every pair of times, so that U =
    U_geo U_dyn to rounding.

    Read from the definitions, not from samples: G is zero (no coupling
    term, or a constant path) or H' is zero, or no coupling and no
    coefficient of H' (frame drift included) depends on q and there is
    no bump cover, so that both are polynomials with scalar coefficients
    in the commuting periodic differences D_k.
    """
    if not dh.geometric.terms or dh.path.is_constant() or not dh.dynamic.terms:
        return True
    qvars = {f"q{k}" for k in range(1, dh.grid.dim + 1)}
    return dh.cover is None and not (
        (dh._coupling_free | dh.dynamic.free_variables()) & qvars)


def split_evolution(dh: DrivenHamiltonian, full: EvolutionResult):
    """Factor the dense pass ``full`` (of ``dh``) as U_geo U_dyn.

    ``full`` carries U; the transport product U_geo
    (``_geometric_product``) and U_dyn, the step product of H', are
    formed here over the same times.  Returns (U_geo, U_dyn,
    SplitReport): the largest relative commutator norm of G and H' at
    SPLIT_SAMPLES even steps (``_steps``), the factorization defect, and
    whether the family commutes (``_split_commutes``), in which case
    the defect is held to SPLIT_TOL.
    """
    if full.unitary.shape != (dh.grid.size,) * 2:
        raise ValueError("dense result lives on a different grid")
    times = full.times
    # the samples come first, so their blocks of generator data are
    # released before the N x N products are formed
    comm_max = _commutator_max(dh, times)
    u_geo = _geometric_product(dh, times)
    u_dyn = _step_product(dh.dynamic_quantizer, dh, times,
                          full.static_collapse)[0]
    defect = float(np.linalg.norm(full.unitary - u_geo @ u_dyn))
    commuting = _split_commutes(dh)
    if commuting and defect > SPLIT_TOL:
        raise RuntimeError(
            f"commuting generators but factorization defect {defect:.3e} "
            f"exceeds {SPLIT_TOL:.1e}")
    return u_geo, u_dyn, SplitReport(float(comm_max), defect, commuting)


# -- state-only propagation ---------------------------------------------


def _blocks(count: int, nnz: int) -> list[slice]:
    """Slices cutting ``count`` rows of ``nnz`` float entries into
    blocks of at most BLOCK_BYTES, and at least one row."""
    width = max(1, BLOCK_BYTES // (8 * nnz))
    return [slice(lo, lo + width) for lo in range(0, count, width)]


def _rows(q: Quantizer, t: np.ndarray, sigma: np.ndarray, rate: np.ndarray):
    """Yield ``q``'s gauged real operator at each row of (t, sigma,
    rate), filled a block at a time (``_blocks``) and valid until the
    next is yielded."""
    h = q.csr(np.zeros(q.nnz))
    for rows in _blocks(len(t), q.nnz):
        for row in q.block(t[rows], sigma[rows], rate[rows]):
            h.data = row
            yield h


def _steps(dh: DrivenHamiltonian, times: np.ndarray, *quantizers):
    """The one binding of a window's rows: the step width dt of the
    uniform ``times`` and, per quantizer, its ``_rows`` at the step
    midpoints, with s the mean of sigma at the step's ends and the rates
    v = delta sigma / dt.  The path is read once, at ``times``."""
    dt = (times[-1] - times[0]) / (len(times) - 1)
    sig = dh.path.values(times)
    bound = (0.5 * (times[1:] + times[:-1]), 0.5 * (sig[1:] + sig[:-1]),
             (sig[1:] - sig[:-1]) / dt)
    return (dt, *(_rows(q, *bound) for q in quantizers))


def _taylor_apply(h: sp.csr_array, x: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt h) applied to a gauged state vector x: one step of H*.

    Each term is one native product of the real h on the float view of
    x.  The Taylor series stops at the first term whose norm is at most
    STATE_TAYLOR_TOL times the norm of x; a smooth state stops well
    before the worst case of h's spectrum.
    """
    n = len(x)
    flat = x.view(float)
    bound = STATE_TAYLOR_TOL * STATE_TAYLOR_TOL * (flat @ flat)
    out = x.copy()
    term, spare = x.copy(), np.empty_like(x)
    for j in range(1, TAYLOR_MAX_TERMS + 1):
        spare.fill(0.0)
        csr_matvecs(n, n, 2, h.indptr, h.indices, h.data, term.view(float),
                    spare.view(float))
        term, spare = spare, term
        term *= -1j * dt / j
        out += term
        flat = term.view(float)
        if flat @ flat <= bound:
            return out
    raise RuntimeError(
        "step exponential did not converge; use more steps (smaller dt)")


def propagate_state(dh: DrivenHamiltonian, initial: WaveSection, steps: int,
                    record_every: int = 1,
                    with_geometric: bool = True) -> StateTrajectory:
    """Propagate a state over the path span at fine step counts without
    per-step eigh.

    Each step applies exp(-i dt H*), H* bound by ``_steps`` as in the
    dense pass and filled in blocks of steps (``_rows``; a static window
    is one row), to the gauged state S psi (``_taylor_apply``).  The
    total phase column is the unwrapped angle of the state on the
    initial one; the geometric column (``with_geometric``) is that of
    the initial state carried through the transport segments over the
    same times (``_transport_phases``), as the dense pass's coarse
    value is.
    """
    if initial.grid != dh.grid:
        raise ValueError("initial state lives on a different grid")
    times = _window(dh, steps, None, None)
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    grid = dh.grid
    n, m = grid.dim, dh.bundle.n_parameters
    s = _gauge(grid)
    psi = psi0 = initial.values.copy()
    x, back = s * psi0, s.conj()

    # a static window is its first step's row for every step
    static = _is_static(dh)
    dt, gens = _steps(dh, times[:2] if static else times, dh.full_quantizer)
    if static:
        gens = itertools.repeat(next(gens), steps)

    records = list(range(0, steps + 1, record_every))
    if records[-1] != steps:
        records.append(steps)
    rec_idx = set(records)
    rows = {name: [] for name in ("pos", "mom", "norm")}
    args = [0.0]

    def record(j):
        ws = WaveSection(grid, psi, float(times[j]))
        rows["pos"].append(position_expectations(ws))
        rows["mom"].append(momentum_expectations(ws))
        rows["norm"].append(ws.norm() / initial.norm())

    record(0)
    for j, h in enumerate(gens):
        x = _taylor_apply(h, x, dt)
        # out of the gauge, exactly: the overlap and the records then sum
        # the same products as on the ungauged state
        psi = back * x
        args.append(np.angle(np.vdot(psi0, psi)))
        if (j + 1) in rec_idx:
            record(j + 1)

    sel = np.asarray(records)
    sigma = dh.path.values(times[sel]).reshape(len(records), m)
    final = WaveSection(grid, psi, float(times[-1]), sigma[-1].copy())
    return StateTrajectory(
        times=times[sel],
        sigma=sigma,
        sigma_rate=dh.path.velocities(times[sel]).reshape(len(records), m),
        positions=np.asarray(rows["pos"]).reshape(len(records), n),
        momenta=np.asarray(rows["mom"]).reshape(len(records), n),
        norms=np.asarray(rows["norm"]),
        phase_total=np.unwrap(args)[sel],
        phase_geometric=(_transport_phases(dh, times, psi0)[sel]
                         if with_geometric else None),
        final_state=final,
    )


# -- the classical oracle ------------------------------------------------


def classical_hamilton_flow(dh: DrivenHamiltonian, initial: ClassicalState,
                            steps: int) -> ClassicalTrajectory:
    """Fixed-step 4th-order Runge-Kutta flow of the driven Hamiltonian
    over the path span, from ``initial`` at its start.

    The vector field is the Hamiltonian vector field of H*, with exact
    symbolic partials: dq_k/dt = dH*/dp_k, dp_k/dt = -dH*/dq_k, compiled
    once per ``DrivenHamiltonian`` (``classical_field``).  Each stage
    binds its clock time t, s = sigma(t), the rates v = sigma'(t) and q
    as Python floats in one dict; sigma and sigma' are read at every
    stage time of the window at once.  The arithmetic is that of
    ``PolynomialObservable.evaluate`` term by term, and a non-finite
    coefficient or state ends the flow as it does there.
    """
    times = _window(dh, steps, None, None)
    n, m = dh.grid.dim, dh.bundle.n_parameters
    q0 = np.asarray(initial.q, float)
    if q0.shape != (n,):
        raise ValueError(f"initial state needs {n} coordinates")
    field = dh.classical_field
    names = ("t", *(f"s{i}" for i in range(1, m + 1)),
             *(f"v{i}" for i in range(1, m + 1)),
             *(f"q{k}" for k in range(1, n + 1)))

    dt = float(times[-1] - times[0]) / steps
    # stage times t, t + dt/2 and t + dt of every step, as rows, each
    # with its sigma and sigma'
    stage_t = np.stack([times[:-1], times[:-1] + 0.5 * dt, times[:-1] + dt])
    stages = np.concatenate([
        stage_t[..., None],
        dh.path.values(stage_t.ravel()).reshape(3, steps, -1),
        dh.path.velocities(stage_t.ravel()).reshape(3, steps, -1)], axis=2)

    def rhs(stage, y):
        binding = dict(zip(names, stage + y[:n]))
        p = y[n:]
        out = []
        for terms in field:
            total = 0.0
            for coefficient, idx in terms:
                c = coefficient(binding)
                if not math.isfinite(c):
                    raise EvaluationError("non-finite vector field")
                mono = 1.0
                for i in idx:
                    mono = mono * p[i - 1]
                total = total + c * mono
            out.append(total)
        return out

    ys = np.empty((steps + 1, 2 * n))
    ys[0] = np.concatenate([q0, np.asarray(initial.p, float)])
    y = ys[0].tolist()
    half, sixth = 0.5 * dt, dt / 6.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(steps):
            start, mid, end = stages[:, j].tolist()
            try:
                k1 = rhs(start, y)
                k2 = rhs(mid, [a + half * k for a, k in zip(y, k1)])
                k3 = rhs(mid, [a + half * k for a, k in zip(y, k2)])
                k4 = rhs(end, [a + dt * k for a, k in zip(y, k3)])
            except (ZeroDivisionError, OverflowError, EvaluationError) as exc:
                raise ValueError(
                    f"classical flow diverged at t = {times[j]:.6g}") from exc
            y = [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            if not all(map(math.isfinite, y)):
                raise ValueError(
                    f"classical flow diverged at t = {times[j + 1]:.6g}")
            ys[j + 1] = y
    return ClassicalTrajectory(times, ys[:, :n].copy(), ys[:, n:].copy())
