"""Geometry of the parameter-fibered configuration bundle.

A model couples an m-dimensional classical parameter space to an
n-dimensional fiber of mechanical coordinates.  The coupling data are
the parameter-direction drift fields (n by m expressions in t, s, q),
an optional pure-time drift, and a path t -> sigma(t) through the
parameters (``DrivenHamiltonian`` composes the drift entering the
driven Hamiltonian from them).  The module also reparametrizes a path
on a new clock and carries the symbolic curvature check behind the
quantization rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expressions import Const, Expression, Var

__all__ = [
    "BundleModel",
    "ParameterPath",
    "PrequantReport",
    "prequant_curvature_check",
    "reparametrize_path",
]

_ZERO = Const(0.0)

CLOSURE_TOL = 1e-12
WARP_ENDPOINT_TOL = 1e-9


def _check_scope(expr: Expression, allowed: set, what: str):
    stray = expr.free_variables() - allowed
    if stray:
        raise ValueError(
            f"{what} uses variable '{sorted(stray)[0]}' outside its scope")


@dataclass(frozen=True)
class BundleModel:
    """Coupling data of the fibered model.

    ``sigma_coupling[k][lam]`` multiplies the lam-th parameter velocity
    in the drift of fiber coordinate k+1; entries may depend on t, the
    parameters and the fiber.  ``time_drift[k]`` is an optional drift of
    the fiber in pure time.
    """

    n_parameters: int
    n_fiber: int
    sigma_coupling: tuple[tuple[Expression, ...], ...]
    time_drift: tuple[Expression, ...] = ()

    def __post_init__(self):
        if self.n_parameters < 1 or self.n_fiber < 1:
            raise ValueError("need at least one parameter and one fiber axis")
        rows = tuple(tuple(row) for row in self.sigma_coupling)
        if len(rows) != self.n_fiber or any(
                len(r) != self.n_parameters for r in rows):
            raise ValueError(
                f"sigma_coupling must be {self.n_fiber} x {self.n_parameters}")
        drift = tuple(self.time_drift) if self.time_drift else tuple(
            [_ZERO] * self.n_fiber)
        if len(drift) != self.n_fiber:
            raise ValueError(f"time_drift must have {self.n_fiber} entries")
        allowed = set(self.variables())
        for k, row in enumerate(rows):
            for lam, e in enumerate(row):
                _check_scope(e, allowed, f"sigma_coupling[{k}][{lam}]")
        for k, e in enumerate(drift):
            _check_scope(e, allowed, f"time_drift[{k}]")
        object.__setattr__(self, "sigma_coupling", rows)
        object.__setattr__(self, "time_drift", drift)

    def variables(self) -> list[str]:
        return (["t"]
                + [f"s{i}" for i in range(1, self.n_parameters + 1)]
                + [f"q{i}" for i in range(1, self.n_fiber + 1)])


def _sampler(trees: tuple[Expression, ...]):
    """Vectorized sampler of component trees: shape ts.shape + (m,)."""
    def sample(ts):
        shape = np.shape(ts)
        return np.stack([np.broadcast_to(np.asarray(c.evaluate({"t": ts})),
                                         shape) for c in trees], axis=-1)
    return sample


class ParameterPath:
    """A time-parametrized curve through the classical parameters.

    Built either from closed-form component expressions in ``t`` or from
    sampled knots (cubic spline).  ``closed`` asserts the endpoints
    coincide to within 1e-12 per component.  Either way the path keeps
    one value sampler and one rate sampler, both vectorized over t.
    """

    def __init__(self, *, components=None, times=None, values=None,
                 span=None, closed=False):
        if (components is None) == (times is None):
            raise ValueError("provide either components or samples")
        self.closed = bool(closed)
        if components is not None:
            comps = tuple(components)
            if not comps:
                raise ValueError("path needs at least one component")
            for c in comps:
                _check_scope(c, {"t"}, "path component")
            if span is None or span[1] <= span[0]:
                raise ValueError("closed-form path needs a span (t0, t1)")
            self.components = comps
            self.span = (float(span[0]), float(span[1]))
            self.n_parameters = len(comps)
            self._value = _sampler(comps)
            self._rate = _sampler(tuple(c.diff("t") for c in comps))
            if self.closed:
                gap = np.abs(self.value(self.span[1])
                             - self.value(self.span[0])).max()
                if gap > CLOSURE_TOL:
                    raise ValueError(
                        f"closed path endpoints differ by {gap:.3e}")
        else:
            times = np.asarray(times, dtype=float)
            values = np.asarray(values, dtype=float)
            if values.ndim == 1:
                values = values[:, None]
            if values.shape[0] != times.size:
                raise ValueError("values must carry one row per knot time")
            if times.size < 4:
                raise ValueError(
                    "sampled path needs at least 4 knots (spline underdetermined)")
            if np.any(np.diff(times) <= 0):
                raise ValueError("sample times must be strictly increasing")
            self.components = None
            self.span = (float(times[0]), float(times[-1]))
            self.n_parameters = values.shape[1]
            if self.closed:
                gap = np.abs(values[-1] - values[0]).max()
                if gap > CLOSURE_TOL:
                    raise ValueError(
                        f"closed path endpoints differ by {gap:.3e}")
                values = values.copy()
                values[-1] = values[0]
            # scipy.interpolate is slow to import; only a sampled path
            # pays for it
            from scipy.interpolate import CubicSpline
            spline = CubicSpline(times, values, axis=0, bc_type=(
                "periodic" if self.closed else "not-a-knot"))
            self._knots = values.copy()
            self._value = spline
            self._rate = spline.derivative()

    @classmethod
    def from_expressions(cls, components: Sequence[Expression],
                         span, closed=False) -> "ParameterPath":
        return cls(components=components, span=span, closed=closed)

    @classmethod
    def from_samples(cls, times, values, closed=False) -> "ParameterPath":
        return cls(times=times, values=values, closed=closed)

    def is_constant(self) -> bool:
        """True when the curve is one point: no component depends on
        ``t``, or every sampled knot row is the same."""
        if self.components is not None:
            return all("t" not in c.free_variables() for c in self.components)
        return bool(np.all(self._knots == self._knots[0]))

    def value(self, t: float) -> np.ndarray:
        return self._value(t)

    def velocity(self, t: float) -> np.ndarray:
        return self._rate(t)

    def values(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized value; returns shape (len(ts), m)."""
        return self._value(np.asarray(ts, dtype=float))

    def velocities(self, ts: np.ndarray) -> np.ndarray:
        return self._rate(np.asarray(ts, dtype=float))


@dataclass(frozen=True)
class PrequantReport:
    """Symbolic curvature of the quantization potential vs the 2-form."""

    dim: int
    curvature_imag: dict
    expected_imag: dict
    matches: bool


def prequant_curvature_check(n: int) -> PrequantReport:
    """Verify the potential A = i p_k along dq^k curves correctly.

    The curvature two-form of A must equal i times the fiberwise
    symplectic form, i.e. the (p_k, q^j) components are i delta_k^j and
    everything else vanishes.  Derivatives are taken symbolically, so
    the comparison is exact.
    """
    if n < 1:
        raise ValueError("fiber dimension must be at least 1")
    dirs = [f"q{k}" for k in range(1, n + 1)] + \
           [f"p{k}" for k in range(1, n + 1)]
    # imaginary parts of A along each direction (real parts all vanish)
    a_imag = {f"q{k}": Var(f"p{k}") for k in range(1, n + 1)}
    a_imag.update({f"p{k}": _ZERO for k in range(1, n + 1)})
    curvature = {}
    expected = {}
    for a in dirs:
        for b in dirs:
            if a == b:
                continue
            curvature[(a, b)] = a_imag[b].diff(a) - a_imag[a].diff(b)
            want = 0.0
            if a.startswith("p") and b.startswith("q") and a[1:] == b[1:]:
                want = 1.0
            if a.startswith("q") and b.startswith("p") and a[1:] == b[1:]:
                want = -1.0
            expected[(a, b)] = Const(want)
    matches = all(curvature[k] == expected[k] for k in curvature)
    return PrequantReport(n, curvature, expected, matches)


def reparametrize_path(path: ParameterPath, warp: Expression) -> ParameterPath:
    """Traverse the same parameter curve on a different clock.

    ``warp`` maps the span onto itself, must fix both endpoints (to
    1e-9) and be strictly increasing; violations raise ValueError.
    """
    _check_scope(warp, {"t"}, "warp")
    t0, t1 = path.span
    w0 = warp.evaluate({"t": t0})
    w1 = warp.evaluate({"t": t1})
    if abs(w0 - t0) > WARP_ENDPOINT_TOL or abs(w1 - t1) > WARP_ENDPOINT_TOL:
        raise ValueError(
            f"warp must fix the span endpoints, got ({w0}, {w1})")
    probe = np.linspace(t0, t1, 513)
    rates = np.asarray(warp.diff("t").evaluate({"t": probe}))
    if np.any(rates <= 0.0):
        bad = probe[np.argmin(rates)]
        raise ValueError(f"warp is not strictly increasing near t = {bad}")
    if path.components is not None:
        comps = [c.substitute({"t": warp}) for c in path.components]
        return ParameterPath.from_expressions(comps, path.span,
                                              closed=path.closed)
    knots = np.asarray(warp.evaluate({"t": probe}), dtype=float)
    knots[0], knots[-1] = t0, t1
    resampled = path.values(np.clip(knots, t0, t1))
    return ParameterPath.from_samples(probe, resampled, closed=path.closed)
