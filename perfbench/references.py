"""Reference solutions computed with scipy, never through ``leafquant``.

Every formula here is written out from the workload definitions in
``workloads.py``.  Both fiber Hamiltonians are quadratic, so the quantum
expectation values follow the classical Hamilton flow up to grid and
time-step error; the loop workload has an empty Hamiltonian, so its
packet centre follows the classical transport of the coupling.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import iv

RTOL = 1e-12
ATOL = 1e-12


def _solve(rhs, y0, t_end, times):
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", rtol=RTOL,
                    atol=ATOL, t_eval=np.asarray(times, float))
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y


def driven_path(p: dict, t):
    """s(t) = A sin(w t) and its clock rate."""
    t = np.asarray(t, float)
    return p["A"] * np.sin(p["w"] * t), p["A"] * p["w"] * np.cos(p["w"] * t)


def driven_state_flow(p: dict, t_end: float, times):
    """Hamilton flow of H = s'(t) p + p^2/2 + (q - s(t))^2/2.

    The coupling adds the transport drift s'(t) p to the generator, so
    dq/dt = s' + p and dp/dt = -(q - s).  Returns (q, p) at ``times``.
    """
    def rhs(t, y):
        s, v = driven_path(p, t)
        return [v + y[1], -(y[0] - s)]

    y = _solve(rhs, [p["q0"], p["k"]], t_end, times)
    return y[0], y[1]


def driven_state_closed_form(p: dict, t):
    """Exact solution of the same flow: q - s oscillates freely."""
    t = np.asarray(t, float)
    s, _ = driven_path(p, t)
    q = p["q0"] * np.cos(t) + p["k"] * np.sin(t) + s
    mom = -p["q0"] * np.sin(t) + p["k"] * np.cos(t)
    return q, mom


def loop_path(radius: float, t):
    """Circle sigma(t) = radius (cos t, sin t), shape (len(t), 2)."""
    t = np.asarray(t, float)
    return radius * np.stack([np.cos(t), np.sin(t)], axis=-1)


def loop_transport(p: dict) -> float:
    """Packet centre after one loop of dq = ds1 + b q ds2.

    On the circle of radius r, dq/dt = -r sin t + b r cos t q; the
    integrating factor exp(-b r sin t) closes up after one turn, which
    leaves q(2 pi) = q0 + 2 pi r I1(b r).
    """
    r, b = p["r"], p["b"]
    return p["q0"] + 2.0 * math.pi * r * float(iv(1, b * r))


def loop_transport_flow(p: dict, times):
    """The same transport law integrated numerically."""
    r, b = p["r"], p["b"]

    def rhs(t, y):
        return [-r * math.sin(t) + b * r * math.cos(t) * y[0]]

    return _solve(rhs, [p["q0"]], float(np.max(times)), times)[0]


def dense_2d_flow(p: dict, t_end: float, times, stiffness: float):
    """Hamilton flow of the two-axis Hamiltonian.

    H = v.p + (p1^2 + p2^2)/2 + c s1 p1 p2 + stiffness |q - s|^2 / 2
    with s on the circle of radius R and v = ds/dt.  Returns (q, p),
    each of shape (len(times), 2).
    """
    radius, c, kappa = p["R"], p["c"], stiffness

    def rhs(t, y):
        q1, q2, p1, p2 = y
        s1, s2 = radius * math.cos(t), radius * math.sin(t)
        v1, v2 = -radius * math.sin(t), radius * math.cos(t)
        return [v1 + p1 + c * s1 * p2, v2 + p2 + c * s1 * p1,
                -kappa * (q1 - s1), -kappa * (q2 - s2)]

    y = _solve(rhs, [p["q0_1"], p["q0_2"], p["k_1"], p["k_2"]], t_end,
               times)
    return y[:2].T, y[2:].T


def translation_phase(kick, sigma, sigma0):
    """Phase of <psi0| T(sigma - sigma0) psi0> for a kicked Gaussian.

    Under unit coupling the transport-only companion is the initial
    packet translated by sigma(t) - sigma(t0); the overlap of a Gaussian
    with momentum k and its translate by d has phase -k.d exactly.
    """
    d = np.atleast_2d(np.asarray(sigma, float) - np.asarray(sigma0, float))
    return -(d @ np.atleast_1d(np.asarray(kick, float)))
