"""Checks applied to the artifacts of every benchmark operation.

Each check reads what the program wrote (``report.json`` and
``trajectory.csv``) and compares it with the scipy references or with
a property the run must have.  A grid-dependent tolerance is
``MARGIN * K * h**2``: the discretization error is second order in the
grid spacing h, K is the largest error over seeds 1 to 10 divided by
h**2, and ``MARGIN`` leaves room for seeds not tried.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import references
from workloads import DENSE_STIFFNESS, SETTINGS, TWO_PI

MARGIN = 2.0

# largest error per h**2 over seeds 1 to 10, rounded up (README,
# "Checks and tolerances")
K_DRIVEN_EXPECTATION = 0.25
K_DRIVEN_PHASE = 0.01
K_LOOP_TRANSLATION = 1.25
K_DENSE_EXPECTATION = 0.65
K_DENSE_PHASE = 0.025

UNITARITY = 1e-10
HERMITICITY = 1e-10
# the state propagator truncates each Taylor series at 1e-13 relative,
# so a norm drift above that per step is more than rounding
TAYLOR_TOL = 1e-13


def spacing(workload: str) -> float:
    s = SETTINGS[workload]
    return 2.0 * s["L"] / s["N"]


def tolerance(workload: str, k: float) -> float:
    return MARGIN * k * spacing(workload) ** 2


def read_trajectory(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array(rows[1:], dtype=float)
    return {name: data[:, i] for i, name in enumerate(rows[0])}


def _columns(traj, stem, count):
    return np.stack([traj[f"{stem}_{i + 1}"] for i in range(count)], axis=1)


class Checker:
    """Collects the checks an operation fails."""

    def __init__(self):
        self.failures: list[str] = []

    def at_most(self, name: str, value: float, bound: float):
        if not value <= bound:
            self.failures.append(f"{name} {value:.3e} above {bound:.3e}")

    def at_least(self, name: str, value: float, bound: float):
        if not value >= bound:
            self.failures.append(f"{name} {value:.3e} below {bound:.3e}")

    def holds(self, name: str, condition: bool):
        if not condition:
            self.failures.append(name)


def _common(ck: Checker, workload: str, report: dict, traj: dict):
    s = SETTINGS[workload]
    ck.at_most("unitarity_defect", report["unitarity_defect"], UNITARITY)
    ck.at_most("step_hermiticity_defect",
               report["max_step_hermiticity_defect"], HERMITICITY)
    ck.at_most("norm_drift", report["norm_drift"], TAYLOR_TOL * s["steps"])
    every = s.get("record_every", 1)
    ck.holds("trajectory has one row per recorded step",
             len(traj["t"]) == s["steps"] // every + 1 == report["rows"])


def _driven_state(ck, params, report, traj):
    s = SETTINGS["driven_state"]
    q, p = references.driven_state_flow(params, s["span"], traj["t"])
    tol = tolerance("driven_state", K_DRIVEN_EXPECTATION)
    ck.at_most("position_gap", np.max(np.abs(traj["exp_q_1"] - q)), tol)
    ck.at_most("momentum_gap", np.max(np.abs(traj["exp_p_1"] - p)), tol)
    sigma, _ = references.driven_path(params, traj["t"])
    phase = references.translation_phase(params["k"], sigma[:, None],
                                         [0.0])
    ck.at_most("geometric_phase_gap",
               np.max(np.abs(traj["phase_geometric"] - phase)),
               tolerance("driven_state", K_DRIVEN_PHASE))


def _holonomy_ladder(ck, params, report, traj):
    tol = report["tolerances"]
    ck.at_most("loop_translation_gap",
               abs(traj["exp_q_1"][-1] - references.loop_transport(params)),
               tolerance("holonomy_ladder", K_LOOP_TRANSLATION))
    conv = report["convergence"]
    ck.at_least("doubling_ratio", conv["ratio"], tol["convergence_ratio"])
    ck.at_most("richardson_gap", conv["richardson_gap"], tol["richardson"])
    ck.at_least("holonomy_magnitude", conv["holonomy_magnitude"],
                tol["nontriviality"])
    ck.at_most("reparametrization_difference",
               report["reparametrization"]["difference"],
               tol["reparametrization"])


def _dense_2d(ck, params, report, traj):
    q, p = references.dense_2d_flow(params, TWO_PI, traj["t"],
                                  DENSE_STIFFNESS)
    tol = tolerance("dense_2d", K_DENSE_EXPECTATION)
    ck.at_most("position_gap",
               np.max(np.abs(_columns(traj, "exp_q", 2) - q)), tol)
    ck.at_most("momentum_gap",
               np.max(np.abs(_columns(traj, "exp_p", 2) - p)), tol)
    sigma = references.loop_path(params["R"], traj["t"])
    phase = references.translation_phase([params["k_1"], params["k_2"]],
                                         sigma, sigma[0])
    ck.at_most("geometric_phase_gap",
               np.max(np.abs(traj["phase_geometric"] - phase)),
               tolerance("dense_2d", K_DENSE_PHASE))
    split = report["split"]
    ck.holds("split reports non-commuting generators", not split["commuting"])
    ck.at_least("split_defect", split["factorization_defect"],
                report["tolerances"]["split_defect_floor"])


_SPECIFIC = {"driven_state": _driven_state,
             "holonomy_ladder": _holonomy_ladder,
             "dense_2d": _dense_2d}


def check_outputs(workload: str, params: dict, out_dir: Path) -> Checker:
    """Check the artifacts one run left in ``out_dir``."""
    ck = Checker()
    report = json.loads((out_dir / "report.json").read_text())
    traj = read_trajectory(out_dir / "trajectory.csv")
    _common(ck, workload, report, traj)
    _SPECIFIC[workload](ck, params, report, traj)
    return ck
