"""Seeded scenario documents for the three benchmark workloads.

A seed picks only physical parameters, each uniformly inside the range
listed in ``RANGES``.  Grid, step counts, segment ladder and outputs are
fixed per workload, so every seed asks the program for the same work.
This module does not import ``leafquant``: the scenario is plain JSON,
handed to the program through ``parse_scenario``.
"""

from __future__ import annotations

import math
import random

TWO_PI = 2.0 * math.pi

# warp of the holonomy loop's clock: monotone on [0, 2 pi] (derivative
# between 0.5 and 1.5) and fixing both ends, so it traces the same image
WARP = "t + 0.5*t*(6.283185307179586 - t)/6.283185307179586"

# fixed work per workload; the README explains each choice
SETTINGS = {
    "driven_state": {"N": 256, "L": 6.0, "span": 3.0, "steps": 1000,
                     "unitary_steps": 4, "record_every": 10},
    "holonomy_ladder": {"N": 96, "L": 6.0, "steps": 128,
                        "unitary_steps": 8, "segments": 128,
                        "segment_counts": [32, 64, 128]},
    "dense_2d": {"N": 16, "L": 5.0, "steps": 24, "unitary_steps": 4},
}

# (low, high) of every seeded parameter
RANGES = {
    "driven_state": {"A": (0.3, 0.4), "w": (0.9, 1.1),
                     "q0": (-0.15, 0.15), "k": (-0.1, 0.1)},
    "holonomy_ladder": {"r": (0.5, 0.7), "b": (0.6, 0.9),
                        "q0": (-0.3, 0.3)},
    "dense_2d": {"R": (0.4, 0.6), "c": (0.2, 0.4),
                 "q0_1": (-0.3, 0.3), "q0_2": (-0.3, 0.3),
                 "k_1": (-0.2, 0.2), "k_2": (-0.2, 0.2)},
}

WORKLOADS = tuple(SETTINGS)

# stiffness of the two-axis potential kappa/2 |q - s|^2; the soft well
# (frequency 1/2) keeps the packet's momenta low enough for the coarse
# 16 x 16 grid, and the packet starts at the well's ground-state width
DENSE_STIFFNESS = 0.25
DENSE_WIDTH = DENSE_STIFFNESS ** -0.25


def ladder_tolerances(settings: dict) -> dict:
    """Preset tolerances carried over to this ladder's segment counts.

    The bundled presets fix the Richardson gap at 1e-6 for a ladder
    ending at 4096 segments and the clock-change difference at 5e-6 for
    8192 segments.  The Richardson residual falls as n^-4 and the clock
    difference as n^-2, so both bounds are scaled by those orders.
    """
    top = max(settings["segment_counts"])
    return {"richardson": 1e-6 * (4096 / top) ** 4,
            "reparametrization": 5e-6 * (8192 / settings["segments"]) ** 2}


def draw_parameters(workload: str, seed: int) -> dict:
    """Parameters for one seed, in the fixed order of ``RANGES``."""
    rng = random.Random(f"{workload}:{seed}")
    return {name: rng.uniform(lo, hi)
            for name, (lo, hi) in RANGES[workload].items()}


def _driven_state(p: dict, s: dict) -> dict:
    return {
        "name": "driven_state",
        "dims": {"m": 1, "n": 1},
        "connection": {"lambda": [["1"]]},
        "path": {"kind": "closed_form",
                 "components": [f"{p['A']!r}*sin({p['w']!r}*t)"],
                 "span": [0.0, s["span"]]},
        "hamiltonian": [{"index": [1, 1], "coeff": "0.5"},
                        {"index": [], "coeff": "0.5*(q1 - s1)^2"}],
        "grid": {"N": s["N"], "L": s["L"]},
        "integrator": {"steps": s["steps"],
                       "unitary_steps": s["unitary_steps"],
                       "record_every": s["record_every"]},
        "initial": {"center": p["q0"], "width": 1.0, "kick": p["k"]},
        "outputs": ["expectations", "phases", "ehrenfest"],
    }


def _holonomy_ladder(p: dict, s: dict) -> dict:
    r, b = p["r"], p["b"]
    return {
        "name": "holonomy_ladder",
        "dims": {"m": 2, "n": 1},
        "connection": {"lambda": [["1", f"{b!r}*q1"]]},
        "path": {"kind": "closed_form",
                 "components": [f"{r!r}*cos(t)", f"{r!r}*sin(t)"],
                 "span": [0.0, TWO_PI], "closed": True},
        "hamiltonian": [],
        "grid": {"N": s["N"], "L": s["L"]},
        "integrator": {"steps": s["steps"],
                       "unitary_steps": s["unitary_steps"],
                       "segments": s["segments"],
                       "segment_counts": s["segment_counts"]},
        "initial": {"center": p["q0"], "width": 1.0, "kick": 0.0},
        "reparam": {"warp": WARP},
        "tolerances": ladder_tolerances(s),
        "outputs": ["expectations", "phases", "convergence",
                    "reparametrization"],
    }


def _dense_2d(p: dict, s: dict) -> dict:
    radius = p["R"]
    half = repr(DENSE_STIFFNESS / 2)
    return {
        "name": "dense_2d",
        "dims": {"m": 2, "n": 2},
        "connection": {"lambda": [["1", "0"], ["0", "1"]]},
        "path": {"kind": "closed_form",
                 "components": [f"{radius!r}*cos(t)", f"{radius!r}*sin(t)"],
                 "span": [0.0, TWO_PI], "closed": True},
        "hamiltonian": [
            {"index": [1, 1], "coeff": "0.5"},
            {"index": [2, 2], "coeff": "0.5"},
            {"index": [1, 2], "coeff": f"{p['c']!r}*s1"},
            {"index": [],
             "coeff": f"{half}*(q1 - s1)^2 + {half}*(q2 - s2)^2"},
        ],
        "grid": {"N": [s["N"], s["N"]], "L": s["L"]},
        "integrator": {"steps": s["steps"],
                       "unitary_steps": s["unitary_steps"]},
        "initial": {"center": [p["q0_1"], p["q0_2"]], "width": DENSE_WIDTH,
                    "kick": [p["k_1"], p["k_2"]]},
        "outputs": ["expectations", "phases", "diagnostics", "ehrenfest"],
    }


_BUILDERS = {"driven_state": _driven_state,
             "holonomy_ladder": _holonomy_ladder,
             "dense_2d": _dense_2d}


def scenario_document(workload: str, params: dict) -> dict:
    """The scenario JSON for ``workload`` at the given parameters."""
    return _BUILDERS[workload](params, SETTINGS[workload])
