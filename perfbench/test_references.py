"""Tests of the benchmark's own references, seeds and tolerances.

    python3 -m pytest perfbench
"""

import math

import numpy as np
import pytest

import references
import workloads


def test_driven_flow_on_resonant_drive():
    p = {"A": 0.35, "w": 1.0, "q0": 0.12, "k": -0.09}
    t = np.linspace(0.0, 10.0, 41)
    q, mom = references.driven_state_flow(p, 10.0, t)
    assert np.max(np.abs(q - (p["q0"] * np.cos(t)
                              + (p["k"] + p["A"]) * np.sin(t)))) < 1e-9
    assert np.max(np.abs(mom - (-p["q0"] * np.sin(t)
                                + p["k"] * np.cos(t)))) < 1e-9


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_driven_flow_matches_closed_form(seed):
    p = workloads.draw_parameters("driven_state", seed)
    span = workloads.SETTINGS["driven_state"]["span"]
    t = np.linspace(0.0, span, 31)
    q, mom = references.driven_state_flow(p, span, t)
    q_ref, mom_ref = references.driven_state_closed_form(p, t)
    assert np.max(np.abs(q - q_ref)) < 1e-9
    assert np.max(np.abs(mom - mom_ref)) < 1e-9


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_loop_transport_bessel_form(seed):
    p = workloads.draw_parameters("holonomy_ladder", seed)
    t = np.linspace(0.0, 2.0 * math.pi, 9)
    flow = references.loop_transport_flow(p, t)
    assert abs(flow[-1] - references.loop_transport(p)) < 1e-9
    # small b r: I1(x) ~ x / 2, so the shift is about pi b r^2
    shift = references.loop_transport(dict(p, b=1e-4)) - p["q0"]
    assert shift == pytest.approx(math.pi * 1e-4 * p["r"] ** 2, rel=1e-6)


def test_dense_flow_without_cross_term():
    kappa = workloads.DENSE_STIFFNESS
    omega = math.sqrt(kappa)
    p = {"R": 0.5, "c": 0.0, "q0_1": 0.2, "q0_2": -0.1,
         "k_1": 0.1, "k_2": 0.15}
    t = np.linspace(0.0, 2.0 * math.pi, 25)
    q, mom = references.dense_2d_flow(p, 2.0 * math.pi, t, kappa)
    # q - s oscillates freely at omega: the drift v.p cancels the drag
    s = references.loop_path(p["R"], t)
    u0 = np.array([p["q0_1"], p["q0_2"]]) - s[0]
    p0 = np.array([p["k_1"], p["k_2"]])
    u = (np.cos(omega * t)[:, None] * u0
         + np.sin(omega * t)[:, None] * p0 / omega)
    assert np.max(np.abs(q - s - u)) < 1e-9
    mom_ref = (-omega * np.sin(omega * t)[:, None] * u0
               + np.cos(omega * t)[:, None] * p0)
    assert np.max(np.abs(mom - mom_ref)) < 1e-9


def test_translation_phase_is_overlap_phase():
    x = np.linspace(-20.0, 20.0, 8001)
    k, d, width = 0.37, 0.8, 1.1
    packet = np.exp(-x ** 2 / (2 * width ** 2) + 1j * k * x)
    moved = np.exp(-(x - d) ** 2 / (2 * width ** 2) + 1j * k * (x - d))
    overlap = np.vdot(packet, moved)
    expected = references.translation_phase(k, [[d]], [0.0])[0]
    assert np.angle(overlap) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_parameters_are_seeded_and_in_range(workload):
    first = workloads.draw_parameters(workload, 7)
    assert first == workloads.draw_parameters(workload, 7)
    assert first != workloads.draw_parameters(workload, 8)
    for name, (lo, hi) in workloads.RANGES[workload].items():
        assert lo <= first[name] <= hi


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_no_setting(workload):
    docs = [workloads.scenario_document(
        workload, workloads.draw_parameters(workload, seed))
        for seed in (1, 2)]
    for key in ("dims", "grid", "integrator", "outputs"):
        assert docs[0][key] == docs[1][key]


def test_ladder_tolerances_scale_preset_values():
    tol = workloads.ladder_tolerances({"segment_counts": [1024, 2048, 4096],
                                       "segments": 8192})
    assert tol == {"richardson": 1e-6, "reparametrization": 5e-6}
