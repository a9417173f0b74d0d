"""Tests of the tracing harness on a small scenario.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from leafquant import evolution, operators, runner, scenarios  # noqa: E402

SMALL = {
    "dims": {"m": 2, "n": 1},
    "connection": {"lambda": [["1", "0.5*q1"]]},
    "path": {"kind": "closed_form", "components": ["0.5*cos(t)",
                                                   "0.5*sin(t)"],
             "span": [0.0, 6.283185307179586], "closed": True},
    "hamiltonian": [{"index": [1, 1], "coeff": "0.5"},
                    {"index": [], "coeff": "0.5*q1^2"}],
    "grid": {"N": 16, "L": 5.0},
    "integrator": {"steps": 8, "unitary_steps": 4, "segments": 6},
    "initial": {"center": 0.1, "width": 1.0, "kick": 0.0},
}


def _traced_run(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        config = scenarios.parse_scenario(SMALL)
        runner.run(config, tmp_path)
        evolution.geometric_factor(config.driven(), segments=6)
    finally:
        tracer.uninstall()
    return tracer


def test_wraps_every_namespace_and_restores(tmp_path):
    originals = (operators.quantize_affine, evolution.quantize_affine,
                 np.linalg.eigh, scenarios.parse_scenario)
    tracer = _traced_run(tmp_path)
    assert (operators.quantize_affine, evolution.quantize_affine,
            np.linalg.eigh, scenarios.parse_scenario) == originals
    layer = tracing.summarize(tracer, 0, len(tracer.spans))
    # 4 dense steps, 4 transport segments for the phases, 6 segments
    assert layer["evolution.dense_steps"] == 4
    assert layer["evolution.state_steps"] == 8
    assert layer["evolution.geometric_segments"] == 6
    assert layer["evolution.eigh_calls"] == 4 + 4 + 6
    # the runner's own quantize_affine calls come through evolution's name
    assert layer["operators.quantize_affine_calls"] >= 4 + 4 + 6
    assert layer["operators.quantize_polynomial_calls"] == 1
    assert layer["scenarios.parse_s"] > 0
    assert layer["expressions.evaluate_calls"] > 0
    assert layer["runner.artifact_write_s"] > 0


def test_self_times_partition_the_run(tmp_path):
    tracer = _traced_run(tmp_path)
    layer = tracing.summarize(tracer, 0, len(tracer.spans))
    names = tracer.names
    roots = [s for s in tracer.spans if s[3] == -1]
    total = sum(end - start for _, start, end, _, _ in roots)
    eigh = layer["evolution.eigh_s"]
    selfs = sum(layer[f"{name}.self_s"] for name in tracing.LAYERS)
    assert abs(selfs + eigh - total) < 1e-9
    assert {names[s[0]] for s in roots} == {"scenarios.parse_scenario",
                                            "runner.run",
                                            "scenarios.ScenarioConfig.driven",
                                            "evolution.geometric_factor"}
