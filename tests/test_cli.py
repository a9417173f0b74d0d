"""Command line pipeline: runs, artifacts, exit codes, dumps."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from leafquant.cli import main
from leafquant.runner import (MATRIX_MAGIC, RunError, RunReport,
                              read_matrix_dump, run, write_matrix_dump)
from leafquant.scenarios import load_preset, parse_scenario
from leafquant.verify import CheckResult, run_suite


def tiny_doc(**overrides):
    doc = {
        "dims": {"m": 1, "n": 1},
        "connection": {"lambda": [["1"]]},
        "path": {"kind": "closed_form", "components": ["0.2*sin(t)"],
                 "span": [0.0, 2.0]},
        "hamiltonian": [
            {"index": [1, 1], "coeff": "0.5"},
            {"index": [], "coeff": "0.5*(q1 - s1)^2"},
        ],
        "grid": {"N": 32, "L": 6.0},
        "integrator": {"steps": 16},
        "initial": {"center": 0.1, "width": 1.0, "kick": 0.0},
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="case.json"):
    target = tmp_path / name
    target.write_text(json.dumps(doc))
    return target


def test_run_writes_artifacts(tmp_path, capsys):
    cfg_file = write_doc(tmp_path, tiny_doc())
    out = tmp_path / "out"
    assert main(["run", str(cfg_file), "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert (out / "trajectory.csv").exists()
    text = capsys.readouterr().out
    assert "scenario case" in text
    assert "unitarity defect" in text

    report = RunReport.from_json((out / "report.json").read_text())
    assert report.rows == 17
    assert report.unitarity_defect <= 1e-10
    assert report.norm_drift <= 1e-10

    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == ("t,sigma_1,dsigma_dt_1,exp_q_1,exp_p_1,"
                        "norm,phase_total,phase_geometric,unitarity_defect")
    assert len(lines) == 18
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert abs(first[5] - 1.0) < 1e-12


def test_report_json_round_trip(tmp_path):
    cfg = parse_scenario(tiny_doc())
    report = run(cfg, tmp_path / "out")
    clone = RunReport.from_json(report.to_json())
    assert clone == report
    reloaded = RunReport.from_json((tmp_path / "out" / "report.json")
                                   .read_text())
    assert reloaded == report


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_BLOCKS = st.dictionaries(st.text(max_size=8), st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner,
                                     max_size=3)),
    max_leaves=8), max_size=4)


@given(report=st.builds(
    RunReport, scenario=st.text(), n_parameters=st.integers(0, 4),
    n_fiber=st.integers(1, 2), steps=st.integers(1, 10 ** 6),
    unitary_steps=st.integers(0, 10 ** 4), static_collapse=st.booleans(),
    rows=st.integers(0, 10 ** 6), phases=_BLOCKS, unitarity_defect=_FLOATS,
    max_step_hermiticity_defect=_FLOATS, norm_drift=_FLOATS,
    tolerances=st.dictionaries(st.text(max_size=8), _FLOATS, max_size=4),
    artifacts=st.dictionaries(st.text(max_size=8), st.text(), max_size=3),
    split=st.none() | _BLOCKS, ehrenfest=st.none() | _BLOCKS,
    convergence=st.none() | _BLOCKS,
    reparametrization=st.none() | _BLOCKS,
    wall_clock_seconds=_FLOATS))
def test_random_report_round_trips_through_json(report):
    assert RunReport.from_json(report.to_json()) == report
    assert RunReport.from_json(report.to_json(indent=None)) == report


def test_runs_are_deterministic(tmp_path):
    doc = tiny_doc()
    run(parse_scenario(doc), tmp_path / "a")
    run(parse_scenario(doc), tmp_path / "b")
    body_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    body_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert body_a == body_b
    rep_a = RunReport.from_json((tmp_path / "a" / "report.json").read_text())
    rep_b = RunReport.from_json((tmp_path / "b" / "report.json").read_text())
    rep_a.wall_clock_seconds = rep_b.wall_clock_seconds = 0.0
    assert rep_a == rep_b


def test_steps_override(tmp_path):
    cfg_file = write_doc(tmp_path, tiny_doc())
    out = tmp_path / "out"
    assert main(["run", str(cfg_file), "--out", str(out),
                 "--steps", "8"]) == 0
    report = RunReport.from_json((out / "report.json").read_text())
    assert report.steps == 8
    assert report.rows == 9


def test_dump_unitary_flag(tmp_path):
    cfg_file = write_doc(tmp_path, tiny_doc())
    out = tmp_path / "out"
    assert main(["run", str(cfg_file), "--out", str(out),
                 "--dump-unitary"]) == 0
    dump = out / "unitary.bin"
    assert dump.exists()

    raw = dump.read_bytes()
    magic, rows, cols, reserved = struct.unpack_from("<4sIII", raw)
    assert magic == MATRIX_MAGIC
    assert rows == cols == 32
    assert reserved == 0
    u = read_matrix_dump(dump)
    assert u.shape == (32, 32)
    assert np.linalg.norm(u.conj().T @ u - np.eye(32)) <= 1e-10


def test_matrix_dump_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    mat = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    target = tmp_path / "m.bin"
    write_matrix_dump(target, mat)
    assert np.array_equal(read_matrix_dump(target), mat)

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ValueError, match="bad magic"):
        read_matrix_dump(bad)
    short = tmp_path / "short.bin"
    short.write_bytes(b"FQ")
    with pytest.raises(ValueError, match="truncated"):
        read_matrix_dump(short)
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(target.read_bytes()[:-16])
    with pytest.raises(ValueError, match="expected"):
        read_matrix_dump(clipped)


def test_two_parameter_csv_columns(tmp_path):
    doc = tiny_doc()
    doc["dims"] = {"m": 2, "n": 1}
    doc["connection"] = {"lambda": [["0.3", "-0.2"]]}
    doc["path"] = {"kind": "closed_form",
                   "components": ["0.2*cos(t)", "0.2*sin(t)"],
                   "span": [0.0, 2.0]}
    doc["hamiltonian"] = [{"index": [1, 1], "coeff": "0.5"}]
    report = run(parse_scenario(doc), tmp_path / "out")
    header = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,sigma_1,sigma_2,dsigma_dt_1,dsigma_dt_2,")
    assert report.n_parameters == 2


def test_validation_error_exit_code(tmp_path, capsys):
    doc = tiny_doc()
    del doc["grid"]["N"]
    cfg_file = write_doc(tmp_path, doc)
    assert main(["run", str(cfg_file)]) == 1
    assert "/grid/N" in capsys.readouterr().err

    assert main(["run", str(tmp_path / "absent.json")]) == 1
    assert main(["run", str(cfg_file), "--steps", "0"]) == 1


def test_scenario_evaluation_errors_exit_code(tmp_path, capsys):
    # a tree that is not finite at a checked point of the path or the
    # warp is a validation error, not a traceback
    doc = tiny_doc(reparam={"warp": "1/t"})
    assert main(["run", str(write_doc(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: /reparam/warp: ")
    doc = tiny_doc(dims={"m": 2, "n": 1},
                   connection={"lambda": [["1", "1"]]},
                   path={"kind": "closed_form", "span": [0.0, 2.0],
                         "components": ["1/t", "0.5*sin(t)"],
                         "closed": True})
    assert main(["run", str(write_doc(tmp_path, doc))]) == 1
    assert capsys.readouterr().err.startswith("error: /path: ")
    doc = tiny_doc(grid={"N": 32, "L": float("inf")})
    assert main(["run", str(write_doc(tmp_path, doc))]) == 1
    assert capsys.readouterr().err.startswith(
        "error: non-finite number inf at /grid/L")


def test_one_sided_ordering_rejected_at_load(tmp_path, capsys):
    # a one-sided factor ordering would make the generator of a q-varying
    # kinetic term non-Hermitian; it is a validation error before any
    # numerics, so nothing is written
    doc = tiny_doc()
    doc["hamiltonian"] = [{"index": [1, 1], "coeff": "0.5 + 0.1*q1^2"}]
    for ordering in ("left", "right"):
        doc["integrator"] = {"steps": 16, "ordering": ordering}
        out = tmp_path / ordering
        cfg_file = write_doc(tmp_path, doc)
        assert main(["run", str(cfg_file), "--out", str(out)]) == 1
        assert "/integrator/ordering" in capsys.readouterr().err
        assert not out.exists()


def test_numerical_failure_exit_code(tmp_path, capsys):
    # a quartic term this strong makes one huge step diverge in the
    # series exponential, which must surface as a stage-tagged error
    doc = tiny_doc()
    doc["hamiltonian"] = [{"index": [1, 1, 1, 1], "coeff": "0.5"}]
    doc["grid"] = {"N": 64, "L": 6.0}
    doc["integrator"] = {"steps": 1}
    cfg_file = write_doc(tmp_path, doc)
    assert main(["run", str(cfg_file), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "[propagation]" in err


def test_run_error_carries_stage(tmp_path):
    doc = tiny_doc()
    doc["hamiltonian"] = [{"index": [1, 1, 1, 1], "coeff": "0.5"}]
    doc["grid"] = {"N": 64, "L": 6.0}
    doc["integrator"] = {"steps": 1}
    with pytest.raises(RunError) as err:
        run(parse_scenario(doc), tmp_path / "o")
    assert err.value.stage == "propagation"


def test_verify_cli_pass_and_fail(tmp_path, capsys, monkeypatch):
    assert main(["verify", "decomposition"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out

    assert main(["verify", "nonsense"]) == 1
    assert "valid suites" in capsys.readouterr().err

    fake = [CheckResult("x", "broken", False, 1.0, 0.5)]
    monkeypatch.setattr("leafquant.cli.run_suite", lambda name: fake)
    assert main(["verify", "dirac"]) == 3


def test_preset_subcommand(tmp_path, capsys):
    assert main(["preset", "list"]) == 0
    listed = capsys.readouterr().out.split()
    assert "flat_loop" in listed

    assert main(["preset", "quartic_decomposition", "--out",
                 str(tmp_path)]) == 0
    target = tmp_path / "quartic_decomposition.json"
    assert target.exists()
    capsys.readouterr()

    assert main(["preset", "not_a_preset"]) == 1
    assert "unknown preset" in capsys.readouterr().err

    # the materialized file runs as-is
    out = tmp_path / "run_out"
    assert main(["run", str(target), "--out", str(out)]) == 0
    report = RunReport.from_json((out / "report.json").read_text())
    assert report.static_collapse
    assert (out / "unitary.bin").exists()


def test_unwritable_output_directory_is_a_usage_error(tmp_path, capsys):
    # an --out that names a file, or lies below one, ends in one error
    # line and exit code 1, not a traceback
    cfg_file = write_doc(tmp_path, tiny_doc())
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "below"):
        for argv in (["run", str(cfg_file)], ["preset", "flat_loop"]):
            assert main([*argv, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: cannot write the output directory")
            assert len(err.splitlines()) == 1
    assert taken.read_text() == ""


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_preset_configs_stay_within_tolerances(tmp_path):
    """Cheap preset sanity: flat loop run reports its pinned numbers."""
    report = run(load_preset("flat_loop"), tmp_path / "flat")
    assert report.unitarity_defect <= report.tolerances["unitarity"]
    assert report.split is not None and report.split["commuting"]
    assert report.split["factorization_defect"] \
        <= report.tolerances["split_commuting"]
    assert abs(report.phases["geometric"]) <= 1e-7


def test_verify_all_suites_green():
    results = run_suite("all")
    assert results, "no checks ran"
    failing = [r for r in results if not r.passed]
    assert not failing, "\n".join(r.line() for r in failing)
