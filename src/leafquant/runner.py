"""Scenario execution: propagate, measure, and write artifacts.

run() drives the full pipeline for one scenario: fine-step state
propagation for the time series, a coarser dense evolution for the
unitary and its defect, plus whatever optional diagnostics the config
requests (split factorization, classical comparison, geometric
convergence, reparametrized rerun).  Everything lands in one output
directory: report.json, trajectory.csv, and optional matrix dumps.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bundle import reparametrize_path
from .evolution import (ClassicalState, DrivenHamiltonian,
                        classical_hamilton_flow, evolve_time_ordered,
                        geometric_factor, propagate_state, split_evolution)
from .expressions import EvaluationError
from .operators import WaveSection
from .scenarios import ScenarioConfig

__all__ = ["RunError", "RunReport", "run", "write_matrix_dump",
           "read_matrix_dump", "MATRIX_MAGIC"]

MATRIX_MAGIC = b"FQU1"
_HEADER = struct.Struct("<4sIII")  # magic, rows, cols, reserved


class RunError(RuntimeError):
    """Numerical failure inside the pipeline, tagged with its stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def _staged(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (RuntimeError, EvaluationError, FloatingPointError,
            np.linalg.LinAlgError, ValueError) as exc:
        if isinstance(exc, RunError):
            raise
        raise RunError(stage, str(exc)) from exc


@dataclass
class RunReport:
    """Machine-readable outcome of one scenario run.

    Every numeric field survives a JSON round trip exactly, so a report
    reloaded from disk compares equal to the one returned by run().
    """

    scenario: str
    n_parameters: int
    n_fiber: int
    steps: int
    unitary_steps: int
    static_collapse: bool
    rows: int
    phases: dict
    unitarity_defect: float
    max_step_hermiticity_defect: float
    norm_drift: float
    tolerances: dict
    artifacts: dict
    split: dict | None = None
    ehrenfest: dict | None = None
    convergence: dict | None = None
    reparametrization: dict | None = None
    wall_clock_seconds: float = 0.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    def check_finite(self):
        defects = [self.unitarity_defect, self.max_step_hermiticity_defect,
                   self.norm_drift]
        if any(not np.isfinite(d) or d < 0 for d in defects):
            raise RunError("report", "defect fields must be finite and "
                           "nonnegative")


def write_matrix_dump(path: Path, matrix: np.ndarray) -> None:
    """Row-major complex128 dump with a 16-byte header."""
    mat = np.ascontiguousarray(matrix, dtype=np.complex128)
    if mat.ndim != 2:
        raise ValueError("matrix dump expects a 2-d array")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MATRIX_MAGIC, mat.shape[0], mat.shape[1], 0))
        fh.write(mat.tobytes(order="C"))


def read_matrix_dump(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated matrix dump")
    magic, rows, cols, _ = _HEADER.unpack_from(raw)
    if magic != MATRIX_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    body = np.frombuffer(raw, dtype=np.complex128, offset=_HEADER.size)
    if body.size != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} entries, "
                         f"got {body.size}")
    return body.reshape(rows, cols).copy()


def _csv_row(values) -> str:
    return ",".join("%.17g" % v for v in values)


def trajectory_csv(traj, m: int, n: int) -> str:
    """Render a state trajectory as the standard CSV time series."""
    header = (["t"]
              + [f"sigma_{i+1}" for i in range(m)]
              + [f"dsigma_dt_{i+1}" for i in range(m)]
              + [f"exp_q_{k+1}" for k in range(n)]
              + [f"exp_p_{k+1}" for k in range(n)]
              + ["norm", "phase_total", "phase_geometric",
                 "unitarity_defect"])
    lines = [",".join(header)]
    for i, t in enumerate(traj.times):
        row = ([t] + list(traj.sigma[i]) + list(traj.sigma_rate[i])
               + list(traj.positions[i]) + list(traj.momenta[i])
               + [traj.norms[i], traj.phase_total[i],
                  traj.phase_geometric[i],
                  abs(traj.norms[i] ** 2 - 1.0)])
        lines.append(_csv_row(row))
    return "\n".join(lines) + "\n"


def _initial_state(config: ScenarioConfig,
                   dh: DrivenHamiltonian) -> WaveSection:
    t0 = dh.span[0]
    return WaveSection.gaussian(
        config.grid, center=config.initial_center,
        width=config.initial_width, momentum=config.initial_kick,
        time=t0, sigma=tuple(np.atleast_1d(dh.path.value(t0))))


def _ehrenfest_gaps(config, dh, traj):
    flow = classical_hamilton_flow(
        dh, ClassicalState(config.initial_center, config.initial_kick),
        steps=config.steps)
    t0, t1 = dh.span
    idx = np.rint((traj.times - t0) / ((t1 - t0) / config.steps)).astype(int)
    q_gap = float(np.max(np.abs(traj.positions - flow.positions[idx])))
    p_gap = float(np.max(np.abs(traj.momenta - flow.momenta[idx])))
    return {"max_position_gap": q_gap, "max_momentum_gap": p_gap,
            "classical_steps": int(config.steps)}


def _factor(dh, segments, made: dict) -> np.ndarray:
    """The geometric factor of ``dh`` at ``segments``, made once per run."""
    if segments not in made:
        made[segments] = geometric_factor(dh, segments=segments)
    return made[segments]


def _convergence_diag(dh, counts, made):
    factors = [_factor(dh, c, made) for c in counts]
    gaps = [float(np.linalg.norm(factors[i + 1] - factors[i]))
            for i in range(len(factors) - 1)]
    out = {"segment_counts": [int(c) for c in counts], "gaps": gaps}
    if len(gaps) >= 2 and gaps[1] > 0:
        out["ratio"] = gaps[0] / gaps[1]
    if len(factors) >= 3:
        # second-order stepping: eliminate the h^2 term two ways and
        # compare; agreement pins the extrapolated holonomy
        r_hi = factors[2] + (factors[2] - factors[1]) / 3.0
        r_lo = factors[1] + (factors[1] - factors[0]) / 3.0
        out["richardson_gap"] = float(np.linalg.norm(r_hi - r_lo))
    nontrivial = factors[-1] - np.eye(factors[-1].shape[0])
    out["holonomy_magnitude"] = float(np.linalg.norm(nontrivial))
    return out


def _reparam_diag(config, dh, made):
    base = _factor(dh, config.segments, made)
    warped_path = reparametrize_path(config.path, config.warp)
    dh_w = DrivenHamiltonian(config.bundle, warped_path,
                             config.hamiltonian, config.grid,
                             cover=config.cover)
    warped = geometric_factor(dh_w, segments=config.segments)
    return {"segments": int(config.segments),
            "difference": float(np.linalg.norm(base - warped))}


def run(config: ScenarioConfig, out_dir: str | Path,
        dump_unitary: bool = False, steps: int | None = None) -> RunReport:
    """Execute one scenario and write its artifacts under out_dir."""
    started = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if steps is not None:
        if steps < 1:
            raise RunError("setup", "steps override must be positive")
        config = dataclasses.replace(config, steps=int(steps))

    dh = _staged("assembly", config.driven)
    initial = _staged("assembly", _initial_state, config, dh)

    traj = _staged("propagation", propagate_state, dh, initial,
                   config.steps, record_every=config.record_every,
                   with_geometric=True)
    dense = _staged("unitary", evolve_time_ordered, dh,
                    config.unitary_steps, initial=initial)

    phases = {
        "total": float(traj.phase_total[-1]),
        "geometric": float(traj.phase_geometric[-1]),
        "total_coarse": dense.phase_total_unwrapped,
        "geometric_coarse": dense.phase_geometric_unwrapped,
    }
    phases["dynamic"] = phases["total"] - phases["geometric"]

    split = ehrenfest = convergence = reparam = None
    factors: dict[int, np.ndarray] = {}  # geometric factors of dh by segments
    if "diagnostics" in config.outputs:
        _, _, rep = _staged("diagnostics", split_evolution, dh, dense)
        split = {"commutator_max": float(rep.commutator_max),
                 "factorization_defect": float(rep.factorization_defect),
                 "commuting": bool(rep.commuting)}
    if "ehrenfest" in config.outputs:
        ehrenfest = _staged("classical", _ehrenfest_gaps, config, dh, traj)
    if "convergence" in config.outputs and config.segment_counts:
        convergence = _staged("convergence", _convergence_diag, dh,
                              config.segment_counts, factors)
    if "reparametrization" in config.outputs and config.warp is not None:
        reparam = _staged("reparametrization", _reparam_diag, config, dh,
                          factors)

    artifacts = {"report": "report.json"}
    if "expectations" in config.outputs or "phases" in config.outputs:
        csv_text = trajectory_csv(traj, config.bundle.n_parameters,
                                  config.bundle.n_fiber)
        (out / "trajectory.csv").write_text(csv_text)
        artifacts["trajectory"] = "trajectory.csv"
    if dump_unitary or "unitary" in config.outputs:
        write_matrix_dump(out / "unitary.bin", dense.unitary)
        artifacts["unitary"] = "unitary.bin"

    report = RunReport(
        scenario=config.name,
        n_parameters=config.bundle.n_parameters,
        n_fiber=config.bundle.n_fiber,
        steps=int(config.steps),
        unitary_steps=int(config.unitary_steps),
        static_collapse=bool(dense.static_collapse),
        rows=int(len(traj.times)),
        phases=phases,
        unitarity_defect=float(dense.unitarity_defect),
        max_step_hermiticity_defect=float(dense.max_step_hermiticity_defect),
        norm_drift=float(np.max(np.abs(traj.norms - 1.0))),
        tolerances={k: float(v) for k, v in sorted(config.tolerances.items())},
        artifacts=artifacts,
        split=split,
        ehrenfest=ehrenfest,
        convergence=convergence,
        reparametrization=reparam,
    )
    report.check_finite()
    report.wall_clock_seconds = time.perf_counter() - started
    (out / "report.json").write_text(report.to_json())
    return report
