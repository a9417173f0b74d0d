"""End-to-end acceptance runs with pinned tolerances.

Each test prints one ACCEPTANCE line (replayed in the terminal summary)
and asserts the same condition, so the suite fails loudly if any pinned
number drifts.  Preset runs are cached across tests; the first test
that needs a preset pays for it.
"""

import tempfile
import time

import numpy as np

from conftest import record_acceptance
from leafquant.bundle import BundleModel, ParameterPath, \
    prequant_curvature_check
from leafquant.evolution import DrivenHamiltonian, evolve_time_ordered, \
    geometric_factor, split_evolution
from leafquant.expressions import Const, Var
from leafquant.observables import PolynomialObservable
from leafquant.operators import FiberGrid
from leafquant.runner import run
from leafquant.scenarios import load_preset
from leafquant.verify import (verify_decomposition, verify_dirac,
                              verify_hermiticity)

_PRESETS = {}
_DIRAC = {}


def preset_report(name):
    if name not in _PRESETS:
        cfg = load_preset(name)
        out = tempfile.mkdtemp(prefix=f"acceptance_{name}_")
        started = time.perf_counter()
        rep = run(cfg, out)
        _PRESETS[name] = (cfg, rep, time.perf_counter() - started)
    return _PRESETS[name]


def dirac_results():
    if not _DIRAC:
        for r in verify_dirac():
            _DIRAC[r.name] = r
    return _DIRAC


def test_acceptance_dirac_symbol():
    r = dirac_results()["symbol_identity"]
    ok = r.measured <= 1e-12 and r.runtime < 5.0
    record_acceptance(
        "dirac_symbol", ok,
        f"max defect {r.measured:.2e} over 50 pairs x 100 points, "
        f"{r.runtime:.2f}s")
    assert r.measured <= 1e-12
    assert r.runtime < 5.0


def test_acceptance_dirac_grid():
    r = dirac_results()["grid_convergence"]
    ok = r.measured >= 3.5 and r.runtime < 30.0
    record_acceptance(
        "dirac_grid", ok,
        f"defect ratio {r.measured:.2f} for N 256 -> 512, {r.runtime:.2f}s")
    assert r.measured >= 3.5
    assert r.runtime < 30.0


def test_acceptance_hermiticity():
    started = time.perf_counter()
    results = verify_hermiticity()
    elapsed = time.perf_counter() - started
    worst = max(r.measured for r in results)
    ok = all(r.passed for r in results) and worst <= 1e-12 \
        and elapsed < 60.0
    record_acceptance(
        "hermiticity", ok,
        f"max defect {worst:.2e} over 100 affine + 20 polynomial, "
        f"{elapsed:.2f}s")
    assert worst <= 1e-12
    assert all(r.passed for r in results)
    assert elapsed < 60.0


def test_acceptance_decomposition():
    started = time.perf_counter()
    results = {r.name: r for r in verify_decomposition()}
    elapsed = time.perf_counter() - started
    partition = results["partition_sums"].measured
    recon = results["reconstruction"].measured
    ok = partition <= 1e-12 and recon <= 1e-12 and elapsed < 10.0
    record_acceptance(
        "decomposition", ok,
        f"partition {partition:.2e}, reconstruction {recon:.2e} on 200 "
        f"samples, {elapsed:.2f}s")
    assert partition <= 1e-12
    assert recon <= 1e-12
    assert elapsed < 10.0


def test_acceptance_prequantization_curvature():
    started = time.perf_counter()
    reports = [prequant_curvature_check(n) for n in (1, 2)]
    elapsed = time.perf_counter() - started
    ok = all(r.matches for r in reports) and elapsed < 1.0
    record_acceptance(
        "prequant_curvature", ok,
        f"symbolic identity exact for n = 1, 2, {elapsed:.3f}s")
    assert all(r.matches for r in reports)
    assert elapsed < 1.0


def test_acceptance_reparametrization():
    cfg, rep, elapsed = preset_report("reparam_pair")
    diff = rep.reparametrization["difference"]
    segments = rep.reparametrization["segments"]
    ok = diff <= 5e-6 and segments == 8192 and elapsed < 120.0
    record_acceptance(
        "reparametrization", ok,
        f"geometric factor difference {diff:.2e} at {segments} segments, "
        f"{elapsed:.1f}s")
    assert segments == 8192
    assert diff <= 5e-6
    assert elapsed < 120.0


def test_acceptance_flat_holonomy():
    cfg, rep, preset_elapsed = preset_report("flat_loop")
    started = time.perf_counter()
    dh = cfg.driven()
    eye = np.eye(cfg.grid.size)
    gap_fast = np.linalg.norm(
        geometric_factor(dh, segments=cfg.segments) - eye)

    # same constant components hidden behind a non-constant tree, so the
    # ordered product runs segment by segment instead of telescoping
    pad = Var("q1") - Var("q1")
    bundle = BundleModel(2, 1, ((Const(0.7) + pad, Const(-0.4)),))
    dh_seg = DrivenHamiltonian(bundle, cfg.path, cfg.hamiltonian, cfg.grid)
    gap_seg = np.linalg.norm(
        geometric_factor(dh_seg, segments=cfg.segments) - eye)
    elapsed = preset_elapsed + time.perf_counter() - started

    worst = max(gap_fast, gap_seg)
    ok = worst <= 1e-7 and elapsed < 60.0
    record_acceptance(
        "flat_holonomy", ok,
        f"|U_geo - I| telescoped {gap_fast:.2e}, segmented {gap_seg:.2e}, "
        f"{elapsed:.1f}s")
    assert gap_fast <= 1e-7
    assert gap_seg <= 1e-7
    assert elapsed < 60.0


def test_acceptance_nonabelian_holonomy():
    cfg, rep, elapsed = preset_report("nonabelian_loop")
    conv = rep.convergence
    ratio = conv["ratio"]
    richardson = conv["richardson_gap"]
    magnitude = conv["holonomy_magnitude"]
    ok = ratio >= 3.5 and richardson <= 1e-6 and magnitude > 1e-2 \
        and elapsed < 180.0
    record_acceptance(
        "nonabelian_holonomy", ok,
        f"doubling ratio {ratio:.2f}, Richardson gap {richardson:.2e}, "
        f"|U_geo - I| = {magnitude:.2f}, {elapsed:.1f}s")
    assert ratio >= 3.5
    assert richardson <= 1e-6
    assert magnitude > 1e-2
    assert elapsed < 180.0


def test_acceptance_ehrenfest():
    cfg, rep, elapsed = preset_report("driven_oscillator")
    assert cfg.grid.shape == (512,)
    assert cfg.steps == 10000
    assert cfg.path.span == (0.0, 10.0)
    q_gap = rep.ehrenfest["max_position_gap"]
    p_gap = rep.ehrenfest["max_momentum_gap"]
    ok = q_gap <= 1e-3 and p_gap <= 1e-3 and elapsed < 300.0
    record_acceptance(
        "ehrenfest", ok,
        f"classical gaps q {q_gap:.2e}, p {p_gap:.2e} over t in [0, 10] "
        f"at N=512, dt=1e-3, {elapsed:.1f}s")
    assert q_gap <= 1e-3
    assert p_gap <= 1e-3
    assert elapsed < 300.0


def test_acceptance_factorized_evolution():
    started = time.perf_counter()
    # dynamic operator built as the square of the displacement generator:
    # constant coupling 0.4 with unit-rate parameter gives G = 0.4 p_hat,
    # and the momentum-squared term with coefficient 0.16 quantizes to
    # exactly G^2, so the factorization must close to rounding
    bundle = BundleModel(1, 1, ((Const(0.4),),))
    path = ParameterPath.from_expressions([Var("t")], span=(0.0, 2.0))
    ham = PolynomialObservable(1, {(1, 1): Const(0.16)})
    dh = DrivenHamiltonian(bundle, path, ham, FiberGrid(128, 8.0))
    _, _, good = split_evolution(dh, evolve_time_ordered(dh, 64))
    commuting_elapsed = time.perf_counter() - started

    _, driven_rep, driven_elapsed = preset_report("driven_oscillator")
    split = driven_rep.split
    elapsed = commuting_elapsed  # the preset is shared with the
    # time-budgeted ehrenfest criterion; only the construction is new here
    ok = (good.commuting and good.factorization_defect <= 1e-8
          and not split["commuting"]
          and split["factorization_defect"] > 1e-3
          and elapsed < 120.0)
    record_acceptance(
        "factorized_evolution", ok,
        f"commuting defect {good.factorization_defect:.2e}, non-commuting "
        f"defect {split['factorization_defect']:.2e} reported, "
        f"{elapsed:.1f}s")
    assert good.commuting
    assert good.factorization_defect <= 1e-8
    assert not split["commuting"]
    assert split["factorization_defect"] > 1e-3
    assert elapsed < 120.0


def test_acceptance_unitarity_all_presets():
    defects = {}
    for name in ("flat_loop", "nonabelian_loop", "driven_oscillator",
                 "reparam_pair", "quartic_decomposition"):
        _, rep, _ = preset_report(name)
        defects[name] = rep.unitarity_defect
    worst = max(defects.values())
    ok = worst <= 1e-10
    record_acceptance(
        "unitarity", ok,
        f"max |U^dag U - I| = {worst:.2e} across {len(defects)} presets")
    for name, defect in defects.items():
        assert defect <= 1e-10, name
