"""Self-check suites behind the `verify` CLI subcommand.

Each suite probes one family of invariants with randomized inputs under
a fixed seed and returns CheckResult records carrying the measured
defect next to its threshold.  The suites are sized for desk hardware;
the heavier pinned-tolerance runs live with the bundled presets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bundle import (BundleModel, ParameterPath, prequant_curvature_check,
                     reparametrize_path)
from .evolution import (ClassicalState, DrivenHamiltonian,
                        classical_hamilton_flow, evolve_time_ordered,
                        geometric_factor, propagate_state)
from .expressions import Const, Var, parse_expr
from .observables import (BumpCover, CoverageError, PolynomialObservable,
                          decompose_polynomial)
from .operators import (FiberGrid, WaveSection, dirac_symbol_defect,
                        dirac_grid_defect, hermiticity_defect, quantizer)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "format_results",
           "verify_dirac", "verify_hermiticity", "verify_holonomy",
           "verify_ehrenfest", "verify_decomposition"]

_SEED = 20260823
_DIRAC_PAIRS, _DIRAC_POINTS = 50, 100
_AFFINE_COUNT, _POLY_COUNT = 100, 20
_DECOMPOSITION_SAMPLES = 200


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    measured: float
    threshold: float
    op: str = "<="
    runtime: float = 0.0
    detail: str = ""

    def line(self) -> str:
        state = "pass" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (f"[{state}] {self.suite}/{self.name}: "
                f"{self.measured:.3e} {self.op} {self.threshold:.1e} "
                f"in {self.runtime:.2f}s{extra}")


def _check(suite, name, measured, threshold, op="<=", started=None,
           detail=""):
    measured = float(measured)
    ok = measured <= threshold if op == "<=" else measured >= threshold
    rt = time.perf_counter() - started if started is not None else 0.0
    return CheckResult(suite, name, bool(ok), measured, float(threshold),
                       op, rt, detail)


# -- random inputs --------------------------------------------------------


def _rand_tree(rng, names, scale=1.0):
    """A smooth bounded expression in the given variables."""
    kind = rng.integers(0, 4)
    x = Var(str(rng.choice(names))) if names else Const(1.0)
    c = float(rng.uniform(-scale, scale))
    if kind == 0 or not names:
        return Const(c)
    if kind == 1:
        return Const(c) * x
    if kind == 2:
        w = float(rng.uniform(0.3, 1.2))
        return Const(c) * parse_expr(f"sin({w}*{x.name})", [x.name])
    return Const(c) * parse_expr(f"tanh({x.name})", [x.name])


def _rand_affine(rng, dim, names):
    coeffs = [_rand_tree(rng, names) for _ in range(dim)]
    return PolynomialObservable.affine(coeffs, _rand_tree(rng, names), dim)


def _rand_polynomial(rng, dim, max_degree, names):
    f = PolynomialObservable.zero(dim)
    for _ in range(rng.integers(2, 5)):
        deg = int(rng.integers(0, max_degree + 1))
        idx = tuple(sorted(rng.integers(1, dim + 1, size=deg)))
        f = f + PolynomialObservable(dim, {idx: _rand_tree(rng, names)})
    return f


def _bindings(rng, names, count):
    out = []
    for _ in range(count):
        out.append({name: float(rng.uniform(-2.0, 2.0)) for name in names})
    return out


# -- suites ---------------------------------------------------------------


def verify_dirac() -> list[CheckResult]:
    rng = np.random.default_rng(_SEED)
    results = []

    started = time.perf_counter()
    names = ["t", "s1", "s2", "q1", "q2"]
    worst = 0.0
    for _ in range(_DIRAC_PAIRS):
        f = _rand_affine(rng, 2, names)
        g = _rand_affine(rng, 2, names)
        worst = max(worst, dirac_symbol_defect(
            f, g, _bindings(rng, names, _DIRAC_POINTS)))
    results.append(_check("dirac", "symbol_identity", worst, 1e-12,
                          started=started,
                          detail=f"{_DIRAC_PAIRS} pairs x "
                                 f"{_DIRAC_POINTS} points"))

    started = time.perf_counter()
    rng2 = np.random.default_rng(_SEED + 1)
    f = _rand_affine(rng2, 1, ["q1"])
    g = _rand_affine(rng2, 1, ["q1"])
    defects = []
    for n_grid in (256, 512):
        grid = FiberGrid(n_grid, 10.0)
        state = WaveSection.gaussian(grid, center=0.4, width=1.1,
                                     momentum=0.3)
        defects.append(dirac_grid_defect(f, g, grid, state))
    ratio = defects[0] / defects[1] if defects[1] > 0 else np.inf
    results.append(_check("dirac", "grid_convergence", ratio, 3.5, op=">=",
                          started=started,
                          detail=f"defects {defects[0]:.2e} -> "
                                 f"{defects[1]:.2e}"))
    return results


def verify_hermiticity() -> list[CheckResult]:
    rng = np.random.default_rng(_SEED)
    results = []
    names = ["t", "s1", "q1"]

    started = time.perf_counter()
    grid = FiberGrid(512, 9.0)
    worst = 0.0
    for _ in range(_AFFINE_COUNT):
        f = _rand_affine(rng, 1, names)
        op = quantizer(f, grid).operator(float(rng.uniform(0, 2)),
                                         (float(rng.uniform(-1, 1)),))
        worst = max(worst, hermiticity_defect(op))
    results.append(_check("hermiticity", "affine_batch", worst, 1e-12,
                          started=started,
                          detail=f"{_AFFINE_COUNT} operators, N=512"))

    started = time.perf_counter()
    grid = FiberGrid(192, 9.0)
    covers = [None,
              BumpCover(1, (((-6.0, 13.0),), ((6.0, 13.0),))),
              BumpCover(1, (((-7.0, 9.0),), ((0.0, 9.0),), ((7.0, 9.0),)))]
    worst = 0.0
    for i in range(_POLY_COUNT):
        f = _rand_polynomial(rng, 1, 3, names)
        op = quantizer(f, grid, covers[i % len(covers)]).operator(
            0.3, (0.2,))
        worst = max(worst, hermiticity_defect(op))
    results.append(_check("hermiticity", "polynomial_batch", worst, 1e-12,
                          started=started,
                          detail=f"{_POLY_COUNT} operators, degree <= 3"))

    started = time.perf_counter()
    grid2 = FiberGrid((16, 16), 6.0)
    worst = 0.0
    for _ in range(5):
        f = _rand_polynomial(rng, 2, 3, ["t", "q1", "q2"])
        worst = max(worst, hermiticity_defect(
            quantizer(f, grid2).operator(0.1)))
    results.append(_check("hermiticity", "two_axis", worst, 1e-12,
                          started=started, detail="5 operators, 16x16"))
    return results


def _flat_bundle(force_general: bool = False) -> BundleModel:
    zero = Var("q1") - Var("q1")  # non-constant tree; defeats telescoping
    pad = zero if force_general else Const(0.0)
    return BundleModel(2, 1, ((Const(0.7) + pad, Const(-0.4)),))


def _circle_path(radius: float = 1.0) -> ParameterPath:
    two_pi = 2.0 * np.pi
    return ParameterPath.from_expressions(
        [parse_expr(f"{radius}*cos(t)", ["t"]),
         parse_expr(f"{radius}*sin(t)", ["t"])],
        span=(0.0, two_pi), closed=True)


def _nonabelian_dh(n_grid: int = 64, radius: float = 1.0,
                   half_width: float = 8.0) -> DrivenHamiltonian:
    bundle = BundleModel(2, 1, ((Const(1.0), Var("q1")),))
    return DrivenHamiltonian(bundle, _circle_path(radius),
                             PolynomialObservable(1, {}),
                             FiberGrid(n_grid, half_width))


def verify_holonomy() -> list[CheckResult]:
    results = []
    zero_h = PolynomialObservable(1, {})

    started = time.perf_counter()
    grid = FiberGrid(128, 8.0)
    eye = np.eye(grid.size)
    dh = DrivenHamiltonian(_flat_bundle(), _circle_path(0.5), zero_h, grid)
    gap = np.linalg.norm(geometric_factor(dh, segments=256) - eye)
    results.append(_check("holonomy", "flat_identity", gap, 1e-7,
                          started=started, detail="telescoped product"))

    started = time.perf_counter()
    dh = DrivenHamiltonian(_flat_bundle(force_general=True),
                           _circle_path(0.5), zero_h, grid)
    gap = np.linalg.norm(geometric_factor(dh, segments=512) - eye)
    results.append(_check("holonomy", "flat_identity_segmented", gap, 1e-7,
                          started=started, detail="512 segments"))

    started = time.perf_counter()
    dh = _nonabelian_dh(64)
    u = geometric_factor(dh, segments=512)
    defect = np.linalg.norm(u.conj().T @ u - np.eye(dh.grid.size))
    results.append(_check("holonomy", "unitary_product", defect, 1e-10,
                          started=started))

    started = time.perf_counter()
    mag = np.linalg.norm(u - np.eye(dh.grid.size))
    results.append(_check("holonomy", "nontrivial_loop", mag, 1e-2,
                          op=">=", started=started,
                          detail="coupling with a position component"))

    started = time.perf_counter()
    half = np.pi
    u_a = geometric_factor(dh, t_end=half, segments=256)
    u_b = geometric_factor(dh, t_start=half, segments=256)
    u_ab = geometric_factor(dh, segments=512)
    gap = np.linalg.norm(u_ab - u_b @ u_a)
    results.append(_check("holonomy", "loop_composition", gap, 1e-12,
                          started=started,
                          detail="aligned segment endpoints"))

    started = time.perf_counter()
    two_pi = 2.0 * np.pi
    # sigma(2 pi - t) mirrors each segment's midpoint and negates its
    # increment, so its transport is the inverse: an s-dependent
    # coupling catches a step binding that is not symmetric in time
    coupling = parse_expr("0.7*q1*(1 + s1)", ["q1", "s1"])
    bundle = BundleModel(2, 1, ((Const(1.0), coupling),))
    loop = _circle_path(1.0)
    back = ParameterPath.from_expressions(
        [c.substitute({"t": Const(two_pi) - Var("t")})
         for c in loop.components], span=loop.span, closed=True)
    u, u_back = (geometric_factor(DrivenHamiltonian(bundle, path, zero_h,
                                                    FiberGrid(64, 8.0)),
                                  segments=256) for path in (loop, back))
    gap = np.max(np.abs(u_back - u.conj().T))
    mag = np.linalg.norm(u - np.eye(len(u)))
    results.append(_check("holonomy", "path_reversal", gap, 1e-13,
                          started=started,
                          detail=f"s-dependent coupling, |U - I| {mag:.1f}"))

    started = time.perf_counter()
    warp = parse_expr(f"t + 0.5*t*({two_pi} - t)/{two_pi}", ["t"])
    dh_w = DrivenHamiltonian(dh.bundle, reparametrize_path(dh.path, warp),
                             zero_h, dh.grid)
    gap = np.linalg.norm(geometric_factor(dh, segments=1024)
                         - geometric_factor(dh_w, segments=1024))
    results.append(_check("holonomy", "reparam_coarse", gap, 1e-3,
                          started=started, detail="1024 segments"))

    started = time.perf_counter()
    reports = [prequant_curvature_check(1), prequant_curvature_check(2)]
    exact = 0.0 if all(r.matches for r in reports) else 1.0
    results.append(_check("holonomy", "prequantization_curvature", exact,
                          0.0, started=started,
                          detail="n = 1, 2 symbolic"))
    return results


def _driven_dh(n_grid: int, half_width: float, amp: float,
               t1: float) -> DrivenHamiltonian:
    bundle = BundleModel(1, 1, ((Const(1.0),),))
    path = ParameterPath.from_expressions(
        [parse_expr(f"{amp}*sin(t)", ["t"])], span=(0.0, t1))
    ham = PolynomialObservable(1, {(1, 1): Const(0.5),
                                   (): parse_expr("0.5*(q1 - s1)^2",
                                                  ["q1", "s1"])})
    return DrivenHamiltonian(bundle, path, ham, FiberGrid(n_grid, half_width))


def verify_ehrenfest() -> list[CheckResult]:
    results = []

    started = time.perf_counter()
    dh = _driven_dh(384, 6.0, 0.35, 4.0)
    initial = WaveSection.gaussian(dh.grid, center=0.12, width=1.2,
                                   momentum=-0.09, sigma=(0.0,))
    steps = 2500
    traj = propagate_state(dh, initial, steps, record_every=25,
                           with_geometric=False)
    flow = classical_hamilton_flow(dh, ClassicalState([0.12], [-0.09]),
                                   steps=steps)
    idx = np.rint(traj.times / (4.0 / steps)).astype(int)
    q_gap = np.max(np.abs(traj.positions[:, 0] - flow.positions[idx, 0]))
    p_gap = np.max(np.abs(traj.momenta[:, 0] - flow.momenta[idx, 0]))
    results.append(_check("ehrenfest", "position_track", q_gap, 1e-3,
                          started=started, detail="driven packet, t <= 4"))
    results.append(_check("ehrenfest", "momentum_track", p_gap, 1e-3))

    started = time.perf_counter()
    unit = evolve_time_ordered(_driven_dh(128, 6.0, 0.35, 2.0), 256)
    results.append(_check("ehrenfest", "unitarity", unit.unitarity_defect,
                          1e-10, started=started, detail="256 steps"))

    started = time.perf_counter()
    flow2 = classical_hamilton_flow(dh, ClassicalState([1.1], [0.4]),
                                    steps=4000)
    sig = dh.path.values(flow2.times)[:, 0]
    # q follows p plus the parameter drift, so the co-moving energy
    # (1/2)p^2 + (1/2)(q - sigma)^2 is an exact invariant of this flow
    energy = 0.5 * flow2.momenta[:, 0] ** 2 \
        + 0.5 * (flow2.positions[:, 0] - sig) ** 2
    gap = np.max(np.abs(energy - energy[0]))
    results.append(_check("ehrenfest", "classical_conservation", gap, 1e-8,
                          started=started, detail="co-moving RK4 energy"))
    return results


def verify_decomposition() -> list[CheckResult]:
    rng = np.random.default_rng(_SEED)
    results = []
    covers = {
        1: BumpCover(1, (((0.0, 14.0),),)),
        2: BumpCover(1, (((-6.0, 13.0),), ((6.0, 13.0),))),
        3: BumpCover(1, (((-7.0, 10.0),), ((0.0, 10.0),), ((7.0, 10.0),))),
    }
    qs = rng.uniform(-5.0, 5.0, size=(_DECOMPOSITION_SAMPLES, 1))
    ps = rng.uniform(-3.0, 3.0, size=(_DECOMPOSITION_SAMPLES, 1))

    started = time.perf_counter()
    worst = 0.0
    for d in range(2, 5):
        for cover in covers.values():
            part = cover.partition(d)
            total = sum(np.asarray(l.evaluate({"q1": qs[:, 0]}) ** d)
                        for l in part)
            worst = max(worst, float(np.max(np.abs(total - 1.0))))
    results.append(_check("decomposition", "partition_sums", worst, 1e-12,
                          started=started,
                          detail="powers 2-4, 1/2/3 charts"))

    started = time.perf_counter()
    worst = 0.0
    for deg in (2, 3, 4):
        for n_charts, cover in covers.items():
            f = _rand_polynomial(rng, 1, deg, ["t", "s1", "q1"])
            fact = decompose_polynomial(f, cover)
            worst = max(worst, fact.max_error(0.7, (0.4,), qs, ps))
    results.append(_check("decomposition", "reconstruction", worst, 1e-12,
                          started=started,
                          detail=f"{_DECOMPOSITION_SAMPLES} samples, "
                                 "degrees 2-4"))

    started = time.perf_counter()
    try:
        bad = BumpCover(1, (((-8.0, 2.0),), ((8.0, 2.0),)))
        bad.check_covers(np.zeros((1, 1)))
        measured = 1.0
    except CoverageError:
        measured = 0.0
    results.append(_check("decomposition", "gap_detected", measured, 0.0,
                          started=started,
                          detail="cover with a hole is rejected"))
    return results


_SUITES = {
    "dirac": verify_dirac,
    "hermiticity": verify_hermiticity,
    "holonomy": verify_holonomy,
    "ehrenfest": verify_ehrenfest,
    "decomposition": verify_decomposition,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, or all of them in a fixed order."""
    if name == "all":
        out = []
        for suite in SUITE_NAMES:
            out.extend(_SUITES[suite]())
        return out
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite '{name}'; valid suites: "
            f"{', '.join(SUITE_NAMES)}, all")
    return _SUITES[name]()


def format_results(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines)
