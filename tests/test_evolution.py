import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.special
from hypothesis import example, given, strategies as st

from leafquant import evolution, operators, runner
from leafquant.bundle import BundleModel, ParameterPath, reparametrize_path
from leafquant import expressions as ex
from leafquant.expressions import Const, Var, parse_expr
from leafquant.observables import (BumpCover, PolynomialObservable,
                                   hamiltonian_vector_field)
from leafquant.operators import (
    FiberGrid,
    WaveSection,
    quantize_affine_literal,
    quantizer,
)
from leafquant.evolution import (
    ClassicalState,
    DrivenHamiltonian,
    classical_hamilton_flow,
    evolve_time_ordered,
    geometric_factor,
    propagate_state,
    split_evolution,
)
from leafquant.scenarios import parse_scenario

P = PolynomialObservable
TWO_PI = 2.0 * np.pi


def c(x):
    return Const(float(x))


def expr(src, names):
    return parse_expr(src, allowed_vars=names)


def oscillator_dh(n_grid=128, half_width=8.0, amp=0.35, t1=10.0):
    """Driven well: H = p^2/2 + (q - s1)^2/2, one unit coupling axis."""
    bundle = BundleModel(1, 1, ((c(1.0),),))
    path = ParameterPath.from_expressions(
        [expr(f"{amp}*sin(t)", ["t"])], span=(0.0, t1))
    ham = P(1, {(1, 1): c(0.5),
                (): 0.5 * (Var("q1") - Var("s1")) ** 2})
    return DrivenHamiltonian(bundle, path, ham,
                             FiberGrid((n_grid,), (half_width,)))


def static_dh(n_grid=512, half_width=8.0, span=TWO_PI):
    bundle = BundleModel(1, 1, ((c(0.0),),))
    path = ParameterPath.from_expressions([c(0.0)], span=(0.0, span))
    ham = P(1, {(1, 1): c(0.5), (): 0.5 * Var("q1") ** 2})
    return DrivenHamiltonian(bundle, path, ham,
                             FiberGrid((n_grid,), (half_width,)))


def nonabelian_dh(n_grid=96, half_width=8.0):
    """Curvature-one connection over two parameters, no dynamic part."""
    bundle = BundleModel(2, 1, ((c(1.0), Var("q1")),))
    path = ParameterPath.from_expressions(
        [expr("cos(t)", ["t"]), expr("sin(t)", ["t"])],
        span=(0.0, TWO_PI), closed=True)
    return DrivenHamiltonian(bundle, path, P(1, {}),
                             FiberGrid((n_grid,), (half_width,)))


def sheared_loop_dh(slope, radius, n_grid=32, half_width=6.0):
    """Coupling (1, slope * q1) around a circle of the given radius."""
    bundle = BundleModel(2, 1, ((c(1.0), slope * Var("q1")),))
    path = ParameterPath.from_expressions(
        [expr(f"{radius!r}*cos(t)", ["t"]), expr(f"{radius!r}*sin(t)", ["t"])],
        span=(0.0, TWO_PI), closed=True)
    return DrivenHamiltonian(bundle, path, P(1, {}),
                             FiberGrid((n_grid,), (half_width,)))


def two_axis_dh():
    """Two fiber axes dragged along different constant couplings."""
    bundle = BundleModel(1, 2, ((c(1.0),), (c(0.5),)))
    path = ParameterPath.from_expressions([expr("0.2*sin(t)", ["t"])],
                                          span=(0.0, 1.0))
    ham = P(2, {(1, 1): c(0.5), (2, 2): c(0.5),
                (): 0.5 * (Var("q1") ** 2 + Var("q2") ** 2)})
    return DrivenHamiltonian(bundle, path, ham, FiberGrid((8, 8), (4.0, 4.0)))


# -- generators ----------------------------------------------------------


def generator(q, dh, t):
    """The fill of quantizer q at (t, sigma(t), sigma'(t))."""
    return q.operator(t, dh.path.value(t), dh.path.velocity(t))


def test_geometric_generator_direct_assembly():
    dh = nonabelian_dh(n_grid=64)
    t = np.pi / 4
    g = generator(dh.geometric_quantizer, dh, t).toarray()
    grid = dh.grid
    # the periodic central difference, entry by entry
    eye = np.eye(grid.size)
    d = (np.roll(eye, 1, axis=1) - np.roll(eye, -1, axis=1)) / (
        2.0 * grid.spacings[0])
    a = -np.sin(t) + np.cos(t) * grid.axis(0)
    manual = (-0.5j) * (d * (a[:, None] + a[None, :]))
    assert np.linalg.norm(g - manual) < 1e-12


def test_geometric_generator_constant_path_is_zero():
    dh = static_dh(n_grid=64)
    g = generator(dh.geometric_quantizer, dh, 1.0)
    assert np.linalg.norm(g.toarray()) == 0.0


def test_geometric_generator_unit_coupling_is_momentum():
    bundle = BundleModel(1, 1, ((c(1.0),),))
    path = ParameterPath.from_expressions([Var("t")], span=(0.0, 1.0))
    dh = DrivenHamiltonian(bundle, path, P(1, {}),
                           FiberGrid((64,), (5.0,)))
    g = generator(dh.geometric_quantizer, dh, 0.5).toarray()
    p_mat = quantizer(P.momentum(1, dim=1), dh.grid).operator().toarray()
    assert np.linalg.norm(g - p_mat) < 1e-13


def test_dynamic_operator_recentered_floor():
    dh = oscillator_dh(n_grid=256)
    for t in (0.0, 2.0, 7.0):
        op = generator(dh.dynamic_quantizer, dh, t)
        w = np.linalg.eigvalsh(op.toarray())
        assert abs(w[0] - 0.5) < 1e-3


def test_dynamic_operator_static_kinetic_cache():
    dh = oscillator_dh(n_grid=64)
    m0 = generator(dh.dynamic_quantizer, dh, 0.3).toarray()
    m1 = generator(dh.dynamic_quantizer, dh, 1.7).toarray()
    # the kinetic part is filled the same at every time, and only the
    # potential moves with the path
    gap = m0 - m1
    assert np.array_equal(gap, np.diag(np.diag(gap)))
    assert np.linalg.norm(gap) > 1e-3


def test_full_generator_is_sum():
    dh = oscillator_dh(n_grid=64)
    t = 0.9
    total = generator(dh.full_quantizer, dh, t).toarray()
    parts = (generator(dh.geometric_quantizer, dh, t).toarray()
             + generator(dh.dynamic_quantizer, dh, t).toarray())
    assert np.array_equal(total, parts)


def test_driven_hamiltonian_validation():
    bundle = BundleModel(1, 1, ((c(1.0),),))
    path = ParameterPath.from_expressions([c(0.0)], span=(0.0, 1.0))
    grid = FiberGrid((16,), (3.0,))
    with pytest.raises(ValueError, match="q2"):
        DrivenHamiltonian(bundle, path, P(1, {(): Var("q2")}), grid)
    with pytest.raises(ValueError, match="parameter count"):
        two = ParameterPath.from_expressions([c(0.0), c(0.0)],
                                             span=(0.0, 1.0))
        DrivenHamiltonian(bundle, two, P(1, {}), grid)


# -- time-ordered evolution ----------------------------------------------


def test_zero_hamiltonian_identity():
    bundle = BundleModel(1, 1, ((c(0.0),),))
    path = ParameterPath.from_expressions([c(0.0)], span=(0.0, 1.0))
    dh = DrivenHamiltonian(bundle, path, P(1, {}), FiberGrid((32,), (3.0,)))
    res = evolve_time_ordered(dh, steps=8)
    assert res.static_collapse
    assert np.linalg.norm(res.unitary - np.eye(32)) < 1e-13


def test_static_oscillator_ground_phase():
    dh = static_dh(n_grid=512, half_width=8.0)
    ws = WaveSection.gaussian(dh.grid, width=1.0)
    res = evolve_time_ordered(dh, steps=4096, initial=ws)
    assert res.static_collapse
    phase = np.angle(np.vdot(ws.values, res.final_state.values))
    assert min(abs(phase - np.pi), abs(phase + np.pi)) < 1e-3
    # the total phase, wrapped, is the final state's angle
    assert abs(np.angle(np.exp(1j * (res.phase_total_unwrapped - phase)))) \
        < 1e-9


def test_self_convergence_second_order():
    dh = oscillator_dh(n_grid=64, t1=2.0)
    us = [evolve_time_ordered(dh, steps=s).unitary
          for s in (64, 128, 256)]
    c1 = np.linalg.norm(us[1] - us[0])
    c2 = np.linalg.norm(us[2] - us[1])
    assert c1 / c2 > 3.5


def test_unitarity_defects():
    dh = oscillator_dh(n_grid=64, t1=2.0)
    res = evolve_time_ordered(dh, steps=128)
    assert res.unitarity_defect < 1e-10
    assert res.max_step_hermiticity_defect < 1e-12
    stat = evolve_time_ordered(static_dh(n_grid=64), steps=32)
    assert stat.unitarity_defect < 1e-10


def test_phase_unwrap_consistency():
    dh = oscillator_dh(n_grid=64, t1=3.0)
    ws = WaveSection.gaussian(dh.grid, width=1.0)
    res = evolve_time_ordered(dh, steps=256, initial=ws)
    wrapped = np.angle(np.vdot(ws.values, res.final_state.values))
    gap = (res.phase_total_unwrapped - wrapped) / TWO_PI
    assert abs(gap - round(gap)) < 1e-9


def test_aliased_drive_is_not_static():
    # the drive and its velocity vanish at all of 17 equally spaced times
    # in [0, 2 pi], yet the packet is dragged by up to 0.5
    bundle = BundleModel(1, 1, ((c(1.0),),))
    path = ParameterPath.from_expressions([expr("0.5*sin(8*t)^2", ["t"])],
                                          span=(0.0, TWO_PI))
    ham = P(1, {(1, 1): c(0.5), (): 0.5 * (Var("q1") - Var("s1")) ** 2})
    dh = DrivenHamiltonian(bundle, path, ham, FiberGrid((64,), (8.0,)))
    ws = WaveSection.gaussian(dh.grid, width=1.0)
    traj = propagate_state(dh, ws, steps=400)
    assert np.max(np.abs(traj.positions)) > 0.1
    res = evolve_time_ordered(dh, steps=400, initial=ws)
    assert not res.static_collapse
    assert np.linalg.norm(res.final_state.values
                          - traj.final_state.values) < 1e-9


def test_static_sampled_path_collapses():
    bundle = BundleModel(1, 1, ((c(1.0),),))
    flat = ParameterPath.from_samples(np.linspace(0.0, 1.0, 6),
                                      np.full(6, 0.25))
    bent = ParameterPath.from_samples(np.linspace(0.0, 1.0, 6),
                                      [0.25, 0.25, 0.25, 0.3, 0.25, 0.25])
    ham = P(1, {(1, 1): c(0.5), (): 0.5 * (Var("q1") - Var("s1")) ** 2})
    grid = FiberGrid((32,), (5.0,))
    assert evolve_time_ordered(DrivenHamiltonian(bundle, flat, ham, grid),
                               steps=4).static_collapse
    assert not evolve_time_ordered(DrivenHamiltonian(bundle, bent, ham, grid),
                                   steps=4).static_collapse


def test_window_validation():
    dh = oscillator_dh(n_grid=32, t1=1.0)
    with pytest.raises(ValueError, match="outside the path span"):
        evolve_time_ordered(dh, steps=4, t_end=2.0)
    with pytest.raises(ValueError, match="steps"):
        evolve_time_ordered(dh, steps=0)


def test_propagate_state_validates_record_every():
    dh = oscillator_dh(n_grid=32, t1=1.0)
    ws = WaveSection.gaussian(dh.grid)
    for every in (0, -2):
        with pytest.raises(ValueError, match="record_every"):
            propagate_state(dh, ws, steps=4, record_every=every)


def test_public_producers_return_bare_arrays():
    # quantized operators are CSR arrays; exponentials and their
    # products are ndarrays
    dh = oscillator_dh(n_grid=32, t1=1.0)
    g = dh.grid
    q = P.affine([Var("q1")], c(0.0), 1)
    for op in (quantizer(P(1, {(1, 1): Var("q1")}), g).operator(0.2),
               quantize_affine_literal(q, g),
               *(generator(q, dh, 0.3) for q in (dh.geometric_quantizer,
                                                 dh.dynamic_quantizer,
                                                 dh.full_quantizer))):
        assert type(op) is scipy.sparse.csr_array
        assert op.shape == (g.size, g.size)
    full = evolve_time_ordered(dh, steps=2)
    for u in (full.unitary, *split_evolution(dh, full)[:2],
              geometric_factor(dh, segments=4)):
        assert type(u) is np.ndarray
        assert u.shape == (g.size, g.size)


# -- geometric factor ----------------------------------------------------


def test_flat_loop_constant_coupling_identity():
    bundle = BundleModel(2, 1, ((c(0.7), c(-0.4)),))
    path = ParameterPath.from_expressions(
        [expr("0.5*cos(t)", ["t"]), expr("0.5*sin(t)", ["t"])],
        span=(0.0, TWO_PI), closed=True)
    dh = DrivenHamiltonian(bundle, path, P(1, {}), FiberGrid((64,), (6.0,)))
    u = geometric_factor(dh, segments=256)
    assert np.linalg.norm(u - np.eye(64)) < 1e-8


def test_flat_loop_general_route_identity():
    # same flat loop but with a non-constant zero tree for one slot, so
    # the commuting shortcut is bypassed and the segment product runs
    zero_tree = Var("q1") - Var("q1")
    bundle = BundleModel(2, 1, ((c(0.7), zero_tree),))
    path = ParameterPath.from_expressions(
        [expr("0.5*cos(t)", ["t"]), expr("0.5*sin(t)", ["t"])],
        span=(0.0, TWO_PI), closed=True)
    dh = DrivenHamiltonian(bundle, path, P(1, {}), FiberGrid((64,), (6.0,)))
    u = geometric_factor(dh, segments=128)
    assert np.linalg.norm(u - np.eye(64)) < 1e-8


def test_geometric_translation():
    bundle = BundleModel(1, 1, ((c(1.0),),))
    path = ParameterPath.from_expressions([Var("t")], span=(0.0, 0.8))
    grid = FiberGrid((512,), (10.0,))
    dh = DrivenHamiltonian(bundle, path, P(1, {}), grid)
    u = geometric_factor(dh, segments=64)
    ws = WaveSection.gaussian(grid, center=-1.0, width=1.0)
    shifted = u @ ws.values
    x = grid.axis(0)
    target = np.exp(-((x - 0.8 + 1.0) ** 2) / 2.0).astype(complex)
    target /= np.linalg.norm(target)
    shifted /= np.linalg.norm(shifted)
    # align the global phase before comparing
    ph = np.vdot(target, shifted)
    shifted *= np.conj(ph) / abs(ph)
    assert np.linalg.norm(shifted - target) < 1e-3


@example(slope=1.0, radius=1.0, split=(64, 32))
@given(slope=st.floats(0.2, 1.0), radius=st.floats(0.3, 1.0),
       split=st.integers(2, 64).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n - 1))))
def test_loop_composition_aligned(slope, radius, split):
    # the factor over n segments is the product of its factors over the
    # first k and the last n - k, whose segments are the same: the
    # composition law that the window of ``geometric_factor`` serves
    n, k = split
    dh = sheared_loop_dh(slope, radius)
    t0, t1 = dh.span
    cut = t0 + k * (t1 - t0) / n
    full = geometric_factor(dh, segments=n)
    first = geometric_factor(dh, t_end=cut, segments=k)
    second = geometric_factor(dh, t_start=cut, segments=n - k)
    assert np.linalg.norm(full - second @ first) < 1e-12


def test_nonabelian_holonomy_nontrivial_and_second_order():
    dh = nonabelian_dh(n_grid=96)
    us = [geometric_factor(dh, segments=s) for s in (128, 256, 512)]
    eye = np.eye(96)
    assert np.linalg.norm(us[-1] - eye) > 1e-2
    c1 = np.linalg.norm(us[1] - us[0])
    c2 = np.linalg.norm(us[2] - us[1])
    assert c1 / c2 > 3.5


def test_reparametrization_invariance_coarse():
    dh = nonabelian_dh(n_grid=48)
    warp = expr("t + 0.5*t*(6.283185307179586 - t)/6.283185307179586",
                ["t"])
    warped = DrivenHamiltonian(dh.bundle, reparametrize_path(dh.path, warp),
                               dh.hamiltonian, dh.grid)
    u0 = geometric_factor(dh, segments=512)
    u1 = geometric_factor(warped, segments=512)
    assert np.linalg.norm(u0 - u1) < 5e-3


def expm_segments(dh, times):
    """scipy expm of each transport segment over ``times``, G bound at
    the segment's midpoint and mean sigma to its increment."""
    sig = dh.path.values(times)
    for j in range(len(times) - 1):
        dsig = sig[j + 1] - sig[j]
        obs = P(dh.grid.dim, {
            (k + 1,): sum(float(w) * lam for w, lam in zip(dsig, row))
            for k, row in enumerate(dh.bundle.sigma_coupling)})
        h = quantizer(obs, dh.grid).operator(
            0.5 * (times[j] + times[j + 1]),
            0.5 * (sig[j] + sig[j + 1])).toarray()
        yield scipy.linalg.expm(-1j * h)


def expm_transport(dh, segments):
    """Per-segment scipy expm product over the same midpoint increments."""
    u = np.eye(dh.grid.size, dtype=complex)
    for step in expm_segments(dh, np.linspace(*dh.span, segments + 1)):
        u = step @ u
    return u


def unitarity_defect(u):
    return np.linalg.norm(u @ u.conj().T - np.eye(len(u)))


@pytest.mark.parametrize("n_grid,segments", [(96, 8), (96, 64), (256, 2)])
def test_transport_product_matches_expm(n_grid, segments):
    # at N = 256 each of two segments has tau ||h||_1 = 32: one Chebyshev
    # series of 69 terms, with no substeps
    dh = nonabelian_dh(n_grid=n_grid)
    u = geometric_factor(dh, segments=segments)
    assert np.linalg.norm(u - expm_transport(dh, segments)) < 1e-11
    assert unitarity_defect(u) <= 1e-12


def literal_rows(dh):
    """A stand-in for ``evolution._rows`` that fills G by the one-sided
    assembly, gauged: the real part of S h S^dagger, the one-sided
    -i a^k D_k + b, is not symmetric once the drift varies in q."""
    def rows(q, t, sigma, rate):
        for row in zip(t, sigma, rate):
            h = quantize_affine_literal(dh.geometric, dh.grid, *row)
            data = h.data * operators._phases(dh.grid, h.indptr, h.indices)
            yield scipy.sparse.csr_array((data.real, h.indices, h.indptr),
                                         shape=h.shape)
    return rows


def test_telescoped_transport_keeps_hermiticity_gate(monkeypatch):
    # a single parameter with a q-dependent coupling telescopes
    bundle = BundleModel(1, 1, ((Var("q1"),),))
    path = ParameterPath.from_expressions([expr("0.4*sin(t)", ["t"])],
                                          span=(0.0, 1.0))
    dh = DrivenHamiltonian(bundle, path, P(1, {}), FiberGrid((32,), (4.0,)))
    monkeypatch.setattr(evolution, "_rows", literal_rows(dh))
    with pytest.raises(RuntimeError, match="hermiticity"):
        geometric_factor(dh, segments=4)


def test_transport_product_keeps_hermiticity_gate(monkeypatch):
    # the product, the phase column and the state route's geometric
    # column all walk the transport through the one gate
    dh = nonabelian_dh(n_grid=48)
    initial = WaveSection.gaussian(dh.grid, center=0.3, momentum=0.7)
    monkeypatch.setattr(evolution, "_rows", literal_rows(dh))
    with pytest.raises(RuntimeError, match="hermiticity"):
        geometric_factor(dh, segments=4)
    with pytest.raises(RuntimeError, match="hermiticity"):
        evolution._transport_phases(dh, np.linspace(*dh.span, 5),
                                    initial.values)
    with pytest.raises(RuntimeError, match="hermiticity"):
        propagate_state(dh, initial, 64, with_geometric=True)


def noncommuting_dh(shape, coeffs, slope, radius, arc):
    """Two parameters on a (16,), (32,) or (8, 8) grid, each coupling
    component affine in q, the second parameter's sheared by ``slope``
    along q1, traced over an arc of the circle of the given radius."""
    n = len(shape)
    a, q = iter(coeffs), [Var(f"q{k + 1}") for k in range(n)]
    rows = tuple(tuple(c(next(a)) + sum((next(a) * x for x in q), c(0.0))
                       for _ in range(2)) for _ in range(n))
    rows = ((rows[0][0], rows[0][1] + slope * q[0]), *rows[1:])
    path = ParameterPath.from_expressions(
        [expr(f"{radius!r}*cos(t)", ["t"]), expr(f"{radius!r}*sin(t)", ["t"])],
        span=(0.0, arc))
    return DrivenHamiltonian(BundleModel(2, n, rows), path, P(n, {}),
                             FiberGrid(shape, (4.0,) * n))


# tau R reads 8.0 on the first example, 138 on the second and at most
# 0.0092 on the third
@example(shape=(8, 8), coeffs=[1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
         slope=1.0, radius=2.0, arc=TWO_PI, segments=2)
@example(shape=(32,), coeffs=[1.0] * 12, slope=1.0, radius=3.0, arc=3.5,
         segments=1)
@example(shape=(32,), coeffs=[0.5] * 12, slope=0.2, radius=0.05, arc=1.0,
         segments=64)
@given(shape=st.sampled_from([(16,), (32,), (8, 8)]),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
       slope=st.floats(0.2, 1.0), radius=st.floats(0.05, 3.0),
       arc=st.floats(1.0, TWO_PI), segments=st.integers(1, 64))
def test_chebyshev_transport_matches_expm(shape, coeffs, slope, radius, arc,
                                          segments):
    # the non-commuting product and phase column step each segment by one
    # real Chebyshev series over tau R from far below 1 to far above 2,
    # and neither reaches the Taylor series; the phases are those of a
    # kicked packet, against the packet carried by the same exponentials
    dh = noncommuting_dh(shape, coeffs, slope, radius, arc)
    assert not evolution._commuting_family(dh)
    times = np.linspace(*dh.span, segments + 1)
    psi0 = WaveSection.gaussian(dh.grid, center=0.3, width=1.0,
                                momentum=0.7).values
    u_ref, psi, args = np.eye(dh.grid.size, dtype=complex), psi0, [0.0]
    for step in expm_segments(dh, times):
        u_ref, psi = step @ u_ref, step @ psi
        args.append(np.angle(np.vdot(psi0, psi)))

    def no_series(*args):
        raise AssertionError("a transport walk reached the Taylor series")

    with mock.patch.object(evolution, "_taylor_apply", no_series):
        u = geometric_factor(dh, segments=segments)
        phases = evolution._transport_phases(dh, times, psi0)
    assert np.linalg.norm(u - u_ref) <= 1e-12
    assert unitarity_defect(u) <= 1e-12
    assert np.max(np.abs(phases - np.unwrap(args))) <= 1e-12


@pytest.mark.parametrize("x", [1e-20, 0.5, 2.0, 18.0, 60.0])
def test_chebyshev_terms_stop_at_the_smallest_bessel_tail(x):
    # K is the smallest order whose tail 2 sum_{k > K} |J_k(x)| meets
    # the bound, against a tail summed exactly over 400 orders
    full = scipy.special.jv(np.arange(400), x)
    tails = [2.0 * math.fsum(np.abs(full[k + 1:])) for k in range(400)]
    order = next(k for k, tail in enumerate(tails)
                 if tail <= evolution.TRANSPORT_TAIL_TOL)
    terms = evolution._chebyshev_terms(x)
    assert len(terms) == order + 1
    assert np.array_equal(terms, full[:order + 1])
    assert (order == 0) == (x == 1e-20)


def test_chebyshev_terms_raise_when_the_range_misses_the_bound(monkeypatch):
    # no tail over the orders read is exactly zero, so a zero bound is
    # never met, and the series is not cut short silently
    monkeypatch.setattr(evolution, "TRANSPORT_TAIL_TOL", 0.0)
    with pytest.raises(RuntimeError, match="does not reach its tail bound"):
        evolution._chebyshev_terms(2.0)


def test_zero_increment_segment_leaves_the_product_unchanged():
    # sigma(1) = sigma(2): the middle of three segments has no increment
    bundle = BundleModel(2, 1, ((c(1.0), 0.7 * Var("q1")),))
    path = ParameterPath.from_expressions(
        [expr("(t - 1)*(t - 2)", ["t"]), expr("t*(t - 1)*(t - 2)", ["t"])],
        span=(0.0, 3.0))
    dh = DrivenHamiltonian(bundle, path, P(1, {}), FiberGrid((32,), (4.0,)))
    middle = geometric_factor(dh, t_start=1.0, t_end=2.0, segments=1)
    assert np.array_equal(middle, np.eye(32))
    outer = (geometric_factor(dh, t_start=2.0, t_end=3.0, segments=1)
             @ geometric_factor(dh, t_start=0.0, t_end=1.0, segments=1))
    assert np.linalg.norm(geometric_factor(dh, segments=3) - outer) <= 1e-13


def commuting_dh(shape, two_parameters, coeffs, amp, freq):
    """A commuting family on a (16,) or (8, 8) grid: one parameter with
    couplings affine in q, or two parameters with constant couplings."""
    n = len(shape)
    a, q = iter(coeffs), [Var(f"q{k + 1}") for k in range(n)]
    if two_parameters:
        rows = tuple((c(next(a)), c(next(a))) for _ in range(n))
        comps = [f"{amp!r}*sin({freq!r}*t)", f"{amp!r}*(1 - cos(t))"]
    else:
        rows = tuple((c(next(a)) + sum((next(a) * x for x in q), c(0.0)),)
                     for _ in range(n))
        comps = [f"{amp!r}*sin({freq!r}*t) + 0.3*t"]
    path = ParameterPath.from_expressions([expr(x, ["t"]) for x in comps],
                                          span=(0.0, 1.5))
    return DrivenHamiltonian(BundleModel(len(comps), n, rows), path,
                             P(n, {}), FiberGrid(shape, (4.0,) * n))


@example(shape=(8, 8), two_parameters=True, coeffs=[1, 0, 0, 1, 0, 0],
         amp=0.5, freq=1.0, segments=16)
@given(shape=st.sampled_from([(16,), (8, 8)]), two_parameters=st.booleans(),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       amp=st.floats(0.2, 1.0), freq=st.floats(0.5, 2.0),
       segments=st.sampled_from([4, 16]))
def test_commuting_transport_matches_expm(shape, two_parameters, coeffs,
                                          amp, freq, segments):
    # a commuting family's U_geo and phase column come in closed form from
    # one joint eigenbasis: against per-segment exponentials, with one
    # eigh per DrivenHamiltonian and no Taylor series
    dh = commuting_dh(shape, two_parameters, coeffs, amp, freq)
    assert evolution._commuting_family(dh)
    times = np.linspace(*dh.span, segments + 1)
    psi0 = WaveSection.gaussian(dh.grid, center=0.3, width=1.0,
                                momentum=0.5).values
    u_ref, psi, args = np.eye(dh.grid.size, dtype=complex), psi0, [0.0]
    for step in expm_segments(dh, times):
        u_ref, psi = step @ u_ref, step @ psi
        args.append(np.angle(np.vdot(psi0, psi)))

    calls = []
    eigh = np.linalg.eigh

    def counted(m):
        calls.append(len(m))
        return eigh(m)

    def no_series(*args):
        raise AssertionError("a commuting family reached the Taylor series")

    with mock.patch.object(np.linalg, "eigh", counted), \
            mock.patch.object(evolution, "_taylor_apply", no_series):
        u = geometric_factor(dh, segments=segments)
        phases = evolution._transport_phases(dh, times, psi0)
        geometric_factor(dh, segments=2 * segments)
    assert calls == [dh.grid.size]
    assert np.linalg.norm(u - u_ref) <= 1e-12
    assert np.max(np.abs(phases - np.unwrap(args))) <= 1e-12


def test_joint_basis_residual_check_raises_off_a_commuting_family():
    # p and the symmetrized p q1 do not commute: no eigenbasis of
    # p + (p q1) / pi diagonalizes either, and the residual check says so
    dh = nonabelian_dh(n_grid=16)
    assert not evolution._commuting_family(dh)
    with pytest.raises(RuntimeError, match="not diagonal in the joint basis"):
        evolution._commuting_basis(dh)


@given(slope=st.floats(0.2, 1.0), radius=st.floats(0.3, 1.0))
def test_loop_factor_unitary_and_matches_expm(slope, radius):
    dh = sheared_loop_dh(slope, radius)
    u = geometric_factor(dh, segments=32)
    assert unitarity_defect(u) <= 1e-12
    assert np.linalg.norm(u - expm_transport(dh, 32)) < 1e-11


@given(size=st.floats(0.2, 0.9), sign=st.sampled_from([-1.0, 1.0]),
       slope=st.floats(0.2, 1.0), radius=st.floats(0.3, 1.0))
def test_loop_factor_invariant_under_monotone_warp(size, sign, slope,
                                                   radius):
    # w(t) = t + a t (2 pi - t) / 2 pi is monotone for |a| < 1 and traces
    # the same loop: the factors differ only by segment error, which
    # falls as segments^-2
    dh = sheared_loop_dh(slope, radius)
    warp = expr(f"t + {sign * size!r}*t*({TWO_PI!r} - t)/{TWO_PI!r}", ["t"])
    warped = DrivenHamiltonian(dh.bundle, reparametrize_path(dh.path, warp),
                               dh.hamiltonian, dh.grid)
    gap = [np.linalg.norm(geometric_factor(dh, segments=s)
                          - geometric_factor(warped, segments=s))
           for s in (32, 64)]
    assert 3.5 <= gap[0] / gap[1] <= 4.5


def test_run_builds_each_geometric_factor_once(tmp_path, monkeypatch):
    config = parse_scenario({
        "dims": {"m": 2, "n": 1},
        "connection": {"lambda": [["1", "0.5*q1"]]},
        "path": {"kind": "closed_form",
                 "components": ["0.5*cos(t)", "0.5*sin(t)"],
                 "span": [0.0, 6.283185307179586], "closed": True},
        "hamiltonian": [],
        "grid": {"N": 16, "L": 5.0},
        "integrator": {"steps": 8, "unitary_steps": 4, "segments": 16,
                       "segment_counts": [4, 8, 16]},
        "initial": {"center": 0.1, "width": 1.0, "kick": 0.0},
        "reparam": {"warp": "t + 0.5*t*(6.283185307179586 - t)"
                            "/6.283185307179586"},
        "outputs": ["convergence", "reparametrization"],
    })
    made = []

    def counted(dh, *args, **kwargs):
        made.append((dh.path is config.path, kwargs["segments"]))
        return geometric_factor(dh, *args, **kwargs)

    monkeypatch.setattr(runner, "geometric_factor", counted)
    runner.run(config, tmp_path)
    assert sorted(made) == [(False, 16), (True, 4), (True, 8), (True, 16)]


def test_geometric_phase_abelian_oracle():
    # G = increment * p-hat, so the transport is a pure translation by
    # the parameter increment; on a kicked packet the phase is -k*delta.
    amp, kick, t1 = 0.35, 0.5, 1.0
    dh = oscillator_dh(n_grid=256, t1=t1)
    ws = WaveSection.gaussian(dh.grid, width=1.0, momentum=kick)
    u_geo = geometric_factor(dh, segments=64)
    delta = amp * np.sin(t1)
    phase = np.angle(np.vdot(ws.values, u_geo @ ws.values))
    assert phase == pytest.approx(-kick * delta, abs=2e-3)


def test_coarse_geometric_phase_unwrapped_on_commuting_family():
    # the telescoped factor alone reads the wrapped angle, 2 pi above the
    # fine-step column here; the kicked packet turns by -k * delta sigma
    dh = oscillator_dh(n_grid=256, half_width=8.0, amp=1.0, t1=1.5)
    ws = WaveSection.gaussian(dh.grid, width=1.0, momentum=4.0)
    res = evolve_time_ordered(dh, steps=16, initial=ws)
    fine = propagate_state(dh, ws, steps=200).phase_geometric[-1]
    assert fine == pytest.approx(-4.0 * np.sin(1.5), abs=0.1)
    assert res.phase_geometric_unwrapped == pytest.approx(fine, abs=1e-3)
    u_geo = geometric_factor(dh, segments=16)
    wrapped = np.angle(np.vdot(ws.values, u_geo @ ws.values))
    gap = (res.phase_geometric_unwrapped - wrapped) / TWO_PI
    assert gap == pytest.approx(round(gap), abs=1e-12)


@example(kick=0.5, slope=1.0, radius=1.0)
@example(kick=1.5, slope=1.0, radius=1.0)
@given(kick=st.floats(0.2, 2.0), slope=st.floats(0.2, 1.0),
       radius=st.floats(0.3, 1.0))
def test_coarse_geometric_phase_lifts_the_transported_angle(kick, slope,
                                                            radius):
    # the coarse phase is the unwrapped angle of the packet carried
    # through the segments of U_geo, so it differs from the angle of
    # U_geo alone by whole turns; it tracks the fine-step column up to
    # the segment error, which falls as segments^-2 (at most 3.9e-3 on a
    # grid of this domain at 128 segments against 512 steps)
    dh = sheared_loop_dh(slope, radius, n_grid=64, half_width=8.0)
    ws = WaveSection.gaussian(dh.grid, width=1.0, momentum=kick)
    res = evolve_time_ordered(dh, steps=128, initial=ws)
    u_geo = geometric_factor(dh, segments=128)
    wrapped = np.angle(np.vdot(ws.values, u_geo @ ws.values))
    turns = (res.phase_geometric_unwrapped - wrapped) / TWO_PI
    assert turns == pytest.approx(round(turns), abs=1e-9)
    fine = propagate_state(dh, ws, steps=512).phase_geometric[-1]
    assert res.phase_geometric_unwrapped == pytest.approx(fine, abs=1e-2)


@example(kick=0.5, slope=1.0, radius=1.0)
@given(kick=st.floats(0.2, 2.0), slope=st.floats(0.2, 1.0),
       radius=st.floats(0.3, 1.0))
def test_pure_transport_total_phase_is_geometric_phase(kick, slope, radius):
    # with no Hamiltonian each step of H* is the transport increment of
    # its segment, so the two phase columns are one
    dh = sheared_loop_dh(slope, radius)
    ws = WaveSection.gaussian(dh.grid, width=1.0, momentum=kick)
    traj = propagate_state(dh, ws, steps=64)
    assert np.max(np.abs(traj.phase_total - traj.phase_geometric)) <= 1e-12


def test_one_path_read_per_window(monkeypatch):
    # every step, segment and sample binds its rows from one read of
    # sigma at the window's times; no loop reads sigma'
    reads = []
    for name in ("values", "velocities"):
        def counted(self, ts, name=name, read=getattr(ParameterPath, name)):
            reads.append(name)
            return read(self, ts)
        monkeypatch.setattr(ParameterPath, name, counted)
    dh = oscillator_dh(n_grid=32, t1=1.0)
    ws = WaveSection.gaussian(dh.grid, width=1.0, momentum=0.3)
    full = evolve_time_ordered(dh, 8, initial=ws)
    assert not full.static_collapse
    # U and the coarse phase's segments
    assert reads == ["values"] * 2
    split_evolution(dh, full)
    # the commutator samples, the telescoped U_geo and U_dyn
    assert reads == ["values"] * 5


def _transport_products(tmp_path, monkeypatch, outputs):
    """Segment counts of every ``_geometric_product`` call in one run."""
    config = parse_scenario({
        "dims": {"m": 1, "n": 1},
        "connection": {"lambda": [["1"]]},
        "path": {"kind": "closed_form", "components": ["0.3*sin(t)"],
                 "span": [0.0, 1.0]},
        "hamiltonian": [{"index": [1, 1], "coeff": "0.5"},
                        {"index": [], "coeff": "0.5*(q1 - s1)^2"}],
        "grid": {"N": 16, "L": 5.0},
        "integrator": {"steps": 8, "unitary_steps": 4},
        "initial": {"center": 0.1, "width": 1.0, "kick": 0.2},
        "outputs": outputs,
    })
    calls = []
    product = evolution._geometric_product

    def counted(*args, **kwargs):
        calls.append(len(args[1]) - 1)
        return product(*args, **kwargs)

    monkeypatch.setattr(evolution, "_geometric_product", counted)
    report = runner.run(config, tmp_path)
    return calls, report


def test_diagnostics_run_forms_the_transport_product_once(tmp_path,
                                                           monkeypatch):
    calls, report = _transport_products(tmp_path, monkeypatch,
                                        ["diagnostics"])
    assert calls == [4]
    assert report.split is not None


def test_run_without_diagnostics_forms_no_transport_product(tmp_path,
                                                            monkeypatch):
    # only the split reads U_geo, so the dense pass does not form it
    calls, report = _transport_products(tmp_path, monkeypatch, [])
    assert calls == []
    assert report.split is None


# -- factorization -------------------------------------------------------


@example(coupling=0.4, linear=True, amp=1.0, freq=1.0, k0=1.0, wobble=0.0,
         t1=1.0, steps=64)
@example(coupling=0.7, linear=False, amp=0.5, freq=1.3, k0=1.0, wobble=0.5,
         t1=2.0, steps=16)
@given(coupling=st.floats(0.1, 1.5), linear=st.booleans(),
       amp=st.floats(0.1, 1.0), freq=st.floats(0.5, 3.0),
       k0=st.floats(0.5, 1.5), wobble=st.floats(0.0, 0.9),
       t1=st.floats(0.5, 3.0), steps=st.sampled_from([8, 16, 32]))
def test_split_commuting_asserts_and_passes(coupling, linear, amp, freq, k0,
                                            wobble, t1, steps):
    # a constant coupling commutes with a kinetic term whatever the path:
    # each dense step carries the increment G(delta sigma) that U_geo
    # telescopes, so U = U_geo U_dyn to rounding
    drive = "t" if linear else f"{amp!r}*sin({freq!r}*t)"
    bundle = BundleModel(1, 1, ((c(coupling),),))
    path = ParameterPath.from_expressions([expr(drive, ["t"])],
                                          span=(0.0, t1))
    ham = P(1, {(1, 1): expr(f"{0.5 * k0!r}*(1 + {wobble!r}*sin(t))",
                             ["t"])})
    dh = DrivenHamiltonian(bundle, path, ham, FiberGrid((32,), (5.0,)))
    u_geo, u_dyn, report = split_evolution(dh, evolve_time_ordered(dh, steps))
    assert report.commuting
    assert report.commutator_max <= 1e-10
    assert report.factorization_defect <= 1e-8


def expm_steps(q, dh, times):
    """Per-step scipy expm product of the complex generators of ``q``,
    bound at each step's midpoint, mean sigma and delta sigma / dt."""
    dt = times[1] - times[0]
    sig = dh.path.values(times)
    u = np.eye(dh.grid.size, dtype=complex)
    for j in range(len(times) - 1):
        h = q.operator(0.5 * (times[j] + times[j + 1]),
                       0.5 * (sig[j] + sig[j + 1]),
                       (sig[j + 1] - sig[j]) / dt).toarray()
        u = scipy.linalg.expm(-1j * dt * h) @ u
    return u


@given(amp=st.floats(0.1, 1.0), freq=st.floats(0.5, 2.0),
       kin=st.floats(0.3, 1.0), wobble=st.floats(0.0, 0.5),
       coupling=st.floats(0.2, 1.0), t1=st.floats(0.5, 2.0),
       steps=st.sampled_from([3, 4, 8]))
def test_dense_pass_matches_expm_product(amp, freq, kin, wobble, coupling,
                                         t1, steps):
    # the gauged real route against complex exponentials formed here: on
    # a driven 1-D well with a position-dependent coupling, on an 8 x 10
    # grid (each axis a different residue mod 4) with a p1 p2 term, and
    # on a static window, whose one step is taken to the power
    path = ParameterPath.from_expressions(
        [expr(f"{amp!r}*sin({freq!r}*t)", ["t"])], span=(0.0, t1))
    q1, q2, s1 = Var("q1"), Var("q2"), Var("s1")
    one = DrivenHamiltonian(
        BundleModel(1, 1, ((c(coupling) + 0.2 * q1,),)), path,
        P(1, {(1, 1): expr(f"{kin!r}*(1 + {wobble!r}*sin(t))", ["t"]),
              (): 0.5 * (q1 - s1) ** 2}), FiberGrid((32,), (5.0,)))
    two = DrivenHamiltonian(
        BundleModel(1, 2, ((c(coupling),), (c(0.5),))), path,
        P(2, {(1, 1): c(0.5 * kin), (2, 2): c(0.5),
              (1, 2): wobble * expr("cos(t)", ["t"]),
              (): 0.5 * (q1 ** 2 + q2 ** 2) - s1 * q2}),
        FiberGrid((8, 10), (3.0, 3.5)))
    static = static_dh(n_grid=32, half_width=5.0, span=t1)
    for dh in (one, two, static):
        full = evolve_time_ordered(dh, steps)
        assert full.static_collapse == (dh is static)
        u_dyn = split_evolution(dh, full)[1]
        for u, q in ((full.unitary, dh.full_quantizer),
                     (u_dyn, dh.dynamic_quantizer)):
            assert np.linalg.norm(u - expm_steps(q, dh, full.times)) <= 1e-11
            assert unitarity_defect(u) <= 1e-12


COVERS = {1: BumpCover(1, (((-3.0, 7.0),), ((3.0, 7.0),))),
          2: BumpCover(2, (((-2.0, 7.0), (0.0, 7.0)),
                           ((2.0, 7.0), (0.5, 7.0))))}


def even_degree_dh(shape, h, cross, covered, drift, odd):
    """A driven H with t-, s1- and q-dependent kinetic coefficients, an
    optional p1 p2 cross term (two axes), bump cover, frame drift and
    odd term p1^3, dragged by s1 = 0.3 sin(t) under unit couplings."""
    n = len(shape)
    q = [Var(f"q{k + 1}") for k in range(n)]
    t, s1 = Var("t"), Var("s1")
    terms = {(k + 1, k + 1): 0.5 + 0.1 * h[0] * q[k] ** 2 + h[1] * s1 * t
             for k in range(n)}
    terms[()] = 0.5 * sum(((x - s1) ** 2 for x in q), Const(0.0))
    if cross and n == 2:
        terms[(1, 2)] = h[2] * expr("cos(t + q1)", ["t", "q1"])
    if odd:
        terms[(1, 1, 1)] = 0.05 * h[3] * q[-1]
    bundle = BundleModel(1, n, tuple((c(1.0),) for _ in range(n)),
                         tuple(0.2 * t * x for x in q) if drift else ())
    path = ParameterPath.from_expressions([expr("0.3*sin(t)", ["t"])],
                                          span=(0.0, 1.0))
    return DrivenHamiltonian(bundle, path, P(n, terms),
                             FiberGrid(shape, (3.0,) * n),
                             COVERS[n] if covered else None)


@example(shape=(8, 10), h=[0.5, -0.4, 0.3, 0.2], cross=True, covered=True,
         drift=False, odd=False, dt=1.0 / 3.0)
@example(shape=(16,), h=[0.5, -0.4, 0.3, 0.2], cross=False, covered=False,
         drift=False, odd=False, dt=0.2)
@example(shape=(8, 8), h=[0.5, -0.4, 0.3, 0.2], cross=True, covered=False,
         drift=True, odd=False, dt=0.2)
@example(shape=(10,), h=[0.5, -0.4, 0.3, 0.2], cross=False, covered=True,
         drift=False, odd=True, dt=0.2)
@given(shape=st.sampled_from([(10,), (16,), (8, 8), (8, 10)]),
       h=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       cross=st.booleans(), covered=st.booleans(), drift=st.booleans(),
       odd=st.booleans(), dt=st.floats(0.05, 1.0 / 3.0))
def test_parity_blocks_match_the_full_exponential(shape, h, cross, covered,
                                                  drift, odd, dt):
    # an H' of even momentum degree joins no index of even j1 + ... + jn
    # to one of odd, so each step is two blocks with their own
    # eigenbases; frame drift or an odd term makes it one block
    dh = even_degree_dh(shape, h, cross, covered, drift, odd)
    q = dh.dynamic_quantizer
    even = not (drift or odd)
    assert q.parts == (operators._parity(dh.grid) if even
                       else (slice(None),))
    j = np.indices(shape).sum(axis=0).ravel() % 2
    joins = j[:, None] != j
    times = np.linspace(0.0, 3.0 * dt, 4)
    sig = dh.path.values(times)
    psi = WaveSection.gaussian(dh.grid, center=0.3, width=1.0,
                               momentum=0.5).values
    for r in range(3):
        bound = (0.5 * (times[r] + times[r + 1]), 0.5 * (sig[r] + sig[r + 1]),
                 (sig[r + 1] - sig[r]) / dt)
        row = q.block(*([b] for b in bound))[0]
        if even:
            assert not q.csr(row).toarray()[joins].any()
        blocks, _ = evolution._eigh(q.csr(row), q.mirror, q.parts)
        u = evolution._ungauged(evolution._assembled(q.parts, [
            evolution._exponential(v, np.exp(-1j * dt * w))
            for _, w, v in blocks]), dh.grid)
        ref = scipy.linalg.expm(-1j * dt * q.operator(*bound).toarray())
        assert np.linalg.norm(u - ref) <= 1e-12
    u, _, final, _ = evolution._step_product(q, dh, times, False, psi)
    ref = expm_steps(q, dh, times)
    assert np.linalg.norm(u - ref) <= 1e-12
    assert np.linalg.norm(final - ref @ psi) <= 1e-12


def dense_2d_dh(drift):
    """8 x 8 grid shaped like the ``dense_2d`` workload: identity
    coupling around a circle and H = (p1^2 + p2^2)/2 + 0.3 s1 p1 p2 +
    |q - s|^2 / 8, with a frame drift when ``drift``."""
    q1, q2, s1, s2 = Var("q1"), Var("q2"), Var("s1"), Var("s2")
    bundle = BundleModel(2, 2, ((c(1.0), c(0.0)), (c(0.0), c(1.0))),
                         (0.2 * q2, c(0.1)) if drift else ())
    path = ParameterPath.from_expressions(
        [expr("0.5*cos(t)", ["t"]), expr("0.5*sin(t)", ["t"])],
        span=(0.0, TWO_PI), closed=True)
    ham = P(2, {(1, 1): c(0.5), (2, 2): c(0.5), (1, 2): 0.3 * s1,
                (): ((q1 - s1) ** 2 + (q2 - s2) ** 2) / 8.0})
    return DrivenHamiltonian(bundle, path, ham, FiberGrid((8, 8), (5.0, 5.0)))


def test_parity_blocks_halve_the_dynamic_eigh():
    # the sizes of every eigh: U of H* = G + H' at N, since the coupling
    # G has degree 1; U_dyn of an even-degree H' at N / 2, one call per
    # parity and step; a frame drift gives H' degree 1 and keeps it at N
    sizes = []
    eigh = np.linalg.eigh

    def counted(m):
        sizes.append(len(m))
        return eigh(m)

    for drift in (False, True):
        dh = dense_2d_dh(drift)
        n, steps = dh.grid.size, 4
        # the joint basis of the commuting couplings is built beforehand
        dh.commuting_basis
        with mock.patch.object(np.linalg, "eigh", counted):
            full = evolve_time_ordered(dh, steps)
            assert sizes == [n] * steps
            sizes.clear()
            split_evolution(dh, full)
        assert sizes == ([n] * steps if drift else [n // 2] * (2 * steps))
        sizes.clear()


def test_split_noncommuting_reports_without_asserting():
    dh = oscillator_dh(n_grid=48, t1=2.0)
    u_geo, u_dyn, report = split_evolution(dh, evolve_time_ordered(dh, 64))
    assert not report.commuting
    assert report.commutator_max > 1e-3
    assert np.isfinite(report.factorization_defect)


@pytest.mark.parametrize("path, potential", [
    ({"kind": "samples", "times": np.linspace(0.0, 4.0, 65).tolist(),
      "values": [[0.3 * (j % 2)] for j in range(65)]}, "0.5*q1^2"),
    ({"kind": "closed_form", "components": ["0.3*t"], "span": [0.0, 4.0]},
     "0.5*cos(8*3.141592653589793*t)^2*q1^2"),
], ids=["transport_zero_at_every_sample", "commutator_zero_at_every_sample"])
def test_split_verdict_read_from_the_definitions(tmp_path, path, potential):
    # two non-commuting families whose commutator samples all read zero:
    # the knots at the sample times are all 0, so every sampled increment
    # is; or the potential vanishes at every sample midpoint.  The
    # verdict comes from the definitions, so each run reports its defect
    # instead of raising
    config = parse_scenario({
        "dims": {"m": 1, "n": 1},
        "connection": {"lambda": [["1"]]},
        "path": path,
        "hamiltonian": [{"index": [1, 1], "coeff": "0.5"},
                        {"index": [], "coeff": potential}],
        "grid": {"N": 16, "L": 5.0},
        "integrator": {"steps": 64, "unitary_steps": 64},
        "initial": {"center": 0.5, "width": 1.0, "kick": 0.2},
        "outputs": ["diagnostics"],
    })
    assert not evolution._split_commutes(config.driven())
    split = runner.run(config, tmp_path).split
    assert split["commuting"] is False
    assert split["commutator_max"] == 0.0
    assert split["factorization_defect"] > evolution.SPLIT_TOL


# -- state propagation ---------------------------------------------------


@pytest.mark.parametrize("make_dh", [
    lambda: oscillator_dh(n_grid=64, t1=1.0),
    lambda: nonabelian_dh(n_grid=64),
    two_axis_dh,
], ids=["unit_coupling", "q_dependent_coupling", "two_axis"])
def test_propagate_matches_dense_evolution(make_dh):
    dh = make_dh()
    # the kick keeps <psi0|psi(t)> off the real axis: exp(-i t G) of a
    # drift generator alone is a real matrix, and the unwrapped phase of
    # a real overlap that changes sign is +pi or -pi depending on rounding
    ws = WaveSection.gaussian(dh.grid, width=1.0, momentum=0.3)
    traj = propagate_state(dh, ws, steps=200)
    dense = evolve_time_ordered(dh, steps=200, initial=ws)
    assert np.linalg.norm(traj.final_state.values
                          - dense.final_state.values) < 1e-9
    assert abs(traj.norms[-1] - 1.0) < 1e-10
    gap = traj.phase_total[-1] - dense.phase_total_unwrapped
    assert abs(gap) < 1e-8


def test_propagate_sigma_dependent_kinetic_matches_dense():
    # a sigma-dependent kinetic coefficient defeats the static cache of
    # the momentum-quadratic part, which is then quantized at every step
    bundle = BundleModel(1, 1, ((c(0.0),),))
    path = ParameterPath.from_expressions([expr("0.1*t", ["t"])],
                                          span=(0.0, 1.0))
    ham = P(1, {(1, 1): 0.5 * (1.0 + 0.2 * Var("s1")),
                (): 0.5 * Var("q1") ** 2})
    dh = DrivenHamiltonian(bundle, path, ham, FiberGrid((48,), (6.0,)))
    ws = WaveSection.gaussian(dh.grid, width=1.0)
    traj = propagate_state(dh, ws, steps=100)
    dense = evolve_time_ordered(dh, steps=100, initial=ws)
    assert np.linalg.norm(traj.final_state.values
                          - dense.final_state.values) < 1e-9


def assert_propagation_matches_dense(dh, steps):
    ws = WaveSection.gaussian(dh.grid, width=1.0, momentum=0.3)
    traj = propagate_state(dh, ws, steps=steps)
    dense = evolve_time_ordered(dh, steps=steps, initial=ws)
    assert np.linalg.norm(traj.final_state.values
                          - dense.final_state.values) < 1e-9
    gap = traj.phase_total[-1] - dense.phase_total_unwrapped
    assert abs(gap) < 1e-8
    # every drive here has one parameter, so the family commutes: the
    # transport to t_j is exp(-i (sigma_j - sigma_0) A), with A the
    # coupling operator at unit rate, and the column is its unwrapped
    # angle on the initial state
    a = dh.geometric_quantizer.operator(0.0, dh.path.value(0.0),
                                        np.ones(1)).toarray()
    w, v = np.linalg.eigh(a)
    weights = np.abs(v.conj().T @ ws.values) ** 2
    shift = dh.path.values(traj.times)[:, 0] - dh.path.value(traj.times[0])
    want = np.unwrap(np.angle(np.exp(-1j * np.outer(shift, w)) @ weights))
    assert np.max(np.abs(traj.phase_geometric - want)) < 1e-8


@given(amp=st.floats(0.05, 0.5), freq=st.floats(0.5, 2.0),
       slope=st.floats(-0.5, 0.5))
def test_propagate_matches_dense_on_random_drives(amp, freq, slope):
    drive = ParameterPath.from_expressions(
        [expr(f"{amp!r}*sin({freq!r}*t)", ["t"])], span=(0.0, 1.0))
    with pytest.MonkeyPatch.context() as mp:
        # blocks of 20 rows at 96 entries (the 1-D stencil), 12 at 160
        # (its union with p^2), 6 at 320 (the 8 x 8 stencil) and 2 at
        # 832 (its union with p1^2, p2^2 and p1 p2), so the step counts
        # below cross block ends that no count divides
        mp.setattr(evolution, "BLOCK_BYTES", 8 * 320 * 6)
        # static high part: the full generator lives on the union pattern
        ham = P(1, {(1, 1): c(0.5), (): 0.5 * (Var("q1") - Var("s1")) ** 2})
        dh = DrivenHamiltonian(
            BundleModel(1, 1, ((c(1.0) + slope * Var("q1"),),)), drive,
            ham, FiberGrid((32,), (6.0,)))
        assert_propagation_matches_dense(dh, 101)
        # two axes with a sigma-dependent p1 p2 term, sampled every step
        ham = P(2, {(1, 1): c(0.5), (2, 2): c(0.5),
                    (1, 2): 0.3 * Var("s1"),
                    (): 0.5 * (Var("q1") ** 2 + Var("q2") ** 2)})
        dh = DrivenHamiltonian(BundleModel(1, 2, ((c(1.0),), (c(slope),))),
                               drive, ham, FiberGrid((8, 8), (4.0, 4.0)))
        assert [dh.full_quantizer.nnz, dh.geometric_quantizer.nnz] == [832,
                                                                      320]
        assert_propagation_matches_dense(dh, 41)
        # a static window: one row of generator data for every step
        ham = P(1, {(1, 1): c(0.5),
                    (): 0.5 * freq * (Var("q1") - Var("s1")) ** 2})
        dh = DrivenHamiltonian(
            BundleModel(1, 1, ((c(1.0),),)),
            ParameterPath.from_expressions([c(amp)], span=(0.0, 1.0)),
            ham, FiberGrid((32,), (6.0,)))
        assert evolution._is_static(dh)
        assert_propagation_matches_dense(dh, 97)


def test_hot_loops_make_no_per_step_quantize_affine(monkeypatch):
    builds, fills = [], []

    def counted_build(*args, **kwargs):
        builds.append(args[0])
        return operators.quantizer(*args, **kwargs)

    block = operators.Quantizer.block

    def counted_block(self, t, *args, **kwargs):
        fills.append(len(t))
        return block(self, t, *args, **kwargs)

    monkeypatch.setattr(evolution, "quantizer", counted_build)
    monkeypatch.setattr(operators.Quantizer, "block", counted_block)
    ws = WaveSection.gaussian(FiberGrid((64,), (8.0,)), momentum=0.3)
    for steps in (10, 100):
        builds.clear()
        fills.clear()
        propagate_state(oscillator_dh(n_grid=64, t1=1.0), ws, steps=steps)
        # two quantizers: G + H' fills the whole window in one block and
        # G its two unit-rate rows (the basis combination and A) once;
        # the one-row fill is the q-only factor p1 that the build of the
        # p1^2 weights quantizes
        assert len(builds) == 2
        assert sorted(fills) == [1, 2, steps]
    builds.clear()
    fills.clear()
    geometric_factor(nonabelian_dh(n_grid=32), segments=64)
    assert len(builds) == 1 and fills == [64]


def test_heisenberg_canonical_relation():
    dh = static_dh(n_grid=512, half_width=8.0)
    q_op = quantizer(P.affine([c(0.0)], Var("q1"), 1), dh.grid).operator()
    p_op = quantizer(P.momentum(1, dim=1), dh.grid).operator()
    h = generator(dh.full_quantizer, dh, 0.0)
    deriv = 1j * (h @ q_op - q_op @ h)
    ws = WaveSection.gaussian(dh.grid, center=0.4, width=1.0, momentum=0.3)
    resid = deriv @ ws.values - p_op @ ws.values
    assert np.linalg.norm(resid) / np.linalg.norm(ws.values) < 1e-3


def test_heisenberg_matches_trajectory_derivative():
    # the d<q>/dt vs <p> comparison carries an O(h^2 <k^3>) dispersion
    # bias, which needs the finer grid to sit inside 1e-3
    dh = oscillator_dh(n_grid=256, half_width=6.0, t1=2.0)
    ws = WaveSection.gaussian(dh.grid, width=1.0)
    traj = propagate_state(dh, ws, steps=400)
    dt = traj.times[1] - traj.times[0]
    dq = np.gradient(traj.positions[:, 0], dt)
    # d<q>/dt = <p> + drive rate for this coupling
    predicted = traj.momenta[:, 0] + traj.sigma_rate[:, 0]
    inner = slice(2, -2)
    assert np.max(np.abs(dq[inner] - predicted[inner])) < 1e-3


# -- classical oracle ----------------------------------------------------


def test_classical_free_particle():
    bundle = BundleModel(1, 1, ((c(0.0),),))
    path = ParameterPath.from_expressions([c(0.0)], span=(0.0, 3.0))
    ham = P(1, {(1, 1): c(0.5)})
    dh = DrivenHamiltonian(bundle, path, ham, FiberGrid((16,), (3.0,)))
    traj = classical_hamilton_flow(dh, ClassicalState([0.2], [1.0]),
                                   steps=300)
    assert np.max(np.abs(traj.positions[:, 0]
                         - (0.2 + traj.times))) < 1e-10
    assert np.max(np.abs(traj.momenta[:, 0] - 1.0)) < 1e-12


def test_classical_energy_conservation():
    dh = static_dh(n_grid=16, half_width=3.0, span=10.0)
    traj = classical_hamilton_flow(dh, ClassicalState([1.0], [0.0]),
                                   steps=10000)
    energy = 0.5 * (traj.positions[:, 0] ** 2 + traj.momenta[:, 0] ** 2)
    assert np.max(np.abs(energy - energy[0])) < 1e-8


def test_classical_driven_oscillator_closed_form():
    amp = 0.35
    dh = oscillator_dh(n_grid=16, half_width=3.0, amp=amp, t1=10.0)
    q0, p0 = 0.3, -0.2
    traj = classical_hamilton_flow(dh, ClassicalState([q0], [p0]),
                                   steps=10000)
    t = traj.times
    chi = amp * np.sin(t)
    u0 = q0 - chi[0]
    q_ref = chi + u0 * np.cos(t) + p0 * np.sin(t)
    p_ref = -u0 * np.sin(t) + p0 * np.cos(t)
    assert np.max(np.abs(traj.positions[:, 0] - q_ref)) < 1e-6
    assert np.max(np.abs(traj.momenta[:, 0] - p_ref)) < 1e-6


def test_classical_coupling_and_time_drift_closed_form():
    # H* = (0.7 sigma' + 0.3) q1 p1: q grows and p shrinks by exp(E)
    bundle = BundleModel(1, 1, ((0.7 * Var("q1"),),), (0.3 * Var("q1"),))
    path = ParameterPath.from_expressions([expr("0.4*sin(t)", ["t"])],
                                          span=(0.0, 3.0))
    dh = DrivenHamiltonian(bundle, path, P(1, {}), FiberGrid((16,), (3.0,)))
    q0, p0 = 0.6, -0.9
    traj = classical_hamilton_flow(dh, ClassicalState([q0], [p0]),
                                   steps=3000)
    t = traj.times
    e = 0.7 * (0.4 * np.sin(t)) + 0.3 * t
    assert np.max(np.abs(traj.positions[:, 0] - q0 * np.exp(e))) < 1e-10
    assert np.max(np.abs(traj.momenta[:, 0] - p0 * np.exp(-e))) < 1e-10


def test_classical_coupling_gradient_two_axes_rotates():
    # H* = sigma' (q2 p1 - q1 p2): q and p both turn by sigma(t) - sigma(0);
    # a transposed index in p_j d_k Lambda^j flips the sign of dp/dt
    bundle = BundleModel(1, 2, ((Var("q2"),), (-Var("q1"),)))
    path = ParameterPath.from_expressions([expr("0.4*sin(t)", ["t"])],
                                          span=(0.0, 3.0))
    dh = DrivenHamiltonian(bundle, path, P(2, {}),
                           FiberGrid((8, 8), (3.0, 3.0)))
    q0, p0 = np.array([0.5, -0.3]), np.array([0.2, 0.7])
    traj = classical_hamilton_flow(dh, ClassicalState(q0, p0), steps=3000)
    theta = 0.4 * np.sin(traj.times)
    cos, sin = np.cos(theta), np.sin(theta)

    def turned(x):
        return np.stack([x[0] * cos + x[1] * sin,
                         -x[0] * sin + x[1] * cos], axis=1)

    assert np.max(np.abs(traj.positions - turned(q0))) < 1e-10
    assert np.max(np.abs(traj.momenta - turned(p0))) < 1e-10


def test_classical_divergence_reported():
    bundle = BundleModel(1, 1, ((c(0.0),),))
    path = ParameterPath.from_expressions([c(0.0)], span=(0.0, 2000.0))
    ham = P(1, {(1, 1): Var("q1") ** 2})
    dh = DrivenHamiltonian(bundle, path, ham, FiberGrid((16,), (3.0,)))
    with pytest.raises(ValueError, match="diverged at t"):
        classical_hamilton_flow(dh, ClassicalState([1.0], [1.0]), steps=50)


@pytest.mark.parametrize("ham,q0,p0,steps,at", [
    # overflow of q1^2 p1^2's field
    (P(1, {(1, 1): Var("q1") ** 2}), 1.0, 1.0, 50, "40"),
    # dq/dt = -1 exactly, so a stage lands on q1 = 0 in 0.5 / q1's field
    (P(1, {(1,): c(-1.0), (): 0.5 / Var("q1")}), 0.5, 0.0, 8, "0.375"),
    # 1/q1 at the initial point
    (P(1, {(1,): c(-1.0) / Var("q1")}), 0.0, 1.0, 8, "0"),
    # exp(q1^2) and q1^3 growing past the largest float
    (P(1, {(1,): expr("exp(q1^2)", ["q1"])}), 1.0, 0.0, 10, "0.1"),
    (P(1, {(1,): Var("q1") ** 3}), 1.0, 0.0, 10, "0.6"),
])
def test_classical_divergence_time(ham, q0, p0, steps, at):
    # the step at which each flow stops, as the field walked by
    # PolynomialObservable.evaluate reported it
    span = 2000.0 if steps == 50 else 1.0
    dh = DrivenHamiltonian(
        BundleModel(1, 1, ((c(0.0),),)),
        ParameterPath.from_expressions([c(0.0)], span=(0.0, span)), ham,
        FiberGrid((16,), (3.0,)))
    with pytest.raises(ValueError, match=f"diverged at t = {at}$"):
        classical_hamilton_flow(dh, ClassicalState([q0], [p0]), steps=steps)


def rk4_reference(dh, initial, steps):
    """The flow with every component read by PolynomialObservable.evaluate
    on float64 arrays: the compiled field must give the same bits."""
    n = dh.grid.dim
    field = hamiltonian_vector_field(dh.star)
    components = (*field.dq, *field.dp)
    t0, t1 = dh.span
    dt = (t1 - t0) / steps
    times = np.linspace(t0, t1, steps + 1)

    def rhs(t, y):
        return np.array([f.evaluate(t, dh.path.value(t), y[:n], y[n:],
                                    dh.path.velocity(t))
                         for f in components])

    ys = [np.concatenate([initial.q, initial.p])]
    for t in times[:-1]:
        y = ys[-1]
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        ys.append(y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
    return np.asarray(ys)


@given(amp=st.floats(0.1, 1.0), freq=st.floats(0.5, 2.0),
       slope=st.floats(-0.5, 0.5), q0=st.floats(-1.0, 1.0),
       p0=st.floats(-1.0, 1.0))
def test_compiled_classical_field_matches_evaluate_bit_for_bit(amp, freq,
                                                               slope, q0, p0):
    q1, q2, s1 = Var("q1"), Var("q2"), Var("s1")
    bundle = BundleModel(1, 2, ((c(1.0) + slope * q2,), (c(0.5),)))
    path = ParameterPath.from_expressions(
        [expr(f"{amp!r}*sin({freq!r}*t)", ["t"])], span=(0.0, 2.0))
    ham = P(2, {(1, 1): c(0.5), (2, 2): expr("0.5 + 0.1*sin(t)", ["t"]),
                (1, 2): 0.2 * ex.Call("cos", q1),
                (): ex.Call("sin", q1 - s1) + 0.5 * q2 ** 2})
    dh = DrivenHamiltonian(bundle, path, ham, FiberGrid((8, 8), (3.0, 3.0)))
    initial = ClassicalState([q0, -q0], [p0, 0.5])
    traj = classical_hamilton_flow(dh, initial, steps=64)
    want = rk4_reference(dh, initial, 64)
    assert np.array_equal(traj.positions, want[:, :2])
    assert np.array_equal(traj.momenta, want[:, 2:])


def test_two_axis_smoke():
    dh = two_axis_dh()
    res = evolve_time_ordered(dh, steps=16)
    assert res.unitarity_defect < 1e-10
    ws = WaveSection.gaussian(dh.grid, width=1.0)
    traj = propagate_state(dh, ws, steps=32)
    assert abs(traj.norms[-1] - 1.0) < 1e-9
