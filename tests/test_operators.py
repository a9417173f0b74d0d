import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, strategies as st

from leafquant import evolution, operators
from leafquant.expressions import Const, EvaluationError, Var, parse_expr
from leafquant.observables import (
    BumpCover,
    CoverageError,
    PolynomialObservable,
    decompose_polynomial,
    poisson_bracket,
)
from leafquant.operators import (
    FiberGrid,
    WaveSection,
    affine_symbol,
    dirac_grid_defect,
    dirac_symbol_defect,
    hermiticity_defect,
    momentum_expectations,
    position_expectations,
    quantize_affine_literal,
    quantizer,
    symbol_commutator,
    symbol_difference,
    symbol_scale,
)

P = PolynomialObservable


def affine(coeffs, const=0.0, dim=None):
    dim = dim if dim is not None else len(coeffs)
    return P.affine(coeffs, const, dim)


# -- grids ---------------------------------------------------------------


def test_grid_basics():
    g = FiberGrid((16,), (4.0,))
    assert g.dim == 1 and g.size == 16
    assert g.spacings == (0.5,)
    ax = g.axis(0)
    assert ax[0] == -4.0 and ax[-1] == pytest.approx(3.5)
    assert g.cell_volume == 0.5

    g2 = FiberGrid((8, 12), (2.0, 3.0))
    assert g2.dim == 2 and g2.size == 96
    pts = g2.points()
    assert pts.shape == (96, 2)
    # C order: second axis varies fastest
    assert pts[0, 0] == -2.0 and pts[1, 1] - pts[0, 1] == pytest.approx(0.5)


def test_grid_scalar_promotion():
    g = FiberGrid(32, 5.0)
    assert g.shape == (32,) and g.half_widths == (5.0,)
    g2 = FiberGrid((8, 8), 3.0)
    assert g2.half_widths == (3.0, 3.0)


def test_coordinates_cached_and_read_only():
    for g in (FiberGrid((16,), (4.0,)), FiberGrid((8, 12), (2.0, 3.0))):
        first, again = g.coordinates(), g.coordinates()
        for a in range(g.dim):
            assert again[a] is first[a]
            with pytest.raises(ValueError, match="read-only"):
                first[a][0] = 1.0
        # the returned list is the caller's own
        first.append(None)
        assert len(g.coordinates()) == g.dim


def test_grid_validation():
    with pytest.raises(ValueError, match="one or two"):
        FiberGrid((8, 8, 8), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="at least 8"):
        FiberGrid((4,), (1.0,))
    with pytest.raises(ValueError, match="positive"):
        FiberGrid((16,), (-2.0,))
    # the gauge that makes every step generator real needs even axes
    for shape in ((9,), (8, 11), (15, 16)):
        with pytest.raises(ValueError, match="even number of points"):
            FiberGrid(shape, 2.0)


def derivative(g, axis=0):
    """The periodic central difference D = i p along an axis, from the
    quantized momentum."""
    return 1j * quantizer(P.momentum(axis + 1, g.dim), g).operator()


def mean(op, ws):
    """Re <psi, op psi> / <psi, psi>."""
    return (np.vdot(ws.values, op @ ws.values).real
            / np.vdot(ws.values, ws.values).real)


def test_derivative_exact_antisymmetry():
    for g in (FiberGrid((32,), (3.0,)), FiberGrid((8, 16), (2.0, 5.0))):
        for a in range(g.dim):
            d = derivative(g, a).toarray()
            assert np.array_equal(d, -d.conj().T)


def test_derivative_plane_wave_eigenvalue():
    # e^{ikx} on the periodic lattice is an exact eigenvector of the
    # central difference with eigenvalue i sin(kh)/h.
    g = FiberGrid((64,), (5.0,))
    h = g.spacings[0]
    k = 3 * np.pi / 5.0
    wave = np.exp(1j * k * g.axis(0))
    out = derivative(g, 0) @ wave
    assert np.allclose(out, 1j * np.sin(k * h) / h * wave, atol=1e-12)


def test_derivative_accuracy_second_order():
    errs = []
    for n in (64, 128):
        g = FiberGrid((n,), (6.0,))
        x = g.axis(0)
        psi = np.exp(-x * x)
        exact = -2 * x * psi
        approx = derivative(g, 0) @ psi
        errs.append(np.max(np.abs(approx - exact)))
    assert errs[0] / errs[1] > 3.5


def test_derivative_2d_axes_commute():
    g = FiberGrid((12, 10), (3.0, 4.0))
    d0 = derivative(g, 0).toarray()
    d1 = derivative(g, 1).toarray()
    assert np.allclose(d0 @ d1 - d1 @ d0, 0.0, atol=1e-14)


# -- wave sections -------------------------------------------------------


def test_gaussian_normalized_and_localized():
    g = FiberGrid((256,), (8.0,))
    ws = WaveSection.gaussian(g, center=1.2, width=0.8, momentum=0.5)
    assert ws.norm() == pytest.approx(1.0, abs=1e-12)
    assert position_expectations(ws)[0] == pytest.approx(1.2, abs=1e-9)
    # the discrete momentum mean carries the sin(kh)/h dispersion bias
    assert momentum_expectations(ws)[0] == pytest.approx(0.5, abs=1e-3)


@given(shape=st.one_of(
           st.tuples(st.integers(4, 48)),
           st.tuples(st.integers(4, 12), st.integers(4, 12))),
       half_width=st.floats(1.0, 8.0), data=st.data(),
       amplitude=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0))
def test_momentum_expectations_match_quantized_momentum(shape, half_width,
                                                        data, amplitude):
    # the closed-form record equals the mean of the quantized momentum
    # -i D_a on random even grids and packets, normalized or not
    g = FiberGrid(tuple(2 * n for n in shape), half_width)
    draw = lambda lo, hi: [data.draw(st.floats(lo, hi)) for _ in shape]
    ws = WaveSection.gaussian(
        g, center=draw(-0.5 * half_width, 0.5 * half_width),
        width=draw(0.2 * half_width, half_width), momentum=draw(-3.0, 3.0))
    ws = WaveSection(g, amplitude * ws.values)
    got = momentum_expectations(ws)
    for a in range(g.dim):
        want = mean(quantizer(P.momentum(a + 1, g.dim), g).operator(), ws)
        assert abs(got[a] - want) <= 1e-13


def test_wave_section_validation():
    g = FiberGrid((16,), (2.0,))
    with pytest.raises(ValueError, match="match the grid"):
        WaveSection(g, np.ones(15))


def test_plane_waves_orthogonal():
    g = FiberGrid((64,), (5.0,))
    x = g.axis(0)
    k = np.pi / 5.0
    w1 = WaveSection(g, np.exp(1j * 2 * k * x))
    w2 = WaveSection(g, np.exp(1j * 5 * k * x))
    assert abs(g.cell_volume * np.vdot(w2.values, w1.values)) < 1e-12


# -- affine quantization -------------------------------------------------


def test_momentum_operator_plane_wave():
    g = FiberGrid((128,), (5.0,))
    h = g.spacings[0]
    k = 4 * np.pi / 5.0
    op = quantizer(P.momentum(1, dim=1), g).operator()
    wave = np.exp(1j * k * g.axis(0))
    assert np.allclose(op @ wave, np.sin(k * h) / h * wave, atol=1e-12)


def test_position_operator_is_diagonal():
    g = FiberGrid((64,), (4.0,))
    op = quantizer(affine([Const(0.0)], Var("q1")), g).operator()
    assert np.allclose(op.toarray(), np.diag(g.axis(0)), atol=0)


def test_symmetrized_hermitian_to_the_bit():
    rng = np.random.default_rng(7)
    for _ in range(25):
        c1 = parse_expr("sin(0.7*q1) + 0.3*q1", allowed_vars=["q1"])
        scale = float(rng.uniform(-3, 3))
        f = affine([scale * c1], Const(float(rng.normal())) + Var("q1") ** 2)
        op = quantizer(f, FiberGrid((32,), (4.0,))).operator()
        assert hermiticity_defect(op) == 0.0
    # two fiber axes, cross-coupled drift
    g2 = FiberGrid((10, 12), (3.0, 3.0))
    f2 = affine([parse_expr("q2*cos(q1)", allowed_vars=["q1", "q2"]),
                 parse_expr("tanh(q1)", allowed_vars=["q1"])],
                Var("q1") * Var("q2"), dim=2)
    assert hermiticity_defect(quantizer(f2, g2).operator()) == 0.0


def random_csr(rng, n, kind):
    """A random n x n CSR array of a third of its entries: Hermitian,
    near-Hermitian, non-Hermitian, Hermitian with mirrors dropped from
    its pattern, or with duplicate entries left unsummed."""
    a = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * (
        rng.random((n, n)) < 0.3)
    if kind in ("hermitian", "near", "asymmetric"):
        a = a + a.conj().T
    if kind == "near":
        a = a + 1e-12 * rng.normal(size=(n, n)) * (a != 0)
    if kind == "asymmetric":
        a = np.triu(a) + np.tril(a, -1) * (rng.random((n, n)) < 0.5)
    if kind != "duplicates":
        return scipy.sparse.csr_array(a)
    r, c = np.nonzero(a)
    extra = rng.integers(0, len(r), size=len(r))
    rows = np.concatenate([r, r[extra]])
    order = np.argsort(rows, kind="stable")
    data = np.concatenate([a[r, c], rng.normal(size=len(r))
                           + 1j * rng.normal(size=len(r))])[order]
    indptr = np.searchsorted(rows[order], np.arange(n + 1))
    m = scipy.sparse.csr_array(
        (data, np.concatenate([c, c[extra]])[order], indptr), shape=(n, n))
    assert not m.has_canonical_format
    return m


@pytest.mark.parametrize("kind", ["hermitian", "near", "non-hermitian",
                                  "asymmetric", "duplicates"])
def test_hermiticity_defect_matches_dense_formula(kind):
    # the defect read from the CSR data and its own pattern's transpose
    # permutation is ||h - h^dagger||_F / max(1, ||h||_F) of the dense
    # array: unstored mirrors count in full, duplicates are summed first
    rng = np.random.default_rng(11)
    for n in (8, 8, 24, 24):
        m = random_csr(rng, n, kind)
        d = m.toarray()
        ref = np.linalg.norm(d - d.conj().T) / max(1.0, np.linalg.norm(d))
        assert abs(hermiticity_defect(m) - ref) <= 1e-15 * ref
        assert (ref == 0.0) == (kind == "hermitian")


def test_literal_assembly_not_hermitian_but_consistent():
    f = affine([Var("q1")], Const(0.0))
    errs = []
    for n in (128, 256):
        g = FiberGrid((n,), (7.0,))
        sym = quantizer(f, g).operator()
        lit = quantize_affine_literal(f, g)
        assert hermiticity_defect(lit) > 1e-6
        psi = WaveSection.gaussian(g, center=0.5, width=0.9).values
        errs.append(np.linalg.norm((sym - lit) @ psi)
                    / np.linalg.norm(psi))
    # the two assemblies agree on smooth states to second order
    assert errs[0] / errs[1] > 3.5


def test_scaled_position_momentum_expectation():
    # the symmetrized product (q p + p q)/2 has mean c*k on a packet
    # centered at c with momentum k
    g = FiberGrid((512,), (10.0,))
    op = quantizer(affine([Var("q1")], Const(0.0)), g).operator()
    ws = WaveSection.gaussian(g, center=1.4, width=0.9, momentum=0.7)
    assert mean(op, ws) == pytest.approx(1.4 * 0.7, abs=1e-3)


def test_binding_incomplete_error():
    f = affine([parse_expr("sin(s2)", allowed_vars=["s2"])], Const(0.0))
    g = FiberGrid((16,), (2.0,))
    with pytest.raises(ValueError, match="s2"):
        quantizer(f, g).operator(t=0.0, sigma=(0.4,))
    # binding both parameters succeeds
    quantizer(f, g).operator(t=0.0, sigma=(0.4, 0.1))


def test_dimension_mismatch_error():
    f = affine([Const(1.0)], Const(0.0))
    with pytest.raises(ValueError, match="dimensions differ"):
        quantizer(f, FiberGrid((8, 8), (2.0, 2.0))).operator()


def test_time_dependent_coefficient_binding():
    f = affine([parse_expr("cos(t)", allowed_vars=["t"])], Const(0.0))
    g = FiberGrid((32,), (3.0,))
    op0 = quantizer(f, g).operator(t=0.0)
    op1 = quantizer(f, g).operator(t=np.pi / 3)
    assert np.allclose(op1.toarray(), 0.5 * op0.toarray(), atol=1e-12)


def _dense_difference(g, axis):
    """Dense periodic central difference, built directly from its entries."""
    mats = []
    for n, h in zip(g.shape, g.spacings):
        d = np.zeros((n, n))
        idx = np.arange(n)
        d[idx, (idx + 1) % n] = 1.0 / (2.0 * h)
        d[idx, (idx - 1) % n] = -1.0 / (2.0 * h)
        mats.append(d)
    if g.dim == 1:
        return mats[0]
    factors = [mats[a] if a == axis else np.eye(n)
               for a, n in enumerate(g.shape)]
    return np.kron(factors[0], factors[1])


def test_generators_are_banded_csr():
    g = FiberGrid((64,), (5.0,))
    drift = affine([parse_expr("sin(q1)", allowed_vars=["q1"])],
                   Var("q1") ** 2)
    kinetic = P(1, {(1, 1): Const(1.0)})
    for op, band in ((quantizer(drift, g).operator(), 3),
                     (quantizer(kinetic, g).operator(), 5),
                     (quantizer(P.momentum(1, 1), g).operator(), 3)):
        assert isinstance(op, scipy.sparse.csr_array)
        assert op.nnz <= band * g.size
    # affine generators on one grid share one cached pattern
    first = quantizer(drift, g).operator()
    second = quantizer(P.momentum(1, 1), g).operator()
    assert np.shares_memory(first.indices, second.indices)
    assert np.shares_memory(first.indptr, second.indptr)
    g2 = FiberGrid((10, 12), (3.0, 3.0))
    op2 = quantizer(affine([Var("q2"), Var("q1")], Const(0.0), dim=2),
                    g2).operator()
    assert isinstance(op2, scipy.sparse.csr_array)
    assert op2.nnz <= 5 * g2.size


def test_affine_dense_equals_dense_formula_bitwise():
    cases = [
        (FiberGrid((32,), (4.0,)),
         affine([parse_expr("sin(0.7*q1) + 0.3*q1", allowed_vars=["q1"])],
                Const(0.4) + Var("q1") ** 2)),
        (FiberGrid((10, 12), (3.0, 2.5)),
         affine([parse_expr("q2*cos(q1)", allowed_vars=["q1", "q2"]),
                 parse_expr("tanh(q1)", allowed_vars=["q1"])],
                Var("q1") * Var("q2"), dim=2)),
    ]
    for g, f in cases:
        a, b = f.linear_coefficients()
        coords = {f"q{k + 1}": c for k, c in enumerate(g.coordinates())}
        m = np.diag(np.asarray(b.evaluate(coords), dtype=complex))
        for k in range(g.dim):
            ak = np.broadcast_to(a[k].evaluate(coords), (g.size,))
            d = _dense_difference(g, k)
            m = m + (-0.5j) * (d * (ak[:, None] + ak[None, :]))
        assert np.array_equal(quantizer(f, g).operator().toarray(), m)
        for k in range(g.dim):
            assert np.array_equal(derivative(g, k).toarray(),
                                  _dense_difference(g, k))


def _rate_affine(dim, c):
    """Affine observable whose coefficients use t, s1, v1 and the fiber."""
    q = [Var(f"q{k + 1}") for k in range(dim)]
    t, s1, v1 = Var("t"), Var("s1"), Var("v1")
    a = [c[0] + c[1] * t * q[0] + v1 * (1.0 + c[2] * q[-1] ** 2)]
    if dim == 2:
        a.append(c[3] * s1 * q[0] * q[1] + parse_expr(
            "sin(s1 + q2)", allowed_vars=["s1", "q2"]))
    b = c[4] * q[0] ** 2 + c[5] * v1 * s1 + parse_expr(
        "cos(t)", allowed_vars=["t"]) * q[-1]
    return affine(a, b, dim=dim)


@given(c=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
       t=st.floats(-3.0, 3.0), s=st.floats(-1.0, 1.0),
       v=st.floats(-2.0, 2.0))
def test_numeric_binding_matches_substitution(c, t, s, v):
    for g in (FiberGrid((32,), (4.0,)), FiberGrid((8, 8), (3.0, 2.0))):
        f = _rate_affine(g.dim, c)
        m = quantizer(f, g).operator(t, (s,), (v,)).toarray()
        assert np.array_equal(m, m.conj().T)
        # reference: substitute the numbers symbolically, then sample
        a, b = f.linear_coefficients()
        subs = {"t": t, "s1": s, "v1": v}
        coords = {f"q{k + 1}": x for k, x in enumerate(g.coordinates())}

        def sampled(e):
            return np.broadcast_to(e.substitute(subs).evaluate(coords),
                                   (g.size,))

        ref = np.diag(sampled(b).astype(complex))
        for k in range(g.dim):
            ak = sampled(a[k])
            ref = ref + (-0.5j) * (_dense_difference(g, k)
                                   * (ak[:, None] + ak[None, :]))
        assert np.linalg.norm(m - ref) <= 1e-14 * np.linalg.norm(ref)
        with pytest.raises(ValueError, match="binding incomplete.*v1"):
            quantizer(f, g).operator(t, (s,))


def _ordered_product(mats):
    """Average over every factor order of the sparse products, each
    reversed order as the adjoint; the reference for the quantizer's
    precomputed weights."""
    if len(mats) == 1:
        return mats[0]
    orders = [o for o in itertools.permutations(range(len(mats)))
              if o[0] < o[-1]]
    acc = None
    for order in orders:
        prod = mats[order[0]]
        for i in order[1:]:
            prod = prod @ mats[i]
        acc = prod if acc is None else acc + prod
    return (acc + acc.conj().T) / (2 * len(orders))


def _product_route(f, g, t, s, v, cover):
    """Dense sum over the factorization of sparse products of the factors."""
    total = sum(_ordered_product(
        [quantizer(h, g).operator(t, s, v) for h in group])
        for group in decompose_polynomial(f, cover).factors)
    return total.toarray()


def gauged(h, grid):
    """The float64 data of S h S^dagger on the pattern of the CSR array
    h, through the gauge's one conversion (``operators._real``)."""
    return operators._real(
        h.data * operators._phases(grid, h.indptr, h.indices))


def _random_high(dim, degree, h):
    """Momentum-degree 2..degree part with t-, s1- and q-dependent
    coefficients."""
    q = [Var(f"q{k + 1}") for k in range(dim)]
    t, s1 = Var("t"), Var("s1")
    terms = {(1, 1): h[0] * (1.0 + 0.3 * q[-1] ** 2) + h[1] * s1 * t}
    if dim == 2:
        terms[(1, 2)] = h[2] * parse_expr("cos(t + q1)",
                                          allowed_vars=["t", "q1"])
        terms[(2, 2)] = 0.5 + h[3] * s1
    if degree == 3:
        terms[(1, 1, dim)] = h[3] * parse_expr("sin(s1 + q1)",
                                               allowed_vars=["s1", "q1"])
    return P(dim, terms)


@given(c=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
       h=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       degree=st.integers(2, 3), seed=st.integers(0, 2 ** 16))
def test_quantizer_fills_match_rows_and_product_route(c, h, degree, seed):
    rng = np.random.default_rng(seed)
    covers = {1: BumpCover(1, (((-3.0, 7.0),), ((3.0, 7.0),))),
              2: BumpCover(2, (((-2.0, 7.0), (0.0, 7.0)),
                               ((2.0, 7.0), (0.5, 7.0))))}
    for g in (FiberGrid((32,), (4.0,)), FiberGrid((8, 8), (3.0, 2.0))):
        gauge = operators._gauge(g)
        f = _rate_affine(g.dim, c)
        poly = f + _random_high(g.dim, degree, h)
        cases = [(f, None), (poly, None), (poly, covers[g.dim])]
        for obs, cover in cases:
            q = quantizer(obs, g, cover)
            mirror, stored = operators._transpose_slots(q.csr(np.ones(q.nnz)))
            assert stored.all()
            # the gate reads the transpose map the quantizer built
            assert np.array_equal(q.mirror, mirror)
            with pytest.MonkeyPatch.context() as mp:
                if obs is not f:
                    # blocks of 4 rows keep the polynomial cases cheap
                    mp.setattr(evolution, "BLOCK_BYTES", 8 * q.nnz * 4)
                # one row, and one more row than an evolution block holds
                for k in (1, evolution._blocks(1, q.nnz)[0].stop + 1):
                    t = rng.uniform(-3.0, 3.0, k)
                    s, v = rng.uniform(-1.0, 1.0, (k, 1)), rng.uniform(
                        -2.0, 2.0, (k, 1))
                    block = q.block(t, s, v)
                    assert block.flags.c_contiguous
                    rows = [gauged(q.operator(t[r], s[r], v[r]), g)
                            for r in range(k)]
                    assert np.array_equal(block, np.array(rows))
                    # every fill is symmetric to the bit
                    assert np.array_equal(block, block[:, mirror])
                    chunks = [q.block(t[b], s[b], v[b])
                              for b in evolution._blocks(k, q.nnz)]
                    assert np.array_equal(np.concatenate(chunks), block)
            for r in (0, k - 1):
                m = (gauge.conj()[:, None] * q.csr(block[r]).toarray()
                     * gauge)
                ref = _product_route(obs, g, t[r], s[r], v[r], cover)
                assert np.linalg.norm(m - ref) <= 1e-14 * np.linalg.norm(ref)
                assert np.array_equal(m, m.conj().T)
            with pytest.raises(ValueError, match="binding incomplete.*v1"):
                q.block(t, s)
        # one non-finite row fails the whole block, in either part
        t[k // 2] = 0.0
        for bad in (affine([Var("q1") / Var("t")] * g.dim, Const(0.0),
                           dim=g.dim),
                    P(g.dim, {(1, 1): Var("q1") / Var("t")})):
            with pytest.raises(EvaluationError):
                quantizer(bad, g).block(t, s)


@given(c=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
       h=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       degree=st.integers(2, 3), covered=st.booleans(),
       shape=st.sampled_from([(10,), (14,), (16,), (10, 8), (8, 14)]),
       row=st.tuples(st.floats(-3.0, 3.0), st.floats(-1.0, 1.0),
                     st.floats(-2.0, 2.0)))
def test_gauged_generator_is_exactly_real(c, h, degree, covered, shape, row):
    # S = diag(i^(j1 + ... + jn)): a term of momentum degree d is (-i)^d
    # times a real matrix at index offsets of the parity of d, and an even
    # axis keeps that parity across the periodic wrap (whose gauged entry
    # flips sign when N = 2 mod 4), so S h S^dagger is real to the bit
    g = FiberGrid(shape, (4.0,) if len(shape) == 1 else (3.0, 2.0))
    covers = {1: BumpCover(1, (((-3.0, 7.0),), ((3.0, 7.0),))),
              2: BumpCover(2, (((-2.0, 7.0), (0.0, 7.0)),
                               ((2.0, 7.0), (0.5, 7.0))))}
    cover = covers[g.dim] if covered else None
    j = np.indices(shape).sum(axis=0).ravel()
    s = np.where(j % 2, 1j, 1.0) * np.where(j % 4 >= 2, -1.0, 1.0)
    assert np.array_equal(operators._gauge(g), s)
    even = _random_high(g.dim, 2, h) + P(g.dim, {
        (): c[4] * Var("q1") ** 2 + c[5] * Var("v1") * Var("s1")})
    for f in (_rate_affine(g.dim, c) + _random_high(g.dim, degree, h), even):
        q = quantizer(f, g, cover)
        block = q.block(*row)
        assert block.dtype == np.float64
        real = q.csr(block[0]).toarray()
        assert np.array_equal(s.conj()[:, None] * real * s,
                              q.operator(*row).toarray())
    # the last is of even momentum degree: no entry joins the two
    # parities of j1 + ... + jn
    assert not real[(j % 2)[:, None] != j % 2].any()


def test_quantizer_pattern_holds_affine_plus_high_part():
    for g in (FiberGrid((16,), (4.0,)), FiberGrid((8, 8), (3.0, 2.0))):
        f = _rate_affine(g.dim, [0.3, -0.7, 0.2, 0.5, 1.1, -0.4])
        terms = {(1, 1): 0.5 * (1.0 + 0.2 * Var("q1"))}
        if g.dim == 2:
            terms[(1, 2)] = Var("q2")
        high = P(g.dim, terms)
        total = quantizer(f + high, g).operator(0.4, (0.3,), (-0.8,))
        parts = (quantizer(f, g).operator(0.4, (0.3,), (-0.8,)).toarray()
                 + quantizer(high, g).operator(0.4, (0.3,)).toarray())
        assert np.array_equal(total.toarray(), parts)
        assert total.has_sorted_indices


# the index sets of a generator that joins every index to every other
WHOLE = (slice(None),)


def step_unitary(h, dt, grid, parts):
    """exp(-i dt h) from the one eigendecomposition of the gauged S h
    S^dagger, one block per index set of ``parts``, taken back from the
    gauged basis, and h's relative hermiticity defect, read through the
    transpose map of h's pattern, which every case here closes under
    transpose."""
    mirror, stored = operators._transpose_slots(h)
    assert stored.all()
    blocks, defect = evolution._eigh(scipy.sparse.csr_array(
        (gauged(h, grid), h.indices, h.indptr), shape=h.shape), mirror,
        parts)
    u = evolution._assembled(parts, [
        evolution._exponential(v, np.exp(-1j * dt * w))
        for _, w, v in blocks])
    return evolution._ungauged(u, grid), defect


def one_sided():
    """A grid and the one-sided ``quantize_affine_literal`` of the
    q-varying drift (q1, -q2): not Hermitian, yet real in the gauge, as
    the drift is free of divergence."""
    g = FiberGrid((8, 8), (2.0, 2.0))
    return g, quantize_affine_literal(
        affine([Var("q1"), Const(-1.0) * Var("q2")], Const(0.0)), g)


def test_expm_accepts_sparse_generators():
    # the step exponential of the evolution takes a CSR generator and
    # returns a dense unitary with the generator's hermiticity defect
    g = FiberGrid((24,), (3.0,))
    q = quantizer(P(1, {(1, 1): Const(0.5), (): Var("q1")}), g)
    op = q.operator()
    # of even momentum degree: one block per parity
    assert len(q.parts) == 2
    u, defect = step_unitary(op, 0.3, g, q.parts)
    assert isinstance(u, np.ndarray) and defect == 0.0
    assert np.linalg.norm(u - scipy.linalg.expm(-0.3j * op.toarray())) < 1e-12
    g2, literal = one_sided()
    with pytest.raises(RuntimeError, match="hermiticity"):
        step_unitary(literal, 1.0, g2, WHOLE)


# -- polynomial quantization ---------------------------------------------


def test_momentum_square_matches_second_difference():
    g = FiberGrid((64,), (5.0,))
    f = P(1, {(1, 1): Const(1.0)})
    op = quantizer(f, g).operator()
    d = _dense_difference(g, 0)
    assert np.allclose(op.toarray(), -(d @ d), atol=1e-13)
    assert hermiticity_defect(op) < 1e-14


def test_oscillator_ground_energy():
    # The composed central difference doubles every level (a checkerboard
    # twin sits on top of each smooth eigenstate), so the floor is right
    # but the first gap is not; assert the floor and the smooth sector.
    g = FiberGrid((512,), (10.0,))
    ham = P(1, {(1, 1): Const(0.5), (): 0.5 * Var("q1") ** 2})
    op = quantizer(ham, g).operator()
    w = np.linalg.eigvalsh(op.toarray())
    assert abs(w[0] - 0.5) < 1e-3
    assert abs(w[1] - w[0]) < 1e-6          # doubler twin, not the 1.5 level
    ws = WaveSection.gaussian(g, center=0.0, width=1.0)
    energy = mean(op, ws)
    assert abs(energy - 0.5) < 1e-3
    residual = op @ ws.values - energy * ws.values
    assert np.linalg.norm(residual) / np.linalg.norm(ws.values) < 1e-3


def test_symmetric_ordering_is_hermitian_to_the_bit():
    # three factors (q1^2 p1) p1 p1: the product-plus-adjoint pairs must
    # equal the average over all six orders and be exactly Hermitian
    g = FiberGrid((16,), (3.0,))
    f = P(1, {(1, 1, 1): Var("q1") ** 2})
    sym = quantizer(f, g).operator().toarray()
    assert np.array_equal(sym, sym.conj().T)
    mats = [quantizer(P(1, {(1,): Var("q1") ** 2}), g).operator().toarray(),
            quantizer(P.momentum(1, 1), g).operator().toarray(),
            quantizer(P.momentum(1, 1), g).operator().toarray()]
    average = sum(mats[a] @ mats[b] @ mats[c]
                  for a, b, c in itertools.permutations(range(3))) / 6
    assert np.linalg.norm(sym - average) <= 1e-12 * np.linalg.norm(average)


def test_chart_curvature_potential():
    # Quantizing p^2 through a partitioned factorization shifts the
    # operator by the potential (1/4) sum_l (dl/dq)^2 relative to the
    # single-chart route; both are honest orderings and the gap has an
    # exact symbolic value, recovered here to second order in h.  The
    # chart edges sit outside the box so the periodic wrap never meets
    # the (non-periodic) chart functions at noticeable amplitude.
    cover = BumpCover(1, (((-5.0, 11.0),), ((5.0, 11.0),)))
    f = P(1, {(1, 1): Const(1.0)})
    pieces = cover.partition(2)
    pot = Const(0.0)
    for l in pieces:
        pot = pot + l.diff("q1") ** 2
    rels = []
    for n in (256, 512):
        g = FiberGrid((n,), (8.0,))
        plain = quantizer(f, g).operator()
        charted = quantizer(f, g, cover=cover).operator()
        assert hermiticity_defect(charted) < 1e-12
        expected = np.diag(0.25 * np.asarray(pot.evaluate({"q1": g.axis(0)})))
        psi = WaveSection.gaussian(g, center=0.5, width=1.1).values
        gap = (charted - plain) @ psi
        ref = expected @ psi
        assert np.linalg.norm(ref) > 1e-3 * np.linalg.norm(psi)
        rels.append(np.linalg.norm(gap - ref) / np.linalg.norm(ref))
    assert rels[1] < 5e-3
    assert rels[0] / rels[1] > 3.0


def test_cover_must_cover_grid():
    cover = BumpCover(1, (((-6.0, 2.0),), ((6.0, 2.0),)))
    g = FiberGrid((64,), (8.0,))
    f = P(1, {(1, 1): Const(1.0)})
    with pytest.raises(CoverageError):
        quantizer(f, g, cover=cover).operator()


def test_affine_part_unaffected_by_cover():
    cover = BumpCover(1, (((0.0, 20.0),),))
    g = FiberGrid((32,), (3.0,))
    f = affine([Var("q1")], Var("q1") ** 2)
    with_cover = quantizer(f, g, cover=cover).operator()
    without = quantizer(f, g).operator()
    assert np.allclose(with_cover.toarray(), without.toarray(), atol=0)


def test_cubic_two_axes():
    g = FiberGrid((10, 10), (3.0, 3.0))
    f = P(2, {(1, 1, 2): Const(0.4), (1,): Var("q2"), (): Const(0.2)})
    op = quantizer(f, g).operator()
    assert hermiticity_defect(op) < 1e-12


# -- exponentials --------------------------------------------------------


def test_expm_matches_scipy_and_is_unitary():
    q1, q2 = Var("q1"), Var("q2")
    cases = [(FiberGrid((40,), (4.0,)), P(1, {
        (1, 1, 1): 0.05 * q1, (1, 1): 0.5 + 0.1 * q1 ** 2,
        (1,): parse_expr("sin(q1)", allowed_vars=["q1"]),
        (): 0.5 * q1 ** 2})),
        (FiberGrid((8, 10), (3.0, 3.5)), P(2, {
            (1, 2): 0.3 + 0.1 * q2, (2, 2): Const(0.5), (1, 1, 2): 0.02 * q1,
            (1,): q2, (): 0.2 * q1 * q2}))]
    for g, f in cases:
        q = quantizer(f, g)
        h = q.operator().toarray()
        # odd momentum degree: one block
        assert q.parts == WHOLE
        u, _ = step_unitary(scipy.sparse.csr_array(h), 0.37, g, q.parts)
        ref = scipy.linalg.expm(-1j * 0.37 * h)
        assert np.linalg.norm(u - ref) < 1e-10
        assert np.linalg.norm(u @ u.conj().T - np.eye(g.size)) < 1e-12
    # a Hermitian matrix that no real-coefficient observable quantizes
    # to has no real gauged form
    rng = np.random.default_rng(3)
    a = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    with pytest.raises(RuntimeError, match="not real"):
        step_unitary(scipy.sparse.csr_array(a + a.conj().T), 0.37,
                     cases[0][0], WHOLE)


def test_gauge_fold_rejects_an_odd_axis():
    # an odd axis breaks the parity across the periodic wrap, so the
    # gauge folded in at build time is not real there; FiberGrid rejects
    # such an axis, so the grid is made without its check
    g = object.__new__(FiberGrid)
    object.__setattr__(g, "shape", (9,))
    object.__setattr__(g, "half_widths", (4.0,))
    with pytest.raises(RuntimeError, match="not real"):
        quantizer(P(1, {(1,): Var("q1")}), g)


def test_expm_rejects_non_hermitian():
    g, m = one_sided()
    assert hermiticity_defect(m) > 1e-3
    with pytest.raises(RuntimeError, match="hermiticity"):
        step_unitary(m, 1.0, g, WHOLE)


# -- symbol layer --------------------------------------------------------


def test_canonical_pair_symbol_commutator():
    pos = affine([Const(0.0)], Var("q1"))
    mom = P.momentum(1, dim=1)
    comm = symbol_commutator(affine_symbol(mom), affine_symbol(pos))
    # [-i d/dq, q] = -i
    assert comm.zero_re == Const(0.0)
    assert comm.zero_im == Const(-1.0)
    assert all(c == Const(0.0) for c in comm.drift_re + comm.drift_im)


def test_symbol_scale_roundtrip():
    s = affine_symbol(affine([Var("q1")], Const(2.0)))
    back = symbol_scale(-1.0, symbol_scale(-1.0, s))
    bindings = [{"q1": x} for x in (-1.0, 0.3, 2.0)]
    assert symbol_difference(back, s, bindings) == 0.0
    rot = symbol_scale(1j, symbol_scale(-1j, s))
    assert symbol_difference(rot, s, bindings) < 1e-15


def _random_affine(rng, dim, n_params):
    names = ["t"] + [f"s{i+1}" for i in range(n_params)] \
        + [f"q{i+1}" for i in range(dim)]
    def tree():
        parts = []
        for _ in range(rng.integers(1, 3)):
            v = names[rng.integers(0, len(names))]
            w = float(rng.uniform(-1.5, 1.5))
            form = rng.integers(0, 3)
            if form == 0:
                parts.append(f"{w:.3f}*sin(0.8*{v})")
            elif form == 1:
                parts.append(f"{w:.3f}*tanh({v})")
            else:
                parts.append(f"{w:.3f}*{v}")
        return parse_expr(" + ".join(parts), allowed_vars=names)
    return affine([tree() for _ in range(dim)], tree(), dim=dim)


def test_symbol_dirac_identity_fuzz():
    rng = np.random.default_rng(42)
    names = ["t", "s1", "s2", "q1", "q2"]
    worst = 0.0
    for _ in range(60):
        f = _random_affine(rng, 2, 2)
        g = _random_affine(rng, 2, 2)
        bindings = [{n: float(rng.uniform(-1.5, 1.5)) for n in names}
                    for _ in range(5)]
        worst = max(worst, dirac_symbol_defect(f, g, bindings))
    assert worst <= 1e-12


def test_grid_dirac_second_order():
    f = affine([parse_expr("sin(0.4*q1)", allowed_vars=["q1"])],
               parse_expr("cos(0.3*q1)", allowed_vars=["q1"]))
    g = affine([parse_expr("tanh(0.3*q1)", allowed_vars=["q1"])],
               Var("q1") ** 2)
    defects = []
    for n in (128, 256):
        grid = FiberGrid((n,), (9.0,))
        state = WaveSection.gaussian(grid, center=0.7, width=1.0,
                                     momentum=0.3)
        defects.append(dirac_grid_defect(f, g, grid, state))
    assert defects[0] > 1e-6        # the identity is not trivially exact
    assert defects[0] / defects[1] > 3.5


def test_grid_dirac_with_parameters():
    f = affine([parse_expr("s1*q1", allowed_vars=["s1", "q1"])], Const(0.0))
    g = affine([Const(1.0)], parse_expr("t + s1*q1",
                                        allowed_vars=["t", "s1", "q1"]))
    grid = FiberGrid((128,), (8.0,))
    state = WaveSection.gaussian(grid, width=1.2)
    d = dirac_grid_defect(f, g, grid, state, t=0.3, sigma=(0.8,))
    bracket = poisson_bracket(f, g)
    assert bracket.free_variables() <= {"t", "s1", "q1"}
    assert d < 1e-2
