"""Tests for momentum polynomials, brackets, covers and decomposition."""

from itertools import combinations_with_replacement

import numpy as np
import pytest

from leafquant.expressions import Const, Var, parse_expr
from leafquant.observables import (
    BumpCover,
    CoverageError,
    PolynomialObservable,
    decompose_polynomial,
    hamiltonian_vector_field,
    poisson_bracket,
)

P = PolynomialObservable


def coord(k, dim):
    return P.constant(Var(f"q{k}"), dim)


def random_observable(rng, dim=2, max_degree=3):
    terms = {}
    for d in range(max_degree + 1):
        for idx in combinations_with_replacement(range(1, dim + 1), d):
            if rng.random() < 0.4:
                continue
            c = round(float(rng.uniform(-2, 2)), 3)
            pick = rng.random()
            if pick < 0.4:
                coeff = Const(c)
            elif pick < 0.7:
                coeff = Const(c) * Var(f"q{rng.integers(1, dim + 1)}")
            else:
                coeff = Const(c) * parse_expr(
                    f"sin(q{rng.integers(1, dim + 1)} + t)", None)
            terms[idx] = coeff
    return P(dim, terms)


def random_phase_points(rng, dim, count=20):
    qs = rng.uniform(-1.5, 1.5, size=(count, dim))
    ps = rng.uniform(-1.5, 1.5, size=(count, dim))
    return qs, ps


def bracket_values(f, g, qs, ps, t=0.4):
    pb = poisson_bracket(f, g)
    return np.array([pb.evaluate(t, (), q, p) for q, p in zip(qs, ps)])


def test_canonical_pairs():
    for dim in (1, 2):
        for k in range(1, dim + 1):
            for j in range(1, dim + 1):
                pb = poisson_bracket(P.momentum(k, dim), coord(j, dim))
                want = P.constant(1.0, dim) if k == j else P.zero(dim)
                assert pb == want, (k, j)


def test_bracket_of_momenta_and_coordinates_vanish():
    assert poisson_bracket(P.momentum(1, 2), P.momentum(2, 2)) == P.zero(2)
    assert poisson_bracket(coord(1, 2), coord(2, 2)) == P.zero(2)


def test_quadratic_bracket():
    f = P.momentum(1, 1) * P.momentum(1, 1)
    pb = poisson_bracket(f, coord(1, 1))
    assert pb == 2.0 * P.momentum(1, 1)


def test_bracket_antisymmetry_and_jacobi():
    rng = np.random.default_rng(42)
    qs, ps = random_phase_points(rng, 2)
    for _ in range(10):
        f = random_observable(rng)
        g = random_observable(rng)
        h = random_observable(rng)
        anti = bracket_values(f, g, qs, ps) + bracket_values(g, f, qs, ps)
        np.testing.assert_allclose(anti, 0.0, atol=1e-11)
        jac = poisson_bracket(f, poisson_bracket(g, h)) \
            + poisson_bracket(g, poisson_bracket(h, f)) \
            + poisson_bracket(h, poisson_bracket(f, g))
        vals = np.array([jac.evaluate(0.4, (), q, p) for q, p in zip(qs, ps)])
        np.testing.assert_allclose(vals, 0.0, atol=1e-9)


def test_bracket_leibniz():
    rng = np.random.default_rng(9)
    qs, ps = random_phase_points(rng, 2)
    f = random_observable(rng)
    g = random_observable(rng, max_degree=2)
    h = random_observable(rng, max_degree=2)
    lhs = bracket_values(f, g * h, qs, ps)
    rhs = np.array([
        (poisson_bracket(f, g) * h + g * poisson_bracket(f, h)).evaluate(
            0.4, (), q, p)
        for q, p in zip(qs, ps)])
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_vector_field_reproduces_bracket():
    rng = np.random.default_rng(3)
    f = random_observable(rng)
    g = random_observable(rng)
    # the directional derivative of g along the field of f
    field = hamiltonian_vector_field(f)
    applied = P.zero(g.dim)
    for k in range(g.dim):
        applied = (applied + field.dq[k] * g.partial_q(k + 1)
                   + field.dp[k] * g.partial_p(k + 1))
    pb = poisson_bracket(f, g)
    qs, ps = random_phase_points(rng, 2)
    got = np.array([applied.evaluate(0.2, (), q, p) for q, p in zip(qs, ps)])
    want = np.array([pb.evaluate(0.2, (), q, p) for q, p in zip(qs, ps)])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_vector_field_components():
    # h = p^2/2 + V(q): coordinate velocity p, momentum velocity -V'
    v = parse_expr("0.5*q1^2 + cos(q1)", None)
    h = 0.5 * P.momentum(1, 1) * P.momentum(1, 1) + P.constant(v, 1)
    field = hamiltonian_vector_field(h)
    assert field.dq[0] == P.momentum(1, 1)
    assert field.dp[0] == P.constant(
        -(v.diff("q1")), 1)


def test_partial_p_counts_multiplicity():
    f = P(2, {(1, 1, 2): Const(1.0)})
    assert f.partial_p(1) == P(2, {(1, 2): Const(2.0)})
    assert f.partial_p(2) == P(2, {(1, 1): Const(1.0)})


def test_affine_queries():
    f = P.affine([Var("q1"), Const(2.0)], parse_expr("sin(t)", None), 2)
    assert f.is_affine()
    a, b = f.linear_coefficients()
    assert a[0] == Var("q1") and a[1] == Const(2.0)
    assert b == parse_expr("sin(t)", None)
    assert not (f * P.momentum(1, 2)).is_affine()
    with pytest.raises(ValueError):
        (f * P.momentum(1, 2)).linear_coefficients()


def test_trivial_cover_partition():
    cover = BumpCover.trivial(2)
    assert cover.partition(3) == [Const(1.0)]
    assert cover.sum_of_powers(2) == Const(1.0)


THREE_CHART = BumpCover(1, (((-6.0, 5.5),), ((0.0, 5.5),), ((6.0, 5.5),)))
TWO_CHART_2D = BumpCover(2, (((-3.0, 5.0), (0.0, 7.0)),
                             ((3.0, 5.0), (0.0, 7.0))))


def test_partition_of_unity_sums():
    rng = np.random.default_rng(12)
    xs = rng.uniform(-10, 10, size=200)
    for power in (2, 3, 4):
        parts = THREE_CHART.partition(power)
        total = sum(np.asarray(l.evaluate({"q1": xs})) ** power
                    for l in parts)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_partition_of_unity_2d():
    rng = np.random.default_rng(13)
    pts = rng.uniform(-1.9, 1.9, size=(100, 2))
    parts = TWO_CHART_2D.partition(2)
    binding = {"q1": pts[:, 0], "q2": pts[:, 1]}
    total = sum(np.asarray(l.evaluate(binding)) ** 2 for l in parts)
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_partition_functions_are_smooth():
    l = THREE_CHART.partition(3)[1]
    dl = l.diff("q1").diff("q1")
    h = 1e-4
    for x in (-5.4, -0.5, 0.1, 5.2):  # includes points near window edges
        fd = (l.evaluate({"q1": x + h}) - 2 * l.evaluate({"q1": x})
              + l.evaluate({"q1": x - h})) / h**2
        assert dl.evaluate({"q1": x}) == pytest.approx(fd, rel=1e-4, abs=1e-5)


def test_coverage_check():
    THREE_CHART.check_covers(np.linspace(-10, 10, 101)[:, None])
    with pytest.raises(CoverageError) as err:
        THREE_CHART.check_covers(np.array([[0.0], [20.0]]))
    assert err.value.point[0] == 20.0


def test_cover_validation():
    with pytest.raises(ValueError):
        BumpCover(1, ())
    with pytest.raises(ValueError):
        BumpCover(2, (((0.0, 1.0),),))  # arity 1 window in a 2d cover
    with pytest.raises(ValueError):
        BumpCover(1, (((0.0, -1.0),),))


def test_decompose_affine_passthrough():
    f = P.affine([Const(2.0)], Var("q1"), 1)
    fact = decompose_polynomial(f)
    assert fact.factors == ((f,),)
    assert fact.expand() == f


def test_decompose_square_trivial_cover():
    f = P.momentum(1, 1) * P.momentum(1, 1)
    fact = decompose_polynomial(f)
    assert len(fact.factors) == 1
    assert all(g.is_affine() for g in fact.factors[0])
    assert fact.expand() == f


def test_decompose_reconstructs_with_charts():
    """Random polynomials, degrees 2 to 4, covers of 1 to 3 charts."""
    rng = np.random.default_rng(77)
    covers = [BumpCover.trivial(1),
              BumpCover(1, (((-4.0, 9.0),), ((4.0, 9.0),))),
              THREE_CHART]
    for cover in covers:
        for degree in (2, 3, 4):
            terms = {idx: Const(round(float(rng.uniform(-2, 2)), 3))
                     for idx in combinations_with_replacement((1,), degree)}
            terms[(1,)] = parse_expr("sin(q1)", None)
            f = P(1, terms)
            fact = decompose_polynomial(f, cover)
            for group in fact.factors:
                assert all(g.is_affine() for g in group)
            qs = rng.uniform(-4.5, 4.5, size=(50, 1))
            ps = rng.uniform(-2, 2, size=(50, 1))
            assert fact.max_error(0.0, (), qs, ps) <= 1e-12


def test_decompose_2d_mixed_monomials():
    rng = np.random.default_rng(5)
    f = P(2, {(1, 2): Const(0.7), (1, 1, 2): parse_expr("cos(q2)", None),
              (2,): Const(1.0)})
    fact = decompose_polynomial(f, TWO_CHART_2D)
    qs = rng.uniform(-1.5, 1.5, size=(40, 2))
    ps = rng.uniform(-1.5, 1.5, size=(40, 2))
    assert fact.max_error(0.1, (), qs, ps) <= 1e-12
