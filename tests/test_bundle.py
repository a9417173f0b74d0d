"""Tests for the bundle model, paths and the quantization check."""

import numpy as np
import pytest

from leafquant.bundle import (
    BundleModel,
    ParameterPath,
    prequant_curvature_check,
    reparametrize_path,
)
from leafquant.evolution import DrivenHamiltonian
from leafquant.expressions import Const, Var, parse_expr
from leafquant.observables import PolynomialObservable
from leafquant.operators import FiberGrid

TWO_PI = 2.0 * np.pi


def circle_path(radius=1.0, closed=True):
    c = [parse_expr(f"{radius}*cos(t)", ["t"]),
         parse_expr(f"{radius}*sin(t)", ["t"])]
    return ParameterPath.from_expressions(c, (0.0, TWO_PI), closed=closed)


def test_bundle_validation():
    with pytest.raises(ValueError):
        BundleModel(2, 1, ((Const(1.0),),))  # wrong row width
    with pytest.raises(ValueError, match="q2"):
        BundleModel(1, 1, ((Var("q2"),),))
    with pytest.raises(ValueError):
        BundleModel(1, 1, ((Const(0.0),),), (Const(1.0), Const(2.0)))


def test_closed_form_path_and_velocity():
    path = circle_path()
    np.testing.assert_allclose(path.value(0.0), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(path.velocity(np.pi / 2), [-1.0, 0.0],
                               atol=1e-15)
    ts = np.linspace(0, TWO_PI, 9)
    vals = path.values(ts)
    assert vals.shape == (9, 2)
    np.testing.assert_allclose(vals[:, 0], np.cos(ts), atol=1e-15)


def test_closed_flag_rejects_open_curve():
    with pytest.raises(ValueError):
        ParameterPath.from_expressions([parse_expr("t", ["t"])], (0.0, 1.0),
                                       closed=True)


def test_sampled_path_spline():
    ts = np.linspace(0, TWO_PI, 200)
    vals = np.stack([np.cos(ts), np.sin(ts)], axis=1)
    path = ParameterPath.from_samples(ts, vals, closed=True)
    mid = TWO_PI / 3
    np.testing.assert_allclose(path.value(mid), [np.cos(mid), np.sin(mid)],
                               atol=1e-8)
    np.testing.assert_allclose(path.velocity(mid), [-np.sin(mid), np.cos(mid)],
                               atol=1e-6)


def test_sampled_path_needs_four_knots():
    with pytest.raises(ValueError, match="underdetermined"):
        ParameterPath.from_samples([0.0, 0.5, 1.0], [[0.0], [1.0], [2.0]])


def test_driven_hamiltonian_combines_drifts():
    bundle = BundleModel(2, 1, ((Const(1.0), Var("q1")),),
                         (parse_expr("sin(t)", ["t"]),))
    dh = DrivenHamiltonian(bundle, circle_path(), PolynomialObservable(1, {}),
                           FiberGrid((16,), (3.0,)))
    # the coefficient of p1 in H* at rates (0.5, 2): 0.5 * 1 + 2 * q1 + sin(t)
    got = dh.star.terms[(1,)]
    for q in (-1.0, 0.3, 2.0):
        want = np.sin(0.7) + 0.5 + 2.0 * q
        assert got.evaluate({"t": 0.7, "q1": q, "v1": 0.5, "v2": 2.0}) \
            == pytest.approx(want, 1e-14)


@pytest.mark.parametrize("n", [1, 2])
def test_prequant_curvature_matches_symplectic_form(n):
    report = prequant_curvature_check(n)
    assert report.matches
    assert report.curvature_imag[("p1", "q1")] == Const(1.0)
    assert report.curvature_imag[("q1", "p1")] == Const(-1.0)
    if n == 2:
        assert report.curvature_imag[("p1", "q2")] == Const(0.0)
        assert report.curvature_imag[("p2", "q2")] == Const(1.0)


def test_reparametrize_fixed_endpoints_and_monotone():
    path = ParameterPath.from_expressions(
        [parse_expr("cos(6.283185307179586*t)", ["t"]),
         parse_expr("sin(6.283185307179586*t)", ["t"])],
        (0.0, 1.0), closed=True)
    warp = parse_expr("0.5*(t + t^2)", ["t"])
    warped = reparametrize_path(path, warp)
    for t in (0.0, 0.3, 0.8, 1.0):
        w = warp.evaluate({"t": t})
        np.testing.assert_allclose(warped.value(t), path.value(w), atol=1e-14)
    with pytest.raises(ValueError, match="endpoints"):
        reparametrize_path(path, parse_expr("0.5*t", ["t"]))
    with pytest.raises(ValueError, match="increasing"):
        reparametrize_path(
            path, parse_expr("t + 0.3*sin(6.283185307179586*t)", ["t"]))


def test_reparametrize_sampled_path():
    ts = np.linspace(0.0, 1.0, 101)
    path = ParameterPath.from_samples(ts, np.stack(
        [np.cos(TWO_PI * ts), np.sin(TWO_PI * ts)], axis=1), closed=True)
    warped = reparametrize_path(path, parse_expr("0.5*(t + t^2)", ["t"]))
    for t in (0.1, 0.5, 0.9):
        w = 0.5 * (t + t * t)
        np.testing.assert_allclose(warped.value(t), path.value(w), atol=1e-5)
