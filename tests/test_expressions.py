"""Tests for the coefficient expression language."""

import operator

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from leafquant import expressions as ex
from leafquant.expressions import (
    Const,
    EvaluationError,
    ParseError,
    UnboundVariableError,
    UnknownVariableError,
    Var,
    parse_expr,
)

VARS = ["t", "s1", "s2", "q1", "q2"]


def random_tree(rng, depth=4):
    """Random smooth expression over VARS, safe to differentiate anywhere."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Const(round(float(rng.uniform(-2.0, 2.0)), 3))
        return Var(VARS[rng.integers(len(VARS))])
    roll = rng.random()
    a = random_tree(rng, depth - 1)
    if roll < 0.18:
        return a + random_tree(rng, depth - 1)
    if roll < 0.36:
        return a - random_tree(rng, depth - 1)
    if roll < 0.54:
        return a * random_tree(rng, depth - 1)
    if roll < 0.64:
        # denominator kept away from zero so finite differences behave
        return a / (random_tree(rng, depth - 1) ** 2 + 1.0)
    if roll < 0.74:
        fn = ["sin", "cos", "exp", "tanh"][rng.integers(4)]
        if fn == "exp":
            a = ex.Call("tanh", a)  # tame the growth before exponentiating
        return ex.Call(fn, a)
    if roll < 0.82:
        return ex.Call("sqrt", a ** 2 + 0.5)
    if roll < 0.92:
        return a ** int(rng.integers(2, 4))
    return ex.bump_of(a, 0.0, 3.0)


def random_binding(rng):
    return {v: float(rng.uniform(0.4, 1.6)) for v in VARS}


def test_parse_known_values():
    e = parse_expr("0.5*(q1 - s1)^2 + sin(t)*q1", ["t", "s1", "q1"])
    got = e.evaluate({"t": 0.3, "s1": 0.2, "q1": 1.5})
    want = 0.5 * (1.5 - 0.2) ** 2 + np.sin(0.3) * 1.5
    assert got == pytest.approx(want, abs=1e-15)


def test_precedence_and_unary_minus():
    e = parse_expr("-2*t^2 + 6/2/3 - -1", ["t"])
    assert e.evaluate({"t": 2.0}) == pytest.approx(-8 + 1 + 1)


def test_integer_exponent_only():
    with pytest.raises(ParseError):
        parse_expr("q1^2.5", ["q1"])
    assert parse_expr("q1^-2", ["q1"]).evaluate({"q1": 2.0}) == 0.25


def test_diff_matches_finite_differences():
    """Symbolic derivatives against central differences, h = 1e-5."""
    rng = np.random.default_rng(20260823)
    h = 1e-5
    checked = 0
    while checked < 100:
        tree = random_tree(rng)
        var = VARS[rng.integers(len(VARS))]
        sym = tree.diff(var)
        binding = random_binding(rng)
        try:
            up = dict(binding, **{var: binding[var] + h})
            dn = dict(binding, **{var: binding[var] - h})
            fd = (tree.evaluate(up) - tree.evaluate(dn)) / (2 * h)
            exact = sym.evaluate(binding)
        except EvaluationError:
            continue
        if abs(fd) > 1e4:
            continue  # derivative too steep for the FD stencil to resolve
        assert abs(exact - fd) <= 1e-6 * max(1.0, abs(exact)), tree.to_source()
        checked += 1


def test_diff_quotient_rule_exact():
    e = parse_expr("sin(t)/t", ["t"])
    d = e.diff("t")
    t = 1.3
    want = (np.cos(t) * t - np.sin(t)) / t**2
    assert d.evaluate({"t": t}) == pytest.approx(want, rel=1e-14)


def test_roundtrip_print_parse():
    rng = np.random.default_rng(7)
    for _ in range(200):
        tree = random_tree(rng, depth=5)
        text = tree.to_source()
        again = parse_expr(text, VARS)
        assert again == tree, text


def test_roundtrip_of_derivatives():
    rng = np.random.default_rng(11)
    for _ in range(50):
        tree = random_tree(rng, depth=4).diff("q1")
        again = parse_expr(tree.to_source(), VARS)
        assert again == tree, tree.to_source()


def test_fuzzed_invalid_sources_raise_structured_errors():
    rng = np.random.default_rng(3)
    alphabet = list("q1 t+-*/^();,sincoe.2 _")
    for _ in range(500):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.integers(1, 14)))
        try:
            parse_expr(text, VARS)
        except ParseError:
            pass  # structured failure is the contract
        # anything else propagating up is a bug


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse_expr("q1 +", ["q1"])
    assert err.value.offset == 4
    with pytest.raises(UnknownVariableError) as err:
        parse_expr("t + q3", ["t", "q1"])
    assert err.value.name == "q3"
    assert err.value.offset == 4


def test_unbound_and_nonfinite_errors():
    e = parse_expr("q1/t", ["q1", "t"])
    with pytest.raises(UnboundVariableError):
        e.evaluate({"q1": 1.0})
    with pytest.raises(EvaluationError):
        e.evaluate({"q1": 1.0, "t": 0.0})
    with pytest.raises(EvaluationError):
        parse_expr("sqrt(t)", ["t"]).evaluate({"t": -2.0})


def test_scalar_nonfinite_raises_and_floats_come_back_as_float():
    e = parse_expr("exp(q1)", ["q1"])
    for x in (1000.0, np.float64(1000.0), np.array(1000.0)):
        with pytest.raises(EvaluationError, match="non-finite"):
            e.evaluate({"q1": x})
    for x in (1.0, np.float64(1.0), np.array(1.0)):
        out = e.evaluate({"q1": x})
        assert type(out) is float and out == pytest.approx(np.e)


def test_vectorized_evaluation_matches_scalar():
    rng = np.random.default_rng(5)
    tree = random_tree(rng, depth=5)
    xs = rng.uniform(0.4, 1.6, size=(40, len(VARS)))
    binding = {v: xs[:, i] for i, v in enumerate(VARS)}
    vec = tree.evaluate(binding)
    scal = np.array([tree.evaluate({v: xs[j, i] for i, v in enumerate(VARS)})
                     for j in range(len(xs))])
    np.testing.assert_allclose(vec, scal, rtol=1e-14, atol=1e-300)


def _power(pair):
    base, n = pair
    # a negative power of a base kept off zero stays finite
    return (base if n >= 0 else base * base + 0.5) ** n


TREES_IN_T = st.recursive(
    st.one_of(st.just(Var("t")),
              st.floats(-2.0, 2.0).map(lambda v: Const(round(v, 3)))),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda ab: ab[0] + ab[1]),
        st.tuples(sub, sub).map(lambda ab: ab[0] * ab[1]),
        st.tuples(st.sampled_from(["sin", "cos", "tanh"]), sub).map(
            lambda fa: ex.Call(*fa)),
        st.tuples(sub, st.integers(-3, 5)).map(_power)),
    max_leaves=6)


@example(tree=Var("t") ** 3, ts=[0.01])
@given(tree=TREES_IN_T,
       ts=st.lists(st.floats(0.0, 6.28), min_size=1, max_size=16))
def test_scalar_evaluation_equals_vectorized_to_the_bit(tree, ts):
    try:
        vec = tree.evaluate({"t": np.array(ts)})
    except EvaluationError:
        assume(False)
    scal = np.array([tree.evaluate({"t": t}) for t in ts])
    np.testing.assert_array_equal(scal, np.broadcast_to(vec, scal.shape))


def test_bump_profile():
    b = parse_expr("bump(q1; 0.5, 2)", ["q1"])
    assert b.evaluate({"q1": 0.5}) == 1.0
    assert b.evaluate({"q1": 2.5}) == 0.0
    assert b.evaluate({"q1": 2.5 + 1e-12}) == 0.0
    assert b.evaluate({"q1": -1.4}) > 0.0
    u = 0.3
    want = np.exp(1.0 - 1.0 / (1.0 - u * u))
    assert b.evaluate({"q1": 0.5 + 2 * u}) == pytest.approx(want, rel=1e-14)


def test_bump_derivatives_vanish_at_support_boundary():
    """Every derivative is exactly zero at and just past |x - c| = r."""
    b = parse_expr("bump(q1; 0, 1)", ["q1"])
    d = b
    for order in range(1, 7):
        d = d.diff("q1")
        for x in (1.0 - 1e-9, 1.0, 1.0 + 1e-9, -1.0 + 1e-9, -1.0 - 1e-9):
            assert abs(d.evaluate({"q1": x})) <= 1e-12, (order, x)


def test_bump_derivative_matches_finite_differences():
    b = parse_expr("bump(q1; 0, 2)", ["q1"])
    d2 = b.diff("q1").diff("q1")
    h = 1e-4
    for x in (-1.7, -0.4, 0.0, 0.9, 1.5):
        fd = (b.evaluate({"q1": x + h}) - 2 * b.evaluate({"q1": x})
              + b.evaluate({"q1": x - h})) / h**2
        assert d2.evaluate({"q1": x}) == pytest.approx(fd, rel=5e-5, abs=5e-6)


def test_bump_requires_constant_parameters():
    with pytest.raises(ParseError):
        parse_expr("bump(q1; t, 1)", ["q1", "t"])
    with pytest.raises(ParseError):
        parse_expr("bump(q1; 0, -1)", ["q1"])


def test_root_and_its_derivative():
    r = parse_expr("root(q1; 3)", ["q1"])
    assert r.evaluate({"q1": 8.0}) == pytest.approx(2.0, rel=1e-15)
    d = r.diff("q1")
    assert d.evaluate({"q1": 8.0}) == pytest.approx(1.0 / 12.0, rel=1e-14)
    with pytest.raises(ParseError):
        parse_expr("root(q1; 0)", ["q1"])
    with pytest.raises(ParseError):
        parse_expr("root(q1)", ["q1"])


def test_substitute_binds_and_folds():
    e = parse_expr("s1*q1 + t", ["t", "s1", "q1"])
    bound = e.substitute({"s1": 2.0, "t": 0.0})
    assert bound == parse_expr("2*q1", ["q1"])
    composed = e.substitute({"t": parse_expr("q1^2", ["q1"])})
    assert composed.evaluate({"s1": 1.0, "q1": 3.0}) == 12.0


def test_free_variables():
    e = parse_expr("s1*q1 + sin(t)", ["t", "s1", "q1"])
    assert e.free_variables() == {"t", "s1", "q1"}
    assert e.substitute({"t": 0.0}).free_variables() == {"s1", "q1"}


def test_constant_folding_identities():
    assert parse_expr("0*q1 + q1*1 + 0", ["q1"]) == Var("q1")
    assert parse_expr("2^3 + 1", []) == Const(9.0)


_REFERENCE_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
                    "tanh": np.tanh, "sqrt": np.sqrt}
_REFERENCE_BINARY = {ex.Add: operator.add, ex.Sub: operator.sub,
                     ex.Mul: operator.mul, ex.Div: operator.truediv}


def walk(e, binding):
    """The value of ``e`` by recursion over its nodes, with the numpy
    routes of each node: the semantics the compiled closures keep."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return binding[e.name]
    if isinstance(e, ex.Neg):
        return -walk(e.operand, binding)
    if type(e) in _REFERENCE_BINARY:
        return _REFERENCE_BINARY[type(e)](walk(e.left, binding),
                                          walk(e.right, binding))
    if isinstance(e, ex.Pow):
        return np.asarray(walk(e.base, binding), dtype=float) ** e.exponent
    if isinstance(e, ex.Root):
        return np.asarray(walk(e.arg, binding)) ** (1.0 / e.index)
    if isinstance(e, ex.Call):
        return _REFERENCE_CALLS[e.func](walk(e.arg, binding))
    assert isinstance(e, ex.Bump)
    x = np.asarray(walk(e.arg, binding), dtype=float)
    u = (x - e.center) / e.radius
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    if np.any(inside):
        ui = u[inside]
        g = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
        if e.order == 0:
            out[inside] = g
        else:
            vals = np.zeros_like(g)
            live = g > 0.0
            if np.any(live):
                pref = ex._bump_prefactor(e.order)
                vals[live] = g[live] * pref.evaluate({"u": ui[live]})
            out[inside] = vals * e.radius ** (-e.order)
    return float(out[()]) if np.ndim(x) == 0 else out


def outcome(fn):
    """(type name, float64 bytes, shape) of fn's value, or the name of
    the error it raises."""
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            value = fn()
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__
    arr = np.asarray(value, dtype=float)
    return arr.tobytes(), arr.shape


ALL_TREES = st.recursive(
    st.one_of(st.sampled_from([Var(v) for v in VARS]),
              st.sampled_from([0.0, 1.0, -2.5, 0.3]).map(Const)),
    lambda sub: st.one_of(
        st.tuples(sub, sub, st.sampled_from([ex.Add, ex.Sub, ex.Mul,
                                             ex.Div])).map(
            lambda abk: abk[2](abk[0], abk[1])),
        sub.map(ex.Neg),
        st.tuples(sub, st.integers(-3, 4)).map(lambda bn: ex.Pow(*bn)),
        st.tuples(sub, st.integers(2, 4)).map(lambda ak: ex.Root(*ak)),
        st.tuples(st.sampled_from(sorted(_REFERENCE_CALLS)), sub).map(
            lambda fa: ex.Call(*fa)),
        st.tuples(sub, st.floats(-1.0, 1.0), st.floats(0.5, 2.0),
                  st.integers(0, 2)).map(lambda a: ex.Bump(*a))),
    max_leaves=8)

POINTS = st.sampled_from([0.0, -0.0, 0.5, -1.25, 2.0, 1e200])


@settings(max_examples=200)
@example(tree=ex.Div(Const(1.0), Var("q1")), scalars=[0.0] * len(VARS),
         kind="float")
@example(tree=ex.Bump(ex.Root(Var("t"), 3), 0.5, 1.0, 2),
         scalars=[-1.25, 0.0, 0.0, 0.5, 0.5], kind="array")
@given(tree=ALL_TREES,
       scalars=st.lists(POINTS, min_size=len(VARS), max_size=len(VARS)),
       kind=st.sampled_from(["float", "float64", "array"]))
def test_compiled_evaluation_equals_the_tree_walk_to_the_bit(tree, scalars,
                                                             kind):
    # every node type over Python floats, numpy scalars and arrays, with
    # zeros, signed zeros and huge values that reach every error route
    if kind == "array":
        binding = {v: np.array([x, 0.75, -x]) for v, x in zip(VARS, scalars)}
    else:
        cast = float if kind == "float" else np.float64
        binding = {v: cast(x) for v, x in zip(VARS, scalars)}
    want = outcome(lambda: walk(tree, binding))
    assert outcome(lambda: tree.compiled(binding)) == want
    try:
        got = tree.evaluate(binding)
    except EvaluationError:
        assert isinstance(want, str) or not np.all(np.isfinite(
            np.frombuffer(want[0])))
    else:
        assert outcome(lambda: got) == want
