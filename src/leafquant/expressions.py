"""Small symbolic expression language for coefficient fields.

Scalar coefficients entering connections, Hamiltonian terms and parameter
paths are written in a tiny arithmetic language over named real variables
(``t``, ``s1..sm``, ``q1..qn`` by convention, plus user constants).  The
module provides parsing with byte-accurate error offsets, exact symbolic
differentiation, pointwise or numpy-vectorized evaluation, substitution,
and printing that round-trips through the parser.  Each tree evaluates
through one closure, compiled once from its nodes (``compiled``).

Grammar::

    expr   := ('-')? term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-')* base ('^' integer)?
    base   := number | ident | '(' expr ')'
            | func '(' expr (';' expr (',' expr)*)? ')'

Functions: ``sin cos exp tanh sqrt`` (one argument), the compactly
supported mollifier ``bump(x; c, r)`` which is ``exp(1 - 1/(1 - u^2))``
for ``u = (x - c)/r`` when ``|u| < 1`` and exactly zero otherwise, its
printed derivatives ``bump_d<k>(x; c, r)``, and ``root(x; k)`` for the
real k-th root of a positive quantity.  ``c``, ``r`` and ``k`` must be
constant subexpressions.

Trees are immutable; arithmetic on them goes through smart constructors
that fold constants and drop additive/multiplicative identities, nothing
more aggressive.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Union

import numpy as np

__all__ = [
    "Expression",
    "Const",
    "Var",
    "ExpressionError",
    "ParseError",
    "UnknownVariableError",
    "UnboundVariableError",
    "EvaluationError",
    "parse_expr",
]

Number = Union[int, float]


class ExpressionError(Exception):
    """Base class for everything this module raises on purpose."""


class ParseError(ExpressionError):
    """Syntax error, carrying the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class UnknownVariableError(ParseError):
    """An identifier outside the declared variable set."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown variable '{name}'", offset)
        self.name = name


class UnboundVariableError(ExpressionError):
    """Evaluation met a variable the binding does not cover."""

    def __init__(self, name: str):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


class EvaluationError(ExpressionError):
    """Evaluation produced a non-finite value (division by zero etc.)."""


def _as_expr(value) -> "Expression":
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return Const(float(value))
    raise TypeError(f"cannot coerce {value!r} to an expression")


class Expression:
    """Immutable expression tree node.  Subclasses implement the walkers
    and ``_compile``, which builds the node's closure over its
    children's."""

    __slots__ = ()

    # -- algebra ---------------------------------------------------------

    @staticmethod
    def _coerce(value):
        try:
            return _as_expr(value)
        except TypeError:
            return None

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else add(self, other)

    def __radd__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else add(other, self)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else sub(self, other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else sub(other, self)

    def __mul__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else mul(self, other)

    def __rmul__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else mul(other, self)

    def __truediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else div(self, other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return pow_int(self, exponent)

    # -- interface -------------------------------------------------------

    def diff(self, var: str) -> "Expression":
        """Exact partial derivative with respect to ``var``."""
        raise NotImplementedError

    def evaluate(self, binding: Mapping[str, Number | np.ndarray]):
        """Evaluate under ``binding``; numpy arrays broadcast through.

        Returns a float for scalar bindings, an ndarray otherwise.
        Raises UnboundVariableError / EvaluationError.
        """
        try:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                out = self.compiled(binding)
        except (ZeroDivisionError, OverflowError) as exc:
            raise EvaluationError(
                f"{exc} while evaluating '{self.to_source()}'") from None
        if isinstance(out, float):
            finite = math.isfinite(out)
        else:
            out = np.asarray(out)
            finite = bool(np.all(np.isfinite(out)))
        if not finite:
            raise EvaluationError(
                f"non-finite value while evaluating '{self.to_source()}'")
        if isinstance(out, float) or out.ndim == 0:
            return float(out)
        return out

    @cached_property
    def compiled(self):
        """This tree as one function of a binding, built once: the
        arithmetic of ``evaluate`` without its error state or checks."""
        return self._compile()

    def _compile(self):
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, "Expression | Number"]) -> "Expression":
        """Replace variables by expressions (or numbers), folding constants."""
        raise NotImplementedError

    def free_variables(self) -> frozenset:
        raise NotImplementedError

    def to_source(self) -> str:
        """Render to text that reparses to an equal tree."""
        return self._src(0)

    def _src(self, parent_prec: int) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.to_source()!r})"


# Precedence levels used by the printer: addition 1, multiplication 2,
# unary minus 3, power 4, atoms 5.


@dataclass(frozen=True, eq=True)
class Const(Expression):
    value: float

    def diff(self, var):
        return _ZERO

    def _compile(self):
        value = self.value
        return lambda binding: value

    def substitute(self, mapping):
        return self

    def free_variables(self):
        return frozenset()

    def _src(self, parent_prec):
        return _fmt_number(self.value)


@dataclass(frozen=True, eq=True)
class Var(Expression):
    name: str

    def diff(self, var):
        return _ONE if var == self.name else _ZERO

    def _compile(self):
        name = self.name

        def var(binding):
            try:
                return binding[name]
            except KeyError:
                raise UnboundVariableError(name) from None
        return var

    def substitute(self, mapping):
        if self.name in mapping:
            return _as_expr(mapping[self.name])
        return self

    def free_variables(self):
        return frozenset((self.name,))

    def _src(self, parent_prec):
        return self.name


@dataclass(frozen=True, eq=True)
class Neg(Expression):
    operand: Expression

    def diff(self, var):
        return neg(self.operand.diff(var))

    def _compile(self):
        f = self.operand.compiled
        return lambda binding: -f(binding)

    def substitute(self, mapping):
        return neg(self.operand.substitute(mapping))

    def free_variables(self):
        return self.operand.free_variables()

    def _src(self, parent_prec):
        inner = self.operand._src(3)
        text = f"-{inner}"
        return f"({text})" if parent_prec > 2 else text


@dataclass(frozen=True, eq=True)
class Add(Expression):
    left: Expression
    right: Expression

    def diff(self, var):
        return add(self.left.diff(var), self.right.diff(var))

    def _compile(self):
        f, g = self.left.compiled, self.right.compiled
        return lambda binding: f(binding) + g(binding)

    def substitute(self, mapping):
        return add(self.left.substitute(mapping), self.right.substitute(mapping))

    def free_variables(self):
        return self.left.free_variables() | self.right.free_variables()

    def _src(self, parent_prec):
        text = f"{self.left._src(1)} + {self.right._src(2)}"
        return f"({text})" if parent_prec > 1 else text


@dataclass(frozen=True, eq=True)
class Sub(Expression):
    left: Expression
    right: Expression

    def diff(self, var):
        return sub(self.left.diff(var), self.right.diff(var))

    def _compile(self):
        f, g = self.left.compiled, self.right.compiled
        return lambda binding: f(binding) - g(binding)

    def substitute(self, mapping):
        return sub(self.left.substitute(mapping), self.right.substitute(mapping))

    def free_variables(self):
        return self.left.free_variables() | self.right.free_variables()

    def _src(self, parent_prec):
        # right side printed at higher precedence so a - (b - c) keeps parens
        text = f"{self.left._src(1)} - {self.right._src(2)}"
        return f"({text})" if parent_prec > 1 else text


@dataclass(frozen=True, eq=True)
class Mul(Expression):
    left: Expression
    right: Expression

    def diff(self, var):
        return add(mul(self.left.diff(var), self.right),
                   mul(self.left, self.right.diff(var)))

    def _compile(self):
        f, g = self.left.compiled, self.right.compiled
        return lambda binding: f(binding) * g(binding)

    def substitute(self, mapping):
        return mul(self.left.substitute(mapping), self.right.substitute(mapping))

    def free_variables(self):
        return self.left.free_variables() | self.right.free_variables()

    def _src(self, parent_prec):
        text = f"{self.left._src(2)}*{self.right._src(3)}"
        return f"({text})" if parent_prec > 2 else text


@dataclass(frozen=True, eq=True)
class Div(Expression):
    left: Expression
    right: Expression

    def diff(self, var):
        num = sub(mul(self.left.diff(var), self.right),
                  mul(self.left, self.right.diff(var)))
        return div(num, mul(self.right, self.right))

    def _compile(self):
        f, g = self.left.compiled, self.right.compiled
        return lambda binding: f(binding) / g(binding)

    def substitute(self, mapping):
        return div(self.left.substitute(mapping), self.right.substitute(mapping))

    def free_variables(self):
        return self.left.free_variables() | self.right.free_variables()

    def _src(self, parent_prec):
        text = f"{self.left._src(2)}/{self.right._src(3)}"
        return f"({text})" if parent_prec > 2 else text


@dataclass(frozen=True, eq=True)
class Pow(Expression):
    base: Expression
    exponent: int

    def diff(self, var):
        n = self.exponent
        if n == 0:
            return _ZERO
        return mul(mul(Const(float(n)), pow_int(self.base, n - 1)),
                   self.base.diff(var))

    def _compile(self):
        # one numeric route for scalar and array bases, so a scalar read
        # agrees to the bit with the same point of a vectorized one
        f, n = self.base.compiled, self.exponent
        return lambda binding: np.asarray(f(binding), dtype=float) ** n

    def substitute(self, mapping):
        return pow_int(self.base.substitute(mapping), self.exponent)

    def free_variables(self):
        return self.base.free_variables()

    def _src(self, parent_prec):
        text = f"{self.base._src(5)}^{self.exponent}"
        return f"({text})" if parent_prec > 4 else text


_UNARY = {
    "sin": (np.sin, lambda arg: Call("cos", arg)),
    "cos": (np.cos, lambda arg: neg(Call("sin", arg))),
    "exp": (np.exp, lambda arg: Call("exp", arg)),
    "tanh": (np.tanh, lambda arg: sub(_ONE, pow_int(Call("tanh", arg), 2))),
    "sqrt": (np.sqrt, lambda arg: div(_ONE, mul(Const(2.0), Call("sqrt", arg)))),
}


@dataclass(frozen=True, eq=True)
class Call(Expression):
    func: str
    arg: Expression

    def diff(self, var):
        outer = _UNARY[self.func][1](self.arg)
        return mul(outer, self.arg.diff(var))

    def _compile(self):
        fn, f = _UNARY[self.func][0], self.arg.compiled
        return lambda binding: fn(f(binding))

    def substitute(self, mapping):
        return Call(self.func, self.arg.substitute(mapping))

    def free_variables(self):
        return self.arg.free_variables()

    def _src(self, parent_prec):
        return f"{self.func}({self.arg._src(0)})"


@dataclass(frozen=True, eq=True)
class Root(Expression):
    """Real k-th root of a positive argument, root(x; k)."""

    arg: Expression
    index: int

    def diff(self, var):
        # d/dx x^(1/k) = x^(1/k) / (k x)
        outer = div(self, mul(Const(float(self.index)), self.arg))
        return mul(outer, self.arg.diff(var))

    def _compile(self):
        f, power = self.arg.compiled, 1.0 / self.index
        return lambda binding: np.asarray(f(binding)) ** power

    def substitute(self, mapping):
        return Root(self.arg.substitute(mapping), self.index)

    def free_variables(self):
        return self.arg.free_variables()

    def _src(self, parent_prec):
        return f"root({self.arg._src(0)}; {self.index})"


@dataclass(frozen=True, eq=True)
class Bump(Expression):
    """Order-``order`` derivative of the mollifier bump((x - c)/r).

    The profile g(u) = exp(1 - 1/(1 - u^2)) on |u| < 1, zero outside,
    is smooth on the whole line; every derivative is g(u) times a
    rational prefactor, and the evaluation short-circuits to exactly
    zero wherever g underflows, so all orders vanish identically at and
    beyond the support boundary.
    """

    arg: Expression
    center: float
    radius: float
    order: int = 0

    def diff(self, var):
        bumped = Bump(self.arg, self.center, self.radius, self.order + 1)
        return mul(bumped, self.arg.diff(var))

    def _compile(self):
        f, center, radius, order = (self.arg.compiled, self.center,
                                    self.radius, self.order)
        pref = _bump_prefactor(order)

        def bump(binding):
            x = np.asarray(f(binding), dtype=float)
            u = (x - center) / radius
            out = np.zeros_like(u)
            inside = np.abs(u) < 1.0
            if np.any(inside):
                ui = u[inside]
                g = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
                if order == 0:
                    out[inside] = g
                else:
                    vals = np.zeros_like(g)
                    live = g > 0.0
                    if np.any(live):
                        vals[live] = g[live] * pref.evaluate({"u": ui[live]})
                    out[inside] = vals * radius ** (-order)
            if np.ndim(x) == 0:
                return float(out[()])
            return out
        return bump

    def substitute(self, mapping):
        return Bump(self.arg.substitute(mapping), self.center, self.radius,
                    self.order)

    def free_variables(self):
        return self.arg.free_variables()

    def _src(self, parent_prec):
        name = "bump" if self.order == 0 else f"bump_d{self.order}"
        return (f"{name}({self.arg._src(0)}; {_fmt_number(self.center)}, "
                f"{_fmt_number(self.radius)})")


_PREFACTOR_CACHE: dict[int, Expression] = {}


def _bump_prefactor(order: int) -> Expression:
    """Rational R_k with g^(k)(u) = g(u) R_k(u); built by recurrence."""
    if order == 0:
        return _ONE
    if order not in _PREFACTOR_CACHE:
        u = Var("u")
        dlog = div(Const(-2.0) * u, pow_int(_ONE - u * u, 2))
        start = max((k for k in _PREFACTOR_CACHE if k < order), default=0)
        r = _PREFACTOR_CACHE.get(start, _ONE)
        for k in range(start + 1, order + 1):
            r = add(r.diff("u"), mul(r, dlog))
            _PREFACTOR_CACHE[k] = r
    return _PREFACTOR_CACHE[order]


_ZERO = Const(0.0)
_ONE = Const(1.0)


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


# -- smart constructors --------------------------------------------------


def _const_value(e: Expression):
    return e.value if isinstance(e, Const) else None


def add(a: Expression, b: Expression) -> Expression:
    av, bv = _const_value(a), _const_value(b)
    if av is not None and bv is not None:
        return Const(av + bv)
    if av == 0.0:
        return b
    if bv == 0.0:
        return a
    return Add(a, b)


def sub(a: Expression, b: Expression) -> Expression:
    av, bv = _const_value(a), _const_value(b)
    if av is not None and bv is not None:
        return Const(av - bv)
    if bv == 0.0:
        return a
    if av == 0.0:
        return neg(b)
    return Sub(a, b)


def _push_neg(e: Expression):
    """Negate without introducing a Neg node, or None if that needs one."""
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.operand
    if isinstance(e, Mul):
        inner = _push_neg(e.left)
        if inner is not None:
            return mul(inner, e.right)
    if isinstance(e, Div):
        inner = _push_neg(e.left)
        if inner is not None:
            return div(inner, e.right)
    return None


def neg(a: Expression) -> Expression:
    # signs stay attached to leading constant factors so printing and
    # reparsing land on the same tree
    pushed = _push_neg(a)
    return Neg(a) if pushed is None else pushed


def mul(a: Expression, b: Expression) -> Expression:
    av, bv = _const_value(a), _const_value(b)
    if av is not None and bv is not None:
        return Const(av * bv)
    if av == 0.0 or bv == 0.0:
        return _ZERO
    if av == 1.0:
        return b
    if bv == 1.0:
        return a
    if av == -1.0:
        return neg(b)
    if bv == -1.0:
        return neg(a)
    if isinstance(a, Neg):
        return neg(mul(a.operand, b))
    if isinstance(b, Neg):
        return neg(mul(a, b.operand))
    return Mul(a, b)


def div(a: Expression, b: Expression) -> Expression:
    av, bv = _const_value(a), _const_value(b)
    if bv == 0.0:
        raise EvaluationError("division by constant zero")
    if av is not None and bv is not None:
        return Const(av / bv)
    if av == 0.0:
        return _ZERO
    if bv == 1.0:
        return a
    if bv == -1.0:
        return neg(a)
    if isinstance(a, Neg):
        return neg(div(a.operand, b))
    if isinstance(b, Neg):
        return neg(div(a, b.operand))
    return Div(a, b)


def pow_int(base: Expression, exponent: int) -> Expression:
    if not isinstance(exponent, (int, np.integer)):
        raise TypeError("exponent must be an integer")
    exponent = int(exponent)
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    bv = _const_value(base)
    if bv is not None:
        if bv == 0.0 and exponent < 0:
            raise EvaluationError("zero raised to a negative power")
        return Const(bv ** exponent)
    return Pow(base, exponent)


def bump_of(arg: Expression, center: float, radius: float) -> Expression:
    if radius <= 0:
        raise ValueError("bump radius must be positive")
    return Bump(arg, float(center), float(radius), 0)


def root_of(arg: Expression, index: int) -> Expression:
    if index < 1:
        raise ValueError("root index must be a positive integer")
    if index == 1:
        return arg
    av = _const_value(arg)
    if av is not None and av >= 0.0:
        return Const(av ** (1.0 / index))
    return Root(arg, int(index))


# -- parser --------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^();,]))")

_BUMP_D_RE = re.compile(r"bump_d(\d+)$")


class _Tokenizer:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        while True:
            at = self._skip_ws(self.pos)
            if at >= len(source):
                break
            m = _TOKEN_RE.match(source, self.pos)
            if m is None:
                raise ParseError(
                    f"unexpected character {source[at]!r}", _byte(source, at))
            start = m.start(m.lastgroup)
            self.tokens.append((m.lastgroup, m.group(m.lastgroup), start))
            self.pos = m.end()
        self.tokens.append(("end", "", len(source)))
        self.index = 0

    def _skip_ws(self, pos):
        while pos < len(self.source) and self.source[pos].isspace():
            pos += 1
        return pos

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok


def _byte(source: str, char_offset: int) -> int:
    return len(source[:char_offset].encode("utf-8"))


class _Parser:
    def __init__(self, source: str, allowed_vars):
        self.source = source
        self.toks = _Tokenizer(source)
        self.allowed = None if allowed_vars is None else frozenset(allowed_vars)

    def parse(self) -> Expression:
        e = self.expr()
        kind, text, off = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}",
                             _byte(self.source, off))
        return e

    def expr(self) -> Expression:
        kind, text, _ = self.toks.peek()
        negate = False
        if kind == "op" and text == "-":
            self.toks.next()
            negate = True
        e = self.term()
        if negate:
            e = neg(e)
        while True:
            kind, text, _ = self.toks.peek()
            if kind == "op" and text in "+-":
                self.toks.next()
                rhs = self.term()
                e = add(e, rhs) if text == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expression:
        e = self.factor()
        while True:
            kind, text, _ = self.toks.peek()
            if kind == "op" and text in "*/":
                self.toks.next()
                rhs = self.factor()
                try:
                    e = mul(e, rhs) if text == "*" else div(e, rhs)
                except EvaluationError as exc:
                    raise ParseError(str(exc), _byte(self.source,
                                                     self.toks.peek()[2]))
            else:
                return e

    def factor(self) -> Expression:
        kind, text, off = self.toks.peek()
        if kind == "op" and text == "-":
            self.toks.next()
            return neg(self.factor())
        e = self.base()
        kind, text, off = self.toks.peek()
        if kind == "op" and text == "^":
            self.toks.next()
            try:
                e = pow_int(e, self._integer("exponent"))
            except EvaluationError as exc:
                raise ParseError(str(exc), _byte(self.source, off))
        return e

    def _integer(self, what: str) -> int:
        kind, text, off = self.toks.next()
        sign = 1
        if kind == "op" and text in "+-":
            sign = -1 if text == "-" else 1
            kind, text, off = self.toks.next()
        if kind != "number" or any(c in text for c in ".eE"):
            raise ParseError(f"expected integer {what}",
                             _byte(self.source, off))
        return sign * int(text)

    def base(self) -> Expression:
        kind, text, off = self.toks.next()
        boff = _byte(self.source, off)
        if kind == "number":
            return Const(float(text))
        if kind == "op" and text == "(":
            e = self.expr()
            self._expect(")")
            return e
        if kind == "ident":
            nk, nt, _ = self.toks.peek()
            if nk == "op" and nt == "(":
                return self._call(text, boff)
            if self.allowed is not None and text not in self.allowed:
                raise UnknownVariableError(text, boff)
            return Var(text)
        what = "end of input" if kind == "end" else repr(text)
        raise ParseError(f"expected a value, found {what}", boff)

    def _expect(self, op: str):
        kind, text, off = self.toks.next()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", _byte(self.source, off))

    def _call(self, name: str, boff: int) -> Expression:
        self._expect("(")
        arg = self.expr()
        params: list[Expression] = []
        kind, text, _ = self.toks.peek()
        if kind == "op" and text == ";":
            self.toks.next()
            params.append(self.expr())
            while True:
                kind, text, _ = self.toks.peek()
                if kind == "op" and text == ",":
                    self.toks.next()
                    params.append(self.expr())
                else:
                    break
        self._expect(")")

        if name in _UNARY:
            if params:
                raise ParseError(f"{name} takes a single argument", boff)
            return Call(name, arg)
        if name == "bump" or _BUMP_D_RE.match(name):
            if len(params) != 2:
                raise ParseError("bump needs 'bump(x; center, radius)'", boff)
            center = self._constant(params[0], boff)
            radius = self._constant(params[1], boff)
            if radius <= 0:
                raise ParseError("bump radius must be positive", boff)
            m = _BUMP_D_RE.match(name)
            order = int(m.group(1)) if m else 0
            return Bump(arg, center, radius, order)
        if name == "root":
            if len(params) != 1:
                raise ParseError("root needs 'root(x; k)'", boff)
            kval = self._constant(params[0], boff)
            if kval != int(kval) or kval < 1:
                raise ParseError("root index must be a positive integer", boff)
            return root_of(arg, int(kval))
        raise ParseError(f"unknown function '{name}'", boff)

    def _constant(self, e: Expression, boff: int) -> float:
        if not isinstance(e, Const):
            raise ParseError("parameter must be a constant", boff)
        return e.value


def parse_expr(source: str, allowed_vars: Iterable[str] | None = None) -> Expression:
    """Parse ``source`` into an expression tree.

    ``allowed_vars`` restricts identifiers; anything else raises
    UnknownVariableError with the byte offset of the identifier.
    """
    return _Parser(source, allowed_vars).parse()

