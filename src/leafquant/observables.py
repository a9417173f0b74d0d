"""Momentum-polynomial observables on the fibered phase space.

An observable is a polynomial in the fiber momenta ``p_1..p_n`` whose
coefficients are expressions in time ``t``, the classical parameters
``s1..sm`` and the fiber coordinates ``q1..qn`` (the driven Hamiltonian
adds the parameter rates ``v1..vm``).  The module carries the
fiberwise Poisson bracket, Hamiltonian vector fields, smooth bump covers
with their partitions of unity, and the rewrite of any such polynomial
as a sum of products of momentum-affine factors (the form the
quantization rule accepts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .expressions import (
    Const,
    Expression,
    Var,
    bump_of,
    root_of,
)

__all__ = [
    "PolynomialObservable",
    "HamiltonianVectorField",
    "BumpCover",
    "AffineFactorization",
    "poisson_bracket",
    "hamiltonian_vector_field",
    "decompose_polynomial",
]

_ZERO = Const(0.0)
_ONE = Const(1.0)


def _as_coeff(value) -> Expression:
    if isinstance(value, Expression):
        return value
    return Const(float(value))


class PolynomialObservable:
    """Polynomial in the momenta with expression coefficients.

    ``terms`` maps sorted momentum multi-indices (1-based, repetitions
    for powers, () for the momentum-free part) to coefficient trees.
    Instances are immutable; arithmetic returns new objects.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int,
                 terms: Mapping[tuple[int, ...], Expression] | None = None):
        if dim < 1:
            raise ValueError("observable needs at least one fiber coordinate")
        merged: dict[tuple[int, ...], Expression] = {}
        for idx, coeff in (terms or {}).items():
            idx = tuple(sorted(int(i) for i in idx))
            if any(i < 1 or i > dim for i in idx):
                raise ValueError(f"momentum index out of range in {idx}")
            coeff = _as_coeff(coeff)
            if idx in merged:
                merged[idx] = merged[idx] + coeff
            else:
                merged[idx] = coeff
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", {
            idx: c for idx, c in sorted(merged.items())
            if c != _ZERO
        })

    def __setattr__(self, *_):
        raise AttributeError("PolynomialObservable is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "PolynomialObservable":
        return cls(dim, {})

    @classmethod
    def constant(cls, value, dim: int) -> "PolynomialObservable":
        return cls(dim, {(): _as_coeff(value)})

    @classmethod
    def momentum(cls, k: int, dim: int) -> "PolynomialObservable":
        return cls(dim, {(k,): _ONE})

    @classmethod
    def affine(cls, coeffs: Sequence, const, dim: int) -> "PolynomialObservable":
        terms = {(k + 1,): _as_coeff(c) for k, c in enumerate(coeffs)}
        terms[()] = _as_coeff(const)
        return cls(dim, terms)

    # -- structure -------------------------------------------------------

    @property
    def degree(self) -> int:
        return max((len(i) for i in self.terms), default=0)

    def is_affine(self) -> bool:
        return self.degree <= 1

    def homogeneous_part(self, degree: int) -> "PolynomialObservable":
        return PolynomialObservable(
            self.dim, {i: c for i, c in self.terms.items() if len(i) == degree})

    def up_to_degree(self, degree: int) -> "PolynomialObservable":
        return PolynomialObservable(
            self.dim, {i: c for i, c in self.terms.items() if len(i) <= degree})

    def linear_coefficients(self) -> tuple[list[Expression], Expression]:
        """(a_1..a_n, b) of an affine observable a^k p_k + b."""
        if not self.is_affine():
            raise ValueError("observable is not affine in the momenta")
        a = [self.terms.get((k,), _ZERO) for k in range(1, self.dim + 1)]
        return a, self.terms.get((), _ZERO)

    def free_variables(self) -> frozenset:
        out: frozenset = frozenset()
        for c in self.terms.values():
            out = out | c.free_variables()
        return out

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        agg = {idx: (terms.pop(idx) + c if idx in terms else c)
               for idx, c in other.terms.items()}
        agg.update(terms)
        return PolynomialObservable(self.dim, agg)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return PolynomialObservable(self.dim,
                                    {i: -c for i, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, PolynomialObservable):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            out: dict[tuple[int, ...], Expression] = {}
            for i1, c1 in self.terms.items():
                for i2, c2 in other.terms.items():
                    idx = tuple(sorted(i1 + i2))
                    prod = c1 * c2
                    out[idx] = out[idx] + prod if idx in out else prod
            return PolynomialObservable(self.dim, out)
        factor = _as_coeff(other)
        return PolynomialObservable(
            self.dim, {i: c * factor for i, c in self.terms.items()})

    __rmul__ = __mul__

    def _coerce(self, other) -> "PolynomialObservable":
        if isinstance(other, PolynomialObservable):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            return other
        return PolynomialObservable.constant(other, self.dim)

    def __eq__(self, other):
        return (isinstance(other, PolynomialObservable)
                and self.dim == other.dim and self.terms == other.terms)

    def __hash__(self):
        return hash((self.dim, tuple(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "PolynomialObservable(0)"
        bits = []
        for idx, c in self.terms.items():
            mono = "*".join(f"p{i}" for i in idx)
            text = c.to_source()
            bits.append(f"[{text}]{'*' + mono if mono else ''}")
        return f"PolynomialObservable({' + '.join(bits)})"

    # -- calculus --------------------------------------------------------

    def partial_p(self, k: int) -> "PolynomialObservable":
        """Derivative along the k-th momentum."""
        out: dict[tuple[int, ...], Expression] = {}
        for idx, c in self.terms.items():
            count = idx.count(k)
            if count == 0:
                continue
            rest = list(idx)
            rest.remove(k)
            rest = tuple(rest)
            contrib = c * float(count)
            out[rest] = out[rest] + contrib if rest in out else contrib
        return PolynomialObservable(self.dim, out)

    def partial_q(self, k: int) -> "PolynomialObservable":
        """Derivative along the k-th fiber coordinate (coefficient-wise)."""
        return PolynomialObservable(
            self.dim, {i: c.diff(f"q{k}") for i, c in self.terms.items()})

    # -- evaluation ------------------------------------------------------

    def evaluate(self, t, sigma, q, p, rate=()):
        """Pointwise value.

        ``q`` and ``p`` are indexed by coordinate: q[0] is the first
        fiber coordinate, either a scalar or an array of sample values
        (all components then broadcast together).  ``rate`` binds the
        parameter rates ``v1..vm`` as ``sigma`` binds ``s1..sm``.
        """
        binding = {"t": t}
        if sigma is not None:
            for i, v in enumerate(sigma):
                binding[f"s{i + 1}"] = v
        for i, v in enumerate(rate):
            binding[f"v{i + 1}"] = v
        for i in range(self.dim):
            binding[f"q{i + 1}"] = q[i]
        total = 0.0
        for idx, c in self.terms.items():
            mono = 1.0
            for i in idx:
                mono = mono * p[i - 1]
            total = total + c.evaluate(binding) * mono
        return total


@dataclass(frozen=True)
class HamiltonianVectorField:
    """Fiberwise Hamiltonian vector field of an observable.

    ``dq[k]`` is the velocity of q^{k+1} (the momentum partial) and
    ``dp[k]`` the velocity of p_{k+1} (minus the coordinate partial).
    """

    source: PolynomialObservable
    dq: tuple[PolynomialObservable, ...]
    dp: tuple[PolynomialObservable, ...]


def poisson_bracket(f: PolynomialObservable,
                    g: PolynomialObservable) -> PolynomialObservable:
    """Fiberwise bracket: sum_k (dp_k f)(dq_k g) - (dq_k f)(dp_k g)."""
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    out = PolynomialObservable.zero(f.dim)
    for k in range(1, f.dim + 1):
        out = out + f.partial_p(k) * g.partial_q(k)
        out = out - f.partial_q(k) * g.partial_p(k)
    return out


def hamiltonian_vector_field(f: PolynomialObservable) -> HamiltonianVectorField:
    dq = tuple(f.partial_p(k) for k in range(1, f.dim + 1))
    dp = tuple(-f.partial_q(k) for k in range(1, f.dim + 1))
    return HamiltonianVectorField(f, dq, dp)


class CoverageError(ValueError):
    """A bump cover fails to cover a requested point."""

    def __init__(self, point):
        super().__init__(
            f"cover vanishes at q = {np.asarray(point).tolist()}")
        self.point = point


@dataclass(frozen=True)
class BumpCover:
    """Finite cover of the fiber box by products of bump windows.

    Each window is a per-axis sequence of (center, radius) pairs; the
    chart function is the product of the axis bumps.  ``windows = None``
    is the trivial single-chart cover whose function is identically 1.
    """

    dim: int
    windows: tuple[tuple[tuple[float, float], ...], ...] | None = None

    def __post_init__(self):
        if self.windows is not None:
            norm = tuple(
                tuple((float(c), float(r)) for c, r in w) for w in self.windows)
            if not norm:
                raise ValueError("cover needs at least one window")
            for w in norm:
                if len(w) != self.dim:
                    raise ValueError("window arity does not match dim")
                if any(r <= 0 for _, r in w):
                    raise ValueError("window radius must be positive")
            object.__setattr__(self, "windows", norm)

    @classmethod
    def trivial(cls, dim: int) -> "BumpCover":
        return cls(dim, None)

    @property
    def size(self) -> int:
        return 1 if self.windows is None else len(self.windows)

    def chart_functions(self) -> list[Expression]:
        if self.windows is None:
            return [_ONE]
        charts = []
        for w in self.windows:
            phi: Expression = _ONE
            for axis, (c, r) in enumerate(w):
                phi = phi * bump_of(Var(f"q{axis + 1}"), c, r)
            charts.append(phi)
        return charts

    def sum_of_powers(self, power: int) -> Expression:
        total: Expression = Const(0.0)
        for phi in self.chart_functions():
            total = total + phi ** power
        return total

    def partition(self, power: int) -> list[Expression]:
        """Functions l with sum(l^power) = 1 wherever the cover covers."""
        if power < 1:
            raise ValueError("power must be a positive integer")
        if self.windows is None:
            return [_ONE]
        denom = root_of(self.sum_of_powers(power), power)
        return [phi / denom for phi in self.chart_functions()]

    def check_covers(self, points: np.ndarray) -> None:
        """Raise CoverageError at the first point where every chart dies."""
        if self.windows is None:
            return
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        total = np.zeros(len(pts))
        binding = {f"q{i + 1}": pts[:, i] for i in range(self.dim)}
        for phi in self.chart_functions():
            total = total + np.asarray(phi.evaluate(binding))
        dead = np.nonzero(total <= 0.0)[0]
        if dead.size:
            raise CoverageError(pts[dead[0]])


@dataclass(frozen=True)
class AffineFactorization:
    """A polynomial rewritten as sum over products of affine factors."""

    source: PolynomialObservable
    factors: tuple[tuple[PolynomialObservable, ...], ...]

    def expand(self) -> PolynomialObservable:
        """Multiply everything back out (symbolically)."""
        total = PolynomialObservable.zero(self.source.dim)
        for group in self.factors:
            prod = group[0]
            for f in group[1:]:
                prod = prod * f
            total = total + prod
        return total

    def max_error(self, t, sigma, qs: np.ndarray, ps: np.ndarray) -> float:
        """Largest |expanded - source| over sample points (rows of qs, ps)."""
        diff = self.expand() - self.source
        worst = 0.0
        for q, p in zip(np.atleast_2d(qs), np.atleast_2d(ps)):
            worst = max(worst, abs(diff.evaluate(t, sigma, q, p)))
        return worst


def decompose_polynomial(f: PolynomialObservable,
                         cover: BumpCover | None = None) -> AffineFactorization:
    """Rewrite ``f`` as a sum of products of momentum-affine factors.

    The affine part passes through untouched.  Each homogeneous degree-d
    part (d >= 2) is split chart by chart: with l the degree-d partition
    function of the chart, the monomial c p_{k1}..p_{kd} contributes the
    product [l c p_{k1}] [l p_{k2}] .. [l p_{kd}], and summing the d-th
    powers of l across charts restores the original coefficient.
    """
    if cover is None:
        cover = BumpCover.trivial(f.dim)
    if cover.dim != f.dim:
        raise ValueError("cover dimension does not match observable")
    groups: list[tuple[PolynomialObservable, ...]] = []
    low = f.up_to_degree(1)
    if low.terms:
        groups.append((low,))
    for d in range(2, f.degree + 1):
        part = f.homogeneous_part(d)
        if not part.terms:
            continue
        for l in cover.partition(d):
            for idx, coeff in part.terms.items():
                first = PolynomialObservable(
                    f.dim, {(idx[0],): l * coeff})
                rest = [PolynomialObservable(f.dim, {(i,): l})
                        for i in idx[1:]]
                groups.append((first, *rest))
    return AffineFactorization(f, tuple(groups))
