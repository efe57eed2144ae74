"""Analytic ground-truth densities on the unit square.

Every phantom carries closed-form bivariate power moments and exact,
array-valued line integrals (closed-form chords for the uniform and disk
families, Gauss-Legendre on the chord for polynomials), so each one can act
as an oracle for the moment-recovery pipeline.
Shipped phantoms are normalized to unit mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapabilityError
from .numerics import gauss_legendre

SQRT2 = math.sqrt(2.0)

_EDGE_TOL = 1e-9  # tolerated excursion outside [0,1]^2 from clipped-line roundoff


def _clip_chord(c, s, p):
    """Clip the lines <x, (c, s)> = p against the unit square.

    c, s and p share one shape: each line's unit direction (cos theta,
    sin theta) and its offset.  Each line is parameterized
    x(u) = p*w + u*w_perp with w = (c, s) and w_perp = (-s, c); returns the
    chord's start parameter and its length, which is 0 where the line
    misses the square.

    Each coordinate of x(u) stays in [0, 1] on an interval of u between two
    roots, and the chord is the two intervals' overlap.  A line parallel to
    an edge (|c| or |s| below 1e-15: theta = 0, pi/2 or pi) has no root in
    the coordinate that stays constant; only those lines' entries are fixed
    up, to an unbounded interval when the constant is within `_EDGE_TOL` of
    [0, 1] and to an empty one otherwise.  The work is done in place on
    flat arrays: fewer block-sized temporaries, fewer fresh pages.
    """
    shape = np.shape(p)
    c, s, p = (np.reshape(v, -1) for v in (c, s, p))
    # coordinates along the line: x1 = p*c - u*s, x2 = p*s + u*c
    pairs = ((-s, p * c), (c, p * s))
    parallel = [np.abs(slope) < 1e-15 for slope, _ in pairs]
    if not (parallel[0].any() or parallel[1].any()):
        bounds = [_roots(*pair) for pair in pairs]
    else:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # slopes ~0
            bounds = [_roots(*pair) for pair in pairs]
        for (lo_k, hi_k), par, (_, intercept) in zip(bounds, parallel, pairs):
            at = intercept[par]
            lo_k[par] = -np.inf
            hi_k[par] = np.where((at >= -_EDGE_TOL) & (at <= 1.0 + _EDGE_TOL), np.inf, -np.inf)
    (lo, hi), (lo2, hi2) = bounds
    np.maximum(lo, lo2, out=lo)
    np.minimum(hi, hi2, out=hi)
    missed = ~(hi > lo)
    length = np.subtract(hi, lo, out=hi)
    length[missed] = 0.0
    return lo.reshape(shape), length.reshape(shape)


def _roots(slope, intercept):
    """The interval of u on which intercept + u*slope stays in [0, 1]."""
    u0 = np.negative(intercept)
    u0 /= slope
    u1 = np.subtract(1.0, intercept)
    u1 /= slope
    return np.minimum(u0, u1), np.maximum(u0, u1, out=u1)


def _check_points(x1, x2):
    """x1 and x2 clipped to [0, 1]; ValueError when a coordinate lies more
    than `_EDGE_TOL` outside it.  The range is each array's fmin and fmax,
    which skip NaN, so NaN passes through as any comparison would let it."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    for x in (x1, x2):
        if np.fmin.reduce(x, axis=None, initial=np.inf) < -_EDGE_TOL or \
           np.fmax.reduce(x, axis=None, initial=-np.inf) > 1.0 + _EDGE_TOL:
            raise ValueError("evaluation point outside the unit square")
    return np.clip(x1, 0.0, 1.0), np.clip(x2, 0.0, 1.0)


def _grid_values(d: "Density", count: int) -> np.ndarray:
    """d on the count x count grid of [0, 1]^2, [i, j] at (g[i], g[j]),
    evaluated on the broadcast axes g[:, None] and g[None, :]."""
    g = np.linspace(0.0, 1.0, count)
    return d.evaluate(g[:, None], g[None, :])


class Density:
    """Nonnegative density supported inside the unit square."""

    def evaluate(self, x1, x2):
        raise NotImplementedError

    def moment(self, a1: int, a2: int) -> float:
        """Power moment: integral of x1^a1 x2^a2 f over the square."""
        raise NotImplementedError

    def moment_fraction(self, a1: int, a2: int) -> Fraction:
        """Exact rational moment, where the density admits one."""
        raise CapabilityError(f"{type(self).__name__} has no exact rational moments")

    def line_integrals(self, c, s, p):
        """Exact line integrals over the lines <x, (c, s)> = p.

        c, s and p are float arrays (or numpy scalars) of one shape: each
        line's unit direction (cos theta, sin theta) and offset.  Taking the direction, not the
        angle, lets a caller compute it once per angle.  Returns an array of
        that shape, exactly 0 on lines that miss the support.
        """
        raise NotImplementedError

    @property
    def mass(self) -> float:
        return self.moment(0, 0)

    @property
    def sup_norm(self) -> float:
        raise NotImplementedError

    def modulus_bound(self, delta: float) -> float:
        """Upper bound on sup |f(x)-f(y)| over ||x-y|| <= delta."""
        raise CapabilityError(f"{type(self).__name__} is not uniformly continuous")


@dataclass(frozen=True)
class UniformDensity(Density):
    """f = 1 on the unit square."""

    def evaluate(self, x1, x2):
        x1, x2 = _check_points(x1, x2)
        return np.ones_like(x1)

    def moment(self, a1: int, a2: int) -> float:
        return 1.0 / ((a1 + 1) * (a2 + 1))

    def moment_fraction(self, a1: int, a2: int) -> Fraction:
        return Fraction(1, (a1 + 1) * (a2 + 1))

    def line_integrals(self, c, s, p):
        return _clip_chord(c, s, p)[1]

    @property
    def sup_norm(self) -> float:
        return 1.0

    def modulus_bound(self, delta: float) -> float:
        return 0.0


@dataclass(frozen=True)
class PolynomialDensity(Density):
    """f(x) = sum c_{ij} x1^i x2^j with f >= 0 on the square.

    Nonnegativity is sanity-checked on a coarse grid at construction; that
    is necessary but not sufficient for arbitrary coefficient sets.
    """

    coeffs: tuple  # ((i, j, c), ...)

    @classmethod
    def from_dict(cls, coeffs: dict) -> "PolynomialDensity":
        items = tuple(sorted((int(i), int(j), float(c)) for (i, j), c in coeffs.items()))
        d = cls(coeffs=items)
        if np.min(_grid_values(d, 33)) < -1e-9:
            raise ValueError("polynomial density is negative on the unit square")
        return d

    def evaluate(self, x1, x2):
        # on the broadcast shape, so that each term is made once and then
        # worked in place, with the same roundings as c * x1**i * x2**j
        x1, x2 = np.broadcast_arrays(*_check_points(x1, x2))
        out = np.zeros(x1.shape)
        for i, j, c in self.coeffs:
            term = x1**i
            term *= c
            term *= x2**j
            out += term
        return out[()]  # a scalar for scalar points

    def moment(self, a1: int, a2: int) -> float:
        return math.fsum(c / ((i + a1 + 1) * (j + a2 + 1)) for i, j, c in self.coeffs)

    def line_integrals(self, c, s, p):
        # f restricted to a line is a polynomial of the same degree in u, so
        # Gauss-Legendre with ceil((deg + 1) / 2) nodes on the chord is exact
        lo, length = _clip_chord(c, s, p)
        degree = max((i + j for i, j, _ in self.coeffs), default=0)
        nodes, weights = gauss_legendre(math.ceil((degree + 1) / 2))
        # node-major (nodes, hits) layout, so the ufunc loops run over hits;
        # each (nodes, hits) array is made once and then worked in place
        hit = length > 0.0
        half = 0.5 * length[hit]
        c, s, p = c[hit], s[hit], p[hit]
        u = np.multiply(1.0 + nodes[:, None], half)
        u += lo[hit]
        x1 = np.multiply(u, s)
        np.subtract(p * c, x1, out=x1)  # p*c - u*s
        x2 = np.multiply(u, c, out=u)
        x2 += p * s
        f = self.evaluate(x1, x2)
        f *= weights[:, None]
        out = np.zeros(length.shape)
        out[hit] = half * f.sum(axis=0)
        return out

    def moment_fraction(self, a1: int, a2: int) -> Fraction:
        total = Fraction(0)
        for i, j, c in self.coeffs:
            total += Fraction(c) / ((i + a1 + 1) * (j + a2 + 1))
        return total

    @property
    def sup_norm(self) -> float:
        return float(np.max(_grid_values(self, 129)))

    def modulus_bound(self, delta: float) -> float:
        # |grad f| <= hypot(sum |c| i, sum |c| j) everywhere on the square
        g1 = sum(abs(c) * i for i, j, c in self.coeffs)
        g2 = sum(abs(c) * j for i, j, c in self.coeffs)
        return math.hypot(g1, g2) * delta


# integral of cos^i sin^j over a full turn: 2 pi (i-1)!!(j-1)!!/(i+j)!! for even i, j
def _circle_weight(i: int, j: int) -> float:
    if i % 2 or j % 2:
        return 0.0

    def dfact(n: int) -> int:
        return math.prod(range(n, 0, -2)) if n > 0 else 1

    return 2.0 * math.pi * dfact(i - 1) * dfact(j - 1) / dfact(i + j)


@dataclass(frozen=True)
class DiskDensity(Density):
    """Constant amplitude on a disk that must lie inside the unit square."""

    center: tuple
    radius: float
    amplitude: float

    def __post_init__(self) -> None:
        cx, cy = self.center
        r = self.radius
        if r <= 0:
            raise ValueError("disk radius must be positive")
        if cx - r < 0 or cx + r > 1 or cy - r < 0 or cy + r > 1:
            raise ValueError("disk must lie inside the unit square")
        if self.amplitude < 0:
            raise ValueError("disk amplitude must be nonnegative")

    @classmethod
    def unit_mass(cls, center=(0.5, 0.5), radius=0.25) -> "DiskDensity":
        return cls(center=tuple(center), radius=radius,
                   amplitude=1.0 / (math.pi * radius**2))

    def evaluate(self, x1, x2):
        x1, x2 = _check_points(x1, x2)
        cx, cy = self.center
        inside = (x1 - cx) ** 2 + (x2 - cy) ** 2 <= self.radius**2
        return np.where(inside, self.amplitude, 0.0)

    def moment(self, a1: int, a2: int) -> float:
        # polar expansion around the center; exact (finite double-factorial sums)
        cx, cy = self.center
        r = self.radius
        terms = []
        for i in range(a1 + 1):
            for j in range(a2 + 1):
                w = _circle_weight(i, j)
                if w == 0.0:
                    continue
                terms.append(
                    math.comb(a1, i) * math.comb(a2, j)
                    * cx ** (a1 - i) * cy ** (a2 - j)
                    * r ** (2 + i + j) / (2 + i + j) * w
                )
        return self.amplitude * math.fsum(terms)

    def line_integrals(self, c, s, p):
        cx, cy = self.center
        d = cx * c + cy * s - p
        under = self.radius**2 - d * d
        return self.amplitude * 2.0 * np.sqrt(np.maximum(under, 0.0))

    @property
    def sup_norm(self) -> float:
        return self.amplitude


@dataclass(frozen=True)
class SumOfDisksDensity(Density):
    """Superposition of disks, each inside the unit square."""

    disks: tuple

    def __post_init__(self) -> None:
        if not self.disks:
            raise ValueError("need at least one disk")

    def evaluate(self, x1, x2):
        return sum(d.evaluate(x1, x2) for d in self.disks)

    def moment(self, a1: int, a2: int) -> float:
        return math.fsum(d.moment(a1, a2) for d in self.disks)

    def line_integrals(self, c, s, p):
        return sum(d.line_integrals(c, s, p) for d in self.disks)

    @property
    def sup_norm(self) -> float:
        return float(np.max(_grid_values(self, 257)))


@dataclass(frozen=True)
class MomentTable:
    """Triangular table of power moments for all a1 + a2 <= max_order.

    Values are floats in the measured pipeline; tables built from exact
    rational moments may carry Fraction entries, which downstream evaluation
    propagates exactly.
    """

    max_order: int
    values: dict

    def __post_init__(self) -> None:
        if self.max_order < 0:
            raise ValueError("max_order must be nonnegative")
        for a1 in range(self.max_order + 1):
            for a2 in range(self.max_order + 1 - a1):
                if (a1, a2) not in self.values:
                    raise ValueError(f"missing moment ({a1}, {a2})")
        for (a1, a2) in self.values:
            if a1 < 0 or a2 < 0:
                raise ValueError(f"entry ({a1}, {a2}) has a negative index")
            if a1 + a2 > self.max_order:
                raise ValueError(f"entry ({a1}, {a2}) beyond order {self.max_order}")

    @classmethod
    def from_density(cls, d: Density, max_order: int, exact: bool = False) -> "MomentTable":
        values = {}
        for a1 in range(max_order + 1):
            for a2 in range(max_order + 1 - a1):
                values[(a1, a2)] = (
                    d.moment_fraction(a1, a2) if exact else d.moment(a1, a2)
                )
        return cls(max_order=max_order, values=values)

    def value(self, a1: int, a2: int):
        try:
            return self.values[(a1, a2)]
        except KeyError:
            raise KeyError(f"moment ({a1}, {a2}) not in table of order {self.max_order}")

    def is_exact(self) -> bool:
        """True when entries carry an extended-precision scalar type
        (Fraction, multiprecision floats, ...) that plain-float summation
        would silently downcast."""
        return any(
            not isinstance(v, (float, int, np.floating, np.integer))
            for v in self.values.values()
        )
