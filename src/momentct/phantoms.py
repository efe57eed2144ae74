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

SQRT2 = math.sqrt(2.0)

_EDGE_TOL = 1e-9  # tolerated excursion outside [0,1]^2 from clipped-line roundoff


def _clip_chord(theta, p):
    """Clip the lines <x, (cos t, sin t)> = p against the unit square.

    theta and p broadcast against each other.  Each line is parameterized
    x(u) = p*w + u*w_perp with w_perp = (-sin t, cos t); returns the
    broadcast (cos t, sin t, p), the chord's start parameter and its
    length, which is 0 where the line misses the square.
    """
    theta, p = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                   np.asarray(p, dtype=float))
    c, s = np.cos(theta), np.sin(theta)
    lo = np.full(theta.shape, -np.inf)
    hi = np.full(theta.shape, np.inf)
    feasible = np.ones(theta.shape, dtype=bool)
    # coordinates along the line: x1 = p*c - u*s, x2 = p*s + u*c
    for slope, intercept in ((-s, p * c), (c, p * s)):
        parallel = np.abs(slope) < 1e-15
        feasible &= ~parallel | ((intercept >= -_EDGE_TOL) & (intercept <= 1.0 + _EDGE_TOL))
        safe = np.where(parallel, 1.0, slope)
        u0 = -intercept / safe
        u1 = (1.0 - intercept) / safe
        lo = np.where(parallel, lo, np.maximum(lo, np.minimum(u0, u1)))
        hi = np.where(parallel, hi, np.minimum(hi, np.maximum(u0, u1)))
    length = np.where(feasible & (hi > lo), hi - lo, 0.0)
    return c, s, p, lo, length


def _check_points(x1, x2):
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if np.any(x1 < -_EDGE_TOL) or np.any(x1 > 1.0 + _EDGE_TOL) or \
       np.any(x2 < -_EDGE_TOL) or np.any(x2 > 1.0 + _EDGE_TOL):
        raise ValueError("evaluation point outside the unit square")
    return np.clip(x1, 0.0, 1.0), np.clip(x2, 0.0, 1.0)


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

    def radon(self, theta, p):
        """Exact line integral over the line <x, (cos theta, sin theta)> = p.

        theta and p are broadcastable arrays (or scalars); the result has
        their broadcast shape and is exactly 0 on lines that miss the support.
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

    def radon(self, theta, p):
        return _clip_chord(theta, p)[4][()]

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
        g = np.linspace(0.0, 1.0, 33)
        xx, yy = np.meshgrid(g, g, indexing="ij")
        if np.min(d.evaluate(xx, yy)) < -1e-9:
            raise ValueError("polynomial density is negative on the unit square")
        return d

    def evaluate(self, x1, x2):
        x1, x2 = _check_points(x1, x2)
        out = np.zeros_like(x1)
        for i, j, c in self.coeffs:
            out = out + c * x1**i * x2**j
        return out

    def moment(self, a1: int, a2: int) -> float:
        return math.fsum(c / ((i + a1 + 1) * (j + a2 + 1)) for i, j, c in self.coeffs)

    def radon(self, theta, p):
        # f restricted to a line is a polynomial of the same degree in u, so
        # Gauss-Legendre with ceil((deg + 1) / 2) nodes on the chord is exact
        c, s, p, lo, length = _clip_chord(theta, p)
        degree = max((i + j for i, j, _ in self.coeffs), default=0)
        nodes, weights = np.polynomial.legendre.leggauss(math.ceil((degree + 1) / 2))
        # node-major (nodes, hits) layout, so the ufunc loops run over hits
        hit = length > 0.0
        half = 0.5 * length[hit]
        u = lo[hit] + half * (1.0 + nodes[:, None])
        c, s, p = c[hit], s[hit], p[hit]
        f = self.evaluate(p * c - u * s, p * s + u * c)
        out = np.zeros(length.shape)
        out[hit] = half * (f * weights[:, None]).sum(axis=0)
        return out[()]

    def moment_fraction(self, a1: int, a2: int) -> Fraction:
        total = Fraction(0)
        for i, j, c in self.coeffs:
            total += Fraction(c) / ((i + a1 + 1) * (j + a2 + 1))
        return total

    @property
    def sup_norm(self) -> float:
        g = np.linspace(0.0, 1.0, 129)
        xx, yy = np.meshgrid(g, g, indexing="ij")
        return float(np.max(self.evaluate(xx, yy)))

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

    def radon(self, theta, p):
        cx, cy = self.center
        d = cx * np.cos(theta) + cy * np.sin(theta) - np.asarray(p, dtype=float)
        under = self.radius**2 - d * d
        return (self.amplitude * 2.0 * np.sqrt(np.maximum(under, 0.0)))[()]

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

    def radon(self, theta, p):
        return sum(d.radon(theta, p) for d in self.disks)

    @property
    def sup_norm(self) -> float:
        g = np.linspace(0.0, 1.0, 257)
        xx, yy = np.meshgrid(g, g, indexing="ij")
        return float(np.max(self.evaluate(xx, yy)))


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
