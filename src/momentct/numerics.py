"""Shared numerical kernels: grids, quadrature, special functions, a
triangular solver and a 1-D discrete Fourier transform.

All functions are pure and thread-safe; nothing in here holds state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularSystemError

#: Moment orders above this need an explicit override: the moment systems
#: become too ill-conditioned for double precision to be trustworthy.
DEFAULT_MAX_ORDER = 12


@dataclass(frozen=True)
class Grid1D:
    """Uniformly spaced samples on [start, stop]."""

    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.count}")
        if not self.stop > self.start:
            raise ValueError(f"grid requires stop > start, got [{self.start}, {self.stop}]")

    @property
    def spacing(self) -> float:
        return (self.stop - self.start) / (self.count - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def binomial(k: int, j: int) -> int:
    """Binomial coefficient k!/(j!(k-j)!), exact integer arithmetic."""
    if j < 0 or k < 0 or j > k:
        raise ValueError(f"binomial requires 0 <= j <= k, got k={k}, j={j}")
    return math.comb(k, j)


def trapezoid_integrate(samples, grid: Grid1D) -> float:
    """Composite trapezoid rule of samples over a uniform grid.

    Exact for integrands that are affine between the nodes.
    """
    values = np.asarray(samples, dtype=float)
    if values.shape != (grid.count,):
        raise ValueError(
            f"sample length {values.shape} does not match grid count {grid.count}"
        )
    return float(np.trapezoid(values, dx=grid.spacing))


@dataclass(frozen=True)
class LowerTriangularMatrix:
    """Dense lower-triangular matrix; entries above the diagonal are zero."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("entries must be a square matrix")
        if np.any(np.triu(a, k=1) != 0.0):
            raise ValueError("entries above the diagonal must be zero")
        object.__setattr__(self, "entries", a)

    @property
    def order(self) -> int:
        return self.entries.shape[0]


def solve_lower_triangular(L: LowerTriangularMatrix, rhs) -> np.ndarray:
    """Forward substitution for L x = rhs."""
    a = L.entries
    b = np.asarray(rhs, dtype=float)
    n = L.order
    if b.shape != (n,):
        raise ValueError(f"rhs length {b.shape} does not match order {n}")
    diag = np.diagonal(a)
    if np.any(diag == 0.0):
        raise SingularSystemError("zero diagonal entry in triangular solve")
    x = np.empty(n)
    for i in range(n):
        x[i] = (b[i] - a[i, :i] @ x[:i]) / diag[i]
    return x


def dft_1d(samples, direction: str = "forward") -> np.ndarray:
    """Unitary 1-D DFT (1/sqrt(N) both ways); any length is accepted."""
    v = np.asarray(samples, dtype=complex)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("need a non-empty 1-D sample vector")
    if direction == "forward":
        return np.fft.fft(v, norm="ortho")
    if direction == "inverse":
        return np.fft.ifft(v, norm="ortho")
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
