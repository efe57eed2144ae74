"""Density reconstruction from a finite moment table.

The reconstruction evaluates a binomially weighted alternating sum of
shifted moments; it converges uniformly to the density as the orders grow.
At orders (m, n) the sum depends on the point x only through
(floor(m x1), floor(n x2)), so it is piecewise constant on an
(m+1) x (n+1) cell grid, and an image is evaluated once per cell that holds
a pixel centre.  The sum is severely cancellation-prone: coefficients
grow roughly like 4^order while the value stays O(1).  Coefficients are
therefore computed in exact integer arithmetic and the terms summed with
exact float summation; tables carrying exact rational entries are
propagated in exact arithmetic throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningWarning, OrderError, StabilityError
from .phantoms import Density, MomentTable

#: The largest order m or n the approximant accepts: above it the
#: double-precision path is meaningless even with exact summation.
STABILITY_CAP = 40

#: Decimal digits of cancellation beyond which a warning is emitted.
_CANCELLATION_WARN_DIGITS = 15.0


@dataclass(frozen=True)
class ReconGrid:
    """Density samples at pixel centers ((i+0.5)/N, (j+0.5)/N)."""

    resolution: int
    values: np.ndarray
    orders: tuple | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.resolution, self.resolution):
            raise ValueError(f"values shape {v.shape} != resolution {self.resolution}")
        object.__setattr__(self, "values", v)


def pixel_axis(resolution: int) -> np.ndarray:
    """The pixel centers (i + 0.5)/N of either `ReconGrid` axis; N must be > 0."""
    if resolution < 1:
        raise ValueError("resolution must be positive")
    return (np.arange(resolution) + 0.5) / resolution


def phantom_image(d: Density, resolution: int) -> np.ndarray:
    """The density at the pixel centers ((i+0.5)/N, (j+0.5)/N), indexed [i, j].

    The density is evaluated on the broadcast axes x1 = xs[:, None] and
    x2 = xs[None, :], not on two N x N grids; the result is a read-only
    (N, N) view, which repeats a density that varies along one axis only.
    """
    xs = pixel_axis(resolution)
    values = np.asarray(d.evaluate(xs[:, None], xs[None, :]), dtype=float)
    return np.broadcast_to(values, (resolution, resolution))


def sup_error_bound(sup_norm: float, modulus: float, delta: float, m: int, n: int) -> float:
    """modulus + 4||f|| / (delta^2 (min(m,n)+2)) + 2||f|| / (delta^4 (m+2)(n+2))."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if sup_norm < 0 or modulus < 0:
        raise ValueError("sup_norm and modulus must be nonnegative")
    if m < 1 or n < 1:
        raise ValueError("orders must be positive")
    alpha_star = min(m, n)
    return (
        modulus
        + 4.0 * sup_norm / (delta**2 * (alpha_star + 2))
        + 2.0 * sup_norm / (delta**4 * (m + 2) * (n + 2))
    )


def minimized_sup_error_bound(sup_norm: float, modulus_fn, m: int, n: int) -> float:
    """Bound minimized over the delta grid 0.05, 0.10, ..., 0.50."""
    deltas = [0.05 * i for i in range(1, 11)]
    return min(sup_error_bound(sup_norm, modulus_fn(d), d, m, n) for d in deltas)


def cancellation_log10(m: int, n: int) -> float:
    """Rough decimal-digit estimate of worst-case cancellation.

    Bounds log10 of the coefficient mass max_a (m+1) C(m,a) 2^(m-a) per
    dimension, in the exact integers `moment_approximation` sums; the
    evaluated sum is O(1), so this many digits can cancel.
    """

    def one_dim(mm: int) -> float:
        return math.log10(max((mm + 1) * math.comb(mm, a) * 2 ** (mm - a)
                              for a in range(mm + 1)))

    return one_dim(m) + one_dim(n)


def _floor_index(order: int, x: float) -> int:
    # [order * x] clamped so x = 1 keeps a valid (single-term) inner sum
    return min(int(math.floor(order * x)), order)


def check_orders(K: int, m: int, n: int) -> None:
    """Orders (m, n) must be positive and at most STABILITY_CAP, with K >= m + n."""
    if m < 1 or n < 1:
        raise ValueError("orders m, n must be positive")
    if m > STABILITY_CAP or n > STABILITY_CAP:
        raise StabilityError(f"orders ({m}, {n}) beyond stability cap {STABILITY_CAP}")
    if K < m + n:
        raise OrderError(f"need moments to order m+n = {m + n}, table holds {K}")


def moment_approximation(table: MomentTable, m: int, n: int,
                         x1: float, x2: float) -> float:
    """Approximate the density at (x1, x2) from moments up to order m + n.

    Coefficients are exact integers; float tables are summed with exact
    float summation (fsum), exact rational tables in rational arithmetic.
    """
    check_orders(table.max_order, m, n)
    if not (0.0 <= x1 <= 1.0 and 0.0 <= x2 <= 1.0):
        raise ValueError("evaluation point outside the unit square")

    a = _floor_index(m, x1)
    b = _floor_index(n, x2)
    exact = table.is_exact()
    terms = []
    for al in range(m - a + 1):
        c1 = (m + 1) * math.comb(m, a) * math.comb(m - a, al)
        for be in range(n - b + 1):
            c2 = (n + 1) * math.comb(n, b) * math.comb(n - b, be)
            coeff = c1 * c2 if (al + be) % 2 == 0 else -(c1 * c2)
            gamma = table.value(al + a, be + b)
            terms.append(coeff * gamma if exact else float(coeff) * gamma)
    if exact:
        return float(sum(terms))
    return math.fsum(terms)


def reconstruct_grid(table: MomentTable, m: int, n: int, resolution: int) -> ReconGrid:
    """Moment approximation sampled at pixel centers.

    Orders above STABILITY_CAP raise StabilityError, and a table below
    order m + n OrderError.  Each cell (floor(m x1), floor(n x2)) that
    holds a pixel center is evaluated once, at the first pixel center
    inside it, and the image indexes into that cell table; every pixel
    gets exactly the value `moment_approximation` gives at its own center.
    """
    xs = pixel_axis(resolution)
    # before the cancellation estimate, whose Python loop runs up to m and n
    check_orders(table.max_order, m, n)
    if not table.is_exact():
        digits = cancellation_log10(m, n)
        if digits > _CANCELLATION_WARN_DIGITS:
            warnings.warn(
                f"moment approximation at orders ({m}, {n}) cancels ~{digits:.0f} "
                "decimal digits; double-precision moments cannot support this",
                ConditioningWarning,
                stacklevel=2,
            )
    # first pixel of each occupied cell per axis, and each pixel's cell
    _, first1, cell1 = np.unique(np.floor(m * xs), return_index=True, return_inverse=True)
    _, first2, cell2 = np.unique(np.floor(n * xs), return_index=True, return_inverse=True)
    cells = np.array([
        [moment_approximation(table, m, n, float(xs[i]), float(xs[j])) for j in first2]
        for i in first1
    ])
    return ReconGrid(resolution=resolution, values=cells[cell1[:, None], cell2[None, :]],
                     orders=(m, n))


def sup_error(rec: ReconGrid, truth: np.ndarray) -> float:
    """Max absolute deviation from `truth`, the density at the pixel
    centers (`phantom_image`)."""
    return float(np.max(np.abs(rec.values - truth)))


def relative_l2_error(rec: ReconGrid, truth: np.ndarray) -> float:
    """Relative L2 deviation from `truth`, the density at the pixel centers
    (`phantom_image`)."""
    denom = _norm(truth)
    if denom == 0.0:
        return _norm(rec.values)
    return _norm(rec.values - truth) / denom


def _norm(x: np.ndarray) -> float:
    # np.sum, not np.linalg.norm: the norm's BLAS dot may run threaded,
    # which cost milliseconds per 256 x 256 image on two cores
    with np.errstate(over="ignore"):
        total = float(np.sum(x * x))
    if math.isinf(total) and np.all(np.isfinite(x)):  # the squares overflow: rescale
        big = float(np.max(np.abs(x)))
        return big * math.sqrt(float(np.sum((x / big) ** 2)))
    return math.sqrt(total)
