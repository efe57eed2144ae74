"""Recovery of bivariate power moments from sinogram rows.

The k-th offset moment of a row is a degree-k homogeneous polynomial in
(cos theta, sin theta) whose coefficients are the order-k moments of the
density, binomially weighted.  Rows smoothed by a symmetric kernel couple
to the raw offset moments through a triangular relation in the kernel's
signed moment sequence.  Summed over the offset grid, that relation holds
exactly in the moments of the kernel's taps (`sampled_kernel`), which are
what `mollify` applied, so inverting it undoes the smoothing up to
rounding.  Every recorded angle gives one equation for the k+1 order-k
moments, so order k is a column-scaled least-squares fit over all rows of
the moment set: the square cot-node Vandermonde system when the set holds
k+1 angles, an overdetermined (Helgason-Ludwig consistent) one when it
holds more, where the fit averages the rows' quadrature error down.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningWarning,
    DataQualityError,
    MisuseError,
    OrderError,
    SingularSystemError,
)
from .mollifiers import sampled_kernel
from .phantoms import SQRT2, MomentTable
from .projector import Sinogram

#: Extra half-width (beyond the kernel width) of the moment integration
#: window, in grid cells.
_WINDOW_GUARD_CELLS = 2


@dataclass(frozen=True)
class AngularMomentSet:
    """Offset moments b[i, k] of sinogram rows at the recorded angles, of
    orders k = 0..max_order; `kernel_moments` are the moments (c_0, ...,
    c_max_order) of the taps that smoothed the rows, None on raw moments."""

    angles: np.ndarray
    values: np.ndarray  # shape (len(angles), max_order + 1)
    kernel_moments: tuple | None = None

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or len(self.values) != self.angles.size:
            raise ValueError("values shape does not match the angles")

    @property
    def max_order(self) -> int:
        return self.values.shape[1] - 1


def assemble_moment_matrix(angles, k: int) -> np.ndarray:
    """A[i, j] = C(k, j) cos^j(theta_i) sin^(k-j)(theta_i)."""
    th = np.asarray(angles, dtype=float)
    j = np.arange(k + 1)
    comb = np.array([math.comb(k, jj) for jj in j], dtype=float)
    return comb[None, :] * np.cos(th)[:, None] ** j[None, :] \
        * np.sin(th)[:, None] ** (k - j)[None, :]


def _nearest_index(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """For each value v, `np.argmin(np.abs(grid - v))` on a nondecreasing grid:
    the index of the nearest point, the lowest of equally near ones.

    The nearest point is one of the two around v.  Equally near points
    before it (repeated points, or distances that round alike) form a run
    that ends there, which is walked back.
    """
    right = np.minimum(np.searchsorted(grid, values), grid.size - 1)
    left = np.maximum(right - 1, 0)
    idx = np.where(np.abs(grid[right] - values) < np.abs(grid[left] - values), right, left)
    while True:
        before = np.maximum(idx - 1, 0)
        tie = (idx > 0) & (np.abs(grid[before] - values) == np.abs(grid[idx] - values))
        if not tie.any():
            return idx
        idx -= tie


def angular_moments(s: Sinogram, K: int, angles) -> AngularMomentSet:
    """Trapezoid offset moments of the rows nearest the requested angles.

    Each requested angle is snapped to the nearest sampled angle (always
    within half a grid cell); the returned set records the snapped values
    and, on smoothed rows, the moments c_j = h sum_i w_i t_i^j of the taps
    (t_i, w_i) of `s.kernel` on the offset spacing h, odd ones 0 by
    symmetry.  The integration runs over the offset range
    [-1 - eps, sqrt2 + eps] (eps the kernel's width, 0 on unsmoothed rows)
    plus a two-cell guard, which contains the kernel-widened support of any
    admissible density; cells beyond it carry no signal, only noise.
    """
    if K < 0:
        raise OrderError("moment order must be nonnegative")
    req = np.asarray(angles, dtype=float)
    if not np.all((req > 0.0) & (req < math.pi)):
        raise ValueError("requested angles must lie strictly inside (0, pi)")
    grid = s.angle_grid.points()
    idx = _nearest_index(grid, req)
    # a repeat shows as a zero difference once sorted (np.unique imports
    # numpy.ma on its first call)
    if np.any(np.diff(np.sort(idx)) == 0):
        raise ValueError("requested angles collapse onto duplicate sinogram rows")
    snapped = grid[idx]

    ps = s.offset_grid.points()
    h = s.offset_grid.spacing
    pad = (s.kernel.epsilon if s.kernel else 0.0) + _WINDOW_GUARD_CELLS * h
    mask = (ps >= -1.0 - pad) & (ps <= SQRT2 + pad)
    pw = ps[mask]
    rows = s.values[idx][:, mask]

    powers = pw[None, :] ** np.arange(K + 1)[:, None]  # (K+1, n_window)
    # One order at a time: with every row in the set, a (rows, K+1, offsets)
    # product would take hundreds of MB at the orders convergence runs use.
    values = np.empty((idx.size, K + 1))
    for k in range(K + 1):
        weighted = rows * powers[k]
        values[:, k] = h * (weighted.sum(axis=1) - 0.5 * (weighted[:, 0] + weighted[:, -1]))
    c = None
    if s.kernel is not None:
        offsets, weights = sampled_kernel(s.kernel, h)
        taps = weights * h  # what `mollify` convolves with
        c = tuple(0.0 if j % 2 else float(taps @ offsets**j) for j in range(K + 1))
    return AngularMomentSet(angles=snapped, values=values, kernel_moments=c)


def deconvolve_moments(hat: AngularMomentSet) -> AngularMomentSet:
    """Exact inverse of the forward relation in the set's kernel moments
    c_j, by forward recursion in k; the result is raw."""
    if hat.kernel_moments is None:
        raise MisuseError("deconvolution expects moments of smoothed rows")
    c = hat.kernel_moments
    bhat = hat.values
    b = np.empty_like(bhat)
    for k in range(hat.max_order + 1):
        acc = bhat[:, k].copy()
        for j in range(1, k + 1):
            acc -= math.comb(k, j) * c[j] * b[:, k - j]
        b[:, k] = acc / c[0]
    return AngularMomentSet(hat.angles, b)


def solve_moment_system(ams: AngularMomentSet, k: int, *,
                        conditions: list | None = None) -> np.ndarray:
    """Recover (gamma_{0,k}, gamma_{1,k-1}, ..., gamma_{k,0}).

    Fits assemble_moment_matrix(ams.angles, k) x = ams.values[:, k] over
    every angle of the set by least squares, with each column scaled to
    unit 2-norm.  With k+1 angles this is the square system; more angles
    overdetermine it; k is capped only by the set (`RunConfig.validate`
    caps a run's K).  When `conditions` is given, (k, condition of the scaled
    matrix) is appended to it; warns when that condition exceeds 1e12.
    """
    if ams.kernel_moments is not None:
        raise MisuseError("moment systems require raw angular moments; deconvolve first")
    if k > ams.max_order:
        raise OrderError(f"order {k} beyond the measured maximum {ams.max_order}")
    distinct = ams.angles.size - np.count_nonzero(np.diff(np.sort(ams.angles)) == 0)
    if distinct < k + 1:
        raise SingularSystemError(
            f"need {k + 1} distinct angles for order {k}, have {distinct}"
        )
    A = assemble_moment_matrix(ams.angles, k)
    col_scales = np.linalg.norm(A, axis=0)
    y, _, _, sv = np.linalg.lstsq(A / col_scales, ams.values[:, k], rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else math.inf
    if cond > 1e12:
        warnings.warn(
            f"order-{k} moment system condition estimate {cond:.2e}",
            ConditioningWarning,
            stacklevel=2,
        )
    if conditions is not None:
        conditions.append((k, cond))
    return y / col_scales


def _median(x: np.ndarray) -> float:
    """np.median of a nonempty 1-D array, NaN when it holds one; np.median
    itself imports numpy.ma on its first call."""
    s = np.sort(x)
    half = s.size // 2
    if np.isnan(s[-1]):  # the sort puts NaN last
        return math.nan
    return float(s[half] if s.size % 2 else (s[half - 1] + s[half]) / 2)


def recover_moment_table(s: Sinogram, K: int, *,
                         diagnostics: dict | None = None) -> MomentTable:
    """Full pipeline: offset moments -> (deconvolution) -> per-order fits.

    Each order is fitted over every row strictly inside (0, pi), at least
    K+1 of them; mollified rows are deconvolved with `s.kernel` first.  K is
    not capped here; a run's config caps it (`RunConfig.validate`).  When a
    `diagnostics` dict is given it receives, per order, the condition of the
    scaled matrix that order's fit solved.
    """
    if s.kind == "filtered":
        raise MisuseError("a filtered sinogram cannot be inverted again")

    grid = s.angle_grid.points()
    th = grid[(grid > 0.0) & (grid < math.pi)]
    if th.size < K + 1:
        raise ValueError(f"angle grid has {th.size} rows inside (0, pi); order K={K} "
                         f"needs at least K+1 = {K + 1}")
    ams = angular_moments(s, K, th)
    if ams.kernel_moments is not None:
        ams = deconvolve_moments(ams)

    b0 = ams.values[:, 0]
    scale = _median(np.abs(b0))
    if float(np.max(np.abs(b0 - _median(b0)))) > max(1e-3, 0.05 * scale):
        raise DataQualityError(
            "order-0 row moments disagree across angles beyond tolerance; "
            "offset coverage or data quality is suspect"
        )

    values: dict = {}
    conditions: list = []
    for k in range(K + 1):
        x = solve_moment_system(ams, k, conditions=conditions)
        for j in range(k + 1):
            values[(j, k - j)] = float(x[j])
    if diagnostics is not None:
        diagnostics["conditions"] = conditions
    return MomentTable(max_order=K, values=values)

