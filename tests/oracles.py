"""Reference computations that the checks of the moment chain compare
against, kept out of the package because no run of the pipeline uses them.

- `evaluate_kernel` and `kernel_moments`: the continuous kernel
  phi_eps(t) = N phi(t/eps)/eps of unit mass, and its moments c_j, by a
  200-node Gauss-Legendre rule; the program itself only samples the
  profile (`sampled_kernel`);
- `convolve_moments`: the forward kernel relation, in the continuous
  kernel's moments, that `deconvolve_moments` inverts (criterion 2);
- `synthesize_angular_moments`: row moments re-synthesized from a moment
  table, the range-test direction (criterion 5);
- `projection_slice_residual`, with `row_transform`, `density_transform_2d`
  and `_gauss_legendre_128`: the projection-slice theorem checked on one
  row (criterion 7);
- `vandermonde_det_formula`: the factored determinant of the order-k
  moment matrix (criterion 11);
- `fourier_of_kernel`: the continuous transform of a kernel, which the
  smoothed rows' spectra must show in band (criterion 6) and
  whose positivity on eps * s <= 4 is checked per kind;
- `clip_chord_masked`: the chord clip with every line through the masks
  for lines parallel to an edge, which `phantoms._clip_chord` must match
  bit for bit;
- `greedy_row_blocks`: the blocks of rows of given widths as `project`
  once grouped its support windows, which `projector.row_blocks` must
  give.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from momentct.errors import MisuseError, OrderError
from momentct.mollifiers import PROFILES, MollifierSpec
from momentct.moment_recovery import AngularMomentSet
from momentct.numerics import gauss_legendre
from momentct.phantoms import _EDGE_TOL, Density, MomentTable
from momentct.projector import Sinogram

SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Nodes of the Gauss-Legendre rule for the continuous kernel's mass,
#: moments and transform.
_KERNEL_NODES = 200


@functools.cache
def _norm_const(kind: str) -> float:
    """1 / mass of the unit-width profile: the normalizer of every width."""
    nodes, weights = gauss_legendre(_KERNEL_NODES)
    return 1.0 / float(np.sum(weights * PROFILES[kind](nodes)))


def evaluate_kernel(m: MollifierSpec, t) -> np.ndarray:
    """Pointwise phi_eps(t) of unit mass; zero outside [-eps, eps]."""
    u = np.asarray(t, dtype=float) / m.epsilon
    return _norm_const(m.kind) * PROFILES[m.kind](u) / m.epsilon


def kernel_moments(m: MollifierSpec, K: int) -> tuple:
    """(c_0, ..., c_K), c_j the integral of phi_eps(t) (-t)^j dt, from the
    unit width's moments as c_j(eps) = eps^j c_j(1); odd ones vanish by
    symmetry."""
    nodes, weights = gauss_legendre(_KERNEL_NODES)
    base = PROFILES[m.kind](nodes)
    return tuple(
        m.epsilon**j * (_norm_const(m.kind) * float(np.sum(weights * base * (-nodes) ** j)))
        for j in range(K + 1)
    )


def vandermonde_det_formula(angles, k: int) -> float:
    """Determinant of the assembled order-k matrix via the factored form:
    prod_j C(k,j) * prod_i sin^k(theta_i) * prod_{i<j} (cot t_j - cot t_i).

    The node-difference product alternates in sign (cot decreases on
    (0, pi)), so the determinant is nonzero but not sign-definite.
    """
    th = np.asarray(angles, dtype=float)
    t = 1.0 / np.tan(th)
    det = 1.0
    for j in range(k + 1):
        det *= math.comb(k, j)
    det *= float(np.prod(np.sin(th) ** k))
    for i in range(th.size):
        for j in range(i + 1, th.size):
            det *= t[j] - t[i]
    return det


def convolve_moments(ams: AngularMomentSet, m: MollifierSpec) -> AngularMomentSet:
    """Forward triangular relation: bhat[k] = sum_j C(k,j) c_j b[k-j], for
    the continuous kernel m's c_j, which the result carries."""
    if ams.kernel_moments is not None:
        raise MisuseError("forward relation expects raw moments")
    c = kernel_moments(m, ams.max_order)
    b = ams.values
    bhat = np.empty_like(b)
    for k in range(ams.max_order + 1):
        bhat[:, k] = sum(
            math.comb(k, j) * c[j] * b[:, k - j] for j in range(k + 1)
        )
    return AngularMomentSet(ams.angles, bhat, c)


def synthesize_angular_moments(table: MomentTable, angles, K: int) -> np.ndarray:
    """Re-synthesize b[i, k] from a moment table (range-test direction)."""
    if K > table.max_order:
        raise OrderError(f"table only reaches order {table.max_order}")
    th = np.asarray(angles, dtype=float)
    out = np.zeros((th.size, K + 1))
    for k in range(K + 1):
        for j in range(k + 1):
            out[:, k] += (
                math.comb(k, j)
                * np.cos(th) ** j
                * np.sin(th) ** (k - j)
                * float(table.value(j, k - j))
            )
    return out


@functools.cache
def _gauss_legendre_128() -> tuple[np.ndarray, np.ndarray]:
    """128-node Gauss-Legendre rule on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(128)


def row_transform(s: Sinogram, row_index: int, s_values) -> np.ndarray:
    """(1/sqrt(2 pi)) trapezoid transform of one row at arbitrary frequencies."""
    sv = np.atleast_1d(np.asarray(s_values, dtype=float))
    nyquist = math.pi / s.offset_grid.spacing
    if np.any(np.abs(sv) > nyquist):
        raise ValueError(f"requested frequency beyond the Nyquist limit {nyquist:.4g}")
    ps = s.offset_grid.points()
    h = s.offset_grid.spacing
    row = s.values[row_index]
    phases = np.exp(-1j * np.outer(sv, ps))
    weights = np.full(ps.size, h)
    weights[0] = weights[-1] = 0.5 * h
    return (phases * (row * weights)[None, :]).sum(axis=1) / SQRT_2PI


def density_transform_2d(d: Density, xi1: float, xi2: float) -> complex:
    """2-D transform (1/(2 pi)) integral of f(x) e^{-i <x, xi>} dx by
    tensor Gauss-Legendre quadrature on the unit square."""
    nodes, weights = _gauss_legendre_128()
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    xx, yy = np.meshgrid(x, x, indexing="ij")
    f = np.asarray(d.evaluate(xx, yy), dtype=float)
    phase = np.exp(-1j * (xi1 * xx + xi2 * yy))
    return complex((f * phase * np.outer(w, w)).sum() / (2.0 * math.pi))


def projection_slice_residual(d: Density, s: Sinogram, theta: float, s_values) -> float:
    """max_s |F2 f(s w) - (1/sqrt(2 pi)) F1(row at theta)(s)|."""
    grid = s.angle_grid.points()
    idx = int(np.argmin(np.abs(grid - theta)))
    actual = grid[idx]
    slice_vals = row_transform(s, idx, s_values) / SQRT_2PI
    c, sn = math.cos(actual), math.sin(actual)
    residual = 0.0
    for sval, slc in zip(np.atleast_1d(s_values), np.atleast_1d(slice_vals)):
        f2 = density_transform_2d(d, sval * c, sval * sn)
        residual = max(residual, abs(f2 - slc))
    return residual


def fourier_of_kernel(m: MollifierSpec, s) -> np.ndarray:
    """(1/sqrt(2 pi)) integral of phi_eps(t) e^{-ist} dt, real by symmetry.

    Equals 1/sqrt(2 pi) at s = 0 and decays with |s|; may change sign
    beyond the band eps * s <= 4.
    """
    s = np.asarray(s, dtype=float)
    nodes, weights = gauss_legendre(_KERNEL_NODES)
    base = _norm_const(m.kind) * PROFILES[m.kind](nodes)
    # substitute t = eps * u: transform depends on s only through eps * s
    arg = np.multiply.outer(s * m.epsilon, nodes)
    vals = (weights * base * np.cos(arg)).sum(axis=-1) / SQRT_2PI
    return vals if vals.shape else float(vals)


def clip_chord_masked(c, s, p):
    """`phantoms._clip_chord` with a parallel-line mask on every line: each
    coordinate's interval of u is left unbounded on lines parallel to its
    edge, and those lines are feasible only within `_EDGE_TOL` of [0, 1]."""
    lo = np.full(p.shape, -np.inf)
    hi = np.full(p.shape, np.inf)
    feasible = np.ones(p.shape, dtype=bool)
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
    return lo, length


def greedy_row_blocks(widths, block_lines: int) -> list[slice]:
    """`project`'s own loop over its support windows' widths, from before
    `row_blocks` took per-row widths, with the block size an argument."""
    widths = np.asarray(widths, dtype=np.intp)
    ends = np.cumsum(widths)
    blocks = []
    row = 0
    while row < widths.size:
        # rows [row, end): as many as fit in block_lines lines, at least one
        end = max(int(np.searchsorted(ends, ends[row] - widths[row] + block_lines,
                                      side="right")), row + 1)
        blocks.append(slice(row, end))
        row = end
    return blocks
