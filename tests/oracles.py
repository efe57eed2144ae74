"""Reference computations that the checks of the moment chain compare
against, kept out of the package because no run of the pipeline uses them.

- `convolve_moments`: the forward kernel relation that `deconvolve_moments`
  inverts (criterion 2);
- `synthesize_angular_moments`: row moments re-synthesized from a moment
  table, the range-test direction (criterion 5);
- `projection_slice_residual`, with `row_transform`, `density_transform_2d`
  and `_gauss_legendre_128`: the projection-slice theorem checked on one
  row (criterion 7);
- `vandermonde_det_formula`: the factored determinant of the order-k
  moment matrix (criterion 11);
- `fourier_of_kernel`: the continuous transform of a kernel, which the
  smoothed rows' spectra must show in band (criterion 6) and
  whose positivity on eps * s <= 4 is checked per kind.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from momentct.errors import MisuseError, OrderError
from momentct.mollifiers import (
    _KERNEL_NODES,
    PROFILES,
    MollifierSpec,
    _norm_const,
    kernel_moments,
)
from momentct.moment_recovery import AngularMomentSet
from momentct.numerics import gauss_legendre
from momentct.phantoms import Density, MomentTable
from momentct.projector import Sinogram

SQRT_2PI = math.sqrt(2.0 * math.pi)


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
    the kernel m; the result carries m."""
    if ams.kernel is not None:
        raise MisuseError("forward relation expects raw moments")
    c = kernel_moments(m, ams.max_order)
    b = ams.values
    bhat = np.empty_like(b)
    for k in range(ams.max_order + 1):
        bhat[:, k] = sum(
            math.comb(k, j) * c[j] * b[:, k - j] for j in range(k + 1)
        )
    return AngularMomentSet(ams.angles, bhat, m)


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
