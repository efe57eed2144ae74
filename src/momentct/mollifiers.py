"""Compactly supported smoothing kernels, their scaled families, signed
moment sequences and Fourier transforms.

Two kernel families ship: the standard bump exp(-1/(1-u^2)) and a truncated
cosine (Hann) profile.  Both are smooth, nonnegative, even, unit-mass and
supported on [-eps, eps] after scaling.  Strict positivity of the Fourier
transform only holds on a bounded frequency band for any compactly
supported kernel; membership is therefore validated numerically on a band,
eps * s <= 4 by default, where both families stay safely positive (the bump
transform first crosses zero near eps * s = 4.97, the cosine near 6.28).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import OmegaMembershipError, ResolutionWarning
from .numerics import gauss_legendre

#: Nodes of the Gauss-Legendre rule for the kernel's mass, moments and transform.
_KERNEL_NODES = 200

#: Half-width of the positivity band checked at construction, in units of eps * s.
DEFAULT_OMEGA_BAND = 4.0

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _bump_profile(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) < 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = np.where(inside, np.exp(-1.0 / np.where(inside, 1.0 - u * u, 1.0)), 0.0)
    return vals


def _cosine_profile(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, 0.5 * (1.0 + np.cos(math.pi * u)), 0.0)


_PROFILES = {"bump": _bump_profile, "cosine": _cosine_profile}


@dataclass(frozen=True)
class MollifierSpec:
    """A scaled kernel phi_eps(t) = phi(t/eps)/eps with unit mass.

    `moments[j]` holds c_j, the integral of phi(u) (-u)^j du scaled by
    eps^j; odd entries vanish by symmetry.  Construction checks that the
    transform is strictly positive on the band |s| <= DEFAULT_OMEGA_BAND/eps
    (257 points) and raises OmegaMembershipError otherwise; the transform
    itself is evaluated on demand by `fourier_of_kernel`.
    """

    kind: str
    epsilon: float
    max_order: int
    norm_const: float
    moments: tuple


def make_kernel(kind: str, epsilon: float, max_order: int = 12) -> MollifierSpec:
    if kind not in _PROFILES:
        raise ValueError(f"unknown kernel kind {kind!r}; have {sorted(_PROFILES)}")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"kernel width must be positive and finite, got {epsilon}")
    s_max = DEFAULT_OMEGA_BAND / epsilon
    if not math.isfinite(s_max):
        raise ValueError(f"kernel width {epsilon} is too narrow: the band |s| <= "
                         f"{DEFAULT_OMEGA_BAND:g}/eps its transform is checked on overflows")
    if max_order < 0:
        raise ValueError("max moment order must be nonnegative")
    nodes, weights = gauss_legendre(_KERNEL_NODES)
    base = _PROFILES[kind](nodes)
    norm_const = 1.0 / float(np.sum(weights * base))
    # c_j(eps) = eps^j c_j(1), from the moments of the unit-width profile
    moments = tuple(
        epsilon**j * (norm_const * float(np.sum(weights * base * (-nodes) ** j)))
        for j in range(max_order + 1)
    )
    spec = MollifierSpec(kind=kind, epsilon=epsilon, max_order=max_order,
                         norm_const=norm_const, moments=moments)
    validate_omega_band(spec, s_max, 257)
    return spec


def make_bump(epsilon: float, max_order: int = 12) -> MollifierSpec:
    """Bump kernel exp(-1/(1-(t/eps)^2)), normalized to unit mass."""
    return make_kernel("bump", epsilon, max_order)


def make_cosine(epsilon: float, max_order: int = 12) -> MollifierSpec:
    """Truncated-cosine kernel (1 + cos(pi t/eps))/(2 eps)."""
    return make_kernel("cosine", epsilon, max_order)


def evaluate_kernel(m: MollifierSpec, t) -> np.ndarray:
    """Pointwise phi_eps(t); zero outside [-eps, eps]."""
    u = np.asarray(t, dtype=float) / m.epsilon
    return m.norm_const * _PROFILES[m.kind](u) / m.epsilon


def fourier_of_kernel(m: MollifierSpec, s) -> np.ndarray:
    """(1/sqrt(2 pi)) integral of phi_eps(t) e^{-ist} dt, real by symmetry.

    Equals 1/sqrt(2 pi) at s = 0 and decays with |s|; may change sign
    beyond the validated band.
    """
    s = np.asarray(s, dtype=float)
    nodes, weights = gauss_legendre(_KERNEL_NODES)
    base = m.norm_const * _PROFILES[m.kind](nodes)
    # substitute t = eps * u: transform depends on s only through eps * s
    arg = np.multiply.outer(s * m.epsilon, nodes)
    vals = (weights * base * np.cos(arg)).sum(axis=-1) / SQRT_2PI
    return vals if vals.shape else float(vals)


def validate_omega_band(m: MollifierSpec, s_max: float, count: int = 513) -> None:
    """Raise unless the transform stays strictly positive on [0, s_max]; a
    NaN value fails too."""
    s = np.linspace(0.0, s_max, count)
    if not np.all(np.asarray(fourier_of_kernel(m, s)) > 0.0):
        raise OmegaMembershipError(
            f"{m.kind} kernel (eps={m.epsilon}) transform not positive up to s={s_max:.6g}"
        )


def sampled_kernel(m: MollifierSpec, spacing: float):
    """Kernel sampled on a symmetric grid with the given spacing.

    Returns (offsets, weights) where offsets = spacing * (-n..n) and
    weights are phi_eps samples scaled so that spacing * sum(weights) is
    exactly 1, which makes the discrete convolution mass-preserving on the
    grid.  Warns when the width is marginal (fewer than two grid cells per
    half-width).
    """
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    if m.epsilon < 2.0 * spacing:
        warnings.warn(
            f"kernel width {m.epsilon:.3g} below twice the grid spacing "
            f"{spacing:.3g}; the sampled kernel is marginally resolved",
            ResolutionWarning,
            stacklevel=2,
        )
    n = int(math.ceil(m.epsilon / spacing))
    offsets = np.arange(-n, n + 1) * spacing
    weights = np.asarray(evaluate_kernel(m, offsets), dtype=float)
    total = float(weights.sum()) * spacing
    if not 0.0 < total < math.inf:
        raise ValueError(f"sampled kernel has mass {total}; it must be positive and finite")
    return offsets, weights / total
