"""Compactly supported smoothing kernels, each fixed by its kind and width,
with their signed moment sequences on demand.

Two kernel families ship: the standard bump exp(-1/(1-u^2)) and a truncated
cosine (Hann) profile.  Both are smooth, nonnegative, even, unit-mass and
supported on [-eps, eps] after scaling.  The paper's inversion divides by
the kernel's Fourier transform, which depends on the frequency s only through
eps * s, so whether it is positive on a band eps * s <= c is a fact about
the kind, not the width: both families stay positive up to eps * s = 4 (the
bump transform first crosses zero near 4.97, the cosine near 6.28), which
the tests check once per kind instead of every construction.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionWarning
from .numerics import gauss_legendre

#: Nodes of the Gauss-Legendre rule for the kernel's mass and moments.
_KERNEL_NODES = 200


def _bump_profile(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) < 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = np.where(inside, np.exp(-1.0 / np.where(inside, 1.0 - u * u, 1.0)), 0.0)
    return vals


def _cosine_profile(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, 0.5 * (1.0 + np.cos(math.pi * u)), 0.0)


#: The kernel kinds, each with its unit-width profile: the one list of kinds.
PROFILES = {"bump": _bump_profile, "cosine": _cosine_profile}


@functools.cache
def _norm_const(kind: str) -> float:
    """1 / mass of the unit-width profile: the normalizer of every width."""
    nodes, weights = gauss_legendre(_KERNEL_NODES)
    return 1.0 / float(np.sum(weights * PROFILES[kind](nodes)))


@dataclass(frozen=True)
class MollifierSpec:
    """A scaled kernel phi_eps(t) = phi(t/eps)/eps with unit mass, fixed by
    its kind and width alone; its moments c_j are evaluated on demand
    (`kernel_moments`).  Build one with `make_kernel`, which checks both.
    """

    kind: str
    epsilon: float


def make_kernel(kind: str, epsilon: float) -> MollifierSpec:
    """The kernel of a known kind and a width with 0 < eps < inf and a
    finite 1/eps, the division `evaluate_kernel` performs."""
    if kind not in PROFILES:
        raise ValueError(f"unknown kernel kind {kind!r}; have {sorted(PROFILES)}")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"kernel width must be positive and finite, got {epsilon}")
    if not math.isfinite(1.0 / float(epsilon)):
        raise ValueError(f"kernel width {epsilon} is too narrow: 1/eps overflows")
    return MollifierSpec(kind=kind, epsilon=epsilon)


def kernel_moments(m: MollifierSpec, K: int) -> tuple:
    """(c_0, ..., c_K), c_j the integral of phi_eps(t) (-t)^j dt; odd ones
    vanish by symmetry.  Raises ValueError when eps^j overflows."""
    nodes, weights = gauss_legendre(_KERNEL_NODES)
    base = PROFILES[m.kind](nodes)
    try:
        # c_j(eps) = eps^j c_j(1), from the moments of the unit-width profile
        return tuple(
            m.epsilon**j * (_norm_const(m.kind) * float(np.sum(weights * base * (-nodes) ** j)))
            for j in range(K + 1)
        )
    except OverflowError:
        raise ValueError(f"kernel width {m.epsilon} is too wide: its moments "
                         f"eps^j c_j(1) up to order {K} overflow") from None


def evaluate_kernel(m: MollifierSpec, t) -> np.ndarray:
    """Pointwise phi_eps(t); zero outside [-eps, eps]."""
    u = np.asarray(t, dtype=float) / m.epsilon
    return _norm_const(m.kind) * PROFILES[m.kind](u) / m.epsilon


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
    # a width whose 1/eps overflows samples to an infinite mass, refused below
    with np.errstate(over="ignore"):
        weights = np.asarray(evaluate_kernel(m, offsets), dtype=float)
    total = float(weights.sum()) * spacing
    if not 0.0 < total < math.inf:
        raise ValueError(f"sampled kernel has mass {total}; it must be positive and finite")
    return offsets, weights / total
