"""The smoothing kernel, fixed by its kind and width, and its taps on an
offset grid.

One profile ships: the standard bump exp(-1/(1-u^2)), C-infinity,
nonnegative and even, supported on [-eps, eps] after scaling.  The program
knows a kernel only through its taps (`sampled_kernel`): the profile
sampled on the offset grid and normalized to unit discrete mass.
`mollify` convolves rows with them, the FBP filter divides by their
transform and the moment deconvolution inverts their moments, so both
inverses undo exactly what was applied.  That transform depends on the
frequency s only through eps * s, so its positivity on a band eps * s <= c
is a fact about the profile, not the width: the bump's stays positive up
to eps * s = 4 and first crosses zero near 4.97, which the tests check
once instead of at every construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _bump_profile(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) < 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = np.where(inside, np.exp(-1.0 / np.where(inside, 1.0 - u * u, 1.0)), 0.0)
    return vals


#: The kernel kinds, each with its unit-width profile: the one list of kinds.
PROFILES = {"bump": _bump_profile}


@dataclass(frozen=True)
class MollifierSpec:
    """A kernel phi(t/eps), fixed by its kind and width alone; its taps on a
    grid are sampled on demand (`sampled_kernel`).  Build one with
    `make_kernel`, which checks both.
    """

    kind: str
    epsilon: float


def make_kernel(kind: str, epsilon: float) -> MollifierSpec:
    """The kernel of a known kind and a width with 0 < eps < inf and a
    finite 1/eps."""
    if kind not in PROFILES:
        raise ValueError(f"unknown kernel kind {kind!r}; have {sorted(PROFILES)}")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"kernel width must be positive and finite, got {epsilon}")
    if not math.isfinite(1.0 / float(epsilon)):
        raise ValueError(f"kernel width {epsilon} is too narrow: 1/eps overflows")
    return MollifierSpec(kind=kind, epsilon=epsilon)


def sampled_kernel(m: MollifierSpec, spacing: float):
    """The kernel's taps on a symmetric grid with the given spacing.

    Returns (offsets, weights) where offsets = spacing * (-n..n), n =
    ceil(eps / spacing), and weights are the profile at offsets / eps,
    scaled so that spacing * sum(weights) is 1: the discrete convolution
    preserves mass on the grid.  The centre tap is the profile's positive
    peak, so the mass is never 0, however narrow the width.
    """
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    n = int(math.ceil(m.epsilon / spacing))
    offsets = np.arange(-n, n + 1) * spacing
    # a width far below the spacing puts every tap but the centre at an
    # infinite u, where the profile is 0
    with np.errstate(over="ignore", invalid="ignore"):
        weights = PROFILES[m.kind](offsets / m.epsilon)
    return offsets, weights / (float(weights.sum()) * spacing)
