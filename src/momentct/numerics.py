"""Shared numerical building blocks: the uniform sampling grid, held as
its start, spacing and count, and the Gauss-Legendre rules.  Nothing in
here holds state but the cache of read-only rules.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Grid1D:
    """count samples `spacing` apart from `start`, as a sinogram file records them."""

    start: float
    spacing: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.count}")
        if not all(map(math.isfinite, (self.start, self.stop, self.spacing))):
            raise ValueError(f"grid needs a finite start, stop and spacing, got start "
                             f"{self.start} and spacing {self.spacing} in {self.count} points")
        if not self.spacing > 0:
            raise ValueError(f"grid needs a positive spacing, got {self.spacing}")

    @property
    def stop(self) -> float:
        return self.start + (self.count - 1) * self.spacing

    def points(self) -> np.ndarray:
        return np.arange(self.count) * self.spacing + self.start


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1] as (nodes, weights).

    Built once per n and shared by every caller, so both arrays are
    read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights
