"""Shared numerical building blocks: the uniform sampling grid, a
domain-checked log-Gamma and the Gauss-Legendre rules.  Nothing in here
holds state but the cache of read-only rules.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Grid1D:
    """Uniformly spaced samples on [start, stop]."""

    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.count}")
        if not all(map(math.isfinite, (self.start, self.stop, self.spacing))):
            raise ValueError(f"grid needs a finite start, stop and spacing, got "
                             f"[{self.start}, {self.stop}] in {self.count} points")
        if not self.stop > self.start:
            raise ValueError(f"grid requires stop > start, got [{self.start}, {self.stop}]")

    @property
    def spacing(self) -> float:
        return (self.stop - self.start) / (self.count - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


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


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)
