"""Shared numerical building blocks: the uniform sampling grid, the
moment-order cap and a domain-checked log-Gamma.  Nothing in here
holds state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: The largest moment order K a run may ask for: above it the moment systems
#: become too ill-conditioned for double precision to be trustworthy.
MAX_MOMENT_ORDER = 12


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
