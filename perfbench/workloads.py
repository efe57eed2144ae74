"""Seeded workload generation and the untimed oracles each run is checked against.

A workload turns the benchmark's seed into one INI configuration for
`momentct pipeline`; the program sees only that file.  The oracles (closed-form
moments, the moment image built from them, the phantom at pixel centres) are
computed here, once per run and outside the timed region.

Why each workload exists, and why the seed moves what it moves, is in
README.md next to this file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Case:
    """One generated input: the INI text plus what the output check needs."""

    workload: str
    seed: int
    ini: str
    angles: int
    offsets: int
    K: int
    m: int
    n: int
    resolution: int
    # sanity tolerances the seed commit passes with a wide margin; the
    # accuracy metrics report the measured values
    max_moment_err: float
    max_recon_dev: float
    max_fbp_rel_l2: float


def _ini(phantom: str, grids: tuple, K: int, recon: tuple,
         mollifier: str = "", noise: str = "") -> str:
    angles, cover, offsets = grids
    m, n, resolution = recon
    return (
        f"[phantom]\n{phantom}\n"
        f"{mollifier}{noise}"
        f"[grids]\nangles = {angles}\nangle_cover = {cover}\n"
        f"offsets = {offsets}\nmargin = 1.1\n\n"
        f"[moments]\nK = {K}\n\n"
        f"[recon]\nmethod = both\nm = {m}\nn = {n}\nresolution = {resolution}\n"
    )


def make_demo(seed: int) -> Case:
    """The shipped uniform demo: the only run on the smoothed path."""
    rng = random.Random(f"demo:{seed}")
    # the noise realization is held at the shipped seed: at sigma = 0.002 it
    # dominates the accuracy figures, so drawing it from the seed would make
    # them a draw too; the seed scales the noise level instead, which moves
    # them smoothly (README.md)
    sigma = 0.002 * rng.uniform(0.97, 1.03)
    ini = _ini(
        "kind = uniform\n",
        (128, "moment", 512), 4, (2, 2, 64),
        mollifier="[mollifier]\nkernel = bump\nepsilon = 0.05\n\n",
        noise=f"[noise]\nsigma = {sigma!r}\nseed = 1\n\n",
    )
    return Case("demo", seed, ini, 128, 512, 4, 2, 2, 64,
                max_moment_err=1e-2, max_recon_dev=1.0, max_fbp_rel_l2=0.5)


def make_acquire_large(seed: int) -> Case:
    """The acceptance grid, raw data, a unit-mass polynomial phantom."""
    rng = random.Random(f"acquire_large:{seed}")
    # f = c (x1 x2 + t x1^2 x2^2): nonnegative, degree 4, always two terms so
    # that the cost of evaluating it does not depend on the seed
    t = rng.uniform(0.9, 1.1)
    c = 1.0 / (1.0 / 4.0 + t / 9.0)
    ini = _ini(
        f"kind = polynomial\ncoeffs = 1,1:{c!r}; 2,2:{c * t!r}\n",
        (256, "moment", 1024), 6, (2, 2, 64),
    )
    return Case("acquire_large", seed, ini, 256, 1024, 6, 2, 2, 64,
                max_moment_err=3e-3, max_recon_dev=0.1, max_fbp_rel_l2=0.2)


# two disks inside the square that do not overlap: (cx, cy, r)
_DISKS = ((0.35, 0.40, 0.18), (0.68, 0.62, 0.14))


def make_recon_fine(seed: int) -> Case:
    """A small full-turn acquisition of two disks with a fine moment image."""
    rng = random.Random(f"recon_fine:{seed}")
    # the seed splits the mass between the disks; their geometry stays put,
    # because the quadrature error of a disk edge depends chaotically on where
    # the edge falls between offset samples (README.md)
    share = rng.uniform(0.485, 0.515)
    disks = "; ".join(
        f"{cx!r},{cy!r},{r!r},{w / (math.pi * r * r)!r}"
        for (cx, cy, r), w in zip(_DISKS, (share, 1.0 - share))
    )
    ini = _ini(f"kind = disks\ndisks = {disks}\n", (192, "full", 256), 6, (3, 3, 256))
    return Case("recon_fine", seed, ini, 192, 256, 6, 3, 3, 256,
                max_moment_err=3e-2, max_recon_dev=2.0, max_fbp_rel_l2=0.4)


WORKLOADS = {
    "demo": make_demo,
    "acquire_large": make_acquire_large,
    "recon_fine": make_recon_fine,
}


@dataclass(frozen=True)
class Oracle:
    moments: dict          # (a1, a2) -> closed-form moment
    moment_image: np.ndarray  # approximant of the closed-form moment table
    truth: np.ndarray      # phantom at pixel centres


def approximant_image(moments: dict, m: int, n: int, resolution: int) -> np.ndarray:
    """The alternating binomial moment approximant at pixel centres.

    It depends on x only through floor(m x1) and floor(n x2), so each cell is
    summed once (exact integer coefficients, fsum) and the
    image indexes into that table.  This is an implementation independent of
    `momentct.density_recon`, with the same arithmetic.
    """
    def cell(a: int, b: int) -> float:
        terms = []
        for al in range(m - a + 1):
            c1 = (m + 1) * math.comb(m, a) * math.comb(m - a, al)
            for be in range(n - b + 1):
                c2 = (n + 1) * math.comb(n, b) * math.comb(n - b, be)
                coeff = c1 * c2 if (al + be) % 2 == 0 else -(c1 * c2)
                terms.append(float(coeff) * moments[(al + a, be + b)])
        return math.fsum(terms)

    table = np.array([[cell(a, b) for b in range(n + 1)] for a in range(m + 1)])
    xs = (np.arange(resolution) + 0.5) / resolution
    ia = np.minimum(np.floor(m * xs).astype(int), m)
    ib = np.minimum(np.floor(n * xs).astype(int), n)
    return table[ia[:, None], ib[None, :]]


def build_oracle(case: Case, density) -> Oracle:
    """Closed-form references for one case; `density` is the phantom the
    program builds from the same INI file."""
    moments = {
        (a1, a2): float(density.moment(a1, a2))
        for a1 in range(case.K + 1) for a2 in range(case.K + 1 - a1)
    }
    image = approximant_image(moments, case.m, case.n, case.resolution)
    xs = (np.arange(case.resolution) + 0.5) / case.resolution
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    truth = np.asarray(density.evaluate(xx, yy), dtype=float)
    return Oracle(moments=moments, moment_image=image, truth=truth)
