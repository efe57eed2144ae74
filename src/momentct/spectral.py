"""Fourier-path inversion: ramp filtering per row (with kernel
deconvolution for mollified rows) and backprojection.

Conventions: the 1-D transform of a row is (1/sqrt(2 pi)) * integral of
g(p) e^{-isp} dp, the 2-D transform of the density carries 1/(2 pi).  The
per-row ramp filter is realized on the FFT frequencies s_k = 2 pi k/(N h);
the inversion constant 1/(4 pi), together with the angular rectangle rule,
makes backprojection of the filtered rows reproduce the density.

For mollified rows the filter divides by the transform of the sinogram's
`kernel` as its taps on the offset grid (`sampled_kernel`; signed, with a
magnitude floor): that is the transform of the convolution `mollify`
applied to the data, so the division cancels it exactly in the passband.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable

import numpy as np

from .errors import CoverageError, MisuseError
from .density_recon import ReconGrid, pixel_axis
from .mollifiers import MollifierSpec, sampled_kernel
from .projector import Sinogram, angle_coverage, antipodal_half, row_blocks, transpose_partner

#: Ramp filter cutoff as a fraction of the offset Nyquist frequency pi/h; a
#: cosine taper rolls off the top tenth of the passband.
CUTOFF_FRACTION = 0.8

#: Magnitude floor below which the kernel's sampled transform (unit DC) is
#: not divided by; those frequencies are zeroed instead.
REG_FLOOR = 1e-6


def _ramp_multiplier(freqs: np.ndarray, cutoff: float) -> np.ndarray:
    mult = np.abs(freqs)
    window = np.ones_like(mult)
    lo = 0.9 * cutoff  # the taper covers the top tenth of the passband
    sel = (np.abs(freqs) > lo) & (np.abs(freqs) <= cutoff)
    window[sel] = 0.5 * (1.0 + np.cos(math.pi * (np.abs(freqs[sel]) - lo)
                                      / (cutoff - lo)))
    window[np.abs(freqs) > cutoff] = 0.0
    return mult * window


def grid_kernel_transform(m: MollifierSpec, spacing: float, count: int) -> np.ndarray:
    """Signed DFT of the grid-sampled kernel on the FFT bins (unit DC).  The
    samples fit in `count`: `Sinogram` refuses a kernel wider than its grid."""
    offsets, weights = sampled_kernel(m, spacing)
    half = offsets.size // 2
    padded = np.zeros(count)
    padded[: half + 1] = weights[half:] * spacing
    if half:
        padded[-half:] = weights[:half] * spacing
    return np.real(np.fft.fft(padded))


def apply_filter(s: Sinogram) -> Sinogram:
    """Per-row ramp filter up to CUTOFF_FRACTION of the Nyquist frequency,
    divided by the sampled transform of `s.kernel` on mollified rows;
    output kind 'filtered'.  The rows are transformed in `row_blocks`, so
    only one block's spectra exist at a time."""
    if s.kind == "filtered":
        raise MisuseError("a filtered sinogram cannot be inverted again")
    h = s.offset_grid.spacing
    n = s.offset_grid.count
    freqs = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
    mult = _ramp_multiplier(freqs, CUTOFF_FRACTION * (math.pi / h))

    if s.kernel is not None:
        transfer = grid_kernel_transform(s.kernel, h, n)
        usable = np.abs(transfer) >= REG_FLOOR
        mult = np.where(usable, mult / np.where(usable, transfer, 1.0), 0.0)

    filtered = np.empty_like(s.values)
    for rows in row_blocks(*s.values.shape):
        spectra = np.fft.fft(s.values[rows], axis=1)
        spectra *= mult
        filtered[rows] = np.fft.ifft(spectra, axis=1).real
    return Sinogram(angle_grid=s.angle_grid, offset_grid=s.offset_grid,
                    values=filtered, kind="filtered")


def _folded_rows(s: Sinogram) -> tuple[np.ndarray, np.ndarray]:
    """The angles and rows that `backproject` interpolates, in its order:
    every row, or on a full turn that `antipodal_half` pairs, each row
    summed with its antipode's, and where `transpose_partner` pairs those
    too, each lead as the complex row lead + 1j * partner."""
    thetas = s.angle_grid.points()
    values = s.values
    half = antipodal_half(s.angle_grid, s.offset_grid)
    if half is not None:
        thetas = thetas[:half]
        values = values[:half] + values[half:, ::-1]
        pairs = transpose_partner(s.angle_grid)
        if pairs is not None:
            partner, reverse = pairs
            k = np.arange(half)
            mates = np.where(reverse[:, None], values[partner, ::-1], values[partner])
            mates[partner == k] = 0.0  # the rows at pi/4 and 3pi/4
            lead = partner >= k
            thetas, values = thetas[lead], values[lead] + 1j * mates[lead]
    return thetas, values


#: CPUs the process may run on (all of them where affinity is unknown)
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _in_groups(work: Callable[[list[slice]], None], bands: list[slice]) -> None:
    """work(group) on min(_CPUS, len(bands)) contiguous groups of `bands`: the first
    here, each other on a thread joined before returning, whose exception is raised here."""
    w = min(_CPUS, len(bands))
    groups = [bands[len(bands) * i // w:len(bands) * (i + 1) // w] for i in range(w)]
    errors: list[BaseException] = []
    started: list[threading.Thread] = []

    def run(group: list[slice]) -> None:
        try:
            work(group)
        except BaseException as exc:
            errors.append(exc)

    try:
        for group in groups[1:]:
            thread = threading.Thread(target=run, args=(group,))
            thread.start()
            started.append(thread)
        work(groups[0])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]


def backproject(s: Sinogram, resolution: int) -> ReconGrid:
    """Dual transform: integrate g(theta, <x, w>) over the full turn.

    Half-turn grids are extended by evenness (each angle stands for itself
    and its antipode); offsets outside the grid contribute zero.  On a full
    turn whose rows pair with their antipodes (`antipodal_half`), row
    i + half read at -p is the same line as row i at p, and backprojection
    is linear, so the two are summed first and only half the rows are
    interpolated.  When the folded rows also pair under theta -> pi/2 - theta
    (`transpose_partner`), the pixel grid's symmetry under transpose makes
    the partner's offsets the transpose of the lead's, so each pair is
    interpolated once as the complex row lead + 1j * partner and the
    imaginary image is added back transposed.  Both shortcuts agree with the
    row-by-row sum up to rounding; other grids are summed row by row.

    Each row is interpolated over bands of whole pixel rows (`row_blocks`),
    so each thread holds one band's offsets and samples at a time, in cache
    beside the accumulator.  Contiguous groups of bands, one per CPU
    (`_in_groups`), each add every row into their own bands, so `np.interp`,
    which releases the GIL, runs on every CPU.  An image of one band (N^2 at
    most 8192 pixels) instead takes each row along the pixel axis on which its
    offsets step least: x1 is the inner axis where |sin theta| >
    |cos theta|.  Consecutive keys then lie closer together, so more of
    `np.interp`'s searches start at the right sample.  The accumulator is
    copied to its transpose whenever the inner axis changes from one row
    to the next (twice on an open or half turn), so every row adds into
    contiguous memory.  Images of several bands keep x2 as the inner axis:
    adding transposed bands into a complex accumulator was slower on
    paired turns.  Either way each pixel adds the same addends, in the same
    order of angles, as one call over the whole image with x2 inner would,
    so the image does not change bit for bit, whatever the number of threads.
    """
    xs = pixel_axis(resolution)
    cov = angle_coverage(s.angle_grid)
    if cov == "partial":
        raise CoverageError("backprojection needs a grid covering a half or full turn")
    factor = 1.0 if cov == "full" else 2.0
    ps = s.offset_grid.points()
    thetas, values = _folded_rows(s)
    acc = np.zeros((resolution, resolution), dtype=values.dtype)
    bands = row_blocks(resolution, resolution)
    def add_rows(group: list[slice]) -> None:  # every folded row, in order, into group
        nonlocal acc  # rebound only to transpose an image of one band, on this thread
        transposed = False  # acc holds the image transposed, x1 along its rows
        for theta, row in zip(thetas, values):
            cos, sin = math.cos(theta), math.sin(theta)
            if len(bands) == 1 and transposed != (abs(sin) > abs(cos)):
                acc, transposed = np.ascontiguousarray(acc.T), not transposed
            # a pixel's offset is outer[its row of acc] + inner[its column]
            outer, inner = (xs * sin, xs * cos) if transposed else (xs * cos, xs * sin)
            for band in group:
                acc[band] += np.interp(np.add.outer(outer[band], inner), ps, row,
                                       left=0.0, right=0.0)
        if transposed:
            acc = np.ascontiguousarray(acc.T)

    _in_groups(add_rows, bands)
    if np.iscomplexobj(acc):
        acc = acc.real + acc.imag.T
    acc *= factor * s.angle_grid.spacing
    return ReconGrid(resolution=resolution, values=acc, orders=None)


def fbp_reconstruct(s: Sinogram, resolution: int) -> ReconGrid:
    """Filtered backprojection: R*(filtered rows) / (4 pi)."""
    rec = backproject(apply_filter(s), resolution)
    np.divide(rec.values, 4.0 * math.pi, out=rec.values)
    return rec

