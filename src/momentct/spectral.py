"""Fourier-path inversion: ramp filtering per row (with kernel
deconvolution for mollified rows) and backprojection.

Conventions: the 1-D transform of a row is (1/sqrt(2 pi)) * integral of
g(p) e^{-isp} dp, the 2-D transform of the density carries 1/(2 pi).  The
per-row ramp filter is realized on the FFT frequencies s_k = 2 pi k/(N h);
the inversion constant 1/(4 pi), with the rectangle rule of `turn_rule` over
the whole turn, makes backprojection of the filtered rows give the density.

For mollified rows the filter divides by the DFT of the sinogram's
`kernel` as its taps on the offset grid (`sampled_kernel`; signed, with a
magnitude floor): `mollify` applied exactly that circulant, so the division
undoes the smoothing on every bin the floor keeps.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from collections.abc import Callable

import numpy as np

from .errors import MisuseError
from .density_recon import ReconGrid, pixel_axis
from .mollifiers import MollifierSpec, sampled_kernel
from .projector import (Sinogram, antipodal_half, require_coverage, row_blocks,
                        transpose_partner, turn_rule)

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
    """Signed DFT of the grid-sampled kernel on the real FFT's count // 2 + 1
    bins (unit DC): the eigenvalues of the circulant that `mollify` applies,
    which are even in the bin.  The samples fit in `count`: `Sinogram` refuses
    a kernel wider than its grid."""
    offsets, weights = sampled_kernel(m, spacing)
    half = offsets.size // 2
    padded = np.zeros(count)
    padded[: half + 1] = weights[half:] * spacing
    if half:
        padded[-half:] = weights[:half] * spacing
    return np.fft.rfft(padded).real


def apply_filter(s: Sinogram) -> Sinogram:
    """Per-row ramp filter up to CUTOFF_FRACTION of the Nyquist frequency,
    divided by the sampled transform of `s.kernel` on mollified rows;
    output kind 'filtered'.  The multiplier is real and even in the bin, so
    the real FFT's n // 2 + 1 bins hold the whole filter.  The rows are
    transformed in `row_blocks`, so only one block's spectra exist at a time."""
    if s.kind == "filtered":
        raise MisuseError("a filtered sinogram cannot be inverted again")
    h = s.offset_grid.spacing
    n = s.offset_grid.count
    freqs = 2.0 * math.pi * np.fft.rfftfreq(n, d=h)
    mult = _ramp_multiplier(freqs, CUTOFF_FRACTION * (math.pi / h))

    if s.kernel is not None:
        transfer = grid_kernel_transform(s.kernel, h, n)
        usable = np.abs(transfer) >= REG_FLOOR
        mult = np.where(usable, mult / np.where(usable, transfer, 1.0), 0.0)

    filtered = np.empty_like(s.values)
    for rows in row_blocks(*s.values.shape):
        spectra = np.fft.rfft(s.values[rows], axis=1)
        spectra *= mult
        filtered[rows] = np.fft.irfft(spectra, n, axis=1)
    return Sinogram(angle_grid=s.angle_grid, offset_grid=s.offset_grid,
                    values=filtered, kind="filtered")


def _folded_rows(s: Sinogram) -> tuple[np.ndarray, np.ndarray]:
    """The angles and rows that `backproject` interpolates before the node of
    `turn_rule`, in its order: every row, or on a full turn that `antipodal_half`
    pairs, each row summed with its antipode's, and where `transpose_partner`
    pairs those too, each lead as the complex row lead + 1j * partner."""
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
    """work(group) on min(_CPUS, len(bands)) contiguous groups of `bands`: the first here, each
    other on a thread in a copy of this context (numpy's errstate), joined; errors raise here."""
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
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run, group))
            thread.start()
            started.append(thread)
        work(groups[0])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]


def backproject(s: Sinogram, resolution: int) -> ReconGrid:
    """Dual transform: integrate g(theta, <x, w>) over the full turn by
    `turn_rule`, the node it supplies interpolated after the rows, linearly
    between offsets, which must cover [-sqrt2, sqrt2] (`require_coverage`).
    On a full turn whose rows pair with their antipodes (`antipodal_half`),
    row i + half read at -p is the same line as row i at p, and
    backprojection is linear, so the two are summed first and only half the
    rows are interpolated.  When the folded rows also pair under theta ->
    pi/2 - theta (`transpose_partner`), the pixel grid's symmetry under
    transpose makes the partner's offsets the transpose of the lead's, so
    each pair is interpolated once as the complex row lead + 1j * partner and
    the imaginary image is added back transposed.  Both shortcuts agree with
    the row-by-row sum up to rounding; other grids are summed row by row.

    An image of one band (N^2 at most 8192 pixels) is added on the calling
    thread, each pixel's sample found by index arithmetic on the uniform
    offset grid.  A larger one is read by `np.interp`, which releases the
    GIL, over its bands of whole pixel rows (`row_blocks`) in contiguous
    groups, one per CPU (`_in_groups`).  Each pixel adds its terms in the
    order of angles, so the image is the same whatever the number of threads.
    """
    require_coverage(s.offset_grid)
    xs = pixel_axis(resolution)
    weight, node = turn_rule(s)
    p0, h, ps = s.offset_grid.start, s.offset_grid.spacing, s.offset_grid.points()
    thetas, values = _folded_rows(s)
    rows = [*zip(thetas, values), *([node] if node else [])]  # no grid with a node folds
    acc = np.zeros((resolution, resolution), dtype=values.dtype)
    bands = row_blocks(resolution, resolution)
    if len(bands) == 1:
        # a pixel centre lies 0.5/N inside the square, so |<x, w>| <= sqrt2 (1 - 0.5/N): on
        # offsets that cover [-sqrt2, sqrt2] each f = (<x, w> - p0)/h lies inside (0, count - 1)
        # by far more than its rounding, so samples k and k + 1 exist and no key needs a clamp
        for theta, row in rows:
            f = np.add.outer((xs * math.cos(theta) - p0) / h, xs * math.sin(theta) / h)
            k = f.astype(np.intp)
            f -= k
            sample = np.diff(row)[k]
            sample *= f
            sample += row[k]
            acc += sample
    else:
        def add_rows(group: list[slice]) -> None:  # every folded row, in order, into group
            for theta, row in rows:
                outer, inner = xs * math.cos(theta), xs * math.sin(theta)
                for band in group:
                    acc[band] += np.interp(np.add.outer(outer[band], inner), ps, row,
                                           left=0.0, right=0.0)

        _in_groups(add_rows, bands)
    if np.iscomplexobj(acc):
        acc = acc.real + acc.imag.T
    acc *= weight
    return ReconGrid(resolution=resolution, values=acc, orders=None)


def fbp_reconstruct(s: Sinogram, resolution: int) -> ReconGrid:
    """Filtered backprojection: R*(filtered rows) / (4 pi)."""
    rec = backproject(apply_filter(s), resolution)
    np.divide(rec.values, 4.0 * math.pi, out=rec.values)
    return rec

