"""Forward simulation: sample line integrals of a density on an
angle x offset grid, smooth rows with a mollifier, and inject seeded noise.

Rows are indexed by angle; row i holds the transform at angle_grid point i
sampled over the offset grid.  All operations are pure; noise derives one
independent RNG stream per row from (seed, row), so results do not depend
on evaluation order or thread count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import CoverageError, MisuseError, ResolutionWarning
from .mollifiers import MollifierSpec, sampled_kernel
from .numerics import Grid1D
from .phantoms import SQRT2, Density

KINDS = ("raw", "mollified", "noisy", "filtered")


@dataclass(frozen=True)
class Sinogram:
    angle_grid: Grid1D
    offset_grid: Grid1D
    values: np.ndarray
    kind: str
    kernel: MollifierSpec | None = None  # what smoothed the rows; set exactly on mollified

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if (self.kernel is None) == (self.kind == "mollified"):
            raise ValueError("mollified sinogram needs the kernel that smoothed it"
                             if self.kernel is None else
                             f"kind={self.kind!r} sinogram must not carry a kernel")
        # the 2 ceil(eps / h) + 1 samples of `sampled_kernel` must fit on the grid
        if self.kernel and self.kernel.epsilon / self.offset_grid.spacing \
                > (self.offset_grid.count - 1) // 2:
            raise ValueError("kernel wider than the offset grid")
        v = np.asarray(self.values, dtype=float)
        expected = (self.angle_grid.count, self.offset_grid.count)
        if v.shape != expected:
            raise ValueError(f"values shape {v.shape} does not match grids {expected}")
        object.__setattr__(self, "values", v)


def moment_angle_grid(count: int) -> Grid1D:
    """count angles strictly inside (0, pi), pi/(count + 1) apart from pi/(count + 1)."""
    step = math.pi / (count + 1)
    return Grid1D(step, step, count)


def half_circle_grid(count: int) -> Grid1D:
    """count angles covering [0, pi), pi/count apart from 0."""
    return Grid1D(0.0, math.pi / count, count)


def full_circle_grid(count: int) -> Grid1D:
    """count angles covering [0, 2 pi), 2 pi/count apart from 0."""
    return Grid1D(0.0, 2.0 * math.pi / count, count)


#: The angle grid constructors, by `[grids] angle_cover`: the one list of covers.
ANGLE_GRIDS = {"moment": moment_angle_grid, "half": half_circle_grid, "full": full_circle_grid}


def offset_grid(count: int, margin: float = 1.1) -> Grid1D:
    """count offsets over [-sqrt(2) margin, sqrt(2) margin], 2 sqrt(2) margin/(count - 1)
    apart; `project` needs margin >= 1, and rows smoothed by a kernel of width eps
    need margin >= 1 + eps/sqrt(2) (`require_coverage`)."""
    return Grid1D(-margin * SQRT2, 2.0 * margin * SQRT2 / (count - 1), count)


def _nodes_short(angles: Grid1D, turn: float) -> int | None:
    """0 when count spacings make `turn`, 1 when count + 1 do (an open grid, like the
    moment grids), else None (a closed grid, or a fraction of a spacing off); to 1e-9 h."""
    h = angles.spacing
    for short in (0, 1):
        if abs((angles.count + short) * h - turn) <= 1e-9 * h:
            return short
    return None


def antipodal_miss(angles: Grid1D, offsets: Grid1D) -> str | None:
    """Why the rows do not pair with their antipodes (`antipodal_half`), or None."""
    if _nodes_short(angles, 2.0 * math.pi) != 0:
        return "needs a full-turn angle grid"
    if angles.count % 2:
        return "needs an even angle count"
    symmetric = abs(offsets.start + offsets.stop) <= 1e-12
    return None if symmetric else "needs a symmetric offset grid"


def antipodal_half(angles: Grid1D, offsets: Grid1D) -> int | None:
    """Row shift that pairs each row with its antipode, or None.

    Returns count // 2 when row i + count // 2 at offset -p samples the same
    line as row i at p: the count spacings tile exactly 2 pi (`_nodes_short`),
    the angle count is even and the offset grid is symmetric (`antipodal_miss`
    names the first that fails).  A grid one node short of 2 pi does not pair.
    """
    return None if antipodal_miss(angles, offsets) else angles.count // 2


def turn_rule(s: Sinogram) -> tuple[float, tuple[float, np.ndarray] | None]:
    """The rectangle rule over [0, 2 pi) for rows even under (theta, p) -> (theta + pi, -p):
    the weight, h on a full turn and 2h on a half, and the node (start - h, row) of a grid one
    node short of its turn, or None.  Its row is the mean of the first row and the last, read
    at -p (zero off the offset grid) on a half turn.  The accepted grids tile 2 pi or pi, or
    fall one node short of either (`_nodes_short`); any other grid is refused."""
    n, h = s.angle_grid.count, s.angle_grid.spacing
    for turn, weight in ((2.0 * math.pi, h), (math.pi, 2.0 * h)):
        short = _nodes_short(s.angle_grid, turn)
        if short is not None:
            break
    else:
        raise CoverageError(f"the angle grid covers neither a half nor a full turn: {n} angles "
                            f"{h:.6g} apart; neither {n} nor {n + 1} spacings make pi or 2 pi")
    if not short:
        return weight, None
    ps, last = s.offset_grid.points(), s.values[-1]
    if turn == math.pi:
        last = np.interp(-ps, ps, last, left=0.0, right=0.0)
    return weight, (s.angle_grid.start - h, 0.5 * (s.values[0] + last))


def transpose_partner(angles: Grid1D) -> tuple[np.ndarray, np.ndarray] | None:
    """Partner of each folded row under theta -> pi/2 - theta, or None.

    On a grid that `antipodal_half` folds, the first half = count // 2 rows
    tile a half turn.  Returns (partner, reverse): row partner[k] < half has
    the angle pi/2 - theta_k modulo pi, and reverse[k] says that it has that
    angle plus pi, so it must be read at -p.  The rows at pi/4 and 3pi/4
    are their own partners.  None when pi/2 - 2 start is not within 1e-9 of
    a whole number of spacings.
    """
    half = angles.count // 2
    shift = (math.pi / 2 - 2.0 * angles.start) / angles.spacing
    if abs(shift - round(shift)) > 1e-9:
        return None
    raw = round(shift) - np.arange(half)
    return raw % half, (raw // half) % 2 == 1


def support_windows(c: np.ndarray, s: np.ndarray, ps: np.ndarray,
                    pad: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Column range [first, stop) of the offsets ps whose lines pass within
    pad of the unit square, per angle (c, s) = (cos theta, sin theta).

    The one rule for which offsets a row spans: the square projects onto
    [min(c,0) + min(s,0), max(c,0) + max(s,0)].  One more offset on each side
    keeps inside the range the lines within roundoff (or `_EDGE_TOL`) of its
    ends, and all that a kernel of width pad spreads from `project`'s rows.
    """
    lo = np.minimum(c, 0.0) + np.minimum(s, 0.0) - pad
    hi = np.maximum(c, 0.0) + np.maximum(s, 0.0) + pad
    first = np.maximum(np.searchsorted(ps, lo, side="left") - 1, 0)
    stop = np.minimum(np.searchsorted(ps, hi, side="right") + 1, ps.size)
    return first, stop


def require_coverage(offsets: Grid1D, pad: float = 0.0) -> None:
    """Refuse offsets that do not cover [-sqrt2 - pad, sqrt2 + pad]: the lines through
    the square, and all that a kernel of width pad spreads from them."""
    if offsets.start > -SQRT2 - pad + 1e-12 or offsets.stop < SQRT2 + pad - 1e-12:
        widened = f" widened by the kernel's width {pad:.4g}" if pad else ""
        raise CoverageError(f"offsets [{offsets.start:.4g}, {offsets.stop:.4g}] do not cover "
                            f"[-sqrt2, sqrt2]{widened}; moments would be truncated")


#: Samples in one block of whole rows (`row_blocks`), swept on a Xeon with
#: 2 MB of L2 per core.  Lines for `project`, on the 256 x 1024 grid with a
#: degree-4 polynomial (108k lines, 3 Gauss nodes each): 8k-16k in a median
#: 12-13 ms, 4k in 14 ms (per-call overhead), 20k and more in 19 ms (the
#: temporaries leave L2); one call over every line took 20 ms and a 25 MB
#: traced peak, against 4 MB at 8k.  Values written as text, on the 128 x
#: 512, 256 x 1024 and 192 x 256 sinograms (medians of 31 interleaved
#: writes): 8k in 12.7, 35.7 and 6.8 ms, 4k in 13.9, 42.6 and 8.4 ms
#: (per-block overhead), 16k in 14.4, 33.1 and 7.1 ms, 32k in 16.9, 34.1
#: and 7.4 ms (the temporaries leave L2).
_BLOCK_LINES = 8192


def project(d: Density, angles: Grid1D, offsets: Grid1D) -> Sinogram:
    """Sample the line-integral transform of a density.

    Each sample is the density's exact line integral, bitwise what
    `d.line_integrals` gives for that line's direction and offset.  Only the
    samples inside each row's support window are evaluated; every other
    sample is exactly 0.0, which is what `d.line_integrals` returns on lines
    that miss the square.  The windows are evaluated by
    `d.line_integrals` in `row_blocks` of the windows' widths, which bounds
    the temporaries, and each row's direction is computed once.
    """
    require_coverage(offsets)
    ps = offsets.points()
    th = angles.points()
    half = antipodal_half(angles, offsets)
    # a full turn samples every line twice ((theta, p) and (theta+pi, -p));
    # compute the first half and extend by that identity, which keeps the
    # two representations of each line bitwise equal
    sampled = angles.count if half is None else half
    c, s = np.cos(th[:sampled]), np.sin(th[:sampled])
    first, stop = support_windows(c, s, ps)
    widths = stop - first
    values = np.zeros((angles.count, offsets.count))
    flat = values.reshape(-1)
    for rows in row_blocks(sampled, widths):
        w = widths[rows]
        before = np.cumsum(w) - w
        # column of each flattened point: its rank within its block plus the
        # row's first column, less the lines of the block's rows before it
        cols = np.arange(w.sum()) + np.repeat(first[rows] - before, w)
        at = cols + np.repeat(np.arange(rows.start, rows.stop) * offsets.count, w)  # into flat
        flat[at] = d.line_integrals(np.repeat(c[rows], w), np.repeat(s[rows], w), ps[cols])
    if half is not None:
        values[half:] = values[:half, ::-1]
    return Sinogram(angle_grid=angles, offset_grid=offsets, values=values, kind="raw")


def mollify(s: Sinogram, m: MollifierSpec) -> Sinogram:
    """Convolve each row circularly with the kernel's taps over the offset grid.

    Each row is wrapped by the taps' half-width n = ceil(eps / h) on both
    sides and only the full overlaps are kept: the circulant whose DFT
    `spectral.grid_kernel_transform` gives, so the FBP filter divides out
    exactly this smoothing.  Samples n or more from both ends are the
    linear convolution's.  The taps have exact unit discrete mass, so each
    row's sum (hence every k = 0 moment) is kept.  Warns when the width is
    marginal (fewer than two grid cells per half-width): the inverses undo
    these taps exactly, but so few taps barely smooth the rows.
    """
    if s.kind not in ("raw", "noisy"):
        raise MisuseError(f"can only mollify raw or noisy sinograms, got {s.kind!r}")
    smoothed = replace(s, kind="mollified", kernel=m)  # refuses a kernel wider than the grid
    dp = s.offset_grid.spacing
    if m.epsilon < 2.0 * dp:
        warnings.warn(
            f"kernel width {m.epsilon:.3g} below twice the grid spacing "
            f"{dp:.3g}; the sampled kernel is marginally resolved",
            ResolutionWarning,
            stacklevel=2,
        )
    _, weights = sampled_kernel(m, dp)
    kernel = weights * dp
    n = kernel.size // 2
    wrapped = np.pad(s.values, ((0, 0), (n, n)), mode="wrap")
    out = np.empty_like(s.values)
    for i in range(s.values.shape[0]):
        out[i] = np.convolve(wrapped[i], kernel, mode="valid")
    return replace(smoothed, values=out)


def add_noise(s: Sinogram, sigma: float, seed: int) -> Sinogram:
    """Add i.i.d. zero-mean Gaussian noise of a finite sigma >= 0, one seeded stream per row,
    to raw or noisy rows (smoothed rows relabelled noisy would lose their kernel)."""
    if s.kind not in ("raw", "noisy"):
        raise MisuseError(f"can only add noise to raw or noisy sinograms, got {s.kind!r}")
    if not 0.0 <= sigma < math.inf:  # numpy's normal would take NaN and inf
        raise ValueError(f"noise level must be finite and nonnegative, got {sigma}")
    if sigma == 0.0:
        return replace(s, values=s.values.copy(), kind="noisy")
    out = np.empty_like(s.values)
    for i in range(s.values.shape[0]):
        rng = np.random.default_rng((int(seed), i))
        out[i] = s.values[i] + rng.normal(0.0, sigma, s.values.shape[1])
    return replace(s, values=out, kind="noisy")


def row_blocks(rows: int, width: int | np.ndarray) -> list[slice]:
    """`rows` rows as consecutive blocks that bound a per-row loop's
    temporaries: each the longest run of whole rows holding at most
    `_BLOCK_LINES` samples, and at least one row.  width is every row's
    samples, or an array of each row's."""
    if np.ndim(width) == 0:
        step = max(1, _BLOCK_LINES // width)
        return [slice(start, start + step) for start in range(0, rows, step)]
    ends = np.cumsum(width)
    blocks, start = [], 0
    while start < rows:
        stop = max(int(np.searchsorted(ends, ends[start] - width[start] + _BLOCK_LINES,
                                       side="right")), start + 1)
        blocks.append(slice(start, stop))
        start = stop
    return blocks


def l1_norm(s: Sinogram) -> float:
    """|values| integrated over offset (trapezoid rule) and the whole turn (`turn_rule`)."""
    weight, node = turn_rule(s)
    dp = s.offset_grid.spacing
    row_ints = np.concatenate([np.trapezoid(np.abs(s.values[rows]), dx=dp, axis=1)
                               for rows in row_blocks(*s.values.shape)])
    supplied = 0.0 if node is None else np.trapezoid(np.abs(node[1]), dx=dp)
    return float(weight * (row_ints.sum() + supplied))


def evenness_residual(s: Sinogram) -> float:
    """max |v(theta, p) - v(theta + pi, -p)| over the sampled grid.

    Requires grids on which both the opposite angle and the negated offset
    land exactly on grid points (`antipodal_half`).
    """
    half = antipodal_half(s.angle_grid, s.offset_grid)
    if half is None:
        raise ValueError(f"evenness {antipodal_miss(s.angle_grid, s.offset_grid)}")
    shifted = np.roll(s.values, -half, axis=0)[:, ::-1]
    return float(np.max(np.abs(s.values - shifted)))
