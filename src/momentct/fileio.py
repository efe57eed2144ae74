"""File formats: sinogram CSV, moment-table CSV, reconstruction CSV/PGM.

All floats are written as `%.17g` (17 significant digits), which
round-trips IEEE doubles exactly; array rows are formatted one row per
string operation, and a row bitwise equal to the one before it is not
formatted again.  PGM export rejects non-finite values with ValueError.
Writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import math
import os
import re
from pathlib import Path

import numpy as np

from .density_recon import ReconGrid
from .errors import FormatError
from .numerics import Grid1D
from .phantoms import MomentTable
from .projector import Sinogram


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _csv_rows(values: np.ndarray) -> list[str]:
    # one %-format per row ("%.17g" prints exactly what _fmt prints); rows
    # are converted one at a time so only one row of Python floats is alive.
    # A row bitwise equal to the one before it reuses that row's text (the
    # moment image repeats each row many times); comparing bytes keeps -0.0
    # apart from 0.0.
    fmt = ",".join(["%.17g"] * values.shape[1])
    lines = []
    previous = None
    for row in values:
        key = row.tobytes()
        if key != previous:
            text = fmt % tuple(row.tolist())
            previous = key
        lines.append(text)
    return lines


#: PGM pixel text by level; indexing it with a pixel image gathers the text
_PGM_LEVELS = np.array([str(i) for i in range(256)], dtype=object)


def _atomic_write_text(path, text: str) -> None:
    path = Path(path)
    # a fresh name opened exclusively with mode 0o666, so the kernel applies
    # the umask as for any other new file (mkstemp would force 0o600)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_SINO_HEADER = re.compile(
    r"^# sinogram kind=(\w+) angles=(\d+) offsets=(\d+) "
    r"theta0=(\S+) dtheta=(\S+) p0=(\S+) dp=(\S+)$"
)


def _recorded_grid(start: float, spacing: float, count: int) -> Grid1D:
    # the header keeps a grid's start and spacing, not its stop
    return Grid1D(start, start + (count - 1) * spacing, count)


def write_sinogram(s: Sinogram, path) -> Sinogram:
    """Write s and return it as `read_sinogram` reads the file back.

    Values and the recorded start and spacing round-trip exactly; each
    grid's stop is rebuilt from them and may differ from s's in the last bit.
    """
    lines = [
        f"# sinogram kind={s.kind} angles={s.angle_grid.count} "
        f"offsets={s.offset_grid.count} theta0={_fmt(s.angle_grid.start)} "
        f"dtheta={_fmt(s.angle_grid.spacing)} p0={_fmt(s.offset_grid.start)} "
        f"dp={_fmt(s.offset_grid.spacing)}"
    ]
    lines += _csv_rows(s.values)
    _atomic_write_text(path, "\n".join(lines) + "\n")
    return Sinogram(
        angle_grid=_recorded_grid(s.angle_grid.start, s.angle_grid.spacing, s.angle_grid.count),
        offset_grid=_recorded_grid(s.offset_grid.start, s.offset_grid.spacing,
                                   s.offset_grid.count),
        values=s.values, kind=s.kind,
    )


def read_sinogram(path) -> Sinogram:
    """Read a file written by `write_sinogram`.

    Raises FormatError on a malformed header or row.  NaN and inf values
    pass through unchecked; the CLI rejects them after reading
    (`cli._require_finite`).
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        match = _SINO_HEADER.match(header)
        if not match:
            raise FormatError(f"malformed sinogram header: {header!r}")
        kind, n_s, m_s, theta0, dtheta, p0, dp = match.groups()
        n, m = int(n_s), int(m_s)
        theta0, dtheta, p0, dp = map(float, (theta0, dtheta, p0, dp))
        values = np.empty((n, m))
        for i in range(n):
            line = fh.readline()
            if not line:
                raise FormatError(f"sinogram truncated at row {i}")
            row = np.fromstring(line, sep=",")
            if row.size != m:
                raise FormatError(f"row {i} has {row.size} values, expected {m}")
            values[i] = row
    angle_grid = _recorded_grid(theta0, dtheta, n)
    offset_grid = _recorded_grid(p0, dp, m)
    try:
        return Sinogram(angle_grid=angle_grid, offset_grid=offset_grid,
                        values=values, kind=kind)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_moments(table: MomentTable, path) -> None:
    lines = [f"# moments K={table.max_order}"]
    for (a1, a2) in sorted(table.values, key=lambda ab: (ab[0] + ab[1], ab[0])):
        lines.append(f"{a1},{a2},{_fmt(table.values[(a1, a2)])}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


def read_moments(path) -> MomentTable:
    """Read a file written by `write_moments`.

    Raises FormatError on a malformed header or an incomplete table, and,
    naming the file and line, on a row that is not `a1,a2,value` or that
    repeats an (a1, a2).  NaN and inf values pass through unchecked; the
    CLI rejects them after reading (`cli._require_finite`).
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        match = re.match(r"^# moments K=(\d+)$", header)
        if not match:
            raise FormatError(f"malformed moment header: {header!r}")
        K = int(match.group(1))
        values = {}
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                a1, a2, value = line.split(",")
                key, value = (int(a1), int(a2)), float(value)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: malformed moment row {line!r}") from None
            if key in values:
                raise FormatError(f"{path}:{lineno}: repeated moment {key}")
            values[key] = value
    try:
        return MomentTable(max_order=K, values=values)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_recon_csv(rec: ReconGrid, path) -> None:
    header = f"# recon N={rec.resolution}"
    if rec.orders is not None:
        header += f" m={rec.orders[0]} n={rec.orders[1]}"
    lines = [header, *_csv_rows(rec.values)]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def read_recon_csv(path) -> ReconGrid:
    """Read a file written by `write_recon_csv`.

    Raises FormatError on a malformed header or row.  NaN and inf values
    pass through unchecked, as in the other readers; the CLI never reads
    this file back, and its check for the files it does read is
    `cli._require_finite`.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        match = re.match(r"^# recon N=(\d+)(?: m=(\d+) n=(\d+))?$", header)
        if not match:
            raise FormatError(f"malformed recon header: {header!r}")
        n = int(match.group(1))
        orders = None
        if match.group(2) is not None:
            orders = (int(match.group(2)), int(match.group(3)))
        values = np.empty((n, n))
        for i in range(n):
            line = fh.readline()
            if not line:
                raise FormatError(f"recon grid truncated at row {i}")
            row = np.fromstring(line, sep=",")
            if row.size != n:
                raise FormatError(f"row {i} has {row.size} values, expected {n}")
            values[i] = row
    return ReconGrid(resolution=n, values=values, orders=orders)


def write_pgm(values: np.ndarray, path) -> None:
    """P2 (ASCII) grayscale export, affine-scaled to 0..255.

    The scale and offset are recorded as comment lines so the physical
    values can be recovered: value = offset + scale * pixel.  Rows are
    written with the second coordinate increasing downwards.  Raises
    ValueError on NaN or inf, and on a range too wide for a double.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise ValueError("PGM export needs a 2-D array")
    vmin = float(v.min())
    vmax = float(v.max())
    span = vmax - vmin
    # NaN and inf propagate through min/max into the span
    if not math.isfinite(span):
        raise ValueError(f"PGM export needs finite values, got min={vmin} max={vmax}")
    scale = span / 255.0
    if scale == 0.0:  # a constant image, or a span too small to divide by 255
        scale = 1.0
    pixels = np.clip(np.rint((v - vmin) / scale), 0, 255).astype(int)
    img = pixels.T[::-1, :]  # x2 axis points up in data, down in the image
    lines = [
        "P2",
        f"# offset={_fmt(vmin)} scale={_fmt(scale)}",
        f"{img.shape[1]} {img.shape[0]}",
        "255",
    ]
    lines += [" ".join(row.tolist()) for row in _PGM_LEVELS[img]]
    _atomic_write_text(path, "\n".join(lines) + "\n")
