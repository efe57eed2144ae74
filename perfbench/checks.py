"""Output check of one pipeline run, made outside the timed region.

Every artifact must exist and parse with the `momentct.fileio` readers (PGM
has no reader there, so it is parsed here), hold only finite values, match
the grids the case asked for, and, when a reference is given, be
byte-identical to the first run of the same input.  The accuracy figures are
computed against the case's oracles and must stay inside the case's sanity
tolerances.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from momentct import fileio

ARTIFACTS = (
    "sinogram.csv",
    "sinogram.pgm",
    "phantom.pgm",
    "moments.csv",
    "recon_moments.csv",
    "recon_moments.pgm",
    "recon_fbp.csv",
    "recon_fbp.pgm",
)


def digests(outdir: Path) -> dict:
    """sha256 of each artifact that exists."""
    return {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        for name in ARTIFACTS if (outdir / name).is_file()
    }


def read_pgm(path: Path) -> np.ndarray:
    """Parse the P2 files `fileio.write_pgm` writes; return physical values."""
    lines = path.read_text().splitlines()
    if len(lines) < 4 or lines[0] != "P2" or not lines[1].startswith("# offset="):
        raise ValueError("malformed PGM header")
    fields = dict(item.split("=", 1) for item in lines[1][2:].split())
    offset, scale = float(fields["offset"]), float(fields["scale"])
    width, height = (int(t) for t in lines[2].split())
    if lines[3] != "255" or len(lines) != 4 + height:
        raise ValueError("malformed PGM size or depth")
    pixels = np.array([[int(t) for t in row.split()] for row in lines[4:]])
    if pixels.shape != (height, width) or pixels.min() < 0 or pixels.max() > 255:
        raise ValueError("PGM pixels do not match the header")
    return offset + scale * pixels


def check_outputs(outdir: Path, case, oracle, reference: dict | None = None):
    """Return (accuracy, problems) for the artifacts in `outdir`.

    `accuracy` maps moment_err, recon_dev and fbp_rel_l2 to their values (NaN
    where an artifact could not be read); `problems` lists every failed
    check, empty when the run is correct.
    """
    outdir = Path(outdir)
    problems = []
    accuracy = {"moment_err": math.nan, "recon_dev": math.nan, "fbp_rel_l2": math.nan}
    missing = [name for name in ARTIFACTS if not (outdir / name).is_file()]
    problems += [f"{name}: missing" for name in missing]

    def read(name, reader):
        if name in missing:
            return None
        try:
            return reader(outdir / name)
        except (ValueError, KeyError, OSError) as exc:
            problems.append(f"{name}: does not parse ({exc})")
            return None

    def finite(name, values) -> bool:
        if not np.all(np.isfinite(values)):
            problems.append(f"{name}: non-finite values")
            return False
        return True

    sino = read("sinogram.csv", fileio.read_sinogram)
    if sino is not None:
        finite("sinogram.csv", sino.values)
        if sino.values.shape != (case.angles, case.offsets):
            problems.append(f"sinogram.csv: shape {sino.values.shape}")

    table = read("moments.csv", fileio.read_moments)
    if table is not None:
        errs = [table.values[key] - value for key, value in oracle.moments.items()
                if key in table.values]
        if table.max_order != case.K or len(errs) != len(oracle.moments):
            problems.append(f"moments.csv: order {table.max_order}, want {case.K}")
        elif finite("moments.csv", errs):
            accuracy["moment_err"] = float(np.max(np.abs(errs)))

    for name, key, reference_image in (
        ("recon_moments.csv", "recon_dev", oracle.moment_image),
        ("recon_fbp.csv", "fbp_rel_l2", oracle.truth),
    ):
        rec = read(name, fileio.read_recon_csv)
        if rec is None:
            continue
        if rec.resolution != case.resolution:
            problems.append(f"{name}: resolution {rec.resolution}")
        elif finite(name, rec.values):
            if key == "recon_dev":
                accuracy[key] = float(np.max(np.abs(rec.values - reference_image)))
            else:
                accuracy[key] = float(np.linalg.norm(rec.values - reference_image)
                                      / np.linalg.norm(reference_image))

    for name in ARTIFACTS:
        if name.endswith(".pgm"):
            image = read(name, read_pgm)
            if image is not None:
                finite(name, image)

    for key, limit in (("moment_err", case.max_moment_err),
                       ("recon_dev", case.max_recon_dev),
                       ("fbp_rel_l2", case.max_fbp_rel_l2)):
        if not accuracy[key] <= limit:  # NaN fails too
            problems.append(f"{key} = {accuracy[key]:.3e} outside the sanity tolerance {limit:g}")

    if reference is not None:
        current = digests(outdir)
        problems += [f"{name}: differs from the first run of this input"
                     for name in ARTIFACTS if current.get(name) != reference.get(name)
                     and name not in missing]
    return accuracy, problems
