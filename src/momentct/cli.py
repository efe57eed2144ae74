"""Command-line front end.

Subcommands mirror the reconstruction procedure: `project` simulates the
measured data, `moments` recovers the moment table, `reconstruct` produces
density images (from moments and/or by filtered backprojection), `pipeline`
runs all three in one process, and `selftest` executes the acceptance
suite.  Every command computes and checks each result, then writes every
artifact, then prints its report in one write: a refused run leaves no
output directory, and a closed stdout exits 2 after the last artifact.
Only `project` and `pipeline` read `[mollifier]`; the inverses take the
kernel that a smoothed `sinogram.csv` records.

Exit codes: 0 success, 2 invalid configuration/input, grids too large to
allocate, arithmetic past the float range or an OS error, 3 coverage
error, 5 insufficient moment order or stability cap.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fileio
from .config import RunConfig, load_config
from .density_recon import (
    ReconGrid,
    check_orders,
    minimized_sup_error_bound,
    phantom_image,
    reconstruct_grid,
    relative_l2_error,
    sup_error,
)
from .errors import (
    CapabilityError,
    CoverageError,
    FormatError,
    OrderError,
    StabilityError,
)
from .mollifiers import MollifierSpec
from .moment_recovery import recover_moment_table
from .phantoms import Density, MomentTable
from .projector import (
    Sinogram,
    add_noise,
    antipodal_miss,
    evenness_residual,
    l1_norm,
    mollify,
    project,
    require_coverage,
)
from .spectral import fbp_reconstruct


def _load(args) -> RunConfig:
    """The validated config file (defaults without one), with `-o` in place
    of its output directory when given."""
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.outdir:
        cfg = replace(cfg, output=replace(cfg.output, directory=args.outdir))
    return cfg


#: A stage's artifacts, each (writer, value, path) in order, and its printed lines.
Stage = tuple[list, list[str]]


def _publish(*stages: Stage) -> int:
    """Write every stage's artifacts in order, then print all their lines in
    one write, so that a stdout that fails (exit 2) leaves every artifact.
    A closed pipe keeps the report buffered: its descriptor is pointed at
    os.devnull, so that the interpreter's flush at exit cannot fail again."""
    for artifacts, _ in stages:
        for write, value, path in artifacts:
            write(value, path)
    try:
        sys.stdout.write("".join(f"{line}\n" for _, lines in stages for line in lines))
        sys.stdout.flush()
    except BrokenPipeError:
        with contextlib.suppress(OSError, ValueError):  # an in-process stdout has no descriptor
            stdout = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout)
        raise
    return 0


def _require_finite(values, message: str) -> None:
    """Refuse NaN and inf: in a file read, or in a result not yet written."""
    if not np.all(np.isfinite(values)):
        raise ValueError(message)


def _simulate(cfg: RunConfig, density: Density, kernel: MollifierSpec | None) -> Sinogram:
    """The phantom's data on the config's grids, with noise when sigma > 0,
    smoothed by the kernel when there is one; non-finite data are refused."""
    sino = project(density, cfg.make_angle_grid(), cfg.make_offset_grid())
    if cfg.noise.sigma > 0:
        sino = add_noise(sino, cfg.noise.sigma, cfg.noise.seed)
    if kernel is not None:
        sino = mollify(sino, kernel)
    _require_finite(sino.values, "the computed sinogram has non-finite values")
    return sino


def _fit(sino: Sinogram, K: int) -> tuple[MomentTable, dict]:
    """The moment table to order K and its diagnostics; refused with NaN or inf."""
    diagnostics: dict = {}
    table = recover_moment_table(sino, K, diagnostics=diagnostics)
    _require_finite(list(table.values.values()),
                    "the computed moment table has non-finite values")
    return table, diagnostics


def _moment_image(table: MomentTable, cfg: RunConfig) -> ReconGrid:
    """The config's moment image of the table; refused with NaN or inf."""
    rec = reconstruct_grid(table, cfg.recon.m, cfg.recon.n, cfg.recon.resolution)
    _require_finite(rec.values, "the computed moment image has non-finite values")
    return rec


def _fbp_image(sino: Sinogram, cfg: RunConfig) -> ReconGrid:
    """The config's FBP image of the rows; refused with NaN or inf."""
    rec = fbp_reconstruct(sino, cfg.recon.resolution)
    _require_finite(rec.values, "the computed FBP image has non-finite values")
    return rec


def _read_sinogram(path: Path) -> Sinogram:
    sino = fileio.read_sinogram(path)
    _require_finite(sino.values, f"{path}: non-finite values in the input")
    require_coverage(sino.offset_grid, sino.kernel.epsilon if sino.kernel else 0.0)
    return sino


def _read_moments(path: Path) -> MomentTable:
    table = fileio.read_moments(path)
    _require_finite(list(table.values.values()), f"{path}: non-finite values in the input")
    return table


def _project_stage(cfg: RunConfig, sino: Sinogram, density: Density,
                   truth: np.ndarray) -> Stage:
    """The sinogram and the phantom image `truth`, and the data checks."""
    out = Path(cfg.output.directory)
    path = out / "sinogram.csv"
    angles, offsets = sino.angle_grid, sino.offset_grid
    lines = [f"sinogram: {path} kind={sino.kind} "
             f"({angles.count} angles x {offsets.count} offsets)"]
    l1, mass = l1_norm(sino), 2.0 * math.pi * density.mass
    if math.isfinite(l1) and math.isfinite(mass):
        lines.append(f"l1 norm: {l1:.6g} (2 pi mass = {mass:.6g})")
    else:  # rows or a phantom near the top of the float range
        lines.append("l1 norm: n/a (the integral overflows double precision)")
    miss = antipodal_miss(angles, offsets)
    lines.append(f"evenness residual: n/a ({miss})" if miss
                 else f"evenness residual: {evenness_residual(sino):.3e}")
    return [(fileio.write_pgm, sino.values, out / "sinogram.pgm"),
            (fileio.write_sinogram, sino, path),
            (fileio.write_pgm, truth, out / "phantom.pgm")], lines


def _moments_stage(cfg: RunConfig, table: MomentTable, diagnostics: dict) -> Stage:
    """The moment table, and each order's condition estimate."""
    path = Path(cfg.output.directory) / "moments.csv"
    return [(fileio.write_moments, table, path)], [
        f"moments: {path} K={table.max_order}",
        *(f"order {k}: condition estimate {cond:.3e}" for k, cond in diagnostics["conditions"])]


def _image(rec: ReconGrid, stem: Path) -> list:
    """`<stem>.pgm`, then `<stem>.csv`: a range too wide for the PGM leaves neither."""
    return [(fileio.write_pgm, rec.values, stem.with_suffix(".pgm")),
            (fileio.write_recon_csv, rec, stem.with_suffix(".csv"))]


def _moment_image_stage(cfg: RunConfig, rec: ReconGrid, density: Density,
                        truth: np.ndarray) -> Stage:
    """The moment image, its error against the phantom image `truth`, and
    the phantom's error bound."""
    out, r = Path(cfg.output.directory), cfg.recon
    lines = [f"moment reconstruction: {out / 'recon_moments.csv'} "
             f"orders=({r.m},{r.n}) N={r.resolution}",
             f"sup error vs phantom: {sup_error(rec, truth):.6g}"]
    try:
        density.modulus_bound(0.0)  # before the sup norm, which may cost a grid evaluation
    except CapabilityError:
        lines.append("sup error bound: n/a (phantom not uniformly continuous)")
    else:
        bound = minimized_sup_error_bound(density.sup_norm, density.modulus_bound, r.m, r.n)
        lines.append(f"sup error bound (minimized over delta): {bound:.6g}"
                     if math.isfinite(bound) else
                     "sup error bound: n/a (the bound overflows double precision)")
    return _image(rec, out / "recon_moments"), lines


def _fbp_image_stage(cfg: RunConfig, rec: ReconGrid, kernel: MollifierSpec | None,
                     truth: np.ndarray) -> Stage:
    """The FBP image of rows smoothed by `kernel` (None: raw rows), and its
    error against the phantom image `truth`."""
    out = Path(cfg.output.directory)
    label = "riesz" if kernel is None else "modified_riesz"
    error = relative_l2_error(rec, truth)  # inf: a finite image over a phantom image near 0
    return _image(rec, out / "recon_fbp"), [
        f"fbp reconstruction: {out / 'recon_fbp.csv'} filter={label} N={cfg.recon.resolution}",
        f"relative l2 error vs phantom: {error:.6g}" if math.isfinite(error) else
        "relative l2 error vs phantom: n/a (the ratio overflows double precision)"]


def cmd_project(cfg: RunConfig) -> int:
    density = cfg.make_density()
    sino = _simulate(cfg, density, cfg.make_mollifier())
    return _publish(_project_stage(cfg, sino, density,
                                   phantom_image(density, cfg.recon.resolution)))


def cmd_moments(cfg: RunConfig, sino_path: Path) -> int:
    return _publish(_moments_stage(cfg, *_fit(_read_sinogram(sino_path), cfg.moments.K)))


def cmd_reconstruct(cfg: RunConfig, input_path: Path) -> int:
    with open(input_path) as fh:
        head = fh.readline()
    if head.startswith("# moments"):
        table, density = _read_moments(input_path), cfg.make_density()
        stage = _moment_image_stage(cfg, _moment_image(table, cfg), density,
                                    phantom_image(density, cfg.recon.resolution))
    elif head.startswith("# sinogram"):
        sino, density = _read_sinogram(input_path), cfg.make_density()
        stage = _fbp_image_stage(cfg, _fbp_image(sino, cfg), sino.kernel,
                                 phantom_image(density, cfg.recon.resolution))
    else:
        raise FormatError(f"unrecognized input header: {head.strip()!r}")
    return _publish(stage)


def cmd_pipeline(cfg: RunConfig) -> int:
    """The three stages in one process, on the subcommands' own checks and
    stages, so a run that any stage refuses leaves no artifact.  The later
    stages take the sinogram and the moment table as computed, which are
    what `sinogram.csv` and `moments.csv` read back; the phantom is built,
    and evaluated at the pixel centers, once and shared by the stages."""
    r = cfg.recon
    if r.method in ("moments", "both"):  # refuse K < m + n before projecting
        check_orders(cfg.moments.K, r.m, r.n)
    density = cfg.make_density()
    sino = _simulate(cfg, density, cfg.make_mollifier())
    table, diagnostics = _fit(sino, cfg.moments.K)
    moment_image = _moment_image(table, cfg) if r.method in ("moments", "both") else None
    fbp_image = _fbp_image(sino, cfg) if r.method in ("fbp", "both") else None
    truth = phantom_image(density, r.resolution)
    stages = [([], ["== project =="]), _project_stage(cfg, sino, density, truth),
              ([], ["== moments =="]), _moments_stage(cfg, table, diagnostics),
              ([], ["== reconstruct =="])]
    if moment_image is not None:
        stages.append(_moment_image_stage(cfg, moment_image, density, truth))
    if fbp_image is not None:
        stages.append(_fbp_image_stage(cfg, fbp_image, sino.kernel, truth))
    return _publish(*stages)


def cmd_selftest() -> int:
    try:
        import pytest
    except ImportError:
        print("selftest requires pytest", file=sys.stderr)
        return 1
    for base in (Path.cwd(), *Path(__file__).resolve().parents):
        candidate = base / "tests" / "test_acceptance.py"
        if candidate.exists():
            return pytest.main([str(candidate), "-v"])
    print("acceptance suite not found (tests/test_acceptance.py)", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentct",
        description="Moment-based density reconstruction from line-integral data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-c", "--config", help="INI run configuration")
        p.add_argument("-o", "--outdir", help="output directory, in place of [output] directory")

    common(sub.add_parser("project", help="simulate sinogram data"))

    p_mom = sub.add_parser("moments", help="recover the moment table")
    common(p_mom)
    p_mom.add_argument("sinogram", nargs="?", help="sinogram CSV (default <outdir>/sinogram.csv)")

    p_rec = sub.add_parser("reconstruct", help="reconstruct the density")
    common(p_rec)
    p_rec.add_argument("input", nargs="?", help="moment or sinogram CSV")

    common(sub.add_parser("pipeline", help="project + moments + reconstruct"))

    sub.add_parser("selftest", help="run the acceptance suite")
    return parser


_EXIT_CODES = (
    (CoverageError, 3),
    ((OrderError, StabilityError), 5),
    ((ValueError, MemoryError, ArithmeticError, OSError), 2),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        return cmd_selftest()
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # see _require_finite
            cfg = _load(args)
            if args.command == "project":
                return cmd_project(cfg)
            if args.command == "moments":
                path = Path(args.sinogram) if args.sinogram else \
                    Path(cfg.output.directory) / "sinogram.csv"
                return cmd_moments(cfg, path)
            if args.command == "reconstruct":
                path = Path(args.input) if args.input else \
                    Path(cfg.output.directory) / "moments.csv"
                return cmd_reconstruct(cfg, path)
            if args.command == "pipeline":
                return cmd_pipeline(cfg)
            raise AssertionError(f"unhandled command {args.command}")
    except Exception as exc:  # mapped diagnostics, no tracebacks for users
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
