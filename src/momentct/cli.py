"""Command-line front end.

Subcommands mirror the reconstruction procedure: `project` simulates the
measured data, `moments` recovers the moment table, `reconstruct` produces
density images (from moments and/or by filtered backprojection), `pipeline`
computes all three in one process before it writes anything, and
`selftest` executes the acceptance suite.  Only `project` and `pipeline`
read `[mollifier]`; the inverses take the kernel that a smoothed
`sinogram.csv` records.

Exit codes: 0 success, 2 invalid configuration/input, grids too large to
allocate or arithmetic past the float range, 3 coverage error, 5
insufficient moment order or stability cap.
"""

from __future__ import annotations

import argparse
import math
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
    antipodal_half,
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


def _simulate(cfg: RunConfig, density: Density, kernel: MollifierSpec | None) -> Sinogram:
    """The phantom's data on the config's grids, with noise when sigma > 0,
    smoothed by the kernel when there is one."""
    sino = project(density, cfg.make_angle_grid(), cfg.make_offset_grid())
    if cfg.noise.sigma > 0:
        sino = add_noise(sino, cfg.noise.sigma, cfg.noise.seed)
    if kernel is not None:
        sino = mollify(sino, kernel)
    return sino


def _write_projection(cfg: RunConfig, sino: Sinogram, density: Density,
                      truth: np.ndarray) -> None:
    """Write the sinogram and the phantom image `truth` (`phantom_image`)
    and print the data checks."""
    out = Path(cfg.output.directory)
    # the PGM first: `write_pgm` refuses a non-finite sinogram before any
    # artifact exists
    fileio.write_pgm(sino.values, out / "sinogram.pgm")
    path = out / "sinogram.csv"
    fileio.write_sinogram(sino, path)
    fileio.write_pgm(truth, out / "phantom.pgm")
    angles, offsets = sino.angle_grid, sino.offset_grid
    print(f"sinogram: {path} kind={sino.kind} "
          f"({angles.count} angles x {offsets.count} offsets)")
    l1, mass = l1_norm(sino), 2.0 * math.pi * density.mass
    if math.isfinite(l1) and math.isfinite(mass):
        print(f"l1 norm: {l1:.6g} (2 pi mass = {mass:.6g})")
    else:  # rows or a phantom near the top of the float range
        print("l1 norm: n/a (the integral overflows double precision)")
    if antipodal_half(angles, offsets) is not None:
        print(f"evenness residual: {evenness_residual(sino):.3e}")
    else:
        print("evenness residual: n/a (needs a full-turn angle grid)")


def cmd_project(cfg: RunConfig) -> int:
    density = cfg.make_density()
    sino = _simulate(cfg, density, cfg.make_mollifier())
    _write_projection(cfg, sino, density, phantom_image(density, cfg.recon.resolution))
    return 0


def _require_finite(values, message: str) -> None:
    """Refuse NaN and inf: in a file read, or in a result not yet written."""
    if not np.all(np.isfinite(values)):
        raise ValueError(message)


def _read_sinogram(path: Path) -> Sinogram:
    sino = fileio.read_sinogram(path)
    _require_finite(sino.values, f"{path}: non-finite values in the input")
    require_coverage(sino.offset_grid, sino.kernel.epsilon if sino.kernel else 0.0)
    return sino


def _read_moments(path: Path) -> MomentTable:
    table = fileio.read_moments(path)
    _require_finite(list(table.values.values()), f"{path}: non-finite values in the input")
    return table


def _write_moments(cfg: RunConfig, table: MomentTable, diagnostics: dict) -> None:
    """Write the moment table and print each order's condition estimate."""
    path = Path(cfg.output.directory) / "moments.csv"
    fileio.write_moments(table, path)
    print(f"moments: {path} K={table.max_order}")
    for k, cond in diagnostics["conditions"]:
        print(f"order {k}: condition estimate {cond:.3e}")


def _fit(sino: Sinogram, K: int) -> tuple[MomentTable, dict]:
    """The moment table to order K and its diagnostics; a table with NaN or
    inf is refused before it is written."""
    diagnostics: dict = {}
    table = recover_moment_table(sino, K, diagnostics=diagnostics)
    _require_finite(list(table.values.values()),
                    "the computed moment table has non-finite values")
    return table, diagnostics


def cmd_moments(cfg: RunConfig, sino_path: Path) -> int:
    _write_moments(cfg, *_fit(_read_sinogram(sino_path), cfg.moments.K))
    return 0


def _write_image(rec: ReconGrid, stem: Path) -> None:
    """Write `<stem>.csv` and `<stem>.pgm`, or neither.

    The PGM goes first: `write_pgm` refuses a NaN, inf or overflowing image
    before it writes anything, so a refused image leaves no CSV behind, and
    no output directory if this would have created it.
    """
    fileio.write_pgm(rec.values, stem.with_suffix(".pgm"))
    fileio.write_recon_csv(rec, stem.with_suffix(".csv"))


def _write_moment_image(cfg: RunConfig, rec: ReconGrid, density: Density,
                        truth: np.ndarray) -> None:
    """Write the moment image and print its error against the phantom
    image `truth`, and the phantom's error bound."""
    out = Path(cfg.output.directory)
    _write_image(rec, out / "recon_moments")
    err = sup_error(rec, truth)
    print(f"moment reconstruction: {out / 'recon_moments.csv'} "
          f"orders=({cfg.recon.m},{cfg.recon.n}) N={cfg.recon.resolution}")
    print(f"sup error vs phantom: {err:.6g}")
    try:
        density.modulus_bound(0.0)  # before the sup norm, which may cost a grid evaluation
    except CapabilityError:
        print("sup error bound: n/a (phantom not uniformly continuous)")
        return
    bound = minimized_sup_error_bound(
        density.sup_norm, density.modulus_bound, cfg.recon.m, cfg.recon.n
    )
    if not math.isfinite(bound):
        print("sup error bound: n/a (the bound overflows double precision)")
        return
    print(f"sup error bound (minimized over delta): {bound:.6g}")


def _write_fbp_image(cfg: RunConfig, rec: ReconGrid, kernel: MollifierSpec | None,
                     truth: np.ndarray) -> None:
    """Write the FBP image of rows smoothed by `kernel` (None: raw rows)
    and print its error against the phantom image `truth`."""
    out = Path(cfg.output.directory)
    _write_image(rec, out / "recon_fbp")
    label = "riesz" if kernel is None else "modified_riesz"
    print(f"fbp reconstruction: {out / 'recon_fbp.csv'} "
          f"filter={label} N={cfg.recon.resolution}")
    error = relative_l2_error(rec, truth)
    if not math.isfinite(error):  # a finite image over a phantom image near 0
        print("relative l2 error vs phantom: n/a (the ratio overflows double precision)")
        return
    print(f"relative l2 error vs phantom: {error:.6g}")


def cmd_reconstruct(cfg: RunConfig, input_path: Path) -> int:
    with open(input_path) as fh:
        head = fh.readline()
    r = cfg.recon
    if head.startswith("# moments"):
        table, density = _read_moments(input_path), cfg.make_density()
        rec = reconstruct_grid(table, r.m, r.n, r.resolution)
        _write_moment_image(cfg, rec, density, phantom_image(density, r.resolution))
    elif head.startswith("# sinogram"):
        sino, density = _read_sinogram(input_path), cfg.make_density()
        rec = fbp_reconstruct(sino, r.resolution)
        _write_fbp_image(cfg, rec, sino.kernel, phantom_image(density, r.resolution))
    else:
        raise FormatError(f"unrecognized input header: {head.strip()!r}")
    return 0


def cmd_pipeline(cfg: RunConfig) -> int:
    """The three stages in one process, all computed before anything is
    written, so a run that any stage refuses leaves no artifact.  The later
    stages run on the sinogram and the moment table as computed, which are
    what `sinogram.csv` and `moments.csv` read back, so nothing written is
    parsed back; the phantom is built, and evaluated at the pixel centers,
    once and shared by the stages."""
    r = cfg.recon
    if r.method in ("moments", "both"):  # refuse K < m + n before projecting
        check_orders(cfg.moments.K, r.m, r.n)
    density = cfg.make_density()
    sino = _simulate(cfg, density, cfg.make_mollifier())
    _require_finite(sino.values, "the computed sinogram has non-finite values")
    table, diagnostics = _fit(sino, cfg.moments.K)
    moment_image = fbp_image = None
    if r.method in ("moments", "both"):
        moment_image = reconstruct_grid(table, r.m, r.n, r.resolution)
        _require_finite(moment_image.values, "the computed moment image has non-finite values")
    if r.method in ("fbp", "both"):
        fbp_image = fbp_reconstruct(sino, r.resolution)
        _require_finite(fbp_image.values, "the computed FBP image has non-finite values")
    truth = phantom_image(density, r.resolution)

    print("== project ==")
    _write_projection(cfg, sino, density, truth)
    print("== moments ==")
    _write_moments(cfg, table, diagnostics)
    print("== reconstruct ==")
    if moment_image is not None:
        _write_moment_image(cfg, moment_image, density, truth)
    if fbp_image is not None:
        _write_fbp_image(cfg, fbp_image, sino.kernel, truth)
    return 0


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
    ((ValueError, MemoryError, ArithmeticError), 2),
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # mapped diagnostics, no tracebacks for users
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
