"""Command-line front end.

Subcommands mirror the reconstruction procedure: `project` simulates the
measured data, `moments` recovers the moment table, `reconstruct` produces
density images (from moments and/or by filtered backprojection), `pipeline`
computes all three in one process before it writes anything, and
`selftest` executes the acceptance suite.  Only `project` and `pipeline`
read `[mollifier]`; the inverses take the kernel that a smoothed
`sinogram.csv` records.

Exit codes: 0 success, 2 invalid configuration/input, 3 coverage error,
4 singular system, 5 insufficient moment order or stability cap.
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
    minimized_sup_error_bound,
    reconstruct_grid,
    relative_l2_error,
    sup_error,
)
from .errors import (
    CapabilityError,
    CoverageError,
    FormatError,
    OrderError,
    SingularSystemError,
    StabilityError,
)
from .mollifiers import MollifierSpec
from .moment_recovery import recover_moment_table
from .phantoms import Density, MomentTable
from .projector import (
    Sinogram,
    add_noise,
    angle_coverage,
    antipodal_half,
    evenness_residual,
    l1_norm,
    mollify,
    project,
)
from .spectral import fbp_reconstruct


def _load(args) -> RunConfig:
    """The validated config file (defaults without one), with `-o` in place
    of its output directory when given."""
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.outdir:
        cfg = replace(cfg, output=replace(cfg.output, directory=args.outdir))
    return cfg


def _outdir(cfg: RunConfig) -> Path:
    """The output directory.  The first artifact written into it creates it,
    so a run refused before its first artifact leaves no directory behind."""
    return Path(cfg.output.directory)


def _simulate(cfg: RunConfig, density: Density, kernel: MollifierSpec | None) -> Sinogram:
    """The phantom's data on the config's grids, with noise when sigma > 0,
    smoothed by the kernel when there is one."""
    sino = project(density, cfg.make_angle_grid(), cfg.make_offset_grid())
    if cfg.noise.sigma > 0:
        sino = add_noise(sino, cfg.noise.sigma, cfg.noise.seed)
    if kernel is not None:
        sino = mollify(sino, kernel)
    return sino


def _write_projection(cfg: RunConfig, sino: Sinogram, density: Density) -> None:
    """Write the sinogram and phantom artifacts and print the data checks."""
    out = _outdir(cfg)
    # the PGM first: `write_pgm` refuses a non-finite sinogram before any
    # artifact exists
    fileio.write_pgm(sino.values, out / "sinogram.pgm")
    path = out / "sinogram.csv"
    fileio.write_sinogram(sino, path)
    n = cfg.recon.resolution
    xs = (np.arange(n) + 0.5) / n
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    fileio.write_pgm(np.asarray(density.evaluate(xx, yy), dtype=float),
                     out / "phantom.pgm")
    angles, offsets = sino.angle_grid, sino.offset_grid
    # the angular span l1_norm integrates over: the whole turn on full-turn
    # grids (periodic closure), the sampled span otherwise
    full = angle_coverage(angles) == "full"
    span = 2.0 * math.pi if full else angles.stop - angles.start
    print(f"sinogram: {path} kind={sino.kind} "
          f"({angles.count} angles x {offsets.count} offsets)")
    print(f"l1 norm: {l1_norm(sino):.6f} (mass * angle span = {density.mass * span:.6f})")
    if antipodal_half(angles, offsets) is not None:
        print(f"evenness residual: {evenness_residual(sino):.3e}")
    else:
        print("evenness residual: n/a (needs a full-turn angle grid)")


def cmd_project(cfg: RunConfig) -> int:
    density = cfg.make_density()
    _write_projection(cfg, _simulate(cfg, density, cfg.make_mollifier()), density)
    return 0


def _require_finite(values, message: str) -> None:
    """Refuse NaN and inf: in a file read, or in a result not yet written."""
    if not np.all(np.isfinite(values)):
        raise ValueError(message)


def _read_sinogram(path: Path) -> Sinogram:
    sino = fileio.read_sinogram(path)
    _require_finite(sino.values, f"{path}: non-finite values in the input")
    return sino


def _read_moments(path: Path) -> MomentTable:
    table = fileio.read_moments(path)
    _require_finite(list(table.values.values()), f"{path}: non-finite values in the input")
    return table


def _write_moments(cfg: RunConfig, table: MomentTable, diagnostics: dict) -> None:
    """Write the moment table and print each order's condition estimate."""
    path = _outdir(cfg) / "moments.csv"
    fileio.write_moments(table, path)
    print(f"moments: {path} K={table.max_order}")
    for k, cond in diagnostics["conditions"]:
        print(f"order {k}: condition estimate {cond:.3e}")


def cmd_moments(cfg: RunConfig, sino_path: Path) -> int:
    diagnostics: dict = {}
    table = recover_moment_table(_read_sinogram(sino_path), cfg.moments.K,
                                 diagnostics=diagnostics)
    _write_moments(cfg, table, diagnostics)
    return 0


def _write_image(rec: ReconGrid, stem: Path) -> None:
    """Write `<stem>.csv` and `<stem>.pgm`, or neither.

    The PGM goes first: `write_pgm` refuses a NaN, inf or overflowing image
    before it writes anything, so a refused image leaves no CSV behind, and
    no output directory if this would have created it.
    """
    fileio.write_pgm(rec.values, stem.with_suffix(".pgm"))
    fileio.write_recon_csv(rec, stem.with_suffix(".csv"))


def _write_moment_image(cfg: RunConfig, rec: ReconGrid, density: Density) -> None:
    """Write the moment image and print its error against the phantom."""
    out = _outdir(cfg)
    _write_image(rec, out / "recon_moments")
    err = sup_error(rec, density)
    print(f"moment reconstruction: {out / 'recon_moments.csv'} "
          f"orders=({cfg.recon.m},{cfg.recon.n}) N={cfg.recon.resolution}")
    print(f"sup error vs phantom: {err:.6f}")
    try:
        density.modulus_bound(0.0)  # before the sup norm, which may cost a grid evaluation
    except CapabilityError:
        print("sup error bound: n/a (phantom not uniformly continuous)")
        return
    bound = minimized_sup_error_bound(
        density.sup_norm, density.modulus_bound, cfg.recon.m, cfg.recon.n
    )
    print(f"sup error bound (minimized over delta): {bound:.6f}")


def _write_fbp_image(cfg: RunConfig, rec: ReconGrid, kernel: MollifierSpec | None,
                     density: Density) -> None:
    """Write the FBP image of rows smoothed by `kernel` (None: raw rows)
    and print its error against the phantom."""
    out = _outdir(cfg)
    _write_image(rec, out / "recon_fbp")
    label = "riesz" if kernel is None else "modified_riesz"
    print(f"fbp reconstruction: {out / 'recon_fbp.csv'} "
          f"filter={label} N={cfg.recon.resolution}")
    print(f"relative l2 error vs phantom: {relative_l2_error(rec, density):.6f}")


def cmd_reconstruct(cfg: RunConfig, input_path: Path) -> int:
    with open(input_path) as fh:
        head = fh.readline()
    r = cfg.recon
    if head.startswith("# moments"):
        table, density = _read_moments(input_path), cfg.make_density()
        _write_moment_image(cfg, reconstruct_grid(table, r.m, r.n, r.resolution), density)
    elif head.startswith("# sinogram"):
        sino, density = _read_sinogram(input_path), cfg.make_density()
        _write_fbp_image(cfg, fbp_reconstruct(sino, r.resolution), sino.kernel, density)
    else:
        raise FormatError(f"unrecognized input header: {head.strip()!r}")
    return 0


def cmd_pipeline(cfg: RunConfig) -> int:
    """The three stages in one process, all computed before anything is
    written, so a run that any stage refuses leaves no artifact.  The later
    stages run on the sinogram as `sinogram.csv` records it, kernel
    included, and on the moment table as computed, so nothing written is
    parsed back; the phantom is built once and shared by the stages."""
    density = cfg.make_density()
    sino = _simulate(cfg, density, cfg.make_mollifier())
    _require_finite(sino.values, "the computed sinogram has non-finite values")
    stored = fileio.recorded(sino)
    diagnostics: dict = {}
    table = recover_moment_table(stored, cfg.moments.K, diagnostics=diagnostics)
    _require_finite(list(table.values.values()),
                    "the computed moment table has non-finite values")
    r = cfg.recon
    moment_image = fbp_image = None
    if r.method in ("moments", "both"):
        moment_image = reconstruct_grid(table, r.m, r.n, r.resolution)
        _require_finite(moment_image.values, "the computed moment image has non-finite values")
    if r.method in ("fbp", "both"):
        fbp_image = fbp_reconstruct(stored, r.resolution)
        _require_finite(fbp_image.values, "the computed FBP image has non-finite values")

    print("== project ==")
    _write_projection(cfg, sino, density)
    print("== moments ==")
    _write_moments(cfg, table, diagnostics)
    print("== reconstruct ==")
    if moment_image is not None:
        _write_moment_image(cfg, moment_image, density)
    if fbp_image is not None:
        _write_fbp_image(cfg, fbp_image, stored.kernel, density)
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
    (SingularSystemError, 4),
    ((OrderError, StabilityError), 5),
    (ValueError, 2),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        return cmd_selftest()
    try:
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
