"""Command-line front end.

Subcommands mirror the reconstruction procedure: `project` simulates the
measured data, `moments` recovers the moment table, `reconstruct` produces
density images (from moments and/or by filtered backprojection), `pipeline`
runs all three in one process, and `selftest` executes the acceptance
suite.

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
    check_orders,
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
from .moment_recovery import recover_moment_table, solve_angles
from .phantoms import MomentTable
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


def _project(cfg: RunConfig) -> Sinogram:
    """Simulate the data, write its artifacts, and return the sinogram as
    `sinogram.csv` records it."""
    out = _outdir(cfg)
    density = cfg.make_density()
    angles = cfg.make_angle_grid()
    offsets = cfg.make_offset_grid()
    sino = project(density, angles, offsets)
    if cfg.noise.sigma > 0:
        sino = add_noise(sino, cfg.noise.sigma, cfg.noise.seed)
    kernel = cfg.make_mollifier()
    if kernel is not None:
        sino = mollify(sino, kernel)
    # the PGM first: `write_pgm` refuses a non-finite sinogram before any
    # artifact exists
    fileio.write_pgm(sino.values, out / "sinogram.pgm")
    path = out / "sinogram.csv"
    stored = fileio.write_sinogram(sino, path)
    n = cfg.recon.resolution
    xs = (np.arange(n) + 0.5) / n
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    fileio.write_pgm(np.asarray(density.evaluate(xx, yy), dtype=float),
                     out / "phantom.pgm")
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
    return stored


def cmd_project(cfg: RunConfig) -> int:
    _project(cfg)
    return 0


def _require_finite(values, path) -> None:
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: non-finite values in the input")


def _read_sinogram(path: Path) -> Sinogram:
    sino = fileio.read_sinogram(path)
    _require_finite(sino.values, path)
    return sino


def _read_moments(path: Path) -> MomentTable:
    table = fileio.read_moments(path)
    _require_finite(list(table.values.values()), path)
    return table


def _moments(cfg: RunConfig, sino: Sinogram) -> MomentTable:
    kernel = cfg.make_mollifier() if sino.kind == "mollified" else None
    diagnostics: dict = {}
    table = recover_moment_table(sino, kernel, cfg.moments.K, diagnostics=diagnostics)
    path = _outdir(cfg) / "moments.csv"
    fileio.write_moments(table, path)
    print(f"moments: {path} K={table.max_order}")
    for k, cond in diagnostics["conditions"]:
        print(f"order {k}: condition estimate {cond:.3e}")
    return table


def cmd_moments(cfg: RunConfig, sino_path: Path) -> int:
    _moments(cfg, _read_sinogram(sino_path))
    return 0


def _write_image(rec: ReconGrid, stem: Path) -> None:
    """Write `<stem>.csv` and `<stem>.pgm`, or neither.

    The PGM goes first: `write_pgm` refuses a NaN, inf or overflowing image
    before it writes anything, so a refused image leaves no CSV behind, and
    no output directory if this would have created it.
    """
    fileio.write_pgm(rec.values, stem.with_suffix(".pgm"))
    fileio.write_recon_csv(rec, stem.with_suffix(".csv"))


def _reconstruct_moments(cfg: RunConfig, table: MomentTable) -> None:
    density = cfg.make_density()
    rec = reconstruct_grid(table, cfg.recon.m, cfg.recon.n, cfg.recon.resolution)
    out = _outdir(cfg)
    _write_image(rec, out / "recon_moments")
    err = sup_error(rec, density)
    print(f"moment reconstruction: {out / 'recon_moments.csv'} "
          f"orders=({cfg.recon.m},{cfg.recon.n}) N={cfg.recon.resolution}")
    print(f"sup error vs phantom: {err:.6f}")
    try:
        bound = minimized_sup_error_bound(
            density.sup_norm, density.modulus_bound, cfg.recon.m, cfg.recon.n
        )
        print(f"sup error bound (minimized over delta): {bound:.6f}")
    except CapabilityError:
        print("sup error bound: n/a (phantom not uniformly continuous)")


def _reconstruct_fbp(cfg: RunConfig, sino: Sinogram) -> None:
    density = cfg.make_density()
    kernel = cfg.make_mollifier() if sino.kind == "mollified" else None
    rec = fbp_reconstruct(sino, kernel, cfg.recon.resolution)
    out = _outdir(cfg)
    _write_image(rec, out / "recon_fbp")
    label = "riesz" if kernel is None else "modified_riesz"
    print(f"fbp reconstruction: {out / 'recon_fbp.csv'} "
          f"filter={label} N={cfg.recon.resolution}")
    print(f"relative l2 error vs phantom: {relative_l2_error(rec, density):.6f}")


def cmd_reconstruct(cfg: RunConfig, input_path: Path) -> int:
    with open(input_path) as fh:
        head = fh.readline()
    if head.startswith("# moments"):
        _reconstruct_moments(cfg, _read_moments(input_path))
    elif head.startswith("# sinogram"):
        _reconstruct_fbp(cfg, _read_sinogram(input_path))
    else:
        raise FormatError(f"unrecognized input header: {head.strip()!r}")
    return 0


def _check_pipeline(cfg: RunConfig) -> None:
    """Raise before any artifact what a later stage would raise on the config
    alone: too few rows for K (exit 2), K < m + n (exit 5).  The subcommands
    read files whose grid and K the config does not decide."""
    angles = cfg.make_angle_grid()
    # the moment stage fits the rows of the grid as sinogram.csv records it
    solve_angles(fileio.recorded_grid(angles.start, angles.spacing, angles.count),
                 cfg.moments.K)
    if cfg.recon.method in ("moments", "both"):
        check_orders(cfg.moments.K, cfg.recon.m, cfg.recon.n)


def cmd_pipeline(cfg: RunConfig) -> int:
    """The three stages in one process.  The sinogram and the moment table
    pass between stages in memory, exactly as their files record them, so
    nothing written is parsed back."""
    _check_pipeline(cfg)
    out = _outdir(cfg)
    print("== project ==")
    sino = _project(cfg)
    print("== moments ==")
    table = _moments(cfg, sino)
    print("== reconstruct ==")
    if cfg.recon.method in ("moments", "both"):
        _require_finite(list(table.values.values()), out / "moments.csv")
        _reconstruct_moments(cfg, table)
    if cfg.recon.method in ("fbp", "both"):
        _reconstruct_fbp(cfg, sino)
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
