#!/usr/bin/env python3
"""Sweep the kernel width at a fixed noise level and report moment errors.

The procedure never prescribes how the smoothing width should scale with
the noise; this benchmark surfaces the trade-off empirically.  The
deconvolution inverts the moments of the taps that smoothed the rows, so
without noise every width gives the raw rows' moments to rounding, and
the errors reported here are the noise's: wider kernels suppress
per-sample noise in the rows but leave the moment estimates' variance
essentially unchanged.  A width below two grid cells per half-width makes
`mollify` warn that the kernel is marginally resolved.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

# run from a plain checkout: the repository's src comes first on the import path
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from momentct.mollifiers import make_kernel  # noqa: E402
from momentct.moment_recovery import recover_moment_table  # noqa: E402
from momentct.phantoms import UniformDensity  # noqa: E402
from momentct.projector import (  # noqa: E402
    add_noise, moment_angle_grid, mollify, offset_grid, project,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigma", type=float, default=0.01)
    ap.add_argument("--seeds", type=int, default=8, help="noise draws per width")
    ap.add_argument("--order", type=int, default=4, help="max moment order K")
    ap.add_argument("--angles", type=int, default=128)
    ap.add_argument("--offsets", type=int, default=1024)
    ap.add_argument("--widths", default="0.02,0.05,0.08,0.12,0.16")
    args = ap.parse_args()

    density = UniformDensity()
    sino = project(density, moment_angle_grid(args.angles), offset_grid(args.offsets))
    oracle = {
        (a, b): density.moment(a, b)
        for a in range(args.order + 1) for b in range(args.order + 1 - a)
    }

    print(f"sigma={args.sigma} K={args.order} "
          f"grid={args.angles}x{args.offsets} seeds={args.seeds}")
    print(f"{'eps':>7} {'eps/dp':>7} {'max|err| mean':>14} {'max|err| worst':>15}")
    dp = sino.offset_grid.spacing
    for eps in (float(t) for t in args.widths.split(",")):
        kernel = make_kernel("bump", eps)
        errs = []
        for seed in range(args.seeds):
            noisy = add_noise(sino, args.sigma, seed)
            table = recover_moment_table(mollify(noisy, kernel), args.order)
            errs.append(max(abs(v - oracle[k]) for k, v in table.values.items()))
        print(f"{eps:7.3f} {eps / dp:7.1f} {np.mean(errs):14.3e} {np.max(errs):15.3e}")


if __name__ == "__main__":
    main()
