"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 passes because each moment order is a least-squares fit over
all 256 recorded rows: a single kinked raw row's trapezoid offset moments
at 1024 cells are off by ~2e-5 (uniform) and ~2e-4 (4 x1 x2), and the fit
averages that error down to ~8e-7 and ~3e-6.

Criterion 9 encodes a tolerance below what double precision can support
and fails with its measured numbers reported: the alternating moment sum
cancels ~16 decimal digits at orders (16, 16) and ~32 at (32, 32), so no
moment recovered from a double-precision sinogram can feed it.  At (8, 8)
the sup error is ~0.08 (uniform); at (16, 16) and (32, 32) it grows to
~1e6 and ~1e22.
"""

import filecmp
import math
import time
from pathlib import Path

import numpy as np
import pytest

from momentct.density_recon import (
    minimized_sup_error_bound,
    phantom_image,
    reconstruct_grid,
    sup_error,
)
from momentct.mollifiers import make_kernel
from momentct.moment_recovery import (
    AngularMomentSet,
    angular_moments,
    assemble_moment_matrix,
    deconvolve_moments,
    recover_moment_table,
)
from momentct.phantoms import (
    DiskDensity,
    MomentTable,
    PolynomialDensity,
    SumOfDisksDensity,
    UniformDensity,
)
from momentct.projector import (
    add_noise,
    evenness_residual,
    full_circle_grid,
    half_circle_grid,
    l1_norm,
    moment_angle_grid,
    mollify,
    offset_grid,
    project,
)
from momentct.spectral import fbp_reconstruct
from oracles import (
    convolve_moments,
    fourier_of_kernel,
    projection_slice_residual,
    synthesize_angular_moments,
    vandermonde_det_formula,
)

UNIFORM = UniformDensity()
POLY = PolynomialDensity.from_dict({(1, 1): 4.0})
DISK = DiskDensity.unit_mass(center=(0.5, 0.5), radius=0.25)
TWO_DISKS = SumOfDisksDensity(disks=(
    DiskDensity(center=(0.3, 0.35), radius=0.15, amplitude=0.5 / (math.pi * 0.15**2)),
    DiskDensity(center=(0.65, 0.6), radius=0.2, amplitude=0.5 / (math.pi * 0.2**2)),
))
SQRT_2PI = math.sqrt(2.0 * math.pi)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_c01_moment_recovery_exactness():
    t0 = time.time()
    worst = {}
    for name, density in (("uniform", UNIFORM), ("4x1x2", POLY)):
        sino = project(density, moment_angle_grid(256), offset_grid(1024))
        table = recover_moment_table(sino, 6)
        worst[name] = max(
            abs(v - density.moment(a, b)) for (a, b), v in table.values.items()
        )
    elapsed = time.time() - t0
    ok = all(w <= 1e-5 for w in worst.values()) and elapsed < 30.0
    report(1, ok,
           f"max moment errors uniform={worst['uniform']:.2e}, "
           f"4x1x2={worst['4x1x2']:.2e} (tol 1e-5), runtime {elapsed:.1f}s")


def test_c02_deconvolution_is_algebraic_inverse():
    rng = np.random.default_rng(20240811)
    kernel = make_kernel("bump", 0.1)
    worst = 0.0
    for _ in range(50):
        K = int(rng.integers(1, 9))
        angles = np.sort(rng.uniform(0.1, math.pi - 0.1, K + 1))
        values = rng.uniform(-3.0, 3.0, size=(K + 1, K + 1))
        ams = AngularMomentSet(angles, values)
        back = deconvolve_moments(convolve_moments(ams, kernel))
        worst = max(worst, float(np.max(np.abs(back.values - values))))
    report(2, worst <= 1e-12, f"roundtrip error {worst:.2e} (tol 1e-12)")


def test_c03_end_to_end_mollified_pipeline():
    t0 = time.time()
    kernel = make_kernel("bump", 0.05)
    sino = project(UNIFORM, moment_angle_grid(256), offset_grid(1024))

    table = recover_moment_table(mollify(sino, kernel), 4)
    clean_err = max(
        abs(v - UNIFORM.moment(a, b)) for (a, b), v in table.values.items()
    )

    noisy = mollify(add_noise(sino, 0.01, seed=1), kernel)
    noisy_table = recover_moment_table(noisy, 2)
    noisy_err = max(
        abs(v - UNIFORM.moment(a, b)) for (a, b), v in noisy_table.values.items()
    )
    elapsed = time.time() - t0
    ok = clean_err <= 1e-4 and noisy_err <= 5e-3 and elapsed < 60.0
    report(3, ok,
           f"noiseless K=4 err {clean_err:.2e} (tol 1e-4), "
           f"sigma=0.01 K<=2 err {noisy_err:.2e} (tol 5e-3), runtime {elapsed:.1f}s")


def test_c04_l1_norm_bounds():
    kernel = make_kernel("bump", 0.05)
    worst_ratio = 0.0
    for density in (UNIFORM, POLY, DISK, TWO_DISKS):
        sino = project(density, full_circle_grid(64), offset_grid(513))
        bound = 2.0 * math.pi * density.mass * 1.001
        worst_ratio = max(worst_ratio, l1_norm(sino) / bound)
        worst_ratio = max(worst_ratio, l1_norm(mollify(sino, kernel)) / bound)
    report(4, worst_ratio <= 1.0,
           f"max l1 / (2 pi mass * 1.001) = {worst_ratio:.6f} over raw+mollified")


def test_c05_evenness_and_homogeneity():
    even_worst = max(
        evenness_residual(project(d, full_circle_grid(64), offset_grid(513)))
        for d in (UNIFORM, DISK)
    )
    range_worst = 0.0
    held_out = np.array([0.45, 1.234, 2.05, 2.8])
    for density in (UNIFORM, POLY):
        sino = project(density, moment_angle_grid(64), offset_grid(2049))
        table = recover_moment_table(sino, 4)
        measured = angular_moments(sino, 4, held_out)
        predicted = synthesize_angular_moments(table, measured.angles, 4)
        range_worst = max(range_worst, float(np.max(np.abs(predicted - measured.values))))
    ok = even_worst <= 1e-6 and range_worst <= 1e-4
    report(5, ok, f"evenness residual {even_worst:.2e} (tol 1e-6), "
                  f"held-out range residual {range_worst:.2e} (tol 1e-4)")


def test_c06_convolution_theorem():
    kernel = make_kernel("bump", 0.05)
    sino = project(DISK, moment_angle_grid(16), offset_grid(1025))
    mol = mollify(sino, kernel)
    h = sino.offset_grid.spacing
    freqs = 2.0 * math.pi * np.fft.fftfreq(1025, d=h)
    transfer = SQRT_2PI * np.asarray(fourier_of_kernel(kernel, freqs))
    worst = 0.0
    for i in range(sino.values.shape[0]):
        raw_spec = np.fft.fft(sino.values[i])
        mol_spec = np.fft.fft(mol.values[i])
        band = (np.abs(transfer) >= 0.02) & \
               (np.abs(raw_spec) >= 1e-3 * np.abs(raw_spec).max())
        rel = np.abs(mol_spec[band] - raw_spec[band] * transfer[band]) \
            / np.abs(raw_spec[band] * transfer[band])
        worst = max(worst, float(np.max(rel)))
    report(6, worst <= 1e-3,
           f"per-angle spectral identity relative error {worst:.2e} (tol 1e-3)")


def test_c07_projection_slice():
    sino = project(UNIFORM, moment_angle_grid(32), offset_grid(1025))
    worst = max(
        projection_slice_residual(UNIFORM, sino, theta, [0.0, 1.0, 2.0, 4.0])
        for theta in (0.6, 1.5, 2.4)
    )
    mass_res = projection_slice_residual(UNIFORM, sino, 1.0, [0.0])
    ok = worst <= 1e-3 and mass_res <= 1e-6
    report(7, ok, f"slice residual {worst:.2e} (tol 1e-3), "
                  f"zero-frequency mass residual {mass_res:.2e} (tol 1e-6)")


def test_c08_convergence_with_exact_moments():
    orders = (4, 8, 16, 32)
    ok = True
    details = []
    for name, density, sup_norm in (("uniform", UNIFORM, 1.0), ("4x1x2", POLY, 4.0)):
        table = MomentTable.from_density(density, 64, exact=True)
        errors = []
        for m in orders:
            err = sup_error(reconstruct_grid(table, m, m, 16), phantom_image(density, 16))
            bound = minimized_sup_error_bound(sup_norm, density.modulus_bound, m, m)
            ok = ok and err <= bound
            errors.append(err)
        for prev, nxt in zip(errors, errors[1:]):
            ok = ok and nxt <= 1.1 * prev + 1e-12
        details.append(f"{name}: " + "->".join(f"{e:.2e}" for e in errors))
    report(8, ok, "; ".join(details) + " (non-increasing within 10%, under bound)")


def test_c09_convergence_with_recovered_moments():
    kernel_orders = (8, 16, 32)
    ok = True
    details = []
    for name, density in (("uniform", UNIFORM), ("4x1x2", POLY)):
        sino = project(density, moment_angle_grid(256), offset_grid(2049))
        errors = []
        for m in kernel_orders:
            kernel = make_kernel("bump", 1.0 / m)
            table = recover_moment_table(
                mollify(sino, kernel), 2 * m
            )
            errors.append(sup_error(reconstruct_grid(table, m, m, 16),
                                    phantom_image(density, 16)))
        for prev, nxt in zip(errors, errors[1:]):
            ok = ok and nxt <= 1.1 * prev
        details.append(f"{name}: " + "->".join(f"{e:.2e}" for e in errors))
    report(9, ok, "; ".join(details) + " (decreasing within 10% slack)")


def test_c10_fbp_paths():
    t0 = time.time()
    sino = project(DISK, half_circle_grid(180), offset_grid(512))
    rec_raw = fbp_reconstruct(sino, 128)
    xs = (np.arange(128) + 0.5) / 128
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    truth = np.asarray(DISK.evaluate(xx, yy))
    rel_raw = float(np.linalg.norm(rec_raw.values - truth) / np.linalg.norm(truth))

    kernel = make_kernel("bump", 0.02)
    rec_mod = fbp_reconstruct(mollify(sino, kernel), 128)
    rel_paths = float(
        np.linalg.norm(rec_mod.values - rec_raw.values) / np.linalg.norm(rec_raw.values)
    )
    elapsed = time.time() - t0
    ok = rel_raw <= 0.15 and rel_paths <= 0.05 and elapsed < 120.0
    report(10, ok, f"raw-path relative L2 {rel_raw:.4f} (tol 0.15), "
                   f"modified vs raw {rel_paths:.2e} (tol 0.05), runtime {elapsed:.1f}s")


def test_c11_determinant_factorization():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 7))
        while True:
            th = np.sort(rng.uniform(0.05, math.pi - 0.05, k + 1))
            if np.min(np.diff(th)) > 1e-3:
                break
        direct = float(np.linalg.det(assemble_moment_matrix(th, k)))
        formula = vandermonde_det_formula(th, k)
        worst = max(worst, abs(direct - formula) / abs(formula))
    report(11, worst <= 1e-8, f"det factorization relative error {worst:.2e} over "
                              f"100 random angle sets, k <= 6")


def test_c12_reproducibility(tmp_path):
    from momentct.cli import main

    demo = Path(__file__).resolve().parents[1] / "configs" / "uniform_demo.ini"
    runs = []
    for tag in ("a", "b"):
        outdir = tmp_path / tag
        assert main(["pipeline", "-c", str(demo), "-o", str(outdir)]) == 0
        runs.append(outdir)
    names = sorted(p.name for p in runs[0].iterdir())
    identical = all(
        filecmp.cmp(runs[0] / n, runs[1] / n, shallow=False) for n in names
    )
    report(12, identical and len(names) >= 6,
           f"two seeded pipeline runs byte-identical across {len(names)} artifacts")
