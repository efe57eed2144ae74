import cmath
import math
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from momentct import projector, spectral
from momentct.errors import CoverageError, MisuseError
from momentct.mollifiers import make_kernel
from momentct.numerics import Grid1D
from momentct.phantoms import DiskDensity, UniformDensity
from momentct.projector import (
    Sinogram,
    add_noise,
    angle_coverage,
    full_circle_grid,
    half_circle_grid,
    moment_angle_grid,
    mollify,
    offset_grid,
    project,
)
from momentct.spectral import (
    CUTOFF_FRACTION,
    _folded_rows,
    _ramp_multiplier,
    apply_filter,
    backproject,
    fbp_reconstruct,
    grid_kernel_transform,
)
from oracles import density_transform_2d, projection_slice_residual, row_transform

UNIFORM = UniformDensity()
DISK = DiskDensity.unit_mass(center=(0.5, 0.5), radius=0.25)


def closed_form_square_transform(x1, x2):
    """(1/2pi) prod_k exp(-i xi_k / 2) sinc(xi_k / 2) for the uniform square."""

    def one(x):
        if abs(x) < 1e-12:
            return 1.0 + 0j
        return cmath.exp(-1j * x / 2) * math.sin(x / 2) / (x / 2)

    return one(x1) * one(x2) / (2.0 * math.pi)


class TestDensityTransform:
    def test_uniform_against_closed_form(self):
        for xi in ((0.0, 0.0), (1.0, 0.0), (2.0, 3.0), (-4.0, 1.5)):
            got = density_transform_2d(UNIFORM, *xi)
            assert got == pytest.approx(closed_form_square_transform(*xi), abs=1e-12)


@pytest.fixture(scope="module")
def uniform_sino():
    return project(UNIFORM, moment_angle_grid(32), offset_grid(1025))


class TestProjectionSlice:
    def test_mass_identity_at_zero_frequency(self, uniform_sino):
        res = projection_slice_residual(UNIFORM, uniform_sino, 1.0, [0.0])
        assert res <= 1e-6
        theta = uniform_sino.angle_grid.points()[10]
        idx = 10
        slice_side = row_transform(uniform_sino, idx, [0.0])[0] / math.sqrt(2 * math.pi)
        assert slice_side.real == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-6)

    def test_low_frequency_residuals(self, uniform_sino):
        for theta in (0.6, 1.5, 2.4):
            res = projection_slice_residual(UNIFORM, uniform_sino, theta, [1.0, 2.0, 4.0])
            assert res <= 1e-3

    def test_zero_density(self):
        zero = Sinogram(moment_angle_grid(8), offset_grid(129), np.zeros((8, 129)), "raw")

        class _Zero(UniformDensity):
            def evaluate(self, x1, x2):
                return np.zeros_like(np.asarray(x1, dtype=float))

        assert projection_slice_residual(_Zero(), zero, 1.0, [0.0, 1.0]) == 0.0

    def test_band_limit(self, uniform_sino):
        nyq = math.pi / uniform_sino.offset_grid.spacing
        with pytest.raises(ValueError):
            row_transform(uniform_sino, 0, [2 * nyq])


class TestApplyFilter:
    def test_constant_row_annihilated(self):
        s = Sinogram(half_circle_grid(4), offset_grid(256), np.ones((4, 256)), "raw")
        out = apply_filter(s)
        assert out.kind == "filtered"
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_filtered_rows_have_zero_mean(self):
        s = project(DISK, half_circle_grid(16), offset_grid(256))
        out = apply_filter(s)
        assert np.max(np.abs(out.values.mean(axis=1))) <= 1e-10

    @pytest.mark.parametrize("k, band", [
        (10, "pass"), (60, "pass"), (97, "taper"), (110, "stop"), (120, "stop"),
    ])
    def test_gain_on_one_frequency_bin(self, k, band):
        # a row on FFT bin k of 256 comes back times the ramp's gain: |w| up
        # to 0.9 of the cutoff (bin 92.16), nothing above it (bin 102.4)
        og = offset_grid(256)
        row = np.cos(2.0 * math.pi * k * np.arange(256) / 256 + 0.3)
        out = apply_filter(Sinogram(half_circle_grid(2), og, np.tile(row, (2, 1)), "raw"))
        omega = 2.0 * math.pi * k / (256 * og.spacing)
        cutoff = CUTOFF_FRACTION * math.pi / og.spacing
        gain = out.values[0] @ row / (row @ row)
        assert np.max(np.abs(out.values - gain * row)) <= 1e-9 * omega
        if band == "pass":
            assert gain == pytest.approx(omega, rel=1e-12)
        elif band == "taper":
            assert 0.9 * cutoff < omega < cutoff
            assert 0.0 < gain < omega
        else:
            assert omega > cutoff
            assert abs(gain) <= 1e-12 * omega

    def test_modified_cancels_smoothing_in_band(self):
        m = make_kernel("bump", 0.05)
        s = project(DISK, half_circle_grid(8), offset_grid(512))
        raw_filtered = apply_filter(s)
        mod_filtered = apply_filter(mollify(s, m))
        scale = np.max(np.abs(raw_filtered.values))
        assert np.max(np.abs(mod_filtered.values - raw_filtered.values)) <= 1e-3 * scale

    def test_taper_covers_the_top_tenth_of_the_band(self):
        freqs = np.linspace(-12.0, 12.0, 2401)
        mult = _ramp_multiplier(freqs, 10.0)
        a = np.abs(freqs)
        assert np.array_equal(mult[a <= 9.0], a[a <= 9.0])
        assert np.all(mult[a > 10.0] == 0.0)
        band = (a > 9.0) & (a <= 10.0)
        window = 0.5 * (1.0 + np.cos(math.pi * (a[band] - 9.0) / 1.0))
        assert np.allclose(mult[band], a[band] * window, rtol=0, atol=1e-12)

    def test_misuse_guards(self):
        s = project(DISK, half_circle_grid(4), offset_grid(128))
        filtered = apply_filter(s)
        for inverse in (apply_filter, lambda rows: fbp_reconstruct(rows, 8)):
            with pytest.raises(MisuseError, match="filtered sinogram"):
                inverse(filtered)  # an inverse's output

    def test_row_blocks_match_one_transform_of_the_grid(self):
        # 43 rows of 1024 offsets: five blocks of 8 rows and one of 3
        s = project(DISK, half_circle_grid(43), offset_grid(1024))
        h = s.offset_grid.spacing
        mult = _ramp_multiplier(2.0 * math.pi * np.fft.fftfreq(1024, d=h),
                                CUTOFF_FRACTION * math.pi / h)
        whole = np.real(np.fft.ifft(np.fft.fft(s.values, axis=1) * mult, axis=1))
        assert np.array_equal(apply_filter(s).values.view(np.uint64), whole.view(np.uint64))

    @pytest.mark.parametrize("rows, cols", [(256, 1024), (512, 2048)])
    def test_traced_peak_is_bounded_by_the_blocks(self, rows, cols):
        # the spectra of the whole grid took 6 and 25 MB beside the output
        values = np.random.default_rng(2).standard_normal((rows, cols))
        s = Sinogram(moment_angle_grid(rows), offset_grid(cols), values, "raw")
        apply_filter(s)  # plan the transforms first
        tracemalloc.start()
        try:
            apply_filter(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes + 1e6  # the output and one block's spectra

    def test_grid_kernel_transform_dc(self):
        m = make_kernel("bump", 0.05)
        t = grid_kernel_transform(m, 0.005, 256)
        assert t[0] == pytest.approx(1.0, abs=1e-14)


class TestBackproject:
    def test_constant_gives_two_pi(self):
        for grid in (full_circle_grid(36), half_circle_grid(18)):
            s = Sinogram(grid, offset_grid(64), np.ones((grid.count, 64)), "filtered")
            rec = backproject(s, 8)
            assert np.allclose(rec.values, 2.0 * math.pi, atol=1e-12)

    def test_linear_offset_averages_to_zero(self):
        grid = full_circle_grid(64)
        ps = offset_grid(128).points()
        s = Sinogram(grid, offset_grid(128), np.tile(ps, (64, 1)), "filtered")
        rec = backproject(s, 8)
        assert np.max(np.abs(rec.values)) <= 1e-12

    def test_single_angle_smears_a_line(self):
        grid = full_circle_grid(32)
        values = np.zeros((32, 129))
        ps = offset_grid(129).points()
        j = int(np.argmin(np.abs(ps - 0.5)))
        values[0, j] = 1.0  # theta = 0: lines x1 = p
        s = Sinogram(grid, offset_grid(129), values, "filtered")
        rec = backproject(s, 33)
        col = np.argmax(rec.values.sum(axis=1))
        xs = (np.arange(33) + 0.5) / 33
        assert abs(xs[col] - 0.5) < 0.05
        # the smeared band is constant along the line direction
        band = rec.values[col]
        assert np.ptp(band) <= 1e-12

    def test_partial_coverage_rejected(self):
        s = Sinogram(Grid1D(0.1, 0.9, 8), offset_grid(64), np.zeros((8, 64)), "filtered")
        with pytest.raises(CoverageError):
            backproject(s, 8)

    @pytest.mark.parametrize("resolution", [0, -1])
    @pytest.mark.parametrize("invert", [backproject, fbp_reconstruct],
                             ids=["backproject", "fbp_reconstruct"])
    def test_resolution_must_be_positive(self, invert, resolution):
        # 0 once divided by zero sizing the bands, -1 made a negative array
        s = Sinogram(half_circle_grid(8), offset_grid(64), np.ones((8, 64)), "raw")
        with pytest.raises(ValueError, match="resolution must be positive"):
            invert(s, resolution)


def backproject_reference(s, resolution):
    """Row-by-row backprojection: every angle interpolated on its own."""
    factor = 1.0 if angle_coverage(s.angle_grid) == "full" else 2.0
    ps = s.offset_grid.points()
    xs = (np.arange(resolution) + 0.5) / resolution
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    acc = np.zeros((resolution, resolution))
    for i, theta in enumerate(s.angle_grid.points()):
        off = X * math.cos(theta) + Y * math.sin(theta)
        acc += np.interp(off, ps, s.values[i], left=0.0, right=0.0)
    return acc * factor * s.angle_grid.spacing


#: "full" by `angle_coverage` (one spacing short of 2 pi), yet row i + 96
#: is not row i's antipode
SHORT_FULL = Grid1D(2 * math.pi / 193, 192 * 2 * math.pi / 193, 192)


def noisy_filtered(angles, offsets):
    s = add_noise(project(DISK, angles, offsets), 0.01, seed=3)
    return apply_filter(s)


@pytest.fixture
def interp_calls(monkeypatch):
    """Counts the np.interp calls backproject makes: one per interpolated row."""
    calls = []
    interp = np.interp

    def counted(*args, **kwargs):
        calls.append(1)
        return interp(*args, **kwargs)

    monkeypatch.setattr(np, "interp", counted)
    return calls


#: a full turn that starts half a spacing past 0: pi/2 - 2 start is still a
#: whole number of spacings, and no row sits at pi/4 or 3pi/4
HALF_SHIFTED = Grid1D(math.pi / 64, math.pi / 64 + 63 * math.pi / 32, 64)


class TestBackprojectFold:
    """On full turns whose rows pair with their antipodes, backproject sums
    each pair before interpolating, and interpolates the folded rows at
    theta and pi/2 - theta together when both are on the grid; elsewhere it
    interpolates every row."""

    def test_folded_full_turn_matches_the_row_by_row_sum(self):
        s = noisy_filtered(full_circle_grid(64), offset_grid(257))
        got = backproject(s, 33).values
        want = backproject_reference(s, 33)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("angles, calls", [
        (full_circle_grid(4), 1),
        (full_circle_grid(8), 3),
        (full_circle_grid(64), 17),
        (full_circle_grid(192), 49),
        (HALF_SHIFTED, 16),
    ], ids=["4", "8", "64", "192", "half_spacing_shift"])
    def test_paired_full_turn_matches_the_row_by_row_sum(self, angles, calls, interp_calls):
        # count // 2 folded rows: those at pi/4 and 3pi/4 alone, the rest in pairs
        s = noisy_filtered(angles, offset_grid(257))
        got = backproject(s, 33).values
        assert len(interp_calls) == calls
        want = backproject_reference(s, 33)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("count", [66, 130])
    def test_folded_turn_without_transpose_partners(self, count, interp_calls):
        # count = 2 (mod 4): pi/2 is count / 4 spacings, not a whole number
        s = noisy_filtered(full_circle_grid(count), offset_grid(257))
        got = backproject(s, 33).values
        assert len(interp_calls) == count // 2
        want = backproject_reference(s, 33)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("grid", [half_circle_grid(48), moment_angle_grid(48)],
                             ids=["half_turn", "open"])
    def test_half_turn_is_bit_identical(self, grid):
        s = noisy_filtered(grid, offset_grid(257))
        assert np.array_equal(backproject(s, 33).values, backproject_reference(s, 33))

    @pytest.mark.parametrize("angles, offsets", [
        (full_circle_grid(63), offset_grid(257)),
        (full_circle_grid(64), Grid1D(-1.6, 1.7, 257)),
        (SHORT_FULL, offset_grid(257)),
    ], ids=["odd_count", "asymmetric_offsets", "one_spacing_short"])
    def test_unpaired_full_turns_are_not_folded(self, angles, offsets, interp_calls):
        s = noisy_filtered(angles, offsets)
        got = backproject(s, 33).values
        assert len(interp_calls) == angles.count
        want = backproject_reference(s, 33)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("angles, calls", [
        (full_circle_grid(192), 49),
        (half_circle_grid(96), 96),
        (moment_angle_grid(128), 128),
    ], ids=["full_turn", "half_turn", "open"])
    def test_interpolated_rows(self, angles, calls, interp_calls):
        s = Sinogram(angles, offset_grid(64), np.ones((angles.count, 64)), "filtered")
        backproject(s, 4)
        assert len(interp_calls) == calls


class TestBackprojectBands:
    """backproject interpolates each row over bands of whole pixel rows;
    each pixel adds the angles in the same order as one call over the
    whole image would."""

    @pytest.mark.parametrize("angles", [
        moment_angle_grid(48), half_circle_grid(48), full_circle_grid(64),
        full_circle_grid(63),
    ], ids=["open", "half", "full_paired_transposed", "full_unpaired"])
    def test_bands_with_a_remainder_are_bit_identical(self, angles, monkeypatch):
        s = noisy_filtered(angles, offset_grid(257))
        whole = backproject(s, 33).values  # one band: 33 rows of 33 pixels
        # bands of 5 rows: six, and one of 3
        monkeypatch.setattr(projector, "_BLOCK_LINES", 5 * 33)
        banded = backproject(s, 33).values
        assert np.array_equal(banded.view(np.uint64), whole.view(np.uint64))

    @pytest.mark.parametrize("angles, images", [
        (full_circle_grid(64), 24 * 256**2), (full_circle_grid(63), 8 * 256**2),
    ], ids=["paired_transposed", "unpaired"])
    def test_traced_peak_is_bounded_by_the_bands(self, angles, images, monkeypatch):
        # images: the accumulator and the image returned, which are one real
        # array on an unpaired turn and a complex one and its real image on a
        # paired turn; offsets and samples over the whole image added 1 to
        # 1.5 MB to them.  Each thread holds one band's, so the bound holds
        # for two threads, whatever the CPUs of the machine.
        monkeypatch.setattr(spectral, "_CPUS", 2)
        s = Sinogram(angles, offset_grid(129),
                     np.random.default_rng(6).standard_normal((angles.count, 129)), "filtered")
        tracemalloc.start()
        try:
            backproject(s, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < images + 0.5e6


@pytest.fixture
def threads_started(monkeypatch):
    """The threads backproject starts, in a list, started as usual."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


class TestBackprojectThreads:
    """An image of several bands is added in contiguous groups of bands, one
    per CPU: the calling thread adds the first, a thread of its own each
    other; each pixel still adds its terms in the order of angles."""

    @pytest.mark.parametrize("angles", [
        half_circle_grid(48), full_circle_grid(63), full_circle_grid(64),
    ], ids=["half_real", "full_unpaired_real", "full_paired_complex"])
    def test_any_worker_count_is_bit_identical(self, angles, monkeypatch, threads_started):
        s = noisy_filtered(angles, offset_grid(257))
        # bands of 5 rows: six, and one of 3
        monkeypatch.setattr(projector, "_BLOCK_LINES", 5 * 33)
        assert len(projector.row_blocks(33, 33)) == 7
        monkeypatch.setattr(spectral, "_CPUS", 1)
        alone = backproject(s, 33).values
        assert threads_started == []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for cpus, threads in ((2, 1), (3, 2), (7, 6), (12, 6)):
                monkeypatch.setattr(spectral, "_CPUS", cpus)
                image = backproject(s, 33).values
                assert np.array_equal(image.view(np.uint64), alone.view(np.uint64)), cpus
                assert len(threads_started) == threads
                assert not any(thread.is_alive() for thread in threads_started)
                threads_started.clear()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus, resolution, bands", [(4, 64, 1), (1, 100, 2)],
                             ids=["one_band", "one_cpu"])
    def test_no_thread_starts(self, cpus, resolution, bands, monkeypatch):
        def refuse_threads(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(spectral, "_CPUS", cpus)
        monkeypatch.setattr(threading, "Thread", refuse_threads)
        s = noisy_filtered(full_circle_grid(64), offset_grid(257))
        assert len(projector.row_blocks(resolution, resolution)) == bands
        backproject(s, resolution)

    @pytest.mark.parametrize("group", ["later", "first"])
    def test_an_error_in_a_group_is_raised_in_the_caller(self, group, monkeypatch):
        monkeypatch.setattr(spectral, "_CPUS", 3)
        caller = threading.current_thread()
        interp = np.interp

        def failing(*args, **kwargs):
            if (threading.current_thread() is caller) == (group == "first"):
                raise FloatingPointError(f"in the {group} group")
            return interp(*args, **kwargs)

        monkeypatch.setattr(np, "interp", failing)
        s = noisy_filtered(half_circle_grid(48), offset_grid(257))
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match=f"in the {group} group"):
            backproject(s, 100)
        assert threading.active_count() == before


def x2_inner_reference(s, resolution):
    """`backproject` as one np.interp call per folded row (`_folded_rows`)
    over the whole image, with x2 as the inner axis of every row's keys."""
    factor = 1.0 if angle_coverage(s.angle_grid) == "full" else 2.0
    ps = s.offset_grid.points()
    xs = (np.arange(resolution) + 0.5) / resolution
    thetas, rows = _folded_rows(s)
    acc = np.zeros((resolution, resolution), dtype=rows.dtype)
    for theta, row in zip(thetas, rows):
        keys = np.add.outer(xs * math.cos(theta), xs * math.sin(theta))
        acc += np.interp(keys, ps, row, left=0.0, right=0.0)
    if np.iscomplexobj(acc):
        acc = acc.real + acc.imag.T
    return acc * (factor * s.angle_grid.spacing)


@pytest.fixture
def interp_keys(monkeypatch):
    """The keys of each np.interp call backproject makes, as checked by
    `interp_keys.check(keys)`, which the test sets; one result per call."""
    interp = np.interp

    def spied(keys, *args, **kwargs):
        spy.results.append(spy.check(keys))
        return interp(keys, *args, **kwargs)

    spy = SimpleNamespace(results=[], check=None)
    monkeypatch.setattr(np, "interp", spied)
    return spy


class TestBackprojectAxis:
    """On an image of one band, backproject takes each row along the pixel
    axis on which its offsets step least (x1 inner where |sin| > |cos|);
    the image stays bit for bit the x2-inner one."""

    @pytest.mark.parametrize("resolution", [33, 64])
    @pytest.mark.parametrize("angles", [
        moment_angle_grid(48), half_circle_grid(48), full_circle_grid(64),
    ], ids=["open", "half", "full_paired_transposed"])
    def test_single_band_is_bit_identical(self, angles, resolution):
        turn = np.mod(angles.points(), math.pi)
        for edge in (math.pi / 4, 3 * math.pi / 4):
            assert (turn < edge).any() and (turn > edge).any()
        s = noisy_filtered(angles, offset_grid(257))
        thetas, _ = _folded_rows(s)
        steep = np.abs(np.sin(thetas)) > np.abs(np.cos(thetas))
        assert steep.any() and not steep.all()  # the rows take both layouts
        assert len(projector.row_blocks(resolution, resolution)) == 1
        got = backproject(s, resolution).values
        want = x2_inner_reference(s, resolution)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_single_band_steep_rows_step_along_x1(self, interp_keys):
        angles = moment_angle_grid(48)
        s = noisy_filtered(angles, offset_grid(257))
        xs = (np.arange(33) + 0.5) / 33
        thetas = iter(angles.points())

        def check(keys):
            theta = next(thetas)
            cos, sin = math.cos(theta), math.sin(theta)
            if abs(sin) > abs(cos):  # keys[j, i] at pixel (i, j); inner axis steps by xs cos
                return np.array_equal(keys, np.add.outer(xs * sin, xs * cos)), "x1"
            return np.array_equal(keys, np.add.outer(xs * cos, xs * sin)), "x2"

        interp_keys.check = check
        backproject(s, 33)
        assert len(interp_keys.results) == angles.count
        assert all(ok for ok, _ in interp_keys.results)
        assert {axis for _, axis in interp_keys.results} == {"x1", "x2"}

    def test_banded_paired_turn_keeps_x2_inner(self, interp_keys):
        angles = full_circle_grid(192)
        s = Sinogram(angles, offset_grid(129),
                     np.random.default_rng(6).standard_normal((192, 129)), "filtered")
        thetas, _ = _folded_rows(s)
        assert np.any(np.abs(np.sin(thetas)) > np.abs(np.cos(thetas)))
        bands = projector.row_blocks(256, 256)
        assert len(bands) == 8
        xs = (np.arange(256) + 0.5) / 256
        pairs = [(theta, band) for theta in thetas for band in bands]

        def check(keys):
            # the (theta, band) pairs whose x2-inner keys these are, in any
            # order: the threads' calls interleave; a pair whose first key or
            # shape differs cannot match
            return [i for i, (theta, band) in enumerate(pairs)
                    if keys.shape == (band.stop - band.start, 256)
                    and keys[0, 0] == xs[band.start] * math.cos(theta) + xs[0] * math.sin(theta)
                    and np.array_equal(keys, np.add.outer(xs[band] * math.cos(theta),
                                                          xs * math.sin(theta)))]

        interp_keys.check = check
        backproject(s, 256)
        assert all(len(matched) == 1 for matched in interp_keys.results)
        assert sorted(i for matched in interp_keys.results for i in matched) == \
            list(range(len(pairs)))


class TestFbp:
    def test_disk_reconstruction_quality(self):
        s = project(DISK, half_circle_grid(90), offset_grid(257))
        rec = fbp_reconstruct(s, 64)
        xs = (np.arange(64) + 0.5) / 64
        xx, yy = np.meshgrid(xs, xs, indexing="ij")
        truth = np.asarray(DISK.evaluate(xx, yy))
        rel = np.linalg.norm(rec.values - truth) / np.linalg.norm(truth)
        assert rel <= 0.2

    def test_zero_sinogram_gives_zero_grid(self):
        s = Sinogram(half_circle_grid(16), offset_grid(128), np.zeros((16, 128)), "raw")
        rec = fbp_reconstruct(s, 16)
        assert np.all(rec.values == 0.0)

    def test_mass_roughly_preserved(self):
        s = project(DISK, half_circle_grid(90), offset_grid(257))
        rec = fbp_reconstruct(s, 64)
        assert rec.values.mean() == pytest.approx(1.0, abs=0.1)
