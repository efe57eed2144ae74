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
from momentct.phantoms import SQRT2, DiskDensity, UniformDensity
from momentct.projector import (
    Sinogram,
    add_noise,
    full_circle_grid,
    half_circle_grid,
    l1_norm,
    moment_angle_grid,
    mollify,
    offset_grid,
    project,
    turn_rule,
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
from oracles import (
    density_transform_2d,
    index_interpolate,
    projection_slice_residual,
    row_transform,
)

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
        # 43 rows: five blocks of 8 rows and one of 3; an odd count of offsets
        # has no Nyquist bin
        for count in (1024, 1023):
            s = project(DISK, half_circle_grid(43), offset_grid(count))
            h = s.offset_grid.spacing
            mult = _ramp_multiplier(2.0 * math.pi * np.fft.rfftfreq(count, d=h),
                                    CUTOFF_FRACTION * (math.pi / h))
            whole = np.fft.irfft(np.fft.rfft(s.values, axis=1) * mult, count, axis=1)
            assert np.array_equal(apply_filter(s).values.view(np.uint64),
                                  whole.view(np.uint64)), count

    @pytest.mark.parametrize("count", [512, 511])
    @pytest.mark.parametrize("kernel, rel", [(None, 1e-14), (make_kernel("bump", 0.05), 1e-11)],
                             ids=["raw", "bump"])
    def test_real_transform_is_the_full_transform_filter(self, kernel, rel, count):
        # the multiplier, and the kernel's transform, are real and even in the
        # bin, so the real FFT's half of the bins gives the filter on all of
        # them; dividing by the kernel's transform, down to REG_FLOOR, scales
        # either transform's rounding up alike (the full one's imaginary part)
        s = add_noise(project(DISK, half_circle_grid(16), offset_grid(count)), 0.01, seed=2)
        s = mollify(s, kernel) if kernel else s
        h = s.offset_grid.spacing
        mult = _ramp_multiplier(2.0 * math.pi * np.fft.fftfreq(count, d=h),
                                CUTOFF_FRACTION * (math.pi / h))
        if kernel:
            transfer = grid_kernel_transform(kernel, h, count)  # bins 0 to count // 2
            transfer = np.concatenate([transfer, transfer[1:(count + 1) // 2][::-1]])
            mult = np.where(np.abs(transfer) >= spectral.REG_FLOOR, mult / transfer, 0.0)
        full = np.fft.ifft(np.fft.fft(s.values, axis=1) * mult, axis=1)
        scale = np.max(np.abs(full.real))
        assert np.max(np.abs(apply_filter(s).values - full.real)) <= rel * scale
        assert np.max(np.abs(full.imag)) <= rel * scale

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

    @pytest.mark.parametrize("count, margin, eps, lost", [
        (512, 1.1, 0.01, 0), (512, 1.1, 0.02, 0), (512, 1.1, 0.03, 0),
        (512, 1.1, 0.05, 0), (512, 1.1, 0.08, 0), (512, 1.1, 0.1, 0),
        (512, 1.1, 0.12, 0), (512, 1.0 + 0.15 / SQRT2, 0.15, 0),
        (512, 1.0 + 0.2 / SQRT2, 0.2, 0), (512, 1.0 + 0.0515 / SQRT2, 0.0515, 1),
        (1024, 1.1, 0.05, 0), (1024, 1.1, 0.08, 1), (1024, 1.1, 0.1, 1),
        (1024, 1.15, 0.2, 84), (1024, 1.4, 0.5, 251)])
    def test_bins_the_floor_zeroes_in_the_passband(self, count, margin, eps, lost):
        # README's account of REG_FLOOR: the bins up to CUTOFF_FRACTION of
        # Nyquist where the taps' DFT is too small to divide by; none on 512
        # offsets at margin 1.1 or the least margin `validate` allows, save
        # at eps/h near 9, and a few to most on 1024 as eps/h grows
        grid = offset_grid(count, margin)
        h = grid.spacing
        band = 2.0 * math.pi * np.fft.rfftfreq(count, d=h) <= CUTOFF_FRACTION * math.pi / h
        transfer = grid_kernel_transform(make_kernel("bump", eps), h, count)[band]
        assert band.sum() == (205 if count == 512 else 410)
        assert np.count_nonzero(np.abs(transfer) < spectral.REG_FLOOR) == lost


class TestBackproject:
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

    @pytest.mark.parametrize("integrate", [lambda s: backproject(s, 8), l1_norm],
                             ids=["backproject", "l1_norm"])
    def test_partial_coverage_rejected(self, integrate):
        s = Sinogram(Grid1D(0.1, 0.8 / 7, 8), offset_grid(64), np.zeros((8, 64)), "filtered")
        with pytest.raises(CoverageError, match="^the angle grid covers neither a half nor "
                                                "a full turn: 8 angles 0.114286 apart; neither "
                                                "8 nor 9 spacings make pi or 2 pi$"):
            integrate(s)

    @pytest.mark.parametrize("resolution", [0, -1])
    @pytest.mark.parametrize("invert", [backproject, fbp_reconstruct],
                             ids=["backproject", "fbp_reconstruct"])
    def test_resolution_must_be_positive(self, invert, resolution):
        # 0 once divided by zero sizing the bands, -1 made a negative array
        s = Sinogram(half_circle_grid(8), offset_grid(64), np.ones((8, 64)), "raw")
        with pytest.raises(ValueError, match="resolution must be positive"):
            invert(s, resolution)


def whole_turn(s):
    """The rectangle rule over [0, 2 pi) for rows even under (theta, p) ->
    (theta + pi, -p): the weight, h on a full turn and 2h on a half, and the
    nodes the grid lacks as (angle, row) pairs.  A grid whose count + 1
    spacings tile its turn lacks the node at start - h, whose row is the mean
    of the first row and the last, the last read at -p on a half turn."""
    angles, ps = s.angle_grid, s.offset_grid.points()
    h = angles.spacing
    full = round(angles.count * h / math.pi) == 2  # count h is pi or 2 pi, less h if open
    turn, weight = (2 * math.pi, h) if full else (math.pi, 2 * h)
    if abs((angles.count + 1) * h - turn) > 1e-9 * h:
        return weight, []
    last = s.values[-1] if full else np.interp(-ps, ps, s.values[-1], left=0.0, right=0.0)
    return weight, [(angles.start - h, (s.values[0] + last) / 2)]


def backproject_reference(s, resolution):
    """Row-by-row backprojection: every angle, then the node `whole_turn`
    supplies, interpolated on its own."""
    weight, missing = whole_turn(s)
    ps = s.offset_grid.points()
    xs = (np.arange(resolution) + 0.5) / resolution
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    acc = np.zeros((resolution, resolution))
    for theta, row in [*zip(s.angle_grid.points(), s.values), *missing]:
        off = X * math.cos(theta) + Y * math.sin(theta)
        acc += np.interp(off, ps, row, left=0.0, right=0.0)
    return acc * weight


#: one spacing short of 2 pi, a full turn by `turn_rule`, yet row i + 96 is
#: not row i's antipode
SHORT_FULL = Grid1D(2 * math.pi / 193, 2 * math.pi / 193, 192)


def noisy_filtered(angles, offsets):
    s = add_noise(project(DISK, angles, offsets), 0.01, seed=3)
    return apply_filter(s)


@pytest.fixture
def row_reads(monkeypatch):
    """Counts the rows backproject reads on an image of one band: one np.diff
    per row it interpolates by index arithmetic, and on an open half turn
    one np.interp, reading the last row at -p for the node at 0."""
    calls = []

    def counted(fn):
        def call(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(np, "diff", counted(np.diff))
    monkeypatch.setattr(np, "interp", counted(np.interp))
    return calls


#: a full turn that starts half a spacing past 0: pi/2 - 2 start is still a
#: whole number of spacings, and no row sits at pi/4 or 3pi/4
HALF_SHIFTED = Grid1D(math.pi / 64, math.pi / 32, 64)


#: grids that tile a turn, or fall one node short of it, by their names
TILING_GRIDS = {"moment_128": moment_angle_grid(128), "moment_7": moment_angle_grid(7),
                "half_128": half_circle_grid(128), "half_18": half_circle_grid(18),
                "full_128": full_circle_grid(128), "full_36": full_circle_grid(36),
                "short_full": SHORT_FULL, "half_shifted": HALF_SHIFTED}

#: grids that tile no turn: closed ones, whose last row repeats the first
#: one's lines, and 128 nodes whose 128 spacings fall half a spacing short of pi
UNTILED_GRIDS = {"closed_half": Grid1D(0.0, math.pi / 128, 129),
                 "closed_full": Grid1D(0.0, math.pi / 64, 129),
                 "half_spacing_short": Grid1D(0.0, math.pi / 128.5, 128)}


class TestTurnRule:
    """`turn_rule` weights exactly the grids that tile pi or 2 pi, or fall
    one node short of either, and refuses every other grid."""

    @pytest.mark.parametrize("angles", TILING_GRIDS.values(), ids=TILING_GRIDS)
    def test_constant_rows_give_two_pi(self, angles):
        offsets = offset_grid(64)
        s = Sinogram(angles, offsets, np.ones((angles.count, 64)), "filtered")
        assert np.max(np.abs(backproject(s, 8).values / (2 * math.pi) - 1)) <= 1e-12
        assert l1_norm(s) / (offsets.stop - offsets.start) == pytest.approx(2 * math.pi,
                                                                            rel=1e-12, abs=0)

    @pytest.mark.parametrize("integrate", [turn_rule, lambda s: backproject(s, 8), l1_norm],
                             ids=["turn_rule", "backproject", "l1_norm"])
    @pytest.mark.parametrize("angles", UNTILED_GRIDS.values(), ids=UNTILED_GRIDS)
    def test_grids_that_tile_no_turn_are_refused(self, angles, integrate):
        s = Sinogram(angles, offset_grid(64), np.ones((angles.count, 64)), "filtered")
        with pytest.raises(CoverageError, match=f"^the angle grid covers neither a half nor a "
                                                f"full turn: {angles.count} angles "):
            integrate(s)


class TestBackprojectFold:
    """On full turns whose rows pair with their antipodes, backproject sums
    each pair before interpolating, and interpolates the folded rows at
    theta and pi/2 - theta together when both are on the grid; elsewhere it
    interpolates every row.  Each image here is of one band."""

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
    def test_paired_full_turn_matches_the_row_by_row_sum(self, angles, calls, row_reads):
        # count // 2 folded rows: those at pi/4 and 3pi/4 alone, the rest in pairs
        s = noisy_filtered(angles, offset_grid(257))
        got = backproject(s, 33).values
        assert len(row_reads) == calls
        want = backproject_reference(s, 33)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("count", [66, 130])
    def test_folded_turn_without_transpose_partners(self, count, row_reads):
        # count = 2 (mod 4): pi/2 is count / 4 spacings, not a whole number
        s = noisy_filtered(full_circle_grid(count), offset_grid(257))
        got = backproject(s, 33).values
        assert len(row_reads) == count // 2
        want = backproject_reference(s, 33)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("grid", [half_circle_grid(48), moment_angle_grid(48)],
                             ids=["half_turn", "open"])
    def test_half_turn_is_bit_identical(self, grid):
        # a half turn is not folded: each row, then the node, read by index arithmetic
        s = noisy_filtered(grid, offset_grid(257))
        got = backproject(s, 33).values
        assert np.array_equal(got.view(np.uint64), index_reference(s, 33).view(np.uint64))
        want = backproject_reference(s, 33)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("angles, offsets, calls", [
        (full_circle_grid(63), offset_grid(257), 63),
        (full_circle_grid(64), Grid1D(-1.6, 3.3 / 256, 257), 64),
        (SHORT_FULL, offset_grid(257), 193),  # every row and the node at 0
    ], ids=["odd_count", "asymmetric_offsets", "one_spacing_short"])
    def test_unpaired_full_turns_are_not_folded(self, angles, offsets, calls, row_reads):
        s = noisy_filtered(angles, offsets)
        got = backproject(s, 33).values
        assert len(row_reads) == calls
        want = backproject_reference(s, 33)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("angles, calls", [
        (full_circle_grid(192), 49),
        (half_circle_grid(96), 96),
        (moment_angle_grid(128), 130),  # every row, the node at 0, and the last row at -p
    ], ids=["full_turn", "half_turn", "open"])
    def test_interpolated_rows(self, angles, calls, row_reads):
        s = Sinogram(angles, offset_grid(64), np.ones((angles.count, 64)), "filtered")
        backproject(s, 4)
        assert len(row_reads) == calls


class TestBackprojectBands:
    """An image of several bands is read by np.interp over bands of whole
    pixel rows; each pixel adds the angles in the same order as one call
    over the whole image would."""

    @pytest.mark.parametrize("angles", [
        moment_angle_grid(48), half_circle_grid(48), full_circle_grid(64),
        full_circle_grid(63),
    ], ids=["open", "half", "full_paired_transposed", "full_unpaired"])
    def test_bands_with_a_remainder_are_bit_identical(self, angles, monkeypatch):
        s = noisy_filtered(angles, offset_grid(257))
        # bands of 5 rows: six, and one of 3
        monkeypatch.setattr(projector, "_BLOCK_LINES", 5 * 33)
        banded = backproject(s, 33).values
        whole = x2_inner_reference(s, 33)
        assert np.array_equal(banded.view(np.uint64), whole.view(np.uint64))

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

    def test_a_group_thread_keeps_the_callers_error_state(self, monkeypatch):
        # two bands, of 81 and 19 pixel rows, so the second is added on a
        # thread; only its pixels past x1 = 0.89 sum two rows past the
        # largest float: the row at 0, whose offset is x1, and the one at pi/2
        monkeypatch.setattr(spectral, "_CPUS", 2)
        angles, offsets = half_circle_grid(8), offset_grid(129)
        values = np.zeros((8, 129))
        values[0] = 1.79e308 * np.clip(offsets.points(), 0.0, 1.0)
        values[4] = 2e307
        s = Sinogram(angles, offsets, values, "filtered")
        assert len(projector.row_blocks(100, 100)) == 2
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            backproject(s, 100)


def folded_reference(s, resolution, read):
    """`backproject` over the whole image in one piece: read(theta, row, xs)
    for each folded row (`_folded_rows`), then the node `whole_turn`
    supplies, summed in that order."""
    weight, missing = whole_turn(s)
    xs = (np.arange(resolution) + 0.5) / resolution
    thetas, rows = _folded_rows(s)
    acc = np.zeros((resolution, resolution), dtype=rows.dtype)
    for theta, row in [*zip(thetas, rows), *missing]:
        acc += read(theta, row, xs)
    if np.iscomplexobj(acc):
        acc = acc.real + acc.imag.T
    return acc * weight


def x2_inner_reference(s, resolution):
    """`folded_reference` with one np.interp call per row, x2 the inner axis
    of its keys: an image of several bands, bit for bit."""
    ps = s.offset_grid.points()
    return folded_reference(s, resolution, lambda theta, row, xs: np.interp(
        np.add.outer(xs * math.cos(theta), xs * math.sin(theta)), ps, row, left=0.0, right=0.0))


def index_reference(s, resolution):
    """`folded_reference` by index arithmetic (`index_interpolate`): an image
    of one band, bit for bit."""
    return folded_reference(s, resolution, lambda theta, row, xs: index_interpolate(
        theta, row, s.offset_grid, xs))


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


#: offsets that reach short of [-sqrt2, sqrt2] on one side or both
SHORT_OFFSETS = {"both_ends": offset_grid(257, margin=0.99),
                 "low_end": Grid1D(-1.4, 2.9 / 256, 257),
                 "high_end": Grid1D(-1.5, 2.9 / 256, 257)}


class TestBackprojectOneBand:
    """An image of one band reads each pixel's sample by index arithmetic on
    the uniform offset grid, which must cover every pixel's line; it agrees
    with the row-by-row np.interp sum to rounding."""

    @pytest.mark.parametrize("resolution", [33, 64])
    @pytest.mark.parametrize("angles", [
        moment_angle_grid(48), half_circle_grid(48), full_circle_grid(64),
    ], ids=["open", "half", "full_paired_transposed"])
    def test_single_band_is_bit_identical(self, angles, resolution):
        s = noisy_filtered(angles, offset_grid(257))
        assert len(projector.row_blocks(resolution, resolution)) == 1
        got = backproject(s, resolution).values
        assert np.array_equal(got.view(np.uint64), index_reference(s, resolution).view(np.uint64))
        want = backproject_reference(s, resolution)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("angles", [
        moment_angle_grid(48), half_circle_grid(48), full_circle_grid(64), full_circle_grid(63),
    ], ids=["open", "half", "full_paired_transposed", "full_unpaired"])
    def test_offsets_at_the_coverage_edge(self, angles):
        # margin 1: the offsets end at +-sqrt2, and the corner pixel centres
        # are sqrt2 / 128 short of them, on the lines at pi/4 and 5pi/4
        s = noisy_filtered(angles, offset_grid(257, margin=1.0))
        got = backproject(s, 64).values
        assert np.array_equal(got.view(np.uint64), index_reference(s, 64).view(np.uint64))
        want = backproject_reference(s, 64)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("resolution", [8, 100], ids=["one_band", "two_bands"])
    @pytest.mark.parametrize("offsets", SHORT_OFFSETS.values(), ids=SHORT_OFFSETS)
    def test_offsets_short_of_the_square_are_refused(self, offsets, resolution):
        s = Sinogram(half_circle_grid(8), offsets, np.ones((8, offsets.count)), "filtered")
        with pytest.raises(CoverageError, match=r"do not cover \[-sqrt2, sqrt2\]"):
            backproject(s, resolution)

    def test_single_band_searches_no_row(self, interp_keys):
        # np.interp reads only the last row at -p, for an open grid's node at 0
        angles = moment_angle_grid(48)
        s = noisy_filtered(angles, offset_grid(257))
        interp_keys.check = lambda keys: np.array_equal(keys, -s.offset_grid.points())
        backproject(s, 33)
        assert interp_keys.results == [True]
        backproject(noisy_filtered(full_circle_grid(64), offset_grid(257)), 64)
        assert interp_keys.results == [True]


#: grids of every kind of whole turn: open ones, which lack the node at 0,
#: a half and a full turn, and a full turn one spacing short
WHOLE_TURNS = {"open_128": moment_angle_grid(128), "open_7": moment_angle_grid(7),
               "half_128": half_circle_grid(128), "full_128": full_circle_grid(128),
               "one_spacing_short": SHORT_FULL}


class TestWholeTurnRule:
    """backproject and l1_norm integrate over the whole turn by one rule, so
    rows of one constant c give 2 pi c on every grid that covers a turn."""

    @pytest.mark.parametrize("angles", WHOLE_TURNS.values(), ids=WHOLE_TURNS.keys())
    def test_constant_rows_backproject_to_two_pi(self, angles):
        s = Sinogram(angles, offset_grid(64), np.full((angles.count, 64), 0.75), "filtered")
        image = backproject(s, 8).values
        assert np.max(np.abs(image / (2 * math.pi * 0.75) - 1)) <= 1e-12

    @pytest.mark.parametrize("angles", WHOLE_TURNS.values(), ids=WHOLE_TURNS.keys())
    def test_constant_rows_have_l1_norm_two_pi_times_the_width(self, angles):
        offsets = offset_grid(64)
        s = Sinogram(angles, offsets, np.full((angles.count, 64), -0.75), "raw")
        width = offsets.stop - offsets.start
        assert l1_norm(s) == pytest.approx(2 * math.pi * 0.75 * width, rel=1e-12, abs=0)


class TestFbp:
    def test_disk_reconstruction_quality(self):
        s = project(DISK, half_circle_grid(90), offset_grid(257))
        rec = fbp_reconstruct(s, 64)
        xs = (np.arange(64) + 0.5) / 64
        xx, yy = np.meshgrid(xs, xs, indexing="ij")
        truth = np.asarray(DISK.evaluate(xx, yy))
        rel = np.linalg.norm(rec.values - truth) / np.linalg.norm(truth)
        assert rel <= 0.2

    @pytest.mark.parametrize("sigma", [0.002, 0.01])
    @pytest.mark.parametrize("make", [moment_angle_grid, half_circle_grid, full_circle_grid],
                             ids=["moment", "half", "full"])
    def test_smoothed_rows_give_the_fbp_of_the_unsmoothed_rows(self, make, sigma):
        # `mollify` applies the circulant that the filter divides out; a
        # linear convolution, cut at the grid's ends, once put these images
        # off by up to 2.5 times their norm.  The widths are those of the two
        # shipped smoothed configs, about the demo's 0.05 and disk_half_turn's
        # 0.02, at which no bin of the taps' DFT falls under REG_FLOOR
        noisy = add_noise(project(UNIFORM, make(128), offset_grid(512)), sigma, 1)
        want = fbp_reconstruct(noisy, 64).values
        for eps in [*np.linspace(0.048, 0.052, 17), 0.02]:
            got = fbp_reconstruct(mollify(noisy, make_kernel("bump", float(eps))), 64).values
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_zero_sinogram_gives_zero_grid(self):
        s = Sinogram(half_circle_grid(16), offset_grid(128), np.zeros((16, 128)), "raw")
        rec = fbp_reconstruct(s, 16)
        assert np.all(rec.values == 0.0)

    def test_mass_roughly_preserved(self):
        s = project(DISK, half_circle_grid(90), offset_grid(257))
        rec = fbp_reconstruct(s, 64)
        assert rec.values.mean() == pytest.approx(1.0, abs=0.1)
