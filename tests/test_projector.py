import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentct import projector
from momentct.errors import CoverageError, MisuseError, ResolutionWarning
from momentct.mollifiers import make_kernel, sampled_kernel
from momentct.numerics import Grid1D
from momentct.phantoms import (
    DiskDensity,
    PolynomialDensity,
    SumOfDisksDensity,
    UniformDensity,
    _clip_chord,
)
from momentct.projector import (
    _BLOCK_LINES,
    Sinogram,
    add_noise,
    antipodal_half,
    evenness_residual,
    full_circle_grid,
    half_circle_grid,
    l1_norm,
    moment_angle_grid,
    mollify,
    offset_grid,
    project,
    row_blocks,
    transpose_partner,
)
from oracles import greedy_row_blocks, radon

UNIFORM = UniformDensity()
DISK = DiskDensity.unit_mass(center=(0.5, 0.5), radius=0.25)
SQRT_2PI = math.sqrt(2.0 * math.pi)

#: one spacing short of 2 pi, a full turn by `turn_rule`, yet row i + 96 is
#: not row i's antipode
SHORT_FULL = Grid1D(2 * math.pi / 193, 2 * math.pi / 193, 192)


def small_sinogram(density=UNIFORM, n_angles=16, n_offsets=257, cover="moment"):
    grids = {"moment": moment_angle_grid, "half": half_circle_grid,
             "full": full_circle_grid}
    return project(density, grids[cover](n_angles), offset_grid(n_offsets))


class TestProject:
    def test_uniform_horizontal_chord(self):
        s = project(UNIFORM, half_circle_grid(2), offset_grid(257))
        ps = s.offset_grid.points()
        j = int(np.argmin(np.abs(ps - 0.5)))
        assert s.values[1, j] == pytest.approx(1.0, abs=1e-6)  # row 1 is pi/2

    def test_matches_chord_everywhere_for_uniform(self):
        s = small_sinogram(n_angles=9, n_offsets=129)
        ps = s.offset_grid.points()
        for i, theta in enumerate(s.angle_grid.points()):
            oracle = np.array([radon(UNIFORM, theta, p) for p in ps])
            assert np.max(np.abs(s.values[i] - oracle)) <= 1e-10

    def test_disk_center_line(self):
        offsets = Grid1D(-1.45, 0.01, 291)  # p = 0.5 is exactly on this grid
        s = project(DISK, half_circle_grid(2), offsets)
        ps = offsets.points()
        j = int(np.argmin(np.abs(ps - 0.5)))
        assert abs(ps[j] - 0.5) < 1e-12
        assert s.values[1, j] == pytest.approx(8.0 / math.pi, abs=1e-4)

    def test_line_missing_support(self):
        s = small_sinogram(n_angles=4, n_offsets=65)
        ps = s.offset_grid.points()
        outside = np.abs(ps) > math.sqrt(2.0)
        assert np.all(s.values[:, outside] == 0.0)

    def test_nonnegative_values(self):
        s = small_sinogram(DISK, n_angles=8, n_offsets=65)
        assert np.all(s.values >= 0.0)

    @pytest.mark.parametrize("density", [
        UNIFORM,
        PolynomialDensity.from_dict({(4, 0): 1.0, (2, 2): 3.0, (0, 4): 2.0, (1, 1): 0.5}),
    ], ids=["uniform", "degree_4"])
    @pytest.mark.parametrize("angles", [half_circle_grid(64), moment_angle_grid(64)],
                             ids=["half_turn", "open"])
    def test_equals_radon_bitwise(self, angles, density):
        # the half turn's first block holds the rows at 0 and pi/2, whose
        # lines run along the edges of the square
        offsets = offset_grid(257)
        s = project(density, angles, offsets)
        want = radon(density, angles.points()[:, None], offsets.points()[None, :])
        assert np.array_equal(s.values.view(np.uint64), want.view(np.uint64))

    def test_coverage_error(self):
        with pytest.raises(CoverageError):
            project(UNIFORM, moment_angle_grid(4), Grid1D(-1.0, 1 / 32, 65))

    @pytest.mark.parametrize("make", [moment_angle_grid, half_circle_grid, full_circle_grid,
                                      offset_grid])
    def test_grid_is_its_recorded_start_spacing_and_count(self, make):
        # a sinogram header records each grid's start and spacing as %.17g;
        # the grid rebuilt from that text is the grid, last point included
        for count in range(2, 2049):
            g = make(count)
            back = Grid1D(float("%.17g" % g.start), float("%.17g" % g.spacing), count)
            assert back == g
            assert np.array_equal(back.points(), g.points())

    def test_margin_below_one_builds_a_grid_that_project_refuses(self):
        offsets = offset_grid(65, 0.9)
        assert offsets.stop == pytest.approx(0.9 * math.sqrt(2.0))
        with pytest.raises(CoverageError, match=r"do not cover \[-sqrt2, sqrt2\]"):
            project(UNIFORM, moment_angle_grid(4), offsets)


class TestMollify:
    def test_plateau_unchanged(self):
        m = make_kernel("bump", 0.05)
        s = small_sinogram(n_angles=8, n_offsets=513)
        mol = mollify(s, m)
        ps = s.offset_grid.points()
        # the row at the first angle has a flat plateau; well inside it the
        # convolution with a unit-mass kernel is the identity
        theta = s.angle_grid.points()[4]
        lo = max(0.0, math.cos(theta) + 0.0) + 0.1
        hi = min(math.cos(theta) + math.sin(theta), 1.0) - 0.1
        sel = (ps > lo + 0.05) & (ps < hi - 0.05)
        if np.any(sel):
            assert np.max(np.abs(mol.values[4, sel] - s.values[4, sel])) <= 1e-10

    def test_mass_preserved_per_row(self):
        m = make_kernel("bump", 0.05)
        s = small_sinogram(n_angles=8, n_offsets=513)
        mol = mollify(s, m)
        h = s.offset_grid.spacing
        for i in range(8):
            assert np.trapezoid(mol.values[i], dx=h) == pytest.approx(
                np.trapezoid(s.values[i], dx=h), abs=1e-8
            )

    def test_rows_wrap_around_the_offset_grid(self):
        # the circulant that the FBP filter divides out: noise near one end
        # of a row spreads into the other end, and the interior samples are
        # the linear convolution's, bit for bit
        m = make_kernel("bump", 0.05)
        s = add_noise(small_sinogram(n_angles=4, n_offsets=257), 0.01, 1)
        _, weights = sampled_kernel(m, s.offset_grid.spacing)
        taps = weights * s.offset_grid.spacing
        n = taps.size // 2
        mol = mollify(s, m).values
        for row, got in zip(s.values, mol):
            wrapped = np.concatenate([row[-n:], row, row[:n]])
            circular = [taps[::-1] @ wrapped[j:j + taps.size] for j in range(row.size)]
            assert np.allclose(got, circular, rtol=0, atol=1e-15)
            linear = np.convolve(row, taps, mode="same")
            assert np.array_equal(got[n:-n].view(np.uint64), linear[n:-n].view(np.uint64))
            assert got.sum() == pytest.approx(row.sum(), rel=1e-13)

    def test_one_tap_keeps_the_rows(self):
        # a width so far below the spacing that ceil(eps / h) is 0
        s = Sinogram(moment_angle_grid(3), Grid1D(-1.5, 1e300, 4), np.arange(12.0).reshape(3, 4),
                     "raw")
        with pytest.warns(ResolutionWarning):
            mol = mollify(s, make_kernel("bump", 1e-300))
        assert np.array_equal(mol.values, s.values)

    def test_peak_reduced_for_disk(self):
        m = make_kernel("bump", 0.05)
        s = small_sinogram(DISK, n_angles=8, n_offsets=513)
        mol = mollify(s, m)
        assert mol.values.max() < s.values.max()

    def test_kind_transitions(self):
        m = make_kernel("bump", 0.05)
        s = small_sinogram(n_angles=4, n_offsets=129)
        mol = mollify(s, m)
        assert mol.kind == "mollified"
        assert mol.kernel is m
        with pytest.raises(MisuseError):
            mollify(mol, m)


class TestSinogramKernel:
    def test_kernel_comes_with_mollified_rows_and_only_with_them(self):
        m = make_kernel("bump", 0.05)
        grids = (moment_angle_grid(4), offset_grid(129))
        values = np.zeros((4, 129))
        assert Sinogram(*grids, values, "mollified", m).kernel is m
        with pytest.raises(ValueError, match="^mollified sinogram needs the kernel"):
            Sinogram(*grids, values, "mollified")
        for kind in ("raw", "noisy", "filtered"):
            assert Sinogram(*grids, values, kind).kernel is None
            with pytest.raises(ValueError, match=f"^kind='{kind}' sinogram must not carry"):
                Sinogram(*grids, values, kind, m)

    @pytest.mark.parametrize("count", [128, 129])
    def test_kernel_samples_must_fit_on_the_offset_grid(self, count):
        # the widest kernel whose 2 ceil(eps / h) + 1 samples fit, and one a bit wider
        grids = (moment_angle_grid(4), Grid1D(0.0, 1.0, count))
        values = np.zeros((4, count))
        half = (count - 1) // 2
        assert Sinogram(*grids, values, "mollified", make_kernel("bump", half)).kernel.epsilon == half
        wider = make_kernel("bump", half + 0.5)
        with pytest.raises(ValueError, match="^kernel wider than the offset grid$"):
            Sinogram(*grids, values, "mollified", wider)
        with pytest.raises(ValueError, match="^kernel wider than the offset grid$"):
            mollify(Sinogram(*grids, values, "raw"), wider)

    def test_spectral_identity_on_resolved_band(self):
        # per-row transform of the smoothed row equals the raw transform
        # times the kernel transform (unit-DC normalization)
        m = make_kernel("bump", 0.05)
        s = small_sinogram(DISK, n_angles=6, n_offsets=1025)
        mol = mollify(s, m)
        h = s.offset_grid.spacing
        freqs = 2.0 * math.pi * np.fft.fftfreq(1025, d=h)
        from oracles import fourier_of_kernel

        transfer = SQRT_2PI * np.asarray(fourier_of_kernel(m, freqs))
        for i in range(6):
            raw_spec = np.fft.fft(s.values[i])
            mol_spec = np.fft.fft(mol.values[i])
            band = (np.abs(transfer) >= 0.02) & \
                   (np.abs(raw_spec) >= 1e-3 * np.abs(raw_spec).max())
            rel = np.abs(mol_spec[band] - raw_spec[band] * transfer[band]) \
                / np.abs(raw_spec[band] * transfer[band])
            assert np.max(rel) <= 1e-3


class TestNoise:
    def test_zero_sigma_identity(self):
        s = small_sinogram(n_angles=4, n_offsets=129)
        noisy = add_noise(s, 0.0, seed=42)
        assert noisy.kind == "noisy"
        assert np.array_equal(noisy.values, s.values)

    def test_determinism(self):
        s = small_sinogram(n_angles=4, n_offsets=129)
        a = add_noise(s, 0.1, seed=7)
        b = add_noise(s, 0.1, seed=7)
        c = add_noise(s, 0.1, seed=8)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_statistics(self):
        s = Sinogram(
            angle_grid=full_circle_grid(100),
            offset_grid=offset_grid(1000),
            values=np.zeros((100, 1000)),
            kind="raw",
        )
        noisy = add_noise(s, 0.1, seed=3)
        eta = noisy.values.ravel()
        assert abs(eta.mean()) <= 3 * 0.1 / math.sqrt(eta.size)
        assert eta.var() == pytest.approx(0.01, rel=0.05)

    def test_negative_sigma(self):
        s = small_sinogram(n_angles=4, n_offsets=129)
        with pytest.raises(ValueError):
            add_noise(s, -0.1, seed=0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_sigma(self, sigma):
        # numpy's normal takes either scale and returns NaN or +-inf rows
        s = small_sinogram(n_angles=4, n_offsets=129)
        with pytest.raises(ValueError, match="noise level must be finite and nonnegative"):
            add_noise(s, sigma, seed=1)

    @pytest.mark.parametrize("sigma", [0.0, 0.01], ids=["zero", "positive"])
    def test_smoothed_or_filtered_rows_are_refused(self, sigma):
        # noise on smoothed rows would relabel them noisy and drop the kernel
        s = small_sinogram(n_angles=4, n_offsets=129)
        mol = mollify(s, make_kernel("bump", 0.05))
        filtered = Sinogram(s.angle_grid, s.offset_grid, s.values, "filtered")
        for rows in (mol, filtered):
            with pytest.raises(MisuseError, match=f"^can only add noise to raw or noisy "
                                                  f"sinograms, got '{rows.kind}'$"):
                add_noise(rows, sigma, seed=1)
        assert add_noise(add_noise(s, sigma, seed=1), sigma, seed=2).kind == "noisy"


def covered_rows(blocks, rows):
    """The rows of each block, of rows rows in all."""
    return [list(range(rows)[block]) for block in blocks]


class TestRowBlocks:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 64), st.lists(st.integers(0, 150), max_size=40))
    def test_per_row_widths(self, block_lines, widths):
        # widths of 0, widths above the block, and lists of 0 or 1 rows
        with mock.patch.object(projector, "_BLOCK_LINES", block_lines):
            blocks = row_blocks(len(widths), np.array(widths, dtype=np.intp))
        assert blocks == greedy_row_blocks(widths, block_lines)
        # in order, each block where the last one stopped, to the last row
        assert [b.start for b in blocks] == [0, *(b.stop for b in blocks)][:len(blocks)]
        assert (blocks[-1].stop if blocks else 0) == len(widths)
        for b in blocks:
            samples = sum(widths[b])
            assert b.stop > b.start
            assert samples <= block_lines or b.stop - b.start == 1
            if b.stop < len(widths):  # maximal: the next row would not fit
                assert samples + widths[b.stop] > block_lines

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 40), st.integers(1, 150))
    def test_one_width_is_the_closed_form(self, block_lines, rows, width):
        with mock.patch.object(projector, "_BLOCK_LINES", block_lines):
            blocks = row_blocks(rows, width)
        step = max(1, block_lines // width)
        assert all(b.stop - b.start == step for b in blocks)
        assert covered_rows(blocks, rows) == covered_rows(
            greedy_row_blocks([width] * rows, block_lines), rows)

    @pytest.mark.parametrize("widths", [[], [0], [_BLOCK_LINES + 1], [3 * _BLOCK_LINES, 0]],
                             ids=["no_rows", "one_empty_row", "one_wide_row", "wide_then_empty"])
    def test_at_the_real_block_size(self, widths):
        blocks = row_blocks(len(widths), np.array(widths, dtype=np.intp))
        assert blocks == greedy_row_blocks(widths, _BLOCK_LINES)
        assert covered_rows(blocks, len(widths)) == [[i] for i in range(len(widths))]


class TestL1Norm:
    def test_full_circle_equals_two_pi_mass(self):
        s = small_sinogram(n_angles=64, n_offsets=513, cover="full")
        assert l1_norm(s) == pytest.approx(2.0 * math.pi, abs=2e-3)

    def test_zero_sinogram(self):
        s = Sinogram(full_circle_grid(8), offset_grid(65), np.zeros((8, 65)), "raw")
        assert l1_norm(s) == 0.0

    def test_mollified_bounded_by_raw(self):
        m = make_kernel("bump", 0.05)
        s = small_sinogram(n_angles=32, n_offsets=513, cover="full")
        assert l1_norm(mollify(s, m)) <= l1_norm(s) + 1e-6

    @pytest.mark.parametrize("cover", ["full", "half", "moment"])
    def test_row_blocks_match_the_whole_grid(self, cover):
        # 70 rows of 1025 offsets: eight blocks of 7 rows and one of 6
        s = small_sinogram(DISK, n_angles=70, n_offsets=1025, cover=cover)
        dp, dth, ps = s.offset_grid.spacing, s.angle_grid.spacing, s.offset_grid.points()
        rows = np.trapezoid(np.abs(s.values), dx=dp, axis=1)
        if cover == "full":  # the rectangle rule over the whole turn
            whole = dth * rows.sum()
        elif cover == "half":  # each row stands for itself and its antipode
            whole = 2 * dth * rows.sum()
        else:  # the open grid lacks the node at 0: the mean of the rows at dth and -dth
            missing = (s.values[0] + np.interp(-ps, ps, s.values[-1], left=0.0, right=0.0)) / 2
            whole = 2 * dth * (rows.sum() + np.trapezoid(np.abs(missing), dx=dp))
        assert l1_norm(s) == float(whole)

    @pytest.mark.parametrize("rows, cols", [(256, 1024), (512, 2048)])
    def test_traced_peak_is_bounded_by_the_blocks(self, rows, cols):
        # |values| of the whole grid took 4 and 17 MB
        values = np.random.default_rng(4).standard_normal((rows, cols))
        s = Sinogram(moment_angle_grid(rows), offset_grid(cols), values, "raw")
        tracemalloc.start()
        try:
            l1_norm(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestEvenness:
    def test_residual_tiny_on_full_grid(self):
        for d in (UNIFORM, DISK):
            s = project(d, full_circle_grid(32), offset_grid(129))
            assert evenness_residual(s) <= 1e-12

    @pytest.mark.parametrize("d", [UNIFORM, DISK], ids=["uniform", "disk"])
    def test_mirrored_half_matches_the_antipodal_lines(self, d):
        # project writes rows half.. as the mirror of the first half, which
        # makes the residual 0 by construction; each mirrored row must still
        # be the line integral on its own lines (theta + pi, p)
        angles, offsets = full_circle_grid(64), offset_grid(513)
        s = project(d, angles, offsets)
        half = antipodal_half(angles, offsets)
        assert half == 32
        direct = radon(d, angles.points()[half:, None], offsets.points()[None, :])
        assert np.max(np.abs(s.values[half:] - direct)) <= 1e-13

    def test_requires_full_cover(self):
        s = small_sinogram(n_angles=8, n_offsets=65)
        with pytest.raises(ValueError):
            evenness_residual(s)

    def test_rejects_a_full_turn_whose_rows_do_not_pair(self):
        # 193 spacings make 2 pi: one node short of the turn, and 192 / 2
        # spacings fall half a spacing short of pi
        assert 193 * SHORT_FULL.spacing == pytest.approx(2 * math.pi, rel=1e-12)
        s = project(DISK, SHORT_FULL, offset_grid(129))
        with pytest.raises(ValueError):
            evenness_residual(s)


class TestAntipodalHalf:
    @pytest.mark.parametrize("angles, offsets, half", [
        (full_circle_grid(32), offset_grid(129), 16),
        (full_circle_grid(2), offset_grid(129), 1),
        (full_circle_grid(31), offset_grid(129), None),
        (full_circle_grid(32), Grid1D(-1.6, 3.3 / 128, 129), None),
        (half_circle_grid(32), offset_grid(129), None),
        (moment_angle_grid(32), offset_grid(129), None),
        (SHORT_FULL, offset_grid(129), None),
    ], ids=["full", "two_angles", "odd_count", "asymmetric_offsets", "half_turn",
            "open", "one_spacing_short"])
    def test_pairs_only_antipodal_rows(self, angles, offsets, half):
        assert antipodal_half(angles, offsets) == half

    def test_project_samples_every_row_on_an_unpaired_full_turn(self):
        disk = DiskDensity(center=(0.35, 0.40), radius=0.18, amplitude=1.0)
        offsets = offset_grid(129)
        s = project(disk, SHORT_FULL, offsets)
        want = radon(disk, SHORT_FULL.points()[:, None], offsets.points()[None, :])
        assert np.array_equal(s.values, want)


class TestTransposePartner:
    @pytest.mark.parametrize("angles", [
        full_circle_grid(4), full_circle_grid(8), full_circle_grid(192),
        Grid1D(math.pi / 64, math.pi / 32, 64),
        Grid1D(-math.pi, math.pi / 16, 32),
    ], ids=["4", "8", "192", "half_spacing_shift", "from_minus_pi"])
    def test_partner_sits_at_pi_over_2_minus_theta(self, angles):
        half = angles.count // 2
        partner, reverse = transpose_partner(angles)
        thetas = angles.points()
        read_at = thetas[partner] + math.pi * reverse
        turns = (read_at - (math.pi / 2 - thetas[:half])) / (2 * math.pi)
        assert np.all((0 <= partner) & (partner < half))
        assert np.allclose(turns, np.round(turns), rtol=0, atol=1e-12)
        assert np.array_equal(partner[partner], np.arange(half))

    def test_eight_angles(self):
        partner, reverse = transpose_partner(full_circle_grid(8))
        assert partner.tolist() == [2, 1, 0, 3]  # 0 <-> pi/2, pi/4 and 3pi/4 alone
        assert reverse.tolist() == [False, False, False, True]  # 3pi/4 = -pi/4 + pi

    @pytest.mark.parametrize("angles", [full_circle_grid(66), full_circle_grid(130),
                                        Grid1D(0.1, math.pi / 32, 64)],
                             ids=["66", "130", "off_grid_start"])
    def test_none_when_pi_over_2_is_off_the_grid(self, angles):
        assert transpose_partner(angles) is None


def full_grid_reference(d, angles, offsets):
    """The whole-grid projection: one `radon` call over every sample, with
    the antipodal mirror on paired full turns."""
    values = radon(d, angles.points()[:, None], offsets.points()[None, :])
    half = antipodal_half(angles, offsets)
    if half is not None:
        values[half:] = values[:half, ::-1]
    return values


WINDOW_PHANTOMS = {
    "uniform": UNIFORM,
    "polynomial": PolynomialDensity.from_dict({(1, 1): 2.0, (2, 2): 3.0, (0, 3): 0.5}),
    "disk": DiskDensity(center=(0.35, 0.40), radius=0.18, amplitude=1.0),
    "disks": SumOfDisksDensity((DiskDensity(center=(0.35, 0.40), radius=0.18, amplitude=1.0),
                                DiskDensity(center=(0.68, 0.62), radius=0.14, amplitude=2.0))),
}

WINDOW_ANGLES = {
    "open": moment_angle_grid(37),
    "half_turn": half_circle_grid(40),
    "full_even": full_circle_grid(64),
    "full_odd": full_circle_grid(63),
    "one_spacing_short": SHORT_FULL,
    "axes": half_circle_grid(2),             # theta = 0 and pi/2, unpaired
    "axes_full": Grid1D(0.0, math.pi / 2, 4),  # 0, pi/2 and their antipodes
}

WINDOW_OFFSETS = {
    "margin_1.0": offset_grid(129, 1.0),
    "margin_1.7": offset_grid(200, 1.7),
    "edges_on_grid": Grid1D(-1.5, 0.01, 301),  # p = 0 and p = 1 are samples
    # samples 5e-10 beyond an edge, where the clipped chord is still a full
    # unit (within _EDGE_TOL) although the line misses the square
    "edges_plus_tol": Grid1D(-1.5 + 5e-10, 0.01, 301),
    "edges_minus_tol": Grid1D(-1.5 - 5e-10, 0.01, 301),
}

#: (angles, offsets) of the whole-grid comparison: every pair of the grids
#: above, and two acceptance-size grids whose windows span several blocks
WINDOW_GRIDS = {
    **{f"{a}-{o}": (angles, offsets) for a, angles in WINDOW_ANGLES.items()
       for o, offsets in WINDOW_OFFSETS.items()},
    "open_256-offsets_1024": (moment_angle_grid(256), offset_grid(1024)),
    "full_turn_192-offsets_1024": (full_circle_grid(192), offset_grid(1024)),
}


class TestSupportWindow:
    """project takes line integrals only where a line can meet the unit square;
    the result is bitwise the whole-grid projection."""

    @pytest.mark.parametrize("angles, offsets", WINDOW_GRIDS.values(), ids=WINDOW_GRIDS.keys())
    @pytest.mark.parametrize("d", WINDOW_PHANTOMS.values(), ids=WINDOW_PHANTOMS.keys())
    def test_bitwise_equal_to_the_whole_grid(self, d, angles, offsets):
        got = project(d, angles, offsets).values
        want = full_grid_reference(d, angles, offsets)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("shift, edges", [(0.0, (0.0, 1.0)), (5e-10, (1.0,)),
                                              (-5e-10, (0.0,))],
                             ids=["on_edge", "above", "below"])
    def test_edge_lines_are_inside_the_window(self, shift, edges):
        # at theta = 0 and pi/2 the lines through (or within _EDGE_TOL of) an
        # edge carry a full unit chord of the uniform density
        offsets = Grid1D(-1.5 + shift, 0.01, 301)
        ps = offsets.points()
        cols = [int(np.argmin(np.abs(ps - (p + shift)))) for p in edges]
        s = project(UNIFORM, half_circle_grid(2), offsets)
        assert np.all(s.values[:, cols] == 1.0)

    @pytest.mark.parametrize("angles, sampled_rows", [
        (moment_angle_grid(256), 256),
        (full_circle_grid(192), 96),
    ], ids=["open", "full_turn"])
    def test_radon_sees_fewer_points_than_the_grid(self, monkeypatch, angles, sampled_rows):
        points = []
        line_integrals = UniformDensity.line_integrals

        def counted(self, c, s, p):
            points.append(p.size)
            return line_integrals(self, c, s, p)

        monkeypatch.setattr(UniformDensity, "line_integrals", counted)
        offsets = offset_grid(1024)
        project(UNIFORM, angles, offsets)
        # a window spans |cos| + |sin| <= sqrt(2) of the 2.2 sqrt(2) offset
        # span, plus one offset on each side
        assert sum(points) <= sampled_rows * (offsets.count / 2.2 + 3)
        assert sum(points) < 0.5 * angles.count * offsets.count
        # the rows come in blocks of at most _BLOCK_LINES lines, or one row
        assert len(points) > 1
        assert max(points) <= _BLOCK_LINES + offsets.count

    def test_every_gauss_node_goes_through_evaluate(self, monkeypatch):
        # the tracer's projector.density_points counts these points: one per
        # Gauss node on every line that meets the square, 3 nodes at degree 4
        d = WINDOW_PHANTOMS["polynomial"]
        angles, offsets = moment_angle_grid(256), offset_grid(1024)
        points = []
        evaluate = PolynomialDensity.evaluate

        def counted(self, x1, x2):
            points.append(np.size(x1))
            return evaluate(self, x1, x2)

        monkeypatch.setattr(PolynomialDensity, "evaluate", counted)
        project(d, angles, offsets)
        th, ps = np.broadcast_arrays(angles.points()[:, None], offsets.points()[None, :])
        _, length = _clip_chord(np.cos(th), np.sin(th), ps)
        assert sum(points) == 3 * np.count_nonzero(length) == 321786

    def test_traced_peak_is_bounded_by_the_blocks(self):
        # one call over all 108k in-window lines held 3 Gauss nodes per line
        # in each temporary and peaked at about 25 MB; the output is 2 MB
        d = WINDOW_PHANTOMS["polynomial"]
        angles, offsets = moment_angle_grid(256), offset_grid(1024)
        project(d, angles, offsets)  # build the cached quadrature rule first
        tracemalloc.start()
        try:
            project(d, angles, offsets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6
