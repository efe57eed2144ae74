import math
import tracemalloc

import numpy as np
import pytest

from momentct.errors import CoverageError, MisuseError
from momentct.mollifiers import make_kernel
from momentct.numerics import Grid1D
from momentct.phantoms import (
    DiskDensity,
    PolynomialDensity,
    SumOfDisksDensity,
    UniformDensity,
)
from momentct.projector import (
    _BLOCK_LINES,
    Sinogram,
    add_noise,
    angle_coverage,
    antipodal_half,
    evenness_residual,
    full_circle_grid,
    half_circle_grid,
    l1_norm,
    moment_angle_grid,
    mollify,
    offset_grid,
    project,
    transpose_partner,
)

UNIFORM = UniformDensity()
DISK = DiskDensity.unit_mass(center=(0.5, 0.5), radius=0.25)
SQRT_2PI = math.sqrt(2.0 * math.pi)

#: "full" by `angle_coverage` (one spacing short of 2 pi), yet row i + 96
#: is not row i's antipode
SHORT_FULL = Grid1D(2 * math.pi / 193, 192 * 2 * math.pi / 193, 192)


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
            oracle = np.array([UNIFORM.radon(theta, p) for p in ps])
            assert np.max(np.abs(s.values[i] - oracle)) <= 1e-10

    def test_disk_center_line(self):
        offsets = Grid1D(-1.45, 1.45, 291)  # p = 0.5 is exactly on this grid
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

    def test_coverage_error(self):
        with pytest.raises(CoverageError):
            project(UNIFORM, moment_angle_grid(4), Grid1D(-1.0, 1.0, 65))


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
        grids = (moment_angle_grid(4), Grid1D(0.0, count - 1.0, count))
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

    @pytest.mark.parametrize("cover", ["full", "moment"])
    def test_row_blocks_match_the_whole_grid(self, cover):
        # 70 rows of 1025 offsets: eight blocks of 7 rows and one of 6
        s = small_sinogram(DISK, n_angles=70, n_offsets=1025, cover=cover)
        rows = np.trapezoid(np.abs(s.values), dx=s.offset_grid.spacing, axis=1)
        dth = s.angle_grid.spacing
        whole = dth * rows.sum() if cover == "full" else np.trapezoid(rows, dx=dth)
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

    def test_requires_full_cover(self):
        s = small_sinogram(n_angles=8, n_offsets=65)
        with pytest.raises(ValueError):
            evenness_residual(s)

    def test_rejects_a_full_turn_whose_rows_do_not_pair(self):
        assert angle_coverage(SHORT_FULL) == "full"
        s = project(DISK, SHORT_FULL, offset_grid(129))
        with pytest.raises(ValueError):
            evenness_residual(s)


class TestAntipodalHalf:
    @pytest.mark.parametrize("angles, offsets, half", [
        (full_circle_grid(32), offset_grid(129), 16),
        (full_circle_grid(2), offset_grid(129), 1),
        (full_circle_grid(31), offset_grid(129), None),
        (full_circle_grid(32), Grid1D(-1.6, 1.7, 129), None),
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
        want = disk.radon(SHORT_FULL.points()[:, None], offsets.points()[None, :])
        assert np.array_equal(s.values, want)


class TestTransposePartner:
    @pytest.mark.parametrize("angles", [
        full_circle_grid(4), full_circle_grid(8), full_circle_grid(192),
        Grid1D(math.pi / 64, math.pi / 64 + 63 * math.pi / 32, 64),
        Grid1D(-math.pi, math.pi - math.pi / 16, 32),
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
                                        Grid1D(0.1, 0.1 + 63 * math.pi / 32, 64)],
                             ids=["66", "130", "off_grid_start"])
    def test_none_when_pi_over_2_is_off_the_grid(self, angles):
        assert transpose_partner(angles) is None


def full_grid_reference(d, angles, offsets):
    """The whole-grid projection: one `d.radon` call over every sample, with
    the antipodal mirror on paired full turns."""
    values = d.radon(angles.points()[:, None], offsets.points()[None, :])
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
    "axes_full": Grid1D(0.0, 1.5 * math.pi, 4),  # 0, pi/2 and their antipodes
}

WINDOW_OFFSETS = {
    "margin_1.0": offset_grid(129, 1.0),
    "margin_1.7": offset_grid(200, 1.7),
    "edges_on_grid": Grid1D(-1.5, 1.5, 301),  # p = 0 and p = 1 are samples
    # samples 5e-10 beyond an edge, where the clipped chord is still a full
    # unit (within _EDGE_TOL) although the line misses the square
    "edges_plus_tol": Grid1D(-1.5 + 5e-10, 1.5 + 5e-10, 301),
    "edges_minus_tol": Grid1D(-1.5 - 5e-10, 1.5 - 5e-10, 301),
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
    """project evaluates d.radon only where a line can meet the unit square;
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
        offsets = Grid1D(-1.5 + shift, 1.5 + shift, 301)
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
