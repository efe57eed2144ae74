import math
import os
import re
import stat

import numpy as np
import pytest

from momentct import fileio
from momentct.density_recon import ReconGrid, reconstruct_grid
from momentct.errors import FormatError
from momentct.numerics import Grid1D
from momentct.phantoms import DiskDensity, MomentTable, UniformDensity
from momentct.projector import Sinogram, moment_angle_grid, offset_grid, project

#: values whose 17-digit text is easy to get wrong: signed zeros, the
#: smallest subnormal, huge and inexact values, and 2**53 + 1, which rounds
#: to 2**53 as a double
AWKWARD = [-0.0, 0.0, 5e-324, 1e-300, 1e20, 0.1, float(2**53 + 1), -2.5e-310]
NON_FINITE = [math.nan, math.inf, -math.inf]


def csv_reference(values):
    """Per-value 17-digit text, one line per row."""
    return [",".join(f"{float(x):.17g}" for x in row) for row in values]


def awkward_grid(cols):
    """A (3 x cols) array that uses every AWKWARD and NON_FINITE value."""
    pool = AWKWARD + NON_FINITE
    return np.array([[pool[(i * cols + j) % len(pool)] for j in range(cols)]
                     for i in range(3)])


@pytest.fixture
def sino():
    return project(UniformDensity(), moment_angle_grid(6), offset_grid(33))


class TestSinogramFormat:
    def test_roundtrip_is_lossless(self, sino, tmp_path):
        path = tmp_path / "s.csv"
        fileio.write_sinogram(sino, path)
        back = fileio.read_sinogram(path)
        assert back.kind == sino.kind
        assert np.array_equal(back.values, sino.values)
        assert back.angle_grid.count == sino.angle_grid.count
        assert back.angle_grid.start == pytest.approx(sino.angle_grid.start, abs=0)
        assert back.offset_grid.spacing == pytest.approx(sino.offset_grid.spacing, rel=1e-15)

    def test_header_field_pattern(self, sino, tmp_path):
        path = tmp_path / "s.csv"
        fileio.write_sinogram(sino, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("# sinogram kind=raw angles=6 offsets=33 theta0=")
        for field in ("dtheta=", "p0=", "dp="):
            assert field in header

    def test_malformed_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# not a sinogram\n1,2,3\n")
        with pytest.raises(FormatError):
            fileio.read_sinogram(bad)

    def test_truncated_payload(self, sino, tmp_path):
        path = tmp_path / "s.csv"
        fileio.write_sinogram(sino, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")
        with pytest.raises(FormatError):
            fileio.read_sinogram(path)

    def test_rewrite_is_byte_identical(self, sino, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        fileio.write_sinogram(sino, a)
        fileio.write_sinogram(fileio.read_sinogram(a), b)
        assert a.read_bytes() == b.read_bytes()


class TestMomentFormat:
    def test_roundtrip(self, tmp_path):
        table = MomentTable.from_density(UniformDensity(), 5)
        path = tmp_path / "m.csv"
        fileio.write_moments(table, path)
        back = fileio.read_moments(path)
        assert back.max_order == 5
        assert back.values == table.values

    def test_header(self, tmp_path):
        table = MomentTable.from_density(UniformDensity(), 3)
        path = tmp_path / "m.csv"
        fileio.write_moments(table, path)
        assert path.read_text().splitlines()[0] == "# moments K=3"

    def test_malformed(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# moments K=2\n0,0\n")
        with pytest.raises(FormatError):
            fileio.read_moments(bad)

    @pytest.mark.parametrize("row", ["1,0,abc", "x,0,1", "1.5,0,1", "1,0,1,2"])
    def test_bad_row_names_file_and_line(self, tmp_path, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"# moments K=1\n0,0,1\n{row}\n0,1,0.5\n")
        with pytest.raises(FormatError, match=re.escape(f"{bad}:3: malformed moment row ")):
            fileio.read_moments(bad)

    def test_repeated_moment_is_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# moments K=1\n0,0,1\n1,0,0.5\n0,1,0.5\n0,0,7\n")
        with pytest.raises(FormatError, match=re.escape(f"{bad}:5: repeated moment (0, 0)")):
            fileio.read_moments(bad)


class TestReconFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        rec = ReconGrid(5, rng.normal(size=(5, 5)), orders=(3, 4))
        path = tmp_path / "r.csv"
        fileio.write_recon_csv(rec, path)
        back = fileio.read_recon_csv(path)
        assert back.orders == (3, 4)
        assert np.array_equal(back.values, rec.values)


class TestPgm:
    def test_format_and_scaling(self, tmp_path):
        values = np.linspace(0.0, 2.0, 16).reshape(4, 4)
        path = tmp_path / "img.pgm"
        fileio.write_pgm(values, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1].startswith("# offset=0 scale=")
        assert lines[2] == "4 4"
        assert lines[3] == "255"
        pixels = [int(t) for row in lines[4:] for t in row.split()]
        assert min(pixels) == 0 and max(pixels) == 255

    def test_constant_image(self, tmp_path):
        path = tmp_path / "flat.pgm"
        fileio.write_pgm(np.full((3, 3), 7.25), path)
        lines = path.read_text().splitlines()
        pixels = [int(t) for row in lines[4:] for t in row.split()]
        assert set(pixels) == {0}


class TestWrittenText:
    """The writers' text equals a value-by-value reference."""

    def test_csv_rows_match_per_value_text(self):
        values = awkward_grid(11)
        assert fileio._csv_rows(values) == csv_reference(values)
        assert fileio._csv_rows(values)[0].startswith("-0,0,4.9406564584124654e-324,")

    @pytest.mark.parametrize("layout", ["transposed", "one_column", "one_row"])
    def test_csv_rows_any_layout(self, layout):
        base = awkward_grid(11)
        values = {"transposed": base.T, "one_column": base[:, :1],
                  "one_row": base[:1]}[layout]
        assert values.flags.c_contiguous == (layout == "one_row")
        assert fileio._csv_rows(values) == csv_reference(values)

    @pytest.mark.parametrize("rows", [
        [[1.5, -2.0], [1.5, -2.0], [1.5, -2.0], [0.25, 3.0], [1.5, -2.0]],
        [[-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]],
        [[math.nan, 1.0], [math.nan, 1.0], [1.0, math.nan], [1.0, math.nan]],
    ], ids=["repeated", "signed_zeros", "nan"])
    def test_csv_rows_repeated_rows(self, rows):
        values = np.array(rows)
        assert fileio._csv_rows(values) == csv_reference(values)

    def test_moment_image_text(self, tmp_path):
        # each row of a moment image repeats over its cell, about N / m times
        disk = DiskDensity.unit_mass(center=(0.35, 0.40), radius=0.18)
        rec = reconstruct_grid(MomentTable.from_density(disk, 6), 3, 3, 37)
        path = tmp_path / "m.csv"
        fileio.write_recon_csv(rec, path)
        assert path.read_text() == "\n".join(
            ["# recon N=37 m=3 n=3", *csv_reference(rec.values)]) + "\n"

    @pytest.mark.parametrize("transpose", [False, True], ids=["c_order", "transposed"])
    def test_sinogram_text(self, tmp_path, transpose):
        values = awkward_grid(11).T if transpose else awkward_grid(11)
        rows, cols = values.shape
        sino = Sinogram(angle_grid=Grid1D(0.1, 0.1 * rows, rows),
                        offset_grid=Grid1D(-1.5, 1.5, cols), values=values, kind="raw")
        assert sino.values.flags.c_contiguous != transpose
        path = tmp_path / "s.csv"
        fileio.write_sinogram(sino, path)
        header, *body = path.read_text().split("\n")
        assert header.startswith("# sinogram kind=raw")
        assert body == csv_reference(values) + [""]

    @pytest.mark.parametrize("resolution, transpose", [(11, False), (11, True), (1, False)],
                             ids=["c_order", "transposed", "one_column"])
    def test_recon_text(self, tmp_path, resolution, transpose):
        pool = np.array(AWKWARD + NON_FINITE)
        values = np.resize(pool, (resolution, resolution))
        values = values.T if transpose else values
        path = tmp_path / "r.csv"
        fileio.write_recon_csv(ReconGrid(resolution, values, orders=(2, 3)), path)
        assert path.read_text() == "\n".join(
            [f"# recon N={resolution} m=2 n=3", *csv_reference(values)]) + "\n"

    @pytest.mark.parametrize("shape", [(16, 16), (64, 4)])
    def test_pgm_text_covers_every_level(self, tmp_path, shape):
        # 0..255 with scale 1: each value is its own pixel level
        values = np.arange(256.0).reshape(shape)
        path = tmp_path / "levels.pgm"
        fileio.write_pgm(values, path)
        image = values.astype(int).T[::-1, :]
        assert path.read_text() == "\n".join([
            "P2", "# offset=0 scale=1", f"{shape[0]} {shape[1]}", "255",
            *(" ".join(str(p) for p in row) for row in image),
        ]) + "\n"

    def test_pgm_text_of_a_transposed_input(self, tmp_path):
        values = np.linspace(-3.0, 5.0, 7 * 13).reshape(7, 13).T
        path = tmp_path / "t.pgm"
        fileio.write_pgm(values, path)
        scale = 8.0 / 255.0
        pixels = np.clip(np.rint((values + 3.0) / scale), 0, 255).astype(int)
        lines = path.read_text().splitlines()
        assert lines[1] == f"# offset=-3 scale={scale:.17g}"
        assert lines[2] == "13 7"  # width, height
        assert lines[4:] == [" ".join(str(p) for p in row) for row in pixels.T[::-1, :]]


class TestPgmRejectsNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, bad):
        values = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        values[1, 2] = bad
        path = tmp_path / "bad.pgm"
        with pytest.raises(ValueError, match="finite"):
            fileio.write_pgm(values, path)
        assert list(tmp_path.iterdir()) == []

    def test_range_beyond_a_double(self, tmp_path):
        # finite values whose max - min overflows
        with pytest.raises(ValueError, match="finite"):
            fileio.write_pgm(np.array([[-1e308, 1e308]]), tmp_path / "wide.pgm")

    def test_subnormal_range_is_flat(self, tmp_path):
        # span / 255 underflows to 0: written as a flat image, not divided by 0
        path = tmp_path / "tiny.pgm"
        fileio.write_pgm(np.array([[0.0, 5e-324], [5e-324, 0.0]]), path)
        lines = path.read_text().splitlines()
        assert lines[1] == "# offset=0 scale=1"
        assert lines[4:] == ["0 0", "0 0"]


class TestPermissions:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_written_files_follow_the_umask(self, sino, tmp_path, umask, mode):
        path = tmp_path / "s.csv"
        previous = os.umask(umask)
        try:
            fileio.write_sinogram(sino, path)
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert list(tmp_path.iterdir()) == [path]  # no temp file left behind
