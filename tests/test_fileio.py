import os
import stat

import numpy as np
import pytest

from momentct import fileio
from momentct.density_recon import ReconGrid
from momentct.errors import FormatError
from momentct.phantoms import MomentTable, UniformDensity
from momentct.projector import Sinogram, moment_angle_grid, offset_grid, project


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
