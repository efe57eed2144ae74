import math
import os
import re
import stat
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from momentct import fileio
from momentct.density_recon import ReconGrid, reconstruct_grid
from momentct.errors import FormatError
from momentct.mollifiers import make_kernel
from momentct.numerics import Grid1D
from momentct.phantoms import DiskDensity, MomentTable, UniformDensity
from momentct.projector import (
    Sinogram,
    full_circle_grid,
    moment_angle_grid,
    mollify,
    offset_grid,
    project,
)

#: values whose 17-digit text is easy to get wrong: signed zeros, the
#: smallest subnormal, huge and inexact values, and 2**53 + 1, which rounds
#: to 2**53 as a double
AWKWARD = [-0.0, 0.0, 5e-324, 1e-300, 1e20, 0.1, float(2**53 + 1), -2.5e-310]
NON_FINITE = [math.nan, math.inf, -math.inf]


def csv_reference(values):
    """Per-value 17-digit text, one line of ASCII bytes per row."""
    return [",".join(f"{float(x):.17g}" for x in row).encode() for row in values]


def csv_rows(values):
    """The rows of the text `_csv_chunks` makes, without their newlines."""
    text = b"".join(fileio._csv_chunks(values))
    assert text.endswith(b"\n") or text == b""
    return text.split(b"\n")[:-1]


def assert_percent_text(values):
    """`_csv_chunks` gives `"%.17g" % v` for every value, row by row."""
    lines = [line.decode("ascii") for line in csv_rows(values)]
    assert len(lines) == len(values)
    for row, line in zip(values.tolist(), lines):
        expected = ",".join(["%.17g" % v for v in row])
        if line != expected:
            wrong = [(v, got, want) for v, got, want
                     in zip(row, line.split(","), expected.split(",")) if got != want]
            pytest.fail(f"(value, text, %.17g text): {wrong[:5]}")


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
        assert "kernel=" not in header and "epsilon=" not in header

    @pytest.mark.parametrize("angles", [moment_angle_grid(6), full_circle_grid(48)],
                             ids=["moment", "full"])
    def test_recorded_is_what_the_file_reads_back(self, tmp_path, angles):
        # on the full turn the recorded stop is one bit off the projected one
        s = project(UniformDensity(), angles, offset_grid(33))
        path = tmp_path / "s.csv"
        assert fileio.write_sinogram(s, path) is None
        back, stored = fileio.read_sinogram(path), fileio.recorded(s)
        assert (stored.angle_grid, stored.offset_grid) == (back.angle_grid, back.offset_grid)
        assert stored.values is s.values and stored.kind == back.kind

    def test_mollified_roundtrip_carries_the_kernel(self, sino, tmp_path):
        m = make_kernel("cosine", 0.25)
        mol = mollify(sino, m)
        path = tmp_path / "s.csv"
        assert fileio.recorded(mol).kernel is m
        fileio.write_sinogram(mol, path)
        fileio.write_sinogram(sino, tmp_path / "raw.csv")
        raw_header = (tmp_path / "raw.csv").read_text().splitlines()[0]
        assert path.read_text().splitlines()[0] == \
            raw_header.replace("kind=raw", "kind=mollified") + " kernel=cosine epsilon=0.25"
        back = fileio.read_sinogram(path)
        assert back.kind == "mollified"
        assert back.kernel == m
        assert np.array_equal(back.values, mol.values)
        fileio.write_sinogram(back, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_malformed_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# not a sinogram\n1,2,3\n")
        with pytest.raises(FormatError):
            fileio.read_sinogram(bad)

    @pytest.mark.parametrize("keep, message", [
        (3, ":4: file ends after 2 of 6 rows"),
        (-1, ":7: file ends after 5 of 6 rows"),
    ], ids=["three-lines", "last-row"])
    def test_truncated_payload(self, sino, tmp_path, keep, message):
        path = tmp_path / "s.csv"
        fileio.write_sinogram(sino, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:keep]) + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}{message}")):
            fileio.read_sinogram(path)

    def test_oversized_header_fails_at_the_file_end(self, tmp_path):
        # 1e9 x 1e9 values: no array is sized from the header's counts
        path = tmp_path / "s.csv"
        path.write_text("# sinogram kind=raw angles=1000000000 offsets=1000000000 "
                        "theta0=0.5 dtheta=0.5 p0=-1.5 dp=1\n")
        with pytest.raises(FormatError,
                           match=re.escape(f"{path}:2: file ends after 0 of 1000000000 rows")):
            fileio.read_sinogram(path)

    @pytest.mark.parametrize("tail", ["", "\n", "   \n\n"], ids=["none", "newline", "blank"])
    def test_blank_lines_after_the_rows_are_accepted(self, sino, tmp_path, tail):
        path = tmp_path / "s.csv"
        fileio.write_sinogram(sino, path)
        with open(path, "a") as fh:
            fh.write(tail)
        assert np.array_equal(fileio.read_sinogram(path).values, sino.values)

    def test_row_after_the_declared_rows_names_file_and_line(self, tmp_path):
        # a 3 x 4 sinogram and one more row
        s = Sinogram(angle_grid=Grid1D(0.5, 1.5, 3), offset_grid=Grid1D(-1.5, 1.5, 4),
                     values=np.arange(12.0).reshape(3, 4), kind="raw")
        path = tmp_path / "s.csv"
        fileio.write_sinogram(s, path)
        with open(path, "a") as fh:
            fh.write("\n9,9,9,9\n")
        with pytest.raises(FormatError,
                           match=re.escape(f"{path}:6: text after the 3 declared rows")):
            fileio.read_sinogram(path)

    @pytest.mark.parametrize("row", ["1,2,3,", "1,,2,3", "1,2,3,4junk", "1;2;3;4", ""],
                             ids=["trailing-comma", "empty-value", "junk", "semicolons", "blank"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        # a trailing comma once read as one more value, -1
        path = tmp_path / "s.csv"
        s = Sinogram(angle_grid=Grid1D(0.5, 1.5, 3), offset_grid=Grid1D(-1.5, 1.5, 4),
                     values=np.arange(12.0).reshape(3, 4), kind="raw")
        fileio.write_sinogram(s, path)
        header, first, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, first, row, *rest[1:]]) + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:3: malformed row 1: ")):
            fileio.read_sinogram(path)

    @pytest.mark.parametrize("field, value", [
        ("dp", "1e308"), ("p0", "-inf"), ("dtheta", "inf"), ("theta0", "nan"),
    ])
    def test_non_finite_grid_is_a_format_error(self, sino, tmp_path, field, value):
        path = tmp_path / "s.csv"
        fileio.write_sinogram(sino, path)
        text = path.read_text()
        path.write_text(re.sub(rf" {field}=\S+", f" {field}={value}", text, count=1))
        with pytest.raises(FormatError, match="finite start, stop and spacing"):
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

    def test_negative_index_is_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# moments K=1\n0,0,1\n1,0,0.5\n0,1,0.5\n-1,0,7\n")
        with pytest.raises(FormatError, match=re.escape("entry (-1, 0) has a negative index")):
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

    def test_row_after_the_declared_rows_names_file_and_line(self, tmp_path):
        rec = ReconGrid(3, np.arange(9.0).reshape(3, 3))
        path = tmp_path / "r.csv"
        fileio.write_recon_csv(rec, path)
        with open(path, "a") as fh:
            fh.write("9,9,9\n")
        with pytest.raises(FormatError,
                           match=re.escape(f"{path}:5: text after the 3 declared rows")):
            fileio.read_recon_csv(path)

    def test_oversized_header_fails_at_the_file_end(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("# recon N=1000000000\n")
        with pytest.raises(FormatError,
                           match=re.escape(f"{path}:2: file ends after 0 of 1000000000 rows")):
            fileio.read_recon_csv(path)

    def test_short_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("# recon N=2\n1,2\n3\n")
        with pytest.raises(FormatError,
                           match=re.escape(f"{path}:3: row 1 has 1 values, expected 2")):
            fileio.read_recon_csv(path)


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
        assert csv_rows(values) == csv_reference(values)
        assert csv_rows(values)[0].startswith(b"-0,0,4.9406564584124654e-324,")

    @pytest.mark.parametrize("layout", ["transposed", "one_column", "one_row"])
    def test_csv_rows_any_layout(self, layout):
        base = awkward_grid(11)
        values = {"transposed": base.T, "one_column": base[:, :1],
                  "one_row": base[:1]}[layout]
        assert values.flags.c_contiguous == (layout == "one_row")
        assert csv_rows(values) == csv_reference(values)

    @pytest.mark.parametrize("rows", [
        [[1.5, -2.0], [1.5, -2.0], [1.5, -2.0], [0.25, 3.0], [1.5, -2.0]],
        [[-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]],
        [[math.nan, 1.0], [math.nan, 1.0], [1.0, math.nan], [1.0, math.nan]],
    ], ids=["repeated", "signed_zeros", "nan"])
    def test_csv_rows_repeated_rows(self, rows):
        values = np.array(rows)
        assert csv_rows(values) == csv_reference(values)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20261018).integers(0, 2**64, size=(1024, 1024),
                                                        dtype=np.uint64)
        assert_percent_text(bits.view(np.float64))

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([float(f"1e{j}") for j in range(-300, 301)])
        below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
        assert_percent_text(np.stack([below, powers, above, -below, -powers, -above]))

    def test_rounding_that_carries_into_the_next_decade(self):
        # doubles just below 10**j whose 17-digit rounding is 1e{j}
        carried = []
        for j in range(-279, 280):
            power = float(f"1e{j}")
            for v in (power, float(np.nextafter(power, 0.0))):
                if Fraction(v) < Fraction(10) ** j and "%.16e" % v == f"{power:.16e}":
                    carried.append(v)
        assert len(carried) >= 10
        assert_percent_text(np.array([carried, [-v for v in carried]]))

    def test_range_limits_and_subnormals(self):
        smallest_normal = np.finfo(np.float64).tiny
        values = [1e280, 1e-280, smallest_normal, np.nextafter(smallest_normal, 0.0),
                  5e-324, np.finfo(np.float64).max]
        values += [np.nextafter(v, 0.0) for v in (1e280, 1e-280)]
        values += [np.nextafter(v, np.inf) for v in (1e280, 1e-280)]
        assert_percent_text(np.array([values, [-v for v in values]]))

    def test_large_integers_and_rounding_ties(self):
        integers = [float(2**53 + 2 * i) for i in range(1000)]
        integers += [float(2**56 + 16 * i) for i in range(1000)]
        integers += [float(10**17 - 16 * i) for i in range(1, 1000)]
        # m / 2**(17 - k) with m odd has exactly 18 significant digits, the
        # last a 5: a tie that `%.17g` rounds to even.  (Doubles from 2**53 to
        # 2**57 are integers, so none of them is a tie.)
        ties = []
        for k in range(-8, 16):
            scale = 2 ** (17 - k)
            first = math.ceil(10**k * scale) | 1
            for m in range(first, min(first + 400, math.ceil(10 ** (k + 1) * scale)), 2):
                ties.append(m / scale)
        for v in ties:
            digits = Decimal(v).normalize().as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        assert_percent_text(np.array(integers)[None, :])
        assert_percent_text(np.array([ties, [-v for v in ties]]))

    def test_zeros_and_non_finite(self):
        values = np.array([[0.0, -0.0, math.nan, math.inf, -math.inf, 1.5],
                           [-math.inf, 2.5e-7, -0.0, math.nan, 0.0, -1e300]])
        assert_percent_text(values)

    @pytest.mark.parametrize("layout", ["one_row", "one_column", "transposed"])
    def test_layouts_of_many_blocks(self, layout):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(40000) * 10.0 ** rng.integers(-30, 30, 40000)
        values[::7] = 0.0
        values = {"one_row": values[None, :], "one_column": values[:, None],
                  "transposed": values.reshape(200, 200).T}[layout]
        assert_percent_text(values)

    def test_near_ties(self):
        # values whose D = x * 10**(16 - k) lies within 1e-16 of a
        # half-integer, closer than the error of p + t.  For x = m * 2**e and
        # k = s + 16, D = m * 2**(e - s) / 5**s, whose fraction is
        # 1/2 -+ r / (2 * 5**s), r odd, when m * 2**(e - s) = (5**s -+ r) / 2
        # modulo 5**s.
        ties = []
        for s in range(23, 32):
            k, modulus = s + 16, 5**s
            reach = min(int(2e-16 * modulus), 1000)
            lowest, highest = math.log2(10**k) - 53, math.log2(10 ** (k + 1)) - 51
            for e in range(math.floor(lowest), math.ceil(highest)):
                inverse = pow(2 ** (e - s), -1, modulus)
                for r in range(1, reach + 1, 2):
                    for target in ((modulus - r) // 2, (modulus + r) // 2):
                        m = target * inverse % modulus
                        if 2**52 <= m < 2**53 and 10**k <= m * 2**e < 10 ** (k + 1):
                            ties.append(math.ldexp(m, e))
        assert len(ties) >= 5
        for v in ties:
            scaled = Fraction(v) / Fraction(10) ** (math.floor(math.log10(v)) - 16)
            assert abs(scaled - math.floor(scaled) - Fraction(1, 2)) < 1e-16
        assert_percent_text(np.array([ties, [-v for v in ties]]))

    def test_fallback_formats_no_ordinary_value(self, monkeypatch):
        formatted = []
        percent_text = fileio._percent_text

        def spy(values):
            formatted.extend(values)
            return percent_text(values)

        monkeypatch.setattr(fileio, "_percent_text", spy)
        values = np.random.default_rng(1).standard_normal((128, 512))
        assert csv_rows(values) == csv_reference(values)
        assert formatted == []
        # next to a power of ten, where log10 may round k the wrong way, the
        # redo keeps the value on the fast path; only an exact power of ten
        # (p + t may land on either side of the decade) and an exact tie fall
        # back
        powers = [float(f"1e{j}") for j in range(-279, 280)]
        values = np.array([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        assert_percent_text(values)
        for v in formatted:
            digits = Decimal(v).normalize().as_tuple().digits
            assert v in powers or (len(digits) == 18 and digits[-1] == 5), v
        # the spy sees what the fast path leaves out
        formatted.clear()
        csv_rows(np.array([[1.0, math.nan, 5e-324]]))
        assert len(formatted) == 2 and math.isnan(formatted[0]) and formatted[1] == 5e-324

    def test_moment_image_text(self, tmp_path):
        # each row of a moment image repeats over its cell, about N / m times
        disk = DiskDensity.unit_mass(center=(0.35, 0.40), radius=0.18)
        rec = reconstruct_grid(MomentTable.from_density(disk, 6), 3, 3, 37)
        path = tmp_path / "m.csv"
        fileio.write_recon_csv(rec, path)
        assert path.read_bytes() == b"\n".join(
            [b"# recon N=37 m=3 n=3", *csv_reference(rec.values)]) + b"\n"

    @pytest.mark.parametrize("transpose", [False, True], ids=["c_order", "transposed"])
    def test_sinogram_text(self, tmp_path, transpose):
        values = awkward_grid(11).T if transpose else awkward_grid(11)
        rows, cols = values.shape
        sino = Sinogram(angle_grid=Grid1D(0.1, 0.1 * rows, rows),
                        offset_grid=Grid1D(-1.5, 1.5, cols), values=values, kind="raw")
        assert sino.values.flags.c_contiguous != transpose
        path = tmp_path / "s.csv"
        fileio.write_sinogram(sino, path)
        header, *body = path.read_bytes().split(b"\n")
        assert header.startswith(b"# sinogram kind=raw")
        assert body == csv_reference(values) + [b""]

    @pytest.mark.parametrize("resolution, transpose", [(11, False), (11, True), (1, False)],
                             ids=["c_order", "transposed", "one_column"])
    def test_recon_text(self, tmp_path, resolution, transpose):
        pool = np.array(AWKWARD + NON_FINITE)
        values = np.resize(pool, (resolution, resolution))
        values = values.T if transpose else values
        path = tmp_path / "r.csv"
        fileio.write_recon_csv(ReconGrid(resolution, values, orders=(2, 3)), path)
        assert path.read_bytes() == b"\n".join(
            [b"# recon N=%d m=2 n=3" % resolution, *csv_reference(values)]) + b"\n"

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


def traced_peak(call):
    """The traced peak of call(), run once first to build the cached tables."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreaming:
    """The writers make and write their text one block of rows at a time."""

    @pytest.mark.parametrize("rows, cols", [(256, 1024), (512, 2048)])
    @pytest.mark.parametrize("writer", ["sinogram", "recon", "pgm"])
    def test_traced_peak_is_bounded_by_the_blocks(self, tmp_path, writer, rows, cols):
        # whole-file text and whole-grid temporaries peaked at 5-13 MB on
        # 256 x 1024 values and 21-51 MB on 512 x 2048; the values
        # themselves, 2 and 8 MB, are not traced here
        values = np.random.default_rng(5).standard_normal((rows, cols))
        if writer == "sinogram":
            sino = Sinogram(angle_grid=moment_angle_grid(rows), offset_grid=offset_grid(cols),
                            values=values, kind="raw")
            peak = traced_peak(lambda: fileio.write_sinogram(sino, tmp_path / "s.csv"))
        elif writer == "recon":
            side = math.isqrt(rows * cols)  # a square image of as many values
            rec = ReconGrid(side, values.reshape(side, side))
            peak = traced_peak(lambda: fileio.write_recon_csv(rec, tmp_path / "r.csv"))
        else:
            peak = traced_peak(lambda: fileio.write_pgm(values, tmp_path / "v.pgm"))
        assert peak < 2.5e6

    @pytest.mark.parametrize("rows", [
        # runs of repeats that straddle the 2-row blocks, and a repeat of a
        # row two blocks back
        [[1.5, -2.0, 0.0]] * 5 + [[0.25, 3.0, 1.0]] * 2 + [[1.5, -2.0, 0.0]] * 3,
        [[-0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [-0.0, 1.0, 2.0]],
        [[7.0, 8.0, 9.0]] * 7,
        [[math.nan, 1.0, math.inf]] * 3 + [[1.0, math.nan, -math.inf]] * 3,
    ], ids=["runs", "signed_zeros", "one_run", "non_finite"])
    def test_repeated_rows_across_blocks(self, monkeypatch, rows):
        monkeypatch.setattr(fileio, "_BLOCK", 6)
        values = np.array(rows)
        chunks = list(fileio._csv_chunks(values))
        assert b"".join(chunks).split(b"\n")[:-1] == csv_reference(values)
        # each chunk is whole rows, at most one block of them
        assert all(chunk.endswith(b"\n") and 1 <= chunk.count(b"\n") <= 2
                   for chunk in chunks)

    @pytest.mark.parametrize("shape", [(5, 11), (1, 23), (23, 1), (1, 1)],
                             ids=["row_wider_than_a_block", "one_row", "one_column",
                                  "one_value"])
    def test_blocks_of_any_shape(self, monkeypatch, shape):
        monkeypatch.setattr(fileio, "_BLOCK", 4)
        pool = AWKWARD + NON_FINITE
        values = np.resize(np.array(pool), shape)
        values[1:2] = values[:1]  # a repeat, where there are two rows
        chunks = list(fileio._csv_chunks(values))
        assert b"".join(chunks).split(b"\n")[:-1] == csv_reference(values)
        step = max(1, 4 // shape[1])
        assert all(chunk.endswith(b"\n") and 1 <= chunk.count(b"\n") <= step
                   for chunk in chunks)

    def test_pgm_rows_across_blocks(self, monkeypatch, tmp_path):
        # 13 image rows of 7 pixels in blocks of one row, then of two
        values = np.linspace(-3.0, 5.0, 7 * 13).reshape(7, 13)
        scale = 8.0 / 255.0
        pixels = np.clip(np.rint((values + 3.0) / scale), 0, 255).astype(int)
        expected = [" ".join(str(p) for p in row) for row in pixels.T[::-1, :]]
        for block in (5, 14):
            monkeypatch.setattr(fileio, "_BLOCK", block)
            fileio.write_pgm(values, tmp_path / "b.pgm")
            assert (tmp_path / "b.pgm").read_text().splitlines()[4:] == expected

    def test_a_failing_chunk_leaves_no_file(self, tmp_path):
        def chunks():
            yield b"partial"
            raise RuntimeError("mid-write")
        with pytest.raises(RuntimeError, match="mid-write"):
            fileio._atomic_write(tmp_path / "f.csv", chunks())
        assert list(tmp_path.iterdir()) == []


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
