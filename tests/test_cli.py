import filecmp
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from momentct.cli import main

MINI_CONFIG = """
[phantom]
kind = uniform

[mollifier]
kernel = bump
epsilon = 0.08

[noise]
sigma = 0.01
seed = 3

[grids]
angles = 48
angle_cover = moment
offsets = 256
margin = 1.1

[moments]
K = 2

[recon]
method = both
m = 1
n = 1
resolution = 16

[output]
directory = {out}
"""

ARTIFACTS = [
    "sinogram.csv",
    "sinogram.pgm",
    "phantom.pgm",
    "moments.csv",
    "recon_moments.csv",
    "recon_moments.pgm",
    "recon_fbp.csv",
    "recon_fbp.pgm",
]


def write_config(tmp_path, name="run.ini", out="run_out", text=MINI_CONFIG):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / out))
    return path


class TestPipeline:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["pipeline", "-c", str(cfg)]) == 0
        outdir = tmp_path / "run_out"
        for name in ARTIFACTS:
            assert (outdir / name).exists(), name
        printed = capsys.readouterr().out
        assert "l1 norm" in printed
        assert "sup error" in printed
        assert "relative l2 error" in printed

    def test_reproducible_byte_for_byte(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["pipeline", "-c", str(cfg), "-o", str(tmp_path / "a")]) == 0
        assert main(["pipeline", "-c", str(cfg), "-o", str(tmp_path / "b")]) == 0
        for name in ARTIFACTS:
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name

    @staticmethod
    def assert_subcommands_compose_to_pipeline(tmp_path, cfg):
        out_pipe = tmp_path / "pipe"
        out_steps = tmp_path / "steps"
        assert main(["pipeline", "-c", str(cfg), "-o", str(out_pipe)]) == 0
        assert main(["project", "-c", str(cfg), "-o", str(out_steps)]) == 0
        assert main(["moments", "-c", str(cfg), "-o", str(out_steps),
                     str(out_steps / "sinogram.csv")]) == 0
        assert main(["reconstruct", "-c", str(cfg), "-o", str(out_steps),
                     str(out_steps / "moments.csv")]) == 0
        assert main(["reconstruct", "-c", str(cfg), "-o", str(out_steps),
                     str(out_steps / "sinogram.csv")]) == 0
        for name in ARTIFACTS:
            assert filecmp.cmp(out_pipe / name, out_steps / name, shallow=False), name

    def test_subcommands_compose_to_pipeline(self, tmp_path):
        self.assert_subcommands_compose_to_pipeline(tmp_path, write_config(tmp_path))

    def test_subcommands_compose_to_pipeline_on_a_raw_full_turn(self, tmp_path):
        # 48 angles over the full turn: the sinogram header's start and
        # spacing rebuild a stop one bit off the projected grid's, so the
        # in-memory hand-off must use the grid as the file records it
        text = MINI_CONFIG.replace("angle_cover = moment", "angle_cover = full") \
            .replace("sigma = 0.01", "sigma = 0") \
            .replace("[mollifier]\nkernel = bump\nepsilon = 0.08\n", "")
        cfg = write_config(tmp_path, text=text)
        self.assert_subcommands_compose_to_pipeline(tmp_path, cfg)


class TestErrorContracts:
    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[phantom]\nkind = uniform\nwat = 1\n")
        assert main(["project", "-c", str(cfg)]) == 2

    def test_unknown_phantom_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[phantom]\nkind = pyramid\n")
        assert main(["project", "-c", str(cfg)]) == 2

    def test_margin_below_one_exits_3(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[grids]\nmargin = 0.9\n[output]\ndirectory = {tmp_path/'o'}\n")
        assert main(["project", "-c", str(cfg)]) == 3

    def test_mollified_sinogram_without_kernel_block_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["project", "-c", str(cfg)]) == 0
        stripped = "\n".join(
            line for line in MINI_CONFIG.splitlines()
            if not line.startswith(("[mollifier]", "kernel", "epsilon"))
        )
        cfg2 = write_config(tmp_path, name="stripped.ini", text=stripped)
        code = main(["moments", "-c", str(cfg2),
                     str(tmp_path / "run_out" / "sinogram.csv")])
        assert code == 2

    def test_malformed_sinogram_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("no header here\n")
        cfg = write_config(tmp_path)
        assert main(["moments", "-c", str(cfg), str(bad)]) == 2

    def test_insufficient_moment_order_exits_5(self, tmp_path):
        # K = 2 moments cannot support an (m, n) = (2, 2) reconstruction
        cfg_text = MINI_CONFIG.replace("m = 1", "m = 2").replace("n = 1", "n = 2") \
            .replace("method = both", "method = moments")
        cfg = write_config(tmp_path, text=cfg_text)
        assert main(["project", "-c", str(cfg)]) == 0
        out = tmp_path / "run_out"
        assert main(["moments", "-c", str(cfg), str(out / "sinogram.csv")]) == 0
        assert main(["reconstruct", "-c", str(cfg), str(out / "moments.csv")]) == 5

    def test_missing_file_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["moments", "-c", str(cfg), str(tmp_path / "nope.csv")]) == 2

    def test_removed_line_step_factor_key_exits_2(self, tmp_path):
        cfg = tmp_path / "old.ini"
        cfg.write_text(f"[grids]\nline_step_factor = 0.25\n[output]\ndirectory = {tmp_path/'o'}\n")
        assert main(["project", "-c", str(cfg)]) == 2

    def test_removed_moment_window_key_exits_2(self, tmp_path):
        cfg = tmp_path / "old.ini"
        cfg.write_text(f"[moments]\nwindow = full\n[output]\ndirectory = {tmp_path/'o'}\n")
        assert main(["project", "-c", str(cfg)]) == 2

    def test_non_finite_sinogram_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["project", "-c", str(cfg)]) == 0
        out = tmp_path / "run_out"
        sino = out / "sinogram.csv"
        header, *rows = sino.read_text().splitlines()
        rows = [",".join(["nan" if j == 100 else v for j, v in enumerate(row.split(","))])
                for row in rows]
        sino.write_text("\n".join([header, *rows]) + "\n")
        assert main(["moments", "-c", str(cfg), str(sino)]) == 2
        assert not (out / "moments.csv").exists()
        assert main(["reconstruct", "-c", str(cfg), str(sino)]) == 2
        assert not (out / "recon_fbp.csv").exists()

    def test_non_finite_moments_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["project", "-c", str(cfg)]) == 0
        out = tmp_path / "run_out"
        assert main(["moments", "-c", str(cfg), str(out / "sinogram.csv")]) == 0
        moments = out / "moments.csv"
        header, first, *rest = moments.read_text().splitlines()
        moments.write_text("\n".join([header, "0,0,inf", *rest]) + "\n")
        assert main(["reconstruct", "-c", str(cfg), str(moments)]) == 2
        assert not (out / "recon_moments.csv").exists()

    @pytest.mark.parametrize("old, new", [
        ("sigma = 0.01", "sigma = nan"),
        ("[output]", "[filter]\ncutoff = nan\n[output]"),
        ("epsilon = 0.08", "epsilon = inf"),
        ("kind = uniform", "kind = disk\nradius = nan"),
        ("kind = uniform", "kind = disk\ncenter = 0.5, nan"),
        ("kind = uniform", "kind = disk\namplitude = nan"),
        ("kind = uniform", "kind = disks\ndisks = 0.5,0.5,0.2,nan"),
        ("kind = uniform", "kind = polynomial\ncoeffs = 0,0:1; 1,0:nan"),
    ], ids=["sigma", "cutoff", "epsilon", "radius", "center", "amplitude",
            "disk-list", "coeffs"])
    def test_non_finite_config_float_exits_2_before_any_artifact(
            self, tmp_path, capsys, old, new):
        cfg = write_config(tmp_path, text=MINI_CONFIG.replace(old, new))
        assert main(["pipeline", "-c", str(cfg)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("ini, message", [
        ("[filter]\nreg_floor = -1\n", "filter reg_floor must be nonnegative, got -1.0"),
        ("[filter]\ncutoff = -5\n", "filter cutoff must be positive, got -5.0"),
        ("[filter]\ncutoff = 0\n", "filter cutoff must be positive, got 0.0"),
    ], ids=["reg-floor", "cutoff", "zero-cutoff"])
    def test_filter_bound_exits_2_before_any_artifact(self, tmp_path, capsys, ini, message):
        cfg = write_config(tmp_path, text=MINI_CONFIG.replace("[output]", ini + "[output]"))
        assert main(["pipeline", "-c", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--reg-floor", "-1", "filter reg_floor must be nonnegative"),
        ("--cutoff", "-5", "filter cutoff must be positive"),
    ])
    def test_filter_bound_flag_exits_2_before_any_artifact(self, tmp_path, capsys, flag,
                                                           value, message):
        cfg = write_config(tmp_path, text=MINI_CONFIG.replace("method = both", "method = fbp"))
        assert main(["project", "-c", str(cfg)]) == 0
        out = tmp_path / "run_out"
        before = sorted(out.iterdir())
        capsys.readouterr()
        assert main(["reconstruct", "-c", str(cfg), str(out / "sinogram.csv"),
                     flag, value]) == 2
        assert message in capsys.readouterr().err
        assert sorted(out.iterdir()) == before

    def test_non_finite_sigma_flag_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["pipeline", "-c", str(cfg), "--sigma", "nan"]) == 2
        assert "[noise] sigma must be finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    def test_non_finite_image_is_not_exported_as_pgm(self, tmp_path, capsys):
        # finite moments whose approximant overflows: m = n = 1 scales
        # gamma(1, 1) by 4 in every cell
        cfg = write_config(tmp_path)
        moments = tmp_path / "huge.csv"
        moments.write_text("# moments K=2\n0,0,0\n1,0,0\n0,1,0\n2,0,0\n1,1,1e308\n0,2,0\n")
        assert main(["reconstruct", "-c", str(cfg), str(moments)]) == 2
        assert "PGM export needs finite values" in capsys.readouterr().err
        assert not (tmp_path / "run_out" / "recon_moments.pgm").exists()

    def test_non_finite_image_leaves_no_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        moments = tmp_path / "huge.csv"
        moments.write_text("# moments K=2\n0,0,0\n1,0,0\n0,1,0\n2,0,0\n1,1,1e308\n0,2,0\n")
        assert main(["reconstruct", "-c", str(cfg), str(moments)]) == 2
        assert not (tmp_path / "run_out" / "recon_moments.csv").exists()


class TestProjectReport:
    @pytest.mark.parametrize("cover, span", [
        ("moment", 47 * math.pi / 49),  # 48 angles pi (i+1)/49: the sampled span
        ("full", 2 * math.pi),          # periodic closure over the whole turn
    ], ids=["moment", "full"])
    def test_l1_line_compares_with_the_integrated_span(self, tmp_path, capsys, cover, span):
        text = MINI_CONFIG.replace("angle_cover = moment", f"angle_cover = {cover}")
        cfg = write_config(tmp_path, text=text)
        assert main(["project", "-c", str(cfg), "--sigma", "0"]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("l1 norm"))
        match = re.fullmatch(r"l1 norm: (\S+) \(mass \* angle span = (\S+)\)", line)
        assert match, line
        l1, reference = float(match[1]), float(match[2])
        assert reference == pytest.approx(span, abs=1e-6)  # unit-mass phantom
        assert l1 == pytest.approx(reference, rel=1e-3)


class TestFlags:
    def test_angles_auto_flag(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run_out"
        assert main(["project", "-c", str(cfg)]) == 0
        assert main(["moments", "-c", str(cfg), "--angles-auto", "1",
                     str(out / "sinogram.csv")]) == 0
        header = (out / "moments.csv").read_text().splitlines()[0]
        assert header == "# moments K=1"

    def test_explicit_angle_list(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run_out"
        assert main(["project", "-c", str(cfg)]) == 0
        assert main(["moments", "-c", str(cfg), "--angles", "0.8,1.6,2.4",
                     str(out / "sinogram.csv")]) == 0
        header = (out / "moments.csv").read_text().splitlines()[0]
        assert header == "# moments K=2"

    def test_shipped_demo_config_parses(self):
        from momentct.config import load_config

        demo = Path(__file__).resolve().parents[1] / "configs" / "uniform_demo.ini"
        cfg = load_config(demo)
        assert cfg.phantom.kind == "uniform"
        assert cfg.recon.method == "both"

    def test_moment_deviation_grows_with_noise(self, tmp_path):
        # at a fixed seed the injected noise scales linearly with sigma, so
        # the moment-table deviation from the noiseless run must too
        from momentct.fileio import read_moments

        cfg = write_config(tmp_path)
        tables = {}
        for sigma in (0.0, 0.01, 0.05):
            out = tmp_path / f"s{sigma}"
            assert main(["project", "-c", str(cfg), "-o", str(out),
                         "--sigma", str(sigma)]) == 0
            assert main(["moments", "-c", str(cfg), "-o", str(out),
                         str(out / "sinogram.csv")]) == 0
            tables[sigma] = read_moments(out / "moments.csv")

        def deviation(sigma):
            base = tables[0.0].values
            return max(abs(v - base[k]) for k, v in tables[sigma].values.items())

        assert 0.0 < deviation(0.01) < deviation(0.05)


class TestScripts:
    def test_run_demo_from_a_plain_checkout(self, tmp_path):
        # no PYTHONPATH and a foreign working directory: the script must find
        # the package in the checkout's src by itself
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_demo.py"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = tmp_path / "demo_out"
        done = subprocess.run([sys.executable, str(script), "-o", str(out)], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
