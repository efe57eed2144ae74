import filecmp
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from momentct import cli, config, phantoms
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


#: MINI_CONFIG smoothed by a narrower kernel, and not smoothed at all
SMOOTHED_005 = MINI_CONFIG.replace("epsilon = 0.08", "epsilon = 0.05")
WITHOUT_MOLLIFIER = MINI_CONFIG.replace("[mollifier]\nkernel = bump\nepsilon = 0.08\n", "")


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

    def test_does_not_import_numpy_ma(self, tmp_path):
        # np.unique and np.median import numpy.ma (about 17 ms and 1.3 MB) on
        # their first call; only a fresh interpreter shows whether a run does
        code = ("import sys\nfrom momentct.cli import main\n"
                f"assert main(['pipeline', '-c', {str(write_config(tmp_path))!r}]) == 0\n"
                "assert 'numpy.ma' not in sys.modules, 'the run imported numpy.ma'\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_marginal_kernel_is_reported_once(self, tmp_path):
        # eps = 0.008 is below twice the 0.0122 offset spacing; only `mollify`,
        # which applies the kernel, says so, although three stages sample it
        marginal = write_config(tmp_path, text=MINI_CONFIG.replace("epsilon = 0.08",
                                                                   "epsilon = 0.008"))
        code = ("import sys\nfrom momentct.cli import main\n"
                f"sys.exit(main(['pipeline', '-c', {str(marginal)!r}]))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-W", "always", "-c", code], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr.count("ResolutionWarning: kernel width 0.008 below twice the "
                                 "grid spacing 0.0122") == 1, done.stderr

    def test_reproducible_byte_for_byte(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["pipeline", "-c", str(cfg), "-o", str(tmp_path / "a")]) == 0
        assert main(["pipeline", "-c", str(cfg), "-o", str(tmp_path / "b")]) == 0
        for name in ARTIFACTS:
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name

    def test_builds_the_kernel_and_the_phantom_once(self, tmp_path, monkeypatch):
        # MINI_CONFIG smooths and runs every stage: project, the moment
        # deconvolution and both reconstructions use the same two objects
        calls = {"make_kernel": 0, "make_density": 0}
        make_kernel, make_density = config.make_kernel, config.RunConfig.make_density

        def counted_kernel(*args, **kwargs):
            calls["make_kernel"] += 1
            return make_kernel(*args, **kwargs)

        def counted_density(self):
            calls["make_density"] += 1
            return make_density(self)

        monkeypatch.setattr(config, "make_kernel", counted_kernel)
        monkeypatch.setattr(config.RunConfig, "make_density", counted_density)
        assert main(["pipeline", "-c", str(write_config(tmp_path))]) == 0
        assert calls == {"make_kernel": 1, "make_density": 1}

    def test_evaluates_the_phantom_image_once(self, tmp_path, monkeypatch):
        # phantom.pgm, the sup error and the relative L2 error share one
        # evaluation at the pixel centers; project's own calls do not count
        outside, in_project = [], []
        evaluate, project = phantoms.UniformDensity.evaluate, cli.project

        def counted(self, x1, x2):
            if not in_project:
                outside.append(np.shape(x1))
            return evaluate(self, x1, x2)

        def flagged(*args, **kwargs):
            in_project.append(True)
            try:
                return project(*args, **kwargs)
            finally:
                in_project.pop()

        monkeypatch.setattr(phantoms.UniformDensity, "evaluate", counted)
        monkeypatch.setattr(cli, "project", flagged)
        assert main(["pipeline", "-c", str(write_config(tmp_path))]) == 0  # method = both
        assert outside == [(16, 1)]  # x1 on the broadcast axes, not a 16 x 16 grid

    def test_phantom_without_a_modulus_skips_its_sup_norm(self, tmp_path, capsys, monkeypatch):
        # the bound needs a modulus of continuity, which disks lack; their sup
        # norm, a 257^2 grid evaluation, would only feed that bound
        def sup_norm(self):
            raise AssertionError("sup norm evaluated")

        monkeypatch.setattr(phantoms.SumOfDisksDensity, "sup_norm", property(sup_norm))
        text = MINI_CONFIG.replace("kind = uniform", "kind = disks\ndisks = 0.5,0.5,0.2")
        assert main(["pipeline", "-c", str(write_config(tmp_path, text=text))]) == 0
        assert "sup error bound: n/a (phantom not uniformly continuous)\n" \
            in capsys.readouterr().out

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
        text = WITHOUT_MOLLIFIER.replace("angle_cover = moment", "angle_cover = full") \
            .replace("sigma = 0.01", "sigma = 0")
        cfg = write_config(tmp_path, text=text)
        self.assert_subcommands_compose_to_pipeline(tmp_path, cfg)

    def test_inverses_take_the_kernel_from_the_sinogram_file(self, tmp_path, capsys):
        # smoothed at eps = 0.05; a config at 0.08, or with no [mollifier]
        # section, must not change what moments and reconstruct make of it
        matched = write_config(tmp_path, name="matched.ini", text=SMOOTHED_005)
        assert main(["project", "-c", str(matched), "-o", str(tmp_path / "data")]) == 0
        sino = tmp_path / "data" / "sinogram.csv"
        configs = {"matched": matched,
                   "wider": write_config(tmp_path, name="wider.ini"),
                   "none": write_config(tmp_path, name="none.ini", text=WITHOUT_MOLLIFIER)}
        printed = {}
        for name, cfg in configs.items():
            out = tmp_path / name
            capsys.readouterr()
            for args in (["moments", str(sino)], ["reconstruct", str(out / "moments.csv")],
                         ["reconstruct", str(sino)]):
                assert main([args[0], "-c", str(cfg), "-o", str(out), args[1]]) == 0, \
                    (name, args)
            printed[name] = capsys.readouterr().out.replace(str(out), "OUT")
        assert "filter=modified_riesz" in printed["matched"]
        for name in ("wider", "none"):
            assert printed[name] == printed["matched"], name
            for artifact in ARTIFACTS[3:]:
                assert filecmp.cmp(tmp_path / "matched" / artifact, tmp_path / name / artifact,
                                   shallow=False), (name, artifact)


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

    @pytest.mark.parametrize("command", ["moments", "reconstruct"])
    def test_filtered_sinogram_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        assert main(["project", "-c", str(cfg)]) == 0
        sino = tmp_path / "run_out" / "sinogram.csv"
        sino.write_text(re.sub(r"kind=mollified(.*) kernel=\S+ epsilon=\S+", r"kind=filtered\1",
                               sino.read_text(), count=1))
        capsys.readouterr()
        fresh = tmp_path / "fresh"
        assert main([command, "-c", str(cfg), "-o", str(fresh), str(sino)]) == 2
        assert "a filtered sinogram cannot be inverted again" in capsys.readouterr().err
        assert not fresh.exists()

    @pytest.mark.parametrize("pattern, text, message", [
        (r" kernel=\S+ epsilon=\S+", "", "mollified sinogram needs the kernel that smoothed it"),
        ("kind=mollified", "kind=raw", "kind='raw' sinogram must not carry a kernel"),
        ("kernel=bump", "kernel=gauss", "unknown kernel kind 'gauss'"),
        *[(r"epsilon=\S+", f"epsilon={eps}", f"kernel width must be positive and finite, got {eps}")
          for eps in ("-0.05", "nan", "inf")],
        (r"epsilon=\S+", "epsilon=1e-320", "kernel width 1e-320 is too narrow"),
        (r"epsilon=\S+", "epsilon=5", "kernel wider than the offset grid"),
        # eps^2 overflows a double; the grid rule refuses the width first
        (r"epsilon=\S+", "epsilon=1e30", "kernel wider than the offset grid"),
    ], ids=["mollified-without", "raw-with", "gauss", "negative", "nan", "inf", "subnormal",
            "wider-than-the-grid", "moments-overflow"])
    @pytest.mark.parametrize("command", ["moments", "reconstruct"])
    def test_bad_kernel_header_exits_2_before_any_artifact(
            self, tmp_path, capsys, command, pattern, text, message):
        cfg = write_config(tmp_path)
        assert main(["project", "-c", str(cfg), "-o", str(tmp_path / "data")]) == 0
        sino = tmp_path / "data" / "sinogram.csv"
        header, rows = sino.read_text().split("\n", 1)
        edited = re.sub(pattern, text, header, count=1)
        assert edited != header
        sino.write_text(edited + "\n" + rows)
        capsys.readouterr()
        assert main([command, "-c", str(cfg), str(sino)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {sino}: {message}")
        assert not (tmp_path / "run_out").exists()

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

    @pytest.mark.parametrize("section, key, value", [
        ("grids", "line_step_factor", "0.25"),
        ("moments", "window", "full"),
        ("mollifier", "max_order", "2"),
        ("moments", "max_order", "3"),
        ("phantom", "center", "0.5, 0.5"),
        ("phantom", "radius", "0.25"),
        ("phantom", "amplitude", "auto"),
        ("moments", "angles", "0.5, 1.5, 2.5"),
    ], ids=["line_step_factor", "moment-window", "mollifier-max_order",
            "moments-max_order", "center", "radius", "amplitude", "moments-angles"])
    def test_removed_key_exits_2(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "old.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n[output]\ndirectory = {tmp_path/'o'}\n")
        assert main(["project", "-c", str(cfg)]) == 2
        assert f"unknown key '{key}' in section [{section}]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("cutoff", "40"), ("reg_floor", "1e-4"), ("taper", "0.1"), ("kind", "auto"),
    ])
    def test_removed_filter_section_exits_2(self, tmp_path, capsys, key, value):
        # the ramp filter's cutoff and floor are constants of `spectral`
        cfg = write_config(tmp_path, text=MINI_CONFIG.replace(
            "[output]", f"[filter]\n{key} = {value}\n[output]"))
        assert main(["pipeline", "-c", str(cfg)]) == 2
        assert "unknown config section [filter]" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    def test_removed_disk_kind_exits_2(self, tmp_path, capsys):
        # one disk is a one-entry `disks` list
        cfg = write_config(tmp_path, text=MINI_CONFIG.replace("kind = uniform", "kind = disk"))
        assert main(["pipeline", "-c", str(cfg)]) == 2
        assert "unknown phantom kind 'disk'" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("project", "--sigma", "0.01"),
        ("project", "--seed", "3"),
        ("pipeline", "--sigma", "0.01"),
        ("pipeline", "--seed", "3"),
        ("moments", "--angles", "0.8,1.6,2.4"),
        ("moments", "--angles-auto", "1"),
        ("reconstruct", "--cutoff", "40"),
        ("reconstruct", "--reg-floor", "1e-4"),
    ])
    def test_removed_flag_exits_2(self, tmp_path, capsys, command, flag, value):
        # the INI file is the one way to set a run's values; -o alone remains
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as info:
            main([command, "-c", str(cfg), flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("K = 2", "K = 13", "moment order K=13 exceeds the cap 12"),
        ("m = 1", "m = 41", "recon orders (41, 1) exceed the stability cap 40"),
        ("n = 1", "n = 41", "recon orders (1, 41) exceed the stability cap 40"),
    ], ids=["K", "m", "n"])
    def test_order_cap_exits_5_before_any_artifact(self, tmp_path, capsys, old, new, message):
        cfg = write_config(tmp_path, text=MINI_CONFIG.replace(old, new))
        assert main(["pipeline", "-c", str(cfg)]) == 5
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    def test_angles_auto_above_the_cap_exits_5(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["project", "-c", str(cfg)]) == 0
        out = tmp_path / "run_out"
        before = sorted(out.iterdir())
        capsys.readouterr()
        cfg13 = write_config(tmp_path, name="k13.ini", text=MINI_CONFIG.replace("K = 2", "K = 13"))
        assert main(["moments", "-c", str(cfg13), str(out / "sinogram.csv")]) == 5
        assert "moment order K=13 exceeds the cap 12" in capsys.readouterr().err
        assert sorted(out.iterdir()) == before

    @pytest.mark.parametrize("method", ["moments", "both"])
    def test_pipeline_order_below_m_plus_n_exits_5_before_any_artifact(
            self, tmp_path, capsys, method):
        text = MINI_CONFIG.replace("m = 1", "m = 2").replace("n = 1", "n = 2") \
            .replace("method = both", f"method = {method}")
        cfg = write_config(tmp_path, text=text)
        assert main(["pipeline", "-c", str(cfg)]) == 5
        assert "need moments to order m+n = 4, table holds 2" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    def test_pipeline_fbp_alone_needs_no_order_m_plus_n(self, tmp_path):
        text = MINI_CONFIG.replace("m = 1", "m = 2").replace("n = 1", "n = 2") \
            .replace("method = both", "method = fbp")
        assert main(["pipeline", "-c", str(write_config(tmp_path, text=text))]) == 0

    @pytest.mark.parametrize("cover, angles", [("moment", 4), ("half", 5), ("full", 10)])
    def test_pipeline_too_few_rows_exits_2_before_any_artifact(
            self, tmp_path, capsys, cover, angles):
        # K = 4 needs 5 rows strictly inside (0, pi); each grid has 4
        text = MINI_CONFIG.replace("K = 2", "K = 4") \
            .replace("angles = 48", f"angles = {angles}") \
            .replace("angle_cover = moment", f"angle_cover = {cover}")
        cfg = write_config(tmp_path, text=text)
        assert main(["pipeline", "-c", str(cfg)]) == 2
        assert ("angle grid has 4 rows inside (0, pi); order K=4 needs at least K+1 = 5"
                in capsys.readouterr().err)
        assert not (tmp_path / "run_out").exists()

    def test_row_after_the_declared_rows_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["project", "-c", str(cfg)]) == 0
        out = tmp_path / "run_out"
        sino = out / "sinogram.csv"
        header, first, *rows = sino.read_text().splitlines()
        sino.write_text("\n".join([header, first, *rows, first]) + "\n")
        capsys.readouterr()
        assert main(["moments", "-c", str(cfg), str(sino)]) == 2
        assert f"{sino}:50: text after the 48 declared rows" in capsys.readouterr().err
        assert not (out / "moments.csv").exists()
        assert main(["reconstruct", "-c", str(cfg), str(sino)]) == 2
        assert f"{sino}:50: text after the 48 declared rows" in capsys.readouterr().err
        assert not (out / "recon_fbp.csv").exists()

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
        ("epsilon = 0.08", "epsilon = inf"),
        ("kind = uniform", "kind = disks\ndisks = 0.5,0.5,0.2,nan"),
        ("kind = uniform", "kind = polynomial\ncoeffs = 0,0:1; 1,0:nan"),
        ("margin = 1.1", "margin = nan"),
    ], ids=["sigma", "epsilon", "disk-list", "coeffs", "margin"])
    def test_non_finite_config_float_exits_2_before_any_artifact(
            self, tmp_path, capsys, old, new):
        cfg = write_config(tmp_path, text=MINI_CONFIG.replace(old, new))
        assert main(["pipeline", "-c", str(cfg)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("ini", ["[filter]\nreg_floor = -1\n", "[filter]\ncutoff = -5\n"],
                             ids=["reg-floor", "cutoff"])
    def test_filter_section_exits_2_before_any_artifact(self, tmp_path, capsys, ini):
        cfg = write_config(tmp_path, text=MINI_CONFIG.replace("method = both", "method = fbp"))
        assert main(["project", "-c", str(cfg)]) == 0
        out = tmp_path / "run_out"
        before = sorted(out.iterdir())
        capsys.readouterr()
        cfg_filter = write_config(tmp_path, name="filter.ini", text=MINI_CONFIG.replace(
            "method = both", "method = fbp").replace("[output]", ini + "[output]"))
        assert main(["reconstruct", "-c", str(cfg_filter), str(out / "sinogram.csv")]) == 2
        assert "unknown config section [filter]" in capsys.readouterr().err
        assert sorted(out.iterdir()) == before

    def test_non_finite_sigma_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, text=MINI_CONFIG.replace("sigma = 0.01", "sigma = nan"))
        assert main(["pipeline", "-c", str(cfg)]) == 2
        assert "[noise] sigma must be finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    def test_negative_seed_exits_2_before_any_artifact(self, tmp_path, capsys):
        cfg = write_config(tmp_path, text=MINI_CONFIG.replace("seed = 3", "seed = -1"))
        assert main(["pipeline", "-c", str(cfg)]) == 2
        assert "[noise] seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    def test_oversized_sinogram_header_exits_2(self, tmp_path, capsys):
        # counts no array could hold, and no rows: the file ends first
        cfg = write_config(tmp_path)
        sino = tmp_path / "huge.csv"
        sino.write_text("# sinogram kind=raw angles=1000000000 offsets=1000000000 "
                        "theta0=0.5 dtheta=0.5 p0=-1.5 dp=1\n")
        assert main(["moments", "-c", str(cfg), str(sino)]) == 2
        assert f"{sino}:2: file ends after 0 of 1000000000 rows" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    def test_non_finite_offset_grid_exits_2_before_any_artifact(self, tmp_path, capsys):
        # each end is finite, but their distance overflows the spacing
        cfg = write_config(tmp_path, text=MINI_CONFIG.replace("margin = 1.1", "margin = 1e308"))
        assert main(["pipeline", "-c", str(cfg)]) == 2
        assert "grid needs a finite start, stop and spacing" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.filterwarnings("error")  # refused before any numpy arithmetic
    @pytest.mark.parametrize("field, value", [("dp", "1e308"), ("dtheta", "inf")])
    @pytest.mark.parametrize("command", ["moments", "reconstruct"])
    def test_non_finite_header_grid_exits_2_before_any_artifact(
            self, tmp_path, capsys, command, field, value):
        cfg = write_config(tmp_path)
        assert main(["project", "-c", str(cfg), "-o", str(tmp_path / "data")]) == 0
        sino = tmp_path / "data" / "sinogram.csv"
        sino.write_text(re.sub(rf" {field}=\S+", f" {field}={value}", sino.read_text(), count=1))
        capsys.readouterr()
        assert main([command, "-c", str(cfg), str(sino)]) == 2
        assert "grid needs a finite start, stop and spacing" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    def test_non_finite_kernel_mass_exits_2_before_any_artifact(self, tmp_path, capsys):
        # a kernel this narrow would sample to an infinite mass, and NaN rows
        cfg = write_config(tmp_path, text=MINI_CONFIG.replace("epsilon = 0.08", "epsilon = 1e-320"))
        assert main(["pipeline", "-c", str(cfg)]) == 2
        assert "kernel width 1e-320 is too narrow" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.filterwarnings("error")  # refused before any numpy arithmetic
    def test_kernel_whose_moments_overflow_exits_2_before_any_artifact(self, tmp_path, capsys):
        # eps^2 overflows a double; the config's cap on the width refuses it first
        cfg = write_config(tmp_path, text=MINI_CONFIG.replace("epsilon = 0.08", "epsilon = 1e155"))
        assert main(["pipeline", "-c", str(cfg)]) == 2
        assert "[mollifier] epsilon must lie in (0, sqrt 2], the unit square's diameter, " \
               "got 1e+155" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.filterwarnings("error")  # refused before any numpy arithmetic
    def test_kernel_whose_moments_overflow_on_a_wide_grid_exits_2(self, tmp_path, capsys):
        # the kernel would fit this grid, and the moment sums would overflow
        # on it; the config's cap on the width refuses it first
        text = MINI_CONFIG.replace("epsilon = 0.08", "epsilon = 1e299") \
            .replace("margin = 1.1", "margin = 1e300")
        cfg = write_config(tmp_path, text=text)
        assert main(["pipeline", "-c", str(cfg)]) == 2
        assert "[mollifier] epsilon must lie in (0, sqrt 2], the unit square's diameter, " \
               "got 1e+299" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.filterwarnings("error")  # refused before any numpy arithmetic
    def test_margin_too_wide_for_the_moments_exits_2_before_any_artifact(
            self, tmp_path, capsys):
        # the offsets lie 1.1e298 apart, so no row resolves the unit square;
        # the config is refused before anything is computed
        text = WITHOUT_MOLLIFIER.replace("margin = 1.1", "margin = 1e300")
        cfg = write_config(tmp_path, text=text)
        assert main(["pipeline", "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "[grids] margin = 1e+300 spaces the 256 offsets 1.11e+298 apart" in err
        assert "cannot resolve the unit square" in err
        assert not (tmp_path / "run_out").exists()

    def test_non_finite_sinogram_writes_no_artifact(self, tmp_path, capsys, monkeypatch):
        # whatever makes the rows non-finite, the pipeline refuses them before
        # any artifact
        def nan_rows(sino, kernel):
            return replace(sino, values=np.full_like(sino.values, np.nan))
        monkeypatch.setattr(cli, "mollify", nan_rows)
        assert main(["pipeline", "-c", str(write_config(tmp_path))]) == 2
        assert "the computed sinogram has non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("stage, what", [
        ("reconstruct_grid", "moment image"),
        ("fbp_reconstruct", "FBP image"),
    ])
    def test_non_finite_image_in_pipeline_writes_nothing(
            self, tmp_path, capsys, monkeypatch, stage, what):
        # the images are computed, and checked, before the first artifact
        compute = getattr(cli, stage)

        def nan_image(*args):
            rec = compute(*args)
            return replace(rec, values=np.full_like(rec.values, np.nan))
        monkeypatch.setattr(cli, stage, nan_image)
        assert main(["pipeline", "-c", str(write_config(tmp_path))]) == 2
        captured = capsys.readouterr()
        assert f"the computed {what} has non-finite values" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("coeffs, term", [
        ("-1,0:1", "'-1,0:1.0'"),
        ("0,-2:1; 0,0:1", "'0,-2:1.0'"),
    ], ids=["i", "j"])
    def test_negative_exponent_exits_2_before_any_artifact(self, tmp_path, capsys, coeffs, term):
        text = MINI_CONFIG.replace("kind = uniform", f"kind = polynomial\ncoeffs = {coeffs}")
        assert main(["pipeline", "-c", str(write_config(tmp_path, text=text))]) == 2
        assert f"[phantom] coeffs term {term} has a negative exponent" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("text, message", [
        ("# moments K=2\n0,0,1\n", "missing moment (0, 1)"),
        ("# moments K=1\n0,0,1\n1,0,0\n0,1,0\n3,0,1\n", "entry (3, 0) beyond order 1"),
    ], ids=["missing", "beyond-order"])
    def test_incomplete_moment_table_names_the_file(self, tmp_path, capsys, text, message):
        moments = tmp_path / "table.csv"
        moments.write_text(text)
        cfg = write_config(tmp_path)
        assert main(["reconstruct", "-c", str(cfg), str(moments)]) == 2
        assert f"error: {moments}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("radius", ["0", "-0.1", "1e-200"])
    def test_degenerate_disk_exits_2_before_any_artifact(self, tmp_path, capsys, radius):
        cfg = write_config(tmp_path, text=MINI_CONFIG.replace(
            "kind = uniform", f"kind = disks\ndisks = 0.5,0.5,{radius}"))
        assert main(["pipeline", "-c", str(cfg)]) == 2
        assert f"disk radius must be positive with a nonzero area pi r^2, got {float(radius)}" \
            in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    def test_negative_moment_index_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        moments = tmp_path / "extra.csv"
        moments.write_text("# moments K=2\n0,0,1\n1,0,0.5\n0,1,0.5\n"
                           "2,0,0.3\n1,1,0.25\n0,2,0.3\n-1,0,7\n")
        assert main(["reconstruct", "-c", str(cfg), str(moments)]) == 2
        assert "entry (-1, 0) has a negative index" in capsys.readouterr().err
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

    def test_non_finite_image_leaves_no_output_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        moments = tmp_path / "huge.csv"
        moments.write_text("# moments K=2\n0,0,0\n1,0,0\n0,1,0\n2,0,0\n1,1,1e308\n0,2,0\n")
        fresh = tmp_path / "fresh"
        assert main(["reconstruct", "-c", str(cfg), "-o", str(fresh), str(moments)]) == 2
        assert "PGM export needs finite values" in capsys.readouterr().err
        assert not fresh.exists()


class TestProjectReport:
    @pytest.mark.parametrize("cover, span", [
        ("moment", 47 * math.pi / 49),  # 48 angles pi (i+1)/49: the sampled span
        ("full", 2 * math.pi),          # periodic closure over the whole turn
    ], ids=["moment", "full"])
    def test_l1_line_compares_with_the_integrated_span(self, tmp_path, capsys, cover, span):
        text = MINI_CONFIG.replace("angle_cover = moment", f"angle_cover = {cover}") \
            .replace("sigma = 0.01", "sigma = 0")
        cfg = write_config(tmp_path, text=text)
        assert main(["project", "-c", str(cfg)]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("l1 norm"))
        match = re.fullmatch(r"l1 norm: (\S+) \(mass \* angle span = (\S+)\)", line)
        assert match, line
        l1, reference = float(match[1]), float(match[2])
        assert reference == pytest.approx(span, abs=1e-6)  # unit-mass phantom
        assert l1 == pytest.approx(reference, rel=1e-3)


class TestSettings:
    def test_fit_over_every_row(self, tmp_path):
        cfg = write_config(tmp_path, text=MINI_CONFIG.replace("K = 2", "K = 1"))
        out = tmp_path / "run_out"
        assert main(["project", "-c", str(cfg)]) == 0
        assert main(["moments", "-c", str(cfg), str(out / "sinogram.csv")]) == 0
        header = (out / "moments.csv").read_text().splitlines()[0]
        assert header == "# moments K=1"

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

        tables = {}
        for sigma in (0.0, 0.01, 0.05):
            out = tmp_path / f"s{sigma}"
            cfg = write_config(tmp_path, name=f"s{sigma}.ini",
                               text=MINI_CONFIG.replace("sigma = 0.01", f"sigma = {sigma}"))
            assert main(["project", "-c", str(cfg), "-o", str(out)]) == 0
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

    def test_sweep_epsilon_from_a_plain_checkout(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "sweep_epsilon.py"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run([sys.executable, str(script), "--seeds", "1", "--angles", "16",
                               "--offsets", "256", "--widths", "0.05,0.08", "--order", "2"],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        rows = [line.split()[0] for line in done.stdout.splitlines()[2:]]
        assert rows == ["0.050", "0.080"], done.stdout

    def test_ab_calls_on_one_tree_twice(self, tmp_path):
        # both sides load the same checkout, so the results must be equal
        root = Path(__file__).resolve().parents[1]
        script, src = root / "scripts" / "ab_calls.py", str(root / "src")
        done = subprocess.run([sys.executable, str(script), src, src, "--workload",
                               "recon_fine", "--seed", "1", "--call", "fileio.write_moments"],
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0].startswith("fileio.write_moments on recon_fine seed 1: results equal;")
        assert [line.split(":")[0] for line in lines[1:]] == [
            "  parent", "  change", "  rounds won"]


class TestSelftest:
    def test_acceptance_suite_collects_outside_the_checkout(self, tmp_path):
        # `momentct selftest` hands this file to pytest from any working
        # directory; the package and the oracles beside the file must import
        suite = Path(__file__).resolve().parent / "test_acceptance.py"
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
             str(suite)],
            cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        criteria = re.findall(r"^\S+::test_c(\d\d)_\w+$", done.stdout, flags=re.M)
        assert criteria == [f"{i:02d}" for i in range(1, 13)]
