import contextlib
import errno
import filecmp
import importlib.util
import io
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from momentct import cli, config, fileio, phantoms, projector
from momentct.cli import main
from momentct.mollifiers import make_kernel
from momentct.numerics import Grid1D

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

#: what `project` writes, each also among the pipeline's ARTIFACTS
PROJECT_ARTIFACTS = ["phantom.pgm", "sinogram.csv", "sinogram.pgm"]


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

    def test_does_not_import_numpy_random(self, tmp_path):
        # numpy.random adds about 6 MB of RSS; only `add_noise` needs it, so a
        # run without noise (as two benchmark workloads are) must not load it
        quiet = write_config(tmp_path, text=MINI_CONFIG.replace("sigma = 0.01", "sigma = 0"))
        code = ("import sys\nfrom momentct.cli import main\n"
                "assert 'numpy.random' not in sys.modules, 'the import loaded numpy.random'\n"
                f"assert main(['pipeline', '-c', {str(quiet)!r}]) == 0\n"
                "assert 'numpy.random' not in sys.modules, 'the run loaded numpy.random'\n")
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

    def test_moments_do_not_depend_on_blas_threads(self, tmp_path):
        # the row moments are one BLAS product; OpenBLAS reads its thread
        # count once, at load, so each count needs its own interpreter
        cfg = Path(__file__).resolve().parents[1] / "configs" / "disk_half_turn.ini"
        code = "import sys\nfrom momentct.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
            done = subprocess.run([sys.executable, "-c", code, "pipeline", "-c", str(cfg),
                                   "-o", str(tmp_path / threads)], cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
        assert filecmp.cmp(tmp_path / "1" / "moments.csv", tmp_path / "2" / "moments.csv",
                           shallow=False)

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

    def test_image_too_large_to_allocate_exits_2_and_writes_nothing(self, tmp_path):
        # a 1e6 x 1e6 image is 7.28 TiB; the address-space cap makes numpy
        # refuse it, where memory overcommit might grant it and then be touched
        resource = pytest.importorskip("resource")
        cap = 4 * 2**30

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        cfg = write_config(tmp_path, text=MINI_CONFIG.replace("resolution = 16",
                                                              "resolution = 1000000"))
        code = ("import sys\nfrom momentct.cli import main\n"
                f"sys.exit(main(['pipeline', '-c', {str(cfg)!r}]))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
                   OPENBLAS_NUM_THREADS="1")
        try:
            done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=120,
                                  preexec_fn=limit)
        except subprocess.SubprocessError as exc:  # the cap could not be set
            pytest.skip(f"no address-space cap: {exc}")
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: Unable to allocate ")
        assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n"), done.stderr
        assert not (tmp_path / "run_out").exists()

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

    @pytest.mark.parametrize("command", ["moments", "reconstruct"])
    def test_offsets_short_of_the_square_exit_3_and_write_nothing(self, tmp_path, capsys,
                                                                 command):
        # rows cut off at |p| = 0.5 once gave truncated moments, or an FBP
        # image of them, with exit 0; `project` refuses such offsets
        cfg = write_config(tmp_path)
        sino = tmp_path / "short.csv"
        sino.write_text(f"# sinogram kind=raw angles=4 offsets=3 theta0=0 "
                        f"dtheta={math.pi / 4!r} p0=-0.5 dp=0.5\n" + "0.5,1,0.5\n" * 4)
        fresh = tmp_path / "fresh"
        assert main([command, "-c", str(cfg), "-o", str(fresh), str(sino)]) == 3
        assert capsys.readouterr().err == ("error: offsets [-0.5, 0.5] do not cover "
                                           "[-sqrt2, sqrt2]; moments would be truncated\n")
        assert not fresh.exists()

    @pytest.mark.parametrize("command", ["moments", "reconstruct"])
    def test_kernel_spread_off_the_offsets_exits_3_and_writes_nothing(self, tmp_path, capsys,
                                                                    command):
        # at margin 1.1 a kernel of width 0.3 spreads the rows past the last
        # offsets; the moment table came out 5.4e-4 off with exit 0
        offsets = projector.offset_grid(256, 1.1)
        rows = projector.project(phantoms.UniformDensity(), projector.moment_angle_grid(48),
                                 offsets)
        sino = tmp_path / "spread.csv"
        fileio.write_sinogram(projector.mollify(rows, make_kernel("bump", 0.3)), sino)
        fresh = tmp_path / "fresh"
        assert main([command, "-c", str(write_config(tmp_path)), "-o", str(fresh),
                     str(sino)]) == 3
        assert capsys.readouterr().err == (
            "error: offsets [-1.556, 1.556] do not cover [-sqrt2, sqrt2] widened by the "
            "kernel's width 0.3; moments would be truncated\n")
        assert not fresh.exists()

    def test_kernel_spread_off_the_offsets_in_the_config_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, text=MINI_CONFIG.replace("epsilon = 0.08", "epsilon = 0.3"))
        assert main(["pipeline", "-c", str(cfg)]) == 3
        assert capsys.readouterr().err == ("error: offset margin must be >= 1 + epsilon/sqrt2 "
                                           "= 1.21213, got 1.1\n")
        assert not (tmp_path / "run_out").exists()

    def test_angles_that_collapse_onto_one_row_exit_2(self, tmp_path, capsys):
        # four rows 6e-17 apart: the moment fit refuses the repeated rows
        # before its solve could find the system singular
        cfg = write_config(tmp_path)
        offsets = projector.offset_grid(64)
        sino = tmp_path / "collapsed.csv"
        fileio.write_sinogram(projector.project(phantoms.UniformDensity(),
                                                Grid1D(0.5, 6e-17, 4), offsets), sino)
        fresh = tmp_path / "fresh"
        assert main(["moments", "-c", str(cfg), "-o", str(fresh), str(sino)]) == 2
        assert capsys.readouterr().err == ("error: requested angles collapse onto duplicate "
                                           "sinogram rows\n")
        assert not fresh.exists()

    @pytest.mark.parametrize("stop", [math.pi, 2 * math.pi], ids=["half", "full"])
    def test_closed_angle_grid_exits_3_and_writes_nothing(self, tmp_path, capsys, stop):
        # the last row repeats the first one's lines; the rectangle rule once
        # weighted them twice and gave an image with exit 0
        angles = Grid1D(0.0, stop / 128, 129)
        sino = tmp_path / "closed.csv"
        fileio.write_sinogram(projector.project(phantoms.UniformDensity(), angles,
                                                projector.offset_grid(256)), sino)
        fresh = tmp_path / "fresh"
        assert main(["reconstruct", "-c", str(write_config(tmp_path)), "-o", str(fresh),
                     str(sino)]) == 3
        assert capsys.readouterr().err.startswith(
            "error: the angle grid covers neither a half nor a full turn: 129 angles")
        assert not fresh.exists()

    @pytest.mark.parametrize("pattern, text, message", [
        (r" kernel=\S+ epsilon=\S+", "", "mollified sinogram needs the kernel that smoothed it"),
        ("kind=mollified", "kind=raw", "kind='raw' sinogram must not carry a kernel"),
        ("kernel=bump", "kernel=gauss", "unknown kernel kind 'gauss'"),
        ("kernel=bump", "kernel=cosine", "unknown kernel kind 'cosine'"),
        *[(r"epsilon=\S+", f"epsilon={eps}", f"kernel width must be positive and finite, got {eps}")
          for eps in ("-0.05", "nan", "inf")],
        (r"epsilon=\S+", "epsilon=1e-320", "kernel width 1e-320 is too narrow"),
        (r"epsilon=\S+", "epsilon=5", "kernel wider than the offset grid"),
        # eps^2 overflows a double; the grid rule refuses the width first
        (r"epsilon=\S+", "epsilon=1e30", "kernel wider than the offset grid"),
    ], ids=["mollified-without", "raw-with", "gauss", "cosine", "negative", "nan", "inf",
            "subnormal", "wider-than-the-grid", "moments-overflow"])
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

    @pytest.mark.parametrize("old, new, message", [
        # one disk is a one-entry `disks` list
        ("kind = uniform", "kind = disk", "unknown phantom kind 'disk'"),
        # the bump is the one smoothing profile
        ("kernel = bump", "kernel = cosine", "unknown kernel 'cosine'"),
    ], ids=["disk", "cosine"])
    @pytest.mark.parametrize("command", ["project", "pipeline"])
    def test_removed_value_exits_2_before_any_artifact(self, tmp_path, capsys, command, old,
                                                       new, message):
        cfg = write_config(tmp_path, text=MINI_CONFIG.replace(old, new))
        assert main([command, "-c", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
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
            self, tmp_path, capsys, monkeypatch, method):
        # refused before the phantom is projected, let alone fitted
        def project(*args):
            raise AssertionError("pipeline projected before it checked the orders")

        monkeypatch.setattr(cli, "project", project)
        text = MINI_CONFIG.replace("m = 1", "m = 2").replace("n = 1", "n = 2") \
            .replace("method = both", f"method = {method}")
        cfg = write_config(tmp_path, text=text)
        assert main(["pipeline", "-c", str(cfg)]) == 5
        assert capsys.readouterr().err == "error: need moments to order m+n = 4, table holds 2\n"
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

    @pytest.mark.parametrize("command", ["pipeline", "project"])
    def test_non_finite_sinogram_writes_no_artifact(self, tmp_path, capsys, monkeypatch,
                                                    command):
        # whatever makes the rows non-finite, both commands that compute them
        # refuse them before any artifact
        def nan_rows(sino, kernel):
            return replace(sino, values=np.full_like(sino.values, np.nan))
        monkeypatch.setattr(cli, "mollify", nan_rows)
        assert main([command, "-c", str(write_config(tmp_path))]) == 2
        assert "the computed sinogram has non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "run_out").exists()

    @pytest.mark.parametrize("command", ["pipeline", "reconstruct"])
    @pytest.mark.parametrize("stage, what, name", [
        ("reconstruct_grid", "moment image", "moments.csv"),
        ("fbp_reconstruct", "FBP image", "sinogram.csv"),
    ])
    def test_non_finite_image_in_pipeline_writes_nothing(
            self, tmp_path, capsys, monkeypatch, stage, what, name, command):
        # the images are computed, and checked, before the first artifact, by
        # `pipeline` and by `reconstruct` on the file `name` the image comes from
        cfg = write_config(tmp_path)
        inputs = tmp_path / "inputs"
        assert main(["pipeline", "-c", str(cfg), "-o", str(inputs)]) == 0
        capsys.readouterr()
        compute = getattr(cli, stage)

        def nan_image(*args):
            rec = compute(*args)
            return replace(rec, values=np.full_like(rec.values, np.nan))
        monkeypatch.setattr(cli, stage, nan_image)
        argv = [command, "-c", str(cfg)] + ([str(inputs / name)] if command == "reconstruct"
                                            else [])
        assert main(argv) == 2
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

    def test_repeated_coeffs_term_exits_2_before_any_artifact(self, tmp_path, capsys):
        # the two halves of f = 1 would otherwise run as f = 0.5 with exit 0
        text = MINI_CONFIG.replace("kind = uniform",
                                   "kind = polynomial\ncoeffs = 0,0:0.5; 0,0:0.5")
        assert main(["pipeline", "-c", str(write_config(tmp_path, text=text))]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: [phantom] coeffs repeats the exponent pair 0,0\n"
        assert captured.out == ""
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
        assert "the computed moment image has non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "run_out" / "recon_moments.pgm").exists()

    @pytest.mark.parametrize("gamma_11, message", [
        ("1e308", "the computed moment image has non-finite values"),
        ("4e307", "PGM export needs finite values"),
    ], ids=["inf", "span"])
    def test_non_finite_image_leaves_no_csv(self, tmp_path, capsys, monkeypatch, gamma_11,
                                            message):
        # 1e308 puts inf in every cell, refused before any artifact; 4e307
        # puts 1.6e308, and with every other column negated the image is
        # finite but its max - min is not, which only `write_pgm` refuses:
        # the PGM is written before the CSV, so neither exists
        cfg = write_config(tmp_path)
        moments = tmp_path / "huge.csv"
        moments.write_text(f"# moments K=2\n0,0,0\n1,0,0\n0,1,0\n2,0,0\n1,1,{gamma_11}\n0,2,0\n")
        compute = cli.reconstruct_grid

        def alternating(*args):
            rec = compute(*args)
            return replace(rec, values=rec.values * np.where(np.arange(rec.values.shape[0])
                                                             [:, None] % 2, -1.0, 1.0))
        monkeypatch.setattr(cli, "reconstruct_grid", alternating)
        assert main(["reconstruct", "-c", str(cfg), str(moments)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run_out" / "recon_moments.pgm").exists()
        assert not (tmp_path / "run_out" / "recon_moments.csv").exists()

    def test_non_finite_image_leaves_no_output_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        moments = tmp_path / "huge.csv"
        moments.write_text("# moments K=2\n0,0,0\n1,0,0\n0,1,0\n2,0,0\n1,1,1e308\n0,2,0\n")
        fresh = tmp_path / "fresh"
        assert main(["reconstruct", "-c", str(cfg), "-o", str(fresh), str(moments)]) == 2
        assert "the computed moment image has non-finite values" in capsys.readouterr().err
        assert not fresh.exists()


class BrokenStdout(io.TextIOBase):
    """A stdout whose reader has gone: every write fails as on a closed pipe."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


class TestWritePhase:
    """Every command computes and checks its results, writes every
    artifact, and only then prints its report, in one write."""

    @pytest.mark.parametrize("command, artifacts", [
        ("pipeline", sorted(ARTIFACTS)),
        ("project", PROJECT_ARTIFACTS),
    ], ids=["pipeline", "project"])
    def test_broken_stdout_exits_2_after_every_artifact(self, tmp_path, capsys, command,
                                                        artifacts):
        cfg = write_config(tmp_path)
        whole = tmp_path / "whole"
        assert main([command, "-c", str(cfg), "-o", str(whole)]) == 0
        capsys.readouterr()
        with contextlib.redirect_stdout(BrokenStdout()):
            assert main([command, "-c", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: [Errno {errno.EPIPE}] " \
                                          f"{os.strerror(errno.EPIPE)}\n"
        out = tmp_path / "run_out"
        assert sorted(path.name for path in out.iterdir()) == artifacts
        for name in artifacts:
            assert filecmp.cmp(out / name, whole / name, shallow=False), name

    def test_closed_stdout_pipe_exits_2_with_one_error_line(self, tmp_path):
        # the reader is gone before the run starts: the report, buffered as
        # by default, fails to flush after the last artifact, and the
        # interpreter's own flush at exit must not fail a second time
        cfg = write_config(tmp_path)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "momentct.cli", "pipeline", "-c",
                                   str(cfg)], cwd=tmp_path, env=env, stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert done.returncode == 2, done.stderr
        assert done.stderr == f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"
        assert sorted(path.name for path in (tmp_path / "run_out").iterdir()) == \
            sorted(ARTIFACTS)


#: a raw, noiseless uniform half turn of 32 x 128 fitted to K = 12
EXTREME_BASE = (WITHOUT_MOLLIFIER.replace("sigma = 0.01", "sigma = 0")
                .replace("angles = 48\nangle_cover = moment\noffsets = 256",
                         "angles = 32\nangle_cover = half\noffsets = 128")
                .replace("K = 2", "K = 12"))
NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


class TestExtremeInput:
    """The single-stage commands on finite input near the top of the float
    range: the pipeline's sinogram.csv and moments.csv scaled up."""

    def scaled_inputs(self, tmp_path, scale):
        cfg = write_config(tmp_path, text=EXTREME_BASE)
        assert main(["pipeline", "-c", str(cfg)]) == 0
        base = tmp_path / "run_out"
        sino = fileio.read_sinogram(base / "sinogram.csv")
        fileio.write_sinogram(replace(sino, values=sino.values * scale), tmp_path / "sinogram.csv")
        table = fileio.read_moments(base / "moments.csv")
        fileio.write_moments(phantoms.MomentTable(
            table.max_order, {key: v * scale for key, v in table.values.items()}),
            tmp_path / "moments.csv")
        return cfg

    def run(self, *args):
        with warnings.catch_warnings():
            # a command line run states a refusal in its error line, not in numpy's warnings
            warnings.simplefilter("error", RuntimeWarning)
            return main(list(args))

    @pytest.mark.parametrize("scale", [1e150, 1e300, 1e307])
    @pytest.mark.parametrize("command, name", [
        ("moments", "sinogram.csv"),
        ("reconstruct", "sinogram.csv"),
        ("reconstruct", "moments.csv"),
    ], ids=["moments", "reconstruct-sinogram", "reconstruct-moments"])
    def test_single_stage_writes_finite_artifacts_or_nothing(
            self, tmp_path, capsys, command, name, scale):
        # a run either succeeds with finite text throughout, or is refused
        # before its first artifact
        cfg = self.scaled_inputs(tmp_path, scale)
        capsys.readouterr()
        out = tmp_path / "fresh"
        if self.run(command, "-c", str(cfg), "-o", str(out), str(tmp_path / name)) != 0:
            assert not out.exists()
            return
        printed = capsys.readouterr().out
        assert not NON_FINITE.search(printed), printed
        artifacts = sorted(out.iterdir())
        assert artifacts
        for path in artifacts:
            assert not NON_FINITE.search(path.read_text()), path.name

    def test_figures_near_1e300_print_in_12_characters(self, tmp_path, capsys):
        # with a fixed count of decimals, a figure near 1e300 runs to 300
        # digits: the relative L2 error of the scaled sinogram, and the other
        # four figures from the pipeline of a phantom 1e300 times the uniform
        text = EXTREME_BASE.replace("kind = uniform", "kind = polynomial\ncoeffs = 0,0:1e300")
        assert self.run("pipeline", "-c", str(write_config(tmp_path, "big.ini", "big", text))) == 0
        printed = capsys.readouterr().out
        cfg = self.scaled_inputs(tmp_path, 1e300)
        capsys.readouterr()
        assert self.run("reconstruct", "-c", str(cfg), "-o", str(tmp_path / "fresh"),
                        str(tmp_path / "sinogram.csv")) == 0
        printed += capsys.readouterr().out
        figures = re.findall(r"(?:l1 norm:|2 pi mass =|vs phantom:|over delta\):) ([^\s)]+)",
                             printed)
        assert len(figures) == 6, printed  # l1, 2 pi mass, sup error, bound, two relative L2
        assert all(len(figure) <= 12 and math.isfinite(float(figure)) for figure in figures), \
            figures
        assert max(map(float, figures)) > 1e299

    def test_moments_whose_higher_orders_overflow_exit_2(self, tmp_path, capsys):
        # at 3.5e306 the order-0 moments are finite and agree across rows,
        # and some of the higher orders overflow
        cfg = self.scaled_inputs(tmp_path, 3.5e306)
        out = tmp_path / "fresh"
        assert self.run("moments", "-c", str(cfg), "-o", str(out),
                        str(tmp_path / "sinogram.csv")) == 2
        assert "the computed moment table has non-finite values" in capsys.readouterr().err
        assert not out.exists()


#: a raw half turn of 16 x 128 on offsets three times as wide as the square,
#: of a polynomial phantom with one coefficient near the top of the float range
OVERFLOW_BASE = """
[phantom]
kind = polynomial
coeffs = {coeffs}

[grids]
angles = 16
angle_cover = half
offsets = 128
margin = 3

[moments]
K = {K}

[recon]
method = {method}
m = {m}
n = {n}
resolution = 16

[output]
directory = {{out}}
"""


class TestArithmeticOverflow:
    """Finite input whose arithmetic leaves the float range: a refusal with
    exit 2 and one error line, or figures that are finite or n/a."""

    def test_moment_approximant_past_the_float_range_exits_2(self, tmp_path, capsys):
        # math.fsum raises OverflowError when finite terms sum past it
        cfg = write_config(tmp_path, text=OVERFLOW_BASE.format(
            coeffs="0,0:1.0", K=2, method="moments", m=1, n=1))
        moments = tmp_path / "huge.csv"
        moments.write_text("# moments K=2\n0,0,4e307\n1,0,-4e307\n0,1,0\n2,0,0\n1,1,0\n0,2,0\n")
        assert main(["reconstruct", "-c", str(cfg), str(moments)]) == 2
        assert capsys.readouterr().err == "error: intermediate overflow in fsum\n"
        assert not (tmp_path / "run_out").exists()

    def test_pipeline_whose_approximant_overflows_exits_2_and_writes_nothing(
            self, tmp_path, capsys):
        cfg = write_config(tmp_path, text=OVERFLOW_BASE.format(
            coeffs="1,0:4.0; 3,4:4.0; 0,4:2.5e+307", K=6, method="both", m=3, n=2))
        assert main(["pipeline", "-c", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: intermediate overflow in fsum\n"
        assert not (tmp_path / "run_out").exists()

    def test_error_bound_past_the_float_range_prints_n_a(self, tmp_path, capsys):
        cfg = write_config(tmp_path, text=OVERFLOW_BASE.format(
            coeffs="0,0:1.0; 0,4:2.5e+307", K=4, method="moments", m=2, n=2))
        assert main(["pipeline", "-c", str(cfg)]) == 0
        printed = capsys.readouterr().out
        assert "sup error bound: n/a (the bound overflows double precision)\n" in printed
        assert not NON_FINITE.search(printed), printed  # no figure reads inf or nan

    @pytest.mark.parametrize("command, disks", [
        ("pipeline", "0.5,0.5,0.3,3.9068503947212587e+307"),  # the rows' sum overflows
        ("project", "0.5,0.5,0.45,8e307"),                    # and 2 pi times the mass too
    ])
    def test_l1_norm_past_the_float_range_prints_n_a(self, tmp_path, capsys, command, disks):
        # finite rows whose integral over the turn leaves the float range
        # (found by tests/test_cli_fuzz.py's extreme strategy)
        text = OVERFLOW_BASE.format(coeffs="0,0:1.0", K=4, method="moments", m=1, n=1) \
            .replace("kind = polynomial\ncoeffs = 0,0:1.0", f"kind = disks\ndisks = {disks}") \
            .replace("angles = 16\nangle_cover = half\noffsets = 128\nmargin = 3",
                     "angles = 15\nangle_cover = moment\noffsets = 47\nmargin = 2.0") \
            .replace("resolution = 16", "resolution = 1")
        assert main([command, "-c", str(write_config(tmp_path, text=text))]) == 0
        printed = capsys.readouterr().out
        assert "l1 norm: n/a (the integral overflows double precision)\n" in printed
        assert not NON_FINITE.search(printed), printed

    def test_relative_l2_error_past_the_float_range_prints_n_a(self, tmp_path, capsys):
        # rows noisy at 1e300 over a phantom of 1e-35: the image's error is
        # finite, its ratio to the phantom image's norm is not (found by
        # tests/test_cli_fuzz.py's extreme strategy)
        text = OVERFLOW_BASE.format(coeffs="0,0:-1e-35", K=0, method="fbp", m=1, n=1) \
            .replace("angles = 16", "angles = 2") \
            .replace("[grids]", "[noise]\nsigma = 1e300\nseed = 1\n\n[grids]")
        assert main(["pipeline", "-c", str(write_config(tmp_path, text=text))]) == 0
        printed = capsys.readouterr().out
        assert "relative l2 error vs phantom: n/a (the ratio overflows double precision)\n" \
            in printed
        assert not NON_FINITE.search(printed), printed

class TestProjectReport:
    @pytest.mark.parametrize("cover", ["moment", "half", "full"])
    def test_l1_line_compares_with_two_pi_mass(self, tmp_path, capsys, cover):
        # every cover is integrated over the whole turn, the open moment grid
        # with the node at 0 that it lacks
        text = MINI_CONFIG.replace("angle_cover = moment", f"angle_cover = {cover}") \
            .replace("sigma = 0.01", "sigma = 0")
        cfg = write_config(tmp_path, text=text)
        assert main(["project", "-c", str(cfg)]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("l1 norm"))
        match = re.fullmatch(r"l1 norm: (\S+) \(2 pi mass = (\S+)\)", line)
        assert match, line
        l1, reference = float(match[1]), float(match[2])
        assert reference == pytest.approx(2 * math.pi, abs=1e-5)  # unit-mass phantom
        assert l1 == pytest.approx(reference, rel=1e-3)

    @pytest.mark.parametrize("command", ["project", "pipeline"])
    @pytest.mark.parametrize("cover, angles, figure", [
        ("moment", 48, "n/a (needs a full-turn angle grid)"),
        ("half", 48, "n/a (needs a full-turn angle grid)"),
        ("full", 47, "n/a (needs an even angle count)"),
    ], ids=["moment", "half", "full_odd"])
    def test_evenness_line_names_what_the_grid_lacks(self, tmp_path, capsys, command, cover,
                                                     angles, figure):
        # an odd full turn covers the turn, but its rows do not pair with
        # their antipodes
        text = MINI_CONFIG.replace("angle_cover = moment", f"angle_cover = {cover}") \
            .replace("angles = 48", f"angles = {angles}")
        assert main([command, "-c", str(write_config(tmp_path, text=text))]) == 0
        assert f"\nevenness residual: {figure}\n" in capsys.readouterr().out


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

    @staticmethod
    def load_script(name, monkeypatch):
        root = Path(__file__).resolve().parents[1]
        monkeypatch.setattr(sys, "path", list(sys.path))  # a script may extend it
        spec = importlib.util.spec_from_file_location(name, root / "scripts" / f"{name}.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        return script

    @pytest.fixture
    def diff_artifacts(self, monkeypatch):
        return self.load_script("diff_artifacts", monkeypatch)

    def test_diff_artifacts_prints_the_lines_that_moved(self, diff_artifacts):
        parent = b"== reconstruct ==\nsup error vs phantom: 0.001015\nbound: 0.5\n"
        change = b"== reconstruct ==\nsup error vs phantom: 0.000317\nbound: 0.5\nend\n"
        assert diff_artifacts.stream_change(parent, change) == [
            "-sup error vs phantom: 0.001015", "+sup error vs phantom: 0.000317", "+end"]
        assert diff_artifacts.stream_change(parent, parent) == []

    def test_diff_artifacts_counts_lines_as_wc(self, tmp_path, diff_artifacts):
        package = tmp_path / "momentct"
        package.mkdir()
        (package / "a.py").write_text("x = 1\n\ny = 2\n")
        (package / "b.py").write_text("z = 3")  # no final newline: wc -l counts 0
        (package / "notes.txt").write_text("not a module\n")
        assert diff_artifacts.package_lines(tmp_path) == 3

    @pytest.mark.parametrize("cached", ["parent", "change"])
    def test_ab_bench_refuses_a_tree_with_a_pycache(self, tmp_path, cached):
        # compiled modules in one tree would make its set-up time read lower
        root = Path(__file__).resolve().parents[1]
        for side in ("parent", "change"):
            shutil.copytree(root / "src" / "momentct", tmp_path / side / "src" / "momentct",
                            ignore=shutil.ignore_patterns("__pycache__"))
        cache = tmp_path / cached / "src" / "momentct" / "__pycache__"
        cache.mkdir()
        # neither tree has a perfbench/run.py, so a benchmark run would fail
        done = subprocess.run([sys.executable, str(root / "scripts" / "ab_bench.py"),
                               str(tmp_path / "parent"), str(tmp_path / "change"),
                               "--workload", "demo", "--pairs", "1", "--seconds", "1"],
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1 and str(cache.resolve()) in done.stderr, done.stderr

    @pytest.mark.parametrize("workload, call", [
        ("recon_fine", "fileio.write_moments"),
        ("demo", "fileio.write_pgm"),          # four calls, one per image
        ("demo", "fileio.read_sinogram"),      # recorded from `moments`
    ])
    def test_ab_calls_on_one_tree_twice(self, tmp_path, workload, call):
        # both sides load the same checkout, so the results must be equal
        root = Path(__file__).resolve().parents[1]
        script, src = root / "scripts" / "ab_calls.py", str(root / "src")
        done = subprocess.run([sys.executable, str(script), src, src, "--workload",
                               workload, "--seed", "1", "--call", call],
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0].startswith(f"{call} on {workload} seed 1: results equal;"), lines[0]
        assert [line.split(":")[0] for line in lines[1:]] == [
            "  parent", "  change", "  rounds won"]

    def test_ab_calls_refuses_a_call_the_workload_never_makes(self, tmp_path):
        # acquire_large's rows are raw: neither `pipeline` nor `moments` adds noise
        root = Path(__file__).resolve().parents[1]
        script, src = root / "scripts" / "ab_calls.py", str(root / "src")
        done = subprocess.run([sys.executable, str(script), src, src, "--workload",
                               "acquire_large", "--seed", "1", "--call", "projector.add_noise"],
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == "acquire_large makes no projector.add_noise call\n"

    def test_ab_calls_records_every_call_of_a_run(self, tmp_path, monkeypatch):
        script = self.load_script("ab_calls", monkeypatch)
        ini, out = tmp_path / "demo.ini", tmp_path / "out"
        ini.write_text(script.WORKLOADS["demo"](1).ini)
        original = fileio.write_pgm
        calls = script.record("momentct", "fileio.write_pgm",
                              ["pipeline", "-c", str(ini), "-o", str(out)])
        names = ["sinogram.pgm", "phantom.pgm", "recon_moments.pgm", "recon_fbp.pgm"]
        assert [args[1] for _, args, _ in calls] == [out / name for name in names]
        written = [(out / name).read_bytes() for name in names]
        assert script.replay(calls) == written
        assert fileio.write_pgm is original  # the recording wrapper is gone again
        assert script.record("momentct", "fileio.read_sinogram",
                             ["pipeline", "-c", str(ini), "-o", str(out)]) == []

    def test_ab_calls_extra_names_are_package_attributes(self, monkeypatch):
        # the names no span covers alone are wrapped where their caller finds them
        script = self.load_script("ab_calls", monkeypatch)
        for module_name, attr, _ in script.EXTRA_CALLS:
            module = importlib.import_module(module_name)
            assert callable(module.__dict__.get(attr)), f"{module_name}.{attr}"

    def test_ab_calls_times_results_that_differ_and_exits_1(self, tmp_path):
        # a change whose filter cuts off lower: its difference is printed, it
        # is timed all the same, and the exit status says that it differs
        root = Path(__file__).resolve().parents[1]
        shutil.copytree(root / "src" / "momentct", tmp_path / "change" / "momentct",
                        ignore=shutil.ignore_patterns("__pycache__"))
        spectral_py = tmp_path / "change" / "momentct" / "spectral.py"
        text = spectral_py.read_text()
        assert "CUTOFF_FRACTION = 0.8\n" in text
        spectral_py.write_text(text.replace("CUTOFF_FRACTION = 0.8\n", "CUTOFF_FRACTION = 0.7\n"))
        done = subprocess.run([sys.executable, str(root / "scripts" / "ab_calls.py"),
                               str(root / "src"), str(tmp_path / "change"), "--workload",
                               "recon_fine", "--seed", "1", "--call", "spectral.apply_filter"],
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stderr
        lines = done.stdout.splitlines()
        assert re.match(r"spectral\.apply_filter on recon_fine seed 1: results differ by at "
                        r"most \S+, \S+ of the parent's largest magnitude; ", lines[0]), lines[0]
        assert [line.split(":")[0] for line in lines[1:]] == [
            "  parent", "  change", "  rounds won"]

    def test_ab_calls_difference_of_numbers_and_of_bytes(self, monkeypatch):
        script = self.load_script("ab_calls", monkeypatch)
        parent = {"image": np.array([1.0, -4.0]), "count": 2}
        change = {"image": np.array([1.0, -4.0 + 2**-40]), "count": 2}
        assert script.difference(parent, change) == \
            "results differ by at most 9.09e-13, 2.27e-13 of the parent's largest magnitude"
        assert script.difference(b"1 2\n", b"1 3\n") == \
            "results differ, with no numbers to compare one for one"

    def test_ab_bench_summary_counts_wins_and_quartiles(self, monkeypatch):
        script = self.load_script("ab_bench", monkeypatch)
        assert ("pipeline_s", "lower") in script.end_to_end()
        times = [(0.040, 0.030), (0.036, 0.037), (0.038, 0.032), (0.035, 0.034), (0.039, 0.031)]
        pairs = [{"parent": {"pipeline_s": p, "moment_err": 2e-5, "score": 3.0},
                  "change": {"pipeline_s": c, "moment_err": 2e-5, "score": 3.0 + (p > c)}}
                 for p, c in times]
        metrics = [("pipeline_s", "lower"), ("moment_err", "lower"), ("score", "higher")]
        assert script.summary(pairs, metrics) == [
            "pipeline_s (lower is better): change won 4, parent won 1 of 5 pairs",
            "  parent: median 0.038, q1 0.036, q3 0.039",
            "  change: median 0.032, q1 0.031, q3 0.034",
            "moment_err (lower is better): change won 0, parent won 0 of 5 pairs",
            "  parent: median 2e-05, q1 2e-05, q3 2e-05",
            "  change: median 2e-05, q1 2e-05, q3 2e-05",
            "score (higher is better): change won 4, parent won 0 of 5 pairs",
            "  parent: median 3, q1 3, q3 3",
            "  change: median 4, q1 4, q3 4",
        ]
        one = script.summary(pairs[:1], metrics[:1])
        assert one[1:] == ["  parent: median 0.04, q1 0.04, q3 0.04",
                           "  change: median 0.03, q1 0.03, q3 0.03"]


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
