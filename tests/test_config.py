"""The INI loader: sections, keys, defaults, and its error messages."""

import configparser
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from momentct.cli import main
from momentct.config import (
    ANGLE_COVERS,
    KERNELS,
    PHANTOM_KINDS,
    RECON_METHODS,
    GridConfig,
    MollifierConfig,
    MomentConfig,
    NoiseConfig,
    OutputConfig,
    PhantomConfig,
    ReconConfig,
    RunConfig,
    load_config,
)
from momentct.errors import ConfigError, OrderError, StabilityError
from momentct.phantoms import DiskDensity

REPO = Path(__file__).resolve().parents[1]

EVERY_KEY = """
[phantom]
kind = polynomial
coeffs = 0,0:1.5; 1,2:-0.25
disks = 0.3,0.3,0.1; 0.7,0.6,0.15,2.0

[mollifier]
kernel = cosine
epsilon = 0.07

[noise]
sigma = 0.005
seed = 9

[grids]
angles = 100
angle_cover = half
offsets = 300
margin = 1.3

[moments]
K = 3

[recon]
method = fbp
m = 3
n = 4
resolution = 32

[output]
directory = results
"""

EVERY_KEY_CONFIG = RunConfig(
    phantom=PhantomConfig(
        kind="polynomial",
        coeffs=((0, 0, 1.5), (1, 2, -0.25)),
        disks=((0.3, 0.3, 0.1, None), (0.7, 0.6, 0.15, 2.0)),
    ),
    mollifier=MollifierConfig(kernel="cosine", epsilon=0.07),
    noise=NoiseConfig(sigma=0.005, seed=9),
    grids=GridConfig(angles=100, angle_cover="half", offsets=300, margin=1.3),
    moments=MomentConfig(K=3),
    recon=ReconConfig(method="fbp", m=3, n=4, resolution=32),
    output=OutputConfig(directory="results"),
)

SECTIONS = ["phantom", "mollifier", "noise", "grids", "moments", "recon", "output"]


def load(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return load_config(path)


class TestValues:
    def test_every_key_at_a_non_default_value(self, tmp_path):
        assert load(tmp_path, EVERY_KEY) == EVERY_KEY_CONFIG
        # the text above sets every key of every section away from its default
        for section in fields(RunConfig):
            block = getattr(EVERY_KEY_CONFIG, section.name)
            default = type(block)()
            for key in fields(block):
                assert getattr(block, key.name) != getattr(default, key.name), key.name

    def test_empty_file_gives_defaults(self, tmp_path):
        assert load(tmp_path, "") == RunConfig()

    @pytest.mark.parametrize("section", [s for s in SECTIONS if s != "mollifier"])
    def test_empty_section_gives_defaults(self, tmp_path, section):
        assert load(tmp_path, f"[{section}]\n") == RunConfig()

    def test_empty_mollifier_section_switches_smoothing_on(self, tmp_path):
        cfg = load(tmp_path, "[mollifier]\n")
        assert cfg == RunConfig(mollifier=MollifierConfig())
        assert RunConfig().mollifier is None

    def test_keys_match_in_any_case(self, tmp_path):
        cfg = load(tmp_path, "[grids]\nANGLES = 12\nAngle_Cover = full\n"
                             "[moments]\nk = 3\n[recon]\nMETHOD = fbp\n")
        assert cfg.grids == GridConfig(angles=12, angle_cover="full")
        assert cfg.moments == MomentConfig(K=3)
        assert cfg.recon == ReconConfig(method="fbp")

    def test_strings_are_stripped(self, tmp_path):
        cfg = load(tmp_path, "[output]\ndirectory =   somewhere   \n")
        assert cfg.output.directory == "somewhere"

    def test_section_names_are_case_sensitive(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^unknown config section \[Grids\]$"):
            load(tmp_path, "[Grids]\nangles = 12\n")

    def test_auto_is_not_a_number(self, tmp_path):
        with pytest.raises(ConfigError, match="^invalid config value: "):
            load(tmp_path, "[noise]\nsigma = auto\n")

    def test_disk_amplitude_is_optional(self, tmp_path):
        cfg = load(tmp_path, "[phantom]\nkind = disks\ndisks = 0.5,0.5,0.2;\n")
        assert cfg.phantom.disks == ((0.5, 0.5, 0.2, None),)

    def test_empty_term_lists(self, tmp_path):
        cfg = load(tmp_path, "[phantom]\ncoeffs =\ndisks =\n")
        assert cfg.phantom == PhantomConfig()


class TestErrors:
    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^unknown config section \[wat\]$"):
            load(tmp_path, "[grids]\nangles = 12\n[wat]\n")

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nkind = disk\n",
        "[DEFAULT]\nkind = disk\n[phantom]\n[grids]\nangles = 12\n",
    ], ids=["alone", "beside-sections"])
    def test_default_section_is_unknown(self, tmp_path, text):
        with pytest.raises(ConfigError, match=r"^unknown config section \[DEFAULT\]$"):
            load(tmp_path, text)

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^unknown key 'wat' in section \[phantom\]$"):
            load(tmp_path, "[phantom]\nkind = uniform\nwat = 1\n")

    def test_dataclass_only_names_are_not_keys_elsewhere(self, tmp_path):
        # `K` is a [moments] key, not a [grids] one
        with pytest.raises(ConfigError, match=r"^unknown key 'k' in section \[grids\]$"):
            load(tmp_path, "[grids]\nK = 3\n")

    @pytest.mark.parametrize("text, detail", [
        ("[grids]\nangles = many\n", "invalid literal for int()"),
        ("[noise]\nsigma = loud\n", "could not convert string to float"),
        ("[phantom]\ncoeffs = 1,1\n", "bad polynomial term '1,1'"),
        ("[phantom]\ndisks = 0.5,0.5\n", "bad disk '0.5,0.5'"),
        ("[noise]\nseed = 2.5\n", "invalid literal for int()"),
        ("[phantom]\ndisks = 0.5,0.5,0.2,1,2\n", "bad disk '0.5,0.5,0.2,1,2'"),
        ("[moments]\nK = two\n", "invalid literal for int()"),
    ])
    def test_bad_value_is_wrapped(self, tmp_path, text, detail):
        with pytest.raises(ConfigError, match="^invalid config value: ") as info:
            load(tmp_path, text)
        assert detail in str(info.value)

    def test_unknown_key_is_reported_before_an_earlier_bad_value(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^unknown key 'wat' in section \[recon\]$"):
            load(tmp_path, "[grids]\nangles = many\n[recon]\nwat = 1\n")

    def test_values_are_validated(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown phantom kind 'pyramid'"):
            load(tmp_path, "[phantom]\nkind = pyramid\n")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(tmp_path / "missing.ini")


class TestMalformedFile:
    """configparser's own errors exit 2 with a message naming the file."""

    @pytest.mark.parametrize("text", [
        "[moments]\nK = 2\nK = 3\n",                # duplicated key
        "[moments]\nK = 2\nk = 3\n",                # duplicated key, other case
        "[grids]\nangles = 12\n[grids]\noffsets = 40\n",  # duplicated section
        "K = 2\n[moments]\n",                       # key before any header
        "[moments]\nK\n",                           # key line with no '='
    ], ids=["duplicate-key", "duplicate-key-case", "duplicate-section",
            "no-section-header", "no-equals"])
    def test_malformed_ini_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert main(["project", "-c", str(path), "-o", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert not (tmp_path / "o").exists()

    def test_bad_interpolation_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[output]\ndirectory = 100%\n")
        assert main(["project", "-c", str(path), "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: invalid config value: ")


class TestNoiseSeed:
    def test_negative_seed_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^\[noise\] seed must be nonnegative, got -1$"):
            load(tmp_path, "[noise]\nseed = -1\n")

    def test_zero_seed_is_accepted(self):
        RunConfig(noise=NoiseConfig(seed=0)).validate()


class TestOneDisk:
    """A one-entry `disks` list states a single disk: the sum of one term is
    that term, bit for bit."""

    @pytest.mark.parametrize("entry, disk", [
        ("0.5,0.5,0.25", DiskDensity.unit_mass(center=(0.5, 0.5), radius=0.25)),
        ("0.35,0.4,0.18,2.5", DiskDensity(center=(0.35, 0.4), radius=0.18, amplitude=2.5)),
    ], ids=["unit-mass", "amplitude"])
    def test_equals_the_disk_bitwise(self, tmp_path, entry, disk):
        density = load(tmp_path, f"[phantom]\nkind = disks\ndisks = {entry}\n").make_density()
        theta, p = np.meshgrid(np.linspace(0.0, 2 * math.pi, 37), np.linspace(-0.5, 1.5, 201),
                               indexing="ij")
        assert np.array_equal(density.radon(theta, p), disk.radon(theta, p))
        xs = (np.arange(64) + 0.5) / 64
        xx, yy = np.meshgrid(xs, xs, indexing="ij")
        assert np.array_equal(density.evaluate(xx, yy), disk.evaluate(xx, yy))
        assert density.mass == disk.mass


class TestOrderCaps:
    """K <= 12 and m, n <= 40 are checked with the rest of the config."""

    def test_caps_hold_at_the_edges(self):
        RunConfig(moments=MomentConfig(K=12), recon=ReconConfig(m=40, n=40)).validate()

    def test_moment_order_above_the_cap(self):
        with pytest.raises(OrderError, match=r"^moment order K=13 exceeds the cap 12$"):
            RunConfig(moments=MomentConfig(K=13)).validate()

    @pytest.mark.parametrize("m, n", [(41, 2), (2, 41)])
    def test_recon_order_above_the_stability_cap(self, m, n):
        with pytest.raises(StabilityError, match=r"exceed the stability cap 40$"):
            RunConfig(recon=ReconConfig(m=m, n=n)).validate()


class TestMarginCap:
    """The offset spacing may not exceed the width of the rows' support,
    sqrt2 + 1 + 2 eps: on the default 1024 offsets, a margin of about 873."""

    def test_cap_holds_at_the_edge(self):
        RunConfig(grids=GridConfig(margin=873.0)).validate()
        with pytest.raises(ConfigError, match=r"^\[grids\] margin = 874\.0 spaces the 1024 "
                                              r"offsets 2\.42 apart, wider than the rows' "
                                              r"support \(2\.41\)"):
            RunConfig(grids=GridConfig(margin=874.0)).validate()

    def test_kernel_widens_the_support(self):
        # a spacing of 4.15: wider than the raw rows' support, not the smoothed
        with pytest.raises(ConfigError, match="cannot resolve the unit square"):
            RunConfig(grids=GridConfig(margin=1500.0)).validate()
        RunConfig(mollifier=MollifierConfig(epsilon=1.0), grids=GridConfig(margin=1500.0)).validate()

    def test_non_finite_spacing_names_the_key(self):
        with pytest.raises(ConfigError, match=r"^\[grids\] margin = 1e\+308: grid needs a "
                                              r"finite start, stop and spacing"):
            RunConfig(grids=GridConfig(margin=1e308)).validate()


class TestKernelWidthCap:
    """[mollifier] epsilon lies in (0, sqrt 2]: a kernel wider than the unit
    square's diameter is refused before anything is computed with it."""

    def test_cap_holds_at_the_diameter(self):
        RunConfig(mollifier=MollifierConfig(epsilon=math.sqrt(2.0))).validate()

    @pytest.mark.parametrize("eps", [1.5, 0.0, -0.05])
    def test_width_outside_the_cap_is_refused(self, eps):
        with pytest.raises(ConfigError, match=rf"^\[mollifier\] epsilon must lie in \(0, sqrt 2\], "
                                              rf"the unit square's diameter, got {eps}$"):
            RunConfig(mollifier=MollifierConfig(epsilon=eps)).validate()


def benchmark_inis():
    """The INI text of every benchmark workload at seeds 1 and 2."""
    perfbench = str(REPO / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(perfbench)
    return [pytest.param(make(seed).ini, id=f"{name}_seed{seed}")
            for name, make in WORKLOADS.items() for seed in (1, 2)]


class TestShippedConfigs:
    """A key that a shipped or benchmark config still sets cannot be removed."""

    @pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.ini")),
                             ids=lambda path: path.name)
    def test_shipped_config_loads(self, path):
        load_config(path)

    @pytest.mark.parametrize("ini", benchmark_inis())
    def test_benchmark_workload_config_loads(self, tmp_path, ini):
        load(tmp_path, ini)

    def test_every_key_has_a_caller(self):
        # a key or value that no shipped or benchmark config sets is a knob
        # only the tests turn
        texts = [path.read_text() for path in (REPO / "configs").glob("*.ini")]
        texts += [param.values[0] for param in benchmark_inis()]
        set_values = set()
        for text in texts:
            parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
            parser.read_string(text)
            set_values |= {(section, key, value.strip()) for section in parser.sections()
                           for key, value in parser[section].items()}
        used = {(section, key) for section, key, _ in set_values}
        # EVERY_KEY_CONFIG holds every block, [mollifier] included
        unused = [f"[{section.name}] {key.name}" for section in fields(RunConfig)
                  for key in fields(getattr(EVERY_KEY_CONFIG, section.name))
                  if (section.name, key.name.lower()) not in used]
        assert unused == []
        enumerated = {("phantom", "kind"): PHANTOM_KINDS, ("mollifier", "kernel"): KERNELS,
                      ("grids", "angle_cover"): ANGLE_COVERS, ("recon", "method"): RECON_METHODS}
        unset = {f"{key} = {value}" for (section, key), values in enumerated.items()
                 for value in values if (section, key, value) not in set_values}
        # each of these waits on a decision (ROADMAP items 5 and 6); a new
        # value without a caller, or a value that gains one, changes the set
        assert unset == {"kernel = cosine", "method = moments"}


class TestFinite:
    @pytest.mark.parametrize("cfg", [
        RunConfig(noise=NoiseConfig(sigma=math.nan)),
        RunConfig(mollifier=MollifierConfig(epsilon=math.inf)),
        RunConfig(grids=GridConfig(margin=math.nan)),
        RunConfig(phantom=PhantomConfig(kind="disks", disks=((0.5, 0.5, 0.2, math.nan),))),
        RunConfig(phantom=PhantomConfig(kind="polynomial", coeffs=((1, 0, math.inf),))),
    ])
    def test_non_finite_float_is_rejected(self, cfg):
        with pytest.raises(ConfigError, match="must be finite"):
            cfg.validate()

    def test_unused_blocks_are_checked_too(self):
        # a disk list is checked even for a uniform phantom
        with pytest.raises(ConfigError, match=r"^\[phantom\] disks must be finite, got "
                                              r"\(\(0\.5, 0\.5, nan, None\),\)$"):
            RunConfig(phantom=PhantomConfig(disks=((0.5, 0.5, math.nan, None),))).validate()
