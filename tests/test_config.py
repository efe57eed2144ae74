"""The INI loader: sections, keys, defaults, `auto`, and its error messages."""

import math
from dataclasses import fields

import pytest

from momentct.cli import main
from momentct.config import (
    FilterConfig,
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
from momentct.errors import ConfigError

EVERY_KEY = """
[phantom]
kind = polynomial
coeffs = 0,0:1.5; 1,2:-0.25
center = 0.4, 0.6
radius = 0.2
amplitude = 3.5
disks = 0.3,0.3,0.1; 0.7,0.6,0.15,2.0

[mollifier]
kernel = cosine
epsilon = 0.07
max_order = 6

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
angles = 0.3, 0.9, 1.5, 2.4
max_order = 5

[recon]
method = fbp
m = 3
n = 4
resolution = 32

[filter]
kind = riesz
cutoff = 40
reg_floor = 1e-4
taper = 0.2

[output]
directory = results
"""

EVERY_KEY_CONFIG = RunConfig(
    phantom=PhantomConfig(
        kind="polynomial",
        coeffs=((0, 0, 1.5), (1, 2, -0.25)),
        center=(0.4, 0.6),
        radius=0.2,
        amplitude=3.5,
        disks=((0.3, 0.3, 0.1, None), (0.7, 0.6, 0.15, 2.0)),
    ),
    mollifier=MollifierConfig(kernel="cosine", epsilon=0.07, max_order=6),
    noise=NoiseConfig(sigma=0.005, seed=9),
    grids=GridConfig(angles=100, angle_cover="half", offsets=300, margin=1.3),
    moments=MomentConfig(K=3, angles=(0.3, 0.9, 1.5, 2.4), max_order=5),
    recon=ReconConfig(method="fbp", m=3, n=4, resolution=32),
    filter=FilterConfig(kind="riesz", cutoff=40.0, reg_floor=1e-4, taper=0.2),
    output=OutputConfig(directory="results"),
)

SECTIONS = ["phantom", "mollifier", "noise", "grids", "moments", "recon",
            "filter", "output"]


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
                             "[moments]\nk = 3\nMAX_ORDER = 2\n")
        assert cfg.grids == GridConfig(angles=12, angle_cover="full")
        assert cfg.moments == MomentConfig(K=3, max_order=2)

    def test_strings_are_stripped(self, tmp_path):
        cfg = load(tmp_path, "[output]\ndirectory =   somewhere   \n")
        assert cfg.output.directory == "somewhere"

    def test_section_names_are_case_sensitive(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^unknown config section \[Grids\]$"):
            load(tmp_path, "[Grids]\nangles = 12\n")

    @pytest.mark.parametrize("spelling", ["auto", "AUTO", "Auto", "  auto  "])
    @pytest.mark.parametrize("section, key", [
        ("phantom", "amplitude"),
        ("mollifier", "max_order"),
        ("moments", "angles"),
        ("moments", "max_order"),
        ("filter", "cutoff"),
        ("filter", "reg_floor"),
    ])
    def test_auto_in_any_case_means_none(self, tmp_path, spelling, section, key):
        cfg = load(tmp_path, f"[{section}]\n{key} = {spelling}\n")
        assert getattr(getattr(cfg, section), key) is None

    def test_auto_is_not_a_number(self, tmp_path):
        with pytest.raises(ConfigError, match="^invalid config value: "):
            load(tmp_path, "[phantom]\nradius = auto\n")

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
        ("[phantom]\ncenter = 1,2,3\n", "expected 'x,y'"),
        ("[phantom]\ncoeffs = 1,1\n", "bad polynomial term '1,1'"),
        ("[phantom]\ndisks = 0.5,0.5\n", "bad disk '0.5,0.5'"),
        ("[moments]\nangles = 0.5,x\n", "could not convert string to float"),
        ("[mollifier]\nmax_order = 2.5\n", "invalid literal for int()"),
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


class TestFilterBounds:
    @pytest.mark.parametrize("cutoff", [0.0, -5.0])
    def test_cutoff_must_be_positive(self, cutoff):
        with pytest.raises(ConfigError, match=r"^filter cutoff must be positive, got "):
            RunConfig(filter=FilterConfig(cutoff=cutoff)).validate()

    def test_reg_floor_must_be_nonnegative(self):
        with pytest.raises(ConfigError, match=r"^filter reg_floor must be nonnegative, got -1"):
            RunConfig(filter=FilterConfig(reg_floor=-1.0)).validate()

    def test_bounds_hold_at_the_edges(self):
        RunConfig(filter=FilterConfig(cutoff=1e-300, reg_floor=0.0)).validate()


class TestFinite:
    @pytest.mark.parametrize("cfg", [
        RunConfig(noise=NoiseConfig(sigma=math.nan)),
        RunConfig(mollifier=MollifierConfig(epsilon=math.inf)),
        RunConfig(filter=FilterConfig(cutoff=math.nan)),
        RunConfig(filter=FilterConfig(reg_floor=-math.inf)),
        RunConfig(grids=GridConfig(margin=math.nan)),
        RunConfig(phantom=PhantomConfig(kind="disk", center=(0.5, math.nan))),
        RunConfig(phantom=PhantomConfig(kind="disks", disks=((0.5, 0.5, 0.2, math.nan),))),
        RunConfig(phantom=PhantomConfig(kind="polynomial", coeffs=((1, 0, math.inf),))),
        RunConfig(moments=MomentConfig(K=1, angles=(0.5, math.nan))),
    ])
    def test_non_finite_float_is_rejected(self, cfg):
        with pytest.raises(ConfigError, match="must be finite"):
            cfg.validate()

    def test_unused_blocks_are_checked_too(self):
        # a disk radius is checked even for a uniform phantom
        with pytest.raises(ConfigError, match=r"^\[phantom\] radius must be finite, got nan$"):
            RunConfig(phantom=PhantomConfig(radius=math.nan)).validate()
