"""Run configuration: a flat INI file with one section per pipeline block.

The dataclasses below are the only statement of the sections, keys, types
and defaults: each section is a `RunConfig` field and each key a field of
that block.  Every block is validated before any computation starts.
Unknown sections or keys are rejected so typos fail fast.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields

from .density_recon import STABILITY_CAP
from .errors import ConfigError, CoverageError, OrderError, StabilityError
from .mollifiers import PROFILES, MollifierSpec, make_kernel
from .numerics import Grid1D
from .phantoms import (
    SQRT2,
    Density,
    DiskDensity,
    PolynomialDensity,
    SumOfDisksDensity,
    UniformDensity,
)
from .projector import full_circle_grid, half_circle_grid, moment_angle_grid, offset_grid

#: The largest moment order K a run may ask for: above it the moment systems
#: become too ill-conditioned for double precision to be trustworthy.
MAX_MOMENT_ORDER = 12

#: The values each enumerated key allows.
PHANTOM_KINDS = ("uniform", "polynomial", "disks")   # [phantom] kind
KERNELS = tuple(PROFILES)                            # [mollifier] kernel
ANGLE_COVERS = ("moment", "half", "full")            # [grids] angle_cover
RECON_METHODS = ("moments", "fbp", "both")           # [recon] method


# ---- parsers of the tuple fields ------------------------------------------

def _terms(text: str) -> list:
    return [item.strip() for item in text.split(";") if item.strip()]


def _parse_coeffs(text: str) -> tuple:
    out = []
    for item in _terms(text):
        try:
            indices, value = item.split(":")
            i, j = (int(t) for t in indices.split(","))
            out.append((i, j, float(value)))
        except ValueError as exc:
            raise ConfigError(f"bad polynomial term {item!r}; want 'i,j:c'") from exc
    return tuple(out)


def _parse_disks(text: str) -> tuple:
    out = []
    for item in _terms(text):
        parts = [t.strip() for t in item.split(",")]
        if len(parts) not in (3, 4):
            raise ConfigError(f"bad disk {item!r}; want 'cx,cy,r[,amplitude]'")
        amp = float(parts[3]) if len(parts) == 4 else None
        out.append((float(parts[0]), float(parts[1]), float(parts[2]), amp))
    return tuple(out)


def _parsed(default, parse):
    """A field whose INI text is read by `parse` instead of its type."""
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class PhantomConfig:
    kind: str = "uniform"
    coeffs: tuple = _parsed((), _parse_coeffs)  # ((i, j, c), ...) for polynomial
    # ((cx, cy, r, amp), ...) for disks; amp None -> an equal share of unit mass
    disks: tuple = _parsed((), _parse_disks)


@dataclass(frozen=True)
class MollifierConfig:
    kernel: str = "bump"
    epsilon: float = 0.05


@dataclass(frozen=True)
class NoiseConfig:
    sigma: float = 0.0
    seed: int = 1


@dataclass(frozen=True)
class GridConfig:
    angles: int = 256
    angle_cover: str = "moment"   # moment: open (0, pi); half: [0, pi); full: [0, 2 pi)
    offsets: int = 1024
    margin: float = 1.1


@dataclass(frozen=True)
class MomentConfig:
    K: int = 4  # each order is fitted over every row in (0, pi)


@dataclass(frozen=True)
class ReconConfig:
    method: str = "moments"       # moments | fbp | both
    m: int = 2
    n: int = 2
    resolution: int = 64


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"


def _floats(value) -> list:
    """The floats in a config value, including those inside tuples."""
    if isinstance(value, tuple):
        return [x for item in value for x in _floats(item)]
    return [value] if isinstance(value, float) else []


@dataclass(frozen=True)
class RunConfig:
    phantom: PhantomConfig = field(default_factory=PhantomConfig)
    mollifier: MollifierConfig | None = None
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    grids: GridConfig = field(default_factory=GridConfig)
    moments: MomentConfig = field(default_factory=MomentConfig)
    recon: ReconConfig = field(default_factory=ReconConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def validate(self) -> None:
        for section in fields(self):
            block = getattr(self, section.name)
            for f in fields(block) if block is not None else ():
                value = getattr(block, f.name)
                if not all(math.isfinite(x) for x in _floats(value)):
                    raise ConfigError(f"[{section.name}] {f.name} must be finite, got {value}")
        p = self.phantom
        if p.kind not in PHANTOM_KINDS:
            raise ConfigError(f"unknown phantom kind {p.kind!r}")
        for i, j, c in p.coeffs:
            if i < 0 or j < 0:
                raise ConfigError(f"[phantom] coeffs term '{i},{j}:{c}' has a negative exponent")
        if p.kind == "polynomial" and not p.coeffs:
            raise ConfigError("polynomial phantom needs coeffs")
        if p.kind == "disks":
            if not p.disks:
                raise ConfigError("disks phantom needs a disk list")
            for _, _, r, _ in p.disks:
                # an amplitude left out divides a share of unit mass by pi r^2
                if r <= 0 or math.pi * r * r == 0.0:
                    raise ConfigError(f"[phantom] disk radius must be positive with a "
                                      f"nonzero area pi r^2, got {r}")
        if self.mollifier is not None:
            mc = self.mollifier
            if mc.kernel not in KERNELS:
                raise ConfigError(f"unknown kernel {mc.kernel!r}")
            # no row's support is wider than the unit square's diameter; a
            # wider kernel is refused before any arithmetic can overflow on it
            if not 0 < mc.epsilon <= SQRT2:
                raise ConfigError(f"[mollifier] epsilon must lie in (0, sqrt 2], the unit "
                                  f"square's diameter, got {mc.epsilon}")
        if self.noise.sigma < 0:
            raise ConfigError("noise sigma must be nonnegative")
        if self.noise.seed < 0:
            raise ConfigError(f"[noise] seed must be nonnegative, got {self.noise.seed}")
        g = self.grids
        if g.angles < 2 or g.offsets < 2:
            raise ConfigError("grids need at least 2 angles and 2 offsets")
        if g.angle_cover not in ANGLE_COVERS:
            raise ConfigError(f"unknown angle cover {g.angle_cover!r}")
        if g.margin < 1.0:
            raise CoverageError(f"offset margin must be >= 1, got {g.margin}")
        try:
            spacing = self.make_offset_grid().spacing
        except ValueError as exc:
            raise ConfigError(f"[grids] margin = {g.margin}: {exc}") from None
        # the rows' support, [-1, sqrt2] widened by the kernel on each side,
        # is what the moments integrate; a wider spacing samples it at most once
        support = SQRT2 + 1.0 + 2.0 * (self.mollifier.epsilon if self.mollifier else 0.0)
        if spacing > support:
            raise ConfigError(
                f"[grids] margin = {g.margin} spaces the {g.offsets} offsets {spacing:.3g} "
                f"apart, wider than the rows' support ({support:.3g}): the grid cannot "
                f"resolve the unit square")
        mo = self.moments
        if mo.K < 0:
            raise ConfigError("moment order K must be nonnegative")
        if mo.K > MAX_MOMENT_ORDER:
            raise OrderError(f"moment order K={mo.K} exceeds the cap {MAX_MOMENT_ORDER}")
        r = self.recon
        if r.method not in RECON_METHODS:
            raise ConfigError(f"unknown recon method {r.method!r}")
        if r.m < 1 or r.n < 1 or r.resolution < 1:
            raise ConfigError("recon orders and resolution must be positive")
        if max(r.m, r.n) > STABILITY_CAP:
            raise StabilityError(
                f"recon orders ({r.m}, {r.n}) exceed the stability cap {STABILITY_CAP}")
        # K >= m + n holds against the moment table the reconstruction reads,
        # which only `pipeline` takes from this config (`cli.cmd_pipeline`)

    # ---- factories -------------------------------------------------

    def make_density(self) -> Density:
        p = self.phantom
        if p.kind == "uniform":
            return UniformDensity()
        if p.kind == "polynomial":
            return PolynomialDensity.from_dict({(i, j): c for i, j, c in p.coeffs})
        disks = []
        for cx, cy, r, amp in p.disks:
            if amp is None:
                amp = (1.0 / len(p.disks)) / (math.pi * r * r)
            disks.append(DiskDensity(center=(cx, cy), radius=r, amplitude=amp))
        return SumOfDisksDensity(disks=tuple(disks))

    def make_mollifier(self) -> MollifierSpec | None:
        if self.mollifier is None:
            return None
        return make_kernel(self.mollifier.kernel, self.mollifier.epsilon)

    def make_angle_grid(self) -> Grid1D:
        g = self.grids
        if g.angle_cover == "moment":
            return moment_angle_grid(g.angles)
        if g.angle_cover == "half":
            return half_circle_grid(g.angles)
        return full_circle_grid(g.angles)

    def make_offset_grid(self) -> Grid1D:
        return offset_grid(self.grids.offsets, self.grids.margin)


# ---- parsing ----------------------------------------------------------

#: INI text -> value, by annotated type
_CONVERTERS = {"int": int, "float": float, "str": str.strip}


def _parse_value(f, text: str):
    """One key's value: its field's own parser, or else its type's."""
    return (f.metadata.get("parse") or _CONVERTERS[f.type])(text)


def load_config(path) -> RunConfig:
    """Parse and fully validate an INI run configuration.

    Keys match in any case; an absent key keeps its default.  A present
    section, even an empty one, builds its block: `[mollifier]` alone
    switches smoothing on.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(os.fspath(path))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    # configparser lends the keys of [DEFAULT] to every section
    if parser.defaults():
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    # each RunConfig field's annotation names its block class
    sections = {f.name: globals()[f.type.removesuffix(" | None")] for f in fields(RunConfig)}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        known = {f.name.lower() for f in fields(sections[section])}
        for key in parser[section]:
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    blocks = {}
    try:
        for section, block in sections.items():
            if parser.has_section(section):
                sec = parser[section]
                blocks[section] = block(**{
                    f.name: _parse_value(f, sec[f.name])
                    for f in fields(block) if f.name in sec
                })
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc

    cfg = RunConfig(**blocks)
    cfg.validate()
    return cfg
