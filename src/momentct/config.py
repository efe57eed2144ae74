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

from .errors import ConfigError, CoverageError
from .mollifiers import MollifierSpec, make_kernel
from .numerics import Grid1D
from .phantoms import (
    Density,
    DiskDensity,
    PolynomialDensity,
    SumOfDisksDensity,
    UniformDensity,
)
from .projector import full_circle_grid, half_circle_grid, moment_angle_grid, offset_grid
from .spectral import DEFAULT_REG_FLOOR, FilterSpec


# ---- parsers of the tuple fields ------------------------------------------

def _parse_pair(text: str) -> tuple:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"expected 'x,y', got {text!r}")
    return float(parts[0]), float(parts[1])


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
    coeffs: tuple = _parsed((), _parse_coeffs)          # ((i, j, c), ...) for polynomial
    center: tuple = _parsed((0.5, 0.5), _parse_pair)    # disk
    radius: float = 0.25
    amplitude: float | None = None  # None -> normalized to unit mass
    disks: tuple = _parsed((), _parse_disks)  # ((cx, cy, r, amp-or-None), ...) for disks


@dataclass(frozen=True)
class MollifierConfig:
    kernel: str = "bump"
    epsilon: float = 0.05
    max_order: int | None = None  # None -> max(moments.K, 2)


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
    K: int = 4
    # None -> fit over every row in (0, pi)
    angles: tuple | None = _parsed(None, lambda text: tuple(float(t) for t in text.split(",")))
    max_order: int | None = None  # solver order cap override


@dataclass(frozen=True)
class ReconConfig:
    method: str = "moments"       # moments | fbp | both
    m: int = 2
    n: int = 2
    resolution: int = 64


@dataclass(frozen=True)
class FilterConfig:
    kind: str = "auto"            # auto | riesz | modified_riesz
    cutoff: float | None = None
    reg_floor: float | None = None
    taper: float = 0.1


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
    filter: FilterConfig = field(default_factory=FilterConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def validate(self) -> None:
        for section in fields(self):
            block = getattr(self, section.name)
            for f in fields(block) if block is not None else ():
                value = getattr(block, f.name)
                if not all(math.isfinite(x) for x in _floats(value)):
                    raise ConfigError(f"[{section.name}] {f.name} must be finite, got {value}")
        p = self.phantom
        if p.kind not in ("uniform", "polynomial", "disk", "disks"):
            raise ConfigError(f"unknown phantom kind {p.kind!r}")
        if p.kind == "polynomial" and not p.coeffs:
            raise ConfigError("polynomial phantom needs coeffs")
        if p.kind == "disks" and not p.disks:
            raise ConfigError("disks phantom needs a disk list")
        if self.mollifier is not None:
            mc = self.mollifier
            if mc.kernel not in ("bump", "cosine"):
                raise ConfigError(f"unknown kernel {mc.kernel!r}")
            if mc.epsilon <= 0:
                raise ConfigError("mollifier epsilon must be positive")
        if self.noise.sigma < 0:
            raise ConfigError("noise sigma must be nonnegative")
        g = self.grids
        if g.angles < 2 or g.offsets < 2:
            raise ConfigError("grids need at least 2 angles and 2 offsets")
        if g.angle_cover not in ("moment", "half", "full"):
            raise ConfigError(f"unknown angle cover {g.angle_cover!r}")
        if g.margin < 1.0:
            raise CoverageError(f"offset margin must be >= 1, got {g.margin}")
        mo = self.moments
        if mo.K < 0:
            raise ConfigError("moment order K must be nonnegative")
        if mo.angles is not None:
            if len(mo.angles) != mo.K + 1:
                raise ConfigError(f"need K+1 = {mo.K + 1} moment angles")
            if any(not 0 < a < math.pi for a in mo.angles):
                raise ConfigError("moment angles must lie strictly inside (0, pi)")
            if any(b <= a for a, b in zip(mo.angles, mo.angles[1:])):
                raise ConfigError("moment angles must be strictly increasing")
        r = self.recon
        if r.method not in ("moments", "fbp", "both"):
            raise ConfigError(f"unknown recon method {r.method!r}")
        if r.m < 1 or r.n < 1 or r.resolution < 1:
            raise ConfigError("recon orders and resolution must be positive")
        # K >= m + n is enforced against the actual moment table at
        # reconstruction time, where it maps to the order-error exit code
        f = self.filter
        if f.kind not in ("auto", "riesz", "modified_riesz"):
            raise ConfigError(f"unknown filter kind {f.kind!r}")
        if not 0 <= f.taper < 1:
            raise ConfigError("filter taper must lie in [0, 1)")
        # the cutoff's Nyquist bound needs the sinogram's grid: `apply_filter`
        if f.cutoff is not None and f.cutoff <= 0:
            raise ConfigError(f"filter cutoff must be positive, got {f.cutoff}")
        if f.reg_floor is not None and f.reg_floor < 0:
            raise ConfigError(f"filter reg_floor must be nonnegative, got {f.reg_floor}")

    # ---- factories -------------------------------------------------

    def make_density(self) -> Density:
        p = self.phantom
        if p.kind == "uniform":
            return UniformDensity()
        if p.kind == "polynomial":
            return PolynomialDensity.from_dict({(i, j): c for i, j, c in p.coeffs})
        if p.kind == "disk":
            if p.amplitude is None:
                return DiskDensity.unit_mass(p.center, p.radius)
            return DiskDensity(center=p.center, radius=p.radius, amplitude=p.amplitude)
        disks = []
        for cx, cy, r, amp in p.disks:
            if amp is None:
                amp = (1.0 / len(p.disks)) / (math.pi * r * r)
            disks.append(DiskDensity(center=(cx, cy), radius=r, amplitude=amp))
        return SumOfDisksDensity(disks=tuple(disks))

    def make_mollifier(self) -> MollifierSpec | None:
        if self.mollifier is None:
            return None
        order = self.mollifier.max_order
        if order is None:
            order = max(self.moments.K, 2)
        return make_kernel(self.mollifier.kernel, self.mollifier.epsilon, order)

    def make_angle_grid(self) -> Grid1D:
        g = self.grids
        if g.angle_cover == "moment":
            return moment_angle_grid(g.angles)
        if g.angle_cover == "half":
            return half_circle_grid(g.angles)
        return full_circle_grid(g.angles)

    def make_offset_grid(self) -> Grid1D:
        return offset_grid(self.grids.offsets, self.grids.margin)

    def make_filter(self, sinogram_kind: str) -> FilterSpec:
        f = self.filter
        kind = f.kind
        if kind == "auto":
            kind = "modified_riesz" if sinogram_kind == "mollified" else "riesz"
        return FilterSpec(
            kind=kind,
            cutoff=f.cutoff,
            reg_floor=DEFAULT_REG_FLOOR if f.reg_floor is None else f.reg_floor,
            taper_fraction=f.taper,
        )


# ---- parsing ----------------------------------------------------------

#: INI text -> value, by annotated type
_CONVERTERS = {"int": int, "float": float, "str": str.strip}


def _parse_value(f, text: str):
    """One key's value: `auto` in any case means None in an `X | None` field."""
    if f.type.endswith(" | None") and text.strip().lower() == "auto":
        return None
    return (f.metadata.get("parse") or _CONVERTERS[f.type.removesuffix(" | None")])(text)


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
