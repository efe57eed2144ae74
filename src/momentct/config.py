"""Run configuration: a flat INI file with one section per pipeline block.

Every block is validated before any computation starts.  Unknown sections
or keys are rejected so typos fail fast.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

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


@dataclass(frozen=True)
class PhantomConfig:
    kind: str = "uniform"
    coeffs: tuple = ()            # ((i, j, c), ...) for polynomial
    center: tuple = (0.5, 0.5)    # disk
    radius: float = 0.25
    amplitude: float | None = None  # None -> normalized to unit mass
    disks: tuple = ()             # ((cx, cy, r, amp-or-None), ...) for disks


@dataclass(frozen=True)
class MollifierConfig:
    kernel: str = "bump"
    epsilon: float = 0.05
    max_order: int | None = None  # None -> moments.K


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
    angles: tuple | None = None   # None -> fit over every row in (0, pi)
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


# ---- parsing ---------------------------------------------------------

_KNOWN_KEYS = {
    "phantom": {"kind", "coeffs", "center", "radius", "amplitude", "disks"},
    "mollifier": {"kernel", "epsilon", "max_order"},
    "noise": {"sigma", "seed"},
    "grids": {"angles", "angle_cover", "offsets", "margin"},
    "moments": {"K", "angles", "max_order"},
    "recon": {"method", "m", "n", "resolution"},
    "filter": {"kind", "cutoff", "reg_floor", "taper"},
    "output": {"directory"},
}


def _parse_pair(text: str) -> tuple:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"expected 'x,y', got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_coeffs(text: str) -> tuple:
    out = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        try:
            indices, value = item.split(":")
            i, j = (int(t) for t in indices.split(","))
            out.append((i, j, float(value)))
        except ValueError as exc:
            raise ConfigError(f"bad polynomial term {item!r}; want 'i,j:c'") from exc
    return tuple(out)


def _parse_disks(text: str) -> tuple:
    out = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        parts = [t.strip() for t in item.split(",")]
        if len(parts) not in (3, 4):
            raise ConfigError(f"bad disk {item!r}; want 'cx,cy,r[,amplitude]'")
        amp = float(parts[3]) if len(parts) == 4 else None
        out.append((float(parts[0]), float(parts[1]), float(parts[2]), amp))
    return tuple(out)


def _opt_float(value: str) -> float | None:
    return None if value.strip().lower() == "auto" else float(value)


def load_config(path) -> RunConfig:
    """Parse and fully validate an INI run configuration."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(Path(path))
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in {k.lower() for k in _KNOWN_KEYS[section]}:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    cfg = RunConfig()
    try:
        if parser.has_section("phantom"):
            sec = parser["phantom"]
            cfg = replace(cfg, phantom=PhantomConfig(
                kind=sec.get("kind", "uniform").strip(),
                coeffs=_parse_coeffs(sec.get("coeffs", "")) if sec.get("coeffs") else (),
                center=_parse_pair(sec.get("center", "0.5,0.5")),
                radius=sec.getfloat("radius", 0.25),
                amplitude=_opt_float(sec.get("amplitude", "auto")),
                disks=_parse_disks(sec.get("disks", "")) if sec.get("disks") else (),
            ))
        if parser.has_section("mollifier"):
            sec = parser["mollifier"]
            max_order = sec.get("max_order", "auto")
            cfg = replace(cfg, mollifier=MollifierConfig(
                kernel=sec.get("kernel", "bump").strip(),
                epsilon=sec.getfloat("epsilon", 0.05),
                max_order=None if max_order.strip() == "auto" else int(max_order),
            ))
        if parser.has_section("noise"):
            sec = parser["noise"]
            cfg = replace(cfg, noise=NoiseConfig(
                sigma=sec.getfloat("sigma", 0.0),
                seed=sec.getint("seed", 1),
            ))
        if parser.has_section("grids"):
            sec = parser["grids"]
            cfg = replace(cfg, grids=GridConfig(
                angles=sec.getint("angles", 256),
                angle_cover=sec.get("angle_cover", "moment").strip(),
                offsets=sec.getint("offsets", 1024),
                margin=sec.getfloat("margin", 1.1),
            ))
        if parser.has_section("moments"):
            sec = parser["moments"]
            angles_text = sec.get("angles", "auto").strip()
            angles = None if angles_text.lower() == "auto" else tuple(
                float(t) for t in angles_text.split(",")
            )
            max_order = sec.get("max_order", "auto").strip()
            cfg = replace(cfg, moments=MomentConfig(
                K=sec.getint("K", 4),
                angles=angles,
                max_order=None if max_order == "auto" else int(max_order),
            ))
        if parser.has_section("recon"):
            sec = parser["recon"]
            cfg = replace(cfg, recon=ReconConfig(
                method=sec.get("method", "moments").strip(),
                m=sec.getint("m", 2),
                n=sec.getint("n", 2),
                resolution=sec.getint("resolution", 64),
            ))
        if parser.has_section("filter"):
            sec = parser["filter"]
            cfg = replace(cfg, filter=FilterConfig(
                kind=sec.get("kind", "auto").strip(),
                cutoff=_opt_float(sec.get("cutoff", "auto")),
                reg_floor=_opt_float(sec.get("reg_floor", "auto")),
                taper=sec.getfloat("taper", 0.1),
            ))
        if parser.has_section("output"):
            cfg = replace(cfg, output=OutputConfig(
                directory=parser["output"].get("directory", "out").strip(),
            ))
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc

    cfg.validate()
    return cfg
