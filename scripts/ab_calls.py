#!/usr/bin/env python3
"""Time one library call of two source trees against each other, in one process.

Usage:
    python3 scripts/ab_calls.py PARENT_SRC CHANGE_SRC --workload W --seed N --call NAME

PARENT_SRC and CHANGE_SRC are `src` directories (each holding the
`momentct` package), for example one from a `git archive` of the parent
commit and this checkout's `src`.  The two packages are loaded side by side
under the names `parent_momentct` and `change_momentct`.  Each builds the
inputs of the call from the benchmark's workload configuration
(`perfbench/workloads.py`, at the given seed) the way `momentct pipeline`
does: the phantom, the simulated sinogram as `sinogram.csv` reads back, the
moment table and both images.

NAME is one of CALLS below, named as perfbench names its spans.  A writer
writes what the pipeline writes with it (`fileio.write_pgm` all four PGM
files) into a temporary directory, and its result is the bytes written; a
computation's result is its return value.  Both sides' results are
compared bit for bit first.  Where they differ, the script prints the
largest absolute difference over the numbers they hold, and that
difference relative to the parent's largest magnitude, still times the
call, and exits 1, so that a change meant to keep every bit fails.

Then each round times a batch of calls on each side, in alternating order,
after one untimed batch each.  A batch repeats the call enough times to
take about 20 ms, so that short calls are not lost in the timer's
resolution.  Prints, per side, the median time of one call and the
interquartile range over the rounds, and how many rounds each side was the
faster one.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import importlib.util
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

MODULES = ("cli", "config", "density_recon", "fileio", "moment_recovery", "projector",
           "spectral")
ROUNDS = 21
BATCH_SECONDS = 0.02


def load(src: str, name: str) -> SimpleNamespace:
    """The `momentct` package under `src`, imported as `name`; its modules
    as attributes."""
    package = Path(src).resolve() / "momentct"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def pipeline_state(pkg: SimpleNamespace, ini: Path, workdir: Path) -> SimpleNamespace:
    """What `cli.cmd_pipeline` computes before it writes, for this package,
    and its `sinogram.csv` in `workdir`."""
    cfg = pkg.config.load_config(ini)
    density = cfg.make_density()
    kernel = cfg.make_mollifier()
    raw = pkg.projector.project(density, cfg.make_angle_grid(), cfg.make_offset_grid())
    noisy = raw
    if cfg.noise.sigma > 0:
        noisy = pkg.projector.add_noise(raw, cfg.noise.sigma, cfg.noise.seed)
    sino = pkg.cli._simulate(cfg, density, kernel)
    # a tree whose grids do not read back as written has `fileio.recorded`
    stored = getattr(pkg.fileio, "recorded", lambda s: s)(sino)
    table = pkg.moment_recovery.recover_moment_table(stored, cfg.moments.K)
    workdir.mkdir()
    pkg.fileio.write_sinogram(sino, workdir / "sinogram.csv")
    r = cfg.recon
    grid = stored.angle_grid.points()
    return SimpleNamespace(
        cfg=cfg, density=density, kernel=kernel, raw=raw, noisy=noisy, sino=sino,
        stored=stored, table=table, angles=grid[(grid > 0.0) & (grid < math.pi)],
        filtered=pkg.spectral.apply_filter(stored),
        moment_image=pkg.density_recon.reconstruct_grid(table, r.m, r.n, r.resolution),
        fbp_image=pkg.spectral.fbp_reconstruct(stored, r.resolution),
        truth=pkg.density_recon.phantom_image(density, r.resolution), workdir=workdir)


def written(st: SimpleNamespace, write, *items) -> bytes:
    """The bytes that write(item, path) writes, for each (item, file name)."""
    out = []
    for item, name in items:
        path = st.workdir / f"out_{name}"
        write(item, path)
        out.append(path.read_bytes())
    return b"".join(out)


def needs(value, stage: str):
    """value, or SystemExit when the workload does not run `stage`."""
    if value is None:
        raise SystemExit(f"this workload has no {stage} stage")
    return value


#: name -> call(package, state); each side runs on its own inputs.  The
#: names are perfbench's span names, or the function's own where a span covers more
#: than one call (`fileio.write_moments`) or none.
CALLS = {
    "projector.project": lambda p, st: p.projector.project(
        st.density, st.cfg.make_angle_grid(), st.cfg.make_offset_grid()),
    "projector.add_noise": lambda p, st: p.projector.add_noise(
        st.raw, needs(st.cfg.noise.sigma or None, "noise"), st.cfg.noise.seed),
    "projector.mollify": lambda p, st: p.projector.mollify(
        st.noisy, needs(st.kernel, "mollifier")),
    "moment_recovery.angular_moments": lambda p, st: p.moment_recovery.angular_moments(
        st.stored, st.cfg.moments.K, st.angles),
    "moment_recovery.recover": lambda p, st: p.moment_recovery.recover_moment_table(
        st.stored, st.cfg.moments.K),
    "density_recon.reconstruct_grid": lambda p, st: p.density_recon.reconstruct_grid(
        st.table, st.cfg.recon.m, st.cfg.recon.n, st.cfg.recon.resolution),
    "density_recon.phantom_image": lambda p, st: p.density_recon.phantom_image(
        st.density, st.cfg.recon.resolution),
    "spectral.apply_filter": lambda p, st: p.spectral.apply_filter(st.stored),
    "spectral.backproject": lambda p, st: p.spectral.backproject(
        st.filtered, st.cfg.recon.resolution),
    "spectral.fbp_reconstruct": lambda p, st: p.spectral.fbp_reconstruct(
        st.stored, st.cfg.recon.resolution),
    "fileio.write_sinogram": lambda p, st: written(
        st, p.fileio.write_sinogram, (st.sino, "sinogram.csv")),
    "fileio.read_sinogram": lambda p, st: p.fileio.read_sinogram(
        st.workdir / "sinogram.csv"),
    "fileio.write_moments": lambda p, st: written(
        st, p.fileio.write_moments, (st.table, "moments.csv")),
    "fileio.write_recon_csv": lambda p, st: written(
        st, p.fileio.write_recon_csv, (st.moment_image, "recon_moments.csv"),
        (st.fbp_image, "recon_fbp.csv")),
    "fileio.write_pgm": lambda p, st: written(
        st, p.fileio.write_pgm, (st.sino.values, "sinogram.pgm"), (st.truth, "phantom.pgm"),
        (st.moment_image.values, "recon_moments.pgm"),
        (st.fbp_image.values, "recon_fbp.pgm")),
}


def plain(x):
    """x as nested tuples of exact values, so that == compares bits."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if type(x).__name__ == "Grid1D":  # trees before start, spacing and count kept a stop
        return ("Grid1D", plain(x.start), plain(x.spacing), x.count)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,
                tuple((f.name, plain(getattr(x, f.name))) for f in dataclasses.fields(x)))
    if isinstance(x, dict):
        return tuple(sorted((k, plain(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(plain(v) for v in x)
    if isinstance(x, float):
        return x.hex()
    return x


def numbers(x) -> list:
    """The numbers in x, in the order `plain` walks it, as flat arrays."""
    if isinstance(x, np.ndarray):
        return [x.ravel()]
    if isinstance(x, (int, float, complex)) and not isinstance(x, bool):
        return [np.array([x])]
    if dataclasses.is_dataclass(x):
        return numbers([getattr(x, f.name) for f in dataclasses.fields(x)])
    if isinstance(x, dict):
        return numbers([v for _, v in sorted(x.items())])
    if isinstance(x, (list, tuple)):
        return [part for v in x for part in numbers(v)]
    return []


def difference(parent, change) -> str:
    """How far the change's result is from the parent's, for a line of output."""
    a, b = (np.concatenate(numbers(x) or [np.empty(0)]) for x in (parent, change))
    if a.shape != b.shape or a.size == 0:
        return "results differ, with no numbers to compare one for one"
    largest = float(np.max(np.abs(a - b)))
    scale = float(np.max(np.abs(a)))
    relative = largest / scale if scale else math.inf
    return (f"results differ by at most {largest:.3g}, {relative:.3g} of the parent's "
            f"largest magnitude")


def batch_time(call, repeats: int) -> float:
    """Seconds per call over `repeats` calls in a row."""
    start = time.perf_counter()
    for _ in range(repeats):
        call()
    return (time.perf_counter() - start) / repeats


def summary(times: list) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return f"median {median * 1e3:.3f} ms, IQR {q1 * 1e3:.3f}-{q3 * 1e3:.3f} ms"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--call", required=True, choices=sorted(CALLS))
    args = parser.parse_args(argv)

    case = WORKLOADS[args.workload](args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "run.ini"
        ini.write_text(case.ini)
        sides = {}
        for label, src in (("parent", args.parent_src), ("change", args.change_src)):
            pkg = load(src, f"{label}_momentct")
            state = pipeline_state(pkg, ini, Path(tmp) / label)
            sides[label] = functools.partial(CALLS[args.call], pkg, state)
        results = {label: call() for label, call in sides.items()}
        equal = plain(results["parent"]) == plain(results["change"])
        verdict = "results equal" if equal else difference(results["parent"], results["change"])
        compare(sides, args, verdict)
        return 0 if equal else 1


def compare(sides: dict, args, verdict: str) -> None:
    """Time the two sides' calls in alternating rounds and print the result."""
    once = min(batch_time(call, 1) for call in sides.values())
    repeats = max(1, round(BATCH_SECONDS / max(once, 1e-9)))
    times = {label: [] for label in sides}
    for label, call in sides.items():
        batch_time(call, repeats)
    for round_ in range(ROUNDS):
        order = ("parent", "change") if round_ % 2 == 0 else ("change", "parent")
        for label in order:
            times[label].append(batch_time(sides[label], repeats))
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    losses = sum(c > p for p, c in zip(times["parent"], times["change"]))
    print(f"{args.call} on {args.workload} seed {args.seed}: {verdict}; "
          f"{ROUNDS} rounds of {repeats} calls per side")
    for label in sides:
        print(f"  {label}: {summary(times[label])}")
    print(f"  rounds won: change {wins}, parent {losses}")


if __name__ == "__main__":
    sys.exit(main())
