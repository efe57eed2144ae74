#!/usr/bin/env python3
"""Check that two source trees give byte-identical `momentct` runs.

Usage:
    python3 scripts/diff_artifacts.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are `src` directories (each holding the
`momentct` package), for example one from a `git archive` of the parent
commit and this checkout's `src`.  Both run `momentct pipeline` in a fresh
interpreter on every shipped configuration (`configs/*.ini`, each case
named after its file), on the benchmark's three workload configurations
(`perfbench/workloads.py`) at seeds 1 and 2, and on the CLI tests'
`MINI_CONFIG` (`tests/test_cli.py`) at each angle cover (moment, half,
full), with its `[mollifier]` section and without it, and without it at
`resolution = 128` on each cover: 128^2 pixels are more than one block,
so those backproject in two bands of 64 rows, a real accumulator on the
moment and half covers and a complex one on the full turn, whose rows
pair.  The half cover also runs at `resolution = 100`, in bands of 81 and
19 rows.  Each band group of such an image runs on a thread of its own
where the machine has the CPUs, so these cases compare a threaded image.
One more case, `mini_full_odd_raw`, runs `MINI_CONFIG` without
`[mollifier]` on a full turn of 47 angles, whose rows do not pair: its
image interpolates every row, weighted by the full turn's spacing, and
its evenness line is n/a.  On
the shipped and `MINI_CONFIG` cases each side then also runs `momentct
moments` on the `sinogram.csv` its pipeline wrote, and `momentct
reconstruct` on that `moments.csv` and on that `sinogram.csv`, into a
second output directory, and `momentct project` on the same
configuration into a third (`project -c run.ini -o proj`).  Each case gets
the same relative paths in its own temporary directory, so the two sides
see identical command lines.

Every artifact, and each command's exit status, standard output and
standard error, are compared byte for byte.  Prints one line per
difference and exits 1 if there is any, 2 on bad arguments or if a command
failed on both sides alike, 0 otherwise.  When a `.csv` artifact differs
and both sides parse to arrays of one shape, its line also gives the
largest absolute difference and the largest magnitude on either side, so
that a rounding-level change can be told from a real one.  When a standard
output or error differs, the lines that differ follow, the parent's marked
`-` and the change's `+`, with no lines of context.  Each case also
prints the peak RSS of each side's `pipeline` run, in MB of 1024 KiB as
perfbench's `peak_rss_mb`, so that a memory regression shows beside the
byte-identity check; it is read from `os.wait4`, not compared.  Before
the cases it prints the line count of each side's `momentct` package, as
`wc -l momentct/*.py` gives it, so that a change's size shows beside the
check that it moved no byte.
"""

from __future__ import annotations

import argparse
import difflib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "perfbench"), str(REPO / "tests"), str(REPO / "src")]

from test_cli import MINI_CONFIG  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2)

#: Run by a small interpreter (`python -I -S -c SPAWN STATUS COMMAND...`):
#: spawns COMMAND, waits for it, and writes its wait status and peak RSS
#: (wait4's ru_maxrss, in KiB) to the file STATUS.  A process's peak RSS
#: also counts the memory of the process it was spawned from, so the
#: command is spawned from this interpreter of about 8 MB, not from the
#: script, which holds numpy and the artifacts.
SPAWN = """
import os, sys
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as fh:
    fh.write(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}")
"""

PIPELINE = ("pipeline", "-c", "run.ini", "-o", "out")
#: the subcommands: the inverses on what the pipeline wrote to out/, and
#: the projection on the configuration alone
SUBCOMMANDS = (
    ("moments", "-c", "run.ini", "-o", "sub", "out/sinogram.csv"),
    ("reconstruct", "-c", "run.ini", "-o", "sub", "out/moments.csv"),
    ("reconstruct", "-c", "run.ini", "-o", "sub", "out/sinogram.csv"),
    ("project", "-c", "run.ini", "-o", "proj"),
)


def without_section(ini: str, name: str) -> str:
    """The INI text with its `[name]` section left out."""
    kept, skipping = [], False
    for line in ini.splitlines(keepends=True):
        if line.startswith("["):
            skipping = line.strip() == f"[{name}]"
        if not skipping:
            kept.append(line)
    return "".join(kept)


def cases() -> dict[str, tuple[str, tuple]]:
    """Case name -> (INI text, the commands run on it)."""
    all_commands = (PIPELINE, *SUBCOMMANDS)
    out = {path.stem: (path.read_text(), all_commands)
           for path in sorted((REPO / "configs").glob("*.ini"))}
    for name, make in WORKLOADS.items():
        for seed in SEEDS:
            out[f"{name}_seed{seed}"] = (make(seed).ini, (PIPELINE,))
    mini = MINI_CONFIG.format(out="out")
    for cover in ("moment", "half", "full"):
        smoothed = mini.replace("angle_cover = moment", f"angle_cover = {cover}")
        out[f"mini_{cover}_smoothed"] = (smoothed, all_commands)
        raw = without_section(smoothed, "mollifier")
        out[f"mini_{cover}_raw"] = (raw, all_commands)
        for resolution in (128, 100) if cover == "half" else (128,):
            out[f"mini_{cover}_raw_{resolution}"] = (
                raw.replace("resolution = 16", f"resolution = {resolution}"), all_commands)
        if cover == "full":  # a full turn whose rows do not pair
            out["mini_full_odd_raw"] = (raw.replace("angles = 48", "angles = 47"), all_commands)
    return out


def package_lines(src: Path) -> int:
    """The newlines in the `momentct` modules under `src`: `wc -l`'s count."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "momentct").glob("*.py"))


def csv_change(parent: bytes, change: bytes) -> str:
    """`, max |diff| = ..., max |value| = ...` for two CSV artifacts that
    parse to arrays of one shape (`#` lines skipped), else ''."""
    try:
        a, b = (np.loadtxt(io.BytesIO(data), delimiter=",", comments="#", ndmin=2)
                for data in (parent, change))
    except ValueError:
        return ""
    if a.shape != b.shape or a.size == 0:
        return ""
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    return f", max |diff| = {np.max(np.abs(b - a)):.3g}, max |value| = {scale:.3g}"


def stream_change(parent: bytes, change: bytes) -> list[str]:
    """The lines in which two printed streams differ: the parent's marked
    `-` and the change's `+`, in order, with no lines of context."""
    a, b = (data.decode(errors="replace").splitlines() for data in (parent, change))
    lines = []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if tag != "equal":
            lines += [f"-{line}" for line in a[i1:i2]] + [f"+{line}" for line in b[j1:j2]]
    return lines


def run(src: Path, ini: str, commands: tuple, workdir: Path) -> tuple[dict[str, bytes], dict]:
    """Run the commands in order; returns the artifacts they left, by path
    under `workdir`, plus each command's exit status and streams, and the
    peak RSS of each command, in MB."""
    workdir.mkdir(parents=True)
    (workdir / "run.ini").write_text(ini)
    env = dict(os.environ, PYTHONPATH=str(src))
    status_file = workdir.with_name(f"{workdir.name}.status")
    result, peaks = {}, {}
    for args in commands:
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", SPAWN, str(status_file),
                               sys.executable, "-m", "momentct.cli", *args],
                              cwd=workdir, env=env, capture_output=True, check=True)
        status, maxrss = status_file.read_text().split()
        command = " ".join(args)
        result[f"<{command}: exit status>"] = status.encode()
        result[f"<{command}: stdout>"] = proc.stdout
        result[f"<{command}: stderr>"] = proc.stderr
        peaks[command] = int(maxrss) / 1024
    for path in sorted(workdir.rglob("*")):
        if path.is_file() and path.name != "run.ini":
            result[str(path.relative_to(workdir))] = path.read_bytes()
    return result, peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "momentct" / "__init__.py").is_file():
            parser.error(f"{src} holds no momentct package")
    parent_lines, change_lines = (package_lines(src) for src in (args.parent_src, args.change_src))
    print(f"momentct lines: {parent_lines} parent, {change_lines} change "
          f"({change_lines - parent_lines:+d})")

    differences = 0
    failures = 0
    with tempfile.TemporaryDirectory(prefix="diff_artifacts_") as tmp:
        for case, (ini, commands) in cases().items():
            parent, parent_peaks = run(args.parent_src.resolve(), ini, commands,
                                       Path(tmp) / "parent" / case)
            change, change_peaks = run(args.change_src.resolve(), ini, commands,
                                       Path(tmp) / "change" / case)
            pipeline = " ".join(PIPELINE)
            print(f"{case}: pipeline peak RSS {parent_peaks[pipeline]:.2f} MB parent, "
                  f"{change_peaks[pipeline]:.2f} MB change")
            differing = [name for name in sorted(parent.keys() | change.keys())
                         if parent.get(name) != change.get(name)]
            for name in differing:
                if name in parent and name in change:
                    side = csv_change(parent[name], change[name]) \
                        if name.endswith(".csv") else ""
                else:
                    side = " (only in parent)" if name in parent else " (only in change)"
                print(f"{case}: {name} differs{side}")
                if name.endswith(("stdout>", "stderr>")):  # both sides record every stream
                    for line in stream_change(parent[name], change[name]):
                        print(f"    {line}")
            differences += len(differing)
            statuses = {name: value for name, value in parent.items()
                        if name.endswith(": exit status>")}
            if not differing and any(value != b"0" for value in statuses.values()):
                failures += 1
                print(f"{case}: both sides failed alike: "
                      + ", ".join(f"{name} {value.decode()}"
                                  for name, value in statuses.items()))
            if not differing:
                artifacts = len(parent) - 3 * len(commands)
                print(f"{case}: {len(commands)} command(s), {artifacts} artifacts, "
                      "exit statuses and output identical")
    if differences:
        print(f"{differences} difference(s)")
        return 1
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
