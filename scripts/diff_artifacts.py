#!/usr/bin/env python3
"""Check that two source trees give byte-identical `momentct pipeline` runs.

Usage:
    python3 scripts/diff_artifacts.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are `src` directories (each holding the
`momentct` package), for example one from a `git archive` of the parent
commit and this checkout's `src`.  Both run `momentct pipeline` in a fresh
interpreter on the shipped demo configuration, on the benchmark's three
workload configurations (`perfbench/workloads.py`) at seeds 1 and 2, and on
the CLI tests' `MINI_CONFIG` (`tests/test_cli.py`) at each angle cover
(moment, half, full), with its `[mollifier]` section and without it.  Each
run gets the same relative paths in its own temporary directory, so the two
sides see identical command lines.

Every artifact, the exit status, standard output and standard error are
compared byte for byte.  Prints one line per difference and exits 1 if
there is any, 2 on bad arguments or if a run failed on both sides alike,
0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "perfbench"), str(REPO / "tests"), str(REPO / "src")]

from test_cli import MINI_CONFIG  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2)


def without_section(ini: str, name: str) -> str:
    """The INI text with its `[name]` section left out."""
    kept, skipping = [], False
    for line in ini.splitlines(keepends=True):
        if line.startswith("["):
            skipping = line.strip() == f"[{name}]"
        if not skipping:
            kept.append(line)
    return "".join(kept)


def cases() -> dict[str, str]:
    """Case name -> INI text."""
    out = {"uniform_demo": (REPO / "configs" / "uniform_demo.ini").read_text()}
    for name, make in WORKLOADS.items():
        for seed in SEEDS:
            out[f"{name}_seed{seed}"] = make(seed).ini
    mini = MINI_CONFIG.format(out="out")
    for cover in ("moment", "half", "full"):
        smoothed = mini.replace("angle_cover = moment", f"angle_cover = {cover}")
        out[f"mini_{cover}_smoothed"] = smoothed
        out[f"mini_{cover}_raw"] = without_section(smoothed, "mollifier")
    return out


def run(src: Path, ini: str, workdir: Path) -> dict[str, bytes]:
    """One pipeline run; returns its artifacts plus exit status and streams."""
    workdir.mkdir(parents=True)
    (workdir / "run.ini").write_text(ini)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "momentct.cli", "pipeline", "-c", "run.ini", "-o", "out"],
        cwd=workdir, env=env, capture_output=True,
    )
    result = {
        "<exit status>": str(proc.returncode).encode(),
        "<stdout>": proc.stdout,
        "<stderr>": proc.stderr,
    }
    out = workdir / "out"
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if path.is_file():
                result[str(path.relative_to(out))] = path.read_bytes()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "momentct" / "__init__.py").is_file():
            parser.error(f"{src} holds no momentct package")

    differences = 0
    failures = 0
    with tempfile.TemporaryDirectory(prefix="diff_artifacts_") as tmp:
        for case, ini in cases().items():
            parent = run(args.parent_src.resolve(), ini, Path(tmp) / "parent" / case)
            change = run(args.change_src.resolve(), ini, Path(tmp) / "change" / case)
            differing = [name for name in sorted(parent.keys() | change.keys())
                         if parent.get(name) != change.get(name)]
            for name in differing:
                side = "" if name in parent and name in change else \
                    " (only in parent)" if name in parent else " (only in change)"
                print(f"{case}: {name} differs{side}")
            differences += len(differing)
            if not differing and parent["<exit status>"] != b"0":
                failures += 1
                print(f"{case}: both runs exited {parent['<exit status>'].decode()}")
            if not differing:
                artifacts = len(parent) - 3
                print(f"{case}: {artifacts} artifacts, exit status and output identical")
    if differences:
        print(f"{differences} difference(s)")
        return 1
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
