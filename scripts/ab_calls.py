#!/usr/bin/env python3
"""Time one library call of two source trees against each other, in one process.

Usage:
    python3 scripts/ab_calls.py PARENT_SRC CHANGE_SRC --workload W --seed N --call NAME

PARENT_SRC and CHANGE_SRC are `src` directories (each holding the
`momentct` package), for example one from a `git archive` of the parent
commit and this checkout's `src`.  The two packages are loaded side by side
under the names `parent_momentct` and `change_momentct`.  Each side runs its
own `momentct pipeline` on the benchmark's workload configuration
(`perfbench/workloads.py`, at the given seed), with stdout suppressed, and
records every call of NAME it makes, with its arguments.  A side whose
pipeline makes none runs `momentct moments` on the `sinogram.csv` that the
pipeline wrote and records that run's calls instead; that is where
`fileio.read_sinogram` is called.  A workload that makes no such call is
refused with one line on stderr and exit status 1.

NAME is a perfbench span name (`perfbench/tracing.py`'s SPANS), which
records every function wrapped under that name, or one of EXTRA_CALLS.
Each function is wrapped at the module attribute its caller resolves, as
the tracer wraps it.  The result is the list of the recorded calls' results
when they are made again: a writer's (`write_*`) is the bytes it writes to
the path it was given, a computation's its return value.  Both sides'
results are compared bit for bit first.  Where they differ, the script
prints the largest absolute difference over the numbers they hold, and that
difference relative to the parent's largest magnitude, still times the
calls, and exits 1, so that a change meant to keep every bit fails.

Then each round times a batch of replays on each side, in alternating
order, after one untimed batch each.  A batch repeats the replay enough
times to take about 20 ms, so that short calls are not lost in the timer's
resolution.  Prints, per side, the median time of one replay and the
interquartile range over the rounds, and how many rounds each side was the
faster one.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import importlib
import importlib.util
import io
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

from tracing import SPANS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: (module, attribute, name) of the calls that no span name covers alone
EXTRA_CALLS = (
    ("momentct.fileio", "write_moments", "fileio.write_moments"),
    ("momentct.cli", "phantom_image", "density_recon.phantom_image"),
    ("momentct.cli", "fbp_reconstruct", "spectral.fbp_reconstruct"),
)
CALLS = SPANS + EXTRA_CALLS
ROUNDS = 21
BATCH_SECONDS = 0.02


def load(src: str, name: str) -> None:
    """Import the `momentct` package under `src` as `name`."""
    package = Path(src).resolve() / "momentct"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)


def record(package: str, call: str, argv: list) -> list:
    """The calls of `call` that `momentct ARGV` makes in `package`, each as
    (function, args, kwargs)."""
    calls, saved = [], []

    def recorded(fn):
        def wrapper(*args, **kwargs):
            calls.append((fn, args, kwargs))
            return fn(*args, **kwargs)
        return wrapper

    for module, attr, name in CALLS:
        if name == call:
            owner = importlib.import_module(package + module.removeprefix("momentct"))
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, recorded(owner.__dict__[attr]))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = importlib.import_module(f"{package}.cli").main(argv)
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    if status != 0:
        raise SystemExit(f"{package}: momentct {argv[0]} exited {status}")
    return calls


def replay(calls: list) -> list:
    """Each recorded call made again; a writer's result is the bytes it wrote."""
    results = []
    for fn, args, kwargs in calls:
        result = fn(*args, **kwargs)
        if fn.__name__.startswith("write_"):
            result = Path(args[1] if len(args) > 1 else kwargs["path"]).read_bytes()
        results.append(result)
    return results


def plain(x):
    """x as nested tuples of exact values, so that == compares bits."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
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
    parser.add_argument("--call", required=True, choices=sorted({name for _, _, name in CALLS}))
    args = parser.parse_args(argv)

    case = WORKLOADS[args.workload](args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "run.ini"
        ini.write_text(case.ini)
        sides = {}
        for label, src in (("parent", args.parent_src), ("change", args.change_src)):
            package, out = f"{label}_momentct", Path(tmp) / label
            load(src, package)
            calls = record(package, args.call, ["pipeline", "-c", str(ini), "-o", str(out)]) \
                or record(package, args.call, ["moments", "-c", str(ini), "-o",
                                               str(out / "moments"), str(out / "sinogram.csv")])
            if not calls:
                raise SystemExit(f"{args.workload} makes no {args.call} call")
            sides[label] = functools.partial(replay, calls)
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
