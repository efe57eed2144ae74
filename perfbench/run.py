"""Benchmark of the `momentct pipeline` command; see README.md next to this file.

Usage:
    python3 perfbench/run.py --workload {demo,acquire_large,recon_fine}
                             --seed N --seconds S --trace {0,1}

One process runs one workload as a closed loop with a single client: it
calls `momentct.cli.main(["pipeline", ...])` in process, waits for it, checks
its artifacts outside the timed region, and calls again until S seconds have
passed.  The first call is an untimed warm-up.  Every timed interval is
bracketed by a fixed reference kernel and reported in reference seconds,
which cancels most of the host's speed drift (reference.py).  With
--trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate set of traced runs.  Working files go to .perfbench/ at the
root of the checkout and are removed at the end, except the run record.
"""

from __future__ import annotations

import os

# pinned before numpy loads, so that BLAS/OpenMP run one thread; the set-up
# probes inherit the same environment
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

#: Fresh-interpreter set-up probes per run; setup_s is their median.
SETUP_PROBES = 7
#: Pipeline runs made even when --seconds has already passed, the untimed
#: warm-up included; two are the least that can show a rerun whose
#: artifacts differ.
MIN_RUNS = 3
#: Traced runs in a --trace 1 run, at least; untraced runs alternate with them.
MIN_TRACED = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "moment_err": "abs",
    "recon_dev": "abs",
    "fbp_rel_l2": "ratio",
}


def per_layer_units() -> dict:
    from tracing import SPANS, WORK_FIGURES

    units = {f"{name}_s": "s" for _, _, name in SPANS}
    units["cli.self_s"] = "s"
    for name in WORK_FIGURES:
        units[name] = "ratio" if name.endswith("max_condition") else \
            "B" if name.startswith("fileio.bytes") else "count"
    units["trace.pipeline_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_pipeline(cli_main, ini: Path, outdir: Path, call=None):
    """One timed `momentct pipeline` call; returns (seconds, problems)."""
    argv = ["pipeline", "-c", str(ini), "-o", str(outdir)]
    out, err = io.StringIO(), io.StringIO()
    problems = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call(lambda: cli_main(argv)) if call else cli_main(argv)
    except Exception:  # a raising run is a failed run; keep measuring the rest
        code = None
        problems.append("raised:\n" + traceback.format_exc())
    elapsed = time.perf_counter() - start
    if code not in (0, None):
        problems.append(f"exit code {code}: {err.getvalue().strip()}")
    return elapsed, problems


def measure_setup(ini: Path) -> tuple:
    """Time the fresh-interpreter set-ups; returns (wall, reference) seconds."""
    from reference import kernel_seconds, to_reference

    walls, refs = [], []
    for _ in range(SETUP_PROBES):
        before = kernel_seconds()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(ini)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        after = kernel_seconds()
        walls.append(float(done.stdout.strip().splitlines()[-1]))
        refs.append(to_reference(walls[-1], before, after))
    return walls, refs


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment() -> dict:
    import numpy

    commit = "unknown"  # a checkout without .git carries no commit
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": commit,
    }


class Runner:
    """Runs, checks and times the pipeline on one generated case."""

    def __init__(self, cli_main, case, oracle, ini: Path, work: Path) -> None:
        self.cli_main = cli_main
        self.case = case
        self.oracle = oracle
        self.ini = ini
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.accuracy = None
        self.problems = []

    def once(self, call=None, bracket=False):
        """Run and check once.  Returns (wall seconds, reference seconds), the
        latter None unless `bracket`; or None if the run failed."""
        from checks import check_outputs, digests
        from reference import kernel_seconds, to_reference

        outdir = self.work / f"run{self.attempted}"
        self.attempted += 1
        before = kernel_seconds() if bracket else None
        elapsed, problems = run_pipeline(self.cli_main, self.ini, outdir, call)
        ref = to_reference(elapsed, before, kernel_seconds()) if bracket else None
        if not problems:
            accuracy, problems = check_outputs(outdir, self.case, self.oracle, self.reference)
            if not problems and self.reference is None:
                self.reference = digests(outdir)
                self.accuracy = accuracy
        shutil.rmtree(outdir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems.append((self.attempted - 1, problems))
            return None
        return elapsed, ref


def measure(runner: Runner, seconds: float) -> tuple:
    """Untraced runs; returns their (wall, reference) seconds."""
    walls, refs = [], []
    deadline = time.perf_counter() + seconds
    while runner.attempted < MIN_RUNS or time.perf_counter() < deadline:
        result = runner.once(bracket=True)
        if result is not None:
            walls.append(result[0])
            refs.append(result[1])
    return walls, refs


def measure_traced(runner: Runner, seconds: float):
    """Alternate untraced and traced runs; returns per-layer metrics."""
    from tracing import ROOT as ROOT_SPAN
    from tracing import SPANS, WORK_FIGURES, Tracer

    tracer = Tracer()
    plain, traced, self_times, counts = [], [], [], []
    deadline = time.perf_counter() + seconds
    while runner.attempted < 2 * MIN_TRACED or time.perf_counter() < deadline:
        result = runner.once()
        if result is not None:
            plain.append(result[0])
        run_id = runner.attempted
        if runner.once(call=lambda fn: tracer.run(fn, run_id)) is not None:
            traced.append(tracer.root_time(run_id))
            self_times.append(tracer.self_times(run_id))
            counts.append(dict(tracer.counts))
    if not traced or not plain:
        return None, tracer
    if any(c != counts[0] for c in counts[1:]):
        runner.failed += 1
        runner.problems.append((None, ["work counts differ between traced runs"]))

    metrics = {}
    for name in {name for _, _, name in SPANS}:
        metrics[f"{name}_s"] = statistics.fmean(t.get(name, 0.0) for t in self_times)
    metrics["cli.self_s"] = statistics.fmean(t[ROOT_SPAN] for t in self_times)
    for name in WORK_FIGURES:
        metrics[name] = counts[0].get(name, 0.0)
    metrics["trace.pipeline_s"] = statistics.fmean(traced)
    metrics["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(plain)
    return metrics, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "momentct" / "cli.py").is_file():
        print(f"error: no momentct sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from momentct.cli import main as cli_main
    from momentct.config import load_config
    from workloads import WORKLOADS, build_oracle

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORKDIR))
    try:
        case = WORKLOADS[args.workload](args.seed)
        ini = work / "run.ini"
        ini.write_text(case.ini)
        oracle = build_oracle(case, load_config(ini).make_density())
        runner = Runner(cli_main, case, oracle, ini, work)
        # warm-up: checked, and gives the artifacts later runs must match,
        # but not timed; the peak memory is read before the reference
        # kernel first runs, so that it is the pipeline's own
        runner.once()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_walls, setup = measure_setup(ini)
        if args.trace:
            metrics, tracer = measure_traced(runner, args.seconds)
            units = per_layer_units()
        else:
            walls, times = measure(runner, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for run, problems in runner.problems:
        print(f"run {run} failed:", *problems, sep="\n  ", file=sys.stderr)
    record = {
        "workload": case.workload, "seed": case.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "attempted": runner.attempted, "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "setup_s_probes": setup, "setup_wall_s_probes": setup_walls,
    }
    if args.trace:
        if metrics is None:
            print("error: no traced run succeeded", file=sys.stderr)
            return 1
        from tracing import WORK_FIGURES
        record["work_figures"] = WORK_FIGURES
        record["spans"] = tracer.spans
    else:
        if not times or runner.accuracy is None:
            print("error: no pipeline run succeeded", file=sys.stderr)
            return 1
        q1, median, q3 = quartiles(times)
        metrics = {
            "setup_s": statistics.median(setup),
            "pipeline_s": median,
            "peak_rss_mb": peak_rss_mb,
            **runner.accuracy,
        }
        record["pipeline_s"] = {"median": median, "q1": q1, "q3": q3, "n": len(times),
                                "samples": times, "wall_samples": walls}
        print(f"pipeline_s median {median:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n {len(times)}"
              f"  (reference seconds; wall median {statistics.median(walls):.4f} s)")

    record["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in units.items()}
    print(f"failed_frac {record['failed_frac']:.4f} "
          f"({runner.failed} of {runner.attempted} runs)")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    path = WORKDIR / f"{case.workload}-seed{case.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
