"""Spans and work counts around momentct's layers, recorded from outside.

The tracer replaces each layer's public functions at the module attribute
its callers resolve (for example `momentct.cli.project` or
`momentct.fileio.write_pgm`) with a wrapper that records a span: name,
start, end, parent span and run id.  Spans stay in memory; `spans` is
written out when the benchmark ends.  Work counts are taken at the same
boundaries.  Patches are installed only around traced pipeline runs and are
always removed again, so untraced runs execute the unmodified program.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

# (module, attribute, span name).  The per-layer metric of a span name is
# "<name>_s", its self time: its duration minus that of its child spans.
SPANS = (
    ("momentct.cli", "load_config", "config.load_config"),
    ("momentct.config", "make_kernel", "mollifiers.make_kernel"),
    ("momentct.cli", "project", "projector.project"),
    ("momentct.cli", "add_noise", "projector.add_noise"),
    ("momentct.cli", "mollify", "projector.mollify"),
    ("momentct.cli", "recover_moment_table", "moment_recovery.recover"),
    ("momentct.moment_recovery", "angular_moments", "moment_recovery.angular_moments"),
    ("momentct.moment_recovery", "deconvolve_moments", "moment_recovery.deconvolve"),
    ("momentct.moment_recovery", "solve_moment_system", "moment_recovery.solve"),
    ("momentct.cli", "reconstruct_grid", "density_recon.reconstruct_grid"),
    ("momentct.spectral", "apply_filter", "spectral.apply_filter"),
    ("momentct.spectral", "backproject", "spectral.backproject"),
    ("momentct.fileio", "write_sinogram", "fileio.write_sinogram"),
    ("momentct.fileio", "read_sinogram", "fileio.read_sinogram"),
    ("momentct.fileio", "write_moments", "fileio.moments_io"),
    ("momentct.fileio", "read_moments", "fileio.moments_io"),
    ("momentct.fileio", "write_recon_csv", "fileio.write_recon_csv"),
    ("momentct.fileio", "write_pgm", "fileio.write_pgm"),
    ("momentct.cli", "l1_norm", "cli.checks"),
    ("momentct.cli", "evenness_residual", "cli.checks"),
    ("momentct.cli", "sup_error", "cli.checks"),
    ("momentct.cli", "relative_l2_error", "cli.checks"),
    ("momentct.cli", "minimized_sup_error_bound", "cli.checks"),
)

#: The root span, around one whole `momentct.cli.main` call; its self time
#: is reported as cli.self_s.
ROOT = "cli"

#: Phantom classes whose `evaluate` is counted inside projector.project.
DENSITIES = ("UniformDensity", "PolynomialDensity", "DiskDensity", "SumOfDisksDensity")

#: How each work figure is obtained.  Counted figures come from wrappers at
#: the call boundary, computed ones from the call's arguments, byte figures
#: from the sizes of the files written and read.
WORK_FIGURES = {
    "projector.samples": "computed: angles x offsets of each projected sinogram",
    "projector.density_points": "counted: points passed to the phantom's evaluate inside project",
    "moment_recovery.solves": "counted: calls to solve_moment_system",
    "moment_recovery.max_condition": "reported: largest condition in the CLI's diagnostics dict",
    "density_recon.approx_calls": "counted: calls to moment_approximation",
    "density_recon.pixels": "computed: resolution^2 of each reconstruct_grid call",
    "spectral.interp_points": "computed: angles x resolution^2 of each backproject call",
    "fileio.read_sinogram_calls": "counted: calls to read_sinogram",
    "fileio.bytes_written": "file sizes: every file a fileio writer produced",
    "fileio.bytes_read": "file sizes: every file a fileio reader consumed",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_work(count, name, attr, args, kwargs, result) -> None:
    if name == "projector.project":
        count["projector.samples"] += result.values.size
    elif name == "moment_recovery.solve":
        count["moment_recovery.solves"] += 1
    elif name == "moment_recovery.recover":
        diagnostics = kwargs.get("diagnostics") or {}
        conditions = [cond for _, cond in diagnostics.get("conditions", ())]
        if conditions:
            count["moment_recovery.max_condition"] = max(
                count["moment_recovery.max_condition"], max(conditions))
    elif name == "density_recon.reconstruct_grid":
        count["density_recon.pixels"] += result.values.size
    elif name == "spectral.backproject":
        sino = _arg(args, kwargs, 0, "s")
        count["spectral.interp_points"] += sino.angle_grid.count * result.values.size
    elif name.startswith("fileio."):
        reading = attr.startswith("read_")
        path = _arg(args, kwargs, 0 if reading else 1, "path")
        count["fileio.bytes_read" if reading else "fileio.bytes_written"] += os.path.getsize(path)
        if attr == "read_sinogram":
            count["fileio.read_sinogram_calls"] += 1


class Tracer:
    """Records spans of traced pipeline runs; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans = []          # [name, start, end, parent index or None, run id]
        self.counts = defaultdict(int)  # work figures of the latest run
        self.run_id = 0
        self._stack = []
        self._evaluate_depth = 0
        self._saved = []

    def _wrap(self, name, attr, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            record = [name, time.perf_counter(), None, parent, self.run_id]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            _count_work(self.counts, name, attr, args, kwargs, result)
            return result
        return traced

    def _count_evaluate(self, fn):
        def counted(density, x1, x2):
            outermost = self._evaluate_depth == 0
            self._evaluate_depth += 1
            try:
                if outermost and self._stack and \
                        self.spans[self._stack[-1]][0] == "projector.project":
                    self.counts["projector.density_points"] += getattr(x1, "size", 1)
                return fn(density, x1, x2)
            finally:
                self._evaluate_depth -= 1
        return counted

    def _count_calls(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._wrap(name, attr, getattr(module, attr)))
        recon = importlib.import_module("momentct.density_recon")
        self._patch(recon, "moment_approximation", self._count_calls(
            "density_recon.approx_calls", recon.moment_approximation))
        phantoms = importlib.import_module("momentct.phantoms")
        for cls_name in DENSITIES:
            cls = getattr(phantoms, cls_name)
            self._patch(cls, "evaluate", self._count_evaluate(cls.evaluate))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run(self, fn, run_id: int):
        """Call fn() inside the root span, with the layer patches installed."""
        self.run_id = run_id
        self.counts = defaultdict(int)
        self.install()
        try:
            return self._wrap(ROOT, ROOT, fn)()
        finally:
            self.uninstall()

    def self_times(self, run_id: int) -> dict:
        """Self time per span name for one run; the root's under ROOT."""
        totals = defaultdict(float)
        children = defaultdict(float)
        indices = [i for i, span in enumerate(self.spans) if span[4] == run_id]
        for i in indices:
            _, start, end, parent, _ = self.spans[i]
            if parent is not None:
                children[parent] += end - start
        for i in indices:
            name, start, end, _, _ = self.spans[i]
            totals[name] += (end - start) - children[i]
        return dict(totals)

    def root_time(self, run_id: int) -> float:
        return sum(end - start for _, start, end, parent, rid in self.spans
                   if rid == run_id and parent is None)
