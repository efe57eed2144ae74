"""The benchmark tracer's hooks still name attributes the program defines.

`perfbench/tracing.py` patches `owner.__dict__[attr]` for each hook, so a
renamed or moved function breaks only traced benchmark runs.  This checks
every hook against the package, without running the benchmark.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in tracing.SPANS],
                         ids=[f"{m}.{a}" for m, a, _ in tracing.SPANS])
def test_span_hooks_are_module_attributes(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(module.__dict__.get(attr)), f"{module_name}.{attr}"


def test_moment_approximation_hook():
    recon = importlib.import_module("momentct.density_recon")
    assert callable(recon.__dict__.get("moment_approximation"))


@pytest.mark.parametrize("cls_name", tracing.DENSITIES)
def test_density_evaluate_hooks(cls_name):
    cls = importlib.import_module("momentct.phantoms").__dict__[cls_name]
    assert "evaluate" in cls.__dict__


def test_recover_takes_the_diagnostics_keyword():
    # the tracer reads the per-order conditions from this keyword argument
    cli = importlib.import_module("momentct.cli")
    param = inspect.signature(cli.recover_moment_table).parameters["diagnostics"]
    assert param.kind is inspect.Parameter.KEYWORD_ONLY
