"""Smoke test of the benchmark itself.

Run from the root of the repository:
    python3 -m pytest perfbench/test_bench_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from checks import check_outputs, digests  # noqa: E402
from reference import REFERENCE_S, kernel_seconds, to_reference  # noqa: E402
from momentct.cli import main as cli_main  # noqa: E402
from momentct.config import load_config  # noqa: E402
from momentct.density_recon import reconstruct_grid  # noqa: E402
from momentct.phantoms import MomentTable, PolynomialDensity  # noqa: E402
from workloads import _ini, approximant_image, build_oracle, make_demo  # noqa: E402

TINY_INI = _ini(
    "kind = uniform\n", (48, "moment", 256), 2, (1, 1, 16),
    mollifier="[mollifier]\nkernel = bump\nepsilon = 0.05\n\n",
    noise="[noise]\nsigma = 0.002\nseed = {seed}\n\n",
)


@pytest.fixture
def tiny(tmp_path):
    """A small noisy smoothed case, run once; returns (case, oracle, outdir)."""
    case = replace(make_demo(1), ini=TINY_INI.format(seed=3), angles=48, offsets=256,
                   K=2, m=1, n=1, resolution=16)
    ini = tmp_path / "run.ini"
    ini.write_text(case.ini)
    oracle = build_oracle(case, load_config(ini).make_density())
    outdir = tmp_path / "first"
    assert cli_main(["pipeline", "-c", str(ini), "-o", str(outdir)]) == 0
    return case, oracle, outdir


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = bench("demo", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in spec[section]}


def test_clean_run_passes(tiny):
    case, oracle, outdir = tiny
    accuracy, problems = check_outputs(outdir, case, oracle, digests(outdir))
    assert problems == []
    assert all(0 < value < 1 for value in accuracy.values())


def test_nan_in_sinogram_is_flagged(tiny, tmp_path):
    case, oracle, outdir = tiny
    copy = tmp_path / "nan"
    shutil.copytree(outdir, copy)
    lines = (copy / "sinogram.csv").read_text().splitlines()
    values = lines[5].split(",")
    values[len(values) // 2] = "nan"
    lines[5] = ",".join(values)
    (copy / "sinogram.csv").write_text("\n".join(lines) + "\n")
    _, problems = check_outputs(copy, case, oracle)
    assert "sinogram.csv: non-finite values" in problems


def test_rerun_with_different_artifacts_is_flagged(tiny, tmp_path):
    case, oracle, outdir = tiny
    ini = tmp_path / "other.ini"
    ini.write_text(TINY_INI.format(seed=4))
    rerun = tmp_path / "rerun"
    assert cli_main(["pipeline", "-c", str(ini), "-o", str(rerun)]) == 0
    _, problems = check_outputs(rerun, case, oracle, digests(outdir))
    assert "sinogram.csv: differs from the first run of this input" in problems
    assert "phantom.pgm: differs from the first run of this input" not in problems


def test_missing_artifact_is_flagged(tiny):
    case, oracle, outdir = tiny
    (outdir / "recon_fbp.pgm").unlink()
    _, problems = check_outputs(outdir, case, oracle)
    assert problems == ["recon_fbp.pgm: missing"]


@pytest.mark.parametrize("m, n, resolution", [(2, 2, 64), (3, 2, 37)])
def test_oracle_image_matches_the_program(m, n, resolution):
    density = PolynomialDensity.from_dict({(1, 1): 2.0, (2, 0): 1.5})
    table = MomentTable.from_density(density, m + n)
    expected = reconstruct_grid(table, m, n, resolution).values
    image = approximant_image(table.values, m, n, resolution)
    assert (image == expected).all()



def test_reference_seconds_cancel_host_speed():
    assert kernel_seconds() > 0
    assert to_reference(2.0, REFERENCE_S, REFERENCE_S) == 2.0
    # a host half as fast doubles the interval and the kernel alike
    assert to_reference(4.0, 2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(2.0)
