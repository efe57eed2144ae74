"""Random input against the CLI's error contract.

README and the `cli` docstring promise, for any input:
- the exit status is 0, 2, 3 or 5, and no exception escapes `cli.main`;
- a refusal prints one `error:` line, and a refused run leaves no output
  directory;
- a run that exits 0 prints no `nan` or `inf` (`n/a` is allowed) and
  writes none into any artifact.

The INI files come from two strategies: one over extreme values (huge
coefficients, tiny radii and widths, seeds past 2**32, wide margins), at
times with one key set past its range, and one over mostly valid
settings.  Grids have at most 33 x 128 samples and images at most 16**2
pixels.  Each config runs `pipeline` and `project`, each into its own
directory; where `pipeline` passes, `project` must pass too and write its
three files byte for byte as `pipeline` did.  The files each passing
`pipeline` wrote are then mutated, one of nine ways, and fed to `moments` or
`reconstruct`.  Everything runs in process through `cli.main`, with a fixed
seed and no example database, so the suite stays deterministic; the
warnings a run emits are recorded, not raised.
"""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from momentct.cli import main
from test_cli import PROJECT_ARTIFACTS

NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def section(name: str, **keys) -> str:
    return f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"


def terms(items, fmt) -> str:
    return "; ".join(fmt(*item) for item in items)


def ini_text(d) -> str:
    """The INI file of settings drawn from `configs`."""
    return "".join(section(name, **keys) for name, keys in d.items() if keys is not None)


def configs(*, exponent, coeff, centre, radius, epsilon, sigma, seed, angles, offsets, margin,
            K, order):
    """INI settings: a dict of sections, each a dict of keys drawn from the
    given strategies, None for a section left out."""
    term = st.tuples(exponent, exponent, coeff)
    disk = st.tuples(centre, centre, radius, st.none() | coeff)
    phantom = st.one_of(
        st.just({"kind": "uniform"}),
        st.lists(term, min_size=1, max_size=3, unique_by=lambda t: t[:2]).map(lambda ts: {
            "kind": "polynomial", "coeffs": terms(ts, lambda i, j, c: f"{i},{j}:{c!r}")}),
        st.lists(disk, min_size=1, max_size=2).map(lambda ds: {
            "kind": "disks", "disks": terms(ds, lambda x, y, r, a: ",".join(
                repr(v) for v in (x, y, r) + ((a,) if a is not None else ())))}),
    )
    return st.fixed_dictionaries({
        "phantom": phantom,
        "mollifier": st.none() | st.fixed_dictionaries({
            "kernel": st.just("bump"), "epsilon": epsilon}),
        "noise": st.none() | st.fixed_dictionaries({"sigma": sigma, "seed": seed}),
        "grids": st.fixed_dictionaries({
            "angles": angles, "angle_cover": st.sampled_from(["moment", "half", "full"]),
            "offsets": offsets, "margin": margin}),
        "moments": st.fixed_dictionaries({"K": K}),
        "recon": st.fixed_dictionaries({
            "method": st.sampled_from(["moments", "fbp", "both"]), "m": order, "n": order,
            "resolution": st.integers(1, 16)}),
    })


NAN, INF = float("nan"), float("inf")

#: values at the edges of what a run accepts
EXTREME = configs(
    exponent=st.integers(0, 6),
    coeff=st.sampled_from([1.0, 2.5e307, -2.5e307, 1e300, 1e-300, 5e-324, 0.0, -1.0])
    | st.floats(0.0, 1e308),
    centre=st.sampled_from([0.5, 0.3, 0.7]),
    radius=st.sampled_from([1e-160, 1e-5, 0.2, 0.3]),
    epsilon=st.sampled_from([1e-300, 1e-3, 0.05, 1.0, 2.0 ** 0.5]),
    sigma=st.sampled_from([0.0, 1e-300, 1e-3, 1.0, 1e300]),
    seed=st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64]),
    angles=st.integers(13, 33),
    offsets=st.integers(24, 128),
    margin=st.sampled_from([1.1, 2.0, 3.0, 40.0]),
    K=st.sampled_from([0, 4, 6, 8, 12]),
    order=st.sampled_from([1, 2, 3]),
)

#: (section, key, value) past the key's range, one of which may replace an
#: extreme config's own
PAST_RANGE = [
    ("phantom", "coeffs", "0,0:nan"), ("phantom", "coeffs", "-1,0:1.0"),
    ("phantom", "coeffs", "0,0:0.5; 0,0:0.5"), ("phantom", "disks", "0.5,0.5,0.0"),
    ("mollifier", "kernel", "cosine"), ("mollifier", "epsilon", 0.0),
    ("mollifier", "epsilon", 1.5),
    ("noise", "sigma", -1.0), ("noise", "sigma", INF), ("noise", "seed", -1),
    ("grids", "angles", 1), ("grids", "offsets", 1), ("grids", "margin", 0.5),
    ("grids", "margin", NAN), ("grids", "margin", 1e10),
    ("moments", "K", -1), ("moments", "K", 13), ("recon", "m", 41), ("recon", "resolution", 0),
]

#: mostly valid settings, so that most runs pass and their files get mutated
VALID = configs(
    exponent=st.integers(0, 4),
    coeff=st.floats(0.1, 5.0),
    centre=st.floats(0.3, 0.7),
    radius=st.floats(0.05, 0.3),
    epsilon=st.floats(0.02, 0.2),
    sigma=st.sampled_from([0.0, 1e-3, 1e-2]),
    seed=st.integers(0, 10),
    angles=st.integers(16, 33),
    offsets=st.integers(48, 128),
    margin=st.floats(1.05, 2.0),
    K=st.integers(2, 8),
    order=st.integers(1, 3),
)


def _header_scaled(text: str, key: str, factor: float) -> str:
    return re.sub(rf"\b{key}=(\S+)", lambda m: f"{key}={float(m.group(1)) * factor!r}", text,
                  count=1)


def _rows(text: str, edit) -> str:
    """text with its data rows (every line after the header) edited."""
    header, *rows = text.splitlines()
    return "\n".join([header, *edit(rows)]) + "\n"


#: name -> (file the mutation edits, edit of its text)
MUTATIONS = {
    "row_dropped": ("sinogram.csv", lambda t: _rows(t, lambda rows: rows[:-1])),
    "nan": ("sinogram.csv", lambda t: _rows(
        t, lambda rows: [re.sub(r"^[^,]*", "nan", rows[0], count=1), *rows[1:]])),
    "row_1e308": ("sinogram.csv", lambda t: _rows(
        t, lambda rows: [",".join(["1e308"] * len(rows[0].split(","))), *rows[1:]])),
    "dtheta_zero": ("sinogram.csv", lambda t: _header_scaled(t, "dtheta", 0.0)),
    "dtheta_scaled": ("sinogram.csv", lambda t: _header_scaled(t, "dtheta", 1.5)),
    "dp_scaled": ("sinogram.csv", lambda t: _header_scaled(t, "dp", 0.5)),
    "trailing_comma": ("sinogram.csv", lambda t: _rows(t, lambda rows: [rows[0] + ",",
                                                                        *rows[1:]])),
    "moments_cut_short": ("moments.csv", lambda t: _rows(t, lambda rows: rows[:-1])),
    "moments_1e308": ("moments.csv", lambda t: _rows(
        t, lambda rows: [re.sub(r"[^,]*$", "1e308", row, count=1) for row in rows])),
}


def run(*argv) -> tuple:
    """(exit status, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def check_contract(argv, outdir: Path, scratch: Path) -> int:
    """Run argv, with `outdir` as its fresh output directory, and check the
    contract; returns the exit status."""
    code, out, err = run(*argv, "-o", outdir)
    assert code in (0, 2, 3, 5), (argv, code, err)
    if code != 0:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        assert not outdir.exists(), (argv, err)
        return code
    assert not NON_FINITE.search(out.replace(str(scratch), "")), (argv, out)
    for path in outdir.iterdir():
        assert not NON_FINITE.search(path.read_text()), (argv, path.name)
    return code


def fuzz(data, settings: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        ini = scratch / "run.ini"
        ini.write_text(ini_text(settings))
        produced, projected = scratch / "pipeline", scratch / "project"
        passed = check_contract(["pipeline", "-c", ini], produced, scratch) == 0
        projected_passed = check_contract(["project", "-c", ini], projected, scratch) == 0
        if not passed:
            return
        assert projected_passed, settings
        assert sorted(path.name for path in projected.iterdir()) == PROJECT_ARTIFACTS
        for name in PROJECT_ARTIFACTS:
            assert (projected / name).read_bytes() == (produced / name).read_bytes(), name
        name, edit = MUTATIONS[data.draw(st.sampled_from(sorted(MUTATIONS)), label="mutation")]
        mutated = scratch / name
        mutated.write_text(edit((produced / name).read_text()))
        command = "reconstruct" if name == "moments.csv" else \
            data.draw(st.sampled_from(["moments", "reconstruct"]), label="command")
        check_contract([command, "-c", ini, mutated], scratch / "stage", scratch)


@FUZZ
@given(st.data())
def test_extreme_configs_keep_the_contract(data):
    settings = data.draw(EXTREME, label="ini")
    past = data.draw(st.none() | st.sampled_from(PAST_RANGE), label="past its range")
    if past is not None:
        name, key, value = past
        settings[name] = {**(settings[name] or {}), key: value}
    fuzz(data, settings)


@FUZZ
@given(st.data())
def test_mostly_valid_configs_and_mutated_files_keep_the_contract(data):
    fuzz(data, data.draw(VALID, label="ini"))
