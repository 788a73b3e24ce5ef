"""Golden CLI outputs: stdout, CSV and sidecar of a fixed command set, pinned in tests/golden.

Every case runs in-process, and none of them loads scipy.  When numpy's
version, numpy's SIMD features and the BLAS thread count match the ones
recorded with the files, each output must match byte for byte (a matrix
product can split its sums differently over another number of threads);
elsewhere the text around the numbers must match and each number must agree
to 1e-13 relative, or 1e-13 absolute for the roundoff-sized ones (an
identity's error of 4e-16 is rounding on any machine).

Regenerate after a deliberate change, and name each moved field in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

It prints each number that moved as ``file: old -> new`` (or that a file's
text changed, appeared or went) and writes nothing when nothing moved.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from chaosfield.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
ENV_FILE = GOLDEN / "environment.json"
REL_TOL = ABS_TOL = 1e-13

CASES = {
    **{
        f"integrate-{mode}-{kernel}-{basis}": [
            "integrate", "--mode", mode, "--kernel", kernel, "--basis", basis, "--modes", "4", "--order", "3"
        ]
        for mode in ("ito", "strat", "field-ito")
        for kernel in ("brownian", "fbm")
        if kernel == "brownian" or mode == "field-ito"  # ito and strat refuse any other kernel
        for basis in ("cosine", "legendre")
    },
    **{
        f"sde-{kernel}-{basis}": [
            "sde", "--kernel", kernel, "--basis", basis, "--modes", "4", "--order", "3", "--grid", "32",
            "--out", f"sde-{kernel}-{basis}",
        ]
        for kernel in ("brownian", "fbm")
        for basis in ("cosine", "legendre")
    },
    "fbm-grid128": ["fbm", "--grid", "128"],
    **{f"verify-{suite}": ["verify", "--suite", suite] for suite in ("algebra", "integrals", "sde", "fbm", "mc")},
}


def blas_threads() -> int:
    """The BLAS thread count: OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else the CPUs this process may use."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").strip().isdigit():
            return int(os.environ[var])
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def environment() -> dict:
    """What the bits of the outputs depend on besides the code: numpy's version, SIMD dispatch and BLAS threads."""
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
    except (TypeError, KeyError):  # numpy < 1.25 cannot report it: compare numbers, not bytes
        simd = None
    return {"numpy": np.__version__, "simd": simd, "blas_threads": blas_threads()}


def run_case(name: str, workdir: Path) -> dict:
    """{file name: bytes} of one case: its stdout and, for sde, the CSV and sidecar it writes."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(CASES[name])
    finally:
        os.chdir(cwd)
    assert code == 0, name
    files = {f"{name}.stdout": out.getvalue().encode()}
    for path in sorted((workdir / name).glob("*")) if name.startswith("sde-") else ():
        files[f"{name}.{path.name}"] = path.read_bytes()
    return files


_NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan|Infinity|NaN)")


def numbers_agree(got: str, want: str) -> bool:
    """The text outside the numbers is equal and each number agrees to REL_TOL relative or ABS_TOL absolute."""
    got_nums, want_nums = _NUMBER.findall(got), _NUMBER.findall(want)
    if _NUMBER.split(got) != _NUMBER.split(want) or len(got_nums) != len(want_nums):
        return False
    pairs = zip(map(float, got_nums), map(float, want_nums))
    return all(math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL) for a, b in pairs)


def test_numbers_agree_reads_every_number():
    assert numbers_agree('{"x": 1.0000000000000002, "n": 3}', '{"x": 1.0, "n": 3}')
    assert not numbers_agree('{"x": 1.0001}', '{"x": 1.0}')
    assert numbers_agree('{"err": 2.220446049250313e-16}', '{"err": 4.440892098500626e-16}')
    assert not numbers_agree('{"err": 1.65e-05}', '{"err": 1.66e-05}')
    assert not numbers_agree('{"x": 1.0, "n": 4}', '{"x": 1.0, "n": 3}')
    assert not numbers_agree('{"y": 1.0}', '{"x": 1.0}')
    assert numbers_agree("0.5,1,-2.5e-07\r\n", "0.5,1,-2.5000000000000003e-07\r\n")


@pytest.fixture(scope="module")
def recorded_environment():
    return json.loads(ENV_FILE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, recorded_environment):
    same_environment = recorded_environment == json.loads(json.dumps(environment()))
    files = run_case(name, tmp_path)
    assert sorted(files) == sorted(p.name for p in GOLDEN.glob(f"{name}.*"))
    for fname, got in files.items():
        want = (GOLDEN / fname).read_bytes()
        if same_environment:
            assert got == want, fname
        else:
            assert numbers_agree(got.decode(), want.decode()), fname


def moved(fname: str, old: bytes | None, new: bytes | None) -> list[str]:
    """One line per number that moved between two versions of a golden file, ``file: old -> new``."""
    if old == new:
        return []
    if old is None or new is None:
        return [f"{fname}: {'added' if old is None else 'removed'}"]
    before, after = old.decode(), new.decode()
    if _NUMBER.split(before) != _NUMBER.split(after):
        return [f"{fname}: text changed"]
    pairs = zip(_NUMBER.findall(before), _NUMBER.findall(after))
    return [f"{fname}: {a} -> {b}" for a, b in pairs if a != b]


def test_moved_names_each_number_that_moved():
    assert moved("f", b'{"x": 1.0, "y": 2}', b'{"x": 1.0, "y": 2}') == []
    assert moved("f", b'{"x": 1.0, "y": 2, "z": 3}', b'{"x": 1.5, "y": 2, "z": 4}') == ["f: 1.0 -> 1.5", "f: 3 -> 4"]
    assert moved("f", b'{"x": 1.0}', b'{"w": 1.0}') == ["f: text changed"]
    assert moved("f", None, b"1") == ["f: added"] and moved("f", b"1", None) == ["f: removed"]


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        files = {fname: data for name in sorted(CASES) for fname, data in run_case(name, Path(tmp)).items()}
    files[ENV_FILE.name] = (json.dumps(environment(), sort_keys=True, indent=2) + "\n").encode()
    old = {path.name: path.read_bytes() for path in GOLDEN.glob("*")}
    names = sorted(old.keys() | files.keys())
    lines = [line for fname in names for line in moved(fname, old.get(fname), files.get(fname))]
    if not lines:
        print("nothing moved")
        return
    print("\n".join(lines))
    GOLDEN.mkdir(exist_ok=True)
    for stale in old.keys() - files.keys():
        (GOLDEN / stale).unlink()
    for fname, data in files.items():
        (GOLDEN / fname).write_bytes(data)


if __name__ == "__main__":
    regenerate()
