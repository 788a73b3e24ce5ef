"""A derandomized fuzz of the CLI contract.

``cli.main`` runs in-process on drawn argv and config files: valid values,
boundaries, ``nan`` and ``inf`` strings, wrongly typed JSON and files that
are not JSON objects.  Every output goes to a temporary working directory.
Whatever the input:

- the exit code is 0, 1 or 2, argparse's ``SystemExit(2)`` counting as 2;
- 1 comes only from ``fbm`` or ``verify`` reporting ``pass`` false;
- no other exception escapes;
- every number written is finite: JSON parses without NaN or Infinity
  tokens, and ``hermite``'s CSV holds finite floats.

Sizes over ``MAX_TABLE_ENTRIES`` are refused before they allocate.
``verify`` is drawn only with unknown suite names, since each real suite
takes a good part of a second.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosfield.cli import main
from chaosfield.multiindex import MAX_TABLE_ENTRIES

SETTINGS = settings(max_examples=250, deadline=None, derandomize=True)

FLOATS = ["0.75", "0.6", "0.999", "0.5", "1", "0", "-1", "1e-300", "1e300", "nan", "inf", "-inf", "x"]
# small sizes keep a valid run to a few milliseconds; the flags' defaults (8, 4, 256) are never left to apply
SIZES = ["1", "2", "3", "0", "-1", "1.5", "nan", "x"]
HERMITE = {
    "--n-max": ["0", "3", "400", "-1", "x"],
    "--t-min": FLOATS + ["1e200"],
    "--t-max": FLOATS + ["1e200"],
    "--t-points": ["1", "2", "9", "0", "-1", "x"],
}
# what a config key may hold: right and wrong JSON types, boundaries and non-finite numbers
JSON_VALUES = [
    0.75, 0.5, 1, 2, 0, -1, 1.5, 1e308, 10**30, math.nan, math.inf, True, None,
    "brownian", "fbm", "cosine", "legendre", "o", "", "x", [1], {"a": 1},
]
CONFIG_KEYS = ["kernel", "hurst", "horizon", "basis", "out", "seed"]
SIZE_KEYS = {"integrate": ["modes", "order"], "sde": ["modes", "order", "grid"]}


def json_value(text):
    """A size string as the JSON value a config file would hold in its place."""
    try:
        return int(text)
    except ValueError:
        return float(text) if text == "nan" or "." in text else text


@st.composite
def invocations(draw):
    """(argv, config file bytes or None) for one command."""
    command = draw(st.sampled_from(["hermite", "integrate", "sde", "fbm", "verify"]))
    argv, config = [command], None
    if command == "hermite":
        for flag, pool in HERMITE.items():
            if draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(pool))]
    elif command == "verify":
        argv += ["--suite", draw(st.sampled_from(["", "nope", "ALGEBRA", "algebra "]))]
    elif command == "fbm":
        for flag in ("--hurst", "--horizon"):
            if draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(FLOATS))]
        argv += ["--grid", draw(st.sampled_from(SIZES + ["4"]))]
    else:
        values = draw(st.dictionaries(st.sampled_from(CONFIG_KEYS), st.sampled_from(JSON_VALUES), max_size=4))
        for key in SIZE_KEYS[command]:  # each size from a flag, the config file or both
            size = draw(st.sampled_from(SIZES))
            where = draw(st.sampled_from(["flag", "config", "both"]))
            if where != "config":
                argv += [f"--{key}", size]
            if where != "flag":
                values[key] = json_value(draw(st.sampled_from(SIZES)) if where == "both" else size)
        for flag, pool in (("--kernel", ["brownian", "fbm"]), ("--hurst", FLOATS), ("--horizon", FLOATS)):
            if draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(pool))]
        if command == "integrate":
            argv += ["--mode", draw(st.sampled_from(["ito", "strat", "field-ito"]))]
            if draw(st.booleans()):
                argv += ["--out-file", "result.json"]
        elif draw(st.booleans()):
            argv += ["--out", "o"]
        top = draw(st.sampled_from(["object", "object", "value", "list", "bytes", "none"]))
        if top == "object":
            config = json.dumps(values).encode()
        elif top == "value":
            config = json.dumps(draw(st.sampled_from(JSON_VALUES))).encode()
        elif top == "list":
            config = json.dumps(list(values)).encode()
        elif top == "bytes":
            config = b"\xff\xfe{"
    return argv, config


def run(argv, workdir: Path):
    """(exit code, stdout) of ``main(argv)`` run in ``workdir``; argparse's SystemExit gives its code."""
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), np.errstate(all="ignore"):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def finite_json(text: str):
    def refuse(token):
        raise AssertionError(f"non-finite JSON token {token}")

    payload = json.loads(text, parse_constant=refuse)

    def check(value):
        if isinstance(value, dict):
            for v in value.values():
                check(v)
        elif isinstance(value, list):
            for v in value:
                check(v)
        elif isinstance(value, float):
            assert math.isfinite(value)

    check(payload)
    return payload


@SETTINGS
@given(invocations())
def test_cli_exits_0_1_or_2_and_writes_only_finite_numbers(invocation):
    argv, config = invocation
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        if config is not None:
            (workdir / "c.json").write_bytes(config)
            argv = argv + ["--config", "c.json"]
        code, out = run(argv, workdir)
        assert code in (0, 1, 2), (argv, config, code)
        if code == 2:
            return
        if "--out-file" in argv:
            out = (workdir / "result.json").read_text()
        if argv[0] == "hermite":
            header, *rows = out.splitlines()
            assert header.startswith("t,H0")
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
        else:
            payload = finite_json(out)
            assert code == 0 or (argv[0] in ("fbm", "verify") and payload["pass"] is False), (argv, code)


def over_budget_truncation(draw):
    """(modes, order) whose index set holds more than MAX_TABLE_ENTRIES multi-indices."""
    order = draw(st.integers(1, 12))
    modes = 1
    while math.comb(modes + order, order) <= MAX_TABLE_ENTRIES:
        modes *= 2
    return modes + draw(st.integers(0, 10**6)), order


@st.composite
def over_budget_invocations(draw):
    command = draw(st.sampled_from(["hermite", "integrate", "sde-truncation", "sde-grid", "fbm"]))
    if command == "hermite":
        n_max = draw(st.integers(0, 10**6))
        points = MAX_TABLE_ENTRIES // (n_max + 1) + 1 + draw(st.integers(0, 10**9))
        return ["hermite", "--n-max", str(n_max), "--t-points", str(points)]
    if command == "fbm":
        return ["fbm", "--grid", str(4473 + draw(st.integers(0, 10**6)))]
    kernel = ["--kernel", draw(st.sampled_from(["brownian", "fbm"]))]
    if command == "sde-grid":
        # S = 3 multi-indices at (2, 1): (grid + 1) x 3 entries
        grid = MAX_TABLE_ENTRIES // 3 + draw(st.integers(0, 10**9))
        return ["sde", *kernel, "--modes", "2", "--order", "1", "--grid", str(grid), "--out", "o"]
    modes, order = over_budget_truncation(draw)
    argv = [command.split("-")[0], *kernel, "--modes", str(modes), "--order", str(order)]
    return argv + (["--grid", "8", "--out", "o"] if argv[0] == "sde" else [])


@settings(SETTINGS, max_examples=100)
@given(over_budget_invocations())
def test_over_budget_sizes_exit_2_before_allocating(argv):
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        try:
            code, out = run(argv, Path(tmp))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert peak < 1_000_000, argv
        assert list(Path(tmp).iterdir()) == []
