import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from chaosfield import cli
from chaosfield.basis import jacobi01
from chaosfield.cli import main
from chaosfield.multiindex import MAX_TABLE_ENTRIES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_hermite_csv(capsys):
    code, out = run(capsys, "hermite", "--n-max", "3", "--t-min", "3", "--t-max", "3", "--t-points", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,H0,H1,H2,H3"
    row = [float(v) for v in lines[1].split(",")]
    # probabilists' Hermite at t = 3: H2 = 9 - 1 = 8, H3 = 27 - 9 = 18
    assert row == [3.0, 1.0, 3.0, 8.0, 18.0]


def test_hermite_bad_args(capsys):
    code, _ = run(capsys, "hermite", "--n-max", "-1")
    assert code == 2
    code, _ = run(capsys, "hermite", "--t-points", "0")
    assert code == 2


def test_integrate_w_path_norm(capsys):
    code, out = run(capsys, "integrate", "--modes", "4", "--order", "2", "--mode", "ito")
    assert code == 0
    payload = json.loads(out)
    # the Ito integral of W_K has norm^2 = s_K^2 / 2 with s_K = horizon = 1
    assert payload["norm_squared"] == pytest.approx(0.5, abs=1e-12)
    assert payload["mode"] == "ito"
    assert payload["admissibility"]["weighted_mass"] > 0.0


def test_integrate_strat_mean(capsys):
    code, out = run(capsys, "integrate", "--modes", "4", "--order", "2", "--mode", "strat")
    assert code == 0
    payload = json.loads(out)
    # the zero multi-index carries s_K / 2 = 1/2
    mean = next(c["value"] for c in payload["result"]["coeffs"] if c["alpha"] == [])
    assert mean == pytest.approx(0.5, abs=1e-12)


def test_integrate_from_json_file(tmp_path, capsys):
    from chaosfield.chaos import HValuedChaos
    from chaosfield.multiindex import Truncation

    trunc = Truncation(2, 1)
    coeffs = np.zeros((trunc.size(), 2))
    coeffs[0] = [1.0, 0.5]
    eta = HValuedChaos(trunc, coeffs)
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(eta.to_dict()))
    code, out = run(capsys, "integrate", "--integrand", str(path), "--modes", "2", "--order", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["norm_squared"] == pytest.approx(1.25, abs=1e-12)


def test_integrate_missing_file(capsys):
    code, _ = run(capsys, "integrate", "--integrand", "/nonexistent/eta.json")
    assert code == 2


def test_sde_command(tmp_path, capsys):
    code, out = run(
        capsys,
        "sde",
        "--kernel", "brownian",
        "--modes", "3",
        "--order", "5",
        "--grid", "16",
        "--out", str(tmp_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_vs_picard_max_discrepancy"] < 1e-8
    assert payload["second_moment_at_horizon"] == pytest.approx(math.e, abs=5e-2)
    assert (tmp_path / "sde_solution.csv").exists()
    assert (tmp_path / "sde_alpha_ids.json").exists()


def test_fbm_command(capsys):
    code, out = run(capsys, "fbm", "--hurst", "0.75", "--grid", "64")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["k1_analytic"] == pytest.approx(1.5, rel=1e-12)
    assert payload["k1_empirical"] <= payload["k1_analytic"] + 1e-6
    assert payload["norm_estimate"] <= payload["norm_bound"]


def finite_payload(out):
    # stdout parses as JSON without NaN or Infinity tokens, and every number in it is finite
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")

    payload = json.loads(out, parse_constant=refuse)
    numbers = [v for v in payload.values() if isinstance(v, (int, float)) and not isinstance(v, bool)]
    assert numbers and all(math.isfinite(v) for v in numbers)
    return payload


@pytest.mark.parametrize("hurst", ["0.995", "0.999"])
def test_fbm_near_hurst_one_exits_0_with_finite_payload(hurst, capsys):
    code, out = run(capsys, "fbm", "--hurst", hurst, "--grid", "128")
    assert code == 0
    assert finite_payload(out)["pass"] is True


@pytest.mark.parametrize("hurst", ["0.995", "0.999"])
def test_sde_fbm_near_hurst_one_exits_0_with_finite_payload(hurst, tmp_path, capsys):
    argv = ["sde", "--kernel", "fbm", "--hurst", hurst, "--basis", "cosine", "--modes", "4", "--order", "3"]
    code, out = run(capsys, *argv, "--grid", "64", "--out", str(tmp_path))
    assert code == 0
    payload = finite_payload(out)
    assert payload["exp_covariance_at_horizon"] == pytest.approx(math.e, rel=1e-4)


@pytest.mark.parametrize(
    "name, kwargs",
    [("k1_empirical", {"refine_tol": 0.0, "max_refinements": 1}), ("op_norm_estimate", {"max_iter": 1})],
)
def test_fbm_non_convergence_exits_2(name, kwargs, monkeypatch, capsys):
    import chaosfield.cli as cli

    diagnostic = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **kw: diagnostic(*a, **{**kw, **kwargs}))
    code, out = run(capsys, "fbm", "--hurst", "0.75", "--grid", "64")
    assert code == 2
    assert out == ""


def test_fbm_bad_hurst(capsys):
    code, _ = run(capsys, "fbm", "--hurst", "0.4")
    assert code == 2
    code, _ = run(capsys, "fbm", "--hurst", "1.2")
    assert code == 2


def test_verify_algebra(capsys):
    code, out = run(capsys, "verify", "--suite", "algebra")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_unknown_suite(capsys):
    code, _ = run(capsys, "verify", "--suite", "nope")
    assert code == 2


@pytest.mark.parametrize("command", ["sde", "integrate"])
def test_oversized_truncation_exits_2(command, tmp_path, capsys):
    # (40, 10) holds C(50, 10) = 1.0e10 multi-indices
    argv = [command, "--modes", "40", "--order", "10"] + (["--out", str(tmp_path)] if command == "sde" else [])
    start = time.perf_counter()
    code, _ = run(capsys, *argv)
    assert code == 2
    assert time.perf_counter() - start < 1.0


def test_integrate_oversized_json_integrand_exits_2(tmp_path, capsys):
    path = tmp_path / "eta.json"
    path.write_text(json.dumps({"trunc": {"modes": 40, "max_order": 10}, "coeffs": []}))
    code, _ = run(capsys, "integrate", "--integrand", str(path))
    assert code == 2


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "fbm", "hurst": 0.9, "modes": 3, "order": 2, "grid": 8}))
    # flag overrides the file's kernel; file supplies the rest
    code, out = run(
        capsys, "sde", "--config", str(cfg), "--kernel", "brownian", "--out", str(tmp_path)
    )
    assert code == 0
    assert json.loads(out)["kernel"] == "brownian"


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernle": "brownian"}))
    code, _ = run(capsys, "sde", "--config", str(cfg))
    assert code == 2


def test_config_invalid_values(capsys):
    code, _ = run(capsys, "sde", "--kernel", "fbm", "--hurst", "0.3")
    assert code == 2
    code, _ = run(capsys, "sde", "--horizon", "-1")
    assert code == 2


@pytest.mark.parametrize(
    "values",
    [{"modes": "8"}, {"modes": 8.5}, {"modes": True}, {"hurst": None}, {"horizon": "1"}]
    # a file that is not a JSON object
    + [5, None, math.nan, [[1]], ["kernel"], "abc"],
    ids=["modes-str", "modes-float", "modes-bool", "hurst-null", "horizon-str"]
    + ["int", "null", "nan", "nested-list", "key-list", "str"],
)
def test_config_wrong_types_exit_2(values, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    code, out = run(capsys, "sde", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert not (tmp_path / "sde_solution.csv").exists()


def test_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe{}")
    code, out = run(capsys, "sde", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("value", [5, None])
def test_config_out_that_is_not_a_string_exits_2(value, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": value, "modes": 2, "order": 1, "grid": 4}))
    code, out = run(capsys, "sde", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("where", ["file", "flag"])
def test_empty_out_exits_2_before_any_work(where, tmp_path, monkeypatch, capsys):
    # it used to solve the whole problem and then fail in os.makedirs("")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "solve_closed_form", lambda *args: pytest.fail("solved before refusing"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": "" if where == "file" else ".", "modes": 2, "order": 1, "grid": 4}))
    argv = ["sde", "--config", str(cfg)] + (["--out", ""] if where == "flag" else [])
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("hurst", ["7", "0.5", "nan"])
def test_hurst_outside_the_open_interval_exits_2_for_every_kernel(hurst, tmp_path, capsys):
    argv = ["sde", "--kernel", "brownian", "--hurst", hurst, "--modes", "2", "--order", "1", "--grid", "4"]
    code, out = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    code, out = run(capsys, "integrate", "--kernel", "brownian", "--hurst", hurst, "--modes", "2", "--order", "1")
    assert code == 2
    assert out == ""


def test_non_finite_result_exits_2_and_writes_nothing(tmp_path, capsys):
    # exp(R(T, T)) overflows at this horizon; Infinity is not JSON
    out_dir = tmp_path / "out"
    argv = ["sde", "--horizon", "1e300", "--modes", "2", "--order", "2", "--grid", "8", "--out", str(out_dir)]
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert not out_dir.exists()


def run_refused(capsys, *argv):
    """Run a command that must exit 2 with one line on stderr and no warning; return that line."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), captured.err
    return captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kernel", "brownian", "--horizon", "1e300"], "result is not finite"),
        (["--kernel", "brownian", "--horizon", "1000", "--modes", "2", "--order", "2", "--grid", "8"], "not finite"),
        (["--kernel", "fbm", "--horizon", "1e300", "--modes", "2", "--order", "2", "--grid", "8"], "M~ overflows"),
        (["--kernel", "fbm", "--horizon", "1e200", "--modes", "2", "--order", "2", "--grid", "8"], "not finite"),
    ],
)
def test_sde_overflow_exits_2_with_one_line_and_no_warning(argv, message, tmp_path, capsys):
    # exp(R(T, T)) overflows at horizon 1000; at 1e200 and 1e300 the coefficients do too
    assert message in run_refused(capsys, "sde", *argv, "--out", str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "hurst, horizon, grid, message",
    [
        ("0.75", "1e300", "512", "512 x 512 K* matrix is not finite"),
        ("0.75", "1e250", "512", "512 x 512 K* matrix is not finite"),
        ("0.99", "1e200", "64", "power iteration on K*^T K* overflows"),
    ],
)
def test_fbm_overflowing_kstar_exits_2_at_once_with_one_line(hurst, horizon, grid, message, capsys):
    # named before any power iteration; it used to run all 5 000 on a NaN matrix and blame the tolerance,
    # and at H 0.99 an overflowing iterate norm read as norm_estimate 0.0 with "pass": true
    assert message in run_refused(capsys, "fbm", "--hurst", hurst, "--horizon", horizon, "--grid", grid)


def test_repeated_output_byte_identical(capsys):
    # one parser serves every call, a refused one in between included
    _, first = run(capsys, "integrate", "--modes", "3", "--order", "2")
    with pytest.raises(SystemExit):
        main(["integrate", "--mode", "bogus"])
    _, second = run(capsys, "integrate", "--modes", "3", "--order", "2")
    assert first == second
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("flag, value", [("--seed", "1"), ("--format", "csv")])
def test_removed_flags_exit_2(flag, value, tmp_path, capsys):
    # --seed and --format were never read; the flag and the config key are both refused
    with pytest.raises(SystemExit) as exc:
        main(["sde", flag, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:]: int(value) if value.isdigit() else value}))
    code, _ = run(capsys, "sde", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize("flag, value", [("--grid", "8"), ("--out", "x")])
def test_integrate_refuses_the_sde_only_flags(flag, value, tmp_path, monkeypatch):
    # integrate reads neither; --out is no abbreviation of --out-file either
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["integrate", "--modes", "2", "--order", "1", flag, value])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("horizon", ["nan", "inf"])
@pytest.mark.parametrize("command", ["sde", "fbm"])
def test_non_finite_horizon_exits_2(command, horizon, tmp_path, capsys):
    argv = [command, "--horizon", horizon]
    if command == "sde":
        argv += ["--modes", "2", "--order", "2", "--grid", "8", "--out", str(tmp_path)]
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert not (tmp_path / "sde_solution.csv").exists()


@pytest.mark.parametrize("grid", ["0", "-5"])
def test_fbm_grid_below_one_exits_2(grid, capsys):
    code, out = run(capsys, "fbm", "--grid", grid)
    assert code == 2
    assert out == ""


def test_fbm_grid_over_the_table_budget_exits_2(capsys, monkeypatch):
    # the grid x grid K* matrix is checked against the table budget before it is allocated
    # and before any other quadrature of the command
    def no_quadrature(*args, **kwargs):
        raise AssertionError("k1_empirical ran before the grid was checked")

    monkeypatch.setattr(cli, "k1_empirical", no_quadrature)
    assert 4472**2 <= MAX_TABLE_ENTRIES < 4473**2
    code, out = run(capsys, "fbm", "--grid", "4473")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("flag, value", [("--t-min", "nan"), ("--t-max", "inf")])
def test_hermite_non_finite_range_exits_2(flag, value, capsys):
    code, out = run(capsys, "hermite", flag, value, "--t-points", "2", "--n-max", "2")
    assert code == 2
    assert out == ""


def test_hermite_overflowing_table_exits_2(capsys):
    # H_400(1e200) overflows to inf, and H_n - n H_{n-1} of two infinities is nan
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run(capsys, "hermite", "--n-max", "400", "--t-min", "1e200", "--t-max", "1e200", "--t-points", "1")
    assert code == 2
    assert out == ""


def peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hermite_table_over_the_budget_exits_2_before_allocating(capsys):
    # (n_max + 1) x t_points = 1e10 entries, 74.5 GiB of float64
    (code, out), peak = peak_bytes(lambda: run(capsys, "hermite", "--n-max", "99999", "--t-points", "100000"))
    assert code == 2
    assert out == ""
    assert peak < 1_000_000


def test_sde_grid_over_the_budget_exits_2_before_allocating(tmp_path, capsys):
    # (grid + 1) x S = 20 000 001 x 495 solution entries at the default (8, 4)
    argv = ["sde", "--grid", "20000000", "--out", str(tmp_path)]
    (code, out), peak = peak_bytes(lambda: run(capsys, *argv))
    assert code == 2
    assert out == ""
    assert peak < 1_000_000
    assert not (tmp_path / "sde_solution.csv").exists()


GOOD_INTEGRAND = {"trunc": {"modes": 2, "max_order": 1}, "coeffs": [{"alpha": [], "k": 1, "value": 1.0}]}


@pytest.mark.parametrize(
    "integrand",
    [
        [GOOD_INTEGRAND],  # a list, not an object
        {"coeffs": GOOD_INTEGRAND["coeffs"]},  # no trunc
        {**GOOD_INTEGRAND, "extra": 1},
        {**GOOD_INTEGRAND, "trunc": {"modes": 2}},
        {**GOOD_INTEGRAND, "trunc": {"modes": "2", "max_order": 1}},
        {**GOOD_INTEGRAND, "trunc": {"modes": 0, "max_order": 1}},
        {**GOOD_INTEGRAND, "trunc": {"modes": 2, "max_order": -1}},
        {**GOOD_INTEGRAND, "coeffs": {"alpha": [], "k": 1, "value": 1.0}},
        {**GOOD_INTEGRAND, "coeffs": [{"alpha": [], "value": 1.0}]},  # no k
        {**GOOD_INTEGRAND, "coeffs": [[[], 1, 1.0]]},
        {**GOOD_INTEGRAND, "coeffs": [{"alpha": [], "k": 0, "value": 1.0}]},
        {**GOOD_INTEGRAND, "coeffs": [{"alpha": [], "k": 3, "value": 1.0}]},
        {**GOOD_INTEGRAND, "coeffs": [{"alpha": [], "k": 1.5, "value": 1.0}]},
        {**GOOD_INTEGRAND, "coeffs": [{"alpha": [], "k": True, "value": 1.0}]},
        {**GOOD_INTEGRAND, "coeffs": [{"alpha": [], "k": 1, "value": "1.0"}]},
        {**GOOD_INTEGRAND, "coeffs": [{"alpha": [[3, 1]], "k": 1, "value": 1.0}]},  # mode 3 of 2
        {**GOOD_INTEGRAND, "coeffs": [{"alpha": [[1, 2]], "k": 1, "value": 1.0}]},  # order 2 of 1
        {**GOOD_INTEGRAND, "coeffs": [{"alpha": [[2, 1], [1, 1]], "k": 1, "value": 1.0}]},  # positions not increasing
        {**GOOD_INTEGRAND, "coeffs": [{"alpha": [[1, 0]], "k": 1, "value": 1.0}]},  # a stored zero
        {**GOOD_INTEGRAND, "coeffs": [{"alpha": [1, 1], "k": 1, "value": 1.0}]},
        {**GOOD_INTEGRAND, "coeffs": [{"alpha": [[1, 1.0]], "k": 1, "value": 1.0}]},
    ],
)
def test_integrate_malformed_integrand_exits_2(integrand, tmp_path, capsys):
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(integrand))
    code, out = run(capsys, "integrate", "--integrand", str(path), "--modes", "2", "--order", "1")
    assert code == 2
    assert out == ""


def test_integrate_the_well_formed_integrand_exits_0(tmp_path, capsys):
    # the malformed integrands above are each one change away from this one
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(GOOD_INTEGRAND))
    code, out = run(capsys, "integrate", "--integrand", str(path), "--modes", "2", "--order", "1")
    assert code == 0
    assert json.loads(out)["norm_squared"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "argv, rules",
    [
        (["fbm", "--hurst", "0.6123", "--grid", "64"], 2),
        (["sde", "--kernel", "fbm", "--hurst", "0.6321", "--modes", "4", "--order", "3", "--grid", "32"], 4),
    ],
    ids=["fbm", "sde-fbm"],
)
def test_fbm_commands_build_few_gauss_jacobi_rules(argv, rules, capsys, tmp_path):
    # fbm: K*'s diagonal-cell rule and k1_empirical's; sde: the two behind M~'s own rule (psi shares
    # one), the Picard integration matrix's and the covariance's.  K(t, s) itself is a series and builds none.
    jacobi01.cache_clear()
    extra = ["--out", str(tmp_path)] if argv[0] == "sde" else []
    code, _ = run(capsys, *argv, *extra)
    assert code == 0
    assert jacobi01.cache_info().misses == rules
