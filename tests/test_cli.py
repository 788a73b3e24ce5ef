import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from chaosfield import basis, cli, kernels, sde
from chaosfield.basis import jacobi01
from chaosfield.cli import main
from chaosfield.multiindex import MAX_TABLE_ENTRIES
from test_basis import _library_rules


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


def _integrand_file(tmp_path):
    # an integrand on truncation (2, 1) whose Ito integral has norm^2 1 + 0.5^2
    from chaosfield.chaos import HValuedChaos
    from chaosfield.multiindex import Truncation

    trunc = Truncation(2, 1)
    coeffs = np.zeros((trunc.size(), 2))
    coeffs[0] = [1.0, 0.5]
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(HValuedChaos(trunc, coeffs).to_dict()))
    return str(path)


def test_integrate_from_json_file(tmp_path, capsys):
    # a modes and order that match the file's truncation pass, as does leaving them out
    for given in (["--modes", "2", "--order", "1"], ["--order", "1"], []):
        code, out = run(capsys, "integrate", "--integrand", _integrand_file(tmp_path), *given)
        assert code == 0
        payload = json.loads(out)
        assert payload["norm_squared"] == pytest.approx(1.25, abs=1e-12)


@pytest.mark.parametrize(
    "given, named",
    [(["--modes", "5", "--order", "3"], "(5, 3)"), (["--order", "3"], "(2, 3)"), ({"modes": 5}, "(5, 1)")],
    ids=["flags", "order-flag", "config-modes"],
)
def test_integrate_from_json_file_refuses_another_truncation(given, named, tmp_path, capsys):
    # the file's truncation is the integrand's own; a modes or order that names another one was ignored
    if isinstance(given, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(given))
        given = ["--config", str(config)]
    assert main(["integrate", "--integrand", _integrand_file(tmp_path), *given]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: the integrand file is on truncation (2, 1), not {named}\n"


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
    assert payload["closed_vs_picard_max_discrepancy"] <= 1e-11
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
    "diagnostic, kwargs",  # kwargs: the kernels constants that keep the diagnostic from converging
    [("k1_empirical", {"_K1_TOL": 0.0, "_K1_REFINEMENTS": 1}), ("op_norm_estimate", {"_POWER_ITERATIONS": 1})],
)
def test_fbm_non_convergence_exits_2(diagnostic, kwargs, monkeypatch, capsys):
    for name, value in kwargs.items():
        monkeypatch.setattr(kernels, name, value)
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


OVER_BUDGET_OUTPUT = "configuration error: truncation (1500, 2) needs 1690876500 table entries"


@pytest.mark.parametrize("mode", ["ito", "field-ito"])
def test_integrate_refuses_an_over_budget_output_before_building_the_integrand(mode, monkeypatch, capsys):
    # (1500, 1) fits the table budget, but its Ito output (1500, 2) does not; the path integrand took seconds first
    monkeypatch.setattr(cli, "brownian_path_integrand", lambda *args: pytest.fail("integrand built before refusing"))
    assert main(["integrate", "--mode", mode, "--modes", "1500", "--order", "1"]) == 2
    assert capsys.readouterr().err.startswith(OVER_BUDGET_OUTPUT)


def test_integrate_refuses_an_over_budget_output_right_after_reading_the_integrand(tmp_path, monkeypatch, capsys):
    path = tmp_path / "eta.json"
    path.write_text(json.dumps({"trunc": {"modes": 1500, "max_order": 1}, "coeffs": []}))
    monkeypatch.setattr(cli, "field_ito_integral", lambda *args: pytest.fail("pairing built before refusing"))
    assert main(["integrate", "--mode", "field-ito", "--integrand", str(path)]) == 2
    assert capsys.readouterr().err.startswith(OVER_BUDGET_OUTPUT)


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


def test_an_over_budget_picard_request_is_refused_before_the_closed_form(tmp_path, monkeypatch, capsys):
    # Picard checks its collocation table first, so the closed form over the 201 grid times is never solved
    monkeypatch.setattr(cli, "solve_closed_form", lambda *args: pytest.fail("closed form solved before refusing"))
    out_dir = tmp_path / "out"
    argv = ["sde", "--kernel", "fbm", "--modes", "16", "--order", "6", "--grid", "200", "--out", str(out_dir)]
    assert "Picard on 18 panels of 20" in run_refused(capsys, *argv)
    assert not out_dir.exists()


def test_an_overflowing_fbm_variance_exits_2_by_name(tmp_path, capsys):
    # T^2H exceeds the float range here: the variance refuses it by name, before the JSON writer meets a non-finite value
    out_dir = tmp_path / "out"
    argv = ["sde", "--kernel", "fbm", "--hurst", "0.99", "--horizon", "1e160", "--out", str(out_dir)]
    assert "R(t, t) overflows" in run_refused(capsys, *argv)
    assert not out_dir.exists()


@pytest.mark.parametrize("where", ["flag", "file"])
@pytest.mark.parametrize("mode", ["ito", "strat", "field-ito"])
def test_integrate_refuses_a_hurst_index_the_kernel_does_not_read(mode, where, tmp_path, capsys):
    # it was checked and then ignored: integrate --mode strat --hurst 0.6 printed the bytes of a run without it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hurst": 0.6} if where == "file" else {}))
    argv = ["integrate", "--mode", mode, "--modes", "3", "--order", "2", "--config", str(cfg)]
    line = run_refused(capsys, *argv, *(["--hurst", "0.6"] if where == "flag" else []))
    assert line == "configuration error: hurst is the fbm kernel's Hurst index; the brownian kernel takes none\n"
    # the fbm kernel reads it
    assert run(capsys, *argv, "--kernel", "fbm", "--mode", "field-ito", "--hurst", "0.6")[0] == 0


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


@pytest.mark.parametrize("mode", ["ito", "strat", "field-ito"])
@pytest.mark.parametrize("kernel", ["brownian", "fbm"])
def test_integrate_overflowing_path_pairing_exits_2_with_one_line_and_no_warning(mode, kernel, capsys):
    # the weight times M_k overflows at this horizon; it printed two numpy RuntimeWarnings before exit 2.
    # ito and strat refuse the fBm kernel before any pairing is built
    argv = ["integrate", "--mode", mode, "--kernel", kernel, "--horizon", "1e300", "--modes", "3", "--order", "2"]
    refused = kernel == "fbm" and mode != "field-ito"
    message = "is the Brownian integral" if refused else "path pairing (M_k, m_j) overflows"
    assert message in run_refused(capsys, *argv)


@pytest.mark.parametrize("mode", ["ito", "strat"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_integrate_ito_and_strat_refuse_a_non_brownian_kernel(mode, where, tmp_path, capsys):
    # both integrate against Brownian motion; they printed the Brownian integral whatever the kernel
    argv = ["integrate", "--mode", mode, "--modes", "2", "--order", "1"]
    if where == "flag":
        argv += ["--kernel", "fbm"]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"kernel": "fbm"}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    message = f"configuration error: --mode {mode} is the Brownian integral; the fbm kernel takes field-ito\n"
    assert run_refused(capsys, *argv) == message


@pytest.mark.parametrize(
    "hurst, horizon, grid, message",
    [
        ("0.75", "1e300", "512", "512 x 512 K* matrix is not finite"),
        ("0.75", "1e250", "512", "512 x 512 K* matrix is not finite"),
    ],
)
def test_fbm_overflowing_kstar_exits_2_at_once_with_one_line(hurst, horizon, grid, message, capsys):
    # named before any power iteration; it used to run all 5 000 on a NaN matrix and blame the tolerance
    assert message in run_refused(capsys, "fbm", "--hurst", hurst, "--horizon", horizon, "--grid", grid)


def test_fbm_norm_at_a_huge_horizon_is_the_scaled_unit_norm(capsys):
    # K*^T K* overflows at T = 1e200, H 0.99, but ||K*|| = T^(H - 1/2) ||K*_1|| is finite; it once read as 0.0
    # with "pass": true, then was refused with exit 2
    _, unit = run(capsys, "fbm", "--hurst", "0.99", "--grid", "64")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(capsys, "fbm", "--hurst", "0.99", "--horizon", "1e200", "--grid", "64")
    assert code == 0
    expected = json.loads(unit)["norm_estimate"] * 1e200**0.49
    assert json.loads(out)["norm_estimate"] == pytest.approx(expected, rel=4 * np.finfo(float).eps, abs=0.0)


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


@pytest.mark.parametrize(
    "flag, value", [("--grid", "8"), ("--out", "x"), pytest.param("--config", '{"grid": 300, "out": "zzz"}', id="config")]
)
def test_integrate_refuses_the_sde_only_flags(flag, value, tmp_path, tmp_path_factory, monkeypatch, capsys):
    # integrate reads neither, as a flag or as a config key; --out is no abbreviation of --out-file either
    if flag == "--config":
        config = tmp_path_factory.mktemp("config") / "cfg.json"
        config.write_text(value)
        value = str(config)
    monkeypatch.chdir(tmp_path)
    try:
        code = main(["integrate", "--modes", "2", "--order", "1", flag, value])
    except SystemExit as exc:  # argparse refuses a flag the command does not take
        code = exc.code
    assert code == 2
    if flag == "--config":
        assert capsys.readouterr().err == "configuration error: integrate reads no grid\n"
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


@pytest.mark.parametrize(
    "argv, line",
    [([command, "--horizon", "-1"], "-1.0") for command in ("sde", "integrate", "fbm")]
    + [([command, "--config", "{cfg}"], "True") for command in ("sde", "integrate")],
    ids=["sde", "integrate", "fbm", "sde-config-true", "integrate-config-true"],
)
def test_a_bad_horizon_exits_2_with_the_kernels_one_line(argv, line, tmp_path, monkeypatch, capsys):
    # sde and integrate printed validate's own "configuration error: horizon must be positive and finite"
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": True, "modes": 2, "order": 1}))
    code = main([arg.format(cfg=cfg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: horizon must be a positive and finite real number, not {line}\n"
    assert list(tmp_path.iterdir()) == [cfg]


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
    # hermite_table refuses n-max -1, but only after the time grid is built: the budget must bound 1e9 points first
    (code, out), peak = peak_bytes(lambda: run(capsys, "hermite", "--n-max", "-1", "--t-points", "1000000000"))
    assert (code, out) == (2, "")
    assert peak < 1_000_000


def test_sde_grid_over_the_budget_exits_2_before_allocating(tmp_path, capsys):
    # (grid + 1) x S = 20 000 001 x 495 solution entries at the default (8, 4)
    argv = ["sde", "--grid", "20000000", "--out", str(tmp_path)]
    (code, out), peak = peak_bytes(lambda: run(capsys, *argv))
    assert code == 2
    assert out == ""
    assert peak < 1_000_000
    assert not (tmp_path / "sde_solution.csv").exists()


def test_sde_picard_over_the_budget_exits_2_before_building_its_operator(tmp_path, capsys, monkeypatch):
    # (16, 6) holds 74 613 coefficients, inside the budget, but Picard's fBm 74 613 x 18 x 20 array is not
    def unreachable(*args):
        raise AssertionError("m~ taken at the collocation nodes before the collocation array was checked")

    monkeypatch.setattr(sde, "_kernel_at_nodes", unreachable)
    argv = ["sde", "--kernel", "fbm", "--modes", "16", "--order", "6", "--grid", "2", "--out", str(tmp_path)]
    err = run_refused(capsys, *argv)
    assert "needs 26860680 table entries" in err
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
        (["fbm", "--hurst", "0.6123", "--grid", "64"], 1),
        (["sde", "--kernel", "fbm", "--hurst", "0.6321", "--modes", "4", "--order", "3", "--grid", "32"], 2),
        (["integrate", "--mode", "field-ito", "--kernel", "fbm", "--hurst", "0.6456", "--modes", "4", "--order", "3"], 2),
    ],
    ids=["fbm", "sde-fbm", "integrate-field-ito-fbm"],
)
def test_fbm_commands_build_few_gauss_jacobi_rules(argv, rules, capsys, tmp_path, monkeypatch):
    # fbm: k1_empirical's rule alone, since K* takes K's own values next to its diagonal, and no psi rule;
    # sde: psi's (which M~'s own rule reads again from the kernel) and M~'s outer rule, none for the Picard operator
    # and none for R(T, T), which the kernel integrates from its series; integrate: psi's and quad_singular_smooth's 96-node pairing rule.  K(t, s) itself is a
    # series and builds none.
    # Every rule is one of test_basis's, bit for bit, whose moments and nodes are checked there.
    builds = []

    def counted(*key):
        builds.append(key)
        return jacobi01(*key)

    for module in (basis, kernels):  # the only modules that build a rule; test_tooling holds them to it
        monkeypatch.setattr(module, "jacobi01", counted)
    extra = ["--out", str(tmp_path)] if argv[0] == "sde" else []
    code, _ = run(capsys, *argv, *extra)
    assert code == 0
    assert len(builds) == rules, builds
    assert set(builds) <= set(_library_rules(float(argv[argv.index("--hurst") + 1]))), builds
