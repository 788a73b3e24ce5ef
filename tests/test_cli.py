import json
import math
import time

import numpy as np
import pytest

from chaosfield import cli
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
    start = time.perf_counter()
    code, _ = run(capsys, command, "--modes", "40", "--order", "10", "--out", str(tmp_path))
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
    [{"modes": "8"}, {"modes": 8.5}, {"modes": True}, {"hurst": None}, {"horizon": "1"}],
    ids=["modes-str", "modes-float", "modes-bool", "hurst-null", "horizon-str"],
)
def test_config_wrong_types_exit_2(values, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    code, out = run(capsys, "sde", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert not (tmp_path / "sde_solution.csv").exists()


def test_non_finite_result_exits_2_and_writes_nothing(tmp_path, capsys):
    # exp(R(T, T)) overflows at this horizon; Infinity is not JSON
    out_dir = tmp_path / "out"
    argv = ["sde", "--horizon", "1e300", "--modes", "2", "--order", "2", "--grid", "8", "--out", str(out_dir)]
    with np.errstate(over="ignore"):
        code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert not out_dir.exists()


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
