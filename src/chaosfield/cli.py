"""Command-line front end.

Subcommands: hermite, integrate, sde, fbm, verify.  Configuration comes from
an optional JSON file plus command-line flags, with flag > file > default
precedence.  Exit codes: 0 success, 1 verification failure, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .basis import BasisFamily
from .chaos import HValuedChaos
from .errors import ChaosFieldError, ConfigurationError, DomainError
from .hermite import hermite_table
from .integrals import (
    admissibility_diagnostic,
    brownian_path_integrand,
    field_ito_integral,
    ito_integral,
    strat_integral,
)
from .kernels import (
    brownian_kernel,
    covariance_from_kernel,
    fbm_c_h,
    fbm_k1,
    fbm_kernel_spec,
    k1_empirical,
    op_norm_bound,
    op_norm_estimate,
)
from .multiindex import Truncation, _check_table_size
from .sde import solve_closed_form, solve_picard
from .verify import run_suite


@dataclass
class ExperimentConfig:
    """Shared experiment parameters with validation."""

    kernel: str = "brownian"
    hurst: float = 0.75
    horizon: float = 1.0
    basis: str = "cosine"
    modes: int = 8
    order: int = 4
    grid: int = 256
    out: str = "."

    def validate(self) -> None:
        for name in ("modes", "order", "grid"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{name} must be an integer, not {value!r}")
        for name in ("hurst", "horizon"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigurationError(f"{name} must be a real number, not {value!r}")
        if not isinstance(self.out, str) or not self.out:  # "" would fail in os.makedirs after the solve
            raise ConfigurationError(f"out must be a non-empty string, not {self.out!r}")
        if self.kernel not in ("brownian", "fbm"):
            raise ConfigurationError(f"unknown kernel {self.kernel!r}")
        if not 0.5 < self.hurst < 1.0:
            raise ConfigurationError("hurst must lie in (1/2, 1)")
        if not 0 < self.horizon < math.inf:
            raise ConfigurationError("horizon must be positive and finite")
        if self.modes < 1 or self.order < 1 or self.grid < 2:
            raise ConfigurationError("modes, order must be >= 1 and grid >= 2")
        if self.basis not in ("cosine", "legendre"):
            raise ConfigurationError(f"unknown basis {self.basis!r}")

    def make_kernel(self):
        if self.kernel == "brownian":
            return brownian_kernel(self.horizon)
        return fbm_kernel_spec(self.hurst, self.horizon)

    def make_basis(self) -> BasisFamily:
        return BasisFamily(self.basis, self.horizon)

    def truncation(self) -> Truncation:
        return Truncation(self.modes, self.order)


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """Build the config with flag > file > default precedence."""
    values = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigurationError(f"a config file must hold a JSON object, not {type(data).__name__}")
        known = {f.name for f in fields(ExperimentConfig)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        values.update(data)
    for f in fields(ExperimentConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def _json_text(payload: dict) -> str:
    """The payload as JSON; NaN or infinity, which JSON cannot hold, raises DomainError."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"result is not finite: {exc}") from None


def _emit(payload: dict, out_path: str = None) -> None:
    text = _json_text(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_hermite(args: argparse.Namespace) -> int:
    if args.n_max < 0:
        raise ConfigurationError("n-max must be non-negative")
    if args.t_points < 1:
        raise ConfigurationError("t-points must be >= 1")
    if not (math.isfinite(args.t_min) and math.isfinite(args.t_max)):
        raise ConfigurationError("t-min and t-max must be finite")
    _check_table_size((args.n_max + 1) * args.t_points, "the Hermite table")
    ts = np.linspace(args.t_min, args.t_max, args.t_points)
    table = hermite_table(args.n_max, ts)
    if not np.all(np.isfinite(table)):
        raise DomainError("Hermite values overflow: the table is not finite")
    writer = csv.writer(sys.stdout)
    writer.writerow(["t"] + [f"H{n}" for n in range(args.n_max + 1)])
    for t, row in zip(ts.tolist(), table.T.tolist()):
        writer.writerow([repr(t)] + [repr(h) for h in row])
    return 0


def cmd_integrate(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    basis = cfg.make_basis()
    trunc = cfg.truncation()
    if args.integrand == "w-path":
        eta = brownian_path_integrand(trunc, basis)
    else:
        with open(args.integrand) as fh:
            eta = HValuedChaos.from_dict(json.load(fh), basis)
    if args.mode == "ito":
        result = ito_integral(eta)
    elif args.mode == "strat":
        result = strat_integral(eta)
    else:
        result = field_ito_integral(eta, cfg.make_kernel())
    diag = admissibility_diagnostic(eta)
    payload = {
        "mode": args.mode,
        "result": result.to_dict(),
        "norm_squared": result.norm_squared(),
        "admissibility": {
            "weighted_mass": diag.weighted_mass,
            "tail_ratio": diag.tail_ratio,
        },
    }
    _emit(payload, args.out_file)
    return 0


def cmd_sde(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    kernel = cfg.make_kernel()
    basis = cfg.make_basis()
    trunc = cfg.truncation()
    _check_table_size((cfg.grid + 1) * trunc.size(), "the solution on the time grid")
    grid = np.linspace(0.0, cfg.horizon, cfg.grid + 1)
    # a value that overflows at a huge horizon is refused by _json_text below, with one message
    with np.errstate(over="ignore", invalid="ignore"):
        closed = solve_closed_form(kernel, basis, trunc, grid)
        picard = solve_picard(kernel, basis, trunc, grid)
        discrepancy = float(np.max(np.abs(closed.coeffs - picard.coeffs)))
        second = closed.second_moment(cfg.horizon)
        exp_cov = float(np.exp(covariance_from_kernel(kernel, cfg.horizon, cfg.horizon)))
    csv_path = os.path.join(cfg.out, "sde_solution.csv")
    sidecar_path = os.path.join(cfg.out, "sde_alpha_ids.json")
    payload = {
        "kernel": cfg.kernel,
        "closed_vs_picard_max_discrepancy": discrepancy,
        "second_moment_at_horizon": second,
        "exp_covariance_at_horizon": exp_cov,
        "solution_csv": csv_path,
        "alpha_ids_json": sidecar_path,
    }
    text = _json_text(payload)  # before any file is written, so a refused result leaves none
    os.makedirs(cfg.out, exist_ok=True)
    closed.export_csv(csv_path, sidecar_path)
    sys.stdout.write(text + "\n")
    return 0


def cmd_fbm(args: argparse.Namespace) -> int:
    hurst = args.hurst if args.hurst is not None else 0.75
    horizon = args.horizon if args.horizon is not None else 1.0
    if not 0.5 < hurst < 1.0:
        raise ConfigurationError("hurst must lie in (1/2, 1)")
    if not 0 < horizon < math.inf:
        raise ConfigurationError("horizon must be positive and finite")
    if args.grid < 1:
        raise ConfigurationError("grid must be >= 1")
    kernel = fbm_kernel_spec(hurst, horizon)
    estimate = op_norm_estimate(kernel, args.grid)  # first: it refuses an over-budget grid before any quadrature
    k1 = fbm_k1(hurst, horizon)
    emp = k1_empirical(kernel)
    bound = op_norm_bound(0.0, k1)
    payload = {
        "c_h": fbm_c_h(hurst),
        "k1_analytic": k1,
        "k1_empirical": emp,
        "norm_bound": bound,
        "norm_estimate": estimate,
        "pass": bool(emp <= k1 + 1e-6 and estimate <= bound),
    }
    _emit(payload)
    return 0 if payload["pass"] else 1


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(args.suite)
    _emit(report)
    return 0 if report["pass"] else 1


@functools.lru_cache(maxsize=None)  # parsing does not change the parser, so one serves every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaosfield",
        description="Stochastic integration via Wiener chaos expansion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # no prefix abbreviations: integrate's --out would otherwise read as --out-file
    add_command = functools.partial(sub.add_parser, allow_abbrev=False)

    def add_config_flags(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--kernel", choices=["brownian", "fbm"])
        p.add_argument("--hurst", type=float)
        p.add_argument("--horizon", type=float)
        p.add_argument("--basis", choices=["cosine", "legendre"])
        p.add_argument("--modes", type=int)
        p.add_argument("--order", type=int)

    p = add_command("hermite", help="tabulate Hermite polynomials")
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--t-min", type=float, default=-2.0)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--t-points", type=int, default=9)
    p.set_defaults(func=cmd_hermite)

    p = add_command("integrate", help="chaos-space stochastic integral")
    add_config_flags(p)
    p.add_argument("--integrand", default="w-path", help="'w-path' or a JSON file")
    p.add_argument("--mode", choices=["ito", "strat", "field-ito"], default="ito")
    p.add_argument("--out-file", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_integrate)

    p = add_command("sde", help="solve the linear Wick SDE")
    add_config_flags(p)
    p.add_argument("--grid", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sde)

    p = add_command("fbm", help="fBm kernel diagnostics")
    p.add_argument("--hurst", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--grid", type=int, default=512)
    p.set_defaults(func=cmd_fbm)

    p = add_command("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ChaosFieldError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
