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
    fbm_kernel_spec,
    k1_empirical,
    op_norm_bound,
    op_norm_estimate,
)
from .multiindex import Truncation, _check_integer, _check_table_size, _tables
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
        """Check only what no library constructor reads: the kernel name, hurst (for every kernel), order, grid, out."""
        if self.kernel not in ("brownian", "fbm"):
            raise ConfigurationError(f"unknown kernel {self.kernel!r}")
        if isinstance(self.hurst, bool) or not isinstance(self.hurst, numbers.Real) or not 0.5 < self.hurst < 1.0:
            raise ConfigurationError(f"hurst must be a real number in (1/2, 1), not {self.hurst!r}")
        _check_integer("order", self.order, 1)  # Truncation takes max_order 0
        _check_integer("grid", self.grid, 2)
        if not isinstance(self.out, str) or not self.out:  # "" would fail in os.makedirs after the solve
            raise ConfigurationError(f"out must be a non-empty string, not {self.out!r}")

    def make_kernel(self):
        if self.kernel == "brownian":
            return brownian_kernel(self.horizon)
        return fbm_kernel_spec(self.hurst, self.horizon)

    def make_basis(self) -> BasisFamily:
        return BasisFamily(self.basis, self.horizon)

    def truncation(self) -> Truncation:
        return Truncation(self.modes, self.order)


def load_config(args: argparse.Namespace) -> tuple:
    """(config, the keys a flag or the file gave), with flag > file > default precedence."""
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
    return cfg, set(values)


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
    if args.t_points < 1:
        raise ConfigurationError("t-points must be >= 1")
    if not (math.isfinite(args.t_min) and math.isfinite(args.t_max)):
        raise ConfigurationError("t-min and t-max must be finite")
    # hermite_table refuses a negative n-max; the budget counts one row for it, so no oversized grid is built first
    _check_table_size((max(args.n_max, 0) + 1) * args.t_points, "the Hermite table")
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
    cfg, given = load_config(args)
    if args.mode != "field-ito" and cfg.kernel != "brownian":
        raise ConfigurationError(f"--mode {args.mode} is the Brownian integral; the {cfg.kernel} kernel takes field-ito")
    if "hurst" in given and cfg.kernel != "fbm":
        raise ConfigurationError(f"hurst is the fbm kernel's Hurst index; the {cfg.kernel} kernel takes none")
    if refused := sorted(given & {"grid", "out"}):  # sde's keys, which a config file shared with it may hold
        raise ConfigurationError(f"integrate reads no {refused[0]}")
    basis = cfg.make_basis()
    if args.integrand == "w-path":
        trunc = cfg.truncation()
    else:
        with open(args.integrand) as fh:
            eta = HValuedChaos.from_dict(json.load(fh))
        trunc = eta.trunc
        # the file holds its own truncation: a modes or order given must name it, not be ignored
        own = (trunc.modes, trunc.max_order)
        named = (cfg.modes if "modes" in given else own[0], cfg.order if "order" in given else own[1])
        if Truncation(*named) != trunc:
            raise ConfigurationError(f"the integrand file is on truncation {own}, not {named}")
    if args.mode != "strat":
        # the Ito output lives on (K, N + 1): its tables refuse an over-budget result before the
        # integrand or the pairing is built, and within budget fill the cache ito_integral reads
        _tables(Truncation(trunc.modes, trunc.max_order + 1))
    if args.integrand == "w-path":
        eta = brownian_path_integrand(trunc, basis)
    if args.mode == "ito":
        result = ito_integral(eta)
    elif args.mode == "strat":
        result = strat_integral(eta)
    else:
        result = field_ito_integral(eta, cfg.make_kernel(), basis)
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
    cfg, _ = load_config(args)
    kernel = cfg.make_kernel()
    basis = cfg.make_basis()
    trunc = cfg.truncation()
    _check_table_size((cfg.grid + 1) * trunc.size(), "the solution on the time grid")
    grid = np.linspace(0.0, cfg.horizon, cfg.grid + 1)
    # a value that overflows at a huge horizon is refused by name where it is computed, or by _json_text below
    with np.errstate(over="ignore", invalid="ignore"):
        picard = solve_picard(kernel, basis, trunc, grid)  # first: it refuses an over-budget collocation at once
        closed = solve_closed_form(kernel, basis, trunc, grid)
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
    kernel = fbm_kernel_spec(args.hurst, args.horizon)  # refuses a bad Hurst index or horizon
    estimate = op_norm_estimate(kernel, args.grid)  # first: it refuses a bad or over-budget grid before any quadrature
    emp = k1_empirical(kernel)
    bound = op_norm_bound(0.0, kernel.k1_bound)
    payload = {
        "c_h": kernel.c_h,
        "k1_analytic": kernel.k1_bound,
        "k1_empirical": emp,
        "norm_bound": bound,
        "norm_estimate": estimate,
        "pass": bool(emp <= kernel.k1_bound + 1e-6 and estimate <= bound),
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
    p.add_argument("--hurst", type=float, default=0.75)
    p.add_argument("--horizon", type=float, default=1.0)
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
