"""Self-verification suites: algebra, integrals, sde, fbm, mc.

Each suite returns a report dict {"suite": name, "pass": bool, "checks":
[{"name", "pass", "value", "tolerance"}, ...]} aggregating the library's
exact identities and oracle comparisons.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import BasisFamily
from .chaos import ChaosExpansion, truncate_expansion, wick_exp_first_chaos, wick_product
from .errors import ConfigurationError
from .hermite import hermite
from .integrals import (
    brownian_path_integrand,
    ito_integral,
    strat_integral,
    strat_via_trace,
)
from .kernels import (
    brownian_kernel,
    covariance_from_kernel,
    fbm_kernel_spec,
    grid_kernel,
    k1_empirical,
    op_norm_bound,
    op_norm_estimate,
)
from .mc import (
    _compare_values,
    discrete_strat_batch,
    mc_compare,
    sample_batch,
    synthesize_paths,
)
from .multiindex import MultiIndex, Truncation
from .sde import solve_closed_form, solve_picard


def _check(name: str, value: float, tolerance: float) -> dict:
    return {
        "name": name,
        "pass": bool(value <= tolerance),
        "value": float(value),
        "tolerance": float(tolerance),
    }


def _mc_check(name: str, report: dict) -> dict:
    return {
        "name": name,
        "pass": report["pass"],
        "value": abs(report["statistic"]),
        "tolerance": report["tolerance"],
    }


def _wrap(name: str, checks: list) -> dict:
    return {"suite": name, "pass": all(c["pass"] for c in checks), "checks": checks}


def _max_diff(f: ChaosExpansion, g: ChaosExpansion) -> float:
    """Largest coefficient difference of two expansions on one truncation."""
    return float(np.max(np.abs((f - g).vec)))


def _w_squared_coeffs(trunc: Truncation, basis: BasisFamily) -> ChaosExpansion:
    """Chaos coefficients of W_K(T)^2 / 2."""
    modes = trunc.modes
    mt = basis.antideriv(np.arange(1, modes + 1), basis.horizon)
    coeffs = {MultiIndex.zero(): float(np.sum(mt**2)) / 2.0}
    for k in range(1, modes + 1):
        coeffs[MultiIndex.single(k, 2)] = mt[k - 1] ** 2 * math.sqrt(2.0) / 2.0
        for j in range(1, k):
            coeffs[MultiIndex.eps(j).add(MultiIndex.eps(k))] = mt[j - 1] * mt[k - 1]
    return ChaosExpansion(Truncation(modes, max(trunc.max_order, 2)), coeffs)


def hermite_orthogonality_error() -> float:
    """max over n, m <= 10 of |E[H_n H_m] - n! delta_nm| / sqrt(n! m!), by 40-point
    Gauss-Hermite quadrature."""
    n_max = 10
    x, w = np.polynomial.hermite_e.hermegauss(40)
    w = w / math.sqrt(2.0 * math.pi)
    h = np.array([hermite(n, x) for n in range(n_max + 1)])
    gram = (h * w) @ h.T
    target = np.diag([float(math.factorial(n)) for n in range(n_max + 1)])
    scale = np.sqrt(
        np.outer(
            [math.factorial(n) for n in range(n_max + 1)],
            [math.factorial(n) for n in range(n_max + 1)],
        )
    )
    return float(np.max(np.abs(gram - target) / scale))


def wick_hermite_error() -> float:
    """max error in H_n(xi_1) wick H_m(xi_1) = H_{n+m}(xi_1), n + m <= 12, coefficientwise.

    In normalized coordinates H_n(xi_1) = sqrt(n!) xi_{n eps_1}, and the Wick
    product reproduces sqrt((n+m)!) xi_{(n+m) eps_1} exactly.
    """
    total_max = 12
    trunc = Truncation(1, total_max)
    worst = 0.0
    for n in range(total_max + 1):
        for m in range(total_max + 1 - n):
            f = ChaosExpansion(trunc, {MultiIndex.single(1, n): math.sqrt(math.factorial(n))})
            g = ChaosExpansion(trunc, {MultiIndex.single(1, m): math.sqrt(math.factorial(m))})
            prod = wick_product(f, g)
            target = ChaosExpansion(
                trunc, {MultiIndex.single(1, n + m): math.sqrt(math.factorial(n + m))}
            )
            worst = max(worst, _max_diff(prod, target) / math.sqrt(math.factorial(n + m)))
    return worst


def suite_algebra() -> dict:
    checks = [
        _check("hermite-orthogonality", hermite_orthogonality_error(), 1e-8),
        _check("wick-hermite-identity", wick_hermite_error(), 1e-12),
    ]
    trunc = Truncation(4, 6)
    we = wick_exp_first_chaos(np.array([0.3, -0.2, 0.1, 0.4]), trunc)
    checks.append(_check("wick-exponential-unit-mean", abs(we.mean - 1.0), 1e-14))
    return _wrap("algebra", checks)


def suite_integrals() -> dict:
    modes = 16
    basis = BasisFamily("cosine", 1.0)
    trunc = Truncation(modes, 2)
    eta = brownian_path_integrand(trunc, basis)
    mt = basis.antideriv(np.arange(1, modes + 1), 1.0)
    s_k = float(np.sum(mt**2))
    target = _w_squared_coeffs(trunc, basis)

    f_ito = ito_integral(eta)
    # the Ito integral has no mean term: compare against the target without its mean
    lifted = truncate_expansion(target, f_ito.trunc)
    ito_err = _max_diff(f_ito, lifted - ChaosExpansion.constant(lifted.trunc, target.mean))
    iso_err = abs(f_ito.norm_squared() - s_k**2 / 2.0)

    f_strat = strat_integral(eta)
    strat_err = _max_diff(f_strat, target)
    trace_err = _max_diff(f_strat, strat_via_trace(eta))
    checks = [
        _check("ito-truncated-identity", ito_err, 1e-10),
        _check("ito-isometry", iso_err, 1e-10),
        _check("strat-truncated-identity", strat_err, 1e-10),
        _check("strat-equals-ito-plus-trace", trace_err, 1e-14),
    ]
    return _wrap("integrals", checks)


def suite_sde() -> dict:
    basis = BasisFamily("cosine", 1.0)
    trunc = Truncation(8, 4)
    grid = np.linspace(0.0, 1.0, 65)
    checks = []
    for name, kernel in (
        ("brownian", brownian_kernel(1.0)),
        ("fbm-h075", fbm_kernel_spec(0.75, 1.0)),
    ):
        closed = solve_closed_form(kernel, basis, trunc, grid)
        picard = solve_picard(kernel, basis, trunc, grid)
        disc = float(np.max(np.abs(closed.coeffs - picard.coeffs)))
        checks.append(_check(f"closed-vs-picard-{name}", disc, 1e-11))
    # K = e^-(t - s) tabulated on 65 points: M~_k(t) = c_k (cos wt + w sin wt - e^-t) / (1 + w^2),
    # w = (k - 1) pi, c_1 = 1 and c_k = sqrt(2); the grid's own error, 2.1e-5 and 1.3e-5 measured
    lag = grid[:, None] - grid  # t - s
    kernel = grid_kernel(grid, grid, np.where(lag >= 0.0, np.exp(-np.maximum(lag, 0.0)), 0.0))
    times = grid[::2]
    closed = solve_closed_form(kernel, basis, Truncation(4, 3), times)
    picard = solve_picard(kernel, basis, Truncation(4, 3), times)
    checks.append(_check("closed-vs-picard-grid-exp", float(np.max(np.abs(closed.coeffs - picard.coeffs))), 5e-5))
    w = np.arange(4)[:, None] * math.pi
    exact = np.where(w > 0, math.sqrt(2.0), 1.0) * (np.cos(w * times) + w * np.sin(w * times) - np.exp(-times))
    mt_err = float(np.max(np.abs(closed.mtilde.T - exact / (1.0 + w**2))))
    checks.append(_check("mtilde-vs-exact-grid-exp", mt_err, 3e-5))
    for name, kernel, trunc in (
        ("brownian", brownian_kernel(1.0), Truncation(8, 8)),
        ("fbm-h075", fbm_kernel_spec(0.75, 1.0), Truncation(8, 4)),
    ):
        sol = solve_closed_form(kernel, basis, trunc, np.array([0.0, 1.0]))
        if name == "brownian":
            checks.append(_check("second-moment-vs-exp", abs(sol.second_moment(1.0) - math.e), 1e-3))
        # E u_N(1)^2 = sum_{n <= N} s^n / n!, s = sum_k M~_k(1)^2, holds to roundoff in the truncation
        s = float(np.sum(sol.mtilde[1] ** 2))
        identity = math.fsum(s**n / math.factorial(n) for n in range(trunc.max_order + 1))
        checks.append(_check(f"second-moment-truncated-identity-{name}", abs(sol.second_moment(1.0) - identity), 1e-13))
    return _wrap("sde", checks)


def fbm_covariance(hurst: float):
    """R(t, s) = (|t|^2H + |s|^2H - |t - s|^2H) / 2 as a callable: the fbm suite's analytic oracle."""

    def r(t, s):
        h2 = 2.0 * hurst
        return 0.5 * (np.abs(t) ** h2 + np.abs(s) ** h2 - np.abs(t - s) ** h2)

    return r


def suite_fbm() -> dict:
    checks = [
        _check("k1-analytic-h075", abs(fbm_kernel_spec(0.75, 1.0).k1_bound - 1.5), 1e-12),
        _check("k1-limit-near-half", abs(fbm_kernel_spec(0.501, 1.0).k1_bound - 1.0), 1e-2),
    ]
    for hurst in (0.6, 0.75, 0.9):
        kernel = fbm_kernel_spec(hurst, 1.0)
        # the sup over t of int_0^t K(T, s) K1(t, s) ds = d/dt R(T, t) is 2H (T/2)^(2H-1), at t = T/2;
        # k1_empirical is off by 1.0e-6 / 4.9e-6 / 7.2e-6 at these H
        exact = 2.0 * hurst * 0.5 ** (2.0 * hurst - 1.0)
        checks.append(_check(f"k1-empirical-h{hurst}", abs(k1_empirical(kernel) - exact), 1e-5))
        est = op_norm_estimate(kernel, 512)
        checks.append(_check(f"op-norm-h{hurst}", est, op_norm_bound(0.0, kernel.k1_bound)))
    est_b = op_norm_estimate(brownian_kernel(1.0), 512)
    checks.append(_check("op-norm-brownian", abs(est_b - 1.0), 1e-6))
    kernel = fbm_kernel_spec(0.7, 1.0)
    analytic = fbm_covariance(0.7)
    ts = np.linspace(0.2, 1.0, 5)
    cov_err = np.max(np.abs(covariance_from_kernel(kernel, ts[:, None], ts) - analytic(ts[:, None], ts)))
    checks.append(_check("covariance-vs-analytic-h07", cov_err, 2e-5))  # 1.17e-5 measured, off the diagonal
    for hurst in (0.51, 0.75, 0.95):
        # R(t, t) from the kernel's own series, relative to t^2H, at t = T = 1 and t = T = 3.7: 3.3e-16 at most measured
        analytic = fbm_covariance(hurst)
        rel_err = max(
            abs(covariance_from_kernel(fbm_kernel_spec(hurst, t), t, t) - analytic(t, t)) / t ** (2.0 * hurst)
            for t in (1.0, 3.7)
        )
        checks.append(_check(f"variance-vs-analytic-h{hurst}", rel_err, 1e-14))
    return _wrap("fbm", checks)


def suite_mc() -> dict:
    seed, n_samples = 20260824, 10000
    basis = BasisFamily("cosine", 1.0)
    kernel = brownian_kernel(1.0)
    checks = []

    # Stratonovich chaos result vs midpoint-rule oracle on truncated paths
    trunc = Truncation(16, 2)
    eta = brownian_path_integrand(trunc, basis)
    f_strat = strat_integral(eta)
    batch = sample_batch(seed, n_samples, 16)
    grid = np.linspace(0.0, 1.0, 513)
    paths = synthesize_paths(kernel, basis, trunc, batch, grid)
    strat_report = mc_compare(f_strat, discrete_strat_batch(paths, paths), batch)
    checks.append(_mc_check("strat-vs-midpoint-oracle", strat_report))

    # SDE solution samples vs the lognormal form exp(X - R/2)
    trunc = Truncation(8, 12)
    sol = solve_closed_form(kernel, basis, trunc, np.array([1.0]))
    batch = sample_batch(seed + 1, n_samples, 8)
    mt = sol.mtilde[0]
    oracle = np.exp(batch.z @ mt - 0.5 * float(np.sum(mt**2)))
    lognormal_report = _compare_values(sol.sample(1.0, batch.z), oracle, batch)
    checks.append(_mc_check("sde-sample-vs-lognormal", lognormal_report))
    return _wrap("mc", checks)


SUITES = {
    "algebra": suite_algebra,
    "integrals": suite_integrals,
    "sde": suite_sde,
    "fbm": suite_fbm,
    "mc": suite_mc,
}


def run_suite(name: str) -> dict:
    if name not in SUITES:
        raise ConfigurationError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}"
        )
    return SUITES[name]()
