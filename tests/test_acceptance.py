"""Acceptance gate: ten criteria, one printed pass/fail line each.

Each criterion prints `criterion NN <name>: PASS|FAIL` before asserting, so a
plain pytest -s run shows the full scoreboard.  Tolerances are pinned; do not
loosen them to make a criterion pass.
"""

import math
import time

import numpy as np

from chaosfield.basis import BasisFamily
from chaosfield.chaos import ChaosExpansion, chaos_eval
from chaosfield.hermite import hermite
from chaosfield.integrals import (
    brownian_path_integrand,
    ito_integral,
    malliavin_trace,
    strat_integral,
)
from chaosfield.kernels import (
    brownian_kernel,
    covariance_from_kernel,
    fbm_kernel_spec,
    k1_empirical,
    op_norm_bound,
    op_norm_estimate,
)
from chaosfield.mc import (
    discrete_ito_batch,
    discrete_strat_batch,
    mc_compare,
    sample_batch,
    synthesize_paths,
)
from chaosfield.multiindex import MultiIndex, Truncation
from chaosfield.sde import solve_closed_form, solve_picard
from chaosfield.verify import fbm_covariance, hermite_orthogonality_error, wick_hermite_error


def _report(number, name, ok):
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number:02d} {name} failed"


def _w_path_setup(kind="cosine", modes=16):
    basis = BasisFamily(kind, 1.0)
    trunc = Truncation(modes, 2)
    eta = brownian_path_integrand(trunc, basis)
    mt = np.array([basis.antideriv(k, 1.0) for k in range(1, modes + 1)])
    s_k = float(np.sum(mt**2))
    return basis, trunc, eta, mt, s_k


def _square_coeffs(mt, s_k, trunc, subtract_s=True):
    """Chaos coefficients of (W_K(T)^2 - s_K)/2 (or W_K(T)^2/2)."""
    coeffs = {}
    if not subtract_s:
        coeffs[MultiIndex.zero()] = s_k / 2.0
    modes = len(mt)
    for k in range(1, modes + 1):
        coeffs[MultiIndex.single(k, 2)] = mt[k - 1] ** 2 / math.sqrt(2.0)
        for j in range(1, k):
            coeffs[MultiIndex.eps(j).add(MultiIndex.eps(k))] = mt[j - 1] * mt[k - 1]
    return ChaosExpansion(Truncation(modes, 2), coeffs)


def _max_coeff_diff(a, b):
    keys = set(a.coeffs) | set(b.coeffs)
    return max((abs(a.get(g) - b.get(g)) for g in keys), default=0.0)


def test_criterion_01_hermite_orthogonality():
    start = time.time()
    err = hermite_orthogonality_error()
    elapsed = time.time() - start
    _report(1, "hermite-orthogonality", err <= 1e-8 and elapsed < 1.0)


def test_criterion_02_wick_identity():
    err = wick_hermite_error()
    _report(2, "wick-hermite-identity", err <= 1e-12)


def test_criterion_03_ito_identity_and_isometry():
    _, trunc, eta, mt, s_k = _w_path_setup(modes=16)
    f = ito_integral(eta)
    expected = _square_coeffs(mt, s_k, trunc, subtract_s=True)
    coeff_err = _max_coeff_diff(f, expected)
    isometry_err = abs(f.norm_squared() - s_k**2 / 2.0)
    _report(3, "truncated-ito-identity", coeff_err <= 1e-10 and isometry_err <= 1e-10)


def test_criterion_04_strat_identity_and_trace():
    _, trunc, eta, mt, s_k = _w_path_setup(modes=16)
    g = strat_integral(eta)
    expected = _square_coeffs(mt, s_k, trunc, subtract_s=False)
    coeff_err = _max_coeff_diff(g, expected)
    # strat = ito (restricted to the original truncation) + Malliavin trace
    f = ito_integral(eta)
    trace = malliavin_trace(eta)
    recon_err = max(
        abs(f.get(a) + trace.get(a) - g.get(a)) for a in set(g.coeffs) | set(trace.coeffs)
    )
    _report(4, "truncated-strat-identity", coeff_err <= 1e-10 and recon_err <= 1e-14)


def test_criterion_05_fbm_constant_bound():
    start = time.time()
    exact = abs(fbm_kernel_spec(0.75, 1.0).k1_bound - 1.5) <= 1e-12
    fbm_kernels = [fbm_kernel_spec(h, 1.0) for h in (0.6, 0.75, 0.9)]
    empirical_ok = all(k1_empirical(kernel) <= kernel.k1_bound + 1e-6 for kernel in fbm_kernels)
    limit_ok = abs(fbm_kernel_spec(0.5 + 1e-3, 1.0).k1_bound - 1.0) <= 1e-2
    elapsed = time.time() - start
    _report(5, "fbm-kernel-bound", exact and empirical_ok and limit_ok and elapsed < 10.0)


def test_criterion_06_operator_norm():
    bm = op_norm_estimate(brownian_kernel(1.0), 512)
    bm_ok = abs(bm - 1.0) <= 1e-6 and bm <= op_norm_bound(0.0, 1.0)
    kernel = fbm_kernel_spec(0.75, 1.0)
    est = op_norm_estimate(kernel, 512)
    fbm_ok = est <= op_norm_bound(0.0, kernel.k1_bound)
    _report(6, "operator-norm", bm_ok and fbm_ok)


def test_criterion_07_covariance_oracle():
    start = time.time()
    hurst = 0.7
    kernel = fbm_kernel_spec(hurst, 1.0)
    analytic = fbm_covariance(hurst)
    pts = np.linspace(0.2, 1.0, 5)
    err = max(
        abs(covariance_from_kernel(kernel, t, s) - analytic(t, s)) for t in pts for s in pts
    )
    elapsed = time.time() - start
    _report(7, "covariance-oracle", err <= 1e-4 and elapsed < 30.0)


def test_criterion_08_wick_sde():
    basis = BasisFamily("cosine", 1.0)
    grid = np.linspace(0.0, 1.0, 33)
    trunc = Truncation(8, 4)
    picard_ok = True
    for kernel in (brownian_kernel(1.0), fbm_kernel_spec(0.75, 1.0)):
        closed = solve_closed_form(kernel, basis, trunc, grid)
        picard = solve_picard(kernel, basis, trunc, grid)
        picard_ok &= float(np.max(np.abs(closed.coeffs - picard.coeffs))) <= 1e-11

    kernel = brownian_kernel(1.0)
    deep = solve_closed_form(kernel, basis, Truncation(8, 8), [1.0])
    second_ok = abs(deep.second_moment(1.0) - math.e) <= 1e-3

    # sampled solution vs the exact lognormal e^{X(T;Z) - R_K/2}
    batch = sample_batch(20260824, 10000, 8)
    mt = np.array([basis.antideriv(k, 1.0) for k in range(1, 9)])
    x_t = batch.z @ mt
    r_k = float(np.sum(mt**2))
    oracle = np.exp(x_t - r_k / 2.0)
    vals = deep.sample(1.0, batch.z)
    diffs = vals - oracle
    mean = float(np.mean(diffs))
    stderr = float(np.std(diffs, ddof=1) / math.sqrt(len(diffs)))
    mc_ok = abs(mean) <= 3.0 * stderr
    _report(8, "wick-sde", picard_ok and second_ok and mc_ok)


def _c9_setup():
    modes = 16
    basis = BasisFamily("cosine", 1.0)
    trunc = Truncation(modes, 2)
    eta = brownian_path_integrand(trunc, basis)
    kernel = brownian_kernel(1.0)
    batch = sample_batch(7, 10000, modes)
    grid = np.linspace(0.0, 1.0, 513)  # mesh 1/512
    paths = synthesize_paths(kernel, basis, trunc, batch, grid)
    return eta, batch, paths


def test_criterion_09a_mc_oracle_ito():
    # KNOWN RED.  The left-point sum on any path equals
    # W_K(T)^2/2 - (1/2) sum_i (Delta X_i)^2 exactly, and for mode-truncated
    # paths (smooth, finite variation) the quadratic-variation term is
    # E ~ K h = 16/512 = 1/32 at this mesh, not s_K = 1.  The discrete
    # left-point oracle therefore converges to the Stratonovich value, and its
    # mean difference from the chaos Ito result is about
    # -(s_K - K h)/2 = -0.4844, thousands of standard errors from zero.
    # Matching would require h -> 0 *and* K -> infinity jointly; at the pinned
    # mesh and truncation the criterion is unattainable, so this test records
    # the defect honestly rather than papering over it.
    eta, batch, paths = _c9_setup()
    f = ito_integral(eta)
    report = mc_compare(f, discrete_ito_batch(paths, paths), batch)
    _report(9, "mc-oracle-ito", report["pass"])


def test_criterion_09b_mc_oracle_strat():
    eta, batch, paths = _c9_setup()
    g = strat_integral(eta)
    report = mc_compare(g, discrete_strat_batch(paths, paths), batch)
    _report(9, "mc-oracle-strat", report["pass"])


def test_criterion_10_basis_independence():
    stats = {}
    for kind in ("cosine", "legendre"):
        _, trunc, eta, mt, s_k = _w_path_setup(kind, modes=16)
        f = ito_integral(eta)
        # pure second-chaos F = (xi' A xi - tr A)/... with A from coefficients;
        # E[F^3] = 8 tr(A^3)
        a = np.zeros((16, 16))
        for k in range(1, 17):
            a[k - 1, k - 1] = f.get(MultiIndex.single(k, 2)) / math.sqrt(2.0)
            for j in range(1, k):
                a[j - 1, k - 1] = a[k - 1, j - 1] = f.get(MultiIndex.eps(j).add(MultiIndex.eps(k))) / 2.0
        stats[kind] = (f.norm_squared(), 8.0 * float(np.trace(a @ a @ a)))
    norm_diff = abs(stats["cosine"][0] - stats["legendre"][0])
    third_diff = abs(stats["cosine"][1] - stats["legendre"][1])
    _report(10, "basis-independence", norm_diff <= 1e-6 and third_diff <= 1e-6)
