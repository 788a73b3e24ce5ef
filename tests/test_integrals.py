import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from chaosfield.basis import BasisFamily
from chaosfield.chaos import ChaosExpansion, HValuedChaos
from chaosfield.integrals import (
    admissibility_diagnostic,
    brownian_path_integrand,
    field_ito_integral,
    ito_integral,
    kernel_pairing_matrix,
    malliavin_trace,
    strat_integral,
    strat_via_trace,
)
from chaosfield.kernels import (
    brownian_kernel,
    covariance_from_kernel,
    fbm_kernel_spec,
    m_tilde,
)
from chaosfield import multiindex
from chaosfield.errors import ConfigurationError
from chaosfield.multiindex import MultiIndex, Truncation, index_map


def _deterministic(trunc, row):
    coeffs = np.zeros((trunc.size(), trunc.modes))
    coeffs[0] = row
    return HValuedChaos(trunc, coeffs)


def test_deterministic_integrand_first_chaos():
    trunc = Truncation(3, 2)
    eta = _deterministic(trunc, [1.0, -2.0, 0.5])
    out = ito_integral(eta)
    assert out.get(MultiIndex.eps(1)) == 1.0
    assert out.get(MultiIndex.eps(2)) == -2.0
    assert out.get(MultiIndex.eps(3)) == 0.5
    assert out.mean == 0.0
    # no difference between the two interpretations for deterministic eta
    strat = strat_integral(eta)
    assert all(strat.get(a) == out.get(a) for a in set(out.coeffs) | set(strat.coeffs))


def test_zero_integrand():
    trunc = Truncation(2, 2)
    eta = HValuedChaos(trunc, np.zeros((trunc.size(), trunc.modes)))
    assert ito_integral(eta).coeffs == {}
    assert strat_integral(eta).coeffs == {}


def test_linearity():
    trunc = Truncation(2, 2)
    rng = np.random.default_rng(3)
    a = HValuedChaos(trunc, rng.standard_normal((trunc.size(), 2)))
    b = HValuedChaos(trunc, rng.standard_normal((trunc.size(), 2)))
    combo = HValuedChaos(trunc, 2.0 * a.coeffs - 3.0 * b.coeffs)
    for transform in (ito_integral, strat_integral):
        lhs = transform(combo)
        rhs = transform(a).scale(2.0) + transform(b).scale(-3.0)
        err = max(abs(lhs.get(g) - rhs.get(g)) for g in set(lhs.coeffs) | set(rhs.coeffs))
        assert err < 1e-14


@pytest.mark.parametrize("kind", ["cosine", "legendre"])
def test_truncated_brownian_identities(kind):
    modes = 4
    basis = BasisFamily(kind, 1.0)
    trunc = Truncation(modes, 2)
    eta = brownian_path_integrand(trunc, basis)
    mt = np.array([basis.antideriv(k, 1.0) for k in range(1, modes + 1)])
    s_k = float(np.sum(mt**2))

    f = ito_integral(eta)
    # ito result is the second-chaos part of (W_K(1)^2 - s_K)/2
    for k in range(1, modes + 1):
        expected = mt[k - 1] ** 2 / math.sqrt(2.0)
        assert f.get(MultiIndex.single(k, 2)) == pytest.approx(expected, abs=1e-12)
        for j in range(1, k):
            expected = mt[j - 1] * mt[k - 1]
            assert f.get(MultiIndex.eps(j).add(MultiIndex.eps(k))) == pytest.approx(expected, abs=1e-12)
    assert f.norm_squared() == pytest.approx(s_k**2 / 2.0, abs=1e-12)

    g = strat_integral(eta)
    assert g.mean == pytest.approx(s_k / 2.0, abs=1e-12)


def test_strat_via_trace_matches_strat():
    trunc = Truncation(3, 3)
    rng = np.random.default_rng(11)
    eta = HValuedChaos(trunc, rng.standard_normal((trunc.size(), 3)))
    a = strat_integral(eta)
    b = strat_via_trace(eta)
    err = max(abs(a.get(g) - b.get(g)) for g in set(a.coeffs) | set(b.coeffs))
    assert err <= 1e-14


def test_trace_of_brownian_path():
    # trace of W_K is sum_k int_0^T M_k m_k = sum_k M_k(T)^2 / 2 = s_K / 2
    basis = BasisFamily("cosine", 1.0)
    trunc = Truncation(4, 2)
    eta = brownian_path_integrand(trunc, basis)
    mt = np.array([basis.antideriv(k, 1.0) for k in range(1, 5)])
    trace = malliavin_trace(eta)
    assert trace.get(MultiIndex.zero()) == pytest.approx(float(np.sum(mt**2)) / 2.0, abs=1e-12)


def test_field_ito_brownian_reduces_to_ito():
    basis = BasisFamily("cosine", 1.0)
    trunc = Truncation(3, 2)
    rng = np.random.default_rng(7)
    eta = HValuedChaos(trunc, rng.standard_normal((trunc.size(), 3)))
    a = field_ito_integral(eta, brownian_kernel(1.0), basis)
    b = ito_integral(eta)
    err = max(abs(a.get(g) - b.get(g)) for g in set(a.coeffs) | set(b.coeffs))
    assert err < 1e-12


def test_field_ito_indicator_variance_matches_covariance():
    # deterministic integrand chi_t projected on the basis: the integral is
    # X(t), whose variance is R(t, t) up to truncation
    modes = 16
    basis = BasisFamily("cosine", 1.0)
    trunc = Truncation(modes, 1)
    kernel = fbm_kernel_spec(0.75, 1.0)
    t = 0.6
    row = [basis.antideriv(j, t) for j in range(1, modes + 1)]
    eta = _deterministic(trunc, row)
    out = field_ito_integral(eta, kernel, basis)
    variance = out.norm_squared()
    truncated = sum(m_tilde(kernel, basis, k, t) ** 2 for k in range(1, modes + 1))
    assert variance == pytest.approx(truncated, abs=1e-3)
    # the truncated variance approaches R(t, t) from below as modes grow
    assert variance == pytest.approx(covariance_from_kernel(kernel, t, t), abs=1e-2)


@pytest.mark.parametrize("hurst", [0.6, 0.75, 0.9])
@pytest.mark.parametrize("kind", ["cosine", "legendre"])
def test_fbm_pairing_matrix_matches_a_160_node_gauss_jacobi_rule(kind, hurst):
    # C[j, k] = int_0^T t^gamma0 m_j(t) psi_k(t) dt with the weight t^gamma0 exact in the reference rule
    basis = BasisFamily(kind, 1.0)
    kernel = fbm_kernel_spec(hurst, 1.0)
    x, w = roots_jacobi(160, 0.0, kernel.gamma0)
    s, ws = (x + 1.0) / 2.0, w * 2.0 ** (-(kernel.gamma0 + 1.0))
    for modes in (4, 8, 16, 32):
        ks = np.arange(1, modes + 1)
        ref = (basis.eval(ks, s) * ws) @ kernel.psi(basis, ks, s).T
        np.testing.assert_allclose(kernel_pairing_matrix(kernel, basis, modes), ref, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "kernel, nodes", [(brownian_kernel(1.0), 128), (fbm_kernel_spec(0.7, 1.0), 96)], ids=["brownian", "fbm"]
)
def test_pairing_matrix_checks_its_node_table_against_the_budget(kernel, nodes, monkeypatch):
    # the (j, k, node) products of all modes at once are refused over the budget before they are built
    basis = BasisFamily("cosine", 1.0)
    monkeypatch.setattr(multiindex, "MAX_TABLE_ENTRIES", 4 * 4 * nodes)
    assert kernel_pairing_matrix(kernel, basis, 4).shape == (4, 4)
    monkeypatch.setattr(kernel, "psi", None)  # nothing of the table is computed
    with pytest.raises(ConfigurationError, match=f"the 5 x 5 field Ito pairing on {nodes} nodes"):
        kernel_pairing_matrix(kernel, basis, 5)


def test_admissibility_diagnostic():
    trunc = Truncation(2, 2)
    det = _deterministic(trunc, [1.0, 2.0])
    report = admissibility_diagnostic(det)
    assert report.weighted_mass == 0.0
    assert report.tail_ratio == 0.0

    # divergent-series example: coefficient 1/n at n*eps_1 paired with mode 1
    def weighted(n_max):
        trunc = Truncation(1, n_max)
        coeffs = np.zeros((trunc.size(), 1))
        imap = index_map(trunc)
        for n in range(1, n_max + 1):
            coeffs[imap[MultiIndex.single(1, n)], 0] = 1.0 / n
        return admissibility_diagnostic(HValuedChaos(trunc, coeffs)).weighted_mass

    # harmonic growth: sum n * (1/n)^2 increases without bound in N
    assert weighted(40) > weighted(10) + 1.0


def test_admissibility_of_brownian_path():
    basis = BasisFamily("cosine", 1.0)
    trunc = Truncation(4, 2)
    eta = brownian_path_integrand(trunc, basis)
    report = admissibility_diagnostic(eta)
    # each eps_k shell carries weight 1, so the sum is the squared mass of the
    # projected antiderivatives sum_k sum_j (M_k, m_j)^2
    expected = float(np.sum(eta.coeffs**2))
    assert report.weighted_mass == pytest.approx(expected, rel=1e-12)
    # which is dominated by (and close to) sum_k ||M_k||^2
    xs = np.linspace(0, 1, 4001)
    norms = sum(
        np.trapezoid(np.asarray(basis.antideriv(k, xs)) ** 2, xs) for k in range(1, 5)
    )
    assert report.weighted_mass <= norms
    assert report.weighted_mass == pytest.approx(norms, abs=1e-2)
