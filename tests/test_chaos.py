import json
import math

import numpy as np
import pytest

from chaosfield.chaos import (
    ChaosExpansion,
    HValuedChaos,
    _dropped_mass,
    chaos_eval,
    malliavin_derivative,
    truncate_expansion,
    wick_exp_first_chaos,
    wick_product,
)
from chaosfield.errors import ConfigurationError, DomainError
from chaosfield.hermite import hermite, hermite_table
from chaosfield.multiindex import MultiIndex, Truncation, _tables, index_map
from test_chaos_tables import from_dense


def test_constant_and_mean():
    trunc = Truncation(2, 2)
    f = ChaosExpansion.constant(trunc, 3.0)
    assert f.mean == 3.0
    assert f.norm_squared() == 9.0


def test_coeff_outside_truncation_rejected():
    trunc = Truncation(2, 1)
    with pytest.raises(ConfigurationError):
        ChaosExpansion(trunc, {from_dense([1, 1]): 1.0})


def test_arithmetic():
    trunc = Truncation(2, 2)
    f = ChaosExpansion(trunc, {MultiIndex.eps(1): 2.0})
    g = ChaosExpansion(trunc, {MultiIndex.eps(1): 1.0, MultiIndex.eps(2): -1.0})
    h = f + g.scale(2.0)
    assert h.get(MultiIndex.eps(1)) == 4.0
    assert h.get(MultiIndex.eps(2)) == -2.0
    assert (h - h).norm_squared() == 0.0
    with pytest.raises(ConfigurationError, match="truncation mismatch in addition"):
        f + ChaosExpansion.constant(Truncation(2, 3), 1.0)


@pytest.mark.parametrize("factor", [math.inf, -math.inf, math.nan])
def test_scale_rejects_a_non_finite_factor(factor):
    # inf * 0 would turn every zero coefficient into NaN
    with pytest.raises(DomainError, match="finite"):
        ChaosExpansion.constant(Truncation(2, 1), 1.0).scale(factor)


def test_dense_roundtrip():
    trunc = Truncation(2, 2)
    f = ChaosExpansion(trunc, {MultiIndex.eps(2): 1.5, MultiIndex.single(1, 2): -0.5})
    g = ChaosExpansion.from_dense(trunc, f.vec)
    assert g.coeffs == f.coeffs
    with pytest.raises(ConfigurationError, match=r"dense vector shape \(5,\), expected \(6,\)"):
        ChaosExpansion.from_dense(trunc, f.vec[:-1])


def test_json_roundtrip():
    trunc = Truncation(3, 2)
    f = ChaosExpansion(
        trunc, {MultiIndex.zero(): 1.0, MultiIndex.eps(1).add(MultiIndex.eps(3)): 0.25}
    )
    g = ChaosExpansion.from_dict(json.loads(json.dumps(f.to_dict())))
    assert g.trunc == trunc
    assert g.coeffs == f.coeffs


def test_wick_product_basis_rule():
    # xi_alpha wick xi_beta = sqrt((a+b)!/(a!b!)) xi_{alpha+beta}
    trunc = Truncation(1, 5)
    f = ChaosExpansion(trunc, {MultiIndex.single(1, 2): 1.0})
    g = ChaosExpansion(trunc, {MultiIndex.single(1, 3): 1.0})
    prod = wick_product(f, g)
    expected = math.sqrt(math.factorial(5) / (math.factorial(2) * math.factorial(3)))
    assert prod.get(MultiIndex.single(1, 5)) == pytest.approx(expected, rel=1e-14)


def test_wick_product_mean_multiplicative():
    # means multiply: the zero-index coefficient is the product of means
    trunc = Truncation(2, 2)
    f = ChaosExpansion(trunc, {MultiIndex.zero(): 2.0, MultiIndex.eps(1): 1.0})
    g = ChaosExpansion(trunc, {MultiIndex.zero(): -3.0, MultiIndex.eps(2): 0.5})
    assert wick_product(f, g).mean == pytest.approx(-6.0)
    with pytest.raises(ConfigurationError, match="shared truncation"):
        wick_product(f, ChaosExpansion.constant(Truncation(3, 2), 1.0))


def test_wick_product_dropped_mass():
    trunc = Truncation(1, 1)
    f = ChaosExpansion(trunc, {MultiIndex.eps(1): 1.0})
    prod, dropped = wick_product(f, f), _dropped_mass(_tables(trunc), f.vec, f.vec)
    # xi_1 wick xi_1 = sqrt(2) xi_{2 eps_1}, entirely outside order 1
    assert prod.coeffs == {}
    assert dropped == pytest.approx(2.0)


def test_wick_exponential_coefficients():
    trunc = Truncation(2, 3)
    c = np.array([0.5, -2.0])
    f = wick_exp_first_chaos(c, trunc)
    assert f.mean == 1.0
    alpha = from_dense([1, 2])
    expected = 0.5 * (-2.0) ** 2 / math.sqrt(math.factorial(1) * math.factorial(2))
    assert f.get(alpha) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ConfigurationError, match="coefficient vector must have length 2"):
        wick_exp_first_chaos(np.array([0.5, -2.0, 1.0]), trunc)


def test_wick_exp_is_exponential_under_wick_product():
    # e^{wick c.xi} wick e^{wick d.xi} = e^{wick (c+d).xi} up to truncation
    trunc = Truncation(2, 4)
    c = np.array([0.3, 0.1])
    d = np.array([-0.2, 0.4])
    lhs = wick_product(wick_exp_first_chaos(c, trunc), wick_exp_first_chaos(d, trunc))
    rhs = wick_exp_first_chaos(c + d, trunc)
    err = max(
        abs(lhs.get(a) - rhs.get(a)) for a in set(lhs.coeffs) | set(rhs.coeffs)
    )
    assert err < 1e-14


def test_xi_alpha_eval_hermite():
    z = np.array([1.3, -0.4])
    xi = ChaosExpansion(Truncation(2, 2), {MultiIndex.single(1, 2): 1.0})
    # H_2(z)/sqrt(2!) = (z^2 - 1)/sqrt(2)
    assert chaos_eval(xi, z) == pytest.approx((1.3**2 - 1) / math.sqrt(2))
    with pytest.raises(DomainError, match="shorter than the expansion support"):
        chaos_eval(ChaosExpansion(Truncation(5, 1), {MultiIndex.eps(5): 1.0}), z)


def test_chaos_eval_matches_sum():
    trunc = Truncation(2, 3)
    rng = np.random.default_rng(0)
    coeffs = {
        from_dense([2, 1]): 0.7,
        MultiIndex.eps(2): -1.2,
        MultiIndex.zero(): 0.3,
    }
    f = ChaosExpansion(trunc, coeffs)
    z = rng.standard_normal((5, 2))
    # xi_alpha(z) = prod_k H_{alpha_k}(z_k) / sqrt(alpha_k!)
    direct = sum(
        c * math.prod(hermite(n, z[:, k - 1]) / math.sqrt(math.factorial(n)) for k, n in a.entries)
        for a, c in coeffs.items()
    )
    assert chaos_eval(f, z) == pytest.approx(direct)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hvalued_rejects_nonfinite_coefficients(bad):
    arr = np.zeros((3, 2))
    arr[1, 0] = bad
    with pytest.raises(DomainError):
        HValuedChaos(Truncation(2, 1), arr)
    with pytest.raises(ConfigurationError, match=r"shape \(3, 3\), expected \(3, 2\)"):
        HValuedChaos(Truncation(2, 1), np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_wick_exp_rejects_nonfinite_coefficients(bad):
    with pytest.raises(DomainError):
        wick_exp_first_chaos(np.array([0.5, bad]), Truncation(2, 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_chaos_eval_rejects_nonfinite_samples(bad):
    f = ChaosExpansion(Truncation(2, 1), {MultiIndex.eps(1): 1.0})
    z = np.zeros((4, 2))
    z[2, 1] = bad
    with pytest.raises(DomainError):
        chaos_eval(f, z)
    with pytest.raises(DomainError):
        chaos_eval(f, z[2])


def test_malliavin_derivative_annihilates():
    trunc = Truncation(2, 3)
    f = ChaosExpansion(trunc, {from_dense([2, 1]): 1.0})
    d = malliavin_derivative(f)
    # D at beta = alpha - eps_k has weight sqrt(alpha_k)
    imap = index_map(d.trunc)
    assert d.coeffs[imap[from_dense([1, 1])], 0] == pytest.approx(math.sqrt(2))
    assert d.coeffs[imap[from_dense([2, 0])], 1] == pytest.approx(1.0)
    assert np.sum(d.coeffs**2) == pytest.approx(3.0)


def test_truncate_expansion():
    big = Truncation(2, 3)
    small = Truncation(2, 1)
    f = ChaosExpansion(big, {MultiIndex.zero(): 1.0, MultiIndex.single(1, 3): 2.0})
    g = truncate_expansion(f, small)
    assert g.trunc == small
    assert g.coeffs == {MultiIndex.zero(): 1.0}


def test_hvalued_json_roundtrip():
    trunc = Truncation(2, 1)
    arr = np.array([[0.0, 1.0], [2.0, 0.0], [0.0, -0.5]])
    eta = HValuedChaos(trunc, arr)
    eta2 = HValuedChaos.from_dict(eta.to_dict())
    assert np.array_equal(eta.coeffs, eta2.coeffs)
    assert np.sum(eta2.coeffs**2) == pytest.approx(1.0 + 4.0 + 0.25)


@pytest.mark.parametrize(
    "function, order", [(hermite, -1), (hermite, 2.5), (hermite_table, 2.5), (hermite_table, -2), (hermite, True)]
)
def test_hermite_refuses_an_order_that_is_not_a_non_negative_integer(function, order):
    # refused by name, not left to Python's TypeError or numpy's negative-dimension ValueError
    with pytest.raises(ConfigurationError, match="must be an integer >= 0"):
        function(order, np.linspace(-1.0, 1.0, 5))
    assert function(np.int64(2), 0.5) is not None
