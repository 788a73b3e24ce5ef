"""ChaosExpansion stored as one read-only vector in enumeration order.

The MultiIndex mapping ``coeffs`` is a view of the vector's nonzeros, so
results do not depend on the order a dict was built in.  Also the Skorokhod
isometry of the Ito integral (Nualart, The Malliavin Calculus and Related
Topics, Prop. 1.3.1) and its bound by the order-weighted integrand norm.
"""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chaosfield.chaos import (
    ChaosExpansion,
    HValuedChaos,
    chaos_eval,
    truncate_expansion,
    wick_exp_first_chaos,
    wick_product,
)
from chaosfield.errors import DomainError
from chaosfield.integrals import ito_integral
from chaosfield.multiindex import MultiIndex, Truncation, _tables, enumerate_multiindices

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
COEFFS = st.floats(-2.0, 2.0)


@st.composite
def integrands(draw):
    trunc = Truncation(draw(st.integers(1, 4)), draw(st.integers(0, 4)))
    return HValuedChaos(trunc, draw(arrays(np.float64, (trunc.size(), trunc.modes), elements=COEFFS)))


def random_expansion(trunc, seed):
    rng = np.random.default_rng(seed)
    return ChaosExpansion.from_dense(trunc, rng.standard_normal(trunc.size()) * rng.uniform(0.1, 10.0, trunc.size()))


def test_shuffled_dict_gives_the_same_bits():
    trunc = Truncation(4, 3)
    z = np.random.default_rng(1).standard_normal((64, 4))
    for seed in range(20):
        ordered = dict(random_expansion(trunc, seed).coeffs)
        keys = list(ordered)
        np.random.default_rng(100 + seed).shuffle(keys)
        shuffled = ChaosExpansion(trunc, {a: ordered[a] for a in keys})
        f = ChaosExpansion(trunc, ordered)
        assert shuffled.norm_squared() == f.norm_squared()
        assert np.array_equal(chaos_eval(shuffled, z), chaos_eval(f, z))
        assert list(shuffled.coeffs) == keys_in_order(trunc, keys)


def keys_in_order(trunc, keys):
    return [a for a in enumerate_multiindices(trunc) if a in set(keys)]


@SETTINGS
@given(integrands())
def test_skorokhod_isometry(eta):
    # ||B(eta)||^2 = sum eta[alpha, k]^2 + sum_{beta, j, k} (D_j u_k)_beta (D_k u_j)_beta
    tables = _tables(eta.trunc)
    padded = np.vstack([eta.coeffs, np.zeros(eta.trunc.modes)])  # up = -1 reads the zero row
    # d[beta, j, k] = eta[beta + eps_j, k] * sqrt(beta_j + 1), the beta-coefficient of D_j u_k
    d = padded[tables.up] * np.sqrt(tables.exponents + 1)[:, :, None]
    cross = d * d.transpose(0, 2, 1)
    lhs = ito_integral(eta).norm_squared()
    rhs = float(np.sum(eta.coeffs**2)) + float(np.sum(cross))
    scale = float(np.sum(eta.coeffs**2)) + float(np.sum(np.abs(cross)))
    assert abs(lhs - rhs) <= 1e-13 * scale


@SETTINGS
@given(integrands())
def test_ito_norm_bounded_by_order_weighted_norm(eta):
    # ||B(eta)||^2 <= sum_alpha (|alpha| + 1) ||eta_alpha||^2
    orders = _tables(eta.trunc).orders
    bound = float(np.sum((orders + 1) * np.sum(eta.coeffs**2, axis=1)))
    assert ito_integral(eta).norm_squared() <= bound * (1 + 1e-13)
    # a deterministic integrand meets the bound
    deterministic = np.zeros_like(eta.coeffs)
    deterministic[0] = eta.coeffs[0]
    lhs = ito_integral(HValuedChaos(eta.trunc, deterministic)).norm_squared()
    assert abs(lhs - float(np.sum(eta.coeffs[0] ** 2))) <= 1e-13 * lhs


def test_deepcopy_and_pickle_round_trip():
    f = wick_exp_first_chaos(np.array([0.4, -1.1, 0.3]), Truncation(3, 3))
    view = dict(f.coeffs)  # the cached view must not stop either copy
    for g in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g == f and g.trunc == f.trunc
        assert np.array_equal(g.vec, f.vec) and not g.vec.flags.writeable
        assert list(g.coeffs.items()) == list(view.items())


def test_vector_and_view_are_read_only():
    trunc = Truncation(2, 2)
    source = np.arange(6.0)
    f = ChaosExpansion.from_dense(trunc, source)
    source[1] = 99.0  # from_dense keeps its own copy
    assert f.vec[1] == 1.0
    with pytest.raises(ValueError):
        f.vec[1] = 5.0
    with pytest.raises(TypeError):
        f.coeffs[MultiIndex.eps(1)] = 5.0
    with pytest.raises(AttributeError):
        f.vec = np.zeros(6)


def test_zeros_drop_out_of_the_view_and_nan_is_refused():
    trunc = Truncation(2, 2)
    f = ChaosExpansion(trunc, {MultiIndex.eps(1): 0.0, MultiIndex.eps(2): -0.5, MultiIndex.zero(): 1.0})
    assert list(f.coeffs) == [MultiIndex.zero(), MultiIndex.eps(2)]
    assert f.get(MultiIndex.eps(1)) == 0.0
    assert ChaosExpansion.constant(trunc, 0.0).coeffs == {}
    # a coefficient that is not finite is refused, by the dict constructor and by from_dense alike
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="chaos coefficients must be finite"):
            ChaosExpansion(trunc, {MultiIndex.eps(1): 0.0, MultiIndex.eps(2): bad})
        with pytest.raises(DomainError, match="chaos coefficients must be finite"):
            ChaosExpansion.from_dense(trunc, np.r_[1.0, bad, np.zeros(trunc.size() - 2)])


BIG = Truncation(2, 3)


@pytest.mark.parametrize(
    "overflow",
    [
        lambda: wick_exp_first_chaos([1e200, 0.0], BIG),  # c^2 / sqrt(2) = 7e399
        lambda: ChaosExpansion.constant(BIG, 1e300).scale(1e10),
        lambda: ChaosExpansion.constant(BIG, 1.5e308) + ChaosExpansion.constant(BIG, 1.5e308),
        lambda: wick_product(ChaosExpansion.constant(BIG, 1e200), ChaosExpansion.constant(BIG, 1e200)),
    ],
    ids=["wick-exp", "scale", "add", "wick-product"],
)
def test_an_overflowing_operation_is_refused_without_a_warning(overflow):
    # numpy's overflow is not the signal (the test config makes a RuntimeWarning an error): from_dense refuses inf
    with pytest.raises(DomainError, match="chaos coefficients must be finite, not inf"):
        overflow()


def test_truncate_expansion_to_fewer_modes_matches_dict_reference():
    big, small = Truncation(4, 3), Truncation(2, 2)
    f = random_expansion(big, 7)
    ref = {a: c for a, c in f.coeffs.items() if small.contains(a)}
    g = truncate_expansion(f, small)
    assert g.trunc == small
    assert g.coeffs == ref
    assert list(g.coeffs) == keys_in_order(small, ref)
    # and back up: terms outside the smaller truncation come back as zeros
    assert truncate_expansion(g, big).coeffs == ref
