"""The table-driven chaos operators against the dict-loop definitions.

The reference functions below are the per-(alpha, k) and per-(alpha, beta)
loops the operators were first written as.  The integrals and the Malliavin
derivative add the same terms in the same order, so they must agree bit for
bit; the Wick product sums each coefficient in another order and agrees to
rounding.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chaosfield.chaos import (
    ChaosExpansion,
    HValuedChaos,
    _dropped_mass,
    malliavin_derivative,
    wick_exp_first_chaos,
    wick_product,
)
from chaosfield.integrals import ito_integral, malliavin_trace, strat_integral, strat_via_trace
from chaosfield.multiindex import MultiIndex, Truncation, _tables, enumerate_multiindices, index_map

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
# zero or 0.01 <= |x| <= 2: products of a few coefficients stay far from underflow
COEFFS = st.one_of(st.just(0.0), st.floats(0.01, 2.0), st.floats(-2.0, -0.01))


# ---------------------------------------------------------------------------
# reference implementations


def ref_compositions(length, total):
    """All tuples of ``length`` non-negative ints summing to ``total``, first weight first."""
    if length == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in ref_compositions(length - 1, total - first):
            yield (first,) + rest


def ref_ito(eta):
    trunc = eta.trunc
    out = {}
    for i, alpha in enumerate(enumerate_multiindices(trunc)):
        row = eta.coeffs[i]
        for k in range(1, trunc.modes + 1):
            v = row[k - 1]
            if v == 0.0:
                continue
            gamma = alpha.add(MultiIndex.eps(k))
            out[gamma] = out.get(gamma, 0.0) + math.sqrt(dict(gamma.entries).get(k, 0)) * v
    return ChaosExpansion(
        Truncation(trunc.modes, trunc.max_order + 1), {a: c for a, c in out.items() if c != 0.0}
    )


def from_dense(values):
    """The multi-index of a dense sequence (alpha_1, alpha_2, ...)."""
    return MultiIndex(tuple((k + 1, int(a)) for k, a in enumerate(values) if a))


def dense(alpha, length):
    """The first ``length`` entries of alpha as a dense tuple."""
    out = [0] * length
    for k, a in alpha.entries:
        out[k - 1] = a
    return tuple(out)


def sub_eps(alpha, k):
    """alpha - eps_k, or None when alpha_k = 0."""
    if dict(alpha.entries).get(k, 0) == 0:
        return None
    values = list(dense(alpha, alpha.max_support))
    values[k - 1] -= 1
    return from_dense(values)


def factorial_log(alpha):
    """log(alpha!) = sum_k log(alpha_k!), added left to right."""
    total = 0.0
    for _, a in alpha.entries:
        total += math.lgamma(a + 1)
    return total


def ref_trace(eta):
    trunc = eta.trunc
    out = {}
    for i, alpha in enumerate(enumerate_multiindices(trunc)):
        row = eta.coeffs[i]
        for k, a in alpha.entries:
            v = row[k - 1]
            if v == 0.0:
                continue
            beta = sub_eps(alpha, k)
            out[beta] = out.get(beta, 0.0) + math.sqrt(a) * v
    return ChaosExpansion(trunc, {a: c for a, c in out.items() if c != 0.0})


def ref_strat(eta):
    trunc = eta.trunc
    out = {}
    for i, alpha in enumerate(enumerate_multiindices(trunc)):
        row = eta.coeffs[i]
        for k in range(1, trunc.modes + 1):
            v = row[k - 1]
            if v == 0.0:
                continue
            up = alpha.add(MultiIndex.eps(k))
            if trunc.contains(up):
                out[up] = out.get(up, 0.0) + math.sqrt(dict(up.entries).get(k, 0)) * v
            a = dict(alpha.entries).get(k, 0)
            if a >= 1:
                down = sub_eps(alpha, k)
                out[down] = out.get(down, 0.0) + math.sqrt(a) * v
    return ChaosExpansion(trunc, {a: c for a, c in out.items() if c != 0.0})


def ref_malliavin(f):
    trunc = f.trunc
    out = np.zeros((trunc.size(), trunc.modes))
    imap = index_map(trunc)
    for alpha, coef in f.coeffs.items():
        for k, a in alpha.entries:
            out[imap[sub_eps(alpha, k)], k - 1] += math.sqrt(a) * coef
    return out


def ref_wick(f, g):
    """Wick product and dropped squared mass."""
    n_max = f.trunc.max_order
    out, dropped = {}, {}
    for alpha, fa in f.coeffs.items():
        la = factorial_log(alpha)
        for beta, gb in g.coeffs.items():
            gamma = alpha.add(beta)
            factor = math.exp(0.5 * (factorial_log(gamma) - la - factorial_log(beta)))
            target = out if gamma.order() <= n_max else dropped
            target[gamma] = target.get(gamma, 0.0) + fa * gb * factor
    result = ChaosExpansion(f.trunc, {a: c for a, c in out.items() if c != 0.0})
    return result, sum(c * c for c in dropped.values())


# ---------------------------------------------------------------------------
# strategies


@st.composite
def truncations(draw):
    return Truncation(draw(st.integers(1, 4)), draw(st.integers(0, 4)))


@st.composite
def integrands(draw):
    trunc = draw(truncations())
    return HValuedChaos(trunc, draw(arrays(np.float64, (trunc.size(), trunc.modes), elements=COEFFS)))


def expansion(draw, trunc):
    vec = draw(arrays(np.float64, trunc.size(), elements=COEFFS))
    return ChaosExpansion(
        trunc, {a: float(v) for a, v in zip(enumerate_multiindices(trunc), vec) if v != 0.0}
    )


@st.composite
def expansions(draw, count):
    trunc = draw(truncations())
    return [expansion(draw, trunc) for _ in range(count)]


def max_abs_diff(f, g):
    return max((abs(f.get(a) - g.get(a)) for a in set(f.coeffs) | set(g.coeffs)), default=0.0)


def absolute(f):
    return ChaosExpansion(f.trunc, {a: abs(c) for a, c in f.coeffs.items()})


# ---------------------------------------------------------------------------
# the operators against their references


def test_enumeration_matches_reference():
    for modes in range(1, 6):
        for order in range(6):
            got = [dense(a, modes) for a in enumerate_multiindices(Truncation(modes, order))]
            assert got == [c for n in range(order + 1) for c in ref_compositions(modes, n)]


@SETTINGS
@given(integrands())
def test_integrals_bit_identical_to_reference(eta):
    for new, ref in ((ito_integral, ref_ito), (strat_integral, ref_strat), (malliavin_trace, ref_trace)):
        got, want = new(eta), ref(eta)
        assert got.trunc == want.trunc
        assert got.coeffs == want.coeffs


@SETTINGS
@given(expansions(1))
def test_malliavin_derivative_bit_identical_to_reference(fs):
    (f,) = fs
    assert np.array_equal(malliavin_derivative(f).coeffs, ref_malliavin(f))


@SETTINGS
@given(expansions(2))
def test_wick_product_matches_reference(fg):
    f, g = fg
    got, got_dropped = wick_product(f, g), _dropped_mass(_tables(f.trunc), f.vec, g.vec)
    want, want_dropped = ref_wick(f, g)
    scale, scale_dropped = ref_wick(absolute(f), absolute(g))
    assert max_abs_diff(got, want) <= 1e-13 * max(scale.coeffs.values(), default=0.0)
    assert abs(got_dropped - want_dropped) <= 1e-13 * scale_dropped


# ---------------------------------------------------------------------------
# identities


@SETTINGS
@given(integrands())
def test_strat_is_truncated_ito_plus_trace(eta):
    scale = float(np.max(np.abs(eta.coeffs), initial=0.0))
    assert max_abs_diff(strat_integral(eta), strat_via_trace(eta)) <= 1e-13 * scale


@SETTINGS
@given(expansions(2))
def test_wick_product_commutes(fg):
    f, g = fg
    scale = max(wick_product(absolute(f), absolute(g)).coeffs.values(), default=0.0)
    assert max_abs_diff(wick_product(f, g), wick_product(g, f)) <= 1e-13 * scale


@SETTINGS
@given(expansions(3))
def test_wick_product_associative_within_truncation(fgh):
    f, g, h = fgh
    a, b, c = (absolute(x) for x in fgh)
    scale = max(wick_product(wick_product(a, b), c).coeffs.values(), default=0.0)
    lhs = wick_product(wick_product(f, g), h)
    rhs = wick_product(f, wick_product(g, h))
    assert max_abs_diff(lhs, rhs) <= 1e-13 * scale


@SETTINGS
@given(truncations(), st.data())
def test_malliavin_derivative_of_wick_exponential(trunc, data):
    c = data.draw(arrays(np.float64, trunc.modes, elements=COEFFS))
    u = wick_exp_first_chaos(c, trunc)
    d = malliavin_derivative(u).coeffs
    # D exp(c.xi) = c exp(c.xi): D[beta, k] = c_k u_beta below the top order, zero on it
    for i, beta in enumerate(enumerate_multiindices(trunc)):
        if beta.order() < trunc.max_order:
            assert np.allclose(d[i], c * u.get(beta), rtol=1e-13, atol=0.0)
        else:
            assert not np.any(d[i])
