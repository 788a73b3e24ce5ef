import math

import numpy as np
import pytest
from scipy.special import beta, roots_jacobi

from chaosfield.basis import (
    BasisFamily,
    DEFAULT_RULE,
    QuadratureRule,
    jacobi01,
    quad_singular,
    quad_singular_smooth,
)
from chaosfield.errors import ConfigurationError, DomainError


@pytest.mark.parametrize("kind", ["cosine", "legendre"])
@pytest.mark.parametrize("horizon", [1.0, 2.5])
def test_orthonormality(kind, horizon):
    basis = BasisFamily(kind, horizon)
    rule = QuadratureRule(panels=8, nodes=24)
    for j in range(1, 7):
        for k in range(1, 7):
            ip = rule.integrate(lambda t: basis.eval(j, t) * basis.eval(k, t), 0.0, horizon)
            assert ip == pytest.approx(1.0 if j == k else 0.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["cosine", "legendre"])
def test_antideriv_matches_quadrature(kind):
    basis = BasisFamily(kind, 1.0)
    rule = QuadratureRule(panels=8, nodes=24)
    for k in range(1, 6):
        for t in (0.0, 0.3, 1.0):
            quad = rule.integrate(lambda s: np.asarray(basis.eval(k, s)), 0.0, t)
            assert basis.antideriv(k, t) == pytest.approx(quad, abs=1e-13)


@pytest.mark.parametrize("kind", ["cosine", "legendre"])
def test_antideriv_vanishes_at_horizon_for_higher_modes(kind):
    # M_k(T) = 0 for k >= 2 since m_k is orthogonal to the constant mode
    basis = BasisFamily(kind, 1.0)
    assert basis.antideriv(1, 1.0) == pytest.approx(1.0)
    for k in range(2, 8):
        assert basis.antideriv(k, 1.0) == pytest.approx(0.0, abs=1e-14)


def _antideriv_one_mode(basis, k, t):
    # M_k(t) for one int mode, each closed form written out with Python-float factors
    big_t = basis.horizon
    t = np.clip(np.asarray(t, dtype=float), 0.0, big_t)
    if basis.kind == "cosine":
        if k == 1:
            return t / math.sqrt(big_t)
        freq = (k - 1) * math.pi / big_t
        return math.sqrt(2.0 / big_t) * np.sin(freq * t) / freq
    x = 2.0 * t / big_t - 1.0
    scale = math.sqrt((2 * k - 1) / big_t) * big_t / 2.0
    if k == 1:
        return scale * (x + 1.0)
    legval = np.polynomial.legendre.legval
    return scale * (legval(x, [0.0] * k + [1.0]) - legval(x, [0.0] * (k - 2) + [1.0])) / (2 * k - 1)


@pytest.mark.parametrize("kind", ["cosine", "legendre"])
@pytest.mark.parametrize("horizon", [1e-3, 1.0, 3.7])
def test_antideriv_rows_equal_one_mode_calls_bit_for_bit(kind, horizon):
    # one sin over the (mode, t) table, or two legval calls on identity columns, give each mode's own bits
    basis = BasisFamily(kind, horizon)
    ks = np.arange(1, 41)
    grid = np.linspace(0.0, horizon, 129)
    for t in (0.3 * horizon, grid, np.random.default_rng(7).uniform(0.0, horizon, (5, 7))):
        rows = basis.antideriv(ks, t)
        assert rows.shape == (40,) + np.shape(t)
        for k, row in zip(ks.tolist(), rows):
            one = np.asarray(basis.antideriv(k, t))
            assert row.tobytes() == one.tobytes() == np.asarray(_antideriv_one_mode(basis, k, t)).tobytes(), k
    assert isinstance(basis.antideriv(3, 0.3 * horizon), float)
    assert basis.antideriv(3, grid).shape == grid.shape


@pytest.mark.parametrize("kind", ["cosine", "legendre"])
@pytest.mark.parametrize("modes", [[3, 1, 2], (3, 1, 2), np.array([3, 1, 2])], ids=["list", "tuple", "ndarray"])
def test_antideriv_takes_a_sequence_of_modes(kind, modes):
    # like eval, one row per mode, in the order given; a sequence used to escape as TypeError or ValueError
    basis = BasisFamily(kind, 2.0)
    t = np.array([0.0, 0.5, 2.0])
    rows = basis.antideriv(modes, t)
    assert rows.shape == (3, 3)
    assert np.array_equal(rows, np.array([basis.antideriv(k, t) for k in (3, 1, 2)]))
    assert basis.antideriv(modes, 0.5).tolist() == [basis.antideriv(k, 0.5) for k in (3, 1, 2)]


def test_cosine_first_mode_constant():
    basis = BasisFamily("cosine", 4.0)
    assert basis.eval(1, 1.7) == pytest.approx(0.5)
    assert basis.antideriv(1, 4.0) == pytest.approx(2.0)


@pytest.mark.parametrize("kind", ["cosine", "legendre"])
@pytest.mark.parametrize("horizon", [1.0, 2.5])
def test_recurrence_rows_match_direct_evaluation(kind, horizon):
    # the three-term recurrence loses about k^2 eps against np.cos / legval, relative to sup |m_k|
    basis = BasisFamily(kind, horizon)
    t = np.linspace(0.0, horizon, 100_001)
    modes = np.arange(1, 65)
    rows = basis._rows(64, t)
    assert rows.shape == (64, len(t))
    direct = basis.eval(modes, t)
    sup = np.sqrt((2.0 if kind == "cosine" else 2 * modes - 1) / horizon)
    err = np.max(np.abs(rows - direct), axis=1)
    assert np.all(err <= 2.0 * modes**2 * np.finfo(float).eps * sup)
    assert rows[0].tobytes() == direct[0].tobytes()


@pytest.mark.parametrize("kind", ["cosine", "legendre"])
def test_recurrence_row_independent_of_top(kind):
    basis = BasisFamily(kind, 1.0)
    t = np.random.default_rng(4).uniform(0.0, 1.0, (7, 9))
    full = basis._rows(20, t)
    assert full.shape == (20, 7, 9)
    for top in range(1, 20):
        assert basis._rows(top, t).tobytes() == full[:top].tobytes(), top


@pytest.mark.parametrize("horizon", [1.0, 2.5])
def test_recurrence_keeps_the_bits_of_cosine_mode_two(horizon):
    basis = BasisFamily("cosine", horizon)
    t = np.linspace(0.0, horizon, 1001)
    assert basis._rows(8, t)[1].tobytes() == basis.eval(2, t).tobytes()
    assert basis._rows(2, t)[1].tobytes() == basis.eval([1, 2], t)[1].tobytes()
    with pytest.raises(DomainError):
        basis._rows(3, np.array([0.5, horizon + 0.1]))


@pytest.mark.parametrize("panels, nodes", [(0, 16), (2.5, 16), (8, 0), (8, True), (-1, 4)])
def test_quadrature_rule_refuses_a_count_that_is_not_an_integer_of_at_least_one(panels, nodes):
    # QuadratureRule(0, 16) integrated everything to 0.0 with numpy's divide warnings; 2.5 panels were accepted
    with pytest.raises(ConfigurationError, match="must be an integer >= 1"):
        QuadratureRule(panels, nodes)


def test_domain_checks():
    basis = BasisFamily("cosine", 1.0)
    with pytest.raises(DomainError):
        basis.eval(0, 0.5)
    with pytest.raises(DomainError):
        basis.eval(1, 1.5)
    for bad in (math.nan, math.inf, np.array([0.5, math.nan])):
        with pytest.raises(DomainError):
            basis.eval(1, bad)
        with pytest.raises(DomainError):
            basis.antideriv(2, bad)
    with pytest.raises(DomainError):
        BasisFamily("fourier", 1.0)


@pytest.mark.parametrize("horizon", [1e-15, 1e15])
def test_time_slack_scales_with_the_horizon(horizon):
    # an absolute 1e-12 slack let BasisFamily("cosine", 1e-15) take t = 100 T, clipped to T
    basis = BasisFamily("cosine", horizon)
    for t in (100.0 * horizon, -0.1 * horizon):
        with pytest.raises(DomainError):
            basis.eval(2, t)
        with pytest.raises(DomainError):
            basis.antideriv(1, t)
    t = horizon * (1.0 + 1e-13)
    assert basis.eval(2, t) == basis.eval(2, horizon)
    assert basis.antideriv(1, t) == basis.antideriv(1, horizon)


@pytest.mark.parametrize("kind", ["cosine", "legendre"])
@pytest.mark.parametrize("mode", [1.5, 2.0, True, np.float64(3.0), [1, 2.5]], ids=repr)
def test_non_integer_mode_refused(kind, mode):
    # a float mode was read as its integer part (cosine 1.5 as mode 1) or, for Legendre, raised TypeError
    basis = BasisFamily(kind, 1.0)
    t = np.array([0.2, 0.5])
    with pytest.raises(DomainError, match="integer"):
        basis.eval(mode, t)
    with pytest.raises(DomainError, match="integer"):
        basis._rows(mode, t)
    with pytest.raises(DomainError, match="integer"):
        basis.antideriv(mode, t)
    # integer types of any width stay valid
    assert basis.eval(np.int32(2), 0.5) == basis.eval(2, 0.5)
    assert basis.antideriv(np.int64(3), 0.5) == basis.antideriv(3, 0.5)


def test_quadrature_polynomial_exact():
    rule = QuadratureRule(panels=2, nodes=4)
    val = rule.integrate(lambda t: 3.0 * t**2, 0.0, 2.0)
    assert val == pytest.approx(8.0, rel=1e-14)


def _library_rules(hurst):
    """(n, a, b) of each jacobi01 rule the library builds for Hurst index H."""
    return [
        (48, hurst - 1.5, 0.5 - hurst),  # psi's Beta weight: a + b = -1 up to rounding
        (48, 0.0, hurst - 0.5),  # the outer rule of M~'s weight
        (96, 0.0, 0.5 - hurst),  # quad_singular_smooth at the origin exponent
        (96, 0.0, 1.0 - 2.0 * hurst),  # the covariance
        (96, 0.0, hurst - 0.5),  # the pairing matrix C
        (72, hurst - 1.5, 1.0 - 2.0 * hurst),  # k1_empirical
    ]


JACOBI_RULES = [
    rule
    for hurst in (0.51, 0.6, 0.75, 0.9, 0.999)
    # the Picard tests' exact-weight oracle, and v^(H - 3/2), a weight singular at 0 like K1's (t - s)^(H - 3/2)
    for rule in _library_rules(hurst) + [(32, 0.0, hurst - 0.5), (48, 0.0, hurst - 1.5)]
] + [
    (48, -0.25, -0.75),  # a + b = -1 exactly, where the textbook k = 1 off-diagonal entry is 0/0
    (48, 0.3, -0.3),  # a + b = 0, where the textbook k = 0 diagonal entry is 0/0
    (1, 0.0, 0.1),
    (1, -0.4, -0.6),
    (2, 0.0, 0.1),
    (2, -0.4, -0.6),
]


@pytest.mark.parametrize("n, a, b", JACOBI_RULES)
def test_jacobi01_integrates_the_weights_moments(n, a, b):
    # sum w v^m = B(b + m + 1, a + 1) for m < 2n, each moment the last times (b + m) / (a + b + m + 1)
    v, w = jacobi01(n, a, b)
    m = np.arange(1, 2 * n)
    exact = beta(b + 1.0, a + 1.0) * np.cumprod(np.r_[1.0, (b + m) / (a + b + m + 1.0)])
    got = np.array([np.dot(w, v**k) for k in range(2 * n)])
    assert np.max(np.abs(got / exact - 1.0)) <= 1e-13


@pytest.mark.parametrize("n, a, b", JACOBI_RULES)
def test_jacobi01_nodes_match_scipy(n, a, b):
    with np.errstate(invalid="ignore"):  # scipy's own recurrence is 0/0 at a + b = -1
        x, _ = roots_jacobi(n, a, b)
    assert np.max(np.abs(jacobi01(n, a, b)[0] - (x + 1.0) / 2.0)) <= 1e-14


def test_quad_singular_beta_integral():
    # int_0^1 t^(-1/2) (1-t) dt = B(1/2, 2) = 4/3
    val = quad_singular(lambda t: t ** (-0.5) * (1 - t), 0.0, 1.0, -0.5)
    assert val == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_quad_singular_smooth_agrees():
    # same Beta integral with the singular factor handled analytically
    val = quad_singular_smooth(lambda t: 1 - t, 0.0, 1.0, -0.5)
    assert val == pytest.approx(4.0 / 3.0, rel=1e-13)
    val = quad_singular_smooth(lambda t: 1 - t, 0.0, 1.0, -0.3)
    expected = math.gamma(2) * math.gamma(0.7) / math.gamma(2.7)
    assert val == pytest.approx(expected, rel=1e-13)


def test_quad_singular_smooth_shifted_endpoint():
    # strong singularity at a = 2: absorption of a + u^p must not break it
    # int_2^3 (t-2)^(-0.9) dt = 10
    val = quad_singular_smooth(lambda t: np.ones_like(t), 2.0, 3.0, -0.9)
    assert val == pytest.approx(10.0, rel=1e-12)


def test_quad_singular_rejects_nonintegrable():
    with pytest.raises(DomainError):
        quad_singular(lambda t: t, 0.0, 1.0, -1.0)


@pytest.mark.parametrize("quad", [quad_singular, quad_singular_smooth], ids=lambda f: f.__name__)
@pytest.mark.parametrize("gamma", [math.nan, math.inf, -1.0])
def test_quad_singular_refuses_an_exponent_that_is_not_finite_and_above_minus_one(quad, gamma):
    # a NaN or infinite exponent would build a Gauss-Jacobi rule of NaNs and return NaN without a word
    with pytest.raises(DomainError, match="exponent"):
        quad(lambda t: np.ones_like(t), 0.0, 1.0, gamma)


@pytest.mark.parametrize(
    "quad",
    [
        lambda f, a, b: DEFAULT_RULE.integrate(f, a, b),
        lambda f, a, b: quad_singular(f, a, b, -0.5),
        lambda f, a, b: quad_singular_smooth(f, a, b, -0.5),
        lambda f, a, b: quad_singular_smooth(f, a, b, 0.0),
    ],
    ids=["rule", "quad_singular", "quad_singular_smooth", "quad_singular_smooth-exponent-0"],
)
@pytest.mark.parametrize(
    "a, b",
    [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 1.0), (np.array([0.0, math.nan]), 1.0)],
    ids=["nan-lower", "nan-upper", "inf-upper", "inf-lower", "nan-row"],
)
def test_quadratures_refuse_an_endpoint_that_is_not_finite(quad, a, b):
    # a NaN endpoint read as an empty interval and gave 0.0; an infinite one gave NaN with numpy warnings
    with pytest.raises(DomainError, match="endpoint must be finite"):
        quad(lambda t: np.ones_like(t), a, b)


@pytest.mark.parametrize(
    "quad",
    [quad_singular, quad_singular_smooth],
    ids=["quad_singular-lower", "quad_singular_smooth-lower"],
)
def test_exponent_zero_is_the_plain_rule(quad):
    # exponent 0 means no singularity: the default composite rule itself, bit for bit
    f = lambda t: np.exp(-np.asarray(t)) * np.cos(5.0 * np.asarray(t))  # noqa: E731
    for a, b in ((0.0, 1.0), (0.3, 2.2)):
        assert quad(f, a, b, 0.0) == DEFAULT_RULE.integrate(f, a, b)


@pytest.mark.parametrize("horizon", [math.nan, math.inf])
def test_non_finite_horizon_rejected(horizon):
    with pytest.raises(DomainError, match="finite"):
        BasisFamily("cosine", horizon)
