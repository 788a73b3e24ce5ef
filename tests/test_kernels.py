import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_jacobi

from chaosfield.basis import BasisFamily, _on_live_rows, jacobi01, quad_singular_smooth
from chaosfield.errors import ConfigurationError, DomainError, InvalidCovarianceError
from chaosfield.kernels import (
    KernelSpec,
    brownian_covariance,
    brownian_kernel,
    covariance_from_kernel,
    fbm_c_h,
    fbm_covariance,
    fbm_k1,
    fbm_kernel,
    fbm_kernel_dt,
    fbm_kernel_spec,
    grid_kernel_from_csv,
    hr_gram,
    k1_empirical,
    k_mk,
    discretize_kstar,
    m_tilde,
    op_norm_bound,
    op_norm_estimate,
)
from chaosfield.multiindex import Truncation
from chaosfield.sde import solve_picard


def test_fbm_c_h_value():
    hurst = 0.75
    expected = math.sqrt(
        2 * hurst * math.gamma(1.5 - hurst) / (math.gamma(hurst + 0.5) * math.gamma(2 - 2 * hurst))
    )
    assert fbm_c_h(hurst) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(DomainError):
        fbm_c_h(0.4)


@pytest.mark.parametrize("hurst", [0.6, 0.75, 0.9])
def test_fbm_kernel_against_adaptive_quadrature(hurst):
    c = fbm_c_h(hurst) * (hurst - 0.5)
    for t, s in ((0.8, 0.3), (1.0, 0.05), (0.5, 0.45)):
        ref, _ = quad(
            lambda tau: (tau - s) ** (hurst - 1.5) * tau ** (hurst - 0.5),
            s,
            t,
            points=[s],
            limit=200,
        )
        expected = c * s ** (0.5 - hurst) * ref
        assert fbm_kernel(hurst, t, s) == pytest.approx(expected, rel=1e-9)


def test_fbm_kernel_dt_matches_finite_difference():
    hurst, t, s = 0.75, 0.7, 0.2
    h = 1e-6
    fd = (fbm_kernel(hurst, t + h, s) - fbm_kernel(hurst, t - h, s)) / (2 * h)
    assert fbm_kernel_dt(hurst, t, s) == pytest.approx(fd, rel=1e-6)


def test_fbm_k1_values():
    assert fbm_k1(0.75, 1.0) == pytest.approx(1.5, rel=1e-14)
    assert fbm_k1(0.75, 4.0) == pytest.approx(3.0, rel=1e-14)
    assert fbm_k1(0.501, 1.0) == pytest.approx(1.0, abs=1e-2)


def test_k1_empirical_below_analytic_bound():
    kernel = fbm_kernel_spec(0.75, 1.0)
    emp = k1_empirical(kernel)
    assert emp <= fbm_k1(0.75, 1.0) + 1e-6


def test_k1_empirical_raises_without_convergence():
    kernel = fbm_kernel_spec(0.75, 1.0)
    # no two grids agree to a zero tolerance
    with pytest.raises(DomainError, match="did not converge"):
        k1_empirical(kernel, t_grid=32, refine_tol=0.0, max_refinements=1)
    assert k1_empirical(kernel, t_grid=32, max_refinements=1) <= fbm_k1(0.75, 1.0) + 1e-6


def test_fbm_psi_matches_generic_factorisation():
    kernel = fbm_kernel_spec(0.75, 1.0)
    basis = BasisFamily("cosine", 1.0)
    # the same spec without its own factorisation: psi = K m_k by quadrature of dt_eval and dt_smooth
    generic = KernelSpec(**{**kernel.__dict__, "gamma0": 0.0, "psi": None, "mtilde": None, "kstar": None})
    s, ks = np.array([0.3, 0.8]), (1, 3)
    exact = s**kernel.gamma0 * kernel.psi(basis, ks, s)
    assert exact == pytest.approx(generic.psi(basis, ks, s), rel=1e-7, abs=1e-8)
    for k in ks:
        for x in s:
            assert k_mk(kernel, basis, k, x) == pytest.approx(k_mk(generic, basis, k, x), rel=1e-7, abs=1e-8)


def test_fbm_mtilde_first_mode_analytic():
    # int_0^T K(T,s) ds has a closed Beta-function form by Fubini
    hurst, big_t = 0.75, 1.0
    kernel = fbm_kernel_spec(hurst, big_t)
    basis = BasisFamily("cosine", big_t)
    b = math.gamma(1.5 - hurst) * math.gamma(hurst - 0.5) / math.gamma(1.0)
    expected = (
        fbm_c_h(hurst) * (hurst - 0.5) * b * big_t**hurst / (hurst + 0.5)
    )
    assert m_tilde(kernel, basis, 1, big_t) == pytest.approx(expected, rel=1e-12)


def test_covariance_from_kernel():
    assert covariance_from_kernel(brownian_kernel(1.0), 0.4, 0.9) == pytest.approx(0.4)
    kernel = fbm_kernel_spec(0.7, 1.0)
    analytic = fbm_covariance(0.7)
    assert covariance_from_kernel(kernel, 0.8, 0.5) == pytest.approx(
        analytic(0.8, 0.5), abs=1e-4
    )


@pytest.mark.parametrize("hurst", [0.6, 0.75, 0.9, 0.99, 0.995, 0.999])
def test_fbm_covariance_from_kernel_up_to_hurst_near_one(hurst):
    # the weight tau^(1 - 2H) is exact in the Gauss-Jacobi rule, so no node reaches tau = 0 as H -> 1
    kernel, analytic = fbm_kernel_spec(hurst, 1.0), fbm_covariance(hurst)
    for t in (0.25, 0.5, 1.0):
        for s in (0.25, 0.5, 1.0):
            assert covariance_from_kernel(kernel, t, s) == pytest.approx(analytic(t, s), abs=1e-4)


@pytest.mark.parametrize("kernel", [brownian_kernel(1.0), fbm_kernel_spec(0.7, 1.0)], ids=["brownian", "fbm"])
def test_covariance_from_kernel_refuses_non_finite_times(kernel):
    for t, s in ((math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5), (0.5, -math.inf), (np.array([0.5, math.nan]), 0.5)):
        with pytest.raises(DomainError, match="finite"):
            covariance_from_kernel(kernel, t, s)
    # the documented 0 where min(t, s) <= 0 stays
    assert covariance_from_kernel(kernel, 0.0, 0.5) == 0.0
    assert covariance_from_kernel(kernel, -1.0, 0.5) == 0.0


def test_fbm_kernel_and_its_derivative_refuse_nan_and_inf():
    for t, s in ((math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5), (np.array([1.0, math.nan]), 0.5)):
        with pytest.raises(DomainError):
            fbm_kernel(0.7, t, s)
        with pytest.raises(DomainError):
            fbm_kernel_dt(0.7, t, s)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
def test_kernel_spec_refuses_a_horizon_that_is_not_positive_and_finite(horizon):
    with pytest.raises(DomainError, match="horizon"):
        fbm_kernel_spec(0.7, horizon)
    with pytest.raises(DomainError, match="horizon"):
        brownian_kernel(horizon)


@pytest.mark.parametrize("n_grid", [0, -3])
def test_op_norm_estimate_refuses_a_grid_below_one(n_grid):
    with pytest.raises(ConfigurationError, match="n_grid"):
        op_norm_estimate(brownian_kernel(1.0), n_grid)


def test_op_norm_bound():
    assert op_norm_bound(0.0, 1.5) == pytest.approx(math.sqrt(1.5))
    assert op_norm_bound(1.0, 1.5) == pytest.approx(math.sqrt(5.0))
    with pytest.raises(DomainError):
        op_norm_bound(-1.0, 0.0)


def test_op_norm_estimates():
    assert op_norm_estimate(brownian_kernel(1.0), 128) == pytest.approx(1.0, abs=1e-6)
    kernel = fbm_kernel_spec(0.75, 1.0)
    est = op_norm_estimate(kernel, 128)
    assert est <= op_norm_bound(0.0, fbm_k1(0.75, 1.0))
    # 4473^2 entries are over the table budget: refused before the matrix is allocated
    with pytest.raises(ConfigurationError, match="K\\* matrix"):
        op_norm_estimate(kernel, 4473)


def ref_op_norm_estimate(kernel, n_grid=512, max_iter=5000):
    """The power iteration as first written: two products by A^T A per iteration."""
    a = discretize_kstar(kernel, n_grid)
    b = a.T @ a
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(n_grid)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = b @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v_new = w / nw
        lam_new = float(v_new @ (b @ v_new))
        if abs(lam_new - lam) <= 1e-8 * lam_new:
            return math.sqrt(max(lam_new, 0.0))
        lam, v = lam_new, v_new
    raise DomainError("power iteration did not converge")


@pytest.mark.parametrize("horizon", [0.7, 1.0, 2.5])
def test_op_norm_estimate_bit_equal_to_two_product_loop(horizon):
    kernels = [brownian_kernel(horizon)] + [fbm_kernel_spec(h, horizon) for h in (0.55, 0.63, 0.75, 0.9, 0.95)]
    for kernel in kernels:
        for n_grid in (128, 256):
            assert op_norm_estimate(kernel, n_grid) == ref_op_norm_estimate(kernel, n_grid)


@pytest.mark.parametrize("horizon", [1e250, 1e300])
def test_discretize_kstar_refuses_an_overflowing_matrix_by_name(horizon):
    # the offset powers overflow to inf, and inf * 0 is nan; no numpy warning escapes
    kernel = fbm_kernel_spec(0.75, horizon)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="K\\* matrix is not finite"):
            discretize_kstar(kernel, 512)
        with pytest.raises(DomainError, match="K\\* matrix is not finite"):
            op_norm_estimate(kernel, 512)


def test_op_norm_estimate_refuses_at_the_first_non_finite_iterate():
    # a finite K* whose A^T A overflows: one iteration is enough to see it, so max_iter = 1 names the overflow
    huge = replace(brownian_kernel(1.0), kstar=lambda horizon, n: np.full((n, n), 1e160))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            op_norm_estimate(huge, 16, max_iter=1)
        # an iterate norm that overflows (|w|^2 past the float range) read as 0.0 before
        with pytest.raises(DomainError, match="overflows: iterate norm inf"):
            op_norm_estimate(fbm_kernel_spec(0.99, 1e200), 64)


@pytest.mark.parametrize("hurst", [0.75, 0.9])
def test_op_norm_estimate_matches_the_largest_singular_value_on_short_horizons(hurst):
    # the stopping test is relative, so a short horizon's small norm is not cut short: 2.4e-10 (H 0.75)
    # and 5.7e-11 (H 0.9) were measured at every horizon, where an absolute test left 1.0e-4 and 0.30 at 1e-12
    for horizon in (1.0, 1e-4, 1e-8, 1e-12):
        kernel = fbm_kernel_spec(hurst, horizon)
        svd = np.linalg.norm(discretize_kstar(kernel, 128), 2)
        assert op_norm_estimate(kernel, 128) == pytest.approx(svd, rel=1e-9, abs=0.0), horizon


def test_op_norm_estimate_raises_without_convergence():
    # one power step compares against the starting value 0, so it cannot meet tol
    for kernel in (brownian_kernel(1.0), fbm_kernel_spec(0.75, 1.0)):
        with pytest.raises(DomainError, match="power iteration"):
            op_norm_estimate(kernel, 64, max_iter=1)


def test_hr_gram():
    g = hr_gram(brownian_covariance(), [0.25, 0.5, 1.0])
    assert g[0, 2] == 0.25
    assert np.all(np.linalg.eigvalsh(g) >= -1e-12)
    bad = lambda t, s: np.where(t != s, -1.0, 0.0)  # noqa: E731
    with pytest.raises(InvalidCovarianceError):
        hr_gram(bad, [0.0, 1.0])


def test_grid_kernel_from_csv(tmp_path):
    # tabulate the Brownian indicator kernel on a grid
    grid = np.linspace(0.0, 1.0, 21)
    path = tmp_path / "kernel.csv"
    with open(path, "w") as fh:
        fh.write("t_s," + ",".join(repr(float(s)) for s in grid) + "\n")
        for t in grid:
            vals = [1.0 if s <= t else 0.0 for s in grid]
            fh.write(repr(float(t)) + "," + ",".join(repr(v) for v in vals) + "\n")
    kernel = grid_kernel_from_csv(path)
    assert kernel.adapted
    assert kernel.eval(0.85, 0.3) == pytest.approx(1.0)
    assert kernel.eval(0.3, 0.85) == 0.0
    assert kernel.diag_limit(0.5) == pytest.approx(1.0)
    # every shipped kernel's diag_limit and dt_eval return arrays of the broadcast shape
    s, t = np.array([0.2, 0.3, 0.5]), np.array([[0.6], [1.0]])
    for spec in (brownian_kernel(1.0), fbm_kernel_spec(0.7, 1.0), kernel):
        assert isinstance(spec.diag_limit(s), np.ndarray) and spec.diag_limit(s).shape == (3,)
        assert isinstance(spec.dt_eval(t, s), np.ndarray) and spec.dt_eval(t, s).shape == (2, 3)


def _grid_csv(tmp_path, text):
    path = tmp_path / "kernel.csv"
    path.write_text(text)
    return path


# a well-formed adapted table, which each case below breaks in one way
GOOD_GRID = "t_s,0.0,0.5,1.0\n0.0,1,0,0\n0.5,1,1,0\n1.0,1,1,1\n"


def test_grid_kernel_refuses_an_empty_file(tmp_path):
    # rows[0] raised IndexError
    with pytest.raises(ConfigurationError, match="empty"):
        grid_kernel_from_csv(_grid_csv(tmp_path, "\n\n"))


def test_grid_kernel_refuses_a_ragged_row(tmp_path):
    with pytest.raises(ConfigurationError, match="cells"):
        grid_kernel_from_csv(_grid_csv(tmp_path, GOOD_GRID.replace("0.5,1,1,0", "0.5,1,1")))


def test_grid_kernel_refuses_a_cell_that_is_not_a_number(tmp_path):
    with pytest.raises(ConfigurationError, match="could not convert"):
        grid_kernel_from_csv(_grid_csv(tmp_path, GOOD_GRID.replace("0.5,1,1,0", "0.5,1,one,0")))


@pytest.mark.parametrize("text", ["t_s,0.0\n0.0,1\n", "t_s,0.0,1.0\n1.0,1,1\n"], ids=["one-s-point", "one-t-point"])
def test_grid_kernel_refuses_fewer_than_two_grid_points(tmp_path, text):
    # np.min of an empty np.diff raised a zero-size error
    with pytest.raises(ConfigurationError, match="at least two"):
        grid_kernel_from_csv(_grid_csv(tmp_path, text))


@pytest.mark.parametrize(
    "old, new", [("\n1.0,1,1,1", "\n0.5,1,1,1"), ("t_s,0.0,0.5,1.0", "t_s,0.0,1.0,0.5")], ids=["t-repeats", "s-decreases"]
)
def test_grid_kernel_refuses_a_grid_that_does_not_increase(tmp_path, old, new):
    # scipy's interpolator raised ValueError
    with pytest.raises(ConfigurationError, match="increasing"):
        grid_kernel_from_csv(_grid_csv(tmp_path, GOOD_GRID.replace(old, new)))


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_grid_kernel_refuses_a_value_that_is_not_finite(tmp_path, cell):
    # a NaN cell was accepted, and K read NaN around it
    with pytest.raises(ConfigurationError, match="finite"):
        grid_kernel_from_csv(_grid_csv(tmp_path, GOOD_GRID.replace("0.5,1,1,0", f"0.5,1,{cell},0")))


def test_replace_rederives_the_derived_pieces():
    # K(t, s) = a (1 + t - s) on s <= t: psi, M~, the column and dt_smooth all scale with a
    def spec_parts(a):
        return dict(
            eval=lambda t, s: np.where(s <= t, a * (1.0 + t - s), 0.0),
            diag_limit=lambda s: a,
            dt_eval=lambda t, s: a + 0.0 * np.asarray(s),
        )

    basis = BasisFamily("cosine", 1.0)
    s, t = np.array([0.3, 0.8]), np.array([0.4, 1.0])
    one = KernelSpec("affine", 1.0, True, **spec_parts(1.0))
    two = replace(one, **spec_parts(2.0))
    assert np.array_equal(two.eval_ts(t, 0.2), 2.0 * one.eval_ts(t, 0.2))
    assert np.array_equal(two.psi(basis, (1, 3), s), 2.0 * one.psi(basis, (1, 3), s))
    assert np.array_equal(two.mtilde(basis, 2, t), 2.0 * one.mtilde(basis, 2, t))
    assert two.dt_smooth(0.5, 0.2) == 2.0
    # what a constructor supplied stays as it was
    fbm = fbm_kernel_spec(0.75, 1.0)
    assert replace(fbm, name="copy").psi is fbm.psi
    # a supplied K* takes the horizon, so a copy with another horizon builds K* on its own grid
    other = discretize_kstar(fbm_kernel_spec(0.75, 2.5), 16)
    assert discretize_kstar(replace(fbm, horizon=2.5), 16).tobytes() == other.tobytes()


def test_derived_dt_smooth_matches_the_shipped_fbm_spec():
    # the fBm spec without its dt_smooth and factorisation, everything derived from eval and dt_eval
    kernel = fbm_kernel_spec(0.7, 1.0)
    basis = BasisFamily("cosine", 1.0)
    derived = KernelSpec(
        **{**kernel.__dict__, "gamma0": 0.0, "dt_smooth": None, "psi": None, "mtilde": None, "kstar": None}
    )
    s, ks = np.array([0.3, 0.8]), (1, 3)
    exact = s**kernel.gamma0 * kernel.psi(basis, ks, s)
    np.testing.assert_allclose(derived.psi(basis, ks, s), exact, rtol=1e-13, atol=0.0)
    assert k1_empirical(derived, t_grid=64) == pytest.approx(k1_empirical(kernel, t_grid=64), rel=1e-13, abs=0.0)


def test_singularity_defaults_to_zero():
    for singularity in ({}, {"singularity": None}):
        spec = KernelSpec("flat", 1.0, True, lambda t, s: 1.0, lambda s: 1.0, lambda t, s: 0.0, **singularity)
        assert spec.singularity == 0.0
    assert brownian_kernel(1.0).singularity == 0.0


def test_jacobi_rule_cache_stays_bounded_across_hurst_indices():
    # each fBm Picard solve asks for Gauss-Jacobi rules keyed by its own H; the cache evicts the oldest
    jacobi01.cache_clear()
    basis = BasisFamily("cosine", 1.0)
    for hurst in np.linspace(0.55, 0.95, 30):
        solve_picard(fbm_kernel_spec(hurst, 1.0), basis, Truncation(2, 1), [1.0], panels=4, nodes=4)
    info = jacobi01.cache_info()
    assert info.misses > info.maxsize
    assert info.currsize <= info.maxsize


def split_quadrature_kernel(hurst, t, s):
    """K(t, s) by quadrature apart from the series: Gauss-Jacobi on [s, 2s], 32-node Gauss on doubling panels above."""
    x, w = roots_jacobi(20, 0.0, hurst - 1.5)  # weight (1 + x)^(H - 3/2) on [-1, 1]
    top = min(2.0 * s, t)
    half = 0.5 * (top - s)
    total = half ** (hurst - 0.5) * np.dot(w, (s + half * (x + 1.0)) ** (hurst - 0.5))
    xg, wg = np.polynomial.legendre.leggauss(32)
    lo = top
    while lo < t:
        hi = min(2.0 * lo, t)
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        u = mid + half * xg
        total += half * np.dot(wg, (u - s) ** (hurst - 1.5) * u ** (hurst - 0.5))
        lo = hi
    return fbm_c_h(hurst) * (hurst - 0.5) * s ** (0.5 - hurst) * total


# relative error of the series against the split quadrature; at H = 0.9999 the rho <= 1/2 series
# subtracts two terms of size 1/(2 - 2H), and 1.5e-13 was measured there
@pytest.mark.parametrize(
    "hurst, rel",
    [(0.5001, 1e-13), (0.51, 1e-13), (0.6, 1e-13), (0.75, 1e-13), (0.9, 1e-13), (0.999, 1e-13), (0.9999, 3e-13)],
)
def test_fbm_kernel_series_matches_a_split_quadrature(hurst, rel):
    # s / t from 1e-10 to 1 - 1e-6, and 1/2 and its two neighbours, where the series switch
    ratios = np.concatenate([np.geomspace(1e-10, 1.0 - 1e-6, 60), [np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0)]])
    for t in (0.7, 1.0, 2.5):
        s = t * ratios
        ref = np.array([split_quadrature_kernel(hurst, t, float(x)) for x in s])
        np.testing.assert_allclose(fbm_kernel(hurst, t, s), ref, rtol=rel, atol=0.0)
    # a scalar pair gives a float, and K vanishes on the diagonal
    assert type(fbm_kernel(hurst, 1.0, 0.3)) is float
    assert fbm_kernel(hurst, 0.8, 0.8) == 0.0


@pytest.mark.parametrize("hurst, atol", [(0.6, 1e-8), (0.75, 6e-9)])  # 9.1e-9 and 5.2e-9 measured
def test_fbm_kstar_agrees_with_the_series_increments(hurst, atol):
    # discretize_kstar reads K* from six-node Gauss sums and a Gauss-Jacobi diagonal cell, not from eval's series
    kernel = fbm_kernel_spec(hurst, 1.0)
    edges = np.linspace(0.0, 1.0, 513)
    mids = 0.5 * (edges[:-1] + edges[1:])
    t, s = edges[None, :], mids[:, None]
    increments = np.diff(np.where(t > s, kernel.eval(np.maximum(t, s), s), 0.0), axis=1)
    np.testing.assert_allclose(discretize_kstar(kernel, 512), increments, rtol=0.0, atol=atol)


@pytest.mark.parametrize("hurst", [0.55, 0.6, 0.75, 0.9, 0.99, 0.999, 0.9999])
def test_k1_empirical_matches_the_closed_form(hurst):
    # int_0^t K(T, s) K1(t, s) ds = d/dt R(T, t) = H (t^(2H-1) + (T-t)^(2H-1)), largest at t = T/2;
    # the interpolated K(T, .) leaves at most 7.0e-6 relative (H = 0.9, T = 2.5)
    for horizon in (0.7, 1.0, 2.5):
        exact = 2.0 * hurst * (0.5 * horizon) ** (2.0 * hurst - 1.0)
        assert k1_empirical(fbm_kernel_spec(hurst, horizon)) == pytest.approx(exact, rel=1e-5, abs=0.0)


# R(1, 1) - 1 with the kernel by one 96-node Gauss-Jacobi rule per value, which the series replaced
QUADRATURE_KERNEL_COVARIANCE_ERROR = {
    0.55: 7.12e-6, 0.6: 9.70e-6, 0.75: 1.93e-5, 0.9: 3.26e-5, 0.99: 4.30e-5, 0.999: 4.43e-5, 0.9999: 4.44e-5
}


@pytest.mark.parametrize("hurst", sorted(QUADRATURE_KERNEL_COVARIANCE_ERROR))
def test_fbm_covariance_at_the_horizon_no_worse_than_the_quadrature_kernel(hurst):
    err = abs(covariance_from_kernel(fbm_kernel_spec(hurst, 1.0), 1.0, 1.0) - 1.0)
    assert err <= QUADRATURE_KERNEL_COVARIANCE_ERROR[hurst]


@pytest.mark.parametrize("mode", [1.5, [1, 2.5], True])
@pytest.mark.parametrize("kernel", [fbm_kernel_spec(0.7, 1.0), brownian_kernel(1.0)], ids=["fbm", "brownian"])
def test_kernel_pairings_refuse_a_non_integer_mode(kernel, mode):
    # the fBm memo keyed int(1.5) = 1 and returned mode 1's M~; Brownian read antideriv's (k - 1) pi at k = 1.5
    basis = BasisFamily("cosine", 1.0)
    with pytest.raises(DomainError, match="integer"):
        kernel.mtilde(basis, mode, np.array([0.5]))
    with pytest.raises(DomainError, match="integer"):
        kernel.psi(basis, np.atleast_1d(mode), np.array([0.3]))
    if np.ndim(mode) == 0:
        with pytest.raises(DomainError, match="integer"):
            m_tilde(kernel, basis, mode, 0.5)
    if kernel.name == "fbm":
        assert kernel.mtilde.cache_info().misses == 0


# ---------------------------------------------------------------------------
# the covariance on and off its diagonal


def ref_covariance_from_kernel(kernel, t, s):
    """``covariance_from_kernel`` with two kernel evaluations on every row, as first written."""
    live = np.minimum(t, s) > 0
    x, y = (np.where(live, v, kernel.horizon)[..., None] for v in (t, s))
    gamma = 2.0 * kernel.origin_exponent
    cov = quad_singular_smooth(
        lambda tau: kernel.eval(x, tau) * kernel.eval(y, tau) * tau**-gamma, 0.0, np.minimum(x, y)[..., 0], gamma
    )
    return _on_live_rows(cov, live)


def _covariance_kernels(tmp_path):
    grid = np.linspace(0.0, 1.0, 11)
    path = tmp_path / "kernel.csv"
    with open(path, "w") as fh:
        fh.write("t_s," + ",".join(repr(float(s)) for s in grid) + "\n")
        for t in grid:
            fh.write(repr(float(t)) + "," + ",".join(repr(math.exp(s - t) if s <= t else 0.0) for s in grid) + "\n")
    return [fbm_kernel_spec(h) for h in (0.51, 0.75, 0.99)] + [brownian_kernel(1.0), grid_kernel_from_csv(path)]


# (t, s, kernel evaluations per call): equal after the live-row substitution means one
DIAGONAL_CASES = [
    (1.0, 1.0, 1),
    (0.37, 0.37, 1),
    (np.linspace(0.1, 1.0, 5), np.linspace(0.1, 1.0, 5), 1),  # equal arrays, distinct objects
    (np.array([0.0, 0.5, -0.2]), np.array([0.3, 0.5, 0.4]), 1),  # the dead rows both read T
    (np.array([[0.2], [0.6], [1.0]]), np.array([[0.2, 0.6, 1.0]]), 2),
    (0.4, 0.9, 2),
    (np.array([0.0, 0.5, 0.8]), np.array([0.3, 0.5, 0.6]), 2),  # a dead row and a live one off the diagonal
]


@pytest.mark.parametrize("t, s, calls", DIAGONAL_CASES)
def test_covariance_from_kernel_evaluates_once_on_the_diagonal_with_the_same_bits(t, s, calls, tmp_path):
    for kernel in _covariance_kernels(tmp_path):
        got, want = covariance_from_kernel(kernel, t, s), ref_covariance_from_kernel(kernel, t, s)
        assert type(got) is type(want)
        assert np.array_equal(got, want), kernel.name
        count = []

        def counted(tt, ss, inner=kernel.eval):
            count.append(1)
            return inner(tt, ss)

        assert np.array_equal(covariance_from_kernel(replace(kernel, eval=counted), t, s), want)
        assert len(count) == calls, kernel.name
