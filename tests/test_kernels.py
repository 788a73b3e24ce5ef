import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import RegularGridInterpolator
from scipy.special import roots_jacobi

import chaosfield
from chaosfield.basis import BasisFamily, _on_live_rows, jacobi01, quad_singular_smooth
from chaosfield import kernels
from chaosfield.errors import ConfigurationError, DomainError
from chaosfield.kernels import (
    KernelSpec,
    brownian_kernel,
    covariance_from_kernel,
    fbm_c_h,
    fbm_kernel,
    fbm_kernel_dt,
    fbm_kernel_spec,
    grid_kernel,
    grid_kernel_from_csv,
    hr_gram,
    k1_empirical,
    kmk_factor,
    discretize_kstar,
    m_tilde,
    op_norm_bound,
    op_norm_estimate,
)
from chaosfield.multiindex import Truncation
from chaosfield.sde import solve_closed_form, solve_picard
from chaosfield.verify import fbm_covariance, suite_fbm


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
    assert fbm_kernel_spec(0.75, 1.0).k1_bound == pytest.approx(1.5, rel=1e-14)
    assert fbm_kernel_spec(0.75, 4.0).k1_bound == pytest.approx(3.0, rel=1e-14)
    assert fbm_kernel_spec(0.501, 1.0).k1_bound == pytest.approx(1.0, abs=1e-2)


@pytest.mark.parametrize("horizon", [1e-6, 1.0, 3.7, 1e100])
@pytest.mark.parametrize("hurst", [0.51, 0.6, 0.75, 0.9, 0.999])
def test_fbm_kernel_holds_c_h_and_k1_bound_bit_for_bit(hurst, horizon):
    # the two free functions the kernel's attributes replaced, as they were written
    c_h = math.sqrt(
        2.0 * hurst * math.gamma(1.5 - hurst) / (math.gamma(hurst + 0.5) * math.gamma(2.0 - 2.0 * hurst))
    )
    k1 = (
        hurst
        * (2.0 * hurst - 1.0)
        * math.gamma(hurst - 0.5)
        / math.gamma(hurst + 0.5)
        * horizon ** (2.0 * hurst - 1.0)
    )
    kernel = fbm_kernel_spec(hurst, horizon)
    assert (kernel.c_h, kernel.k1_bound) == (c_h, k1)
    assert kernel.c_h == fbm_c_h(hurst)


def test_the_fbm_k1_bound_and_covariance_are_no_library_functions():
    # the kernel holds K1; the analytic covariance is the verify suites' oracle
    assert not any(hasattr(module, name) for module in (chaosfield, kernels) for name in ("fbm_k1", "fbm_covariance"))


def test_no_module_cache_is_keyed_by_a_hurst_index():
    # the fBm kernel holds its series and its psi and M~ Gauss rules, so no module state grows with the H seen
    assert not any(hasattr(f, "cache_info") for f in (jacobi01, kernels._fbm_series))
    assert not hasattr(kernels, "_fbm_mtilde_rule")
    kernel = fbm_kernel_spec(0.7, 1.0)
    assert vars(kernel).keys().isdisjoint({"_psi_rule", "_mtilde_rule"})  # each rule is built on its first use
    kernel.mtilde(BasisFamily("cosine", 1.0), 3, [0.5])
    assert {"_psi_rule", "_mtilde_rule"} <= vars(kernel).keys()  # M~'s rule read psi's, which the kernel keeps


@pytest.mark.parametrize("horizon", [True, "1", math.nan, math.inf, 10**400, 0, -1])
@pytest.mark.parametrize(
    "make",
    [brownian_kernel, lambda t: fbm_kernel_spec(0.75, t), lambda t: BasisFamily("cosine", t)],
    ids=["brownian", "fbm", "basis"],
)
def test_kernels_refuse_a_horizon_that_is_not_a_positive_finite_real(make, horizon):
    # True was read as horizon 1, and "1" escaped with TypeError; the basis took True too, and
    # 10**400, which no float holds, reached numpy as an object array
    with pytest.raises(DomainError, match="horizon must be a positive and finite real number"):
        make(horizon)


@pytest.mark.parametrize("hurst", [True, "0.75", math.nan, 0.5, 1.0])
def test_fbm_kernel_refuses_a_hurst_index_outside_the_open_interval(hurst):
    with pytest.raises(DomainError, match="Hurst index must lie in"):
        fbm_kernel_spec(hurst, 1.0)


def test_k1_empirical_below_analytic_bound():
    kernel = fbm_kernel_spec(0.75, 1.0)
    emp = k1_empirical(kernel)
    assert emp <= kernel.k1_bound + 1e-6


def test_k1_empirical_raises_without_convergence(monkeypatch):
    kernel = fbm_kernel_spec(0.75, 1.0)
    monkeypatch.setattr(kernels, "_K1_GRID", 32)
    monkeypatch.setattr(kernels, "_K1_REFINEMENTS", 1)
    assert k1_empirical(kernel) <= kernel.k1_bound + 1e-6
    # no two grids agree to a zero tolerance
    monkeypatch.setattr(kernels, "_K1_TOL", 0.0)
    with pytest.raises(DomainError, match="did not converge"):
        k1_empirical(kernel)


def test_fbm_psi_matches_generic_factorisation():
    kernel = fbm_kernel_spec(0.75, 1.0)
    basis = BasisFamily("cosine", 1.0)
    # the base class's psi on the fBm kernel: K m_k by quadrature of dt_eval and dt_smooth, gamma0 = 0
    s, ks = np.array([0.3, 0.8]), (1, 3)
    generic = KernelSpec.psi(kernel, basis, ks, s)
    assert s**kernel.gamma0 * kernel.psi(basis, ks, s) == pytest.approx(generic, rel=1e-7, abs=1e-8)
    for i, k in enumerate(ks):
        gamma0, psi = kmk_factor(kernel, basis, k)
        assert s**gamma0 * psi(s) == pytest.approx(generic[i], rel=1e-7, abs=1e-8)


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


@pytest.mark.parametrize("estimate", [discretize_kstar, op_norm_estimate], ids=lambda f: f.__name__)
@pytest.mark.parametrize("n_grid", [2.5, np.float64(4.0), True], ids=["float", "numpy-float", "bool"])
def test_kstar_refuses_a_grid_that_is_not_an_integer(estimate, n_grid):
    # refused by name like a grid below one, not left to np.linspace's TypeError; a bool is not a count
    with pytest.raises(ConfigurationError, match="n_grid"):
        estimate(brownian_kernel(1.0), n_grid)
    assert estimate(brownian_kernel(1.0), np.int64(4)) is not None


@pytest.mark.parametrize(
    "kernel",
    [brownian_kernel(1.0), fbm_kernel_spec(0.7, 1.0), grid_kernel([0.0, 1.0], [0.0, 1.0], np.eye(2))],
    ids=lambda kernel: kernel.name,
)
@pytest.mark.parametrize("n_grid", [0, -3, 2.5, np.float64(4.0), True, "8"])
def test_every_kernels_kstar_refuses_a_grid_count_by_name(kernel, n_grid):
    # fBm's kstar raised ZeroDivisionError at 0 and TypeError at 2.5; the base class returned a 0 x 0 matrix at 0
    message = rf"^n_grid must be an integer >= 1, not {re.escape(repr(n_grid))}$"
    with pytest.raises(ConfigurationError, match=message):
        kernel.kstar(n_grid)
    with pytest.raises(ConfigurationError, match=message):
        discretize_kstar(kernel, n_grid)
    with pytest.raises(ConfigurationError, match="K\\* matrix"):
        kernel.kstar(4473)
    assert kernel.kstar(np.int64(2)).shape == (2, 2)


def test_op_norm_bound():
    assert op_norm_bound(0.0, 1.5) == pytest.approx(math.sqrt(1.5))
    assert op_norm_bound(1.0, 1.5) == pytest.approx(math.sqrt(5.0))
    with pytest.raises(DomainError):
        op_norm_bound(-1.0, 0.0)


@pytest.mark.parametrize("k0, k1", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 1.0), (1.0, math.inf)])
def test_op_norm_bound_refuses_a_constant_that_is_not_finite(k0, k1):
    # k < 0 is false for NaN: (nan, 0) returned 0.0 and (0, nan) returned NaN
    with pytest.raises(DomainError, match="non-negative and finite"):
        op_norm_bound(k0, k1)


def test_op_norm_estimates():
    assert op_norm_estimate(brownian_kernel(1.0), 128) == pytest.approx(1.0, abs=1e-6)
    kernel = fbm_kernel_spec(0.75, 1.0)
    est = op_norm_estimate(kernel, 128)
    assert est <= op_norm_bound(0.0, kernel.k1_bound)
    # a zero K* has no direction to iterate along: its norm is exactly 0
    assert op_norm_estimate(grid_kernel([0.0, 1.0], [0.0, 1.0], np.zeros((2, 2))), 16) == 0.0
    # 4473^2 entries are over the table budget: refused before the matrix is allocated
    with pytest.raises(ConfigurationError, match="K\\* matrix"):
        op_norm_estimate(kernel, 4473)


def ref_op_norm_estimate(kernel, n_grid=512, max_iter=5000):
    """The power iteration as first written, with two products by A^T A per iteration, each as A^T (A v)."""
    a = discretize_kstar(kernel, n_grid)
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(n_grid)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = a.T @ (a @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v_new = w / nw
        lam_new = float(v_new @ (a.T @ (a @ v_new)))
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


@pytest.mark.parametrize("hurst", [0.6, 0.75, 0.99])
@pytest.mark.parametrize("n_grid", [64, 512])
def test_op_norm_estimate_scales_out_a_huge_or_tiny_horizon(hurst, n_grid):
    # A is scaled by a power of two before A^T A is formed: at T = 1 that is exact, so the unscaled
    # iteration's bits are kept, and at T = 1e200 (where A^T A overflows at H 0.99) and 1e-200 the
    # estimate is ||K*_1|| T^(H - 1/2), K*_T = T^(H - 1/2) K*_1 for the self-similar fBm kernel
    unit = op_norm_estimate(fbm_kernel_spec(hurst, 1.0), n_grid)
    assert unit == ref_op_norm_estimate(fbm_kernel_spec(hurst, 1.0), n_grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for horizon in (1e200, 1e-200):
            got = op_norm_estimate(fbm_kernel_spec(hurst, horizon), n_grid)
            assert got == pytest.approx(unit * horizon ** (hurst - 0.5), rel=4 * np.finfo(float).eps, abs=0.0)


def test_op_norm_estimate_of_a_matrix_whose_square_overflows():
    # every entry 1e160: A^T A would hold 16e320, but ||A|| = 16e160 is finite
    huge = brownian_kernel(1.0)
    huge.kstar = lambda n: np.full((n, n), 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert op_norm_estimate(huge, 16) == pytest.approx(16e160, rel=1e-15, abs=0.0)
        # a norm past the float range is refused by name
        huge.kstar = lambda n: np.full((n, n), 1e307)
        with pytest.raises(DomainError, match="K\\* norm overflows"):
            op_norm_estimate(huge, 64)


@pytest.mark.parametrize("hurst", [0.75, 0.9])
def test_op_norm_estimate_matches_the_largest_singular_value_on_short_horizons(hurst):
    # the stopping test is relative, so a short horizon's small norm is not cut short: 2.4e-10 (H 0.75)
    # and 5.7e-11 (H 0.9) were measured at every horizon, where an absolute test left 1.0e-4 and 0.30 at 1e-12
    for horizon in (1.0, 1e-4, 1e-8, 1e-12):
        kernel = fbm_kernel_spec(hurst, horizon)
        svd = np.linalg.norm(discretize_kstar(kernel, 128), 2)
        assert op_norm_estimate(kernel, 128) == pytest.approx(svd, rel=1e-9, abs=0.0), horizon


def test_op_norm_estimate_raises_without_convergence(monkeypatch):
    # one power step compares against the starting value 0, so it cannot meet tol
    monkeypatch.setattr(kernels, "_POWER_ITERATIONS", 1)
    for kernel in (brownian_kernel(1.0), fbm_kernel_spec(0.75, 1.0)):
        with pytest.raises(DomainError, match="power iteration"):
            op_norm_estimate(kernel, 64)


def test_hr_gram():
    g = hr_gram(np.minimum, [0.25, 0.5, 1.0])
    assert g[0, 2] == 0.25
    assert np.all(np.linalg.eigvalsh(g) >= -1e-12)
    bad = lambda t, s: np.where(t != s, -1.0, 0.0)  # noqa: E731
    with pytest.raises(DomainError, match="minimum eigenvalue -1.0 below tolerance"):
        hr_gram(bad, [0.0, 1.0])
    with pytest.raises(DomainError, match="covariance Gram matrix is not symmetric"):
        hr_gram(lambda t, s: np.minimum(t, s) + 0.1 * t, [0.25, 0.5, 1.0])
    # an empty grid raised IndexError from eigvalsh(g)[0]
    for times in ([], [[0.25, 0.5]], 0.5):
        with pytest.raises(DomainError, match="times must be a non-empty 1-D array"):
            hr_gram(np.minimum, times)
    # a NaN time was reported as a covariance that is not symmetric
    for times, bad in (([0.1, math.nan], "nan"), ([-math.inf, 0.5], "-inf"), ([0.25, math.inf], "inf")):
        with pytest.raises(DomainError, match=f"array of finite numbers, not one holding {bad}$"):
            hr_gram(np.minimum, times)


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
    assert kernel.eval(0.85, 0.3) == pytest.approx(1.0)
    assert kernel.eval(0.3, 0.85) == 0.0
    assert kernel.eval(0.5, 0.5) == pytest.approx(1.0)
    # the derived psi's K(s, s) reads what K(s+, s) is for Brownian motion and fBm on (0, T]
    diag = np.array([1e-9, 0.3, 0.5, 1.0])
    assert brownian_kernel(1.0).eval(diag, diag).tolist() == [1.0] * 4
    assert fbm_kernel_spec(0.7, 1.0).eval(diag, diag).tolist() == [0.0] * 4
    # every shipped kernel's eval on the diagonal and dt_eval return arrays of the broadcast shape
    s, t = np.array([0.2, 0.3, 0.5]), np.array([[0.6], [1.0]])
    for spec in (brownian_kernel(1.0), fbm_kernel_spec(0.7, 1.0), kernel):
        assert isinstance(spec.eval(s, s), np.ndarray) and spec.eval(s, s).shape == (3,)
        assert isinstance(spec.dt_eval(t, s), np.ndarray) and spec.dt_eval(t, s).shape == (2, 3)


@pytest.mark.parametrize("seed", range(8))
def test_grid_kernel_interpolant_equals_scipy_bit_for_bit(tmp_path, seed):
    # scipy's RegularGridInterpolator (linear, extrapolating) is the reference only: on a random
    # rectilinear grid and a random table that is 0 where s > t, the interpolant matches it on the
    # table continued across the diagonal, and is 0 where s > t, at random points, every node, the
    # last node and points outside the grid on every side
    rng = np.random.default_rng(seed)
    t_grid, s_grid = (np.append(0.0, np.cumsum(rng.uniform(0.01, 1.0, rng.integers(1, 12)))) for _ in range(2))
    table = np.where(np.less.outer(t_grid, s_grid), 0.0, rng.standard_normal((len(t_grid), len(s_grid))))
    path = tmp_path / "kernel.csv"
    with open(path, "w") as fh:
        fh.write("t_s," + ",".join(repr(float(s)) for s in s_grid) + "\n")
        for t, row in zip(t_grid, table):
            fh.write(repr(float(t)) + "," + ",".join(repr(float(v)) for v in row) + "\n")
    kernel = grid_kernel_from_csv(path)
    nodes_t, nodes_s = (g.ravel() for g in np.meshgrid(t_grid, s_grid, indexing="ij"))
    spread_t, spread_s = (rng.uniform(-0.5 * g[-1], 1.5 * g[-1], 2000) for g in (t_grid, s_grid))
    t = np.concatenate([spread_t, nodes_t, t_grid[-1:], [-1.0, t_grid[-1] + 1.0, 0.5 * t_grid[-1]]])
    s = np.concatenate([spread_s, nodes_s, s_grid[-1:], [0.5 * s_grid[-1], -1.0, s_grid[-1] + 1.0]])
    reference = RegularGridInterpolator((t_grid, s_grid), kernel._k, bounds_error=False, fill_value=None)
    expected = np.where(s > t, 0.0, reference(np.stack([t, s], axis=-1)))
    assert kernel.eval(t, s).tobytes() == expected.tobytes()


def _lower(t, s, value):
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    return np.where(s <= t, value(np.minimum(s - t, 0.0)), 0.0)


class ExactExp(KernelSpec):
    """K = e^-(t - s) on s <= t, and the same kernel tabulated on a grid of [0, 1] by _exp_grid_kernel."""

    name = "exp"

    def eval(self, t, s):
        return _lower(t, s, np.exp)

    def dt_eval(self, t, s):
        return _lower(t, s, lambda x: -np.exp(x))


EXACT_EXP = ExactExp(1.0)


def _exp_grid_kernel(tmp_path, points):
    grid = np.linspace(0.0, 1.0, points)
    path = tmp_path / f"kernel-{points}.csv"
    with open(path, "w") as fh:
        fh.write("t_s," + ",".join(repr(float(s)) for s in grid) + "\n")
        for t in grid:
            fh.write(repr(float(t)) + "," + ",".join(repr(math.exp(s - t) if s <= t else 0.0) for s in grid) + "\n")
    return grid_kernel_from_csv(path)


def test_grid_kernel_psi_matches_the_exact_kernel_near_the_diagonal(tmp_path):
    # on 257 points the bilinear cells across the diagonal mixed in the zero upper triangle,
    # so K(0.1, 0.1) read 0.759 and psi was off by up to 0.28
    kernel = _exp_grid_kernel(tmp_path, 257)
    s = np.array([0.1, 0.5, 0.9])
    assert kernel.eval(s, s) == pytest.approx(1.0, abs=1e-4)
    assert kernel.eval(s - 0.01, s).tolist() == [0.0, 0.0, 0.0]
    for basis in (BasisFamily("cosine"), BasisFamily("legendre")):
        ks = np.arange(1, 5)
        assert np.max(np.abs(kernel.psi(basis, ks, s) - EXACT_EXP.psi(basis, ks, s))) < 1e-4


def test_grid_kernel_psi_matches_the_exact_kernel_up_to_the_horizon(tmp_path):
    # the last column (s = T) has one value at t >= s and is continued as a constant; skipped, its cell
    # [T - h, T] mixed in the zero upper triangle: K(s, s) read 0.75 and psi was off by up to 1.6 there
    kernel, h = _exp_grid_kernel(tmp_path, 257), 1.0 / 256
    s = np.linspace(0.0, 1.0, 2001)
    assert np.max(np.abs(kernel.eval(s, s) - 1.0)) < 2e-3  # 9.7e-4 measured, O(h) in the last cell
    for basis in (BasisFamily("cosine"), BasisFamily("legendre")):
        err = np.max(np.abs(kernel.psi(basis, np.arange(1, 5), s) - EXACT_EXP.psi(basis, np.arange(1, 5), s)), axis=0)
        assert np.max(err[s <= 1.0 - h]) < 2e-5, basis.kind  # 7.2e-6 / 1.1e-5 measured
        assert np.max(err) < 1e-2, basis.kind  # 3.4e-3 / 6.2e-3 measured, in the last cell


def test_k1_empirical_bounds_a_negative_k1(tmp_path):
    # K1 = -e^-(t - s) < 0: the sup of the signed integral sat at the grid's first point and halved
    # with each doubling, so it never converged; the sup of int_0^t |K(T, s) K1(t, s)| ds is at
    # t = T, (1 - e^-2) / 2.  0.41490 / 0.42803 / 0.43126 measured on 17 / 65 / 257 points
    exact = (1.0 - math.exp(-2.0)) / 2.0
    errors = [abs(k1_empirical(_exp_grid_kernel(tmp_path, points)) - exact) for points in (17, 65, 257)]
    assert errors[0] > errors[1] > errors[2], errors
    assert errors[2] < 2e-3, errors


def test_grid_kernel_picard_gap_shrinks_with_the_grid(tmp_path):
    # closed form against Picard, Truncation(4, 3) on 33 times: 3.1e-4 / 2.1e-5 / 1.5e-6 (cosine) and
    # 2.7e-6 (Legendre, 257) measured; with the last column skipped 3.0e-4 / 2.3e-4 / 7.7e-4, no shrinkage
    trunc, times = Truncation(4, 3), np.linspace(0.0, 1.0, 33)
    kernels = [_exp_grid_kernel(tmp_path, points) for points in (17, 65, 257)]
    for basis in (BasisFamily("cosine"), BasisFamily("legendre")):
        gaps = []
        for kernel in kernels:
            closed = solve_closed_form(kernel, basis, trunc, times)
            gaps.append(np.max(np.abs(closed.coeffs - solve_picard(kernel, basis, trunc, times).coeffs)))
        assert gaps[0] > 3 * gaps[1] > 9 * gaps[2], (basis.kind, gaps)  # each 4x grid: 3.7x or more
        assert gaps[2] < 1e-5, (basis.kind, gaps)


def _grid_csv(tmp_path, text):
    path = tmp_path / "kernel.csv"
    path.write_text(text)
    return path


# a well-formed adapted table, which each case below breaks in one way
GOOD_GRID = "t_s,0.0,0.5,1.0\n0.0,1,0,0\n0.5,1,1,0\n1.0,1,1,1\n"


@pytest.mark.parametrize(
    "t_grid, s_grid, values",
    [
        ([0.0, 1.0], [0.0, 1.0], [[1.0, 0.0], [1.0]]),
        ([0.0, 1.0], [0.0, 1.0], [[1.0, 0.0], [1.0, "one"]]),
        ([0.0, "x"], [0.0, 1.0], [[1.0, 0.0], [1.0, 1.0]]),
        ([0.0, 1.0], [0.0, 1.0], [[1.0, 0.0], [1.0, {}]]),
    ],
    ids=["ragged", "text-value", "text-grid", "dict-value"],
)
def test_grid_kernel_refuses_a_table_that_is_not_a_rectangle_of_numbers(t_grid, s_grid, values):
    # numpy's ValueError escaped: "inhomogeneous shape" and "could not convert string to float"
    with pytest.raises(ConfigurationError, match="rectangular arrays of numbers"):
        grid_kernel(t_grid, s_grid, values)


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


def test_grid_kernel_refuses_a_table_that_is_not_volterra(tmp_path):
    # a value where s > t was accepted, and the table interpolated as written; the message names the largest
    with pytest.raises(ConfigurationError, match=r"^K\(t, s\) must be 0 where s > t, but the table holds -0\.5 there$"):
        grid_kernel([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [[1.0, 0.25, -0.5], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    with pytest.raises(ConfigurationError, match=r"^grid CSV .*kernel\.csv: K\(t, s\) .* holds 0\.25 there$"):
        grid_kernel_from_csv(_grid_csv(tmp_path, GOOD_GRID.replace("0.0,1,0,0", "0.0,1,0.25,0")))
    # a value within 1e-12 of 0 is taken as 0
    kernel = grid_kernel_from_csv(_grid_csv(tmp_path, GOOD_GRID.replace("0.0,1,0,0", "0.0,1,1e-13,0")))
    assert kernel.eval(0.25, 0.75) == 0.0


class Affine(KernelSpec):
    """K(t, s) = a (1 + t - s) on s <= t, with no pieces of its own."""

    name = "affine"

    def __init__(self, a):
        super().__init__(1.0)
        self.a = a

    def eval(self, t, s):
        return np.where(s <= t, self.a * (1.0 + t - s), 0.0)

    def dt_eval(self, t, s):
        return self.a + 0.0 * np.asarray(s)


class CountingPower(KernelSpec):
    """K(t, s) = (1 + t - s) s^g0 on s <= t, counting its eval calls; every other piece is derived."""

    name = "counting-power"

    def __init__(self, g0):
        super().__init__(1.0)
        self.origin_exponent, self.calls = g0, 0

    def eval(self, t, s):
        self.calls += 1
        return np.where(s <= t, (1.0 + t - s) * s**self.origin_exponent, 0.0)


@pytest.mark.parametrize("g0", [0.0, -0.3])
@pytest.mark.parametrize("kind", ["cosine", "legendre"])
def test_derived_mtilde_evaluates_the_kernel_once_at_each_node(kind, g0, monkeypatch):
    # one quad_singular_smooth over (modes, times, nodes); each row is the one-mode quadrature, bit for bit
    basis, kernel = BasisFamily(kind, 1.0), CountingPower(g0)
    ks = (1, 2, 5, 9)

    def one_mode_rows(t):
        integrals = [
            quad_singular_smooth(lambda s: kernel.eval(t[..., None], s) * basis.eval(k, s) * s**-g0, 0.0, t, g0)
            for k in ks
        ]
        kernel.calls -= len(ks)  # the reference's own eval calls
        return np.array(integrals)

    t = np.array([0.05, 0.4, 1.0])
    assert kernel.mtilde(basis, ks, t).tobytes() == one_mode_rows(t).tobytes()
    assert kernel.calls == 1
    kernel.mtilde(basis, ks, t)
    assert kernel.calls == 1  # the memo answers a repeated request
    # over _MTILDE_BLOCK (mode, time) pairs the times go in blocks: K once per block, still once at each node
    monkeypatch.setattr(kernels, "_MTILDE_BLOCK", 8)
    t = np.array([0.05, 0.2, 0.4, 0.7, 1.0])
    assert kernel.mtilde(basis, ks, t).tobytes() == one_mode_rows(t).tobytes()
    assert kernel.calls == 1 + 3


def test_derived_pieces_read_their_own_kernel():
    # psi, M~, K* and dt_smooth all scale with a: each is derived from the object's own eval and dt_eval
    basis = BasisFamily("cosine", 1.0)
    s, t = np.array([0.3, 0.8]), np.array([0.4, 1.0])
    one, two = Affine(1.0), Affine(2.0)
    assert np.array_equal(two.eval_ts(t, 0.2), 2.0 * one.eval_ts(t, 0.2))
    assert np.array_equal(two.psi(basis, (1, 3), s), 2.0 * one.psi(basis, (1, 3), s))
    assert np.array_equal(two.mtilde(basis, 2, t), 2.0 * one.mtilde(basis, 2, t))
    assert np.array_equal(discretize_kstar(two, 8), 2.0 * discretize_kstar(one, 8))
    assert two.dt_smooth(0.5, 0.2) == 2.0
    assert (one.singularity, one.origin_exponent, one.gamma0) == (0.0, 0.0, 0.0)


def test_derived_dt_smooth_matches_the_shipped_fbm_spec(monkeypatch):
    # the fBm kernel with the base class's dt_smooth and factorisation, everything derived from eval and dt_eval
    kernel = fbm_kernel_spec(0.7, 1.0)

    class Derived(type(kernel)):
        dt_smooth, psi, _mtilde, kstar = KernelSpec.dt_smooth, KernelSpec.psi, KernelSpec._mtilde, KernelSpec.kstar

    derived = Derived(0.7, 1.0)
    basis = BasisFamily("cosine", 1.0)
    s, ks = np.array([0.3, 0.8]), (1, 3)
    exact = s**kernel.gamma0 * kernel.psi(basis, ks, s)
    np.testing.assert_allclose(derived.psi(basis, ks, s), exact, rtol=1e-13, atol=0.0)
    monkeypatch.setattr(kernels, "_K1_GRID", 64)
    assert k1_empirical(derived) == pytest.approx(k1_empirical(kernel), rel=1e-13, abs=0.0)


def test_singularity_defaults_to_zero():
    class Flat(KernelSpec):
        name = "flat"

    assert Flat(1.0).singularity == 0.0
    assert brownian_kernel(1.0).singularity == 0.0


def test_a_kernel_without_dt_eval_is_refused_where_k1_is_needed():
    # the base class's dt_eval refuses, so the derived psi and k1_empirical name the missing piece
    class NoDerivative(KernelSpec):
        name = "no-derivative"

        def eval(self, t, s):
            return np.where(s <= t, 1.0 + t - s, 0.0)

    kernel = NoDerivative(1.0)
    for call in (lambda: kernel.psi(BasisFamily("cosine", 1.0), (1, 2), np.array([0.5])), lambda: k1_empirical(kernel)):
        with pytest.raises(ConfigurationError, match="'no-derivative' lacks derivative data"):
            call()
    # what needs only eval still works
    assert discretize_kstar(kernel, 4)[0, 0] == pytest.approx(1.125)


def test_grid_kernel_from_a_table_equals_the_csv_kernel_bit_for_bit(tmp_path):
    grid = np.linspace(0.0, 1.0, 17)
    t, s = grid[:, None], grid
    table = np.where(s <= t, np.exp(np.minimum(s - t, 0.0)), 0.0)
    before = table.copy()
    path = tmp_path / "kernel.csv"
    path.write_text(
        "t_s," + ",".join(map(repr, grid.tolist())) + "\n"
        + "".join(repr(ti) + "," + ",".join(map(repr, row)) + "\n" for ti, row in zip(grid.tolist(), table.tolist()))
    )
    basis, x = BasisFamily("cosine", 1.0), np.linspace(0.0, 1.0, 41)
    in_memory, from_csv = grid_kernel(grid, grid, table), grid_kernel_from_csv(path)
    assert in_memory.psi(basis, (1, 2, 3), x).tobytes() == from_csv.psi(basis, (1, 2, 3), x).tobytes()
    assert discretize_kstar(in_memory, 8).tobytes() == discretize_kstar(from_csv, 8).tobytes()
    assert np.array_equal(table, before)  # the continuation across the diagonal works on a copy
    with pytest.raises(ConfigurationError, match="shape"):
        grid_kernel(grid, grid[:-1], table)
    # a refusal from the table names the file it came from
    path.write_text("t_s,0.0,1.0\n1.0,1,1\n0.0,1,0\n")
    with pytest.raises(ConfigurationError, match="kernel.csv: the t-grid needs at least two increasing points"):
        grid_kernel_from_csv(path)


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
        assert kernel._mtilde_memo.cache_info().misses == 0


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


# (t, s, kernel evaluations per call: the derived Brownian and grid kernels', fBm's). A row with t = s is the
# kernel's _variance: one evaluation for the derived kernels, none for fBm's series; the other live rows take two.
DIAGONAL_CASES = [
    (1.0, 1.0, 1, 0),
    (0.37, 0.37, 1, 0),
    (np.linspace(0.1, 1.0, 5), np.linspace(0.1, 1.0, 5), 1, 0),  # equal arrays, distinct objects
    (np.array([0.0, 0.5, -0.2]), np.array([0.3, 0.5, 0.4]), 1, 0),  # the dead rows read 0 without an evaluation
    (np.array([[0.2], [0.6], [1.0]]), np.array([[0.2, 0.6, 1.0]]), 3, 2),
    (0.4, 0.9, 2, 2),
    (np.array([0.0, 0.5, 0.8]), np.array([0.3, 0.5, 0.6]), 3, 2),  # a dead row, a live diagonal one and an off one
]


@pytest.mark.parametrize("t, s, calls, fbm_calls", DIAGONAL_CASES)
def test_covariance_from_kernel_evaluates_once_on_the_diagonal_with_the_same_bits(t, s, calls, fbm_calls, tmp_path):
    # the derived kernels keep the two-evaluation quadrature's bits on every row, fBm on its off-diagonal rows; fBm's
    # diagonal is its series' R(t, t), checked against t^2H
    t_rows, s_rows = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    live = np.minimum(t_rows, s_rows) > 0
    diagonal = live & (t_rows == s_rows)
    for kernel in _covariance_kernels(tmp_path):
        got, want = covariance_from_kernel(kernel, t, s), ref_covariance_from_kernel(kernel, t, s)
        assert type(got) is type(want)
        if kernel.name == "fbm":
            got_rows, want_rows = np.asarray(got), np.asarray(want)
            assert np.array_equal(got_rows[~diagonal], want_rows[~diagonal])
            power = np.array([x ** (2.0 * kernel.hurst) for x in t_rows[diagonal].tolist()])
            assert np.all(np.abs(got_rows[diagonal] / power - 1.0) <= 7e-16), kernel.hurst
        else:
            assert np.array_equal(got, want), kernel.name
        count = []

        def counted(tt, ss, inner=kernel.eval):
            count.append(1)
            return inner(tt, ss)

        kernel.eval = counted
        assert np.array_equal(covariance_from_kernel(kernel, t, s), got)
        assert len(count) == (fbm_calls if kernel.name == "fbm" else calls), kernel.name


# max over T in {1e-3, 1, 3.7, 1e3} of |R(T, T) / T^2H - 1| from the series, measured: 6.7e-16 up to H 0.99, then
# the two near series terms of size 1/(2 - 2H) cancel
SERIES_VARIANCE_ERROR = {
    0.5001: 2.3e-16, 0.51: 2.3e-16, 0.6: 2.3e-16, 0.75: 2.3e-16, 0.9: 2.3e-16, 0.95: 4.5e-16, 0.99: 6.7e-16,
    0.995: 1.6e-15, 0.999: 2.3e-15, 0.9999: 7.9e-14,
}


@pytest.mark.parametrize("hurst", sorted(SERIES_VARIANCE_ERROR))
def test_fbm_variance_from_the_series_is_exact_to_roundoff(hurst):
    for horizon in (1e-3, 1.0, 3.7, 1e3):
        err = abs(covariance_from_kernel(fbm_kernel_spec(hurst, horizon), horizon, horizon) / horizon ** (2 * hurst) - 1)
        assert err <= SERIES_VARIANCE_ERROR[hurst], horizon


def test_the_variance_checks_alone_catch_a_c_h_defect_of_1e_12(monkeypatch):
    # a c_H defect of 1e-6 failed no check of the fbm suite before its variance checks
    variance_checks = [f"variance-vs-analytic-h{hurst}" for hurst in (0.51, 0.75, 0.95)]
    clean = {check["name"]: check["pass"] for check in suite_fbm()["checks"]}
    assert set(variance_checks) <= set(clean) and all(clean.values())
    monkeypatch.setattr(kernels, "fbm_c_h", lambda hurst, exact=kernels.fbm_c_h: exact(hurst) * (1.0 + 1e-12))
    failed = [check["name"] for check in suite_fbm()["checks"] if not check["pass"]]
    assert failed == variance_checks
