import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from chaosfield.basis import BasisFamily
from chaosfield.chaos import ChaosExpansion, chaos_eval, wick_exp_first_chaos
from chaosfield import sde
from chaosfield.errors import ConfigurationError, DomainError
from chaosfield.kernels import brownian_kernel, fbm_kernel_spec, m_tilde
from chaosfield.multiindex import MultiIndex, Truncation
from chaosfield.sde import (
    sample_wick_exponential,
    solve_closed_form,
    solve_picard,
)


BASIS = BasisFamily("cosine", 1.0)


def at(sol, t):
    """The solution at grid time t as a ChaosExpansion."""
    return ChaosExpansion.from_dense(sol.trunc, sol.coeffs[sol._time_index(t)])


@pytest.mark.parametrize("solve", [solve_closed_form, solve_picard])
@pytest.mark.parametrize("grid", [[], np.zeros((0, 3)), [[0.0, 1.0]], 0.5, [0.0, math.nan], [0.5, math.inf]])
def test_solvers_refuse_an_empty_or_multidimensional_time_grid(solve, grid):
    # Picard escaped with numpy's reshape ValueError on [], and closed form returned a solution with no times;
    # a NaN or infinite time is refused by the same rule, before the basis reads it
    with pytest.raises(DomainError, match="^times must be a non-empty 1-D array of finite numbers, not one "):
        solve(brownian_kernel(1.0), BASIS, Truncation(2, 2), grid)


def test_closed_form_initial_condition():
    sol = solve_closed_form(brownian_kernel(1.0), BASIS, Truncation(3, 3), [0.0, 0.5, 1.0])
    at0 = at(sol, 0.0)
    assert at0.coeffs == {MultiIndex.zero(): 1.0}
    assert sol.second_moment(0.0) == 1.0


def test_closed_form_unit_mean():
    sol = solve_closed_form(brownian_kernel(1.0), BASIS, Truncation(3, 3), [0.0, 0.3, 0.9])
    for t in (0.0, 0.3, 0.9):
        assert at(sol, t).mean == 1.0


def test_closed_form_brownian_coefficients():
    # at t = T only mode 1 survives: u_{n eps_1}(T) = T^{n/2} / sqrt(n!)
    trunc = Truncation(3, 4)
    sol = solve_closed_form(brownian_kernel(1.0), BASIS, trunc, [1.0])
    at1 = at(sol, 1.0)
    for n in range(5):
        expected = 1.0 / math.sqrt(math.factorial(n))
        assert at1.get(MultiIndex.single(1, n)) == pytest.approx(expected, rel=1e-12)
    assert at1.get(MultiIndex.eps(2)) == pytest.approx(0.0, abs=1e-14)
    assert at1.get(MultiIndex.eps(1).add(MultiIndex.eps(2))) == pytest.approx(0.0, abs=1e-14)


def test_off_grid_time_rejected():
    sol = solve_closed_form(brownian_kernel(1.0), BASIS, Truncation(2, 2), [0.0, 1.0])
    with pytest.raises(DomainError):
        at(sol, 0.37)
    # NaN is on no grid: it used to select the row of t = 0
    for read in (lambda t: at(sol, t), sol.second_moment, lambda t: sol.sample(t, np.zeros(2))):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                read(bad)


def test_off_grid_time_rejected_at_a_tiny_horizon():
    # an absolute tolerance of 1e-10 read 0.6e-12 as the grid time 0.5e-12
    horizon = 1e-12
    times = np.linspace(0.0, horizon, 5)
    sol = solve_closed_form(brownian_kernel(horizon), BasisFamily("cosine", horizon), Truncation(2, 2), times)
    assert sol.second_moment(0.5e-12) == float(np.dot(sol.coeffs[2], sol.coeffs[2]))
    with pytest.raises(DomainError, match="not on the solution grid"):
        sol.second_moment(0.6e-12)


def test_grid_time_found_at_a_huge_horizon():
    # an absolute tolerance of 1e-10 refused the float next to the grid time 1e20 / 3
    horizon = 1e20
    times = np.linspace(0.0, horizon, 4)
    sol = solve_closed_form(brownian_kernel(horizon), BasisFamily("cosine", horizon), Truncation(2, 2), times)
    assert sol.second_moment(np.nextafter(times[1], 0.0)) == sol.second_moment(times[1])


@pytest.mark.parametrize(
    "kernel", [brownian_kernel(1.0), fbm_kernel_spec(0.75, 1.0)], ids=["brownian", "fbm"]
)
def test_picard_matches_closed_form(kernel):
    trunc = Truncation(4, 3)
    grid = np.linspace(0.0, 1.0, 33)
    closed = solve_closed_form(kernel, BASIS, trunc, grid)
    picard = solve_picard(kernel, BASIS, trunc, grid)
    assert np.max(np.abs(closed.coeffs - picard.coeffs)) < 1e-11
    # each row is the Wick exponential of that time's M~, bit for bit
    for row, mt in zip(closed.coeffs, closed.mtilde):
        assert np.array_equal(row, wick_exp_first_chaos(mt, trunc).vec)


SWEEP_HURSTS = (0.51, 0.55, 0.75, 0.95, 0.999)


@pytest.mark.parametrize(
    "kernel",
    [brownian_kernel(1.0)] + [fbm_kernel_spec(h, 1.0) for h in SWEEP_HURSTS],
    ids=["brownian"] + [f"fbm-{h}" for h in SWEEP_HURSTS],
)
@pytest.mark.parametrize("kind", ["cosine", "legendre"])
def test_picard_matches_closed_form_across_hurst_indices(kernel, kind):
    # on the old 48-panel graded mesh fBm stalled near 1e-8 (7.6e-9 at H 0.55, Legendre); 2.5e-12 measured here
    basis, trunc, grid = BasisFamily(kind, 1.0), Truncation(8, 4), np.linspace(0.0, 1.0, 129)
    closed = solve_closed_form(kernel, basis, trunc, grid)
    picard = solve_picard(kernel, basis, trunc, grid)
    assert np.max(np.abs(closed.coeffs - picard.coeffs)) <= 1e-11


def test_picard_zero_order_row_is_one():
    sol = solve_picard(brownian_kernel(1.0), BASIS, Truncation(3, 2), np.linspace(0, 1, 9))
    assert np.allclose(sol.coeffs[:, 0], 1.0, atol=1e-13)


def test_picard_refinement_consistency(monkeypatch):
    # uniqueness: refining the discretization does not move the answer
    trunc = Truncation(3, 2)
    grid = np.linspace(0.0, 1.0, 17)
    kernel = fbm_kernel_spec(0.75, 1.0)
    coarse = solve_picard(kernel, BASIS, trunc, grid)
    monkeypatch.setattr(sde, "_UNIFORM", 9)
    monkeypatch.setattr(sde, "_LAYERS", 16)
    fine = solve_picard(kernel, BASIS, trunc, grid)
    assert np.max(np.abs(coarse.coeffs - fine.coeffs)) < 1e-12


@pytest.mark.parametrize("horizon, uniform, layers", [(1.0, 6, 12), (0.7, 3, 5), (2.5, 7, 1), (1e-3, 1, 20)])
def test_collocation_mesh_edges(horizon, uniform, layers):
    grid = sde._CollocationGrid(horizon, uniform, layers, 4)
    h = horizon / uniform
    assert grid.panels == uniform + layers == len(grid.edges) - 1
    assert np.all(np.diff(grid.edges) > 0)
    assert grid.edges[0] == 0.0 and grid.edges[-1] == horizon
    assert grid.edges[1] == pytest.approx(h * sde._RATIO**layers, rel=1e-15)
    np.testing.assert_allclose(grid.edges[layers + 1 :], h * np.arange(1, uniform + 1), rtol=1e-15)


BAD_TIMES = [(kernel, bad) for kernel in (brownian_kernel(1.0), fbm_kernel_spec(0.75, 1.0)) for bad in (1.5, math.nan, -0.1)]
BAD_TIME_IDS = [f"{kernel}-{bad}" for kernel in ("brownian", "fbm") for bad in ("late", "nan", "negative")]


@pytest.mark.parametrize("kernel, bad", BAD_TIMES, ids=BAD_TIME_IDS)
def test_picard_checks_the_times_before_building_the_operator(monkeypatch, kernel, bad):
    def unreachable(*args):
        raise AssertionError("m~ taken at the collocation nodes before the times were checked")

    monkeypatch.setattr(sde, "_kernel_at_nodes", unreachable)
    with pytest.raises(DomainError):
        solve_picard(kernel, BASIS, Truncation(2, 2), [0.0, bad])


@pytest.mark.parametrize("shape", [(16, 6), (1, 100_000)])
def test_picard_refuses_a_collocation_array_over_the_budget(monkeypatch, shape):
    # fBm: S x 18 panels x 20 nodes, 26.9M entries at (16, 6), 36.0M at (1, 100000), where the truncation
    # itself is within the budget; refused before m~ is taken at the nodes
    def unreachable(*args):
        raise AssertionError("m~ taken at the collocation nodes before the collocation array was checked")

    monkeypatch.setattr(sde, "_kernel_at_nodes", unreachable)
    with pytest.raises(ConfigurationError, match="Picard on 18 panels of 20 needs"):
        solve_picard(fbm_kernel_spec(0.75, 1.0), BASIS, Truncation(*shape), [0.0, 1.0])


def test_picard_refuses_a_brownian_collocation_array_over_the_budget_on_six_panels(monkeypatch):
    # Brownian motion takes 6 panels: (16, 6) is 8.95M entries, inside the budget, and (1, 200000) 24.0M
    def unreachable(*args):
        raise AssertionError("m~ taken at the collocation nodes before the collocation array was checked")

    monkeypatch.setattr(sde, "_kernel_at_nodes", unreachable)
    with pytest.raises(ConfigurationError, match="^Picard on 6 panels of 20 needs 24000120 table entries"):
        solve_picard(brownian_kernel(1.0), BASIS, Truncation(1, 200_000), [0.0, 1.0])


@pytest.mark.parametrize("kernel, bad", BAD_TIMES, ids=BAD_TIME_IDS)
def test_closed_form_and_m_tilde_reject_a_time_off_the_horizon(kernel, bad):
    # fBm M~ once returned 0 for a NaN or negative t
    with pytest.raises(DomainError):
        solve_closed_form(kernel, BASIS, Truncation(2, 2), [0.5, bad])
    with pytest.raises(DomainError):
        m_tilde(kernel, BASIS, 2, bad)


def _peak_of_a_warm_picard_solve(kernel, shape, points):
    args = (kernel, BASIS, Truncation(*shape), np.linspace(0.0, 1.0, points))
    solve_picard(*args)  # warm the index tables and the M~ memo
    tracemalloc.start()
    try:
        solve_picard(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_picard_peak_memory():
    # eight dense (360, 360) integration matrices alone would take 8.3 MB; 2.5 MB measured
    peak = _peak_of_a_warm_picard_solve(brownian_kernel(1.0), (8, 4), 257)
    assert peak <= 10e6, peak


def test_picard_peak_memory_fbm():
    # 1.9 MB measured
    peak = _peak_of_a_warm_picard_solve(fbm_kernel_spec(0.7, 1.0), (6, 4), 129)
    assert peak <= 4e6, peak


def test_picard_peak_memory_stays_in_blocks_of_output_times():
    # one dense (times, panels x nodes) interpolation matrix was 36.0M entries here, a 343 MB peak;
    # the output, 100 001 x 2, is 1.6 MB, and 4.8 MB measured in all
    peak = _peak_of_a_warm_picard_solve(brownian_kernel(1.0), (1, 1), 100_001)
    assert peak <= 10e6, peak


def test_second_moment_monotone_in_order():
    kernel = brownian_kernel(1.0)
    values = [
        solve_closed_form(kernel, BASIS, Truncation(4, n), [1.0]).second_moment(1.0)
        for n in range(1, 7)
    ]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(math.e, abs=1e-2)


@pytest.mark.parametrize(
    "modes, order, t, z_shape",
    [
        (4, 5, 0.7, (20, 4)),
        (16, 3, 0.7, (20, 16)),
        (4, 20, 0.7, (20, 4)),
        (4, 5, 0.0, (20, 4)),  # M~(0) = 0: only the order-0 term is left
        (4, 5, 0.7, (20, 7)),  # columns past the mode count are not read
        (4, 5, 0.7, (4,)),  # one sample gives a float
        (4, 0, 0.7, (20, 4)),
    ],
    ids=["4-5", "16-3", "4-20", "c-zero", "extra-columns", "one-sample", "order-0"],
)
def test_sample_matches_chaos_eval(modes, order, t, z_shape):
    sol = solve_closed_form(brownian_kernel(1.0), BASIS, Truncation(modes, order), [0.0, 0.7])
    z = np.random.default_rng(9).standard_normal(z_shape)
    direct = chaos_eval(at(sol, t), z)
    fast = sol.sample(t, z)
    assert type(fast) is type(direct)
    assert fast == pytest.approx(direct, rel=1e-12)


def test_sample_wick_exponential_scalar():
    c = np.array([0.5])
    z = np.array([1.2])
    # sum_{n<=N} c^n H_n(z) / n! with N large approximates exp(cz - c^2/2); 200! overflows a float
    for order in (40, 200):
        val = sample_wick_exponential(c, z, order)
        assert val == pytest.approx(math.exp(0.5 * 1.2 - 0.125), rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sample_wick_exponential_rejects_non_finite_input(bad):
    c, z = np.array([0.5, -0.2]), np.array([[1.2, 0.3], [0.1, -0.7]])
    z_bad, c_bad = z.copy(), c.copy()
    z_bad[1, 1], c_bad[0] = bad, bad
    for args in ((c, z_bad), (c, z_bad[1]), (c_bad, z)):
        with pytest.raises(DomainError, match="finite"):
            sample_wick_exponential(*args, 3)
    sol = solve_closed_form(brownian_kernel(1.0), BASIS, Truncation(2, 3), [1.0])
    with pytest.raises(DomainError, match="finite"):
        sol.sample(1.0, z_bad)


def test_sample_wick_exponential_rejects_a_sample_without_mode_axis():
    with pytest.raises(DomainError, match=r"not an array of shape \(\)"):
        sample_wick_exponential(np.array([0.5]), np.array(1.2), 3)
    with pytest.raises(DomainError, match="shorter"):
        sample_wick_exponential(np.array([0.5, 0.1]), np.array([1.2]), 3)


@pytest.mark.parametrize("c", [np.array(0.5), np.ones((2, 2))], ids=["0-D", "2-D"])
def test_sample_wick_exponential_refuses_an_mtilde_row_that_is_not_a_vector(c):
    # len() of a 0-D row and float() of a 2-D row's c @ c escaped as TypeError
    with pytest.raises(DomainError, match="M~ values must be a finite vector"):
        sample_wick_exponential(c, np.zeros((3, 2)), 2)


@pytest.mark.parametrize("order", [-1, 2.5, True], ids=repr)
def test_sample_wick_exponential_refuses_an_order_that_is_not_a_non_negative_integer(order):
    # -1 summed no term and returned 1 for every sample; 2.5 raised a raw TypeError from range
    with pytest.raises(ConfigurationError, match="max_order must be an integer >= 0"):
        sample_wick_exponential(np.array([0.5]), np.array([[1.0], [2.0]]), order)


def test_export_csv(tmp_path):
    trunc = Truncation(2, 2)
    sol = solve_closed_form(brownian_kernel(1.0), BASIS, trunc, [0.0, 1.0])
    csv_path = tmp_path / "sol.csv"
    sidecar = tmp_path / "ids.json"
    sol.export_csv(csv_path, sidecar)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,alpha_id,coefficient"
    assert len(lines) == 1 + 2 * trunc.size()
    ids = json.loads(sidecar.read_text())
    assert ids["0"] == []  # zero multi-index
    assert len(ids) == trunc.size()


@pytest.mark.parametrize("field, bad", [("coeffs", math.inf), ("coeffs", math.nan), ("times", math.nan)])
def test_export_csv_refuses_non_finite_values_and_writes_nothing(field, bad, tmp_path):
    sol = solve_closed_form(brownian_kernel(1.0), BASIS, Truncation(2, 2), [0.0, 1.0])
    values = getattr(sol, field).copy()
    values.flat[-1] = bad
    csv_path, sidecar = tmp_path / "sol.csv", tmp_path / "ids.json"
    with pytest.raises(DomainError, match="finite"):
        dataclasses.replace(sol, **{field: values}).export_csv(csv_path, sidecar)
    assert list(tmp_path.iterdir()) == []
