import math

import numpy as np
import pytest

from chaosfield.basis import BasisFamily
from chaosfield.chaos import ChaosExpansion, chaos_eval
from chaosfield.errors import ConfigurationError, DomainError
from chaosfield.kernels import brownian_kernel, fbm_kernel_spec
from chaosfield.mc import (
    _compare_values,
    SampleBatch,
    discrete_ito_batch,
    discrete_strat_batch,
    mc_compare,
    sample_batch,
    synthesize_paths,
)
from chaosfield.multiindex import MultiIndex, Truncation
from chaosfield.verify import fbm_covariance


def test_sample_batch_reproducible():
    a = sample_batch(123, 8, 3)
    b = sample_batch(123, 8, 3)
    assert np.array_equal(a.z, b.z)
    assert a.seed == 123 and a.n_samples == 8 and a.modes == 3


def test_sample_batch_rows_independent_of_batch_size():
    # row i depends only on (seed, i), so growing the batch keeps old rows
    small = sample_batch(7, 4, 5)
    large = sample_batch(7, 16, 5)
    assert np.array_equal(small.z, large.z[:4])


def test_sample_batch_stats():
    batch = sample_batch(99, 20000, 2)
    assert abs(np.mean(batch.z)) < 0.02
    assert abs(np.std(batch.z) - 1.0) < 0.02


def test_sample_batch_rejects_bad_shape():
    with pytest.raises(DomainError):
        sample_batch(0, 0, 1)
    with pytest.raises(DomainError):
        sample_batch(0, 1, 0)


@pytest.mark.parametrize("n, modes", [(2.5, 3), (3, 2.5), (True, 3), (3, True), (np.float64(2.0), 3)])
def test_sample_batch_refuses_a_count_that_is_not_an_integer(n, modes):
    # refused like a count below one, not left to np.empty's TypeError; a bool is not a count
    with pytest.raises(DomainError, match="must be an integer >= 1"):
        sample_batch(1, n, modes)
    assert sample_batch(1, np.int64(3), np.int64(2)).z.tobytes() == sample_batch(1, 3, 2).z.tobytes()


@pytest.mark.parametrize("seed", [2**64, math.nan])
def test_sample_batch_refuses_a_seed_outside_uint64(seed):
    with pytest.raises(DomainError, match="seed"):
        sample_batch(seed, 2, 2)
    assert sample_batch(2**64 - 1, 2, 2).z.shape == (2, 2)


@pytest.mark.parametrize("seed", [1.5, True, np.float64(2.0)], ids=["float", "bool", "numpy-float"])
def test_sample_batch_refuses_a_seed_that_is_not_an_integer(seed):
    # 1.5 used to be truncated into the key, and returned the rows of seed 1
    with pytest.raises(DomainError, match="integer"):
        sample_batch(seed, 2, 2)
    assert sample_batch(np.int64(2), 2, 2).z.tobytes() == sample_batch(2, 2, 2).z.tobytes()


@pytest.mark.parametrize(
    "z",
    [np.zeros(4), np.zeros((2, 2, 2)), np.zeros((0, 4)), np.zeros((3, 0)), [[0.1, np.nan]], [[np.inf]]],
    ids=["1-D", "3-D", "no-rows", "no-columns", "nan", "inf"],
)
def test_sample_batch_rejects_a_z_that_is_not_a_finite_nonempty_matrix(z):
    # a 1-D z used to die in synthesize_paths (IndexError on .modes) and to count as
    # 4 samples in mc_compare while chaos_eval read it as one sample of 4 modes
    with pytest.raises(DomainError, match="2-D"):
        SampleBatch(0, z)


def test_synthesize_path_zero_sample():
    kernel = brownian_kernel(1.0)
    basis = BasisFamily("cosine", 1.0)
    path = synthesize_paths(kernel, basis, Truncation(4, 1), SampleBatch(0, np.zeros((1, 4))), [0.0, 0.5, 1.0])
    assert np.allclose(path, 0.0)


def test_synthesize_path_brownian_endpoint():
    # at t = T only M_1(T) = sqrt(T) survives, so X(T) = sqrt(T) z_1
    kernel = brownian_kernel(1.0)
    basis = BasisFamily("cosine", 1.0)
    z = np.array([1.7, -0.3, 0.4, 2.0])
    path = synthesize_paths(kernel, basis, Truncation(4, 1), SampleBatch(0, z[None]), [1.0])
    assert path[0, 0] == pytest.approx(1.7, abs=1e-12)


def test_synthesize_paths_rejects_a_batch_narrower_than_the_modes():
    basis = BasisFamily("cosine", 1.0)
    with pytest.raises(DomainError, match="mode count"):
        synthesize_paths(brownian_kernel(1.0), basis, Truncation(4, 1), sample_batch(0, 3, 2), [0.5, 1.0])


def test_synthesized_variance_tracks_covariance():
    # sample variance of X(t) approaches R(t, t) for enough modes and samples
    hurst = 0.75
    kernel = fbm_kernel_spec(hurst, 1.0)
    basis = BasisFamily("cosine", 1.0)
    trunc = Truncation(16, 1)
    batch = sample_batch(2024, 4000, 16)
    paths = synthesize_paths(kernel, basis, trunc, batch, [0.5, 1.0])
    analytic = fbm_covariance(hurst)
    for col, t in enumerate((0.5, 1.0)):
        assert np.var(paths[:, col]) == pytest.approx(analytic(t, t), rel=0.08)


def test_discrete_integrators_deterministic_cases():
    grid = np.linspace(0.0, 1.0, 101)
    y = grid.copy()
    # int_0^1 t dt = 1/2: midpoint rule is exact, left point has O(h) bias
    assert discrete_strat_batch(grid, y) == pytest.approx(0.5, abs=1e-14)
    assert discrete_ito_batch(grid, y) == pytest.approx(0.5 - 0.005, abs=1e-14)


def test_discrete_integrator_identity():
    # sum x dx relations: strat gives (x_N^2 - x_0^2)/2 exactly by telescoping
    rng = np.random.default_rng(2)
    x = np.cumsum(rng.standard_normal(200))
    assert discrete_strat_batch(x, x) == pytest.approx((x[-1] ** 2 - x[0] ** 2) / 2, rel=1e-12)
    qv = float(np.sum(np.diff(x) ** 2))
    assert discrete_ito_batch(x, x) == pytest.approx((x[-1] ** 2 - x[0] ** 2) / 2 - qv / 2, rel=1e-12)


def test_paths_shape_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        discrete_ito_batch(np.zeros(5), np.zeros(6))


def test_mc_compare_exact_match_passes():
    batch = sample_batch(1, 50, 2)
    f = ChaosExpansion(Truncation(2, 1), {MultiIndex.eps(1): 2.0, MultiIndex.zero(): 1.0})
    oracle = 1.0 + 2.0 * batch.z[:, 0]
    report = mc_compare(f, oracle, batch)
    assert report["pass"] is True
    assert report["statistic"] == 0.0
    assert report["seed"] == 1 and report["n"] == 50


def test_mc_compare_detects_bias():
    batch = sample_batch(1, 2000, 1)
    f = ChaosExpansion(Truncation(1, 0), {MultiIndex.zero(): 1.0})
    oracle = np.zeros(2000)  # chaos mean 1 vs oracle 0: off by ~ infinity sigma
    report = mc_compare(f, oracle, batch)
    assert report["pass"] is False
    assert report["statistic"] == pytest.approx(1.0)


def test_mc_compare_shape_check():
    batch = sample_batch(1, 10, 1)
    f = ChaosExpansion(Truncation(1, 0))
    with pytest.raises(ConfigurationError):
        mc_compare(f, np.zeros(9), batch)


def test_strat_sum_matches_chaos_oracle():
    # midpoint sums of the truncated Brownian path reproduce the Stratonovich
    # chaos integral (W_K(T)^2)/2 sample by sample up to the telescoping error
    from chaosfield.chaos import HValuedChaos, chaos_eval
    from chaosfield.integrals import brownian_path_integrand, strat_integral

    basis = BasisFamily("cosine", 1.0)
    trunc = Truncation(4, 2)
    eta = brownian_path_integrand(trunc, basis)
    f = strat_integral(eta)
    kernel = brownian_kernel(1.0)
    batch = sample_batch(10, 64, 4)
    grid = np.linspace(0.0, 1.0, 513)
    paths = synthesize_paths(kernel, basis, trunc, batch, grid)
    sums = discrete_strat_batch(paths, paths)
    vals = chaos_eval(f, batch.z)
    assert np.max(np.abs(sums - vals)) < 1e-12


def test_mc_compare_passes_agreement_to_roundoff():
    # a one-ulp, one-sided bias: stderr is roundoff too, so a pure 3-sigma
    # t-test rejects it, and the roundoff floor must not
    batch = sample_batch(5, 1000, 2)
    f = ChaosExpansion(
        Truncation(2, 1), {MultiIndex.zero(): 1.0, MultiIndex.eps(1): 0.5, MultiIndex.eps(2): -0.3}
    )
    values = chaos_eval(f, batch.z)
    report = mc_compare(f, np.nextafter(values, np.inf), batch)
    assert abs(report["statistic"]) > 3.0 * report["stderr"]
    assert report["pass"] is True
    assert 0.0 < report["roundoff_floor"] < 1e-14
    assert report["tolerance"] == report["roundoff_floor"]
    # a noiseless constant offset far above roundoff still fails
    report = mc_compare(f, values + 1e-12, batch)
    assert report["pass"] is False
    assert report["statistic"] == pytest.approx(-1e-12, rel=1e-3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mc_compare_rejects_nonfinite_oracle(bad):
    batch = sample_batch(1, 20, 1)
    f = ChaosExpansion(Truncation(1, 1), {MultiIndex.eps(1): 1.0})
    oracle = batch.z[:, 0].copy()
    oracle[7] = bad
    with pytest.raises(DomainError):
        mc_compare(f, oracle, batch)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mc_compare_rejects_nonfinite_chaos_values(bad):
    # a non-finite coefficient is refused where the expansion is built; values that are not finite
    # (a solution's samples, compared without an expansion) are refused by the comparison itself
    batch = sample_batch(1, 20, 1)
    with pytest.raises(DomainError, match="chaos coefficients must be finite"):
        mc_compare(ChaosExpansion(Truncation(1, 1), {MultiIndex.zero(): bad}), np.zeros(20), batch)
    with pytest.raises(DomainError, match="chaos and oracle values must be finite"):
        _compare_values(np.full(20, bad), np.zeros(20), batch)


def test_discrete_sums_of_one_path_are_row_0_of_the_batch():
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal((3, 257)), rng.standard_normal((3, 257))
    assert discrete_ito_batch(x[0], y[0]) == discrete_ito_batch(x, y)[0]
    assert discrete_strat_batch(x[0], y[0]) == discrete_strat_batch(x, y)[0]
