"""The Monte Carlo hot path against the work it replaces.

``sample_batch`` re-keys one Philox generator per row; it must give the
same bits as a fresh generator per row.  The discrete-time estimators sum
in row blocks; they must give the same bits as the one-shot sums.  The fBm
M~ memoises its quadrature per (basis, mode, time grid); it must give the
same bits as the unmemoised quadrature, never hand out its stored table,
and never share an entry between different keys.
"""

import tracemalloc

import numpy as np
import pytest

from chaosfield import cli
from chaosfield.basis import BasisFamily
from chaosfield.errors import DomainError
from chaosfield.kernels import _mtilde_table, fbm_kernel_spec, m_tilde
from chaosfield.mc import discrete_ito_batch, discrete_strat_batch, sample_batch, synthesize_paths
from chaosfield.multiindex import Truncation
from test_quadrature_vectorised import ref_fbm_mtilde_sum

COSINE, LEGENDRE = BasisFamily("cosine", 1.0), BasisFamily("legendre", 1.0)


def ref_sample_batch(seed, n, modes):
    """One freshly keyed Philox generator per row, as rows were first drawn."""
    z = np.empty((n, modes))
    for i in range(n):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        z[i] = rng.standard_normal(modes)
    return z


# ---------------------------------------------------------------------------
# sampler


@pytest.mark.parametrize("seed", [0, 7, 2**62 - 1, 2**64 - 1])
@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (6, 1), (3, 40), (2000, 16)])
def test_sample_batch_bit_equal_to_generator_per_row(seed, shape):
    z = sample_batch(seed, *shape).z
    assert z.shape == shape
    assert z.tobytes() == ref_sample_batch(seed, *shape).tobytes()


@pytest.mark.parametrize("seed", [3, 2**64 - 1])
def test_sample_batch_row_same_for_any_batch_size(seed):
    # rows are keyed by (seed, i): row i reads the same from every batch that holds it
    large = sample_batch(seed, 300, 7).z
    for n in (1, 2, 17, 299):
        assert np.array_equal(sample_batch(seed, n, 7).z, large[:n])
    assert np.array_equal(sample_batch(seed, 300, 3).z, large[:, :3])


def test_sample_batch_numpy_seed_same_bits_as_int():
    assert sample_batch(np.uint64(5), 40, 6).z.tobytes() == sample_batch(5, 40, 6).z.tobytes()


def test_sample_batch_negative_seed_refused():
    # a key outside uint64 is refused before any row is drawn
    with pytest.raises(DomainError, match="seed"):
        sample_batch(-1, 4, 3)


# ---------------------------------------------------------------------------
# discrete-time estimators in row blocks


def ref_ito(x, y):
    return np.sum(x[..., :-1] * np.diff(y, axis=-1), axis=-1)


def ref_strat(x, y):
    return np.sum(0.5 * (x[..., :-1] + x[..., 1:]) * np.diff(y, axis=-1), axis=-1)


ESTIMATORS = [(discrete_ito_batch, ref_ito), (discrete_strat_batch, ref_strat)]


def brownian_paths(shape, seed=11):
    steps = np.random.default_rng(seed).standard_normal(shape) * 0.0625
    return np.cumsum(steps, axis=-1), np.cumsum(steps[..., ::-1], axis=-1)


@pytest.mark.parametrize("estimator, ref", ESTIMATORS, ids=["ito", "strat"])
@pytest.mark.parametrize("rows", [1, 63, 64, 65, 129, 2000])
def test_blocked_sums_bit_equal_to_one_shot(estimator, ref, rows):
    x, y = brownian_paths((rows, 257))
    got = estimator(x, y)
    assert got.shape == (rows,)
    assert got.tobytes() == ref(x, y).tobytes()
    assert estimator(x, x).tobytes() == ref(x, x).tobytes()


@pytest.mark.parametrize("estimator, ref", ESTIMATORS, ids=["ito", "strat"])
def test_blocked_sums_keep_the_shape_contract(estimator, ref):
    x, y = brownian_paths((3, 5, 257))
    got = estimator(x, y)
    assert got.shape == (3, 5)
    assert got.tobytes() == ref(x, y).tobytes()
    one = estimator(x[0, 0], y[0, 0])  # a 1-D path gives a numpy scalar, not a 0-d array
    assert type(one) is np.float64
    assert one == got[0, 0] == ref(x[0, 0], y[0, 0])
    empty = estimator(np.zeros((0, 257)), np.zeros((0, 257)))
    assert empty.shape == (0,)
    point = estimator(x[0, :, :1], y[0, :, :1])  # a 1-point grid has no increments
    assert point.tobytes() == np.zeros(5).tobytes()


def test_strat_sum_peak_memory_stays_in_row_blocks():
    x, _ = brownian_paths((2000, 257))
    discrete_strat_batch(x, x)  # warm
    tracemalloc.start()
    try:
        discrete_strat_batch(x, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000  # one shot: four 2000 x 256 temporaries, 8.3 MB


# ---------------------------------------------------------------------------
# fBm M~ memo


@pytest.mark.parametrize("basis", [COSINE, LEGENDRE], ids=lambda b: b.kind)
def test_memoised_table_bit_equal_to_unmemoised(basis):
    kernel = fbm_kernel_spec(0.75, 1.0)
    times = np.concatenate([np.linspace(0.0, 1.0, 33), [1e-9, 0.5]])
    ref = np.array([[ref_fbm_mtilde_sum(kernel, basis, k, t) for k in range(1, 5)] for t in times])
    first = _mtilde_table(kernel, basis, 4, times)  # misses
    second = _mtilde_table(kernel, basis, 4, times)  # hits
    assert first.tobytes() == ref.tobytes()
    assert second.tobytes() == ref.tobytes()
    info = kernel.mtilde.cache_info()
    assert (info.misses, info.hits) == (4, 4)


def test_mutating_a_returned_table_leaves_the_memo_alone():
    kernel, times = fbm_kernel_spec(0.7, 1.0), np.linspace(0.1, 1.0, 10)
    got = kernel.mtilde(COSINE, 2, times)
    expected = got.copy()
    got[:] = -1.0
    again = kernel.mtilde(COSINE, 2, times)
    assert again.flags.writeable
    assert again.tobytes() == expected.tobytes()
    table = _mtilde_table(kernel, COSINE, 2, times)
    table *= 3.0
    assert _mtilde_table(kernel, COSINE, 2, times)[:, 1].tobytes() == expected.tobytes()
    info = kernel.mtilde.cache_info()
    assert (info.misses, info.hits) == (2, 4)  # mode 2 once, mode 1 once (tables hold modes 1 and 2)


def test_memo_keys_never_shared():
    times = np.linspace(0.0, 1.0, 9)
    shifted = times.copy()
    shifted[3] = np.nextafter(shifted[3], 1.0)  # one ulp apart
    low, high = fbm_kernel_spec(0.6, 1.0), fbm_kernel_spec(0.9, 1.0)
    for kernel in (low, high):
        for basis in (COSINE, LEGENDRE):
            for grid in (times, shifted, times[:5]):
                for k in (1, 2, 3):
                    got = kernel.mtilde(basis, k, grid)
                    ref = np.array([ref_fbm_mtilde_sum(kernel, basis, k, t) for t in grid])
                    assert got.tobytes() == ref.tobytes()
    # 2 bases x 3 grids x 3 modes per spec, each computed once in its own spec's memo
    for kernel in (low, high):
        assert kernel.mtilde.cache_info().misses == 18
        assert kernel.mtilde.cache_info().hits == 0
    assert low.mtilde(COSINE, 2, times).tobytes() != high.mtilde(COSINE, 2, times).tobytes()


def test_scalar_m_tilde_after_a_memo_hit():
    kernel, grid = fbm_kernel_spec(0.75, 1.0), np.linspace(0.0, 1.0, 17)
    table = _mtilde_table(kernel, COSINE, 5, grid)
    for k in range(1, 6):
        first = m_tilde(kernel, COSINE, k, 1.0)
        again = m_tilde(kernel, COSINE, k, 1.0)  # a hit on the one-point key
        assert type(again) is float
        assert first == again == table[-1, k - 1] == ref_fbm_mtilde_sum(kernel, COSINE, k, 1.0)
    info = kernel.mtilde.cache_info()
    assert (info.misses, info.hits) == (10, 5)


def test_repeated_path_synthesis_computes_mtilde_once():
    kernel, grid = fbm_kernel_spec(0.75, 1.0), np.linspace(0.0, 1.0, 65)
    trunc = Truncation(6, 2)
    for seed in (1, 2, 3):
        synthesize_paths(kernel, COSINE, trunc, sample_batch(seed, 20, 6), grid)
    info = kernel.mtilde.cache_info()
    assert (info.misses, info.hits) == (6, 12)


def test_sde_command_computes_each_mode_once(tmp_path, capsys, monkeypatch):
    # closed form and Picard share the grid, so each mode's quadrature runs once
    specs = []

    def recording_spec(*args, **kwargs):
        specs.append(fbm_kernel_spec(*args, **kwargs))
        return specs[-1]

    monkeypatch.setattr(cli, "fbm_kernel_spec", recording_spec)
    argv = ["sde", "--kernel", "fbm", "--hurst", "0.7", "--modes", "3", "--order", "2"]
    assert cli.main(argv + ["--grid", "16", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    (kernel,) = specs
    info = kernel.mtilde.cache_info()
    assert (info.misses, info.hits) == (3, 3)


def test_memo_hit_skips_the_time_check(monkeypatch):
    kernel, grid = fbm_kernel_spec(0.75, 1.0), np.linspace(0.0, 1.0, 33)
    warm = _mtilde_table(kernel, COSINE, 4, grid)
    calls = []
    check = BasisFamily._check

    def counting_check(self, t):
        calls.append(t)
        return check(self, t)

    monkeypatch.setattr(BasisFamily, "_check", counting_check)
    assert _mtilde_table(kernel, COSINE, 4, grid).tobytes() == warm.tobytes()
    assert calls == []
    info = kernel.mtilde.cache_info()
    assert (info.misses, info.hits) == (4, 4)
    _mtilde_table(kernel, COSINE, 5, grid)  # mode 5 misses: the times are checked again
    assert len(calls) >= 1
    info = kernel.mtilde.cache_info()
    assert (info.misses, info.hits) == (5, 8)


@pytest.mark.parametrize("t", [float("nan"), -0.1])
def test_bad_time_refused_on_a_warm_spec(t):
    kernel = fbm_kernel_spec(0.75, 1.0)
    _mtilde_table(kernel, COSINE, 3, np.linspace(0.0, 1.0, 9))
    m_tilde(kernel, COSINE, 1, 0.5)
    before = kernel.mtilde.cache_info()
    with pytest.raises(DomainError):
        m_tilde(kernel, COSINE, 1, t)
    with pytest.raises(DomainError):
        kernel.mtilde(COSINE, [1, 2], np.array([0.5, t]))
    assert kernel.mtilde.cache_info() == before  # a refused call counts and stores nothing


@pytest.mark.parametrize("modes", [0, [0, 1], [2, -1]])
def test_mode_below_one_refused(modes):
    # a mode below 1 would otherwise index the basis rows from the end
    kernel = fbm_kernel_spec(0.75, 1.0)
    with pytest.raises(DomainError, match="k must be >= 1"):
        kernel.mtilde(COSINE, modes, np.linspace(0.0, 1.0, 5))
    assert kernel.mtilde.cache_info().misses == 0


@pytest.mark.parametrize("hurst", [0.55, 0.63, 0.75, 0.9, 0.95])
def test_mtilde_quadrature_bit_equal_to_scalar_sum(hurst):
    kernel, times = fbm_kernel_spec(hurst, 1.0), np.linspace(0.0, 1.0, 65)
    got = kernel.mtilde(COSINE, range(1, 9), times)
    ref = np.array([[ref_fbm_mtilde_sum(kernel, COSINE, k, t) for t in times] for k in range(1, 9)])
    assert got.tobytes() == ref.tobytes()
