"""The Monte Carlo hot path against the work it replaces.

``sample_batch`` re-keys one Philox generator per row; it must give the
same bits as a fresh generator per row.  The fBm M~ memoises its
quadrature per (basis, mode, time grid); it must give the same bits as the
unmemoised quadrature, never hand out its stored table, and never share an
entry between different keys.
"""

import numpy as np
import pytest

from chaosfield import cli
from chaosfield.basis import BasisFamily
from chaosfield.kernels import _mtilde_table, fbm_kernel_spec, m_tilde
from chaosfield.mc import sample_batch, synthesize_paths
from chaosfield.multiindex import Truncation
from test_quadrature_vectorised import ref_fbm_mtilde

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


# ---------------------------------------------------------------------------
# fBm M~ memo


@pytest.mark.parametrize("basis", [COSINE, LEGENDRE], ids=lambda b: b.kind)
def test_memoised_table_bit_equal_to_unmemoised(basis):
    kernel = fbm_kernel_spec(0.75, 1.0)
    times = np.concatenate([np.linspace(0.0, 1.0, 33), [1e-9, 0.5]])
    ref = np.array([[ref_fbm_mtilde(kernel, basis, k, t) for k in range(1, 5)] for t in times])
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
                    ref = np.array([ref_fbm_mtilde(kernel, basis, k, t) for t in grid])
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
        assert first == again == table[-1, k - 1] == ref_fbm_mtilde(kernel, COSINE, k, 1.0)
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
