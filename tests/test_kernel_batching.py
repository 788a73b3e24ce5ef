"""The mode- and row-batched kernel layer against the per-mode and per-column work it replaces.

fBm M~ computes every requested mode in one psi pass; each row must equal
the per-mode call bit for bit.  Every spec's M~ memo, whichever kernel,
must count one hit or miss per request and evict the least recently used.
``discretize_kstar`` reads K* from the kernel's ``kstar``: the derived one
evaluates K(t, s) for a block of rows s in one ``eval_ts`` call and must
equal the column-by-column loop over ``eval`` it was first written as, bit
for bit, since ``norm_estimate`` reads its bits.  fBm's ``kstar`` takes the
same differences of ``eval`` on the diagonal and the two offsets above it,
with the loop's bits, and six-node Gauss sums from tables of cell offsets
further out, which agree with the loop to roundoff.
"""

import tracemalloc

import numpy as np
import pytest

from chaosfield.basis import BasisFamily
from chaosfield.kernels import (
    _KSTAR_BLOCK,
    _KSTAR_EXACT_OFFSETS,
    brownian_kernel,
    discretize_kstar,
    fbm_kernel_spec,
)
from test_quadrature_vectorised import grid_kernel  # noqa: F401  (a fixture: K(t, s) = 1 + (t - s)^2 on a CSV grid)

BASES = [BasisFamily("cosine", 1.0), BasisFamily("legendre", 1.0)]


def ref_discretize_kstar(kernel, n_grid):
    """The K* matrix one ``eval`` column per row, as it was first assembled.

    s_r goes in as an array, as every ``kstar`` passes it: numpy's power of a
    scalar can differ from its array power in the last bit.
    """
    edges = np.linspace(0.0, kernel.horizon, n_grid + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    a = np.zeros((n_grid, n_grid))
    for i, s in enumerate(mids):
        kvals = kernel.eval(edges[i + 1 :], np.full(n_grid - i, s))
        a[i, i] = kvals[0]
        if len(kvals) > 1:
            a[i, i + 1 :] = np.diff(kvals)
    return a


# ---------------------------------------------------------------------------
# M~ over all modes at once


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.kind)
@pytest.mark.parametrize("hurst", [0.6, 0.9])
def test_mtilde_of_all_modes_bit_equal_to_per_mode_calls(basis, hurst):
    times = np.concatenate([np.linspace(0.0, 1.0, 41), [1e-9, 0.37]])
    modes = list(range(1, 9))
    together = fbm_kernel_spec(hurst, 1.0)
    got = together.mtilde(basis, modes, times)
    assert got.shape == (len(modes), len(times)) and not got.flags.writeable
    assert (together._mtilde_memo.cache_info().misses, together._mtilde_memo.cache_info().hits) == (1, 0)
    alone = fbm_kernel_spec(hurst, 1.0)
    for k, row in zip(modes, got):
        assert row.tobytes() == alone.mtilde(basis, k, times).tobytes(), k
    assert alone._mtilde_memo.cache_info().misses == 8
    # a request for some stored modes and a new one is a request of its own, with the same rows
    again = together.mtilde(basis, [3, 9, 1], times)
    assert again[0].tobytes() == got[2].tobytes() and again[2].tobytes() == got[0].tobytes()
    assert again[1].tobytes() == alone.mtilde(basis, 9, times).tobytes()
    info = together._mtilde_memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 2)


def check_lru_eviction(kernel, basis):
    # one request per mode fills the memo; re-reading mode 1 leaves mode 2's request the oldest
    times = np.linspace(0.0, 1.0, 5)
    size = kernel._mtilde_memo.cache_info().maxsize
    for k in range(1, size + 1):
        kernel.mtilde(basis, k, times)
    kernel.mtilde(basis, 1, times)
    kernel.mtilde(basis, size + 1, times)
    assert kernel._mtilde_memo.cache_info().currsize == size
    kernel.mtilde(basis, 1, times)
    kernel.mtilde(basis, 2, times)
    info = kernel._mtilde_memo.cache_info()
    assert (info.hits, info.misses) == (2, size + 2)


def test_mtilde_memo_evicts_the_least_recently_used_mode():
    check_lru_eviction(fbm_kernel_spec(0.75, 1.0), BASES[0])


@pytest.mark.parametrize("name", ["brownian", "grid"])
def test_other_kernels_stack_their_per_mode_rows(name, grid_kernel):
    kernel = brownian_kernel(1.0) if name == "brownian" else grid_kernel  # each test's own: its memo starts empty
    times = np.linspace(0.1, 1.0, 7)
    for basis in BASES:
        got = kernel.mtilde(basis, (1, 2, 3), times)
        assert got.shape == (3, len(times))
        for k, row in zip((1, 2, 3), got):
            assert row.tobytes() == kernel.mtilde(basis, k, times).tobytes()
            assert row.tobytes() == kernel._mtilde(basis, [k], times)[0].tobytes()
    info = kernel._mtilde_memo.cache_info()
    assert (info.misses, info.hits, info.currsize) == (8, 0, 8)


@pytest.mark.parametrize("name", ["brownian", "grid"])
def test_other_kernels_memo_evicts_the_least_recently_used_mode(name, grid_kernel):
    check_lru_eviction(brownian_kernel(1.0) if name == "brownian" else grid_kernel, BASES[1])


# ---------------------------------------------------------------------------
# K* in row blocks


# fBm K* beyond offset 2 is six-node Gauss sums, within these fractions of max|A| of K's differences:
# 4.6e-14 was measured for H 0.55-0.95 and up to 5.6e-13 for H 0.51-0.999 (n <= 256)
KSTAR_REL = {0.51: 1e-12, 0.55: 1e-13, 0.75: 1e-13, 0.8: 1e-13, 0.95: 1e-13, 0.99: 1e-12, 0.999: 1e-12}


def assert_kstar_agrees(got, ref, hurst):
    """Offsets 0-2 and the zeros below them bit for bit; the cells further out within KSTAR_REL[hurst] of max|A|."""
    exact = _KSTAR_EXACT_OFFSETS
    assert np.tril(got, exact - 1).tobytes() == np.tril(ref, exact - 1).tobytes()
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=KSTAR_REL[hurst] * np.max(np.abs(ref)))


@pytest.mark.parametrize("n_grid", [1, 2, 127, 256, 3 * _KSTAR_BLOCK + 5])
@pytest.mark.parametrize("hurst", [0.51, 0.55, 0.75, 0.95, 0.99, 0.999])
def test_fbm_kstar_bit_equal_to_column_loop(hurst, n_grid):
    # next to the diagonal both take K's own differences; further out the Gauss sums agree to roundoff
    for horizon in (1.0, 2.5):
        kernel = fbm_kernel_spec(hurst, horizon)
        assert_kstar_agrees(discretize_kstar(kernel, n_grid), ref_discretize_kstar(kernel, n_grid), hurst)


@pytest.mark.parametrize("n_grid", [1, 2, 127, 256])
def test_brownian_and_grid_kstar_bit_equal_to_column_loop(n_grid, grid_kernel):
    for kernel in (brownian_kernel(1.0), grid_kernel):
        assert discretize_kstar(kernel, n_grid).tobytes() == ref_discretize_kstar(kernel, n_grid).tobytes(), kernel.name


def test_kstar_other_horizon_spans_several_blocks():
    kernel, n_grid = fbm_kernel_spec(0.8, 2.5), 3 * _KSTAR_BLOCK + 5
    assert_kstar_agrees(discretize_kstar(kernel, n_grid), ref_discretize_kstar(kernel, n_grid), 0.8)


def test_fbm_kstar_temporaries_stay_near_1_mb():
    n_grid = 512
    kernel = fbm_kernel_spec(0.7, 1.0)
    discretize_kstar(kernel, 8)  # the 6-point Gauss-Legendre rule is cached from here on
    tracemalloc.start()
    try:
        a = discretize_kstar(kernel, n_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.shape == (n_grid, n_grid)
    assert peak < a.nbytes + 2**20, peak


@pytest.mark.parametrize("name", ["brownian", "fbm", "grid"])
def test_eval_ts_with_an_array_of_s_equals_per_s_calls(name, grid_kernel):
    kernel = {"brownian": brownian_kernel(1.0), "fbm": fbm_kernel_spec(0.7, 1.0), "grid": grid_kernel}[name]
    t = np.linspace(0.0, 1.0, 23)[1:]
    s = np.array([0.01, 0.3, 0.5, 0.95, 1.0, 0.3])  # s = 1: no t above it; s repeated
    got = kernel.eval_ts(t, s)
    assert got.shape == (len(s), len(t))
    for row, x in zip(got, s):
        assert row.tobytes() == kernel.eval_ts(t, x).tobytes(), x
    if name == "fbm":
        # the column of eval's series, 0 where t <= s
        for x in s:
            assert kernel.eval_ts(t, x).tobytes() == np.where(t > x, kernel.eval(np.maximum(t, x), x), 0.0).tobytes(), x
        assert kernel.eval_ts(t[:0], s).shape == (len(s), 0)
