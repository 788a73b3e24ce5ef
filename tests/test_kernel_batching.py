"""The mode- and row-batched kernel layer against the per-mode and per-column work it replaces.

fBm M~ computes every requested mode in one psi pass; each row must equal
the per-mode call bit for bit.  Every spec's M~ memo, whichever kernel,
must count one hit or miss per request and evict the least recently used.
``discretize_kstar`` reads K* from the kernel's ``kstar``: the derived one
evaluates K(t, s) for a block of rows s in one ``eval_ts`` call and must
equal the column-by-column loop it was first written as, bit for bit, since
``norm_estimate`` reads its bits.  fBm builds K* from tables of cell offsets,
with no cumulative sum to difference: its diagonal keeps the column loop's
bits, and the cells above it agree with the loop to roundoff.
"""

import tracemalloc

import numpy as np
import pytest

from chaosfield.basis import BasisFamily, _dot_rows, _leggauss, jacobi01
from chaosfield.kernels import (
    _KSTAR_BLOCK,
    brownian_kernel,
    discretize_kstar,
    fbm_c_h,
    fbm_kernel_spec,
)
from test_quadrature_vectorised import grid_kernel  # noqa: F401  (a fixture: K(t, s) = 1 + (t - s)^2 on a CSV grid)

BASES = [BasisFamily("cosine", 1.0), BasisFamily("legendre", 1.0)]


def ref_fbm_column(hurst, t_sorted, s):
    """K(t_i, s) for the fBm kernel: a singular first segment, then an incremental Gauss sum, one column."""
    c = fbm_c_h(hurst) * (hurst - 0.5)
    t_sorted = np.atleast_1d(np.asarray(t_sorted, dtype=float))
    out = np.zeros_like(t_sorted)
    above = t_sorted > s
    if not np.any(above):
        return out
    ts = t_sorted[above]
    vals = np.empty_like(ts)
    # the first segment by 48-node Gauss-Jacobi with the weight (tau - s)^(H - 3/2) built in
    gamma, length = hurst - 1.5, ts[0] - s
    v, w = jacobi01(48, 0.0, gamma)
    first = length ** (gamma + 1.0) * _dot_rows(w, (s + length * v) ** (hurst - 0.5))
    vals[0] = first
    if len(ts) > 1:
        x, w = _leggauss(6)
        lo, hi = ts[:-1], ts[1:]
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        nodes = mid[:, None] + half[:, None] * x[None, :]
        seg = np.sum((nodes - s) ** (hurst - 1.5) * nodes ** (hurst - 0.5) * w[None, :], axis=1) * half
        vals[1:] = first + np.cumsum(seg)
    out[above] = c * s ** (0.5 - hurst) * vals
    return out


def ref_discretize_kstar(column, horizon, n_grid):
    """The K* matrix one column call per row, as it was first assembled."""
    edges = np.linspace(0.0, horizon, n_grid + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    a = np.zeros((n_grid, n_grid))
    for i, s in enumerate(mids):
        kvals = column(edges[i + 1 :], s)
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


def ref_fbm_kstar(hurst, horizon, n_grid):
    return ref_discretize_kstar(lambda t, s: ref_fbm_column(hurst, t, s), horizon, n_grid)


# above the diagonal the offset build and the differenced cumulative sums differ by roundoff:
# at most 2.5e-14 of max|A| was measured (H 0.95, n 256)
KSTAR_REL = 4e-14


def assert_kstar_agrees(got, ref):
    """The diagonal and the zeros below it bit for bit; the cells above within KSTAR_REL of max|A|."""
    assert np.tril(got).tobytes() == np.tril(ref).tobytes()
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=KSTAR_REL * np.max(np.abs(ref)))


@pytest.mark.parametrize("n_grid", [1, 2, 127, 256, 3 * _KSTAR_BLOCK + 5])
@pytest.mark.parametrize("hurst", [0.55, 0.75, 0.95])
def test_fbm_kstar_bit_equal_to_column_loop(hurst, n_grid):
    # the diagonal and the zeros below it keep the column loop's bits; above it the offset build
    # has no cumulative sum to difference, so it agrees with the loop to roundoff
    for horizon in (1.0, 2.5):
        got = discretize_kstar(fbm_kernel_spec(hurst, horizon), n_grid)
        assert_kstar_agrees(got, ref_fbm_kstar(hurst, horizon, n_grid))


@pytest.mark.parametrize("n_grid", [1, 2, 127, 256])
def test_brownian_and_grid_kstar_bit_equal_to_column_loop(n_grid, grid_kernel):
    for kernel in (brownian_kernel(1.0), grid_kernel):
        ref = ref_discretize_kstar(lambda t, s: kernel.eval(np.atleast_1d(t), s), kernel.horizon, n_grid)
        assert discretize_kstar(kernel, n_grid).tobytes() == ref.tobytes(), kernel.name


def test_kstar_other_horizon_spans_several_blocks():
    n_grid = 3 * _KSTAR_BLOCK + 5
    assert_kstar_agrees(discretize_kstar(fbm_kernel_spec(0.8, 2.5), n_grid), ref_fbm_kstar(0.8, 2.5, n_grid))


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
