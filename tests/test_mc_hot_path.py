"""The Monte Carlo hot path against the work it replaces.

``sample_batch`` re-keys one Philox generator per row; it must give the
same bits as a fresh generator per row.  The discrete-time estimators sum
in row blocks; they must give the same bits as the one-shot sums.  Every kernel spec memoises its M~ per
request (basis, modes, time grid), and ``brownian_path_integrand`` its
pairing (M_k, m_j) per (basis, modes); each memo must give the same bits as
the work it saves, hand out only read-only tables, never share an entry
between different keys, and store nothing on a refused request.  The M~
memo reads M~(t <= 0) as exactly 0 and passes a kernel's ``_mtilde`` only
t > 0; the solvers and path synthesis read M~ through it alone.
"""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from chaosfield import cli
from chaosfield.basis import DEFAULT_RULE, BasisFamily
from chaosfield.errors import ConfigurationError, DomainError
from chaosfield.integrals import _path_pairing, brownian_path_integrand
from chaosfield.kernels import (
    KernelSpec,
    brownian_kernel,
    fbm_kernel_spec,
    grid_kernel_from_csv,
    m_tilde,
)
from chaosfield.mc import discrete_ito_batch, discrete_strat_batch, sample_batch, synthesize_paths
from chaosfield.multiindex import MultiIndex, Truncation, index_map
from chaosfield.sde import solve_closed_form, solve_picard
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


def layouts(x):
    """(name, path, its values as a C-ordered float64 array): the layouts and dtypes an estimator must take."""
    wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],))
    wide[..., ::2] = x
    tall = np.zeros((2 * x.shape[0],) + x.shape[1:])
    tall[::2] = x
    single, whole = x.astype(np.float32), np.rint(x * 1000).astype(np.int64)
    return [
        ("c", x, x),
        ("fortran", np.asfortranarray(x), x),
        ("column-strided", wide[..., ::2], x),
        ("row-strided", tall[::2], x),
        ("transposed", np.ascontiguousarray(x.swapaxes(0, -1)).swapaxes(0, -1), x),
        ("float32", single, single.astype(float)),
        ("int64", whole, whole.astype(float)),
    ]


@pytest.mark.parametrize("estimator, ref", ESTIMATORS, ids=["ito", "strat"])
@pytest.mark.parametrize("rows", [1, 63, 64, 65, 129, 2000])
def test_blocked_sums_bit_equal_to_one_shot(estimator, ref, rows):
    # the one-shot sum is taken over C-ordered float64 paths; every layout and dtype gives its bits
    x, y = brownian_paths((rows, 257))
    for (name, xl, xc), (_, yl, yc) in zip(layouts(x), layouts(y)):
        want = ref(xc, yc).tobytes()
        got = estimator(xl, yl)
        assert got.shape == (rows,), name
        assert got.tobytes() == want, name
        assert estimator(xl, xl).tobytes() == ref(xc, xc).tobytes(), name
        assert estimator(xl, yc).tobytes() == estimator(xc, yl).tobytes() == want, name


@pytest.mark.parametrize("estimator, ref", ESTIMATORS, ids=["ito", "strat"])
def test_blocked_sums_keep_the_shape_contract(estimator, ref):
    x, y = brownian_paths((3, 5, 257))
    got = estimator(x, y)
    assert got.shape == (3, 5)
    assert got.tobytes() == ref(x, y).tobytes()
    for (name, xl, xc), (_, yl, yc) in zip(layouts(x), layouts(y)):
        assert estimator(xl, yl).tobytes() == ref(xc, yc).tobytes(), name
        two = estimator(xl[..., :2], yl[..., :2])  # a 2-point grid: one increment, and a cross-row term per row
        assert two.shape == (3, 5), name
        assert two.tobytes() == ref(xc[..., :2].copy(), yc[..., :2].copy()).tobytes(), name
    one = estimator(x[0, 0], y[0, 0])  # a 1-D path gives a numpy scalar, not a 0-d array
    assert type(one) is np.float64
    assert one == got[0, 0] == ref(x[0, 0], y[0, 0])
    empty = estimator(np.zeros((0, 257)), np.zeros((0, 257)))
    assert empty.shape == (0,)
    point = estimator(x[0, :, :1], y[0, :, :1])  # a 1-point grid has no increments
    assert point.tobytes() == np.zeros(5).tobytes()


def test_strat_sum_peak_memory_stays_in_row_blocks():
    # one shot: four 2000 x 256 temporaries, 8.3 MB; a path that is not C-ordered float64 is copied, and cast,
    # a block at a time (a whole float32 path cast up front peaked at 8.8 MB)
    x, _ = brownian_paths((2000, 257))
    for name, xl, _ in layouts(x)[:4] + layouts(x)[5:]:  # C, Fortran, column- and row-strided float64; float32; int64
        discrete_strat_batch(xl, xl)  # warm
        tracemalloc.start()
        try:
            discrete_strat_batch(xl, xl)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000, name


# ---------------------------------------------------------------------------
# fBm M~ memo


@pytest.mark.parametrize("basis", [COSINE, LEGENDRE], ids=lambda b: b.kind)
def test_memoised_table_bit_equal_to_unmemoised(basis):
    kernel = fbm_kernel_spec(0.75, 1.0)
    times = np.concatenate([np.linspace(0.0, 1.0, 33), [1e-9, 0.5]])
    ref = np.array([[ref_fbm_mtilde_sum(kernel, basis, k, t) for k in range(1, 5)] for t in times])
    first = kernel.mtilde(basis, range(1, 5), times)  # misses
    second = kernel.mtilde(basis, range(1, 5), times)  # hits
    assert first.T.tobytes() == ref.tobytes()
    assert second.T.tobytes() == ref.tobytes()
    info = kernel._mtilde_memo.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def check_returned_tables(kernel):
    # a hit hands out the stored table read-only; a solution's M~ is a copy of it, so its caller may write
    times = np.linspace(0.1, 1.0, 10)
    got = kernel.mtilde(COSINE, 2, times)
    expected = got.copy()
    with pytest.raises(ValueError, match="read-only"):
        got[:] = -1.0
    again = kernel.mtilde(COSINE, 2, times)
    assert not again.flags.writeable
    assert again.tobytes() == expected.tobytes()
    solution = solve_closed_form(kernel, COSINE, Truncation(2, 1), times)
    solution.mtilde[:] *= 3.0
    assert solve_closed_form(kernel, COSINE, Truncation(2, 1), times).mtilde[:, 1].tobytes() == expected.tobytes()
    assert kernel.mtilde(COSINE, [1, 2], times)[1].tobytes() == expected.tobytes()
    info = kernel._mtilde_memo.cache_info()
    assert (info.misses, info.hits) == (2, 3)  # the mode-2 request once, the modes-1-and-2 request once


def test_mutating_a_returned_table_leaves_the_memo_alone():
    check_returned_tables(fbm_kernel_spec(0.7, 1.0))


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
        assert kernel._mtilde_memo.cache_info().misses == 18
        assert kernel._mtilde_memo.cache_info().hits == 0
    assert low.mtilde(COSINE, 2, times).tobytes() != high.mtilde(COSINE, 2, times).tobytes()


def test_scalar_m_tilde_after_a_memo_hit():
    kernel, grid = fbm_kernel_spec(0.75, 1.0), np.linspace(0.0, 1.0, 17)
    table = kernel.mtilde(COSINE, range(1, 6), grid)
    for k in range(1, 6):
        first = m_tilde(kernel, COSINE, k, 1.0)
        again = m_tilde(kernel, COSINE, k, 1.0)  # a hit on the one-point key
        assert type(again) is float
        assert first == again == table[k - 1, -1] == ref_fbm_mtilde_sum(kernel, COSINE, k, 1.0)
    info = kernel._mtilde_memo.cache_info()
    assert (info.misses, info.hits) == (6, 5)  # the table's request, then each mode's one-point request


def test_repeated_path_synthesis_computes_mtilde_once():
    kernel, grid = fbm_kernel_spec(0.75, 1.0), np.linspace(0.0, 1.0, 65)
    trunc = Truncation(6, 2)
    for seed in (1, 2, 3):
        synthesize_paths(kernel, COSINE, trunc, sample_batch(seed, 20, 6), grid)
    info = kernel._mtilde_memo.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_sde_command_computes_each_mode_once(tmp_path, capsys, monkeypatch):
    # closed form and Picard share the grid, so M~ is computed once
    specs = []

    def recording_spec(*args, **kwargs):
        specs.append(fbm_kernel_spec(*args, **kwargs))
        return specs[-1]

    monkeypatch.setattr(cli, "fbm_kernel_spec", recording_spec)
    argv = ["sde", "--kernel", "fbm", "--hurst", "0.7", "--modes", "3", "--order", "2"]
    assert cli.main(argv + ["--grid", "16", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    (kernel,) = specs
    info = kernel._mtilde_memo.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_memo_hit_skips_the_time_check(monkeypatch):
    kernel, grid = fbm_kernel_spec(0.75, 1.0), np.linspace(0.0, 1.0, 33)
    warm = kernel.mtilde(COSINE, range(1, 5), grid)
    calls = []
    check = BasisFamily._check

    def counting_check(self, t):
        calls.append(t)
        return check(self, t)

    monkeypatch.setattr(BasisFamily, "_check", counting_check)
    assert kernel.mtilde(COSINE, range(1, 5), grid).tobytes() == warm.tobytes()
    assert calls == []
    info = kernel._mtilde_memo.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    kernel.mtilde(COSINE, range(1, 6), grid)  # five modes are a new request: the times are checked again
    assert len(calls) >= 1
    info = kernel._mtilde_memo.cache_info()
    assert (info.misses, info.hits) == (2, 1)


@pytest.mark.parametrize("t", [float("nan"), -0.1])
def test_bad_time_refused_on_a_warm_spec(t):
    check_refused_time(fbm_kernel_spec(0.75, 1.0), t)


def check_refused_time(kernel, t):
    # lru_cache counts a refused request as a miss, but stores nothing
    kernel.mtilde(COSINE, range(1, 4), np.linspace(0.0, 1.0, 9))
    m_tilde(kernel, COSINE, 1, 0.5)
    before = kernel._mtilde_memo.cache_info()
    with pytest.raises(DomainError):
        m_tilde(kernel, COSINE, 1, t)
    with pytest.raises(DomainError):
        kernel.mtilde(COSINE, [1, 2], np.array([0.5, t]))
    after = kernel._mtilde_memo.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses + 2, before.currsize)


@pytest.mark.parametrize("modes", [0, [0, 1], [2, -1]])
def test_mode_below_one_refused(modes):
    # a mode below 1 would otherwise index the basis rows from the end
    kernel = fbm_kernel_spec(0.75, 1.0)
    with pytest.raises(DomainError, match="k must be >= 1"):
        kernel.mtilde(COSINE, modes, np.linspace(0.0, 1.0, 5))
    assert kernel._mtilde_memo.cache_info().misses == 0


def test_empty_mode_array_refused():
    # an empty integer array has no minimum to compare with 1; it is refused like a mode below 1
    modes = np.arange(1, 1)
    with pytest.raises(DomainError, match="k must be >= 1"):
        COSINE.eval(modes, 0.5)
    kernel = fbm_kernel_spec(0.75, 1.0)
    with pytest.raises(DomainError, match="k must be >= 1"):
        kernel.mtilde(COSINE, modes, np.linspace(0.0, 1.0, 5))
    assert kernel._mtilde_memo.cache_info().misses == 0


@pytest.mark.parametrize("hurst", [0.55, 0.63, 0.75, 0.9, 0.95])
def test_mtilde_quadrature_bit_equal_to_scalar_sum(hurst):
    kernel, times = fbm_kernel_spec(hurst, 1.0), np.linspace(0.0, 1.0, 65)
    got = kernel.mtilde(COSINE, range(1, 9), times)
    ref = np.array([[ref_fbm_mtilde_sum(kernel, COSINE, k, t) for t in times] for k in range(1, 9)])
    assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# the M~ memo on every other kind of spec


def write_grid_csv(path):
    """K(t, s) = 1 + (t - s)^2 on s <= t, tabulated on 11 points of [0, 1]."""
    nodes = np.linspace(0.0, 1.0, 11)
    rows = ["t_s," + ",".join(repr(float(s)) for s in nodes)]
    for t in nodes:
        rows.append(repr(float(t)) + "," + ",".join(repr(1.0 + float(t - s) ** 2 if s <= t else 0.0) for s in nodes))
    path.write_text("\n".join(rows) + "\n")
    return path


class TwiceBrownian(KernelSpec):
    """A kernel with an M~ of its own: K = 2 chi_[0, t], so M~_k = 2 M_k, and no case for t <= 0."""

    name = "twice-brownian"

    def eval(self, t, s):
        return np.where(s <= t, 2.0, 0.0)

    def _mtilde(self, basis, ks, t):
        assert np.all(t > 0), "the memo passes the piece only t > 0"
        return np.array([2.0 * basis.antideriv(j, t) for j in ks])


def make_spec(name, tmp_path):
    """A fresh spec with an empty memo; "copy" is a second kernel of a table whose first kernel's memo is warm."""
    if name == "brownian":
        return brownian_kernel(1.0)
    path = write_grid_csv(tmp_path / "kernel.csv")
    grid = grid_kernel_from_csv(path)
    if name == "grid":
        return grid
    if name == "user":
        return TwiceBrownian(1.0)
    grid.mtilde(COSINE, [1, 2], np.linspace(0.0, 1.0, 5))
    return grid_kernel_from_csv(path)


SPECS = ["brownian", "grid", "user", "copy"]
TIMES = np.concatenate([np.linspace(0.0, 1.0, 17), [1e-9, 0.37]])


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("basis", [COSINE, LEGENDRE], ids=lambda b: b.kind)
def test_every_memo_bit_equal_to_its_unmemoised_piece(name, basis, tmp_path):
    kernel = make_spec(name, tmp_path)
    assert kernel._mtilde_memo.cache_info() == (0, 0, 32, 0)
    live = TIMES > 0.0
    ref = kernel._mtilde(basis, [1, 2, 3, 4], TIMES[live])  # the piece sees only t > 0
    first = kernel.mtilde(basis, range(1, 5), TIMES)  # misses
    second = kernel.mtilde(basis, range(1, 5), TIMES)  # hits
    for table in (first, second):
        assert table[:, live].tobytes() == ref.tobytes()
        assert not np.any(table[:, ~live])
    assert kernel.mtilde(basis, 3, TIMES[live]).tobytes() == ref[2].tobytes()  # a request of its own
    info = kernel._mtilde_memo.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


@pytest.mark.parametrize("name", ["brownian", "grid", "user"])
def test_mtilde_at_time_zero_is_exactly_zero(name, tmp_path):
    # Legendre's antiderivative at 0 is about 1e-17 for k >= 4; the memo, not each caller, reads M~(t <= 0) as 0
    kernel, modes = make_spec(name, tmp_path), range(4, 9)
    assert any(LEGENDRE.antideriv(k, 0.0) != 0.0 for k in modes)
    grid = np.array([0.0, 0.25, 1.0])
    for k in modes:
        assert m_tilde(kernel, LEGENDRE, k, 0.0) == 0.0
    assert not np.any(kernel.mtilde(LEGENDRE, modes, [0.0, -1e-13]))  # slack below 0 reads 0 too
    assert not np.any(kernel.mtilde(LEGENDRE, modes, grid)[:, 0])
    assert not np.any(solve_closed_form(kernel, LEGENDRE, Truncation(8, 2), grid).mtilde[0])
    paths = synthesize_paths(kernel, LEGENDRE, Truncation(8, 2), sample_batch(5, 40, 8), grid)
    assert not np.any(paths[:, 0]) and np.all(paths[:, 1:] != 0.0)


@pytest.mark.parametrize("k", [1.5, 0, -3])
def test_m_tilde_at_time_zero_checks_the_mode(k):
    with pytest.raises(DomainError, match="k must be >= 1"):
        m_tilde(brownian_kernel(1.0), LEGENDRE, k, 0.0)


@pytest.mark.parametrize("solve", [solve_closed_form, solve_picard])
@pytest.mark.parametrize("modes, points", [(1, 9), (3, 1), (3, 9)])
def test_solution_mtilde_is_a_c_ordered_copy(solve, modes, points):
    # one row per time, each a contiguous vector for ``sample``; a one-mode or one-point view of the
    # memo's table would pass for contiguous, so the copy is taken every time
    kernel, grid = fbm_kernel_spec(0.7, 1.0), np.linspace(1.0 / points, 1.0, points)
    mt = solve(kernel, COSINE, Truncation(modes, 2), grid).mtilde
    assert mt.shape == (points, modes)
    assert mt.flags.c_contiguous and mt.flags.writeable
    table = kernel.mtilde(COSINE, range(1, modes + 1), grid)
    assert not np.shares_memory(mt, table)
    assert mt.tobytes() == table.T.tobytes()


@pytest.mark.parametrize("name", SPECS)
def test_every_memo_survives_a_mutated_table(name, tmp_path):
    check_returned_tables(make_spec(name, tmp_path))


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("t", [float("nan"), -0.1, 1.5])
def test_every_memo_stores_nothing_on_a_refused_time(name, t, tmp_path):
    check_refused_time(make_spec(name, tmp_path), t)


def test_a_copy_memoises_apart_from_its_original(tmp_path):
    # two kernels of one table, a copy, a deep copy or an unpickled kernel each memoise their own pieces
    path = write_grid_csv(tmp_path / "kernel.csv")
    original, times = grid_kernel_from_csv(path), np.linspace(0.0, 1.0, 9)
    expected = original.mtilde(COSINE, [1, 2], times)
    copies = [grid_kernel_from_csv(path), copy.copy(original), copy.deepcopy(original)]
    copies.append(pickle.loads(pickle.dumps(original)))
    for other in copies:
        assert other._mtilde_memo is not original._mtilde_memo
        assert other._mtilde_memo.__wrapped__ == other._mtilde_request  # bound to the copy
        assert other.mtilde(COSINE, [1, 2], times).tobytes() == expected.tobytes()
        assert other._mtilde_memo.cache_info() == (0, 1, 32, 1)
    assert original._mtilde_memo.cache_info() == (0, 1, 32, 1)
    # a subclass's own piece is memoised the same way
    user = TwiceBrownian(1.0)
    assert user._mtilde_memo.__wrapped__ == user._mtilde_request
    assert TwiceBrownian(1.0)._mtilde_memo is not user._mtilde_memo


def test_repeated_brownian_path_synthesis_computes_mtilde_once():
    kernel, grid = brownian_kernel(1.0), np.linspace(0.0, 1.0, 65)
    trunc = Truncation(6, 2)
    paths = [synthesize_paths(kernel, COSINE, trunc, sample_batch(seed, 20, 6), grid) for seed in (1, 1, 2)]
    assert paths[0].tobytes() == paths[1].tobytes()
    info = kernel._mtilde_memo.cache_info()
    assert (info.misses, info.hits) == (1, 2)


# ---------------------------------------------------------------------------
# the Brownian path pairing memo


def ref_path_integrand_coeffs(trunc, basis):
    """eta[eps_k, j] = (M_k, m_j), one row per mode, as the integrand was first built."""
    imap = index_map(trunc)
    coeffs = np.zeros((trunc.size(), trunc.modes))
    xs, ws = DEFAULT_RULE.nodes_weights(0.0, basis.horizon)
    m_vals = basis.eval(np.arange(1, trunc.modes + 1), xs)
    for k in range(1, trunc.modes + 1):
        coeffs[imap[MultiIndex.eps(k)]] = m_vals @ (ws * np.asarray(basis.antideriv(k, xs), dtype=float))
    return coeffs


@pytest.mark.parametrize("basis", [COSINE, LEGENDRE, BasisFamily("cosine", 2.5)], ids=lambda b: f"{b.kind}-{b.horizon}")
def test_path_integrand_hit_has_the_same_bits(basis):
    trunc = Truncation(5, 3)
    ref = ref_path_integrand_coeffs(trunc, basis)
    first = brownian_path_integrand(trunc, basis)
    hits = _path_pairing.cache_info().hits
    second = brownian_path_integrand(trunc, basis)
    assert _path_pairing.cache_info().hits == hits + 1
    assert first.coeffs.tobytes() == second.coeffs.tobytes() == ref.tobytes()
    # another truncation of the same mode count shares the pairing
    other = Truncation(5, 1)
    assert brownian_path_integrand(other, basis).coeffs.tobytes() == ref_path_integrand_coeffs(other, basis).tobytes()
    assert _path_pairing.cache_info().hits == hits + 2


def test_mutating_an_integrand_leaves_the_next_alone():
    trunc = Truncation(4, 2)
    eta = brownian_path_integrand(trunc, COSINE)
    expected = eta.coeffs.copy()
    eta.coeffs[:] = -1.0
    again = brownian_path_integrand(trunc, COSINE)
    assert again.coeffs is not eta.coeffs and again.coeffs.flags.writeable
    assert again.coeffs.tobytes() == expected.tobytes()
    assert not _path_pairing(COSINE, 4).flags.writeable


def test_path_integrand_of_an_order_zero_truncation_is_refused():
    # the path lies in the first chaos, which order 0 leaves out: a bare KeyError before
    with pytest.raises(ConfigurationError, match="first chaos"):
        brownian_path_integrand(Truncation(3, 0), COSINE)


def test_overflowing_path_pairing_is_refused_and_not_memoised():
    huge = BasisFamily("cosine", 1e300)
    size = _path_pairing.cache_info().currsize
    for _ in range(2):
        with pytest.raises(DomainError, match="path pairing"):
            brownian_path_integrand(Truncation(3, 2), huge)
    assert _path_pairing.cache_info().currsize == size
