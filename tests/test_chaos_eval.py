"""chaos_eval against the row-by-row sum it replaces.

``chaos_eval`` splits the modes in two halves and sums each block of samples
by matrix products over the grades of the first half.  Its values must agree
with the row-by-row sum to roundoff, every sample's bits must be the same in
any batch that holds it, and at the sizes below the bits must not depend on
the number of BLAS threads.
"""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chaosfield import chaos, multiindex
from chaosfield.chaos import ChaosExpansion, chaos_eval, wick_exp_first_chaos
from chaosfield.errors import ConfigurationError, DomainError
from chaosfield.hermite import hermite_table
from chaosfield.multiindex import MultiIndex, Truncation, _EVAL_BLOCK, _IndexTables, _tables
from chaosfield.sde import sample_wick_exponential

ROOT = Path(__file__).resolve().parents[1]
SIZES = [(1, 5), (2, 3), (3, 12), (8, 3), (8, 4), (16, 2), (12, 4), (6, 10)]


def ref_chaos_eval(f: ChaosExpansion, z):
    """The row-by-row sum: each nonzero row's factors by ascending mode, rows in enumeration order."""
    z = np.asarray(z, dtype=float)
    one_sample = z.ndim == 1
    zz = z[None, :] if one_sample else z
    if not np.all(np.isfinite(zz)):
        raise DomainError("samples must be finite")
    rows = np.flatnonzero(f.vec)
    exponents = _tables(f.trunc).exponents[rows]
    if np.any(exponents[:, zz.shape[1] :]):
        raise DomainError("sample vector shorter than the expansion support")
    n_max = f.trunc.max_order
    table = hermite_table(n_max, zz[:, : f.trunc.modes].T)
    for n in range(2, n_max + 1):
        table[n] /= math.sqrt(math.factorial(n)) if n <= 170 else math.exp(0.5 * math.lgamma(n + 1))
    out = np.zeros(zz.shape[0])
    for coef, row in zip(f.vec[rows].tolist(), exponents.tolist()):
        term = np.full(zz.shape[0], coef)
        for k, a in enumerate(row):
            if a:
                term *= table[a, k]
        out += term
    return float(out[0]) if one_sample else out


def random_expansion(trunc, seed, density=1.0):
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(trunc.size()) * (rng.uniform(size=trunc.size()) < density)
    return ChaosExpansion.from_dense(trunc, vec)


def assert_close_to_ref(f, z):
    got, want = chaos_eval(f, z), ref_chaos_eval(f, z)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * np.max(np.abs(want), initial=0.0)


# ---------------------------------------------------------------------------
# agreement with the row-by-row sum


@pytest.mark.parametrize("modes, order", SIZES)
def test_agrees_with_the_row_sum(modes, order):
    trunc = Truncation(modes, order)
    z = np.random.default_rng(modes * 100 + order).standard_normal((300, modes))
    assert_close_to_ref(random_expansion(trunc, order), z)
    assert_close_to_ref(wick_exp_first_chaos(np.full(modes, 0.4), trunc), z)


@pytest.mark.parametrize("density", [0.0, 0.02, 0.3])
def test_sparse_and_zero_expansions(density):
    trunc = Truncation(8, 4)
    z = np.random.default_rng(5).standard_normal((100, 8))
    f = random_expansion(trunc, 11, density)
    assert_close_to_ref(f, z)
    if density == 0.0:
        assert np.array_equal(chaos_eval(f, z), np.zeros(100))


def test_nan_coefficient_is_refused_before_it_reaches_eval():
    # the expansion is never built, so chaos_eval cannot return the row sum's NaN
    trunc = Truncation(4, 3)
    vec = np.zeros(trunc.size())
    vec[7] = np.nan
    with pytest.raises(DomainError, match="chaos coefficients must be finite, not nan"):
        ChaosExpansion.from_dense(trunc, vec)


def test_columns_past_the_mode_count_are_not_read():
    trunc = Truncation(5, 3)
    z = np.random.default_rng(4).standard_normal((40, 9))
    f = random_expansion(trunc, 3)
    assert_close_to_ref(f, z)
    assert np.array_equal(chaos_eval(f, z), chaos_eval(f, z[:, :5]))


def test_short_sample_is_enough_for_the_support_and_refused_past_it():
    trunc = Truncation(6, 3)
    f = ChaosExpansion(trunc, {MultiIndex(((1, 1), (3, 2))): 0.5, MultiIndex.zero(): 1.5})
    z = np.random.default_rng(6).standard_normal((30, 3))
    assert_close_to_ref(f, z)
    with pytest.raises(DomainError, match="shorter than the expansion support"):
        chaos_eval(f, z[:, :2])
    with pytest.raises(DomainError, match="shorter than the expansion support"):
        chaos_eval(f, z[0, :2])


def test_empty_batch():
    f = random_expansion(Truncation(4, 2), 0)
    out = chaos_eval(f, np.zeros((0, 4)))
    assert out.shape == (0,)


def test_zero_index_on_a_zero_column_sample():
    f = ChaosExpansion.constant(Truncation(1, 0), 2.5)
    assert np.array_equal(chaos_eval(f, np.zeros((4, 0))), np.full(4, 2.5))
    assert chaos_eval(f, np.zeros(0)) == 2.5


def test_samples_of_more_than_two_axes_are_refused():
    f = random_expansion(Truncation(2, 2), 0)
    with pytest.raises(DomainError, match=r"not an array of shape \(3, 4, 2\)"):
        chaos_eval(f, np.zeros((3, 4, 2)))


# ---------------------------------------------------------------------------
# every sample's bits are the same in any batch


@pytest.mark.parametrize("modes, order", [(8, 3), (8, 4), (16, 2), (3, 12)])
def test_sample_bits_do_not_depend_on_the_batch(modes, order):
    trunc = Truncation(modes, order)
    f = wick_exp_first_chaos(np.linspace(-0.5, 0.5, modes), trunc)
    z = np.random.default_rng(order).standard_normal((2100, modes))
    full = chaos_eval(f, z)
    for i in (0, 1, _EVAL_BLOCK - 1, _EVAL_BLOCK, 1500, 2099):
        assert chaos_eval(f, z[i]) == full[i]
    sizes = {1, 7, _EVAL_BLOCK - 1, _EVAL_BLOCK, _EVAL_BLOCK + 1, 1023, 1024, 1025}
    for start in (0, 3, 1000):
        for n in sizes:
            assert chaos_eval(f, z[start : start + n]).tobytes() == full[start : start + n].tobytes()
    perm = np.random.default_rng(1).permutation(len(z))
    assert chaos_eval(f, z[perm]).tobytes() == full[perm].tobytes()


_HASH_SCRIPT = """
import hashlib

import numpy as np
from chaosfield.chaos import chaos_eval, wick_exp_first_chaos
from chaosfield.multiindex import Truncation
for modes, order in [(8, 3), (8, 4), (16, 2)]:
    f = wick_exp_first_chaos(np.linspace(-0.5, 0.5, modes), Truncation(modes, order))
    z = np.random.default_rng(order).standard_normal((10_000, modes))
    print(hashlib.sha256(chaos_eval(f, z).tobytes()).hexdigest())
"""


def test_bits_do_not_depend_on_the_blas_thread_count():
    # the thread count is read when numpy loads BLAS, so each count needs a fresh interpreter
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SCRIPT], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout.split())
    assert len(hashes[0]) == 3
    assert hashes[0] == hashes[1]


# ---------------------------------------------------------------------------
# failing loudly


# a sample array that both evaluators refuse, and how the one message names it
BAD_SAMPLES = {
    "0-D": (np.array(1.2), "an array of shape ()"),
    "3-D": (np.zeros((3, 2, 2)), "an array of shape (3, 2, 2)"),
    "nan": (np.array([[0.1, 0.2], [0.3, np.nan]]), "an array holding nan"),
    "inf": ([0.1, np.inf], "an array holding inf"),
    "-inf": ([-np.inf, 0.1], "an array holding -inf"),
    "ragged": ([[0.1, 0.2], [0.3]], "[[0.1, 0.2], [0.3]]"),
    "text": (["a", "b"], "['a', 'b']"),
}


@pytest.mark.parametrize("name", BAD_SAMPLES)
def test_chaos_eval_and_sample_wick_exponential_refuse_a_bad_sample_array_alike(name):
    # chaos_eval refused a 0-D or 3-D array with DimensionError, sample_wick_exponential evaluated a 3-D one,
    # each worded the non-finite refusal its own way, and a ragged or text array escaped as ValueError
    z, what = BAD_SAMPLES[name]
    message = f"samples must be a finite vector of modes or an (n, K) array, not {what}"
    f = random_expansion(Truncation(2, 2), 0)
    for call in (lambda: chaos_eval(f, z), lambda: sample_wick_exponential(np.array([0.5, 0.1]), z, 3)):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()


def test_overflowing_hermite_values_raise():
    # H_2(1e200) overflows: its coefficient is zero, but it enters the matrix product all the same
    f = ChaosExpansion(Truncation(2, 2), {MultiIndex.eps(1): 2.0})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError):
            chaos_eval(f, [1e200, 0.5])
        with pytest.raises(DomainError):
            chaos_eval(f, np.array([[0.1, 0.2], [1e200, 0.5]]))


def test_block_width_shrinks_under_a_smaller_budget(monkeypatch):
    trunc = Truncation(8, 4)  # halves of 70 rows each, the largest per-block array
    f = random_expansion(trunc, 9)
    z = np.random.default_rng(9).standard_normal((300, 8))
    tables = _IndexTables(trunc)
    monkeypatch.setattr(multiindex, "MAX_TABLE_ENTRIES", 70 * 50)
    assert tables.eval_plan[3] == 50
    monkeypatch.setattr(chaos, "_tables", lambda _: tables)
    assert_close_to_ref(f, z)


def test_plan_over_the_budget_is_refused_before_it_allocates(monkeypatch):
    tables = _IndexTables(Truncation(8, 4))
    monkeypatch.setattr(multiindex, "MAX_TABLE_ENTRIES", 69)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError):
            tables.eval_plan
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
