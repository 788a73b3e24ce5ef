"""Monte Carlo oracle: sampling, path synthesis, discrete-time integrators.

Sampling uses counter-based Philox streams keyed by (seed, sample index), so
each sample row is reproducible independently of batch size or ordering.
One generator is re-keyed per row: assigning its state resets the counter
and buffers, so each row is the same stream a fresh generator keyed
(seed, i) gives, without building a generator per row.  The state dict
holds Python ints, not numpy arrays: numpy's Philox state setter reads the
counter, key and buffer element by element, and a Python int converts
without the numpy-scalar round trip an array element costs on every row.

The discrete-time estimators sum in blocks of ``_ROW_BLOCK`` rows, writing
each block's terms into flat buffers allocated once per call, so nothing
(n, grid)-sized or block-sized is allocated per block.  The terms are taken
over each block's flat span of rows x points, so each ufunc is one
contiguous pass rather than one inner loop per row; the terms that pair a
row's last point with the next row's first are computed but never summed.
Each row's pairwise sum is unchanged, so are the bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisFamily
from .chaos import ChaosExpansion, chaos_eval
from .errors import ConfigurationError, DomainError
from .kernels import KernelSpec
from .multiindex import Truncation, _check_integer

# mc_compare's roundoff floor, in units of eps * mean(|F(Z)| + |oracle|).
# Measured |mean d| is at most 0.33 and mean |d_i| at most 1.3 of these
# units on exactly agreeing Stratonovich batches (Brownian and fBm paths).
ROUNDOFF_FACTOR = 8.0

# Rows per block of the discrete-time estimators: at 257 points each of their flat float64 buffers
# (two, three for a path that is not C-ordered) is 263 kB.
_ROW_BLOCK = 128


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible (n, K) matrix of iid standard normals; any other ``z`` raises DomainError."""

    seed: int
    z: np.ndarray

    def __post_init__(self):
        if np.ndim(self.z) != 2 or 0 in np.shape(self.z) or not np.all(np.isfinite(self.z)):
            raise DomainError("z must be a finite 2-D array with at least one row and one column")

    @property
    def n_samples(self) -> int:
        return self.z.shape[0]

    @property
    def modes(self) -> int:
        return self.z.shape[1]


def sample_batch(seed: int, n: int, modes: int) -> SampleBatch:
    """Draw an (n, modes) batch; row i comes from the Philox stream (seed, i)."""
    _check_integer("n", n, 1, DomainError)
    _check_integer("modes", modes, 1, DomainError)
    # a float seed would be truncated into a key, and a bool would pass for 0 or 1
    _check_integer("seed", seed, 0, DomainError)
    if seed >= 2**64:
        raise DomainError(f"seed must lie in [0, 2**64), not {seed!r}")
    z = np.empty((n, modes))
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bits)
    state = bits.state  # counter 0, empty buffer and uint32 cache: a fresh stream
    for name in ("counter", "key"):
        state["state"][name] = state["state"][name].tolist()
    state["buffer"] = state["buffer"].tolist()
    key = state["state"]["key"]
    for i, row in enumerate(z):
        key[1] = i
        bits.state = state
        rng.standard_normal(out=row)
    return SampleBatch(seed, z)


def synthesize_paths(
    kernel: KernelSpec, basis: BasisFamily, trunc: Truncation, batch: SampleBatch, grid
) -> np.ndarray:
    """Truncated associated process X(t_i) = sum_{k <= K} M~_k(t_i) z_k for each batch row.

    Shape (n_samples, len(grid)); a batch with fewer columns than modes raises DomainError.
    """
    if batch.modes < trunc.modes:
        raise DomainError("sample rows shorter than the mode count")
    return batch.z[:, : trunc.modes] @ kernel.mtilde(basis, range(1, trunc.modes + 1), grid)


def _check_paths(x, y):
    x, y = np.asarray(x), np.asarray(y)  # any dtype: ``_row_sums`` casts a block at a time
    if x.shape != y.shape:
        raise ConfigurationError("integrand and integrator paths must share a grid")
    return x, y


def _row_sums(term, x, y):
    """sum of term(x_rows, y_rows, span, out, tmp) along the last axis, ``_ROW_BLOCK`` rows at a time.

    ``term`` takes a block's terms over its flat span: ``span(rows)`` is the
    block's b rows of m points as one contiguous vector, and the terms of
    its pairs (i, i + 1) go into ``out`` through ``tmp``, flat buffers
    allocated once per call.  So each ufunc is one contiguous pass; over the
    (b, m - 1) views ``x[:, :-1]`` and ``x[:, 1:]`` numpy runs one inner loop
    per row.  The term pairing a row's last point with the next row's first
    lands in the last column of ``out``'s (b, m) view, and ``np.sum`` reads
    only the first m - 1 columns, so it is computed but never summed: each
    row sums the values of the one-shot sum in its order, with its bits.
    ``span`` copies a block that is not C-contiguous float64 into one more
    such buffer, cast as ``np.asarray(x, dtype=float)`` would (a float32 or
    integer path casts exactly), never the whole input.  Leading axes of any
    rank are flattened into rows; a 1-D path gives a numpy scalar.
    """
    x, y = _check_paths(x, y)
    lead, m = x.shape[:-1], x.shape[-1]
    x2 = x.reshape(math.prod(lead), m)
    y2 = y.reshape(x2.shape)
    out = np.empty(len(x2))
    size = min(_ROW_BLOCK, len(x2)) * m
    terms, tmp = np.empty(size), np.empty(size)
    direct = all(a.flags.c_contiguous and a.dtype == np.float64 for a in (x2, y2))
    copy = None if direct else np.empty(size)

    def span(rows):
        if rows.flags.c_contiguous and rows.dtype == np.float64:
            return rows.ravel()
        flat = copy[: rows.size]
        np.copyto(flat.reshape(rows.shape), rows, casting="unsafe")
        return flat

    for start in range(0, len(x2), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        n = x2[rows].size
        term(x2[rows], y2[rows], span, terms[: n - 1], tmp[: n - 1])
        np.sum(terms[:n].reshape(-1, m)[:, : m - 1], axis=-1, out=out[rows])
    return out.reshape(lead)[()]


def _ito_terms(x, y, span, out, tmp):
    # X(t_i) (Y(t_{i+1}) - Y(t_i)), np.diff's subtraction
    ys = span(y)
    np.subtract(ys[1:], ys[:-1], out=out)
    np.multiply(span(x)[:-1], out, out=out)


def _strat_terms(x, y, span, out, tmp):
    # (0.5 (X(t_i) + X(t_{i+1}))) (Y(t_{i+1}) - Y(t_i)), in the one-shot expression's order
    xs = span(x)
    np.add(xs[:-1], xs[1:], out=out)
    np.multiply(0.5, out, out=out)
    ys = span(y)
    np.multiply(out, np.subtract(ys[1:], ys[:-1], out=tmp), out=out)


def discrete_ito_batch(x, y) -> np.ndarray:
    """Left-point Riemann sum sum_i X(t_i) (Y(t_{i+1}) - Y(t_i)) along the last axis.

    Summed in row blocks; each row has the bits of the one-shot sum.
    """
    return _row_sums(_ito_terms, x, y)


def discrete_strat_batch(x, y) -> np.ndarray:
    """Midpoint rule sum_i (X(t_i) + X(t_{i+1}))/2 * (Y(t_{i+1}) - Y(t_i)) along the last axis.

    Summed in row blocks; each row has the bits of the one-shot sum.
    """
    return _row_sums(_strat_terms, x, y)


def mc_compare(chaos_result: ChaosExpansion, oracle_values, batch: SampleBatch) -> dict:
    """Compare chaos_eval(F, Z) against per-sample oracle values.

    The statistic is the mean difference d = F(Z) - oracle, and the gate is
    |mean d| <= max(3 * stderr, roundoff_floor) with

        roundoff_floor = ROUNDOFF_FACTOR * eps * mean(|F(Z)| + |oracle|),

    eps being float64 machine epsilon.  When the two sides agree exactly up
    to rounding (the midpoint oracle telescopes to the Stratonovich chaos
    value), stderr is itself roundoff and roundoff need not be unbiased, so
    a pure t-test would reject an exact agreement.  Each d_i carries a
    forward error of a few eps * (|F_i| + |oracle_i|) (the standard bound
    for floating-point sums), and |mean d| <= mean |d_i|, so the floor
    bounds the roundoff part of the mean whatever the sample count.  It is
    about 1e-15 for O(1) values, far below any real Monte Carlo stderr.
    ``tolerance`` reports the max; ``stderr`` and ``roundoff_floor`` report
    its two parts.  Non-finite chaos or oracle values raise DomainError.
    Pairwise summation keeps the reduction deterministic.
    """
    return _compare_values(chaos_eval(chaos_result, batch.z), oracle_values, batch)


def _compare_values(values, oracle_values, batch: SampleBatch) -> dict:
    """``mc_compare``'s report for per-sample values F(Z) already computed on ``batch``."""
    oracle_values = np.asarray(oracle_values, dtype=float)
    if oracle_values.shape != (batch.n_samples,):
        raise ConfigurationError("oracle values must be one per sample")
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(oracle_values))):
        raise DomainError("chaos and oracle values must be finite")
    diffs = values - oracle_values
    mean = float(np.mean(diffs))
    stderr = float(np.std(diffs, ddof=1) / math.sqrt(len(diffs))) if len(diffs) > 1 else 0.0
    magnitude = float(np.mean(np.abs(values) + np.abs(oracle_values)))
    floor = ROUNDOFF_FACTOR * float(np.finfo(float).eps) * magnitude
    tolerance = max(3.0 * stderr, floor)
    return {
        "statistic": mean,
        "stderr": stderr,
        "tolerance": tolerance,
        "roundoff_floor": floor,
        "pass": bool(abs(mean) <= tolerance),
        "seed": batch.seed,
        "n": batch.n_samples,
    }
