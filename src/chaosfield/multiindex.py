"""Multi-indices and truncated index sets for chaos expansions.

A multi-index is a finitely supported sequence of non-negative integers
alpha = (alpha_1, alpha_2, ...).  It labels one basis element of the chaos
space.  Only the non-zero entries are stored, as a sorted tuple of
(position, value) pairs with positions starting at 1.

``MultiIndex`` is for input and output.  The chaos operators work on the
rows of a truncation's index tables (``_tables``): the exponent matrix, the
row of alpha + eps_k, the per-row factorial weights and the gather plans of
the integrals.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError

# Largest table, in int entries, that is ever built: S * K for an index set
# of S multi-indices over K modes.  The largest ones in use, suite_mc's
# (8, 12) and the Wick pair table of (16, 4) (the index set of (32, 4)),
# have 1.0e6 and 1.9e6; past the budget an enumeration would exhaust memory
# or run for hours (C(50, 10) = 1.0e10 indices at (40, 10)).
MAX_TABLE_ENTRIES = 20_000_000

# Samples per block of chaos_eval.  The last block is zero-padded to this
# width, so every sample goes through products of one shape and its value
# does not depend on the other samples of the batch.  At (8, 4) a block's
# basis values are 70 x 256 float64, 143 kB; 1024 columns were slower
# (2-vCPU Xeon, numpy 2.4, glibc malloc), from page faults on every call.
_EVAL_BLOCK = 256

_BOOLS = (bool, np.bool_)  # True == 1 == int(True), yet a flag is no position or count of a multi-index


@dataclass(frozen=True, slots=True)
class MultiIndex:
    """Sparse multi-index; ``entries`` is a sorted tuple of (k, a_k) pairs.

    Positions k are >= 1 and strictly increasing, stored values strictly
    positive.  Two equal multi-indices always have identical tuples, so
    equality and hashing come from the dataclass.
    """

    entries: tuple = ()

    def __post_init__(self):
        last = 0
        try:
            for k, a in self.entries:
                # 1.5 or True names no mode; a plain int, as in every index-table entry, passes on its type alone
                if type(k) is not int and (isinstance(k, _BOOLS) or k != int(k)):
                    break
                if type(a) is not int and isinstance(a, _BOOLS):  # nor does True count one
                    break
                if k <= last:
                    raise ConfigurationError(f"multi-index {self.entries!r}: positions must be strictly increasing and >= 1")
                if a <= 0 or a != int(a):
                    raise ConfigurationError(f"multi-index {self.entries!r}: stored values must be positive integers")
                last = k
            else:
                return
        except (TypeError, ValueError, OverflowError):  # not a pair of numbers, or a NaN or infinite entry
            pass
        raise ConfigurationError(f"multi-index {self.entries!r}: entries must be pairs of integers")

    @staticmethod
    def zero() -> "MultiIndex":
        return MultiIndex(())

    @staticmethod
    def eps(k: int) -> "MultiIndex":
        """Unit multi-index with a single 1 at position k."""
        return MultiIndex(((k, 1),))

    @staticmethod
    def single(k: int, n: int) -> "MultiIndex":
        """n * eps_k."""
        if n == 0:
            return MultiIndex(())
        return MultiIndex(((k, n),))

    @property
    def max_support(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    def order(self) -> int:
        """|alpha| = sum of the entries."""
        total = 0
        for _, a in self.entries:
            total += a
        return total

    def add(self, other: "MultiIndex") -> "MultiIndex":
        """Entrywise sum alpha + beta."""
        merged = dict(self.entries)
        for k, a in other.entries:
            merged[k] = merged.get(k, 0) + a
        return MultiIndex(tuple(sorted(merged.items())))


@dataclass(frozen=True)
class Truncation:
    """Finite chaos space: ``modes`` basis functions, chaos order up to ``max_order``.

    The truncated index set I(K, N) = { alpha : supp(alpha) in {1..K}, |alpha| <= N }
    has binomial(N + K, K) elements.
    """

    modes: int
    max_order: int

    def __post_init__(self):
        _check_integer("modes", self.modes, 1)
        _check_integer("max_order", self.max_order, 0)

    def size(self) -> int:
        return math.comb(self.max_order + self.modes, self.modes)

    def contains(self, alpha: MultiIndex) -> bool:
        return alpha.max_support <= self.modes and alpha.order() <= self.max_order


def _check_integer(name: str, value, low: int, error: type = ConfigurationError) -> None:
    """Refuse a value that is not an integer >= low (2.5, ``True``) with ``error``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise error(f"{name} must be an integer >= {low}, not {value!r}")


def _check_table_size(entries: int, what: str) -> None:
    if entries > MAX_TABLE_ENTRIES:
        raise ConfigurationError(
            f"{what} needs {entries} table entries, over the budget of {MAX_TABLE_ENTRIES}"
        )


def _exponents(modes: int, max_order: int) -> np.ndarray:
    """Exponent matrix of I(modes, max_order): one dense row per multi-index.

    Rows are graded by order.  Within a grade, weight on earlier positions
    comes first (eps_1 before eps_2), i.e. descending lexicographic order.
    Each step over one more position keeps only its row map and its new
    first column; the table is filled from the last step backwards, in time
    linear in its size rather than regathering the table at every step.
    """
    size = math.comb(max_order + modes, modes)
    _check_table_size(size * modes, f"truncation ({modes}, {max_order})")
    orders = np.arange(max_order + 1)
    order, steps = orders, []  # each row's order over the positions so far: I(1, max_order)
    for j in range(1, modes):
        # grade n over j + 1 positions is, for first = n..0, first followed by the rows of order
        # n - first over j positions: together, the first C(n + j, j) rows of the table, in order
        ends = [math.comb(n + j, j) for n in range(max_order + 1)]
        take = np.concatenate([np.arange(end) for end in ends])
        grade = np.repeat(orders, ends)
        steps.append((take, grade - order[take]))
        order = grade
    # step j's table is its new first column beside the rows ``take`` of step j - 1's, so column c
    # of the last table is read through the takes of the steps after position c, newest first
    table = np.empty((size, modes), dtype=np.int32)
    idx = np.arange(size)
    for col, (take, first) in enumerate(reversed(steps)):
        table[:, col] = first[idx]
        idx = take[idx]
    table[:, -1] = orders[idx]
    return table


def _below(top: int, modes: int) -> np.ndarray:
    """below[s, b] = C(s + b - 1, b): multi-indices on b positions of order below s."""
    return np.array(
        [[math.comb(s + b - 1, b) if s else 0 for b in range(modes + 1)] for s in range(top + 1)],
        dtype=np.int64,
    )


def _suffix_orders(rows: np.ndarray) -> np.ndarray:
    """suffix[:, j] = order of rows[:, j:]."""
    return np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]


def _rank(rows: np.ndarray) -> np.ndarray:
    """Position of each exponent row in the enumeration of its mode count.

    Ahead of alpha come all multi-indices of lower order and, for each
    position j >= 1, those of the same order that agree with alpha before
    j - 1, carry more at j - 1 and so less from j on.
    """
    modes = rows.shape[1]
    suffix = _suffix_orders(rows)
    below = _below(int(suffix[:, 0].max(initial=0)), modes)
    return below[suffix[:, 0], modes] + below[suffix[:, 1:], np.arange(modes - 1, 0, -1)].sum(axis=1)


def _half_plan(modes: int, offset: int, trunc: Truncation) -> tuple:
    """(rows, grades) for the basis values of modes offset+1..offset+modes of ``trunc``.

    Rows follow the enumeration of I(modes, N).  Each row of grade g >= 1 is
    its parent, alpha with its last nonzero entry a (at position j) zeroed,
    times row a * K + offset + j of the (N+1)·K Hermite table;
    grades[g - 1] = (start, stop, parents, table_rows) of grade g.
    """
    if modes == 0:
        return 1, ()
    exps = _exponents(modes, trunc.max_order)
    rows = np.arange(len(exps))
    last = modes - 1 - np.argmax(exps[:, ::-1] != 0, axis=1)
    a = exps[rows, last]
    parent = exps.copy()
    parent[rows, last] = 0
    parents, table_rows = _rank(parent), a * trunc.modes + offset + last
    grades = []
    for g in range(1, trunc.max_order + 1):
        start, stop = math.comb(g - 1 + modes, modes), math.comb(g + modes, modes)
        grades.append((start, stop, parents[start:stop], table_rows[start:stop]))
    return len(exps), tuple(grades)


def _log_factorial(rows: np.ndarray) -> np.ndarray:
    """log(alpha!) per row: sum_k lgamma(alpha_k + 1), added position by position from k = 1."""
    lgamma = np.array([math.lgamma(a + 1) for a in range(int(rows.max(initial=0)) + 1)])
    out = np.zeros(len(rows))
    for k in range(rows.shape[1]):
        out += lgamma[rows[:, k]]
    return out


def _gather_plan(targets: np.ndarray, weights: np.ndarray) -> tuple:
    """(dst, src, w) over the entries of (S, K, terms) arrays whose target is >= 0, in row-major order.

    src is each term's flat (alpha, k) position in an S x K coefficient array, so
    a sum over the plan is ``np.bincount(dst, weights=coeffs.ravel()[src] * w)``.
    """
    valid = targets >= 0
    src = np.nonzero(valid.reshape(-1, valid.shape[-1]))[0].astype(np.int32)
    return targets[valid], src, weights[valid]


class _IndexTables:
    """Index tables of one truncation I(K, N); rows follow the enumeration order.

    ``exponents`` is the S x K exponent matrix, ``orders`` the row orders,
    ``log_factorial`` log(alpha!) and ``inv_sqrt_factorial`` 1/sqrt(alpha!)
    per row.  The other tables are built on first use.
    """

    def __init__(self, trunc: Truncation):
        self.trunc = trunc
        self.exponents = _exponents(trunc.modes, trunc.max_order)
        self.orders = self.exponents.sum(axis=1)
        self.log_factorial = _log_factorial(self.exponents)
        # math.exp per row: np.exp can differ from it in the last bit
        self.inv_sqrt_factorial = np.array([math.exp(-0.5 * v) for v in self.log_factorial.tolist()])

    @cached_property
    def up(self) -> np.ndarray:
        """up[i, k]: row of alpha_i + eps_{k+1}, or -1 when its order exceeds N."""
        e = self.exponents
        modes = e.shape[1]
        suffix = _suffix_orders(e)
        below = _below(self.trunc.max_order + 2, modes)
        exact = below[1:] - below[:-1]  # exact[s, b]: multi-indices on b positions of order s
        # against _rank(alpha), the grade term grows by the size of alpha's
        # grade, and the term of each tail from j <= k, which eps_{k+1} makes
        # one heavier, by the number of tails of exactly its weight
        steps = exact[suffix[:, 1:], np.arange(modes - 1, 0, -1)]
        up = np.arange(len(e))[:, None] + exact[self.orders, modes][:, None] + np.cumsum(
            np.hstack([np.zeros((len(e), 1), dtype=np.int64), steps]), axis=1
        )
        up[self.orders == self.trunc.max_order] = -1
        return up.astype(np.int32)

    @cached_property
    def down(self) -> np.ndarray:
        """down[i, k]: row of alpha_i - eps_{k+1}, or -1 when alpha_{k+1} = 0."""
        down = np.full_like(self.up, -1)
        rows, ks = np.nonzero(self.up >= 0)
        down[self.up[rows, ks], ks] = rows
        return down

    @cached_property
    def root_up(self) -> np.ndarray:
        """root_up[i, k] = sqrt(alpha_{k+1} + 1), the creation weight of alpha_i + eps_{k+1}."""
        return np.sqrt(self.exponents + 1)

    @cached_property
    def strat_plan(self) -> tuple:
        """``_gather_plan`` of the Stratonovich sum: per (alpha, k), the creation term
        sqrt(alpha_k + 1) onto alpha + eps_k, then the annihilation term sqrt(alpha_k)
        onto alpha - eps_k; terms that leave the truncation are left out."""
        targets = np.stack([self.up, self.down], axis=-1)
        return _gather_plan(targets, np.stack([self.root_up, np.sqrt(self.exponents)], axis=-1))

    @cached_property
    def trace_plan(self) -> tuple:
        """``_gather_plan`` of the Malliavin trace: sqrt(alpha_k) onto alpha - eps_k."""
        return _gather_plan(self.down[..., None], np.sqrt(self.exponents)[..., None])

    @cached_property
    def wick_pairs(self):
        """(ia, ib, ig, factor) over the pairs (alpha, beta) with |alpha| + |beta| <= N.

        Rows of alpha, beta and alpha + beta, and sqrt((alpha+beta)! / (alpha! beta!)).
        The pairs are the index set I(2K, N), each row split into two halves.
        """
        modes = self.trunc.modes
        both = _exponents(2 * modes, self.trunc.max_order)
        alpha, beta = both[:, :modes], both[:, modes:]
        ia, ib, ig = _rank(alpha), _rank(beta), _rank(alpha + beta)
        lf = self.log_factorial
        return ia, ib, ig, np.exp(0.5 * (lf[ig] - lf[ia] - lf[ib]))

    @cached_property
    def eval_plan(self):
        """(halves, blocks, pairs, width): how ``chaos_eval`` sums an expansion over a block of samples.

        The modes split into A = 1..ceil(K/2) and B = the rest, and each alpha
        into one pair (alpha_A, alpha_B), so that
        F(z) = sum_b xi_b(z_B) sum_a C[b, a] xi_a(z_A).  C is stored as one
        block per grade g of A: its rows are the multi-indices of B of order
        up to N - g, its columns those of A of order g, and ``pairs`` lists the
        coefficient row of each entry, block after block.  ``halves`` holds
        ``_half_plan`` of A and of B; ``blocks`` holds (offset in ``pairs``,
        rows, start, stop of grade g in A) per grade; ``width`` is the number
        of samples per block.
        """
        modes, top = self.trunc.modes, self.trunc.max_order
        ka = (modes + 1) // 2
        kb = modes - ka
        # every per-block array has at most this many rows of samples
        column = max(math.comb(top + ka, ka), math.comb(top + kb, kb), (top + 1) * modes)
        _check_table_size(column, f"a sample of chaos_eval on {self.trunc}")
        halves = (_half_plan(ka, 0, self.trunc), _half_plan(kb, ka, self.trunc))
        blocks, offset = [], 0
        for g in range(top + 1):
            start, stop = (math.comb(g - 1 + ka, ka) if g else 0), math.comb(g + ka, ka)
            rows = math.comb(top - g + kb, kb)
            blocks.append((offset, rows, start, stop))
            offset += rows * (stop - start)
        e = self.exponents
        rank_a = _rank(e[:, :ka])
        rank_b = _rank(e[:, ka:]) if kb else np.zeros(len(e), dtype=np.int64)
        offsets, starts, stops = np.array([(b[0], b[2], b[3]) for b in blocks]).T[:, e[:, :ka].sum(axis=1)]
        pairs = np.empty(len(e), dtype=np.int64)
        pairs[offsets + rank_b * (stops - starts) + rank_a - starts] = np.arange(len(e))
        return halves, tuple(blocks), pairs, min(_EVAL_BLOCK, MAX_TABLE_ENTRIES // column)

    @cached_property
    def alphas(self) -> tuple:
        # the multi-indices share their (position, value) pairs, which keeps the cache small
        pairs = [[(k + 1, a) for a in range(self.trunc.max_order + 1)] for k in range(self.trunc.modes)]
        return tuple(
            MultiIndex(tuple(pairs[k][a] for k, a in enumerate(row) if a)) for row in self.exponents.tolist()
        )

    @cached_property
    def index(self) -> dict:
        return {alpha: i for i, alpha in enumerate(self.alphas)}


@lru_cache(maxsize=32)
def _tables(trunc: Truncation) -> _IndexTables:
    """The cached index tables of ``trunc``; raises ConfigurationError over the size budget."""
    return _IndexTables(trunc)


def enumerate_multiindices(trunc: Truncation):
    """Ordered list of all multi-indices in I(K, N); deterministic."""
    return list(_tables(trunc).alphas)


def index_map(trunc: Truncation):
    """Map MultiIndex -> position in the enumeration order."""
    return _tables(trunc).index
