import math
import re
import tracemalloc

import numpy as np
import pytest

from chaosfield.errors import ConfigurationError
from chaosfield.multiindex import (
    MultiIndex,
    Truncation,
    _exponents,
    _log_factorial,
    _tables,
    enumerate_multiindices,
    index_map,
)
from test_chaos_tables import dense, from_dense


def test_zero_and_eps():
    zero = MultiIndex.zero()
    assert zero.order() == 0
    assert zero.entries == ()
    e3 = MultiIndex.eps(3)
    assert e3.order() == 1
    assert dict(e3.entries).get(3, 0) == 1
    assert dict(e3.entries).get(1, 0) == 0


def test_from_dense_roundtrip():
    # the tests' dense helpers against the sparse entries
    a = from_dense([2, 0, 1])
    assert a.entries == ((1, 2), (3, 1))
    assert dense(a, 4) == (2, 0, 1, 0)
    assert a.order() == 3
    assert a.max_support == 3


def test_factorial_log():
    assert _log_factorial(np.array([[3, 2], [0, 4]])) == pytest.approx([math.log(6) + math.log(2), math.log(24)])


def test_add_sub():
    a = from_dense([1, 1])
    b = a.add(MultiIndex.eps(1))
    assert dense(b, 2) == (2, 1)
    c = a.add(from_dense([0, 2, 1]))
    assert dense(c, 3) == (1, 3, 1)
    # the index tables' alpha - eps_k: row of b minus eps_1 is a's, and a has no eps_3 to take
    trunc = Truncation(3, 3)
    imap = index_map(trunc)
    down = _tables(trunc).down
    assert down[imap[b], 0] == imap[a]
    assert down[imap[a], 2] == -1


@pytest.mark.parametrize(
    "entries",
    [
        ((0, 1),),
        ((2, 1), (1, 1)),
        ((1, 1), (1, 2)),
        ((1, 0),),
        ((1, -2),),
        ((1, 1.5),),
        (("a", 1),),
        ((1, "b"),),
        (1,),
        ((1,),),
        ((1, math.nan),),
        ((1.5, 1),),
        ((True, 1),),
        ((1, True),),
        ((np.True_, 1),),
        ((1, np.True_),),
    ],
    ids=[
        "position-0",
        "decreasing",
        "repeated",
        "value-0",
        "negative",
        "fraction",
        "text-position",
        "text-value",
        "bare-number",
        "one-number-pair",
        "nan-value",
        "fractional-position",
        "bool-position",
        "bool-value",
        "numpy-bool-position",
        "numpy-bool-value",
    ],
)
def test_multi_index_refuses_bad_entries_by_name(entries):
    # a bare ValueError, which chaos._read_alpha re-wrapped by hand; an entry that is no pair of numbers
    # escaped as TypeError or ValueError; a position of 1.5 or True constructed, and 1.5 failed later
    # in an index lookup with a raw KeyError; a stored True constructed and equalled the count 1
    with pytest.raises(ConfigurationError, match=rf"^multi-index {re.escape(repr(entries))}: "):
        MultiIndex(entries)


def test_truncation_size():
    trunc = Truncation(2, 2)
    assert trunc.size() == math.comb(4, 2)
    assert len(enumerate_multiindices(trunc)) == trunc.size()


def test_enumeration_order_small():
    # graded by order; within a grade the first mode carries weight first
    trunc = Truncation(2, 1)
    alphas = enumerate_multiindices(trunc)
    assert [dense(a, 2) for a in alphas] == [(0, 0), (1, 0), (0, 1)]


def test_enumeration_grades_ascending():
    trunc = Truncation(3, 3)
    orders = [a.order() for a in enumerate_multiindices(trunc)]
    assert orders == sorted(orders)


def test_index_map_consistent():
    trunc = Truncation(3, 2)
    imap = index_map(trunc)
    for i, a in enumerate(enumerate_multiindices(trunc)):
        assert imap[a] == i


def ref_exponents(modes, max_order):
    """The exponent table by prepending each first entry to the rows of the positions after it."""
    grades = [np.array([[n]], dtype=np.int32) for n in range(max_order + 1)]
    for _ in range(modes - 1):
        grades = [
            np.concatenate([np.insert(grades[n - first], 0, first, axis=1) for first in range(n, -1, -1)])
            for n in range(max_order + 1)
        ]
    return np.concatenate(grades)


def test_exponents_match_the_prepending_recursion():
    # every (K, N) with K <= 40, N <= 8 and at most 200 000 table entries, and two large tables
    cases = [(k, n) for k in range(1, 41) for n in range(9) if math.comb(n + k, k) * k <= 200_000]
    cases += [(60, 3), (1000, 1)]
    assert len(cases) > 200
    for modes, max_order in cases:
        got, want = _exponents(modes, max_order), ref_exponents(modes, max_order)
        assert np.array_equal(got, want), (modes, max_order)
        assert got.dtype == np.int32 and got.flags.c_contiguous, (modes, max_order)


def test_contains():
    trunc = Truncation(2, 2)
    assert trunc.contains(from_dense([1, 1]))
    assert not trunc.contains(from_dense([2, 1]))
    assert not trunc.contains(MultiIndex.eps(3))


def test_oversized_truncation_raises_before_enumerating():
    # C(50, 10) = 1.0e10 indices: enumerating them would exhaust memory
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError):
            enumerate_multiindices(Truncation(40, 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_truncation_refuses_non_integer_modes():
    # math.comb raised a bare TypeError from size()
    with pytest.raises(ConfigurationError, match="modes"):
        Truncation(2.5, 2)


def test_truncation_refuses_non_integer_max_order():
    # enumerating raised a bare TypeError from math.comb
    with pytest.raises(ConfigurationError, match="max_order"):
        Truncation(2, 1.5)


@pytest.mark.parametrize("modes, max_order", [(True, 2), (2, False)])
def test_truncation_refuses_bools(modes, max_order):
    # True read as one mode
    with pytest.raises(ConfigurationError):
        Truncation(modes, max_order)


@pytest.mark.parametrize("modes, max_order", [(0, 2), (-1, 2), (2, -1)])
def test_truncation_refuses_values_out_of_range(modes, max_order):
    with pytest.raises(ConfigurationError):
        Truncation(modes, max_order)


def test_truncation_takes_numpy_integers():
    trunc = Truncation(np.int64(3), np.int32(2))
    assert trunc == Truncation(3, 2) and trunc.size() == 10
