"""The bytes of ``PropagatorSolution.export_csv`` against a reference writer.

The reference is a per-value row writer: each row's list repr split on
", ", one f-string per coefficient, and a sidecar dict built from
``enumerate_multiindices``.  The export writes the coefficients with numpy
(``sde._repr_fields``), so these tests pin its bytes against ``repr`` on
raw bit patterns, on the values where ``repr`` changes form, and on the
edges of the numpy path's own decisions.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosfield.multiindex import Truncation, enumerate_multiindices
from chaosfield import sde
from chaosfield.sde import PropagatorSolution, _export_texts

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

# repr switches to exponent form below 1e-4 and at 1e16; the rest are the extremes of float64
SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.finfo(float).max,
    1e-4, np.nextafter(1e-4, 0.0), 9.999e-5, 1e16, np.nextafter(1e16, 0.0), 1.0000000000000002e16,
    9999999999999998.0, 1.0, 2.0, 17.0, 1e15, 0.1 + 0.2,
]  # fmt: skip
VALUES = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
).flatmap(lambda x: st.sampled_from([x, -x]))


def reference_rows(times, coeffs) -> bytes:
    ids = [f",{j}," for j in range(coeffs.shape[1])]
    lines = ["t,alpha_id,coefficient\r\n"]
    for t, row in zip(times.tolist(), coeffs):
        stamp = repr(t)
        values = repr(row.tolist())[1:-1].split(", ")
        lines.append("".join([f"{stamp}{j}{c}\r\n" for j, c in zip(ids, values)]))
    return "".join(lines).encode()


def reference_sidecar(trunc) -> bytes:
    alphas = enumerate_multiindices(trunc)
    sidecar = {str(j): [[k, a] for k, a in alpha.entries] for j, alpha in enumerate(alphas)}
    return json.dumps(sidecar, sort_keys=True).encode()


def solution(trunc, times, coeffs) -> PropagatorSolution:
    times, coeffs = np.asarray(times, dtype=float), np.asarray(coeffs, dtype=float)
    return PropagatorSolution(trunc, times, coeffs, np.zeros((len(times), trunc.modes)))


def export(sol, tmp_path):
    path, sidecar = tmp_path / "sol.csv", tmp_path / "ids.json"
    sol.export_csv(path, sidecar)
    return path.read_bytes(), sidecar.read_bytes()


@SETTINGS
@given(
    trunc=st.sampled_from([Truncation(1, 1), Truncation(2, 3), Truncation(3, 2)]),
    data=st.data(),
)
def test_export_bytes_match_the_reference_writer(trunc, data, tmp_path_factory):
    n_times = data.draw(st.integers(1, 4))
    times = data.draw(st.lists(VALUES, min_size=n_times, max_size=n_times))
    coeffs = data.draw(st.lists(VALUES, min_size=n_times * trunc.size(), max_size=n_times * trunc.size()))
    sol = solution(trunc, times, np.reshape(coeffs, (n_times, trunc.size())))
    rows, sidecar = export(sol, tmp_path_factory.mktemp("export"))
    assert rows == reference_rows(sol.times, sol.coeffs)
    assert sidecar == reference_sidecar(trunc)


def test_every_special_value_in_times_and_coefficients(tmp_path):
    trunc = Truncation(2, 3)  # 10 columns
    values = np.array(SPECIAL + [-x for x in SPECIAL])
    coeffs = np.resize(values, (len(values), trunc.size()))
    coeffs[:, 0] = values[::-1]
    sol = solution(trunc, values, coeffs)
    rows, _ = export(sol, tmp_path)
    assert rows == reference_rows(sol.times, sol.coeffs)
    for text in ("5e-324", "2.2250738585072014e-308", "9.999e-05", "0.0001", "1e+16", "9999999999999998.0", "-0.0"):
        assert f",{text}\r\n".encode() in rows  # as a coefficient
        assert f"\r\n{text},".encode() in rows  # as a time


@pytest.mark.parametrize("modes, order", [(1, 1), (2, 3), (6, 4), (12, 2)])
def test_sidecar_bytes(modes, order, tmp_path):
    trunc = Truncation(modes, order)
    sol = solution(trunc, [0.0, 1.0], np.zeros((2, trunc.size())))
    rows, sidecar = export(sol, tmp_path)
    assert sidecar == reference_sidecar(trunc)
    assert rows == reference_rows(sol.times, sol.coeffs)


def test_second_export_of_a_truncation_reuses_the_cached_strings(tmp_path):
    trunc = Truncation(5, 3)
    first = solution(trunc, [0.5], np.full((1, trunc.size()), 0.25))
    second = solution(trunc, [0.5, 0.75], np.full((2, trunc.size()), -1.5))
    export(first, tmp_path)
    texts = _export_texts(trunc)
    hits = _export_texts.cache_info().hits
    rows, sidecar = export(second, tmp_path)
    assert _export_texts.cache_info().hits == hits + 1
    assert all(a is b for a, b in zip(_export_texts(trunc), texts))
    assert rows == reference_rows(second.times, second.coeffs)
    assert sidecar == reference_sidecar(trunc)


# ---------------------------------------------------------------------------
# the numpy formatter against repr, value by value


def formatted(values):
    """The texts ``_repr_fields`` writes for ``values``."""
    x = np.asarray(values, dtype=float)
    out = np.zeros((len(x), sde._FIELD), dtype=np.uint8)
    sde._repr_fields(x, out)
    return [bytes(row[row != 0]).decode() for row in out]


def fast_lanes(values):
    return sde._shortest_digits(np.abs(np.asarray(values, dtype=float)))[3].tolist()


BITS = st.integers(0, 2**64 - 1).map(lambda b: np.array(b, dtype=np.uint64).view(np.float64).item())


@SETTINGS
@given(st.lists(BITS.filter(np.isfinite), min_size=1, max_size=200))
def test_raw_bit_patterns_format_as_repr(values):
    # every exponent and both signs: subnormals, zeros and the extremes as well as the fast range
    assert formatted(values) == [repr(v) for v in values]


def test_bulk_values_format_as_repr():
    rng = np.random.default_rng(20250)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    typical = rng.random(20_000) ** rng.integers(1, 30, 20_000)  # coefficient-like: all decades down to 1e-30
    places = 10.0 ** rng.integers(1, 12, 20_000)
    short = np.round(rng.random(20_000) * places) / places * 10.0 ** rng.integers(-8, 18, 20_000)  # few digits
    for values in (bits[np.isfinite(bits)], typical, -typical, short):
        assert formatted(values) == [repr(v) for v in values.tolist()]


@pytest.mark.parametrize(
    "value, fast",
    [
        (9.999999999999999e-05, False),  # log10 rounds to -4.0: the decade guess is one off
        (7.678447687145631e-239, False),  # a power of two: its nearest 16-digit candidate lies outside the lower half-gap
        (1.0, False),
        (0.5, False),
        (1000000000000000.25, False),  # an exact tie between 1000000000000000.2 and .3
        (2**53 + 2.0, True),  # 9007199254740994.0: its half-gap's edges fall on integers, but none a multiple of 100
        (123456789.0, True),  # positional with '.0'
        (0.375, True),  # three digits: 14 trailing digits dropped
        (1e-250, True),  # the low end of the fast range
        (np.nextafter(1e-250, 1.0), True),
        (np.nextafter(1e-250, 0.0), False),
        (5e249, True),
        (1e250, False),  # 1e250 reads as 10^250 in log10, one decade above its own
        (np.nextafter(1e250, np.inf), False),
        (0.0, False),
        (5e-324, False),  # subnormals
        (2.225073858507201e-308, False),
        (1e16, True),  # exponent form from here: '1e+16'; 1e16 +- 1 sit on the edges and add no digit to drop
        (18014398509481992.0, False),  # 2^54 + 8: its lower edge, 18014398509481990, would add a digit, and repr takes it
        (9999999999999998.0, False),
        (4.4e19, True),  # exponent form, no point
        (1.2345678901234567e20, True),
        (1e-4, True),
        (12345.678, True),  # more than one integer group
        (1.2345678901234567e-123, True),  # a three-digit exponent
    ],
)
def test_named_edges_format_as_repr_by_the_path_that_decides_them(value, fast):
    values = [float(value), -float(value)]
    assert formatted(values) == [repr(v) for v in values]
    assert fast_lanes(values) == [fast, fast]


def test_integer_valued_doubles_past_2_53_take_no_slow_path():
    # an edge integer that adds no digit to drop cannot change repr: these once all went to repr
    values = np.array([9007199254740994.0, 1e16, -1e16, 2.0**53 + 4.0, 123456789012345678.0 / 10])
    out = np.zeros((len(values), sde._FIELD), dtype=np.uint8)
    assert sde._repr_fields(values, out) == 0
    assert [bytes(row[row != 0]).decode() for row in out] == [repr(v) for v in values.tolist()]
    # integers below 2^53 whose edges fall on integers too: about half of them took the slow path
    ints = np.floor(np.random.default_rng(7).uniform(1.0, 2.0**53, 5000))
    assert formatted(ints) == [repr(v) for v in ints.tolist()]
    assert all(fast_lanes(ints))


def test_a_table_over_many_blocks_and_rows_wider_than_a_block(tmp_path, monkeypatch):
    # blocks never split a time row: with 7 values a block, a 10-column row is a block of its own
    values = np.array(SPECIAL + [-x for x in SPECIAL] + [0.1 * k for k in range(1, 23)])
    trunc = Truncation(2, 3)
    coeffs = np.resize(values, (9, trunc.size()))
    for block in (7, 10, 23, 4096):
        monkeypatch.setattr(sde, "_EXPORT_BLOCK", block)
        sol = solution(trunc, np.linspace(0.0, 1.0, 9), coeffs)
        rows, _ = export(sol, tmp_path)
        assert rows == reference_rows(sol.times, sol.coeffs)


def test_float32_coefficients_are_written_as_their_doubles(tmp_path):
    trunc = Truncation(2, 3)
    coeffs = np.linspace(-1.0, 1.0, 3 * trunc.size(), dtype=np.float32).reshape(3, -1) / 3
    sol = PropagatorSolution(trunc, np.array([0.0, 0.5, 1.0]), coeffs, np.zeros((3, 2)))
    rows, _ = export(sol, tmp_path)
    assert rows == reference_rows(sol.times, sol.coeffs)
