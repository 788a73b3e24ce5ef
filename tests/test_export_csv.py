"""The bytes of ``PropagatorSolution.export_csv`` against a reference writer.

The reference is the row writer the template replaced: each row's list repr
split on ", ", one f-string per coefficient, and a sidecar dict built from
``enumerate_multiindices``.  ``%r`` is ``repr``, so the two agree by
construction; these tests pin it on the values where ``repr`` changes form.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosfield.basis import BasisFamily
from chaosfield.multiindex import Truncation, enumerate_multiindices
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
    return PropagatorSolution(trunc, BasisFamily("cosine"), "brownian", times, coeffs, np.zeros((len(times), trunc.modes)))


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
