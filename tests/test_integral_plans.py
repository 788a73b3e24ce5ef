"""The integrals and the Malliavin derivative over cached per-truncation plans.

The reference functions below are the dense formulas the operators used
before the plans were cached: each call built its own stacked targets,
square-root weights and validity mask.  The plans hold the same terms in the
same order with the same weights, so every output must agree bit for bit,
whatever the memory layout of the coefficients.
"""

import numpy as np
import pytest

from chaosfield import multiindex
from chaosfield.chaos import ChaosExpansion, HValuedChaos, malliavin_derivative
from chaosfield.integrals import ito_integral, malliavin_trace, strat_integral
from chaosfield.multiindex import Truncation, _tables

SIZES = [(1, 0), (3, 0), (1, 5), (2, 3), (3, 12), (8, 4), (12, 4), (16, 3)]
LAYOUTS = ["c", "fortran", "column-sliced"]


def ref_ito(eta):
    trunc = eta.trunc
    out_trunc = Truncation(trunc.modes, trunc.max_order + 1)
    tables = _tables(out_trunc)
    rows = trunc.size()
    weights = np.sqrt(tables.exponents[:rows] + 1) * eta.coeffs
    return np.bincount(tables.up[:rows].ravel(), weights=weights.ravel(), minlength=out_trunc.size())


def ref_trace(eta):
    tables = _tables(eta.trunc)
    valid = tables.down >= 0
    weights = np.sqrt(tables.exponents) * eta.coeffs
    return np.bincount(tables.down[valid], weights=weights[valid], minlength=eta.trunc.size())


def ref_strat(eta):
    tables = _tables(eta.trunc)
    e = tables.exponents
    targets = np.stack([tables.up, tables.down], axis=-1)
    weights = np.stack([np.sqrt(e + 1) * eta.coeffs, np.sqrt(e) * eta.coeffs], axis=-1)
    valid = targets >= 0
    return np.bincount(targets[valid], weights=weights[valid], minlength=eta.trunc.size())


def ref_malliavin(f):
    tables = _tables(f.trunc)
    padded = np.append(f.vec, 0.0)
    return np.sqrt(tables.exponents + 1) * padded[tables.up]


def coefficients(trunc, layout, seed):
    """Random S x K coefficients, C-ordered, Fortran-ordered or every other column of a wider array."""
    rng = np.random.default_rng(seed)
    shape = (trunc.size(), trunc.modes)
    if layout == "column-sliced":
        return rng.standard_normal((shape[0], 2 * shape[1]))[:, ::2]
    out = rng.standard_normal(shape)
    return np.asfortranarray(out) if layout == "fortran" else out


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("size", SIZES)
def test_integrals_bit_identical_to_dense_formulas(size, layout):
    trunc = Truncation(*size)
    eta = HValuedChaos(trunc, coefficients(trunc, layout, seed=sum(size)))
    for new, ref in ((ito_integral, ref_ito), (strat_integral, ref_strat), (malliavin_trace, ref_trace)):
        assert new(eta).vec.tobytes() == ref(eta).tobytes(), new.__name__


@pytest.mark.parametrize("size", SIZES)
def test_malliavin_derivative_bit_identical_to_dense_formula(size):
    trunc = Truncation(*size)
    f = ChaosExpansion.from_dense(trunc, np.random.default_rng(3).standard_normal(trunc.size()))
    assert malliavin_derivative(f).coeffs.tobytes() == ref_malliavin(f).tobytes()


@pytest.mark.parametrize("size", SIZES)
def test_plans_are_int32_and_cover_the_valid_terms(size):
    tables = _tables(Truncation(*size))
    for plan, terms in (
        (tables.strat_plan, int(np.sum(tables.up >= 0) + np.sum(tables.down >= 0))),
        (tables.trace_plan, int(np.sum(tables.down >= 0))),
    ):
        dst, src, w = plan
        assert dst.dtype == np.int32 and src.dtype == np.int32 and w.dtype == np.float64
        assert len(dst) == len(src) == len(w) == terms
    assert tables.root_up.shape == tables.exponents.shape


def test_plans_are_built_once_per_tables_entry(monkeypatch):
    built = []
    gather_plan = multiindex._gather_plan
    monkeypatch.setattr(multiindex, "_gather_plan", lambda *a: built.append(1) or gather_plan(*a))
    trunc = Truncation(5, 3)
    multiindex._tables.cache_clear()
    eta = HValuedChaos(trunc, coefficients(trunc, "c", seed=1))
    f = ChaosExpansion.from_dense(trunc, eta.coeffs[:, 0])
    for _ in range(3):
        ito_integral(eta), strat_integral(eta), malliavin_trace(eta), malliavin_derivative(f)
    tables = _tables(trunc)
    assert len(built) == 2  # one Stratonovich plan, one trace plan
    assert tables.strat_plan is _tables(trunc).strat_plan
    root_up = tables.root_up
    ito_integral(eta), malliavin_derivative(f)
    assert _tables(trunc).root_up is root_up
    # the Ito integral reads the input truncation's roots, not those of (K, N + 1)
    assert "root_up" not in vars(_tables(Truncation(5, 4)))
    multiindex._tables.cache_clear()
    strat_integral(eta)
    assert len(built) == 3  # a new tables entry builds its own plan
