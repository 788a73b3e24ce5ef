"""Ito-Skorokhod and Stratonovich integrals as coefficient transforms.

Both integrals act on an HValuedChaos integrand eta with coefficients
eta[alpha, k].  The Ito integral raises the chaos order by one (creation
operator); the Stratonovich integral adds the Malliavin trace term
(annihilation), so the two differ exactly by that trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import BasisFamily, DEFAULT_RULE, quad_singular_smooth
from .chaos import ChaosExpansion, HValuedChaos, truncate_expansion
from .errors import ConfigurationError, DomainError
from .kernels import KernelSpec
from .multiindex import Truncation, _check_table_size, _tables


def ito_integral(eta: HValuedChaos) -> ChaosExpansion:
    """B(eta) with coefficient sum_k sqrt(alpha_k) eta[alpha - eps_k, k].

    The output lives on the truncation (K, N + 1): integrating a chaos-order-N
    integrand produces order N + 1.
    """
    trunc = eta.trunc
    out_trunc = Truncation(trunc.modes, trunc.max_order + 1)
    up = _tables(out_trunc).up[: trunc.size()]  # the rows of (K, N) are the first rows of (K, N + 1)
    # bincount adds in (alpha, k) order, the order of the defining sum
    weights = _tables(trunc).root_up * eta.coeffs
    out = np.bincount(up.ravel(), weights=weights.ravel(), minlength=out_trunc.size())
    return ChaosExpansion.from_dense(out_trunc, out)


def malliavin_trace(eta: HValuedChaos) -> ChaosExpansion:
    """Trace term sum_alpha (eta_alpha, D xi_alpha): coefficient at beta is
    sum_k sqrt(beta_k + 1) eta[beta + eps_k, k]."""
    dst, src, w = _tables(eta.trunc).trace_plan
    out = np.bincount(dst, weights=eta.coeffs.ravel()[src] * w, minlength=eta.trunc.size())
    return ChaosExpansion.from_dense(eta.trunc, out)


def strat_integral(eta: HValuedChaos) -> ChaosExpansion:
    """Stratonovich integral: creation plus annihilation parts.

    Coefficient at alpha is
        sum_k (sqrt(alpha_k) eta[alpha - eps_k, k]
               + sqrt(alpha_k + 1) eta[alpha + eps_k, k]).
    The output is kept on the input truncation (K, N); creation terms of
    order N + 1 fall outside and are dropped.
    """
    dst, src, w = _tables(eta.trunc).strat_plan
    out = np.bincount(dst, weights=eta.coeffs.ravel()[src] * w, minlength=eta.trunc.size())
    return ChaosExpansion.from_dense(eta.trunc, out)


def strat_via_trace(eta: HValuedChaos) -> ChaosExpansion:
    """Stratonovich via the trace identity: truncated Ito plus Malliavin trace."""
    ito = truncate_expansion(ito_integral(eta), eta.trunc)
    return ito + malliavin_trace(eta)


def kernel_pairing_matrix(kernel: KernelSpec, basis: BasisFamily, modes: int) -> np.ndarray:
    """Matrix C[j, k] = int_0^T m_{j+1}(t) (K m_{k+1})(t) dt = int_0^T t^gamma0 m_{j+1}(t) psi_{k+1}(t) dt.

    One ``quad_singular_smooth`` call over all (j, k): the weight t^gamma0 is
    exact in its rule, so no node sits at the singular endpoint.  Its
    (j, k, node) table is checked against the table budget before it is built.
    """
    ks = np.arange(1, modes + 1)

    def products(s):
        _check_table_size(modes * modes * s.size, f"the {modes} x {modes} field Ito pairing on {s.size} nodes")
        return basis.eval(ks, s)[:, None] * kernel.psi(basis, ks, s)

    return quad_singular_smooth(products, 0.0, basis.horizon, kernel.gamma0)


def field_ito_integral(eta: HValuedChaos, kernel: KernelSpec, basis: BasisFamily) -> ChaosExpansion:
    """Ito integral against the Gaussian field with kernel K: B(K* eta), eta's columns the modes of ``basis``.

    Rows are transformed by eta~[alpha, k] = int eta_alpha(t) (K m_k)(t) dt,
    then the white-noise Ito transform is applied.
    """
    c = kernel_pairing_matrix(kernel, basis, eta.trunc.modes)
    return ito_integral(HValuedChaos(eta.trunc, eta.coeffs @ c))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Truncated admissibility sum and the top-shell mass fraction."""

    weighted_mass: float
    tail_ratio: float


def admissibility_diagnostic(eta: HValuedChaos) -> AdmissibilityReport:
    """sum_alpha |alpha| ||eta_alpha||^2 over the truncation, with tail ratio.

    The weighted sum is the truncated form of the admissibility condition for
    the Ito integral; the tail ratio (order-N shell mass over total mass)
    indicates whether the truncation has converged.
    """
    trunc = eta.trunc
    sq = np.sum(eta.coeffs**2, axis=1)
    orders = _tables(trunc).orders
    total = float(np.sum(sq))
    weighted = float(np.sum(orders * sq))
    top = float(np.sum(sq[orders == trunc.max_order]))
    ratio = top / total if total > 0 else 0.0
    return AdmissibilityReport(weighted, ratio)


@lru_cache(maxsize=8)  # one key per (basis, modes) in use; a K x K table, so no truncation is held
def _path_pairing(basis: BasisFamily, modes: int) -> np.ndarray:
    """P[k - 1, j - 1] = (M_k, m_j) for k, j = 1..modes, read-only.

    It depends on the basis and the mode count alone, so every truncation
    shares it.  An overflow (a huge horizon) raises DomainError, and nothing
    is memoised.
    """
    xs, ws = DEFAULT_RULE.nodes_weights(0.0, basis.horizon)
    ks = np.arange(1, modes + 1)
    m_vals = basis.eval(ks, xs)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, by name
        pairing = np.array([m_vals @ (ws * big_m) for big_m in basis.antideriv(ks, xs)])
    if not np.all(np.isfinite(pairing)):
        raise DomainError(f"the path pairing (M_k, m_j) overflows at horizon {basis.horizon!r}")
    pairing.flags.writeable = False
    return pairing


def brownian_path_integrand(trunc: Truncation, basis: BasisFamily) -> HValuedChaos:
    """The truncated Brownian path W_K(t) = sum_k M_k(t) xi_k as an integrand.

    Coefficients eta[eps_k, j] = (M_k, m_j), from the memoised pairing, in the
    grade-1 rows ``_tables(trunc).up[0]``.  The path lies in the first chaos,
    so a truncation of order 0 raises ConfigurationError.
    """
    if trunc.max_order < 1:
        raise ConfigurationError("the Brownian path integrand lies in the first chaos: it needs order >= 1")
    grade1 = _tables(trunc).up[0]  # checks the truncation's size before allocating
    coeffs = np.zeros((trunc.size(), trunc.modes))
    coeffs[grade1] = _path_pairing(basis, trunc.modes)
    return HValuedChaos(trunc, coeffs)
