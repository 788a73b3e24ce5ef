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

from .basis import BasisFamily, DEFAULT_RULE
from .chaos import ChaosExpansion, HValuedChaos, truncate_expansion
from .errors import DomainError
from .kernels import KernelSpec
from .multiindex import MultiIndex, Truncation, _tables, index_map


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


@lru_cache(maxsize=256)
def _localization_gram(basis: BasisFamily, modes: int, t: float) -> np.ndarray:
    """Gram matrix G[j, k] = int_0^t m_{j+1}(s) m_{k+1}(s) ds."""
    if t == 0.0:
        return np.zeros((modes, modes))
    xs, ws = DEFAULT_RULE.nodes_weights(0.0, t)
    vals = basis.eval(np.arange(1, modes + 1), xs)
    return (vals * ws) @ vals.T


def localize_integrand(eta: HValuedChaos, t: float) -> HValuedChaos:
    """Multiply the integrand by the indicator of [0, t], in coefficients.

    New coefficients eta'[alpha, j] = sum_k eta[alpha, k] (m_k chi_t, m_j).
    """
    basis = eta.basis
    if basis is None:
        raise DomainError("localization needs the integrand's basis reference")
    if t < 0 or t > basis.horizon + 1e-12:
        raise DomainError(f"t outside [0, {basis.horizon}]")
    gram = _localization_gram(basis, eta.trunc.modes, float(min(t, basis.horizon)))
    return HValuedChaos(eta.trunc, eta.coeffs @ gram.T, basis)


def kernel_pairing_matrix(kernel: KernelSpec, basis: BasisFamily, modes: int) -> np.ndarray:
    """Matrix C[j, k] = int_0^T m_{j+1}(t) (K m_{k+1})(t) dt."""
    ks = np.arange(1, modes + 1)
    # u = s^(gamma0+1) absorbs the s^gamma0 weight, s^gamma0 ds = p du (p = 1, u = s when gamma0 = 0)
    p = 1.0 / (kernel.gamma0 + 1.0)
    xs, ws = DEFAULT_RULE.nodes_weights(0.0, basis.horizon ** (kernel.gamma0 + 1.0))
    s = xs**p
    mj = basis.eval(ks, s)
    return p * np.stack([(mj * psi_k) @ ws for psi_k in kernel.psi(basis, ks, s)], axis=1)


def field_ito_integral(eta: HValuedChaos, kernel: KernelSpec) -> ChaosExpansion:
    """Ito integral against the Gaussian field with kernel K: B(K* eta).

    Rows are transformed by eta~[alpha, k] = int eta_alpha(t) (K m_k)(t) dt,
    then the white-noise Ito transform is applied.
    """
    basis = eta.basis
    if basis is None:
        raise DomainError("field integration needs the integrand's basis reference")
    c = kernel_pairing_matrix(kernel, basis, eta.trunc.modes)
    transformed = HValuedChaos(eta.trunc, eta.coeffs @ c, basis)
    return ito_integral(transformed)


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


def brownian_path_integrand(trunc: Truncation, basis: BasisFamily) -> HValuedChaos:
    """The truncated Brownian path W_K(t) = sum_k M_k(t) xi_k as an integrand.

    Coefficients eta[eps_k, j] = (M_k, m_j).
    """
    modes = trunc.modes
    imap = index_map(trunc)  # checks the truncation's size before allocating
    coeffs = np.zeros((trunc.size(), modes))
    xs, ws = DEFAULT_RULE.nodes_weights(0.0, basis.horizon)
    m_vals = basis.eval(np.arange(1, modes + 1), xs)
    for k in range(1, modes + 1):
        big_m = np.asarray(basis.antideriv(k, xs), dtype=float)
        coeffs[imap[MultiIndex.eps(k)]] = m_vals @ (ws * big_m)
    return HValuedChaos(trunc, coeffs, basis)
