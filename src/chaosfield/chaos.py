"""Chaos expansions and the Wick algebra on truncated chaos spaces.

A ChaosExpansion is a square-integrable random variable written in the
Cameron-Martin basis xi_alpha, restricted to a finite truncation.  The Wick
product, Wick exponential, Malliavin derivative and pointwise evaluation all
act on the coefficients.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, DomainError
from .hermite import hermite_table
from .multiindex import (
    MultiIndex,
    Truncation,
    _check_table_size,
    _log_factorial,
    _rank,
    _tables,
    enumerate_multiindices,
    index_map,
)


@dataclass(frozen=True)
class ChaosExpansion:
    """Finite map MultiIndex -> coefficient over a fixed truncation.

    Absent keys mean zero.  Immutable: operations return new expansions.
    """

    trunc: Truncation
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        for alpha in self.coeffs:
            if not self.trunc.contains(alpha):
                raise ConfigurationError(f"index {alpha} outside truncation {self.trunc}")

    def get(self, alpha: MultiIndex) -> float:
        return self.coeffs.get(alpha, 0.0)

    @property
    def mean(self) -> float:
        return self.coeffs.get(MultiIndex.zero(), 0.0)

    def norm_squared(self) -> float:
        return sum(c * c for c in self.coeffs.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def __add__(self, other: "ChaosExpansion") -> "ChaosExpansion":
        if other.trunc != self.trunc:
            raise ConfigurationError("truncation mismatch in addition")
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0.0) + c
        return ChaosExpansion(self.trunc, out)

    def __sub__(self, other: "ChaosExpansion") -> "ChaosExpansion":
        return self + other.scale(-1.0)

    def scale(self, c: float) -> "ChaosExpansion":
        return ChaosExpansion(self.trunc, {a: c * v for a, v in self.coeffs.items()})

    def dense(self) -> np.ndarray:
        """Coefficients as a vector in enumeration order."""
        imap = index_map(self.trunc)
        out = np.zeros(self.trunc.size())
        for a, c in self.coeffs.items():
            out[imap[a]] = c
        return out

    @staticmethod
    def from_dense(trunc: Truncation, vec) -> "ChaosExpansion":
        """Expansion holding the nonzero entries of ``vec``, in enumeration order."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (trunc.size(),):
            raise ConfigurationError(f"dense vector shape {vec.shape}, expected ({trunc.size()},)")
        alphas = _tables(trunc).alphas
        rows = np.flatnonzero(vec)
        return ChaosExpansion(trunc, dict(zip([alphas[i] for i in rows.tolist()], vec[rows].tolist())))

    @staticmethod
    def constant(trunc: Truncation, c: float) -> "ChaosExpansion":
        if c == 0.0:
            return ChaosExpansion(trunc, {})
        return ChaosExpansion(trunc, {MultiIndex.zero(): float(c)})

    @staticmethod
    def basis_element(trunc: Truncation, alpha: MultiIndex) -> "ChaosExpansion":
        return ChaosExpansion(trunc, {alpha: 1.0})

    def to_dict(self) -> dict:
        return {
            "trunc": {"modes": self.trunc.modes, "max_order": self.trunc.max_order},
            "coeffs": [
                {"alpha": [[k, a] for k, a in alpha.entries], "value": v}
                for alpha, v in sorted(
                    self.coeffs.items(), key=lambda kv: (kv[0].order(), kv[0].entries)
                )
            ],
        }

    @staticmethod
    def from_dict(d: dict) -> "ChaosExpansion":
        trunc = Truncation(d["trunc"]["modes"], d["trunc"]["max_order"])
        coeffs = {
            MultiIndex(tuple((int(k), int(a)) for k, a in item["alpha"])): float(item["value"])
            for item in d["coeffs"]
        }
        return ChaosExpansion(trunc, coeffs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(s: str) -> "ChaosExpansion":
        return ChaosExpansion.from_dict(json.loads(s))


@dataclass(frozen=True)
class HValuedChaos:
    """H-valued random integrand: coefficient array eta[alpha, k].

    Rows follow the enumeration order of ``trunc``; columns are basis modes
    1..K.  ``basis`` is an optional BasisFamily reference carried along so
    integrators know which m_k the columns refer to.
    """

    trunc: Truncation
    coeffs: np.ndarray
    basis: object = None

    def __post_init__(self):
        expected = (self.trunc.size(), self.trunc.modes)
        if self.coeffs.shape != expected:
            raise ConfigurationError(
                f"coefficient array shape {self.coeffs.shape}, expected {expected}"
            )
        if not np.all(np.isfinite(self.coeffs)):
            raise DomainError("integrand coefficients must be finite")

    def norm_squared(self) -> float:
        return float(np.sum(self.coeffs**2))

    def row(self, alpha: MultiIndex) -> np.ndarray:
        return self.coeffs[index_map(self.trunc)[alpha]]

    @staticmethod
    def zeros(trunc: Truncation, basis=None) -> "HValuedChaos":
        _tables(trunc)  # checks the truncation's size before allocating
        return HValuedChaos(trunc, np.zeros((trunc.size(), trunc.modes)), basis)

    def to_dict(self) -> dict:
        alphas = enumerate_multiindices(self.trunc)
        items = []
        for i, alpha in enumerate(alphas):
            for k in range(self.trunc.modes):
                v = self.coeffs[i, k]
                if v != 0.0:
                    items.append(
                        {"alpha": [[p, a] for p, a in alpha.entries], "k": k + 1, "value": float(v)}
                    )
        return {
            "trunc": {"modes": self.trunc.modes, "max_order": self.trunc.max_order},
            "coeffs": items,
        }

    @staticmethod
    def from_dict(d: dict, basis=None) -> "HValuedChaos":
        trunc = Truncation(d["trunc"]["modes"], d["trunc"]["max_order"])
        imap = index_map(trunc)  # checks the truncation's size before allocating
        arr = np.zeros((trunc.size(), trunc.modes))
        for item in d["coeffs"]:
            alpha = MultiIndex(tuple((int(k), int(a)) for k, a in item["alpha"]))
            arr[imap[alpha], int(item["k"]) - 1] = float(item["value"])
        return HValuedChaos(trunc, arr, basis)


def xi_alpha_eval(alpha: MultiIndex, z) -> float:
    """Evaluate the basis element xi_alpha at a Gaussian sample z.

    xi_alpha(z) = prod_k H_{alpha_k}(z_k) / sqrt(alpha_k!).  z may be a vector
    (one sample) or an (n, K) array of samples.
    """
    z = np.asarray(z, dtype=float)
    one_sample = z.ndim == 1
    zz = z[None, :] if one_sample else z
    if alpha.max_support > zz.shape[1]:
        raise DimensionError(
            f"support up to {alpha.max_support} exceeds sample length {zz.shape[1]}"
        )
    out = np.ones(zz.shape[0])
    for k, a in alpha.entries:
        h = hermite_table(a, zz[:, k - 1])[a]
        out *= h / math.sqrt(math.factorial(a)) if a <= 170 else h * math.exp(
            -0.5 * math.lgamma(a + 1)
        )
    return float(out[0]) if one_sample else out


def wick_product(f: ChaosExpansion, g: ChaosExpansion, return_dropped: bool = False):
    """Wick product on the shared truncation.

    out(gamma) = sum_{alpha+beta=gamma} f_alpha g_beta sqrt((alpha+beta)!/(alpha! beta!)).
    Terms whose order exceeds the truncation are dropped; with
    ``return_dropped`` the squared mass of the dropped coefficients is
    returned alongside.
    """
    if f.trunc != g.trunc:
        raise ConfigurationError("wick_product requires a shared truncation")
    tables = _tables(f.trunc)
    ia, ib, ig, factor = tables.wick_pairs
    fd, gd = f.dense(), g.dense()
    out = np.bincount(ig, weights=fd[ia] * gd[ib] * factor, minlength=len(fd))
    result = ChaosExpansion.from_dense(f.trunc, out)
    if return_dropped:
        return result, _dropped_mass(tables, fd, gd)
    return result


def _dropped_mass(tables, fd: np.ndarray, gd: np.ndarray) -> float:
    """Squared mass of the Wick product's coefficients of order above N."""
    rows_f, rows_g = np.flatnonzero(fd), np.flatnonzero(gd)
    _check_table_size(len(rows_f) * len(rows_g) * tables.trunc.modes, "the dropped Wick mass")
    ia, ib = np.repeat(rows_f, len(rows_g)), np.tile(rows_g, len(rows_f))
    outside = tables.orders[ia] + tables.orders[ib] > tables.trunc.max_order
    ia, ib = ia[outside], ib[outside]
    gamma = tables.exponents[ia] + tables.exponents[ib]
    lf = tables.log_factorial
    terms = fd[ia] * gd[ib] * np.exp(0.5 * (_log_factorial(gamma) - lf[ia] - lf[ib]))
    _, slot = np.unique(_rank(gamma), return_inverse=True)
    sums = np.bincount(slot, weights=terms)
    return float(np.dot(sums, sums))


def wick_exp_first_chaos(c, trunc: Truncation) -> ChaosExpansion:
    """Truncated Wick exponential of the first-chaos element sum_k c_k xi_k.

    Coefficients c^alpha / sqrt(alpha!) over the whole truncated index set;
    the order-zero term is 1, giving unit mean.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (trunc.modes,):
        raise ConfigurationError(f"coefficient vector must have length {trunc.modes}")
    if not np.all(np.isfinite(c)):
        raise DomainError("first-chaos coefficients must be finite")
    tables = _tables(trunc)
    # powers[k, a] = c_k ** a; the column a = 0 is exactly 1
    powers = np.array(
        [[1.0] + [c[k] ** a for a in range(1, trunc.max_order + 1)] for k in range(trunc.modes)]
    )
    v = np.ones(len(tables.exponents))
    for k in range(trunc.modes):
        v *= powers[k, tables.exponents[:, k]]
    return ChaosExpansion.from_dense(trunc, v * tables.inv_sqrt_factorial)


def truncate_expansion(f: ChaosExpansion, trunc: Truncation) -> ChaosExpansion:
    """Project onto a (typically smaller) truncation, dropping outside terms."""
    return ChaosExpansion(
        trunc, {a: c for a, c in f.coeffs.items() if trunc.contains(a)}
    )


def chaos_eval(f: ChaosExpansion, z):
    """Evaluate sum_alpha f_alpha xi_alpha(z).

    z may be a single sample of length >= K or an (n_samples, K') array.
    """
    z = np.asarray(z, dtype=float)
    one_sample = z.ndim == 1
    zz = z[None, :] if one_sample else z
    if not np.all(np.isfinite(zz)):
        raise DomainError("samples must be finite")
    if any(a.max_support > zz.shape[1] for a in f.coeffs):
        raise DimensionError("sample vector shorter than the expansion support")
    n_max = f.trunc.max_order
    # normalized Hermite values H_n(z_k) / sqrt(n!), shape (N+1, n, K)
    table = hermite_table(n_max, zz)
    for n in range(2, n_max + 1):
        table[n] /= math.sqrt(math.factorial(n)) if n <= 170 else math.exp(
            0.5 * math.lgamma(n + 1)
        )
    out = np.zeros(zz.shape[0])
    for alpha, coef in f.coeffs.items():
        term = np.full(zz.shape[0], coef)
        for k, a in alpha.entries:
            term = term * table[a, :, k - 1]
        out += term
    return float(out[0]) if one_sample else out


def malliavin_derivative(f: ChaosExpansion) -> HValuedChaos:
    """Annihilation operator: D xi_alpha = sum_k sqrt(alpha_k) xi_{alpha-eps_k} m_k.

    Output coefficients D[beta, k] = sqrt(beta_k + 1) * f_{beta+eps_k}.
    """
    tables = _tables(f.trunc)
    padded = np.append(f.dense(), 0.0)  # up = -1 reads the trailing zero
    return HValuedChaos(f.trunc, np.sqrt(tables.exponents + 1) * padded[tables.up])
