"""Chaos expansions and the Wick algebra on truncated chaos spaces.

A ChaosExpansion is a square-integrable random variable written in the
Cameron-Martin basis xi_alpha, restricted to a finite truncation, and stored
as one read-only coefficient vector in the truncation's enumeration order.
The Wick product, Wick exponential, Malliavin derivative and pointwise
evaluation all act on that vector; MultiIndex keys serve input and output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

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
    index_map,
)


@dataclass(frozen=True, init=False, eq=False)
class ChaosExpansion:
    """Coefficient vector over a fixed truncation, in its enumeration order.

    ``ChaosExpansion(trunc, {alpha: c})`` puts each c at the row of alpha; a
    key outside the truncation raises ConfigurationError.  Immutable: ``vec``
    is read-only and operations return new expansions.
    """

    trunc: Truncation
    vec: np.ndarray

    def __init__(self, trunc: Truncation, coeffs: dict | None = None):
        vec = np.zeros(len(_tables(trunc).exponents))  # checks the size budget before allocating
        if coeffs:
            imap = index_map(trunc)
            try:
                rows = [imap[alpha] for alpha in coeffs]
            except KeyError as exc:
                raise ConfigurationError(f"index {exc.args[0]} outside truncation {trunc}") from None
            vec[rows] = list(coeffs.values())
        vec.flags.writeable = False
        self.__dict__.update(trunc=trunc, vec=vec)  # frozen: bypasses __setattr__

    def __reduce__(self):
        # the cached ``coeffs`` view cannot be pickled; it is rebuilt on use
        return ChaosExpansion.from_dense, (self.trunc, self.vec)

    def __eq__(self, other) -> bool:
        same_space = isinstance(other, ChaosExpansion) and self.trunc == other.trunc
        return same_space and np.array_equal(self.vec, other.vec)

    @cached_property
    def coeffs(self) -> MappingProxyType:
        """Read-only MultiIndex -> coefficient view of the nonzero entries, in enumeration order."""
        alphas = _tables(self.trunc).alphas
        rows = np.flatnonzero(self.vec)
        return MappingProxyType(dict(zip([alphas[i] for i in rows.tolist()], self.vec[rows].tolist())))

    def get(self, alpha: MultiIndex) -> float:
        row = index_map(self.trunc).get(alpha)
        return 0.0 if row is None else float(self.vec[row])

    @property
    def mean(self) -> float:
        return float(self.vec[0])  # row 0 is the zero multi-index

    def norm_squared(self) -> float:
        # left to right in enumeration order: np.dot regroups, and the built-in sum compensates on Python >= 3.12
        total = 0.0
        for c in self.vec[self.vec != 0].tolist():
            total += c * c
        return total

    def __add__(self, other: "ChaosExpansion") -> "ChaosExpansion":
        if other.trunc != self.trunc:
            raise ConfigurationError("truncation mismatch in addition")
        return ChaosExpansion.from_dense(self.trunc, self.vec + other.vec)

    def __sub__(self, other: "ChaosExpansion") -> "ChaosExpansion":
        return self + other.scale(-1.0)

    def scale(self, c: float) -> "ChaosExpansion":
        if not math.isfinite(c):
            raise DomainError("scale factor must be finite")
        return ChaosExpansion.from_dense(self.trunc, c * self.vec)

    def dense(self) -> np.ndarray:
        """Writable copy of the coefficient vector."""
        return self.vec.copy()

    @staticmethod
    def from_dense(trunc: Truncation, vec) -> "ChaosExpansion":
        """Expansion with a copy of ``vec`` as its coefficients, in enumeration order."""
        vec = np.array(vec, dtype=float)
        if vec.shape != (trunc.size(),):
            raise ConfigurationError(f"dense vector shape {vec.shape}, expected ({trunc.size()},)")
        vec.flags.writeable = False
        out = object.__new__(ChaosExpansion)
        out.__dict__.update(trunc=trunc, vec=vec)
        return out

    @staticmethod
    def constant(trunc: Truncation, c: float) -> "ChaosExpansion":
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

    @staticmethod
    def zeros(trunc: Truncation, basis=None) -> "HValuedChaos":
        _tables(trunc)  # checks the truncation's size before allocating
        return HValuedChaos(trunc, np.zeros((trunc.size(), trunc.modes)), basis)

    def to_dict(self) -> dict:
        alphas = _tables(self.trunc).alphas
        rows, ks = np.nonzero(self.coeffs)
        items = [
            {"alpha": [[p, a] for p, a in alphas[i].entries], "k": k + 1, "value": v}
            for i, k, v in zip(rows.tolist(), ks.tolist(), self.coeffs[rows, ks].tolist())
        ]
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
    """Evaluate the basis element xi_alpha = prod_k H_{alpha_k}(z_k) / sqrt(alpha_k!).

    z may be a vector (one sample) or an (n, K) array of samples.  Evaluated on
    the index set of alpha's own support, so 10 eps_40 needs no 40-mode tables.
    """
    z = np.asarray(z, dtype=float)
    if alpha.max_support > z.shape[-1]:
        raise DimensionError(f"support up to {alpha.max_support} exceeds sample length {z.shape[-1]}")
    packed = MultiIndex.from_dense([a for _, a in alpha.entries])
    basis = ChaosExpansion.basis_element(Truncation(max(len(alpha.entries), 1), alpha.order()), packed)
    return chaos_eval(basis, z[..., [k - 1 for k, _ in alpha.entries]])


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
    out = np.bincount(ig, weights=f.vec[ia] * g.vec[ib] * factor, minlength=len(f.vec))
    result = ChaosExpansion.from_dense(f.trunc, out)
    if return_dropped:
        return result, _dropped_mass(tables, f.vec, g.vec)
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
    return ChaosExpansion.from_dense(trunc, _wick_exp_rows(c[None, :], _tables(trunc))[0])


def _wick_exp_rows(c: np.ndarray, tables) -> np.ndarray:
    """Rows c_i^alpha / sqrt(alpha!) over a truncation's index set: shape (n, S) for c of shape (n, K)."""
    powers = np.ones((tables.trunc.max_order + 1,) + c.shape)  # powers[a] = c ** a; a = 0 is exactly 1
    for a in range(1, tables.trunc.max_order + 1):
        powers[a] = c**a
    rows = np.ones((len(c), len(tables.exponents)))
    for k in range(c.shape[1]):
        rows *= powers[tables.exponents[:, k], :, k].T
    return rows * tables.inv_sqrt_factorial


def truncate_expansion(f: ChaosExpansion, trunc: Truncation) -> ChaosExpansion:
    """Project onto another (typically smaller) truncation, dropping outside terms."""
    tables = _tables(trunc)
    # trunc's exponent rows, padded to the wider mode count
    rows = np.zeros((len(tables.exponents), max(f.trunc.modes, trunc.modes)), dtype=np.int64)
    rows[:, : trunc.modes] = tables.exponents
    inside = ~np.any(rows[:, f.trunc.modes :], axis=1) & (tables.orders <= f.trunc.max_order)
    vec = np.zeros(len(rows))
    vec[inside] = f.vec[_rank(rows[inside, : f.trunc.modes])]
    return ChaosExpansion.from_dense(trunc, vec)


def chaos_eval(f: ChaosExpansion, z):
    """Evaluate sum_alpha f_alpha xi_alpha(z).

    z may be a single sample of length >= K or an (n_samples, K') array.
    """
    z = np.asarray(z, dtype=float)
    one_sample = z.ndim == 1
    zz = z[None, :] if one_sample else z
    if not np.all(np.isfinite(zz)):
        raise DomainError("samples must be finite")
    rows = np.flatnonzero(f.vec)
    exponents = _tables(f.trunc).exponents[rows]
    if np.any(exponents[:, zz.shape[1] :]):
        raise DimensionError("sample vector shorter than the expansion support")
    n_max = f.trunc.max_order
    # normalized Hermite values H_n(z_k) / sqrt(n!), shape (N+1, K, n)
    table = hermite_table(n_max, zz[:, : f.trunc.modes].T)
    for n in range(2, n_max + 1):
        table[n] /= math.sqrt(math.factorial(n)) if n <= 170 else math.exp(
            0.5 * math.lgamma(n + 1)
        )
    # row by row, in enumeration order, each row's factors by ascending mode
    out = np.zeros(zz.shape[0])
    for coef, row in zip(f.vec[rows].tolist(), exponents.tolist()):
        term = np.full(zz.shape[0], coef)
        for k, a in enumerate(row):
            if a:
                term *= table[a, k]
        out += term
    return float(out[0]) if one_sample else out


def malliavin_derivative(f: ChaosExpansion) -> HValuedChaos:
    """Annihilation operator: D xi_alpha = sum_k sqrt(alpha_k) xi_{alpha-eps_k} m_k.

    Output coefficients D[beta, k] = sqrt(beta_k + 1) * f_{beta+eps_k}.
    """
    tables = _tables(f.trunc)
    padded = np.append(f.vec, 0.0)  # up = -1 reads the trailing zero
    return HValuedChaos(f.trunc, np.sqrt(tables.exponents + 1) * padded[tables.up])
