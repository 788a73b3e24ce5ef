"""Chaos expansions and the Wick algebra on truncated chaos spaces.

A ChaosExpansion is a square-integrable random variable written in the
Cameron-Martin basis xi_alpha, restricted to a finite truncation, and stored
as one read-only coefficient vector in the truncation's enumeration order.
The Wick product, Wick exponential, Malliavin derivative and pointwise
evaluation all act on that vector; MultiIndex keys serve input and output.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import ConfigurationError, DomainError
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


# the operations that can overflow compute without numpy's warning: ``from_dense`` refuses their inf or NaN
_quiet = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True, init=False, eq=False)
class ChaosExpansion:
    """Coefficient vector over a fixed truncation, in its enumeration order.

    ``ChaosExpansion(trunc, {alpha: c})`` puts each c at the row of alpha; a
    key outside the truncation raises ConfigurationError, and a coefficient
    that is not finite DomainError, here and in ``from_dense``, so an
    operation that overflows is refused where its result is built.
    Immutable: ``vec`` is read-only and operations return new expansions.
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
        self.__dict__.update(trunc=trunc, vec=_frozen(vec))  # frozen: bypasses __setattr__

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

    @_quiet
    def __add__(self, other: "ChaosExpansion") -> "ChaosExpansion":
        if other.trunc != self.trunc:
            raise ConfigurationError("truncation mismatch in addition")
        return ChaosExpansion.from_dense(self.trunc, self.vec + other.vec)

    def __sub__(self, other: "ChaosExpansion") -> "ChaosExpansion":
        return self + other.scale(-1.0)

    @_quiet
    def scale(self, c: float) -> "ChaosExpansion":
        if not math.isfinite(c):
            raise DomainError("scale factor must be finite")
        return ChaosExpansion.from_dense(self.trunc, c * self.vec)

    @staticmethod
    def from_dense(trunc: Truncation, vec) -> "ChaosExpansion":
        """Expansion with a copy of ``vec`` as its coefficients, in enumeration order."""
        vec = np.array(vec, dtype=float)
        if vec.shape != (trunc.size(),):
            raise ConfigurationError(f"dense vector shape {vec.shape}, expected ({trunc.size()},)")
        out = object.__new__(ChaosExpansion)
        out.__dict__.update(trunc=trunc, vec=_frozen(vec))
        return out

    @staticmethod
    def constant(trunc: Truncation, c: float) -> "ChaosExpansion":
        return ChaosExpansion(trunc, {MultiIndex.zero(): float(c)})

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
        """Inverse of ``to_dict``; a malformed ``d`` raises ConfigurationError."""
        trunc, items = _read_trunc_and_items(d)
        coeffs = {}
        for item in items:
            alpha, value = _fields(item, ("alpha", "value"), "a coefficient")
            coeffs[_read_alpha(alpha, trunc)] = _read_value(value)
        return ChaosExpansion(trunc, coeffs)


@dataclass(frozen=True)
class HValuedChaos:
    """H-valued random integrand: coefficient array eta[alpha, k].

    Rows follow the enumeration order of ``trunc``; columns are basis modes
    1..K of the basis the caller pairs them with.
    """

    trunc: Truncation
    coeffs: np.ndarray

    def __post_init__(self):
        expected = (self.trunc.size(), self.trunc.modes)
        if self.coeffs.shape != expected:
            raise ConfigurationError(
                f"coefficient array shape {self.coeffs.shape}, expected {expected}"
            )
        if not np.all(np.isfinite(self.coeffs)):
            raise DomainError("integrand coefficients must be finite")

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
    def from_dict(d: dict) -> "HValuedChaos":
        """Inverse of ``to_dict``; a malformed ``d`` raises ConfigurationError."""
        trunc, items = _read_trunc_and_items(d)
        imap = index_map(trunc)  # checks the truncation's size before allocating
        arr = np.zeros((trunc.size(), trunc.modes))
        for item in items:
            alpha, k, value = _fields(item, ("alpha", "k", "value"), "a coefficient")
            row = imap[_read_alpha(alpha, trunc)]
            if not (_is_int(k) and 1 <= k <= trunc.modes):
                raise ConfigurationError(f"k must be an integer in 1..{trunc.modes}, not {k!r}")
            arr[row, k - 1] = _read_value(value)
        return HValuedChaos(trunc, arr)


def _frozen(vec: np.ndarray) -> np.ndarray:
    """``vec`` made read-only, once every coefficient is checked to be finite."""
    if not np.isfinite(vec).all():
        raise DomainError(f"chaos coefficients must be finite, not {float(vec[~np.isfinite(vec)][0])!r}")
    vec.flags.writeable = False
    return vec


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _fields(d, keys: tuple, what: str) -> list:
    """The values of ``keys`` in the JSON object ``d``, which must hold exactly those keys."""
    if not isinstance(d, dict) or set(d) != set(keys):
        got = sorted(map(str, d)) if isinstance(d, dict) else type(d).__name__
        raise ConfigurationError(f"{what} must be an object with keys {sorted(keys)}, not {got}")
    return [d[key] for key in keys]


def _read_trunc_and_items(d) -> tuple:
    """(Truncation, list of coefficient items) of a ``to_dict`` object."""
    trunc, items = _fields(d, ("trunc", "coeffs"), "a chaos object")
    trunc = Truncation(*_fields(trunc, ("modes", "max_order"), "trunc"))  # refuses non-integers and bad ranges
    if not isinstance(items, list):
        raise ConfigurationError(f"coeffs must be a list, not {type(items).__name__}")
    return trunc, items


def _read_alpha(pairs, trunc: Truncation) -> MultiIndex:
    """A multi-index given as [[position, value], ...], which must lie in ``trunc``."""
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(_is_int(v) for v in p) for p in pairs
    ):
        raise ConfigurationError(f"alpha must be a list of [position, value] integer pairs, not {pairs!r}")
    alpha = MultiIndex(tuple((k, a) for k, a in pairs))  # refuses a bad position or value
    if not trunc.contains(alpha):
        raise ConfigurationError(f"alpha {pairs!r} outside truncation {trunc}")
    return alpha


def _read_value(value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"a coefficient value must be a number, not {value!r}")
    return float(value)


@_quiet
def wick_product(f: ChaosExpansion, g: ChaosExpansion) -> ChaosExpansion:
    """Wick product on the shared truncation.

    out(gamma) = sum_{alpha+beta=gamma} f_alpha g_beta sqrt((alpha+beta)!/(alpha! beta!)).
    Terms whose order exceeds the truncation are dropped; ``_dropped_mass``
    gives their squared mass.
    """
    if f.trunc != g.trunc:
        raise ConfigurationError("wick_product requires a shared truncation")
    tables = _tables(f.trunc)
    ia, ib, ig, factor = tables.wick_pairs
    out = np.bincount(ig, weights=f.vec[ia] * g.vec[ib] * factor, minlength=len(f.vec))
    return ChaosExpansion.from_dense(f.trunc, out)


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


@_quiet
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


def _check_samples(z) -> np.ndarray:
    """z as a float array: one sample of modes (K,) or a batch (n, K), every entry finite."""
    try:
        z = np.asarray(z, dtype=float)
    except (TypeError, ValueError):  # ragged rows, or entries that are not numbers
        what = reprlib.repr(z)
    else:
        if z.ndim not in (1, 2):
            what = f"an array of shape {z.shape}"
        elif not np.all(np.isfinite(z)):
            what = f"an array holding {float(z[~np.isfinite(z)][0])!r}"
        else:
            return z
    raise DomainError(f"samples must be a finite vector of modes or an (n, K) array, not {what}")


def chaos_eval(f: ChaosExpansion, z):
    """Evaluate sum_alpha f_alpha xi_alpha(z).

    z is one finite sample of length >= K or an (n_samples, K') array of them.
    Samples are evaluated in zero-padded blocks of one width, so a sample's
    value does not depend on the rest of the batch; see ``_IndexTables.eval_plan``
    for how each block is summed.
    """
    z = _check_samples(z)
    one_sample = z.ndim == 1
    zz = z[None, :] if one_sample else z
    tables = _tables(f.trunc)
    modes, n_max = f.trunc.modes, f.trunc.max_order
    used = min(zz.shape[1], modes)
    if used < modes and np.any(f.vec[np.any(tables.exponents[:, used:], axis=1)]):
        raise DomainError("sample vector shorter than the expansion support")
    halves, blocks, pairs, width = tables.eval_plan
    coeffs = f.vec[pairs]
    grades = [
        (coeffs[offset : offset + rows * (stop - start)].reshape(rows, stop - start), rows, start, stop)
        for offset, rows, start, stop in blocks
    ]
    # H_n / sqrt(n!), dividing as math does up to 170! and by lgamma beyond
    divisors = np.array(
        [math.sqrt(math.factorial(n)) if n <= 170 else math.exp(0.5 * math.lgamma(n + 1)) for n in range(n_max + 1)]
    )[:, None, None]
    xa, xb, y = (np.empty((rows, width)) for rows in (halves[0][0], halves[1][0], halves[1][0]))
    out = np.empty(len(zz))
    for begin in range(0, len(zz), width):
        n = min(width, len(zz) - begin)
        zt = np.zeros((modes, width))  # modes past the samples' columns carry zero coefficients
        zt[:used, :n] = zz[begin : begin + n, :used].T
        table = hermite_table(n_max, zt)
        table /= divisors
        table = table.reshape(-1, width)
        _basis_values(halves[0], table, xa)
        _basis_values(halves[1], table, xb)
        # grade 0 of A is alpha_A = 0, whose basis value is exactly 1: its block is the first column of C
        y[:] = grades[0][0]
        for c, rows, start, stop in grades[1:]:
            y[:rows] += c @ xa[start:stop]
        y *= xb
        values = y.sum(axis=0)
        # every table row is a basis value of one half, and an overflowed one leaves no value finite
        if not np.all(np.isfinite(values)) and not (np.all(np.isfinite(xa)) and np.all(np.isfinite(xb))):
            raise DomainError("basis values of the samples overflow")
        out[begin : begin + n] = values[:n]
    return float(out[0]) if one_sample else out


def _basis_values(half, table: np.ndarray, out: np.ndarray) -> None:
    """Write xi_alpha(z) over one half's index set into ``out``, a row per alpha, by ``_half_plan``'s (rows, grades)."""
    out[0] = 1.0
    for start, stop, parents, table_rows in half[1]:
        np.multiply(out[parents], table[table_rows], out=out[start:stop])


def malliavin_derivative(f: ChaosExpansion) -> HValuedChaos:
    """Annihilation operator: D xi_alpha = sum_k sqrt(alpha_k) xi_{alpha-eps_k} m_k.

    Output coefficients D[beta, k] = sqrt(beta_k + 1) * f_{beta+eps_k}.
    """
    tables = _tables(f.trunc)
    padded = np.append(f.vec, 0.0)  # up = -1 reads the trailing zero
    return HValuedChaos(f.trunc, tables.root_up * padded[tables.up])
