"""Orthonormal bases of L2((0, T)) and quadrature rules.

Two families with closed-form antiderivatives are provided: a cosine family
whose first element is the constant 1/sqrt(T), and shifted Legendre
polynomials.  Both satisfy M_k(T) = 0 for k >= 2, which keeps truncated
integral identities simple.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .multiindex import _check_integer


@lru_cache(maxsize=None)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _golub_welsch(diag, offdiag, mass: float):
    """The Gauss rule of a measure of total ``mass`` from its Jacobi matrix.

    Golub and Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the symmetric tridiagonal matrix with ``diag`` on its diagonal and
    ``offdiag`` beside it, the weights the mass times the squared first
    entries of its unit eigenvectors.
    """
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1))
    return nodes, mass * vectors[0] ** 2


def jacobi01(n: int, a: float, b: float):
    """Nodes/weights for int_0^1 (1-v)^a v^b f(v) dv = sum w_i f(v_i).

    Golub-Welsch on the Jacobi matrix of the Jacobi polynomials P_k^(a, b) on
    [-1, 1], x = 2v - 1, from their closed-form recurrence (Gautschi,
    Orthogonal Polynomials, 2004, Table 1.1).  The k = 0 diagonal entry and
    the k = 1 off-diagonal entry are written cancelled: their textbook forms
    are 0/0 at a + b = 0 and at a + b = -1, and psi's rule has a + b = -1 up
    to rounding.
    """
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    with np.errstate(invalid="ignore", divide="ignore"):  # entry k = 0 of each is replaced or dropped
        diag = (b - a) * (b + a) / (s * (s + 2.0))
        beta = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    diag[0] = (b - a) / (a + b + 2.0)
    beta[1:2] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    mass = math.exp(math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))  # B(a + 1, b + 1)
    x, w = _golub_welsch(diag, np.sqrt(beta[1:]), mass)
    return (x + 1.0) / 2.0, w


def _dot_rows(w, vals):
    """sum_i w[..., i] vals[..., i]; each row is np.dot's sum, whatever the batch around it."""
    return np.matmul(np.asarray(vals, dtype=float)[..., None, :], w[..., :, None])[..., 0, 0]


def _check_horizon(horizon) -> None:
    """Refuse a horizon that is not a real number in (0, inf) as a float (True reads as 1; 10**400 overflows)."""
    if isinstance(horizon, bool) or not isinstance(horizon, numbers.Real) or not 0 < horizon <= sys.float_info.max:
        raise DomainError(f"horizon must be a positive and finite real number, not {horizon!r}")


def _check_times(times) -> np.ndarray:
    """An array of times as a float array, refused unless it is non-empty, 1-D and finite."""
    times = np.asarray(times, dtype=float)
    bad = times[~np.isfinite(times)]
    if times.ndim != 1 or not times.size or bad.size:
        what = f"one holding {float(bad[0])!r}" if bad.size else f"one of shape {times.shape}"
        raise DomainError(f"times must be a non-empty 1-D array of finite numbers, not {what}")
    return times


def _live_rows(a, b):
    """Where the interval [a, b] is non-empty; a NaN or infinite endpoint, which would read as empty, is refused."""
    ends = np.append(a, b)
    if not np.isfinite(ends).all():
        raise DomainError(f"an integration endpoint must be finite, not {float(ends[~np.isfinite(ends)][0])!r}")
    return np.greater(b, a)


def _on_live_rows(total, live):
    """``total`` where the interval is non-empty, exactly 0 elsewhere; a float for scalar endpoints."""
    out = np.where(live, total, 0.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule: ``panels`` equal panels of ``nodes`` points.

    Like the quadratures below, it takes endpoints that broadcast: one node
    table of shape broadcast(a, b).shape + (n,), one integrand call, one sum
    over the last axis.  An empty interval (b <= a) gives exactly 0; its
    nodes sit at its endpoint, and f is not called when all rows are empty.
    A NaN or infinite endpoint raises DomainError.
    """

    panels: int = 8
    nodes: int = 16

    def __post_init__(self):
        for name in ("panels", "nodes"):
            _check_integer(name, getattr(self, name), 1)

    def nodes_weights(self, a, b):
        """Nodes and weights on [a, b]; exact for degree <= 2*nodes-1 per panel."""
        x, w = _leggauss(self.nodes)
        a, b = np.expand_dims(a, -1), np.expand_dims(b, -1)
        edges = a + np.arange(self.panels + 1) * ((b - a) / self.panels)  # np.linspace's arithmetic, row by row
        edges[..., -1] = b[..., 0]
        lo, hi = edges[..., :-1, None], edges[..., 1:, None]
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        shape = edges.shape[:-1] + (-1,)
        return (mid + half * x).reshape(shape), (half * w).reshape(shape)

    def integrate(self, f, a, b):
        live = _live_rows(a, b)
        if not np.any(live):
            return _on_live_rows(0.0, live)
        xs, ws = self.nodes_weights(a, np.maximum(a, b))
        return _on_live_rows(_dot_rows(ws, f(xs)), live)


DEFAULT_RULE = QuadratureRule()


def _check_modes(k) -> np.ndarray:
    """Basis indices k as a non-empty integer array, each >= 1: a float mode such as 1.5 is refused, not truncated."""
    ks = np.asarray(k)
    if ks.dtype.kind not in "iu" or not ks.size or ks.min() < 1:
        raise DomainError(f"basis index k must be >= 1 and an integer, not {k!r}")
    return ks


@dataclass(frozen=True)
class BasisFamily:
    """Orthonormal basis {m_k} of L2((0, T)) with closed-form antiderivatives M_k."""

    kind: str  # "cosine" | "legendre"
    horizon: float = 1.0

    def __post_init__(self):
        if self.kind not in ("cosine", "legendre"):
            raise DomainError(f"unknown basis kind {self.kind!r}")
        _check_horizon(self.horizon)

    def _check(self, t):
        t = np.asarray(t, dtype=float)
        slack = 1e-12 * self.horizon  # relative, so a tiny horizon does not accept and clip t = 100 T
        # one pass of positive tests, so NaN fails it
        if not np.all((t >= -slack) & (t <= self.horizon + slack)):
            raise DomainError(f"t outside [0, {self.horizon}]")
        return np.clip(t, 0.0, self.horizon)

    def eval(self, k, t):
        """m_k(t), k >= 1; for a sequence of modes, one row per mode: shape (len(k),) + shape(t)."""
        ks = _check_modes(k)
        modes = ks.reshape(-1)
        t = self._check(t)
        big_t = self.horizon
        if self.kind == "cosine":
            val = math.sqrt(2.0 / big_t) * np.cos(np.multiply.outer((modes - 1) * math.pi, t) / big_t)
            val[modes == 1] = 1.0 / math.sqrt(big_t)
        else:
            # column j of the identity holds the Legendre coefficients of P_{modes[j] - 1}
            coef = np.eye(modes.max())[:, modes - 1]
            scale = np.sqrt((2 * modes - 1) / big_t).reshape((-1,) + (1,) * t.ndim)
            val = scale * np.polynomial.legendre.legval(2.0 * t / big_t - 1.0, coef)
        val = val if ks.ndim else val[0]
        return val if val.ndim else float(val)

    def _rows(self, top: int, t) -> np.ndarray:
        """m_1..m_top at t, shape (top,) + shape(t), by the family's three-term recurrence.

        Cosine: one cos(pi t / T), the arithmetic of ``eval(2, t)``, then
        cos(j theta) = 2 cos(theta) cos((j-1) theta) - cos((j-2) theta).
        Legendre: Bonnet's j P_j = (2j-1) x P_{j-1} - (j-1) P_{j-2}.  Row k
        depends only on t, never on ``top``; it differs from ``eval(k, t)`` by
        rounding that grows as k^2 eps.
        """
        _check_modes(top)
        t = self._check(t)
        big_t = self.horizon
        out = np.empty((top,) + t.shape)
        out[0] = 1.0
        if self.kind == "cosine":
            if top > 1:
                out[1] = np.cos(math.pi * t / big_t)
                two_x = 2.0 * out[1]
            for j in range(2, top):
                np.multiply(two_x, out[j - 1], out=out[j])
                out[j] -= out[j - 2]
            out[0] = 1.0 / math.sqrt(big_t)
            out[1:] *= math.sqrt(2.0 / big_t)
        else:
            x = 2.0 * t / big_t - 1.0
            if top > 1:
                out[1] = x
            for j in range(2, top):
                np.multiply((2 * j - 1) * x, out[j - 1], out=out[j])
                out[j] -= (j - 1) * out[j - 2]
                out[j] /= j
            out *= np.sqrt((2 * np.arange(1, top + 1) - 1) / big_t).reshape((-1,) + (1,) * t.ndim)
        return out

    def antideriv(self, k, t):
        """M_k(t) = int_0^t m_k(s) ds in closed form; modes as in ``eval``, one row per mode for a sequence."""
        ks = _check_modes(k)
        modes = ks.reshape(-1)
        t = self._check(t)
        big_t = self.horizon
        col = (-1,) + (1,) * t.ndim  # a factor per mode, as a column against t
        if self.kind == "cosine":
            freq = (np.maximum(modes, 2) - 1) * math.pi / big_t  # mode 1's row, t / sqrt(T), is set below
            val = math.sqrt(2.0 / big_t) * np.sin(np.multiply.outer(freq, t)) / freq.reshape(col)
            val[modes == 1] = t / math.sqrt(big_t)
        else:
            # int_{-1}^{x} P_n = (P_{n+1}(x) - P_{n-1}(x)) / (2n + 1), n = modes - 1, and P_{-1} = -P_0 gives
            # mode 1 its x + 1; as in ``eval``, columns of the identity hold the Legendre coefficients
            x = 2.0 * t / big_t - 1.0
            eye = np.eye(modes.max() + 1)
            up, down = eye[:, modes], eye[:, np.maximum(modes - 2, 0)]
            down[0, modes == 1] = -1.0
            scale = np.sqrt((2 * modes - 1) / big_t) * big_t / 2.0
            diff = np.polynomial.legendre.legval(x, up) - np.polynomial.legendre.legval(x, down)
            val = scale.reshape(col) * diff / (2 * modes - 1).reshape(col)
        val = val if ks.ndim else val[0]
        return val if val.ndim else float(val)


def quad_singular(f, a, b, gamma: float):
    """Integrate f over [a, b] where f(tau) = (tau - a)^gamma * g(tau), g smooth, gamma in (-1, 0].

    ``quad_singular_smooth`` on g = f (tau - a)^(-gamma): the singular factor
    is divided out of f and weighted exactly again.  The library calls
    ``quad_singular_smooth`` with its cofactor directly.
    """
    return quad_singular_smooth(lambda tau: f(tau) * (tau - np.expand_dims(a, -1)) ** -gamma, a, b, gamma)


def quad_singular_smooth(g, a, b, gamma: float):
    """Integrate (tau - a)^gamma * g(tau) over [a, b], g the smooth cofactor.

    96-node Gauss-Jacobi quadrature with the weight v^gamma built in: the
    singular factor is exact and never reconstructed by subtraction, so the
    result converges spectrally in the number of nodes for analytic g, and
    stays accurate when the endpoint sits far from zero.  gamma = 0 means no
    singularity: the result is ``DEFAULT_RULE.integrate(g, a, b)``.
    Endpoints broadcast as in ``QuadratureRule``.
    """
    if gamma == 0.0:
        return DEFAULT_RULE.integrate(g, a, b)
    if not -1.0 < gamma < math.inf:  # NaN fails it too
        raise DomainError(f"exponent must be finite and > -1 for an integrable singularity, not {gamma!r}")
    live = _live_rows(a, b)
    if not np.any(live):
        return _on_live_rows(0.0, live)
    v, w = jacobi01(96, 0.0, gamma)
    length = np.maximum(b - a, 0.0)
    pos = np.expand_dims(a, -1) + np.expand_dims(length, -1) * v
    return _on_live_rows(length ** (gamma + 1.0) * _dot_rows(w, g(pos)), live)
