"""Volterra kernels and the operator K* they induce on L2((0, T)).

A KernelSpec packages the pointwise Volterra kernel K(t, s), 0 for s > t,
its diagonal limit K(s+, s), the t-derivative K1(t, s), singularity
metadata, and the mode-batched factorisation (K m_k)(s) = s^gamma0 psi_k(s)
through which every pairing with a basis is computed.  Shipped kernels subclass it: the Brownian
kernel (K* = identity), the fractional Brownian motion kernel for Hurst index
H in (1/2, 1), and kernels interpolated from a table or a CSV grid.
"""

from __future__ import annotations

import csv
import math
import numbers
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basis import (
    BasisFamily,
    QuadratureRule,
    _check_horizon,
    _check_modes,
    _check_times,
    _dot_rows,
    _golub_welsch,
    _leggauss,
    jacobi01,
    quad_singular_smooth,
)
from .errors import ConfigurationError, DomainError
from .multiindex import _check_integer, _check_table_size


# ---------------------------------------------------------------------------
# kernel specification


class KernelSpec:
    """A Volterra kernel K(t, s) on [0, T]: the base class every kernel subclasses.

    K(t, s) = 0 for s > t.  A subclass sets ``name`` and defines
    ``eval(t, s)``, with the diagonal value K(s, s) = K(s+, s) on the s <= t
    side, and, for ``k1_empirical`` and the derived ``psi``, ``dt_eval(t, s)``
    = K1(t, s) = dK/dt.  ``singularity`` is the exponent of K1 in (t - s) as
    t -> s+ (0 when K1 is regular there), ``origin_exponent`` that of K(t, s)
    in s as s -> 0.  Every method takes arrays: ``eval``, ``dt_eval`` and
    ``dt_smooth`` broadcast over t and s, so each integral below is one call
    on a whole node table.

    Every pairing with a basis goes through one factorisation
    (K m_k)(s) = s^gamma0 psi_k(s), psi_k smooth at 0, and its antiderivative
    M~_k(t) = int_0^t K(t, s) m_k(s) ds.  The base class derives each piece
    (``gamma0`` = 0, ``psi``, ``_mtilde``, ``kstar``, ``dt_smooth`` and the
    variance ``_variance``) from ``eval`` and ``dt_eval``; a subclass
    overrides those it has in exact or faster form.  ``mtilde`` memoises
    ``_mtilde`` per kernel object and request (basis, modes, time bytes): M~
    never depends on samples.  The memo reads M~(t <= 0) as exactly 0, so
    ``_mtilde`` sees only t > 0; every module reads M~ through ``mtilde``.
    """

    name: str
    singularity = 0.0
    origin_exponent = 0.0
    gamma0 = 0.0

    def __init__(self, horizon: float):
        _check_horizon(horizon)
        self.horizon = horizon
        self._mtilde_memo = lru_cache(maxsize=32)(self._mtilde_request)  # at most 32 tables of len(ks) x len(t)

    def __getstate__(self):  # a copy or an unpickled kernel memoises apart, in a memo bound to itself
        return {key: value for key, value in vars(self).items() if key != "_mtilde_memo"}

    def __setstate__(self, state):
        vars(self).update(state)
        KernelSpec.__init__(self, self.horizon)

    def mtilde(self, basis: BasisFamily, k, t) -> np.ndarray:
        """Read-only M~_k(t) over the flattened t: one row for an int k, one per mode for a sequence."""
        ks = _check_modes(k)  # 1.5 is refused, not read as 1
        table = self._mtilde_memo(basis, tuple(ks.reshape(-1).tolist()), np.asarray(t, dtype=float).tobytes())
        return table if ks.ndim else table[0]

    def _mtilde_request(self, basis: BasisFamily, ks: tuple, t_bytes: bytes) -> np.ndarray:
        t = np.frombuffer(t_bytes)
        basis._check(t)  # a NaN or negative t raises here, so nothing is stored
        # M~(t <= 0) = 0 exactly, where Legendre's antiderivative leaves about 1e-17: the piece gets
        # only the unclipped t > 0
        live = t > 0
        table = np.zeros((len(t), len(ks))).T  # time-major memory: its transpose is the solvers' C-ordered rows
        table[:, live] = self._mtilde(basis, ks, t[live])
        table.flags.writeable = False  # every hit hands out this one table
        return table

    def eval_ts(self, t_sorted, s):
        """K(t, s) for an ascending array of t values; for a 1-D array s, one row per s.

        It reads 0 for s > t without calling ``eval`` there.
        """
        t = np.atleast_1d(np.asarray(t_sorted, dtype=float))
        ss = np.atleast_1d(np.asarray(s, dtype=float))[:, None]
        below = ss <= t
        out = np.where(below, self.eval(np.where(below, t, ss), ss), 0.0)
        return out if np.ndim(s) else out[0]

    def dt_eval(self, t, s):
        """K1(t, s) = dK/dt, which a kernel without derivative data leaves to this refusal."""
        raise ConfigurationError(f"kernel {self.name!r} lacks derivative data")

    def dt_smooth(self, t, s):
        """K1(t, s) (t - s)^(-singularity), which every quadrature near the diagonal weights exactly.

        x ** -0.0 is 1, so a regular kernel's K1 is returned bit for bit.
        """
        return self.dt_eval(t, s) * (t - s) ** -self.singularity

    def psi(self, basis: BasisFamily, ks, s) -> np.ndarray:
        """psi_k(s) for modes ks and a 1-D array s, shape (len(ks), len(s)).

        Derived: K m_k = K(s+, s) m_k(s) + int_0^s m_k(tau) K1(s, tau) dtau,
        by quadrature on one node table for all s.  K(s+, s) is K(s, s):
        ``eval`` puts the diagonal on the s <= t side.
        """
        rule = QuadratureRule(panels=4, nodes=12)
        gam, g0 = self.singularity, self.origin_exponent
        s = np.asarray(s, dtype=float)
        local = self.eval(s, s) * basis.eval(ks, s)
        if not gam:
            return local + rule.integrate(lambda tau: basis.eval(ks, tau) * self.dt_eval(s[:, None], tau), 0.0, s)
        # two-sided Jacobi weight tau^g0 (x - tau)^gam, both exponents exact, on as many nodes (48) as ``rule``
        v, w = jacobi01(rule.panels * rule.nodes, gam, g0)
        live = s > 0
        x = np.where(live, s, 1.0)  # s = 0 has no integral, and K1 is singular there
        tau = x[:, None] * v
        vals = basis.eval(ks, tau) * self.dt_smooth(x[:, None], tau) * tau ** (-g0)
        return local + np.where(live, x ** (g0 + gam + 1.0) * _dot_rows(w, vals), 0.0)

    def _mtilde(self, basis: BasisFamily, ks, t) -> np.ndarray:
        """M~_k(t_i) for modes ks over a 1-D array of checked times t > 0, shape (len(ks), len(t)).

        Derived: one quadrature of K(t_i, .) m_k over every mode k for each block of times t_i, so K
        is evaluated once at each node and the (mode, time, node) tables stay within ``_MTILDE_BLOCK``.
        """
        g0, step = self.origin_exponent, max(1, _MTILDE_BLOCK // len(ks))
        out = np.empty((len(ks), len(t)))
        for i in range(0, len(t), step):
            out[:, i : i + step] = quad_singular_smooth(
                lambda s: self.eval(t[i : i + step, None], s) * basis.eval(ks, s) * s**-g0, 0.0, t[i : i + step], g0
            )
        return out

    def _variance(self, t) -> np.ndarray:
        """R(t_i, t_i) = int_0^t_i K(t_i, tau)^2 dtau over a 1-D array of times t > 0.

        Derived: one quadrature with the origin weight tau^(2 g0) exact, one ``eval`` serving both factors.
        """
        gamma, x = 2.0 * self.origin_exponent, t[:, None]

        def integrand(tau):
            k = self.eval(x, tau)
            return k * k * tau**-gamma

        return quad_singular_smooth(integrand, 0.0, t, gamma)

    def kstar(self, n_grid: int) -> np.ndarray:
        """The n_grid x n_grid matrix of K* on step functions of the uniform grid of [0, T].

        Derived: the differences along t of ``eval_ts`` columns, one call per block of rows.
        """
        edges, mids = _kstar_grid(self.horizon, n_grid)
        a = np.zeros((n_grid, n_grid))
        for i in range(0, n_grid, _KSTAR_BLOCK):
            rows = slice(i, min(i + _KSTAR_BLOCK, n_grid))
            # K(t, s_r) = 0 for t < s_r, so row r's differences start with a[r, r] = K(edges[r + 1], s_r) - 0
            a[rows, i:] = np.diff(self.eval_ts(edges[i + 1 :], mids[rows]), axis=1, prepend=0.0)
        return a


# (mode, t) pairs per block of an M~ quadrature, the derived one and fBm's: its temporaries,
# pairs * nodes floats, stay near 1 MB for fBm's 48 nodes and 3 MB for the derived 96 or 128.
# Bigger fBm ones (4.7 MB) left later 2000 x 257 path syntheses and Stratonovich sums with
# about 1000 more minor page faults each (glibc malloc).
_MTILDE_BLOCK = 3072
# rows of K* per block: the block's temporaries stay under 1 MB for n_grid <= 512
_KSTAR_BLOCK = 32


def _kstar_grid(horizon: float, n_grid: int):
    """The cell edges t_j = j T / n and midpoints s_r of the uniform K* grid; every ``kstar`` checks n here."""
    _check_integer("n_grid", n_grid, 1)
    _check_table_size(n_grid * n_grid, f"the {n_grid} x {n_grid} K* matrix")
    edges = np.linspace(0.0, horizon, n_grid + 1)
    return edges, 0.5 * (edges[:-1] + edges[1:])


# ---------------------------------------------------------------------------
# Brownian kernel


class _Brownian(KernelSpec):
    name = "brownian"

    def eval(self, t, s):
        return np.where(s <= t, 1.0, 0.0)

    def dt_eval(self, t, s):
        return np.zeros(np.broadcast_shapes(np.shape(t), np.shape(s)))

    def psi(self, basis, ks, s):
        return basis.eval(ks, s)

    def _mtilde(self, basis, ks, t):
        return basis.antideriv(ks, t)


def brownian_kernel(horizon: float = 1.0) -> KernelSpec:
    """K(t, s) = chi_{[0,t]}(s): the associated process is Brownian motion."""
    return _Brownian(horizon)


# ---------------------------------------------------------------------------
# fractional Brownian motion kernel, H > 1/2


# nodes of the fBm psi Gauss-Jacobi rule, of M~'s outer Gauss-Jacobi rule and of M~'s own Gauss rule;
# 32 left M~ of cosine modes 17-32 off by up to 1.5e-3
_JACOBI_NODES = 48
# offsets j - r of the fBm K* cells that are K's own differences; the Gauss cells beyond then agree with them
_KSTAR_EXACT_OFFSETS = 3  # to 4.6e-14 of max|A| at H <= 0.95 (8.1e-13 at 0.999); 1 left 2.65e-8, 2 left 2.0e-12
# terms of each series of the fBm kernel; 2^-60 is below float64 rounding
_SERIES_TERMS = 60


def fbm_c_h(hurst: float) -> float:
    """Normalizing constant C_H of the fBm Volterra kernel; the one check of the Hurst index."""
    if not isinstance(hurst, numbers.Real) or not 0.5 < hurst < 1.0:  # a str is refused here, not by TypeError
        raise DomainError(f"Hurst index must lie in (1/2, 1), not {hurst!r}")
    return math.sqrt(
        2.0 * hurst * math.gamma(1.5 - hurst) / (math.gamma(hurst + 0.5) * math.gamma(2.0 - 2.0 * hurst))
    )


def fbm_kernel(hurst: float, t, s):
    """fBm Volterra kernel K(t, s) for 0 < s <= t, broadcast over t and s."""
    return _Fbm(hurst, 1.0).eval(t, s)


def fbm_kernel_dt(hurst: float, t: float, s: float) -> float:
    """dK/dt for the fBm kernel, 0 < s < t; s may be an array."""
    return _Fbm(hurst, 1.0).dt_eval(t, s)


def _fbm_series(hurst: float):
    """B(a, b) and the coefficients (1-a)_n/n!/(n+b), (1-b)_n/n!/(n+a) of the fBm kernel's two series, n < 60."""
    a, b = hurst - 0.5, 1.0 - 2.0 * hurst
    n = np.arange(_SERIES_TERMS, dtype=float)

    def coefficients(p, q):  # successive terms of (p)_n / n! differ by the factor (p + n) / (n + 1)
        return np.cumprod(np.r_[1.0, (p + n[:-1]) / (n[:-1] + 1.0)]) / (n + q)

    return math.gamma(a) * math.gamma(b) / math.gamma(a + b), coefficients(1.0 - a, b), coefficients(1.0 - b, a)


def _gauss_rule_of(x, w, n: int):
    """The n-point Gauss rule of the discrete measure sum_i w_i delta(x_i), w > 0.

    Discretized Stieltjes procedure (Gautschi 2004, 2.2) for the orthonormal
    recurrence, whose coefficients make the Jacobi matrix ``_golub_welsch``
    takes.
    """
    a, b = np.zeros(n), np.zeros(n)
    mass = float(np.sum(w))
    # u = sqrt(w) p_j(x), p_j the j-th orthonormal polynomial, so each inner product is a plain dot
    u_prev, u = np.zeros_like(x), np.sqrt(w / mass)
    for j in range(n):
        r = x * u
        a[j] = np.dot(r, u)
        if j + 1 < n:
            r -= a[j] * u
            r -= b[j] * u_prev
            b[j + 1] = math.sqrt(np.dot(r, r))
            u_prev, u = u, r / b[j + 1]
    return _golub_welsch(a, b[1:], mass)


class _Fbm(KernelSpec):
    """Fractional Brownian motion with Hurst index in (1/2, 1).

    It holds what H determines: its series, psi's and M~'s Gauss rules and
    the variance R(1, 1) integrated from the series, each built on first use.
    psi is a Beta-weight quadrature batched over modes, every mode's basis
    values from one ``BasisFamily._rows`` recurrence; M~ is one sum over the
    Gauss rule of its own weight: 48 basis values per (mode, t), all modes of
    a block of t values from one recurrence.
    """

    name = "fbm"

    def __init__(self, hurst: float, horizon: float):
        self.c_h = fbm_c_h(hurst)  # refuses a bad Hurst index before the horizon is checked
        super().__init__(horizon)
        self.hurst = hurst
        self.singularity = hurst - 1.5
        self.origin_exponent = 0.5 - hurst
        self.gamma0 = hurst - 0.5
        self._c = self.c_h * (hurst - 0.5)
        self._series = _fbm_series(hurst)
        # the analytic bound K_1(T) that ``k1_empirical`` is checked against
        k1_unit = hurst * (2.0 * hurst - 1.0) * math.gamma(hurst - 0.5) / math.gamma(hurst + 0.5)
        self.k1_bound = k1_unit * horizon ** (2.0 * hurst - 1.0)

    def eval(self, t, s):
        """K(t, s) = c s^a F(s/t), F(rho) = int_0^(1-rho) w^(a-1) (1-w)^(b-1) dw, a = H - 1/2, b = 1 - 2H.

        F is an incomplete Beta function (Decreusefond and Ustunel, Potential
        Anal. 10, 1999), summed by the series that converges like 2^-n on each
        half of (0, 1]: for rho <= 1/2, F = B(a, b) - sum_n (1-a)_n/n! rho^(n+b)/(n+b);
        for rho > 1/2, F = sum_n (1-b)_n/n! x^(a+n)/(a+n), x = 1 - rho = (t - s)/t,
        whose difference t - s is exact there.
        """
        # one pass of positive tests, so NaN fails it
        if not np.all(np.greater(s, 0) & np.less_equal(s, t) & np.less(t, math.inf)):
            raise DomainError("require 0 < s <= t < inf")
        hurst, (beta, low, high) = self.hurst, self._series
        near = np.less_equal(s, 0.5 * t)  # rho <= 1/2
        x = np.where(near, s / t, (t - s) / t)
        column = (-1,) + (1,) * near.ndim
        coef = np.where(near, low.reshape(column), high.reshape(column))  # each point's own series, one Horner pass
        power = x ** np.where(near, 1.0 - 2.0 * hurst, hurst - 0.5)  # x^b or x^a
        series = power * np.polynomial.polynomial.polyval(x, coef, tensor=False)
        val = self._c * s ** (hurst - 0.5) * np.where(near, beta - series, series)
        return val if val.ndim else float(val)

    def dt_eval(self, t, s):
        # s stays as given: a scalar s keeps scalar pow, which numpy's array pow can differ from in the last bit
        if not np.all(np.greater(s, 0) & np.less(s, t) & np.less(t, math.inf)):  # positive tests, so NaN fails
            raise DomainError("require 0 < s < t < inf")
        return self._c * s ** (0.5 - self.hurst) * (t - s) ** (self.hurst - 1.5) * t ** (self.hurst - 0.5)

    def dt_smooth(self, t, s):
        return self._c * s ** (0.5 - self.hurst) * t ** (self.hurst - 0.5)

    def kstar(self, n_grid):
        # Offsets j - r < _KSTAR_EXACT_OFFSETS are K's own differences, the cells beyond six-node Gauss sums: node x_q
        # of cell j is (j - r + x_q/2) h above s_r, so a[r, j] = c s_r^(1/2 - H) sum_q D[j - r, q] P[j, q], P = smooth.
        hurst, c, horizon = self.hurst, self._c, self.horizon
        edges, mids = _kstar_grid(horizon, n_grid)
        h = horizon / n_grid
        xg, wg = _leggauss(6)
        exact = _KSTAR_EXACT_OFFSETS
        # offsets[q, n + d] = D[d, q] = ((d + x_q/2) h)^(H - 3/2) for d >= exact, 0 below: row r of block q is a window
        offsets = np.zeros((6, 2 * n_grid))
        offsets[:, n_grid + exact :] = ((np.arange(exact, n_grid) + 0.5 * xg[:, None]) * h) ** (hurst - 1.5)
        toeplitz = sliding_window_view(offsets, n_grid, axis=1)  # [q, n - r, j] = D[j - r, q]
        smooth = wg[:, None] * ((np.arange(n_grid) + 0.5 + 0.5 * xg[:, None]) * h) ** (hurst - 0.5) * (0.5 * h)
        # the scalar factors take Python-float powers, which numpy's array power can differ from in the last bit
        scale = np.array([c * x ** (0.5 - hurst) for x in mids.tolist()])
        a = np.zeros((n_grid, n_grid))
        term = np.empty((_KSTAR_BLOCK, n_grid))
        for i in range(0, n_grid, _KSTAR_BLOCK):
            stop = min(i + _KSTAR_BLOCK, n_grid)
            block, tmp, windows = a[i:stop, i:], term[: stop - i, i:], toeplitz[:, n_grid - i : n_grid - stop : -1, i:]
            np.multiply(windows[0], smooth[0, i:], out=block)
            for q in range(1, 6):
                block += np.multiply(windows[q], smooth[q, i:], out=tmp)
            block *= scale[i:stop, None]
        lower = 0.0  # K(t_r, s_r): t_r < s_r lies off the Volterra support
        for d in range(min(exact, n_grid)):  # a[r, r + d] = K(t_{r+d+1}, s_r) - K(t_{r+d}, s_r), one eval per offset
            upper = self.eval(edges[d + 1 :], mids[: n_grid - d])
            a[range(n_grid - d), range(d, n_grid)], lower = upper - lower, upper[:-1]
        return a

    def psi(self, basis: BasisFamily, ks, s):
        """Smooth factor in (K m_k)(s) = s^(H - 1/2) psi_k(s); Beta-weight quadrature."""
        modes = _check_modes(ks)
        v, w = self._psi_rule
        rows = basis._rows(int(modes.max()), np.outer(s, v))
        if not np.array_equal(modes, np.arange(1, len(rows) + 1)):
            rows = rows[modes - 1]
        rows *= self._c  # in place: these (modes, len(s), nodes) tables are the largest temporaries of an fBm run
        return rows @ w

    @cached_property
    def _psi_rule(self):
        """psi's Gauss-Jacobi rule for the Beta weight (1 - v)^(H - 3/2) v^(1/2 - H) on (0, 1)."""
        return jacobi01(_JACOBI_NODES, self.hurst - 1.5, 0.5 - self.hurst)

    @cached_property
    def _mtilde_rule(self):
        """(rho, c lam), (rho, lam) the Gauss rule of M~'s weight: M~_k(t) = c t^(H+1/2) sum_l lam_l m_k(t rho_l).

        The weight's moments are B(m + 3/2 - H, H - 1/2) / (m + H + 1/2).  psi's
        rule (v, w) and the outer rule (y, ww) are each exact to degree 2n - 1, so
        the measure sum_ij ww_i w_j delta(y_i v_j) has the weight's first 2n
        moments, and its n-point Gauss rule is the weight's own.
        """
        v, w = self._psi_rule
        y, ww = jacobi01(_JACOBI_NODES, 0.0, self.hurst - 0.5)
        rho, lam = _gauss_rule_of(np.outer(y, v).ravel(), np.outer(ww, w).ravel(), _JACOBI_NODES)
        return rho, self._c * lam

    @cached_property
    def _unit_variance(self):
        """R(1, 1) = c^2 S(H), integrated term by term from the series of ``eval``, a = H - 1/2.

        For x = tau/t <= 1/2, K = c t^a (B x^a - x^-a P(x)), P = sum_n low_n x^n; for x = (t - tau)/t <= 1/2,
        K = c t^a (1 - x)^a x^a Q(x), Q = sum_n high_n x^n.  So S(H) = int_0^(1/2) of B^2 x^2a - 2 B P(x)
        + x^-2a P(x)^2 + x^2a (1 - x)^2a Q(x)^2, four sums of exact power integrals, (1 - x)^2a by its
        binomial series to as many terms as the kernel's.
        """
        a = self.hurst - 0.5
        beta, low, high = self._series
        n = np.arange(_SERIES_TERMS, dtype=float)
        binomial = np.cumprod(np.r_[1.0, (n[:-1] - 2.0 * a) / (n[:-1] + 1.0)])  # (1 - x)^2a = sum_n binomial_n x^n
        squared, far = np.convolve(low, low), np.convolve(np.convolve(high, high), binomial)

        def moments(p):  # int_0^(1/2) x^p dx
            return 0.5 ** (p + 1.0) / (p + 1.0)

        # numpy's pairwise sums, not BLAS dots: over H 0.505-0.8 they leave R(1, 1) within 0.95 ulp of the
        # series' exact integral, the dots within 1.7
        parts = (
            beta * beta * moments(2.0 * a),
            -2.0 * beta * np.sum(low * moments(n)),
            np.sum(squared * moments(np.arange(len(squared)) - 2.0 * a)),
            np.sum(far * moments(np.arange(len(far)) + 2.0 * a)),
        )
        return self._c * self._c * math.fsum(parts)

    def _variance(self, t):
        # R(t, t) = t^2H R(1, 1), each t^2H a Python-float power, as in _mtilde
        try:
            powers = np.array([x ** (2.0 * self.hurst) for x in t.tolist()])
        except OverflowError:
            raise DomainError(f"R(t, t) overflows: t^2H is not finite for t = {float(t.max())!r}") from None
        return self._unit_variance * powers

    def _mtilde(self, basis, modes, ts):
        # t^(H+1/2) sum_l c lam_l m_k(t rho_l), every mode from one basis recurrence per block of
        # t values; the per-row dot product and Python-float power keep each value equal to the
        # scalar sum bit for bit
        modes = np.asarray(modes)
        rho, weights = self._mtilde_rule
        top = int(modes.max())
        out = np.empty((len(modes), len(ts)))
        step = max(1, _MTILDE_BLOCK // top)
        for start in range(0, len(ts), step):
            rows = slice(start, start + step)
            block = ts[rows]
            try:
                powers = np.array([x ** (self.hurst + 0.5) for x in block.tolist()])
            except OverflowError:
                raise DomainError(f"M~ overflows: t^(H + 1/2) is not finite for t = {float(block.max())!r}") from None
            out[:, rows] = powers * _dot_rows(weights, basis._rows(top, np.outer(block, rho)))[modes - 1]
        return out


def fbm_kernel_spec(hurst: float, horizon: float = 1.0) -> KernelSpec:
    """The kernel of fractional Brownian motion with Hurst index in (1/2, 1)."""
    return _Fbm(hurst, horizon)


# ---------------------------------------------------------------------------
# grid-interpolated kernels


class _Grid(KernelSpec):
    """K interpolated bilinearly from its values K(t_i, s_j) on a rectilinear grid, 0 where s_j > t_i."""

    name = "custom-grid"

    def __init__(self, t_grid, s_grid, values):
        try:
            t_grid, s_grid, grid_k = (np.array(x, dtype=float) for x in (t_grid, s_grid, values))
        except (TypeError, ValueError) as exc:  # a ragged table, or text where a number should be
            raise ConfigurationError(f"the grids and the table must be rectangular arrays of numbers: {exc}") from None
        if grid_k.shape != (len(t_grid), len(s_grid)):
            raise ConfigurationError(f"the table's shape {grid_k.shape} is not (t points, s points)")
        if not (np.all(np.isfinite(t_grid)) and np.all(np.isfinite(s_grid)) and np.all(np.isfinite(grid_k))):
            raise ConfigurationError("every grid point and value must be finite")
        for name, grid in (("t", t_grid), ("s", s_grid)):
            if len(grid) < 2 or not np.all(np.diff(grid) > 0):
                raise ConfigurationError(f"the {name}-grid needs at least two increasing points")
        upper = grid_k[np.less.outer(t_grid, s_grid)]
        if np.any(np.abs(upper) > 1e-12):
            worst = float(upper[np.argmax(np.abs(upper))])
            raise ConfigurationError(f"K(t, s) must be 0 where s > t, but the table holds {worst!r} there")
        super().__init__(float(max(t_grid[-1], s_grid[-1])))
        # a cell that straddles the diagonal would mix the zero upper triangle into K(t, s) for t >= s:
        # continue each column linearly in t from its first two values at t >= s, as a constant if it has
        # only one (the last column when s_grid ends at t_grid's end), and zero s > t after
        first = np.searchsorted(t_grid, s_grid)
        cols = np.flatnonzero(first < len(t_grid))
        a = first[cols]
        b = np.minimum(a + 1, len(t_grid) - 1)
        slope = (grid_k[b, cols] - grid_k[a, cols]) / (t_grid[b] - t_grid[a] + (b == a))  # 0 / 1 where b == a
        line = grid_k[a, cols] + (t_grid[:, None] - t_grid[a]) * slope
        grid_k[:, cols] = np.where(np.arange(len(t_grid))[:, None] < a, line, grid_k[:, cols])
        self._t, self._s, self._k, self._h = t_grid, s_grid, grid_k, float(np.min(np.diff(t_grid)))

    def eval(self, t, s):
        t_grid, s_grid, grid_k = self._t, self._s, self._k
        t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
        # bilinear on the cell holding (t, s), continued linearly outside the grid; the corner terms are
        # added from 0.0 in RegularGridInterpolator's order, so the bits equal its "linear" method's
        i = np.clip(np.searchsorted(t_grid, t, side="right") - 1, 0, len(t_grid) - 2)
        j = np.clip(np.searchsorted(s_grid, s, side="right") - 1, 0, len(s_grid) - 2)
        y0 = (t - t_grid[i]) / (t_grid[i + 1] - t_grid[i])
        y1 = (s - s_grid[j]) / (s_grid[j + 1] - s_grid[j])
        out = 0.0 + grid_k[i, j] * (1 - y0) * (1 - y1) + grid_k[i, j + 1] * (1 - y0) * y1
        out = out + grid_k[i + 1, j] * y0 * (1 - y1) + grid_k[i + 1, j + 1] * y0 * y1
        return np.where(s > t, 0.0, out)

    def dt_eval(self, t, s):
        # difference quotient over [t - h/2, t + h/2] clipped to [s, horizon]; 0 where that is empty
        h = self._h
        lo, hi = np.maximum(t - 0.5 * h, s), np.minimum(t + 0.5 * h, self.horizon)
        width = hi - lo
        nonempty = width > 0
        out = np.where(nonempty, self.eval(hi, s) - self.eval(lo, s), 0.0) / np.where(nonempty, width, 1.0)
        return out if out.ndim else float(out)


def grid_kernel(t_grid, s_grid, values) -> KernelSpec:
    """Volterra kernel interpolated bilinearly from a table of K(t_i, s_j).

    A table not of shape (len(t_grid), len(s_grid)), a value that is not finite,
    a value above 1e-12 in magnitude where s_j > t_i, or a grid of fewer than
    two increasing points raises ConfigurationError.
    """
    return _Grid(t_grid, s_grid, values)


def grid_kernel_from_csv(path) -> KernelSpec:
    """``grid_kernel`` of a CSV matrix.

    Layout: first row holds the s-grid (first cell blank or a label), first
    column the t-grid, cell (i, j) the value K(t_i, s_j).  An empty file, a
    ragged row or a cell that is not a number raises ConfigurationError, as
    does a table that ``grid_kernel`` refuses.
    """
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise ConfigurationError(f"grid CSV {path} is empty")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigurationError(f"grid CSV {path}: every row must have the header's {width} cells")
    try:
        s_grid = np.array([float(x) for x in rows[0][1:]])
        table = np.array([[float(x) for x in r] for r in rows[1:]]).reshape(-1, width)
        return _Grid(table[:, 0], s_grid, table[:, 1:])
    except (ValueError, ConfigurationError) as exc:
        raise ConfigurationError(f"grid CSV {path}: {exc}") from None


# ---------------------------------------------------------------------------
# diagnostics: K1 bound, operator norms


# k1_empirical's t-grid: _K1_GRID points, doubled up to _K1_REFINEMENTS times
# until two successive grids agree to _K1_TOL
_K1_GRID = 256
_K1_TOL = 1e-6
_K1_REFINEMENTS = 3


def k1_empirical(kernel: KernelSpec) -> float:
    """sup over t of int_0^t |K(T, s) K1(t, s)| ds, on a refining t-grid.

    Each integral is one 72-node Gauss-Jacobi sum over s = t v whose weight
    s^(2 g0) (t - s)^singularity holds both endpoint powers exactly; the
    cofactor is phi(s) s^(-g0) ``dt_smooth``(t, s), with phi(s) = K(T, s) s^(-g0)
    interpolated linearly on 1 024 points s_i = T (i/1024)^2, graded toward 0,
    where phi may have a power cusp.  The grid doubles until two successive
    grids agree to ``_K1_TOL``; DomainError is raised when
    ``_K1_REFINEMENTS`` doublings do not get there.
    """
    big_t = kernel.horizon
    g0, gam = kernel.origin_exponent, kernel.singularity
    s_fine = big_t * (np.arange(1, 1025) / 1024) ** 2
    phi_vals = kernel.eval(big_t, s_fine) * s_fine ** (-g0)
    v, w = jacobi01(72, gam, 2.0 * g0)

    def sup_at(t: np.ndarray) -> float:
        # int_0^t |K(T, s) K1(t, s)| ds = t^(1 + gam + 2 g0) sum_i w_i |cofactor(t v_i)|, for all t at once
        x = t[:, None]
        s = x * v
        vals = np.abs(np.interp(s, s_fine, phi_vals) * s**-g0 * kernel.dt_smooth(x, s))
        return float(np.max(t ** (1.0 + gam + 2.0 * g0) * _dot_rows(w, vals)))

    # grid n is T i / n, i = 1..n: its points are the even points of grid 2n,
    # so each doubling evaluates only the odd ones
    n = _K1_GRID
    best = sup_at(big_t * np.arange(1, n + 1) / n)
    for _ in range(_K1_REFINEMENTS):
        n *= 2
        new = max(best, sup_at(big_t * np.arange(1, n + 1, 2) / n))
        if abs(new - best) < _K1_TOL:
            return new
        best = new
    raise DomainError(
        f"k1_empirical did not converge: {_K1_REFINEMENTS} refinements of a "
        f"{_K1_GRID}-point grid left no two grids within {_K1_TOL}"
    )


def op_norm_bound(k0: float, k1: float) -> float:
    """Analytic bound on ||K*|| from the diagonal bound K0 and integral bound K1."""
    if not (0 <= k0 < math.inf and 0 <= k1 < math.inf):  # NaN fails it too
        raise DomainError(f"K0 and K1 must be non-negative and finite, not {k0!r} and {k1!r}")
    if k0 > 0:
        return math.sqrt(2.0 * (k0 * k0 + k1))
    return math.sqrt(k1)


def discretize_kstar(kernel: KernelSpec, n_grid: int) -> np.ndarray:
    """Matrix of K* restricted to step functions on a uniform n-cell grid.

    Row r gives (K* f)(s_r) at the cell midpoint s_r for f piecewise constant
    on the cells (t_j, t_{j+1}], t_j = j T / n: entry (r, j) is
    K(t_{j+1}, s_r) - K(t_j, s_r), from the kernel's ``kstar``.  A matrix
    with an entry that is not finite (the kernel's powers overflow at a huge
    horizon) raises DomainError.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, by name
        a = kernel.kstar(n_grid)
    if not np.all(np.isfinite(a)):
        raise DomainError(f"the {n_grid} x {n_grid} K* matrix is not finite at horizon {kernel.horizon!r}")
    return a


_POWER_ITERATIONS = 5000  # op_norm_estimate's cap


def op_norm_estimate(kernel: KernelSpec, n_grid: int = 512) -> float:
    """Largest singular value of the discretized K*, by power iteration on A^T A, as A^T (A v).

    A is first scaled by 2^-e, e the binary exponent of max |A_ij|, so that
    the products cannot overflow at a huge horizon nor lose bits at a tiny
    one: every |A_ij| < 1 and |v| = 1, so each entry of A v stays below n and
    each of A^T (A v) below n^2.  A power of two scales exactly, and so does
    the square root of its square, so the estimate has the bits of the
    unscaled iteration wherever that stays in range.  Iteration stops when
    the eigenvalue estimate changes by at most 1e-8 relative; DomainError is
    raised when ``_POWER_ITERATIONS`` iterations do not get there, or when
    the norm itself exceeds the float range.
    """
    a = discretize_kstar(kernel, n_grid)
    e = int(np.frexp(max(a.max(), -a.min()))[1])  # max |A_ij| without an |A| temporary
    a = np.ldexp(a, -e)
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(n_grid)
    v /= np.linalg.norm(v)
    lam = 0.0
    w = a.T @ (a @ v)  # two matrix-vector products, where forming A^T A takes an n^3 one
    for _ in range(_POWER_ITERATIONS):
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        w = a.T @ (a @ v)  # the Rayleigh quotient's product is the next iteration's
        lam_new = float(v @ w)
        if abs(lam_new - lam) <= 1e-8 * lam_new:
            try:
                return math.ldexp(math.sqrt(max(lam_new, 0.0)), e)
            except OverflowError:
                raise DomainError(f"the K* norm overflows at horizon {kernel.horizon!r}") from None
        lam = lam_new
    raise DomainError(f"power iteration did not reach tol=1e-08 in {_POWER_ITERATIONS} iterations")


# ---------------------------------------------------------------------------
# covariance functions


def covariance_from_kernel(kernel: KernelSpec, t, s):
    """E X(t) X(s) = int_0^min(t,s) K(t, tau) K(s, tau) d tau, broadcast over t and s.

    It is 0 where min(t, s) <= 0.  A row with t = s is the kernel's ``_variance``; the other rows are
    one ``quad_singular_smooth`` quadrature whose weight holds the origin power tau^(2 g0).  So a row's
    value does not depend on the batch around it.
    """
    if not np.all(np.isfinite(t) & np.isfinite(s)):
        raise DomainError("t and s must be finite")
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    live = np.minimum(t, s) > 0
    diagonal = live & (t == s)
    off = live & ~diagonal
    cov = np.zeros(t.shape)
    if np.any(diagonal):
        cov[diagonal] = kernel._variance(t[diagonal])
    if np.any(off):
        x, y = t[off][:, None], s[off][:, None]
        gamma = 2.0 * kernel.origin_exponent  # K(t, tau) K(s, tau) behaves like tau^gamma at 0
        cov[off] = quad_singular_smooth(
            lambda tau: kernel.eval(x, tau) * kernel.eval(y, tau) * tau**-gamma, 0.0, np.minimum(x, y)[:, 0], gamma
        )
    return cov if cov.ndim else float(cov)


def hr_gram(r, times) -> np.ndarray:
    """Gram matrix G_ij = R(t_i, t_j) of a covariance callable R, checked to be symmetric and PSD.

    R broadcasts over its two arguments.  PSD allows a minimum eigenvalue
    down to -1e-10 max(1, max |G_ij|).  Empty, non-1-D or non-finite ``times`` raise DomainError.
    """
    times = _check_times(times)
    g = np.asarray(r(times[:, None], times[None, :]), dtype=float)
    if not np.allclose(g, g.T, atol=1e-12):
        raise DomainError("covariance Gram matrix is not symmetric")
    eigmin = float(np.linalg.eigvalsh(g)[0])
    scale = max(1.0, float(np.max(np.abs(g))))
    if eigmin < -1e-10 * scale:
        raise DomainError(f"minimum eigenvalue {eigmin} below tolerance")
    return g


# ---------------------------------------------------------------------------
# kernel-basis pairings


def m_tilde(kernel: KernelSpec, basis: BasisFamily, k: int, t: float) -> float:
    """M~_k(t) = int_0^t (K m_k)(s) ds = int K(t, s) m_k(s) ds."""
    return float(kernel.mtilde(basis, k, [t])[0])


def kmk_factor(kernel: KernelSpec, basis: BasisFamily, k: int):
    """(gamma0, psi) with (K m_k)(s) = s^gamma0 * psi(s), psi smooth at 0 and taking a 1-D array s."""
    return kernel.gamma0, lambda s: kernel.psi(basis, (k,), np.atleast_1d(np.asarray(s, dtype=float)))[0]
