"""Volterra kernels and the operator K* they induce on L2((0, T)).

A KernelSpec packages the pointwise kernel K(t, s), its diagonal limit
K(s+, s), the t-derivative K1(t, s), singularity metadata, and the
mode-batched factorisation (K m_k)(s) = s^gamma0 psi_k(s) through which every
pairing with a basis is computed.  Shipped
kernels: the Brownian kernel (K* = identity), the fractional Brownian motion
kernel for Hurst index H in (1/2, 1), and kernels interpolated from a CSV
grid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from collections import OrderedDict, namedtuple
from functools import cache, lru_cache, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basis import (
    BasisFamily,
    QuadratureRule,
    _check_modes,
    _dot_rows,
    _golub_welsch,
    _leggauss,
    _on_live_rows,
    jacobi01,
    quad_singular_smooth,
)
from .errors import ConfigurationError, DomainError, InvalidCovarianceError, UnsupportedKernelError
from .multiindex import _check_table_size


# ---------------------------------------------------------------------------
# kernel specification


@dataclass
class KernelSpec:
    """A Volterra kernel K(t, s) on [0, T]: the protocol a kernel constructor implements.

    Required: ``name``, ``horizon``, ``adapted`` (K(t, s) = 0 for s > t),
    ``eval(t, s)`` and ``diag_limit(s)`` = K(s+, s).  Optional derivative
    data, which ``k1_empirical`` and the derived ``psi`` need:
    ``dt_eval(t, s)`` = K1(t, s) = dK/dt; ``singularity``, the exponent of K1
    in (t - s) as t -> s+ (0, the default, when K1 is regular there; None
    reads as 0); ``origin_exponent``, the exponent of K(t, s) in s as s -> 0.
    Every callable takes arrays: ``eval``, ``dt_eval`` and ``dt_smooth``
    broadcast over t and s, ``diag_limit`` over s, so each integral below is
    one call on a whole node table.

    Every pairing with a basis goes through one factorisation
    (K m_k)(s) = s^gamma0 psi_k(s), psi_k smooth at 0, and its antiderivative
    M~_k(t) = int_0^t (K m_k)(s) ds = int K(t, s) m_k(s) ds:

    - ``gamma0``;
    - ``psi(basis, ks, s)``: psi_k(s) for modes ks and a 1-D array s, shape (len(ks), len(s));
    - ``mtilde(basis, k, t)``: M~_k elementwise over a 1-D array of t; for a
      sequence of modes k, one row per mode, shape (len(k), len(t));
    - ``kstar(horizon, n_grid)``: the n_grid x n_grid matrix of K* on step
      functions of the uniform grid of [0, horizon] (``discretize_kstar``);
    - ``dt_smooth(t, s)``: K1 with the diagonal factor (t - s)^singularity
      divided out, which every quadrature near the diagonal weights exactly.

    A constructor supplies those it has in exact or faster form.  Any it
    leaves as None is derived at construction from ``eval`` and ``dt_eval``
    (``_DERIVED``): gamma0 = 0 and psi_k = K m_k = K(s+, s) m_k(s) +
    int_0^s m_k(tau) K1(s, tau) dtau by quadrature, M~_k by quadrature of
    K(t, .) m_k (adapted kernels only), K* as the differences of ``eval_ts``
    columns, and ``dt_smooth`` = K1(t, s) (t - s)^(-singularity), which is K1
    itself for a regular kernel.  A derived piece is bound to its spec, so a
    copy (``dataclasses.replace``) derives its own again.
    """

    name: str
    horizon: float
    adapted: bool
    eval: object  # callable (t, s) -> K(t, s)
    diag_limit: object  # callable (s,) -> K(s+, s)
    dt_eval: object = None  # callable (t, s) -> K1(t, s)
    dt_smooth: object = None  # callable (t, s) -> K1(t,s) * (t-s)^(-singularity)
    singularity: float = 0.0
    origin_exponent: float = 0.0
    gamma0: float = 0.0
    psi: object = None  # callable (basis, ks, s) -> (len(ks), len(s))
    mtilde: object = None  # callable (basis, k, t) -> M~_k over an array of t, one row per mode of a sequence k
    kstar: object = None  # callable (horizon, n_grid) -> the (n_grid, n_grid) K* matrix

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise DomainError("horizon must be positive and finite")
        self.singularity = self.singularity or 0.0
        for name, derive in _DERIVED.items():
            piece = getattr(self, name)
            if piece is None or getattr(piece, "func", None) is derive:
                setattr(self, name, partial(derive, self))

    def eval_ts(self, t_sorted, s):
        """K(t, s) for an ascending array of t values; for a 1-D array s, one row per s.

        An adapted kernel reads 0 for s > t without calling ``eval`` there.
        """
        t = np.atleast_1d(np.asarray(t_sorted, dtype=float))
        ss = np.atleast_1d(np.asarray(s, dtype=float))[:, None]
        if self.adapted:
            below = ss <= t
            out = np.where(below, self.eval(np.where(below, t, ss), ss), 0.0)
        else:
            out = self.eval(t, ss)
        return out if np.ndim(s) else out[0]


def _smooth_by_division(kernel: KernelSpec, t, s):
    """K1(t, s) (t - s)^(-singularity); x ** -0.0 is 1, so a regular kernel's K1 is returned bit for bit."""
    return kernel.dt_eval(t, s) * (t - s) ** -kernel.singularity


# rows of K* per block: the block's temporaries stay under 1 MB for n_grid <= 512
_KSTAR_BLOCK = 32


def _kstar_grid(horizon: float, n_grid: int):
    """The cell edges t_j = j T / n and midpoints s_r of the uniform K* grid."""
    edges = np.linspace(0.0, horizon, n_grid + 1)
    return edges, 0.5 * (edges[:-1] + edges[1:])


def _kstar_by_columns(kernel: KernelSpec, horizon: float, n_grid: int) -> np.ndarray:
    """K* as the differences along t of ``eval_ts`` columns, one call per block of rows."""
    edges, mids = _kstar_grid(horizon, n_grid)
    a = np.zeros((n_grid, n_grid))
    for i in range(0, n_grid, _KSTAR_BLOCK):
        rows = slice(i, min(i + _KSTAR_BLOCK, n_grid))
        # K(t, s_r) = 0 for t < s_r, so row r's differences start with a[r, r] = K(edges[r + 1], s_r) - 0
        a[rows, i:] = np.diff(kernel.eval_ts(edges[i + 1 :], mids[rows]), axis=1, prepend=0.0)
    return a


def _stack_modes(row, k):
    """``row(k)`` for an int k; for a sequence of modes, one row per mode stacked."""
    return row(k) if np.ndim(k) == 0 else np.array([row(int(j)) for j in _check_modes(k)])


def _quadrature_psi(kernel: KernelSpec, basis: BasisFamily, ks, s) -> np.ndarray:
    """(K m_k)(s) from the diagonal limit and a quadrature of K1, one node table for all s."""
    if kernel.dt_eval is None:
        raise UnsupportedKernelError(f"kernel {kernel.name!r} lacks derivative data")
    rule = QuadratureRule(panels=4, nodes=12)
    gam, g0 = kernel.singularity, kernel.origin_exponent
    s = np.asarray(s, dtype=float)
    local = kernel.diag_limit(s) * basis.eval(ks, s)
    if not gam:
        return local + rule.integrate(lambda tau: basis.eval(ks, tau) * kernel.dt_eval(s[:, None], tau), 0.0, s)
    # two-sided Jacobi weight tau^g0 (x - tau)^gam, both exponents exact
    v, w = jacobi01(min(rule.panels * rule.nodes, 96), gam, g0)
    live = s > 0
    x = np.where(live, s, 1.0)  # s = 0 has no integral, and K1 is singular there
    tau = x[:, None] * v
    vals = basis.eval(ks, tau) * kernel.dt_smooth(x[:, None], tau) * tau ** (-g0)
    return local + np.where(live, x ** (g0 + gam + 1.0) * _dot_rows(w, vals), 0.0)


def _quadrature_mtilde(kernel: KernelSpec, basis: BasisFamily, k, t) -> np.ndarray:
    """M~_k(t_i) = int_0^{t_i} K(t_i, s) m_k(s) ds, one quadrature for all t_i."""
    if not kernel.adapted:
        raise UnsupportedKernelError("generic m_tilde implemented for adapted kernels")
    t = np.asarray(t, dtype=float)
    g0 = kernel.origin_exponent

    def row(j):
        return quad_singular_smooth(lambda s: kernel.eval(t[..., None], s) * basis.eval(j, s) * s**-g0, 0.0, t, g0)

    return _stack_modes(row, k)


# how KernelSpec derives each factorisation piece a constructor leaves out
_DERIVED = {
    "dt_smooth": _smooth_by_division,
    "psi": _quadrature_psi,
    "mtilde": _quadrature_mtilde,
    "kstar": _kstar_by_columns,
}


# ---------------------------------------------------------------------------
# Brownian kernel


def brownian_kernel(horizon: float = 1.0) -> KernelSpec:
    """K(t, s) = chi_{[0,t]}(s): the associated process is Brownian motion."""

    return KernelSpec(
        name="brownian",
        horizon=horizon,
        adapted=True,
        eval=lambda t, s: np.where(s <= t, 1.0, 0.0),
        diag_limit=lambda s: np.ones(np.shape(s)),
        dt_eval=lambda t, s: np.zeros(np.broadcast_shapes(np.shape(t), np.shape(s))),
        psi=lambda basis, ks, s: basis.eval(ks, s),
        mtilde=lambda basis, k, t: _stack_modes(lambda j: basis.antideriv(j, t), k),
    )


# ---------------------------------------------------------------------------
# fractional Brownian motion kernel, H > 1/2


# (mode, t) pairs per basis evaluation in the fBm M~ sum: its temporaries,
# pairs * nodes floats, stay near 1 MB.  Bigger ones (4.7 MB) left later
# 2000 x 257 path syntheses and Stratonovich sums with about 1000 more
# minor page faults each (glibc malloc).
_MTILDE_BLOCK = 3072
# (basis, mode, time grid) entries in each fBm spec's M~ memo
_MTILDE_MEMO_SIZE = 128
# nodes of the fBm psi and K* first-segment Gauss-Jacobi rules and of M~'s own Gauss rule;
# 32 left M~ of cosine modes 17-32 off by up to 1.5e-3
_JACOBI_NODES = 48
# terms of each series of the fBm kernel; 2^-60 is below float64 rounding
_SERIES_TERMS = 60
# what an fBm spec's ``mtilde.cache_info()`` reports, as functools.lru_cache does
_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _check_hurst(hurst: float):
    if not 0.5 < hurst < 1.0:
        raise DomainError("Hurst index must lie in (1/2, 1)")


def fbm_c_h(hurst: float) -> float:
    """Normalizing constant C_H of the fBm Volterra kernel."""
    _check_hurst(hurst)
    return math.sqrt(
        2.0 * hurst * math.gamma(1.5 - hurst) / (math.gamma(hurst + 0.5) * math.gamma(2.0 - 2.0 * hurst))
    )


def fbm_k1(hurst: float, horizon: float) -> float:
    """Analytic bound K_1(T) for the fBm kernel operator."""
    _check_hurst(hurst)
    return (
        hurst
        * (2.0 * hurst - 1.0)
        * math.gamma(hurst - 0.5)
        / math.gamma(hurst + 0.5)
        * horizon ** (2.0 * hurst - 1.0)
    )


def fbm_kernel(hurst: float, t, s):
    """fBm Volterra kernel K(t, s) for 0 < s <= t, broadcast over t and s."""
    _check_hurst(hurst)
    return _fbm_kernel(fbm_c_h(hurst) * (hurst - 0.5), hurst, t, s)


@lru_cache(maxsize=64)  # a few floats per Hurst index, like jacobi01's rules
def _fbm_series(hurst: float):
    """B(a, b) and the coefficients (1-a)_n/n!/(n+b), (1-b)_n/n!/(n+a) of ``_fbm_kernel``'s two series, n < 60."""
    a, b = hurst - 0.5, 1.0 - 2.0 * hurst
    n = np.arange(_SERIES_TERMS, dtype=float)

    def coefficients(p, q):  # successive terms of (p)_n / n! differ by the factor (p + n) / (n + 1)
        return np.cumprod(np.r_[1.0, (p + n[:-1]) / (n[:-1] + 1.0)]) / (n + q)

    return math.gamma(a) * math.gamma(b) / math.gamma(a + b), coefficients(1.0 - a, b), coefficients(1.0 - b, a)


def _fbm_kernel(c: float, hurst: float, t, s):
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
    beta, low, high = _fbm_series(hurst)
    near = np.less_equal(s, 0.5 * t)  # rho <= 1/2
    x = np.where(near, s / t, (t - s) / t)
    column = (-1,) + (1,) * near.ndim
    coef = np.where(near, low.reshape(column), high.reshape(column))  # each point's own series, one Horner pass
    power = x ** np.where(near, 1.0 - 2.0 * hurst, hurst - 0.5)  # x^b or x^a
    series = power * np.polynomial.polynomial.polyval(x, coef, tensor=False)
    val = c * s ** (hurst - 0.5) * np.where(near, beta - series, series)
    return val if val.ndim else float(val)


def fbm_kernel_dt(hurst: float, t: float, s: float) -> float:
    """dK/dt for the fBm kernel, 0 < s < t; s may be an array."""
    _check_hurst(hurst)
    return _fbm_dt(fbm_c_h(hurst) * (hurst - 0.5), hurst, t, s)


def _fbm_dt(c: float, hurst: float, t: float, s):
    # s stays as given: a scalar s keeps scalar pow, which numpy's array pow can differ from in the last bit
    if not np.all(np.greater(s, 0) & np.less(s, t) & np.less(t, math.inf)):  # positive tests, so NaN fails
        raise DomainError("require 0 < s < t < inf")
    return c * s ** (0.5 - hurst) * (t - s) ** (hurst - 1.5) * t ** (hurst - 0.5)


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


def _fbm_mtilde_rule(hurst: float):
    """(rho, lam), the Gauss rule of the fBm M~ weight in rho = s/t: M~_k(t) = c t^(H+1/2) sum_l lam_l m_k(t rho_l).

    The weight's moments are B(m + 3/2 - H, H - 1/2) / (m + H + 1/2).  psi's
    rule (v, w) and the outer rule (y, ww) are each exact to degree 2n - 1, so
    the measure sum_ij ww_i w_j delta(y_i v_j) has the weight's first 2n
    moments, and its n-point Gauss rule is the weight's own.
    """
    v, w = jacobi01(_JACOBI_NODES, hurst - 1.5, 0.5 - hurst)
    y, ww = jacobi01(_JACOBI_NODES, 0.0, hurst - 0.5)
    return _gauss_rule_of(np.outer(y, v).ravel(), np.outer(ww, w).ravel(), _JACOBI_NODES)


def fbm_kernel_spec(hurst: float, horizon: float = 1.0) -> KernelSpec:
    """KernelSpec for fractional Brownian motion with Hurst index in (1/2, 1).

    psi is a Beta-weight quadrature batched over modes, the basis values of
    every mode from one ``BasisFamily._rows`` recurrence.  M~ is one sum over
    the Gauss rule of its own weight (``_fbm_mtilde_rule``), built on the
    spec's first M~ miss: 48 basis values per (mode, t).  M~ memoises that
    sum per spec, keyed by (basis, k, the float64 bytes of t), in a
    least-recently-used memo of ``_MTILDE_MEMO_SIZE`` entries: at most
    128 * len(t) * 8 bytes, 263 kB for a 257-point grid.  A call that misses
    checks t and computes all the modes it misses in one pass; a hit needs
    no check, since only checked times are stored.  The memo lives in
    the spec's closure, over immutable values only, so it dies with the spec
    and cannot go stale; callers get a copy, and ``spec.mtilde.cache_info()``
    reports its hits and misses, one per requested mode.
    """
    _check_hurst(hurst)
    c = fbm_c_h(hurst) * (hurst - 0.5)

    def dt_smooth_evaluate(t, s):
        return c * s ** (0.5 - hurst) * t ** (hurst - 0.5)

    def kstar(horizon, n_grid):
        # Cell j's Gauss node x_q sits at t_jq = (j + 1/2 + x_q/2) h, (j - r + x_q/2) h above row r's
        # midpoint s_r, so the singular factor depends on the offset j - r alone.  Above the diagonal,
        # a[r, j] = c s_r^(1/2 - H) sum_q D[j - r, q] P[j, q], D[d, q] = ((d + x_q/2) h)^(H - 3/2) and
        # P[j, q] = w_q t_jq^(H - 1/2) h/2: six Toeplitz-times-column-scale products per block of rows.
        h = horizon / n_grid
        edges, mids = _kstar_grid(horizon, n_grid)
        xg, wg = _leggauss(6)
        # offsets[q, n + d] = D[d, q] for d = 1..n-1 and 0 for d <= 0, so row r of block q is a window of it
        offsets = np.zeros((6, 2 * n_grid))
        offsets[:, n_grid + 1 :] = ((np.arange(1, n_grid) + 0.5 * xg[:, None]) * h) ** (hurst - 1.5)
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
        # the diagonal cell (s_r, t_{r+1}]: Gauss-Jacobi for the (t - s_r)^(H - 3/2) weight
        gamma = hurst - 1.5
        v, w = jacobi01(_JACOBI_NODES, 0.0, gamma)
        length = edges[1:] - mids
        inner = _dot_rows(w, (mids[:, None] + length[:, None] * v) ** (hurst - 0.5))
        np.fill_diagonal(a, scale * (np.array([x ** (gamma + 1.0) for x in length.tolist()]) * inner))
        return a

    def psi(basis: BasisFamily, ks, s):
        """Smooth factor in (K m_k)(s) = s^(H - 1/2) psi_k(s); Beta-weight quadrature."""
        modes = _check_modes(ks)
        v, w = jacobi01(_JACOBI_NODES, hurst - 1.5, 0.5 - hurst)
        rows = basis._rows(int(modes.max()), np.outer(s, v))
        if not np.array_equal(modes, np.arange(1, len(rows) + 1)):
            rows = rows[modes - 1]
        rows *= c  # in place: these (modes, len(s), nodes) tables are the largest temporaries of an fBm run
        return rows @ w

    @cache
    def mtilde_rule():
        rho, lam = _fbm_mtilde_rule(hurst)
        return rho, c * lam

    def mtilde_quadrature(basis, modes, ts):
        # t^(H+1/2) sum_l c lam_l m_k(t rho_l), every mode from one basis recurrence per block of
        # t values; the per-row dot product and Python-float power keep each value equal to the
        # scalar sum bit for bit
        modes = np.asarray(modes)
        rho, weights = mtilde_rule()
        top = int(modes.max())
        out = np.zeros((len(modes), len(ts)))  # 0 for t <= 0
        live = np.nonzero(ts > 0)[0]
        step = max(1, _MTILDE_BLOCK // top)
        for start in range(0, len(live), step):
            rows = live[start : start + step]
            block = ts[rows]
            try:
                powers = np.array([x ** (hurst + 0.5) for x in block.tolist()])
            except OverflowError:
                raise DomainError(f"M~ overflows: t^(H + 1/2) is not finite for t = {float(block.max())!r}") from None
            out[:, rows] = powers * _dot_rows(weights, basis._rows(top, np.outer(block, rho)))[modes - 1]
        return out

    memo = OrderedDict()  # (basis, mode, t bytes) -> M~ row, least recently used first
    stats = {"hits": 0, "misses": 0}

    def mtilde(basis, k, t):
        # memoised per mode on the exact float64 bytes of t; callers get their own copy
        ts = np.asarray(t, dtype=float).ravel()
        t_key = ts.tobytes()
        keys = [(basis, int(j), t_key) for j in _check_modes(np.atleast_1d(k))]  # 1.5 is refused, not read as 1
        rows = {key: memo[key] for key in keys if key in memo}
        missing = [key for key in keys if key not in rows]
        if missing:
            # only checked times are ever stored, so a hit needs no check: a NaN or negative t
            # raises here, and the quadrature keeps the unclipped ts
            basis._check(ts)
            # one array per entry, so an evicted entry frees its own row
            table = mtilde_quadrature(basis, [j for _, j, _ in missing], ts)
            rows.update((key, row.copy()) for key, row in zip(missing, table))
        stats["hits"] += len(keys) - len(missing)  # a refused call counts nothing
        stats["misses"] += len(missing)
        for key in keys:
            memo[key] = rows[key]
            memo.move_to_end(key)
        while len(memo) > _MTILDE_MEMO_SIZE:
            memo.popitem(last=False)
        out = np.array([rows[key] for key in keys])
        return out if np.ndim(k) else out[0]

    mtilde.cache_info = lambda: _CacheInfo(stats["hits"], stats["misses"], _MTILDE_MEMO_SIZE, len(memo))

    return KernelSpec(
        name="fbm",
        horizon=horizon,
        adapted=True,
        eval=partial(_fbm_kernel, c, hurst),
        diag_limit=lambda s: np.zeros(np.shape(s)),
        dt_eval=partial(_fbm_dt, c, hurst),
        dt_smooth=dt_smooth_evaluate,
        singularity=hurst - 1.5,
        origin_exponent=0.5 - hurst,
        gamma0=hurst - 0.5,
        psi=psi,
        mtilde=mtilde,
        kstar=kstar,
    )


# ---------------------------------------------------------------------------
# grid-interpolated kernels


def grid_kernel_from_csv(path) -> KernelSpec:
    """Kernel interpolated bilinearly from a CSV matrix.

    Layout: first row holds the s-grid (first cell blank or a label), first
    column the t-grid, cell (i, j) the value K(t_i, s_j).  The file is checked
    before anything is built: an empty file, a ragged row, a cell that is not
    a finite number, or a grid of fewer than two increasing points raises
    ConfigurationError.
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
    except ValueError as exc:
        raise ConfigurationError(f"grid CSV {path}: {exc}") from None
    if not (np.all(np.isfinite(s_grid)) and np.all(np.isfinite(table))):
        raise ConfigurationError(f"grid CSV {path}: every grid point and value must be finite")
    t_grid, values = table[:, 0], table[:, 1:]
    for name, grid in (("t", t_grid), ("s", s_grid)):
        if len(grid) < 2 or not np.all(np.diff(grid) > 0):
            raise ConfigurationError(f"grid CSV {path}: the {name}-grid needs at least two increasing points")
    from scipy.interpolate import RegularGridInterpolator  # the library's one scipy use

    interp = RegularGridInterpolator(
        (t_grid, s_grid), values, bounds_error=False, fill_value=None
    )
    horizon = float(max(t_grid[-1], s_grid[-1]))
    adapted = bool(np.allclose(values[np.less.outer(t_grid, s_grid)], 0.0, atol=1e-12))
    h = float(np.min(np.diff(t_grid)))

    def values(t, s):
        t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
        out = interp(np.stack([t, s], axis=-1)).reshape(s.shape)
        return np.where(s > t, 0.0, out) if adapted else out

    def diag_limit(s):
        return values(np.minimum(s + 0.5 * h, horizon), s)

    def dt_evaluate(t, s):
        # difference quotient over [t - h/2, t + h/2] clipped to [s, horizon]; 0 where that is empty
        lo, hi = np.maximum(t - 0.5 * h, s), np.minimum(t + 0.5 * h, horizon)
        width = hi - lo
        nonempty = width > 0
        out = np.where(nonempty, values(hi, s) - values(lo, s), 0.0) / np.where(nonempty, width, 1.0)
        return out if out.ndim else float(out)

    return KernelSpec(
        name="custom-grid",
        horizon=horizon,
        adapted=adapted,
        eval=values,
        diag_limit=diag_limit,
        dt_eval=dt_evaluate,
    )


# ---------------------------------------------------------------------------
# diagnostics: K1 bound, operator norms


def k1_empirical(
    kernel: KernelSpec, t_grid: int = 256, refine_tol: float = 1e-6, max_refinements: int = 3
) -> float:
    """sup over t of int_0^t K(T, s) K1(t, s) ds, on a refining t-grid.

    Each integral is one 72-node Gauss-Jacobi sum over s = t v whose weight
    s^(2 g0) (t - s)^singularity holds both endpoint powers exactly; the
    cofactor is phi(s) s^(-g0) ``dt_smooth``(t, s), with phi(s) = K(T, s) s^(-g0)
    interpolated linearly on 1 024 points s_i = T (i/1024)^2, graded toward 0,
    where phi may have a power cusp.  The grid doubles until two successive
    grids agree to ``refine_tol``; DomainError is raised when
    ``max_refinements`` doublings do not get there.
    """
    if kernel.dt_eval is None:
        raise UnsupportedKernelError(f"kernel {kernel.name!r} lacks derivative data")
    big_t = kernel.horizon
    g0, gam = kernel.origin_exponent, kernel.singularity
    s_fine = big_t * (np.arange(1, 1025) / 1024) ** 2
    phi_vals = kernel.eval(big_t, s_fine) * s_fine ** (-g0)
    v, w = jacobi01(72, gam, 2.0 * g0)

    def sup_at(t: np.ndarray) -> float:
        # int_0^t K(T, s) K1(t, s) ds = t^(1 + gam + 2 g0) sum_i w_i cofactor(t v_i), for all t at once
        x = t[:, None]
        s = x * v
        vals = np.interp(s, s_fine, phi_vals) * s**-g0 * kernel.dt_smooth(x, s)
        return float(np.max(t ** (1.0 + gam + 2.0 * g0) * _dot_rows(w, vals)))

    # grid n is T i / n, i = 1..n: its points are the even points of grid 2n,
    # so each doubling evaluates only the odd ones
    n = t_grid
    best = sup_at(big_t * np.arange(1, n + 1) / n)
    for _ in range(max_refinements):
        n *= 2
        new = max(best, sup_at(big_t * np.arange(1, n + 1, 2) / n))
        if abs(new - best) < refine_tol:
            return new
        best = new
    raise DomainError(
        f"k1_empirical did not converge: {max_refinements} refinements of a "
        f"{t_grid}-point grid left no two grids within {refine_tol}"
    )


def op_norm_bound(k0: float, k1: float) -> float:
    """Analytic bound on ||K*|| from the diagonal bound K0 and integral bound K1."""
    if k0 < 0 or k1 < 0:
        raise DomainError("K0 and K1 must be non-negative")
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
    if not kernel.adapted:
        raise UnsupportedKernelError("discretization implemented for adapted kernels")
    if n_grid < 1:
        raise ConfigurationError(f"n_grid must be >= 1, not {n_grid}")
    _check_table_size(n_grid * n_grid, f"the {n_grid} x {n_grid} K* matrix")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, by name
        a = kernel.kstar(kernel.horizon, n_grid)
    if not np.all(np.isfinite(a)):
        raise DomainError(f"the {n_grid} x {n_grid} K* matrix is not finite at horizon {kernel.horizon!r}")
    return a


def op_norm_estimate(kernel: KernelSpec, n_grid: int = 512, max_iter: int = 5000) -> float:
    """Largest singular value of the discretized K*, by power iteration on A^T A.

    Iteration stops when the eigenvalue estimate changes by at most 1e-8
    relative; DomainError is raised when ``max_iter`` iterations do not get
    there, or at once when an iterate's norm or the estimate is not finite
    (A^T A or the norm's sum of squares overflows).
    """
    a = discretize_kstar(kernel, n_grid)
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(n_grid)
    v /= np.linalg.norm(v)
    lam = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite estimate is refused below
        b = a.T @ a
        w = b @ v
        for _ in range(max_iter):
            nw = np.linalg.norm(w)
            if nw == 0.0:
                return 0.0
            v = w / nw
            w = b @ v  # the Rayleigh quotient's product is the next iteration's
            lam_new = float(v @ w)
            if not (math.isfinite(nw) and math.isfinite(lam_new)):
                raise DomainError(f"power iteration on K*^T K* overflows: iterate norm {nw}, Rayleigh quotient {lam_new}")
            if abs(lam_new - lam) <= 1e-8 * lam_new:
                return math.sqrt(max(lam_new, 0.0))
            lam = lam_new
    raise DomainError(f"power iteration did not reach tol=1e-08 in {max_iter} iterations")


# ---------------------------------------------------------------------------
# covariance functions


def brownian_covariance():
    """R(t, s) = min(t, s) as a callable."""
    return np.minimum


def fbm_covariance(hurst: float):
    """R(t, s) = (|t|^2H + |s|^2H - |t - s|^2H) / 2 as a callable."""
    _check_hurst(hurst)

    def r(t, s):
        h2 = 2.0 * hurst
        return 0.5 * (np.abs(t) ** h2 + np.abs(s) ** h2 - np.abs(t - s) ** h2)

    return r


def covariance_from_kernel(kernel: KernelSpec, t, s):
    """E X(t) X(s) = int_0^min(t,s) K(t, tau) K(s, tau) d tau for adapted kernels, broadcast over t and s.

    It is 0 where min(t, s) <= 0.
    """
    if not kernel.adapted:
        raise UnsupportedKernelError("covariance formula requires an adapted kernel")
    if not np.all(np.isfinite(t) & np.isfinite(s)):
        raise DomainError("t and s must be finite")
    live = np.minimum(t, s) > 0
    # K(t, .) may be singular at 0: a row with nothing to integrate takes t = s = T, and reads 0 below
    x, y = (np.where(live, v, kernel.horizon)[..., None] for v in (t, s))
    gamma = 2.0 * kernel.origin_exponent  # K(t, tau) K(s, tau) behaves like tau^gamma at 0
    diagonal = np.array_equal(x, y)  # as for R(T, T): one evaluation serves both factors, with the same bits

    def integrand(tau):
        kx = kernel.eval(x, tau)
        return kx * (kx if diagonal else kernel.eval(y, tau)) * tau**-gamma

    cov = quad_singular_smooth(integrand, 0.0, np.minimum(x, y)[..., 0], gamma)
    return _on_live_rows(cov, live)


def hr_gram(r, times) -> np.ndarray:
    """Gram matrix G_ij = R(t_i, t_j) of a covariance callable R, checked to be symmetric and PSD.

    R broadcasts over its two arguments.  PSD allows a minimum eigenvalue
    down to -1e-10 max(1, max |G_ij|).
    """
    times = np.asarray(times, dtype=float)
    g = np.asarray(r(times[:, None], times[None, :]), dtype=float)
    if not np.allclose(g, g.T, atol=1e-12):
        raise InvalidCovarianceError("covariance Gram matrix is not symmetric")
    eigmin = float(np.linalg.eigvalsh(g)[0])
    scale = max(1.0, float(np.max(np.abs(g))))
    if eigmin < -1e-10 * scale:
        raise InvalidCovarianceError(f"minimum eigenvalue {eigmin} below tolerance")
    return g


# ---------------------------------------------------------------------------
# kernel-basis pairings


def m_tilde(kernel: KernelSpec, basis: BasisFamily, k: int, t: float) -> float:
    """M~_k(t) = int_0^t (K m_k)(s) ds = int K(t, s) m_k(s) ds."""
    if t == 0:
        return 0.0
    return float(kernel.mtilde(basis, k, np.array([t], dtype=float))[0])


def _mtilde_table(kernel: KernelSpec, basis: BasisFamily, modes: int, times) -> np.ndarray:
    """M~_k(t_i) for k = 1..modes, shape (len(times), modes).

    Each entry equals ``m_tilde(kernel, basis, k, t_i)`` bit for bit; the
    kernel's M~ runs once, for all modes over all nonzero times.
    """
    times = np.asarray(times, dtype=float)
    out = np.zeros((len(times), modes))
    live = times != 0.0
    out[live] = kernel.mtilde(basis, range(1, modes + 1), times[live]).T
    return out


def kmk_factor(kernel: KernelSpec, basis: BasisFamily, k: int):
    """(gamma0, psi) with (K m_k)(s) = s^gamma0 * psi(s), psi smooth at 0 and taking a 1-D array s."""
    return kernel.gamma0, lambda s: kernel.psi(basis, (k,), np.atleast_1d(np.asarray(s, dtype=float)))[0]


def k_mk(kernel: KernelSpec, basis: BasisFamily, k: int, s):
    """(K m_k)(s): the kernel image of a basis function, vectorized over s."""
    gamma0, psi = kmk_factor(kernel, basis, k)
    s = np.asarray(s, dtype=float)
    ss = np.atleast_1d(s)
    val = ss**gamma0 * psi(ss)
    return float(val[0]) if s.ndim == 0 else val
