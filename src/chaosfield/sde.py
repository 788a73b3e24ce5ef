"""The linear Wick SDE u(t) = 1 + X_t(u), X the field with kernel K.

In chaos coefficients the equation is a triangular Volterra system

    u_alpha(t) = 1_{alpha = 0} + sum_k sqrt(alpha_k) int_0^t u_{alpha-eps_k}(s) m~_k(s) ds,

with m~_k = K m_k.  The closed form is the Wick exponential
u_alpha(t) = prod_k M~_k(t)^{alpha_k} / sqrt(alpha!) with M~_k(t) the
antiderivative of m~_k.  The Picard solver integrates the system directly by
collocation, giving an independent check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import BasisFamily, _check_times, _leggauss
from .chaos import _check_samples, _wick_exp_rows
from .errors import DomainError
from .kernels import KernelSpec
from .multiindex import Truncation, _check_integer, _check_table_size, _tables


@dataclass(frozen=True)
class PropagatorSolution:
    """Chaos coefficients u_alpha(t_i) of the propagator on a time grid.

    ``coeffs`` has shape (len(times), trunc.size()); rows follow ``times``,
    columns the enumeration order of ``trunc``.  ``mtilde`` holds M~_k(t_i)
    with shape (len(times), modes).
    """

    trunc: Truncation
    times: np.ndarray
    coeffs: np.ndarray
    mtilde: np.ndarray

    def _time_index(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if not abs(self.times[i] - t) <= 1e-10 * np.max(np.abs(self.times)):  # NaN fails it too
            raise DomainError(f"time {t} not on the solution grid")
        return i

    def second_moment(self, t: float) -> float:
        """E u(t)^2 = sum_alpha u_alpha(t)^2 within the truncation."""
        row = self.coeffs[self._time_index(t)]
        return float(np.dot(row, row))

    def sample(self, t: float, z: np.ndarray) -> np.ndarray:
        """Evaluate u(t) at Gaussian samples z of shape (n, K) or (K,)."""
        return sample_wick_exponential(self.mtilde[self._time_index(t)], z, self.trunc.max_order)

    def export_csv(self, path, sidecar_path) -> None:
        """Write rows (t, alpha-id, coefficient) and an id -> multi-index sidecar.

        The rows are CSV with ``\\r\\n`` line ends and no quoting, since no
        field (a float repr or an integer) holds a comma, quote or line break.
        Every number is its float's ``repr``: times by ``repr`` itself, the
        coefficients by ``_repr_fields`` in blocks of about ``_EXPORT_BLOCK``
        values, each written as bytes.  A non-finite time or coefficient raises
        DomainError before either file is opened.
        """
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.coeffs))):
            raise DomainError("solution times and coefficients must be finite to export")
        ids, sidecar = _export_texts(self.trunc)
        rows = max(1, _EXPORT_BLOCK // len(ids))
        with open(path, "wb") as fh:
            fh.write(b"t,alpha_id,coefficient\r\n")
            for i in range(0, len(self.times), rows):
                fh.write(_csv_lines(self.times[i : i + rows], ids, self.coeffs[i : i + rows]))
        with open(sidecar_path, "w") as fh:
            fh.write(sidecar)


@lru_cache(maxsize=8)  # one key per truncation in use; at (6, 4) the ids take 1 kB and the sidecar 7.8 kB
def _export_texts(trunc: Truncation) -> tuple:
    """(ids, sidecar JSON) of ``export_csv``.

    ``ids`` is a read-only uint8 array whose row j holds the bytes ``,j,``,
    NUL-padded to a common width.  The sidecar maps each id to its
    [k, alpha_k] pairs.
    """
    rows = _tables(trunc).exponents.tolist()
    ids = np.array([f",{j}," for j in range(len(rows))], dtype="S")
    ids = ids.view(np.uint8).reshape(len(rows), -1)
    ids.flags.writeable = False
    sidecar = {str(j): [[k + 1, a] for k, a in enumerate(row) if a] for j, row in enumerate(rows)}
    return ids, json.dumps(sidecar, sort_keys=True)


# ---------------------------------------------------------------------------
# repr's bytes for a block of floats at once


_EXPORT_BLOCK = 4096  # values per block of export_csv: the block's temporaries stay under 1 MB
_FIELD = 46  # bytes of a _repr_fields row: sign, 16 integer digits, point and 3 zeros, 17 fraction digits, exponent
_EDGE = 2.0**-30  # a decision this close to its boundary goes to repr; the double-double error is below about 2^-45
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_POW_MIN = -235  # the powers 10^k, k in [_POW_MIN, 267], cover 10^(16 - e) for every decade e of the fast range, +-1


@lru_cache(maxsize=1)
def _repr_tables():
    """Read-only tables of ``_repr_fields``, 61 kB built in under 1 ms.

    10^k as double-doubles (hi, lo) from exact integer arithmetic, with hi's
    Veltkamp halves; 10^0..10^17 as int64; the 4-digit texts of 0..9999 as
    uint32; per decpt clipped to [-4, 17], the digits before the point and,
    if positional, the index of the point and its zeros in ``dots``; the
    masks of the integer and fraction groups; the exponent text per decpt
    in [-252, 253], '' where positional.
    """
    hi, lo, m = [], [], 1
    for _ in range(-_POW_MIN):
        m *= 10
        h = 1 / m  # correctly rounded, as is every int / int
        n, d = h.as_integer_ratio()  # d = 2^j, so 1/m - h = (d - n m) / (d m)
        hi.append(h), lo.append(math.ldexp(float(d - n * m) / m, 1 - d.bit_length()))
    hi.reverse(), lo.reverse()
    m = 1
    for _ in range(268):
        hi.append(float(m)), lo.append(float(m - int(float(m))))
        m *= 10
    hi, lo = np.array(hi), np.array(lo)
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    v = np.arange(10000, dtype=np.uint32)
    quads = np.full(10000, 0x30303030, dtype=np.uint32)  # '0000'
    for j in range(4):  # v's 4 digits, the first in the low byte
        quads += v // 10 ** (3 - j) % 10 << 8 * j
    # masks that keep the last n (high[n]) or the first n (low[n]) characters of a group
    high, low = [2**32 - 2 ** (32 - 8 * n) for n in range(5)], [2 ** (8 * n) - 1 for n in range(5)]
    # per digits before the point (0..16), the characters of each integer group; '0' if none
    ip_masks = [[high[min(max(before - 12 + 4 * j, j // 3), 4)] for j in range(4)] for before in range(17)]
    # per significant digits after the point (0..17), the characters of each group after the first digit
    fr_masks = [[low[min(max(after - 1 - 4 * j, 0), 4)] for j in range(4)] for after in range(18)]
    positional = [-4 < decpt <= 16 for decpt in range(-4, 18)]
    before = [max(decpt, 0) if pos else 1 for decpt, pos in zip(range(-4, 18), positional)]
    point = [4 + max(-decpt, 0) if pos else 0 for decpt, pos in zip(range(-4, 18), positional)]
    dots = np.array([b"", b"0", b"00", b"000", b".", b".0", b".00", b".000"], dtype="S4").view(np.uint32)
    exps = [b"" if -4 < decpt <= 16 else b"e%+03d" % (decpt - 1) for decpt in range(-252, 254)]
    exps = np.array(exps, dtype="S8").view(np.uint64)
    tables = (hi, lo, hi_hi, hi - hi_hi, 10 ** np.arange(18), quads)
    tables += (np.array(before), np.array(point), np.array(ip_masks, np.uint32), np.array(fr_masks, np.uint32), dots, exps)
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, t: np.ndarray) -> tuple:
    """(y, frac, half): a 10^k = y + frac, y int64 and 0 <= frac < 1, and half a's rounding gap times 10^k, k = t + _POW_MIN.

    Dekker's exact product of a and hi, plus a lo, with (hi, lo) the
    double-double of 10^k: for y < 10^17 its error is below about 2^-45.
    """
    hi_t, lo_t, hi_hi, hi_lo = _repr_tables()[:4]
    big = hi_t[t]
    p = a * big  # integral: p >= 2^53 wherever y is in range
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    bh, bl = hi_hi[t], hi_lo[t]
    low = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo_t[t]
    whole = np.floor(low)
    return p.astype(np.int64) + whole.astype(np.int64), low - whole, np.ldexp(big, np.frexp(a)[1] - 54)


def _shortest_digits(a: np.ndarray) -> tuple:
    """repr's digits of each a = |x| as (d, drop, e, fast): a ~ d 10^(e - 16), d in [10^16, 10^17) with ``drop`` trailing zeros.

    repr is the shortest decimal that rounds back to a, and of those the
    nearest (Steele & White, PLDI 1990).  For 1e-250 <= a <= 1e250 not a
    power of two, y = a 10^(16 - e), e the decade from log10, is formed as a
    double-double (Dekker, Numer. Math. 18, 1971); d is the nearest multiple
    of 10^drop to y for the largest drop such that one lies strictly within
    a's rounding half-gap, scaled like y.  A power of two has a narrower gap
    below, so its nearest is not always repr's.  ``fast`` is False on every
    other value and on any decision within ``_EDGE`` of its boundary (a tie,
    a decade off, a carry into 10^17, an integer at an interval edge that is
    a multiple of 10^(drop + 1)); a is overwritten there.
    """
    pow10 = _repr_tables()[4]
    fast = (a >= 1e-250) & (a <= 1e250) & (a.view(np.int64) & (2**52 - 1) != 0)
    a[~fast] = 3.0  # a stand-in inside the range
    e = np.floor(np.log10(a)).astype(np.int64)
    y, frac, half = _scaled(a, 16 - _POW_MIN - e)
    fast &= (y >= 10**16) & (y < 10**17)
    # the integers strictly within half of y + frac, less any within _EDGE of an edge, are top - width .. top
    below, above = frac - half, frac + half
    top = y + (np.ceil(above - _EDGE).astype(np.int64) - 1)
    width = top - y - np.floor(below + _EDGE).astype(np.int64) - 1
    # drop k digits while a multiple of 10^k lies in that range: width < 24, so past k = 2 the digits are 0
    tens, hundreds = top // 10, top // 100
    drop = (top - tens * 10 <= width).astype(np.int64)
    two = top - hundreds * 100 <= width
    drop += two
    live = np.flatnonzero(two & fast)  # the stand-ins' 3 10^16 would count 14 zeros
    rest = hundreds[live]
    while live.size:
        shifted = rest // 10
        zero = rest == shifted * 10
        live, rest = live[zero], shifted[zero]
        drop[live] += 1
    # an integer within _EDGE of an edge may or may not lie inside: it goes to repr only if it would add a digit to drop
    ends = np.round(below), np.round(above)
    hit = np.flatnonzero((np.abs(below - ends[0]) <= _EDGE) | (np.abs(above - ends[1]) <= _EDGE))
    if hit.size:
        tenfold = pow10[np.minimum(drop[hit] + 1, 17)]  # drop 17 is a carry into 10^17, refused below
        for edge, end in ((below, ends[0]), (above, ends[1])):
            fast[hit] &= (np.abs(edge[hit] - end[hit]) > _EDGE) | ((y[hit] + end[hit].astype(np.int64)) % tenfold != 0)
    q = pow10[drop]
    r = y - y // q * q
    up = (2 * r - q) + 2.0 * frac  # > 0: the multiple above y is the nearer
    d = y - r + q * (up > 0)
    fast &= (np.abs(up) > _EDGE) & (d < 10**17)
    return d, drop, e, fast


def _put_groups(out: np.ndarray, v: np.ndarray, masks: np.ndarray) -> None:
    """Write the last n = masks.shape[1] 4-digit groups of each v into the 4 n columns of ``out``, group j cut by masks[:, j]."""
    quads = _repr_tables()[5]
    for j in range(masks.shape[1]):  # group by group: no (len(v), n) temporaries
        scale = 10 ** (4 * (masks.shape[1] - 1 - j))
        group = v // scale
        v = v - group * scale
        out[:, 4 * j : 4 * j + 4] = (quads[group] & masks[:, j]).astype("<u4", copy=False).view(np.uint8).reshape(-1, 4)


def _repr_fields(x: np.ndarray, out: np.ndarray) -> int:
    """Write ``repr(x[i])`` into row i of ``out``, a zeroed (len(x), _FIELD) uint8 array, NUL where no byte.

    The digits of ``_shortest_digits`` are laid out by repr's rules:
    positional when -4 < decpt <= 16 (with '.0' when the value is integral),
    else d.ddde+XX with at least two exponent digits.  Every other value is
    written by ``repr`` itself; returns their count.
    """
    pow10, _, before_t, point_t, ip_masks, fr_masks, dots, exps = _repr_tables()[4:]
    d, drop, e, fast = _shortest_digits(np.abs(x))
    d[~fast] = 10**16
    decpt = e + 1  # x ~ 0.ddd 10^decpt
    form = np.clip(decpt, -4, 17) + 4
    before = before_t[form]
    scale = pow10[17 - before]
    ip = d // scale
    fr = (d - ip * scale) * pow10[before]  # the digits after the point, left-aligned in 17
    after = 17 - drop - before  # the significant ones
    point = np.maximum(point_t[form], 4 * (after > 0))  # '1e+16' has neither point nor fraction
    f0 = fr // 10**16
    out[:, 0] = 45 * np.signbit(x)
    groups = 1 if before.max() <= 4 else 4  # most blocks' integer parts lie in the last group
    _put_groups(out[:, 17 - 4 * groups : 17], ip, ip_masks[before, 4 - groups :])
    out[:, 17:21] = dots[point].view(np.uint8).reshape(-1, 4)
    out[:, 21] = (f0 + 48) * (point >= 4)
    _put_groups(out[:, 22:38], fr - f0 * 10**16, fr_masks[np.clip(after, 0, 17)])
    out[:, 38:46] = exps[decpt + 252].view(np.uint8).reshape(-1, 8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = np.array([repr(v) for v in x[slow].tolist()], dtype=f"S{_FIELD}")
        out[slow] = texts.view(np.uint8).reshape(-1, _FIELD)
    return slow.size


def _csv_lines(times: np.ndarray, ids: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The bytes of the lines ``t,j,u_j(t)\\r\\n`` of a block of rows, as a uint8 array."""
    stamps = np.array([repr(t) for t in times.tolist()], dtype="S")
    wt, wid = stamps.itemsize, ids.shape[1]
    lines = np.zeros((coeffs.size, wt + wid + _FIELD + 2), dtype=np.uint8)
    grid = lines.reshape(len(times), len(ids), -1)
    grid[:, :, :wt] = stamps.view(np.uint8).reshape(-1, 1, wt)
    grid[:, :, wt : wt + wid] = ids
    _repr_fields(np.asarray(coeffs, dtype=float).ravel(), lines[:, wt + wid : -2])
    lines[:, -2:] = (13, 10)
    return lines[lines != 0]


def sample_wick_exponential(mtilde_row: np.ndarray, z, max_order: int) -> np.ndarray:
    """Truncated Wick exponential sum_{|alpha| <= N} prod_k c_k^{a_k} H_{a_k}(z_k)/a_k!.

    By the Hermite generating function the order-n part is
    q_n = |c|^n H_n(y/|c|)/n! with y = <c, z>, so one projection and the
    recurrence q_{n+1} = (y q_n - |c|^2 q_{n-1})/(n+1) give the sum at any
    order.  M~ values that are not a finite vector, samples ``chaos_eval``
    refuses or one shorter than c raise DomainError, a bad order
    ConfigurationError.
    """
    _check_integer("max_order", max_order, 0)
    c = np.asarray(mtilde_row, dtype=float)
    if c.ndim != 1 or not np.all(np.isfinite(c)):
        raise DomainError("M~ values must be a finite vector")
    z = _check_samples(z)
    if z.shape[-1] < len(c):
        raise DomainError("sample vector shorter than the mode count")
    y = z[..., : len(c)] @ c
    s2 = float(c @ c)
    q_prev, q = np.zeros_like(y), np.ones_like(y)  # q_{-1} = 0 makes the first step q_1 = y
    out = q
    for n in range(max_order):
        q_prev, q = q, (y * q - s2 * q_prev) / (n + 1)
        out = out + q
    return out if out.ndim else float(out)


def solve_closed_form(
    kernel: KernelSpec, basis: BasisFamily, trunc: Truncation, grid
) -> PropagatorSolution:
    """Wick-exponential solution u_alpha(t) = prod_k M~_k(t)^{alpha_k} / sqrt(alpha!)."""
    tables = _tables(trunc)  # checks the truncation's size before any quadrature
    times = _check_times(grid)
    mt = kernel.mtilde(basis, range(1, trunc.modes + 1), times).T.copy()  # writable, one C-ordered row per time
    return PropagatorSolution(trunc, times, _wick_exp_rows(mt, tables), mt)


# ---------------------------------------------------------------------------
# Picard / collocation solver


def _lagrange_eval(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix L[j, m] = ell_j(x_m) for the Lagrange basis on ``nodes``, by the barycentric formula."""
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    bw = 1.0 / np.prod(diff, axis=1)
    x = np.atleast_1d(x)
    d = x[None, :] - nodes[:, None]
    exact = d == 0.0
    d = np.where(exact, 1.0, d)
    terms = bw[:, None] / d
    denom = np.sum(terms, axis=0)
    out = terms / denom[None, :]
    hit = exact.any(axis=0)
    if np.any(hit):
        out[:, hit] = exact[:, hit].astype(float)
    return out


# solve_picard's mesh: _UNIFORM equal panels, the first split into _LAYERS geometric
# layers of ratio _RATIO (sigma, each layer's outer edge over the next one's) when m~
# carries a power s^gamma0 at the origin, _NODES Gauss-Legendre nodes a panel
_UNIFORM = 6
_LAYERS = 12
_RATIO = 0.2
_NODES = 20
_TIME_BLOCK = 2**16  # entries of a block of solve_picard's output rows: its temporaries stay near 0.5 MB


class _CollocationGrid:
    """Composite Gauss-Legendre collocation mesh on [0, T]: equal panels, the first split geometrically.

    With h = T / uniform the edges are 0, h sigma^layers, ..., h sigma, h, 2h,
    ..., T (sigma = ``_RATIO``), so there are uniform + layers panels, and the
    last edge is T exactly.  For fBm u_alpha(t) carries the power
    t^((H + 1/2)|alpha|) at the origin, which the geometric layers resolve
    exponentially in their count, where an algebraically graded mesh resolves
    it only algebraically (the hp idea of Brunner and Schoetzau, SIAM J.
    Numer. Anal. 44, 2006).  Every panel is an affine image of the reference
    panel [-1, 1] with the Gauss-Legendre nodes ``ref_nodes``: ``points``
    holds the nodes of each panel and ``half`` each panel's half-width.
    """

    def __init__(self, horizon: float, uniform: int, layers: int, nodes: int):
        self.panels = uniform + layers
        self.nodes = nodes
        h = horizon / uniform
        self.edges = np.concatenate(([0.0], h * _RATIO ** np.arange(layers, 0, -1), h * np.arange(1, uniform + 1)))
        self.edges[-1] = horizon
        self.ref_nodes, _ = _leggauss(nodes)
        self.half = 0.5 * np.diff(self.edges)[:, None]
        self.points = self.edges[:-1, None] + self.half * (self.ref_nodes + 1.0)

    def interpolate(self, u: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Values at ``times`` of the panelwise interpolants of node values u (rows, panels, nodes): (len(times), rows).

        Each time reads only its own panel's nodes, and the times go in blocks
        of about ``_TIME_BLOCK`` output entries, so no temporary grows with
        the number of times.
        """
        out = np.empty((len(times), len(u)))
        step = max(1, _TIME_BLOCK // max(len(u), self.nodes))
        for start in range(0, len(times), step):
            t, block = times[start : start + step], out[start : start + step]
            idx = np.clip(np.searchsorted(self.edges, t, side="right") - 1, 0, self.panels - 1)
            order = np.argsort(idx, kind="stable")  # the block's times panel by panel
            lo, hi = self.edges[idx], self.edges[idx + 1]
            lag = _lagrange_eval(self.ref_nodes, (2.0 * (t - lo) / (hi - lo) - 1.0)[order]).T
            bounds = np.searchsorted(idx[order], np.arange(self.panels + 1))
            for p in np.flatnonzero(np.diff(bounds)):
                a, b = bounds[p], bounds[p + 1]
                block[order[a:b]] = lag[a:b] @ u[:, p].T
        return out


@lru_cache(maxsize=4)  # one key per node count in use; 3.4 kB at 20 nodes
def _volterra_matrix(nodes: int) -> np.ndarray:
    """C[j, m] = int_{-1}^{x_m} ell_j, and C[j, nodes] = w_j = int_{-1}^{1} ell_j; read-only.

    ell_j is the Lagrange basis on the ``nodes`` Gauss-Legendre nodes x of
    [-1, 1], with weights w.  Each partial integral takes the same rule mapped
    onto [-1, x_m], which is exact for ell_j's degree nodes - 1, and the last
    column is the rule's own weights.
    """
    x, w = _leggauss(nodes)
    frac = 0.5 * (x + 1.0)  # (x_m + 1) / 2, the mapped rule's scale
    sub = frac[:, None] * (x + 1.0) - 1.0  # sub[m, i]: node i of the rule on [-1, x_m]
    c = np.empty((nodes, nodes + 1))
    c[:, :nodes] = (_lagrange_eval(x, sub.ravel()).reshape(nodes, nodes, nodes) @ w) * frac
    c[:, nodes] = w
    c.flags.writeable = False
    return c


def _kernel_at_nodes(grid: _CollocationGrid, gamma0: float, psi) -> np.ndarray:
    """m~_k(x) (b - a)/2 = x^gamma0 psi_k(x) (b - a)/2 at every node x of every panel [a, b]: shape (modes, panels, nodes).

    ``psi(s)`` returns psi_k(s) for all modes at once, shape (modes, len(s)),
    and is asked only at the panels' nodes.  The half-width maps an integral
    over a panel onto the reference panel of ``_volterra_matrix``.
    """
    x = grid.points
    return psi(x.ravel()).reshape((-1,) + x.shape) * (x**gamma0 * grid.half)


def solve_picard(
    kernel: KernelSpec,
    basis: BasisFamily,
    trunc: Truncation,
    grid,
) -> PropagatorSolution:
    """Solve the triangular coefficient system by induction on |alpha|.

    Collocation of the Volterra system (the Nystrom form; Brunner,
    Collocation Methods for Volterra Integral and Related Functional
    Equations, CUP 2004): each u_alpha is represented by its values at the
    ``_NODES`` Gauss-Legendre nodes of each panel of ``_CollocationGrid``.
    Since the system is linear, u_alpha is one Volterra integral of the
    summed integrand g_alpha = sum_k sqrt(alpha_k) m~_k u_{alpha - eps_k},
    and integrating g_alpha's panelwise interpolant takes one matrix that
    does not depend on the mode, ``_volterra_matrix``: the mode enters only
    through m~_k at the nodes.  The grades run on v_alpha = u_alpha /
    sqrt(alpha!), whose system has no weights.  The mesh has ``_UNIFORM``
    equal panels, the first split into ``_LAYERS`` geometric ones only where
    m~ carries the power s^gamma0 (fBm); the Brownian and grid kernels'
    integrands are smooth at the origin.  Only the Ito interpretation is
    solved: the Stratonovich form couples each coefficient to higher-order
    ones, so its system is not triangular.
    """
    tables = _tables(trunc)  # checks the truncation's size before any quadrature
    layers = _LAYERS if kernel.gamma0 else 0
    panels = _UNIFORM + layers  # v below holds one value per coefficient, panel and node: checked here too
    _check_table_size(len(tables.exponents) * panels * _NODES, f"Picard on {panels} panels of {_NODES}")
    times = _check_times(grid)
    mt = kernel.mtilde(basis, range(1, trunc.modes + 1), times).T.copy()  # checks the times before the operator is built
    cgrid = _CollocationGrid(basis.horizon, _UNIFORM, layers, _NODES)
    modes = np.arange(1, trunc.modes + 1)
    km = _kernel_at_nodes(cgrid, kernel.gamma0, lambda s: kernel.psi(basis, modes, s)).reshape(trunc.modes, -1)
    c = _volterra_matrix(_NODES)

    # v_alpha = u_alpha / sqrt(alpha!) solves the system without its weights: v_alpha = sum_{k: alpha_k > 0}
    # int_0^t m~_k v_{alpha - eps_k}.  Grade by grade (the enumeration is graded), alpha = beta + eps_k over
    # the previous grade's rows beta; within a grade the rows with alpha_1 > 0 come first, in their beta's order
    nodes, size = _NODES, len(tables.exponents)
    v = np.empty((size, panels, nodes))
    v[0] = 1.0
    flat = v.reshape(size, -1)
    starts = np.searchsorted(tables.orders, np.arange(trunc.max_order + 2))
    term = np.empty_like(flat)
    for grade in range(1, trunc.max_order + 1):
        prev, rows = slice(starts[grade - 1], starts[grade]), slice(starts[grade], starts[grade + 1])
        below = starts[grade] - starts[grade - 1]
        g = np.empty((rows.stop - rows.start, panels * nodes))
        np.multiply(flat[prev], km[0], out=g[:below])  # beta + eps_1 is row n of the grade for beta the n-th below
        g[below:] = 0.0
        for k in range(1, trunc.modes):  # each beta + eps_k is another alpha, so no row repeats in one scatter
            g[tables.up[prev, k] - rows.start] += np.multiply(flat[prev], km[k], out=term[:below])
        # v_alpha at node m of panel p: the partial integral over p, plus the whole panels before p
        whole = g.reshape(-1, panels, nodes) @ c[:, nodes]
        np.matmul(g.reshape(-1, nodes), c[:, :nodes], out=flat[rows].reshape(-1, nodes))
        v[rows, 1:] += np.cumsum(whole[:, :-1], axis=1)[..., None]

    coeffs = cgrid.interpolate(v, times)
    coeffs /= tables.inv_sqrt_factorial
    return PropagatorSolution(trunc, times, coeffs, mt)
