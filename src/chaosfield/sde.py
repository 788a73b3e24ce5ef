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
from dataclasses import dataclass

import numpy as np

from .basis import BasisFamily, _leggauss, jacobi01
from .chaos import ChaosExpansion, _wick_exp_rows
from .errors import ConfigurationError, DomainError
from .kernels import KernelSpec, _mtilde_table
from .multiindex import Truncation, _tables, enumerate_multiindices


@dataclass(frozen=True)
class PropagatorSolution:
    """Chaos coefficients u_alpha(t_i) of the propagator on a time grid.

    ``coeffs`` has shape (len(times), trunc.size()); rows follow ``times``,
    columns the enumeration order of ``trunc``.  ``mtilde`` holds M~_k(t_i)
    with shape (len(times), modes).
    """

    trunc: Truncation
    basis: BasisFamily
    kernel_name: str
    times: np.ndarray
    coeffs: np.ndarray
    mtilde: np.ndarray

    def _time_index(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if not abs(self.times[i] - t) <= 1e-10:  # NaN fails it too
            raise DomainError(f"time {t} not on the solution grid")
        return i

    def at(self, t: float) -> ChaosExpansion:
        """Solution at a grid time as a ChaosExpansion."""
        return ChaosExpansion.from_dense(self.trunc, self.coeffs[self._time_index(t)])

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
        """
        alphas = enumerate_multiindices(self.trunc)
        with open(path, "w", newline="") as fh:
            fh.write("t,alpha_id,coefficient\r\n")
            for t, row in zip(self.times.tolist(), self.coeffs):
                stamp = repr(t)
                fh.write("".join(f"{stamp},{j},{c!r}\r\n" for j, c in enumerate(row.tolist())))
        sidecar = {str(j): [[k, a] for k, a in alpha.entries] for j, alpha in enumerate(alphas)}
        with open(sidecar_path, "w") as fh:
            json.dump(sidecar, fh, sort_keys=True)


def sample_wick_exponential(mtilde_row: np.ndarray, z, max_order: int) -> np.ndarray:
    """Truncated Wick exponential sum_{|alpha| <= N} prod_k c_k^{a_k} H_{a_k}(z_k)/a_k!.

    By the Hermite generating function the order-n part is
    q_n = |c|^n H_n(y/|c|)/n! with y = <c, z>, so one projection and the
    recurrence q_{n+1} = (y q_n - |c|^2 q_{n-1})/(n+1) give the sum at any
    order.  Non-finite samples or M~ values raise DomainError.
    """
    c = np.asarray(mtilde_row, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        raise DomainError("a sample needs a mode axis: shape (K,) or (n, K)")
    if z.shape[-1] < len(c):
        raise DomainError("sample vector shorter than the mode count")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(c))):
        raise DomainError("samples and M~ values must be finite")
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
    times = np.asarray(grid, dtype=float)
    mt = _mtilde_table(kernel, basis, trunc.modes, times)
    return PropagatorSolution(trunc, basis, kernel.name, times, _wick_exp_rows(mt, tables), mt)


# ---------------------------------------------------------------------------
# Picard / collocation solver


# Gauss nodes of each sub-quadrature in the Picard integration operator
_SUB_NODES = 32


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


def _lagrange_eval(nodes: np.ndarray, bw: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix L[j, m] = ell_j(x_m) for the Lagrange basis on ``nodes``."""
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


class _CollocationGrid:
    """Composite Gauss-Legendre collocation mesh on [0, T], panel edges graded as T (p / panels)^3."""

    def __init__(self, horizon: float, panels: int, nodes: int):
        self.panels = panels
        self.nodes = nodes
        self.edges = horizon * (np.arange(panels + 1) / panels) ** 3.0
        x, _ = _leggauss(nodes)
        lo, hi = self.edges[:-1], self.edges[1:]
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        self.panel_nodes = mid[:, None] + half[:, None] * x[None, :]
        self.bw = [_barycentric_weights(self.panel_nodes[p]) for p in range(panels)]

    def interp_matrix(self, times: np.ndarray) -> np.ndarray:
        """E[i, m] mapping node values to values at ``times`` panelwise."""
        n = self.panels * self.nodes
        out = np.zeros((len(times), n))
        idx = np.clip(np.searchsorted(self.edges, times, side="right") - 1, 0, self.panels - 1)
        for p in range(self.panels):
            sel = np.nonzero(idx == p)[0]
            if len(sel) == 0:
                continue
            l = _lagrange_eval(self.panel_nodes[p], self.bw[p], times[sel])
            out[sel, p * self.nodes : (p + 1) * self.nodes] = l.T
        return out


def _integration_matrix(grid: _CollocationGrid, gamma0: float, psi) -> np.ndarray:
    """The Volterra operator v -> int_0^{x_m} v~(s) m~_k(s) ds, every mode, as per-panel blocks.

    v~ is the panelwise Lagrange interpolant of the node values v and
    m~_k(s) = s^gamma0 psi_k(s), where ``psi(s)`` returns psi_k(s) for all
    modes at once, shape (modes, len(s)).  The result has shape
    (modes, panels, nodes, nodes + 1): [k, p, j, m] weights node j of panel p
    in the integral from the panel's left edge up to its node m, and column
    m = nodes in the integral over the whole panel, which every later panel adds.
    The first panel uses a Gauss-Jacobi rule for the s^gamma0 weight; later
    panels use plain Gauss-Legendre.  Each panel is one batch: the
    sub-quadratures from its left edge up to each of its nodes and up to its
    right edge share one psi call and one Lagrange evaluation for all modes.
    """
    q = grid.nodes
    xg, wg = _leggauss(_SUB_NODES)
    blocks = []
    for p in range(grid.panels):
        a = grid.edges[p]
        # columns: int_a^{x_i} for the q nodes x_i, then int_a^{b} over the whole panel
        upper = np.append(grid.panel_nodes[p], grid.edges[p + 1])
        if p == 0 and gamma0 != 0.0:
            vj, wj = jacobi01(_SUB_NODES, 0.0, gamma0)
            s = np.outer(upper, vj)
            weights = np.outer(upper ** (gamma0 + 1.0), wj)
            mt = psi(s.ravel()).reshape((-1,) + s.shape)
        else:
            half = 0.5 * (upper - a)
            s = a + np.outer(half, xg + 1.0)
            weights = np.outer(half, wg)
            mt = s**gamma0 * psi(s.ravel()).reshape((-1,) + s.shape)
        l = _lagrange_eval(grid.panel_nodes[p], grid.bw[p], s.ravel()).reshape(q, q + 1, _SUB_NODES)
        blocks.append(np.einsum("jms,kms->kjm", l, weights * mt))
    return np.stack(blocks, axis=1)


def solve_picard(
    kernel: KernelSpec,
    basis: BasisFamily,
    trunc: Truncation,
    grid,
    panels: int = 48,
    nodes: int = 12,
) -> PropagatorSolution:
    """Solve the triangular coefficient system by induction on |alpha|.

    Product-integration collocation: each u_alpha is represented by its values
    at graded composite Gauss-Legendre nodes, and the Volterra integral is a
    precomputed block per panel and mode plus the panel's whole-span row,
    all modes built together.
    Only the Ito interpretation is solved: the Stratonovich form couples each
    coefficient to higher-order ones, so its system is not triangular.
    """
    if panels < 1 or nodes < 1:
        raise ConfigurationError("panels and nodes must be >= 1")
    tables = _tables(trunc)  # checks the truncation's size before any quadrature
    times = np.asarray(grid, dtype=float)
    mt = _mtilde_table(kernel, basis, trunc.modes, times)  # checks the times before the operator is built
    cgrid = _CollocationGrid(basis.horizon, panels, nodes)
    modes = np.arange(1, trunc.modes + 1)
    ops = _integration_matrix(cgrid, kernel.gamma0, lambda s: kernel.psi(basis, modes, s))

    # grade by grade: u_alpha = sum_k sqrt(alpha_k) W_k u_{alpha - eps_k}, one product per (grade, mode)
    u = np.zeros((len(tables.exponents), panels, nodes))
    u[0] = 1.0
    for grade in range(1, trunc.max_order + 1):
        rows = np.nonzero(tables.orders == grade)[0]
        for k in range(trunc.modes):
            sel = rows[tables.down[rows, k] >= 0]
            out = u[tables.down[sel, k]].transpose(1, 0, 2) @ ops[k]  # (panels, len(sel), nodes + 1)
            out[1:, :, :nodes] += np.cumsum(out[:-1, :, nodes:], axis=0)  # the whole panels before p
            u[sel] += np.sqrt(tables.exponents[sel, k])[:, None, None] * out[..., :nodes].transpose(1, 0, 2)

    coeffs = cgrid.interp_matrix(times) @ u.reshape(len(u), -1).T
    return PropagatorSolution(trunc, basis, kernel.name, times, coeffs, mt)

