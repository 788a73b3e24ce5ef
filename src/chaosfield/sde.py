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
from functools import lru_cache

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
        The repr of a row's list is each float's repr joined by ", ".
        A non-finite time or coefficient raises DomainError before either
        file is opened.
        """
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.coeffs))):
            raise DomainError("solution times and coefficients must be finite to export")
        alphas = enumerate_multiindices(self.trunc)
        ids = [f",{j}," for j in range(len(alphas))]
        with open(path, "w", newline="") as fh:
            fh.write("t,alpha_id,coefficient\r\n")
            for t, row in zip(self.times.tolist(), self.coeffs):
                stamp = repr(t)
                values = repr(row.tolist())[1:-1].split(", ")
                fh.write("".join([f"{stamp}{j}{c}\r\n" for j, c in zip(ids, values)]))
        sidecar = {str(j): [[k, a] for k, a in alpha.entries] for j, alpha in enumerate(alphas)}
        with open(sidecar_path, "w") as fh:
            fh.write(json.dumps(sidecar, sort_keys=True))


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


class _CollocationGrid:
    """Composite Gauss-Legendre collocation mesh on [0, T], panel edges graded as T (p / panels)^3.

    Every panel is an affine image of the reference panel [-1, 1] with the
    Gauss-Legendre nodes ``ref_nodes``, so one Lagrange table on those nodes
    serves all panels.
    """

    def __init__(self, horizon: float, panels: int, nodes: int):
        self.panels = panels
        self.nodes = nodes
        self.edges = horizon * (np.arange(panels + 1) / panels) ** 3.0
        self.ref_nodes, _ = _leggauss(nodes)
        lo, hi = self.edges[:-1], self.edges[1:]
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        self.panel_nodes = mid[:, None] + half[:, None] * self.ref_nodes[None, :]

    def interp_matrix(self, times: np.ndarray) -> np.ndarray:
        """E[i, m] mapping node values to values at ``times`` panelwise."""
        q = self.nodes
        idx = np.clip(np.searchsorted(self.edges, times, side="right") - 1, 0, self.panels - 1)
        lo, hi = self.edges[idx], self.edges[idx + 1]
        out = np.zeros((len(times), self.panels, q))
        out[np.arange(len(times)), idx] = _lagrange_eval(self.ref_nodes, 2.0 * (times - lo) / (hi - lo) - 1.0).T
        return out.reshape(len(times), -1)


# panels of psi-table points per psi call: an fBm call's (modes, points, 48) temporaries
# stay near 1 MB (8 panels of 32 points: 0.6 MB at 6 modes); one call for all 48 panels
# took a warm fBm (6, 4) solve's traced peak from 3.2 to 5.7 MB
_PSI_BLOCK = 8


@lru_cache(maxsize=8)  # one key per (nodes, sub) in use; the default mesh's tables take 0.15 MB
def _sub_node_tables(nodes: int, sub: int):
    """(frac, xi, lt, l) of ``_integration_matrix``: they depend on the two node counts only, so they are read-only."""
    ref_nodes, _ = _leggauss(nodes)
    xg, _ = _leggauss(sub)
    frac = np.append(0.5 * (ref_nodes + 1.0), 1.0)  # (x_m - a) / (b - a), the whole panel last
    # the sub-nodes in reference coordinates; the whole-panel row is the rule's own nodes, exactly
    xi = np.vstack([frac[:nodes, None] * (xg + 1.0) - 1.0, xg])
    lt = _lagrange_eval(xg, xi.ravel())
    l = _lagrange_eval(ref_nodes, xi.ravel()).reshape(nodes, nodes + 1, sub)
    for table in (frac, xi, lt, l):
        table.flags.writeable = False
    return frac, xi, lt, l


def _integration_matrix(grid: _CollocationGrid, gamma0: float, psi) -> np.ndarray:
    """The Volterra operator v -> int_0^{x_m} v~(s) m~_k(s) ds, every mode, as per-panel blocks.

    v~ is the panelwise Lagrange interpolant of the node values v and
    m~_k(s) = s^gamma0 psi_k(s), where ``psi(s)`` returns psi_k(s) for all
    modes at once, shape (modes, len(s)).  The result has shape
    (modes, panels, nodes, nodes + 1): [k, p, j, m] weights node j of panel p
    in the integral from the panel's left edge up to its node m, and column
    m = nodes in the integral over the whole panel, which every later panel adds.
    The first panel uses a Gauss-Jacobi rule for the s^gamma0 weight; later
    panels use plain Gauss-Legendre.

    All is built in panel coordinates.  The sub-quadrature from a panel's
    left edge up to reference point x_m has its nodes at
    xi = -1 + (x_m + 1)(xg + 1)/2 in every panel, so one Lagrange table on
    the collocation nodes serves all panels.  psi is evaluated only at the
    nodes of each panel's whole-panel rule, and one Lagrange table on those
    nodes interpolates it to the other sub-nodes; s^gamma0 is exact at each.
    """
    q, sub = grid.nodes, _SUB_NODES
    _, wg = _leggauss(sub)
    frac, xi, lt, l = _sub_node_tables(q, sub)
    first = 1 if gamma0 != 0.0 else 0  # the panels from here on take Gauss-Legendre
    a, b = grid.edges[first:-1], grid.edges[first + 1 :]
    half = 0.5 * (b - a)[:, None, None]
    s = a[:, None, None] + half * (xi + 1.0)  # (panels - first, q + 1, sub)
    if first:
        vj, wj = jacobi01(sub, 0.0, gamma0)
    # psi on the table only: the first panel's Gauss-Jacobi nodes b_0 vj if it has them, then the whole-panel nodes
    points = np.concatenate(([grid.edges[1] * vj] if first else []) + [s[:, q].ravel()])
    step = _PSI_BLOCK * sub
    table = np.concatenate([psi(points[i : i + step]) for i in range(0, len(points), step)], axis=1)
    modes = len(table)
    # the mode axis stays a batch axis in every product, so each mode's bits do not depend on the others
    mt = s**gamma0 * (table[:, first * sub :].reshape(modes, len(s), sub) @ lt).reshape((modes,) + s.shape)
    out = np.empty((modes, grid.panels, q, q + 1))
    out[:, first:] = np.einsum("jms,kpms->kpjm", l, half * np.outer(frac, wg) * mt)
    if first:
        # Gauss-Jacobi for the s^gamma0 weight on [0, upper_m], upper_m = b_0 frac_m: nodes upper_m vj
        xi0 = 2.0 * np.outer(frac, vj) - 1.0  # the last row is the table's own nodes 2 vj - 1
        mt0 = (table[:, None, :sub] @ _lagrange_eval(2.0 * vj - 1.0, xi0.ravel())).reshape(modes, q + 1, sub)
        l0 = _lagrange_eval(grid.ref_nodes, xi0.ravel()).reshape(q, q + 1, sub)
        upper = np.append(grid.panel_nodes[0], grid.edges[1])
        out[:, 0] = np.einsum("jms,kms->kjm", l0, np.outer(upper ** (gamma0 + 1.0), wj) * mt0)
    return out


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

