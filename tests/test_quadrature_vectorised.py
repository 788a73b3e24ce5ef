"""The array-based kernel and quadrature layer against its scalar definitions.

The reference functions below are the per-row, per-(t, k), per-alpha and
per-node loops these routines were first written as.  M~ keeps the scalar
arithmetic of each value and the CSV export its bytes, so both must agree
exactly.  Picard sums in another order than its per-alpha loop, and
k1_empirical takes numpy's array power where the loop took the scalar one,
so they agree to rounding: tolerances are a few units of float64 epsilon,
scaled by the number of terms a value sums.  Quadratures and kernel
integrals take arrays of endpoints; each row agrees with the scalar call to
a few ulp, since numpy's array power can differ from the scalar one in the
last bit.
"""

import csv
import io
import math

import numpy as np
import pytest

from chaosfield import kernels, sde
from chaosfield.basis import BasisFamily, QuadratureRule, _dot_rows, jacobi01, quad_singular, quad_singular_smooth
from chaosfield.errors import DomainError
from chaosfield.kernels import (
    brownian_kernel,
    covariance_from_kernel,
    fbm_c_h,
    fbm_kernel,
    fbm_kernel_dt,
    fbm_kernel_spec,
    grid_kernel_from_csv,
    k1_empirical,
    kmk_factor,
    m_tilde,
)
from chaosfield.multiindex import Truncation, enumerate_multiindices, index_map
from chaosfield.sde import (
    PropagatorSolution,
    _CollocationGrid,
    _kernel_at_nodes,
    _lagrange_eval,
    _volterra_matrix,
    solve_closed_form,
    solve_picard,
)
from test_chaos_tables import sub_eps

EPS = float(np.finfo(float).eps)
BASES = [BasisFamily("cosine", 1.0), BasisFamily("legendre", 1.0)]


@pytest.fixture
def grid_kernel(tmp_path_factory):
    """An adapted kernel K(t, s) = 1 + (t - s)^2 on s <= t from a CSV grid; a fresh one, empty memo, per test."""
    nodes = np.linspace(0.0, 1.0, 21)
    path = tmp_path_factory.mktemp("grid") / "kernel.csv"
    with open(path, "w") as fh:
        fh.write("t_s," + ",".join(repr(float(s)) for s in nodes) + "\n")
        for t in nodes:
            vals = [1.0 + float(t - s) ** 2 if s <= t else 0.0 for s in nodes]
            fh.write(repr(float(t)) + "," + ",".join(repr(v) for v in vals) + "\n")
    return grid_kernel_from_csv(path)


# ---------------------------------------------------------------------------
# reference implementations


def ref_volterra(c, panels):
    """The dense (n, n) Volterra operator of ``_volterra_matrix`` c on ``panels`` panels: node j of panel p'
    weighs node m of panel p by c[j, m] when p' = p and by the whole-panel weight c[j, -1] when p' < p."""
    q = len(c)
    w = np.zeros((panels * q, panels * q))
    for p in range(panels):
        w[p * q : (p + 1) * q, p * q : (p + 1) * q] = c[:, :q].T
        w[(p + 1) * q :, p * q : (p + 1) * q] = c[:, q]
    return w


def ref_interp_matrix(grid, times):
    """E[i, (p, j)] = ell_j at time i when it lies in panel p: the dense matrix from node values to ``times``."""
    idx = np.clip(np.searchsorted(grid.edges, times, side="right") - 1, 0, grid.panels - 1)
    lo, hi = grid.edges[idx], grid.edges[idx + 1]
    out = np.zeros((len(times), grid.panels, grid.nodes))
    out[np.arange(len(times)), idx] = _lagrange_eval(grid.ref_nodes, 2.0 * (times - lo) / (hi - lo) - 1.0).T
    return out.reshape(len(times), -1)


def ref_fbm_mtilde(kernel, basis, k, t, jacobi_nodes=48):
    """The fBm M~_k(t) = t^(gamma0+1) int_0^1 v^gamma0 psi_k(t v) dv by the product of psi's and this outer rule.

    One value per mode of a sequence k.  gamma0 = H - 1/2 is exact for H in
    (1/2, 1), so gamma0 + 1 is the same float as H + 1/2.  The library sums
    over the Gauss rule of this product measure; this is its accuracy reference.
    """
    ks = np.atleast_1d(k)
    if t <= 0:
        return 0.0 if np.ndim(k) == 0 else np.zeros(len(ks))
    wnodes, ww = jacobi01(jacobi_nodes, 0.0, kernel.gamma0)
    vals = t ** (kernel.gamma0 + 1.0) * (kernel.psi(basis, ks, t * wnodes) @ ww)
    return vals if np.ndim(k) else float(vals[0])


def ref_fbm_mtilde_sum(kernel, basis, k, t):
    """The fBm M~_k(t) = t^(H+1/2) sum_l c lam_l m_k(t rho_l) as one scalar sum over the kernel's rule.

    The kernel's rule holds the weights c lam_l, c = C_H (H - 1/2).  gamma0 =
    H - 1/2 is exact for H in (1/2, 1), so gamma0 + 1/2 is the same float as H.
    """
    if t <= 0:
        return 0.0
    hurst = kernel.gamma0 + 0.5
    rho, weights = kernel._mtilde_rule
    return float(t ** (hurst + 0.5) * np.dot(weights, basis._rows(k, t * rho)[k - 1]))


def ref_picard_nodes(km, volterra, trunc):
    """u_alpha at the collocation nodes by a loop over multi-indices: the Volterra integral of
    sum_k sqrt(alpha_k) m~_k u_{alpha - eps_k}, with km[k] m~_k at the nodes and ``volterra`` the dense operator."""
    alphas = enumerate_multiindices(trunc)
    imap = index_map(trunc)
    u = np.zeros((len(alphas), volterra.shape[0]))
    u[0] = 1.0
    for j, alpha in enumerate(alphas):
        if alpha.order() == 0:
            continue
        acc = np.zeros(u.shape[1])
        for k, a in alpha.entries:
            acc += math.sqrt(a) * km[k - 1] * u[imap[sub_eps(alpha, k)]]
        u[j] = volterra @ acc
    return u


def _k1_table(kernel):
    """phi(s) = K(T, s) s^(-g0) on k1_empirical's graded table s_i = T (i/1024)^2."""
    big_t, g0 = kernel.horizon, kernel.origin_exponent
    s_fine = big_t * (np.arange(1, 1025) / 1024) ** 2
    return s_fine, kernel.eval(big_t, s_fine) * s_fine ** (-g0)


def ref_k1_empirical(kernel, t_grid=256, refine_tol=1e-6, max_refinements=3):
    """k1_empirical for a singular kernel with dt_smooth: one Gauss-Jacobi sum per t, dt_smooth called node by node."""
    big_t, g0, gam = kernel.horizon, kernel.origin_exponent, kernel.singularity
    s_fine, phi_vals = _k1_table(kernel)
    v, w = jacobi01(72, gam, 2.0 * g0)

    def integral_at(t):
        # K(T, s) K1(t, s) with the weight s^(2 g0) (t - s)^gam divided out, at the nodes s = t v
        s = t * v
        cofactor = np.interp(s, s_fine, phi_vals) * s**-g0 * np.array([kernel.dt_smooth(t, si) for si in s])
        return t ** (1.0 + gam + 2.0 * g0) * np.dot(w, cofactor)

    n = t_grid
    best = max(integral_at(t) for t in np.linspace(big_t / n, big_t, n))
    for _ in range(max_refinements):
        n *= 2
        new = max(integral_at(t) for t in np.linspace(big_t / n, big_t, n))
        if abs(new - best) < refine_tol:
            return max(best, new)
        best = max(best, new)
    return best


def ref_k1_full_grids(kernel, grid, t_grid=256, refine_tol=1e-6, max_refinements=3):
    """k1_empirical as first written: every doubling evaluates its whole t-grid ``grid(n, T)``."""
    big_t, g0, gam = kernel.horizon, kernel.origin_exponent, kernel.singularity
    s_fine, phi_vals = _k1_table(kernel)
    v, w = jacobi01(72, gam, 2.0 * g0)

    def sup_on_grid(n):
        t = grid(n, big_t)
        x = t[:, None]
        s = x * v
        vals = np.interp(s, s_fine, phi_vals) * s**-g0 * kernel.dt_smooth(x, s)
        return float(np.max(t ** (1.0 + gam + 2.0 * g0) * _dot_rows(w, vals)))

    n = t_grid
    best = sup_on_grid(n)
    for _ in range(max_refinements):
        n *= 2
        new = sup_on_grid(n)
        if abs(new - best) < refine_tol:
            return max(best, new)
        best = max(best, new)
    raise DomainError("k1_empirical did not converge")


def linspace_grid(n, big_t):
    return np.linspace(big_t / n, big_t, n)


def arange_grid(n, big_t):
    return big_t * np.arange(1, n + 1) / n


def ref_export_csv(sol):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["t", "alpha_id", "coefficient"])
    for i, t in enumerate(sol.times):
        for j in range(sol.coeffs.shape[1]):
            writer.writerow([repr(float(t)), j, repr(float(sol.coeffs[i, j]))])
    return buf.getvalue().encode()


# ---------------------------------------------------------------------------
# the Volterra operator


def _kernels(grid_kernel):
    return [
        ("brownian", brownian_kernel(1.0)),
        ("fbm-0.55", fbm_kernel_spec(0.55, 1.0)),
        ("fbm-0.95", fbm_kernel_spec(0.95, 1.0)),
        ("grid", grid_kernel),
    ]


@pytest.mark.parametrize("nodes", range(2, 21))
def test_volterra_matrix_integrates_every_polynomial_of_lower_degree(nodes):
    # C[j, m] = int_{-1}^{x_m} ell_j: applied to node values of P it gives P's antiderivative from -1 at each node
    c = _volterra_matrix(nodes)
    x, w = np.polynomial.legendre.leggauss(nodes)
    assert c.shape == (nodes, nodes + 1) and not c.flags.writeable
    assert c[:, nodes].tobytes() == w.tobytes()
    for degree in range(nodes):
        p = np.eye(nodes)[degree]  # the Legendre polynomial P_degree, |P| <= 1 on [-1, 1]
        exact = np.polynomial.legendre.legval(np.append(x, 1.0), np.polynomial.legendre.legint(p, lbnd=-1))
        assert np.max(np.abs(np.polynomial.legendre.legval(x, p) @ c - exact)) <= 1e-14, degree


@pytest.mark.parametrize("name, points", [("brownian", 6 * 20), ("fbm", 18 * 20)], ids=["brownian", "fbm"])
def test_picard_asks_psi_only_at_the_collocation_nodes(name, points, monkeypatch):
    # one call at the nodes of the mesh: 6 panels for Brownian motion, 18 where m~ carries s^gamma0 at the origin
    kernel, asked = brownian_kernel(1.0) if name == "brownian" else fbm_kernel_spec(0.7, 1.0), []
    psi = kernel.psi

    def counting_psi(basis, ks, s):
        asked.append(np.array(s))
        return psi(basis, ks, s)

    monkeypatch.setattr(kernel, "psi", counting_psi)
    solve_picard(kernel, BASES[0], Truncation(3, 2), np.linspace(0.0, 1.0, 9))
    assert len(asked) == 1 and asked[0].size == points
    grid = _CollocationGrid(1.0, sde._UNIFORM, points // sde._NODES - sde._UNIFORM, sde._NODES)
    assert asked[0].tobytes() == grid.points.ravel().tobytes()


@pytest.mark.parametrize("block", [1, 7, 40, 2**16])
def test_interpolation_in_blocks_matches_the_dense_matrix(block, monkeypatch):
    # times in any order, on the panel edges and at the horizon, against one dense product
    monkeypatch.setattr(sde, "_TIME_BLOCK", block)
    grid = _CollocationGrid(1.0, 3, 4, 6)
    times = np.concatenate([np.linspace(0.0, 1.0, 23)[::-1], grid.edges, [0.3, 1e-9]])
    u = np.random.default_rng(4).standard_normal((5, grid.panels, grid.nodes))
    got = grid.interpolate(u, times)
    ref = ref_interp_matrix(grid, times) @ u.reshape(len(u), -1).T
    assert got.shape == (len(times), 5)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# the mode-batched factorisation


@pytest.mark.parametrize("name", ["brownian", "fbm-0.55", "fbm-0.95", "grid"])
@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.kind)
def test_batched_psi_and_mtilde_bit_equal_to_per_mode(basis, name, grid_kernel):
    kernel = dict(_kernels(grid_kernel))[name]
    modes = (1, 2) if name == "grid" else (1, 2, 3, 5, 8)
    s = np.concatenate([np.linspace(0.0, 1.0, 9 if name == "grid" else 41), [1e-9, 0.37]])
    batched = kernel.psi(basis, modes, s)
    assert batched.shape == (len(modes), len(s))
    times = s[s > 0.0]
    for k, row in zip(modes, batched):
        assert row.tobytes() == kernel.psi(basis, (k,), s)[0].tobytes(), k
        assert row.tobytes() == kmk_factor(kernel, basis, k)[1](s).tobytes(), k
        per_t = np.array([kernel.mtilde(basis, k, np.array([t]))[0] for t in times])
        assert kernel.mtilde(basis, k, times).tobytes() == per_t.tobytes(), k
    # m~ at the collocation nodes of all modes, taken together, against each mode taken alone
    cgrid = _CollocationGrid(1.0, 2, 1, 4)
    together = _kernel_at_nodes(cgrid, kernel.gamma0, lambda x: kernel.psi(basis, modes, x))
    for k, got in zip(modes, together):
        (alone,) = _kernel_at_nodes(cgrid, kernel.gamma0, lambda x: kernel.psi(basis, (k,), x))
        assert got.tobytes() == alone.tobytes(), k


# ---------------------------------------------------------------------------
# the M~ table


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.kind)
def test_mtilde_table_bit_equal_to_scalar(basis, grid_kernel):
    times = np.concatenate([np.linspace(0.0, 1.0, 37), [0.0, 1e-9, 0.5]])
    for name, kernel in _kernels(grid_kernel) + [("fbm-0.75", fbm_kernel_spec(0.75, 1.0))]:
        modes = 2 if name == "grid" else 5
        grid = times[::4] if name == "grid" else times
        table = kernel.mtilde(basis, range(1, modes + 1), grid).T
        scalar = np.array([[m_tilde(kernel, basis, k, t) for k in range(1, modes + 1)] for t in grid])
        assert table.shape == (len(grid), modes)
        assert np.array_equal(table, scalar), name
        if name.startswith("fbm"):
            ref = np.array([[ref_fbm_mtilde_sum(kernel, basis, k, t) for k in range(1, modes + 1)] for t in grid])
            assert np.array_equal(table, ref), name


def test_mtilde_table_other_horizon():
    basis, kernel = BasisFamily("cosine", 2.5), fbm_kernel_spec(0.8, 2.5)
    times = np.linspace(0.0, 2.5, 53)
    ref = np.array([[ref_fbm_mtilde_sum(kernel, basis, k, t) for k in range(1, 4)] for t in times])
    assert np.array_equal(kernel.mtilde(basis, range(1, 4), times).T, ref)


FBM_HURSTS = [0.51, 0.6, 0.75, 0.9, 0.99, 0.999]


@pytest.mark.parametrize("hurst", FBM_HURSTS)
def test_mtilde_rule_moments(hurst):
    """The kernel's rule integrates rho^m, m = 0..95, to c times the weight's closed-form moments."""
    from scipy.special import beta

    rho, weights = fbm_kernel_spec(hurst, 1.0)._mtilde_rule  # c lam, c = C_H (H - 1/2)
    assert np.all((rho > 0) & (rho < 1))
    assert np.all(weights > 0)
    m = np.arange(96)
    exact = fbm_c_h(hurst) * (hurst - 0.5) * beta(m + 1.5 - hurst, hurst - 0.5) / (m + hurst + 0.5)
    got = np.array([np.dot(weights, rho**j) for j in m])
    np.testing.assert_allclose(got, exact, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("hurst", FBM_HURSTS)
@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.kind)
def test_mtilde_table_near_the_product_rule(basis, hurst):
    kernel, times, modes = fbm_kernel_spec(hurst, 1.0), np.linspace(0.0, 1.0, 257), range(1, 33)
    table = kernel.mtilde(basis, modes, times).T
    ref = np.array([ref_fbm_mtilde(kernel, basis, modes, t) for t in times])
    assert np.max(np.abs(table - ref)) <= 1e-13 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# Picard


@pytest.mark.parametrize("kernel", [brownian_kernel(1.0), fbm_kernel_spec(0.7, 1.0)], ids=["brownian", "fbm"])
@pytest.mark.parametrize("shape", [(1, 3), (3, 3), (4, 4)])
def test_picard_grades_match_alpha_loop(kernel, shape, monkeypatch):
    basis, trunc = BASES[0], Truncation(*shape)
    times = np.linspace(0.0, 1.0, 17)
    mesh = {"_UNIFORM": 4, "_LAYERS": 4, "_NODES": 6}
    for name, value in mesh.items():
        monkeypatch.setattr(sde, name, value)
    sol = solve_picard(kernel, basis, trunc, times)
    cgrid = _CollocationGrid(1.0, mesh["_UNIFORM"], mesh["_LAYERS"] if kernel.gamma0 else 0, mesh["_NODES"])
    half = 0.5 * np.diff(cgrid.edges)[:, None]
    x = cgrid.edges[:-1, None] + half * (np.polynomial.legendre.leggauss(mesh["_NODES"])[0] + 1.0)
    km = kernel.psi(basis, range(1, trunc.modes + 1), x.ravel()) * (x**kernel.gamma0 * half).ravel()
    volterra = ref_volterra(_volterra_matrix(mesh["_NODES"]), cgrid.panels)
    ref = ref_interp_matrix(cgrid, times) @ ref_picard_nodes(km, volterra, trunc).T
    assert np.max(np.abs(sol.coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(sol.mtilde, solve_closed_form(kernel, basis, trunc, times).mtilde)


# ---------------------------------------------------------------------------
# fBm derivatives and k1_empirical


def test_shipped_derivatives_broadcast_over_s(grid_kernel):
    s = np.linspace(0.05, 0.75, 15)
    fbm = fbm_kernel_spec(0.7, 1.0)
    for kernel, rel in ((grid_kernel, 0.0), (fbm, 8 * EPS)):  # fBm: three powers, each an ulp off at most
        for fn in (kernel.dt_eval, kernel.dt_smooth):
            if fn is None:
                continue
            arr = fn(0.8, s)
            one_by_one = np.array([fn(0.8, float(x)) for x in s])
            assert isinstance(fn(0.8, 0.3), float)
            assert np.all(np.abs(arr - one_by_one) <= rel * np.abs(one_by_one))
    with pytest.raises(DomainError):
        fbm.dt_eval(0.5, np.array([0.1, 0.6]))
    with pytest.raises(DomainError):
        fbm_kernel_dt(0.7, 0.5, np.array([0.0, 0.2]))


@pytest.mark.parametrize("hurst", [0.55, 0.72, 0.95])
def test_k1_empirical_matches_node_loop(hurst, monkeypatch):
    kernel = fbm_kernel_spec(hurst, 1.0)
    # every term of a value is positive and moves by at most an ulp per power it takes (three)
    monkeypatch.setattr(kernels, "_K1_GRID", 64)
    got = k1_empirical(kernel)
    assert got == pytest.approx(ref_k1_empirical(kernel, t_grid=64), rel=8 * EPS, abs=0.0)


@pytest.mark.parametrize("hurst", [0.55, 0.63, 0.75, 0.9, 0.95])
def test_k1_empirical_matches_full_grid_loop(hurst, monkeypatch):
    # each doubling evaluates only its odd points: the sup is the full grid's, bit for bit
    for horizon in (0.7, 1.0, 2.5):
        kernel = fbm_kernel_spec(hurst, horizon)
        assert k1_empirical(kernel) == ref_k1_full_grids(kernel, arange_grid)
    # at T = 1 and 2.5 the grids equal the linspace grids the loop first used
    for horizon in (1.0, 2.5):
        kernel = fbm_kernel_spec(hurst, horizon)
        assert k1_empirical(kernel) == ref_k1_full_grids(kernel, linspace_grid)
    # refinements that go past the first doubling, and ones that cannot converge
    kernel = fbm_kernel_spec(hurst, 1.0)
    for name, value in (("_K1_GRID", 16), ("_K1_TOL", 1e-9), ("_K1_REFINEMENTS", 6)):
        monkeypatch.setattr(kernels, name, value)
    assert k1_empirical(kernel) == ref_k1_full_grids(kernel, arange_grid, t_grid=16, refine_tol=1e-9, max_refinements=6)
    monkeypatch.setattr(kernels, "_K1_TOL", 0.0)
    monkeypatch.setattr(kernels, "_K1_REFINEMENTS", 2)
    with pytest.raises(DomainError):
        k1_empirical(kernel)


# ---------------------------------------------------------------------------
# CSV export


def test_export_csv_bytes_match_csv_writer(tmp_path):
    basis = BASES[1]
    sol = solve_closed_form(fbm_kernel_spec(0.66, 1.0), basis, Truncation(3, 3), np.linspace(0.0, 1.0, 9))
    odd = sol.coeffs.copy()
    odd[1, :6] = [-0.0, 5e-324, 1e16, -1.5e-300, np.finfo(float).max, 1e-5]  # non-finite values are refused
    times = sol.times.copy()
    times[2] = 0.1 + 0.2  # a repr with 17 significant digits
    special = PropagatorSolution(sol.trunc, times, odd, sol.mtilde)
    for case in (sol, special):
        path, sidecar = tmp_path / "sol.csv", tmp_path / "ids.json"
        case.export_csv(path, sidecar)
        assert path.read_bytes() == ref_export_csv(case)


# ---------------------------------------------------------------------------
# one array convention: every quadrature and kernel integral broadcasts


def _within_ulps(batched, scalar, ulps=4):
    scalar = np.asarray(scalar, dtype=float)
    return batched.shape == scalar.shape and np.all(np.abs(batched - scalar) <= ulps * EPS * np.abs(scalar))


QUADRATURES = {  # the singular quadratures take no rule: 96 Gauss-Jacobi nodes
    "integrate": lambda f, a, b, rule: rule.integrate(f, a, b),
    "quad_singular": lambda f, a, b, rule: quad_singular(f, a, b, -0.4),
    "quad_singular_smooth-lower": lambda f, a, b, rule: quad_singular_smooth(f, a, b, -0.7),
}


@pytest.mark.parametrize("name", sorted(QUADRATURES))
def test_array_quadrature_agrees_with_scalar_calls_row_by_row(name):
    quad, rule = QUADRATURES[name], QuadratureRule(panels=6, nodes=12)
    calls = []

    def f(t):
        calls.append(np.shape(t))
        return 1.0 + np.asarray(t) ** 2

    a = np.array([[0.0], [0.3], [1.1], [2.0]])
    b = np.array([0.0, 0.5, 1.1, 2.4, 3.0])  # b <= a on some rows: empty intervals
    batched = quad(f, a, b, rule)
    assert batched.shape == (4, 5) and len(calls) == 1
    scalar = [[quad(f, float(x), float(y), rule) for y in b] for x in a[:, 0]]
    assert all(isinstance(v, float) for row in scalar for v in row)
    assert _within_ulps(batched, scalar)
    empty = b[None, :] <= a
    assert np.all(batched[empty] == 0.0) and np.all(batched[~empty] > 0.0)
    # every interval empty: exactly 0, and the integrand is not called
    calls.clear()
    assert quad(f, 1.0, 0.5, rule) == 0.0 and np.array_equal(quad(f, b, 0.0, rule), np.zeros(5))
    assert not calls


def test_nodes_weights_rows_equal_the_scalar_tables():
    rule = QuadratureRule(panels=5, nodes=7)
    a, b = np.array([0.0, 0.2, 0.7]), np.array([1.0, 0.2, 3.5])
    xs, ws = rule.nodes_weights(a, b)
    assert xs.shape == ws.shape == (3, 35)
    for i in range(3):
        x1, w1 = rule.nodes_weights(float(a[i]), float(b[i]))
        assert xs[i].tobytes() == x1.tobytes() and ws[i].tobytes() == w1.tobytes()


def test_fbm_kernel_on_arrays_agrees_with_scalar_calls():
    hurst = 0.7
    t = np.array([0.2, 0.55, 1.0])[:, None]
    s = t * np.array([0.01, 0.3, 0.9, 1.0])  # s = t on the diagonal, where K = 0
    batched = fbm_kernel(hurst, t, s)
    scalar = [[fbm_kernel(hurst, float(x), float(y)) for y in row] for x, row in zip(t[:, 0], s)]
    assert _within_ulps(batched, scalar)
    assert np.all(batched[:, -1] == 0.0)


@pytest.mark.parametrize("kernel", [brownian_kernel(1.0), fbm_kernel_spec(0.7, 1.0)], ids=["brownian", "fbm"])
def test_covariance_on_arrays_agrees_with_scalar_calls(kernel):
    # each row is its own quadrature or the kernel's _variance, so its bits do not depend on the batch around it
    t = np.array([-0.3, 0.0, 0.25, 0.6, 1.0])
    batched = covariance_from_kernel(kernel, t[:, None], t[None, :])
    scalar = [[covariance_from_kernel(kernel, float(x), float(y)) for y in t] for x in t]
    assert np.array_equal(batched, scalar)
    assert np.all(batched[:2] == 0.0) and np.all(batched[:, :2] == 0.0)  # min(t, s) <= 0 reads 0
    with pytest.raises(DomainError, match="finite"):
        covariance_from_kernel(kernel, t[:, None], np.r_[t, np.nan][None, :])
