"""The three seeded workloads: op plans, op execution and correctness gates.

A plan is a list of ops made from the workload seed alone.  Each op carries
its own sub-seed; its input arrays are drawn from that sub-seed just before
the op runs, outside the timed region, so the benchmark never holds every
run's inputs at once and peak memory stays the library's.

Op sizes are spread evenly over a run ("units" of a fixed op mix, shuffled
by the seed), so two seeds run the same mix of sizes on different data.
The op count is fixed by ``--seconds`` and a nominal rate per workload, not
by a clock: time-boxed runs of one seed would run different op mixes.

Each gate returns ``(passed, correct)``.  ``correct`` says that the op's
values agree with references the benchmark computes itself.  ``passed`` is
``correct`` and the op's stated gate, and counts into the failure fraction.
They differ only on ``mc_oracle``: the ``strat_*`` gate is ``mc_compare``'s
own verdict, which fails on roundoff-level agreement, and the ``lognormal``
3-sigma gate misses by chance on 0.3% of ops, so ``correct`` asks for 5 sigma.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import special


@dataclass
class Op:
    kind: str
    params: dict
    seed: int = 0  # sub-seed of the op's input arrays
    # (kernel, hurst, basis, grid) of the op's kernel work; None when it has none
    key: tuple = None


def _sub_seed(rng) -> int:
    return int(rng.integers(0, 2**62))


def _draw_units(rng, unit_ops, n_units):
    """``n_units`` copies of the op mix ``unit_ops``, each shuffled by ``rng``."""
    ops = []
    for _ in range(n_units):
        block = list(unit_ops)
        rng.shuffle(block)
        ops.extend(block)
    return ops


def _rel_err(values, reference) -> float:
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scale = float(np.max(np.abs(reference)))
    return float(np.max(np.abs(values - reference))) / scale if scale > 0 else math.inf


def _wick_exp_coeff(c, alpha) -> float:
    """Reference coefficient c^alpha / sqrt(alpha!) of the Wick exponential."""
    v = 1.0
    for k, a in alpha.entries:
        v *= c[k - 1] ** a / math.sqrt(math.factorial(a))
    return v


def _hermite(n_max: int, x) -> np.ndarray:
    """Probabilists' Hermite polynomials He_0..He_n_max at x; shape (n_max + 1,) + x.shape."""
    out = np.ones((n_max + 1,) + np.shape(x))
    if n_max >= 1:
        out[1] = x
    for n in range(1, n_max):
        out[n + 1] = x * out[n] - n * out[n - 1]
    return out


def _truncated_wick_exp(c, z, order) -> np.ndarray:
    """sum_{|alpha| <= order} c^alpha H_alpha(z) / alpha! at each row of z.

    The order-n part is |c|^n He_n(z.c / |c|) / n!, so no index set is needed.
    """
    norm = float(np.linalg.norm(c))
    table = _hermite(order, z @ c / norm)
    return sum(norm**n * table[n] / math.factorial(n) for n in range(order + 1))


def _chaos_values(chaos, z) -> np.ndarray:
    """sum_alpha f_alpha prod_k He_{alpha_k}(z_k) / sqrt(alpha_k!) at each row of z."""
    order = max((a.order() for a in chaos.coeffs), default=0)
    table = _hermite(order, z.T) / np.sqrt([math.factorial(n) for n in range(order + 1)])[:, None, None]
    out = np.zeros(len(z))
    for alpha, coef in chaos.coeffs.items():
        term = np.full(len(z), coef)
        for k, a in alpha.entries:
            term = term * table[a, k - 1]
        out += term
    return out


def _philox_rows_match(z, seed, n, modes) -> bool:
    """``z`` has shape (n, modes) and rows 0, n/2 and n-1 are those of the Philox streams (seed, i)."""
    if z.shape != (n, modes):
        return False
    for i in (0, n // 2, n - 1):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        if not np.array_equal(z[i], rng.standard_normal(modes)):
            return False
    return True


def _tanh_sinh(step=1.0 / 32, t_max=6.0):
    """Nodes x, 1 - x and weights of the tanh-sinh rule on (0, 1).

    Its weights decay double-exponentially at both ends, so it integrates
    algebraic endpoint singularities to full precision; 1 - x is computed
    directly, so a power of it stays accurate next to x = 1.
    """
    t = np.arange(-t_max, t_max + 0.5 * step, step)
    u = 0.5 * math.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-2.0 * u))
    xc = 1.0 / (1.0 + np.exp(2.0 * u))
    w = step * math.pi * np.cosh(t) * x * xc
    keep = (x > 0.0) & (xc > 0.0)
    return x[keep], xc[keep], w[keep]


@functools.lru_cache(maxsize=None)
def mtilde_reference(kernel: str, hurst, horizon: float, modes: int, t: float) -> np.ndarray:
    """M~_k(t) = int_0^t K(t, s) m_k(s) ds for the cosine basis, k = 1..modes.

    Brownian: the closed-form antiderivative of m_k.  fBm: with
    K(t, s) = c_H s^(1/2-H) int_s^t (u-s)^(H-3/2) u^(H-1/2) du and the order
    of integration swapped, M~_k(t) = c_H t^(H+1/2) int_0^1 y^(H-1/2) g_k(ty) dy
    with g_k(u) = int_0^1 (1-v)^(H-3/2) v^(1/2-H) m_k(uv) dv, both integrals
    by the tanh-sinh rule.
    """
    omega = [(k - 1) * math.pi / horizon for k in range(1, modes + 1)]
    if kernel == "brownian":
        return np.array([t / math.sqrt(horizon)] + [
            math.sqrt(2.0 / horizon) * math.sin(w * t) / w for w in omega[1:]
        ])
    c_h = math.sqrt(hurst * (2 * hurst - 1) / special.beta(2 - 2 * hurst, hurst - 0.5))
    x, xc, w = _tanh_sinh()
    inner = w * xc ** (hurst - 1.5) * x ** (0.5 - hurst)
    outer = w * x ** (hurst - 0.5)
    s = t * np.outer(x, x)  # s = t y v
    out = [c_h * t ** (hurst + 0.5) * (outer.sum() * inner.sum()) / math.sqrt(horizon)]
    for w_k in omega[1:]:
        out.append(c_h * t ** (hurst + 0.5) * outer @ (math.sqrt(2.0 / horizon) * np.cos(w_k * s)) @ inner)
    return np.array(out)


class Workload:
    name: str
    unit: int  # ops in one balanced unit of the op mix
    rate: float  # nominal ops/s on the reference machine; sets the op count

    def plan(self, seed: int, seconds: int):
        """Warm-up ops and timed ops for ``seed``; identical for identical arguments."""
        rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        warmup = self.warmup_ops(rng)
        n_units = math.ceil(seconds * self.rate / self.unit)
        return warmup, self.timed_ops(rng, n_units)

    def inputs(self, op: Op) -> dict:
        return {}

    def setup(self, lib, scratch: str):
        """Library objects shared by every op of a pass."""
        return None


# ---------------------------------------------------------------------------
# chaos_algebra: dense coefficient algebra, no kernels, quadrature or sampling


class ChaosAlgebra(Workload):
    """Eval and Malliavin ops take under 15 ms, and the (8,4) integral about
    60 ms; every other shape takes 200-340 ms.  With the three integral sizes
    at 1:1:1 the median would sit at the edge of the 60 ms cluster, next to a
    3x jump; (8,4) at twice the weight of the others centres it there."""

    name = "chaos_algebra"
    unit = 30
    rate = 7.5
    MIX = {  # (kind, (modes, order)) -> ops per unit of 30
        ("integral", (8, 4)): 6,
        ("integral", (12, 4)): 3,
        ("integral", (16, 3)): 3,
        ("wick", (6, 4)): 3,
        ("wick", (8, 3)): 3,
        ("malliavin", (8, 4)): 3,
        ("malliavin", (16, 3)): 3,
        ("eval", (8, 3)): 3,
        ("eval", (8, 4)): 3,
    }
    EVAL_SAMPLES = 2000

    def warmup_ops(self, rng):
        return [Op(kind, {"size": size}, _sub_seed(rng)) for kind, size in self.MIX]

    def timed_ops(self, rng, n_units):
        mix = [shape for shape, count in self.MIX.items() for _ in range(count)]
        return [
            Op(kind, {"size": size}, _sub_seed(rng)) for kind, size in _draw_units(rng, mix, n_units)
        ]

    def inputs(self, op):
        modes, order = op.params["size"]
        rng = np.random.default_rng(op.seed)
        if op.kind == "integral":
            rows = math.comb(order + modes, modes)
            return {"eta": rng.uniform(-0.5, 0.5, (rows, modes))}
        out = {"c": rng.uniform(-0.5, 0.5, modes)}
        if op.kind == "wick":
            out["d"] = rng.uniform(-0.5, 0.5, modes)
        elif op.kind == "eval":
            out["z"] = rng.standard_normal((self.EVAL_SAMPLES, modes))
        return out

    def run(self, lib, ctx, op, x):
        cf = lib.cf
        trunc = cf.Truncation(*op.params["size"])
        if op.kind == "integral":
            eta = cf.HValuedChaos(trunc, x["eta"])
            return cf.ito_integral(eta), cf.strat_integral(eta), cf.malliavin_trace(eta)
        u = cf.wick_exp_first_chaos(x["c"], trunc)
        if op.kind == "wick":
            return cf.wick_product(u, cf.wick_exp_first_chaos(x["d"], trunc))
        if op.kind == "malliavin":
            return cf.malliavin_derivative(u)
        return cf.chaos_eval(u, x["z"])

    def gate(self, lib, ctx, op, x, out):
        cf = lib.cf
        modes, order = op.params["size"]
        trunc = cf.Truncation(modes, order)
        if op.kind == "integral":
            ito, strat, trace = out
            eta = x["eta"]
            alphas = cf.enumerate_multiindices(trunc)
            err = max(abs(strat.get(a) - ito.get(a) - trace.get(a)) for a in alphas)
            ok = err <= 1e-12 * float(np.max(np.abs(eta)))
            # first-order terms pin the outputs to the input, so zeros cannot pass
            imap = cf.index_map(trunc)
            zero = cf.MultiIndex.zero()
            eps = [cf.MultiIndex.eps(k) for k in range(1, modes + 1)]
            ok = ok and all(ito.get(e) == eta[imap[zero], k] for k, e in enumerate(eps))
            mean = sum(eta[imap[e], k] for k, e in enumerate(eps))
            ok = ok and abs(trace.get(zero) - mean) <= 1e-12 * modes
            return ok, ok
        c = x["c"]
        if op.kind == "wick":
            total = c + x["d"]
            alphas = cf.enumerate_multiindices(trunc)
            got = [out.get(a) for a in alphas]
            ref = [_wick_exp_coeff(total, a) for a in alphas]
            ok = len(out.coeffs) == len(alphas) and _rel_err(got, ref) <= 1e-12
            return ok, ok
        if op.kind == "malliavin":
            alphas = cf.enumerate_multiindices(trunc)
            low = [i for i, a in enumerate(alphas) if a.order() <= order - 1]
            ref = np.array([[c[k] * _wick_exp_coeff(c, alphas[i]) for k in range(modes)] for i in low])
            top = [i for i, a in enumerate(alphas) if a.order() == order]
            ok = _rel_err(out.coeffs[low], ref) <= 1e-12 and not np.any(out.coeffs[top])
            return ok, ok
        ref = cf.sample_wick_exponential(c, x["z"], order)
        ok = out.shape == (self.EVAL_SAMPLES,) and _rel_err(out, ref) <= 1e-10
        return ok, ok


# ---------------------------------------------------------------------------
# wick_sde: the user-facing SDE pipeline through the CLI, in-process


class WickSde(Workload):
    name = "wick_sde"
    unit = 20
    rate = 4.5
    # (modes, order, grid): every combination once per unit of 12 sde + 8 fbm ops
    SDE_SHAPES = [(m, o, g) for m in (2, 4, 6) for o in (3, 4) for g in (64, 128)]
    FBM_GRIDS = (128, 256)

    @staticmethod
    def _sde(rng, shape, kernel, basis):
        modes, order, grid = shape
        hurst = float(rng.uniform(0.55, 0.95))
        argv = ["sde", "--kernel", kernel, "--hurst", repr(hurst), "--basis", basis,
                "--modes", str(modes), "--order", str(order), "--grid", str(grid)]
        key = (kernel, hurst if kernel == "fbm" else None, basis, grid)
        return Op("sde", {"argv": argv}, key=key)

    @staticmethod
    def _fbm(rng, grid):
        hurst = float(rng.uniform(0.55, 0.95))
        argv = ["fbm", "--hurst", repr(hurst), "--grid", str(grid)]
        return Op("fbm", {"argv": argv}, key=("fbm", hurst, None, grid))

    def warmup_ops(self, rng):
        return [self._sde(rng, (4, 4, 64), "fbm", "cosine"), self._fbm(rng, 128)]

    def timed_ops(self, rng, n_units):
        # per shape, kernels cycle fbm:brownian 4:1 and bases alternate, from seeded offsets
        kernel_cycles = [rng.permutation(["brownian", "fbm", "fbm", "fbm", "fbm"]) for _ in self.SDE_SHAPES]
        basis_start = rng.integers(0, 2, len(self.SDE_SHAPES))
        ops = []
        for u in range(n_units):
            block = [
                self._sde(rng, shape, str(kernel_cycles[i][u % 5]), ("cosine", "legendre")[(basis_start[i] + u) % 2])
                for i, shape in enumerate(self.SDE_SHAPES)
            ]
            block += [self._fbm(rng, self.FBM_GRIDS[i % 2]) for i in range(8)]
            rng.shuffle(block)
            ops.extend(block)
        return ops

    def setup(self, lib, scratch):
        return scratch

    def run(self, lib, scratch, op, x):
        argv = list(op.params["argv"])
        if op.kind == "sde":
            argv += ["--out", scratch]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = lib.cli.main(argv)
        return code, stdout.getvalue()

    def gate(self, lib, scratch, op, x, out):
        code, text = out
        if code != 0:
            return False, False
        payload = json.loads(text)
        if op.kind == "sde":
            ok = payload["closed_vs_picard_max_discrepancy"] <= 1e-8
        else:
            ok = payload["pass"] is True
        return ok, ok


# ---------------------------------------------------------------------------
# mc_oracle: Monte Carlo sampling and estimators on two fixed kernels


class McOracle(Workload):
    """Op latencies form two tight clusters: ~90 ms (strat_bm, lognormal at
    order 6) and ~220 ms (strat_fbm, lognormal at order 8).  With orders 6
    and 8 at 1:1 the median would fall exactly between them, where it jumps
    with noise; orders 6 and 8 at 3:1 put it inside the lower cluster."""

    name = "mc_oracle"
    unit = 24
    rate = 5.5
    HORIZON = 1.0
    GRID_POINTS = 257
    STRAT_SAMPLES, STRAT_MODES = 2000, 16
    LOGNORMAL_SAMPLES, LOGNORMAL_MODES = 4000, 8
    LOGNORMAL_SHAPES = [(kernel, order) for kernel in ("brownian", "fbm") for order in (6, 8)]

    def __init__(self):
        self._exponent_rows = {}  # (modes, order) -> exponents of the index set and 1/sqrt(alpha!)

    def _key(self, kind, kernel):
        grid = self.GRID_POINTS if kind.startswith("strat") else 1
        return (kernel, 0.75 if kernel == "fbm" else None, "cosine", grid)

    def _op(self, rng, kind, kernel="brownian", order=2):
        if kind == "strat_fbm":
            kernel = "fbm"
        params = {"philox": _sub_seed(rng), "kernel": kernel, "order": order}
        return Op(kind, params, key=self._key(kind, kernel))

    def warmup_ops(self, rng):
        return [self._op(rng, "strat_bm"), self._op(rng, "strat_fbm")] + [
            self._op(rng, "lognormal", kernel, order) for kernel, order in self.LOGNORMAL_SHAPES
        ]

    def timed_ops(self, rng, n_units):
        mix = [("strat_bm", "brownian", 2)] * 8 + [("strat_fbm", "fbm", 2)] * 8
        mix += [("lognormal", kernel, order) for kernel, order in self.LOGNORMAL_SHAPES for _ in range(3 if order == 6 else 1)]
        return [self._op(rng, *spec) for spec in _draw_units(rng, mix, n_units)]

    def setup(self, lib, scratch):
        cf = lib.cf
        return {
            "basis": cf.BasisFamily("cosine", self.HORIZON),
            "brownian": cf.brownian_kernel(self.HORIZON),
            "fbm": cf.fbm_kernel_spec(0.75, self.HORIZON),
            "grid": np.linspace(0.0, self.HORIZON, self.GRID_POINTS),
        }

    def run(self, lib, ctx, op, x):
        cf = lib.cf
        seed, kernel, basis = op.params["philox"], ctx[op.params["kernel"]], ctx["basis"]
        if op.kind == "lognormal":
            trunc = cf.Truncation(self.LOGNORMAL_MODES, op.params["order"])
            sol = cf.solve_closed_form(kernel, basis, trunc, [self.HORIZON])
            batch = cf.sample_batch(seed, self.LOGNORMAL_SAMPLES, self.LOGNORMAL_MODES)
            return sol, batch.z, sol.sample(self.HORIZON, batch.z)
        trunc = cf.Truncation(self.STRAT_MODES, 2)
        batch = cf.sample_batch(seed, self.STRAT_SAMPLES, self.STRAT_MODES)
        paths = cf.synthesize_paths(kernel, basis, trunc, batch, ctx["grid"])
        oracle = lib.mc.discrete_strat_batch(paths, paths)
        if op.kind == "strat_bm":
            chaos = cf.strat_integral(cf.brownian_path_integrand(trunc, basis))
        else:
            # X_T^2 / 2 = |c|^2 / 2 + (X <> X) / 2 with c_k = M~_k(T)
            c = [cf.m_tilde(kernel, basis, k, self.HORIZON) for k in range(1, trunc.modes + 1)]
            x_t = cf.ChaosExpansion(trunc, {cf.MultiIndex.eps(k + 1): v for k, v in enumerate(c)})
            half_sq = cf.ChaosExpansion.constant(trunc, 0.5 * sum(v * v for v in c))
            chaos = cf.wick_product(x_t, x_t).scale(0.5) + half_sq
        return batch.z, paths, oracle, chaos, cf.mc_compare(chaos, oracle, batch)

    def _mtilde_ref(self, kernel, modes, t):
        return mtilde_reference(kernel, 0.75 if kernel == "fbm" else None, self.HORIZON, modes, t)

    def _wick_exp_coeffs(self, lib, mt, order) -> np.ndarray:
        """c^alpha / sqrt(alpha!) over the library's index set, in its order.

        The exponents are read from ``enumerate_multiindices`` once per shape,
        after checking that they form the whole index set.
        """
        modes = len(mt)
        if (modes, order) not in self._exponent_rows:
            alphas = lib.cf.enumerate_multiindices(lib.cf.Truncation(modes, order))
            rows = np.zeros((len(alphas), modes), dtype=np.int8)
            for j, alpha in enumerate(alphas):
                for k, a in alpha.entries:
                    rows[j, k - 1] = a
            in_set = np.all(rows >= 0) and np.all(rows.sum(axis=1, dtype=int) <= order)
            codes = rows @ (order + 1) ** np.arange(modes)  # distinct rows have distinct codes
            if not (in_set and len(np.unique(codes)) == len(rows) == math.comb(modes + order, modes)):
                raise ValueError(f"enumerate_multiindices({modes}, {order}) is not the whole index set")
            inv_sqrt_fact = np.array([1.0 / math.sqrt(math.factorial(n)) for n in range(order + 1)])
            norm = np.ones(len(rows))
            for k in range(modes):
                norm *= inv_sqrt_fact[rows[:, k]]
            self._exponent_rows[modes, order] = rows, norm
        rows, norm = self._exponent_rows[modes, order]
        coeffs = norm.copy()
        for k in range(modes):
            coeffs *= mt[k] ** rows[:, k]
        return coeffs

    def gate(self, lib, ctx, op, x, out):
        seed = op.params["philox"]
        if op.kind == "lognormal":
            sol, z, values = out
            modes, order = self.LOGNORMAL_MODES, op.params["order"]
            mt = sol.mtilde[0]
            coeffs = self._wick_exp_coeffs(lib, mt, order)
            exact = (
                _philox_rows_match(z, seed, self.LOGNORMAL_SAMPLES, modes)
                and sol.mtilde.shape == (1, modes) and sol.coeffs.shape == (1, len(coeffs))
                and _rel_err(mt, self._mtilde_ref(op.params["kernel"], modes, self.HORIZON)) <= 1e-9
                and bool(np.all(np.abs(sol.coeffs[0] - coeffs) <= 1e-12 * np.abs(coeffs)))
                and values.shape == (len(z),)
                and _rel_err(values, _truncated_wick_exp(mt, z, order)) <= 1e-10
            )
            # the truncated series against the untruncated exp(X - |c|^2 / 2)
            diffs = values - np.exp(z @ mt - 0.5 * float(np.sum(mt**2)))
            stderr = float(np.std(diffs, ddof=1)) / math.sqrt(len(diffs))
            mean = abs(float(np.mean(diffs)))
            correct = bool(exact) and mean <= 5.0 * stderr
            return correct and mean <= 3.0 * stderr, correct
        z, paths, oracle, chaos, report = out
        modes = self.STRAT_MODES
        kernel = "fbm" if op.kind == "strat_fbm" else "brownian"
        c = self._mtilde_ref(kernel, modes, self.HORIZON)
        x_t = z @ c
        # both sides are X_T^2 / 2: the midpoint sum telescopes, and so does the chaos
        expected = {lib.cf.MultiIndex.zero(): 0.5 * float(c @ c)}
        for j in range(modes):
            ej = lib.cf.MultiIndex.eps(j + 1)
            expected[ej.add(ej)] = c[j] ** 2 / math.sqrt(2.0)
            for k in range(j + 1, modes):
                expected[ej.add(lib.cf.MultiIndex.eps(k + 1))] = c[j] * c[k]
        keys = set(expected) | set(chaos.coeffs)
        coeff_err = max(abs(chaos.get(a) - expected.get(a, 0.0)) for a in keys)
        scale = float(np.max(np.abs(oracle)))
        values = _chaos_values(chaos, z)
        # paths at every 32nd grid point (Brownian) or at 0, T/2 and T (fBm, whose reference is costly)
        grid = ctx["grid"]
        cols = range(0, len(grid), 32) if kernel == "brownian" else (0, len(grid) // 2, len(grid) - 1)
        path_err = max(
            float(np.max(np.abs(paths[:, i] - z @ self._mtilde_ref(kernel, modes, float(grid[i]))))) for i in cols
        )
        correct = (
            _philox_rows_match(z, seed, self.STRAT_SAMPLES, modes)
            and paths.shape == (len(z), len(grid))
            and path_err <= 1e-9 * float(np.max(np.abs(x_t)))
            and oracle.shape == (len(z),)
            and float(np.max(np.abs(oracle - 0.5 * x_t**2))) <= 1e-9 * scale
            and coeff_err <= 1e-10 * float(c @ c)
            and float(np.max(np.abs(values - oracle))) <= 1e-9 * scale
            and report["n"] == len(z)
            and abs(report["statistic"] - float(np.mean(values - oracle))) <= 1e-9 * scale
        )
        # the stated gate is the library's own verdict
        return bool(correct) and bool(report["pass"]), bool(correct)


WORKLOADS = {w.name: w for w in (ChaosAlgebra(), WickSde(), McOracle())}


def key_repeat_share(warmup, ops) -> float:
    """Share of timed ops whose kernel-work key repeats an earlier op's (warm-up included)."""
    seen = {op.key for op in warmup if op.key is not None}
    repeats = 0
    for op in ops:
        if op.key is not None:
            repeats += op.key in seen
            seen.add(op.key)
    return repeats / len(ops)
