"""Self-test of the benchmark itself; run from the root of a checkout:

    python3 bench/selftest.py

Checks that
- one seed yields identical generated inputs twice, and another seed others;
- a deliberately corrupted output fails its gate, for every op kind, and a
  corrupted library function is counted into ``failed`` by the runner;
- a smoke run of each workload (smallest op count), untraced and traced,
  prints a last line with the schema BENCHMARK.json declares.
"""

import copy
import dataclasses
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run  # first: it pins BLAS threads before numpy loads
import workloads

import numpy as np

CHECKS = []


def check(name, ok, detail=""):
    CHECKS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}", flush=True)


def _inputs_of(workload, seed):
    warmup, ops = workload.plan(seed, 1)
    return [(op.kind, op.params, op.key, workload.inputs(op)) for op in warmup + ops]


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_seeded_inputs():
    for name, workload in workloads.WORKLOADS.items():
        first, again, other = _inputs_of(workload, 7), _inputs_of(workload, 7), _inputs_of(workload, 8)
        check(f"{name}: seed 7 gives identical inputs twice", _same(first, again))
        check(f"{name}: seed 8 gives other inputs", not _same(first, other))


def _corruptions(lib, workload, op, out):
    """Wrong outputs of the same shape as ``out``, by name."""
    cf = lib.cf
    if workload.name == "chaos_algebra":
        if op.kind == "integral":
            ito, strat, trace = out
            return {"strat scaled": (ito, strat.scale(1.0 + 1e-9), trace)}
        if op.kind == "wick":
            return {"scaled": out.scale(1.0 + 1e-9)}
        if op.kind == "malliavin":
            coeffs = out.coeffs.copy()
            coeffs[1, 0] += 1e-6
            return {"one entry": cf.HValuedChaos(out.trunc, coeffs)}
        return {"scaled": out * (1.0 + 1e-8)}
    if workload.name == "wick_sde":
        code, text = out
        payload = json.loads(text)
        if op.kind == "sde":
            payload["closed_vs_picard_max_discrepancy"] = 1e-6
        else:
            payload["pass"] = False
        return {"payload": (code, json.dumps(payload))}
    if op.kind == "lognormal":
        sol, z, values = out
        coeffs, mtilde = sol.coeffs.copy(), sol.mtilde.copy()
        coeffs[0, -1] *= 1.0 + 1e-6
        mtilde[0, 0] += 1e-6
        z_bad = z.copy()
        z_bad[len(z) // 2, 0] += 1e-12
        return {
            "values": (sol, z, values + 0.1),
            "top coefficient": (dataclasses.replace(sol, coeffs=coeffs), z, values),
            "mtilde": (dataclasses.replace(sol, mtilde=mtilde), z, values),
            "sample row": (sol, z_bad, values),
        }
    z, paths, oracle, chaos, report = out
    alpha = cf.MultiIndex.eps(1).add(cf.MultiIndex.eps(2))
    wrong = chaos + cf.ChaosExpansion(chaos.trunc, {alpha: 1e-6})
    paths_bad = paths.copy()
    paths_bad[:, len(paths[0]) // 2] += 1e-6
    return {
        "order-2 coefficient": (z, paths, oracle, wrong, report),
        "oracle": (z, paths, oracle + 1e-6, chaos, report),
        "path midpoint": (z, paths_bad, oracle, chaos, report),
        "statistic": (z, paths, oracle, chaos, dict(report, statistic=1e-3)),
    }


def test_corrupted_outputs(scratch):
    for name, workload in workloads.WORKLOADS.items():
        lib = run.load_library()
        ctx = workload.setup(lib, scratch)
        warmup, _ = workload.plan(3, 1)
        done = set()
        for op in warmup:
            if op.kind in done:
                continue
            done.add(op.kind)
            x = workload.inputs(op)
            out = workload.run(lib, ctx, op, x)
            good = workload.gate(lib, ctx, op, x, out)
            check(f"{name}/{op.kind}: true output is correct", good[1], str(good))
            for label, wrong in _corruptions(lib, workload, op, copy.deepcopy(out)).items():
                bad = workload.gate(lib, ctx, op, x, wrong)
                check(f"{name}/{op.kind}: corrupted {label} fails its gate", bad == (False, False), str(bad))


def test_runner_counts_failures(scratch):
    """Corrupt ``wick_product`` inside the library after warm-up and run a whole pass."""
    workload, seed = workloads.WORKLOADS["chaos_algebra"], 5
    clean_calls = sum(op.kind == "wick" for op in workload.plan(seed, 1)[0])
    load = run.load_library

    def corrupted_library():
        lib = load()
        product, calls = lib.cf.wick_product, itertools.count()
        lib.cf.wick_product = lambda f, g: product(f, g).scale(1.0 if next(calls) < clean_calls else 1.0 + 1e-9)
        return lib

    run.load_library = corrupted_library
    try:
        result = run.run_pass(workload, seed, 1, scratch)
    finally:
        run.load_library = load
    wick = sum(kind == "wick" for kind in result["kinds"])
    check("runner counts a corrupted wick_product as failed", wick > 0 and result["failed"] == wick
          and result["incorrect"] == wick, f"{result['failed']} failed, {wick} wick ops")


def test_smoke_runs():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for name in workloads.WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = [sys.executable, os.path.join(run.ROOT, *bench["command"][1:]), "--workload", name,
                   "--seed", "11", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=run.ROOT)
            label = f"{name} --trace {trace}: smoke run"
            if proc.returncode != 0:
                check(label, False, proc.stderr[-1000:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {m["name"]: m["unit"] for m in declared}
            metrics = result.get("metrics", {})
            ok = (
                set(result) == {"correct", "attempted", "failed", "metrics"}
                and result["correct"] is True
                and isinstance(result["attempted"], int) and result["attempted"] >= 1
                and isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
                and set(metrics) == set(units)
                and all(set(m) == {"value", "unit"} and m["unit"] == units[k]
                        and math.isfinite(m["value"]) for k, m in metrics.items())
            )
            check(label + " prints the declared schema", ok, proc.stdout.strip().splitlines()[-1][:500])


if __name__ == "__main__":
    test_seeded_inputs()
    scratch = tempfile.mkdtemp(prefix=".scratch-", dir=run.BENCH_DIR)
    try:
        test_corrupted_outputs(scratch)
        test_runner_counts_failures(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    test_smoke_runs()
    print(f"{sum(CHECKS)}/{len(CHECKS)} checks passed")
    sys.exit(0 if all(CHECKS) else 1)
