"""chaosfield benchmark: three seeded closed-loop workloads against the public API.

Run from the root of a checkout:

    python3 bench/run.py --workload chaos_algebra --seed 1 --seconds 20 --trace 0

One client, one process, ops issued back to back (closed loop); BLAS is
pinned to one thread.  Every op's output is checked by its gate.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``).  The line before it records the environment, the
failure fraction, the key-repeat share and per-kind latencies.

A traced run makes two passes over the same ops, each on a freshly imported
library: one untraced, one with spans, and reports their throughput ratio as
the tracing overhead.  See README.md for the workloads and metrics.
"""

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5  # set-ups per untraced run, each on a fresh import; setup_s is their median
# Speed normalisation: a shared VM's speed can swing by 50% within a minute,
# so op time is scaled by a library-independent slice timed around it.
REF_SLICE_S = 0.020  # speed_slice() on the reference machine when quiet
GROUP_S = 0.1  # op time between two speed slices
MODULES = spans.LAYERS + ("verify",)


def load_library():
    """Import chaosfield from this checkout's ``src``, dropping any earlier import.

    A fresh import gives fresh module-level caches, so each pass starts from
    the same cold state.
    """
    if not os.path.isfile(os.path.join(SRC, "chaosfield", "__init__.py")):
        raise SystemExit(f"benchmark: no chaosfield sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "chaosfield" or m.startswith("chaosfield.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cf = importlib.import_module("chaosfield")
    if not os.path.abspath(cf.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: imported chaosfield from {cf.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"chaosfield.{name}") for name in MODULES}
    mods["chaosfield"] = cf
    return types.SimpleNamespace(cf=cf, modules=mods, **mods)


def speed_slice() -> float:
    """Seconds taken by a fixed slice of work that does not touch the library.

    Tuple and dict arithmetic like ``MultiIndex``'s plus small numpy calls;
    about ``REF_SLICE_S`` on the reference machine when it is quiet.
    """
    start = time.perf_counter()
    acc = {}
    for i in range(11000):
        merged = dict(((i % 7, 1), (i % 13 + 7, 2)))
        merged[3] = merged.get(3, 0) + 1
        key = tuple(sorted(merged.items()))
        acc[key] = acc.get(key, 0.0) + 1.0
    a = np.arange(64.0)
    for _ in range(3000):
        a = np.sqrt(a * a + 1.0) - 1.0
    return time.perf_counter() - start


class SpeedScale:
    """Raw times and their normalised values.

    Times are taken in groups of at least ``GROUP_S``, with a speed slice
    before and after each group; a time's normalised value is its raw value
    times ``REF_SLICE_S`` over the mean of its group's two slices.
    """

    def __init__(self):
        self.before = speed_slice()
        self.raw, self.scaled, self.pending = [], [], []

    def add(self, seconds: float):
        self.raw.append(seconds)
        self.pending.append(seconds)
        if sum(self.pending) >= GROUP_S:
            self.flush()

    def flush(self):
        if self.pending:
            after = speed_slice()
            factor = 2.0 * REF_SLICE_S / (self.before + after)
            self.scaled.extend(r * factor for r in self.pending)
            self.pending, self.before = [], after


def set_up(workload, seed, seconds, scratch):
    """Import the library, plan, and run and check one warm-up op of each kind.

    Returns the library, the shared objects, the warm-up and timed ops, and
    the set-up time, raw and normalised.  Gate time is not set-up time.
    """
    scale = SpeedScale()
    start = time.perf_counter()
    lib = load_library()
    warmup, ops = workload.plan(seed, seconds)
    ctx = workload.setup(lib, scratch)
    scale.add(time.perf_counter() - start)
    for op in warmup:
        start = time.perf_counter()
        x = workload.inputs(op)
        out = workload.run(lib, ctx, op, x)
        scale.add(time.perf_counter() - start)
        if not workload.gate(lib, ctx, op, x, out)[1]:
            raise SystemExit(f"benchmark: warm-up op {op.kind} {op.params} failed its check")
        x = out = None  # so that no op's output outlives its gate
    scale.flush()
    return lib, ctx, warmup, ops, sum(scale.raw), sum(scale.scaled)


def run_pass(workload, seed, seconds, scratch, tracer=None, setup_repeats=1):
    """Set up ``setup_repeats`` times, each on a fresh import, then run and gate every timed op.

    The timed ops run on the library of the last set-up.
    """
    setups = []
    for _ in range(setup_repeats):
        gc.collect()
        lib, ctx, warmup, ops, setup_raw_s, setup_s = set_up(workload, seed, seconds, scratch)
        setups.append((setup_raw_s, setup_s))
    if tracer is not None:
        tracer.install(lib.modules)
    paused = tracer.paused if tracer is not None else contextlib.nullcontext
    gc.collect()
    scale = SpeedScale()
    kinds, passes, incorrect = [], [], 0
    for op in ops:
        x = workload.inputs(op)
        start = time.perf_counter()
        try:
            out = workload.run(lib, ctx, op, x)
            raised = False
        except (Exception, SystemExit):
            raised = True
        scale.add(time.perf_counter() - start)
        kinds.append(op.kind)
        passed = correct = False
        if not raised:
            with paused():
                try:
                    passed, correct = workload.gate(lib, ctx, op, x, out)
                except Exception:
                    pass
        passes.append(bool(passed))
        incorrect += not correct
        x = out = None
    scale.flush()
    return {
        "setup_raw_s": [raw for raw, _ in setups],
        "setup_s": [norm for _, norm in setups],
        "latencies": np.array(scale.scaled),
        "raw_latencies": np.array(scale.raw),
        "kinds": kinds,
        "passes": np.array(passes, dtype=bool),
        "failed": len(passes) - sum(passes),
        "incorrect": incorrect,
        "key_repeat_share": workloads.key_repeat_share(warmup, ops),
    }


def environment() -> dict:
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def latency_ms(latencies, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, in ms.

    It weighs every order statistic, so it varies less from run to run than
    the sample quantile when op latencies form clusters, as they do here.
    """
    x = np.sort(latencies)
    n = len(x)
    weights = np.diff(betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n))
    return 1e3 * float(weights @ x)


def declared_metrics(section: str, values: dict) -> dict:
    """The metrics BENCHMARK.json declares in ``section``, with their units.

    A declared name with no value is an error.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)[section]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"benchmark: no value for {missing}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    workload = workloads.WORKLOADS[args.workload]

    # per-process scratch directory, for the CLI's --out files
    scratch = tempfile.mkdtemp(prefix=".scratch-", dir=BENCH_DIR)
    try:
        first = run_pass(workload, args.seed, args.seconds, scratch,
                         setup_repeats=1 if args.trace else SETUP_REPEATS)
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            result = run_pass(workload, args.seed, args.seconds, scratch, tracer=tracer)
        else:
            result = first
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lat, raw = result["latencies"], result["raw_latencies"]
    attempted = len(lat)
    ops_per_s = attempted / float(np.sum(lat))
    speed_factor = float(np.sum(lat) / np.sum(raw))
    by_kind = {}
    for kind in sorted(set(result["kinds"])):
        sel = np.array([k == kind for k in result["kinds"]])
        by_kind[kind] = {
            "ops": int(sel.sum()),
            "failed": int(np.sum(~result["passes"][sel])),
            "p50_ms": 1e3 * float(np.median(lat[sel])),
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "ops": attempted,
        "failed_frac": result["failed"] / attempted,
        "key_repeat_share": result["key_repeat_share"],
        "by_kind": by_kind,
        "speed_factor": speed_factor,
        "raw": {
            "ops_per_s": attempted / float(np.sum(raw)),
            "op_ms.p50": latency_ms(raw, 0.5),
            "op_ms.p90": latency_ms(raw, 0.9),
        },
    }
    if args.trace:
        untraced_ops_per_s = len(first["latencies"]) / float(np.sum(first["latencies"]))
        metrics = per_layer_metrics(tracer, result, ops_per_s, untraced_ops_per_s, speed_factor)
    else:
        record["setup_samples_s"] = result["setup_s"]
        record["raw"]["setup_samples_s"] = result["setup_raw_s"]
        metrics = {
            "setup_s": statistics.median(result["setup_s"]),
            "ops_per_s": ops_per_s,
            "op_ms.p50": latency_ms(lat, 0.5),
            "op_ms.p90": latency_ms(lat, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - result["failed"] / attempted,
        }
        metrics = declared_metrics("end_to_end", metrics)
    print(json.dumps(record, sort_keys=True))
    correct = first["incorrect"] == 0 and result["incorrect"] == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": result["failed"], "metrics": metrics}))
    return 0


def per_layer_metrics(tracer, result, traced_ops_per_s, untraced_ops_per_s, speed_factor) -> dict:
    """Every per-layer metric named in BENCHMARK.json.

    Each traced function has a span entry from the moment it is wrapped, so a
    function a workload never calls reads zero calls.
    """
    values = {f"{layer}.self_ms": ms * speed_factor for layer, ms in tracer.layer_self_ms().items()}
    for name, (calls, _, self_s) in tracer.stats.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_ms"] = 1e3 * self_s * speed_factor
    values.update(tracer.counts)
    values["trace.ops_per_s_ratio"] = traced_ops_per_s / untraced_ops_per_s
    values["trace.traced_ops_per_s"] = traced_ops_per_s
    values["trace.untraced_ops_per_s"] = untraced_ops_per_s
    values["workload.key_repeat_share"] = result["key_repeat_share"]
    return declared_metrics("per_layer", values)


if __name__ == "__main__":
    sys.exit(main())
