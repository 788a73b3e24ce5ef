"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces every binding of the library's public functions
and of the public methods of a few classes with a wrapper that times the
call.  Spans are aggregated as they close (calls, total and self time per
function) instead of being stored one by one: a traced run makes millions of
calls, and a stored span each would dominate memory.

A function's self time is its span's duration minus the time covered by the
spans it caused.  The wrapper's own bookkeeping is charged to neither the
function nor its caller, so the overhead shows only in the traced-over-
untraced throughput ratio the benchmark reports.

``MultiIndex`` and ``Truncation`` methods get no spans: they are called
hundreds of thousands of times per run, so a span there would time the
wrapper.  Their cost lands in the self time of the calling layer.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

LAYERS = (
    "multiindex",
    "hermite",
    "chaos",
    "basis",
    "kernels",
    "integrals",
    "sde",
    "mc",
    "cli",
)

# Classes whose public methods are traced, by layer.
TRACED_CLASSES = {
    "basis": ("BasisFamily", "QuadratureRule"),
    "kernels": ("KernelSpec",),
    "sde": ("PropagatorSolution",),
}

# Work counters recorded at the span boundary:
# span name -> (counter name, f(bound arguments, result)).
COUNTERS = {
    "multiindex.enumerate_multiindices": ("multiindex.indices_enumerated", lambda a, r: len(r)),
    "chaos.wick_product": ("chaos.wick_product.pairs", lambda a, r: len(a["f"].coeffs) * len(a["g"].coeffs)),
    "mc.sample_batch": ("mc.samples_drawn", lambda a, r: r.n_samples),
}


def _is_traced_function(module, name, obj) -> bool:
    if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
        return False
    # plain functions and functools caches defined in this module, not re-imports
    return getattr(obj, "__module__", None) == module.__name__ and (
        inspect.isfunction(obj) or hasattr(obj, "cache_info")
    )


class Tracer:
    """Aggregated spans for one traced pass.  ``stats[name] = [calls, total_s, self_s]``."""

    def __init__(self):
        self.stats: dict = {}
        self.counts: dict = {name: 0 for name, _ in COUNTERS.values()}
        self.active = True
        # child-time accumulators; the bottom entry collects time outside any span
        self._stack = [0.0]

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = clock()
            stack.append(0.0)
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                child = stack.pop()
                stat[0] += 1
                stat[1] += end - start
                stat[2] += end - start - child
                if returned and counter is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                    self.counts[counter[0]] += counter[1](bound, result)
                # charge the caller with everything since ``start``, bookkeeping included
                stack[-1] += clock() - start
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the public API of ``modules`` (layer name -> module object).

        Every module is then scanned, the package ``__init__`` included, so
        that names re-imported elsewhere (``from .kernels import m_tilde``)
        resolve to the same wrapper.
        """
        wrapped = {}
        for layer in LAYERS:
            module = modules[layer]
            for name, obj in list(vars(module).items()):
                if _is_traced_function(module, name, obj):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{name}", obj)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                for name, obj in list(vars(cls).items()):
                    if not name.startswith("_") and inspect.isfunction(obj):
                        setattr(cls, name, self._wrap(f"{layer}.{cls_name}.{name}", obj))
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, name, wrapped[id(obj)])

    @contextlib.contextmanager
    def paused(self):
        """Run a block (a correctness gate) without recording spans."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def layer_self_ms(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += 1e3 * self_s
        return out
