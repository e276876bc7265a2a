"""Out-of-library tracing: spans and counters around reltoa's public functions.

The tracer replaces a function at every module binding that holds it (for
example ``reltoa.kernels.integrate_semiinf_exp`` and
``reltoa.numerics.integrate_semiinf_exp``, which ``integrate_sqrt_endpoint``
calls internally), so calls made inside the library are seen as well as the
benchmark's own.  Nothing in the library changes; ``uninstall`` puts every
original back.

Spans and counters are taken in separate passes.  The counters run once per
integrand evaluation or leaf call, millions of times per pass, and inside
the innermost spans; taken together with the spans they would be charged to
the numerics self times.

A span is ``(span_id, parent_id, name, t_start, t_end)``.  The benchmark
opens one root span per cell, so every span of a cell shares that root.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
from collections import defaultdict

from speed import SAMPLER

# span times leave out the host-speed probes, as cell times do
CLOCK = SAMPLER.clock

# functions that get a span; those marked True also get an integrand
# evaluation counter in a counting pass (their first argument is the
# integrand)
SPAN_FUNCTIONS = {
    "ior.ior_direct": False,
    "ior.ior_series": False,
    "ior.ior_momentum": False,
    "numerics.sine_transform_decaying": True,
    "numerics.integrate_semiinf_exp": True,
    "numerics.integrate_sqrt_endpoint": True,
    "kernels.barrier_factor": False,
    "kernels.free_factor": False,
    "classical.crtoa_quadrature": False,
}
# hot leaf functions: a call counter in a counting pass only, since a span
# would cost more than the function itself
COUNT_FUNCTIONS = (
    "kernels.gb_factor",
    "wavepacket.phi_overlap",
    "wavepacket.momentum_density",
)

ROOT = -1  # parent id of a cell span
PACKAGE = "reltoa"


def self_times(spans) -> dict[str, dict[str, float]]:
    """Aggregate spans by name: calls, total seconds and self seconds."""
    child_time: dict[int, float] = defaultdict(float)
    for _sid, parent, _name, t0, t1 in spans:
        child_time[parent] += t1 - t0
    out: dict[str, dict[str, float]] = {}
    for sid, _parent, name, t0, t1 in spans:
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += t1 - t0
        agg["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
    return out


class Tracer:
    """Collects spans and counters for one pass at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [ROOT]
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> tuple[list[tuple], dict[str, int]]:
        """Hand over the current pass's spans and counters and start afresh."""
        spans, counts = self.spans, dict(self.counts)
        self.spans = []
        self.counts = defaultdict(int)
        return spans, counts

    @contextlib.contextmanager
    def cell(self, name: str):
        """Root span of one cell."""
        sid = next(self._ids)
        self._stack.append(sid)
        t0 = CLOCK()
        try:
            yield
        finally:
            t1 = CLOCK()
            self._stack.pop()
            self.spans.append((sid, ROOT, "cell:" + name, t0, t1))

    def install(self, counting: bool) -> None:
        """Spans around SPAN_FUNCTIONS or, when counting, no spans but the
        integrand evaluation and leaf call counters."""
        if not counting:
            for qualname in SPAN_FUNCTIONS:
                self._patch(qualname, functools.partial(self._span, qualname))
            return
        for qualname, counts_evals in SPAN_FUNCTIONS.items():
            if counts_evals:
                self._patch(qualname, functools.partial(self._evals_counter, qualname))
        for qualname in COUNT_FUNCTIONS:
            self._patch(qualname, functools.partial(self._counter, qualname))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, qualname: str, make_wrapper) -> None:
        module_name, attr = qualname.rsplit(".", 1)
        original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        bound = 0
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patched.append((module, key, original))
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"no module binding found for {qualname}")

    def _span(self, name: str, fn):
        # spans are swapped per pass, so look them up on self
        stack, ids, clock = self._stack, self._ids, CLOCK

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1))

        return wrapper

    def _evals_counter(self, name: str, fn):
        key = name + ".evals"

        def wrapper(integrand, *args, **kwargs):
            def counted(x):
                self.counts[key] += 1
                return integrand(x)

            return fn(counted, *args, **kwargs)

        return wrapper

    def _counter(self, name: str, fn):
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper
