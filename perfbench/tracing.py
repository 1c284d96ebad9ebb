"""Outside-in tracing of roughchain's public functions.

The tracer replaces functions at the module globals where the engine looks
them up, records one span per call (name, start, end, parent span, op id)
in memory, and restores the originals when it is uninstalled.  Nothing in
``src/`` knows about it.  Per-layer metrics are derived from the spans after
the run: a span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager

# Poisson mean per uniformization segment, as in matexp.expm_action.
_SEGMENT_MEAN = 400.0


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.info = None


class Tracer:
    """Span recorder; ``op`` is the id of the running op (None in set-up)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._nu_cache: dict[int, tuple] = {}

    def _wrap(self, name, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.info = note(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, rc):
        """Wrap every traced site of the roughchain package ``rc``."""
        saved = []
        try:
            for module, attr, name, note in _sites(rc):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, note))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _fast_info(tracer, args, kwargs, result):
    gens = args[1]
    return (int(result.diagnostics["n_slices"]), gens.m, gens.n)


def _action_info(tracer, args, kwargs, result):
    """Computed uniformization work: (terms bound, nnz, size) of one call."""
    gen = args[0]
    t = args[2] if len(args) > 2 else kwargs["t"]
    cached = tracer._nu_cache.get(id(gen))
    if cached is None or cached[0] is not gen:
        cached = (gen, float(abs(gen.diagonal()).max()), int(gen.nnz), gen.shape[0])
        tracer._nu_cache[id(gen)] = cached
    _, nu, nnz, size = cached
    if nu * t <= 0.0:
        return (0, nnz, size)
    n_seg = max(math.ceil(nu * t / _SEGMENT_MEAN), 1)
    mean = nu * t / n_seg
    k_max = int(mean + 12.0 * math.sqrt(mean) + 25.0)
    return (n_seg * k_max, nnz, size)


def _mc_info(tracer, args, kwargs, result):
    option, mc = args[0], args[4]
    return mc.paths * mc.n_steps(option.maturity)


def _sites(rc):
    """(module, attribute, span name, note) for every traced call site."""
    ctmc, pricing, mc, cli = rc.ctmc, rc.pricing, rc.mc, rc.cli
    return [
        (ctmc, "build_variance_grid", "grids.build", None),
        (ctmc, "build_x_grid", "grids.build", None),
        (ctmc, "build_Q", "ctmc.build_Q", None),
        (ctmc, "build_lambda_family", "ctmc.build_lambda_family", None),
        (ctmc, "build_coupled", "ctmc.build_coupled", None),
        (ctmc, "assemble", "ctmc.assemble", None),
        (pricing, "validate_generator", "ctmc.validate_generator", None),
        (pricing, "expm_dense", "matexp.expm_dense", None),
        (pricing, "expm_action", "matexp.expm_action", _action_info),
        (pricing, "payoff_vector", "pricing.payoff_vector", None),
        (pricing, "price_fast", "pricing.price_fast", _fast_info),
        (cli, "price_fast", "pricing.price_fast", _fast_info),
        (pricing, "price_european_coupled", "pricing.price_european_coupled", None),
        (cli, "price_european_coupled", "pricing.price_european_coupled", None),
        (pricing, "price_bermudan", "pricing.price_bermudan", None),
        (cli, "price_bermudan", "pricing.price_bermudan", None),
        (mc, "mc_price", "mc.mc_price", _mc_info),
        (cli, "mc_price", "mc.mc_price", _mc_info),
        (cli, "run", "cli.run", None),
    ]


# per-layer self-time metric -> span name whose self time it sums
_SELF_TIMES = {
    "grids.build_s": "grids.build",
    "ctmc.build_Q_s": "ctmc.build_Q",
    "ctmc.build_lambda_family_s": "ctmc.build_lambda_family",
    "ctmc.assemble_self_s": "ctmc.assemble",
    "ctmc.build_coupled_s": "ctmc.build_coupled",
    "ctmc.validate_generator_s": "ctmc.validate_generator",
    "matexp.expm_dense_s": "matexp.expm_dense",
    "matexp.expm_action_s": "matexp.expm_action",
    "pricing.payoff_vector_s": "pricing.payoff_vector",
    "pricing.price_fast_self_s": "pricing.price_fast",
    "pricing.price_bermudan_self_s": "pricing.price_bermudan",
    "mc.mc_price_s": "mc.mc_price",
    "cli.run_self_s": "cli.run",
}


def layer_metrics(spans: list[Span], n_prices: int, n_passes: int) -> dict:
    """Per-layer metrics: name -> (value, unit).

    Self times are seconds spent in the layer during one set-up plus one
    timed pass (the mean over the traced passes).  Counts and ratios cover
    the timed passes only: per price op, per ``price_fast`` call or per pass,
    as the name says.  Quantities marked "computed" come from formulas over
    the call arguments, not from hardware counters.
    """
    child_time = [0.0] * len(spans)
    children_names: list[set] = [set() for _ in spans]
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
            children_names[span.parent].add(span.name)

    setup_self: dict[str, float] = {}
    timed_self: dict[str, float] = {}
    for i, span in enumerate(spans):
        bucket = setup_self if span.op is None else timed_self
        self_time = span.end - span.start - child_time[i]
        bucket[span.name] = bucket.get(span.name, 0.0) + self_time

    out = {}
    for metric, name in _SELF_TIMES.items():
        total = setup_self.get(name, 0.0) + timed_self.get(name, 0.0) / n_passes
        out[metric] = (total, "s")

    timed = [(i, s) for i, s in enumerate(spans) if s.op is not None]

    def calls(name):
        return [(i, s) for i, s in timed if s.name == name]

    per_price = max(n_prices, 1)
    out["ctmc.validate_generator_calls_per_price"] = (
        len(calls("ctmc.validate_generator")) / per_price, "count")
    out["matexp.expm_dense_calls_per_price"] = (
        len(calls("matexp.expm_dense")) / per_price, "count")

    fast = calls("pricing.price_fast")
    hits = sum(1 for i, _ in fast if "matexp.expm_dense" not in children_names[i])
    slices = [s.info[0] for _, s in fast]
    flops = [n * (2 * m * k * k + 2 * m * m * k) for n, m, k in (s.info for _, s in fast)]
    streamed = [n * 8 * m * k * k for n, m, k in (s.info for _, s in fast)]
    n_fast = max(len(fast), 1)
    out["pricing.cache_hit_ratio"] = (hits / n_fast, "ratio")
    out["pricing.slices_per_price_mean"] = (sum(slices) / n_fast, "count")
    out["pricing.slices_per_price_max"] = (float(max(slices, default=0)), "count")
    out["pricing.slice_gflops_computed"] = (sum(flops) / n_fast / 1e9, "GFLOP/price")
    out["pricing.slice_gbytes_computed"] = (sum(streamed) / n_fast / 1e9, "GB/price")

    action = calls("matexp.expm_action")
    terms = sum(s.info[0] for _, s in action)
    action_flops = sum(2 * s.info[0] * (s.info[1] + s.info[2]) for _, s in action)
    out["matexp.expm_action_calls"] = (len(action) / n_passes, "count")
    out["matexp.uniformization_terms_computed"] = (terms / n_passes, "count")
    out["matexp.uniformization_gflops_computed"] = (action_flops / n_passes / 1e9, "GFLOP")

    mc_calls = calls("mc.mc_price")
    mc_time = sum(s.end - s.start for _, s in mc_calls)
    path_steps = sum(s.info for _, s in mc_calls)
    out["mc.path_steps_per_s"] = (path_steps / mc_time if mc_time > 0 else 0.0, "1/s")
    return out
