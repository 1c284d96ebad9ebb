"""The names the benchmark harness reads from roughchain still resolve.

``perfbench/`` wraps roughchain functions at the module globals where the
engine looks them up (``tracing._sites``) and builds its systems, options
and ``cli.run`` ops through ``workloads.Engine``.  A rename or deletion in
``src/`` that the harness still uses would otherwise show only when the
benchmark runs.  The harness files are loaded as they are, without writing
bytecode next to them.
"""

import importlib.util
import io
import json
import math
import sys
from pathlib import Path

import pytest

import roughchain
import roughchain.cli  # noqa: F401 (the tracer wraps cli functions)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_traced_site_resolves(tracing):
    sites = tracing._sites(roughchain)
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in sites
               if not callable(getattr(module, attr, None))]
    assert missing == []
    originals = [getattr(module, attr) for module, attr, _, _ in sites]
    with tracing.Tracer().installed(roughchain):
        pass
    assert [getattr(module, attr) for module, attr, _, _ in sites] == originals


def test_engine_builds_systems_and_dated_options(workloads):
    eng = workloads.Engine(roughchain)
    for fam in workloads.FAMILIES:
        gens = eng.assemble(fam, 8)
        assert (gens.m, gens.n) == (8, 8)
        put = eng.option(fam, "put", 10.0, 0.5, dates=2)  # passes the model's rate=
        assert put.rate == gens.model.rates[0] and put.bermudan_dates == 2
        price = eng.pricing.price_bermudan(put, gens).price
        assert math.isfinite(price) and price >= 0.0


def test_one_sweep_cold_op_prices(workloads):
    eng = workloads.Engine(roughchain)
    ops = {op.key: op for op in workloads.WORKLOADS["sweep-cold"].ops(eng, None, 0)}
    (price,) = ops["rough-heston/cli-grid:N=M=40"].call()
    assert math.isfinite(price) and price > 0.0


def _expm_dense_calls(tracing, price):
    """Calls of ``pricing.expm_dense`` while ``price()`` runs, under the harness's own wrappers."""
    original = roughchain.pricing.expm_dense
    with tracing.Tracer().installed(roughchain) as tracer:
        price()
    assert roughchain.pricing.expm_dense is original
    return [span for span in tracer.spans if span.name == "matexp.expm_dense"]


def test_cold_cli_price_calls_expm_dense_twice(tracing):
    # Q's half step and the regime family: what expm_dense_calls_per_price reads
    out = io.StringIO()
    calls = _expm_dense_calls(tracing, lambda: roughchain.cli.run(
        "price", None, ["numerics.n_x=20", "numerics.m_v=20"], out=out))
    assert json.loads(out.getvalue())["price"] > 0.0
    assert len(calls) == 2


def test_price_on_a_cached_law_calls_expm_dense_never(tracing, workloads):
    # a fast price with no expm_dense below it is what cache_hit_ratio counts as a hit
    eng = workloads.Engine(roughchain)
    gens = eng.assemble("rough-heston", 20)
    eng.pricing.price_fast(eng.option("rough-heston", "call", 10.0, 0.5), gens)
    put = eng.option("rough-heston", "put", 7.0, 0.5)
    calls = _expm_dense_calls(tracing, lambda: eng.pricing.price_fast(put, gens))
    assert calls == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # rough-42's estimate is nan
def test_warm_mix_draws_one_monte_carlo_run_per_pass(workloads, monkeypatch):
    # the six mc ops share one (seed, paths, steps, T): only the first draws
    eng = workloads.Engine(roughchain)
    mix = workloads.WORKLOADS["warm-mix"]
    mc_ops = [op for op in mix.ops(eng, mix.setup(eng), 91) if "/mc:" in op.key]
    assert len(mc_ops) == 6
    draws = []
    original = roughchain.mc._draw_normals
    monkeypatch.setattr(roughchain.mc, "_draw_normals",
                        lambda *args: draws.append(args) or original(*args))
    roughchain.mc._kept_run.cache_clear()
    shared = [repr(op.call()) for op in mc_ops]
    assert len(draws) == 2   # one batch of 1024 paths: dB and dB_perp
    alone = []
    for op in mc_ops:
        roughchain.mc._kept_run.cache_clear()
        alone.append(repr(op.call()))
    assert shared == alone
    assert len(draws) == 2 + 2 * len(mc_ops)


def test_sweep_cold_covers_every_regime_stack_form(workloads, monkeypatch):
    # all dense up to N = M = 60; band rows at 80 and 100, where rough-42's
    # stiff regime stays dense: an op that changes side fails here
    eng = workloads.Engine(roughchain)
    stacks = []
    original = roughchain.pricing.expm_dense

    def recorded(gen, t):
        out = original(gen, t)
        if isinstance(out, roughchain.matexp.RegimeStack):
            stacks.append(out)
        return out

    monkeypatch.setattr(roughchain.pricing, "expm_dense", recorded)
    forms = {}
    for op in workloads.WORKLOADS["sweep-cold"].ops(eng, None, 0):
        op.call()
        (stack,) = stacks
        stacks.clear()
        forms[op.key] = stack.layout, list(stack.on_dense) if stack.layout == "band" else None
    want = {key: ("dense", None) if int(key.rsplit("N=M=", 1)[1]) <= 60
            else ("band", [0] if key.startswith("rough-42/") else []) for key in forms}
    assert len(forms) == 54 and forms == want
