"""The two benchmark workloads.

``warm-mix`` prices on systems built in set-up: strike ladders through the
cached slice loop of ``price_fast``, the coupled European and the Bermudan by
uniformization, and ``mc_price``.  ``sweep-cold`` prices through ``cli.run``
with a fresh system per op.  Together they reach every layer.

A workload has a set-up, which the runner times (several repetitions, the
last one kept), and a list of ops, one price each, that every pass runs in a
seed-shuffled order.  ``assess`` turns the prices of the timed passes into the
workload's accuracy metrics and consistency checks.

Ops look roughchain functions up through their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

# Fixed here, not taken from roughchain.MODEL_NAMES, so the workloads do not
# change when the engine adds a family.
FAMILIES = (
    "rough-heston",
    "rough-42",
    "rough-alpha-hyper",
    "rough-sabr",
    "rough-heston-sabr",
    "rough-quadratic-slv",
)


@dataclass(frozen=True)
class Op:
    key: str                                # price-digest key below the workload
    call: Callable[[], tuple[float, ...]]   # returns the op's outputs


class OpFailed(Exception):
    """An op finished without a usable result (e.g. a nonzero exit code)."""


class Engine:
    """The roughchain modules plus the shared market and kernel."""

    def __init__(self, rc):
        self.rc = rc
        self.ctmc, self.pricing, self.mc, self.cli = rc.ctmc, rc.pricing, rc.mc, rc.cli
        self.presets = rc.presets
        self.market = rc.MarketParams(**rc.presets.BASE_MARKET)
        self.kernel = rc.KernelSpec(**rc.presets.BASE_KERNEL)

    def params(self, family: str) -> dict:
        return self.presets.model_params(family)

    def model(self, family: str):
        return self.rc.make_model(family, self.params(family))

    def assemble(self, family: str, size: int):
        return self.ctmc.assemble(
            self.model(family), self.market, self.kernel, n=size, m=size)

    def rates(self, family: str) -> tuple[float, float]:
        p = self.params(family)
        return float(p.get("r", 0.0)), float(p.get("q", 0.0))

    def option(self, family, kind, strike, maturity, dates=None):
        return self.rc.OptionSpec(
            kind, strike, maturity, rate=self.rates(family)[0], bermudan_dates=dates)


def _fast(eng, option, gens):
    return (eng.pricing.price_fast(option, gens).price,)


def _coupled(eng, option, gens):
    return (eng.pricing.price_european_coupled(option, gens).price,)


def _bermudan(eng, option, gens):
    return (eng.pricing.price_bermudan(option, gens).price,)


def _mc(eng, option, model, config):
    return eng.mc.mc_price(option, model, eng.market, eng.kernel, config)


def _cli_price(eng, overrides):
    out = io.StringIO()
    code = eng.cli.run("price", None, overrides, out=out)
    if code != 0:
        raise OpFailed(f"roughchain price exited with {code}")
    doc = json.loads(out.getvalue())
    price = float(doc["price_repr"])
    if price != doc["price"] and not math.isnan(price):
        raise OpFailed("price and price_repr disagree")
    return (price,)


class WarmMix:
    """Every warm-system pricing path on one set of systems built in set-up."""

    name = "warm-mix"
    size = 48
    paths, steps = 1024, 256
    grid = "N=M=48; MC 1024 paths x 256 steps"
    maturities = (0.25, 0.5, 1.0)
    call_strikes = (0.0, 7.0, 10.0, 13.0)   # K = 0 gives the forward
    put_strikes = (7.0, 10.0, 13.0)
    warm_strike = 10.0                      # the call priced in set-up
    strike, maturity, dates = 4.0, 0.5, 50  # the coupled, Bermudan and MC option

    def setup(self, eng):
        systems, models, warm = {}, {}, {}
        for fam in FAMILIES:
            models[fam] = eng.model(fam)
            gens = eng.assemble(fam, self.size)
            gens.coupled  # builds the NM x NM block generator
            for t in self.maturities:
                # the first price at each maturity fills the exponential cache
                warm[fam, t] = _fast(eng, eng.option(fam, "call", self.warm_strike, t), gens)
            systems[fam] = gens
        return systems, models, warm

    @staticmethod
    def key(fam, kind, strike, t):
        return f"{fam}/fast:{kind}:K={strike:g}:T={t:g}"

    def ops(self, eng, state, seed):
        systems, models, _ = state
        mc_key = seed % 2**64   # the Philox key comes from the benchmark seed
        config = eng.rc.McConfig(paths=self.paths, steps=self.steps, seed=mc_key)
        tag = f"K={self.strike:g}:T={self.maturity:g}"
        ops = []
        for fam, gens in systems.items():
            for t in self.maturities:
                for kind, strikes in (("call", self.call_strikes), ("put", self.put_strikes)):
                    for k in strikes:
                        opt = eng.option(fam, kind, k, t)
                        ops.append(Op(self.key(fam, kind, k, t), partial(_fast, eng, opt, gens)))
            call = eng.option(fam, "call", self.strike, self.maturity)
            put = eng.option(fam, "put", self.strike, self.maturity, dates=self.dates)
            ops += [
                Op(self.key(fam, "call", self.strike, self.maturity),
                   partial(_fast, eng, call, gens)),
                Op(f"{fam}/coupled:call:{tag}", partial(_coupled, eng, call, gens)),
                Op(f"{fam}/bermudan:put:{tag}:dates={self.dates}",
                   partial(_bermudan, eng, put, gens)),
                Op(f"{fam}/mc:call:{tag}:paths={self.paths}:steps={self.steps}:key={mc_key}",
                   partial(_mc, eng, call, models[fam], config)),
            ]
        return ops

    def assess(self, eng, state, prices):
        *_, warm = state
        s0 = eng.market.s0
        tag = f"K={self.strike:g}:T={self.maturity:g}"
        defects, gaps, z, stderrs = {}, {}, {}, []
        violations, checks = 0, []
        for fam in FAMILIES:
            r, q = eng.rates(fam)
            for t in self.maturities:
                got = prices.get(self.key(fam, "call", self.warm_strike, t))
                if got is not None and got != warm[fam, t]:
                    checks.append(f"{fam} T={t:g}: warm-cache price {got[0]!r} "
                                  f"differs from set-up price {warm[fam, t][0]!r}")
                fwd = s0 * math.exp((r - q) * t)
                c0 = prices.get(self.key(fam, "call", 0.0, t))
                if c0 is not None:
                    defects[f"{fam} T={t:g}"] = abs(c0[0] * math.exp(r * t) - fwd) / fwd
                for kind, strikes in (("call", self.call_strikes), ("put", self.put_strikes)):
                    ladder = [(k, prices[key][0]) for k in strikes
                              if (key := self.key(fam, kind, k, t)) in prices]
                    violations += _noarb_violations(kind, ladder, s0, r, q, t)
            fast = prices.get(self.key(fam, "call", self.strike, self.maturity))
            coupled = prices.get(f"{fam}/coupled:call:{tag}")
            if fast is not None and coupled is not None and coupled[0] > 0:
                gaps[fam] = abs(fast[0] - coupled[0]) / coupled[0]
            mc = [v for key, v in prices.items() if key.startswith(f"{fam}/mc:")]
            if mc:
                estimate, stderr = mc[0]
                stderrs.append(stderr)
                if stderr > 0 and fast is not None:
                    z[fam] = (fast[0] - estimate) / stderr
        nan = float("nan")
        metrics = {
            "forward_defect_max": max(defects.values(), default=nan),
            "noarb_violations": float(violations),
            "fast_coupled_gap_max": max(gaps.values(), default=nan),
            "mc_stderr_mean": sum(stderrs) / len(stderrs) if stderrs else nan,
        }
        details = {"forward_defect": defects, "fast_coupled_gap": gaps, "mc_z_score": z}
        return metrics, checks, details


def _noarb_violations(kind, ladder, s0, r, q, t, tol=1e-10):
    """Bound, monotonicity and convexity breaches along one strike ladder."""
    spot = s0 * math.exp(-q * t)
    count = 0
    for k, p in ladder:
        disc_k = k * math.exp(-r * t)
        if kind == "call":
            lo, hi = max(spot - disc_k, 0.0), spot
        else:
            lo, hi = max(disc_k - spot, 0.0), disc_k
        count += (p < lo - tol) + (p > hi + tol)
    sign = -1.0 if kind == "call" else 1.0   # calls fall, puts rise in strike
    for (_, p1), (_, p2) in zip(ladder, ladder[1:]):
        count += sign * (p2 - p1) < -tol
    for (k1, p1), (k2, p2), (k3, p3) in zip(ladder, ladder[1:], ladder[2:]):
        lam = (k3 - k2) / (k3 - k1)
        count += p2 > lam * p1 + (1.0 - lam) * p3 + tol
    return int(count)


class SweepCold:
    name = "sweep-cold"
    size = 60
    grid = "N=M=60 over eps 1e-4..1e-8; N=M in 40..100 at eps 1e-8"
    eps_values = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    grid_sizes = (40, 60, 80, 100)

    def setup(self, eng):
        return None

    @staticmethod
    def grid_overrides(size):
        return [f"numerics.n_x={size}", f"numerics.m_v={size}"]

    def ops(self, eng, state, seed):
        ops = []
        for fam in FAMILIES:
            base = [f"model.name={fam}", "model.params=" + json.dumps(eng.params(fam))]
            for eps in self.eps_values:
                ops.append(Op(f"{fam}/cli-eps:eps={eps:g}:N=M={self.size}",
                              partial(_cli_price, eng, base + [f"kernel.eps={eps!r}"]
                                      + self.grid_overrides(self.size))))
            for size in self.grid_sizes:
                ops.append(Op(f"{fam}/cli-grid:N=M={size}",
                              partial(_cli_price, eng, base + self.grid_overrides(size))))
        return ops

    def assess(self, eng, state, prices):
        # the default eps equals one eps-sweep point and the default size one
        # grid point: those two ops price the same config and must agree
        eps0 = eng.presets.BASE_KERNEL["eps"]
        checks = []
        for fam in FAMILIES:
            a = prices.get(f"{fam}/cli-eps:eps={eps0:g}:N=M={self.size}")
            b = prices.get(f"{fam}/cli-grid:N=M={self.size}")
            if a is not None and b is not None and a != b:
                checks.append(f"{fam}: identical configs priced {a[0]!r} and {b[0]!r}")
        return {}, checks, {}


WORKLOADS = {w.name: w for w in (WarmMix(), SweepCold())}
