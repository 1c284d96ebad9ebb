"""Option pricing on the two-layer chain, on two routes:

* ``price_fast``, the production route, steps with a Strang product of the
  two decoupled factor semigroups (one M x M transition matrix plus M N x N
  ones), so it never forms the big generator.  Its step operators are
  exp(Q dt/2) by one Pade, exp(Q dt) as that matrix's square, and the
  regime step exp(Lambda_l dt) by one band series: numpy alone;
* ``price_european_coupled``, the oracle, applies the exact exp(coupled t)
  by uniformization, on the sparse coupled generator (``scipy.sparse``,
  loaded on its first use).

One rule picks the pass on both.  A European or terminal-barrier price is
e^{-rT} p_T . payoff, where p_T, the law at T of the chain started at the
anchor, comes from one forward pass and is cached per system, route and T,
so further strikes, kinds and barriers at T cost a dot product.  An option
with ``bermudan_dates`` runs backward induction, B_k = max(e^{-r dt} P(dt)
B_{k+1}, payoff), over its equally spaced dates, and caches the fast
route's step operators per slice length, the one thing they depend on; a
law reuses them when its slices have that length, and keeps none of its own.
Every price discounts at the model's r.  The engine picks the fast route's
slice count, max(48, ceil(16 sqrt(nu_Lambda T))) capped at 4096
(``_auto_slices``), and spreads it over the dates: ceil(n / dates) slices
per date, one date for the law.  ``price_bermudan`` is the fast route for
an option that must carry dates.

Memory: the largest array of a price is the regime step exp(Lambda_l dt)
its slices read, kept once per slice length by backward induction and
dropped after a law's pass.  It is ``matexp.expm_dense``'s ``RegimeStack``,
which steps itself: every matrix dense while the dense (M, N, N) stack takes
at most 2 MiB (the L2 cache of one core; N = M <= 64), stepped by one
batched matvec; above, (M N, 2W + 1) band rows, stepped by one einsum,
with the few regimes whose series is long (nu dt > 1) kept dense.  A price's
diagnostics name the layout (``regime_step``) and its row width.  The
regime family is (3, M, N) diagonal planes, summed in chunks of bounded
size (``matexp._CHUNK_BYTES``), so a cold rough-heston price peaks at about
2.8 MB at N = M = 60 and 5.3 MB at 100 (10 MB on the 8 MB dense stack).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .ctmc import GeneratorSet, validate_generator  # noqa: F401 (perfbench traces it here)
from .errors import DomainError, ParameterError, coerce_floats
from .matexp import expm_action, expm_dense

_TOL = 1e-10  # absolute truncation error of a coupled price's uniformization series
_MIN_SLICES = 48  # floor of the fast route's Strang slice count over T
_ROUNDOFF = 1e-10  # slack of the model-free ladder constraints

__all__ = [
    "OptionSpec",
    "PriceResult",
    "payoff_vector",
    "price_european_coupled",
    "price_fast",
    "price_bermudan",
    "ladder_violations",
]


@dataclass(frozen=True)
class OptionSpec:
    """Payoff description: vanilla call/put, optional terminal barrier, dates.

    Prices discount at the model's r; ``rate``, if given, must equal it.
    """

    kind: str
    strike: float
    maturity: float
    rate: float | None = None
    barrier: tuple[float, float] | None = None   # (lower, upper), payoff kept strictly inside
    bermudan_dates: int | None = None

    def __post_init__(self):
        coerce_floats(self, "strike", "maturity", *(() if self.rate is None else ("rate",)))
        dates = self.bermudan_dates
        if dates is not None and (isinstance(dates, bool) or not isinstance(dates, Integral)):
            raise ParameterError(f"bermudan_dates must be an integer, got {dates!r}")
        if self.kind not in ("call", "put"):
            raise ParameterError(f"kind must be 'call' or 'put', got {self.kind!r}")
        if not 0.0 <= self.strike < np.inf:
            raise ParameterError(f"strike must be finite and nonnegative, got {self.strike}")
        if not 0.0 < self.maturity < np.inf:
            raise ParameterError(f"maturity must be finite and positive, got {self.maturity}")
        if self.barrier is not None:
            try:
                lo, up = map(float, self.barrier)
            except (TypeError, ValueError):
                raise ParameterError(f"barrier must be two numbers, got {self.barrier!r}") from None
            object.__setattr__(self, "barrier", (lo, up))
            if not 0.0 <= lo < up:
                raise ParameterError(f"barrier needs 0 <= L < U, got {self.barrier}")
        if self.bermudan_dates is not None and self.bermudan_dates < 1:
            raise ParameterError("bermudan_dates must be >= 1")

    def payoff(self, s: np.ndarray) -> np.ndarray:
        """Call or put payoff at asset levels s, zero outside the open barrier (L, U)."""
        if self.kind == "call":
            pay = np.maximum(s - self.strike, 0.0)
        else:
            pay = np.maximum(self.strike - s, 0.0)
        if self.barrier is not None:
            lo, up = self.barrier
            pay = pay * ((s > lo) & (s < up))
        return pay


@dataclass
class PriceResult:
    price: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.price < -1e-9:
            raise DomainError(f"negative price {self.price}")


def _rate(option: OptionSpec, model) -> float:
    """The model's r, at which every price discounts; a different ``option.rate`` is refused."""
    r = model.rates[0]
    if option.rate is not None and option.rate != r:
        raise ParameterError(f"option rate {option.rate!r} differs from the model's "
                             f"r = {r!r}; leave OptionSpec.rate unset")
    return r


def payoff_vector(option: OptionSpec, gens: GeneratorSet) -> np.ndarray:
    """Terminal payoff on the product grid, shape (M, N).

    Entry [l, i] is phi(g^{-1}(x_i + rho f(v_l))); flat index l*N + i matches
    the coupled generator's block layout.
    """
    return option.payoff(gens.asset_states)


def _auto_slices(gens: GeneratorSet, t: float) -> int:
    """Strang slice count over time t, scaled to the regime-chain stiffness.

    The splitting error grows with the commutator of the two factor
    generators; 16 sqrt(nu_Lambda T) slices, and never fewer than
    _MIN_SLICES, keep the relative price error well below 1e-3 across the
    model families (verified against the coupled route), with stiff regime
    chains (e.g. inverse-variance volatility terms) driving the count up.
    """
    return int(min(max(_MIN_SLICES, np.ceil(16.0 * np.sqrt(max(gens.nu_lambda * t, 0.0)))), 4096))


def _propagate(gens: GeneratorSet, w: np.ndarray, t: float, n_slices, forward: bool = False,
               diag: dict | None = None):
    """Advance the (M, N) value array w by time t under the chain.

    With ``forward``, w is a law and the transposed semigroup acts.  With an
    int ``n_slices``: the Strang product PQh (PL PQ)^(n-1) PL PQh over n
    slices of dt = t/n, from the step operators of dt, cached as the module
    docstring says; ``diag``, if given, receives the regime step's layout
    and the width of the rows it reads (N dense, 2W + 1 on band rows).  With
    None: the exact action exp(coupled t) w by uniformization, whose series
    stops at _TOL; a law's series stops where the omitted mass times max |s|
    is at most _TOL, so the price of any call, and of any put with
    K <= max |s|, is within _TOL of the exact law's.
    """
    if n_slices is None:
        gen, tol = gens.coupled, _TOL
        if forward:
            gen, tol = gen.T, _TOL / np.abs(gens.asset_states).max()
        return expm_action(gen, w.ravel(), t, tol=tol).reshape(w.shape)
    dt = t / n_slices
    ops = gens._cache.get(("steps", dt))
    if ops is None:
        pq_half = expm_dense(gens.q, dt / 2.0)  # exp(Q dt) is its square: one Pade
        ops = pq_half, pq_half @ pq_half, expm_dense(gens.lambdas, dt)
        if not forward:
            gens._cache["steps", dt] = ops
    pq_half, pq_full, p_lams = ops
    if forward:
        pq_half, pq_full, p_lams = pq_half.T, pq_full.T, p_lams.T
    if diag is not None:
        diag.update(regime_step=p_lams.layout, regime_row_width=p_lams.row_width)
    # [PQh PL PQh]^n collapsed: adjacent half-steps merge into full steps
    w = pq_half @ w
    for _ in range(n_slices - 1):
        w = pq_full @ p_lams.step(w)
    return pq_half @ p_lams.step(w)


def _terminal(gens: GeneratorSet, t: float, n_slices: int | None):
    """Law p_T at t of the chain started at the anchor, and its diagnostics.

    One forward ``_propagate``, cached on ``gens`` under ("law", n_slices, t).
    Diagnostics: the forward defect p_T . s - s0 e^{(r-q)t}, the mass on
    each truncation wall and, on the fast route, the regime step.
    """
    key = ("law", n_slices, t)
    hit = key in gens._cache
    if not hit:
        p = np.zeros((gens.m, gens.n))
        p[gens.anchor_indices] = 1.0
        regime = {}
        p = _propagate(gens, p, t, n_slices, forward=True, diag=regime)
        r, q = gens.model.rates
        walls = {"v_low": p[0], "v_high": p[-1], "x_low": p[:, 0], "x_high": p[:, -1]}
        gens._cache[key] = (p, {
            "forward_defect": float(np.vdot(p, gens.asset_states)
                                    - gens.market.s0 * np.exp((r - q) * t)),
            "wall_mass": {wall: float(mass.sum()) for wall, mass in walls.items()},
            **regime,
        })
    p, diag = gens._cache[key]
    return p, dict(diag, terminal_cache_hit=hit)


def _price(option: OptionSpec, gens: GeneratorSet, method: str) -> PriceResult:
    """The pass rule of the module docstring on route ``method``, "fast" or "coupled"."""
    t0 = time.perf_counter()
    t, dates = option.maturity, option.bermudan_dates or 1
    dt = t / dates
    n = -(-_auto_slices(gens, t) // dates) if method == "fast" else None
    disc = np.exp(-_rate(option, gens.model) * dt)
    pay = payoff_vector(option, gens)
    if option.bermudan_dates:
        w, extra = pay, {"bermudan_dates": dates}
        for date in range(dates):  # every date runs the same step
            w = np.maximum(disc * _propagate(gens, w, dt, n, diag=None if date else extra), pay)
        price = w[gens.anchor_indices]
    else:
        p, extra = _terminal(gens, t, n)
        price = disc * np.vdot(p, pay)
    if n is not None:
        extra["n_slices"] = n * dates
    return PriceResult(price=float(price), diagnostics={
        "method": method, "n": gens.n, "m": gens.m,
        "eps": gens.kernel.eps, "hurst": gens.kernel.hurst,
        "kind": option.kind, "strike": option.strike, "maturity": option.maturity,
        "wall_time": time.perf_counter() - t0,
        "validation": {"q_max_abs_row_sum": gens.q_report["max_abs_row_sum"],
                       "q_min_off_diagonal": gens.q_report["min_off_diagonal"]},
        **extra,
    })


def price_fast(option: OptionSpec, gens: GeneratorSet) -> PriceResult:
    """Production route, M small exponentials instead of one NM x NM one."""
    return _price(option, gens, "fast")


def price_european_coupled(option: OptionSpec, gens: GeneratorSet) -> PriceResult:
    """Oracle route: the exact coupled semigroup exp(coupled t) by uniformization."""
    return _price(option, gens, "coupled")


def price_bermudan(option: OptionSpec, gens: GeneratorSet) -> PriceResult:
    """Bermudan price on the fast route; the option must carry dates."""
    if option.bermudan_dates is None:
        raise ParameterError("price_bermudan needs option.bermudan_dates")
    return _price(option, gens, "fast")


def ladder_violations(kind, strikes, prices, s0, r, q, t) -> list[str]:
    """Model-free breaches, one line each, along a European ladder at maturity t.

    For ascending strikes K: a call lies in [(s0 e^{-qt} - K e^{-rt})+, s0 e^{-qt}]
    (so the K = 0 call is the discounted forward), a put in [(K e^{-rt} -
    s0 e^{-qt})+, K e^{-rt}] (Merton 1973); calls fall and puts rise in K; every
    price is convex in K (Carr & Madan 2005).
    """
    spot, disc = s0 * np.exp(-q * t), np.exp(-r * t)
    ladder = list(zip(strikes, prices))
    out = []
    for k, p in ladder:
        if kind == "call":
            lo, hi = max(spot - k * disc, 0.0), spot
        else:
            lo, hi = max(k * disc - spot, 0.0), k * disc
        if not lo - _ROUNDOFF <= p <= hi + _ROUNDOFF:
            out.append(f"{kind} K={k:g} {p:.17g} outside [{lo:.17g}, {hi:.17g}]")
    sign, side = (-1.0, "above") if kind == "call" else (1.0, "below")
    for (k1, p1), (k2, p2) in zip(ladder, ladder[1:]):
        if sign * (p2 - p1) < -_ROUNDOFF:
            out.append(f"{kind} K={k2:g} {p2:.17g} {side} {kind} K={k1:g} {p1:.17g}")
    for (k1, p1), (k2, p2), (k3, p3) in zip(ladder, ladder[1:], ladder[2:]):
        chord = p1 + (p3 - p1) * (k2 - k1) / (k3 - k1)
        if p2 > chord + _ROUNDOFF:
            out.append(f"{kind} K={k2:g} {p2:.17g} above the chord {chord:.17g} "
                       f"of K={k1:g} and K={k3:g}")
    return out
