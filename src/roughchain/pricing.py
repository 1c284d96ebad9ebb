"""Option pricing on the two-layer chain.

Three evaluation routes share one payoff assembly:

* ``price_european_coupled`` evaluates the exact matrix-exponential formula
  e^{-rT} e_{i,l} exp(coupled T) Phi through the uniformized action on the
  sparse NM x NM block generator; a barrier option only changes Phi.
* ``price_fast`` avoids the big generator: a Strang product of the two
  decoupled factor semigroups (one M x M transition matrix plus M cached
  N x N transition matrices, applied alternately over time slices).  It
  converges to the coupled price as slices grow and costs a fraction of a
  second at production sizes.
* ``price_bermudan`` runs the backward induction
  B_k = max(e^{-rT/n} exp(coupled T/n) B_{k+1}, Phi) with a cached dense
  one-step operator when NM fits the dense cap, otherwise repeated actions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .ctmc import GeneratorSet, validate_generator
from .errors import DomainError, ParameterError
from .matexp import expm_action, expm_dense

__all__ = [
    "OptionSpec",
    "PriceResult",
    "payoff_vector",
    "price_european_coupled",
    "price_fast",
    "price_bermudan",
]


@dataclass(frozen=True)
class OptionSpec:
    """Payoff description: vanilla call/put, optional terminal barrier, dates."""

    kind: str
    strike: float
    maturity: float
    rate: float = 0.0
    barrier: tuple[float, float] | None = None   # (lower, upper), payoff kept strictly inside
    bermudan_dates: int | None = None

    def __post_init__(self):
        if self.kind not in ("call", "put"):
            raise ParameterError(f"kind must be 'call' or 'put', got {self.kind!r}")
        if self.strike < 0:
            raise ParameterError("strike must be nonnegative")
        if not self.maturity > 0:
            raise ParameterError("maturity must be positive")
        if self.barrier is not None:
            lo, up = self.barrier
            if not 0.0 <= lo < up:
                raise ParameterError(f"barrier needs 0 <= L < U, got {self.barrier}")
        if self.bermudan_dates is not None and self.bermudan_dates < 1:
            raise ParameterError("bermudan_dates must be >= 1")


@dataclass
class PriceResult:
    price: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.price < -1e-9:
            raise DomainError(f"negative price {self.price}")


def payoff_vector(option: OptionSpec, gens: GeneratorSet) -> np.ndarray:
    """Terminal payoff on the product grid, shape (M, N).

    Entry [l, i] is phi(g^{-1}(x_i + rho f(v_l))); flat index l*N + i matches
    the coupled generator's block layout.  The barrier variant zeroes entries
    whose reconstructed asset level lies outside the open interval (L, U).
    """
    s = gens.asset_states
    if option.kind == "call":
        pay = np.maximum(s - option.strike, 0.0)
    else:
        pay = np.maximum(option.strike - s, 0.0)
    if option.barrier is not None:
        lo, up = option.barrier
        pay = pay * ((s > lo) & (s < up))
    return pay


def _result(price, option, gens, method, t0, extra=None):
    diag = {
        "method": method,
        "n": gens.n,
        "m": gens.m,
        "eps": gens.kernel.eps,
        "hurst": gens.kernel.hurst,
        "formulation": gens.formulation,
        "rate_policy": gens.rate_policy,
        "kind": option.kind,
        "strike": option.strike,
        "maturity": option.maturity,
        "wall_time": time.perf_counter() - t0,
    }
    report = validate_generator(gens.q)
    diag["validation"] = {
        "q_max_abs_row_sum": report["max_abs_row_sum"],
        "q_min_off_diagonal": report["min_off_diagonal"],
    }
    if extra:
        diag.update(extra)
    return PriceResult(price=float(price), diagnostics=diag)


def price_european_coupled(
    option: OptionSpec, gens: GeneratorSet, tol: float = 1e-10
) -> PriceResult:
    """Exact coupled-chain price via the action of exp(coupled T) on the payoff."""
    t0 = time.perf_counter()
    pay = payoff_vector(option, gens).ravel()
    value = expm_action(gens.coupled, pay, option.maturity, tol=tol)
    price = np.exp(-option.rate * option.maturity) * value[gens.flat_anchor]
    return _result(price, option, gens, "coupled", t0)


def _auto_slices(gens: GeneratorSet, t: float, floor: int) -> int:
    """Slice count for the Strang product, scaled to the regime-chain stiffness.

    The splitting error grows with the commutator of the two factor
    generators; 16 sqrt(nu_Lambda T) slices keep the relative price error
    well below 1e-3 across the model families (verified against the coupled
    route), with stiff regime chains (e.g. inverse-variance volatility terms)
    driving the count up.
    """
    nu_lam = max(float(np.abs(np.diagonal(lam)).max()) for lam in gens.lambdas)
    return int(min(max(floor, np.ceil(16.0 * np.sqrt(max(nu_lam * t, 0.0)))), 4096))


def price_fast(option: OptionSpec, gens: GeneratorSet, n_slices: int = 48) -> PriceResult:
    """Decoupled pricer: M small exponentials instead of one NM x NM one.

    ``n_slices`` is a floor; stiff regime chains raise the count (see
    ``_auto_slices``).
    """
    t0 = time.perf_counter()
    pay = payoff_vector(option, gens)
    l0, i0 = gens.anchor_indices
    t_mat = option.maturity
    cap = max(gens.n, gens.m) + 1

    n_used = _auto_slices(gens, t_mat, n_slices)
    dt = t_mat / n_used
    key = (n_used, t_mat)
    if key in gens._step_cache:
        pq_half, pq_full, p_lams = gens._step_cache[key]
    else:
        pq_half = expm_dense(gens.q, dt / 2.0, dense_cap=cap)
        pq_full = expm_dense(gens.q, dt, dense_cap=cap)
        p_lams = np.stack([expm_dense(lam, dt, dense_cap=cap) for lam in gens.lambdas])
        gens._step_cache[key] = (pq_half, pq_full, p_lams)
    # [PQh PL PQh]^n collapsed: adjacent half-steps merge into full steps
    w = pq_half @ pay
    for _ in range(n_used - 1):
        w = np.matmul(p_lams, w[:, :, None])[:, :, 0]
        w = pq_full @ w
    w = np.matmul(p_lams, w[:, :, None])[:, :, 0]
    w = pq_half @ w
    price = np.exp(-option.rate * t_mat) * w[l0, i0]
    return _result(price, option, gens, "fast", t0, {"n_slices": n_used})


def price_bermudan(
    option: OptionSpec,
    gens: GeneratorSet,
    tol: float = 1e-10,
    dense_cap: int = 1024,
) -> PriceResult:
    """Backward induction over n equally spaced exercise dates.

    One transition operator exp(coupled T/n) is reused across all dates: as a
    cached dense matrix when NM is within dense_cap, otherwise through the
    uniformized action (identical results, lower memory).
    """
    if option.bermudan_dates is None:
        raise ParameterError("price_bermudan needs option.bermudan_dates")
    t0 = time.perf_counter()
    n_dates = option.bermudan_dates
    dt = option.maturity / n_dates
    disc = np.exp(-option.rate * dt)
    pay = payoff_vector(option, gens).ravel()
    size = gens.m * gens.n

    if size <= dense_cap:
        step = expm_dense(gens.coupled, dt, dense_cap=size)
        values = pay.copy()
        for _ in range(n_dates):
            values = np.maximum(disc * (step @ values), pay)
        mode = "dense-step"
    else:
        coupled = gens.coupled
        values = pay.copy()
        for _ in range(n_dates):
            values = np.maximum(disc * expm_action(coupled, values, dt, tol=tol), pay)
        mode = "action-step"
    price = values[gens.flat_anchor]
    return _result(
        price, option, gens, "bermudan", t0,
        {"bermudan_dates": n_dates, "step_mode": mode},
    )
