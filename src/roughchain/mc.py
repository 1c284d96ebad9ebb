"""Monte Carlo reference pricer for the rough and shifted-kernel models.

The variance path follows the kernel-integrated explicit scheme

    V(t_k) = V0 + sum_{j<k} [ w_{k,j} b(V_j)  +  kbar_{k,j} sigma(V_j) dB_j ]

with exact subinterval kernel integrals w_{k,j} = int_{t_j}^{t_{j+1}} K(t_k, s) ds
(closed form for the power kernel, finite across the singular endpoint) and
L2-matched diffusion weights kbar_{k,j} = sqrt(int_{t_j}^{t_{j+1}} K(t_k, s)^2 ds / dt),
so each stochastic increment carries the exact second moment of the kernel
integral over its subinterval.  A left-point rule would be badly biased for
small Hurst exponents; these weights are not.

Randomness comes from the counter-based Philox generator: batch b of a run
draws from ``Philox(key=seed).jumped(b)``, which gives documented,
order-independent stream splitting and bit-identical results for a fixed
(config, seed).  Batch reductions use fixed-shape numpy sums (pairwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ParameterError
from .kernel import KernelSpec
from .models import MarketParams, ModelSpec
from .pricing import OptionSpec, _rate

__all__ = ["McConfig", "simulate_v", "mc_price", "estimate_l2_rate"]

_BATCH = 8192


@dataclass(frozen=True)
class McConfig:
    paths: int
    steps: int                 # time steps per unit maturity
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        for name in ("paths", "steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if self.paths < 1 or self.steps < 1:
            raise ParameterError("paths and steps must be >= 1")
        if not isinstance(self.antithetic, bool):
            raise ParameterError(f"antithetic must be true or false, got {self.antithetic!r}")

    def n_steps(self, horizon: float) -> int:
        return max(1, int(round(self.steps * horizon)))


def _kernel_weights(times: np.ndarray, hurst: float, shift: float):
    """Drift and L2-matched diffusion weight matrices, shape (k, j), j <= k-1.

    Row k-1 holds the weights that advance the path to times[k]; entries with
    j >= k are zero.
    """
    a = hurst + 0.5
    gam = math.gamma(a)
    k_steps = len(times) - 1
    dt = times[1] - times[0]
    row, j = np.tril_indices(k_steps)      # row k - 1 holds j = 0 .. k - 1
    hi = times[row + 1] + shift - times[j]       # t_k + shift - t_j
    lo = times[row + 1] + shift - times[j + 1]   # t_k + shift - t_{j+1}
    wb = np.zeros((k_steps, k_steps))
    kb = np.zeros((k_steps, k_steps))
    wb[row, j] = (hi**a - lo**a) / (a * gam)
    k2 = (hi ** (2 * hurst) - lo ** (2 * hurst)) / (2 * hurst * gam**2)
    kb[row, j] = np.sqrt(np.maximum(k2, 0.0) / dt)
    return wb, kb


def _draw_normals(rng, m, k, antithetic):
    if antithetic:
        half = (m + 1) // 2
        z = rng.standard_normal((half, k))
        return np.concatenate([z, -z])[:m]
    return rng.standard_normal((m, k))


def _batches(mc: McConfig, horizon: float, draws: int = 1):
    """Time grid, step length and the Brownian increments of each batch of paths.

    Returns (times, dt, batches): batches yields, per batch of at most _BATCH
    paths, ``draws`` arrays of shape (m, steps), drawn in order from the
    batch's stream ``Philox(key=seed).jumped(b)``.
    """
    k_steps = mc.n_steps(horizon)
    times = np.linspace(0.0, horizon, k_steps + 1)
    dt = horizon / k_steps

    def batches():
        for b, start in enumerate(range(0, mc.paths, _BATCH)):
            m = min(_BATCH, mc.paths - start)
            rng = np.random.Generator(np.random.Philox(key=mc.seed).jumped(b))
            yield [_draw_normals(rng, m, k_steps, mc.antithetic) * np.sqrt(dt)
                   for _ in range(draws)]

    return times, dt, batches()


def _v_positive_part(v, model: ModelSpec):
    if model.variance_domain == "positive":
        return np.maximum(v, 0.0)
    return v


def simulate_v(
    model: ModelSpec,
    market: MarketParams,
    mc: McConfig,
    horizon: float,
    kernel: KernelSpec,
    perturbed: bool = False,
) -> np.ndarray:
    """Variance paths on the uniform time grid, shape (paths, steps + 1).

    ``perturbed=False`` uses the singular kernel (rough model);
    ``perturbed=True`` uses the shifted kernel with the given eps.
    """
    times, _, batches = _batches(mc, horizon)
    wb, kb = _kernel_weights(times, kernel.hurst, kernel.eps if perturbed else 0.0)
    out = np.empty((mc.paths, len(times)))
    for b, (db,) in enumerate(batches):
        out[b * _BATCH:b * _BATCH + len(db)] = _v_recursion(model, market.v0, wb, kb, db)
    return out


def _v_recursion(model, v0, wb, kb, db):
    m, k_steps = db.shape
    v = np.full((m, k_steps + 1), v0)
    b_hist = np.empty((m, k_steps))
    s_hist = np.empty((m, k_steps))
    for k in range(k_steps):
        vp = _v_positive_part(v[:, k], model)
        b_hist[:, k] = model.b(vp)
        s_hist[:, k] = model.sigma(vp) * db[:, k]
        v[:, k + 1] = v0 + b_hist[:, :k + 1] @ wb[k, :k + 1] \
            + s_hist[:, :k + 1] @ kb[k, :k + 1]
    return v


def _is_log_asset(model: ModelSpec) -> bool:
    probe = np.array([0.5, 1.0, 2.0, 7.0])
    return bool(np.allclose(model.nu(probe), probe))


def mc_price(
    option: OptionSpec,
    model: ModelSpec,
    market: MarketParams,
    kernel: KernelSpec,
    mc: McConfig,
    perturbed: bool = False,
) -> tuple[float, float]:
    """Discounted payoff mean and standard error under joint (S, V) simulation.

    S uses a log-Euler step when nu(s) = s (positivity-preserving), otherwise
    a direct Euler step; V follows the kernel-integrated scheme with the
    rough or shifted kernel.  Correlation enters through dW = rho dB +
    sqrt(1-rho^2) dBperp.  The payoff is discounted at the model's r.
    """
    horizon = option.maturity
    disc = np.exp(-_rate(option, model) * horizon)
    times, dt, batches = _batches(mc, horizon, draws=2)
    wb, kb = _kernel_weights(times, kernel.hurst, kernel.eps if perturbed else 0.0)
    rho = market.rho
    r, q = model.rates
    log_asset = _is_log_asset(model)

    total = 0.0
    total_sq = 0.0
    for db, dperp in batches:
        m, k_steps = db.shape
        dw = rho * db + np.sqrt(1.0 - rho * rho) * dperp

        v = _v_recursion(model, market.v0, wb, kb, db)
        if log_asset:
            log_s = np.full(m, np.log(market.s0))
        else:
            s = np.full(m, market.s0)
        for k in range(k_steps):
            vp = _v_positive_part(v[:, k], model)
            phi = model.phi(vp)
            if log_asset:
                log_s += (r - q - 0.5 * phi**2) * dt + phi * dw[:, k]
            else:
                s += (r - q) * s * dt + phi * model.nu(s) * dw[:, k]
                if model.asset_domain == "positive":
                    s = np.maximum(s, 0.0)
        s_T = np.exp(log_s) if log_asset else s
        pay = option.payoff(s_T) * disc
        total += float(np.sum(pay))
        total_sq += float(np.sum(pay * pay))

    count = mc.paths
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0) * count / max(count - 1, 1)
    stderr = np.sqrt(var / count)
    return mean, float(stderr)


def estimate_l2_rate(
    eps_list,
    model: ModelSpec,
    market: MarketParams,
    mc: McConfig,
    horizon: float,
    hurst: float,
) -> tuple[float, list[tuple[float, float]]]:
    """Least-squares slope of log E|V^eps_T - V_T|^2 against log eps.

    The rough path and every shifted-kernel path share the same Brownian
    increments (same seed and batch structure), so the gap isolates the
    kernel perturbation.
    """
    eps_list = [float(e) for e in sorted(eps_list)]
    if len(eps_list) < 2:
        raise ParameterError("need at least two eps values to fit a slope")
    times, _, batches = _batches(mc, horizon)
    wb_r, kb_r = _kernel_weights(times, hurst, 0.0)
    weights = [_kernel_weights(times, hurst, eps) for eps in eps_list]
    acc = [0.0] * len(eps_list)
    for (db,) in batches:
        v_rough = _v_recursion(model, market.v0, wb_r, kb_r, db)[:, -1]
        for i, (wb_p, kb_p) in enumerate(weights):
            v_pert = _v_recursion(model, market.v0, wb_p, kb_p, db)[:, -1]
            diff = v_pert - v_rough
            acc[i] += float(np.sum(diff * diff))
    gaps = [(eps, a / mc.paths) for eps, a in zip(eps_list, acc)]
    logs = np.log([g for _, g in gaps])
    slope = float(np.polyfit(np.log(eps_list), logs, 1)[0])
    return slope, gaps
