"""Monte Carlo reference pricer for the rough and shifted-kernel models.

The variance path follows the kernel-integrated explicit scheme

    V(t_k) = V0 + sum_{j<k} [ w_{k,j} b(V_j)  +  kbar_{k,j} sigma(V_j) dB_j ]

with exact subinterval kernel integrals w_{k,j} = int_{t_j}^{t_{j+1}} K(t_k, s) ds
(closed form for the power kernel, finite across the singular endpoint) and
L2-matched diffusion weights kbar_{k,j} = sqrt(int_{t_j}^{t_{j+1}} K(t_k, s)^2 ds / dt),
so each stochastic increment carries the exact second moment of the kernel
integral over its subinterval.  A left-point rule would be badly biased for
small Hurst exponents; these weights are not.

The recursion runs time-major on a batch of paths: V, the increments and the
history b(V_j), sigma(V_j) dB_j are (steps, paths) arrays read as contiguous
rows, and the two weight matrices are interleaved column by column, so each
step is one product.  Steps come in blocks of _BLOCK: at the start of a block
one matrix product (GEMM) adds the terms of every completed block to the
block's rows of V, and inside the block each step sums only the block's own
history.  The flops stay steps^2 x paths.

Summation order is the only difference from a step-by-step sum, so where b
and sigma are Lipschitz on the simulated range (the constant-coefficient
oracle, rough-sabr, rough-alpha-hyper) paths agree with it to rounding
(1e-12 relative, tested).  The four sqrt(v) families' sigma sqrt(v+) is not
Lipschitz at 0, and their paths sit on the floor for much of the horizon, so
each visit can amplify a rounding change (delta -> sqrt(delta)), as any
change of summation order or BLAS kernel does: a few paths in 10^4 diverge,
and price estimates move by up to about 1e-3 standard errors.  Results are
bit for bit the same for a fixed config, seed and build.  A payoff that is not finite
(rough-42, whose phi is infinite at V = 0) makes ``mc_price`` warn, saying
why, and return nan; ``compare-mc`` turns that into a NumericalError.

Randomness comes from the counter-based Philox generator: batch b of a run
draws from ``Philox(key=seed).jumped(b)``, which gives documented,
order-independent stream splitting and bit-identical results for a fixed
(config, seed).  So the increments depend only on the seed, the paths and
batch size, the steps, the horizon and the number of draws, and runs that
agree on all of these share them: the increments of the last run of at most
_KEEP_BYTES (4 MiB) are kept read-only, and a second price at that config
draws nothing.  A larger run is drawn batch by batch and not kept.  Batch
reductions use fixed-shape numpy sums (pairwise).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ParameterError
from .kernel import KernelSpec
from .models import MarketParams, ModelSpec
from .pricing import OptionSpec, _rate

__all__ = ["McConfig", "simulate_v", "mc_price", "estimate_l2_rate"]

_BATCH = 8192
_BLOCK = 16     # recursion steps per block: the fastest of 4..64 at 8192 paths x 256 steps
# Bytes of Brownian increments kept across runs, so that repeated prices at one
# config skip the Philox draws (about 19 ns a normal).  1024 paths x 128 steps
# x 2 draws (2 MiB, the benchmark's Monte Carlo config) fit: a call priced
# there takes 5.4-7.7 ms warm against 14.8-17.0 ms cold (rough-heston,
# rough-sabr, rough-quadratic-slv; one core, BLAS on one thread).  compare-mc's
# default 100000 x 256 (13 batches of 33.5 MB) is drawn batch by batch, never kept.
_KEEP_BYTES = 4 * 2**20
NON_FINITE_ADVICE = (
    "phi(V) can be infinite where the variance reaches 0, as rough-42's "
    "phi = a sqrt(v) + b/sqrt(v) is when 2 eta theta < sigma^2.  Monte Carlo cannot "
    "price such a model; use the chain price, or parameters whose variance paths "
    "stay above 0")


@dataclass(frozen=True)
class McConfig:
    paths: int
    steps: int                 # time steps per unit maturity
    seed: int = 0              # a Philox key

    def __post_init__(self):
        for name in ("paths", "steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if self.paths < 1 or self.steps < 1:
            raise ParameterError("paths and steps must be >= 1")
        if not 0 <= self.seed < 2**128:
            raise ParameterError(f"seed must be a Philox key in [0, 2**128), got {self.seed}")

    def n_steps(self, horizon: float) -> int:
        return max(1, int(round(self.steps * horizon)))


@functools.lru_cache(maxsize=8)
def _kernel_weights(k_steps: int, horizon: float, hurst: float, shift: float) -> np.ndarray:
    """Drift and L2-matched diffusion weights, interleaved, shape (steps, 2 steps).

    On the grid times = linspace(0, horizon, k_steps + 1), row k-1 holds the
    weights that advance the path to times[k]: column 2j the drift weight
    w_{k,j} and column 2j+1 the diffusion weight kbar_{k,j}, for j <= k-1;
    the entries of columns 2j and 2j+1 with j >= k are zero.  Cached and
    read-only: repeated prices at one grid, Hurst index and shift reuse the
    matrix (128 x 256 at 256 steps over T = 0.5) instead of recomputing its
    fractional powers.
    """
    a = hurst + 0.5
    gam = math.gamma(a)
    times = np.linspace(0.0, horizon, k_steps + 1)
    dt = times[1] - times[0]
    row, j = np.tril_indices(k_steps)      # row k - 1 holds j = 0 .. k - 1
    hi = times[row + 1] + shift - times[j]       # t_k + shift - t_j
    lo = times[row + 1] + shift - times[j + 1]   # t_k + shift - t_{j+1}
    wts = np.zeros((k_steps, 2 * k_steps))
    wts[row, 2 * j] = (hi**a - lo**a) / (a * gam)
    k2 = (hi ** (2 * hurst) - lo ** (2 * hurst)) / (2 * hurst * gam**2)
    wts[row, 2 * j + 1] = np.sqrt(np.maximum(k2, 0.0) / dt)
    wts.flags.writeable = False
    return wts


def _draw_normals(rng, m, k):
    """One batch's standard normals, (m, k): the one place a run draws."""
    return rng.standard_normal((m, k))


def _batches(mc: McConfig, horizon: float, draws: int = 1):
    """Step length and the Brownian increments of each batch of paths.

    Returns (dt, batches): batches yields, per batch of at most _BATCH
    paths, a tuple of ``draws`` read-only, time-major arrays of shape (steps, m),
    drawn in order from the batch's stream ``Philox(key=seed).jumped(b)``.  A run
    whose increments fit _KEEP_BYTES is drawn whole and kept (``_kept_run``)
    until another kept run replaces it; the kept run is not drawn again.
    """
    k_steps = mc.n_steps(horizon)
    dt = horizon / k_steps
    if mc.paths * k_steps * draws * 8 > _KEEP_BYTES:
        return dt, _draw_run(mc, k_steps, dt, draws, _BATCH)
    return dt, iter(_kept_run(mc, k_steps, horizon, draws, _BATCH))


@functools.lru_cache(maxsize=1)
def _kept_run(mc: McConfig, k_steps: int, horizon: float, draws: int, size: int) -> tuple:
    """The last run drawn whole: its batches of read-only increments."""
    return tuple(_draw_run(mc, k_steps, horizon / k_steps, draws, size))


def _draw_run(mc: McConfig, k_steps: int, dt: float, draws: int, size: int):
    """Yields each batch's ``draws`` read-only increment arrays, batches of ``size`` paths."""
    for b, start in enumerate(range(0, mc.paths, size)):
        m = min(size, mc.paths - start)
        rng = np.random.Generator(np.random.Philox(key=mc.seed).jumped(b))
        batch = tuple(np.multiply(_draw_normals(rng, m, k_steps).T, np.sqrt(dt),
                                  out=np.empty((k_steps, m)))
                      for _ in range(draws))
        for d in batch:
            d.flags.writeable = False
        yield batch


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
    _, batches = _batches(mc, horizon)
    k_steps = mc.n_steps(horizon)
    wts = _kernel_weights(k_steps, horizon, kernel.hurst, kernel.eps if perturbed else 0.0)
    out = np.empty((mc.paths, k_steps + 1))
    for b, (db,) in enumerate(batches):
        out[b * _BATCH:b * _BATCH + db.shape[1]] = _v_recursion(model, market.v0, wts, db).T
    return out


def _v_recursion(model, v0, wts, db):
    """Time-major variance paths, shape (steps + 1, m), from increments (steps, m).

    Rows 2j and 2j+1 of the history hold b(V_j) and sigma(V_j) dB_j, matching
    the columns of ``wts``.  At the start of each block of _BLOCK steps one
    matrix product adds the terms of every earlier block to the block's rows
    of V; inside the block each step adds only the block's own history.
    """
    k_steps, m = db.shape
    v = np.full((k_steps + 1, m), v0)
    hist = np.empty((2 * k_steps, m))
    for start in range(0, k_steps, _BLOCK):
        end = min(start + _BLOCK, k_steps)
        if start:
            v[start + 1:end + 1] += wts[start:end, :2 * start] @ hist[:2 * start]
        for k in range(start, end):
            vp = _v_positive_part(v[k], model)
            hist[2 * k] = model.b(vp)
            np.multiply(model.sigma(vp), db[k], out=hist[2 * k + 1])
            v[k + 1] += wts[k, 2 * start:2 * k + 2] @ hist[2 * start:2 * k + 2]
    return v


def mc_price(
    option: OptionSpec,
    model: ModelSpec,
    market: MarketParams,
    kernel: KernelSpec,
    mc: McConfig,
    perturbed: bool = False,
) -> tuple[float, float]:
    """Discounted payoff mean and standard error under joint (S, V) simulation.

    S takes a log-Euler step (positivity-preserving) exactly when the family's
    asset transform g is np.log, otherwise a direct Euler step; V follows the
    kernel-integrated scheme with the rough or shifted kernel.  Correlation
    enters through dW = rho dB + sqrt(1-rho^2) dBperp.  The payoff is
    discounted at the model's r.
    """
    horizon = option.maturity
    disc = np.exp(-_rate(option, model) * horizon)
    dt, batches = _batches(mc, horizon, draws=2)
    wts = _kernel_weights(mc.n_steps(horizon), horizon, kernel.hurst,
                          kernel.eps if perturbed else 0.0)
    rho = market.rho
    r, q = model.rates

    total = 0.0
    total_sq = 0.0
    for db, dperp in batches:
        k_steps, m = db.shape
        dw = np.multiply(dperp, np.sqrt(1.0 - rho * rho))
        np.add(rho * db, dw, out=dw)

        v = _v_recursion(model, market.v0, wts, db)
        phi = model.phi(_v_positive_part(v[:-1], model))    # phi(V+_k), k < steps
        if model.g is np.log:
            # log-Euler increments (r - q - phi^2 / 2) dt + phi dW, added to log s0 row
            # by row in step order, as a loop over the steps adds them
            inc = np.square(phi)
            inc *= 0.5
            np.subtract(r - q, inc, out=inc)
            inc *= dt
            inc += np.multiply(dw, phi, out=dw)
            log_s = np.full(m, np.log(market.s0))
            for row in inc:
                log_s += row
            s_T = np.exp(log_s)
        else:
            s = np.full(m, market.s0)
            for k in range(k_steps):
                s += (r - q) * s * dt + phi[k] * model.nu(s) * dw[k]
                if model.asset_domain == "positive":
                    s = np.maximum(s, 0.0)
            s_T = s
        pay = option.payoff(s_T) * disc
        total += float(np.sum(pay))
        total_sq += float(np.sum(pay * pay))
        if not (math.isfinite(total) and math.isfinite(total_sq)):
            warnings.warn(
                f"Monte Carlo payoff of {model.name} is not finite on "
                f"{np.count_nonzero(~np.isfinite(pay))} of {m} paths of a batch, and "
                f"{np.count_nonzero((v <= 0.0).any(axis=0))} of the {m} paths reach V <= 0.  "
                f"{NON_FINITE_ADVICE}.  Returning nan",
                RuntimeWarning, stacklevel=2)
            return math.nan, math.nan

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
    _, batches = _batches(mc, horizon)
    k_steps = mc.n_steps(horizon)
    wts_r = _kernel_weights(k_steps, horizon, hurst, 0.0)
    weights = [_kernel_weights(k_steps, horizon, hurst, eps) for eps in eps_list]
    acc = [0.0] * len(eps_list)
    for (db,) in batches:
        v_rough = _v_recursion(model, market.v0, wts_r, db)[-1]
        for i, wts_p in enumerate(weights):
            v_pert = _v_recursion(model, market.v0, wts_p, db)[-1]
            diff = v_pert - v_rough
            acc[i] += float(np.sum(diff * diff))
    gaps = [(eps, a / mc.paths) for eps, a in zip(eps_list, acc)]
    logs = np.log([g for _, g in gaps])
    slope = float(np.polyfit(np.log(eps_list), logs, 1)[0])
    return slope, gaps
