"""Acceptance criteria, one printed pass/fail line per check.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are fixed
here, not calibrated.  Checks that cannot be met by a faithful implementation
at the stated parameters fail honestly; the analysis lives in the project
notes, and the printed lines carry the measured numbers either way.
"""

import time

import numpy as np
import pytest

from roughchain import (
    KernelSpec,
    MarketParams,
    McConfig,
    OptionSpec,
    assemble,
    expm_action,
    expm_dense,
    estimate_l2_rate,
    laplace_constants,
    laplace_quadrature,
    make_model,
    mc_price,
    payoff_vector,
    perturbed_kernel,
    price_bermudan,
    price_european_coupled,
    price_fast,
    validate_generator,
)
from roughchain.models import MODEL_NAMES
from roughchain.presets import REFERENCE_PRICES, model_params

from conftest import dense

KERNEL = KernelSpec(hurst=0.12, eps=1e-8)
MARKET = MarketParams(s0=10.0, v0=0.04, rho=-0.75)
EUROPEAN = OptionSpec("call", 4.0, 1.0)
BARRIER = OptionSpec("call", 4.0, 1.0, barrier=(2.0, 15.0))
AMERICAN = OptionSpec("call", 4.0, 1.0, bermudan_dates=50)

_SYSTEMS = {}


def fresh_system(name, size=100, eps=1e-8):
    return assemble(
        make_model(name, model_params(name)),
        MARKET,
        KernelSpec(hurst=0.12, eps=eps),
        n=size,
        m=size,
    )


def system(name, size=100, eps=1e-8):
    key = (name, size, eps)
    if key not in _SYSTEMS:
        _SYSTEMS[key] = fresh_system(name, size, eps)
    return _SYSTEMS[key]


def cold_price(option, name):
    """Fast price and the best wall time of three cold prices.

    Each price runs on a freshly assembled system, so its exponential cache
    is empty.  The first BLAS call in a process also starts the BLAS thread
    pool (about 0.8 s with OpenBLAS), so a single timing would depend on
    which test runs first; the best of three does not.
    """
    runs = [price_fast(option, fresh_system(name)) for _ in range(3)]
    return runs[-1], min(r.diagnostics["wall_time"] for r in runs)


def report(tag, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    return ok


# --------------------------------------------------------------------------
# Criterion 1: European reproduction, N=M=100, eps=1e-8, 1% of benchmarks
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", MODEL_NAMES)
def test_criterion_1_european(name):
    bench = REFERENCE_PRICES[name]["european"]
    res, wall = cold_price(EUROPEAN, name)
    rel = abs(res.price - bench) / bench
    ok = rel <= 0.01 and wall <= 1.0
    report(f"criterion 1 ({name})",
           ok, f"price={res.price:.6g} benchmark={bench} rel={rel:.2e} time={wall:.2f}s")
    assert rel <= 0.01, f"relative error {rel:.3e} above 1%"
    assert wall <= 1.0, f"fast pricer took {wall:.2f}s"


# --------------------------------------------------------------------------
# Criterion 2: barrier (L=2, U=15) reproduction, 1%
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", MODEL_NAMES)
def test_criterion_2_barrier(name):
    bench = REFERENCE_PRICES[name]["barrier"]
    res, wall = cold_price(BARRIER, name)
    rel = abs(res.price - bench) / bench
    ok = rel <= 0.01 and wall <= 1.0
    report(f"criterion 2 ({name})",
           ok, f"price={res.price:.6g} benchmark={bench} rel={rel:.2e} time={wall:.2f}s")
    assert rel <= 0.01, f"relative error {rel:.3e} above 1%"
    assert wall <= 1.0, f"fast pricer took {wall:.2f}s"


# --------------------------------------------------------------------------
# Criterion 3: Bermudan n=50 reproduction, 1.5%, <= 5 min each
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", MODEL_NAMES)
def test_criterion_3_american(name):
    bench = REFERENCE_PRICES[name]["american"]
    t0 = time.perf_counter()
    res = price_bermudan(AMERICAN, system(name))
    wall = time.perf_counter() - t0
    rel = abs(res.price - bench) / bench
    ok = rel <= 0.015 and wall <= 300.0
    report(f"criterion 3 ({name})",
           ok, f"price={res.price:.6g} benchmark={bench} rel={rel:.2e} time={wall:.1f}s")
    assert wall <= 300.0, f"bermudan took {wall:.1f}s"
    assert rel <= 0.015, f"relative error {rel:.3e} above 1.5%"


# --------------------------------------------------------------------------
# Criterion 4: eps-convergence shape
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", MODEL_NAMES)
def test_criterion_4_eps_shape(name):
    eps_list = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    prices = [price_fast(EUROPEAN, system(name, eps=e)).price for e in eps_list]
    gaps = [abs(a - b) for a, b in zip(prices, prices[1:])]
    last_rel = gaps[-1] / abs(prices[-1])
    monotone = all(g2 <= 1.5 * g1 for g1, g2 in zip(gaps, gaps[1:]))
    ok = last_rel <= 5e-3 and monotone
    report(f"criterion 4 ({name})",
           ok, f"last gap rel={last_rel:.2e} gaps={['%.2e' % g for g in gaps]}")
    assert last_rel <= 5e-3
    assert monotone, f"gap sequence not non-increasing within 1.5x: {gaps}"


# --------------------------------------------------------------------------
# Criterion 5: semimartingale L2 rate on rough Heston
# --------------------------------------------------------------------------

def test_criterion_5_l2_rate():
    model = make_model("rough-heston", model_params("rough-heston"))
    t0 = time.perf_counter()
    slope, gaps = estimate_l2_rate(
        [1e-1, 1e-2, 1e-3, 1e-4], model, MARKET,
        McConfig(paths=20000, steps=512, seed=77), 1.0, hurst=0.12,
    )
    wall = time.perf_counter() - t0
    ok = 0.47 <= slope <= 0.77 and wall <= 600.0
    report("criterion 5", ok,
           f"slope={slope:.3f} target window [0.47, 0.77] time={wall:.0f}s "
           f"gaps={[(f'{e:.0e}', f'{g:.2e}') for e, g in gaps]}")
    assert wall <= 600.0
    assert 0.47 <= slope <= 0.77, (
        f"measured slope {slope:.3f}; the kernel-difference integral gives the "
        f"squared gap an eps^(2H) = eps^0.24 leading order, so the window "
        f"around H+1/2 cannot be met (see project notes)"
    )


# --------------------------------------------------------------------------
# Criterion 6: property suite
# --------------------------------------------------------------------------

def test_criterion_6_generator_properties():
    gens = system("rough-heston")
    worst_row = max(
        validate_generator(g)["max_abs_row_sum"] / max(1.0, validate_generator(g)["nu"])
        for g in (gens.q, *dense(gens.lambdas))
    )
    min_off = min(
        validate_generator(g)["min_off_diagonal"] for g in (gens.q, *dense(gens.lambdas))
    )
    ok = worst_row <= 1e-12 and min_off >= 0.0
    report("criterion 6 (generators)", ok,
           f"max row-sum defect={worst_row:.2e} min off-diag={min_off:.2e} at N=M=100")
    assert ok


def test_criterion_6_moment_matching():
    gens = system("rough-heston", size=60)
    v = gens.vgrid.nodes
    _, _, rhat = laplace_constants(gens.kernel)
    drift_want = (v - MARKET.v0) * rhat + gens.model.b(v)
    drift_err = np.abs((gens.q @ v - drift_want)[1:-1]).max()
    # second moments on rows where the central solution is valid
    s2 = gens.model.sigma(v) ** 2
    h = gens.vgrid.spacings
    central = (s2[1:-1] - np.abs(drift_want[1:-1]) * np.maximum(h[:-1], h[1:])) > 0
    sq = np.array([gens.q[i] @ (v - v[i]) ** 2 for i in range(1, len(v) - 1)])
    sq_err = np.abs(sq[central] - s2[1:-1][central]).max()
    ok = drift_err <= 1e-10 * max(1.0, np.abs(drift_want).max()) and sq_err <= 1e-10 * s2.max()
    report("criterion 6 (moment matching)", ok,
           f"first-moment err={drift_err:.2e} second-moment err={sq_err:.2e}")
    assert ok


def test_criterion_6_kernel_identity():
    worst = 0.0
    for h in (0.05, 0.12, 0.3, 0.45):
        spec = KernelSpec(hurst=h, eps=1e-4)
        _, r, _ = laplace_constants(spec)
        r_q = laplace_quadrature("R", spec, tol=1e-11)
        worst = max(worst, abs(r - r_q) / r_q)
        rep = laplace_quadrature("kernel", spec, tol=1e-12, t=1.0, s=0.25)
        worst = max(worst, abs(rep - perturbed_kernel(1.0, 0.25, spec)) / rep)
    ok = worst <= 1e-8
    report("criterion 6 (kernel Laplace identity)", ok, f"worst rel err={worst:.2e}")
    assert ok


def test_criterion_6_expm_properties():
    rng = np.random.default_rng(13)
    a = rng.random((60, 60))
    np.fill_diagonal(a, 0.0)
    gen = a - np.diag(a.sum(axis=1))
    w = rng.random(60)
    conserve = np.abs(expm_action(gen, np.ones(60), 1.0, tol=1e-12) - 1.0).max()
    pos = expm_action(gen, w, 1.0, tol=1e-12).min()
    semi = np.abs(
        expm_action(gen, expm_action(gen, w, 0.35, tol=1e-13), 0.65, tol=1e-13)
        - expm_action(gen, w, 1.0, tol=1e-13)
    ).max()
    dense_gap = np.abs(expm_dense(gen, 1.0) @ w - expm_action(gen, w, 1.0, tol=1e-13)).max()
    ok = conserve <= 1e-10 and pos >= -1e-12 and semi <= 1e-10 and dense_gap <= 1e-10
    report("criterion 6 (matrix exponential)", ok,
           f"conservation={conserve:.2e} min={pos:.2e} semigroup={semi:.2e} dense-vs-action={dense_gap:.2e}")
    assert ok


def test_criterion_6_pricing_identities():
    # exercise-free identity is checked at a size where the chain's
    # exponential-moment weak error does not yet rectify into a phantom
    # premium under the backward induction; at N=M=100 that rectification
    # amounts to ~0.2% and is the same artifact visible in the published
    # American-vs-European gaps at zero rates (see project notes)
    gens = system("rough-heston", size=40)
    eu = price_fast(EUROPEAN, gens).price
    b1 = price_bermudan(OptionSpec("call", 4.0, 1.0, bermudan_dates=1), gens).price
    b16 = price_bermudan(OptionSpec("call", 4.0, 1.0, bermudan_dates=16), gens).price
    wide = OptionSpec("call", 4.0, 1.0, barrier=(0.0, 1e12))
    same_vec = np.array_equal(payoff_vector(wide, gens), payoff_vector(EUROPEAN, gens))
    fwd = price_fast(OptionSpec("call", 0.0, 1.0), system("rough-heston", size=100)).price
    checks = {
        "bermudan n=1 == european (1e-12)": abs(b1 - eu) <= 1e-12 * max(1.0, eu),
        "call no early exercise (1e-9)": abs(b16 - eu) <= 1e-9 * max(1.0, eu),
        "barrier(0, inf) == european": same_vec,
        "D=0 european ~ s0 (2%)": abs(fwd - 10.0) <= 0.2,
    }
    ok = all(checks.values())
    report("criterion 6 (pricing identities)", ok,
           "; ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items())
           + f" (b1-eu={b1 - eu:.2e}, b16-eu={b16 - eu:.2e}, fwd={fwd:.4f})")
    assert ok


# --------------------------------------------------------------------------
# Criterion 7: oracle agreement
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", MODEL_NAMES)
def test_criterion_7_fast_vs_coupled(name):
    gens = system(name, size=30)
    fast = price_fast(EUROPEAN, gens).price
    coupled = price_european_coupled(EUROPEAN, gens).price
    rel = abs(fast - coupled) / abs(coupled)
    ok = rel <= 5e-3
    report(f"criterion 7 ({name})", ok,
           f"fast={fast:.6g} coupled={coupled:.6g} rel gap={rel:.2e} at N=M=30")
    assert ok


def test_criterion_7_mc_agreement():
    model = make_model("rough-heston", model_params("rough-heston"))
    ctmc = price_fast(EUROPEAN, system("rough-heston")).price
    t0 = time.perf_counter()
    estimate, stderr = mc_price(
        EUROPEAN, model, MARKET, KERNEL, McConfig(paths=100000, steps=256, seed=20240)
    )
    wall = time.perf_counter() - t0
    z = abs(ctmc - estimate) / stderr
    ok = z <= 3.0
    report("criterion 7 (MC)", ok,
           f"ctmc={ctmc:.4f} mc={estimate:.4f}+-{stderr:.4f} |z|={z:.2f} time={wall:.0f}s")
    assert ok, f"CTMC price {ctmc:.4f} deviates {z:.1f} stderr from MC {estimate:.4f}"


# --------------------------------------------------------------------------
# Criterion 8: performance scaling and fast/coupled crossover
# --------------------------------------------------------------------------

def test_criterion_8_scaling():
    model = make_model("rough-heston", model_params("rough-heston"))

    def fast_time(size):
        # end-to-end pricing cost of a fresh request: build + fast evaluation
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            gens = assemble(model, MARKET, KERNEL, n=size, m=size)
            price_fast(EUROPEAN, gens)
            best = min(best, time.perf_counter() - t0)
        return best

    t50, t100 = fast_time(50), fast_time(100)
    gens = system("rough-heston", size=100)
    t0 = time.perf_counter()
    coupled = price_european_coupled(EUROPEAN, gens)
    t_coupled = time.perf_counter() - t0
    assert coupled.diagnostics["terminal_cache_hit"] is False  # a cold coupled law was timed
    ratio = t100 / t50
    crossover = t_coupled / t100
    ok = ratio <= 10.0 and crossover >= 5.0
    report("criterion 8", ok,
           f"fast 50->100 ratio={ratio:.1f} (t50={t50*1e3:.0f}ms t100={t100*1e3:.0f}ms); "
           f"coupled/fast at 100 = {crossover:.1f}x (coupled {t_coupled:.1f}s)")
    assert ratio <= 10.0
    assert crossover >= 5.0
