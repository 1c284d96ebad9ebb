import dataclasses

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from roughchain import (
    MODEL_NAMES,
    KernelSpec,
    MarketParams,
    McConfig,
    OptionSpec,
    ParameterError,
    estimate_l2_rate,
    make_model,
    mc_price,
    simulate_v,
)
from roughchain import mc as mc_module
from roughchain.cli import default_config
from roughchain.presets import model_params

# 0.04 + 2 / Gamma(1.62), frozen with 40-digit arithmetic
DET_VOLTERRA_T1 = 2.2723330326861803731


def _const_coeff_model(heston, b_const, sigma_const, phi_const=None):
    """Variance coefficients overridden by constants (oracle configurations)."""
    kw = dict(
        b=lambda v: np.full_like(np.asarray(v, float), b_const),
        sigma=lambda v: np.full_like(np.asarray(v, float), sigma_const),
        sigma_prime=lambda v: np.zeros_like(np.asarray(v, float)),
        variance_domain="real",
    )
    if phi_const is not None:
        kw["phi"] = lambda v: np.full_like(np.asarray(v, float), phi_const)
        kw["phi_prime"] = lambda v: np.zeros_like(np.asarray(v, float))
    return dataclasses.replace(heston, **kw)


def _path_major_v(model, market, mc, horizon, kernel, perturbed=False):
    """Reference recursion: one path per row, two history matvecs per step."""
    from roughchain.mc import _BATCH, _kernel_weights

    k_steps = mc.n_steps(horizon)
    dt = horizon / k_steps
    wts = _kernel_weights(k_steps, horizon, kernel.hurst, kernel.eps if perturbed else 0.0)
    wb, kb = wts[:, 0::2], wts[:, 1::2]
    out = []
    for b, start in enumerate(range(0, mc.paths, _BATCH)):
        m = min(_BATCH, mc.paths - start)
        rng = np.random.Generator(np.random.Philox(key=mc.seed).jumped(b))
        if mc.antithetic:
            z = rng.standard_normal(((m + 1) // 2, k_steps))
            z = np.concatenate([z, -z])[:m]
        else:
            z = rng.standard_normal((m, k_steps))
        db = z * np.sqrt(dt)
        v = np.full((m, k_steps + 1), market.v0)
        b_hist = np.empty((m, k_steps))
        s_hist = np.empty((m, k_steps))
        for k in range(k_steps):
            vp = np.maximum(v[:, k], 0.0) if model.variance_domain == "positive" else v[:, k]
            b_hist[:, k] = model.b(vp)
            s_hist[:, k] = model.sigma(vp) * db[:, k]
            v[:, k + 1] = market.v0 + b_hist[:, :k + 1] @ wb[k, :k + 1] \
                + s_hist[:, :k + 1] @ kb[k, :k + 1]
        out.append(v)
    return np.concatenate(out)


def _step_loop_price(option, model, market, kernel, mc):
    """Reference estimate: phi and the asset advanced one time step at a time."""
    from roughchain.mc import (_batches, _is_log_asset, _kernel_weights, _v_positive_part,
                               _v_recursion)

    _, dt, batches = _batches(mc, option.maturity, draws=2)
    wts = _kernel_weights(mc.n_steps(option.maturity), option.maturity, kernel.hurst, 0.0)
    (r, q), rho, log_asset = model.rates, market.rho, _is_log_asset(model)
    pays = []
    for db, dperp in batches:
        dw = rho * db + np.sqrt(1.0 - rho * rho) * dperp
        v = _v_recursion(model, market.v0, wts, db)
        log_s = np.full(db.shape[1], np.log(market.s0))
        s = np.full(db.shape[1], market.s0)
        for k in range(db.shape[0]):
            phi = model.phi(_v_positive_part(v[k], model))
            if log_asset:
                log_s += (r - q - 0.5 * phi**2) * dt + phi * dw[k]
            else:
                s += (r - q) * s * dt + phi * model.nu(s) * dw[k]
                if model.asset_domain == "positive":
                    s = np.maximum(s, 0.0)
        pays.append(option.payoff(np.exp(log_s) if log_asset else s)
                    * np.exp(-r * option.maturity))
    total = sum(float(np.sum(p)) for p in pays)
    total_sq = sum(float(np.sum(p * p)) for p in pays)
    mean = total / mc.paths
    var = max(total_sq / mc.paths - mean * mean, 0.0) * mc.paths / max(mc.paths - 1, 1)
    return mean, float(np.sqrt(var / mc.paths))


class TestBlockedRecursion:
    """The blocked, time-major recursion against the path-major reference loop.

    Only the summation order differs, so on coefficients that are Lipschitz
    at the variance floor the paths agree to rounding: 1e-12 relative to the
    largest |V| (paths of the real-domain families cross 0, where an
    elementwise relative error means nothing).
    """

    @pytest.fixture(params=["const", "rough-sabr", "rough-alpha-hyper"])
    def model(self, request, heston, all_models):
        if request.param == "const":
            return _const_coeff_model(heston, b_const=1.5, sigma_const=0.3)
        return all_models[request.param]

    @pytest.mark.parametrize("paths, steps, antithetic", [
        *[(33, k, False) for k in (1, 15, 16, 17, 48, 64)],   # blocks end exactly, mid-block
        (8193, 17, False),                                     # two batches
        (301, 48, True),                                       # odd antithetic count
    ])
    def test_matches_path_major_loop(self, model, market, kernel, paths, steps, antithetic):
        mc = McConfig(paths=paths, steps=steps, seed=21, antithetic=antithetic)
        for perturbed in (False, True):
            v = simulate_v(model, market, mc, 1.0, kernel, perturbed)
            ref = _path_major_v(model, market, mc, 1.0, kernel, perturbed)
            assert v.shape == ref.shape == (paths, steps + 1)
            assert np.abs(v - ref).max() <= 1e-12 * np.abs(ref).max()


class TestSimulateV:
    def test_deterministic_volterra_integral(self, heston, market):
        # sigma = 0, b = 2: V(t) = v0 + 2 t^(H+1/2)/Gamma(H+3/2), exact for the
        # kernel-integrated scheme because b is constant
        model = _const_coeff_model(heston, b_const=2.0, sigma_const=0.0)
        mc = McConfig(paths=3, steps=512, seed=1)
        spec = KernelSpec(hurst=0.12, eps=1e-8)
        v = simulate_v(model, market, mc, horizon=1.0, kernel=spec)
        assert v[:, -1] == pytest.approx(DET_VOLTERRA_T1, rel=1e-12)
        # interior time: closed form at t = 0.5
        t_half = 0.04 + 2.0 * 0.5**0.62 / gamma_fn(1.62)
        assert v[:, 256] == pytest.approx(t_half, rel=1e-12)

    def test_h_half_reduces_to_classical_euler(self, heston, market):
        spec = KernelSpec(hurst=0.5, eps=1e-8)
        mc = McConfig(paths=64, steps=64, seed=9)
        v = simulate_v(heston, market, mc, horizon=1.0, kernel=spec)
        # classical Euler with the same increments
        rng = np.random.Generator(np.random.Philox(key=9).jumped(0))
        db = rng.standard_normal((64, 64)) * np.sqrt(1.0 / 64)
        w = np.full(64, market.v0)
        for k in range(64):
            wp = np.maximum(w, 0.0)
            w = w + heston.b(wp) * (1.0 / 64) + heston.sigma(wp) * db[:, k]
        assert np.abs(v[:, -1] - w).max() <= 1e-10

    def test_bit_identical_reruns(self, heston, market, kernel):
        mc = McConfig(paths=50, steps=32, seed=123)
        a = simulate_v(heston, market, mc, 1.0, kernel, perturbed=True)
        b = simulate_v(heston, market, mc, 1.0, kernel, perturbed=True)
        assert np.array_equal(a, b)

    def test_rough_and_perturbed_share_increments(self, heston, market):
        # eps -> large changes the paths, but both runs draw the same noise:
        # at H = 1/2 the kernels coincide and so must the paths
        spec = KernelSpec(hurst=0.5, eps=1e-12)
        mc = McConfig(paths=16, steps=16, seed=5)
        rough = simulate_v(heston, market, mc, 1.0, spec, perturbed=False)
        pert = simulate_v(heston, market, mc, 1.0, spec, perturbed=True)
        assert np.abs(rough - pert).max() <= 1e-9


class TestMcPrice:
    @pytest.mark.parametrize("field, value", [
        ("paths", 1000.5), ("paths", True), ("steps", 2.0), ("seed", 1.5), ("seed", "7"),
    ])
    def test_non_integer_counts_rejected(self, field, value):
        args = dict(paths=10, steps=4, seed=0)
        args[field] = value
        with pytest.raises(ParameterError, match=f"{field} must be an integer"):
            McConfig(**args)

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_non_bool_antithetic_rejected(self, value):
        with pytest.raises(ParameterError, match="antithetic must be true or false"):
            McConfig(paths=10, steps=4, antithetic=value)

    def test_degenerate_model_prices_spot_exactly(self, heston, market, kernel):
        model = _const_coeff_model(heston, b_const=0.0, sigma_const=0.0, phi_const=0.0)
        mc = McConfig(paths=100, steps=16, seed=2)
        est, se = mc_price(OptionSpec("call", 0.0, 1.0), model, market, kernel, mc)
        assert est == pytest.approx(10.0, abs=1e-12)
        assert se == 0.0

    def test_direct_euler_without_volatility_keeps_spot(self, all_models, market, kernel):
        # rough-sabr takes the direct Euler step; phi = 0 freezes S at s0
        model = dataclasses.replace(
            all_models["rough-sabr"],
            phi=lambda v: np.zeros_like(np.asarray(v, float)),
        )
        mc = McConfig(paths=100, steps=16, seed=2)
        est, se = mc_price(OptionSpec("call", 4.0, 1.0), model, market, kernel, mc)
        assert est == 6.0
        assert se == 0.0

    def test_direct_euler_forward_is_martingale(self, all_models, market, kernel):
        mc = McConfig(paths=4000, steps=32, seed=12)
        est, se = mc_price(
            OptionSpec("call", 0.0, 1.0), all_models["rough-sabr"], market, kernel, mc
        )
        assert se > 0.0
        assert abs(est - market.s0) <= 3 * se

    def test_integer_market_inputs_match_float(self, all_models, kernel):
        ints = MarketParams(s0=10, v0=1, rho=0)
        floats = MarketParams(s0=10.0, v0=1.0, rho=0.0)
        opt = OptionSpec("call", 4.0, 0.5)
        mc = McConfig(paths=64, steps=16, seed=3)
        for name in ("rough-heston", "rough-sabr"):
            model = all_models[name]
            assert np.array_equal(
                simulate_v(model, ints, mc, 0.5, kernel),
                simulate_v(model, floats, mc, 0.5, kernel),
            )
            assert mc_price(opt, model, ints, kernel, mc) == mc_price(
                opt, model, floats, kernel, mc
            )

    def test_antithetic_mean_and_variance(self, heston, market, kernel):
        opt = OptionSpec("call", 4.0, 1.0)
        plain = mc_price(opt, heston, market, kernel, mc=McConfig(8000, 32, seed=3))
        anti = mc_price(
            opt, heston, market, kernel, mc=McConfig(8000, 32, seed=3, antithetic=True)
        )
        assert abs(anti[0] - plain[0]) <= 2 * (plain[1] + anti[1])
        assert anti[1] < plain[1]

    def test_stderr_scaling(self, heston, market, kernel):
        opt = OptionSpec("call", 4.0, 1.0)
        _, se1 = mc_price(opt, heston, market, kernel, McConfig(4000, 16, seed=4))
        _, se2 = mc_price(opt, heston, market, kernel, McConfig(16000, 16, seed=4))
        assert abs(se2 / se1 - 0.5) <= 0.2 * 0.5

    def test_perturbed_close_to_rough(self, heston, market, kernel):
        opt = OptionSpec("call", 4.0, 1.0)
        mc = McConfig(4000, 64, seed=6)
        rough = mc_price(opt, heston, market, kernel, mc, perturbed=False)
        pert = mc_price(opt, heston, market, kernel, mc, perturbed=True)
        assert abs(rough[0] - pert[0]) <= 3 * np.hypot(rough[1], pert[1])

    @pytest.mark.filterwarnings("ignore:divide by zero", "ignore:invalid value")
    def test_non_finite_payoff_warns_and_returns_nan(self, all_models, market, kernel):
        # rough-42's phi = a sqrt(v) + b/sqrt(v) is infinite at V = 0, which its
        # simulated variance reaches (2 eta theta < sigma^2)
        mc = McConfig(paths=500, steps=16, seed=1)
        with pytest.warns(RuntimeWarning, match="payoff of rough-42 is not finite"):
            est, se = mc_price(
                OptionSpec("call", 4.0, 1.0), all_models["rough-42"], market, kernel, mc
            )
        assert np.isnan(est) and np.isnan(se)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_matches_the_step_loop_exactly(self, name, market, kernel, monkeypatch):
        # batches of 5, 5 and 1 paths: a one-path batch still adds the steps in order
        monkeypatch.setattr(mc_module, "_BATCH", 5)
        params = model_params(name)
        for p, mc in ((params, McConfig(paths=11, steps=24, seed=5)),
                      (params | ({"r": 0.05, "q": 0.02} if "r" in params else {}),
                       McConfig(paths=10, steps=40, seed=6, antithetic=True))):
            model = make_model(name, p)
            for option in (OptionSpec("call", 10.0, 1.0), OptionSpec("put", 12.0, 0.5)):
                got = mc_price(option, model, market, kernel, mc)
                want = _step_loop_price(option, model, market, kernel, mc)
                assert repr(got) == repr(want), (name, p, mc, option)

    def test_barrier_payoff(self, heston, market, kernel):
        mc = McConfig(2000, 32, seed=7)
        eu = mc_price(OptionSpec("call", 4.0, 1.0), heston, market, kernel, mc)
        ba = mc_price(
            OptionSpec("call", 4.0, 1.0, barrier=(2.0, 15.0)),
            heston, market, kernel, mc,
        )
        assert ba[0] <= eu[0]


class TestIncrementCache:
    """Runs that agree on everything a draw depends on share one read-only set of increments."""

    @pytest.fixture(autouse=True)
    def cleared(self):
        mc_module._kept_run.cache_clear()
        yield
        mc_module._kept_run.cache_clear()

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        original = mc_module._draw_normals

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(mc_module, "_draw_normals", counted)
        return calls

    def test_second_price_draws_nothing(self, heston, market, kernel, draws):
        opt, mc = OptionSpec("call", 4.0, 0.5), McConfig(paths=1024, steps=256, seed=91)
        first = mc_price(opt, heston, market, kernel, mc)
        assert len(draws) == 2          # one batch: dB and dB_perp
        second = mc_price(opt, heston, market, kernel, mc)
        assert len(draws) == 2
        assert repr(second) == repr(first)

    @pytest.mark.parametrize("change", [
        {"seed": 92}, {"paths": 1023}, {"steps": 128}, {"maturity": 1.0}, {"antithetic": True},
    ], ids=["seed", "paths", "steps", "maturity", "antithetic"])
    def test_any_change_draws_afresh(self, heston, market, kernel, draws, change):
        base = dict(paths=1024, steps=256, seed=91, antithetic=False)
        maturity = change.pop("maturity", 0.5)
        mc_price(OptionSpec("call", 4.0, 0.5), heston, market, kernel, McConfig(**base))
        assert len(draws) == 2
        mc_price(OptionSpec("call", 4.0, maturity), heston, market, kernel,
                 McConfig(**base | change))
        assert len(draws) == 4

    def test_kept_increments_are_read_only(self):
        mc = McConfig(paths=40, steps=16, seed=3)
        for _ in range(2):              # drawn, then read back from the cache
            _, _, batches = mc_module._batches(mc, 1.0, draws=2)
            for batch in batches:
                for d in batch:
                    assert not d.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        d *= 2.0
        assert mc_module._kept_run.cache_info().currsize == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("batch", [8192, 7])
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_cleared_and_warm_agree_bit_for_bit(self, all_models, market, kernel, monkeypatch,
                                                batch, antithetic):
        monkeypatch.setattr(mc_module, "_BATCH", batch)
        mc = McConfig(paths=31, steps=24, seed=17, antithetic=antithetic)
        runs = {
            "mc_price": lambda m: repr(mc_price(OptionSpec("put", 11.0, 0.5), m, market,
                                                kernel, mc)),
            "simulate_v": lambda m: simulate_v(m, market, mc, 0.5, kernel, True).tobytes(),
            "estimate_l2_rate": lambda m: repr(estimate_l2_rate([1e-4, 1e-3], m, market, mc,
                                                                0.5, kernel.hurst)),
        }
        for name in ("rough-heston", "rough-sabr"):
            for run in runs.values():
                mc_module._kept_run.cache_clear()
                cold = run(all_models[name])
                assert run(all_models[name]) == cold
                assert mc_module._kept_run.cache_info().currsize == 1

    def test_run_over_the_bound_is_not_kept(self, draws):
        defaults = default_config()["mc"]
        mc = McConfig(**defaults)
        assert mc.paths * mc.n_steps(1.0) * 2 * 8 > mc_module._KEEP_BYTES
        _, _, batches = mc_module._batches(mc, 1.0, draws=2)
        db, dperp = next(batches)
        assert db.shape == (256, mc_module._BATCH) and not dperp.flags.writeable
        assert len(draws) == 2          # drawn batch by batch, not whole
        assert mc_module._kept_run.cache_info().currsize == 0


class TestKernelWeights:
    @pytest.mark.parametrize("shift", [0.0, 1e-8])
    def test_match_the_row_formulas(self, shift):
        # row k - 1 from its own formulas, one row at a time: equal bit for bit
        from roughchain.mc import _kernel_weights

        times = np.linspace(0.0, 1.0, 257)
        a, hurst = 0.62, 0.12
        gam = float(gamma_fn(a))
        wts = _kernel_weights(256, 1.0, hurst, shift)
        wb, kb = wts[:, 0::2], wts[:, 1::2]
        assert not np.triu(wb, 1).any() and not np.triu(kb, 1).any()
        for k in (1, 2, 100, 256):
            hi = times[k] + shift - times[:k]
            lo = times[k] + shift - times[1:k + 1]
            k2 = (hi ** (2 * hurst) - lo ** (2 * hurst)) / (2 * hurst * gam**2)
            assert np.array_equal(wb[k - 1, :k], (hi**a - lo**a) / (a * gam))
            assert np.array_equal(kb[k - 1, :k], np.sqrt(np.maximum(k2, 0.0) / times[1]))

    def test_cached_and_read_only(self):
        # every price at one grid, Hurst index and shift reads the same matrix
        from roughchain.mc import _kernel_weights

        wts = _kernel_weights(128, 0.5, 0.12, 0.0)
        assert _kernel_weights(128, 0.5, 0.12, 0.0) is wts
        assert not wts.flags.writeable


class TestL2Rate:
    def test_deterministic_drift_gap_rate(self, heston, market):
        # sigma = 0, b = 2: gap(eps) = (2/Gamma(H+3/2)) |(T+eps)^a - eps^a - T^a|
        # with a = H + 1/2; squared-gap slope ~ 2a for small eps
        model = _const_coeff_model(heston, b_const=2.0, sigma_const=0.0)
        mc = McConfig(paths=2, steps=256, seed=8)
        eps_list = [1e-5, 1e-4, 1e-3]
        slope, gaps = estimate_l2_rate(eps_list, model, market, mc, 1.0, hurst=0.12)
        a = 0.62
        for eps, gap in gaps:
            want = (2.0 / gamma_fn(1.62)) * abs((1 + eps) ** a - eps**a - 1.0)
            assert np.sqrt(gap) == pytest.approx(want, rel=1e-6)
        assert slope == pytest.approx(2 * a, abs=0.05)

    def test_identical_kernels_give_zero_gap(self, heston, market, kernel):
        mc = McConfig(paths=32, steps=32, seed=10)
        a = simulate_v(heston, market, mc, 1.0, kernel, perturbed=True)
        b = simulate_v(heston, market, mc, 1.0, kernel, perturbed=True)
        assert float(np.mean((a[:, -1] - b[:, -1]) ** 2)) == 0.0

    def test_needs_two_eps(self, heston, market):
        from roughchain import ParameterError

        with pytest.raises(ParameterError):
            estimate_l2_rate([1e-4], heston, market, McConfig(2, 8, seed=0), 1.0, 0.12)
