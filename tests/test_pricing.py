import dataclasses
import itertools

import numpy as np
import pytest

from roughchain import (
    MODEL_NAMES,
    McConfig,
    OptionSpec,
    ParameterError,
    assemble,
    make_model,
    matexp,
    mc_price,
    payoff_vector,
    price_bermudan,
    price_european_coupled,
    price_fast,
    pricing,
)
from roughchain.presets import model_params

from conftest import dense

CALL = OptionSpec("call", 4.0, 1.0)


class TestOptionSpec:
    def test_barrier_order(self):
        with pytest.raises(ParameterError):
            OptionSpec("call", 4.0, 1.0, barrier=(15.0, 2.0))

    @pytest.mark.parametrize("barrier", [(15.0,), (2.0, 15.0, 20.0), ("a", 15.0), 15.0])
    def test_barrier_is_two_numbers(self, barrier):
        with pytest.raises(ParameterError, match="barrier must be two numbers"):
            OptionSpec("call", 4.0, 1.0, barrier=barrier)

    def test_kind(self):
        with pytest.raises(ParameterError):
            OptionSpec("straddle", 4.0, 1.0)

    def test_dates(self):
        with pytest.raises(ParameterError):
            OptionSpec("call", 4.0, 1.0, bermudan_dates=0)


class TestPayoff:
    def test_zero_strike_call_is_asset(self, heston_system):
        pay = payoff_vector(OptionSpec("call", 0.0, 1.0), heston_system)
        assert np.array_equal(pay, heston_system.asset_states)

    def test_zero_strike_put_is_zero(self, heston_system):
        pay = payoff_vector(OptionSpec("put", 0.0, 1.0), heston_system)
        assert np.all(pay == 0.0)

    def test_anchor_entry(self, heston_system):
        pay = payoff_vector(CALL, heston_system)
        l0, i0 = heston_system.anchor_indices
        assert pay[l0, i0] == pytest.approx(6.0, rel=1e-12)

    def test_barrier_masks_outside(self, heston_system):
        pay = payoff_vector(
            OptionSpec("call", 4.0, 1.0, barrier=(2.0, 15.0)), heston_system
        )
        s = heston_system.asset_states
        assert np.all(pay[(s <= 2.0) | (s >= 15.0)] == 0.0)


class TestEuropean:
    def test_fast_matches_coupled(self, heston_system):
        fast = price_fast(CALL, heston_system).price
        coupled = price_european_coupled(CALL, heston_system).price
        assert abs(fast - coupled) <= 1e-4 * coupled

    def test_zero_strike_forward_near_s0(self, heston_system):
        fwd = price_fast(OptionSpec("call", 0.0, 1.0), heston_system).price
        assert abs(fwd - 10.0) <= 0.02 * 10.0

    def test_put_call_parity_through_the_chain(self, heston_system):
        call = price_european_coupled(CALL, heston_system).price
        put = price_european_coupled(OptionSpec("put", 4.0, 1.0), heston_system).price
        fwd = price_european_coupled(OptionSpec("call", 0.0, 1.0), heston_system).price
        assert abs((call - put) - (fwd - 4.0)) <= 1e-10 * max(1.0, fwd)

    def test_discounting(self, heston_rate_system):
        res = price_fast(CALL, heston_rate_system)
        p, _ = pricing._terminal(heston_rate_system, 1.0, res.diagnostics["n_slices"])
        assert res.price < np.vdot(p, payoff_vector(CALL, heston_rate_system))

    def test_diagnostics_fields(self, heston_system):
        res = price_fast(CALL, heston_system)
        d = res.diagnostics
        assert d["method"] == "fast" and d["n"] == 40 and d["m"] == 40
        assert d["wall_time"] >= 0.0
        assert d["validation"]["q_min_off_diagonal"] >= 0.0

    def test_system_constants_computed_once(self, heston, market, kernel, monkeypatch):
        from roughchain import ctmc

        gens = assemble(heston, market, kernel, n=24, m=24)
        report = ctmc.validate_generator(gens.q)
        calls = []
        monkeypatch.setattr(
            ctmc, "validate_generator", lambda g: calls.append(g) or report
        )
        first = price_fast(CALL, gens)
        second = price_fast(OptionSpec("put", 10.0, 0.5), gens)
        assert len(calls) == 1
        want = {"q_max_abs_row_sum": report["max_abs_row_sum"],
                "q_min_off_diagonal": report["min_off_diagonal"]}
        assert first.diagnostics["validation"] == second.diagnostics["validation"] == want
        nu = np.abs(np.diagonal(dense(gens.lambdas), axis1=1, axis2=2)).max()
        assert gens.nu_lambda == nu

    def test_fast_coupled_gap_shrinks_with_grid(self, heston, market, kernel):
        gaps = []
        for size in (16, 24, 40):
            gens = assemble(heston, market, kernel, n=size, m=size)
            f = price_fast(CALL, gens).price
            c = price_european_coupled(CALL, gens).price
            gaps.append(abs(f - c) / c)
        assert gaps[-1] <= 1e-4
        assert gaps[-1] <= gaps[0]


def _count_expm_dense(monkeypatch):
    calls = []
    expm_dense = pricing.expm_dense
    monkeypatch.setattr(
        pricing, "expm_dense", lambda *a, **kw: calls.append(a) or expm_dense(*a, **kw)
    )
    return calls


class TestTerminalLaw:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_law_is_a_probability(self, name, all_models, market, kernel):
        gens = assemble(all_models[name], market, kernel, n=24, m=24)
        p, _ = pricing._terminal(gens, 1.0, pricing._auto_slices(gens, 1.0))
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_forward_pass_matches_backward(self, name, market, kernel):
        # fast: the same operators associated the other way, equal up to
        # rounding; coupled: two uniformization series, each within _TOL
        params = model_params(name)
        for p in [params] + ([params | {"r": 0.05}] if "r" in params else []):
            gens = assemble(make_model(name, p), market, kernel, n=24, m=24)
            rate = gens.model.rates[0]
            l0, i0 = gens.anchor_indices
            for t, kind, strike, barrier in itertools.product(
                (0.25, 1.0), ("call", "put"), (0.0, 4.0, 7.0, 10.0, 13.0, 16.0),
                (None, (2.0, 15.0)),
            ):
                option = OptionSpec(kind, strike, t, barrier=barrier)
                d = np.exp(-rate * t)
                pay = payoff_vector(option, gens)
                n = pricing._auto_slices(gens, t)
                back = d * pricing._propagate(gens, pay, t, n)[l0, i0]
                gap = abs(price_fast(option, gens).price - back)
                assert gap <= 1e-11 and gap <= 1e-12 * abs(back), (option, gap)
                if strike in (0.0, 10.0, 16.0):  # each coupled reference is a backward run
                    back = d * pricing._propagate(gens, pay, t, None)[l0, i0]
                    gap = abs(price_european_coupled(option, gens).price - back)
                    assert gap <= 1e-10, ("coupled", option, gap)

    def test_second_price_reuses_the_law(self, heston, market, kernel, monkeypatch):
        gens = assemble(heston, market, kernel, n=24, m=24)
        first = price_fast(CALL, gens)
        calls = _count_expm_dense(monkeypatch)
        second = price_fast(OptionSpec("put", 10.0, 1.0, barrier=(2.0, 15.0)), gens)
        assert calls == []
        assert first.diagnostics["terminal_cache_hit"] is False
        assert second.diagnostics["terminal_cache_hit"] is True

    def test_coupled_second_price_reuses_the_law(self, heston, market, kernel, monkeypatch):
        gens = assemble(heston, market, kernel, n=24, m=24)
        first = price_european_coupled(CALL, gens)
        calls = []
        expm_action = pricing.expm_action
        monkeypatch.setattr(
            pricing, "expm_action", lambda *a, **kw: calls.append(a) or expm_action(*a, **kw)
        )
        later = [price_european_coupled(option, gens) for option in (
            OptionSpec("call", 7.0, 1.0), OptionSpec("put", 10.0, 1.0),
            OptionSpec("put", 10.0, 1.0, barrier=(2.0, 15.0)),
        )]
        assert calls == []
        assert first.diagnostics["terminal_cache_hit"] is False
        assert all(res.diagnostics["terminal_cache_hit"] is True for res in later)
        assert set(first.diagnostics) >= {"forward_defect", "wall_mass"}

    def test_europeans_never_run_backward(self, heston_system, monkeypatch):
        propagate = pricing._propagate

        def forward_only(*args, forward=False):
            if not forward:
                raise AssertionError("backward induction for a European")
            return propagate(*args, forward=forward)

        monkeypatch.setattr(pricing, "_propagate", forward_only)
        for option in (CALL, OptionSpec("put", 10.0, 1.0, barrier=(2.0, 15.0))):
            price_fast(option, heston_system)
            price_european_coupled(option, heston_system)

    def test_forward_defect(self, market, kernel):
        r, q, t = 0.05, 0.02, 1.0
        params = dict(model_params("rough-heston"), r=r, q=q)
        gens = assemble(make_model("rough-heston", params), market, kernel, n=24, m=24)
        res = price_fast(OptionSpec("call", 0.0, t), gens)
        want = np.exp(r * t) * res.price - market.s0 * np.exp((r - q) * t)
        assert abs(res.diagnostics["forward_defect"] - want) <= 1e-12


def _strang(w, n_slices, pq_half, pq_full, p_lams):
    """The slice loop written out: PQh (PL PQ)^(n-1) PL PQh w, PL one batched matvec."""
    w = pq_half @ w
    for _ in range(n_slices - 1):
        w = pq_full @ np.matmul(p_lams, w[:, :, None])[:, :, 0]
    return pq_half @ np.matmul(p_lams, w[:, :, None])[:, :, 0]


class TestRegimeStep:
    """The regime step of both layouts of ``matexp.RegimeStack``.

    Up to 2 MiB every regime's matrix is dense and a slice steps by one
    batched matvec, so a price is the Strang product on those matrices bit
    for bit.  At N = M = 80 the dense stack would take 4.1 MB, over the
    2 MiB rule, so the slice loop steps on band rows; raising the rule
    forces the dense step.  The entries are the same numbers, so the prices
    differ only in the order each row's products are summed.  rough-42's
    lowest-variance regime has nu dt > 1, so its series is long and its
    matrix stays dense: its dense rows overwrite the band step's, forwards
    (the law) and backwards (the Bermudan).
    """

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_dense_rows_step_by_matmul(self, name, all_models, market, kernel, monkeypatch):
        gens = assemble(all_models[name], market, kernel, n=24, m=24)
        dt = 1.0 / pricing._auto_slices(gens, 1.0)
        w = np.random.default_rng(5).random((24, 24))
        stack = matexp.expm_dense(gens.lambdas, dt)
        monkeypatch.setattr(matexp, "_BAND_STEP_BYTES", 0)
        band = matexp.expm_dense(gens.lambdas, dt)
        assert (stack.layout, band.layout) == ("dense", "band")
        assert list(band.on_dense) == ([0] if name == "rough-42" else [])
        for s in (stack, stack.T):  # every regime
            assert np.array_equal(s.step(w), np.matmul(s.dense, w[:, :, None])[:, :, 0])
        for s in (band, band.T):    # the dense regimes
            sq = s.on_dense
            assert np.array_equal(s.step(w)[sq], np.matmul(s.dense, w[sq, :, None])[:, :, 0])

    @pytest.mark.parametrize("size", [48, 60])
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_dense_prices_are_the_strang_product(self, name, size, all_models, market, kernel):
        gens = assemble(all_models[name], market, kernel, n=size, m=size)
        disc = np.exp(-gens.model.rates[0] * 1.0)

        def operators(dt):
            pq_half = matexp.expm_dense(gens.q, dt / 2.0)
            return pq_half, pq_half @ pq_half, matexp.expm_dense(gens.lambdas, dt).dense

        call = price_fast(CALL, gens)
        n = call.diagnostics["n_slices"]
        assert call.diagnostics["regime_step"] == "dense"
        pq_half, pq_full, p_lams = operators(1.0 / n)
        law = np.zeros((size, size))
        law[gens.anchor_indices] = 1.0
        law = _strang(law, n, pq_half.T, pq_full.T, p_lams.transpose(0, 2, 1))
        assert call.price == float(disc * np.vdot(law, payoff_vector(CALL, gens)))

        put = OptionSpec("put", 10.0, 1.0, bermudan_dates=6)
        bermudan = price_fast(put, gens)
        n = bermudan.diagnostics["n_slices"] // 6
        ops = operators(1.0 / 6 / n)
        pay = payoff_vector(put, gens)
        w, disc = pay, np.exp(-gens.model.rates[0] * (1.0 / 6))
        for _ in range(6):
            w = np.maximum(disc * _strang(w, n, *ops), pay)
        assert bermudan.price == float(w[gens.anchor_indices])

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_band_step_matches_dense_step(self, name, all_models, market, kernel, monkeypatch):
        options = (CALL, OptionSpec("put", 10.0, 1.0, bermudan_dates=6))
        prices = {}
        for step in ("band", "dense"):
            if step == "dense":
                monkeypatch.setattr(matexp, "_BAND_STEP_BYTES", 2**40)
            gens = assemble(all_models[name], market, kernel, n=80, m=80)
            for option in options:
                result = price_fast(option, gens)
                assert result.diagnostics["regime_step"] == step
                prices[step, option] = result.price
        for option in options:
            band, dense = prices["band", option], prices["dense", option]
            assert abs(band - dense) <= 1e-14 * abs(dense), (option, band, dense)


class TestCache:
    """Laws are kept per (slice count, T); step operators per slice length, by backward
    induction only."""

    def test_a_law_keeps_no_operators(self, heston, market, kernel):
        gens = assemble(heston, market, kernel, n=24, m=24)
        price_fast(CALL, gens)
        price_fast(OptionSpec("put", 10.0, 0.5, barrier=(2.0, 15.0)), gens)
        price_european_coupled(CALL, gens)
        n1, n2 = pricing._auto_slices(gens, 1.0), pricing._auto_slices(gens, 0.5)
        assert set(gens._cache) == {("law", n1, 1.0), ("law", n2, 0.5), ("law", None, 1.0)}

    def test_bermudan_keeps_one_stack_per_slice_length(self, heston, market, kernel):
        gens = assemble(heston, market, kernel, n=24, m=24)
        for t in (1.0, 0.5):
            res = price_fast(OptionSpec("put", 10.0, t, bermudan_dates=4), gens)
            dt = t / res.diagnostics["n_slices"]
            pq_half, pq_full, p_lams = gens._cache["steps", dt]
            assert pq_half.shape == pq_full.shape == (24, 24)
            assert p_lams.layout == "dense" and p_lams.dense.shape == (24, 24, 24)
        assert len(gens._cache) == 2

    def test_second_grid_with_the_same_slice_length_builds_nothing(
        self, heston, market, kernel, monkeypatch
    ):
        gens = assemble(heston, market, kernel, n=24, m=24)
        first = price_fast(OptionSpec("put", 10.0, 1.0, bermudan_dates=4), gens)
        calls = _count_expm_dense(monkeypatch)
        second = price_fast(OptionSpec("put", 10.0, 1.0, bermudan_dates=8), gens)
        assert first.diagnostics["n_slices"] == second.diagnostics["n_slices"]  # same dt
        assert calls == []
        assert len(gens._cache) == 1

    def test_law_reuses_a_stack_of_its_slice_length(self, heston, market, kernel, monkeypatch):
        # as on heston_system: 48 dates of one slice and the law's 48 slices
        # both step at 0.5 / 48
        gens = assemble(heston, market, kernel, n=40, m=40)
        put = OptionSpec("put", 10.0, 0.5)
        assert pricing._auto_slices(gens, 0.5) == 48
        price_fast(dataclasses.replace(put, bermudan_dates=48), gens)
        calls = _count_expm_dense(monkeypatch)
        res = price_fast(put, gens)
        assert calls == []
        assert res.diagnostics["terminal_cache_hit"] is False
        fresh = price_fast(put, assemble(heston, market, kernel, n=40, m=40))
        assert res.price == fresh.price
        assert set(gens._cache) == {("steps", 0.5 / 48), ("law", 48, 0.5)}


class TestRate:
    """Every pricer discounts at the model's r; OptionSpec.rate may only repeat it."""

    def test_unset_rate_discounts_at_the_model_r(self, heston_rate_system):
        put = OptionSpec("put", 12.0, 1.0)
        res = price_fast(put, heston_rate_system)
        p, _ = pricing._terminal(heston_rate_system, 1.0, res.diagnostics["n_slices"])
        want = np.exp(-0.05) * np.vdot(p, payoff_vector(put, heston_rate_system))
        assert res.price == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("route, dates", [
        ("fast", None), ("coupled", None), ("fast", 4), ("coupled", 4), ("mc", None),
    ])
    def test_every_route_takes_the_model_r(self, route, dates, heston_rate_system):
        gens = heston_rate_system

        def price(rate):
            option = OptionSpec("put", 12.0, 1.0, rate=rate, bermudan_dates=dates)
            if route == "mc":
                mc = McConfig(paths=512, steps=16, seed=3)
                return mc_price(option, gens.model, gens.market, gens.kernel, mc)
            return (price_fast if route == "fast" else price_european_coupled)(option, gens).price

        assert price(None) == price(0.05)
        with pytest.raises(ParameterError, match=r"option rate 0\.03 .* r = 0\.05"):
            price(0.03)


class TestBarrier:
    def test_wide_barrier_equals_european_exactly(self, heston_system):
        wide = OptionSpec("call", 4.0, 1.0, barrier=(0.0, 1e12))
        assert np.array_equal(
            payoff_vector(wide, heston_system), payoff_vector(CALL, heston_system)
        )
        assert (
            price_european_coupled(wide, heston_system).price
            == price_european_coupled(CALL, heston_system).price
        )

    def test_barrier_below_money_is_zero(self, heston_system):
        dead = OptionSpec("call", 4.0, 1.0, barrier=(0.0, 3.9))
        assert price_european_coupled(dead, heston_system).price == 0.0

    def test_barrier_not_above_european(self, heston_system):
        barr = OptionSpec("call", 4.0, 1.0, barrier=(2.0, 15.0))
        assert (
            price_european_coupled(barr, heston_system).price
            <= price_european_coupled(CALL, heston_system).price + 1e-12
        )


# (European pricer, Bermudan pricer) of each route; identities compare a
# route with itself
ROUTES = {
    "fast": (price_fast, price_bermudan),
    "coupled": (price_european_coupled, price_european_coupled),
}


class TestBermudan:
    def test_single_date_equals_european(self, heston_system):
        for route, (european, bermudan) in ROUTES.items():
            eu = european(CALL, heston_system).price
            berm = bermudan(
                OptionSpec("call", 4.0, 1.0, bermudan_dates=1), heston_system
            ).price
            assert abs(eu - berm) <= 1e-12 * max(1.0, eu), route

    def test_call_no_early_exercise(self, heston_system):
        for route, (european, bermudan) in ROUTES.items():
            eu = european(CALL, heston_system).price
            berm = bermudan(
                OptionSpec("call", 4.0, 1.0, bermudan_dates=8), heston_system
            ).price
            assert abs(eu - berm) <= 1e-9 * max(1.0, eu), route

    def test_put_premium_monotone_in_nested_dates(self, heston_rate_system):
        for route, (_, bermudan) in ROUTES.items():
            prices = [
                bermudan(
                    OptionSpec("put", 12.0, 1.0, bermudan_dates=n), heston_rate_system
                ).price
                for n in (1, 2, 4, 8)
            ]
            for a, b in zip(prices, prices[1:]):
                assert b >= a - 1e-10, route

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_fast_matches_coupled(self, name, all_models, market, kernel):
        gens = assemble(all_models[name], market, kernel, n=30, m=30)
        put = OptionSpec("put", 10.0, 1.0, bermudan_dates=50)
        fast = price_bermudan(put, gens)
        coupled = price_european_coupled(put, gens)
        assert fast.diagnostics["method"] == "fast"
        assert coupled.diagnostics["method"] == "coupled"
        assert abs(fast.price - coupled.price) <= 5e-3 * coupled.price

    def test_requires_dates(self, heston_system):
        with pytest.raises(ParameterError):
            price_bermudan(CALL, heston_system)

    def test_one_pass_for_both_entry_points(self, heston_rate_system):
        # price_bermudan is price_fast for an option with dates; the engine's
        # slice count over T is spread evenly over the dates
        gens, put = heston_rate_system, OptionSpec("put", 12.0, 1.0, bermudan_dates=4)
        fast, berm = price_fast(put, gens), price_bermudan(put, gens)
        assert fast.price == berm.price
        for res in (fast, berm):
            res.diagnostics.pop("wall_time")
        assert fast.diagnostics == berm.diagnostics
        assert fast.diagnostics["n_slices"] == 4 * -(-pricing._auto_slices(gens, 1.0) // 4)


class TestTranslationInvariance:
    def test_price_invariant_under_g_base_shift(self, heston, market, kernel):
        shift = 2.5
        shifted = dataclasses.replace(
            heston,
            g=lambda s: np.log(s) + shift,
            g_inverse_raw=lambda y: np.exp(np.asarray(y, float) - shift),
        )
        x0 = np.log(10.0) - market.rho * 0.04 / 0.8
        base = assemble(
            heston, market, kernel, n=30, m=20, x_bounds=(x0 - 2.0, x0 + 4.0)
        )
        moved = assemble(
            shifted, market, kernel, n=30, m=20,
            x_bounds=(x0 - 2.0 + shift, x0 + 4.0 + shift),
        )
        p0 = price_fast(CALL, base).price
        p1 = price_fast(CALL, moved).price
        assert abs(p0 - p1) <= 1e-10 * p0


class TestLadderViolations:
    """The model-free ladder rule on exact prices of a two-point terminal law."""

    S0, R, Q, T = 10.0, 0.03, 0.01, 1.0
    STRIKES = [2.0 * i for i in range(11)]

    def prices(self, kind, shift=0.0):
        # S_T in {1, 19} with mean s0 e^{(r-q)T} + shift; kinks at 1 and 19 only
        fwd = self.S0 * np.exp((self.R - self.Q) * self.T) + shift
        p_hi = (fwd - 1.0) / 18.0
        sign = 1.0 if kind == "call" else -1.0
        return [np.exp(-self.R * self.T) * ((1.0 - p_hi) * max(sign * (1.0 - k), 0.0)
                                            + p_hi * max(sign * (19.0 - k), 0.0))
                for k in self.STRIKES]

    def violations(self, kind, prices):
        return pricing.ladder_violations(kind, self.STRIKES, prices,
                                         self.S0, self.R, self.Q, self.T)

    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_martingale_law_priced_exactly_is_clean(self, kind):
        assert self.violations(kind, self.prices(kind)) == []

    def test_shifted_forward_breaks_the_zero_strike_call(self):
        (line,) = self.violations("call", self.prices("call", shift=0.5))
        assert line.startswith("call K=0 ") and "outside" in line

    def test_put_below_its_lower_bound(self):
        prices = self.prices("put")
        prices[-1] -= 0.01
        (line,) = self.violations("put", prices)
        assert line.startswith("put K=20 ") and "outside" in line

    def test_rising_call_is_not_monotone(self):
        prices = self.prices("call")
        prices[-1] = prices[-2] + 0.01
        (line,) = self.violations("call", prices)
        assert line.startswith("call K=20 ") and "above call K=18 " in line

    def test_raised_call_is_not_convex(self):
        prices = self.prices("call")
        prices[5] += 0.01
        (line,) = self.violations("call", prices)
        assert line.startswith("call K=10 ") and "above the chord" in line
