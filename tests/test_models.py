import numpy as np
import pytest

from roughchain import (
    MODEL_NAMES,
    DomainError,
    KernelSpec,
    MarketParams,
    OptionSpec,
    ParameterError,
    assemble,
    build_lambda_family,
    build_Q,
    build_variance_grid,
    build_x_grid,
    drift_theta,
    make_model,
)
from roughchain.models import variance_drift
from roughchain.presets import model_params

# frozen with 40-digit arithmetic
G_SABR_10 = 6.6508743832295986712                 # 10**0.3/0.3
G_QSLV_10 = 7.3047863094312184174


class TestMakeModel:
    def test_heston_coefficients(self, heston):
        assert heston.phi(0.04) == pytest.approx(0.2, rel=1e-14)
        assert heston.b(0.04) == pytest.approx(4 * (0.035 - 0.04), rel=1e-12)

    def test_sabr_has_no_variance_drift(self):
        sabr = make_model("rough-sabr", {"sigma": 0.8, "beta": 0.7})
        v = np.linspace(0.01, 0.2, 7)
        assert np.all(sabr.b(v) == 0.0)

    def test_quadratic_discriminant_accepted(self):
        make_model("rough-quadratic-slv", model_params("rough-quadratic-slv"))

    def test_quadratic_discriminant_rejected(self):
        bad = model_params("rough-quadratic-slv") | {"b": 1.0}
        with pytest.raises(ParameterError, match="4ac"):
            make_model("rough-quadratic-slv", bad)

    def test_unknown_name(self):
        with pytest.raises(ParameterError, match="unknown model"):
            make_model("rough-bogus", {})

    @pytest.mark.parametrize("name", ["nope", "Rough-Heston"])
    def test_unknown_preset_lists_the_families(self, name):
        with pytest.raises(KeyError, match=f"unknown model '{name}'") as err:
            model_params(name)
        assert str(MODEL_NAMES) in str(err.value)

    def test_missing_and_extra_params(self):
        with pytest.raises(ParameterError, match="missing"):
            make_model("rough-heston", {"r": 0.0})
        with pytest.raises(ParameterError, match="unknown"):
            make_model("rough-sabr", {"sigma": 0.8, "beta": 0.7, "eta": 4.0})

    def test_params_must_be_a_mapping(self):
        with pytest.raises(ParameterError, match="params must map"):
            make_model("rough-heston", 5)

    def test_non_numeric_parameter_named(self):
        with pytest.raises(ParameterError, match="parameter sigma must be a number"):
            make_model("rough-sabr", {"sigma": "x", "beta": 0.7})

    def test_sabr_beta_domain(self):
        with pytest.raises(ParameterError, match="beta"):
            make_model("rough-sabr", {"sigma": 0.8, "beta": 1.0})

    # every check of the make_model docstring table, broken one at a time
    @pytest.mark.parametrize("name, bad, what", [
        ("rough-heston", {"sigma": 0.0}, "sigma > 0"),
        ("rough-42", {"sigma": -0.8}, "sigma > 0"),
        ("rough-alpha-hyper", {"theta": 0.0}, "theta > 0"),
        ("rough-alpha-hyper", {"a": 0.0}, "a > 0"),
        ("rough-alpha-hyper", {"sigma": 0.0}, "sigma > 0"),
        ("rough-sabr", {"sigma": 0.0}, "sigma > 0"),
        ("rough-sabr", {"beta": -0.1}, "beta in [0, 1)"),
        ("rough-heston-sabr", {"eta": 0.0}, "eta > 0"),
        ("rough-heston-sabr", {"theta": -0.035}, "theta > 0"),
        ("rough-heston-sabr", {"sigma": 0.0}, "sigma > 0"),
        ("rough-heston-sabr", {"beta": 1.0}, "beta in [0, 1)"),
        ("rough-quadratic-slv", {"a": 0.0}, "a > 0"),
        ("rough-quadratic-slv", {"eta": 0.0}, "eta > 0"),
        ("rough-quadratic-slv", {"theta": 0.0}, "theta > 0"),
        ("rough-quadratic-slv", {"sigma": 0.0}, "sigma > 0"),
        ("rough-quadratic-slv", {"b": 1.0}, "4ac > b^2"),
        ("rough-heston", {"eta": 0.0}, "eta > 0"),
        ("rough-heston", {"theta": -0.01}, "theta > 0"),
        ("rough-42", {"eta": -1.0}, "eta > 0"),
        ("rough-42", {"theta": 0.0}, "theta > 0"),
    ])
    def test_each_domain_check_names_itself(self, name, bad, what):
        with pytest.raises(ParameterError) as err:
            make_model(name, model_params(name) | bad)
        assert str(err.value) == f"{name}: parameter domain violated: {what}"

    @pytest.mark.parametrize("name", [
        "rough-heston", "rough-42", "rough-alpha-hyper",
        "rough-heston-sabr", "rough-quadratic-slv",
    ])
    def test_rates_are_the_model_r_and_q(self, name):
        model = make_model(name, model_params(name) | {"r": 0.05, "q": 0.02})
        assert model.rates == (0.05, 0.02)

    def test_sabr_has_zero_rates(self):
        assert make_model("rough-sabr", model_params("rough-sabr")).rates == (0.0, 0.0)


class TestTransforms:
    @pytest.mark.parametrize("name", [
        "rough-heston", "rough-42", "rough-alpha-hyper",
        "rough-sabr", "rough-heston-sabr", "rough-quadratic-slv",
    ])
    def test_g_inverse_roundtrip(self, name, all_models):
        model = all_models[name]
        s = np.linspace(0.5, 35.0, 41)
        back = model.g_inverse(model.g(s))
        assert np.abs(back - s).max() <= 1e-12 * np.abs(s).max()

    @pytest.mark.parametrize("name", [
        "rough-heston", "rough-sabr", "rough-quadratic-slv",
    ])
    def test_g_strictly_increasing(self, name, all_models):
        s = np.linspace(0.1, 40.0, 200)
        g = all_models[name].g(s)
        assert np.all(np.diff(g) > 0)

    def test_sabr_power_transform_value(self, all_models):
        assert all_models["rough-sabr"].g(10.0) == pytest.approx(G_SABR_10, rel=1e-14)

    def test_quadratic_arctan_transform_value(self, all_models):
        assert all_models["rough-quadratic-slv"].g(10.0) == pytest.approx(G_QSLV_10, rel=1e-14)

    def test_f_numerical_integration_oracle(self, all_models):
        # f' = phi/sigma: compare the closed-form primitive difference
        # against trapezoid integration of the integrand for the 4/2 family
        model = all_models["rough-42"]
        lo, hi = 0.02, 0.09
        u = np.linspace(lo, hi, 20001)
        integrand = model.phi(u) / model.sigma(u)
        quad = np.trapezoid(integrand, u)
        closed = model.f_primitive(hi) - model.f_primitive(lo)
        assert closed == pytest.approx(quad, rel=1e-8)

    def test_g_inverse_domain_guard(self, all_models):
        with pytest.raises(DomainError):
            all_models["rough-sabr"].g_inverse(-0.1)
        with pytest.raises(DomainError):
            all_models["rough-quadratic-slv"].g_inverse(12.0)


class TestCoefficientDerivatives:
    @pytest.mark.parametrize("name", [
        "rough-heston", "rough-42", "rough-alpha-hyper",
        "rough-sabr", "rough-heston-sabr", "rough-quadratic-slv",
    ])
    def test_derivatives_match_finite_differences(self, name, all_models):
        model = all_models[name]
        v = np.linspace(0.01, 0.15, 9)
        s = np.linspace(2.0, 30.0, 9)
        dv = 1e-6
        ds = 1e-5
        fd_phi = (model.phi(v + dv) - model.phi(v - dv)) / (2 * dv)
        fd_sig = (model.sigma(v + dv) - model.sigma(v - dv)) / (2 * dv)
        fd_nu = (model.nu(s + ds) - model.nu(s - ds)) / (2 * ds)
        assert np.abs(fd_phi - model.phi_prime(v)).max() <= 1e-6 * max(1.0, np.abs(fd_phi).max())
        assert np.abs(fd_sig - model.sigma_prime(v)).max() <= 1e-6 * max(1.0, np.abs(fd_sig).max())
        assert np.abs(fd_nu - model.nu_prime(s)).max() <= 1e-6 * max(1.0, np.abs(fd_nu).max())


class TestChainModel:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_stable_is_the_model_bit_for_bit(self, name, all_models, market, kernel):
        # the chain runs the model itself: assemble's x-grid, Q and regime
        # family are the ones built from the model's own coefficients
        model = all_models[name]
        gens = assemble(model, market, kernel, n=16, m=12)
        vgrid = build_variance_grid(12, market)
        xgrid = build_x_grid(16, market, model, vgrid)
        assert gens.model is model
        assert np.array_equal(gens.xgrid.nodes, xgrid.nodes)
        assert np.array_equal(gens.q, build_Q(vgrid, model, market, kernel))
        assert np.array_equal(gens.lambdas,
                              build_lambda_family(xgrid, vgrid.nodes, model, market, kernel))


class TestDriftTheta:
    def test_zero_correlation_heston(self, heston, kernel):
        market = MarketParams(s0=10.0, v0=0.04, rho=0.0)
        for v in (0.01, 0.04, 0.12):
            got = drift_theta(np.log(10.0), v, heston, market, kernel)
            assert got == pytest.approx(-v / 2, abs=1e-14)

    def test_heston_closed_form_row(self, heston, market, kernel):
        # r - q - v/2 - rho eta (theta - v)/sigma + rho (v - v0) Rhat/sigma
        x0 = np.log(10.0) - market.rho * heston.f_primitive(market.v0)
        for v in (0.004, 0.04, 0.1):
            want = (
                -v / 2
                - market.rho * 4 * (0.035 - v) / 0.8
                - market.rho * (v - market.v0) * kernel.rhat / 0.8
            )
            got = drift_theta(x0, v, heston, market, kernel)
            assert got == pytest.approx(want, abs=1e-10)

    def test_no_memory_drift_at_half(self, heston, market):
        # Rhat = 0 at H = 1/2, so the variance drift is the classical b(v) bit
        # for bit and the H = 1/2 gates discretize classical Heston
        kernel = KernelSpec(hurst=0.5, eps=1e-8)
        v = build_variance_grid(100, market).nodes
        assert np.array_equal(variance_drift(v, heston, market, kernel), heston.b(v))

    def test_sabr_closed_form_row(self, all_models, kernel):
        # at v = v0 the memory term vanishes and b = 0, leaving only
        # -beta v^2 / (2 (1-beta) (x + rho f(v)))
        sabr = all_models["rough-sabr"]
        market = MarketParams(s0=10.0, v0=0.04, rho=-0.75)
        beta = 0.7
        v0 = market.v0
        f0 = sabr.f_primitive(v0)
        x = sabr.g(10.0) - market.rho * f0
        want = -beta * v0**2 / (2 * (1 - beta) * (x + market.rho * f0))
        got = drift_theta(x, v0, sabr, market, kernel)
        assert got == pytest.approx(want, abs=1e-10)


_SPECS = {
    MarketParams: dict(s0=10.0, v0=0.04, rho=-0.75),
    KernelSpec: dict(hurst=0.12, eps=1e-8),
    OptionSpec: dict(kind="call", strike=4.0, maturity=1.0, rate=0.0),
}


@pytest.mark.parametrize("bad", ["x", [1.0]], ids=["str", "list"])
@pytest.mark.parametrize("spec, field", [
    (spec, field) for spec, args in _SPECS.items() for field in args if field != "kind"
], ids=lambda x: getattr(x, "__name__", x))
def test_specs_reject_a_non_number(spec, field, bad):
    # one rule for every float field of the three specs, message included
    with pytest.raises(ParameterError, match=f"^{field} must be a number$"):
        spec(**_SPECS[spec] | {field: bad})


class TestMarketParams:
    def test_rho_domain(self):
        with pytest.raises(ParameterError):
            MarketParams(s0=10.0, v0=0.04, rho=-1.0)

    def test_inputs_become_floats(self):
        market = MarketParams(s0=10, v0=1, rho=0)
        assert all(type(x) is float for x in (market.s0, market.v0, market.rho))
        with pytest.raises(ParameterError):
            MarketParams(s0="ten", v0=0.04, rho=0.0)

    def test_s0_positive(self):
        with pytest.raises(ParameterError):
            MarketParams(s0=0.0, v0=0.04, rho=0.0)
