import numpy as np
import pytest

from roughchain import (
    DomainError,
    KernelSpec,
    ParameterError,
    fractional_kernel,
    laplace_constants,
    laplace_quadrature,
    perturbed_kernel,
)

# frozen with 40-digit arithmetic: 0.5**(-0.38)/Gamma(0.62), 0.01**(-0.38)/Gamma(0.62)
K_1_05_H012 = 0.90055880732324727472
KP_1_1_H012_E2 = 3.9821780993782634932
INV_GAMMA_062 = 0.69202324013271591567


class TestFractionalKernel:
    def test_h_half_is_one(self):
        spec = KernelSpec(hurst=0.5, eps=1.0)
        assert fractional_kernel(1.0, 0.0, spec) == pytest.approx(1.0, abs=1e-15)

    def test_unit_lag(self):
        spec = KernelSpec(hurst=0.12, eps=1.0)
        assert fractional_kernel(2.0, 1.0, spec) == pytest.approx(INV_GAMMA_062, rel=1e-14)

    def test_half_lag_against_high_precision(self):
        spec = KernelSpec(hurst=0.12, eps=1.0)
        assert fractional_kernel(1.0, 0.5, spec) == pytest.approx(K_1_05_H012, rel=1e-14)

    def test_equal_times_rejected(self):
        spec = KernelSpec(hurst=0.12, eps=1.0)
        with pytest.raises(DomainError):
            fractional_kernel(1.0, 1.0, spec)


class TestPerturbedKernel:
    def test_zero_lag_equals_keps(self):
        spec = KernelSpec(hurst=0.12, eps=1e-2)
        assert perturbed_kernel(1.0, 1.0, spec) == pytest.approx(KP_1_1_H012_E2, rel=1e-14)
        assert perturbed_kernel(1.0, 1.0, spec) == pytest.approx(spec.k_eps, rel=1e-15)

    def test_unit_eps_zero_lag(self):
        spec = KernelSpec(hurst=0.12, eps=1.0)
        assert perturbed_kernel(2.0, 2.0, spec) == pytest.approx(INV_GAMMA_062, rel=1e-14)

    def test_decreasing_in_eps_and_fractional_limit(self):
        vals = [
            perturbed_kernel(1.0, 0.25, KernelSpec(hurst=0.12, eps=e))
            for e in (1.0, 1e-1, 1e-2, 1e-4, 1e-8)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        frac = fractional_kernel(1.0, 0.0, KernelSpec(hurst=0.12, eps=1.0))
        tiny = perturbed_kernel(1.0, 0.0, KernelSpec(hurst=0.12, eps=1e-8))
        assert abs(tiny - frac) <= 1e-6 * frac

    def test_future_time_rejected(self):
        with pytest.raises(DomainError):
            perturbed_kernel(1.0, 1.5, KernelSpec(hurst=0.12, eps=1e-2))


class TestLaplaceConstants:
    def test_rhat_closed_form_value(self):
        _, _, rhat = laplace_constants(KernelSpec(hurst=0.12, eps=1e-2))
        assert rhat == pytest.approx(-0.37623762376237623762, rel=1e-14)

    def test_r_small_eps_limit(self):
        _, r, _ = laplace_constants(KernelSpec(hurst=0.12, eps=1e-12))
        assert r == pytest.approx(INV_GAMMA_062, rel=1e-10)

    @pytest.mark.parametrize("h", [0.05, 0.12, 0.3, 0.45])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-8])
    def test_algebraic_identity(self, h, eps):
        spec = KernelSpec(hurst=h, eps=eps)
        _, r, _ = laplace_constants(spec)
        assert r * spec.gamma_h * (1 + eps) ** (0.5 - h) == pytest.approx(1.0, rel=1e-14)

    def test_signs(self):
        keps, r, rhat = laplace_constants(KernelSpec(hurst=0.3, eps=1e-3))
        assert keps > 0 and r > 0 and rhat < 0

    def test_keps_divergence_rate(self):
        # log-log slope of Keps against eps equals H - 1/2
        h = 0.12
        e1, e2 = 1e-6, 1e-9
        k1 = KernelSpec(hurst=h, eps=e1).k_eps
        k2 = KernelSpec(hurst=h, eps=e2).k_eps
        slope = (np.log(k2) - np.log(k1)) / (np.log(e2) - np.log(e1))
        assert slope == pytest.approx(h - 0.5, abs=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            KernelSpec(hurst=0.6, eps=1e-3)
        with pytest.raises(ParameterError):
            KernelSpec(hurst=0.12, eps=0.0)
        with pytest.raises(ParameterError, match="hurst must be a number"):
            KernelSpec(hurst="abc", eps=1e-3)


class TestLaplaceQuadrature:
    @pytest.mark.parametrize("h", [0.05, 0.12, 0.3, 0.45])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-8])
    def test_closed_forms_match_quadrature(self, h, eps):
        spec = KernelSpec(hurst=h, eps=eps)
        _, r, rhat = laplace_constants(spec)
        r_q = laplace_quadrature("R", spec, tol=1e-11)
        num_q = laplace_quadrature("Rhat-numerator", spec, tol=1e-11)
        assert abs(r - r_q) <= 1e-8 * abs(r_q)
        assert abs(rhat - (-num_q / r_q)) <= 1e-8 * abs(rhat)

    def test_kernel_representation_lattice(self):
        spec = KernelSpec(hurst=0.12, eps=1e-2)
        for t, s in [(1.0, 0.5), (1.0, 0.0), (2.0, 1.7), (0.3, 0.3)]:
            rep = laplace_quadrature("kernel", spec, tol=1e-12, t=t, s=s)
            closed = perturbed_kernel(t, s, spec)
            assert abs(rep - closed) <= 1e-8 * closed

    def test_rhat_numerator_vanishes_near_half(self):
        spec = KernelSpec(hurst=0.4999, eps=1e-3)
        num = laplace_quadrature("Rhat-numerator", spec, tol=1e-12)
        assert 0 < num < 5e-4

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            laplace_quadrature("bogus", KernelSpec(hurst=0.12, eps=1e-2))
