"""Fractional and perturbed power kernels and their Laplace-measure constants.

The variance process is driven by the singular kernel

    K(t, s) = (t - s)^(H - 1/2) / Gamma(H + 1/2),      0 < H < 1/2,

which the engine replaces by the smooth shifted kernel K(t + eps, s).  The
shifted kernel is a Laplace transform of the positive measure

    m(dg) = g^(-H - 1/2) dg / (Gamma(H + 1/2) * Gamma(1/2 - H)),

with three scalar constants derived from m:

    Keps = K(t + eps, t) = eps^(H - 1/2) / Gamma(H + 1/2)
    R    = int_0^inf exp(-g eps) exp(-g) m(dg) = (1 + eps)^(H - 1/2) / Gamma(H + 1/2)
    Rhat = -int_0^inf exp(-g eps) g exp(-g) m(dg) / R = -(1/2 - H) / (1 + eps)

Rhat sets the variance chain's memory drift (v - V0) Rhat.  The closed forms
are checked against `laplace_quadrature`, an independent oracle for them (and
for the Laplace representation of the kernel itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ParameterError, coerce_floats

__all__ = [
    "KernelSpec",
    "fractional_kernel",
    "perturbed_kernel",
    "laplace_constants",
    "laplace_quadrature",
]


@dataclass(frozen=True)
class KernelSpec:
    """Hurst parameter and shift of the perturbed power kernel.

    Parameters
    ----------
    hurst : float
        Roughness exponent H.  Must lie in (0, 1/2]; the boundary value 1/2
        degenerates the kernel to the constant 1 (classical diffusion) and is
        admitted for testing against non-rough limits.
    eps : float
        Positive shift applied to the first kernel argument.  Intended to be
        much smaller than the maturities of interest.
    """

    hurst: float
    eps: float

    def __post_init__(self):
        coerce_floats(self, "hurst", "eps")
        if not 0.0 < self.hurst <= 0.5:
            raise ParameterError(f"hurst must be in (0, 0.5], got {self.hurst}")
        if not 0.0 < self.eps < math.inf:
            raise ParameterError(f"eps must be finite and positive, got {self.eps}")

    @property
    def gamma_h(self) -> float:
        """Gamma(H + 1/2)."""
        return math.gamma(self.hurst + 0.5)

    @property
    def k_eps(self) -> float:
        """Shifted kernel at zero lag, eps^(H-1/2)/Gamma(H+1/2)."""
        return float(self.eps ** (self.hurst - 0.5) / self.gamma_h)


def fractional_kernel(t: float, s: float, spec: KernelSpec) -> float:
    """Singular power kernel (t-s)^(H-1/2)/Gamma(H+1/2), requires s < t."""
    if not s < t:
        raise DomainError(f"fractional kernel needs s < t, got s={s}, t={t}")
    return float((t - s) ** (spec.hurst - 0.5) / spec.gamma_h)


def perturbed_kernel(t: float, s: float, spec: KernelSpec) -> float:
    """Shifted kernel (t+eps-s)^(H-1/2)/Gamma(H+1/2), finite for s <= t."""
    if s > t:
        raise DomainError(f"perturbed kernel needs s <= t, got s={s}, t={t}")
    return float((t + spec.eps - s) ** (spec.hurst - 0.5) / spec.gamma_h)


def laplace_constants(spec: KernelSpec) -> tuple[float, float, float]:
    """Return (Keps, R, Rhat) in closed form.

    R and Rhat follow from the Gamma-integral identity
    int_0^inf exp(-a g) g^(p-1) dg = Gamma(p)/a^p applied to the measure
    density; both are cross-checked against `laplace_quadrature` in the test
    suite before being trusted.
    """
    h, eps = spec.hurst, spec.eps
    k_eps = spec.k_eps
    r = (1.0 + eps) ** (h - 0.5) / spec.gamma_h
    rhat = -(0.5 - h) / (1.0 + eps)
    return k_eps, r, rhat


def laplace_quadrature(
    kind: str,
    spec: KernelSpec,
    tol: float = 1e-10,
    t: float | None = None,
    s: float | None = None,
) -> float:
    """Adaptive quadrature of a Laplace-measure integral over (0, inf).

    Parameters
    ----------
    kind : {"R", "Rhat-numerator", "kernel"}
        "R"              -> int exp(-g(1+eps)) m(dg)
        "Rhat-numerator" -> int exp(-g(1+eps)) g m(dg)
        "kernel"         -> int exp(-g(t+eps-s)) m(dg), requires t, s with s <= t
    spec : KernelSpec
        Kernel parameters; requires hurst < 1/2 (the measure degenerates at 1/2).
    tol : float
        Target absolute/relative error of the quadrature.

    The integrand carries the integrable singularity g^(-H-1/2) at the origin,
    handled with an algebraic-weight rule on (0, 1); the smooth exponential
    tail is integrated by plain adaptive quadrature on (1, inf).
    """
    if spec.hurst >= 0.5:
        raise DomainError("Laplace measure is degenerate at hurst = 1/2")
    if tol <= 0:
        raise DomainError("tol must be positive")
    h, eps = spec.hurst, spec.eps
    if kind == "R":
        a, extra_power = 1.0 + eps, 0.0
    elif kind == "Rhat-numerator":
        a, extra_power = 1.0 + eps, 1.0
    elif kind == "kernel":
        if t is None or s is None:
            raise DomainError("kind='kernel' requires t and s")
        if s > t:
            raise DomainError(f"kernel representation needs s <= t, got s={s}, t={t}")
        a, extra_power = t + eps - s, 0.0
    else:
        raise DomainError(f"unknown quadrature kind {kind!r}")

    # only this oracle integrates; scipy.integrate stays out of the package import
    from scipy.integrate import quad

    norm = spec.gamma_h * math.gamma(0.5 - h)

    # (0, 1): weight='alg' integrates f(g) * (g-0)^alpha with the singular
    # factor supplied analytically by the rule.
    def smooth_part(g):
        return np.exp(-a * g) * g**extra_power / norm

    lo_val, lo_err = quad(
        smooth_part, 0.0, 1.0, weight="alg", wvar=(-h - 0.5, 0.0),
        epsabs=tol / 4, epsrel=tol / 4, limit=200,
    )

    def full_integrand(g):
        return np.exp(-a * g) * g ** (extra_power - h - 0.5) / norm

    hi_val, hi_err = quad(
        full_integrand, 1.0, np.inf, epsabs=tol / 4, epsrel=tol / 4, limit=200,
    )

    total = lo_val + hi_val
    err = lo_err + hi_err
    if err > tol * max(1.0, abs(total)):
        raise NumericalError(
            f"laplace_quadrature({kind}) did not converge: "
            f"estimated error {err:.3e} > tol {tol:.3e} (value {total:.17g})"
        )
    return float(total)
