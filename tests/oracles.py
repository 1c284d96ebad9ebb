"""Exact and independent references that only the tests read.

The package reads one number of the kernel, ``KernelSpec.rhat``.  The
kernels themselves, the other constants of their Laplace measure

    m(dg) = g^(-H - 1/2) dg / (Gamma(H + 1/2) * Gamma(1/2 - H)),

    Keps = K(t + eps, t) = eps^(H - 1/2) / Gamma(H + 1/2)
    R    = int_0^inf exp(-g eps) exp(-g) m(dg) = (1 + eps)^(H - 1/2) / Gamma(H + 1/2)

and an adaptive quadrature of m that checks them and Rhat live here, beside
the H = 1/2 closed form: classical Heston European prices as one-dimensional
Fourier integrals (Heston, RFS 1993) in the stable form of Albrecher, Mayer,
Schoutens & Tistaert (Wilmott 2007).

Import from a test as ``from oracles import ...``.
"""

import math

import numpy as np
from scipy.integrate import quad

from roughchain import DomainError, KernelSpec, NumericalError


def gamma_h(spec: KernelSpec) -> float:
    """Gamma(H + 1/2)."""
    return math.gamma(spec.hurst + 0.5)


def fractional_kernel(t: float, s: float, spec: KernelSpec) -> float:
    """Singular power kernel (t-s)^(H-1/2)/Gamma(H+1/2), requires s < t."""
    if not s < t:
        raise DomainError(f"fractional kernel needs s < t, got s={s}, t={t}")
    return float((t - s) ** (spec.hurst - 0.5) / gamma_h(spec))


def perturbed_kernel(t: float, s: float, spec: KernelSpec) -> float:
    """Shifted kernel (t+eps-s)^(H-1/2)/Gamma(H+1/2), finite for s <= t."""
    if s > t:
        raise DomainError(f"perturbed kernel needs s <= t, got s={s}, t={t}")
    return float((t + spec.eps - s) ** (spec.hurst - 0.5) / gamma_h(spec))


def k_eps(spec: KernelSpec) -> float:
    """Shifted kernel at zero lag, eps^(H-1/2)/Gamma(H+1/2)."""
    return float(spec.eps ** (spec.hurst - 0.5) / gamma_h(spec))


def laplace_r(spec: KernelSpec) -> float:
    """R = (1 + eps)^(H-1/2)/Gamma(H+1/2), from int_0^inf exp(-a g) g^(p-1) dg = Gamma(p)/a^p."""
    return (1.0 + spec.eps) ** (spec.hurst - 0.5) / gamma_h(spec)


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

    norm = gamma_h(spec) * math.gamma(0.5 - h)

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


def _cf(u, t, kappa, theta, sigma, rho, v0):
    """E[exp(iu ln(S_T / F))] under Heston, F the forward, in the stable form."""
    beta = kappa - rho * sigma * 1j * u
    d = np.sqrt(beta**2 + sigma**2 * (1j * u + u * u))
    g = (beta - d) / (beta + d)
    e = np.exp(-d * t)
    c = kappa * theta / sigma**2 * ((beta - d) * t - 2.0 * np.log((1.0 - g * e) / (1.0 - g)))
    return np.exp(c + v0 * (beta - d) / sigma**2 * (1.0 - e) / (1.0 - g * e))


def _integral(f):
    return quad(f, 0.0, np.inf, limit=500, epsabs=1e-13, epsrel=1e-13)[0]


def heston_call(s0, k, t, r, q, kappa, theta, sigma, rho, v0):
    """Heston European call, e^{-rT} (F P1 - K P2), by Gil-Pelaez inversion."""
    fwd = s0 * np.exp((r - q) * t)
    lk, law = np.log(k / fwd), (t, kappa, theta, sigma, rho, v0)

    def prob(shift):  # P1 (shift 1: the share measure) or P2 (shift 0)
        return 0.5 + _integral(
            lambda u: (np.exp(-1j * u * lk) * _cf(u - 1j * shift, *law) / (1j * u)).real) / np.pi

    return np.exp(-r * t) * (fwd * prob(1) - k * prob(0))


def heston_put_lewis(s0, k, t, r, q, kappa, theta, sigma, rho, v0):
    """Heston European put by Lewis (2001): a second contour, u - i/2."""
    fwd = s0 * np.exp((r - q) * t)
    lk, law = np.log(k / fwd), (t, kappa, theta, sigma, rho, v0)
    tv = _integral(lambda u: (np.exp(-1j * u * lk) * _cf(u - 0.5j, *law)).real / (u * u + 0.25))
    return np.exp(-r * t) * (k - np.sqrt(fwd * k) * tv / np.pi)
