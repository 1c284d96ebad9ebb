"""The six rough stochastic local volatility families and their transforms.

Every family is a pair of dynamics

    dS = (r - q) S dt + phi(V) nu(S) dW
    V  = V0 + int K(t, s) (b(V) ds + sigma(V) dB),   corr(W, B) = rho,

together with the decoupling transforms

    g(s) = int ds / nu(s)           (asset transform, strictly increasing)
    f(v) = int phi(v) / sigma(v) dv (variance transform)

The auxiliary state is X = g(S) - rho f(V), whose drift `drift_theta` below
is obtained from Ito's formula.  The variance chain runs b and sigma as given,
with the memory drift (v - V0) Rhat of `variance_drift`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError, coerce_floats
from .kernel import KernelSpec, laplace_constants

__all__ = [
    "MODEL_NAMES",
    "ModelSpec",
    "MarketParams",
    "make_model",
    "variance_drift",
    "asset_level",
    "drift_theta",
]


def _positive(*keys):
    return tuple((f"{k} > 0", lambda p, k=k: p[k] > 0) for k in keys)


_BETA = (("beta in [0, 1)", lambda p: 0.0 <= p["beta"] < 1.0),)
_CIR = _positive("eta", "theta", "sigma")  # the CIR-sqrt(v) law b = eta (theta - v), sigma sqrt(v)

# family -> (parameter names, admissibility checks (what, holds(p)) in order)
_FAMILIES = {
    "rough-heston": (("r", "q", "eta", "theta", "sigma"), _CIR),
    "rough-42": (("r", "q", "eta", "theta", "sigma", "a", "b"), _CIR),
    "rough-alpha-hyper": (("r", "q", "eta", "theta", "a", "sigma"),
                          _positive("theta", "a", "sigma")),
    "rough-sabr": (("sigma", "beta"), _positive("sigma") + _BETA),
    "rough-heston-sabr": (("r", "q", "eta", "theta", "sigma", "beta"), _CIR + _BETA),
    "rough-quadratic-slv": (("r", "q", "eta", "theta", "sigma", "a", "b", "c"),
                            _positive("a") + _CIR
                            + (("4ac > b^2", lambda p: 4 * p["a"] * p["c"] > p["b"] ** 2),)),
}
MODEL_NAMES = tuple(_FAMILIES)


@dataclass(frozen=True)
class MarketParams:
    """Initial state and correlation shared by all families."""

    s0: float
    v0: float
    rho: float

    def __post_init__(self):
        coerce_floats(self, "s0", "v0", "rho")
        if not 0.0 < self.s0 < np.inf:
            raise ParameterError(f"s0 must be finite and positive, got {self.s0}")
        if not np.isfinite(self.v0):
            raise ParameterError(f"v0 must be finite, got {self.v0}")
        if not abs(self.rho) < 1:
            raise ParameterError(f"rho must lie in (-1, 1), got {self.rho}")


@dataclass(frozen=True)
class ModelSpec:
    """Coefficient functions and transforms of one volatility family.

    All callables accept floats or numpy arrays.  ``f_primitive`` is int
    phi/sigma.  ``asset_domain`` is "positive" (S > 0) or "real"; ``g_range``
    bounds the image of g (used to clamp auxiliary grids inside the transform
    domain).
    """

    name: str
    params: dict
    nu: Callable
    nu_prime: Callable
    phi: Callable
    phi_prime: Callable
    b: Callable
    sigma: Callable
    sigma_prime: Callable
    g: Callable
    g_inverse_raw: Callable = field(repr=False)
    f_primitive: Callable = field(repr=False)
    asset_domain: str = "positive"
    g_range: tuple = (-np.inf, np.inf)
    variance_domain: str = "positive"

    @property
    def rates(self) -> tuple[float, float]:
        """(r, q) of the asset drift (r - q) S dt; both 0.0 for rough-sabr."""
        return self.params.get("r", 0.0), self.params.get("q", 0.0)

    def g_inverse(self, y):
        """Inverse asset transform; raises outside the open image of g."""
        yarr = np.asarray(y, dtype=float)
        lo, hi = self.g_range
        if np.any(yarr <= lo) or np.any(yarr >= hi):
            raise DomainError(
                f"{self.name}: g_inverse argument outside ({lo:.6g}, {hi:.6g})"
            )
        out = self.g_inverse_raw(yarr)
        return float(out) if np.isscalar(y) else out


def _validated(name: str, params: dict) -> dict:
    if name not in _FAMILIES:
        raise ParameterError(f"unknown model name {name!r}; choose one of {MODEL_NAMES}")
    if not isinstance(params, Mapping):
        raise ParameterError(f"{name}: params must map parameter names to numbers, got {params!r}")
    keys, checks = _FAMILIES[name]
    missing = [k for k in keys if k not in params]
    extra = [k for k in params if k not in keys]
    if missing:
        raise ParameterError(f"{name}: missing parameters {missing}")
    if extra:
        raise ParameterError(f"{name}: unknown parameters {extra}")
    p = {}
    for k in keys:
        try:
            p[k] = float(params[k])
        except (TypeError, ValueError):
            raise ParameterError(f"{name}: parameter {k} must be a number") from None
        if not np.isfinite(p[k]):
            raise ParameterError(f"{name}: parameter {k} must be finite, got {p[k]}")
    for what, holds in checks:
        if not holds(p):
            raise ParameterError(f"{name}: parameter domain violated: {what}")
    return p


def _log_asset() -> dict:
    """nu(s) = s, g = ln s: np.log itself, which Monte Carlo reads as its log-Euler rule."""
    return dict(
        nu=lambda s: np.asarray(s, float),
        nu_prime=lambda s: np.ones_like(np.asarray(s, float)),
        g=np.log, g_inverse_raw=np.exp,
    )


def _power_asset(beta: float) -> dict:
    """nu(s) = s^beta, g = s^(1-beta)/(1-beta) with image (0, inf)."""
    return dict(
        nu=lambda s: s**beta,
        nu_prime=lambda s: beta * s ** (beta - 1.0),
        g=lambda s: s ** (1.0 - beta) / (1.0 - beta),
        g_inverse_raw=lambda y: ((1.0 - beta) * y) ** (1.0 / (1.0 - beta)),
        g_range=(0.0, np.inf),
    )


def _cir_sqrt(eta: float, theta: float, sigma: float) -> dict:
    """CIR-type variance b = eta (theta - v), sigma sqrt(v), with phi = sqrt(v), f = v/sigma."""
    return dict(
        phi=np.sqrt, phi_prime=lambda v: 0.5 / np.sqrt(v),
        b=lambda v: eta * (theta - v),
        sigma=lambda v: sigma * np.sqrt(v),
        sigma_prime=lambda v: 0.5 * sigma / np.sqrt(v),
        f_primitive=lambda v: np.asarray(v, float) / sigma,
    )


def make_model(name: str, params: dict) -> ModelSpec:
    """Build the named family with validated parameters.

    Each family is an asset transform (nu, g), a volatility function phi and a
    variance law (b, sigma).  Parameter sets (all floats) and checks:

    ========================  ==========================================
    rough-heston              r, q, eta, theta, sigma        (eta, theta, sigma > 0)
    rough-42                  r, q, eta, theta, sigma, a, b  (eta, theta, sigma > 0)
    rough-alpha-hyper         r, q, eta, theta, a, sigma     (theta, a, sigma > 0)
    rough-sabr                sigma, beta                    (sigma > 0, 0 <= beta < 1)
    rough-heston-sabr         r, q, eta, theta, sigma, beta  (eta, theta, sigma > 0, 0 <= beta < 1)
    rough-quadratic-slv       r, q, eta, theta, sigma, a, b, c
                              (a, eta, theta, sigma > 0 and 4ac > b^2)
    ========================  ==========================================
    """
    p = _validated(name, params)
    eta, theta, sg, a, b, c = (p.get(k) for k in ("eta", "theta", "sigma", "a", "b", "c"))
    if name == "rough-heston":
        parts = _log_asset() | _cir_sqrt(eta, theta, sg)
    elif name == "rough-42":
        # f = int (a sqrt(u) + b/sqrt(u)) / (sigma sqrt(u)) du = (a v + b ln v)/sigma
        parts = _log_asset() | _cir_sqrt(eta, theta, sg) | dict(
            phi=lambda v: a * np.sqrt(v) + b / np.sqrt(v),
            phi_prime=lambda v: 0.5 * a / np.sqrt(v) - 0.5 * b * v ** (-1.5),
            f_primitive=lambda v: (a * v + b * np.log(v)) / sg,
        )
    elif name == "rough-alpha-hyper":
        parts = _log_asset() | dict(
            phi=np.exp, phi_prime=np.exp,
            b=lambda v: eta - theta * np.exp(a * v),
            sigma=lambda v: np.full_like(np.asarray(v, float), sg),
            sigma_prime=lambda v: np.zeros_like(np.asarray(v, float)),
            f_primitive=lambda v: np.exp(v) / sg,
            variance_domain="real",
        )
    elif name == "rough-sabr":
        parts = _power_asset(p["beta"]) | dict(
            phi=lambda v: np.asarray(v, float),
            phi_prime=lambda v: np.ones_like(np.asarray(v, float)),
            b=lambda v: np.zeros_like(np.asarray(v, float)),
            sigma=lambda v: sg * np.asarray(v, float),
            sigma_prime=lambda v: np.full_like(np.asarray(v, float), sg),
            f_primitive=lambda v: np.asarray(v, float) / sg,
            variance_domain="real",
        )
    elif name == "rough-heston-sabr":
        parts = _power_asset(p["beta"]) | _cir_sqrt(eta, theta, sg)
    else:  # rough-quadratic-slv
        disc = np.sqrt(4 * a * c - b * b)
        parts = _cir_sqrt(eta, theta, sg) | dict(
            nu=lambda s: a * s * s + b * s + c,
            nu_prime=lambda s: 2 * a * s + b,
            g=lambda s: 2.0 * np.arctan((2 * a * s + b) / disc) / disc,
            g_inverse_raw=lambda y: (disc * np.tan(0.5 * disc * y) - b) / (2 * a),
            asset_domain="real", g_range=(-np.pi / disc, np.pi / disc),
        )
    return ModelSpec(name=name, params=p, **parts)


# --------------------------------------------------------------------------
# transforms and the auxiliary drift
# --------------------------------------------------------------------------

def variance_drift(v, model: ModelSpec, market: MarketParams, kernel: KernelSpec):
    """Variance-chain drift (v - V0) Rhat + b(v)."""
    _, _, rhat = laplace_constants(kernel)
    return (np.asarray(v, float) - market.v0) * rhat + model.b(v)


def asset_level(x, v, model: ModelSpec, market: MarketParams):
    """Asset level s = g^{-1}(x + rho f(v)) of the auxiliary state x at variance v."""
    return model.g_inverse(np.asarray(x, float) + market.rho * model.f_primitive(v))


def drift_theta(x, v, model: ModelSpec, market: MarketParams, kernel: KernelSpec):
    """Drift of the auxiliary state X = g(S) - rho f(V) at (x, v).

    With s = g^{-1}(x + rho f(v)) and the variance-chain drift d(v):

        theta = (r - q) s/nu(s) - nu'(s) phi(v)^2 / 2
                - (rho/2) (sigma phi' - sigma' phi)(v)
                - rho d(v) phi(v) / sigma(v)
    """
    rho = market.rho
    r, q = model.rates
    s = asset_level(x, v, model, market)
    phi_v, sig_v = model.phi(v), model.sigma(v)
    wron = sig_v * model.phi_prime(v) - model.sigma_prime(v) * phi_v
    out = (
        (r - q) * s / model.nu(s)
        - 0.5 * model.nu_prime(s) * phi_v**2
        - 0.5 * rho * wron
        - rho * variance_drift(v, model, market, kernel) * phi_v / sig_v
    )
    return float(out) if np.isscalar(x) and np.isscalar(v) else out
