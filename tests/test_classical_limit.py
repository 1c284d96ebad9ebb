"""The classical limit H = 1/2 as an exact gate.

At H = 1/2 the kernel is 1, so Rhat = 0: the chain has no memory drift, and
rough-heston is classical Heston,
dV = eta (theta - V) dt + sigma sqrt(V) dB, whose European prices are a
one-dimensional Fourier integral (Heston, RFS 1993).  The oracle below uses
the stable form of Albrecher, Mayer, Schoutens & Tistaert (Wilmott 2007).

The gate prices the strip on the default config with ``kernel.hurst = 0.5``
and holds every contract to one absolute bound.  It sees every
discretization error of the chain (truncation domains, the lower-wall rule,
upwinding, the martingale defect, the slice error) without Monte Carlo
noise, and fails while those errors exceed the bound.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from roughchain import KernelSpec, MarketParams, OptionSpec, assemble, make_model, price_fast
from roughchain.presets import BASE_KERNEL, BASE_MARKET, model_params

STRIP = (("put", 6.0), ("put", 8.0), ("put", 10.0), ("call", 12.0), ("call", 14.0))
# the strip at r = 0, T = 1 on the rough-heston preset, to five decimals
STRIP_R0 = (0.03054, 0.16593, 0.67134, 0.04858, 0.00110)


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


def strip(r):
    """The oracle's strip on the rough-heston preset at T = 1."""
    p, m = model_params("rough-heston"), BASE_MARKET
    args = (p["eta"], p["theta"], p["sigma"], m["rho"], m["v0"])
    out = []
    for kind, k in STRIP:
        call = heston_call(m["s0"], k, 1.0, r, p["q"], *args)
        out.append(call if kind == "call" else call - m["s0"] * np.exp(-p["q"]) + k * np.exp(-r))
    return out


LEWIS = (100.0, 100.0, 1.0, 0.0, 0.0, 1.5768, 0.0398, 0.5751, -0.5711, 0.0175)


def test_oracle_lewis_value():
    # the standard check value of Lewis (2001), quoted to ten digits
    assert abs(heston_call(*LEWIS) - 5.785155450) <= 1e-7


@pytest.mark.parametrize("k", [80.0, 100.0, 120.0])
@pytest.mark.parametrize("r", [0.0, 0.05])
def test_oracle_put_call_parity(k, r):
    # two contours, one identity: C - P = e^{-rT} (F - K)
    s0, _, t, _, _, *law = LEWIS
    q = 0.02
    call = heston_call(s0, k, t, r, q, *law)
    put = heston_put_lewis(s0, k, t, r, q, *law)
    assert abs(call - put - (s0 * np.exp(-q * t) - k * np.exp(-r * t))) <= 1e-8


def test_oracle_strip():
    assert np.allclose(strip(0.0), STRIP_R0, rtol=0.0, atol=1e-5)


@pytest.mark.parametrize("r", [0.0, 0.05])
def test_classical_limit_gate(r):
    # one absolute bound for every contract: 1e-3 of the spot, fixed before
    # any engine change and far above the oracle's quadrature error
    bound = 1e-3 * BASE_MARKET["s0"]
    model = make_model("rough-heston", model_params("rough-heston") | {"r": r})
    gens = assemble(model, MarketParams(**BASE_MARKET),
                    KernelSpec(hurst=0.5, eps=BASE_KERNEL["eps"]), n=100, m=100)
    failing = []
    for (kind, k), exact in zip(STRIP, strip(r)):
        price = price_fast(OptionSpec(kind, k, 1.0), gens).price
        ok = abs(price - exact) <= bound
        print(f"[{'PASS' if ok else 'FAIL'}] H=1/2 r={r:g} {kind} K={k:g}: chain={price:.5f} "
              f"heston={exact:.5f} error={abs(price - exact):.3g} bound={bound:g}")
        if not ok:
            failing.append(f"{kind} K={k:g}: error {abs(price - exact):.3g}")
    assert not failing, f"r={r:g}, bound {bound:g}: " + "; ".join(failing)
