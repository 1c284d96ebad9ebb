"""The perturbed power kernel's parameters and the one constant the chain reads.

The variance process is driven by the singular kernel

    K(t, s) = (t - s)^(H - 1/2) / Gamma(H + 1/2),      0 < H < 1/2,

which the engine replaces by the smooth shifted kernel K(t + eps, s), a
Laplace transform of the positive measure

    m(dg) = g^(-H - 1/2) dg / (Gamma(H + 1/2) * Gamma(1/2 - H)).

The engine reads one constant of m, the memory drift rate

    Rhat = -int_0^inf exp(-g eps) g exp(-g) m(dg) / int_0^inf exp(-g eps) exp(-g) m(dg)
         = -(1/2 - H) / (1 + eps),

which sets the variance chain's drift (v - V0) Rhat and is exactly 0 at
H = 1/2.  The kernels themselves, the closed forms of the other Laplace
constants and the quadrature that checks them live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, coerce_floats

__all__ = ["KernelSpec"]


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
    def rhat(self) -> float:
        """Memory drift rate Rhat = -(1/2 - H)/(1 + eps)."""
        return -(0.5 - self.hurst) / (1.0 + self.eps)
