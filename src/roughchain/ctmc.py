"""Generator matrices: variance chain Q, regime chains Lambda_l, coupled block.

Interior rows of every chain solve the local moment-matching system

    [ 1     1     1   ] [q_{i,i-1}]   [    0     ]
    [-h_i   0   h_{i+1}] [q_{i,i}  ] = [ drift_i  ]
    [h_i^2  0  h_{i+1}^2] [q_{i,i+1}]   [ diff2_i  ]

whose closed-form solution is the nonuniform central difference.  When a row
is drift-dominated (|drift| h > diff2) the central solution has a negative
off-diagonal; only those rows are upwinded, by the one-sided split that
preserves the first moment exactly (at the cost of inflating the second by
|drift| h), so every row is a valid row of rates.

Boundary rows keep only the outflow drift: the state leaves a truncation
wall at its physical drift rate, with no one-sided diffusion.

Memory: a tridiagonal generator is kept as its three diagonals, a
(3, ..., n) array of planes (``tridiagonal_generator``).  The regime family
Lambda_l is one (3, M, N) array from its build through ``GeneratorSet``,
``nu_lambda``, the coupled DIA matrix and ``matexp.expm_dense``, so no
(M, N, N) generator stack is ever formed; only Q is dense (M x M), as its
Pade exponential needs.  Its exponential exp(Lambda_l dt) is a dense stack
only up to 2 MiB, and band rows above (see ``matexp``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import GeneratorError
from .grids import Grid, build_variance_grid, build_x_grid
from .kernel import KernelSpec
from .models import MarketParams, ModelSpec, asset_level, drift_theta, variance_drift

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "GeneratorSet",
    "tridiagonal_generator",
    "build_Q",
    "build_lambda_family",
    "build_coupled",
    "validate_generator",
    "assemble",
]


def tridiagonal_generator(
    grid: Grid,
    drift: np.ndarray,
    diff2: np.ndarray,
) -> np.ndarray:
    """Moment-matched tridiagonal rate matrices on the given grid, as diagonal planes.

    ``drift`` of shape (..., n), with ``diff2`` broadcasting to it, gives the
    planes of shape (3, ..., n): plane 0 holds G[i, i - 1], plane 1 G[i, i]
    and plane 2 G[i, i + 1], one generator per row of the leading axes (the
    entries G[0, -1] and G[n - 1, n] that fall outside a matrix are zero).
    """
    n = len(grid.nodes)
    shape = np.broadcast_shapes(np.shape(drift), np.shape(diff2), (n,))
    drift = np.broadcast_to(np.asarray(drift, float), shape)
    diff2 = np.broadcast_to(np.asarray(diff2, float), shape)
    if np.any(diff2 < 0):
        raise GeneratorError("negative squared diffusion input")
    h = grid.spacings
    hm, hp = h[:-1], h[1:]           # spacings left/right of interior nodes
    d, s2 = drift[..., 1:-1], diff2[..., 1:-1]

    lo = (s2 - d * hp) / (hm * (hm + hp))
    up = (s2 + d * hm) / (hp * (hm + hp))
    bad = (lo < 0) | (up < 0)        # drift-dominated rows: upwind
    lo = np.where(bad, s2 / (hm * (hm + hp)) + np.maximum(-d, 0.0) / hm, lo)
    up = np.where(bad, s2 / (hp * (hm + hp)) + np.maximum(d, 0.0) / hp, up)

    planes = np.zeros((3,) + shape)
    planes[0, ..., 1:-1] = lo
    planes[2, ..., 1:-1] = up
    planes[1, ..., 1:-1] = -(lo + up)

    planes[2, ..., 0] = np.maximum(drift[..., 0], 0.0) / h[0]
    planes[1, ..., 0] = -planes[2, ..., 0]
    planes[0, ..., -1] = np.maximum(-drift[..., -1], 0.0) / h[-1]
    planes[1, ..., -1] = -planes[0, ..., -1]
    return planes


def build_Q(
    vgrid: Grid,
    model: ModelSpec,
    market: MarketParams,
    kernel: KernelSpec,
) -> np.ndarray:
    """Variance-chain generator: drift `variance_drift`, diffusion sigma^2."""
    v = vgrid.nodes
    lower, diag, upper = tridiagonal_generator(
        vgrid, variance_drift(v, model, market, kernel), model.sigma(v) ** 2)
    m = len(v)
    q = np.zeros((m, m))             # Pade needs Q dense
    flat = q.reshape(m * m)          # (i, i + o) at i (m + 1) + o
    flat[::m + 1] = diag
    flat[m::m + 1] = lower[1:]
    flat[1::m + 1] = upper[:-1]
    return q


def build_lambda_family(
    xgrid: Grid,
    levels: float | np.ndarray,
    model: ModelSpec,
    market: MarketParams,
    kernel: KernelSpec,
) -> np.ndarray:
    """Auxiliary-chain generators at frozen variance levels, in one pass.

    Returned as ``tridiagonal_generator`` planes: a scalar level gives shape
    (3, N), an array of levels (3,) + levels.shape + (N,).
    """
    v = np.asarray(levels, float)[..., None]
    th = drift_theta(xgrid.nodes, v, model, market, kernel)
    diff2 = (1.0 - market.rho**2) * model.phi(v) ** 2
    return tridiagonal_generator(xgrid, th, diff2)


def build_coupled(q: np.ndarray, lambdas: np.ndarray) -> sparse.dia_matrix:
    """NM x NM block rate matrix: block (l, j) = q_{lj} I_N, plus Lambda_l on the diagonal.

    ``lambdas`` is the (3, M, N) planes of the regime family.  DIA format,
    written from the diagonals: tridiagonal Q and Lambda_l give the five
    diagonals {-N, -1, 0, 1, N}, on which a product with a vector is faster
    than in CSR.  Column (l, i) of diagonal k holds entry ((l, i) - k, (l, i)).
    """
    from scipy import sparse  # only the coupled oracle builds it: kept out of the package import

    m = q.shape[0]
    n = lambdas.shape[-1]
    if q.shape != (m, m) or lambdas.shape != (3, m, n):
        raise GeneratorError(
            f"shape mismatch: Q {q.shape} vs Lambda planes {np.shape(lambdas)}"
        )
    lower, diag, upper = lambdas
    data = np.zeros((5, m, n))
    data[0, :-1] = np.diagonal(q, -1)[:, None]                   # q_{l+1, l}
    data[1, :, :-1] = lower[:, 1:]                               # Lambda_l[i+1, i]
    data[2] = np.diagonal(q)[:, None] + diag
    data[3, :, 1:] = upper[:, :-1]                               # Lambda_l[i-1, i]
    data[4, 1:] = np.diagonal(q, 1)[:, None]                     # q_{l-1, l}
    keep = [0, 2, 4] if n == 1 else slice(None)                  # N = 1: -1 is -N
    return sparse.dia_matrix(
        (data.reshape(5, m * n)[keep], np.array([-n, -1, 0, 1, n])[keep]),
        shape=(m * n, m * n),
    )


def validate_generator(gen: np.ndarray) -> dict:
    """Row-sum defect, off-diagonal sign and uniformization bound of a dense generator."""
    g = np.asarray(gen)
    diag = np.diag(g)
    return {
        "shape": g.shape,
        "max_abs_row_sum": float(np.abs(g.sum(axis=1)).max()),
        "min_off_diagonal": float((g - np.diag(diag)).min()),
        "max_diag": float(diag.max()),
        "nu": float(np.abs(diag).max()),
    }


@dataclass
class GeneratorSet:
    """Grids, generators and the build context of one chain system."""

    q: np.ndarray                # dense (M, M)
    lambdas: np.ndarray          # regime family as (3, M, N) planes (``tridiagonal_generator``)
    vgrid: Grid
    xgrid: Grid
    asset_states: np.ndarray     # s = g^{-1}(x_i + rho f(v_l)), shape (M, N)
    model: ModelSpec
    market: MarketParams
    kernel: KernelSpec
    _cache: dict = field(init=False, default_factory=dict, repr=False)  # written by pricing

    @property
    def m(self) -> int:
        return len(self.vgrid)

    @property
    def n(self) -> int:
        return len(self.xgrid)

    @cached_property
    def coupled(self) -> sparse.dia_matrix:
        """NM x NM block generator, built on first use."""
        return build_coupled(self.q, self.lambdas)

    @cached_property
    def q_report(self) -> dict:
        """``validate_generator`` report of Q, computed once per system."""
        return validate_generator(self.q)

    @cached_property
    def nu_lambda(self) -> float:
        """Largest exit rate of the regime chains, max_l max_i |Lambda_l[i, i]|."""
        return float(np.abs(self.lambdas[1]).max())

    @property
    def anchor_indices(self) -> tuple[int, int]:
        """(variance index l0, auxiliary index i0) of the initial state."""
        return self.vgrid.anchor_index, self.xgrid.anchor_index


def assemble(
    model: ModelSpec,
    market: MarketParams,
    kernel: KernelSpec,
    n: int = 100,
    m: int = 100,
    v_bounds: tuple[float, float] | None = None,
    x_bounds: tuple[float, float] | None = None,
) -> GeneratorSet:
    """Build the grids and both generator layers of ``model``."""
    vgrid = build_variance_grid(m, market, v_bounds)
    xgrid = build_x_grid(n, market, model, vgrid, x_bounds)
    # coefficient positivity on the state rectangle; a NaN fails it too
    v = vgrid.nodes
    for name, coef in (("phi", model.phi), ("sigma", model.sigma)):
        if not np.all(coef(v) > 0):
            raise GeneratorError(f"{name} not positive on the variance grid [{v[0]:.4g}, "
                                 f"{v[-1]:.4g}]: the lower numerics.v_bounds must be above 0")
    asset_states = asset_level(xgrid.nodes, v[:, None], model, market)
    if not np.all(model.nu(asset_states) > 0):
        raise GeneratorError("nu not positive on the reconstructed asset states")
    return GeneratorSet(
        q=build_Q(vgrid, model, market, kernel),
        lambdas=build_lambda_family(xgrid, v, model, market, kernel),
        vgrid=vgrid, xgrid=xgrid, asset_states=asset_states,
        model=model, market=market, kernel=kernel,
    )
