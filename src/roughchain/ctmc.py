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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import GeneratorError
from .grids import Grid, build_variance_grid, build_x_grid
from .kernel import KernelSpec
from .models import MarketParams, ModelSpec, asset_level, chain_model, drift_theta, variance_drift

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
    """Moment-matched tridiagonal rate matrix on the given grid.

    ``drift`` of shape (..., n), with ``diff2`` broadcasting to it, gives a
    stack of shape (..., n, n): one generator per row of the leading axes.
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

    gen = np.zeros(shape[:-1] + (n, n))
    flat = gen.reshape(shape[:-1] + (n * n,))  # (i, i + o), 0 < i < n - 1: i (n + 1) + o
    flat[..., n:n * (n - 1):n + 1] = lo
    flat[..., n + 2:n * (n - 1):n + 1] = up
    flat[..., n + 1:n * (n - 1):n + 1] = -(lo + up)

    gen[..., 0, 1] = np.maximum(drift[..., 0], 0.0) / h[0]
    gen[..., 0, 0] = -gen[..., 0, 1]
    gen[..., -1, -2] = np.maximum(-drift[..., -1], 0.0) / h[-1]
    gen[..., -1, -1] = -gen[..., -1, -2]
    return gen


def build_Q(
    vgrid: Grid,
    model: ModelSpec,
    market: MarketParams,
    kernel: KernelSpec,
) -> np.ndarray:
    """Variance-chain generator of a chain model: drift `variance_drift`, diffusion sigma^2."""
    v = vgrid.nodes
    drift = variance_drift(v, model, market, kernel)
    return tridiagonal_generator(vgrid, drift, model.sigma(v) ** 2)


def build_lambda_family(
    xgrid: Grid,
    levels: float | np.ndarray,
    model: ModelSpec,
    market: MarketParams,
    kernel: KernelSpec,
) -> np.ndarray:
    """Auxiliary-chain generators of a chain model at frozen variance levels, in one pass.

    A scalar level gives one (N, N) generator; an array of levels gives the
    stack, shape levels.shape + (N, N).
    """
    v = np.asarray(levels, float)[..., None]
    th = drift_theta(xgrid.nodes, v, model, market, kernel)
    diff2 = (1.0 - market.rho**2) * model.phi(v) ** 2
    return tridiagonal_generator(xgrid, th, diff2)


def build_coupled(q: np.ndarray, lambdas: np.ndarray) -> sparse.dia_matrix:
    """NM x NM block rate matrix: block (l, j) = q_{lj} I_N, plus Lambda_l on the diagonal.

    DIA format, written from the diagonals: tridiagonal Q and Lambda_l give
    the five diagonals {-N, -1, 0, 1, N}, on which a product with a vector is
    faster than in CSR.  Column (l, i) of diagonal k holds entry
    ((l, i) - k, (l, i)).
    """
    m = q.shape[0]
    n = lambdas.shape[-1]
    if q.shape != (m, m) or lambdas.shape != (m, n, n):
        raise GeneratorError(
            f"shape mismatch: Q {q.shape} vs Lambdas {np.shape(lambdas)}"
        )
    data = np.zeros((5, m, n))
    data[0, :-1] = np.diagonal(q, -1)[:, None]                   # q_{l+1, l}
    data[1, :, :-1] = np.diagonal(lambdas, -1, 1, 2)             # Lambda_l[i+1, i]
    data[2] = np.diagonal(q)[:, None] + np.diagonal(lambdas, 0, 1, 2)
    data[3, :, 1:] = np.diagonal(lambdas, 1, 1, 2)               # Lambda_l[i-1, i]
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
    """Grids, generators and the build context of one chain system.

    ``model`` is the true model, not the chain model the generators run."""

    q: np.ndarray
    lambdas: np.ndarray
    vgrid: Grid
    xgrid: Grid
    asset_states: np.ndarray     # s = g^{-1}(x_i + rho f(v_l)), shape (M, N)
    model: ModelSpec
    market: MarketParams
    kernel: KernelSpec
    formulation: str = "stable"
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
        return float(np.abs(np.diagonal(self.lambdas, axis1=1, axis2=2)).max())

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
    formulation: str = "stable",
) -> GeneratorSet:
    """Build grids and both generator layers on the chain model of ``formulation``."""
    chain = chain_model(model, kernel, formulation)
    vgrid = build_variance_grid(m, market, v_bounds)
    xgrid = build_x_grid(n, market, chain, vgrid, x_bounds)
    # coefficient positivity on the state rectangle
    v = vgrid.nodes
    if np.any(model.phi(v) <= 0) or np.any(model.sigma(v) <= 0):
        raise GeneratorError("phi or sigma not positive on the variance grid")
    asset_states = asset_level(xgrid.nodes, v[:, None], chain, market)
    if np.any(model.nu(asset_states) <= 0):
        raise GeneratorError("nu not positive on the reconstructed asset states")
    return GeneratorSet(
        q=build_Q(vgrid, chain, market, kernel),
        lambdas=build_lambda_family(xgrid, v, chain, market, kernel),
        vgrid=vgrid, xgrid=xgrid, asset_states=asset_states,
        model=model, market=market, kernel=kernel, formulation=formulation,
    )
