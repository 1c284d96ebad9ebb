"""State grids for the variance chain and the auxiliary chain.

Both grids are "piecewise uniform": two uniform panels meeting exactly at the
anchor node (the initial state), with the panel split chosen so the two
spacings differ by O(span/M^2).  That construction pins the anchor bit-exactly
while satisfying the spacing regularity h = O(1/M), |h_i - h_{i+1}| = O(1/M^2)
required by the chain convergence analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .models import MarketParams, ModelSpec

__all__ = ["Grid", "build_variance_grid", "build_x_grid"]

# Big/small asset proxies used to bound transform images on open domains.
_BIG_ASSET_MULT = 1e5
_SMALL_ASSET_MULT = 1e-12


@dataclass(frozen=True)
class Grid:
    """Ordered grid of states with the anchor (initial state) as a node."""

    nodes: np.ndarray
    anchor_index: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or len(nodes) < 3:
            raise GridError("grid needs at least 3 ordered nodes")
        if not np.all(np.diff(nodes) > 0):
            raise GridError("grid nodes must be strictly increasing")

    @property
    def spacings(self) -> np.ndarray:
        """h_i = nodes[i] - nodes[i-1], length len(nodes) - 1."""
        return np.diff(self.nodes)

    @property
    def anchor(self) -> float:
        return float(self.nodes[self.anchor_index])

    def __len__(self) -> int:
        return len(self.nodes)

    def check_regularity(self) -> None:
        """Verify max h <= C/M and max |h_i - h_{i+1}| <= C/M^2.

        C depends on how asymmetrically the anchor splits the span: with
        anchor fraction p the best two-panel split leaves a single spacing
        jump of order span (1/p + 1/(1-p)) / (2 M^2).
        """
        m = len(self.nodes)
        span = float(self.nodes[-1] - self.nodes[0])
        p = (self.anchor - float(self.nodes[0])) / span
        p = min(max(p, 0.5 / m), 1.0 - 0.5 / m)
        cc = span * (1.0 / p + 1.0 / (1.0 - p))
        h = self.spacings
        if h.max() > cc / m * (1 + 1e-12):
            raise GridError(f"max spacing {h.max():.3e} exceeds C/M = {cc / m:.3e}")
        dh = np.abs(np.diff(h))
        if dh.size and dh.max() > cc / m**2 * (1 + 1e-12):
            raise GridError(
                f"spacing jump {dh.max():.3e} exceeds C/M^2 = {cc / m ** 2:.3e}"
            )


def _two_panel(lo: float, hi: float, anchor: float, m: int) -> Grid:
    """Two uniform panels joined at the anchor; minimizes |h_left - h_right|.

    The result is checked against the spacing regularity bounds.
    """
    if not lo < anchor < hi:
        raise GridError(f"anchor {anchor} must lie strictly inside ({lo}, {hi})")
    if m < 3:
        raise GridError(f"need at least 3 nodes, got {m}")
    cells = m - 1
    # candidate split counts around the proportional one; pick the most even
    target = (anchor - lo) / (hi - lo) * cells
    best = None
    for n_left in {int(np.floor(target)), int(np.ceil(target))}:
        n_left = min(max(n_left, 1), cells - 1)
        h_l = (anchor - lo) / n_left
        h_r = (hi - anchor) / (cells - n_left)
        key = abs(h_l - h_r)
        if best is None or key < best[0]:
            best = (key, n_left)
    n_left = best[1]
    left = np.linspace(lo, anchor, n_left + 1)
    right = np.linspace(anchor, hi, cells - n_left + 1)
    nodes = np.concatenate([left, right[1:]])
    nodes[n_left] = anchor  # bit-exact anchor
    grid = Grid(nodes=nodes, anchor_index=n_left)
    grid.check_regularity()
    return grid


def build_variance_grid(
    m: int,
    market: MarketParams,
    bounds: tuple[float, float] | None = None,
) -> Grid:
    """Variance grid on [1e-3 v0, 4 v0] by default, containing v0 exactly."""
    lo, hi = bounds if bounds is not None else (1e-3 * market.v0, 4.0 * market.v0)
    return _two_panel(lo, hi, market.v0, m)


def build_x_grid(
    n: int,
    market: MarketParams,
    model: ModelSpec,
    vgrid: Grid,
    bounds: tuple[float, float] | None = None,
) -> Grid:
    """Auxiliary grid anchored at X0 = g(S0) - rho f(V0).

    Default bounds [1e-3 X0, 4 X0] are clamped so that x + rho f(v) stays
    inside the open image of g for every node of ``vgrid`` (relevant for the
    power-transform and arctangent-transform families, whose g has a bounded
    image); a violated anchor raises.
    """
    x0 = float(model.g(market.s0)) - market.rho * float(model.f_primitive(market.v0))
    lo, hi = bounds if bounds is not None else (1e-3 * x0, 4.0 * x0)

    # image of g probed at extreme asset levels
    if model.asset_domain == "positive":
        g_lo = float(model.g(_SMALL_ASSET_MULT * market.s0))
    else:
        g_lo = float(model.g(-_BIG_ASSET_MULT * market.s0))
    g_hi = float(model.g(_BIG_ASSET_MULT * market.s0))

    rf = market.rho * np.asarray(model.f_primitive(vgrid.nodes))
    lo = max(lo, g_lo - float(rf.min()))
    hi = min(hi, g_hi - float(rf.max()))
    if not lo < x0 < hi:
        raise GridError(
            f"x-grid bounds ({lo:.6g}, {hi:.6g}) do not contain the anchor {x0:.6g}"
        )
    return _two_panel(lo, hi, x0, n)

