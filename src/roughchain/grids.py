"""State grids for the variance chain and the auxiliary chain.

Both grids are "piecewise uniform": two uniform panels meeting exactly at the
anchor node (the initial state), with the panel split chosen so the two
spacings differ by O(span/M^2).  That construction pins the anchor bit-exactly
while satisfying the spacing regularity h = O(1/M), |h_i - h_{i+1}| = O(1/M^2)
required by the chain convergence analysis.

Sizes are integers of at least 3; given bounds are two finite numbers lo < hi.
The default domains [1e-3 v0, 4 v0] and [1e-3 X0, 4 X0], X0 = g(s0) - rho f(v0),
need a positive anchor.  Bad input raises ParameterError naming its config key;
a domain that excludes its anchor raises GridError.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import GridError, ParameterError
from .models import MarketParams, ModelSpec

__all__ = ["Grid", "build_variance_grid", "build_x_grid"]

# Big/small asset proxies used to bound transform images on open domains.
_BIG_ASSET_MULT = 1e5
_SMALL_ASSET_MULT = 1e-12
# each grid's config keys: size, bounds
_KEYS = {"v": ("numerics.m_v", "numerics.v_bounds"), "x": ("numerics.n_x", "numerics.x_bounds")}


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


def _domain(bounds, anchor: float, axis: str) -> tuple[float, float]:
    """[lo, hi] of the ``axis`` grid: the given bounds, else [1e-3, 4] x anchor."""
    key = _KEYS[axis][1]
    if bounds is None:
        if not anchor > 0:
            name = "v0" if axis == "v" else "X0 = g(s0) - rho f(v0)"
            raise ParameterError(f"the default {key} [1e-3, 4] x {name} needs a positive anchor, "
                                 f"got {anchor:.6g}: set {key} to [lo, hi] around it")
        return 1e-3 * anchor, 4.0 * anchor
    try:  # anything but two real numbers (bools excepted) ends as NaN
        lo, hi = (float(b) if isinstance(b, Real) and not isinstance(b, bool) else np.nan
                  for b in bounds)
    except (TypeError, ValueError, OverflowError):
        lo = hi = np.nan
    if not -np.inf < lo < hi < np.inf:
        raise ParameterError(f"{key} must be null or two finite numbers [lo, hi] "
                             f"with lo < hi, got {bounds!r}")
    return lo, hi


def _two_panel(lo: float, hi: float, anchor: float, m: int, axis: str,
               domain: tuple[float, float] | None = None) -> Grid:
    """Two uniform panels joined at the anchor; minimizes |h_left - h_right|.

    ``domain`` is the x-domain before ``build_x_grid`` clamps it to [lo, hi];
    an error names it.  The result is checked against the spacing regularity
    bounds.
    """
    size_key, bounds_key = _KEYS[axis]
    if isinstance(m, bool) or not isinstance(m, Integral) or m < 3:
        raise ParameterError(f"{size_key} must be an integer of at least 3, got {m!r}")
    if not lo < anchor < hi:
        d_lo, d_hi = domain or (lo, hi)
        where = f"{bounds_key} ({d_lo:.6g}, {d_hi:.6g})"
        if d_lo < anchor < d_hi:
            raise GridError(f"{where} contains the anchor {anchor:.6g}, but its clamp to the "
                            f"image of g, ({lo:.6g}, {hi:.6g}), does not: narrow numerics.v_bounds")
        raise GridError(f"{where} must contain the anchor {anchor:.6g} strictly inside")
    cells = m - 1
    # candidate split counts around the proportional one; pick the most even
    target = (anchor - lo) / (hi - lo) * cells
    splits = [min(max(k, 1), cells - 1) for k in {int(np.floor(target)), int(np.ceil(target))}]
    n_left = min(splits, key=lambda k: abs((anchor - lo) / k - (hi - anchor) / (cells - k)))
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
    return _two_panel(*_domain(bounds, market.v0, "v"), market.v0, m, "v")


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
    image).
    """
    x0 = float(model.g(market.s0)) - market.rho * float(model.f_primitive(market.v0))
    domain = lo, hi = _domain(bounds, x0, "x")

    # image of g probed at extreme asset levels
    if model.asset_domain == "positive":
        g_lo = float(model.g(_SMALL_ASSET_MULT * market.s0))
    else:
        g_lo = float(model.g(-_BIG_ASSET_MULT * market.s0))
    g_hi = float(model.g(_BIG_ASSET_MULT * market.s0))

    rf = market.rho * np.asarray(model.f_primitive(vgrid.nodes))
    lo = max(lo, g_lo - float(rf.min()))
    hi = min(hi, g_hi - float(rf.max()))
    return _two_panel(lo, hi, x0, n, "x", domain)

