import numpy as np
import pytest

from roughchain import (
    GridError,
    MarketParams,
    build_variance_grid,
    build_x_grid,
    make_model,
)
from roughchain.grids import Grid
from roughchain.presets import model_params


@pytest.mark.parametrize("nodes, message", [
    ([0.0, 1.0], "at least 3 ordered nodes"),
    ([[0.0, 1.0, 2.0]], "at least 3 ordered nodes"),
    ([0.0, 2.0, 1.0], "strictly increasing"),
    ([0.0, 1.0, 1.0], "strictly increasing"),
], ids=["two-nodes", "two-dimensional", "decreasing", "repeated"])
def test_malformed_nodes_rejected(nodes, message):
    with pytest.raises(GridError, match=message):
        Grid(nodes=nodes, anchor_index=1)


class TestVarianceGrid:
    def test_default_bounds_and_anchor(self, market):
        g = build_variance_grid(100, market)
        assert g.nodes[0] == pytest.approx(1e-3 * 0.04, rel=1e-15)
        assert g.nodes[-1] == pytest.approx(4 * 0.04, rel=1e-15)
        assert g.nodes[g.anchor_index] == 0.04  # bit-exact

    def test_minimal_grid(self, market):
        g = build_variance_grid(3, market)
        assert len(g) == 3
        assert g.nodes[1] == 0.04

    def test_too_small(self, market):
        with pytest.raises(GridError):
            build_variance_grid(2, market)

    def test_spacing_regularity(self, market):
        g = build_variance_grid(100, market)
        h = g.spacings
        span = g.nodes[-1] - g.nodes[0]
        assert h.max() <= 2 * span / len(g)
        # anchor fraction ~0.25: the single panel joint stays O(span/M^2)
        assert np.abs(np.diff(h)).max() <= 6 * span / len(g) ** 2
        g.check_regularity()

    def test_doubling_m_halves_max_spacing(self, market):
        h1 = build_variance_grid(50, market).spacings.max()
        h2 = build_variance_grid(100, market).spacings.max()
        assert abs(h2 / h1 - 0.5) <= 0.05

    def test_custom_bounds(self, market):
        g = build_variance_grid(10, market, bounds=(0.01, 0.09))
        assert g.nodes[0] == 0.01 and g.nodes[-1] == 0.09


class TestXGrid:
    def test_heston_anchor_value(self, market, heston):
        vg = build_variance_grid(20, market)
        g = build_x_grid(50, market, heston, vg)
        f0 = heston.f_primitive(0.04)
        want = np.log(10.0) - (-0.75) * f0
        assert g.nodes[g.anchor_index] == pytest.approx(want, rel=1e-15)

    def test_zero_correlation_anchor_is_g_s0(self, heston):
        market = MarketParams(s0=10.0, v0=0.04, rho=0.0)
        g = build_x_grid(50, market, heston, build_variance_grid(20, market))
        assert g.nodes[g.anchor_index] == pytest.approx(np.log(10.0), rel=1e-15)

    def test_minimal_grid(self, market, heston):
        g = build_x_grid(3, market, heston, build_variance_grid(3, market))
        assert len(g) == 3 and g.anchor_index == 1

    def test_bounded_transform_image_is_clamped(self, market):
        # arctangent transform: image of g is bounded; 4*X0 would overshoot it
        qslv = make_model("rough-quadratic-slv", model_params("rough-quadratic-slv"))
        vg = build_variance_grid(20, market)
        g = build_x_grid(50, market, qslv, vg)
        disc = np.sqrt(4 * 0.02 * 1.0 - 0.05**2)
        assert g.nodes[-1] < np.pi / disc
        # every node stays inside the transform domain for every regime
        f_v = np.asarray(qslv.f_primitive(vg.nodes))
        args = g.nodes[None, :] + market.rho * f_v[:, None]
        qslv.g_inverse(args)  # must not raise

    def test_power_transform_positive_domain(self, market):
        sabr = make_model("rough-sabr", model_params("rough-sabr"))
        vg = build_variance_grid(20, market)
        g = build_x_grid(50, market, sabr, vg)
        f_v = np.asarray(sabr.f_primitive(vg.nodes))
        assert (g.nodes[None, :] + market.rho * f_v[:, None]).min() > 0
