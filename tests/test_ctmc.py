import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from roughchain import (
    MODEL_NAMES,
    GeneratorError,
    build_coupled,
    build_lambda_family,
    build_Q,
    build_variance_grid,
    build_x_grid,
    drift_theta,
    laplace_constants,
    validate_generator,
)
from roughchain.ctmc import assemble, tridiagonal_generator
from roughchain.grids import Grid

from conftest import dense


def _grid(nodes, anchor_index=1):
    return Grid(nodes=np.asarray(nodes, float), anchor_index=anchor_index)


class TestTridiagonalRows:
    def test_uniform_zero_drift_unit_diffusion(self):
        # h = 0.1: off-diagonals 1/(2 h^2) = 50, diagonal -100
        g = _grid(np.arange(0.0, 0.5, 0.1))
        q = dense(tridiagonal_generator(g, np.zeros(5), np.ones(5)))
        assert q[2, 1] == pytest.approx(50.0, rel=1e-13)
        assert q[2, 3] == pytest.approx(50.0, rel=1e-13)
        assert q[2, 2] == pytest.approx(-100.0, rel=1e-13)

    def test_rows_solve_local_system(self):
        # oracle: solve the 3x3 moment system per node and compare
        rng = np.random.default_rng(3)
        nodes = np.cumsum(np.concatenate([[0.0], rng.uniform(0.05, 0.15, 9)]))
        grid = _grid(nodes)
        drift = rng.normal(0, 0.2, 10)
        diff2 = rng.uniform(0.5, 1.5, 10)
        q = dense(tridiagonal_generator(grid, drift, diff2))
        for i in range(1, 9):
            hm = nodes[i] - nodes[i - 1]
            hp = nodes[i + 1] - nodes[i]
            a = np.array([[1, 1, 1], [-hm, 0, hp], [hm**2, 0, hp**2]])
            sol = np.linalg.solve(a, [0.0, drift[i], diff2[i]])
            got = q[i, [i - 1, i, i + 1]]
            assert np.abs(got - sol).max() <= 1e-10 * np.abs(sol).max()

    def test_row_sums_zero(self):
        rng = np.random.default_rng(5)
        grid = _grid(np.linspace(0.0, 1.0, 20))
        q = dense(tridiagonal_generator(grid, rng.normal(0, 1, 20), rng.uniform(1, 2, 20)))
        assert np.abs(q.sum(axis=1)).max() <= 1e-12 * np.abs(np.diag(q)).max()

    def test_upwind_preserves_first_moment(self):
        grid = _grid(np.linspace(0.0, 1.0, 12))
        drift = np.linspace(-8.0, 8.0, 12)
        diff2 = np.full(12, 1e-3)
        q = dense(tridiagonal_generator(grid, drift, diff2))
        got = q @ grid.nodes
        assert np.abs(got[1:-1] - drift[1:-1]).max() <= 1e-10 * np.abs(drift).max()
        off = q - np.diag(np.diag(q))
        assert off.min() >= 0.0

    def test_boundary_modes(self):
        grid = _grid(np.linspace(0.0, 1.0, 6))
        drift = np.full(6, 0.5)
        diff2 = np.full(6, 1.0)
        outflow = dense(tridiagonal_generator(grid, drift, diff2))
        assert outflow[0, 1] == pytest.approx(0.5 / 0.2)  # positive drift leaves the floor
        assert np.all(outflow[-1] == 0.0)                 # positive drift at the cap: no outflow

    def test_translation_covariance(self):
        # shifting the grid base point leaves the entries unchanged
        rng = np.random.default_rng(11)
        nodes = np.linspace(0.0, 2.0, 15)
        drift = rng.normal(0, 0.3, 15)
        diff2 = rng.uniform(0.5, 1.0, 15)
        q0 = tridiagonal_generator(_grid(nodes), drift, diff2)
        q1 = tridiagonal_generator(_grid(nodes + 7.5), drift, diff2)
        assert np.allclose(q0, q1, rtol=1e-12, atol=0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=5, max_value=25),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=1e-3, max_value=10.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_valid_generator(self, n, drift_level, diff_level, seed):
        rng = np.random.default_rng(seed)
        nodes = np.cumsum(np.concatenate([[0.0], rng.uniform(0.5, 1.5, n - 1)]))
        drift = np.full(n, drift_level)
        diff2 = np.full(n, diff_level)
        q = dense(tridiagonal_generator(_grid(nodes), drift, diff2))
        assert np.abs(q.sum(axis=1)).max() <= 1e-10 * max(1.0, np.abs(q).max())
        assert (q - np.diag(np.diag(q))).min() >= 0.0
        got = (q @ nodes)[1:-1]
        assert np.abs(got - drift[1:-1]).max() <= 1e-8 * max(1.0, abs(drift_level))


class TestBuildQ:
    def test_drift_and_diffusion_inputs(self, heston, market, kernel):
        vg = build_variance_grid(30, market)
        q = build_Q(vg, heston, market, kernel)
        _, _, rhat = laplace_constants(kernel)
        v = vg.nodes
        want = (v - market.v0) * rhat + heston.b(v)
        got = q @ v
        assert np.abs(got[1:-1] - want[1:-1]).max() <= 1e-9 * np.abs(want).max()
        # second moment on rows where the central scheme is valid
        h = vg.spacings
        s2 = heston.sigma(v) ** 2
        central = (s2[1:-1] - np.abs(want[1:-1]) * np.maximum(h[:-1], h[1:])) > 0
        sq = np.array(
            [q[i] @ (v - v[i]) ** 2 for i in range(1, len(v) - 1)]
        )
        err = np.abs(sq[central] - s2[1:-1][central])
        assert err.max() <= 1e-10 * s2.max()

    def test_closed_form_at_anchor(self, heston, market):
        # at v = v0 the memory drift vanishes; check entries by substitution
        from roughchain import KernelSpec

        spec = KernelSpec(hurst=0.12, eps=1e-6)
        vg = build_variance_grid(30, market, bounds=(0.02, 0.06))
        q = build_Q(vg, heston, market, spec)
        i = vg.anchor_index
        hm, hp = vg.spacings[i - 1], vg.spacings[i]
        d = heston.b(market.v0)   # (v-v0) Rhat = 0 here
        s2 = heston.sigma(market.v0) ** 2
        assert q[i, i - 1] == pytest.approx((s2 - d * hp) / (hm * (hm + hp)), rel=1e-12)
        assert q[i, i + 1] == pytest.approx((s2 + d * hm) / (hp * (hm + hp)), rel=1e-12)


class TestBuildLambda:
    def test_moment_reproduction(self, heston, market, kernel):
        vg = build_variance_grid(10, market)
        xg = build_x_grid(40, market, heston, vg)
        v_ell = vg.nodes[5]
        lam = dense(build_lambda_family(xg, v_ell, heston, market, kernel))
        want = drift_theta(xg.nodes, v_ell, heston, market, kernel)
        got = lam @ xg.nodes
        assert np.abs(got[1:-1] - want[1:-1]).max() <= 1e-10 * max(1.0, np.abs(want).max())

    def test_zero_rho_heston_diffusion(self, heston, kernel):
        from roughchain import MarketParams

        market = MarketParams(s0=10.0, v0=0.04, rho=0.0)
        vg = build_variance_grid(6, market)
        xg = build_x_grid(30, market, heston, vg)
        v_ell = 0.04
        lam = dense(build_lambda_family(xg, v_ell, heston, market, kernel))
        sq = np.array([lam[i] @ (xg.nodes - xg.nodes[i]) ** 2 for i in range(1, 29)])
        assert np.abs(sq - v_ell).max() <= 1e-10  # diffusion = phi^2 = v

    def test_degenerate_diffusion_pure_drift(self, heston, kernel):
        from roughchain import MarketParams

        market = MarketParams(s0=10.0, v0=0.04, rho=0.9999999)
        vg = build_variance_grid(6, market)
        xg = build_x_grid(15, market, heston, vg)
        lam = dense(build_lambda_family(xg, 0.04, heston, market, kernel))
        # essentially one off-diagonal per interior row
        for i in range(1, 14):
            lo, up = lam[i, i - 1], lam[i, i + 1]
            assert min(lo, up) <= 1e-5 * max(lo, up, 1e-30)


class TestBatchedBuild:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_family_is_the_stack_of_single_builds(self, name, all_models, market, kernel):
        gens = assemble(all_models[name], market, kernel, n=24, m=24)
        args = (all_models[name], market, kernel)
        family = build_lambda_family(gens.xgrid, gens.vgrid.nodes, *args)
        single = np.stack([
            build_lambda_family(gens.xgrid, v, *args) for v in gens.vgrid.nodes
        ], axis=1)
        assert family.shape == (3, 24, 24)
        assert np.all(np.abs(family - single) <= 1e-15 * np.abs(single))


class TestCoupled:
    def test_single_regime_is_lambda(self):
        lam = np.array([[[0.0, 2.0]], [[-1.0, -2.0]], [[1.0, 0.0]]])  # [[-1, 1], [2, -2]]
        coupled = build_coupled(np.array([[0.0]]), lam)
        assert np.array_equal(coupled.toarray(), dense(lam)[0])

    def test_two_by_two_hand_assembly(self):
        q = np.array([[-3.0, 3.0], [4.0, -4.0]])
        planes = np.array([[[0.0, 0.5], [0.0, 1.5]],      # Lambda[i, i - 1]
                           [[-1.0, -0.5], [-2.0, -1.5]],  # Lambda[i, i]
                           [[1.0, 0.0], [2.0, 0.0]]])     # Lambda[i, i + 1]
        l1, l2 = dense(planes)
        got = build_coupled(q, planes).toarray()
        want = np.block([
            [q[0, 0] * np.eye(2) + l1, q[0, 1] * np.eye(2)],
            [q[1, 0] * np.eye(2), q[1, 1] * np.eye(2) + l2],
        ])
        assert np.array_equal(got, want)

    def test_production_generator_is_five_diagonal(self, heston_system):
        coupled, n = heston_system.coupled, heston_system.n
        assert coupled.format == "dia"
        assert sorted(coupled.offsets.tolist()) == [-n, -1, 0, 1, n]
        want = np.kron(heston_system.q, np.eye(n)) + block_diag(*dense(heston_system.lambdas))
        assert np.array_equal(coupled.toarray(), want)

    def test_row_sums_and_shape(self, heston_system):
        rep = validate_generator(heston_system.coupled.toarray())
        assert rep["shape"] == (1600, 1600)
        assert rep["max_abs_row_sum"] <= 1e-12 * max(1.0, rep["nu"])
        assert rep["min_off_diagonal"] >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(GeneratorError, match="shape"):
            build_coupled(np.zeros((2, 2)), np.zeros((3, 3, 4)))


class TestAssemble:
    def test_sets_are_valid(self, heston_system):
        for g in (heston_system.q, *dense(heston_system.lambdas)):
            rep = validate_generator(g)
            assert rep["max_abs_row_sum"] <= 1e-12 * max(1.0, rep["nu"])
            assert rep["min_off_diagonal"] >= 0.0

    def test_anchor_reconstructs_s0(self, heston_system):
        l0, i0 = heston_system.anchor_indices
        assert heston_system.asset_states[l0, i0] == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # sqrt of v < 0
    def test_nan_coefficient_is_refused(self, heston, market, kernel):
        # phi = sqrt(v) is NaN below 0: refused here, not as a non-finite Q at the price
        with pytest.raises(GeneratorError, match="phi not positive") as err:
            assemble(heston, market, kernel, n=12, m=12, v_bounds=(-0.01, 0.1))
        assert "the lower numerics.v_bounds must be above 0" in str(err.value)
