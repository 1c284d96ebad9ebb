import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm as expm_pade

from roughchain import MODEL_NAMES, NumericalError, assemble, expm_action, expm_dense, pricing
from roughchain.ctmc import tridiagonal_generator
from roughchain.grids import Grid
from roughchain.matexp import _LAM_CAP, _TAIL, _series_length

from conftest import random_generator


class TestDense:
    def test_zero_generator_is_identity(self):
        assert np.array_equal(expm_dense(np.zeros((4, 4)), 1.3), np.eye(4))

    def test_zero_time_is_identity(self):
        g = random_generator(6, seed=1)
        assert np.array_equal(expm_dense(g, 0.0), np.eye(6))

    def test_two_state_closed_form(self):
        g = np.array([[-1.0, 1.0], [1.0, -1.0]])
        for t in (0.1, 0.7, 3.0):
            p = expm_dense(g, t)
            stay = 0.5 * (1 + np.exp(-2 * t))
            move = 0.5 * (1 - np.exp(-2 * t))
            assert p[0, 0] == pytest.approx(stay, rel=1e-12)
            assert p[0, 1] == pytest.approx(move, rel=1e-12)

    def test_rows_sum_to_one(self):
        p = expm_dense(random_generator(30, seed=2, scale=4.0), 0.9)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-10
        assert p.min() >= 0.0

    def test_size_cap(self):
        with pytest.raises(NumericalError, match="cap"):
            expm_dense(np.zeros((1025, 1025)), 1.0)

    def test_non_generator_rejected(self):
        a = np.array([[0.5, 0.2], [0.1, -0.3]])  # rows do not sum to zero
        with pytest.raises(NumericalError, match="stochastic"):
            expm_dense(a, 1.0)


class TestPade:
    @pytest.mark.parametrize("size", [24, 100])
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_variance_chain_matches_scipy_and_action(self, name, size, all_models, market,
                                                     kernel):
        # Q's half step at the slice length pricing uses (nu dt / 2 reaches 1e3)
        gens = assemble(all_models[name], market, kernel, n=size, m=size)
        half = 0.5 / pricing._auto_slices(gens, 1.0)
        got = expm_dense(gens.q, half)
        assert np.abs(got - expm_pade(gens.q * half)).max() <= 1e-12
        w = np.random.default_rng(size).random(size)
        assert np.abs(got @ w - expm_action(gens.q, w, half, tol=1e-14)).max() <= 1e-11

    def test_non_finite_generator_rejected(self):
        g = random_generator(5, seed=16)
        g[1, 2] = np.inf
        with pytest.raises(NumericalError, match="non-finite"):
            expm_dense(g, 1.0)


def _tridiagonal_stack(k, n, seed):
    rng = np.random.default_rng(seed)
    grid = Grid(nodes=np.cumsum(rng.uniform(0.5, 1.5, n)), anchor_index=1)
    drift, diff2 = rng.normal(0, 0.5, (k, n)), rng.uniform(1, 2, (k, 1))
    return tridiagonal_generator(grid, drift, diff2)


class TestBandStack:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_regime_family_matches_pade(self, name, all_models, market, kernel):
        # the regime exponentials of one slice, at the slice length pricing uses
        gens = assemble(all_models[name], market, kernel, n=24, m=24)
        dt = 1.0 / pricing._auto_slices(gens, 1.0)
        got = expm_dense(gens.lambdas, dt)
        want = np.stack([expm_pade(lam * dt) for lam in gens.lambdas])
        assert np.abs(got - want).max() <= 1e-14
        assert np.abs(got.sum(axis=-1) - 1.0).max() <= 1e-14
        assert got.min() >= 0.0
        if name == "rough-42":  # one stiff regime: its series runs at dt / 2^s
            assert gens.nu_lambda * dt > _LAM_CAP

    def test_stiff_member_is_scaled_and_squared(self):
        stack = _tridiagonal_stack(3, 12, seed=12)
        stack[1] *= 40.0
        t = 30.0 / np.abs(np.diagonal(stack[1])).max()  # nu t = 30 on the stiff member
        got = expm_dense(stack, t)
        want = np.stack([expm_pade(g * t) for g in stack])
        assert np.abs(got - want).max() <= 1e-13

    def test_zero_time_is_identity(self):
        got = expm_dense(_tridiagonal_stack(4, 6, seed=13), 0.0)
        assert np.array_equal(got, np.broadcast_to(np.eye(6), (4, 6, 6)))

    def test_non_generator_in_stack_rejected(self):
        stack = _tridiagonal_stack(4, 8, seed=14)
        stack[2, 3, 3] -= 0.7  # row 3 of member 2 loses rate: its rows no longer sum to 0
        with pytest.raises(NumericalError, match="stochastic"):
            expm_dense(stack, 0.5)

    def test_series_length(self):
        # the tail bound is reachable: 17 terms at nu t = 0.5, none at 0
        lengths = _series_length(np.array([0.5, 0.0, _LAM_CAP]))
        assert lengths[0] < 20 and lengths[1] == 0
        for lam, j in zip((0.5, _LAM_CAP), lengths[[0, 2]]):
            i = np.arange(j + 1, j + 60)
            ratios = np.cumprod(lam / i)   # term_i / term_j
            term_j = np.exp(-lam) * np.prod(lam / np.arange(1, j + 1))
            assert term_j * ratios.sum() <= _TAIL


class TestAction:
    def test_conservation_of_ones(self):
        g = random_generator(50, seed=4, scale=2.0)
        out = expm_action(g, np.ones(50), 1.5, tol=1e-12)
        assert np.abs(out - 1.0).max() <= 1e-11

    def test_matches_dense(self):
        rng = np.random.default_rng(5)
        g = random_generator(50, seed=5, scale=3.0)
        w = rng.random(50)
        dense = expm_dense(g, 0.8) @ w
        act = expm_action(g, w, 0.8, tol=1e-12)
        assert np.abs(act - dense).max() <= 1e-11

    def test_zero_time(self):
        w = np.arange(5.0)
        assert np.array_equal(expm_action(random_generator(5), w, 0.0), w)

    def test_semigroup(self):
        g = random_generator(35, seed=6, scale=2.0)
        w = np.random.default_rng(6).random(35)
        one = expm_action(g, w, 1.1, tol=1e-13)
        two = expm_action(g, expm_action(g, w, 0.4, tol=1e-13), 0.7, tol=1e-13)
        assert np.abs(one - two).max() <= 1e-11

    def test_positivity(self):
        g = random_generator(25, seed=7, scale=5.0)
        w = np.random.default_rng(7).random(25)
        out = expm_action(g, w, 2.0, tol=1e-12)
        assert out.min() >= -1e-12

    def test_stiff_generator_matches_dense(self):
        # nu*t = 2.97e4, as for rough-alpha-hyper's coupled generator at
        # N = M = 48 and T = 0.5; the chain has then reached its stationary law pi
        g = random_generator(20, seed=8, scale=1.0) * 5e3
        w = np.random.default_rng(8).random(20)
        act = expm_action(g, w, 0.5, tol=1e-10)
        dense = expm_dense(g, 0.5) @ w
        assert np.abs(act - dense).max() <= 1e-9
        a = np.vstack([g.T, np.ones(20)])
        pi = np.linalg.lstsq(a, np.r_[np.zeros(20), 1.0], rcond=None)[0]
        assert np.abs(act - pi @ w).max() <= 1e-10  # truncation error at most tol

    def test_stop_is_reachable_for_large_vectors(self, monkeypatch):
        # max|w| = 1e4 at tol 1e-10 asks for a right Poisson tail of 1e-14: the
        # series must stop near lam + 7.7 sqrt(lam), not run to a term cap
        g = sparse.csr_matrix(random_generator(20, seed=10))
        lam = 2000.0
        t = lam / np.abs(g.diagonal()).max()
        w = np.linspace(-1e4, 1e4, 20)
        products = []
        matvec = sparse.csr_matrix._matmul_vector

        def counted(self, x):
            products.append(1)
            return matvec(self, x)

        monkeypatch.setattr(sparse.csr_matrix, "_matmul_vector", counted)
        act = expm_action(g, w, t, tol=1e-10)
        monkeypatch.undo()
        assert len(products) <= lam + 8.0 * np.sqrt(lam) + 30.0
        assert np.abs(act - expm_dense(g, t) @ w).max() <= 1e-9

    def test_dia_and_csr_agree(self, heston_system):
        g = heston_system.coupled
        assert g.format == "dia"
        w = np.random.default_rng(11).random(g.shape[0])
        dia = expm_action(g, w, 0.05, tol=1e-12)
        csr = expm_action(g.tocsr(), w, 0.05, tol=1e-12)
        assert np.abs(dia - csr).max() <= 1e-14 * np.abs(csr).max()

    def test_term_budget(self):
        g = random_generator(5, seed=9) * 1e9
        with pytest.raises(NumericalError, match=r"terms \(nu\*t"):
            expm_action(g, np.ones(5), 1.0)  # nu*t ~ 1e9 exceeds the budget

    def test_nonfinite_vector_rejected(self):
        g = random_generator(4)
        with pytest.raises(NumericalError):
            expm_action(g, np.array([1.0, np.nan, 0.0, 0.0]), 1.0)
