import numpy as np
import pytest

from roughchain import NumericalError, expm_action, expm_dense

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
        g = random_generator(8, seed=3)
        with pytest.raises(NumericalError, match="cap"):
            expm_dense(g, 1.0, dense_cap=4)

    def test_non_generator_rejected(self):
        a = np.array([[0.5, 0.2], [0.1, -0.3]])  # rows do not sum to zero
        with pytest.raises(NumericalError, match="stochastic"):
            expm_dense(a, 1.0)


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

    def test_stiff_generator_uses_segments(self):
        # nu*t far beyond one Poisson segment; must still match dense
        g = random_generator(20, seed=8, scale=1.0) * 5e3
        w = np.random.default_rng(8).random(20)
        act = expm_action(g, w, 1.0, tol=1e-12)
        dense = expm_dense(g, 1.0) @ w
        assert np.abs(act - dense).max() <= 1e-9

    def test_segment_budget(self):
        g = random_generator(5, seed=9) * 1e9
        with pytest.raises(NumericalError, match="segment"):
            expm_action(g, np.ones(5), 1.0, max_segments=10)

    def test_nonfinite_vector_rejected(self):
        g = random_generator(4)
        with pytest.raises(NumericalError):
            expm_action(g, np.array([1.0, np.nan, 0.0, 0.0]), 1.0)
