import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm as expm_pade

from roughchain import (MODEL_NAMES, GeneratorError, NumericalError, assemble, expm_action,
                        expm_dense, matexp, pricing)
from roughchain.ctmc import tridiagonal_generator
from roughchain.grids import Grid
from roughchain.matexp import _LAM_CAP, _TAIL, _series_length

from conftest import dense, random_generator


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

    @pytest.mark.parametrize("shape, chain", [
        ((1025, 1025), "variance chain Q has M = 1025 states"),
        ((3, 2, 1025), "regime family has N = 1025 states"),
    ])
    def test_size_cap_names_the_chain(self, shape, chain):
        with pytest.raises(NumericalError, match="cap 1024") as err:
            expm_dense(np.zeros(shape), 1.0)
        assert chain in str(err.value) and "numerics.method=coupled" in str(err.value)

    def test_pade_round_off_is_clamped(self, monkeypatch):
        # a Pade entry of -1e-17 passes the sign check and comes back as +0
        r = np.array([[1.0, -1e-17, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        monkeypatch.setattr(matexp, "_pade13", lambda a: r.copy())
        got = expm_dense(random_generator(3, seed=18), 0.4)
        assert got[0, 1] == 0.0 and not np.signbit(got).any()
        assert np.array_equal(got, np.maximum(r, 0.0))

    def test_non_generator_rejected(self):
        a = np.array([[0.5, 0.2], [0.1, -0.3]])  # rows do not sum to zero
        with pytest.raises(NumericalError, match="stochastic"):
            expm_dense(a, 1.0)

    @pytest.mark.parametrize("fmt", ["csr", "dia"])
    def test_sparse_input_rejected(self, fmt):
        # a sparse generator is applied by expm_action, never made dense here
        g = sparse.csr_matrix(random_generator(6, seed=3)).asformat(fmt)
        with pytest.raises(GeneratorError, match="sparse generator goes to expm_action"):
            expm_dense(g, 1.0)


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


# Chunk budgets: one regime per chunk; two to nine regimes per chunk, some of
# unequal series lengths; the whole stack in one piece.  The ids are the ones
# these cases had beside a second, one-piece budget.
_CHUNKINGS = [pytest.param(1, id="1-0"), pytest.param(64 * 1024, id="65536-0"),
              pytest.param(2**40, id="786432-1099511627776")]


class TestBandStack:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_regime_family_matches_pade(self, name, all_models, market, kernel):
        # the regime exponentials of one slice, at the slice length pricing uses
        gens = assemble(all_models[name], market, kernel, n=24, m=24)
        dt = 1.0 / pricing._auto_slices(gens, 1.0)
        got = expm_dense(gens.lambdas, dt).dense
        want = np.stack([expm_pade(lam * dt) for lam in dense(gens.lambdas)])
        assert np.abs(got - want).max() <= 1e-14
        assert np.abs(got.sum(axis=-1) - 1.0).max() <= 1e-14
        assert got.min() >= 0.0
        if name == "rough-42":  # one stiff regime: its full series runs past 20 terms
            assert gens.nu_lambda * dt > _LAM_CAP

    def test_stiff_member_sums_its_full_series(self):
        stack = _tridiagonal_stack(3, 12, seed=12)
        stack[:, 1] *= 40.0
        t = 30.0 / np.abs(stack[1, 1]).max()  # nu t = 30 on the stiff member
        got = expm_dense(stack, t).dense
        want = np.stack([expm_pade(g * t) for g in dense(stack)])
        assert np.abs(got - want).max() <= 1e-13

    def test_series_past_its_range_is_refused(self):
        # e^(-800) underflows to zero: a coarser grid or the coupled route instead
        stack = _tridiagonal_stack(2, 8, seed=16)
        with pytest.raises(NumericalError, match="nu dt = 800") as err:
            expm_dense(stack, 800.0 / np.abs(stack[1]).max())
        assert "numerics.n_x" in str(err.value) and "numerics.method=coupled" in str(err.value)

    @pytest.mark.parametrize("chunk_bytes", _CHUNKINGS)
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_chunking_changes_no_digit(self, name, chunk_bytes, all_models, market, kernel,
                                       monkeypatch):
        # every regime's exponential equals, bit for bit, the one it gets alone
        # (rough-42's stiff regime too, whose series is the longest)
        gens = assemble(all_models[name], market, kernel, n=24, m=24)
        dt = 1.0 / pricing._auto_slices(gens, 1.0)
        alone = np.stack([expm_dense(gens.lambdas[:, [l]], dt).dense[0] for l in range(gens.m)])
        monkeypatch.setattr(matexp, "_CHUNK_BYTES", chunk_bytes)
        assert np.array_equal(expm_dense(gens.lambdas, dt).dense, alone)

    def test_dense_stack_rejected(self):
        # a 3-D input must be (3, K, n) planes: a dense (K, n, n) stack is refused
        with pytest.raises(GeneratorError, match="planes"):
            expm_dense(dense(_tridiagonal_stack(4, 6, seed=15)), 0.5)

    def test_zero_time_is_identity(self):
        got = expm_dense(_tridiagonal_stack(4, 6, seed=13), 0.0).dense
        assert np.array_equal(got, np.broadcast_to(np.eye(6), (4, 6, 6)))

    def test_non_generator_in_stack_rejected(self):
        stack = _tridiagonal_stack(4, 8, seed=14)
        stack[1, 2, 3] -= 0.7  # row 3 of member 2 loses rate: its rows no longer sum to 0
        with pytest.raises(NumericalError, match="stochastic"):
            expm_dense(stack, 0.5)

    def test_series_length(self):
        # the tail bound is reachable: 17 terms at nu t = 0.5, none at 0; past
        # 64 terms (the first block) and near the largest nu t summed as well
        lams = np.array([0.5, 0.0, _LAM_CAP, 3.8, 100.0, 699.0])
        lengths = _series_length(lams)
        assert lengths[0] < 20 and lengths[1] == 0 and lengths[4] > 64
        assert np.array_equal(lengths, [_series_length(lams[[i]])[0] for i in range(len(lams))])
        for lam, j in zip(lams[2:], lengths[2:]):
            i = np.arange(j + 1, j + 60)
            ratios = np.cumprod(lam / i)   # term_i / term_j
            term_j = np.exp(-lam) * np.prod(lam / np.arange(1, j + 1))
            assert term_j * ratios.sum() <= _TAIL
            assert lam < j <= lam + 10.0 * np.sqrt(lam) + 20.0


def _expand(stack, n):
    """Dense (K, n, n) matrices of a band-row stack; its out-of-matrix entries must be zero."""
    w = stack.rows.shape[1] // 2
    rows = stack.rows.reshape(-1, n, 2 * w + 1)
    out = np.zeros((rows.shape[0], n, n + 2 * w))
    i = np.arange(n)
    for o in range(-w, w + 1):
        out[:, i, i + o + w] = rows[:, :, w + o]
    assert not out[:, :, :w].any() and not out[:, :, n + w:].any()
    out = out[:, :, w:n + w]
    out[stack.on_dense] = stack.dense
    return out


class TestBandRows:
    """The band-row form of a regime stack over _BAND_STEP_BYTES (forced on small stacks)."""

    def test_size_rule(self):
        # dense up to 2 MiB (K n^2 8 B), band rows above
        assert expm_dense(_tridiagonal_stack(64, 64, seed=17), 0.1).layout == "dense"
        assert expm_dense(_tridiagonal_stack(65, 64, seed=17), 0.1).layout == "band"

    def test_rough_42_at_real_size(self, all_models, market, kernel):
        # N = M = 80 goes to band rows by the 2 MiB rule alone; the stiff regime
        # (nu dt = 3.0) stays dense, from its full series
        gens = assemble(all_models["rough-42"], market, kernel, n=80, m=80)
        dt = 1.0 / pricing._auto_slices(gens, 1.0)
        got = expm_dense(gens.lambdas, dt)
        assert got.layout == "band" and list(got.on_dense) == [0] and got.row_width == 21
        want = expm_pade(dense(gens.lambdas[:, [0]])[0] * dt)
        assert np.abs(got.dense[0] - want).max() <= 1e-14

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_rows_hold_the_dense_stack(self, name, all_models, market, kernel, monkeypatch):
        # the same numbers bit for bit, transposed by the index flip; only
        # rough-42's stiff regime (nu dt > _LAM_CAP) is kept dense
        gens = assemble(all_models[name], market, kernel, n=24, m=24)
        dt = 1.0 / pricing._auto_slices(gens, 1.0)
        want = expm_dense(gens.lambdas, dt).dense
        monkeypatch.setattr(matexp, "_BAND_STEP_BYTES", 0)
        got = expm_dense(gens.lambdas, dt)
        assert got.layout == "band"
        assert np.array_equal(_expand(got, 24), want)
        assert np.array_equal(_expand(got.T, 24), want.transpose(0, 2, 1))
        assert list(got.on_dense) == ([0] if name == "rough-42" else [])
        assert got.rows.shape[1] < 2 * 24 - 1

    @pytest.mark.parametrize("chunk_bytes", _CHUNKINGS)
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_chunking_changes_no_digit(self, name, chunk_bytes, all_models, market, kernel,
                                       monkeypatch):
        gens = assemble(all_models[name], market, kernel, n=24, m=24)
        dt = 1.0 / pricing._auto_slices(gens, 1.0)
        alone = np.stack([expm_dense(gens.lambdas[:, [l]], dt).dense[0] for l in range(gens.m)])
        monkeypatch.setattr(matexp, "_BAND_STEP_BYTES", 0)
        monkeypatch.setattr(matexp, "_CHUNK_BYTES", chunk_bytes)
        assert np.array_equal(_expand(expm_dense(gens.lambdas, dt), 24), alone)

    def test_non_generator_rejected(self, monkeypatch):
        monkeypatch.setattr(matexp, "_BAND_STEP_BYTES", 0)
        stack = _tridiagonal_stack(4, 8, seed=14)
        stack[1, 2, 3] -= 0.7  # row 3 of member 2 loses rate: its rows no longer sum to 0
        with pytest.raises(NumericalError, match="stochastic"):
            expm_dense(stack, 0.5)


def _band_terms_reference(p, lam, length, n):
    """``_band_terms`` as three products per term through a scratch buffer: its sums, bit for bit."""
    top = int(length[0])
    w_cap = min(top, n - 1)
    c = w_cap + 1
    total = np.zeros((2 * c + 1, p.shape[1]))
    term, nxt = np.zeros(total.shape), np.zeros(total.shape)
    term[c] = np.exp(-lam)
    total[c] = term[c]
    rows = n * np.count_nonzero(length >= np.arange(1, top + 1)[:, None], axis=1)
    sizes = (2 * np.minimum(np.arange(1, top + 1), w_cap) + 1) * (rows - 1)
    shifted = np.empty(sizes.max(initial=0))
    for j, a in enumerate(rows.tolist(), 1):
        w = min(j, w_cap)
        pf = p[:, :a] * (lam[:a] / j)
        band = slice(c - w, c + w + 1)
        new = np.multiply(pf[1], term[band, :a], out=nxt[band, :a])
        prod = shifted[:(2 * w + 1) * (a - 1)].reshape(2 * w + 1, a - 1)
        new[:, 1:] += np.multiply(pf[0, 1:], term[c - w + 1:c + w + 2, :a - 1], out=prod)
        new[:, :-1] += np.multiply(pf[2, :-1], term[c - w - 1:c + w, 1:a], out=prod)
        total[band, :a] += new
        term, nxt = nxt, term
    return total


class TestBandTerms:
    """The fused series step against the three-product loop, over the inputs expm_dense gives it."""

    @pytest.fixture
    def chunks(self, monkeypatch):
        # (matrices, longest series) of every chunk, each checked against the reference
        seen = []
        fused = matexp._band_terms

        def checked(p, lam, length, n):
            got = fused(p, lam, length, n)
            assert np.array_equal(got, _band_terms_reference(p, lam, length, n))
            seen.append((len(length), int(length[0])))
            return got

        monkeypatch.setattr(matexp, "_band_terms", checked)
        return seen

    @pytest.mark.parametrize("one_piece", [True, False])
    @pytest.mark.parametrize("size", [24, 80])
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_families(self, name, size, one_piece, chunks, all_models, market, kernel,
                      monkeypatch):
        gens = assemble(all_models[name], market, kernel, n=size, m=size)
        dt = 1.0 / pricing._auto_slices(gens, 1.0)
        if one_piece:
            monkeypatch.setattr(matexp, "_BAND_STEP_BYTES", 2**40)
        monkeypatch.setattr(matexp, "_CHUNK_BYTES", 2**40 if one_piece else 64 * 1024)
        expm_dense(gens.lambdas, dt)
        assert (len(chunks) == 1) == one_piece

    @pytest.mark.parametrize("band_step_bytes", [2**40, 0])
    def test_chunk_with_a_stiff_regime(self, band_step_bytes, chunks, monkeypatch):
        # the stiff member's full series (nu t = 30) runs beside two short ones
        stack = _tridiagonal_stack(3, 12, seed=12)
        stack[:, 1] *= 40.0
        monkeypatch.setattr(matexp, "_BAND_STEP_BYTES", band_step_bytes)
        got = expm_dense(stack, 30.0 / np.abs(stack[1, 1]).max())
        assert [k for k, _ in chunks] == [3]
        if band_step_bytes == 0:  # the dense member's band rows stay zero
            assert list(got.on_dense) == [1] and not got.rows.reshape(3, 12, -1)[1].any()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_width_capped_at_n_minus_one(self, n, chunks):
        # at nu t = _LAM_CAP the series runs past term n - 1, whose band is the whole matrix
        stack = _tridiagonal_stack(4, n, seed=19 + n)
        expm_dense(stack, _LAM_CAP / np.abs(stack[1]).max())
        assert chunks and all(top > n - 1 for _, top in chunks)


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
        assert np.abs(act - expm_dense(g.toarray(), t) @ w).max() <= 1e-9

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
