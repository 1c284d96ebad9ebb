"""Matrix exponentials of generators.

* ``expm_dense`` gives transition matrices.  A single matrix (the
  variance chain Q, whose nu t reaches 2e3) goes through the [13/13] Pade
  approximant with scaling and squaring (``_pade13``, numpy only); K
  tridiagonal generators (the M regime chains Lambda_l), given as their
  (3, K, n) diagonal planes, through a band uniformization series
  (``_band_series``), which returns a ``RegimeStack``: every matrix dense up
  to _BAND_STEP_BYTES, above it band rows but for those with nu t > _LAM_CAP.
* ``expm_action`` gives exp(G t) w by uniformization, one Poisson series of
  about nu t + 7 sqrt(nu t) sparse products with nu = max |G_ii| (on the
  five-diagonal coupled generator, nu comes from the variance chain Q: 8524
  for rough-heston at M = 48).  Only this oracle loads ``scipy.sparse``, on
  its first call, so the fast route runs on numpy alone.

Memory: the regime family never exists dense, and neither does a regime
stack of more than _BAND_STEP_BYTES (2 MiB, N = M >= 65), whose matrices
are band rows but for the few with nu t > _LAM_CAP.  Up to 2 MiB the dense
(K, n, n) stack is the largest array of a price.  ``_band_series``
allocates nothing else of that size: it sums either layout in chunks whose
three band arrays take at most _CHUNK_BYTES (1.5 MiB; see there for the
choice).  Traced peaks of a cold rough-heston price: 2.8 MB at N = M = 60
(dense stack), 5.3 MB at 100 and 24 MB at 200 (band rows; on the dense
stack 10.0 and 68 MB).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import GeneratorError, NumericalError

__all__ = ["RegimeStack", "expm_dense", "expm_action"]

# Poisson mass a band series leaves out of each row.  It is lost far from the
# diagonal, where payoffs reach 1e4 (a call at the upper x-wall): at 1e-17,
# out-of-the-money rough-sabr prices of 2e-6 to 5e-4 moved by 4e-17 to 5e-16.
_TAIL = 1e-20
# A band stack keeps dense the regimes with nu t > _LAM_CAP: their series are long (rough-42's
# lowest regime, 28 to 33 terms), and as band rows they would widen every row of the stack.
_LAM_CAP = 1.0
_LAM_MAX = 700.0   # largest nu t summed: e^(-nu t) nears the least normal double at 708
_DENSE_CAP = 1024  # largest generator expm_dense makes dense
# _band_series sums a regime stack, of either layout, in chunks whose three
# band arrays take at most _CHUNK_BYTES.  An extra chunk costs 0.2 to 0.5 ms,
# and a chunk past the L2 cache sums more slowly.  Against summing every
# dense stack in one piece, sweep-cold's per-op latencies (ten 20 s runs per
# side) were 1.023 times as long at 1.5 MiB and 1.049 times at 2.25 MiB
# (N = M = 60: 1.033 and 1.063; 100: 1.013 and 1.050).  A cold rough-heston
# price at N = M = 100 peaks at 5.30 MB of traced allocations (5.65 MB at
# 2.25 MiB, 6.53 MB at 3 MiB).
_CHUNK_BYTES = 6 * 2**18
# A regime stack exp(Lambda_l dt) whose dense (K, n, n) form would take more
# than _BAND_STEP_BYTES, the L2 cache of one core on the 2-core host measured,
# is kept as band rows (``RegimeStack.padded``): past it the dense stack
# streams from L3 at every slice.  One slice's regime step, batched dense
# matvec against the band rows' einsum: 47-83 us against 51-80 us at
# N = M = 60 (dense 1.7 MB), 202-295 us against 84-134 us at N = M = 80
# (4.1 MB) and 404-460 us against 206-236 us at N = M = 100 (8 MB).
_BAND_STEP_BYTES = 2 * 2**20
_MAX_TERMS = 4_000_000  # largest nu t expm_action sums a series for
# [13/13] Pade coefficients b_0 .. b_13, and the 1-norm up to which that
# approximant is accurate to double precision (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm_dense(gen, t: float) -> np.ndarray | RegimeStack:
    """Transition matrices exp(G t) of a generator of size <= _DENSE_CAP.

    ``gen`` is one dense matrix, whose exponential is ``_pade13``'s, or the
    (3, K, n) diagonal planes of K tridiagonal generators (see
    ``ctmc.tridiagonal_generator``), whose exponentials are ``_band_series``'s
    ``RegimeStack``; a sparse matrix is refused (``expm_action`` takes it).
    Rows are checked to sum to one (1e-10) and entries to be nonnegative up
    to -1e-12; tiny negative round-off is clamped to zero after the check.
    """
    try:
        g = np.asarray(gen, dtype=float)
    except (TypeError, ValueError):
        raise GeneratorError(f"expected a dense array, got {type(gen).__name__}; "
                             "a sparse generator goes to expm_action") from None
    n = g.shape[-1]
    if not (g.ndim == 2 and g.shape[0] == n or g.ndim == 3 and g.shape[0] == 3):
        raise GeneratorError(
            f"expected a square matrix or (3, K, n) diagonal planes, got shape {g.shape}")
    if n > _DENSE_CAP:
        chain, key = ("variance chain Q has M", "m_v") if g.ndim == 2 else ("regime family has N", "n_x")
        raise NumericalError(f"the {chain} = {n} states, above the dense cap {_DENSE_CAP}: price "
                             f"on a smaller grid (numerics.{key} <= {_DENSE_CAP}) or with "
                             "numerics.method=coupled")
    if t < 0:
        raise NumericalError("t must be nonnegative")
    if g.ndim == 2:
        p = _pade13(g * t)
        sums, parts = p.sum(axis=-1), (p,)
    else:
        p = _band_series(g, t)
        sums = np.zeros(g.shape[1:]) if p.padded is None else p.rows.sum(axis=1).reshape(-1, n)
        sums[p.on_dense] = p.dense.sum(axis=-1)
        parts = (p.dense,) if p.padded is None else (p.padded, p.dense)
    row_defect = np.abs(sums - 1.0).max()
    if not row_defect <= 1e-10:
        raise NumericalError(
            f"exp(Gt) rows deviate from stochasticity by {row_defect:.3e}; "
            "input is probably not a generator"
        )
    low = min(part.min(initial=0.0) for part in parts)
    if low < -1e-12:
        raise NumericalError(f"exp(Gt) has entries below -1e-12 ({low:.3e})")
    if low < 0.0:  # only a Pade rounds below zero: band series terms are nonnegative
        for part in parts:
            np.maximum(part, 0.0, out=part)
    return p


def _pade13(a: np.ndarray) -> np.ndarray:
    """exp(a) of one dense matrix: [13/13] Pade at a / 2^s, squared s times.

    s is the least with ||a / 2^s||_1 <= _THETA13.  The Pade value r = I + E
    comes as E = 2 (V - U)^-1 U and is squared as E <- 2E + E^2, so the
    identity never rounds the small entries of E against 1.  Squaring I + E
    itself can double a generator's row defect per squaring: on a tridiagonal
    generator that needed s = 20 the defect was 2.6e-10 that way, above
    ``expm_dense``'s 1e-10 row check, and 2.6e-14 this way.  A zero matrix
    gives I exactly.
    """
    n = a.shape[0]
    norm = np.abs(a).sum(axis=0).max()
    if not np.isfinite(norm):
        raise NumericalError("generator has non-finite entries")
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = a / 2.0**s
    b, eye = _PADE13, np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    e = np.linalg.solve(v - u, 2.0 * u)
    for _ in range(s):
        e = e @ e + 2.0 * e
    return eye + e


def _series_length(lam: np.ndarray) -> np.ndarray:
    """Last Poisson term J per lam whose right tail is below _TAIL.

    The tail after term J is at most term_{J+1} / (1 - lam/(J+2)), as the
    ratio of consecutive terms is lam/(i+1); unlike 1 - cdf, this bound can
    go below the rounding of 1.  The search runs 64 terms at a time.
    """
    if not (top := lam.max(initial=0.0)) <= _LAM_MAX:
        raise NumericalError(f"a regime chain's nu dt = {top:.4g} is past the {_LAM_MAX:g} its "
                             "series sums: use a smaller numerics.n_x or numerics.method=coupled")
    length, prod, j = np.full(lam.shape, -1), np.ones((len(lam), 1)), np.arange(1.0, 65.0)
    while (length < 0).any():  # prod ends at lam^j / j! of the block's last j
        prod = np.cumprod(np.hstack([prod[:, -1:], lam[:, None] / j]), axis=1)[:, 1:]
        ratio = lam[:, None] / (j + 1.0)
        done = (ratio < 1.0) & (np.exp(-lam)[:, None] * prod <= _TAIL * (1.0 - ratio))
        found = (length < 0) & done.any(axis=1)
        length[found] = np.argmax(done[found], axis=1) + int(j[0]) - 1
        j += 64.0
    return length


class RegimeStack(NamedTuple):
    """exp(G_k t) of K tridiagonal generators, each matrix dense or as band rows.

    ``dense`` holds the (len(on_dense), n, n) matrices of the regimes
    ``on_dense``: every regime while the dense stack takes at most
    _BAND_STEP_BYTES, above it the regimes with nu t > _LAM_CAP.  ``padded``
    is None when every regime is dense, else (W + K n + W, 2W + 1): W zero
    rows, then row k n + i of the stack, holding entry (i, i + o) of matrix k
    at column W + o (zero where i + o falls outside the matrix, and on the
    rows of a dense regime), then W zero rows.
    """

    dense: np.ndarray
    on_dense: np.ndarray
    padded: np.ndarray | None

    @property
    def layout(self) -> str:
        """"dense" when every regime is dense, else "band"."""
        return "dense" if self.padded is None else "band"

    @property
    def row_width(self) -> int:
        """Length of a row the step reads: n dense, 2W + 1 on band rows."""
        return self.dense.shape[-1] if self.padded is None else self.padded.shape[1]

    @property
    def rows(self) -> np.ndarray:
        """The (K n, 2W + 1) band rows, without the zero padding."""
        w = self.padded.shape[1] // 2
        return self.padded[w:self.padded.shape[0] - w]

    @property
    def T(self) -> RegimeStack:
        """The stack of transposed matrices; band rows by an index flip.

        Row p of the flipped rows holds at column W + o the entry of row p + o
        at column W - o: the zero rows and the zero out-of-matrix entries make
        the rows that cross into a neighbouring matrix read zeros.
        """
        dense = self.dense.transpose(0, 2, 1)
        if self.padded is None:
            return RegimeStack(dense, self.on_dense, None)
        w = self.padded.shape[1] // 2
        end = self.padded.shape[0] - w
        flipped = np.empty_like(self.padded)
        flipped[:w] = flipped[end:] = 0.0
        s0, s1 = self.padded.strides
        flipped[w:end] = as_strided(self.padded[:, 2 * w:], shape=(end - w, 2 * w + 1),
                                    strides=(s0, s0 - s1))
        return RegimeStack(dense, self.on_dense, flipped)

    def step(self, w: np.ndarray) -> np.ndarray:
        """The K matrices applied to the rows of a (K, n) array, one slice's regime step.

        Every regime dense: one batched matvec.  Band rows: one einsum of the
        (K n, 2W + 1) rows against the sliding windows of the zero-padded flat
        state, then one batched matvec that overwrites the dense regimes' rows.
        """
        if self.padded is None:
            return np.matmul(self.dense, w[:, :, None])[:, :, 0]
        rows = self.rows
        half = rows.shape[1] // 2
        state = np.zeros(w.size + 2 * half)         # the flat state, W zeros on each side
        state[half:half + w.size] = w.ravel()
        windows = np.ndarray(rows.shape, buffer=state, strides=state.strides * 2)  # state[p:p + 2W + 1]
        out = np.einsum("pk,pk->p", rows, windows).reshape(w.shape)
        if len(self.on_dense):
            out[self.on_dense] = np.matmul(self.dense, w[self.on_dense, :, None])[:, :, 0]
        return out


def _band_series(g: np.ndarray, t: float) -> RegimeStack:
    """exp(G_k t) for K tridiagonal generators given as (3, K, n) diagonal planes.

    With nu = max |G_ii|, lam = nu t and P = I + G/nu (tridiagonal, >= 0):
    exp(G t) = sum_j e^(-lam) lam^j / j! P^j, every term nonnegative.  The
    stack, sorted by series length, is summed by ``_band_terms`` in chunks of
    at most _CHUNK_BYTES; every matrix sees the same operations in any
    chunking.  Each chunk's dense matrices are zeroed and given their
    diagonals, and its other planes are copied into their band rows; both
    outputs are allocated after the first chunk's band arrays.
    """
    _, k, n = g.shape
    nu = np.abs(g[1]).max(axis=1)
    lam = nu * t
    length = _series_length(lam)
    order = np.argsort(-length, kind="stable")
    scale = 1.0 / np.where(nu > 0.0, nu, 1.0)
    is_dense = lam > _LAM_CAP if 8 * k * n * n > _BAND_STEP_BYTES else np.ones(k, bool)
    slot = np.cumsum(is_dense) - 1                              # position among the dense matrices
    w = int(min(length[~is_dense].max(initial=0), n - 1))
    band_bytes = 24 * n * (2 * np.minimum(length[order], n - 1) + 3)  # a chunk's, per matrix
    out, start = None, 0
    while start < k:
        stop = min(k, start + max(1, _CHUNK_BYTES // int(band_bytes[start])))
        idx = order[start:stop]
        start = stop
        sc = scale[idx, None]
        p = np.zeros((3, len(idx), n))                       # P[i, i - 1], P[i, i], P[i, i + 1]
        p[0, :, 1:] = g[0, idx, 1:] * sc
        p[1] = 1.0 + g[1, idx] * sc
        p[2, :, :-1] = g[2, idx, :-1] * sc
        total = _band_terms(p.reshape(3, -1), np.repeat(lam[idx], n), length[idx], n)
        c = total.shape[0] // 2
        total = total.reshape(-1, len(idx), n)
        if out is None:
            out = RegimeStack(np.empty((np.count_nonzero(is_dense), n, n)), np.flatnonzero(is_dense),
                              None if is_dense.all() else np.zeros((k * n + 2 * w, 2 * w + 1)))
        on = is_dense[idx]
        if not on.all():
            v = min(c - 1, w)                                # plane c + o is column w + o
            keep = ~on if on.any() else slice(None)          # a mask would copy the planes
            out.rows.reshape(k, n, 2 * w + 1)[idx[keep], :, w - v:w + v + 1] = (
                total[c - v:c + v + 1, keep].transpose(1, 2, 0))
        if on.any():
            _scatter(out.dense.reshape(-1, n * n), slot[idx[on]],
                     total if on.all() else total[:, on], length[idx[on]], n)
        del total, p                                         # before the next chunk's arrays
    return out


def _scatter(flat: np.ndarray, targets: np.ndarray, total: np.ndarray, length: np.ndarray,
             n: int) -> None:
    """Write band planes into dense matrices: rows ``targets`` of ``flat`` (one n n row each).

    ``total`` is (2c + 1, len(targets), n) from ``_band_terms``, of matrices in
    decreasing ``length``; each target is zeroed, then given its diagonals.
    """
    c = total.shape[0] // 2
    flat[targets] = 0.0
    needs = np.count_nonzero(length >= np.arange(c)[:, None], axis=1).tolist()
    for o in range(1 - c, c):                                # diagonal o: nonzero where length >= |o|
        a = needs[abs(o)]
        rows = slice(max(-o, 0), n - max(o, 0))
        first = max(-o, 0) * n + max(o, 0)                   # (i, i + o) at i (n + 1) + o
        flat[targets[:a], first:first + (n - abs(o) - 1) * (n + 1) + 1:n + 1] = total[c + o, :a, rows]


def _band_terms(p: np.ndarray, lam: np.ndarray, length: np.ndarray, n: int) -> np.ndarray:
    """Diagonals of sum_{j <= length} e^(-lam) lam^j / j! P^j, shape (2W + 3, K n).

    ``p`` holds the three diagonals of the K matrices P, rows end to end;
    ``lam`` is per row and ``length`` per matrix, in decreasing order.  Term
    j has bandwidth j (capped at W = n - 1), so plane c + o (c = W + 1)
    holds the entries (i, i + o).  Step j forms term j on the prefix of
    matrices that still need it, as ((lower + diagonal) + upper) products
    over three shifted views of term j - 1; a read across two matrices or
    past the prefix meets a zero P[i, i - 1] (first row) or P[i, i + 1] (last).
    """
    top = int(length[0])
    w_cap = min(top, n - 1)
    c = w_cap + 1
    total = np.zeros((2 * c + 1, p.shape[1]))
    term, nxt = np.zeros(total.shape), np.zeros(total.shape)
    term[c] = np.exp(-lam)
    total[c] = term[c]
    rows = n * np.count_nonzero(length >= np.arange(1, top + 1)[:, None], axis=1)
    r, step = p.shape[1], total.strides[1]
    for j, a in enumerate(rows.tolist(), 1):
        w = min(j, w_cap)
        pf = p[:, :a] * (lam[:a] / j)                        # the three diagonals of P lam / j
        band = slice(c - w, c + w + 1)
        # term[o + 1, q - 1], term[o, q] and term[o - 1, q + 1]; planes c -+ (w + 1) exist
        views = as_strided(term.reshape(-1)[(c - w) * r + r - 1:], shape=(3, 2 * w + 1, a),
                           strides=((1 - r) * step, r * step, step))
        total[band, :a] += np.einsum("sq,soq->oq", pf, views, out=nxt[band, :a])
        term, nxt = nxt, term
    return total


def expm_action(gen, w: np.ndarray, t: float, tol: float = 1e-12) -> np.ndarray:
    """exp(G t) w by uniformization for a sparse (or dense) generator.

    With nu = max |G_ii|, P = I + G/nu (in the sparse format of ``gen``; dense
    input goes to CSR) and lam = nu t, the action is the Poisson series
    sum_k e^(-lam) lam^k / k! P^k w, stopped at the first k whose right tail
    times ||w||_inf is at most tol; as ||P^k w||_inf <= ||w||_inf, that bounds
    the truncation error.
    """
    # only the coupled oracle runs sparse products; scipy.sparse stays out of the package import
    from scipy import sparse

    if t < 0:
        raise NumericalError("t must be nonnegative")
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise NumericalError("vector w must be finite")
    if t == 0.0:
        return w.copy()
    g = gen if sparse.issparse(gen) else sparse.csr_matrix(gen)
    nu = float(np.abs(g.diagonal()).max())
    if nu == 0.0:
        return w.copy()
    lam = nu * t
    if lam > _MAX_TERMS:
        raise NumericalError(
            f"uniformization needs more than {_MAX_TERMS} terms (nu*t = {lam:.3e}); "
            "the generator is too stiff for this budget"
        )
    # Poisson weights out to where they underflow (lam -+ 40 sd, +200 above), from
    # log(lam / k) summed outwards from the mode (gammaln loses 3e-11 at lam = 3e4)
    sd, mode = lam**0.5, int(lam)
    lo, hi = int(max(lam - 40 * sd, 0)), int(lam + 40 * sd + 200)
    below = np.cumsum(np.log(np.arange(mode, lo, -1) / lam))[::-1]
    wts = np.exp(np.r_[below, 0.0, np.cumsum(np.log(lam / np.arange(mode + 1, hi)))])
    wts /= wts.sum()
    first = int(np.flatnonzero(wts)[0])  # terms below it are not accumulated
    lo, wts = lo + first, wts[first:]
    tail = np.r_[np.cumsum(wts[::-1])[::-1][1:], 0.0]  # tail[i] = sum of wts[i + 1:]
    n_acc = int(np.argmax(tail * (np.abs(w).max() or 1.0) <= tol)) + 1
    p = sparse.identity(g.shape[0], format=g.format) + g / nu

    term = w
    for _ in range(lo):
        term = p @ term
    out = wts[0] * term
    for c in wts[1:n_acc]:
        term = p @ term
        out += c * term
    return out
