"""Matrix exponentials of generators.

* ``expm_dense`` gives dense transition matrices.  A single matrix (the
  variance chain Q, whose nu t reaches 2e3) goes through the [13/13] Pade
  approximant with scaling and squaring (``_pade13``, numpy only); a
  (K, n, n) stack of tridiagonal generators (the M regime chains Lambda_l)
  through one band uniformization series for the whole stack
  (``_band_series``).
* ``expm_action`` gives exp(G t) w by uniformization, one Poisson series of
  about nu t + 7 sqrt(nu t) sparse products with nu = max |G_ii| (on the
  five-diagonal coupled generator, nu comes from the variance chain Q: 8524
  for rough-heston at M = 48).  Only this oracle loads ``scipy.sparse``, on
  its first call, so the fast route runs on numpy alone.
"""

from __future__ import annotations

import numpy as np

from .errors import GeneratorError, NumericalError

__all__ = ["expm_dense", "expm_action"]

# Poisson mass a band series leaves out of each row.  It is lost far from the
# diagonal, where payoffs reach 1e4 (a call at the upper x-wall): at 1e-17,
# out-of-the-money rough-sabr prices of 2e-6 to 5e-4 moved by 4e-17 to 5e-16.
_TAIL = 1e-20
_LAM_CAP = 1.0     # band series run at nu t <= _LAM_CAP (at most 20 terms), then square
_DENSE_CAP = 1024  # largest generator expm_dense makes dense
_MAX_TERMS = 4_000_000  # largest nu t expm_action sums a series for
# [13/13] Pade coefficients b_0 .. b_13, and the 1-norm up to which that
# approximant is accurate to double precision (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm_dense(gen, t: float) -> np.ndarray:
    """Dense transition matrix exp(G t) of a generator of size <= _DENSE_CAP.

    ``gen`` is one matrix (dense, or sparse with a ``toarray`` method), whose
    exponential is ``_pade13``'s, or a (K, n, n) stack of tridiagonal
    generators (a stack is read by its three diagonals; rate outside them
    leaves rows short of one, which the row check reports).
    Rows are checked to sum to one (1e-10) and entries to be nonnegative up
    to -1e-12; tiny negative round-off is clamped to zero after the check.
    """
    g = np.asarray(gen.toarray() if hasattr(gen, "toarray") else gen, dtype=float)
    n = g.shape[-1]
    if g.ndim not in (2, 3) or g.shape[-2] != n:
        raise GeneratorError(f"expected a square matrix or a stack of them, got {g.shape}")
    if n > _DENSE_CAP:
        raise NumericalError(
            f"dense exponential of size {n} exceeds cap {_DENSE_CAP}; use expm_action"
        )
    if t < 0:
        raise NumericalError("t must be nonnegative")
    p = _pade13(g * t) if g.ndim == 2 else _band_series(g, t)
    row_defect = np.abs(p.sum(axis=-1) - 1.0).max()
    if row_defect > 1e-10:
        raise NumericalError(
            f"exp(Gt) rows deviate from stochasticity by {row_defect:.3e}; "
            "input is probably not a generator"
        )
    if p.min() < -1e-12:
        raise NumericalError(f"exp(Gt) has entries below -1e-12 ({p.min():.3e})")
    return np.maximum(p, 0.0, out=p)


def _pade13(a: np.ndarray) -> np.ndarray:
    """exp(a) of one dense matrix: [13/13] Pade at a / 2^s, squared s times.

    s is the least with ||a / 2^s||_1 <= _THETA13.  The Pade value r = I + E
    comes as E = 2 (V - U)^-1 U and is squared as E <- 2E + E^2, so the
    identity never rounds the small entries of E against 1.  Squaring I + E
    itself roughly doubles a generator's row defect per squaring: for
    rough-42's markov Q at eps = 1e-8, N = M = 80 (s = 20) the defect is
    2.6e-10 that way and 2.6e-14 this way.  A zero matrix gives I exactly.
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
    """Last Poisson term J per lam <= _LAM_CAP whose right tail is below _TAIL.

    The tail after term J is at most term_{J+1} / (1 - lam/(J+2)), as the
    ratio of consecutive terms is lam/(i+1); unlike 1 - cdf, this bound can
    go below the rounding of 1.
    """
    j = np.arange(1.0, 65.0)
    term = np.exp(-lam)[:, None] * np.cumprod(lam[:, None] / j, axis=1)  # term_j
    ratio = lam[:, None] / (j + 1.0)
    return np.argmax((ratio < 1.0) & (term <= _TAIL * (1.0 - ratio)), axis=1)


def _band_series(g: np.ndarray, t: float) -> np.ndarray:
    """exp(G_k t) for a (K, n, n) stack of tridiagonal generators.

    With nu = max |G_ii|, lam = nu t and P = I + G/nu (tridiagonal, >= 0):
    exp(G t) = sum_j e^(-lam) lam^j / j! P^j, every term nonnegative.  The
    stack is sorted by series length for ``_band_terms``, whose diagonals are
    then written into the dense output.  A matrix with lam > _LAM_CAP sums
    the series at t / 2^s and is then squared s times.
    """
    k, n, _ = g.shape
    nu = np.abs(np.diagonal(g, 0, 1, 2)).max(axis=1)
    halvings = np.ceil(np.log2(np.maximum(nu * t, _LAM_CAP) / _LAM_CAP)).astype(int)
    lam = nu * t / 2.0**halvings
    length = _series_length(lam)
    order = np.argsort(-length, kind="stable")
    scale = (1.0 / np.where(nu > 0.0, nu, 1.0))[order, None]
    p = np.zeros((3, k, n))                                  # P[i, i - 1], P[i, i], P[i, i + 1]
    p[0, :, 1:] = np.diagonal(g, -1, 1, 2)[order] * scale
    p[1] = 1.0 + np.diagonal(g, 0, 1, 2)[order] * scale
    p[2, :, :-1] = np.diagonal(g, 1, 1, 2)[order] * scale
    total = _band_terms(p.reshape(3, k * n), np.repeat(lam[order], n), length[order], n)

    c = total.shape[0] // 2
    total = total.reshape(-1, k, n)
    out = np.zeros((k, n, n))
    flat = out.reshape(k, n * n)                             # (i, i + o) at i (n + 1) + o
    for o in range(1 - c, c):                                # diagonal o: nonzero where length >= |o|
        a = int(np.count_nonzero(length >= abs(o)))
        rows = slice(max(-o, 0), n - max(o, 0))
        start = max(-o, 0) * n + max(o, 0)
        flat[order[:a], start:start + (n - abs(o) - 1) * (n + 1) + 1:n + 1] = total[c + o, :a, rows]
    for s in range(int(halvings.max())):
        sel = halvings > s
        out[sel] = out[sel] @ out[sel]
    return out


def _band_terms(p: np.ndarray, lam: np.ndarray, length: np.ndarray, n: int) -> np.ndarray:
    """Diagonals of sum_{j <= length} e^(-lam) lam^j / j! P^j, shape (2W + 3, K n).

    ``p`` holds the three diagonals of the K matrices P, rows end to end
    (P[i, i - 1] is zero on a first row and P[i, i + 1] on a last one, so a
    row shift across two matrices adds nothing); ``lam`` is per row and
    ``length`` per matrix, in decreasing order.  Term j has bandwidth j
    (capped at W = n - 1), so plane c + o (c = W + 1) holds the entries
    (i, i + o); step j updates the prefix of matrices that still need term j.
    """
    top = int(length[0])
    w_cap = min(top, n - 1)
    c = w_cap + 1
    total = np.zeros((2 * c + 1, p.shape[1]))
    term, nxt = np.zeros(total.shape), np.zeros(total.shape)
    term[c] = np.exp(-lam)
    total[c] = term[c]
    for j in range(1, top + 1):
        a, w = n * int(np.count_nonzero(length >= j)), min(j, w_cap)
        f = lam[:a] / j
        band = slice(c - w, c + w + 1)
        new = nxt[band, :a]
        np.multiply(p[1, :a] * f, term[band, :a], out=new)
        new[:, 1:] += (p[0, 1:a] * f[1:]) * term[c - w + 1:c + w + 2, :a - 1]
        new[:, :-1] += (p[2, :a - 1] * f[:-1]) * term[c - w - 1:c + w, 1:a]
        total[band, :a] += new
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
