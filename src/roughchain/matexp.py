"""Matrix exponentials of generators: dense transition matrices, and the
action exp(G t) w by uniformization, one Poisson series of about
nu t + 7 sqrt(nu t) sparse products with nu = max |G_ii| (on the five-diagonal
coupled generator, nu comes from the variance chain Q: 8524 for rough-heston
at M = 48)."""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import expm as _expm_pade

from .errors import GeneratorError, NumericalError

__all__ = ["expm_dense", "expm_action"]


def expm_dense(gen, t: float, dense_cap: int = 1024) -> np.ndarray:
    """Dense transition matrix exp(G t) of a generator of size <= dense_cap.

    Rows are checked to sum to one (1e-10) and entries to be nonnegative up
    to -1e-12; tiny negative round-off is clamped to zero after the check.
    """
    g = np.asarray(gen.toarray() if sparse.issparse(gen) else gen, dtype=float)
    n = g.shape[0]
    if g.shape != (n, n):
        raise GeneratorError(f"expected a square matrix, got {g.shape}")
    if n > dense_cap:
        raise NumericalError(
            f"dense exponential of size {n} exceeds cap {dense_cap}; "
            "use expm_action or raise dense_cap"
        )
    if t < 0:
        raise NumericalError("t must be nonnegative")
    if t == 0.0:
        return np.eye(n)
    p = _expm_pade(g * t)
    row_defect = np.abs(p.sum(axis=1) - 1.0).max()
    if row_defect > 1e-10:
        raise NumericalError(
            f"exp(Gt) rows deviate from stochasticity by {row_defect:.3e}; "
            "input is probably not a generator"
        )
    if p.min() < -1e-12:
        raise NumericalError(f"exp(Gt) has entries below -1e-12 ({p.min():.3e})")
    return np.maximum(p, 0.0)


def expm_action(
    gen,
    w: np.ndarray,
    t: float,
    tol: float = 1e-12,
    max_terms: int = 4_000_000,
) -> np.ndarray:
    """exp(G t) w by uniformization for a sparse (or dense) generator.

    With nu = max |G_ii|, P = I + G/nu (in the sparse format of ``gen``; dense
    input goes to CSR) and lam = nu t, the action is the Poisson series
    sum_k e^(-lam) lam^k / k! P^k w, stopped at the first k whose right tail
    times ||w||_inf is at most tol; as ||P^k w||_inf <= ||w||_inf, that bounds
    the truncation error.
    """
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
    if lam > max_terms:
        raise NumericalError(
            f"uniformization needs more than {max_terms} terms (nu*t = {lam:.3e}); "
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
