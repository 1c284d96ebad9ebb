"""Matrix exponentials of generators: dense transition matrices and the
action exp(G t) w for large sparse generators via uniformization."""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import expm as _expm_pade
from scipy.special import gammaln

from .errors import GeneratorError, NumericalError

__all__ = ["expm_dense", "expm_action"]

_SEGMENT_MEAN = 400.0  # Poisson mean per uniformization segment (weights stay
                       # representable in double precision well below exp(-746))


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
    max_segments: int = 10_000,
) -> np.ndarray:
    """exp(G t) w by uniformization for a sparse (or dense) generator.

    With nu >= max |G_ii| and P = I + G/nu, the action is the Poisson-weighted
    series sum_k e^(-nu t) (nu t)^k / k! P^k w, truncated when the remaining
    Poisson tail times ||w||_inf drops below tol.  Large nu*t is split into
    segments so the weights stay representable; the result is deterministic.
    """
    if t < 0:
        raise NumericalError("t must be nonnegative")
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise NumericalError("vector w must be finite")
    if t == 0.0:
        return w.copy()
    g = sparse.csr_matrix(gen) if not sparse.issparse(gen) else gen.tocsr()
    diag = g.diagonal()
    nu = float(np.abs(diag).max())
    if nu == 0.0:
        return w.copy()

    n_seg = max(int(np.ceil(nu * t / _SEGMENT_MEAN)), 1)
    if n_seg > max_segments:
        raise NumericalError(
            f"uniformization needs {n_seg} segments (nu*t = {nu * t:.3e}); "
            "the generator is too stiff for this budget"
        )
    p = sparse.identity(g.shape[0], format="csr") + g / nu
    mean = nu * (t / n_seg)
    k_max = int(mean + 12.0 * np.sqrt(mean) + 25.0)
    ks = np.arange(k_max + 1)
    log_wts = -mean + ks * np.log(mean) - gammaln(ks + 1)
    wts = np.exp(log_wts)
    tail_start = int(np.searchsorted(np.cumsum(wts), 1.0 - tol)) + 1

    out = w
    scale = float(np.abs(w).max()) or 1.0
    for _ in range(n_seg):
        term = out
        acc = wts[0] * out
        for k in range(1, k_max + 1):
            term = p @ term
            acc = acc + wts[k] * term
            if k >= tail_start and (1.0 - wts[: k + 1].sum()) * scale < tol:
                break
        out = acc
    return out
