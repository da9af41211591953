"""Dense linear-algebra substrate shared by the rest of the package.

Matrices are plain numpy arrays: ``complex128`` for unitaries and Hermitian
operators, ``float64`` for transfer matrices and Gram matrices.  Everything
here is pure and deterministic: the PSD pseudoinverse with its rank, and
seeded Haar-random unitaries.
"""

from __future__ import annotations

import numpy as np

DEFAULT_RANK_TOL = 1e-10


def _require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def _require_finite(a: np.ndarray, name: str = "result") -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def pinv_psd(g: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL,
             power: float = 1.0) -> tuple[np.ndarray, int]:
    """Moore-Penrose pseudoinverse of a symmetric PSD matrix, with its rank.

    Rank counts singular values above ``rank_tol`` times the largest one.
    Returns ``(pinv, rank)``; an all-zero input gives ``(zeros, 0)``.  With
    ``power`` p the kept eigenvalues are raised to -p instead of -1, so
    p = 0.5 gives the pseudoinverse square root.
    """
    g = _require_square(g)
    if np.linalg.norm(g - g.conj().T) > 1e-8 * max(1.0, np.linalg.norm(g)):
        raise ValueError("pinv_psd expects a (conjugate-)symmetric matrix")
    vals, vecs = np.linalg.eigh(g)
    svals = np.abs(vals)
    smax = svals.max(initial=0.0)
    if smax == 0.0:
        return np.zeros_like(g), 0
    keep = svals > rank_tol * smax
    rank = int(np.count_nonzero(keep))
    inv_vals = np.zeros_like(vals)
    inv_vals[keep] = vals[keep] ** -power
    pinv = (vecs * inv_vals) @ vecs.conj().T
    return _require_finite(pinv, "pinv"), rank


def haar_unitaries(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """An ``(n, d, d)`` stack of Haar-distributed unitaries, from the QR
    decomposition of complex Ginibre matrices.

    The R-diagonal phase correction makes the distribution exactly Haar
    rather than merely unitary-valued.
    """
    z = (rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]
