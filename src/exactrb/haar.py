"""Haar moment operators from permutation-operator Gram pseudoinverses.

Every Haar average here reduces to linear algebra over the span of
permutation operators acting on tensor copies: no Weingarten tables, no
irrep bookkeeping.  For the t-th moment on U(d) the operator

    M = E_Haar[ U^(x t) (x) conj(U)^(x t) ]

is the orthogonal projector onto span{vec(P_sigma) : sigma in S_t}, obtained
from the Gram matrix G[s, t] = d^(cycles(s^-1 t)) as
M = sum_{s,t} pinv(G)[s,t] |vec(P_t)><vec(P_s)|.  The frame potential is
the rank of G, and ensemble moments of unitary stacks, the other side of a
design check, come from one GEMM per chunk.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import numerics

MAX_T = 12
# Memory budget of one dense moment cell, as check_moment_budget counts
# it.  1 GiB holds the largest dense projector the acceptance suite builds
# (side 6,561).
MOMENT_BYTES = 2 ** 30
# Rows per moment GEMM.  A GEMM whose inner dimension fits in one BLAS K
# panel (128 rows for OpenBLAS's SkylakeX kernels) sums every entry in the
# same order at any thread count; the chunks are then added in order.
CHUNK = 64


@dataclass(frozen=True)
class MomentOperator:
    """Dense t-th Haar moment operator on U(d).

    ``matrix`` acts on vec'd operators over (C^d)^(x t); it is a Hermitian
    idempotent whose rank equals the Haar frame potential.
    """

    d: int
    t: int
    matrix: np.ndarray


def perm_operator(sigma: tuple[int, ...], d: int) -> np.ndarray:
    """Permutation operator P_sigma on (C^d)^(x t).

    ``sigma`` maps slot a to slot sigma[a] (0-based), i.e. P_sigma sends
    e_{i_0} (x) ... (x) e_{i_{t-1}} to the product with factor a moved to
    slot sigma[a].  tr P_sigma = d^(number of cycles of sigma).
    """
    t = len(sigma)
    if sorted(sigma) != list(range(t)):
        raise ValueError(f"not a permutation of 0..{t - 1}: {sigma}")
    if d < 1:
        raise ValueError("d must be >= 1")
    eye = np.eye(d ** t, dtype=complex).reshape((d,) * (2 * t))
    inverse = [0] * t
    for a, b in enumerate(sigma):
        inverse[b] = a
    axes = inverse + list(range(t, 2 * t))
    return eye.transpose(axes).reshape(d ** t, d ** t)


@functools.lru_cache(maxsize=None)
def _permutations(t: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.permutations(range(t)))


@functools.lru_cache(maxsize=None)
def _gram(d: int, t: int) -> np.ndarray:
    """Gram matrix G[s,r] = tr(P_s^dag P_r) = d^cycles(s^-1 r) over S_t."""
    perms = np.array(_permutations(t))
    inv = np.empty_like(perms)
    rows = np.arange(len(perms))[:, None]
    inv[rows, perms] = np.arange(t)[None, :]
    # comp[i, j] = inv(perms[i]) o perms[j], for every ordered pair at once
    comp = inv[:, perms]
    # cycles of each pair: an index is a cycle leader when it equals the
    # minimum of its forward orbit; t applications close every cycle
    orbit = comp
    low = np.minimum(np.arange(t), orbit)
    pair_rows = np.arange(len(perms))[:, None, None]
    for _ in range(t - 1):
        orbit = comp[pair_rows, np.arange(len(perms))[None, :, None], orbit]
        low = np.minimum(low, orbit)
    cycles = (low == np.arange(t)).sum(axis=2)
    return float(d) ** cycles


@functools.lru_cache(maxsize=None)
def _gram_pinv(d: int, t: int) -> tuple[np.ndarray, int]:
    return numerics.pinv_psd(_gram(d, t))


def check_moment_budget(d: int, t: int, n: int = 0, cap: int | None = None) -> None:
    """Refuse a dense (t, t) moment cell on U(d) that needs more than cap
    bytes (default MOMENT_BYTES), with a ValueError naming d, t and the
    bytes.

    With n = 0 the cell is the Haar projector alone: one d^(2t)-side
    complex matrix.  For the moment of n unitaries checked against that
    projector, counted are four such matrices (mixed_moment's running
    total, one chunk's GEMM product and the transposed copy it returns,
    and the Haar reference) and the two Kronecker powers of one chunk of
    at most CHUNK unitaries.
    """
    side = d ** (2 * t)
    matrices = 4 if n else 1
    need = 16 * (matrices * side ** 2 + 2 * min(n, CHUNK) * side)
    cap = MOMENT_BYTES if cap is None else cap
    if need > cap:
        raise ValueError(
            f"the dense moment at d = {d}, t = {t} needs {need:,} bytes, "
            f"over the {cap:,}-byte budget")


def haar_moment_projector(d: int, t: int, cap: int | None = None) -> MomentOperator:
    """Exact t-th Haar moment operator on U(d) as a dense matrix.

    The matrix has side d^(2t), so its 16 d^(4t) bytes may not exceed cap
    (default MOMENT_BYTES); larger (d, t) cells are served by
    :func:`haar_frame_potential` alone.
    """
    if t < 1 or t > MAX_T:
        raise ValueError(f"t must be in 1..{MAX_T}")
    check_moment_budget(d, t, cap=cap)
    perms = _permutations(t)
    vecs = np.array([perm_operator(s, d).reshape(-1) for s in perms])
    gram_pinv, _ = _gram_pinv(d, t)
    # M = V^T pinv(G) conj(V); P_sigma is real so conj is a formality.
    m = vecs.T @ gram_pinv @ vecs.conj()
    return MomentOperator(d=d, t=t, matrix=m)


def haar_frame_potential(d: int, t: int) -> int:
    """Haar frame potential E|tr(U^dag V)|^(2t), exactly rank of the Gram.

    Equals t! for d >= t and, e.g., 14 for d = 2, t = 4.
    """
    if t < 1 or t > MAX_T:
        raise ValueError(f"t must be in 1..{MAX_T}")
    return _gram_pinv(d, t)[1]


def mixed_moment(stack: np.ndarray, r: int, s: int) -> np.ndarray:
    """Ensemble average of U^(x r) (x) conj(U)^(x s) over a stack of unitaries.

    Returns a d^(r+s) square matrix (a 1 x 1 matrix holding 1.0 when
    r = s = 0).  Each chunk of CHUNK unitaries adds one GEMM of its
    flattened Kronecker powers (a column sum when r or s is 0), so the
    accumulation order depends only on the stack's length, not on the BLAS
    thread count.
    """
    stack = np.asarray(stack)
    n, d = stack.shape[0], stack.shape[1]
    if r == 0 and s == 0:
        return np.ones((1, 1), dtype=complex)
    dr, ds = d ** r, d ** s
    total = np.zeros((dr * dr, ds * ds), dtype=complex)
    for start in range(0, n, CHUNK):
        part = stack[start:start + CHUNK]
        kr = _kron_power(part, r).reshape(len(part), -1)
        ks = _kron_power(part.conj(), s).reshape(len(part), -1)
        if r == 0 or s == 0:
            # against the all-ones power: numpy would hand this to gemv
            total += (ks if r == 0 else kr).sum(axis=0).reshape(total.shape)
        else:
            total += kr.T @ ks
    total /= n
    # rows (a, b) of U^(x r), columns (c, d) of conj(U)^(x s) -> (a c, b d)
    return total.reshape(dr, dr, ds, ds).transpose(0, 2, 1, 3).reshape(dr * ds, dr * ds)


def _kron_power(stack: np.ndarray, k: int) -> np.ndarray:
    """Batched k-fold Kronecker power of an (n, d, d) stack."""
    n, d = stack.shape[0], stack.shape[1]
    if k == 0:
        return np.ones((n, 1, 1), dtype=stack.dtype)
    out = stack
    dim = d
    for _ in range(k - 1):
        out = np.einsum("nab,ncd->nacbd", out, stack).reshape(n, dim * d, dim * d)
        dim *= d
    return out
