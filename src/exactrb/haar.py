"""Haar moment operators from permutation-operator Gram pseudoinverses.

Every Haar average here reduces to linear algebra over the span of
permutation operators acting on tensor copies: no Weingarten tables, no
irrep bookkeeping.  For the t-th moment on U(d) the operator

    M = E_Haar[ U^(x t) (x) conj(U)^(x t) ]

is the orthogonal projector onto span{vec(P_sigma) : sigma in S_t}, obtained
from the Gram matrix G[s, t] = d^(cycles(s^-1 t)) as
M = sum_{s,t} pinv(G)[s,t] |vec(P_t)><vec(P_s)|.  The frame potential is
the rank of G.  Ensemble moments of unitary stacks, the other side of a
design check, come from one pass over the stack for all checked (r, s)
cells at once: each chunk builds its Kronecker powers U^(x k) once, and
adds one GEMM of them to each cell's running total.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import numerics

MAX_T = 12
# Memory budget of one dense moment check, as check_moment_budget counts
# it.  1 GiB holds the largest dense projector the acceptance suite builds
# (side 6,561).
MOMENT_BYTES = 2 ** 30
# Rows per moment GEMM.  A GEMM whose inner dimension fits in one BLAS K
# panel (128 rows for OpenBLAS's SkylakeX kernels) sums every entry in the
# same order at any thread count; the chunks are then added in order.
CHUNK = 64


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


def check_moment_budget(d: int, t: int, n: int = 0, strong: bool = False) -> None:
    """Refuse a dense moment check on U(d) at order t that needs more than
    MOMENT_BYTES, with a ValueError naming d, t and the bytes.

    With n = 0 the check is the (t, t) Haar projector alone: one
    d^(2t)-side complex matrix.  For the moments of n unitaries, as
    verified against Haar, counted are mixed_moment's running totals of
    every checked cell (0 <= r, s <= t with ``strong``, else r = s), one
    chunk's GEMM product and the Kronecker powers U^(x k), k <= t, of at
    most CHUNK unitaries with their conjugates, and one cell's transposed
    result and Haar reference, each of the largest cell's size.
    """
    sides = [d ** (2 * k) for k in range(t + 1)]
    if n:
        cells = sum(sides) ** 2 if strong else sum(x * x for x in sides)
        need = 16 * (cells + 3 * sides[t] ** 2 + 2 * min(n, CHUNK) * sum(sides[1:]))
    else:
        need = 16 * sides[t] ** 2
    if need > MOMENT_BYTES:
        raise ValueError(
            f"the dense moment at d = {d}, t = {t} needs {need:,} bytes, "
            f"over the {MOMENT_BYTES:,}-byte budget")


def haar_moment_projector(d: int, t: int) -> np.ndarray:
    """Exact t-th Haar moment operator on U(d) as a dense matrix.

    It acts on vec'd operators over (C^d)^(x t) and is a Hermitian
    idempotent whose rank equals the Haar frame potential.  Its side is
    d^(2t), so its 16 d^(4t) bytes may not exceed MOMENT_BYTES; larger
    (d, t) cells are served by :func:`haar_frame_potential` alone.
    """
    if t < 1 or t > MAX_T:
        raise ValueError(f"t must be in 1..{MAX_T}")
    check_moment_budget(d, t)
    perms = _permutations(t)
    vecs = np.array([perm_operator(s, d).reshape(-1) for s in perms])
    gram_pinv, _ = _gram_pinv(d, t)
    # M = V^T pinv(G) conj(V); P_sigma is real so conj is a formality.
    return vecs.T @ gram_pinv @ vecs.conj()


def haar_frame_potential(d: int, t: int) -> int:
    """Haar frame potential E|tr(U^dag V)|^(2t), exactly rank of the Gram.

    Equals t! for d >= t and, e.g., 14 for d = 2, t = 4.
    """
    if t < 1 or t > MAX_T:
        raise ValueError(f"t must be in 1..{MAX_T}")
    return _gram_pinv(d, t)[1]


def mixed_moment(stack: np.ndarray, cells: list[tuple[int, int]]) -> list[np.ndarray]:
    """Ensemble averages of U^(x r) (x) conj(U)^(x s) over a stack of unitaries.

    Returns one d^(r+s) square matrix per (r, s) in ``cells``, in order (a
    1 x 1 matrix holding 1.0 for r = s = 0), from one pass over the stack.
    Each chunk of CHUNK unitaries builds its flattened Kronecker powers
    U^(x k) once, up to the largest r or s, conjugates each once, and adds
    one GEMM P_r^T conj(P_s) to every cell's running total (a column sum
    when r or s is 0).  Each cell's accumulation order depends only on the
    stack's length, not on the BLAS thread count or the other cells.
    """
    stack = np.asarray(stack)
    n, d = stack.shape[0], stack.shape[1]
    totals = [np.zeros((d ** (2 * r), d ** (2 * s)), dtype=complex) if r or s else None
              for r, s in cells]
    top = max(max(r, s) for r, s in cells)
    conjugated = {s for r, s in cells if s}
    for start in range(0, n, CHUNK):
        part = stack[start:start + CHUNK]
        powers = [None] + [p.reshape(len(part), -1) for p in _kron_powers(part, top)]
        # the recursion only multiplies entries, so conj(U^(x k)) is the
        # k-th power of conj(U) to the bit
        conj = {k: powers[k].conj() for k in conjugated}
        for (r, s), total in zip(cells, totals):
            if total is None:
                continue
            if r == 0 or s == 0:
                # against the all-ones power: numpy would hand this to gemv
                total += (conj[s] if r == 0 else powers[r]).sum(axis=0).reshape(total.shape)
            else:
                total += powers[r].T @ conj[s]
    out = []
    for r, s in cells:
        # each total is released as its transposed copy is made
        total = totals.pop(0)
        if total is None:
            out.append(np.ones((1, 1), dtype=complex))
            continue
        total /= n
        dr, ds = d ** r, d ** s
        # rows (a, b) of U^(x r), columns (c, d) of conj(U)^(x s) -> (a c, b d)
        out.append(total.reshape(dr, dr, ds, ds).transpose(0, 2, 1, 3).reshape(dr * ds, dr * ds))
    return out


def _kron_powers(stack: np.ndarray, k: int) -> list[np.ndarray]:
    """Batched Kronecker powers U^(x 1) .. U^(x k), k >= 1, of an (n, d, d) stack."""
    n, d = stack.shape[0], stack.shape[1]
    out = [stack]
    dim = d
    for _ in range(k - 1):
        out.append(np.einsum("nab,ncd->nacbd", out[-1], stack).reshape(n, dim * d, dim * d))
        dim *= d
    return out
