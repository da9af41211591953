"""Trace-orthonormal operator bases and a few named operators.

The qubit basis is the normalized Pauli basis: single-qubit elements
(I, X, Y, Z)/sqrt(2), multi-qubit elements their lexicographically ordered
tensor products.  Index 0 is always the normalized identity, so transfer
matrices built on this basis have the trace-preserving block form with a
(1, 0, ..., 0) first row.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULIS_1Q = (I2, X, Y, Z)


@functools.lru_cache(maxsize=None)
def pauli_basis(q: int) -> np.ndarray:
    """Normalized q-qubit Pauli basis as a ``(4**q, 2**q, 2**q)`` stack."""
    if q < 1:
        raise ValueError("q must be >= 1")
    single = [p / np.sqrt(2.0) for p in PAULIS_1Q]
    out = []
    for combo in itertools.product(range(4), repeat=q):
        m = single[combo[0]]
        for idx in combo[1:]:
            m = np.kron(m, single[idx])
        out.append(m)
    return np.array(out)


@functools.lru_cache(maxsize=None)
def hermitian_basis(d: int) -> np.ndarray:
    """Trace-orthonormal Hermitian basis of d x d matrices, identity first.

    For d = 2**q this is :func:`pauli_basis`; otherwise a normalized
    generalized Gell-Mann construction.  Satisfies tr(B_n B_m) = delta_nm.
    """
    q = d.bit_length() - 1
    if d == 2 ** q and d >= 2:
        return pauli_basis(q)
    mats = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for k in range(1, d):
        diag = np.zeros(d, dtype=complex)
        diag[:k] = 1.0
        diag[k] = -k
        mats.append(np.diag(diag) / np.sqrt(k * (k + 1)))
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            mats.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1.0j / np.sqrt(2.0)
            asym[k, j] = 1.0j / np.sqrt(2.0)
            mats.append(asym)
    return np.array(mats)


@functools.lru_cache(maxsize=None)
def vec_basis_matrix(d: int) -> np.ndarray:
    """Unitary change of basis from operator-basis coordinates to vec.

    Column n is the row-major vec of ``hermitian_basis(d)[n]``, so for any
    operator O with basis coordinates c one has ``vec(O) = W @ c``.
    """
    basis = hermitian_basis(d)
    return basis.reshape(len(basis), -1).T.copy()


def to_basis_vec(op: np.ndarray, d: int | None = None) -> np.ndarray:
    """Coordinates of a d x d operator in the trace-orthonormal basis."""
    op = np.asarray(op, dtype=complex)
    if d is None:
        d = op.shape[0]
    basis = hermitian_basis(d)
    return np.einsum("nij,ji->n", basis, op)


def computational_projector(bits: str) -> np.ndarray:
    """Projector |b><b| for a computational basis bitstring like "01"."""
    d = 2 ** len(bits)
    idx = int(bits, 2)
    out = np.zeros((d, d), dtype=complex)
    out[idx, idx] = 1.0
    return out


_NAMED = {
    "X": lambda: X.copy(),
    "Y": lambda: Y.copy(),
    "Z": lambda: Z.copy(),
    "ZZ": lambda: np.kron(Z, Z),
    "P0": lambda: computational_projector("0"),
    "P00": lambda: computational_projector("00"),
    "rho_minus": lambda: computational_projector("00") - computational_projector("11"),
}


def named_operator(name: str) -> np.ndarray:
    """Look up one of the measurement/preparation operators used by the CLI."""
    try:
        return _NAMED[name]()
    except KeyError:
        raise ValueError(f"unknown operator name {name!r}; known: {sorted(_NAMED)}") from None
