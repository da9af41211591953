"""Irreducible projectors on the two-copy Pauli space and the decay algebra.

Averaging a two-copy channel over a unitary 4-design reduces it, on the
traceless-symmetric sector, to one scalar per irreducible component.  This
module builds the orthogonal projectors onto those components: explicit
spans for one qubit (a trivial line plus a 5-dimensional component), and a
commutant eigendecomposition for two qubits (dimensions 1, 84, 20, 15).
From the projectors come the decay rates C_lambda of a noise channel and
the overlap coefficients A_lambda of a measurement configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import haar, paulis
from .channels import PTM

CLUSTER_TOL = 1e-8
LABELS_1Q = ("0", "I")
LABELS_2Q = ("0", "I", "II", "III")
DIMS_2Q = {1: "0", 84: "I", 20: "II", 15: "III"}


@dataclass(frozen=True)
class IrrepProjectorSet:
    """Orthogonal projectors Pi_lambda on the (4^q)^2-dim two-copy space."""

    q: int
    projectors: dict
    dims: dict

    @property
    def labels(self) -> tuple:
        return tuple(self.projectors.keys())


def _basis_vec2(n: int, m: int, dim: int) -> np.ndarray:
    v = np.zeros(dim * dim)
    v[n * dim + m] = 1.0
    return v


def traceless_symmetric_basis(q: int) -> np.ndarray:
    """Orthonormal rows spanning the both-factors-traceless symmetric sector.

    Diagonal vectors |nn> first (n >= 1), then (|nm> + |mn>)/sqrt(2) for
    n < m.  Dimension k(k+1)/2 with k = 4^q - 1: 6 for q=1, 120 for q=2.
    """
    dim = 4 ** q
    rows = []
    for n in range(1, dim):
        rows.append(_basis_vec2(n, n, dim))
    for n in range(1, dim):
        for m in range(n + 1, dim):
            rows.append((_basis_vec2(n, m, dim) + _basis_vec2(m, n, dim)) / np.sqrt(2.0))
    return np.array(rows)


def projectors_1q() -> IrrepProjectorSet:
    """Single-qubit projectors from explicit spans.

    The trivial line is spanned by sum_n |sigma_n sigma_n>> (n = 1..3); the
    5-dimensional component by the symmetrized off-diagonal pairs plus the
    two traceless diagonal combinations.  Gram-Schmidt makes the listed
    vectors an orthonormal frame before forming the projectors.
    """
    dim = 4
    v0 = (_basis_vec2(1, 1, dim) + _basis_vec2(2, 2, dim) + _basis_vec2(3, 3, dim))
    span_i = [
        _basis_vec2(1, 2, dim) + _basis_vec2(2, 1, dim),
        _basis_vec2(1, 3, dim) + _basis_vec2(3, 1, dim),
        _basis_vec2(2, 3, dim) + _basis_vec2(3, 2, dim),
        _basis_vec2(1, 1, dim) - 2.0 * _basis_vec2(2, 2, dim) + _basis_vec2(3, 3, dim),
        _basis_vec2(1, 1, dim) - _basis_vec2(3, 3, dim),
    ]
    frame0 = _gram_schmidt([v0])
    frame_i = _gram_schmidt(span_i)
    pi0 = frame0.T @ frame0
    pi1 = frame_i.T @ frame_i
    return IrrepProjectorSet(q=1, projectors={"0": pi0, "I": pi1},
                             dims={"0": 1, "I": 5})


def _gram_schmidt(vectors) -> np.ndarray:
    rows = []
    for v in vectors:
        w = np.array(v, dtype=float)
        for r in rows:
            w = w - (r @ w) * r
        norm = np.linalg.norm(w)
        if norm < 1e-12:
            raise ValueError("linearly dependent span")
        rows.append(w / norm)
    return np.array(rows)


def projectors_2q(seed: int = 0, max_retries: int = 5) -> IrrepProjectorSet:
    """Two-qubit projectors by eigendecomposing an exactly twirled operator.

    A random symmetric operator supported on the 120-dim both-traceless
    symmetric sector is averaged over the exact two-copy Haar twirl; by
    Schur's lemma the result is a distinct scalar on each irreducible
    component, so its eigenprojectors (grouped by eigenvalue) are the
    Pi_lambda.  A degenerate random draw triggers a retry with a fresh
    operator.
    """
    b = traceless_symmetric_basis(2)
    for attempt in range(max_retries):
        rng = np.random.default_rng(seed + attempt)
        c = rng.standard_normal((120, 120))
        c = (c + c.T) / 2.0
        x = b.T @ c @ b
        y = haar.haar_twirl_ptm2(x, 4)
        y_sec = b @ y @ b.T
        y_sec = (y_sec + y_sec.T) / 2.0
        vals, vecs = np.linalg.eigh(y_sec)
        clusters = _cluster(vals, CLUSTER_TOL)
        sizes = sorted(len(c_) for c_ in clusters)
        if sizes != sorted(DIMS_2Q.keys()):
            continue
        projectors = {}
        dims = {}
        for idx in clusters:
            label = DIMS_2Q[len(idx)]
            frame = vecs[:, idx]
            small = frame @ frame.T
            projectors[label] = b.T @ small @ b
            dims[label] = len(idx)
        ordered = {lab: projectors[lab] for lab in LABELS_2Q}
        return IrrepProjectorSet(q=2, projectors=ordered,
                                 dims={lab: dims[lab] for lab in LABELS_2Q})
    raise RuntimeError(f"eigenvalue clustering failed after {max_retries} draws")


def _cluster(sorted_vals: np.ndarray, tol: float) -> list:
    clusters = [[0]]
    for i in range(1, len(sorted_vals)):
        if sorted_vals[i] - sorted_vals[i - 1] > tol:
            clusters.append([])
        clusters[-1].append(i)
    return clusters


def projector_set(q: int, seed: int = 0) -> IrrepProjectorSet:
    if q == 1:
        return projectors_1q()
    if q == 2:
        return projectors_2q(seed=seed)
    raise ValueError("projector sets exist for q in {1, 2}")


def decay_rates(l: PTM, p: IrrepProjectorSet) -> dict:
    """Per-component rates C_lambda = tr[Pi_lambda L^(x2)] / dim_lambda.

    The trivial component's rate equals the unitarity of the channel.
    """
    if l.q != p.q:
        raise ValueError("qubit counts differ")
    l2 = np.kron(l.matrix, l.matrix)
    return {lab: float(np.einsum("ij,ji->", pi, l2)) / p.dims[lab]
            for lab, pi in p.projectors.items()}


def coefficients(o_ini: np.ndarray, o_meas: np.ndarray, l: PTM,
                 p: IrrepProjectorSet) -> dict:
    """Overlap coefficients A_lambda of a two-copy decay curve.

    A_lambda = <<O'^(x2)| Pi_lambda |Delta^(x2)>> with O' the measurement
    operator propagated through the noise channel adjoint (the final noisy
    step of a sequence acts on the measurement side).  Delta = o_ini must be
    traceless.
    """
    if abs(np.trace(o_ini)) > 1e-10:
        raise ValueError("o_ini must be traceless")
    v_ini = _real_vec(paulis.to_basis_vec(o_ini))
    v_meas = l.matrix.T @ _real_vec(paulis.to_basis_vec(o_meas))
    left = np.kron(v_meas, v_meas)
    right = np.kron(v_ini, v_ini)
    return {lab: float(left @ pi @ right) for lab, pi in p.projectors.items()}


def _real_vec(vec: np.ndarray) -> np.ndarray:
    if np.abs(vec.imag).max() > 1e-12:
        raise ValueError("operator is not Hermitian")
    return vec.real.copy()
