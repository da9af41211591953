"""Irreducible projectors on the two-copy Pauli space and the decay algebra.

Averaging a two-copy channel over a unitary 4-design reduces it, on the
traceless-symmetric sector, to one scalar per irreducible component.  This
module builds the orthogonal projectors onto those components (dimensions 1
and 5 on one qubit; 1, 84, 20 and 15 on two) in one deterministic way for
both qubit counts: as polynomials in the adjoint Casimir, which is a known
integer on each component.  From the projectors come the decay rates
C_lambda of a noise channel and the overlap coefficients A_lambda of a
measurement configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import paulis
from .channels import PTM

# Eigenvalue of the adjoint Casimir K on each sector of the traceless
# symmetric two-copy space: 2d - C_2(lambda), with C_2 normalised so that
# C_2(adjoint) = d.  Sector dimensions: 1 and 5 on one qubit; 1, 84, 20
# and 15 on two.
SECTOR_CASIMIR = {1: {"0": 4, "I": -2}, 2: {"0": 8, "I": -2, "II": 2, "III": 4}}


@dataclass(frozen=True)
class IrrepProjectorSet:
    """Orthogonal projectors Pi_lambda on the (4^q)^2-dim two-copy space."""

    q: int
    projectors: dict
    dims: dict

    @property
    def labels(self) -> tuple:
        return tuple(self.projectors.keys())


def projector_set(q: int) -> IrrepProjectorSet:
    """Projectors onto the irreducible sectors of the traceless symmetric
    two-copy space, as polynomials in the adjoint Casimir.

    With ad_P[m, n] = tr(B_m i[P, B_n]) for the normalised Paulis P, the
    operator K = sum_P ad_P (x) ad_P commutes with every L_U (x) L_U and is
    the integer SECTOR_CASIMIR[q][lambda] on sector lambda, so
    Pi_lambda = P_S prod_{mu != lambda} (K - k_mu) / (k_lambda - k_mu), with
    P_S = (T (x) T)(I + SWAP)/2 and T the projector off the identity.
    """
    if q not in SECTOR_CASIMIR:
        raise ValueError("projector sets exist for q in {1, 2}")
    b = paulis.pauli_basis(q)
    n = len(b)
    # tr(B_m i[P, B_n]) = 2 Im tr(P B_m B_n); ad of the identity is zero
    ad = 2.0 * np.einsum("aij,mjk,nki->amn", b, b, b, optimize=True).imag
    # K is an integer matrix (its entries are sums of 2 eps_amn eps_ars on
    # one qubit and of products of +-1 on two): rounded, the numerators
    # below are exact and each projector entry is rounded once
    casimir = np.rint(np.einsum("amn,ars->mrns", ad, ad).reshape(n * n, n * n))
    t = np.eye(n)
    t[0, 0] = 0.0
    swap = np.eye(n * n).reshape(n, n, n * n).transpose(1, 0, 2).reshape(n * n, n * n)
    sym = np.kron(t, t) @ (np.eye(n * n) + swap) / 2.0
    sectors = SECTOR_CASIMIR[q]
    projectors = {}
    for lab, k in sectors.items():
        num, den = sym, 1
        for mu, k_mu in sectors.items():
            if mu != lab:
                num = num @ (casimir - k_mu * np.eye(n * n))
                den *= k - k_mu
        projectors[lab] = num / den
    return IrrepProjectorSet(q=q, projectors=projectors,
                             dims={lab: round(np.trace(pi)) for lab, pi in projectors.items()})


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
