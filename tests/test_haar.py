"""Haar moment operators, frame potentials, and mixed moments."""

import numpy as np
import pytest

from exactrb import haar, numerics, paulis


def test_perm_operator_identity():
    p = haar.perm_operator((0, 1, 2), 2)
    assert np.allclose(p, np.eye(8), atol=1e-15)


def test_perm_operator_swap_trace():
    # tr P_sigma = d^(number of cycles); the transposition on 2 slots has 1.
    p = haar.perm_operator((1, 0), 3)
    assert abs(np.trace(p) - 3.0) < 1e-13
    assert np.allclose(p @ p, np.eye(9), atol=1e-14)


def test_perm_operator_action(rng):
    # P_sigma moves tensor factor a into slot sigma[a] on product vectors.
    vs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
    sigma = (2, 0, 1)
    p = haar.perm_operator(sigma, 2)
    left = p @ np.kron(np.kron(vs[0], vs[1]), vs[2])
    slots = [None] * 3
    for a in range(3):
        slots[sigma[a]] = vs[a]
    right = np.kron(np.kron(slots[0], slots[1]), slots[2])
    assert np.abs(left - right).max() < 1e-13


@pytest.mark.parametrize("d,t,expected", [
    (2, 1, 1), (2, 2, 2), (2, 3, 5), (2, 4, 14),
    (3, 4, 23), (4, 4, 24), (3, 2, 2), (5, 3, 6),
])
def test_haar_frame_potential_values(d, t, expected):
    # d >= t gives t!; d = 2 gives the Catalan numbers.
    assert haar.haar_frame_potential(d, t) == expected


def test_moment_projector_small_cells():
    for d, t in [(2, 1), (2, 2), (3, 2), (2, 3)]:
        m = haar.haar_moment_projector(d, t)
        assert np.abs(m - m.conj().T).max() < 1e-12
        assert np.abs(m @ m - m).max() < 1e-12
        vals = np.linalg.eigvalsh(m)
        assert int((vals > 0.5).sum()) == haar.haar_frame_potential(d, t)


def test_moment_projector_cap(monkeypatch):
    monkeypatch.setattr(haar, "MOMENT_BYTES", 2 ** 10)
    with pytest.raises(ValueError):
        haar.haar_moment_projector(4, 4)


def test_moment_projector_fixes_permutations():
    # Permutation operators span the commutant, so M leaves them in place.
    m = haar.haar_moment_projector(2, 3)
    for sigma in [(0, 1, 2), (1, 0, 2), (2, 1, 0)]:
        vec = haar.perm_operator(sigma, 2).reshape(-1)
        assert np.abs(m @ vec - vec).max() < 1e-12


def test_moment_projector_matches_sample_average(rng):
    # M applied to vec(X) equals the Haar average of U^t X (U^t)^dag in the
    # MC limit; check the projector annihilates a traceless non-invariant X.
    m = haar.haar_moment_projector(2, 2)
    x = np.kron(paulis.Z, paulis.Z).astype(complex)
    proj = (m @ x.reshape(-1)).reshape(4, 4)
    us = numerics.haar_unitaries(2, 20000, rng)
    u2 = np.einsum("nab,ncd->nacbd", us, us).reshape(-1, 4, 4)
    avg = np.einsum("nab,bc,ndc->ad", u2, x, u2.conj()) / len(us)
    assert np.abs(avg - proj).max() < 0.05


def test_mixed_moment_identity_stack():
    stack = np.broadcast_to(np.eye(2, dtype=complex), (10, 2, 2))
    out, = haar.mixed_moment(stack, [(1, 1)])
    assert out.shape == (4, 4)
    assert np.abs(out - np.eye(4)).max() < 1e-14


def test_mixed_moment_haar_offdiagonal(rng):
    # E[U (x) U] = 0 for Haar; finite-sample residual is O(1/sqrt(n)).
    us = numerics.haar_unitaries(2, 20000, rng)
    assert np.abs(haar.mixed_moment(us, [(2, 0)])[0]).max() < 0.05

