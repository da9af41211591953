"""Dense linear-algebra helpers: Pauli rotations, PSD pinv, Haar-random
unitaries."""

import functools

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from exactrb import numerics, paulis

PAULI_STRINGS = {name: functools.reduce(np.kron, (getattr(paulis, c) for c in name))
                 for name in ("X", "Y", "Z", "XX", "YY", "ZZ")}


# one period: past it the reference's own scaling-and-squaring error nears 1e-15
@settings(max_examples=200, deadline=None)
@given(theta=st.floats(-np.pi, np.pi), name=st.sampled_from(sorted(PAULI_STRINGS)))
def test_pauli_rotation_matches_expm(theta, name):
    p = PAULI_STRINGS[name]
    u = paulis.pauli_rotation(theta, p)
    assert np.abs(u - scipy.linalg.expm(1j * theta * p)).max() <= 1e-15


def test_pinv_psd_rank_and_inverse(rng):
    v = rng.standard_normal((7, 3))
    g = v @ v.T
    pinv, rank = numerics.pinv_psd(g)
    assert rank == 3
    assert np.abs(g @ pinv @ g - g).max() < 1e-10


def test_pinv_psd_identity():
    pinv, rank = numerics.pinv_psd(np.eye(5))
    assert rank == 5
    assert np.allclose(pinv, np.eye(5), atol=1e-14)


def test_haar_unitary_is_unitary(rng):
    for d in (2, 3, 4, 8):
        us = numerics.haar_unitaries(d, 50, rng)
        dev = np.abs(np.einsum("nij,nik->njk", us.conj(), us) - np.eye(d)).max()
        assert dev < 1e-12


def test_haar_unitary_seeded():
    # seeded draws repeat bit for bit
    a = numerics.haar_unitaries(4, 3, np.random.default_rng(5))
    b = numerics.haar_unitaries(4, 3, np.random.default_rng(5))
    c = numerics.haar_unitaries(4, 3, np.random.default_rng(6))
    assert np.array_equal(a, b)
    assert np.abs(a - c).max() > 1e-3


def test_haar_unitaries_stack(rng):
    us = numerics.haar_unitaries(3, 50, rng)
    assert us.shape == (50, 3, 3)
    dev = np.abs(np.einsum("nij,nik->njk", us.conj(), us) - np.eye(3)).max()
    assert dev < 1e-12


def test_haar_unitary_first_moment(rng):
    # E[U] = 0 for the Haar measure; the sample mean shrinks like 1/sqrt(n).
    us = numerics.haar_unitaries(2, 4000, rng)
    assert np.abs(us.mean(axis=0)).max() < 0.05
