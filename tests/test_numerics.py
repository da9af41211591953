"""Dense linear-algebra helpers: matexp, PSD pinv, Haar-random unitaries."""

import numpy as np

from exactrb import numerics


def test_matexp_of_zero_is_identity():
    assert np.allclose(numerics.matexp(np.zeros((4, 4))), np.eye(4), atol=1e-14)


def test_matexp_skew_hermitian_is_unitary(rng):
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = (h + h.conj().T) / 2
    u = numerics.matexp(1j * h)
    assert np.abs(u @ u.conj().T - np.eye(5)).max() < 1e-12


def test_matexp_diagonal():
    d = np.diag([0.1, -0.5, 2.0])
    assert np.allclose(numerics.matexp(d), np.diag(np.exp([0.1, -0.5, 2.0])),
                       atol=1e-14)


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
