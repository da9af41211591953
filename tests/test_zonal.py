"""Spherical labels, the rank-one zonal recurrence, its zeros, and rotation angles."""

import numpy as np
import pytest

from exactrb import numerics, zonal


def test_label_validation():
    zonal.SphericalLabel(positive_part=(2, 1), d1=2, d=4)
    with pytest.raises(ValueError):
        zonal.SphericalLabel(positive_part=(), d1=1, d=2)
    with pytest.raises(ValueError):
        zonal.SphericalLabel(positive_part=(1, 2), d1=2, d=4)
    with pytest.raises(ValueError):
        zonal.SphericalLabel(positive_part=(1, 1, 1), d1=2, d=4)
    with pytest.raises(ValueError):
        zonal.SphericalLabel(positive_part=(1,), d1=3, d=4)


def test_enumerate_labels_counts():
    assert [l.positive_part for l in zonal.enumerate_sph_labels(1, 2, 2)] \
        == [(1,), (2,)]
    assert len(zonal.enumerate_sph_labels(1, 2, 4)) == 4
    parts = {l.positive_part for l in zonal.enumerate_sph_labels(4, 8, 2)}
    assert parts == {(1,), (2,), (1, 1)}


@pytest.mark.parametrize("t", [1, 2, 3, 5, 6])
def test_enumerate_labels_rank_one_count(t):
    assert len(zonal.enumerate_sph_labels(1, 2, t)) == t


def test_enumerate_labels_deterministic():
    a = zonal.enumerate_sph_labels(2, 4, 4)
    b = zonal.enumerate_sph_labels(2, 4, 4)
    assert a == b


def test_poly_normalized_at_one():
    for k in (1, 2, 3, 5):
        for d in (2, 3, 4):
            assert abs(zonal._jacobi_shifted(k, d, 1.0) - 1.0) < 1e-13


def test_poly_known_roots():
    assert abs(zonal._jacobi_shifted(1, 2, 0.5)) < 1e-14
    r = (1.0 + 1.0 / np.sqrt(3.0)) / 2.0
    assert abs(zonal._jacobi_shifted(2, 2, r)) < 1e-13
    assert abs(zonal._jacobi_shifted(1, 3, 1.0 / 3.0)) < 1e-14


def test_poly_orthogonality():
    # Jacobi orthogonality under the weight (1-x)^(d-2) on [0, 1].
    nodes, weights = np.polynomial.legendre.leggauss(40)
    x = (nodes + 1.0) / 2.0
    w = weights / 2.0
    for d in (2, 3, 4):
        wt = w * (1.0 - x) ** (d - 2)
        for k in (1, 2, 3):
            for j in range(k):
                pk = zonal._jacobi_shifted(k, d, x)
                pj = zonal._jacobi_shifted(j, d, x)
                assert abs((wt * pk * pj).sum()) < 1e-13


def test_root_interlacing():
    for d in (2, 3, 4):
        prev = zonal._zeros(1, d)
        for k in range(2, 7):
            cur = zonal._zeros(k, d)
            assert len(cur) == k
            for i in range(len(prev)):
                assert cur[i] < prev[i] < cur[i + 1]
            prev = cur


@pytest.mark.parametrize("d", range(2, 9))
def test_zeros_solve_the_recurrence_to_rounding(d):
    # the Jacobi matrix's eigenvalues, checked by the three-term recurrence
    for k in range(1, 7):
        x = zonal._zeros(k, d)
        assert len(x) == k and 0.0 < x[0] and x[-1] < 1.0
        assert np.abs(zonal._jacobi_shifted(k, d, x)).max() <= 1e-14, k


@pytest.mark.parametrize("d", range(2, 9))
def test_first_label_angle_is_exact(d):
    # P_1 vanishes at x = 1/d, so theta = arccos(1/sqrt(d))
    lab = zonal.SphericalLabel(positive_part=(1,), d1=1, d=d)
    assert abs(zonal.find_angles(lab)[0] - np.arccos(1.0 / np.sqrt(d))) <= 1e-15


def test_find_angles_known_values():
    lab = zonal.SphericalLabel(positive_part=(1,), d1=1, d=2)
    theta = zonal.find_angles(lab)
    assert theta.shape == (1,)
    assert abs(theta[0] - np.pi / 4) < 1e-12
    lab2 = zonal.SphericalLabel(positive_part=(2,), d1=1, d=2)
    theta2 = zonal.find_angles(lab2)[0]
    assert abs(theta2 - np.arccos(np.sqrt(0.788675))) < 1e-5
    # The angle comes from the largest root in (0, 1).
    r = (1.0 + 1.0 / np.sqrt(3.0)) / 2.0
    assert abs(np.cos(theta2) ** 2 - r) < 1e-12


def test_find_angles_root_residual():
    for k in range(1, 6):
        for d in (2, 4):
            lab = zonal.SphericalLabel(positive_part=(k,), d1=1, d=d)
            theta = zonal.find_angles(lab)[0]
            assert abs(zonal._jacobi_shifted(k, d, np.cos(theta) ** 2)) < 1e-12
            assert 0.0 <= theta <= np.pi / 2


def test_find_angles_rejects_multivariate():
    lab = zonal.SphericalLabel(positive_part=(1, 1), d1=2, d=4)
    with pytest.raises(ValueError):
        zonal.find_angles(lab)


# A Monte Carlo reference for the zonal function of d1 = 1 labels.

def zonal_value_mc(label, u, samples=200_000, seed=0):
    """Monte Carlo estimate of the zonal function at a unitary, with stderr:
    a definition that never touches the Jacobi recurrence.

    Estimates the Haar moments of the double-coset invariant
    x(V) = |V[0,0]|^2, builds the degree-k polynomial orthogonal to all lower
    monomials under the sampled measure (the zonal function, by orthogonality
    of inequivalent matrix coefficients), normalizes it at x = 1 and
    evaluates at x(u).  Estimate and stderr come from 20 sample batches.
    """
    k = label.positive_part[0]
    d = label.d
    u = np.asarray(u)
    x_u = float(np.abs(u[0, 0]) ** 2)
    n_batches = 20
    per = max(samples // n_batches, 4 * (k + 1))
    rng = np.random.default_rng(seed)
    estimates = np.empty(n_batches)
    for b in range(n_batches):
        vs = numerics.haar_unitaries(d, per, rng)
        xs = np.abs(vs[:, 0, 0]) ** 2
        powers = xs[None, :] ** np.arange(2 * k + 1)[:, None]
        moments = powers.mean(axis=1)
        hankel = np.empty((k, k))
        for i in range(k):
            hankel[i] = moments[i:i + k]
        rhs = -moments[k:2 * k]
        lower = np.linalg.solve(hankel, rhs)
        coeffs = np.concatenate([lower, [1.0]])
        estimates[b] = np.polynomial.polynomial.polyval(x_u, coeffs) / coeffs.sum()
    value = float(estimates.mean())
    stderr = float(estimates.std(ddof=1) / np.sqrt(n_batches))
    return value, stderr



def test_zonal_mc_identity():
    lab = zonal.SphericalLabel(positive_part=(2,), d1=1, d=2)
    val, se = zonal_value_mc(lab, np.eye(2), samples=20000, seed=3)
    assert abs(val - 1.0) < 3 * se + 1e-6


def test_zonal_mc_vanishes_at_found_angle():
    lab = zonal.SphericalLabel(positive_part=(2,), d1=1, d=2)
    theta = zonal.find_angles(lab)[0]
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    u = np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * x
    val, se = zonal_value_mc(lab, u, samples=40000, seed=4)
    assert abs(val) < 3 * se + 1e-3


def test_zonal_mc_bi_k_invariance():
    # Diagonal phases are K-elements for d1 = 1; the estimate only sees
    # |u[0,0]|^2 so the invariance is exact here by construction.
    lab = zonal.SphericalLabel(positive_part=(1,), d1=1, d=2)
    theta = 0.3
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    u = np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * x
    k1 = np.diag(np.exp(1j * np.array([0.4, -1.1])))
    k2 = np.diag(np.exp(1j * np.array([2.0, 0.7])))
    a = zonal_value_mc(lab, u, samples=20000, seed=5)
    b = zonal_value_mc(lab, k1 @ u @ k2, samples=20000, seed=5)
    assert abs(a[0] - b[0]) < 3 * np.hypot(a[1], b[1]) + 1e-9


def test_gate_count_estimate():
    assert zonal.gate_count_estimate(1, 4) == 1.0
    assert abs(zonal.gate_count_estimate(3, 4) / 2.86e4 - 1.0) < 0.01
    vals = [zonal.gate_count_estimate(n, 4) for n in range(1, 5)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    vals_t = [zonal.gate_count_estimate(3, t) for t in range(1, 5)]
    assert all(b > a for a, b in zip(vals_t, vals_t[1:]))

