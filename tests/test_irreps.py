"""Two-copy sector projectors, decay rates, and overlap coefficients."""

import itertools

import numpy as np
import pytest

from exactrb import channels, haar, irreps, numerics, paulis

Z = paulis.Z
P0 = np.array([[1, 0], [0, 0]], dtype=complex)


def ptm_two_copy(l):
    return np.kron(l.matrix, l.matrix)


def unitary_two_copy(u, q):
    basis = paulis.pauli_basis(q)
    # L_U[m,n] = tr(P_m U P_n U^dag) with the normalized basis.
    lv = np.einsum("mab,bc,ncd,ad->mn", basis, u, basis, u.conj()).real
    return np.kron(lv, lv)


def sym_traceless(q):
    """Projector onto the symmetric two-copy vectors whose factors are both
    traceless: (T (x) T)(I + SWAP)/2, T the projector off the identity."""
    n = 4 ** q
    t = np.eye(n)
    t[0, 0] = 0.0
    swap = np.eye(n * n).reshape(n, n, n * n).transpose(1, 0, 2).reshape(n * n, n * n)
    return np.kron(t, t) @ (np.eye(n * n) + swap) / 2.0


def _reference_twirl_ptm2(x, d):
    """Haar average E[L_U^(x 2) X L_U^(x 2)^dag] for transfer matrices.

    x acts on the two-copy operator-basis space, size (d^2)^2.  The average
    is the orthogonal projection of x onto the span of the 24 permutation
    operators on four slots, partially transposed over slots 1 and 3 so
    that they commute with U (x) conj(U) (x) U (x) conj(U), computed via
    the Gram pseudoinverse, then rotated back to the operator basis.
    """
    qs = []
    for sigma in itertools.permutations(range(4)):
        a = haar.perm_operator(sigma, d).reshape((d,) * 8)
        # axes (o0 o1 o2 o3 | i0 i1 i2 i3): swap o1 <-> i1 and o3 <-> i3
        qs.append(a.transpose(0, 5, 2, 7, 4, 1, 6, 3).reshape(d ** 4, d ** 4))
    qs = np.array(qs)
    gram_pinv, _ = numerics.pinv_psd(np.einsum("aij,bij->ab", qs.conj(), qs).real)
    w = paulis.vec_basis_matrix(d)
    w2 = np.kron(w, w)
    y = w2 @ x @ w2.conj().T
    coeffs = gram_pinv @ np.einsum("aij,ij->a", qs.conj(), y)
    out = w2.conj().T @ np.einsum("a,aij->ij", coeffs, qs) @ w2
    assert np.abs(out.imag).max() < 1e-9
    return out.real


def test_twirl_ptm2_projects(rng):
    # The two-copy twirl is idempotent and commutes with any L_V^(x2).
    x = rng.standard_normal((256, 256))
    y = _reference_twirl_ptm2(x, 4)
    y2 = _reference_twirl_ptm2(y, 4)
    assert np.abs(y - y2).max() < 1e-10
    lv2 = unitary_two_copy(numerics.haar_unitaries(4, 1, rng)[0], 2)
    assert np.abs(lv2 @ y - y @ lv2).max() < 1e-10


@pytest.mark.parametrize("q", [1, 2])
def test_projectors_schur_against_twirl(q, rng):
    # Schur's lemma on the multiplicity-free traceless symmetric space: the
    # twirl of any x, cut down to that space, is
    # sum_lambda tr(Pi_lambda x) / dim_lambda Pi_lambda.
    p = irreps.projector_set(q)
    sym = sym_traceless(q)
    assert np.abs(sum(p.projectors.values()) - sym).max() < 1e-12
    x = rng.standard_normal(sym.shape)
    want = sum(np.trace(pi @ x) / p.dims[lab] * pi for lab, pi in p.projectors.items())
    got = sym @ _reference_twirl_ptm2(x, 2 ** q) @ sym
    assert np.abs(got - want).max() < 1e-10


def test_projector_dims():
    p1 = irreps.projector_set(1)
    assert p1.dims == {"0": 1, "I": 5}
    p2 = irreps.projector_set(2)
    assert p2.dims == {"0": 1, "I": 84, "II": 20, "III": 15}


@pytest.mark.parametrize("q", [1, 2])
def test_projector_algebra(q):
    p = irreps.projector_set(q)
    labels = p.labels
    for a in labels:
        pa = p.projectors[a]
        assert np.abs(pa - pa.T).max() < 1e-12
        assert np.abs(pa @ pa - pa).max() < 1e-10
        assert abs(np.trace(pa) - p.dims[a]) < 1e-8
        for b in labels:
            if b != a:
                assert np.abs(pa @ p.projectors[b]).max() < 1e-10


@pytest.mark.parametrize("q", [1, 2])
def test_projector_invariance(q):
    p = irreps.projector_set(q)
    rng = np.random.default_rng(41)
    lv2 = unitary_two_copy(numerics.haar_unitaries(2 ** q, 1, rng)[0], q)
    for pa in p.projectors.values():
        assert np.abs(lv2 @ pa - pa @ lv2).max() < 1e-10


def test_trivial_projector_is_rank_one_line():
    p = irreps.projector_set(1)
    v = np.zeros(16)
    for n in (1, 2, 3):
        v[4 * n + n] = 1.0
    v /= np.linalg.norm(v)
    assert np.abs(p.projectors["0"] - np.outer(v, v)).max() < 1e-12


def test_decay_rates_trivial_equals_unitarity():
    p1 = irreps.projector_set(1)
    for seed in range(4):
        l = channels.random_cptp(2, 2, seed=seed).to_ptm()
        rates = irreps.decay_rates(l, p1)
        assert abs(rates["0"] - channels.metrics(l).u) < 1e-12


def test_decay_rates_identity_channel():
    for q in (1, 2):
        p = irreps.projector_set(q)
        rates = irreps.decay_rates(channels.identity_ptm(q), p)
        for val in rates.values():
            assert abs(val - 1.0) < 1e-10


@pytest.mark.parametrize("p_err,q_mix", [(0.01, 0.95), (0.1, 0.5), (0.3, 0.0)])
def test_noise1_rate_closed_form(p_err, q_mix):
    p1 = irreps.projector_set(1)
    met = channels.noise1_closed_form(p_err, q_mix)
    rates = irreps.decay_rates(channels.noise1_model(p_err, q_mix), p1)
    c1 = 0.9 * met.f ** 2 - 0.2 * met.u + 0.3 * met.h
    assert abs(rates["0"] - met.u) < 1e-12
    assert abs(rates["I"] - c1) < 1e-12


@pytest.mark.parametrize("p_err,q_mix", [(0.01, 0.0), (0.01, 0.95), (0.2, 0.5)])
def test_noise2_rate_closed_form(p_err, q_mix):
    p2 = irreps.projector_set(2)
    want = channels.noise2_closed_form(p_err, q_mix)
    rates = irreps.decay_rates(channels.noise2_model(p_err, q_mix), p2)
    assert abs(rates["0"] - want["u"]) < 1e-12
    assert abs(rates["I"] - want["C_I"]) < 1e-12
    assert abs(rates["II"] - want["C_II"]) < 1e-12
    assert abs(rates["III"] - want["C_III"]) < 1e-12


def test_rate_dimension_sum_identity():
    # Dimension-weighted nontrivial rates reduce to (f, u, h) data.
    p1 = irreps.projector_set(1)
    for seed in range(6):
        l = channels.random_cptp(2, 3, seed=100 + seed).to_ptm()
        met = channels.metrics(l)
        rates = irreps.decay_rates(l, p1)
        lhs = 5.0 * rates["I"]
        rhs = 4.5 * met.f ** 2 - met.u + 1.5 * met.h
        assert abs(lhs - rhs) < 1e-12


def test_coefficients_single_qubit():
    p1 = irreps.projector_set(1)
    coeff = irreps.coefficients(Z, P0, channels.identity_ptm(1), p1)
    assert abs(coeff["0"] - 1.0 / 3.0) < 1e-12
    assert coeff["I"] >= -1e-12


def test_coefficients_table_values():
    p2 = irreps.projector_set(2)
    ident = channels.identity_ptm(2)
    zz = np.kron(Z, Z)
    p00 = np.kron(P0, P0)
    rho_minus = np.diag([1.0, 0, 0, -1.0]).astype(complex)
    table = {
        "zz_p00": (zz, p00, (1 / 5, 4 / 5, 0.0, 0.0)),
        "zz_zz": (zz, zz, (16 / 15, 48 / 5, 16 / 3, 0.0)),
        "rm_rm": (rho_minus, rho_minus, (4 / 15, 41 / 15, 1 / 3, 2 / 3)),
    }
    for name, (o_ini, o_meas, want) in table.items():
        coeff = irreps.coefficients(o_ini, o_meas, ident, p2)
        got = tuple(coeff[lab] for lab in ("0", "I", "II", "III"))
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12, name


def test_coefficients_requires_traceless():
    p1 = irreps.projector_set(1)
    with pytest.raises(ValueError):
        irreps.coefficients(P0, Z, channels.identity_ptm(1), p1)


def test_coefficients_carry_noise_adjoint():
    # With noise, the measurement operator is propagated through the
    # transpose of the PTM; a diagonal damping scales the ZZ overlap.
    p1 = irreps.projector_set(1)
    damp = np.diag([1.0, 0.5, 0.5, 0.5])
    l = channels.PTM(q=1, matrix=damp)
    base = irreps.coefficients(Z, Z, channels.identity_ptm(1), p1)
    scaled = irreps.coefficients(Z, Z, l, p1)
    for lab in base:
        assert abs(scaled[lab] - 0.25 * base[lab]) < 1e-12

