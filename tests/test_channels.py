"""PTM plumbing, noise models, closed-form metrics, and channel properties."""

import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from exactrb import channels, numerics, paulis

X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_unital_violating_tp():
    m = np.eye(4)
    m[0, 2] = 0.3
    return m


def test_ptm_validates_first_row():
    with pytest.raises(ValueError):
        channels.PTM(q=1, matrix=random_unital_violating_tp())


def test_ptm_identity_properties():
    l = channels.identity_ptm(1)
    assert l.d == 2
    assert np.allclose(l.unital_block, np.eye(3))
    assert np.allclose(l.alpha, 0.0)
    assert abs(np.trace(l.choi()) - 1.0) < 1e-13
    assert l.is_cp()


@pytest.mark.parametrize("d, rank", [(2, 3), (4, 2)])
def test_choi_matches_kraus_definition(d, rank):
    # J = (E (x) id)(|Omega><Omega|) / d = sum_cd E(|c><d|) (x) |c><d| / d
    k = channels.random_cptp(d, rank, seed=11)
    want = np.zeros((d * d, d * d), dtype=complex)
    for c in range(d):
        for e in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[c, e] = 1.0
            want += np.kron(k.apply(unit), unit) / d
    assert np.abs(k.to_ptm().choi() - want).max() < 1e-14


def test_ptm_of_unitary_is_orthogonal(rng):
    u = numerics.haar_unitaries(2, 1, rng)[0]
    l = channels.ptm_of_unitary(u)
    b = l.unital_block
    assert np.abs(b @ b.T - np.eye(3)).max() < 1e-12
    assert l.is_cp()


def test_kraus_completeness_enforced():
    with pytest.raises(ValueError):
        channels.KrausChannel((0.5 * np.eye(2),))


def test_kraus_vs_unitary_ptm(rng):
    u = numerics.haar_unitaries(2, 1, rng)[0]
    via_kraus = channels.ptm_from_kraus(channels.KrausChannel((u,)))
    direct = channels.ptm_of_unitary(u)
    assert np.abs(via_kraus.matrix - direct.matrix).max() < 1e-12


def test_compose_is_matrix_product():
    # k1 after k2 is the PTM product, as applying the Kraus maps in sequence
    k1 = channels.random_cptp(2, 2, seed=1)
    k2 = channels.random_cptp(2, 3, seed=2)
    rho0 = np.array([[1, 0], [0, 0]], dtype=complex)
    coords = k1.to_ptm().matrix @ k2.to_ptm().matrix @ paulis.to_basis_vec(rho0)
    rho = np.einsum("n,nij->ij", coords, paulis.hermitian_basis(2))
    assert np.abs(rho - k1.apply(k2.apply(rho0))).max() < 1e-12


def test_metrics_identity_channel():
    m = channels.metrics(channels.identity_ptm(1))
    assert abs(m.f - 1.0) < 1e-14
    assert abs(m.F - 1.0) < 1e-14
    assert abs(m.u - 1.0) < 1e-14
    assert abs(m.h - 1.0) < 1e-14
    assert abs(m.H - 1.0) < 1e-14
    assert m.alpha_norm_sq < 1e-14


def test_metrics_depolarizing():
    # Full depolarizing on one qubit: unital block 0, f = 0, F = 1/2.
    m4 = np.zeros((4, 4))
    m4[0, 0] = 1.0
    met = channels.metrics(channels.PTM(q=1, matrix=m4))
    assert abs(met.f) < 1e-14
    assert abs(met.F - 0.5) < 1e-14
    assert abs(met.u) < 1e-14
    assert abs(met.h) < 1e-14


@pytest.mark.parametrize("p,q", [(0.01, 0.95), (0.02, 0.98), (0.1, 0.5),
                                 (0.2, 0.0), (0.4, 1.0)])
def test_noise1_matches_closed_form(p, q):
    got = channels.metrics(channels.noise1_model(p, q))
    want = channels.noise1_closed_form(p, q)
    for name in ("f", "F", "u", "h", "H"):
        assert abs(getattr(got, name) - getattr(want, name)) < 1e-12
    assert got.alpha_norm_sq < 1e-24


@pytest.mark.parametrize("p,q", [(0.01, 0.5), (0.1, 0.95), (0.3, 0.0)])
def test_noise2_matches_closed_form(p, q):
    got = channels.metrics(channels.noise2_model(p, q))
    want = channels.noise2_closed_form(p, q)
    for name in ("f", "F", "u", "h", "H"):
        assert abs(getattr(got, name) - want[name]) < 1e-12


def test_noise_models_are_cptp():
    assert channels.noise1_model(0.3, 0.7).is_cp()
    assert channels.noise2_model(0.3, 0.7).is_cp()
    with pytest.raises(ValueError):
        channels.noise1_model(1.5, 0.0)
    with pytest.raises(ValueError):
        channels.noise2_model(0.1, -0.2)


def test_self_adjointness_integral_matches_formula(rng):
    for seed in range(5):
        l = channels.random_cptp(2, 3, seed=seed).to_ptm()
        met = channels.metrics(l)
        assert abs(channels.self_adjointness_integral(l) - met.H) < 1e-12


def test_self_adjoint_channel_has_unit_h():
    # Stochastic Pauli noise is self-adjoint.
    ops = (np.sqrt(0.8) * np.eye(2, dtype=complex), np.sqrt(0.2) * X)
    l = channels.ptm_from_kraus(channels.KrausChannel(ops))
    assert abs(channels.metrics(l).H - 1.0) < 1e-13


def test_kraus_self_adjointness_param(rng):
    for seed in (3, 4, 5):
        k = channels.random_cptp(2, 2, seed=seed)
        direct = channels.metrics(k.to_ptm()).h
        assert abs(channels.kraus_self_adjointness_param(k) - direct) < 1e-12


def test_sqrt_x_saturates_h_lower_bound():
    u = scipy.linalg.expm(1j * (np.pi / 4) * X)
    met = channels.metrics(channels.ptm_of_unitary(u))
    assert abs(met.h + 1.0 / 3.0) < 1e-14
    assert abs(met.F - 2.0 / 3.0) < 1e-14
    assert abs(met.H) < 1e-14


def test_pi_rotation_metrics():
    met = channels.metrics(channels.ptm_of_unitary(X))
    assert abs(met.F - 1.0 / 3.0) < 1e-14
    assert abs(met.H - 1.0) < 1e-14


def test_lindblad_ptm_diagonal_decays():
    t1, t2, delay = 10.0, 14.0, 0.3
    l = channels.lindblad_ptm(t1, t2, delay=delay)
    m = l.matrix
    assert abs(m[1, 1] - np.exp(-delay / t2)) < 1e-12
    assert abs(m[2, 2] - np.exp(-delay / t2)) < 1e-12
    assert abs(m[3, 3] - np.exp(-delay / t1)) < 1e-12
    assert abs(m[3, 0] - (1.0 - np.exp(-delay / t1))) < 1e-12
    assert l.is_cp()


def test_lindblad_zz_term_rotates():
    l = channels.lindblad_ptm(1e9, 2e9, chi=0.5, delay=1.0, include_zz=True)
    # Nearly pure Z rotation by chi: X -> cos(chi) X - sin(chi) Y.
    assert abs(l.matrix[1, 1] - np.cos(0.5)) < 1e-6
    assert abs(abs(l.matrix[2, 1]) - np.sin(0.5)) < 1e-6


def liouvillian_ptm(t1, t2, chi, delay, include_zz):
    """The propagator as the exponential of the dense Liouvillian: jumps
    |0><1|/sqrt(T1) and Z/sqrt(2 Tphi), Hamiltonian (chi/2) Z, row-major vec
    where A X B -> (A (x) B^T) vec(X), taken to the Pauli basis."""
    inv_tphi = max(1.0 / t2 - 1.0 / (2.0 * t1), 0.0)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    jumps = [lower / np.sqrt(t1), paulis.Z * np.sqrt(inv_tphi / 2.0)]
    eye = np.eye(2)
    sup = np.zeros((4, 4), dtype=complex)
    for jump in jumps:
        decay = jump.conj().T @ jump
        sup += np.kron(jump, jump.conj()) - 0.5 * (np.kron(decay, eye) + np.kron(eye, decay.T))
    if include_zz:
        ham = (chi / 2.0) * paulis.Z
        sup += -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    w = paulis.vec_basis_matrix(2)
    return scipy.linalg.expm((w.conj().T @ sup @ w).real * delay).real


@settings(max_examples=200, deadline=None)
@given(t1=st.floats(0.1, 100.0), ratio=st.floats(0.05, 1.0), chi=st.floats(-5.0, 5.0),
       delay=st.one_of(st.just(0.0), st.floats(0.0, 10.0)), include_zz=st.booleans())
def test_lindblad_ptm_matches_liouvillian_exponential(t1, ratio, chi, delay, include_zz):
    # ratio 1 is T2 = 2 T1, where pure dephasing vanishes
    t2 = 2.0 * t1 * ratio
    l = channels.lindblad_ptm(t1, t2, chi=chi, delay=delay, include_zz=include_zz)
    ref = liouvillian_ptm(t1, t2, chi, delay, include_zz)
    assert np.abs(l.matrix - ref).max() <= 1e-11


@pytest.mark.parametrize("delay", [np.inf, np.nan, 1e300])
def test_lindblad_rejects_non_finite_propagator(delay):
    # chi * delay overflows at 1e300, so the rotation angle is not finite
    with pytest.raises(ValueError, match="non-finite"):
        channels.noise_from_config({"model": "lindblad", "t1": 1.0, "t2": 1.0, "delay": delay,
                                    "chi": 1e10, "include_zz": True})


def test_lindblad_rejects_unphysical():
    with pytest.raises(ValueError):
        channels.lindblad_ptm(1.0, 3.0, delay=0.1)
    with pytest.raises(ValueError):
        channels.lindblad_ptm(-1.0, 0.5, delay=0.1)


def test_random_cptp_seeded():
    a = channels.random_cptp(2, 3, seed=11)
    b = channels.random_cptp(2, 3, seed=11)
    for ka, kb in zip(a.kraus_ops, b.kraus_ops):
        assert np.array_equal(ka, kb)
    assert a.to_ptm().is_cp()
    with pytest.raises(ValueError):
        channels.random_cptp(2, 5, seed=0)


def test_noise_from_config_and_csv(tmp_path):
    doc = {"model": "noise1", "p": 0.05, "q": 0.5}
    l = channels.noise_from_config(doc)
    assert np.abs(l.matrix - channels.noise1_model(0.05, 0.5).matrix).max() < 1e-15
    with pytest.raises(ValueError):
        channels.noise_from_config({"model": "bogus"})
    path = tmp_path / "ptm.csv"
    channels.ptm_to_csv(l, str(path))
    back = np.loadtxt(str(path), delimiter=",")
    assert np.abs(back - l.matrix).max() < 1e-15


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 4]), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_kraus_config_roundtrip(d, data, seed):
    # a random CPTP map written as a Kraus noise config gives the same PTM
    # bytes as its Kraus operators
    k = channels.random_cptp(d, data.draw(st.integers(1, d * d), label="rank"), seed)
    doc = {"model": "kraus",
           "ops": [[[[z.real, z.imag] for z in row] for row in op] for op in k.kraus_ops]}
    l = channels.noise_from_config(json.loads(json.dumps(doc)))
    assert l.matrix.tobytes() == channels.ptm_from_kraus(k).matrix.tobytes()
