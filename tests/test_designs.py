"""Ensemble containers, exact design constructions, and moment verification."""

import numpy as np
import pytest

from exactrb import designs, haar, numerics, zonal


def test_explicit_ensemble_rejects_non_unitary():
    bad = np.array([[[1.0, 0.0], [0.0, 2.0]]], dtype=complex)
    with pytest.raises(ValueError):
        designs.UnitaryEnsemble(d=2, kind="explicit", elements=bad)


def test_ensemble_sample_shape_and_unitarity(rng):
    e = designs.icosahedral_group()
    us = e.sample(rng, 25)
    assert us.shape == (25, 2, 2)
    dev = np.abs(np.einsum("nij,nik->njk", us.conj(), us) - np.eye(2)).max()
    assert dev < 1e-12


def test_dedup_mod_phase(rng):
    u = numerics.haar_unitary(2, rng)
    stack = np.array([u, np.exp(0.7j) * u, -u, numerics.haar_unitary(2, rng)])
    e = designs.UnitaryEnsemble(d=2, kind="explicit", elements=stack)
    deduped = e.dedup()
    assert deduped.size == 2
    assert deduped.dedup().size == 2


def test_w1_sizes_and_strongness():
    for t in (1, 2, 3, 4):
        e = designs.w1(t)
        assert e.d == 1
        assert e.size == t + 1
        report = designs.verify_strong_design(e, t, tol=1e-14,
                                              frame_potential_mode="skip")
        assert report.passed
    # t+1 roots of unity are NOT a strong (t+1)-design: the (t+1, 0) moment
    # survives.
    report = designs.verify_strong_design(designs.w1(2), 3, tol=1e-10,
                                          frame_potential_mode="skip")
    assert not report.passed


def test_direct_sum_ensemble():
    a = designs.w1(1)
    b = designs.w1(2)
    s = designs.direct_sum_ensemble(a, b)
    assert s.d == 2
    assert s.size == a.size * b.size
    assert np.abs(s.elements[:, 0, 1]).max() < 1e-15
    assert np.abs(s.elements[:, 1, 0]).max() < 1e-15


def test_rotation_unitary():
    u = designs.rotation_unitary([0.3], 1, 2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.abs(u - numerics.matexp(0.3j * x)).max() < 1e-13
    v = designs.rotation_unitary([0.2, 0.5], 2, 5)
    assert np.abs(v @ v.conj().T - np.eye(5)).max() < 1e-13
    assert abs(v[4, 4] - 1.0) < 1e-15
    with pytest.raises(ValueError):
        designs.rotation_unitary([0.1], 1, 1)


def test_qudit_design_smallest_cell():
    e = designs.build_qudit_design(2, 1)
    report = designs.verify_strong_design(e, 1, tol=1e-12,
                                          frame_potential_mode="skip")
    assert report.passed
    assert report.mode == "exact"


def test_qudit_design_cap_falls_back_to_product():
    e = designs.build_qudit_design(2, 3, cap=100)
    assert e.kind == "product"
    rng = np.random.default_rng(3)
    us = e.sample(rng, 5)
    for u in us:
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_icosahedral_group_basics():
    e = designs.icosahedral_group()
    assert e.d == 2
    assert e.size == 60
    # Projective closure: every product matches a stored element up to phase.
    rng = np.random.default_rng(0)
    idx = rng.integers(60, size=(20, 2))
    keys = {designs._round_key(designs._canonical_phase(u)) for u in e.elements}
    for i, j in idx:
        prod = designs._canonical_phase(e.elements[i] @ e.elements[j])
        assert designs._round_key(prod) in keys


def test_icosahedral_is_two_design():
    e = designs.icosahedral_group()
    report = designs.verify_strong_design(e, 2, tol=1e-10, strong=False)
    assert report.passed
    assert abs(report.frame_potential - 2.0) < 1e-10


def test_clifford_group_sizes():
    c1 = designs.clifford_group(1)
    assert c1.size == 24
    report = designs.verify_strong_design(c1, 3, tol=1e-10, strong=False,
                                          frame_potential_mode="skip")
    assert report.passed


def test_clifford_one_qubit_is_not_four_design():
    c1 = designs.clifford_group(1)
    fp, _ = designs.frame_potential(c1, 4)
    assert fp > haar.haar_frame_potential(2, 4) + 0.5


def test_uc_unitary_is_unitary():
    u = designs.uc_unitary()
    assert u.shape == (4, 4)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-10


def test_frame_potential_modes_agree(rng):
    e = designs.icosahedral_group()
    exact, _ = designs.frame_potential(e, 2, mode="exact-pairs")
    mc, se = designs.frame_potential(e, 2, mode="mc", seed=9, samples=20000)
    assert abs(mc - exact) < 4 * se


def test_frame_potential_reduced_mode_matches_pairs():
    # With the identity in the middle, the three-layer reduction collapses
    # to the plain pair sum of the outer ensemble.
    e = designs.icosahedral_group()
    prod = designs.UnitaryEnsemble(
        d=2, kind="product",
        layers=(designs.EnsembleLayer(e),
                designs.FixedLayer(np.eye(2, dtype=complex)),
                designs.EnsembleLayer(e)))
    red, _ = designs.frame_potential(prod, 4, mode="interleaved-reduced")
    pairs, _ = designs.frame_potential(e, 4, mode="exact-pairs")
    assert abs(red - pairs) < 1e-9


def test_frame_potential_reduced_mode_rejects_wrong_shape():
    e = designs.icosahedral_group()
    with pytest.raises(ValueError):
        designs.frame_potential(e, 4, mode="interleaved-reduced")


def test_verify_product_requires_samples():
    e = designs.UnitaryEnsemble(
        d=2, kind="product",
        layers=(designs.EnsembleLayer(designs.icosahedral_group()),))
    with pytest.raises(ValueError):
        designs.verify_strong_design(e, 1)
    report = designs.verify_strong_design(e, 1, mc_samples=4000, strong=False,
                                          seed=2, frame_potential_mode="skip")
    assert report.mode == "mc"
    assert report.stderrs is not None
    assert report.passed


def test_verify_refuses_moments_over_budget(monkeypatch):
    # d = 2, t = 4 over 60 elements needs 16 (256^2 + 60 * 2 * 256) bytes,
    # its Haar projector alone 16 * 256^2; under a 1 MB budget t = 3 still
    # runs and t = 4 is refused before any moment is built.
    monkeypatch.setattr(haar, "MOMENT_BYTES", 10 ** 6)
    e = designs.icosahedral_group()
    assert designs.verify_strong_design(e, 3, strong=False,
                                        frame_potential_mode="skip").passed
    monkeypatch.setattr(haar, "mixed_moment",
                        lambda *a, **k: pytest.fail("a moment was built"))
    with pytest.raises(ValueError, match="d = 2, t = 4 needs 1,540,096 bytes"):
        designs.verify_strong_design(e, 4, strong=False)
    with pytest.raises(ValueError, match="d = 2, t = 4"):
        haar.haar_moment_projector(2, 4)


def test_report_json_keys():
    report = designs.verify_strong_design(designs.w1(2), 2, tol=1e-14)
    doc = report.to_json_dict()
    assert doc["passed"] is True
    assert "0,0" in doc["residuals"]
    assert doc["frame_potential"] is not None


def test_design_file_roundtrip(tmp_path):
    e = designs.icosahedral_group()
    path = tmp_path / "ico.json"
    designs.save_design(e, str(path), extra={"note": "roundtrip"})
    back = designs.load_design(str(path))
    assert back.kind == "explicit"
    assert np.abs(back.elements - e.elements).max() < 1e-15


def test_design_file_roundtrip_product(tmp_path):
    e = designs.UnitaryEnsemble(
        d=2, kind="product",
        layers=(designs.EnsembleLayer(designs.w1(1)),
                designs.FixedLayer(np.eye(2, dtype=complex))))
    # d mismatch between layer (1) and ensemble (2) is fine for the format
    # test; sampling is not exercised here.
    path = tmp_path / "prod.json"
    designs.save_design(e, str(path))
    back = designs.load_design(str(path))
    assert back.kind == "product"
    assert len(back.layers) == 2


def test_load_design_rejects_other_files(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"hello": 1}\n')
    with pytest.raises(ValueError):
        designs.load_design(str(path))


def test_circuit_descriptor_base_case():
    desc = designs.build_qubit_circuit_descriptor(1, 2)
    assert desc.n_qubits == 1
    assert desc.n_design_layers == 1
    e = desc.to_ensemble()
    report = designs.verify_strong_design(e, 2, tol=1e-10,
                                          frame_potential_mode="skip")
    assert report.passed


def test_circuit_descriptor_missing_tables():
    with pytest.raises(ValueError, match="angle tables"):
        designs.build_qubit_circuit_descriptor(2, 2)


def test_circuit_descriptor_with_tables():
    # Labels for the 2-qubit level at t=1: just (1,), table of 2 angles.
    labels = zonal.enumerate_sph_labels(2, 4, 1)
    assert [l.positive_part for l in labels] == [(1,)]
    tables = {(2, (1,)): np.array([0.1, 0.2])}
    desc = designs.build_qubit_circuit_descriptor(2, 1, tables)
    assert desc.n_qubits == 2
    assert desc.n_design_layers == 2
    e = desc.to_ensemble()
    assert e.kind == "product"
    u = e.sample(np.random.default_rng(1), 8)
    dev = np.abs(np.einsum("nij,nik->njk", u.conj(), u) - np.eye(4)).max()
    assert dev < 1e-10
