"""Sequence simulation, exact decay curves, fitting, and metric pipelines."""

import functools
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactrb import channels, designs, irreps, numerics, paulis, rb

Z = paulis.Z
P0 = np.array([[1, 0], [0, 0]], dtype=complex)


def ico():
    return designs.icosahedral_group()


def base_config(**kw):
    args = dict(design=ico(), noise=channels.noise1_model(0.02, 0.98),
                t_order=2, sequence_lengths=(1, 2, 4), n_sequences=10,
                n_shots=0, seed=7, o_ini=Z, o_meas=P0)
    args.update(kw)
    return rb.RBConfig(**args)


# ---------------------------------------------------------------------------
# configuration and containers


def test_spam_model_accessors():
    s = rb.SPAMModel(eta_prep=0.05, eta_meas=0.1)
    assert s.meas_pair() == (0.1, 0.1)
    asym = rb.SPAMModel(eta_meas=(0.1, 0.3))
    assert asym.meas_pair() == (0.1, 0.3)
    assert np.allclose(s.prep_matrix(), np.diag([1, 1, 0.9, 0.9]))
    r = asym.readout_matrix()
    assert np.allclose(r.sum(axis=0), 1.0)
    assert np.allclose(r, [[0.9, 0.3], [0.1, 0.7]])
    with pytest.raises(ValueError):
        rb.SPAMModel(eta_prep=1.5)


def test_config_validation():
    base_config()
    with pytest.raises(ValueError):
        base_config(t_order=3)
    with pytest.raises(ValueError):
        base_config(sequence_lengths=(2, 1))
    with pytest.raises(ValueError):
        base_config(sequence_lengths=(1, 1, 2))
    with pytest.raises(ValueError):
        base_config(n_sequences=1)
    with pytest.raises(ValueError):
        base_config(n_shots=-1)
    with pytest.raises(ValueError):
        base_config(o_meas=np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        base_config(o_ini=P0)  # traced initial operator at t = 2
    base_config(t_order=1, o_ini=P0)
    with pytest.raises(ValueError):
        base_config(noise=channels.noise2_model(0.01, 0.5))


def test_config_verify_design_flag():
    base_config(t_order=2, verify_design=True)
    with pytest.raises(ValueError):
        base_config(design=designs.clifford_group(1), t_order=2,
                    verify_design=True)


def test_config_verify_design_over_budget():
    # certifying a two-qubit design at t = 4 needs a 65536^2 moment: refused
    # at once, whatever the design's size
    one = designs.UnitaryEnsemble(d=4, kind="explicit",
                                  elements=np.eye(4, dtype=complex)[None])
    zz = np.kron(Z, Z)
    with pytest.raises(ValueError, match="d = 4, t = 4 needs"):
        base_config(design=one, noise=channels.noise2_model(0.01, 0.5),
                    o_ini=zz, o_meas=zz, verify_design=True)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(ms=st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=12, unique=True),
       data=st.data(), digest=st.none() | st.text("0123456789abcdef", min_size=64,
                                                    max_size=64))
def test_decay_curve_roundtrip(tmp_path_factory, ms, data, digest):
    # any curve survives to_csv/from_csv exactly, with or without the
    # manifest line, and is written with LF line ends only
    pts = tuple((m, data.draw(FINITE), data.draw(FINITE.map(abs)),
                 data.draw(st.integers(0, 10 ** 6)), data.draw(st.integers(0, 10 ** 6)))
                for m in sorted(ms))
    curve = rb.DecayCurve(points=pts)
    path = tmp_path_factory.mktemp("curve") / "curve.csv"
    curve.to_csv(str(path), manifest_digest=digest)
    blob = path.read_bytes()
    assert b"\r" not in blob
    first = blob.split(b"\n", 1)[0].decode()
    assert first == ("m,V,stderr,n_sequences,n_shots" if digest is None
                     else "# manifest: " + digest)
    assert rb.DecayCurve.from_csv(str(path)).points == curve.points


def test_decay_curve_rejects_unsorted_lengths():
    with pytest.raises(ValueError):
        rb.DecayCurve(points=((2, 0.5, 0.01, 5, 0), (1, 0.6, 0.01, 5, 0)))


# ---------------------------------------------------------------------------
# exact curves against brute force


def ptms(us):
    """Real Pauli transfer matrices of a stack of unitaries."""
    return channels.transfer_matrices(us).real


def brute_force_v(noise, o_ini, o_meas, m, t):
    """Average of <O>^t over every sequence of the icosahedral design."""
    e = ico()
    ls = ptms(e.elements)
    iv = paulis.to_basis_vec(o_ini).real
    ov = paulis.to_basis_vec(o_meas).real
    le = noise.matrix
    idx_sets = [(i,) for i in range(60)] if m == 1 else \
        [(i, j) for i in range(60) for j in range(60)]
    total = 0.0
    for idx in idx_sets:
        state = iv.copy()
        prod = np.eye(2, dtype=complex)
        for i in idx:
            state = le @ (ls[i] @ state)
            prod = e.elements[i] @ prod
        linv = ptms(prod.conj().T[None])[0]
        state = le @ (linv @ state)
        total += float(ov @ state) ** t
    return total / len(idx_sets)


def test_v1_exact_matches_brute_force():
    noise = channels.random_cptp(2, 3, seed=5).to_ptm()
    curve = rb.v1_exact(noise, Z, P0, [1, 2])
    for m, t in ((1, 1), (2, 1)):
        want = brute_force_v(noise, Z, P0, m, 1)
        got = curve.values[m - 1]
        assert abs(got - want) < 1e-13


def test_v2_exact_matches_brute_force():
    noise = channels.random_cptp(2, 3, seed=5).to_ptm()
    p1 = irreps.projector_set(1)
    curve = rb.v2_exact(noise, Z, P0, [1, 2], p1)
    for m in (1, 2):
        want = brute_force_v(noise, Z, P0, m, 2)
        got = curve.values[m - 1]
        assert abs(got - want) < 1e-13


def test_v2_exact_idealized_boundary():
    # With the bare measurement boundary the curve is a rational
    # combination of the tabulated coefficients and the exact rates.
    noise = channels.noise1_model(0.02, 0.98)
    p1 = irreps.projector_set(1)
    curve = rb.v2_exact(noise, Z, P0, [1, 3], p1, noisy_inverse=False)
    a = irreps.coefficients(Z, P0, channels.identity_ptm(1), p1)
    c = irreps.decay_rates(noise, p1)
    for m, v in zip((1, 3), curve.values):
        want = a["0"] * c["0"] ** m + a["I"] * c["I"] ** m
        assert abs(v - want) < 1e-15


def test_v1_approx_design_limits():
    noise = channels.noise1_model(0.05, 0.5)
    pert = np.zeros((4, 4))
    pert[3, 3] = 1.0
    exact = rb.v1_exact(noise, Z, P0, [1, 2, 5])
    approx0 = rb.v1_approx_design(noise, Z, P0, [1, 2, 5], pert, 0.0)
    assert np.abs(exact.values - approx0.values).max() < 1e-14
    approx = rb.v1_approx_design(noise, Z, P0, [1, 2, 5], pert, 1e-3)
    assert np.abs(approx.values - exact.values).max() < 0.01
    assert np.abs(approx.values - exact.values).max() > 0.0


# ---------------------------------------------------------------------------
# Monte Carlo estimator


def test_monte_carlo_identity_noise():
    cfg = base_config(noise=channels.identity_ptm(1), t_order=1,
                      o_ini=P0, o_meas=P0, sequence_lengths=(1, 3))
    curve = rb.v_t_monte_carlo(cfg)
    assert np.abs(curve.values - 1.0).max() < 1e-12
    assert np.all(curve.stderrs == 0.0)


def test_monte_carlo_reproducible():
    cfg = base_config(n_sequences=20)
    a = rb.v_t_monte_carlo(cfg)
    b = rb.v_t_monte_carlo(cfg)
    assert a.points == b.points


def test_monte_carlo_per_length_streams():
    # Each (m, i) pair has its own stream: dropping a length does not
    # change the values at the remaining lengths.
    full = rb.v_t_monte_carlo(base_config(sequence_lengths=(1, 2, 4)))
    part = rb.v_t_monte_carlo(base_config(sequence_lengths=(2,)))
    assert full.points[1] == part.points[0]
    # so does a length that takes the group's M table (20 m >= 60 at m = 4)
    full = rb.v_t_monte_carlo(base_config(n_sequences=20, sequence_lengths=(1, 2, 4)))
    part = rb.v_t_monte_carlo(base_config(n_sequences=20, sequence_lengths=(4,)))
    assert full.points[2] == part.points[0]


def test_monte_carlo_matches_exact_within_error():
    noise = channels.noise1_model(0.05, 0.5)
    cfg = base_config(noise=noise, n_sequences=600,
                      sequence_lengths=(1, 4, 10), seed=21)
    curve = rb.v_t_monte_carlo(cfg)
    exact = rb.v2_exact(noise, Z, P0, (1, 4, 10), irreps.projector_set(1))
    for got, se, want in zip(curve.values, curve.stderrs, exact.values):
        assert abs(got - want) < 4 * se


def test_monte_carlo_shots_consistent():
    noise = channels.noise1_model(0.05, 0.5)
    cfg = base_config(noise=noise, n_sequences=400, n_shots=64,
                      sequence_lengths=(2,), seed=33)
    curve = rb.v_t_monte_carlo(cfg)
    exact = rb.v2_exact(noise, Z, P0, (2,), irreps.projector_set(1))
    # Finite shots bias E[<O>^2] upward by Var/n_shots; with 64 shots the
    # shift is visible but bounded by the binomial variance bound 1/64.
    assert curve.values[0] >= exact.values[0] - 4 * curve.stderrs[0]
    assert curve.values[0] <= exact.values[0] + 1.0 / 64 + 4 * curve.stderrs[0]


def test_spam_damping_exact():
    spam = rb.SPAMModel(eta_prep=0.1, eta_meas=0.1)
    cfg = base_config(noise=channels.identity_ptm(1), t_order=1,
                      o_ini=Z, o_meas=P0, spam=spam,
                      sequence_lengths=(1, 5), n_sequences=5)
    curve = rb.v_t_monte_carlo(cfg)
    # Identity noise: every sequence returns (1-2*eta_p)(1-2*eta_m) * ideal,
    # with ideal tr(P0 Z) = 1; the jackknife spread is exactly zero.
    assert np.abs(curve.values - 0.64).max() < 1e-12
    assert curve.stderrs.max() < 1e-12


def test_spam_leaves_rates_alone():
    noise = channels.noise1_model(0.05, 0.5)
    p1 = irreps.projector_set(1)
    want = rb.v2_exact(noise, Z, P0, (1, 3, 6), p1).values
    spam = rb.SPAMModel(eta_prep=0.2, eta_meas=(0.1, 0.25))
    cfg = base_config(noise=noise, spam=spam, n_sequences=500,
                      sequence_lengths=(1, 3, 6), seed=9)
    got = rb.v_t_monte_carlo(cfg)
    # SPAM rescales amplitudes, so ratios of shifted differences keep the
    # rate content; crude check: the curve still decays monotonically and
    # stays below the SPAM-free one.
    assert np.all(np.diff(got.values) < 0)
    assert np.all(got.values < want + 4 * got.stderrs)


def test_non_cp_noise_fails_fast():
    # Trace preserving but not completely positive: the unital block 1.5 I
    # stretches Bloch vectors, so the very first sequence ends with a
    # negative outcome probability instead of being clipped in silence.
    noise = channels.PTM(q=1, matrix=np.diag([1.0, 1.5, 1.5, 1.5]))
    cfg = base_config(noise=noise, t_order=1, sequence_lengths=(1, 2))
    with pytest.raises(ValueError,
                       match="m = 1, sequence 0: the noise is not completely positive"):
        rb.v_t_monte_carlo(cfg)


# ---------------------------------------------------------------------------
# the batched engine against a per-sequence reference


def sequence_gates(config, m, rng, group):
    """A sequence's m gates; with group, the drawn elements are the running
    products h_k = g_k ... g_1 of a group design, as the engine's M table
    reads them, and the physical gates g_k = h_k h_(k-1)^dag are returned."""
    us = config.design.sample(rng, m)
    if group:
        prev = np.concatenate([np.eye(config.design.d, dtype=complex)[None], us[:-1]])
        us = us @ prev.conj().transpose(0, 2, 1)
    return us


def measure(config, rt, state, rng):
    """A sequence's value from its final Pauli coordinates (d^2, n_prep)."""
    probs = rt.outcome_projs @ state
    if rt.readout is not None:
        probs = rt.readout @ probs
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum(axis=0, keepdims=True)
    if config.n_shots == 0:
        means = rt.outcome_values @ probs
    else:
        means = np.empty(probs.shape[1])
        for j in range(probs.shape[1]):
            counts = rng.multinomial(config.n_shots, probs[:, j])
            means[j] = (rt.outcome_values @ counts) / config.n_shots
    return float((means * rt.prep_weights).sum())


def conjugate(rho, gh):
    """g rho g^dag of one sequence's states (n_prep, d, d), given g^dag, as
    (rho g^dag)^dag g^dag."""
    p, d, _ = rho.shape
    z = (rho.reshape(p * d, d) @ gh).reshape(p, d, d)
    return (z.conj().transpose(0, 2, 1).reshape(p * d, d) @ gh).reshape(p, d, d)


def reference_sequence(config, m, rng, rt, group=False):
    """One sequence, gate by gate: the engine's density-matrix arithmetic
    without batching."""
    us = sequence_gates(config, m, rng, group)
    d, p = config.design.d, len(rt.prep_weights)
    rho = rt.prep_rhos
    prod = us[0]
    for i in range(m):
        if i:
            prod = us[i] @ prod
        rho = conjugate(rho, us[i].conj().T)
        rho = (rho.reshape(p, d * d) @ rt.noise_super_t).reshape(p, d, d)
    rho = conjugate(rho, prod)
    state = rt.noise_mat @ (rho.reshape(p, d * d) @ rt.to_pauli).real.T
    return measure(config, rt, state, rng)


def ptm_sequence(config, m, rng, rt, group=False):
    """One sequence propagated in Pauli coordinates, one real transfer
    matrix per gate and one for the inverse: an arithmetic of its own, equal
    to the engine's at rounding level."""
    us = sequence_gates(config, m, rng, group)
    ls = ptms(us)
    prod = us[0]
    for i in range(1, m):
        prod = us[i] @ prod
    linv = ptms(prod.conj().T[None, :, :])[0]
    state = rt.prep_vecs.copy()
    for i in range(m):
        state = rt.noise_mat @ (ls[i] @ state)
    state = rt.noise_mat @ (linv @ state)
    return measure(config, rt, state, rng)


def reference_v_t(config, group_lengths=(), sequence=reference_sequence):
    """V^(t)(m) from one Philox stream per (seed, m, i), one sequence at a
    time; the lengths in group_lengths read the draws as running products."""
    rt = rb._Runtime(config)
    pts = []
    for m in config.sequence_lengths:
        vals = np.empty(config.n_sequences)
        for i in range(config.n_sequences):
            ss = np.random.SeedSequence((config.seed, m, i))
            rng = np.random.Generator(np.random.Philox(ss))
            vals[i] = sequence(config, m, rng, rt, m in group_lengths)
        powered = vals ** config.t_order
        pts.append((m, powered.mean(), rb._jackknife_stderr(powered),
                    config.n_sequences, config.n_shots))
    return rb.DecayCurve(points=tuple(pts))


def assert_rounding_level(got, want):
    """Equal m, n_sequences and n_shots columns; values and stderrs within
    1e-12."""
    assert [p[::3] + p[4:] for p in got.points] == [p[::3] + p[4:] for p in want.points]
    assert np.abs(got.values - want.values).max() <= 1e-12
    assert np.abs(got.stderrs - want.stderrs).max() <= 1e-12


@functools.cache
def engine_design(name):
    if name == "icosahedral":
        return ico()
    if name == "icosahedral59":
        # not a group: the physical path at any budget
        return designs.UnitaryEnsemble(d=2, kind="explicit", elements=ico().elements[:59])
    if name == "clifford1":
        return designs.clifford_group(1)
    if name == "interleaved2q":
        return designs.interleaved_clifford_design()
    if name == "qudit4":
        # a product whose layers act on blocks of sides 1 and 3
        return designs.build_qudit_design(4, 2)
    c, s = np.cos(0.3), np.sin(0.3)
    return designs.UnitaryEnsemble(d=2, kind="product", layers=(
        designs.EnsembleLayer(ico()),
        designs.FixedLayer(np.array([[c, -s], [s, c]], dtype=complex)),
        designs.EnsembleLayer(designs.clifford_group(1))))


def test_engine_bit_identical_long_sequences():
    # Single-eigenstate preparations take numpy's matrix-vector product,
    # where a change of operand layout (BLAS against numpy's own loop)
    # moves the last bit of some of these values.  The group's M table,
    # taken where 13 m draws reach its 60 elements, agrees with its
    # physical gates at rounding level.
    cfg = base_config(noise=channels.random_cptp(2, 3, seed=1).to_ptm(),
                      t_order=1, o_ini=P0, o_meas=P0, n_sequences=13,
                      sequence_lengths=(2, 5, 30, 120), seed=1,
                      spam=rb.SPAMModel(eta_prep=0.1, eta_meas=(0.05, 0.2)))
    sub = replace(cfg, design=engine_design("icosahedral59"))
    assert rb.v_t_monte_carlo(sub).points == reference_v_t(sub).points
    got = rb.v_t_monte_carlo(cfg)
    assert got.points[0] == reference_v_t(cfg).points[0]
    assert_rounding_level(got, reference_v_t(cfg, group_lengths=(5, 30, 120)))


def test_explicit_design_without_table():
    # A length takes a group's M table only when the table fits the byte
    # budget and the length draws at least as many gates as the group has
    # elements (6 m >= 60 here); otherwise it takes the per-block physical
    # path, which draws the same indices.
    cfg = base_config(noise=channels.random_cptp(2, 3, seed=2).to_ptm(),
                      t_order=2, n_sequences=6, sequence_lengths=(1, 10, 25),
                      n_shots=50, seed=3)
    size = cfg.design.size
    assert rb._Runtime(cfg).table_for(size) is not None
    assert rb._Runtime(cfg).table_for(size - 1) is None
    with_table = rb.v_t_monte_carlo(cfg)
    table_bytes = size * 8 * cfg.design.d ** 4
    with mock.patch.object(rb, "BLOCK_BYTES", table_bytes):
        assert rb._Runtime(cfg).table_for(size) is not None
    with mock.patch.object(rb, "BLOCK_BYTES", table_bytes - 1):
        assert rb._Runtime(cfg).table_for(10 ** 9) is None
        without = rb.v_t_monte_carlo(cfg)
    physical = reference_v_t(cfg)
    assert without.points == physical.points
    assert with_table.points[0] == physical.points[0]
    assert_rounding_level(with_table, reference_v_t(cfg, group_lengths=(10, 25)))


@pytest.mark.parametrize("change", [
    lambda e: e[:59],
    lambda e: np.concatenate(
        [e[:17], numerics.haar_unitaries(2, 1, np.random.default_rng(0)), e[18:]]),
], ids=["subset59", "haar_swapped"])
def test_non_group_takes_physical_path(change):
    design = designs.UnitaryEnsemble(d=2, kind="explicit", elements=change(ico().elements))
    cfg = base_config(design=design, noise=channels.random_cptp(2, 2, seed=4).to_ptm(),
                      n_sequences=12, sequence_lengths=(1, 6, 20), n_shots=30, seed=5,
                      spam=rb.SPAMModel(eta_prep=0.05, eta_meas=0.02))
    assert rb._Runtime(cfg).table_for(10 ** 9) is None
    assert rb.v_t_monte_carlo(cfg).points == reference_v_t(cfg).points


def test_group_check_runs_once_per_design():
    # C2's M table (23.6 MB) fits the budget; its 94 MB of complex PTMs
    # never did.  The second run on the same object reuses the check.
    c2 = designs.clifford_group(2)
    zz = np.kron(Z, Z)
    cfg = base_config(design=c2, noise=channels.noise2_model(0.02, 0.9), t_order=1,
                      o_ini=paulis.named_operator("P00"), o_meas=zz,
                      n_sequences=192, sequence_lengths=(60,))
    with mock.patch.object(designs, "_closure", wraps=designs._closure) as closure:
        assert rb._Runtime(cfg).table_for(c2.size) is not None
        assert closure.call_count > 0
        closure.reset_mock()
        first = rb.v_t_monte_carlo(cfg)
        assert rb.v_t_monte_carlo(cfg).points == first.points
        assert closure.call_count == 0


@pytest.mark.parametrize("name", ["icosahedral", "clifford1"])
def test_m_table_averages_to_the_twirled_noise(name):
    # over a 2-design, the mean of L_h^T N L_h is the Haar twirl of N
    noise = channels.random_cptp(2, 3, seed=11).to_ptm().matrix
    f = (np.trace(noise) - 1.0) / 3.0
    mean = rb._m_table(engine_design(name), noise).mean(axis=0)
    assert np.abs(mean - np.diag([1.0, f, f, f])).max() <= 1e-13


def test_m_table_peak_within_budget():
    # the table plus one chunk's transfer matrices (32 d^4 bytes per element,
    # as in test_ptm_kernel_peak_within_block_count) and its conjugated stack
    c2 = designs.clifford_group(2)
    d = c2.d
    noise = channels.noise2_model(0.02, 0.9).matrix
    rb._m_table(designs.UnitaryEnsemble(d=d, kind="explicit", elements=c2.elements[:1]),
                noise)
    tracemalloc.start()
    try:
        table = rb._m_table(c2, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == c2.size * 8 * d ** 4 <= rb.BLOCK_BYTES
    assert peak <= rb.BLOCK_BYTES + 32 * d ** 4 + 8192


def einsum_ptms(us, q):
    """The two-einsum PTM kernel that channels.transfer_matrices replaced,
    kept verbatim as a reference."""
    basis = paulis.pauli_basis(q)
    t1 = np.einsum("uab,nbc,udc->unad", us, basis, us.conj())
    return np.einsum("mda,unad->umn", basis, t1)


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([1, 2]), n=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_ptm_kernel_guard(q, n, seed, data):
    # The M table's bits do not depend on its chunking by the last
    # property: each chunk's PTMs are computed in a stack of their own.
    d = 2 ** q
    us = numerics.haar_unitaries(d, n, np.random.default_rng(seed))
    got = channels.transfer_matrices(us)
    assert np.abs(got.imag).max() <= 1e-14
    ls = got.real
    e0 = np.eye(d * d)[0]
    assert np.abs(ls @ ls.transpose(0, 2, 1) - np.eye(d * d)).max() <= 1e-14
    assert np.abs(ls[:, 0, :] - e0).max() <= 1e-14
    assert np.abs(ls[:, :, 0] - e0).max() <= 1e-14
    assert np.abs(got - einsum_ptms(us, q)).max() <= 1e-14
    i = data.draw(st.integers(0, n - 1), label="position")
    assert channels.transfer_matrices(us[i:i + 1])[0].tobytes() == got[i].tobytes()


@pytest.mark.parametrize("n", [1, 24, 500])
def test_ptm_kernel_peak_within_block_count(n):
    # _m_table counts 32 d^4 bytes per PTM: the kernel's two live PTM-sized
    # arrays.  Besides them it holds the conjugated stack, the broadcast
    # product's buffers (capped at one PTM's worth per operand) and a few kB
    # of numpy bookkeeping.
    d = 4
    us = numerics.haar_unitaries(d, n, np.random.default_rng(n))
    channels.transfer_matrices(us[:1])
    tracemalloc.start()
    try:
        channels.transfer_matrices(us)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * d ** 4 * n + 16 * d ** 2 * n + 32 * d ** 4 + 8192


def layered_sample(e, rng, n):
    """The per-layer draw that designs.sample_streams replaced, kept as a
    reference: one call per layer, each drawing its n indices."""
    if e.kind == "explicit":
        return e.elements[rng.integers(e.size, size=n)]
    out = np.broadcast_to(np.eye(e.d, dtype=complex), (n, e.d, e.d)).copy()
    for layer in e.layers:
        if isinstance(layer, designs.FixedLayer):
            k = layer.matrix.shape[0]
            block = slice(layer.offset, layer.offset + k)
            out[:, :, block] = out[:, :, block] @ layer.matrix
            continue
        k = layer.ensemble.d
        block = slice(layer.offset, layer.offset + k)
        draw = layered_sample(layer.ensemble, rng, n)
        if k == e.d:
            out = np.einsum("nab,nbc->nac", out, draw)
        else:
            rows = np.ascontiguousarray(out[:, :, block].transpose(0, 2, 1))
            out[:, :, block] = np.einsum("nba,nbc->nca", rows, draw).transpose(0, 2, 1)
    return out


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["interleaved2q", "product1q", "qudit4", "icosahedral59"]),
       streams=st.integers(1, 6), n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_sample_streams_slices_are_single_draws(name, streams, n, seed):
    # a stream's slice of the block holds the bits of that stream drawn
    # alone, by sample and by the per-layer loop, and leaves the stream
    # where they leave it
    design = engine_design(name)
    rngs = [rb._stream(seed, n, i) for i in range(streams)]
    got = designs.sample_streams(design, rngs, n)
    assert got.shape == (streams, n, design.d, design.d)
    for i, rng in enumerate(rngs):
        one = rb._stream(seed, n, i)
        assert design.sample(one, n).tobytes() == got[i].tobytes()
        assert layered_sample(design, rb._stream(seed, n, i), n).tobytes() == got[i].tobytes()
        assert one.integers(2 ** 62) == rng.integers(2 ** 62)


@pytest.mark.parametrize("name", ["interleaved2q", "qudit4", "icosahedral59"])
@pytest.mark.parametrize("m", [5, 48])
def test_physical_block_within_counted_bytes(name, m):
    # one block of the physical path holds at most what _block_size counts
    # per sequence: the sampled stack and the density matrices
    design = engine_design(name)
    op = np.kron(Z, Z) if design.d == 4 else Z
    cfg = base_config(design=design, noise=channels.random_cptp(design.d, 2, seed=3).to_ptm(),
                      o_ini=op, o_meas=op, n_sequences=1000, sequence_lengths=(m,))
    budget = 2 ** 20
    with mock.patch.object(rb, "BLOCK_BYTES", budget):
        rt = rb._Runtime(cfg)
        size = rb._block_size(rt, m, cfg.n_sequences, False)
        rb._run_block(cfg, rt, None, m, [rb._stream(cfg.seed, m, 0)], 0)
        rngs = [rb._stream(cfg.seed, m, i) for i in range(size)]
        tracemalloc.start()
        try:
            rb._run_block(cfg, rt, None, m, rngs, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert 1 < size < cfg.n_sequences
    assert peak <= size * (m * rt.gate_bytes + rt.state_bytes) <= budget


def test_zz_curve_independent_of_block_size():
    # ZZ prepares four eigenstates, whose values are summed in a fixed
    # order: a block of 13 sequences gives the bits of 13 blocks of one
    zz = np.kron(Z, Z)
    cfg = base_config(design=engine_design("interleaved2q"),
                      noise=channels.noise2_model(0.02, 0.9), o_ini=zz, o_meas=zz,
                      n_sequences=13, sequence_lengths=tuple(range(1, 41)), seed=0)
    whole = rb.v_t_monte_carlo(cfg)
    with mock.patch.object(rb, "BLOCK_BYTES", 1):
        assert rb.v_t_monte_carlo(cfg).points == whole.points


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_engine_matches_reference(data):
    name = data.draw(st.sampled_from(
        ["icosahedral", "icosahedral59", "clifford1", "product1q", "interleaved2q"]),
        label="design")
    design = engine_design(name)
    one_qubit = design.d == 2
    t_order = data.draw(st.sampled_from([1, 2]), label="t_order")
    # second order needs a traceless o_ini: a pair of eigenstates
    two_states = t_order == 2 or data.draw(st.booleans(), label="two_states")
    if one_qubit:
        o_ini = Z if two_states else P0
        o_meas = data.draw(st.sampled_from([P0, Z]), label="o_meas")
    else:
        # ZZ has four eigenstates, rho_minus two
        o_ini = paulis.named_operator(data.draw(
            st.sampled_from(["rho_minus", "ZZ"]), label="o_ini") if two_states else "P00")
        o_meas = paulis.named_operator(data.draw(
            st.sampled_from(["P00", "ZZ"]), label="o_meas"))
    spam = None
    if one_qubit and data.draw(st.booleans(), label="spam"):
        spam = rb.SPAMModel(eta_prep=0.05, eta_meas=(0.02, 0.1))
    lengths = data.draw(st.sets(st.integers(1, 30 if one_qubit else 8),
                                min_size=1, max_size=3), label="lengths")
    cfg = rb.RBConfig(
        design=design,
        noise=channels.random_cptp(design.d, 2, seed=data.draw(
            st.integers(0, 99), label="noise_seed")).to_ptm(),
        t_order=t_order, sequence_lengths=tuple(sorted(lengths)),
        n_sequences=data.draw(st.integers(2, 40 if one_qubit else 8), label="n"),
        n_shots=data.draw(st.one_of(st.just(0), st.integers(1, 64)), label="shots"),
        seed=data.draw(st.integers(0, 2 ** 32 - 1), label="seed"),
        o_ini=o_ini, o_meas=o_meas, spam=spam)
    # 1 byte makes every block a single sequence and leaves groups without
    # an M table (128 bytes per one-qubit element); 4 kB fits the
    # 24-element Clifford table but not the icosahedral one and splits long
    # lengths into blocks; 8 kB just fits the 60-element icosahedral table
    budget = data.draw(st.sampled_from([1, 4_000, 8_000, rb.BLOCK_BYTES]),
                       label="budget")
    n = cfg.n_sequences
    fits = (name in ("icosahedral", "clifford1")
            and design.size * 8 * design.d ** 4 <= budget)
    on_table = [m for m in cfg.sequence_lengths if fits and design.size <= n * m]
    with mock.patch.object(rb, "BLOCK_BYTES", budget):
        rt = rb._Runtime(cfg)
        assert [m for m in cfg.sequence_lengths
                if rt.table_for(n * m) is not None] == on_table
        got = rb.v_t_monte_carlo(cfg)
    want = reference_v_t(cfg, group_lengths=on_table)
    assert_rounding_level(got, want)
    # physical propagation is the reference's, bit for bit, in blocks of
    # any size
    assert ([p for p in got.points if p[0] not in on_table]
            == [p for p in want.points if p[0] not in on_table])
    # and an arithmetic of its own, in Pauli coordinates, agrees with both
    # paths at rounding level
    assert_rounding_level(got, reference_v_t(cfg, on_table, ptm_sequence))


# ---------------------------------------------------------------------------
# fitting


def synth_curve(ms, amps, rates, se=0.0):
    ms = np.asarray(ms, dtype=float)
    y = np.zeros_like(ms)
    for a, r in zip(amps, rates):
        y = y + a * r ** ms
    return rb.DecayCurve(points=tuple(
        (int(m), float(v), se, 0, 0) for m, v in zip(ms, y)))


MS = (1, 2, 3, 5, 8, 12, 17, 25, 35, 50, 70, 100, 140, 200, 280, 400)


def test_fit_single_exponential_exact():
    curve = synth_curve(MS, [0.8], [0.93])
    fit = rb.fit_exponentials(curve, 1)
    assert abs(fit.rates[0] - 0.93) < 1e-10
    assert abs(fit.amplitudes[0] - 0.8) < 1e-9
    assert fit.n_evaluations <= rb.FIT_BUDGET


def test_fit_with_pinned_rate():
    curve = synth_curve(MS, [0.3, 0.65], [1.0, 0.97])
    fit = rb.fit_exponentials(curve, 2, known_rates=[1.0])
    assert fit.rates[0] == 1.0
    assert abs(fit.rates[1] - 0.97) < 1e-9
    assert abs(fit.amplitudes[0] - 0.3) < 1e-8
    assert fit.rate_stderr(0, 1) == 0.0


def test_fit_double_exponential_exact():
    curve = synth_curve(MS, [0.2, 0.8], [0.998, 0.92])
    fit = rb.fit_exponentials(curve, 2)
    assert abs(fit.rates[0] - 0.998) < 1e-7
    assert abs(fit.rates[1] - 0.92) < 1e-7
    # Free rates come out in decreasing order.
    assert fit.rates[0] > fit.rates[1]


def test_fit_noisy_double_exponential():
    rng = np.random.default_rng(12)
    ms = np.array(MS, dtype=float)
    y = 0.2 * 0.998 ** ms + 0.8 * 0.92 ** ms + rng.normal(0.0, 1e-4, ms.size)
    curve = rb.DecayCurve(points=tuple(
        (int(m), float(v), 1e-4, 0, 0) for m, v in zip(ms, y)))
    fit = rb.fit_exponentials(curve, 2)
    assert abs(fit.rates[0] - 0.998) < 5e-4
    assert abs(fit.rates[1] - 0.92) < 5e-3
    assert fit.rate_stderr(0, 0) > 0.0


def test_fit_flags_tiny_gap():
    curve = synth_curve(MS, [0.5, 0.5], [0.95, 0.95 - 1e-6])
    fit = rb.fit_exponentials(curve, 2)
    assert "ill_conditioned" in fit.flags


def test_fit_flags_unidentifiable_term():
    # A second free term on a one-exponential curve has no amplitude, so its
    # rate is arbitrary: the rates stay far apart and the Jacobian's
    # condition number raises the flag.
    fit = rb.fit_exponentials(synth_curve(MS, [0.7], [0.93]), 2)
    assert abs(fit.rates[0] - 0.93) < 1e-9
    assert abs(fit.rates[0] - fit.rates[1]) > rb.GAP_TOL
    assert fit.flags == ("ill_conditioned",)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fit_round_trip(data):
    # Noiseless curves with 1-2 free rates in [0.5, 0.999] and 0-1 pinned
    # rates, pairwise gaps >= 0.02 and |amplitudes| >= 0.05: the fit returns
    # the rates and amplitudes it was built from, unflagged.
    n_free = data.draw(st.integers(1, 2), label="n_free")
    n_pinned = data.draw(st.integers(0, 1), label="n_pinned")
    rates = data.draw(st.lists(
        st.floats(0.5, 0.999), min_size=n_free + n_pinned,
        max_size=n_free + n_pinned).filter(
            lambda rs: all(abs(a - b) >= 0.02
                           for i, a in enumerate(rs) for b in rs[i + 1:])),
        label="rates")
    amps = [data.draw(st.floats(0.05, 1.0), label="|amplitude|")
            * data.draw(st.sampled_from([1.0, -1.0]), label="sign")
            for _ in rates]
    fit = rb.fit_exponentials(synth_curve(MS, amps, rates), len(rates),
                              known_rates=rates[:n_pinned])
    order = n_pinned + np.argsort(rates[n_pinned:])[::-1]
    idx = list(range(n_pinned)) + list(order)
    assert fit.flags == ()
    assert np.abs(np.array(fit.rates) - np.array(rates)[idx]).max() < 1e-7
    assert np.abs(np.array(fit.amplitudes) - np.array(amps)[idx]).max() < 1e-6


def test_fit_more_free_rates_than_start_grid():
    n = len(rb._START_GRID) + 1
    ms = tuple(range(1, 2 * n + 2))
    fit = rb.fit_exponentials(synth_curve(ms, [0.8], [0.9]), n)
    assert len(fit.rates) == n
    assert fit.residual_norm < 1e-6


def test_fit_requires_enough_points():
    curve = synth_curve((1, 2, 3, 4), [0.5], [0.9])
    with pytest.raises(ValueError):
        rb.fit_exponentials(curve, 2)
    with pytest.raises(ValueError):
        rb.fit_exponentials(synth_curve(MS, [0.5], [0.9]), 1,
                            known_rates=[0.5, 0.6])


# The fitter that the batched kernel replaced, kept as the reference: the 10
# best-scored grid starts, each refined by one bounded trust-region solve
# (scipy's trf) with Kaufman's Jacobian; the lowest chi^2 wins.
REFERENCE_STARTS = 10


def reference_fit(curve, n_terms, known_rates=None):
    """(rates, chi^2, flags) of the reference fitter, flagged by the rules
    of rb.fit_exponentials."""
    from scipy.optimize import least_squares

    known = np.array(known_rates or [], dtype=float)
    ms, y, se = curve.ms, curve.values, curve.stderrs
    w = 1.0 / se if np.all(se > 0) else np.ones_like(y)

    def project(x):
        xw = np.concatenate([known, x])[None, :] ** ms[:, None] * w[:, None]
        amps = np.linalg.lstsq(xw, y * w, rcond=None)[0]
        return amps, xw, xw @ amps - y * w

    def jac(x):
        amps, xw, _ = project(x)
        cols = rb._rate_derivatives(ms, w, x, amps[known.size:])
        return cols - xw @ np.linalg.lstsq(xw, cols, rcond=None)[0]

    starts = rb._start_combinations(n_terms - known.size)
    scores = [float(r @ r) for r in (project(s)[2] for s in starts)]
    sols = [least_squares(lambda x: project(x)[2], starts[i], jac=jac, bounds=(0.0, 1.0),
                          method="trf", max_nfev=rb.FIT_BUDGET,
                          ftol=1e-15, xtol=1e-15, gtol=1e-15)
            for i in np.argsort(scores, kind="stable")[:REFERENCE_STARTS]]
    best = min(sols, key=lambda sol: sol.cost)
    free = np.sort(best.x)[::-1]
    amps, xw, res = project(free)
    rates = np.concatenate([known, free])
    jw = np.hstack([xw, rb._rate_derivatives(ms, w, free, amps[known.size:])])
    gaps = [abs(a - b) for i, a in enumerate(rates) for b in rates[i + 1:]]
    flags = ["non_converged"] * (best.status == 0)
    if (gaps and min(gaps) < rb.GAP_TOL) or np.linalg.cond(jw) > rb.COND_TOL:
        flags.append("ill_conditioned")
    return rates, float(res @ res), tuple(flags)


FIT_SYNTH_MS = (1, 2, 3, 4, 6, 8, 11, 15, 20, 27, 36, 48, 64, 85, 113, 150, 200)


def tie_level(chi2, curve):
    """The chi^2 that fit_exponentials counts as a tie with chi2."""
    wy = curve.values / curve.stderrs
    return chi2 * (1.0 + 1e-9) + 1e-12 * float(wy @ wy)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fit_reaches_reference_chi2(data):
    # Noisy curves at the fit_synth lengths with stderr 1e-3, 1-2 free and
    # 0-3 pinned rates: wherever the reference leaves the fit unflagged, the
    # kernel's chi^2 is no worse than the reference's, up to a tie.
    n_free = data.draw(st.integers(1, 2), label="n_free")
    n_pinned = data.draw(st.integers(0, 3), label="n_pinned")
    rates = data.draw(st.lists(st.floats(0.5, 0.999), min_size=n_free + n_pinned,
                               max_size=n_free + n_pinned), label="rates")
    amps = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(rates),
                              max_size=len(rates)), label="amplitudes")
    noise = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    ms = np.array(FIT_SYNTH_MS, dtype=float)
    y = sum(a * r ** ms for a, r in zip(amps, rates)) + noise.normal(0.0, 1e-3, ms.size)
    curve = rb.DecayCurve(points=tuple((int(m), float(v), 1e-3, 0, 0)
                                       for m, v in zip(ms, y)))
    known = rates[:n_pinned] or None
    fit = rb.fit_exponentials(curve, len(rates), known_rates=known)
    starts = len(rb._start_combinations(n_free))
    assert fit.n_evaluations <= starts * (rb.FIT_BUDGET + 1)
    _, ref_chi2, ref_flags = reference_fit(curve, len(rates), known_rates=known)
    if not ref_flags:
        assert fit.residual_norm ** 2 <= tie_level(ref_chi2, curve)


# v2_zz_p00 curves of the rb2q_product configuration (interleaved 4-design,
# noise2(0.02, 0.9), 16 sequences, no shots) from rb.v_t_monte_carlo, keyed
# by curve seed, with the chi^2 and rates of the reference fit.  On both the
# two best-scored starts converge to a worse minimum (chi^2 near 13.9 and
# 11.6), so a search that stops once two refined starts agree misses it.
HARD_CURVES = {
    4312611237409654731: ((
        (1, 0.95669921654464, 0.0038137994173833584),
        (2, 0.9239455600154624, 0.011021137136565108),
        (3, 0.9017486067250767, 0.012585046437426748),
        (4, 0.885421810915721, 0.00946531497995878),
        (6, 0.791327436795479, 0.0221343386325455),
        (8, 0.7219103920522825, 0.033993551094444144),
        (12, 0.6348648302632638, 0.03568229790855037),
        (16, 0.514321322391522, 0.054925077066437226),
        (24, 0.39652244282609206, 0.054274323679836485),
        (32, 0.2952502700273646, 0.04939488122321432),
        (40, 0.1905794708930831, 0.03926672177905709),
        (48, 0.28146713499960396, 0.05424776064713691)),
        9.902490461242213, (0.9616425404877382, 0.5257296871895405)),
    10111875398877740025: ((
        (1, 0.9540220351257758, 0.0051886251776272095),
        (2, 0.9336522706514414, 0.007590050527981148),
        (3, 0.8936853819499068, 0.01389980250333854),
        (4, 0.8862910455277397, 0.014696327252037513),
        (6, 0.8040715658194778, 0.029261820435201272),
        (8, 0.6857696475973325, 0.02857496854422887),
        (12, 0.6230589776758123, 0.03427352578673028),
        (16, 0.5081670434748805, 0.04407182906590074),
        (24, 0.4201876375589553, 0.05126790660691903),
        (32, 0.331477418067329, 0.05077435792139475),
        (40, 0.22911986421523145, 0.043471978592230044),
        (48, 0.19813514520314612, 0.039280367707433664)),
        8.634165565414007, (0.9624910507928128, 0.06625184128200359)),
}


@pytest.mark.parametrize("seed", sorted(HARD_CURVES))
def test_fit_hard_two_qubit_curves(seed):
    points, ref_chi2, ref_rates = HARD_CURVES[seed]
    curve = rb.DecayCurve(points=tuple((m, v, se, 16, 0) for m, v, se in points))
    fit = rb.fit_exponentials(curve, 2)
    assert fit.flags == ()
    assert fit.residual_norm ** 2 <= tie_level(ref_chi2, curve)
    se = [fit.rate_stderr(k, 0) for k in range(2)]
    assert all(abs(a - b) <= 1e-3 * s for a, b, s in zip(fit.rates, ref_rates, se))


def test_fit_budget_flags_non_converged(monkeypatch):
    monkeypatch.setattr(rb, "FIT_BUDGET", 1)
    rng = np.random.default_rng(3)
    ms = np.array(FIT_SYNTH_MS, dtype=float)
    y = 0.2 * 0.995 ** ms + 0.7 * 0.92 ** ms + rng.normal(0.0, 1e-3, ms.size)
    curve = rb.DecayCurve(points=tuple((int(m), float(v), 1e-3, 0, 0)
                                       for m, v in zip(ms, y)))
    fit = rb.fit_exponentials(curve, 2)
    starts = len(rb._start_combinations(2))
    assert "non_converged" in fit.flags
    # the scored starts, then one evaluation per start still running
    assert starts < fit.n_evaluations <= starts * (rb.FIT_BUDGET + 1)


# ---------------------------------------------------------------------------
# metric pipelines


def test_estimate_metrics_1q_exact_curves():
    noise = channels.noise1_model(0.02, 0.98)
    want = channels.noise1_closed_form(0.02, 0.98)
    p1 = irreps.projector_set(1)
    v1 = rb.v1_exact(noise, Z, P0, MS)
    v2 = rb.v2_exact(noise, Z, P0, MS, p1, noisy_inverse=False)
    est = rb.estimate_metrics_1q(v1, v2)
    assert abs(est.f - want.f) < 1e-7
    assert abs(est.F - want.F) < 1e-7
    assert abs(est.u - want.u) < 1e-6
    assert abs(est.h - want.h) < 1e-5
    assert abs(est.H - want.H) < 1e-5
    assert "alpha_assumed_zero" in est.flags
    # The fitted rate pair at this noise point, to the digits quoted for it.
    assert round(est.rates["u"], 5) == 0.99793
    assert round(est.rates["c2"], 5) == 0.92231
    assert abs(est.rates["c2"] - 0.9223149) < 1e-6


def test_estimate_metrics_1q_alpha_passthrough():
    noise = channels.noise1_model(0.02, 0.98)
    p1 = irreps.projector_set(1)
    v1 = rb.v1_exact(noise, Z, P0, MS)
    v2 = rb.v2_exact(noise, Z, P0, MS, p1, noisy_inverse=False)
    est = rb.estimate_metrics_1q(v1, v2, alpha_norm_sq=0.01)
    base = rb.estimate_metrics_1q(v1, v2)
    assert abs((base.H - est.H) - 0.5 * 0.01) < 1e-9
    assert "alpha_assumed_zero" not in est.flags


def two_qubit_curves(p, q):
    noise = channels.noise2_model(p, q)
    p2 = irreps.projector_set(2)
    zz = np.kron(Z, Z)
    p00 = np.kron(P0, P0)
    rm = np.diag([1.0, 0, 0, -1.0]).astype(complex)
    return {
        "v1": rb.v1_exact(noise, p00, p00, MS),
        "zz_p00": rb.v2_exact(noise, zz, p00, MS, p2, noisy_inverse=False),
        "zz_zz": rb.v2_exact(noise, zz, zz, MS, p2, noisy_inverse=False),
        "rm_rm": rb.v2_exact(noise, rm, rm, MS, p2, noisy_inverse=False),
    }


def test_estimate_metrics_2q_exact_curves():
    want = channels.noise2_closed_form(0.01, 0.5)
    est = rb.estimate_metrics_2q(two_qubit_curves(0.01, 0.5))
    assert abs(est.u - want["u"]) < 1e-6
    assert abs(est.rates["C_I"] - want["C_I"]) < 1e-6
    assert abs(est.rates["C_II"] - want["C_II"]) < 1e-6
    assert abs(est.rates["C_III"] - want["C_III"]) < 1e-6
    assert abs(est.F - want["F"]) < 1e-7
    assert abs(est.h - want["h"]) < 1e-4
    assert abs(est.H - want["H"]) < 1e-4
    assert "u_from_amplitude_heuristic" in est.flags


def test_estimate_metrics_2q_external_u():
    want = channels.noise2_closed_form(0.01, 0.95)
    est = rb.estimate_metrics_2q(two_qubit_curves(0.01, 0.95),
                                 u_external=want["u"])
    assert abs(est.u - want["u"]) < 1e-6
    assert "u_from_external" in est.flags


def test_estimate_metrics_2q_missing_curve():
    curves = two_qubit_curves(0.01, 0.5)
    del curves["zz_zz"]
    with pytest.raises(ValueError):
        rb.estimate_metrics_2q(curves)
