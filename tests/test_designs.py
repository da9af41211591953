"""Ensemble containers, exact design constructions, and moment verification."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from exactrb import designs, haar, numerics, paulis, zonal


# The one-product-at-a-time closure that designs._closure replaced, kept
# verbatim as the reference its elements and their order must equal.

def _reference_canonical_phase(u):
    flat = u.reshape(-1)
    idx = np.flatnonzero(np.abs(flat) > designs.PHASE_TOL)
    if len(idx) == 0:
        return u.copy()
    phase = flat[idx[0]] / abs(flat[idx[0]])
    return u / phase


def _reference_round_key(u):
    re = np.round(u.real, designs.ROUND_DECIMALS)
    im = np.round(u.imag, designs.ROUND_DECIMALS)
    re[re == 0.0] = 0.0
    im[im == 0.0] = 0.0
    return re.tobytes() + im.tobytes()


def _reference_closure(generators, d, max_products):
    gens = [np.asarray(g, dtype=complex) for g in generators]
    first = _reference_canonical_phase(np.eye(d, dtype=complex))
    elems = [first]
    seen = {_reference_round_key(first): 0}
    frontier = [0]
    products = 0
    while frontier:
        nxt = []
        for i in frontier:
            for g in gens:
                products += 1
                if products > max_products:
                    raise RuntimeError(
                        f"group closure did not terminate within {max_products} products")
                cand = _reference_canonical_phase(elems[i] @ g)
                key = _reference_round_key(cand)
                if key not in seen:
                    seen[key] = len(elems)
                    elems.append(cand)
                    nxt.append(len(elems) - 1)
        frontier = nxt
    return np.array(elems)


# The einsum mixed moment and the per-sample standard error that
# haar.mixed_moment and designs._moment_stderr replaced, kept verbatim as
# the references the GEMM moment and the closed-form error must match.

def _reference_kron_power(stack, k):
    n, d = stack.shape[0], stack.shape[1]
    if k == 0:
        return np.ones((n, 1, 1), dtype=stack.dtype)
    out = stack
    dim = d
    for _ in range(k - 1):
        out = np.einsum("nab,ncd->nacbd", out, stack).reshape(n, dim * d, dim * d)
        dim *= d
    return out


def _reference_mixed_moment(stack, r, s, chunk=2048):
    stack = np.asarray(stack)
    n, d = stack.shape[0], stack.shape[1]
    if r == 0 and s == 0:
        return np.ones((1, 1), dtype=complex)
    out_dim = d ** (r + s)
    total = np.zeros((out_dim, out_dim), dtype=complex)
    for start in range(0, n, chunk):
        part = stack[start:start + chunk]
        kr = _reference_kron_power(part, r)
        ks = _reference_kron_power(part.conj(), s)
        total += np.einsum("nab,ncd->acbd", kr, ks).reshape(out_dim, out_dim)
    return total / n


# The per-cell GEMM loop that the one-pass haar.mixed_moment replaced, kept
# verbatim as the reference every cell must equal bit for bit; it rebuilt
# both Kronecker powers of each chunk for every cell.

def _reference_cell_moment(stack, r, s):
    stack = np.asarray(stack)
    n, d = stack.shape[0], stack.shape[1]
    if r == 0 and s == 0:
        return np.ones((1, 1), dtype=complex)
    dr, ds = d ** r, d ** s
    total = np.zeros((dr * dr, ds * ds), dtype=complex)
    for start in range(0, n, haar.CHUNK):
        part = stack[start:start + haar.CHUNK]
        kr = _reference_kron_power(part, r).reshape(len(part), -1)
        ks = _reference_kron_power(part.conj(), s).reshape(len(part), -1)
        if r == 0 or s == 0:
            # against the all-ones power: numpy would hand this to gemv
            total += (ks if r == 0 else kr).sum(axis=0).reshape(total.shape)
        else:
            total += kr.T @ ks
    total /= n
    # rows (a, b) of U^(x r), columns (c, d) of conj(U)^(x s) -> (a c, b d)
    return total.reshape(dr, dr, ds, ds).transpose(0, 2, 1, 3).reshape(dr * ds, dr * ds)


def _reference_residuals(e, t, strong):
    """verify_strong_design's exact residuals from the per-cell loop, with
    the all-zero Haar reference of each r != s cell."""
    residuals = {}
    for r in range(t + 1):
        for s in range(t + 1):
            if strong or r == s:
                avg = _reference_cell_moment(e.elements, r, s)
                ref = (designs._haar_reference(e.d, r) if r == s
                       else np.zeros((e.d ** (r + s),) * 2, dtype=complex))
                diff = avg - ref
                residuals[(r, s)] = float(np.sqrt((np.abs(diff) ** 2).sum()))
    return residuals


def _reference_sample_chunk(entries):
    return max(1, min(2048, 2 ** 30 // 16 // (16 * entries)))


def _reference_moment_stderr(stack, r, s, mean):
    n = stack.shape[0]
    if n < 2:
        return float("inf")
    sq = np.zeros(mean.shape, dtype=float)
    rows = _reference_sample_chunk(mean.size)
    for start in range(0, n, rows):
        part = stack[start:start + rows]
        kr = _reference_kron_power(part, r)
        ks = _reference_kron_power(part.conj(), s)
        prod = np.einsum("nab,ncd->nacbd", kr, ks).reshape(part.shape[0], *mean.shape)
        sq += (np.abs(prod) ** 2).sum(axis=0)
    var = sq / n - np.abs(mean) ** 2
    var = np.clip(var, 0.0, None)
    return float(np.sqrt(var.sum() / n))


# The ordered-pair sum that frame_potential's former "exact-pairs" mode
# evaluated, kept as the reference for the exact and commutant frame
# potentials.

def _trace_power_sum(left, right, t):
    """Sum over all row pairs (i, j) of |left_i . right_j|^(2t), one GEMM
    tile of at most 2^22 entries at a time."""
    total = 0.0
    chunk = max(1, 2 ** 22 // max(len(right), 1))
    for start in range(0, len(left), chunk):
        tr = left[start:start + chunk] @ right.T
        total += (np.abs(tr) ** (2 * t)).sum()
    return total


def _pair_frame_potential(e, t):
    """E |tr(U^dag V)|^(2t) over every ordered pair of an explicit ensemble."""
    n = e.size
    flat = e.elements.reshape(n, -1)
    return _trace_power_sum(flat.conj(), flat, t) / (n * n)


# The pair sum that frame_potential(mode="interleaved-reduced") evaluated
# before the Clifford commutant kernel, kept verbatim as its reference:
# (1/|C|^2) sum |tr(Uc^dag C Uc C')|^(2t) over a three-layer product C Uc C.

def _reference_interleaved_pairs(e, t):
    group = e.layers[0].ensemble.elements
    uc = e.layers[1].matrix
    n = group.shape[0]
    conj_flat = np.einsum("ba,nbc,cd->nad", uc.conj().T, group, uc).reshape(n, -1)
    right_flat = group.transpose(0, 2, 1).reshape(n, -1)
    return _trace_power_sum(conj_flat, right_flat, t) / (n * n)


def _clifford_layered(group, *fixed):
    """Product design group V_1 group V_2 ... group."""
    layers = [designs.EnsembleLayer(group)]
    for v in fixed:
        layers += [designs.FixedLayer(v), designs.EnsembleLayer(group)]
    return designs.UnitaryEnsemble(d=group.d, kind="product", layers=tuple(layers))


def _assert_moments_match_reference(stack, r, s):
    mean, = haar.mixed_moment(stack, [(r, s)])
    ref = _reference_mixed_moment(stack, r, s)
    assert mean.shape == ref.shape
    assert np.abs(mean - ref).max() <= 1e-13
    err = designs._moment_stderr(stack, r, s, mean)
    ref_err = _reference_moment_stderr(stack, r, s, ref)
    assert abs(err - ref_err) <= 1e-12 * ref_err


def _closure_args(monkeypatch, build):
    """The (generators, d, max_products) that ``build`` passes to _closure."""
    calls = []
    closure = designs._closure

    def spy(generators, d, max_products):
        calls.append((generators, d, max_products))
        return closure(generators, d, max_products)

    monkeypatch.setattr(designs, "_closure", spy)
    build()
    monkeypatch.setattr(designs, "_closure", closure)
    (args,) = calls
    return args


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


def test_direct_sum_is_the_block_copy_loop():
    # the block-diagonal stack equals the per-pair loop it replaced, bit for bit
    a, b = designs.w1(2), designs.build_qudit_design(2, 1)
    ref = np.zeros((a.size * b.size, 3, 3), dtype=complex)
    k = 0
    for u in a.elements:
        for v in b.elements:
            ref[k, :1, :1] = u
            ref[k, 1:, 1:] = v
            k += 1
    assert designs.direct_sum_ensemble(a, b).elements.tobytes() == ref.tobytes()


def test_rotation_unitary():
    u = designs.rotation_unitary([0.3], 1, 2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.abs(u - scipy.linalg.expm(0.3j * x)).max() < 1e-13
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


def test_qudit_design_cap_falls_back_to_product(monkeypatch):
    monkeypatch.setattr(designs, "TOWER_BYTES", 100)
    e = designs.build_qudit_design(2, 3)
    assert e.kind == "product"
    rng = np.random.default_rng(3)
    us = e.sample(rng, 5)
    for u in us:
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_qudit_design_cap_counts_stack_bytes(monkeypatch):
    # the default keeps the small cells explicit; (4, 1), 1 GiB as a stack,
    # and (2, 4), 625 MB, stay products
    for d, t in ((2, 1), (2, 2), (2, 3), (3, 1)):
        assert designs.build_qudit_design(d, t).kind == "explicit"
    for d, t, size in ((4, 1, 2048 ** 2), (2, 4, 25 ** 5)):
        e = designs.build_qudit_design(d, t)
        assert e.kind == "product" and e.size == size
    # (2, 3) multiplies out 65,536 complex 2 x 2 matrices, 64 bytes each
    monkeypatch.setattr(designs, "TOWER_BYTES", 65536 * 64)
    assert designs.build_qudit_design(2, 3).kind == "explicit"
    monkeypatch.setattr(designs, "TOWER_BYTES", 65536 * 64 - 1)
    assert designs.build_qudit_design(2, 3).kind == "product"


@pytest.mark.parametrize("d,t", [(5, 1), (5, 2), (6, 2)])
def test_qudit_tower_builds_past_four(d, t):
    e = designs.build_qudit_design(d, t)
    assert e.kind == "product"
    report = designs.verify_strong_design(e, t, mc_samples=1000, strong=False)
    assert report.passed


def test_sampled_check_tells_d5_one_design_from_two_design():
    # at d = 5 the (2, 2) cell's standard error is 0.56 at 2,000 samples,
    # too wide to fail the (5, 1) tower; at 8,000 it is 0.28
    for t, passes in ((2, True), (1, False)):
        report = designs.verify_strong_design(
            designs.build_qudit_design(5, t), 2, mc_samples=8000, strong=False,
            frame_potential_mode="skip")
        assert report.passed is passes


def test_icosahedral_group_basics():
    e = designs.icosahedral_group()
    assert e.d == 2
    assert e.size == 60
    # Projective closure: every product matches a stored element up to phase.
    rng = np.random.default_rng(0)
    idx = rng.integers(60, size=(20, 2))
    keys = set(designs._round_keys(designs._canonical_phases(e.elements)))
    prods = e.elements[idx[:, 0]] @ e.elements[idx[:, 1]]
    assert set(designs._round_keys(designs._canonical_phases(prods))) <= keys


GROUPS = {
    "clifford1": lambda: designs.clifford_group(1),
    "icosahedral": designs.icosahedral_group,
    "clifford2": lambda: designs.clifford_group(2),
}


@pytest.mark.parametrize("name", GROUPS)
def test_closure_matches_reference_bit_for_bit(monkeypatch, name):
    build = GROUPS[name]
    gens, d, max_products = _closure_args(monkeypatch, build)
    ref = _reference_closure(gens, d, max_products)
    chunks = [designs.CLOSURE_CHUNK] + ([3] if name != "clifford2" else [])
    for chunk in chunks:
        # chunk 3 splits every level and leaves duplicates inside a chunk
        monkeypatch.setattr(designs, "CLOSURE_CHUNK", chunk)
        out = designs._closure(gens, d, max_products)
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()
    assert build().elements.tobytes() == ref.tobytes()


def test_closure_product_guard(monkeypatch):
    # diag(1, e^i) has infinite order: the closure never terminates
    gen = np.diag([1.0, np.exp(1j)])
    for closure in (designs._closure, _reference_closure):
        with pytest.raises(RuntimeError,
                           match="did not terminate within 50 products"):
            closure([gen], 2, max_products=50)
    # the Clifford group C1 needs exactly 24 * 2 products: one fewer raises
    gens, d, _ = _closure_args(monkeypatch, lambda: designs.clifford_group(1))
    assert len(designs._closure(gens, d, max_products=48)) == 24
    with pytest.raises(RuntimeError, match="within 47 products"):
        designs._closure(gens, d, max_products=47)


# icosahedral stacks that are not groups
NOT_GROUPS = {
    # the first 59 elements generate all 60
    "subset59": lambda e: e[:59],
    "haar_swapped": lambda e: np.concatenate(
        [e[:17], numerics.haar_unitaries(2, 1, np.random.default_rng(0)), e[18:]]),
    # all 60, one of them twice: uniform draws are not uniform on the group
    "repeated": lambda e: np.concatenate([e, e[5:6]]),
}


@pytest.mark.parametrize("name", GROUPS)
def test_groups_pass_the_group_check(name):
    assert GROUPS[name]().is_group


@pytest.mark.parametrize("name", NOT_GROUPS)
def test_non_groups_fail_the_group_check(name):
    elems = NOT_GROUPS[name](designs.icosahedral_group().elements)
    assert not designs.UnitaryEnsemble(d=2, kind="explicit", elements=elems).is_group


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_stacked_phase_and_keys_match_per_matrix(data):
    d = data.draw(st.integers(1, 4), label="d")
    n = data.draw(st.integers(1, 6), label="n")
    stack = data.draw(hnp.arrays(np.complex128, (n, d, d), elements=st.complex_numbers(
        max_magnitude=4.0, allow_nan=False, allow_infinity=False)), label="stack")
    # push leading entries below, onto and just above PHASE_TOL
    lead = data.draw(st.integers(0, d * d), label="lead")
    scale = data.draw(st.sampled_from([0.0, 1e-12, 1e-9, designs.PHASE_TOL,
                                       1.0000001 * designs.PHASE_TOL]), label="scale")
    flat = stack.reshape(n, -1)
    flat[:, :lead] *= scale / np.maximum(np.abs(flat[:, :lead]), 1e-300)
    # repeat a matrix, as is and up to phase, so the stack holds duplicates
    if n > 2:
        stack[-1] = stack[0]
        stack[-2] = np.exp(0.3j) * stack[0]
    phased = designs._canonical_phases(stack)
    ref = np.array([_reference_canonical_phase(u) for u in stack])
    assert phased.tobytes() == ref.tobytes()
    # a matrix gets the same phase and key alone as in the stack
    for u, c in zip(stack, ref):
        assert designs._canonical_phases(u[None]).tobytes() == c.tobytes()
    keys = designs._round_keys(phased)
    assert keys == [_reference_round_key(c) for c in ref]
    assert [designs._round_keys(c[None])[0] for c in phased] == keys
    first = {}
    for i, k in enumerate(keys):
        first.setdefault(k, i)
    fresh = designs._first_seen(keys, set())
    assert np.flatnonzero(fresh).tolist() == sorted(first.values())


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 4), n=st.integers(2, 40), r=st.integers(0, 2),
       s=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_moment_and_stderr_match_reference(d, n, r, s, seed):
    stack = numerics.haar_unitaries(d, n, np.random.default_rng(seed))
    _assert_moments_match_reference(stack, r, s)


def test_moment_and_stderr_match_reference_across_chunks(monkeypatch):
    # 3-row chunks: a 10-unitary stack accumulates four GEMMs
    monkeypatch.setattr(haar, "CHUNK", 3)
    stack = numerics.haar_unitaries(3, 10, np.random.default_rng(11))
    for r in range(3):
        for s in range(3):
            _assert_moments_match_reference(stack, r, s)
    # an explicit design and its verdict through the chunked kernel
    e = designs.build_qudit_design(2, 2)
    report = designs.verify_strong_design(e, 2, frame_potential_mode="skip")
    assert report.passed
    for (r, s), v in report.residuals.items():
        haar_value = designs._haar_reference(2, r) if r == s else 0.0
        ref = np.linalg.norm(_reference_mixed_moment(e.elements, r, s) - haar_value)
        assert abs(v - ref) <= 1e-13


@pytest.fixture(scope="module")
def qudit_2_3():
    return designs.build_qudit_design(2, 3)


@pytest.mark.parametrize("strong", [True, False])
@pytest.mark.parametrize("chunk", [None, 3])
def test_one_pass_moments_equal_per_cell_loop(monkeypatch, qudit_2_3, chunk, strong):
    # the one pass shares each chunk's Kronecker powers and conjugates
    # them once; every cell still goes through the per-cell loop's floats
    if chunk is not None:
        monkeypatch.setattr(haar, "CHUNK", chunk)
    qudit = qudit_2_3.elements
    stacks = [(numerics.haar_unitaries(3, 10, np.random.default_rng(5)), 2),
              # the per-cell loop takes 8 s over all 65,536 elements in 3-row chunks
              (qudit if chunk is None else qudit[:301], 3)]
    for stack, t in stacks:
        cells = [(r, s) for r in range(t + 1) for s in range(t + 1) if strong or r == s]
        for (r, s), avg in zip(cells, haar.mixed_moment(stack, cells)):
            assert np.array_equal(avg, _reference_cell_moment(stack, r, s)), (r, s)


def test_one_pass_verify_report_unchanged(qudit_2_3):
    # the t = 3 strong certificate of the 65,536-element qubit design, with
    # the per-cell residuals and the zero Haar reference of r != s cells
    e = qudit_2_3
    report = designs.verify_strong_design(e, 3, tol=1e-9, frame_potential_mode="skip")
    residuals = _reference_residuals(e, 3, strong=True)
    expected = designs.DesignReport(
        d=2, t_checked=3, strong=True, mode="exact", tol=1e-9, residuals=residuals,
        stderrs=None, frame_potential=None, frame_potential_stderr=None,
        haar_frame_potential=None, passed=max(residuals.values()) <= 1e-9)
    assert report.to_json_dict() == expected.to_json_dict()


def test_icosahedral_is_two_design():
    e = designs.icosahedral_group()
    report = designs.verify_strong_design(e, 2, tol=1e-10, strong=False)
    assert report.passed
    assert abs(report.frame_potential - 2.0) < 1e-10


def test_exact_report_frame_potential_is_its_moment(qudit_2_3):
    # the Catalan number 5 at d = 2, t = 3, from the (3, 3) moment's norm
    report = designs.verify_strong_design(qudit_2_3, 3, tol=1e-9)
    assert report.mode == "exact" and report.frame_potential_stderr is None
    assert abs(report.frame_potential - 5.0) <= 1e-12
    # the two-qubit Clifford group is a 3-design
    report = designs.verify_strong_design(designs.clifford_group(2), 2, strong=False)
    assert report.frame_potential_stderr is None
    assert abs(report.frame_potential - 2.0) <= 1e-12


@pytest.mark.parametrize("build,t", [
    (designs.icosahedral_group, 4), (lambda: designs.clifford_group(1), 4),
    (lambda: designs.build_qudit_design(2, 2), 2), (lambda: designs.build_qudit_design(3, 1), 1),
])
def test_exact_report_frame_potential_equals_pair_sum(build, t):
    e = build()
    assert e.kind == "explicit" and e.size <= 2000
    report = designs.verify_strong_design(e, t, strong=False)
    pairs = _pair_frame_potential(e, t)
    assert report.frame_potential_stderr is None
    assert abs(report.frame_potential - pairs) <= 1e-12


def test_clifford_group_sizes():
    c1 = designs.clifford_group(1)
    assert c1.size == 24
    report = designs.verify_strong_design(c1, 3, tol=1e-10, strong=False,
                                          frame_potential_mode="skip")
    assert report.passed


def test_clifford_one_qubit_is_not_four_design():
    c1 = designs.clifford_group(1)
    fp = _pair_frame_potential(c1, 4)
    assert fp > haar.haar_frame_potential(2, 4) + 0.5


def test_uc_unitary_is_unitary():
    u = designs.uc_unitary()
    assert u.shape == (4, 4)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-10


def test_uc_unitary_matches_expm_reference():
    # the core exp(-i (phi_x XX + phi_y YY + phi_z ZZ)) as one exponential
    # of the sum of its commuting terms, and every rotation by expm
    x, y, z = paulis.X, paulis.Y, paulis.Z
    expm = scipy.linalg.expm
    phi_x, phi_y, phi_z = designs._UC_PHIS
    core = expm(-1j * (phi_x * np.kron(x, x) + phi_y * np.kron(y, y) + phi_z * np.kron(z, z)))
    rot = paulis.pauli_rotation
    closed = rot(-phi_x, np.kron(x, x)) @ rot(-phi_y, np.kron(y, y)) @ rot(-phi_z, np.kron(z, z))
    assert np.abs(closed - core).max() <= 1e-15

    def r1(a, b, c):
        return expm(1j * a * z) @ expm(1j * b * y) @ expm(1j * c * z)

    outer = np.kron(r1(*designs._UC_ANGLES_A), r1(*designs._UC_ANGLES_A2))
    inner = np.kron(r1(*designs._UC_ANGLES_B), r1(*designs._UC_ANGLES_B2))
    assert np.abs(designs.uc_unitary() - outer @ core @ inner).max() <= 1e-15


def test_frame_potential_modes_agree(rng):
    e = designs.icosahedral_group()
    exact = _pair_frame_potential(e, 2)
    mc, se = designs.frame_potential(e, 2, mode="mc", seed=9, samples=20000)
    assert abs(mc - exact) < 4 * se


def test_frame_potential_reduced_mode_matches_pairs():
    # With the identity in the middle, C1 I C1 is C1 itself, as is one C1
    # layer alone: the commutant frame potential equals the plain pair sum
    # of the Clifford group.
    c1 = designs.clifford_group(1)
    pairs = _pair_frame_potential(c1, 4)
    for prod in (_clifford_layered(c1, np.eye(2, dtype=complex)), _clifford_layered(c1)):
        red, _ = designs.frame_potential(prod, 4, mode="interleaved-reduced")
        assert abs(red - pairs) < 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), t=st.integers(1, 4))
def test_commutant_frame_potential_matches_pair_sum(seed, t):
    c1 = designs.clifford_group(1)
    v = numerics.haar_unitaries(2, 1, np.random.default_rng(seed))[0]
    e = _clifford_layered(c1, v)
    fp, se = designs.frame_potential(e, t, mode="interleaved-reduced")
    assert se is None
    assert abs(fp - _reference_interleaved_pairs(e, t)) <= 1e-9


def test_commutant_frame_potential_perturbed_uc():
    # a U_c off the design: both evaluations see the same excess over 24
    kick = scipy.linalg.expm(0.05j * np.kron(paulis.X, paulis.Z))
    e = _clifford_layered(designs.clifford_group(2), designs.uc_unitary() @ kick)
    fp, _ = designs.frame_potential(e, 4, mode="interleaved-reduced")
    ref = _reference_interleaved_pairs(e, 4)
    assert fp - 24.0 > 1e-6
    assert abs(fp - ref) <= 1e-9


def test_commutant_frame_potential_of_clifford_groups():
    # one Clifford layer alone: C2's frame potential is 29 at t = 4 (Zhu,
    # Kueng, Grassl, Gross); below t = 4 the groups give Haar's values
    c2 = _clifford_layered(designs.clifford_group(2))
    assert abs(designs.frame_potential(c2, 4, mode="interleaved-reduced")[0] - 29.0) < 1e-9
    c1 = _clifford_layered(designs.clifford_group(1))
    for t in (1, 2, 3):
        for e in (c1, c2):
            fp, _ = designs.frame_potential(e, t, mode="interleaved-reduced")
            assert abs(fp - haar.haar_frame_potential(e.d, t)) < 1e-12


def test_frame_potential_reduced_mode_rejects_wrong_shape():
    ico = designs.icosahedral_group()
    c1 = designs.clifford_group(1)
    eye = np.eye(2, dtype=complex)
    # a phase copy of another element: 24 elements, 23 distinct modulo phase
    repeated = c1.elements.copy()
    repeated[5] = 1j * repeated[4]
    # a rotation off the Clifford group in place of one element
    off = c1.elements.copy()
    off[5] = scipy.linalg.expm(0.1j * paulis.X)
    bad = {
        "explicit": (ico, "qubit layers"),
        "icosahedral layers": (_clifford_layered(ico, eye), "24-element 1-qubit"),
        "mismatched layers": (designs.UnitaryEnsemble(d=2, kind="product", layers=(
            designs.EnsembleLayer(c1), designs.FixedLayer(eye),
            designs.EnsembleLayer(ico))), "24-element 1-qubit"),
        "two fixed layers": (designs.UnitaryEnsemble(d=2, kind="product", layers=(
            designs.EnsembleLayer(c1), designs.FixedLayer(eye), designs.FixedLayer(eye))),
            "qubit layers"),
        "repeated element": (_clifford_layered(designs.UnitaryEnsemble(
            d=2, kind="explicit", elements=repeated), eye), "repeats"),
        "non-Clifford element": (_clifford_layered(designs.UnitaryEnsemble(
            d=2, kind="explicit", elements=off), eye), "off the signed Paulis"),
    }
    for e, message in bad.values():
        with pytest.raises(ValueError, match=message):
            designs.frame_potential(e, 4, mode="interleaved-reduced")
    with pytest.raises(ValueError, match="t <= 4, not t = 5"):
        designs.frame_potential(_clifford_layered(c1, eye), 5, mode="interleaved-reduced")


@pytest.mark.parametrize("n_fixed", [0, 1, 2])
def test_commutant_residuals_match_dense(n_fixed):
    # C1 V_1 C1 ... multiplied out to its 24^(n_fixed + 1) explicit elements
    c1 = designs.clifford_group(1)
    fixed = numerics.haar_unitaries(2, n_fixed, np.random.default_rng(7 + n_fixed))
    elements = c1.elements
    for v in fixed:
        elements = np.einsum("iab,bc,jcd->ijad", elements, v, c1.elements).reshape(-1, 2, 2)
    explicit = designs.UnitaryEnsemble(d=2, kind="explicit", elements=elements)
    layered = _clifford_layered(c1, *fixed)
    for t in range(1, 5):
        dense = designs.verify_strong_design(explicit, t, strong=False)
        reduced = designs.verify_strong_design(layered, t, strong=False)
        assert reduced.mode == "commutant"
        assert reduced.stderrs is None
        assert reduced.residuals.keys() == dense.residuals.keys()
        for cell, value in dense.residuals.items():
            assert abs(reduced.residuals[cell] - value) <= 1e-10
        assert reduced.passed == dense.passed
        assert dense.frame_potential_stderr is None
        assert abs(reduced.frame_potential - dense.frame_potential) <= 1e-9
        assert reduced.haar_frame_potential == dense.haar_frame_potential
        # residual^2 is the frame potential's excess over Haar
        excess = reduced.frame_potential - reduced.haar_frame_potential
        assert abs(reduced.residuals[(t, t)] ** 2 - excess) <= 1e-12


def test_commutant_verifies_interleaved_design_exactly():
    # the kernel has no cancellation floor: U_c's refined angles pass the
    # check at the default 1e-10
    e = designs.interleaved_clifford_design()
    report = designs.verify_strong_design(e, 4, strong=False)
    assert report.mode == "commutant"
    assert report.passed
    assert report.residuals[(4, 4)] < 1e-11
    assert max(report.residuals[(k, k)] for k in range(4)) < 1e-13
    assert abs(report.frame_potential - 24.0) < 1e-12
    # strong checks and orders above 4 still need samples
    for kwargs in ({"t": 4, "strong": True}, {"t": 5, "strong": False}):
        with pytest.raises(ValueError, match="require mc_samples"):
            designs.verify_strong_design(e, **kwargs)


@pytest.mark.parametrize("samples", [1, 0, -4])
def test_verify_refuses_fewer_than_two_samples(samples):
    # one sample has an infinite standard error, which passed any ensemble
    identities = designs.UnitaryEnsemble(
        d=2, kind="explicit", elements=np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)))
    for e in (identities, designs.build_qudit_design(2, 2)):
        with pytest.raises(ValueError, match=f"mc_samples must be at least 2, got {samples}"):
            designs.verify_strong_design(e, 2, mc_samples=samples)


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
    # an unknown frame potential mode is refused, not run as "auto"
    with pytest.raises(ValueError, match="frame_potential_mode 'bogus'"):
        designs.verify_strong_design(e, 1, mc_samples=4000, strong=False,
                                     frame_potential_mode="bogus")


def _counted_bytes(d, t, n, strong):
    """check_moment_budget's count for n unitaries: every checked cell's
    total, three largest-cell matrices (a chunk's GEMM product, a transposed
    result, the Haar reference) and a chunk's powers with their conjugates."""
    sides = [d ** (2 * k) for k in range(t + 1)]
    cells = sum(a * b for a in sides for b in sides) if strong else sum(a * a for a in sides)
    return 16 * (cells + 3 * sides[t] ** 2 + 2 * min(n, haar.CHUNK) * sum(sides[1:]))


def test_verify_refuses_moments_over_budget(monkeypatch):
    # the diagonal check of d = 2, t = 4 over 60 elements needs
    # 16 (69,905 + 3 * 256^2 + 2 * 60 * 340) bytes, its Haar projector alone
    # 16 * 256^2; under a 1 MB budget t = 3 still runs and t = 4 is refused
    # before any moment is built.
    monkeypatch.setattr(haar, "MOMENT_BYTES", 10 ** 6)
    e = designs.icosahedral_group()
    assert designs.verify_strong_design(e, 3, strong=False,
                                        frame_potential_mode="skip").passed
    monkeypatch.setattr(haar, "mixed_moment",
                        lambda *a, **k: pytest.fail("a moment was built"))
    with pytest.raises(ValueError, match="d = 2, t = 4 needs 4,917,008 bytes"):
        designs.verify_strong_design(e, 4, strong=False)
    with pytest.raises(ValueError, match="d = 2, t = 4"):
        haar.haar_moment_projector(2, 4)


def test_moment_budget_bounds_measured_peak(monkeypatch):
    # the icosahedral group: verify holds every checked cell's running
    # total at once, then a chunk's GEMM product and powers, or a cell's
    # transposed result and Haar reference, which check_moment_budget counts
    # for n > 0; for the projector alone (n = 0) it counts one matrix
    e = designs.icosahedral_group()
    for strong, t in ((False, 4), (True, 3)):
        counted = _counted_bytes(2, t, e.size, strong)
        for budget, n in ((counted, e.size), (16 * 2 ** (4 * t), 0)):
            with monkeypatch.context() as mp:
                mp.setattr(haar, "MOMENT_BYTES", budget)
                haar.check_moment_budget(2, t, n, strong=strong)
                mp.setattr(haar, "MOMENT_BYTES", budget - 1)
                with pytest.raises(ValueError):
                    haar.check_moment_budget(2, t, n, strong=strong)
        tracemalloc.start()
        try:
            designs.verify_strong_design(e, t, strong=strong, frame_potential_mode="skip")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counted, (strong, t)


def test_sampled_verify_at_d4_t2_beyond_one_product_chunk():
    # per-sample (2, 2) products at d = 4 would take 1 MiB each; the
    # standard error needs none of them, so 1,100 samples fit the budget
    report = designs.verify_strong_design(
        designs.interleaved_clifford_design(), 2, mc_samples=1100, strong=False,
        frame_potential_mode="skip")
    assert report.mode == "mc"
    assert report.passed


def test_report_json_keys():
    report = designs.verify_strong_design(designs.w1(2), 2, tol=1e-14)
    doc = report.to_json_dict()
    assert doc["passed"] is True
    assert "0,0" in doc["residuals"]
    assert doc["frame_potential"] is not None


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_design_file_roundtrip(tmp_path_factory, d, n, seed):
    # an explicit design of Haar unitaries survives save/load bit for bit
    e = designs.UnitaryEnsemble(d=d, kind="explicit", elements=numerics.haar_unitaries(
        d, n, np.random.default_rng(seed)))
    path = tmp_path_factory.mktemp("design") / "haar.json"
    designs.save_design(e, str(path), extra={"note": "roundtrip"})
    back = designs.load_design(str(path))
    assert back.kind == "explicit"
    assert back.elements.tobytes() == e.elements.tobytes()


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
    e = designs.build_qubit_circuit_design(1, 2)
    assert e.d == 2
    report = designs.verify_strong_design(e, 2, tol=1e-10,
                                          frame_potential_mode="skip")
    assert report.passed


def test_circuit_descriptor_missing_tables():
    with pytest.raises(ValueError, match="angle tables"):
        designs.build_qubit_circuit_design(2, 2)


def test_circuit_descriptor_with_tables():
    # Labels for the 2-qubit level at t=1: just (1,), table of 2 angles.
    labels = zonal.enumerate_sph_labels(2, 4, 1)
    assert [l.positive_part for l in labels] == [(1,)]
    tables = {(2, (1,)): np.array([0.1, 0.2])}
    e = designs.build_qubit_circuit_design(2, 1, tables)
    assert e.d == 4
    assert e.kind == "product"
    u = e.sample(np.random.default_rng(1), 8)
    dev = np.abs(np.einsum("nij,nik->njk", u.conj(), u) - np.eye(4)).max()
    assert dev < 1e-10


def test_circuit_holds_its_base_stack_once():
    # every controlled layer of both levels draws from the one 2 x 2 stack
    # of (2, 3), 65,536 elements, unpadded: the 3-qubit circuit holds little
    # beyond that stack's 4 MiB
    tables = {(m, lab.positive_part): np.linspace(0.1, 1.0, 2 ** (m - 1)) + 0.07 * k
              for m in (2, 3)
              for k, lab in enumerate(zonal.enumerate_sph_labels(2 ** (m - 1), 2 ** m, 3))}
    tracemalloc.start()
    try:
        e = designs.build_qubit_circuit_design(3, 3, tables)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    stacks = {id(x.ensemble): x.ensemble for x in e.layers
              if isinstance(x, designs.EnsembleLayer)}
    assert [s.elements.shape for s in stacks.values()] == [(65536, 2, 2)]
    assert held < 1.1 * 65536 * 64
    assert len(e.layers) == 2 * 7 * 17 + 6


# Products used to nest, and a "ctrl" layer drew diag(U0, U1) in one block.
# The sampler of that form, kept as the reference for flat products; it
# reads the design-file form, which older files still have.

def _reference_sample(doc, rng, n):
    if doc["kind"] == "explicit":
        elems = np.array([designs._matrix_from_json(m) for m in doc["elements"]])
        return elems[rng.integers(len(elems), size=n)]
    d = doc["d"]
    out = np.broadcast_to(np.eye(d, dtype=complex), (n, d, d)).copy()
    for layer in doc["layers"]:
        if layer["kind"] == "fixed":
            out = out @ designs._matrix_from_json(layer["matrix"])
        elif layer["kind"] == "ensemble":
            out = np.einsum("nab,nbc->nac", out, _reference_sample(layer["ensemble"], rng, n))
        else:
            half = layer["ensemble"]["d"]
            blocks = np.zeros((n, 2 * half, 2 * half), dtype=complex)
            blocks[:, :half, :half] = _reference_sample(layer["ensemble"], rng, n)
            blocks[:, half:, half:] = _reference_sample(layer["ensemble"], rng, n)
            out = np.einsum("nab,nbc->nac", out, blocks)
    return out


def _fixed(m):
    return {"kind": "fixed", "matrix": designs._matrix_to_json(m)}


def _nested_circuit_doc(t, tables):
    """The 2-qubit circuit as it was written: ctrl layers around the fixed
    controlled-X rotations."""
    ctrl = {"kind": "ctrl", "ensemble": designs._ensemble_to_json(
        designs.build_qudit_design(2, t))}
    layers = [ctrl]
    for lab in zonal.enumerate_sph_labels(2, 4, t):
        layers += [_fixed(designs._ctrl_x_rotation(tables[(2, lab.positive_part)])), ctrl]
    return {"d": 4, "kind": "product", "layers": layers}


def _pad_stack(stack):
    """diag(1, U) for each U of a stack: a layer lifted by one dimension."""
    out = np.zeros((len(stack), stack.shape[1] + 1, stack.shape[1] + 1), dtype=complex)
    out[:, 0, 0] = 1.0
    out[:, 1:, 1:] = stack
    return out


def _nested_qudit_4_2_doc():
    """The (4, 2) tower as it was written: each base layer a product of
    W1 (+) I and the (3, 2) layers padded to I (+) L."""
    w1 = designs.w1(2).elements
    head = np.zeros((len(w1), 4, 4), dtype=complex)
    head[:, :1, :1] = w1
    head[:, 1:, 1:] = np.eye(3)
    inner = [{"kind": "ensemble", "ensemble": designs._ensemble_to_json(
        designs.UnitaryEnsemble(d=4, kind="explicit", elements=head))}]
    for layer in designs.build_qudit_design(3, 2).layers:
        if isinstance(layer, designs.FixedLayer):
            inner.append(_fixed(_pad_stack(layer.matrix[None])[0]))
        else:
            inner.append({"kind": "ensemble", "ensemble": designs._ensemble_to_json(
                designs.UnitaryEnsemble(d=4, kind="explicit",
                                        elements=_pad_stack(layer.ensemble.elements)))})
    base = {"kind": "ensemble", "ensemble": {"d": 4, "kind": "product", "layers": inner}}
    layers = [base]
    for lab in zonal.enumerate_sph_labels(1, 4, 2):
        layers += [_fixed(designs.rotation_unitary(zonal.find_angles(lab), 1, 4)),
                   base]
    return {"d": 4, "kind": "product", "layers": layers}


def _circuit_tables(t):
    return {(2, lab.positive_part): np.array([0.3 + 0.1 * k, 1.1 - 0.2 * k])
            for k, lab in enumerate(zonal.enumerate_sph_labels(2, 4, t))}


def _assert_flat(e):
    assert e.kind == "product"
    for layer in e.layers:
        assert isinstance(layer, (designs.FixedLayer, designs.EnsembleLayer))
        if isinstance(layer, designs.EnsembleLayer):
            assert layer.ensemble.kind == "explicit"


@pytest.mark.parametrize("t", [1, 2])
def test_flat_circuit_samples_equal_ctrl_reference(t):
    tables = _circuit_tables(t)
    e = designs.build_qubit_circuit_design(2, t, tables)
    _assert_flat(e)
    ref = _reference_sample(_nested_circuit_doc(t, tables), np.random.default_rng(7), 40)
    assert e.sample(np.random.default_rng(7), 40).tobytes() == ref.tobytes()
    assert e.size == designs.build_qudit_design(2, t).size ** (2 * len(tables) + 2)


def test_flat_qudit_4_2_samples_match_nested_reference():
    e = designs.build_qudit_design(4, 2)
    _assert_flat(e)
    ref = _reference_sample(_nested_qudit_4_2_doc(), np.random.default_rng(5), 30)
    # only the products' association differs
    assert np.abs(e.sample(np.random.default_rng(5), 30) - ref).max() <= 1e-15


def _qudit_2_3_product():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(designs, "TOWER_BYTES", 100)
        return designs.build_qudit_design(2, 3)


@pytest.mark.parametrize("build", [
    lambda: designs.build_qudit_design(5, 2),
    lambda: designs.build_qubit_circuit_design(3, 1, {
        (2, (1,)): np.array([0.1, 0.2]), (3, (1,)): np.array([0.3, 0.4, 0.5, 0.6])}),
    designs.interleaved_clifford_design,
    lambda: designs.UnitaryEnsemble(d=2, kind="product", layers=(
        designs.EnsembleLayer(_qudit_2_3_product()),
        designs.FixedLayer(np.eye(2, dtype=complex)),
        designs.EnsembleLayer(_qudit_2_3_product()))),
])
def test_product_layers_are_fixed_or_explicit(build):
    e = build()
    _assert_flat(e)
    u = e.sample(np.random.default_rng(2), 6)
    assert np.abs(np.einsum("nij,nik->njk", u.conj(), u) - np.eye(e.d)).max() < 1e-12


def test_load_nested_and_ctrl_layers(tmp_path):
    # a file in the older form: a ctrl layer over the square roots of unity,
    # a fixed Hadamard and a nested product of {I, X} and a fixed S
    h = 0.7071067811865476
    doc = {"format": "exactrb-design", "version": 1, "d": 2, "kind": "product", "layers": [
        {"kind": "ctrl", "ensemble": {"d": 1, "kind": "explicit",
                                      "elements": [[[[1.0, 0.0]]], [[[-1.0, 0.0]]]]}},
        {"kind": "fixed", "matrix": [[[h, 0.0], [h, 0.0]], [[h, 0.0], [-h, 0.0]]]},
        {"kind": "ensemble", "ensemble": {"d": 2, "kind": "product", "layers": [
            {"kind": "ensemble", "ensemble": {"d": 2, "kind": "explicit", "elements": [
                [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]]}},
            {"kind": "fixed", "matrix": [[[1.0, 0.0], [0.0, 0.0]],
                                         [[0.0, 0.0], [0.0, 1.0]]]}]}}]}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    e = designs.load_design(str(path))
    _assert_flat(e)
    assert [type(x).__name__ for x in e.layers] == [
        "EnsembleLayer", "EnsembleLayer", "FixedLayer", "EnsembleLayer", "FixedLayer"]
    assert e.size == 8
    got = e.sample(np.random.default_rng(11), 50)
    ref = _reference_sample(doc, np.random.default_rng(11), 50)
    assert np.abs(got - ref).max() <= 1e-15
    # and the 2-qubit circuit in its ctrl form samples bit for bit
    tables = _circuit_tables(2)
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(dict(_nested_circuit_doc(2, tables), format="exactrb-design")))
    got = designs.load_design(str(path)).sample(np.random.default_rng(4), 20)
    assert got.tobytes() == designs.build_qubit_circuit_design(2, 2, tables).sample(
        np.random.default_rng(4), 20).tobytes()
