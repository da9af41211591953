"""Acceptance suite: one test per numbered release criterion.

Each test computes its verdict, records a single PASS/FAIL line through
conftest.record_acceptance (replayed in the terminal summary), and then
asserts.  Tolerances and runtime budgets are part of the verdicts.
"""

import math
import time

import numpy as np

from conftest import record_acceptance
from exactrb import channels, designs, haar, irreps, paulis, rb


def _report(num, name, ok, detail, elapsed, budget):
    line = "criterion %2d %-34s %s  [%s; %.1f s of %.0f s]" % (
        num, name + ":", "PASS" if ok else "FAIL", detail, elapsed, budget)
    record_acceptance(line)
    assert ok, line


# -- 1: Haar moment projector self-consistency ------------------------------

EIG_RANK_MAX = 1024     # eigenvalue-count rank below this side
DENSE_MAX = 8192        # dense projector built below this side


def test_criterion_01_haar_projector_ranks():
    t0 = time.time()
    budget = 30.0
    fails = []
    worst = 0.0
    for d in (2, 3, 4):
        for t in (1, 2, 3, 4):
            side = d ** (2 * t)
            expected = haar.haar_frame_potential(d, t)
            if side > DENSE_MAX:
                # d=4, t=4: the Gram-rank value check below stands in for
                # the dense cell, which would need a 65536^2 matrix.
                continue
            m = haar.haar_moment_projector(d, t)
            herm = float(np.abs(m - m.conj().T).max())
            if side <= EIG_RANK_MAX:
                idem = float(np.abs(m @ m - m).max())
                rank = int((np.linalg.eigvalsh(m) > 0.5).sum())
            else:
                rng = np.random.default_rng(100 * d + t)
                idem = 0.0
                for _ in range(4):
                    x = rng.standard_normal(side) + 1j * rng.standard_normal(side)
                    x /= np.linalg.norm(x)
                    mx = m @ x
                    idem = max(idem, float(np.abs(m @ mx - mx).max()))
                tr = m.trace()
                rank = int(round(tr.real))
                if abs(tr - rank) > 1e-8:
                    fails.append("d=%d t=%d trace %r not integral" % (d, t, tr))
            worst = max(worst, herm, idem)
            if herm > 1e-10 or idem > 1e-10:
                fails.append("d=%d t=%d herm %.1e idem %.1e" % (d, t, herm, idem))
            if rank != expected:
                fails.append("d=%d t=%d rank %d != %d" % (d, t, rank, expected))
            del m
    if haar.haar_frame_potential(2, 4) != 14:
        fails.append("frame potential (2,4) != 14")
    if haar.haar_frame_potential(4, 4) != 24:
        fails.append("Gram rank (4,4) != 24")
    elapsed = time.time() - t0
    ok = not fails and elapsed < budget
    detail = fails[0] if fails else "worst residual %.1e, all ranks match" % worst
    _report(1, "haar projector ranks", ok, detail, elapsed, budget)


# -- 2: exact diagonal-unitary designs --------------------------------------

def test_criterion_02_w1_exactness():
    t0 = time.time()
    budget = 1.0
    worst = 0.0
    all_pass = True
    for t in range(1, 7):
        rep = designs.verify_strong_design(designs.w1(t), t, tol=1e-14,
                                           frame_potential_mode="skip")
        worst = max(worst, max(rep.residuals.values()))
        all_pass = all_pass and rep.passed
    elapsed = time.time() - t0
    ok = all_pass and worst < 1e-14 and elapsed < budget
    _report(2, "w1 exactness t<=6", ok, "worst residual %.1e" % worst,
            elapsed, budget)


# -- 3: recursive qudit designs ---------------------------------------------

def test_criterion_03_qudit_tower_designs():
    t0 = time.time()
    budget = 300.0
    e2 = designs.build_qudit_design(2, 2)
    rep2 = designs.verify_strong_design(e2, 2, tol=1e-10,
                                        frame_potential_mode="skip")
    r2 = max(rep2.residuals.values())
    e3 = designs.build_qudit_design(2, 3)
    rep3 = designs.verify_strong_design(e3, 3, tol=1e-9,
                                        frame_potential_mode="skip")
    r3 = max(rep3.residuals.values())
    elapsed = time.time() - t0
    ok = (e2.size == 729 and rep2.passed and r2 < 1e-10
          and e3.size == 65536 and rep3.passed and r3 < 1e-9
          and elapsed < budget)
    detail = "sizes %d/%d, residuals %.1e/%.1e" % (e2.size, e3.size, r2, r3)
    _report(3, "qudit tower designs", ok, detail, elapsed, budget)


# -- 4: icosahedral ensemble ------------------------------------------------

def test_criterion_04_icosahedral_design():
    t0 = time.time()
    budget = 10.0
    ico = designs.icosahedral_group()
    rep = designs.verify_strong_design(ico, 4, tol=1e-10, strong=False)
    res = max(rep.residuals.values())
    fp_dev = abs(rep.frame_potential - 14.0)
    elapsed = time.time() - t0
    ok = (ico.size == 60 and rep.passed and res < 1e-10 and fp_dev < 1e-9
          and elapsed < budget)
    detail = "residual %.1e, |fp-14| %.1e" % (res, fp_dev)
    _report(4, "icosahedral 4-design", ok, detail, elapsed, budget)


# -- 5: interleaved two-qubit Clifford construction -------------------------

def test_criterion_05_interleaved_clifford_design():
    t0 = time.time()
    budget = 600.0
    e = designs.interleaved_clifford_design()
    fp, _ = designs.frame_potential(e, 4, mode="interleaved-reduced")
    elapsed = time.time() - t0
    ok = abs(fp - 24.0) <= 1e-3 and elapsed < budget
    _report(5, "interleaved clifford design", ok,
            "reduced fp %.9f, |fp-24| %.1e" % (fp, abs(fp - 24.0)),
            elapsed, budget)


# -- 6: closed-form decay rates and reference digit tables -------------------

P_GRID = (0.01, 0.02, 0.1, 0.2, 0.4)
Q_GRID = (0.0, 0.5, 0.95, 1.0)

# frozen digit strings for the theory values at p = 0.01: decay rates
# (u, C_I, C_II, C_III) and processed metrics (F, u, H); each entry is the
# closed form rendered at its quoted precision.
TABLE_RATES = {
    0.0: ("0.97888", "0.97878", "0.9788000", "0.978773"),
    0.5: ("0.984160", "0.977465", "0.980120", "0.981413"),
    0.95: ("0.9979408", "0.974020", "0.983565", "0.988304"),
    1.0: ("1.0000000", "0.973505", "0.984080", "0.989333"),
}
TABLE_PROCESSED = {
    0.0: ("0.99200000", "0.97888", "1.0000"),
    0.5: ("0.9920000", "0.984160", "0.99010"),
    0.95: ("0.992000", "0.9979408", "0.96426"),
    1.0: ("0.992000", "1.0000000", "0.96040"),
}
DEVICE_PARAMS = ((9.724, 13.670), (12.634, 15.763))  # (T1, T2) per qubit


def test_criterion_06_decay_rate_closed_forms():
    t0 = time.time()
    budget = 120.0
    fails = []
    p1 = irreps.projector_set(1)
    p2 = irreps.projector_set(2)
    worst = 0.0
    for p in P_GRID:
        for q in Q_GRID:
            met1 = channels.noise1_closed_form(p, q)
            r1 = irreps.decay_rates(channels.noise1_model(p, q), p1)
            c2 = 0.9 * met1.f ** 2 - 0.2 * met1.u + 0.3 * met1.h
            worst = max(worst, abs(r1["0"] - met1.u), abs(r1["I"] - c2))
            cf = channels.noise2_closed_form(p, q)
            r2 = irreps.decay_rates(channels.noise2_model(p, q), p2)
            for lab, key in (("0", "u"), ("I", "C_I"), ("II", "C_II"),
                             ("III", "C_III")):
                worst = max(worst, abs(r2[lab] - cf[key]))
    if worst > 1e-12:
        fails.append("closed-form grid deviation %.1e" % worst)

    for q, strs in TABLE_RATES.items():
        r2 = irreps.decay_rates(channels.noise2_model(0.01, q), p2)
        vals = (r2["0"], r2["I"], r2["II"], r2["III"])
        for val, s in zip(vals, strs):
            dec = len(s.split(".")[1])
            got = "%.*f" % (dec, val)
            if got != s:
                fails.append("rate table q=%g: %s != %s" % (q, got, s))
    for q, strs in TABLE_PROCESSED.items():
        met = channels.metrics(channels.noise2_model(0.01, q))
        for val, s in zip((met.F, met.u, met.H), strs):
            dec = len(s.split(".")[1])
            got = "%.*f" % (dec, val)
            if got != s:
                fails.append("processed table q=%g: %s != %s" % (q, got, s))

    # relaxation-time phenomenology at realistic device parameters
    lw = 0.0
    for t1p, t2p in DEVICE_PARAMS:
        for delay in (0.1, 0.5):
            for chi, zz in ((0.0, False), (0.8, True)):
                l = channels.lindblad_ptm(t1p, t2p, chi=chi, delay=delay,
                                          include_zz=zz)
                met = channels.metrics(l)
                e1 = math.exp(-delay / t1p)
                e2 = math.exp(-delay / t2p)
                c = math.cos(chi * delay) if zz else 1.0
                cc = math.cos(2 * chi * delay) if zz else 1.0
                f_th = (2 * e2 * c + e1) / 3
                u_th = (2 * e2 ** 2 + e1 ** 2) / 3
                h_th = (2 * e2 ** 2 * cc + e1 ** 2) / 3
                h_cap = 1 - 0.75 * (u_th - h_th) - 0.5 * (1 - e1) ** 2
                lw = max(lw, abs(met.f - f_th), abs(met.u - u_th),
                         abs(met.h - h_th), abs(met.F - (f_th + 1) / 2),
                         abs(met.H - h_cap))
    if lw > 1e-12:
        fails.append("relaxation closed forms deviation %.1e" % lw)

    elapsed = time.time() - t0
    ok = not fails and elapsed < budget
    detail = fails[0] if fails else ("grid %.1e, tables exact, relaxation %.1e"
                                     % (worst, lw))
    _report(6, "decay-rate closed forms", ok, detail, elapsed, budget)


# -- 7: two-copy sector-sum identities --------------------------------------

def test_criterion_07_sector_sum_identities():
    t0 = time.time()
    budget = 120.0
    p1 = irreps.projector_set(1)
    p2 = irreps.projector_set(2)
    worst2 = 0.0
    for i in range(100):
        l = channels.random_cptp(4, 1 + i % 8, seed=700 + i).to_ptm()
        met = channels.metrics(l)
        r = irreps.decay_rates(l, p2)
        lhs = sum(p2.dims[lab] * r[lab] for lab in ("I", "II", "III"))
        rhs = 112.5 * met.f ** 2 - met.u + 7.5 * met.h
        worst2 = max(worst2, abs(lhs - rhs))
    worst1 = 0.0
    for i in range(100):
        l = channels.random_cptp(2, 1 + i % 4, seed=1700 + i).to_ptm()
        met = channels.metrics(l)
        r = irreps.decay_rates(l, p1)
        worst1 = max(worst1,
                     abs(r["I"] - (0.9 * met.f ** 2 - 0.2 * met.u + 0.3 * met.h)))
    elapsed = time.time() - t0
    ok = worst2 < 1e-12 and worst1 < 1e-12 and elapsed < budget
    detail = "two-qubit %.1e, single-qubit %.1e over 100 maps each" % (worst2, worst1)
    _report(7, "sector-sum identities", ok, detail, elapsed, budget)


# -- 8: metric bounds and self-adjointness identities ------------------------

def test_criterion_08_metric_bounds():
    t0 = time.time()
    budget = 120.0
    fails = []
    for d, q in ((2, 1), (4, 2)):
        lo = -1.0 / (d * d - 1)
        for i in range(100):
            k = channels.random_cptp(d, 1 + i % (d * d), seed=8000 + 1000 * q + i)
            l = k.to_ptm()
            met = channels.metrics(l)
            if not (lo - 1e-12 <= met.h <= met.u + 1e-12 <= 1 + 2e-12):
                fails.append("d=%d map %d: h/u ordering" % (d, i))
            bound = (d - 1) / d * math.sqrt((met.h + met.u) / 2) + 1 / d
            if met.F > bound + 1e-12:
                fails.append("d=%d map %d: fidelity bound" % (d, i))
            if abs(met.H - channels.self_adjointness_integral(l)) > 1e-12:
                fails.append("d=%d map %d: H integral identity" % (d, i))
            if abs(channels.kraus_self_adjointness_param(k) - met.h) > 1e-12:
                fails.append("d=%d map %d: Kraus-trace h" % (d, i))
        # high-fidelity consequence via convex blends with the identity
        ident = channels.identity_ptm(q)
        for i in range(50):
            k = channels.random_cptp(d, d, seed=8800 + 100 * q + i)
            mat = 0.99 * ident.matrix + 0.01 * k.to_ptm().matrix
            met = channels.metrics(channels.PTM(q=q, matrix=mat))
            eps = 1 - met.F
            if eps >= 0.01:
                fails.append("d=%d blend %d: eps %.3f not small" % (d, i, eps))
            if (met.h + met.u) / 2 < 1 - 4 * eps - 1e-12:
                fails.append("d=%d blend %d: high-fidelity lower bound" % (d, i))

    x = paulis.X
    sqrt_x = channels.metrics(channels.ptm_of_unitary(
        np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * x))
    if max(abs(sqrt_x.h + 1 / 3), abs(sqrt_x.F - 2 / 3), abs(sqrt_x.H)) > 1e-12:
        fails.append("sqrt-X channel metrics")
    full_x = channels.metrics(channels.ptm_of_unitary(x))
    if max(abs(full_x.F - 1 / 3), abs(full_x.H - 1)) > 1e-12:
        fails.append("X rotation metrics")
    elapsed = time.time() - t0
    ok = not fails and elapsed < budget
    detail = fails[0] if fails else "bounds, integrals and fixed points all exact"
    _report(8, "metric bounds and identities", ok, detail, elapsed, budget)


# -- 9: irrep projectors and overlap coefficients ----------------------------

TABLE_COEFFS = (
    ("zz_p00", (0.2, 0.8, 0.0, 0.0)),
    ("zz_zz", (16 / 15, 48 / 5, 16 / 3, 0.0)),
    ("rm_rm", (4 / 15, 41 / 15, 1 / 3, 2 / 3)),
)


def test_criterion_09_irrep_projectors():
    t0 = time.time()
    budget = 60.0
    fails = []
    p1 = irreps.projector_set(1)
    p2 = irreps.projector_set(2)
    if p1.dims != {"0": 1, "I": 5}:
        fails.append("single-qubit dims %r" % p1.dims)
    if p2.dims != {"0": 1, "I": 84, "II": 20, "III": 15}:
        fails.append("two-qubit dims %r" % p2.dims)
    rng = np.random.default_rng(909)
    for q, pset in ((1, p1), (2, p2)):
        labs = list(pset.labels)
        worst = 0.0
        for a in labs:
            pa = pset.projectors[a]
            worst = max(worst, float(np.abs(pa - pa.T).max()),
                        float(np.abs(pa @ pa - pa).max()),
                        abs(np.trace(pa) - pset.dims[a]))
            for b in labs:
                if b != a:
                    worst = max(worst, float(np.abs(pa @ pset.projectors[b]).max()))
        d = 2 ** q
        basis = paulis.pauli_basis(q)
        for _ in range(3):
            gs = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            v = np.linalg.qr(gs)[0]
            lv = np.einsum("mab,bc,ncd,ad->mn", basis, v, basis, v.conj()).real
            k2 = np.kron(lv, lv)
            for a in labs:
                pa = pset.projectors[a]
                worst = max(worst, float(np.abs(k2 @ pa - pa @ k2).max()))
        if worst > 1e-10:
            fails.append("q=%d projector algebra %.1e" % (q, worst))

    z = paulis.Z
    p0 = paulis.computational_projector("0")
    a1 = irreps.coefficients(z, p0, channels.identity_ptm(1), p1)
    if abs(a1["0"] - 1 / 3) > 1e-12:
        fails.append("single-qubit A0 %r" % a1["0"])
    ops = {
        "zz_p00": (np.kron(z, z), paulis.computational_projector("00")),
        "zz_zz": (np.kron(z, z), np.kron(z, z)),
        "rm_rm": (np.diag([1.0, 0, 0, -1.0]).astype(complex),) * 2,
    }
    ident2 = channels.identity_ptm(2)
    for name, expected in TABLE_COEFFS:
        o_ini, o_meas = ops[name]
        a = irreps.coefficients(o_ini, o_meas, ident2, p2)
        got = (a["0"], a["I"], a["II"], a["III"])
        if max(abs(g - e) for g, e in zip(got, expected)) > 1e-12:
            fails.append("%s coefficients %r" % (name, got))
    elapsed = time.time() - t0
    ok = not fails and elapsed < budget
    detail = fails[0] if fails else "dims, algebra, invariance and coefficients exact"
    _report(9, "irrep projectors", ok, detail, elapsed, budget)


# -- 10: sampled estimation pipeline -----------------------------------------

MC_LENGTHS = (1, 2, 3, 5, 8, 12, 18, 26, 38, 55, 80, 115, 165, 235, 335, 475)


def test_criterion_10_monte_carlo_pipeline():
    t0 = time.time()
    budget = 600.0
    fails = []
    ico = designs.icosahedral_group()
    noise = channels.noise1_model(0.02, 0.98)
    exact = channels.noise1_closed_form(0.02, 0.98)
    z = paulis.Z
    p0 = paulis.computational_projector("0")
    results = {}
    for eta in (0.0, 0.1, 0.3):
        spam = rb.SPAMModel(eta_prep=eta, eta_meas=eta) if eta else None
        c1 = rb.v_t_monte_carlo(rb.RBConfig(
            design=ico, noise=noise, t_order=1, sequence_lengths=MC_LENGTHS,
            n_sequences=1000, n_shots=1000, seed=1001,
            o_ini=z, o_meas=p0, spam=spam))
        c2 = rb.v_t_monte_carlo(rb.RBConfig(
            design=ico, noise=noise, t_order=2, sequence_lengths=MC_LENGTHS,
            n_sequences=1000, n_shots=1000, seed=2002,
            o_ini=z, o_meas=p0, spam=spam))
        results[eta] = rb.estimate_metrics_1q(c1, c2)
    base = results[0.0]
    devs = (abs(base.F - exact.F), abs(base.u - exact.u), abs(base.H - exact.H))
    for dev, box, name in zip(devs, (0.002, 0.002, 0.02), ("F", "u", "H")):
        if dev > box:
            fails.append("%s off by %.4f (box %.3f)" % (name, dev, box))
    worst_ratio = 0.0
    for eta in (0.1, 0.3):
        for key in ("F", "u", "H"):
            diff = abs(getattr(results[eta], key) - getattr(base, key))
            se = math.hypot(results[eta].stderr[key], base.stderr[key])
            worst_ratio = max(worst_ratio, diff / se)
            if diff > se:
                fails.append("spam eta=%g moves %s by %.1f sigma"
                             % (eta, key, diff / se))
    elapsed = time.time() - t0
    ok = not fails and elapsed < budget
    detail = fails[0] if fails else (
        "devs F %.5f u %.5f H %.5f, spam shift <= %.2f sigma"
        % (devs[0], devs[1], devs[2], worst_ratio))
    _report(10, "monte carlo pipeline", ok, detail, elapsed, budget)


# -- 11: sampled curves against exact curves ---------------------------------

def test_criterion_11_mc_matches_exact_curves():
    t0 = time.time()
    budget = 300.0
    fails = []
    ico = designs.icosahedral_group()
    c2g = designs.clifford_group(2)
    inter = designs.interleaved_clifford_design()
    z = paulis.Z
    p0 = paulis.computational_projector("0")
    zz = np.kron(z, z)
    p00 = paulis.computational_projector("00")
    p1 = irreps.projector_set(1)
    p2 = irreps.projector_set(2)
    configs = (
        ("1q order-1 random", ico, channels.random_cptp(2, 3, seed=101).to_ptm(),
         1, (1, 2, 3, 5, 8), 9111, z, p0, p1),
        ("1q order-2 random", ico, channels.random_cptp(2, 2, seed=102).to_ptm(),
         2, (1, 2, 3, 5, 8), 9222, z, p0, p1),
        ("1q order-2 mixed", ico, channels.noise1_model(0.1, 0.7),
         2, (1, 3, 6, 10), 9333, z, z, p1),
        ("2q order-1 random", c2g, channels.random_cptp(4, 4, seed=104).to_ptm(),
         1, (1, 2, 4), 9444, zz, p00, p2),
        ("2q order-2 mixed", inter, channels.noise2_model(0.05, 0.9),
         2, (1, 2, 4), 9555, zz, p00, p2),
    )
    worst = 0.0
    for name, design, noise, t_ord, ms, seed, o_ini, o_meas, pset in configs:
        curve = rb.v_t_monte_carlo(rb.RBConfig(
            design=design, noise=noise, t_order=t_ord, sequence_lengths=ms,
            n_sequences=10_000, n_shots=0, seed=seed,
            o_ini=o_ini, o_meas=o_meas))
        if t_ord == 1:
            ref = rb.v1_exact(noise, o_ini, o_meas, ms)
        else:
            ref = rb.v2_exact(noise, o_ini, o_meas, ms, pset, noisy_inverse=True)
        pulls = np.abs(curve.values - ref.values) / curve.stderrs
        worst = max(worst, float(pulls.max()))
        if (pulls > 3.0).any():
            fails.append("%s: max pull %.2f sigma" % (name, pulls.max()))
    elapsed = time.time() - t0
    ok = not fails and elapsed < budget
    detail = fails[0] if fails else "5 configs, worst pull %.2f sigma" % worst
    _report(11, "sampled vs exact curves", ok, detail, elapsed, budget)
