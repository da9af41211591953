"""Randomized-benchmarking engine built on exact unitary designs.

The protocol: sample m unitaries from the design, apply them as noisy
channels G_i = E.U_i, append the exact inverse of the product as one more
noisy step, and measure.  Averaging the t-th power of the expectation
value over sequences produces a sum of exponential decays whose rates are
the irreducible-sector decay rates of the noise; fitting them recovers the
fidelity, unitarity and self-adjointness metrics.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import channels, designs, irreps, paulis

HERM_TOL = 1e-10
TRACE_TOL = 1e-10

# fitter knobs: every start-grid combination is refined at once by
# projected Levenberg-Marquardt (_refine) for at most FIT_BUDGET
# iterations, to a relative step or chi^2 change of SOLVER_TOL; _DAMPING is
# its damping's initial value, floor and cap, _DAMPING_STEP the factor a
# rejected step multiplies it by, and _BEATEN how many times its last chi^2
# decrease a start may lie above the best before it stops; a rate gap
# below GAP_TOL or a weighted Jacobian whose condition number exceeds
# COND_TOL is reported as ill-conditioned rather than trusted
FIT_BUDGET = 10 ** 4
SOLVER_TOL = 1e-15
GAP_TOL = 1e-4
COND_TOL = 1e8
_DAMPING = (1e-2, 1e-12, 1e16)
_DAMPING_STEP = 10.0
_BEATEN = 100.0
_START_GRID = (0.05, 0.2, 0.4, 0.6, 0.75, 0.86, 0.93, 0.97, 0.99, 0.999)


@dataclass(frozen=True)
class SPAMModel:
    """State-preparation and readout bit-flip errors (single qubit).

    eta_prep mixes each prepared eigenstate with its bit-flipped partner.
    eta_meas holds the conditional readout flip probabilities; a scalar
    means a symmetric flip, a pair is (P(read 1 | true 0), P(read 0 |
    true 1)).  Readout bit k is the k-th measurement eigenvector, ordered
    by decreasing overlap with |0>.
    """

    eta_prep: float = 0.0
    eta_meas: float | tuple[float, float] = 0.0

    def __post_init__(self):
        probs = [self.eta_prep, *self.meas_pair()]
        for p in probs:
            if not 0.0 <= p <= 1.0:
                raise ValueError("SPAM probabilities must lie in [0, 1]")

    def meas_pair(self) -> tuple[float, float]:
        if isinstance(self.eta_meas, (int, float)):
            return (float(self.eta_meas), float(self.eta_meas))
        a, b = self.eta_meas
        return (float(a), float(b))

    def prep_matrix(self) -> np.ndarray:
        """Transfer matrix of the preparation bit-flip channel."""
        e = self.eta_prep
        return np.diag([1.0, 1.0, 1.0 - 2 * e, 1.0 - 2 * e])

    def readout_matrix(self) -> np.ndarray:
        """Column-stochastic confusion matrix acting on outcome bits."""
        a, b = self.meas_pair()
        return np.array([[1.0 - a, b], [a, 1.0 - b]])


@dataclass(frozen=True)
class RBConfig:
    design: designs.UnitaryEnsemble
    noise: channels.PTM
    t_order: int
    sequence_lengths: tuple
    n_sequences: int
    n_shots: int
    seed: int
    o_ini: np.ndarray
    o_meas: np.ndarray
    spam: SPAMModel | None = None
    verify_design: bool = False

    def __post_init__(self):
        if self.t_order not in (1, 2):
            raise ValueError("t_order must be 1 or 2")
        ms = tuple(int(m) for m in self.sequence_lengths)
        object.__setattr__(self, "sequence_lengths", ms)
        if any(m < 1 for m in ms) or list(ms) != sorted(set(ms)):
            raise ValueError("sequence lengths must be >= 1 and strictly increasing")
        if self.n_sequences < 2:
            raise ValueError("need at least two sequences for a jackknife")
        if self.n_shots < 0:
            raise ValueError("n_shots must be >= 0 (0 = exact expectation)")
        d = self.design.d
        if d & (d - 1) != 0:
            raise ValueError("RB runs on qubit systems (d must be a power of 2)")
        if self.noise.d != d:
            raise ValueError("noise dimension does not match the design")
        for name, op in (("o_ini", self.o_ini), ("o_meas", self.o_meas)):
            op = np.asarray(op, dtype=complex)
            if op.shape != (d, d):
                raise ValueError(f"{name} must be {d}x{d}")
            if np.abs(op - op.conj().T).max() > HERM_TOL:
                raise ValueError(f"{name} must be Hermitian")
            object.__setattr__(self, name, op)
        if self.t_order == 2 and abs(np.trace(self.o_ini)) > TRACE_TOL:
            raise ValueError("o_ini must be traceless for second-order RB")
        if self.spam is not None and d != 2:
            raise ValueError("the SPAM model is single-qubit only")
        if self.verify_design:
            report = designs.verify_strong_design(
                self.design, 2 * self.t_order, strong=False)
            if not report.passed:
                raise ValueError(
                    "design failed certification at t = %d" % (2 * self.t_order))


@dataclass(frozen=True)
class DecayCurve:
    """Decay data points (m, V, stderr, n_sequences, n_shots)."""

    points: tuple

    def __post_init__(self):
        pts = tuple((int(m), float(v), float(se), int(ns), int(sh))
                    for m, v, se, ns, sh in self.points)
        object.__setattr__(self, "points", pts)
        ms = [p[0] for p in pts]
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("sequence lengths must be strictly increasing")
        if any(p[2] < 0 for p in pts):
            raise ValueError("stderr must be nonnegative")

    @property
    def ms(self) -> np.ndarray:
        return np.array([p[0] for p in self.points], dtype=float)

    @property
    def values(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])

    @property
    def stderrs(self) -> np.ndarray:
        return np.array([p[2] for p in self.points])

    def to_csv(self, path: str, manifest_digest: str | None = None) -> None:
        """Write the points as CSV with LF line ends, after a
        "# manifest: <digest>" line when a manifest digest is given."""
        with open(path, "w", newline="") as fh:
            if manifest_digest is not None:
                fh.write("# manifest: %s\n" % manifest_digest)
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["m", "V", "stderr", "n_sequences", "n_shots"])
            for m, v, se, ns, sh in self.points:
                w.writerow([m, "%.17g" % v, "%.17g" % se, ns, sh])

    @classmethod
    def from_csv(cls, path: str) -> "DecayCurve":
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh)
                    if r and not r[0].lstrip().startswith("#")]
        if not rows or rows[0] != ["m", "V", "stderr", "n_sequences", "n_shots"]:
            raise ValueError("not a decay-curve file: %s" % path)
        pts = [(int(r[0]), float(r[1]), float(r[2]), int(r[3]), int(r[4]))
               for r in rows[1:]]
        return cls(points=tuple(pts))

    def to_json_dict(self) -> dict:
        return {"points": [list(p) for p in self.points]}


@dataclass(frozen=True)
class FitResult:
    """Exponential-sum fit.  amplitudes[k] pairs with rates[k]; the
    covariance is ordered (all amplitudes, then the free rates)."""

    amplitudes: tuple
    rates: tuple
    residual_norm: float
    covariance: np.ndarray
    flags: tuple = ()
    n_evaluations: int = 0

    def rate_stderr(self, k: int, n_known: int) -> float:
        """Stderr of rates[k] given that the first n_known were pinned."""
        if k < n_known:
            return 0.0
        idx = len(self.amplitudes) + (k - n_known)
        return math.sqrt(max(self.covariance[idx, idx], 0.0))


@dataclass(frozen=True)
class EstimatedMetrics:
    f: float
    F: float
    u: float
    h: float
    H: float
    stderr: dict
    rates: dict
    rate_stderr: dict
    flags: tuple
    alpha_norm_sq: float


# Memory budget of one block of Monte Carlo sequences, and of a group
# design's M table.  The block size depends only on the config, m and
# whether a table is used, so reruns split the work identically; a
# sequence's values do not depend on it.
BLOCK_BYTES = 32 * 2 ** 20
# outcome probabilities below this are not rounding error: the noise is
# not completely positive
NEG_PROB_TOL = 1e-9


def _block_size(rt: _Runtime, m: int, n: int, table: bool) -> int:
    if table:
        # m element indices, plus one gathered real M per step
        per_sequence = m * 8 + 8 * rt.d ** 4
    else:
        # the m sampled gates and the density matrices (see _Runtime)
        per_sequence = m * rt.gate_bytes + rt.state_bytes
    return max(1, min(n, BLOCK_BYTES // per_sequence))


def _stream(seed: int, m: int, i: int) -> np.random.Generator:
    """Counter-based stream of sequence i at length m."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, m, i))))


def _m_table(design: designs.UnitaryEnsemble, noise_mat: np.ndarray) -> np.ndarray:
    """M_h = L_h^T N L_h for every element h of an explicit design.

    Built a chunk of elements at a time, so that the table (8 d^4 bytes per
    element) and one chunk's transfer matrices (channels.transfer_matrices
    peaks at 32 d^4 bytes per element) stay within BLOCK_BYTES, up to the
    kernel's fixed buffers, when the table leaves room for one element.
    """
    d = design.d
    table = np.empty((design.size, d * d, d * d))
    chunk = max(1, (BLOCK_BYTES - table.nbytes) // (32 * d ** 4 + 16 * d ** 2))
    for start in range(0, design.size, chunk):
        ls = channels.transfer_matrices(design.elements[start:start + chunk]).real
        np.matmul(ls.transpose(0, 2, 1) @ noise_mat, ls, out=table[start:start + chunk])
        del ls  # freed before the next chunk's kernel runs
    return table


class _Runtime:
    """Per-config precomputation shared across sequences.

    A length takes the M table of a design (table_for) only when the design
    is a checked group (UnitaryEnsemble.is_group), its table fits
    BLOCK_BYTES, and the length's sequences draw at least as many gates as
    the group has elements.  The choice rests on that length alone, so the
    values at one length do not depend on which other lengths run.  Any
    other length is propagated physically, as density matrices.

    tables holds the M tables built so far by (design object, noise), so
    that the curves of one run share them; a new dict when None.
    """

    def __init__(self, config: RBConfig, tables: dict | None = None):
        self.design = config.design
        self.d = d = config.design.d
        self.noise_mat = config.noise.matrix
        self._tables = {} if tables is None else tables

        # initial operator as a weighted sum of eigenstate preparations
        w, vecs = np.linalg.eigh(config.o_ini)
        keep = np.abs(w) > 1e-12
        self.prep_weights = w[keep]
        preps = []
        for j in np.nonzero(keep)[0]:
            rho = np.outer(vecs[:, j], vecs[:, j].conj())
            preps.append(paulis.to_basis_vec(rho).real)
        self.prep_vecs = np.array(preps).T  # (d^2, n_prep)
        if config.spam is not None:
            self.prep_vecs = config.spam.prep_matrix() @ self.prep_vecs

        # the physical path's density matrices, as row-major vec(rho) = W c
        # for Pauli coordinates c; the noise acts on vec(rho) as the
        # superoperator W N W^dag, applied from the right as its transpose
        w = paulis.vec_basis_matrix(d)
        self.prep_rhos = (self.prep_vecs.T @ w.T).reshape(-1, d, d)
        self.noise_super_t = (w @ self.noise_mat @ w.conj().T).T.copy()
        self.to_pauli = w.conj()  # vec(rho)^T conj(W) = (W^dag vec(rho))^T
        # bytes a sequence holds on the physical path, per sampled gate: at
        # most 4 d^2 complex entries in sample_streams (the running product,
        # and a layer of side k's gathered stack, its columns as rows and the
        # einsum's output), or one gathered stack of an explicit design, and
        # two int64 indices per stack layer; and for the states: n_prep
        # density matrices with up to three temporaries of them in a step,
        # plus the running product, its successor and one gate's adjoint
        if self.design.kind == "explicit":
            self.gate_bytes = 16 * d * d + 8
        else:
            stacks = sum(isinstance(x, designs.EnsembleLayer) for x in self.design.layers)
            self.gate_bytes = 64 * d * d + 16 * stacks
        self.state_bytes = 64 * len(self.prep_weights) * d * d + 48 * d * d

        # measurement eigenbasis; bit k = k-th eigenvector by decreasing
        # overlap with |0...0>
        ev, evec = np.linalg.eigh(config.o_meas)
        order = np.argsort(-np.abs(evec[0, :]) ** 2, kind="stable")
        self.outcome_values = ev[order]
        proj_rows = []
        for k in order:
            pk = np.outer(evec[:, k], evec[:, k].conj())
            proj_rows.append(paulis.to_basis_vec(pk).real)
        self.outcome_projs = np.array(proj_rows)  # (d, d^2)
        self.readout = None
        if config.spam is not None:
            self.readout = config.spam.readout_matrix()

    def table_for(self, draws: int) -> np.ndarray | None:
        """The M table (_m_table) for a length that draws `draws` gates, or
        None for physical propagation.  The group check runs only when the
        table would pay, and the table is built once per tables dict."""
        design = self.design
        if not (design.kind == "explicit" and design.size <= draws
                and design.size * 8 * self.d ** 4 <= BLOCK_BYTES and design.is_group):
            return None
        # the entry holds the design, so its id is not reused while it lives
        key = (id(design), self.noise_mat.tobytes())
        if key not in self._tables:
            self._tables[key] = (design, _m_table(design, self.noise_mat))
        return self._tables[key][1]


def _conjugate(rho: np.ndarray, gh: np.ndarray) -> np.ndarray:
    """g rho g^dag for a stack of Hermitian rho (block, n_prep, d, d), given
    the stack gh = g^dag (block, d, d).

    Computed as (rho g^dag)^dag g^dag, so that both products stack one
    sequence's n_prep states as rows: one GEMM per sequence each.  This is
    g rho^dag g^dag, which differs from g rho g^dag at rounding level, as
    much as rho differs from its adjoint.
    """
    b, p, d, _ = rho.shape
    z = (rho.reshape(b, p * d, d) @ gh).reshape(b, p, d, d)
    return (z.conj().transpose(0, 1, 3, 2).reshape(b, p * d, d) @ gh).reshape(b, p, d, d)


def _run_block(config: RBConfig, rt: _Runtime, table: np.ndarray | None, m: int,
               rngs: list, first: int) -> np.ndarray:
    """Measured values of the sequences first, first + 1, ... of length m,
    through the M table when one is given.

    rngs[j] is the stream of sequence first + j.  Each stream draws its m
    gates, then, after the whole block has been propagated, its shots, so
    the draws do not depend on how sequences are grouped into blocks.
    """
    state = rt.prep_vecs  # broadcast to (block, d^2, n_prep) by the first step
    if table is not None:
        # the draws of UnitaryEnsemble.sample, read as the running products
        # h_k = g_k ... g_1.  Since L_(g_k) = L_(h_k) L_(h_(k-1))^T, the noisy
        # sequence with its noisy inverse is N M_(h_m) ... M_(h_1).
        idx = np.array([rng.integers(len(table), size=m) for rng in rngs]).T.copy()
        for k in range(m):
            state = table.take(idx[k], axis=0) @ state
    else:
        # for an explicit design, sample_streams draws the same indices.
        # Every product below is a stacked matmul over one sequence's
        # slices, whose rows are counted by d or n_prep, never by the block,
        # so a sequence has the same bits in any block.
        d, b = rt.d, len(rngs)
        units = designs.sample_streams(config.design, rngs, m)
        rho = np.broadcast_to(rt.prep_rhos, (b, *rt.prep_rhos.shape))
        prod = units[:, 0]
        for k in range(m):
            g = units[:, k]
            if k:
                prod = g @ prod
            rho = _conjugate(rho, g.conj().transpose(0, 2, 1))
            rho = (rho.reshape(b, -1, d * d) @ rt.noise_super_t).reshape(rho.shape)
        rho = _conjugate(rho, prod)
        state = (rho.reshape(b, -1, d * d) @ rt.to_pauli).real.transpose(0, 2, 1)
    state = rt.noise_mat @ state

    probs = rt.outcome_projs @ state  # (block, d outcomes, n_prep)
    if rt.readout is not None:
        probs = rt.readout @ probs
    low = probs.min(axis=(1, 2))
    if low.min() < -NEG_PROB_TOL:
        j = int(np.nonzero(low < -NEG_PROB_TOL)[0][0])
        raise ValueError(
            "outcome probability %.3g < 0 at m = %d, sequence %d: "
            "the noise is not completely positive" % (low[j], m, first + j))
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)

    if config.n_shots == 0:
        means = rt.outcome_values @ probs
    else:
        means = np.empty((len(rngs), probs.shape[2]))
        for j, rng in enumerate(rngs):
            for p in range(probs.shape[2]):
                counts = rng.multinomial(config.n_shots, probs[j, :, p])
                means[j, p] = (rt.outcome_values @ counts) / config.n_shots
    # a fixed-order sum per row: a matrix-vector product would round by
    # the block's row count
    return (means * rt.prep_weights).sum(axis=1)


def _jackknife_stderr(x: np.ndarray) -> float:
    n = x.size
    loo = (x.sum() - x) / (n - 1)
    return math.sqrt((n - 1) / n * ((loo - loo.mean()) ** 2).sum())


def v_t_monte_carlo(config: RBConfig, tables: dict | None = None) -> DecayCurve:
    """Estimate V^(t)(m) = E[<O>^t] over random sequences.

    A sequence is m random gates plus the noisy inverse of their product;
    its value is the measured expectation of o_meas, exact when n_shots =
    0 and otherwise the mean of n_shots sampled eigenvalues.  For a
    multi-eigenstate o_ini the same sequence is run once per eigenstate
    and the expectation values are combined with the eigenvalue weights
    (the difference-before-squaring form when o_ini is a state pair).
    Each (m, sequence index) pair gets its own counter-based stream, so
    results are bit-identical for a given seed regardless of evaluation
    order, block size or thread count.  All sequences of one length
    advance together, in blocks whose size follows from BLOCK_BYTES, the
    config and m alone, which bounds memory for long two-qubit runs.

    Two paths, chosen per length from the design and n_sequences * m alone
    (see _Runtime): on a checked group whose M table fits BLOCK_BYTES and
    pays at this length, the draws are read as the running products h_k,
    i.i.d. uniform on the group, and each step applies one gathered
    M_h = L_h^T N L_h, with one final N and no inverse step; every other
    length, non-group explicit design and product design is propagated
    physically: the block's gates are drawn by designs.sample_streams, and
    each step takes the density matrices to g rho g^dag and applies the
    noise as the superoperator W N W^dag on vec(rho); the running product
    P gives the inverse step P^dag rho P and one final N.  Both give the
    same estimator distribution; group lengths agree with physical
    propagation of the gates g_k = h_k h_(k-1)^dag at rounding level, not
    bit for bit, and reruns are bit-identical on both paths.  tables, a
    dict the caller keeps for one run, lets the curves of that run share
    their M tables.  Raises ValueError naming m and the sequence index
    when an outcome probability is negative beyond rounding (noise that is
    not completely positive).
    """
    n = config.n_sequences
    rt = _Runtime(config, tables)
    pts = []
    for m in config.sequence_lengths:
        vals = np.empty(n)
        table = rt.table_for(n * m)
        size = _block_size(rt, m, n, table is not None)
        for start in range(0, n, size):
            stop = min(start + size, n)
            rngs = [_stream(config.seed, m, i) for i in range(start, stop)]
            vals[start:stop] = _run_block(config, rt, table, m, rngs, start)
        powered = vals ** config.t_order
        pts.append((m, powered.mean(), _jackknife_stderr(powered),
                    n, config.n_shots))
    return DecayCurve(points=tuple(pts))


def v2_exact(noise: channels.PTM, o_ini: np.ndarray, o_meas: np.ndarray,
             m_list, projector_set: irreps.IrrepProjectorSet,
             noisy_inverse: bool = True) -> DecayCurve:
    """Exact V^(2)(m) = sum_lambda A_lambda C_lambda^m.

    With noisy_inverse the coefficients carry the noise of the final
    inverse step applied to o_meas (the exact protocol).  Setting it
    False uses the bare o_meas instead, the high-fidelity approximation
    under which the tabulated rational coefficients are exact and curves
    collapse to their ideal term count.
    """
    if noisy_inverse:
        a = irreps.coefficients(o_ini, o_meas, noise, projector_set)
    else:
        ident = channels.identity_ptm(projector_set.q)
        a = irreps.coefficients(o_ini, o_meas, ident, projector_set)
    c = irreps.decay_rates(noise, projector_set)
    pts = []
    for m in m_list:
        v = sum(a[lab] * c[lab] ** m for lab in projector_set.labels)
        pts.append((int(m), v, 0.0, 0, 0))
    return DecayCurve(points=tuple(pts))


def _v1_boundary(noise: channels.PTM, o_ini: np.ndarray, o_meas: np.ndarray):
    """Boundary vectors of a first-order curve, <<E^dag(O)| and |rho>> in
    Pauli coordinates, and the noise fidelity f."""
    ov = paulis.to_basis_vec(np.asarray(o_meas, dtype=complex))
    iv = paulis.to_basis_vec(np.asarray(o_ini, dtype=complex))
    if max(np.abs(ov.imag).max(), np.abs(iv.imag).max()) > 1e-12:
        raise ValueError("operators must be Hermitian")
    return noise.matrix.T @ ov.real, iv.real, channels.metrics(noise).f


def v1_exact(noise: channels.PTM, o_ini: np.ndarray, o_meas: np.ndarray,
             m_list) -> DecayCurve:
    """Exact first-order decay A0 + A1 f^m.

    The boundary vector carries the noise applied to the measurement
    operator in the Heisenberg picture, <<O|L_E = <<E^dag(O)|.
    """
    w, iv, f = _v1_boundary(noise, o_ini, o_meas)
    a0 = w[0] * iv[0]
    a1 = float(w[1:] @ iv[1:])
    pts = [(int(m), a0 + a1 * f ** m, 0.0, 0, 0) for m in m_list]
    return DecayCurve(points=tuple(pts))


def v1_approx_design(noise: channels.PTM, o_ini: np.ndarray, o_meas: np.ndarray,
                     m_list, perturbation: np.ndarray, epsilon: float) -> DecayCurve:
    """First-order decay under a perturbed average channel.

    Evaluates <<E^dag(O)| (L_av + eps*P)^m |rho>> by exact matrix powers,
    where L_av is the exactly twirled noise (identity component plus f on
    the traceless block).  At eps = 0 this reproduces v1_exact; at finite
    eps the curve is no longer a single exponential.
    """
    d2 = noise.matrix.shape[0]
    p = np.asarray(perturbation, dtype=float)
    if p.shape != (d2, d2):
        raise ValueError("perturbation must be a %dx%d transfer matrix" % (d2, d2))
    w, iv, f = _v1_boundary(noise, o_ini, o_meas)
    l_av = np.eye(d2) * f
    l_av[0, 0] = 1.0
    gen = l_av + epsilon * p
    pts = []
    for m in m_list:
        v = float(w @ np.linalg.matrix_power(gen, int(m)) @ iv)
        pts.append((int(m), v, 0.0, 0, 0))
    return DecayCurve(points=tuple(pts))


def _design(ms, w, rates):
    """Weighted design matrices X[..., m, k] = w_m r_k^m of a stack of rate
    vectors (..., n)."""
    return rates[..., None, :] ** ms[:, None] * w[:, None]


def _project(xw, wy):
    """Variable projection of the weighted data wy onto a stack of weighted
    design matrices (S, M, n).

    One batched SVD gives the least-squares amplitudes (S, n), orthonormal
    bases of the column spaces (S, M, n), with the columns below lstsq's
    rank cutoff zeroed, and the weighted residuals X a - wy (S, M).
    """
    u, s, vt = np.linalg.svd(xw, full_matrices=False)
    keep = s > np.finfo(float).eps * max(xw.shape[-2:]) * s[:, :1]
    u = u * keep[:, None, :]
    coef = np.einsum("smk,m->sk", u, wy)
    amps = np.einsum("skn,sk->sn", vt, coef / np.where(keep, s, 1.0))
    return amps, u, np.einsum("smk,sk->sm", u, coef) - wy


def _rate_derivatives(ms, w, rates, amps):
    """Weighted derivative of the model along each rate, one column each,
    for a rate vector (n,) or a stack of them (S, n)."""
    return amps[..., None, :] * ms[:, None] * rates[..., None, :] ** (ms[:, None] - 1) * w[:, None]


def _start_combinations(n_free):
    """Every descending choice of n_free distinct start-grid rates (of an
    evenly spaced grid of n_free rates when the start grid is shorter)."""
    grid = _START_GRID
    if n_free > len(grid):
        grid = tuple(np.linspace(grid[0], grid[-1], n_free))
    return np.array(list(itertools.combinations(grid[::-1], n_free)))


def _tie_level(chi2, wy):
    """The chi^2 up to which another fit ties with chi2 at rounding level:
    1e-9 relative plus 1e-12 ||w y||^2."""
    return chi2 * (1.0 + 1e-9) + 1e-12 * float(wy @ wy)


def _refine(ms, wy, w, known, starts):
    """Refine every start (S, F) at once by projected Levenberg-Marquardt.

    Each iteration forms Kaufman's Jacobian P_perp D of every running start
    from its column basis, solves the Marquardt-scaled damped normal
    equations of all of them in one call, clips the steps to [0, 1] and
    evaluates all trial points in one batched projection.  A step past 0
    goes to a tenth of the rate instead: at 0 the rate's column vanishes
    and chi^2 jumps, so trials clipped there would be rejected while the
    damping grows and freezes the other rates.  A rate at 1 whose gradient
    pushes outward is held there.  The damping follows the gain ratio of
    actual to predicted chi^2 decrease (Nielsen's rule) above the floor of
    _DAMPING, and is multiplied by _DAMPING_STEP after a rejected step.  A
    start stops when its step or its chi^2 change falls
    below SOLVER_TOL (relative), when its damping passes the cap, or when
    it is beaten: its chi^2, less _BEATEN times its last decrease, lies
    above the tie level of the lowest chi^2 reached.  Returns the final free
    rates and chi^2, the starts' own chi^2 (their scores), which starts
    still ran after FIT_BUDGET iterations, and the number of chi^2
    evaluations.
    """
    n_starts, n_free = starts.shape
    lam0, floor, cap = _DAMPING

    def evaluate(x):
        rates = np.concatenate([np.broadcast_to(known, (len(x), known.size)), x], axis=1)
        amps, basis, res = _project(_design(ms, w, rates), wy)
        return amps[:, known.size:], basis, res, np.einsum("sm,sm->s", res, res)

    x = starts.astype(float)
    amps, basis, res, chi2 = evaluate(x)
    scores = chi2.copy()
    final_x, final_chi2 = x.copy(), chi2.copy()
    running = np.ones(n_starts, dtype=bool)
    live = np.arange(n_starts)
    lam = np.full(n_starts, lam0)
    gain = np.full(n_starts, np.inf)
    nfev = n_starts
    for _ in range(FIT_BUDGET):
        if live.size == 0:
            break
        jac = _rate_derivatives(ms, w, x, amps)
        jac -= basis @ (basis.transpose(0, 2, 1) @ jac)
        grad = np.einsum("smf,sm->sf", jac, res)
        hess = jac.transpose(0, 2, 1) @ jac
        diag = np.einsum("sff->sf", hess)
        held = ((x >= 1.0) & (grad < 0.0)) | (diag <= 0.0)
        scale = np.where(held, 0.0, 1.0 / np.sqrt(np.where(held, 1.0, diag)))
        system = hess * scale[:, :, None] * scale[:, None, :] + lam[:, None, None] * np.eye(n_free)
        step = -scale * np.linalg.solve(system, (grad * scale)[:, :, None])[:, :, 0]
        trial = np.where(x + step < 0.0, 0.1 * x, np.minimum(x + step, 1.0))
        step = trial - x
        t_amps, t_basis, t_res, t_chi2 = evaluate(trial)
        nfev += live.size
        drop = chi2 - t_chi2
        better = drop > 0.0
        # chi^2 decrease that the linearised residual r + J step predicts
        pred = -np.einsum("sf,sf->s", step, 2.0 * grad + np.einsum("sfg,sg->sf", hess, step))
        # clipped to [0, 1]: past 1 the factor is 1/3 anyway, and a huge
        # ratio would overflow the cube
        rho = np.clip(np.where(pred > 0.0, drop / np.where(pred > 0.0, pred, 1.0), 0.0), 0.0, 1.0)
        lam = np.where(better, np.maximum(lam * np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), floor),
                       lam * _DAMPING_STEP)
        gain = np.where(better, drop, gain)
        small = np.sqrt(np.einsum("sf,sf->s", step, step)) <= SOLVER_TOL * (
            SOLVER_TOL + np.sqrt(np.einsum("sf,sf->s", x, x)))
        x = np.where(better[:, None], trial, x)
        amps = np.where(better[:, None], t_amps, amps)
        basis = np.where(better[:, None, None], t_basis, basis)
        res = np.where(better[:, None], t_res, res)
        chi2 = np.where(better, t_chi2, chi2)
        tie = _tie_level(min(chi2.min(), final_chi2[~running].min(initial=np.inf)), wy)
        done = (small | (np.abs(drop) <= SOLVER_TOL * chi2) | (lam > cap)
                | (chi2 - _BEATEN * gain > tie))
        if done.any():
            final_x[live[done]], final_chi2[live[done]] = x[done], chi2[done]
            running[live[done]] = False
            keep = ~done
            live, x, amps, basis, res, chi2, lam, gain = (
                live[keep], x[keep], amps[keep], basis[keep], res[keep], chi2[keep],
                lam[keep], gain[keep])
    final_x[live], final_chi2[live] = x, chi2
    return final_x, final_chi2, scores, running, nfev


def fit_exponentials(curve: DecayCurve, n_terms: int,
                     known_rates=None) -> FitResult:
    """Fit V(m) = sum_k A_k r_k^m with r_k in [0, 1].

    Variable projection (Golub & Pereyra, Inverse Problems 19 (2003) R1):
    the amplitudes are solved by weighted linear least squares inside the
    residual, so only the free rates are searched.  Every combination of
    distinct start-grid rates is scored by its chi^2 and refined, all at
    once, by projected Levenberg-Marquardt with Kaufman's Jacobian
    (_refine).  The lowest chi^2 wins; a tie at rounding level, chi^2 within
    1e-9 relative plus 1e-12 ||w y||^2 of the lowest, goes to the
    best-scored start.  Pinned rates come first in the returned tuple; free
    rates follow, sorted in decreasing order.

    Flags: "non_converged" when the winning start was still running after
    FIT_BUDGET iterations; "ill_conditioned" when two rates lie closer
    than GAP_TOL or the condition number of the weighted Jacobian exceeds
    COND_TOL, which a term the data cannot identify (one whose amplitude
    vanishes or whose rate is near 0) causes.  n_evaluations counts chi^2
    evaluations, the scored starts included.
    """
    known = np.array(known_rates or [], dtype=float)
    if np.any((known < 0.0) | (known > 1.0)):
        raise ValueError("rates must lie in [0, 1]")
    n_known = known.size
    n_free = n_terms - n_known
    if n_free < 0:
        raise ValueError("more pinned rates than terms")
    ms = curve.ms
    y = curve.values
    if ms.size < 2 * n_terms + 1:
        raise ValueError("need at least 2*n_terms + 1 points")
    se = curve.stderrs
    weighted = bool(np.all(se > 0))
    w = 1.0 / se if weighted else np.ones_like(y)
    wy = y * w

    flags = []
    nfev = 0
    free = np.empty(0)
    if n_free > 0:
        x, chi2, scores, running, nfev = _refine(ms, wy, w, known, _start_combinations(n_free))
        order = np.argsort(scores, kind="stable")
        best = order[np.argmax(chi2[order] <= _tie_level(chi2.min(), wy))]
        free = np.sort(x[best])[::-1]
        if running[best]:
            flags.append("non_converged")

    rates = np.concatenate([known, free])
    xw = _design(ms, w, rates)
    amps, _, res = (a[0] for a in _project(xw[None], wy))
    rss = float(res @ res)

    # weighted Jacobian in (amplitudes, free rates) order, for the
    # condition rule and the Gauss-Newton covariance
    jw = np.hstack([xw, _rate_derivatives(ms, w, free, amps[n_known:])])
    gaps = [abs(a - b) for i, a in enumerate(rates) for b in rates[i + 1:]]
    if (gaps and min(gaps) < GAP_TOL) or np.linalg.cond(jw) > COND_TOL:
        flags.append("ill_conditioned")
    n_par = n_terms + n_free
    scale = 1.0 if weighted else (rss / (ms.size - n_par) if ms.size > n_par else 0.0)
    cov = np.linalg.pinv(jw.T @ jw) * scale

    return FitResult(amplitudes=tuple(float(a) for a in amps),
                     rates=tuple(float(r) for r in rates),
                     residual_norm=math.sqrt(rss),
                     covariance=cov,
                     flags=tuple(flags),
                     n_evaluations=nfev)


def estimate_metrics_1q(v1_curve: DecayCurve, v2_curve: DecayCurve,
                        alpha_norm_sq: float | None = None) -> EstimatedMetrics:
    """Single-qubit metric pipeline.

    f comes from the first-order curve (constant plus one exponential),
    (u, c2) from the free double-exponential fit of the second-order
    curve with the larger rate assigned to u, then
    h = (10/3)(c2 - (9/10) f^2 + (1/5) u) and H from the fidelity
    decomposition.  When alpha_norm_sq is not given the noise is assumed
    unital for H and a flag records that.
    """
    flags = []
    fit1 = fit_exponentials(v1_curve, 2, known_rates=[1.0])
    f = fit1.rates[1]
    f_se = fit1.rate_stderr(1, 1)
    fit2 = fit_exponentials(v2_curve, 2)
    u, c2 = fit2.rates[0], fit2.rates[1]
    u_se = fit2.rate_stderr(0, 0)
    c2_se = fit2.rate_stderr(1, 0)
    flags.extend(fit1.flags)
    flags.extend(fit2.flags)

    alpha2 = 0.0
    if alpha_norm_sq is None:
        flags.append("alpha_assumed_zero")
    else:
        alpha2 = float(alpha_norm_sq)

    h = (10.0 / 3.0) * (c2 - 0.9 * f ** 2 + 0.2 * u)
    h_se = (10.0 / 3.0) * math.sqrt(c2_se ** 2 + (1.8 * f * f_se) ** 2
                                    + (0.2 * u_se) ** 2)
    cap_f = (f + 1.0) / 2.0
    cap_h = 1.0 - 0.75 * (u - h) - 0.5 * alpha2
    cap_h_se = 0.75 * math.sqrt(u_se ** 2 + h_se ** 2)
    return EstimatedMetrics(
        f=f, F=cap_f, u=u, h=h, H=cap_h,
        stderr={"f": f_se, "F": f_se / 2.0, "u": u_se, "h": h_se, "H": cap_h_se},
        rates={"u": u, "c2": c2, "f": f},
        rate_stderr={"u": u_se, "c2": c2_se, "f": f_se},
        flags=tuple(flags),
        alpha_norm_sq=alpha2)


def estimate_metrics_2q(curves: dict, u_external: float | None = None,
                        alpha_norm_sq: float | None = None) -> EstimatedMetrics:
    """Two-qubit step-by-step pipeline over the three standard settings.

    curves must hold "zz_p00" (Delta = ZZ, O = |00><00|), "zz_zz"
    (Delta = O = ZZ) and "rm_rm" (Delta = O = |00><00| - |11><11|); an
    optional "v1" curve supplies f.  (u, C_I) come from a free two-term fit of the first
    curve; without u_external the rate with the smaller amplitude is
    taken as u (ideal amplitudes 1/5 vs 4/5).  C_II and C_III follow
    from one-free-rate fits with the earlier rates pinned.  h uses the
    dimension-weighted rate identity, H the fidelity decomposition.
    """
    for key in ("zz_p00", "zz_zz", "rm_rm"):
        if key not in curves:
            raise ValueError("missing curve %r" % key)
    flags = []
    fit1 = fit_exponentials(curves["zz_p00"], 2)
    r0, r1 = fit1.rates
    a0, a1 = fit1.amplitudes
    se0, se1 = fit1.rate_stderr(0, 0), fit1.rate_stderr(1, 0)
    if u_external is not None:
        if abs(r0 - u_external) <= abs(r1 - u_external):
            u, c_i, u_se, ci_se = r0, r1, se0, se1
        else:
            u, c_i, u_se, ci_se = r1, r0, se1, se0
        flags.append("u_from_external")
    else:
        if abs(a0) <= abs(a1):
            u, c_i, u_se, ci_se = r0, r1, se0, se1
        else:
            u, c_i, u_se, ci_se = r1, r0, se1, se0
        flags.append("u_from_amplitude_heuristic")
    flags.extend(fit1.flags)

    fit2 = fit_exponentials(curves["zz_zz"], 3, known_rates=[u, c_i])
    c_ii = fit2.rates[2]
    cii_se = fit2.rate_stderr(2, 2)
    flags.extend(fit2.flags)

    fit3 = fit_exponentials(curves["rm_rm"], 4, known_rates=[u, c_i, c_ii])
    c_iii = fit3.rates[3]
    ciii_se = fit3.rate_stderr(3, 3)
    flags.extend(fit3.flags)

    rates = {"u": u, "C_I": c_i, "C_II": c_ii, "C_III": c_iii}
    rate_se = {"u": u_se, "C_I": ci_se, "C_II": cii_se, "C_III": ciii_se}

    alpha2 = 0.0
    if alpha_norm_sq is None:
        flags.append("alpha_assumed_zero")
    else:
        alpha2 = float(alpha_norm_sq)

    if "v1" in curves:
        fitf = fit_exponentials(curves["v1"], 2, known_rates=[1.0])
        f = fitf.rates[1]
        f_se = fitf.rate_stderr(1, 1)
        flags.extend(fitf.flags)
        rates["f"] = f
        rate_se["f"] = f_se
        cap_f = (3.0 * f + 1.0) / 4.0
        h = (2.0 / 15.0) * (u + 84.0 * c_i + 20.0 * c_ii + 15.0 * c_iii) - 15.0 * f ** 2
        h_se = math.sqrt((2 / 15 * u_se) ** 2 + (168 / 15 * ci_se) ** 2
                         + (40 / 15 * cii_se) ** 2 + (2.0 * ciii_se) ** 2
                         + (30.0 * f * f_se) ** 2)
        cap_h = 1.0 - (15.0 / 16.0) * (u - h) - (3.0 / 16.0) * alpha2
        cap_h_se = (15.0 / 16.0) * math.sqrt(u_se ** 2 + h_se ** 2)
        stderr = {"f": f_se, "F": 0.75 * f_se, "u": u_se, "h": h_se, "H": cap_h_se}
    else:
        flags.append("no_v1_curve")
        f = cap_f = h = cap_h = float("nan")
        stderr = {"f": float("nan"), "F": float("nan"), "u": u_se,
                  "h": float("nan"), "H": float("nan")}

    return EstimatedMetrics(f=f, F=cap_f, u=u, h=h, H=cap_h,
                            stderr=stderr, rates=rates, rate_stderr=rate_se,
                            flags=tuple(flags), alpha_norm_sq=alpha2)
