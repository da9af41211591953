"""Quantum channels as Pauli transfer matrices, plus the metric suite.

A trace-preserving channel E on q qubits is the real matrix
L[m, n] = tr[sigma_m E(sigma_n)] over the normalized Pauli basis
sigma_n = (Pauli string)/sqrt(2)^q.  Trace preservation pins the first row
to (1, 0, ..., 0); the rest splits into the non-unital column alpha and the
unital block.  All noise metrics (fidelity f/F, unitarity u,
self-adjointness h/H) are simple traces of that block.

The concrete noise families used throughout: a partially coherent X flip
(one qubit), its XX analog (two qubits), and a T1/T2 Lindblad propagator
with an optional residual-ZZ phase term.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import numerics, paulis

TP_TOL = 1e-12
KRAUS_TOL = 1e-10


@dataclass(frozen=True)
class PTM:
    """Channel in the normalized-Pauli (Liouville) representation."""

    q: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        dim = 4 ** self.q
        if m.shape != (dim, dim):
            raise ValueError(f"PTM for q={self.q} must be {dim}x{dim}")
        row = np.zeros(dim)
        row[0] = 1.0
        dev = np.abs(m[0] - row).max()
        if dev > TP_TOL:
            raise ValueError(f"first row is not (1,0,...,0): deviation {dev:.3e}")
        object.__setattr__(self, "matrix", m)

    @property
    def d(self) -> int:
        return 2 ** self.q

    @property
    def unital_block(self) -> np.ndarray:
        return self.matrix[1:, 1:]

    @property
    def alpha(self) -> np.ndarray:
        """Non-unital translation vector (zero iff the channel is unital)."""
        return self.matrix[1:, 0]

    def choi(self) -> np.ndarray:
        """Choi state (E (x) id)(|Omega><Omega|), trace 1 for TP input.

        The change of basis of :func:`transfer_matrices` run backwards
        gives the vec superoperator S = W L W^dag, with row-major
        vec(E(X)) = S vec(X); swapping its middle indices reshuffles it
        into the Choi matrix.
        """
        dim = self.d
        w = paulis.vec_basis_matrix(dim)
        s = (w @ self.matrix @ w.conj().T).reshape(dim, dim, dim, dim)
        return s.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim) / dim

    def is_cp(self, tol: float = 1e-10) -> bool:
        vals = np.linalg.eigvalsh(self.choi())
        return bool(vals.min() >= -tol)


@dataclass(frozen=True)
class KrausChannel:
    """Channel as a list of Kraus operators with sum K^dag K = I."""

    kraus_ops: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        if not ops:
            raise ValueError("need at least one Kraus operator")
        d = ops[0].shape[0]
        total = sum(k.conj().T @ k for k in ops)
        dev = np.abs(total - np.eye(d)).max()
        if dev > KRAUS_TOL:
            raise ValueError(f"Kraus completeness violated: deviation {dev:.3e}")
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def d(self) -> int:
        return self.kraus_ops[0].shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return sum(k @ rho @ k.conj().T for k in self.kraus_ops)

    def to_ptm(self) -> PTM:
        return ptm_from_kraus(self)


@dataclass(frozen=True)
class MetricSet:
    """The scalar noise metrics of a single channel."""

    f: float
    F: float
    u: float
    h: float
    H: float
    alpha_norm_sq: float

    def to_json_dict(self) -> dict:
        return {"f": self.f, "F": self.F, "u": self.u, "h": self.h,
                "H": self.H, "alpha_norm_sq": self.alpha_norm_sq}


def transfer_matrices(ops: np.ndarray) -> np.ndarray:
    """Transfer matrices L_A = W^dag (A (x) conj(A)) W of a stack of d x d
    operators, W = paulis.vec_basis_matrix(d), as a complex array.

    L_A is the map X -> A X A^dag in the trace-orthonormal basis, since
    row-major vec(A X A^dag) = (A (x) conj(A)) vec(X); it is real up to
    rounding.  Each operator gets its own pair of GEMMs with inner
    dimension d^2, so its matrix has the same bits alone as at any
    position of a stack.  The second GEMM writes over the spent Kronecker
    stack, so at most two (n, d^2, d^2) complex arrays are alive at once,
    besides the conjugated stack and the broadcast product's buffers.
    """
    ops = np.asarray(ops, dtype=complex)
    n, d = ops.shape[0], ops.shape[1]
    w = paulis.vec_basis_matrix(d)
    with np.errstate():
        # numpy buffers broadcast operands, by default 8,192 entries each;
        # one Kronecker product's worth caps them at 32 d^4 bytes in all
        np.setbufsize(d ** 4)
        kron = ops[:, :, None, :, None] * ops.conj()[:, None, :, None, :]
    kron = kron.reshape(n, d * d, d * d)
    half = kron @ w
    return np.matmul(w.conj().T, half, out=kron)


def ptm_from_kraus(k: KrausChannel) -> PTM:
    """Sum over the Kraus operators of their transfer matrices."""
    d = k.d
    q = int(round(np.log2(d)))
    if 2 ** q != d:
        raise ValueError("Kraus operators must act on a qubit register")
    return PTM(q=q, matrix=transfer_matrices(np.array(k.kraus_ops)).sum(axis=0).real)


def ptm_of_unitary(u: np.ndarray) -> PTM:
    return ptm_from_kraus(KrausChannel((u,)))


def identity_ptm(q: int) -> PTM:
    return PTM(q=q, matrix=np.eye(4 ** q))


def metrics(l: PTM) -> MetricSet:
    """Fidelity, unitarity, and self-adjointness metrics of a TP channel.

    f = tr[unital]/(d^2-1), u and h are the corresponding quadratic traces,
    F = ((d-1)f+1)/d, and H = 1 - ((d^2-1)/d^2)(u-h) - ((d+2)/(2d^2))|alpha|^2,
    the closed form of the mean squared 2-norm distance between the channel
    and its adjoint over Haar-random pure inputs.
    """
    d = l.d
    n = d * d - 1
    lt = l.unital_block
    f = float(np.trace(lt)) / n
    u = float((lt * lt).sum()) / n
    h = float(np.trace(lt @ lt)) / n
    a2 = float(l.alpha @ l.alpha)
    big_f = ((d - 1) * f + 1) / d
    big_h = 1.0 - (n / d ** 2) * (u - h) - ((d + 2) / (2 * d ** 2)) * a2
    return MetricSet(f=f, F=big_f, u=u, h=h, H=big_h, alpha_norm_sq=a2)


def self_adjointness_integral(l: PTM) -> float:
    """H evaluated through the defining average over pure states.

    The Haar second-moment matrix of pure-state Pauli coordinates is
    M = (1/d) e0 e0^T + (1/(d(d+1))) (I - e0 e0^T); the mean squared
    distance to the adjoint is then tr[(L - L^T)^T (L - L^T) M].  This is an
    independent evaluation route used to cross-check metrics().
    """
    d = l.d
    dim = l.matrix.shape[0]
    mom = np.eye(dim) / (d * (d + 1))
    mom[0, 0] = 1.0 / d
    diff = l.matrix - l.matrix.T
    val = float(np.trace(diff.T @ diff @ mom))
    return 1.0 - (d + 1) / (2 * d) * val


def kraus_self_adjointness_param(k: KrausChannel) -> float:
    """h from the Kraus cross traces: (sum_ij |tr K_i K_j|^2 - 1)/(d^2-1)."""
    d = k.d
    total = 0.0
    for ki in k.kraus_ops:
        for kj in k.kraus_ops:
            total += abs(np.trace(ki @ kj)) ** 2
    return (total - 1.0) / (d * d - 1)


# ---------------------------------------------------------------------------
# noise families


def noise1_model(p: float, q: float) -> PTM:
    """Partially coherent X error on one qubit.

    With probability q the rotation exp(i theta X) is applied coherently,
    theta = arcsin(sqrt(p)); with probability 1-q a bit flip of probability
    p happens stochastically.  Both branches have the same fidelity
    f = 1 - 4p/3, so q moves the unitarity/self-adjointness only.
    """
    _check_unit_interval(p=p, q=q)
    theta = np.arcsin(np.sqrt(p))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    ops = []
    if q > 0:
        ops.append(np.sqrt(q) * numerics.matexp(1j * theta * x))
    if (1 - q) * (1 - p) > 0:
        ops.append(np.sqrt((1 - q) * (1 - p)) * np.eye(2, dtype=complex))
    if (1 - q) * p > 0:
        ops.append(np.sqrt((1 - q) * p) * x)
    return ptm_from_kraus(KrausChannel(tuple(ops)))


def noise1_closed_form(p: float, q: float) -> MetricSet:
    """Closed-form metrics of noise1_model (unital, so alpha = 0)."""
    _check_unit_interval(p=p, q=q)
    f = 1.0 - 4.0 * p / 3.0
    u = 1.0 - (8.0 / 3.0) * p * (1 - p) * (1 - q * q)
    h = 1.0 - (8.0 / 3.0) * p * (1 - p) * (1 + q * q)
    big_f = (f + 1.0) / 2.0
    big_h = 1.0 - (3.0 / 4.0) * (u - h)
    return MetricSet(f=f, F=big_f, u=u, h=h, H=big_h, alpha_norm_sq=0.0)


def noise2_model(p: float, q: float) -> PTM:
    """Two-qubit analog of noise1 with XX in place of X."""
    _check_unit_interval(p=p, q=q)
    theta = np.arcsin(np.sqrt(p))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    xx = np.kron(x, x)
    ops = []
    if q > 0:
        ops.append(np.sqrt(q) * numerics.matexp(1j * theta * xx))
    if (1 - q) * (1 - p) > 0:
        ops.append(np.sqrt((1 - q) * (1 - p)) * np.eye(4, dtype=complex))
    if (1 - q) * p > 0:
        ops.append(np.sqrt((1 - q) * p) * xx)
    return ptm_from_kraus(KrausChannel(tuple(ops)))


def noise2_closed_form(p: float, q: float) -> dict:
    """Closed-form metrics and two-copy decay rates of noise2_model.

    Returns f, F, u, h, H and the sector rates C_I, C_II, C_III.  h follows
    from the dimension-weighted linear relation between the rates and
    (f, u, h); the channel is unital so H needs no alpha term.
    """
    _check_unit_interval(p=p, q=q)
    f = 1.0 - 16.0 * p / 15.0
    u = 1.0 - (32.0 / 15.0) * p * (1 - p) * (1 - q * q)
    c1 = 1.0 - (4.0 / 105.0) * p * (56.0 - 31.0 * p + 14.0 * (1 - p) * q * q)
    c2 = 1.0 - (4.0 / 15.0) * p * (8.0 - 5.0 * p - 2.0 * (1 - p) * q * q)
    c3 = 1.0 - (16.0 / 15.0) * p * (2.0 - p - (1 - p) * q * q)
    h = (2.0 / 15.0) * (84.0 * c1 + 20.0 * c2 + 15.0 * c3 + u - 112.5 * f * f)
    big_f = (3.0 * f + 1.0) / 4.0
    big_h = 1.0 - (15.0 / 16.0) * (u - h)
    return {"f": f, "F": big_f, "u": u, "h": h, "H": big_h,
            "C_I": c1, "C_II": c2, "C_III": c3}


def lindblad_ptm(t1: float, t2: float, chi: float = 0.0, delay: float = 0.0,
                 include_zz: bool = False) -> PTM:
    """Single-qubit T1/T2 relaxation propagator over a fixed delay.

    Jump operators: amplitude damping |0><1|/sqrt(T1) and pure dephasing
    Z/sqrt(2 Tphi) with 1/Tphi = 1/T2 - 1/(2 T1).  With include_zz a
    coherent (chi/2) Z Hamiltonian term is added (chi in rad per time unit),
    modeling an always-on dispersive shift from a neighboring qubit.  The
    PTM is the dense exponential of the Liouvillian times the delay.
    """
    if t1 <= 0 or t2 <= 0:
        raise ValueError("relaxation times must be positive")
    inv_tphi = 1.0 / t2 - 1.0 / (2.0 * t1)
    if inv_tphi < -1e-15:
        raise ValueError("unphysical T2 > 2*T1")
    inv_tphi = max(inv_tphi, 0.0)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
    z = np.diag([1.0, -1.0]).astype(complex)
    jumps = [lower / np.sqrt(t1)]
    if inv_tphi > 0:
        jumps.append(z * np.sqrt(inv_tphi / 2.0))
    # the Liouvillian on row-major vec, where A X B -> (A (x) B^T) vec(X),
    # taken to the Pauli basis by the change of basis of transfer_matrices
    eye = np.eye(2)
    sup = np.zeros((4, 4), dtype=complex)
    for jump in jumps:
        decay = jump.conj().T @ jump
        sup += np.kron(jump, jump.conj()) - 0.5 * (np.kron(decay, eye) + np.kron(eye, decay.T))
    if include_zz:
        ham = (chi / 2.0) * z
        sup += -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    w = paulis.vec_basis_matrix(2)
    gen = (w.conj().T @ sup @ w).real
    prop = numerics.matexp(gen * delay)
    return PTM(q=1, matrix=np.real(prop))


def random_cptp(d: int, kraus_rank: int, seed: int) -> KrausChannel:
    """Haar-random CPTP map by Stinespring dilation at the given Kraus rank."""
    if not 1 <= kraus_rank <= d * d:
        raise ValueError("need 1 <= kraus_rank <= d^2")
    rng = np.random.default_rng(seed)
    big = numerics.haar_unitaries(d * kraus_rank, 1, rng)[0]
    isometry = big[:, :d]
    ops = tuple(isometry[i * d:(i + 1) * d, :] for i in range(kraus_rank))
    return KrausChannel(ops)


def _check_unit_interval(**kwargs):
    for name, val in kwargs.items():
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {val}")


# ---------------------------------------------------------------------------
# config and file formats


def noise_from_config(doc: dict) -> PTM:
    """Build a PTM from a noise-config dictionary.

    Models: {"model": "noise1", "p":, "q":}, {"model": "noise2", ...},
    {"model": "lindblad", "t1":, "t2":, "delay":, "chi":, "include_zz":},
    {"model": "kraus", "ops": [matrix as [[re, im], ...] rows]}.  A channel
    that is not completely positive raises ValueError naming its smallest
    Choi eigenvalue.
    """
    model = doc.get("model")
    if model == "noise1":
        l = noise1_model(doc["p"], doc["q"])
    elif model == "noise2":
        l = noise2_model(doc["p"], doc["q"])
    elif model == "lindblad":
        l = lindblad_ptm(doc["t1"], doc["t2"], chi=doc.get("chi", 0.0), delay=doc["delay"],
                         include_zz=doc.get("include_zz", False))
    elif model == "kraus":
        ops = tuple(np.array([[complex(re, im) for re, im in row] for row in op])
                    for op in doc["ops"])
        l = ptm_from_kraus(KrausChannel(ops))
    else:
        raise ValueError(f"unknown noise model {model!r}")
    if not l.is_cp():
        raise ValueError("noise model is not completely positive: smallest Choi "
                         f"eigenvalue {np.linalg.eigvalsh(l.choi()).min():.3g}")
    return l


def load_noise_config(path: str) -> PTM:
    with open(path) as fh:
        return noise_from_config(json.load(fh))


def ptm_to_csv(l: PTM, path: str) -> None:
    """Row-major CSV dump with lossless float formatting."""
    with open(path, "w") as fh:
        for row in l.matrix:
            fh.write(",".join(f"{v:.17g}" for v in row))
            fh.write("\n")
