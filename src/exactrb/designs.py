"""Exact unitary design constructions and their verification.

Four families live here:

* the inductive qudit tower: scalar phase sets W1 lifted through direct sums
  and zonal-angle rotations, giving exact strong designs on U(d) whose
  explicit form multiplies out when its stack fits a byte budget and
  degrades to a product sampler when not;
* the recursive qubit circuit: controlled copies of a smaller design
  between controlled-X rotations with externally supplied angle tables;
* finite groups obtained by closure (single/two-qubit Clifford groups, the
  binary icosahedral group), stored as projective representatives;
* the Clifford-interleaved two-qubit 4-design C * U_c * C.

An ensemble is an explicit stack or a product: one flat list of fixed
matrices and explicit stacks, each acting on one diagonal block.  A direct
sum or a controlled layer is the block pair U0 (+) U1 = (U0 (+) I)(I (+) U1),
so no layer nests and no stack is padded or copied.

Verification is moment based: ensemble averages of U^(x r) (x) conj(U)^(x s)
are compared against the exact Haar values from the ``haar`` module, either
exactly (explicit ensembles, and products of whole Clifford-group layers with
fixed unitaries, in the Clifford commutant) or by seeded sampling with a
3 sigma criterion (other product ensembles).  Frame potentials provide the
scalar cross-check.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import haar, numerics, paulis, zonal

PHASE_TOL = 1e-8
ROUND_DECIMALS = 7
# elements of one BFS level multiplied by the generators in one stacked matmul
CLOSURE_CHUNK = 512
# largest deviation of a Clifford element's Pauli image from a signed Pauli
CLIFFORD_TOL = 1e-8
# bytes of the largest qudit-tower stack that is multiplied out explicitly
TOWER_BYTES = 64 * 2 ** 20


# ---------------------------------------------------------------------------
# ensemble container


# A layer of side k at offset o acts as I_o (+) M (+) I on the product's
# d dimensions, so it multiplies only columns o .. o + k - 1.

@dataclass(frozen=True)
class FixedLayer:
    matrix: np.ndarray
    offset: int = 0


@dataclass(frozen=True)
class EnsembleLayer:
    """A layer drawn uniformly from an explicit ensemble."""

    ensemble: "UnitaryEnsemble"
    offset: int = 0


Layer = FixedLayer | EnsembleLayer


@dataclass(frozen=True)
class UnitaryEnsemble:
    """Uniformly weighted ensemble of d x d unitaries.

    ``kind`` is "explicit" (a dense (n, d, d) stack) or "product" (a flat
    list of fixed matrices and explicit stacks, each on its diagonal block,
    each stack drawn independently, multiplied left to right).  A product
    ensemble given as a layer is inlined, its layers shifted by the layer's
    offset: they are independent draws in the same order, so the
    distribution and the order of draws are unchanged.
    """

    d: int
    kind: str
    elements: Optional[np.ndarray] = None
    layers: Optional[tuple[Layer, ...]] = None

    def __post_init__(self):
        if self.kind == "explicit":
            if self.elements is None or self.layers is not None:
                raise ValueError("explicit ensemble needs elements and no layers")
            elems = np.asarray(self.elements, dtype=complex)
            if elems.ndim != 3 or elems.shape[1:] != (self.d, self.d):
                raise ValueError(f"elements must be (n, {self.d}, {self.d})")
            dev = np.abs(np.einsum("nij,nik->njk", elems.conj(), elems)
                         - np.eye(self.d)).max()
            if dev > 1e-10:
                raise ValueError(f"non-unitary element (deviation {dev:.3e})")
            object.__setattr__(self, "elements", elems)
        elif self.kind == "product":
            if self.layers is None or self.elements is not None:
                raise ValueError("product ensemble needs layers and no elements")
            flat: list[Layer] = []
            for layer in self.layers:
                if isinstance(layer, EnsembleLayer) and layer.ensemble.kind == "product":
                    flat += [replace(x, offset=x.offset + layer.offset)
                             for x in layer.ensemble.layers]
                else:
                    flat.append(layer)
            for x in flat:
                k = _layer_side(x)
                if x.offset < 0 or x.offset + k > self.d:
                    raise ValueError(f"a layer of side {k} at offset {x.offset} "
                                     f"does not fit in d = {self.d}")
            object.__setattr__(self, "layers", tuple(flat))
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    @property
    def size(self) -> int:
        """Number of elements (product of layer sizes for product kind)."""
        if self.kind == "explicit":
            return self.elements.shape[0]
        return math.prod(x.ensemble.size for x in self.layers
                         if isinstance(x, EnsembleLayer))

    @functools.cached_property
    def is_group(self) -> bool:
        """Whether an explicit ensemble is a finite group modulo phase that
        holds each element once, so that uniform draws are uniform on the
        group.  Compared by ROUND_DECIMALS keys of canonical-phase
        representatives; computed once per object.

        The elements are walked in order; one outside the subgroup closed so
        far joins the generators and the subgroup is closed again, stopping
        once it has more elements than the ensemble.  The ensemble is a group
        when the last subgroup's keys are its own.
        """
        if self.kind != "explicit":
            return False
        keys = _round_keys(_canonical_phases(self.elements))
        target = set(keys)
        if len(target) != len(keys):
            return False
        gens: list[np.ndarray] = []
        sub = set(_round_keys(np.eye(self.d, dtype=complex)[None]))
        for u, key in zip(self.elements, keys):
            if key in sub:
                continue
            gens.append(u)
            try:
                closed = _closure(gens, self.d, max_products=len(keys) * len(gens))
            except RuntimeError:
                return False
            sub = set(_round_keys(closed))
            if not sub <= target:
                return False
        return sub == target

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n elements uniformly as an (n, d, d) stack: the one-stream
        case of sample_streams."""
        return sample_streams(self, [rng], n)[0]


def sample_streams(e: UnitaryEnsemble, rngs: Sequence[np.random.Generator],
                   n: int) -> np.ndarray:
    """Draw n elements of e from each stream, as a (streams, n, d, d) stack.

    Each stream draws its indices first, one array of n per stack layer in
    layer order.  Then each layer is gathered and multiplied into the whole
    stack at once, by an einsum or a stacked matmul that treats every
    element on its own, so a stream's slice holds the same bits as a draw
    of that stream alone.
    """
    if e.kind == "explicit":
        return e.elements[np.array([rng.integers(e.size, size=n) for rng in rngs])]
    stacks = [x.ensemble for x in e.layers if isinstance(x, EnsembleLayer)]
    idx = np.array([[rng.integers(s.size, size=n) for s in stacks] for rng in rngs])
    draws = iter(idx.transpose(1, 0, 2).reshape(len(stacks), -1))
    layers = e.layers
    if layers and isinstance(layers[0], EnsembleLayer) and layers[0].ensemble.d == e.d:
        # the einsum of the identity with a draw is the draw with every zero
        # part made +0, as adding 0 makes it
        out = layers[0].ensemble.elements[next(draws)]
        out += 0.0
        layers = layers[1:]
    else:
        out = np.broadcast_to(np.eye(e.d, dtype=complex), (len(rngs) * n, e.d, e.d)).copy()
    for layer in layers:
        k = _layer_side(layer)
        block = slice(layer.offset, layer.offset + k)
        if isinstance(layer, FixedLayer):
            out[:, :, block] = out[:, :, block] @ layer.matrix
        elif k == e.d:
            out = np.einsum("nab,nbc->nac", out, layer.ensemble.elements[next(draws)])
        else:
            # the same sums over b in the same order, twice as fast on a
            # narrow block with its columns stored as rows (a innermost)
            rows = np.ascontiguousarray(out[:, :, block].transpose(0, 2, 1))
            out[:, :, block] = np.einsum(
                "nba,nbc->nca", rows, layer.ensemble.elements[next(draws)]).transpose(0, 2, 1)
    return out.reshape(len(rngs), n, e.d, e.d)


def _layer_side(layer: Layer) -> int:
    return layer.matrix.shape[0] if isinstance(layer, FixedLayer) else layer.ensemble.d


def _canonical_phases(stack: np.ndarray) -> np.ndarray:
    """Divide each matrix of an (n, d, d) stack by the phase of its first
    entry above PHASE_TOL in magnitude; matrices without one are copied.

    The phase is z / hypot(z): np.hypot rounds like the scalar abs(z),
    while np.abs on a complex array can differ from it in the last bits.
    """
    flat = stack.reshape(len(stack), -1)
    above = np.abs(flat) > PHASE_TOL
    rows = np.flatnonzero(above.any(axis=1))
    z = flat[rows, above[rows].argmax(axis=1)]
    out = stack.copy()
    out[rows] = stack[rows] / (z / np.hypot(z.real, z.imag))[:, None, None]
    return out


def _round_keys(stack: np.ndarray) -> list[bytes]:
    """Hash keys of an (n, d, d) stack: real then imaginary parts rounded to
    ROUND_DECIMALS, negative zeros cleared, one bytes object per matrix."""
    n = len(stack)
    parts = np.round(np.concatenate([stack.real.reshape(n, -1),
                                     stack.imag.reshape(n, -1)], axis=1), ROUND_DECIMALS)
    parts[parts == 0.0] = 0.0
    return parts.view(np.dtype((np.void, parts.itemsize * parts.shape[1]))).ravel().tolist()


def _first_seen(keys: list[bytes], seen: set[bytes]) -> np.ndarray:
    """Mask of the keys not in ``seen`` and not repeated earlier in ``keys``;
    adds them to ``seen``."""
    fresh = np.zeros(len(keys), dtype=bool)
    for i, k in enumerate(keys):
        if k not in seen:
            seen.add(k)
            fresh[i] = True
    return fresh


# ---------------------------------------------------------------------------
# the inductive qudit tower


def w1(t: int) -> UnitaryEnsemble:
    """Exact strong t-design on U(1): the (t+1)-st roots of unity.

    All mixed moments E[z^r conj(z)^s] with r, s <= t equal delta_rs, which
    is the Haar value on U(1).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    omega = np.exp(2j * np.pi / (t + 1))
    elems = np.array([[[omega ** j]] for j in range(t + 1)])
    return UnitaryEnsemble(d=1, kind="explicit", elements=elems)


def direct_sum_ensemble(a: UnitaryEnsemble, b: UnitaryEnsemble) -> UnitaryEnsemble:
    """All block-diagonal sums u (+) v over the two ensembles.

    Two explicit factors give the explicit (a.size * b.size)-element stack,
    u-major; otherwise u (+) v = (u (+) I) (I (+) v) is a product of the two
    blocks.
    """
    d = a.d + b.d
    if a.kind == "explicit" and b.kind == "explicit":
        out = np.zeros((a.size, b.size, d, d), dtype=complex)
        out[:, :, :a.d, :a.d] = a.elements[:, None]
        out[:, :, a.d:, a.d:] = b.elements[None]
        return UnitaryEnsemble(d=d, kind="explicit", elements=out.reshape(-1, d, d))
    return UnitaryEnsemble(d=d, kind="product",
                           layers=(EnsembleLayer(a), EnsembleLayer(b, a.d)))


def rotation_unitary(thetas: Sequence[float], d1: int, d: int) -> np.ndarray:
    """Block rotation [[C, iS, 0], [iS, C, 0], [0, 0, I]] on C^d.

    C and S are diag(cos theta_i) and diag(sin theta_i) over the d1 angles.
    For d1 = 1, d = 2 this is exp(i theta X).
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape != (d1,):
        raise ValueError("need exactly d1 angles")
    if 2 * d1 > d:
        raise ValueError("need 2*d1 <= d")
    out = np.eye(d, dtype=complex)
    c = np.cos(thetas)
    s = np.sin(thetas)
    out[:d1, :d1] = np.diag(c)
    out[d1:2 * d1, d1:2 * d1] = np.diag(c)
    out[:d1, d1:2 * d1] = 1j * np.diag(s)
    out[d1:2 * d1, :d1] = 1j * np.diag(s)
    return out


def build_qudit_design(d: int, t: int) -> UnitaryEnsemble:
    """Exact strong t-design on U(d) by the inductive tower construction.

    Recursion: a strong design on U(d-1) is direct-summed with W1, then
    interleaved with one zonal-angle rotation per nonzero spherical label of
    (U(d), U(1) x U(d-1)).  The result is multiplied out explicitly when its
    stack of complex d x d matrices, 16 d^2 bytes each, fits in TOWER_BYTES,
    else returned as a product sampler.
    """
    if d < 1 or t < 1:
        raise ValueError("need d >= 1 and t >= 1")
    if d == 1:
        return w1(t)
    inner = build_qudit_design(d - 1, t)
    base = direct_sum_ensemble(w1(t), inner)
    labels = zonal.enumerate_sph_labels(1, d, t)
    rotations = [rotation_unitary(zonal.find_angles(lab), 1, d) for lab in labels]
    stack_bytes = base.size ** (len(labels) + 1) * 16 * d * d
    if base.kind == "explicit" and stack_bytes <= TOWER_BYTES:
        cur = base.elements
        for rot in rotations:
            cur = np.einsum("iab,jbc->ijac", cur @ rot, base.elements)
            cur = cur.reshape(-1, d, d)
        return UnitaryEnsemble(d=d, kind="explicit", elements=cur)
    layers: list[Layer] = [EnsembleLayer(base)]
    for rot in rotations:
        layers.append(FixedLayer(rot))
        layers.append(EnsembleLayer(base))
    return UnitaryEnsemble(d=d, kind="product", layers=tuple(layers))


# ---------------------------------------------------------------------------
# finite groups by closure


def _closure(generators: Sequence[np.ndarray], d: int, max_products: int) -> np.ndarray:
    """Group closure under right multiplication, projective representatives.

    Breadth-first: each level's elements times every generator, in
    (element, generator) order, CLOSURE_CHUNK elements per stacked matmul.
    Elements are kept modulo global phase via canonical-phase hashing, so
    the output is deterministic and equals the one-product-at-a-time loop
    bit for bit.
    """
    gens = np.array(generators, dtype=complex)
    level = _canonical_phases(np.eye(d, dtype=complex)[None])
    seen = set(_round_keys(level))
    levels = []
    products = 0
    while len(level):
        levels.append(level)
        products += len(level) * len(gens)
        if products > max_products:
            raise RuntimeError(
                f"group closure did not terminate within {max_products} products")
        fresh = []
        for start in range(0, len(level), CLOSURE_CHUNK):
            cand = np.matmul(level[start:start + CLOSURE_CHUNK, None], gens).reshape(-1, d, d)
            cand = _canonical_phases(cand)
            fresh.append(cand[_first_seen(_round_keys(cand), seen)])
        level = np.concatenate(fresh)
    return np.concatenate(levels)


def icosahedral_group() -> UnitaryEnsemble:
    """The 60 projective icosahedral rotations as SU(2) representatives.

    Generated by 2 pi / 5 rotations about two adjacent five-fold axes of the
    icosahedron; all generator entries are algebraic in the golden ratio.
    The group is an exact 4-design on U(2) (moments with r = s).
    """
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    axes = np.array([[0.0, 1.0, phi], [0.0, -1.0, phi]]) / np.sqrt(1.0 + phi ** 2)
    gens = []
    c, s = np.cos(np.pi / 5.0), np.sin(np.pi / 5.0)
    paulis = [np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex),
              np.array([[1, 0], [0, -1]], dtype=complex)]
    for axis in axes:
        n_dot_sigma = sum(a * p for a, p in zip(axis, paulis))
        gens.append(c * np.eye(2, dtype=complex) - 1j * s * n_dot_sigma)
    elems = _closure(gens, 2, max_products=10_000)
    return UnitaryEnsemble(d=2, kind="explicit", elements=elems)


def clifford_group(q: int) -> UnitaryEnsemble:
    """Projective q-qubit Clifford group by closure of {H, S} (+ CNOT).

    Cardinalities modulo phase: 24 for q = 1, 11520 for q = 2, matching
    2^(q^2 + 2q) * prod_j (4^j - 1).
    """
    if q not in (1, 2):
        raise ValueError("clifford_group supports q in {1, 2}")
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    s = np.diag([1.0, 1.0j])
    if q == 1:
        gens = [h, s]
        d = 2
    else:
        eye = np.eye(2, dtype=complex)
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                        dtype=complex)
        gens = [np.kron(h, eye), np.kron(eye, h), np.kron(s, eye), np.kron(eye, s), cnot]
        d = 4
    elems = _closure(gens, d, max_products=2_000_000)
    return UnitaryEnsemble(d=d, kind="explicit", elements=elems)


# ---------------------------------------------------------------------------
# the Clifford-interleaved two-qubit 4-design


_UC_ANGLES_A = (1.50097, 5.69898, 2.53181)
_UC_ANGLES_A2 = (1.25383, 0.01700, 6.21127)
_UC_PHIS = (0.376407, 0.368786, 3.69014)
_UC_ANGLES_B = (4.66335, 3.04854, 1.45524)
_UC_ANGLES_B2 = (0.337423, 3.38137, 3.82503)


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(1j * theta), np.exp(-1j * theta)])


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    # exp(i theta Y)
    return np.array([[c, s], [-s, c]], dtype=complex)


def _r1(a: float, b: float, c: float) -> np.ndarray:
    return _rz(a) @ _ry(b) @ _rz(c)


def uc_unitary() -> np.ndarray:
    """The fixed two-qubit unitary that upgrades Clifford twirling to a
    4-design when sandwiched between uniform Clifford layers.

    Single-qubit factors are Z-Y-Z rotation products exp(i theta W); the
    entangling core is exp(-i (phi_x XX + phi_y YY + phi_z ZZ)).  The angles
    are fixed numerical constants.
    """
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    outer = np.kron(_r1(*_UC_ANGLES_A), _r1(*_UC_ANGLES_A2))
    inner = np.kron(_r1(*_UC_ANGLES_B), _r1(*_UC_ANGLES_B2))
    phi_x, phi_y, phi_z = _UC_PHIS
    core = numerics.matexp(
        -1j * (phi_x * np.kron(x, x) + phi_y * np.kron(y, y) + phi_z * np.kron(z, z)))
    return outer @ core @ inner


def interleaved_clifford_design() -> UnitaryEnsemble:
    """Product ensemble C(4) * U_c * C(4): an exact two-qubit 4-design to
    numerical precision (certified through its frame potential)."""
    cliffords = clifford_group(2)
    return UnitaryEnsemble(d=4, kind="product", layers=(
        EnsembleLayer(cliffords), FixedLayer(uc_unitary()), EnsembleLayer(cliffords)))


# ---------------------------------------------------------------------------
# the qubit circuit tower


def _ctrl_x_rotation(angles: np.ndarray) -> np.ndarray:
    """sum_j exp(i theta_j X) (x) |j><j| on (C^2) (x) (C^(2^N))."""
    n = len(angles)
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    for j, theta in enumerate(angles):
        rot = np.array([[np.cos(theta), 1j * np.sin(theta)],
                        [1j * np.sin(theta), np.cos(theta)]])
        out += np.kron(rot, np.eye(n)[j][:, None] * np.eye(n)[j][None, :])
    return out


def build_qubit_circuit_design(
        n: int, t: int,
        angle_tables: Optional[dict[tuple[int, tuple[int, ...]], np.ndarray]] = None,
) -> UnitaryEnsemble:
    """The recursive n-qubit design circuit as a product ensemble.

    Controlled applications of an (n-1)-qubit design, control on the new
    qubit, alternate with fixed controlled-X rotations.  A controlled layer
    U0 (+) U1 with independent draws is the block pair (U0 (+) I)(I (+) U1).
    ``angle_tables`` maps (qubit count, positive partition) to the 2^(n-1)
    rotation angles of that layer, taken from multivariate zonal-function
    zeros.  The single-qubit base case needs no table; every higher level
    does, and a missing entry raises.
    """
    if n < 1 or t < 1:
        raise ValueError("need n >= 1 and t >= 1")
    if n == 1:
        return build_qudit_design(2, t)
    angle_tables = angle_tables or {}
    half = 2 ** (n - 1)
    labels = zonal.enumerate_sph_labels(half, 2 * half, t)
    rotations = []
    missing = []
    for lab in labels:
        key = (n, lab.positive_part)
        if key not in angle_tables:
            missing.append(key)
            continue
        angles = np.asarray(angle_tables[key], dtype=float)
        if angles.shape != (half,):
            raise ValueError(f"angle table for {key} must have {half} entries")
        rotations.append(_ctrl_x_rotation(angles))
    if missing:
        raise ValueError(
            "missing external angle tables for labels: "
            + ", ".join(str(k) for k in missing))
    base = build_qubit_circuit_design(n - 1, t, angle_tables)
    ctrl = [EnsembleLayer(base), EnsembleLayer(base, half)]
    layers: list[Layer] = list(ctrl)
    for rot in rotations:
        layers += [FixedLayer(rot), *ctrl]
    return UnitaryEnsemble(d=2 * half, kind="product", layers=tuple(layers))


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class DesignReport:
    """Outcome of a moment-based design test."""

    d: int
    t_checked: int
    strong: bool
    mode: str
    tol: float
    residuals: dict
    stderrs: Optional[dict]
    frame_potential: Optional[float]
    frame_potential_stderr: Optional[float]
    haar_frame_potential: Optional[int]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "t_checked": self.t_checked,
            "strong": self.strong,
            "mode": self.mode,
            "tol": self.tol,
            "residuals": {f"{r},{s}": v for (r, s), v in self.residuals.items()},
            "stderrs": None if self.stderrs is None else {
                f"{r},{s}": v for (r, s), v in self.stderrs.items()},
            "frame_potential": self.frame_potential,
            "frame_potential_stderr": self.frame_potential_stderr,
            "haar_frame_potential": self.haar_frame_potential,
            "passed": self.passed,
        }


def _haar_reference(d: int, t: int) -> np.ndarray:
    """Haar value of the diagonal (t, t) moment; the others are zero."""
    if t == 0:
        return np.ones((1, 1), dtype=complex)
    return haar.haar_moment_projector(d, t)


def verify_strong_design(e: UnitaryEnsemble, t: int, tol: float = 1e-10,
                         mc_samples: Optional[int] = None, strong: bool = True,
                         seed: int = 0,
                         frame_potential_mode: str = "auto") -> DesignReport:
    """Moment test of an ensemble against the exact Haar values.

    With ``strong`` all mixed moments 0 <= r, s <= t are checked (Haar value
    is zero for r != s); otherwise only the diagonal r = s moments that
    define an ordinary design, which is the right test for projective
    ensembles whose stored representatives carry no phases.  Explicit
    ensembles are averaged exactly and compared at ``tol``; so are the
    diagonal moments, t <= 4, of a product C V_1 C ... V_k C of whole
    Clifford-group layers and fixed unitaries, in the Clifford commutant
    (mode "commutant", no moment budget).  Other product ensembles are
    sampled ``mc_samples`` times and compared at three standard errors.
    ``frame_potential_mode`` "auto" adds the frame potential at order t and
    "skip" leaves it out.  An exact report's frame potential is
    ||M_tt||_F^2 of the (t, t) moment it checked, E|tr(U^dag V)|^(2t) over
    all pairs, with no stderr; a sampled report's is a sample of
    ``mc_samples`` independent pairs with its stderr.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if frame_potential_mode not in ("auto", "skip"):
        raise ValueError(f"unknown frame_potential_mode {frame_potential_mode!r}")
    if mc_samples is not None and mc_samples < 2:
        # one sample has no standard error to compare against
        raise ValueError(f"mc_samples must be at least 2, got {mc_samples}")
    if e.kind == "product" and mc_samples is None and not strong and t <= 4:
        return _verify_in_commutant(e, t, tol, frame_potential_mode)
    pairs = [(r, s) for r in range(t + 1) for s in range(t + 1)
             if strong or r == s]
    exact = e.kind == "explicit" and mc_samples is None
    if not exact and not mc_samples:
        raise ValueError("product ensembles require mc_samples")
    # refuse before building any moment
    haar.check_moment_budget(e.d, t, e.size if exact else mc_samples, strong=strong)
    stack = e.elements if exact else e.sample(np.random.default_rng(seed), mc_samples)
    residuals = {}
    stderrs = None if exact else {}
    moments = haar.mixed_moment(stack, pairs)
    for (r, s), avg in zip(pairs, moments):
        # numpy's sum, not np.linalg.norm: BLAS dot splits long sums by thread;
        # the Haar value of an r != s cell is zero, and x - 0.0 = x
        diff = avg - _haar_reference(e.d, r) if r == s else avg
        residuals[(r, s)] = float(np.sqrt((np.abs(diff) ** 2).sum()))
        if not exact:
            stderrs[(r, s)] = _moment_stderr(stack, r, s, avg)
    if exact:
        passed = all(v <= tol for v in residuals.values())
    else:
        passed = all(residuals[p] <= max(3.0 * stderrs[p], 1e-14) for p in residuals)
    fp = fp_se = haar_fp = None
    if frame_potential_mode != "skip":
        haar_fp = haar.haar_frame_potential(e.d, t)
        if exact:
            # the last checked cell is (t, t); numpy's sum, as for the residuals
            fp = float((np.abs(moments[-1]) ** 2).sum())
        else:
            fp, fp_se = frame_potential(e, t, mode="mc", seed=seed + 1, samples=mc_samples)
    return DesignReport(d=e.d, t_checked=t, strong=strong, mode="exact" if exact else "mc",
                        tol=tol, residuals=residuals, stderrs=stderrs, frame_potential=fp,
                        frame_potential_stderr=fp_se, haar_frame_potential=haar_fp,
                        passed=passed)


def _moment_stderr(stack: np.ndarray, r: int, s: int, mean: np.ndarray) -> float:
    """Aggregate standard error sqrt(sum_entries var / n) of a sampled moment.

    The sample of U^(x r) (x) conj(U)^(x s) has squared Frobenius norm
    ||U||_F^(2 (r + s)), since ||A (x) B||_F = ||A||_F ||B||_F, so the
    per-entry second moments sum to the mean of that power and no
    per-sample product is built.
    """
    n = stack.shape[0]
    norms = (np.abs(stack) ** 2).sum(axis=(1, 2))
    var = np.mean(norms ** (r + s)) - (np.abs(mean) ** 2).sum()
    return float(np.sqrt(max(var, 0.0) / n))


def frame_potential(e: UnitaryEnsemble, t: int, mode: str,
                    seed: int = 0, samples: int = 10_000,
                    ) -> tuple[float, Optional[float]]:
    """Frame potential E |tr(U^dag V)|^(2t) of an ensemble.

    Modes: "interleaved-reduced" evaluates a product C V_1 C ... V_k C of
    whole Clifford-group layers and fixed unitaries exactly in the Clifford
    commutant, for t <= 4; "mc" samples independent pairs and reports a
    standard error.  Always at least the Haar value.  An exact
    certification takes the frame potential from its own moment
    (verify_strong_design).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if mode == "interleaved-reduced":
        moment, _ = _commutant_moment(*_clifford_layers(e), t)
        return float((np.abs(moment) ** 2).sum()), None
    if mode == "mc":
        rng = np.random.default_rng(seed)
        u = e.sample(rng, samples)
        v = e.sample(rng, samples)
        vals = np.abs(np.einsum("nab,nab->n", u.conj(), v)) ** (2 * t)
        return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(samples))
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Clifford-layered designs in the Clifford commutant


def _clifford_layers(e: UnitaryEnsemble) -> tuple[int, list[np.ndarray]]:
    """Qubit count and fixed matrices of a product C V_1 C ... V_k C whose
    ensemble layers are each the whole projective Clifford group.

    |C_q| elements, distinct modulo phase, each mapping every X_j and Z_j
    to a signed Pauli, are the projective Clifford group; any other layer
    or layout raises ValueError.
    """
    layers = e.layers if e.kind == "product" else ()
    q = e.d.bit_length() - 1
    if not (len(layers) % 2 == 1 and e.d == 2 ** q >= 2
            and all(isinstance(x, EnsembleLayer) for x in layers[::2])
            and all(isinstance(x, FixedLayer) for x in layers[1::2])
            and all(_layer_side(x) == e.d for x in layers)):
        raise ValueError("the Clifford commutant needs qubit layers "
                         "[clifford, fixed, clifford, ..., clifford]")
    order = 2 ** (q * q + 2 * q) * math.prod(4 ** j - 1 for j in range(1, q + 1))
    basis = paulis.pauli_basis(q)
    # the normalised X_j and Z_j; row-major vec(M) @ coords = (tr(B_k M))_k
    gens = basis[[c * 4 ** j for j in range(q) for c in (1, 3)]]
    coords = basis.transpose(0, 2, 1).reshape(len(basis), -1).T
    # a layer object repeated in the product is checked once
    for ens in {id(x.ensemble): x.ensemble for x in layers[::2]}.values():
        if ens.kind != "explicit" or ens.d != e.d or ens.size != order:
            raise ValueError(f"an ensemble layer is not the {order}-element "
                             f"{q}-qubit Clifford group")
        u = ens.elements
        if len(set(_round_keys(_canonical_phases(u)))) != order:
            raise ValueError("a Clifford layer repeats an element modulo phase")
        images = np.einsum("nab,gbc,ndc->ngad", u, gens, u.conj(), optimize=True)
        top = np.abs(images.reshape(-1, e.d * e.d) @ coords).max(axis=1)
        if np.abs(top - 1.0).max() > CLIFFORD_TOL:
            raise ValueError("a Clifford layer maps some X_j or Z_j off the signed Paulis")
    return q, [x.matrix for x in layers[1::2]]


@functools.lru_cache(maxsize=None)
def _permuted_traces(d: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Tables for tr(P_a^-1 P_b X) = tr(P_s X) over S_t on (C^d)^(x t).

    ``pairs[a, b]`` is the position of s = a^-1 b in haar._permutations(t),
    and tr(P_s X) = sum_j X[j, cols[s, j]].
    """
    perms = haar._permutations(t)
    position = {p: i for i, p in enumerate(perms)}
    inverse = np.argsort(np.array(perms), axis=1)
    pairs = np.array([[position[tuple(a[list(b)])] for b in perms] for a in inverse])
    cols = np.array([haar.perm_operator(p, d).argmax(axis=0) for p in perms])
    return pairs, cols


def _commutant_moment(q: int, fixed: Sequence[np.ndarray],
                      t: int) -> tuple[np.ndarray, np.ndarray]:
    """Order-t moment operator of C V_1 C ... V_k C and the Haar projector,
    both in whitened coordinates of the Clifford commutant.

    The commutant of C^(x t) is spanned by the operators R_i: the
    permutations P_a, and at t = 4 also the products P_a Q (Zhu, Kueng,
    Grassl, Gross, arXiv:1609.08172).  The moment operator is
    Pi A_1 Pi ... A_k Pi, with Pi the projector onto the commutant and
    A = Ad V^(x t).  With G_ij = tr(R_i^dag R_j) and
    K_ij = tr(R_i^dag V^(x t) R_j V^(x t)dag), it is R X R^dag in
    coordinates where X = prod_k G^(+1/2) K_k G^(+1/2), so its Frobenius
    norm is that of X; the Haar projector onto the permutations becomes
    G^(+1/2) G[:, S] G[S, S]^+ G[S, :] G^(+1/2).  Q and V^(x t) commute with
    every permutation, so each entry is a trace tr(P_s Y) with Y one of
    I, Q, Q_V = V^(x 4) Q V^(x 4)dag and Q Q_V.
    """
    if t > 4:
        raise ValueError(f"the Clifford commutant is coded for t <= 4, not t = {t}")
    d = 2 ** q
    pairs, cols = _permuted_traces(d, t)
    rows = np.arange(d ** t)

    def traces(y):
        return y[rows, cols].sum(axis=1)[pairs]

    perm_gram = haar._gram(d, t)
    if t < 4:
        # the Clifford group is a 3-design: the permutations span it all
        gram, kernels = perm_gram, [perm_gram] * len(fixed)
    else:
        # Q = d^-2 sum_P P^(x 4): the fourth powers of the normalised Paulis
        k2 = haar._kron_powers(paulis.pauli_basis(q), 2)[-1].reshape(d * d, -1)
        qop = (k2.T @ k2).reshape((d * d,) * 4).transpose(0, 2, 1, 3).reshape(d ** 4, -1)
        tq = traces(qop)
        gram = np.block([[perm_gram, tq], [tq, tq]])
        kernels = []
        for v in fixed:
            w = haar._kron_powers(np.asarray(v)[None], 4)[-1][0]
            qv = w @ qop @ w.conj().T
            kernels.append(np.block([[perm_gram, traces(qv)], [tq, traces(qop @ qv)]]))
    root, _ = numerics.pinv_psd(gram, power=0.5)
    moment = root @ gram @ root
    for k in kernels:
        moment = moment @ (root @ k @ root)
    n = len(perm_gram)
    haar_part = root @ gram[:, :n] @ haar._gram_pinv(d, t)[0] @ gram[:n] @ root
    return moment, haar_part


def _verify_in_commutant(e: UnitaryEnsemble, t: int, tol: float,
                         frame_potential_mode: str) -> DesignReport:
    """Exact diagonal residuals ||M_k - P_Haar||_F, k <= t <= 4, of a
    Clifford-layered product design; residual^2 = FP - FP_Haar."""
    try:
        q, fixed = _clifford_layers(e)
    except ValueError as exc:
        raise ValueError(f"product ensembles require mc_samples, except Clifford-layered "
                         f"ones: {exc}") from None
    residuals = {(0, 0): 0.0}
    for k in range(1, t + 1):
        moment, haar_part = _commutant_moment(q, fixed, k)
        residuals[(k, k)] = float(np.sqrt((np.abs(moment - haar_part) ** 2).sum()))
    fp = haar_fp = None
    if frame_potential_mode != "skip":
        fp = float((np.abs(moment) ** 2).sum())
        haar_fp = haar.haar_frame_potential(e.d, t)
    return DesignReport(d=e.d, t_checked=t, strong=False, mode="commutant", tol=tol,
                        residuals=residuals, stderrs=None, frame_potential=fp,
                        frame_potential_stderr=None, haar_frame_potential=haar_fp,
                        passed=all(v <= tol for v in residuals.values()))


# ---------------------------------------------------------------------------
# file format


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _ensemble_to_json(e: UnitaryEnsemble) -> dict:
    out: dict = {"d": e.d, "kind": e.kind}
    if e.kind == "explicit":
        out["elements"] = [_matrix_to_json(u) for u in e.elements]
    else:
        out["layers"] = [
            {"kind": "fixed", "matrix": _matrix_to_json(x.matrix)} if isinstance(x, FixedLayer)
            else {"kind": "ensemble", "ensemble": _ensemble_to_json(x.ensemble)}
            for x in e.layers]
        for item, x in zip(out["layers"], e.layers):
            if x.offset:
                item["offset"] = x.offset
    return out


def _ensemble_from_json(doc: dict) -> UnitaryEnsemble:
    """Ensemble of a design file.  A layer without "offset" starts at 0.
    Older files may nest product layers, which are inlined, or hold "ctrl"
    layers U0 (+) U1, read as the block pair (U0 (+) I)(I (+) U1)."""
    if doc["kind"] == "explicit":
        elems = np.array([_matrix_from_json(m) for m in doc["elements"]])
        return UnitaryEnsemble(d=doc["d"], kind="explicit", elements=elems)
    layers: list[Layer] = []
    for item in doc["layers"]:
        offset = item.get("offset", 0)
        if item["kind"] == "fixed":
            layers.append(FixedLayer(_matrix_from_json(item["matrix"]), offset))
        elif item["kind"] == "ensemble":
            layers.append(EnsembleLayer(_ensemble_from_json(item["ensemble"]), offset))
        elif item["kind"] == "ctrl":
            half = _ensemble_from_json(item["ensemble"])
            layers += [EnsembleLayer(half), EnsembleLayer(half, half.d)]
        else:
            raise ValueError(f"unknown layer kind {item['kind']!r}")
    return UnitaryEnsemble(d=doc["d"], kind="product", layers=tuple(layers))


def save_design(e: UnitaryEnsemble, path: str, extra: Optional[dict] = None) -> None:
    """Write an ensemble as JSON; floats round-trip exactly."""
    doc = {"format": "exactrb-design", "version": 1}
    doc.update(extra or {})
    doc.update(_ensemble_to_json(e))
    # one dumps call runs the C encoder; json.dump streams through the
    # pure-Python one, three times slower on the interleaved design
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def load_design(path: str) -> UnitaryEnsemble:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != "exactrb-design":
        raise ValueError("not a design file")
    return _ensemble_from_json(doc)
