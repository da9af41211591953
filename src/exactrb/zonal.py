"""Zonal spherical functions for the rank-one symmetric pair and the angles
they prescribe.

For the pair (U(d), U(1) x U(d-1)) the spherical functions of the labels
(k, 0, ..., 0, -k) are polynomials in the single invariant x = cos^2(theta)
of the double coset: the Jacobi polynomials P_k^(d-2, 0)(2x - 1),
normalized to 1 at x = 1.  Their zeros supply the rotation angles of the
inductive design construction; the largest zero in (0, 1) is the one used.
The zeros are the eigenvalues of the recurrence's symmetric tridiagonal
Jacobi matrix (Golub & Welsch), formed densely since k <= haar.MAX_T, exact
to rounding, with no root search;
:func:`_jacobi_shifted` evaluates the polynomial itself by the three-term
recurrence, an independent check of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SphericalLabel:
    """Nonzero spherical label: the positive partition half of (mu, 0, -mu~)."""

    positive_part: tuple[int, ...]
    d1: int
    d: int

    def __post_init__(self):
        mu = self.positive_part
        if len(mu) == 0 or any(p < 1 for p in mu):
            raise ValueError("positive_part must be a nonempty positive partition")
        if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
            raise ValueError("positive_part must be non-increasing")
        if len(mu) > self.d1:
            raise ValueError("partition length exceeds d1")
        if self.d1 * 2 > self.d:
            raise ValueError("need d1 <= d/2")


def enumerate_sph_labels(d1: int, d: int, t: int) -> list[SphericalLabel]:
    """All nonzero spherical labels with at most d1 parts summing to <= t.

    Deterministic lexicographic order.  For d1 = 1 these are (1), ..., (t).
    """
    if d1 < 1 or d1 * 2 > d:
        raise ValueError("need 1 <= d1 <= d/2")
    if t < 1:
        raise ValueError("t must be >= 1")
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int, max_part: int):
        if prefix:
            out.append(prefix)
        if len(prefix) == d1:
            return
        for part in range(1, min(remaining, max_part) + 1):
            extend(prefix + (part,), remaining - part, part)

    extend((), t, t)
    out.sort()
    return [SphericalLabel(positive_part=mu, d1=d1, d=d) for mu in out]


def _jacobi_shifted(k: int, d: int, x):
    """P_k^(d-2, 0)(2x - 1) normalized to 1 at x = 1, by the recurrence.

    Nothing in the construction calls it: it checks the zeros of
    :func:`_zeros` by a route that never forms the Jacobi matrix.
    """
    alpha = d - 2
    u = 2.0 * np.asarray(x, dtype=float) - 1.0
    p_prev = np.ones_like(u)
    if k == 0:
        norm = 1.0
        return p_prev / norm
    p_cur = (alpha + 1.0) + (alpha + 2.0) * (u - 1.0) / 2.0
    for n in range(2, k + 1):
        a = 2.0 * n * (n + alpha) * (2.0 * n + alpha - 2.0)
        b = (2.0 * n + alpha - 1.0) * ((2.0 * n + alpha) * (2.0 * n + alpha - 2.0) * u + alpha ** 2)
        c = 2.0 * (n + alpha - 1.0) * (n - 1.0) * (2.0 * n + alpha)
        p_cur, p_prev = (b * p_cur - c * p_prev) / a, p_cur
    # value at u = 1 is binom(k + alpha, k)
    norm = 1.0
    for i in range(1, k + 1):
        norm *= (alpha + i) / i
    return p_cur / norm


def _zeros(k: int, d: int) -> np.ndarray:
    """The k zeros in (0, 1) of the rank-one zonal polynomial, ascending.

    They are x = (u + 1) / 2 over the eigenvalues u of the symmetric Jacobi
    matrix of P_k^(alpha, 0), alpha = d - 2: the three-term recurrence's
    coefficients on the tridiagonal (Golub & Welsch, Math. Comp. 23, 1969).
    The j = 0 diagonal entry -alpha / (alpha + 2) is the general one,
    -alpha^2 / ((2j + alpha)(2j + alpha + 2)), without its 0/0 at alpha = 0.
    """
    alpha = d - 2.0
    j = np.arange(1.0, k)
    s = 2.0 * j + alpha
    diag = np.concatenate([[-alpha / (alpha + 2.0)], -alpha ** 2 / (s * (s + 2.0))])
    off = 2.0 * j * (j + alpha) / (s * np.sqrt(s * s - 1.0))
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return (np.linalg.eigvalsh(jacobi) + 1.0) / 2.0


def find_angles(label: SphericalLabel) -> np.ndarray:
    """Rotation angles of a rank-one label: the one-entry array
    theta = arccos(sqrt(x*)) at the largest zero x* of the zonal polynomial.

    Only d1 = 1 labels are supported; multi-variable spherical functions are
    out of scope and their angle tables must be supplied externally.
    """
    if label.d1 != 1:
        raise ValueError("find_angles supports d1 = 1 only; supply external angle tables")
    x_star = _zeros(label.positive_part[0], label.d)[-1]
    return np.array([np.arccos(np.sqrt(x_star))])


def gate_count_estimate(n_qubits: int, t: int) -> float:
    """Leading-order count of design layers for the qubit tower construction.

    Grows as exp(pi sqrt(2 t / 3) (N - 1)) with N the qubit count, the
    Hardy-Ramanujan growth of the partition numbers that label the layers.
    """
    if n_qubits < 1 or t < 1:
        raise ValueError("need n_qubits >= 1 and t >= 1")
    return float(np.exp(np.pi * np.sqrt(2.0 * t / 3.0) * (n_qubits - 1)))
