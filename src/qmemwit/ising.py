"""Transverse-field Ising interaction between a probed qubit and one memory qubit.

System and environment start in the maximally entangled state; they interact
for a time t under H(J, h) between the two measurement stations.  Everything
here is a pure function of (J, h, t).
"""

from __future__ import annotations

import math

import numpy as np

from . import process as pr
from . import tensorlinalg as tl
from .process import A_I, A_O, B_I, E_I, E_O, ProcessMatrix
from .tensorlinalg import PAULI_X, PAULI_Z, TensorOperator


def hamiltonian(J: float, h: float) -> TensorOperator:
    """H = -J sx sx - h (sz 1 + 1 sz) on (A_O, E_I); Hermitian and traceless."""
    mat = -J * np.kron(PAULI_X, PAULI_X) - h * (
        np.kron(PAULI_Z, np.eye(2)) + np.kron(np.eye(2), PAULI_Z)
    )
    return tl.operator([(A_O, 2), (E_I, 2)], mat)


def evolution(J: float, h: float, t: float) -> TensorOperator:
    """U(J, h, t) = exp(-i H(J, h) t); satisfies U(J, h, t) = U(Jt, ht, 1)."""
    return tl.unitary_from_hamiltonian(hamiltonian(J, h), t)


_PHI_PLUS = np.zeros((4, 4), dtype=complex)
_v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
_PHI_PLUS[:, :] = np.outer(_v, _v.conj())
del _v


def initial_state() -> TensorOperator:
    """|phi+><phi+| on (A_I, E_I) with |phi+> = (|00> + |11>)/sqrt(2)."""
    return tl.operator([(A_I, 2), (E_I, 2)], _PHI_PLUS)


def process_matrix(J: float, h: float, t: float) -> ProcessMatrix:
    """W(J, h, t) = Tr_{E_O} of the link of |phi+><phi+| with the evolution Choi."""
    choi = pr.choi_of_unitary(evolution(J, h, t), (A_O, E_I), (B_I, E_O))
    linked = pr.link_product(initial_state(), choi)
    w = tl.partial_trace(linked, {E_O})
    return ProcessMatrix(w.hermitized())


def analytic_h0(J: float, t: float) -> ProcessMatrix:
    """Closed form of W(J, 0, t): an equal mixture of two product processes."""
    return pr.classical_memory_process(analytic_h0_mixture(J, t))


def analytic_h0_mixture(J: float, t: float) -> pr.ClassicalMemoryProcess:
    """The two-term mixture behind the h = 0 process.

    For each sx eigenstate |nu> (nu = +1 listed first), the system starts in
    |nu> and evolves from A to B under the single-qubit unitary exp(i nu J sx t).
    """
    terms = []
    for nu in (+1, -1):
        ket = np.array([1, nu], dtype=complex) / np.sqrt(2)
        rho = tl.operator([(A_I, 2)], np.outer(ket, ket.conj()))
        u = tl.unitary_from_hamiltonian(tl.operator([(A_O, 2)], -nu * J * PAULI_X), t)
        choi = pr.choi_of_unitary(u, (A_O,), (B_I,))
        terms.append((0.5, rho, pr.ChannelChoi(choi, A_O, B_I)))
    return pr.ClassicalMemoryProcess(tuple(terms))


def markovian_points(J_max: float, h_max: float) -> list[tuple[float, float]]:
    """Discrete lattice of (J, h) where the joint evolution factorizes at t = 1.

    J = pi k1 and h = (pi/2) sqrt(k2^2 - k1^2) for integers k2 >= k1 >= 0,
    plus the isolated point (pi/2, 0).  Only h >= 0 is enumerated; sorted
    lexicographically with duplicates removed.
    """
    if J_max <= 0 or h_max <= 0:
        raise ValueError("bounds must be positive")
    points = set()
    k1 = 0
    while math.pi * k1 <= J_max + 1e-12:
        k2 = k1
        while True:
            h = 0.5 * math.pi * math.sqrt(k2 * k2 - k1 * k1)
            if h > h_max + 1e-12:
                break
            points.add((round(math.pi * k1, 12), round(h, 12)))
            k2 += 1
        k1 += 1
    if math.pi / 2 <= J_max + 1e-12:
        points.add((round(math.pi / 2, 12), 0.0))
    return sorted(points)


def factorizes(u: TensorOperator) -> bool:
    """True iff the 4x4 unitary has operator Schmidt rank 1 across its two
    qubits, its second Schmidt coefficient at most 1e-8 of its first."""
    if u.space.dims != (2, 2):
        raise ValueError("expected a two-qubit operator")
    if not tl.is_unitary(u):
        raise ValueError("operator is not unitary within tolerance")
    r = u.as_tensor().transpose(0, 2, 1, 3).reshape(4, 4)
    s = np.linalg.svd(r, compute_uv=False)
    return bool(s[1] <= 1e-8 * s[0])
