"""Certification of the memory class behind a two-station process.

Three detection routes, all reading the process matrix as a bipartite state
across A_I | A_O B_I: the partial-transpose eigenvalue test with its
eigenvector witness, the same test as a witness SDP that accepts linear
restrictions, and a level-2 symmetric-extension feasibility SDP whose
infeasibility certificate maps back to a witness when ``sdp.verify`` finds
its margin, the least eigenvalue of S = -A*(y), nonnegative.  A verdict of
``quantum_memory`` is always accompanied by a witness operator; everything
else is ``inconclusive`` (separability is never certified).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import process as pr
from . import sdp
from . import tensorlinalg as tl
from .process import A_I, A_O, B_I, PROCESS_LABELS, ProcessMatrix
from .tensorlinalg import TensorOperator

METHOD_PPT = "ppt"
METHOD_PPT_SDP = "ppt_sdp"
METHOD_DPS2 = "dps2"

VERDICT_QUANTUM = "quantum_memory"
VERDICT_INCONCLUSIVE = "inconclusive"

# below tol_detect the verdict is "inconclusive", never "classical"
TOL_DETECT = 1e-9

EXTENSION_LABEL = "A_I2"


def tol_detect(w: ProcessMatrix) -> float:
    return TOL_DETECT * tl.spectral_norm(w.op)


@dataclass
class WitnessReport:
    method: str
    verdict: str
    value: float
    witness: TensorOperator | None
    diagnostics: dict = field(default_factory=dict)
    # the SDP behind an SDP method's verdict, as solved; None for ``ppt``
    sdp_run: tuple[sdp.SdpProblem, sdp.SdpResult] | None = None


# ---------------------------------------------------------------------------
# level 1: partial transpose
# ---------------------------------------------------------------------------


def ppt_min_eig(w: ProcessMatrix) -> float:
    """Smallest eigenvalue of W^{T_{A_I}}; negative certifies a quantum memory."""
    vals, _ = tl.herm_eig(tl.partial_transpose(w.op, {A_I}))
    return float(vals[0])


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    return vec / phase


def ppt_witness(w: ProcessMatrix) -> WitnessReport:
    """Witness from the most negative eigenvector of W^{T_{A_I}}.

    Z = (|psi><psi|)^{T_{A_I}} satisfies Tr(Z W) = lambda_min and is
    nonnegative on every product (and hence classical-memory) process.
    """
    wt = tl.partial_transpose(w.op, {A_I})
    vals, vecs = tl.herm_eig(wt)
    lam = float(vals[0])
    tol = tol_detect(w)
    if lam >= -tol:
        return WitnessReport(
            METHOD_PPT, VERDICT_INCONCLUSIVE, lam, None, {"min_eig": lam, "tol": tol}
        )
    psi = _fix_phase(vecs[:, 0])
    z = tl.partial_transpose(
        TensorOperator(w.op.space, np.outer(psi, psi.conj())), {A_I}
    )
    value = float(np.trace(z.mat @ w.op.mat).real)
    return WitnessReport(
        METHOD_PPT,
        VERDICT_QUANTUM,
        value,
        z,
        {"min_eig": lam, "tol": tol, "witness_value_vs_min_eig": abs(value - lam)},
    )


# ---------------------------------------------------------------------------
# level 1 as an SDP (accepts linear restrictions on the witness)
# ---------------------------------------------------------------------------


def _station_swap_permutation(space: tl.SubsystemSpace) -> np.ndarray:
    """Basis permutation swapping the A_I and A_O factors of (A_I, A_O, B_I)."""
    d_ai, d_ao, d_bi = space.dims
    if d_ai != d_ao:
        raise ValueError("swap constraint requires equal A_I and A_O dimensions")
    return np.arange(space.total_dim).reshape(d_ai, d_ao, d_bi).transpose(1, 0, 2).reshape(-1)


def witness_sdp(
    w: ProcessMatrix,
    constraints: list[tuple[TensorOperator, float]] | None = None,
    swap_symmetric: bool = False,
) -> WitnessReport:
    """Witness search as the SDP: maximize -Tr(Z W^{T_{A_I}}), Tr Z = 1, Z >= 0.

    Unconstrained, the optimum is -lambda_min(W^{T_{A_I}}).  Linear
    restrictions Tr(A_k Z) = b_k and the station-swap symmetry P Z P = Z can
    only lower the optimum.  The symmetry adds no constraint: W^{T_{A_I}} and
    every A_k are replaced by their averages (a + P a P) / 2 over {I, P}.
    That problem is invariant under Z -> P Z P, so the average of any
    feasible Z is feasible with the same objective, and its optimum is the
    optimum restricted to P Z P = Z (Gatermann and Parrilo, J. Pure Appl.
    Algebra 192 (2004)).  The returned witness is Z^{T_{A_I}} for the average
    of the optimizer.  Without the symmetry P = I, and averaging changes no bit.
    Without restrictions the problem's constraint set is Tr Z = 1 alone,
    shared by every call of that dimension (the average of I is I).
    """
    m = tl.partial_transpose(w.op, {A_I})
    dim = m.space.total_dim
    perm = _station_swap_permutation(w.op.space) if swap_symmetric else np.arange(dim)

    def avg(a: np.ndarray) -> np.ndarray:
        return (a + a[perm][:, perm]) / 2

    objective = sdp.BlockMatrix([avg(m.mat)])
    if constraints:
        cons = [(sdp.BlockMatrix([np.eye(dim, dtype=complex)]), 1.0)] + [
            (sdp.BlockMatrix([avg(tl.reorder(a_op, w.op.labels).mat)]), float(b_val))
            for a_op, b_val in constraints
        ]
        problem = sdp.SdpProblem.from_constraints((dim,), objective, cons)
    else:
        problem = sdp.SdpProblem(objective, _trace_constraint_set(dim), np.ones(1))
    result, diagnostics = _solve_verified(problem)
    run = (problem, result)
    if result.status != sdp.OPTIMAL or not diagnostics["verified"]:
        return WitnessReport(METHOD_PPT_SDP, VERDICT_INCONCLUSIVE, 0.0, None, diagnostics, run)
    optimum = -result.objective_value
    diagnostics["optimum"] = optimum
    z = tl.partial_transpose(TensorOperator(m.space, avg(result.x.blocks[0])), {A_I})
    value = float(np.trace(z.mat @ w.op.mat).real)
    tol = tol_detect(w)
    diagnostics["tol"] = tol
    if value < -tol:
        return WitnessReport(METHOD_PPT_SDP, VERDICT_QUANTUM, value, z, diagnostics, run)
    return WitnessReport(METHOD_PPT_SDP, VERDICT_INCONCLUSIVE, value, None, diagnostics, run)


@lru_cache(maxsize=4)
def _trace_constraint_set(dim: int) -> sdp.ConstraintSet:
    """The constraint Tr Z = 1 on one block of side dim, with its solver caches."""
    return sdp.ConstraintSet((dim,), [np.eye(dim, dtype=complex)[None]])


def _solve_verified(problem: sdp.SdpProblem) -> tuple[sdp.SdpResult, dict]:
    """Solve, recompute every invariant with ``sdp.verify``, report both.

    For a verified infeasible result, ``certificate_min_eig`` is the least
    eigenvalue of the Farkas certificate's S = -A*(y) as ``verify`` formed it
    from the constraints' nonzero entries.
    """
    result = sdp.solve(problem)
    verification = sdp.verify(problem, result)
    diagnostics = {
        "solver_status": result.status,
        "iterations": result.info.get("iterations"),
        "verified": verification.ok,
        "verification": str(verification),
    }
    if result.status == sdp.INFEASIBLE and verification.ok:
        diagnostics["certificate_min_eig"] = verification.checks["certificate_psd"][1]
    return result, diagnostics


# ---------------------------------------------------------------------------
# level 2: symmetric extension (one SDP, three PSD blocks, linear links)
# ---------------------------------------------------------------------------


def _hermitian_basis(n: int):
    """Hermitian basis of the n x n matrices, the n diagonal units first.

    Returns the (n^2, n, n) stack and, per element H, its entry (i, j) and
    whether Tr(H X) reads Re X_ij (True) or Im X_ij (False) of a Hermitian X.
    """
    entries = [(i, i, True) for i in range(n)] + [
        (i, j, re) for i in range(n) for j in range(i + 1, n) for re in (True, False)
    ]
    stack = np.zeros((n * n, n, n), dtype=complex)
    for k, (i, j, re) in enumerate(entries):
        if i == j:
            stack[k, i, i] = 1.0
        elif re:
            stack[k, i, j] = stack[k, j, i] = 0.5
        else:
            stack[k, i, j], stack[k, j, i] = 0.5j, -0.5j
    rows, cols, real = (np.array(column) for column in zip(*entries))
    return stack, rows, cols, real


class _Dps2Template:
    """Constraint structure of the level-2 extension SDP, shared across points.

    The extension X lives on (A_I, A_O, B_I, A_I2), of side n = d_ab * d_ai
    with d_ab = d_ai * d_ao * d_bi.  The three PSD blocks are X, its partial
    transpose on the second A_I copy and its partial transpose on
    B = (A_O, B_I).  The rows, each group in ``_hermitian_basis`` order:

    - rows [0, d_ab^2): the marginal Tr_{A_I2} X = rho, with h (x) 1 on block 0;
    - the next n^2 rows: block 1 is X^{T_{A_I2}}, with -h^{T_{A_I2}} on
      block 0 and h on block 1;
    - the next n^2 rows: block 2 is X^{T_B}, with -h^{T_B} on block 0 and h
      on block 2;
    - the remaining rows: swap symmetry between the two A_I copies, P X P = X,
      as h - P h P for each basis element h that P moves and whose entry
      leads its orbit, in row-major order of the entries.

    Only the marginal right-hand side depends on the process matrix under
    test.
    """

    def __init__(self, dims):
        d_ai, d_ao, d_bi = dims
        d_ab = d_ai * d_ao * d_bi
        ext_factors = [(A_I, d_ai), (A_O, d_ao), (B_I, d_bi), (EXTENSION_LABEL, d_ai)]
        n = d_ab * d_ai

        # marginal over the extension copy equals the state under test
        self.marginal_basis, rows, cols, self.marginal_real = _hermitian_basis(d_ab)
        self.marginal_index = (rows, cols)
        lift = np.eye(d_ai, dtype=complex)
        marginal = np.stack([np.kron(h, lift) for h in self.marginal_basis])

        # block 1 is the partial transpose on the second A_I copy, block 2 on B
        link_basis, rows, cols, real = _hermitian_basis(n)

        def transposed(labels):
            return np.stack(
                [tl.partial_transpose(tl.operator(ext_factors, h), labels).mat for h in link_basis]
            )

        # swap symmetry between the two A_I copies, (a, ob, a2) -> (a2, ob, a):
        # h - P h P for each basis element h that P moves and whose entry
        # (i, j) comes first, row-major, among (i, j), (j, i) and their images;
        # + 0.0 clears the sign of the zero real parts of -0.5j, which the
        # problem's JSON dump would print
        perm = np.arange(n).reshape(d_ai, d_ao * d_bi, d_ai).transpose(2, 1, 0).reshape(-1)
        anti = link_basis - link_basis[:, perm][:, :, perm] + 0.0
        p_rows, p_cols = perm[rows], perm[cols]
        first = rows * n + cols <= np.minimum(p_rows * n + p_cols, p_cols * n + p_rows)
        order = np.lexsort((~real, cols, rows))
        swap = anti[order[(first & anti.any(axis=(1, 2)))[order]]]

        def zeros(k):
            return np.zeros((k, n, n), dtype=complex)

        d2, n2 = d_ab * d_ab, n * n
        stacks = [
            np.concatenate(
                [marginal, -transposed({EXTENSION_LABEL}), -transposed({A_O, B_I}), swap]
            ),
            np.concatenate([zeros(d2), link_basis, zeros(n2 + len(swap))]),
            np.concatenate([zeros(d2 + n2), link_basis, zeros(len(swap))]),
        ]
        self.constraint_set = sdp.ConstraintSet((n, n, n), stacks)
        self.m = self.constraint_set.m

    def problem(self, w: ProcessMatrix) -> sdp.SdpProblem:
        rho = tl.reorder(w.op, PROCESS_LABELS).mat / w.op.trace().real
        entries = rho[self.marginal_index]
        b = np.zeros(self.m)
        b[: entries.size] = np.where(self.marginal_real, entries.real, entries.imag)
        return sdp.SdpProblem(None, self.constraint_set, b)


@lru_cache(maxsize=4)
def _dps2_template(dims) -> _Dps2Template:
    return _Dps2Template(dims)


def dps2_feasibility(w: ProcessMatrix) -> WitnessReport:
    """Level-2 symmetric-extension test; infeasibility certifies quantum memory.

    Feasibility of the extension SDP is inconclusive (consistent with
    classical memory).  On the Markovian J = 0 line the projection of the
    solver's start point onto the extension's affine set is an extension
    whose every block has 12 eigenvalues at rounding level (+1.4e-16 to
    +1.0e-15 on criterion 6's 31 points there), although rho = W / Tr W has
    rank 2 there as at every Ising point.  While those eigenvalues come out
    positive, the projection is a positive-definite extension and the solve
    ends there, at iteration 0, optimal with y = 0 (``info["stop"]`` is
    ``start_projection``); a rounding change that made one of them negative
    would send the point through the iteration instead.  A verified
    infeasible result is mapped to a witness only when its certificate
    margin, the least eigenvalue of S = -A*(y) that ``sdp.verify`` formed
    from the constraints' nonzero entries, is nonnegative; the verdict is
    ``quantum_memory`` when the witness value on W is below -tol_detect(w),
    as for the other methods.  Otherwise, as on a solver failure, the
    verdict is withheld with a ``reason`` in the diagnostics.
    """
    template = _dps2_template(w.dims)
    problem = template.problem(w)
    result, diagnostics = _solve_verified(problem)
    run = (problem, result)
    if result.status == sdp.OPTIMAL and diagnostics["verified"]:
        return WitnessReport(METHOD_DPS2, VERDICT_INCONCLUSIVE, 0.0, None, diagnostics, run)
    margin = diagnostics.get("certificate_min_eig")
    if not diagnostics["verified"]:
        diagnostics["reason"] = result.info.get("reason", "unverified result")
    elif margin < 0:
        diagnostics["reason"] = f"certificate margin {margin:.3e} is negative: S is not PSD"
    else:
        # Only the marginal rows k < d_ab^2 have a right-hand side, b_k =
        # Tr(h_k rho), so Z = -sum_k y_k h_k over them gives Tr(Z sigma) =
        # -b(sigma).y.  A state sigma with a PPT symmetric extension X has
        # -b(sigma).y = <S, X> >= 0, as S = -A*(y) is PSD; for the state under
        # test, b.y = 1 gives Tr(Z rho) = -1.
        marginal = len(template.marginal_basis)
        z = np.tensordot(-result.y[:marginal], template.marginal_basis, axes=(0, 0))
        witness = tl.operator(list(zip(PROCESS_LABELS, w.dims)), z).hermitized()
        value = float(np.trace(witness.mat @ tl.reorder(w.op, PROCESS_LABELS).mat).real)
        tol = tol_detect(w)
        if value < -tol:
            return WitnessReport(METHOD_DPS2, VERDICT_QUANTUM, value, witness, diagnostics, run)
        diagnostics["reason"] = f"certificate witness value {value:.3e} is not below {-tol:.1e}"
    return WitnessReport(METHOD_DPS2, VERDICT_INCONCLUSIVE, 0.0, None, diagnostics, run)


# ---------------------------------------------------------------------------
# witness validation against random classical-memory processes
# ---------------------------------------------------------------------------


@dataclass
class WitnessValidation:
    min_value: float
    n_samples: int
    failures: list[tuple[int, float]]

    @property
    def ok(self) -> bool:
        return not self.failures


@lru_cache(maxsize=8)
def _classical_sample_mats(seed: int, n_samples: int, dims: tuple[int, int, int]):
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**63 - 1, size=n_samples)
    term_counts = rng.integers(1, 5, size=n_samples)
    mats = np.empty((n_samples, int(np.prod(dims)), int(np.prod(dims))), dtype=complex)
    for k in range(n_samples):
        sample = pr.random_classical_memory(int(seeds[k]), int(term_counts[k]), dims)
        mats[k] = pr.classical_memory_process(sample).op.mat
    mats.setflags(write=False)
    return mats


def validate_witness(
    z: TensorOperator, n_samples: int = 1000, seed: int = 2024
) -> WitnessValidation:
    """Evaluate Tr(z W_cl) over seeded random classical-memory processes."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not z.is_hermitian():
        raise ValueError("witness must be Hermitian")
    z = tl.reorder(z, PROCESS_LABELS)
    dims = z.dims
    mats = _classical_sample_mats(seed, n_samples, tuple(dims))
    values = np.einsum("ij,kji->k", z.mat, mats).real
    failures = [(int(k), float(values[k])) for k in np.nonzero(values < -1e-9)[0]]
    return WitnessValidation(float(values.min()), n_samples, failures)
