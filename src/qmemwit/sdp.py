"""Dense semidefinite programming over Hermitian block-diagonal variables.

Solves   minimize  <C, X>   subject to  <A_k, X> = b_k,  X >= 0 blockwise,
with an objective or in pure feasibility mode (C = 0).  An optimal result
carries the primal X and the dual y; an infeasible one carries its Farkas
certificate as y alone, with S = -A*(y) >= 0 and b.y = 1, which ``verify``
checks by forming S from the constraints' nonzero entries.  The least
eigenvalue of that S, the certificate's margin, is reported by ``verify``
alone.  The algorithm is a primal-dual path-following interior-point method
on the homogeneous self-dual embedding, with Nesterov-Todd scaling and a
Mehrotra predictor-corrector, which ``solve`` runs itself for at most
MAX_ITERATIONS iterations; infeasibility certificates fall out of the same
iteration.
The iteration runs directly on the complex Hermitian blocks, with inner
products <A, B> = Re Tr(A^H B) (Todd, Toh and Tutuncu, SIAM J. Optim. 8
(1998), define the Nesterov-Todd direction on Hermitian matrices).  As
there, each block is scaled once per iteration from X = L L^H, S = R R^H and
the SVD R^H L = U diag(lv) V^H: G = L V diag(lv)^-1/2 gives W = G G^H, and
the scaled point G^-1 X G^-H = G^H S G = diag(lv) is diagonal.  So the
corrector's Lyapunov solve is an entrywise division by (lv_i + lv_j)/2, and
the step bound of X along dX is -1/lambda_min(diag(lv)^-1/2 H diag(lv)^-1/2)
with H = G^-1 dX G^-H, that of S the same with H = G^H dS G, both read for
all blocks with one eigvalsh call per block side (``_least_eigs``, the
module's one spectrum kernel, which also serves the certificate tests and
``verify``).  An iterate whose X or S has no Cholesky factor ends the
iteration with that reason.  Each iteration
makes two solves with its Schur factor: one two-column solve for v_dir and
the predictor's right-hand side, then the corrector's.

An infeasible solve stops at the first iteration whose y yields a
certificate.  The plain test normalizes y to y_hat = y / b.y.  When S =
-A*(y_hat) is not PSD, the shifted test adds t_b y_b for each block b of the
block shifts of the set's start state (``ConstraintSet._start``): y_b is a fixed
multiplier whose -A*(y_b) fits E_b, the identity on block b, is PSD and is at
least sigma_b > 0 on block b, so it lifts block b's spectrum by t_b sigma_b.
The result, rescaled to b.y = 1, is returned only when its recomputed b.y is
1 to SHIFT_NORM_TOL and its recomputed S is PSD, and the t_b are kept in
info["certificate_shift"].  Both tests return only what the INFEASIBLE
contract asks, and only an infeasible problem admits it, so the shift ends
some solves earlier but changes no verdict, and a solve that it does not end
early runs bitwise as without it.  A shifted certificate's margin is smaller
than a converged one's: on its tightest block, about 1% of the eigenvalue
it lifted plus CERT_TOL, over b.y'.

A feasibility solve (no objective, C = 0) stops at iteration 0 when its start
projection is positive definite.  There X = S = I, y = 0 and g_vec = A(W C W)
is exactly 0, so the first Schur solve gives v_dir = G^-1 b, with G = Re(A A^H)
the Gram matrix of the start factor, and the projection of I onto {A(X) = b}
is X_p = I - A*(G^-1 (A(I) - b)) = P_0 + A*(v_dir), with P_0 = I -
A*(G^-1 A(I)) cached per set (``ConstraintSet._start``).  When every
block of X_p has a Cholesky factor and its recomputed primal residual is at
most 0.1 FEAS_TOL, the solve returns OPTIMAL with x = X_p, y = 0 and
objective 0: S = C - A*(0) = 0 and the gap is 0, so the result meets the
OPTIMAL contract as it stands.  This is the projection-and-check step of
Peyrl and Parrilo, Theor. Comput. Sci. 409 (2008), at the one point where it
costs no solve; info["stop"] reads "start_projection".  The test only reads
the iterate, so a solve that it does not end runs bitwise as without it.

A ``ConstraintSet`` receives the operators A_k as one dense (m, n_b, n_b)
stack per block and keeps none of them: the stored form of the constraint
data is each stack's nonzero entries (k, i, j, value) (``_entries``), next
to the sparse matrices that the set derives from the stacks at construction.
The solver applies A and A* only through those sparse matrices
(``ConstraintSet._a_of`` and ``_a_adj``).  ``verify`` checks with
``ConstraintSet.apply`` and ``adjoint`` instead, an independent path that sums
over the nonzero entries with ``np.bincount``, and ``problem_to_json`` writes
the entries.

The Schur complement M_kl = <A_k, W A_l W> of each iteration is a sparse
congruence: for row-major vec and Hermitian W, vec(W A W) = (W kron W^T) vec(A),
so block b adds Re(S_b (W_b kron W_b^T) S_b^H) to M, where the rows of the
sparse S_b are vec(conj A_k) for the constraints from the first to the last
with data in block b (Fujisawa, Kojima and Nakata, Math. Program. 79
(1997), exploit the same sparsity).  The first product u = S_b (W_b kron
W_b^T) is complex; the second is real, R_b [Re u^T; Im u^T] with R_b =
[Re A | -Im A] on the same rows, since only the real part of conj(S_b) u^T
enters M.  M and [Re u^T; Im u^T] live in buffers that each solve takes
once (``ConstraintSet._schur_buffers``) and each of its assemblies
overwrites, and a retried factorization shifts that M's diagonal in place
(``_factor``); W kron W^T and the two products' results are allocated per
block.

The module keeps no state between solves but what each ``ConstraintSet``
holds, all of it read-only once computed: the nonzero entries, the sparse
matrices and the start state, so threads may solve on one set at once.
Every solve starts at X = S = I and y = 0, where the Nesterov-Todd
scaling is W = G = G^-1 = I with lv = 1 and M is the Gram matrix Re(A A^H)
of the constraints, so the Cholesky factor of that M is computed once and
shared by every problem built on the set, with P_0 and the block shifts that
one solve with it gives (``ConstraintSet._start``).  Each result
explains itself in ``info``: the iteration count, the per-iteration
trajectory of (iteration, mu, primal residual, dual residual, gap, tau,
kappa), the diagonal-shift retries of the Schur factorizations of iterations
1 and later (``schur_shifts``; the start factor belongs to the set), the
``stop`` of a solve that ended at its start projection and the reason for
any failure.  ``problem_to_json`` and ``result_to_json`` serialize one solve,
each constraint stack as its stored nonzero entries; the command line's
``--dump-sdp`` writes them per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

HERM_TOL = 1e-10         # Hermiticity defect, relative to max(1, max|entry|) of the data
FEAS_TOL = 1e-8          # primal/dual residuals of an optimal result
GAP_TOL = 1e-7           # relative duality gap of an optimal result
CERT_TOL = 1e-8          # quality of an infeasibility certificate
TAU_KAPPA_RATIO = 1e-8   # tau/kappa threshold of the infeasibility ratio test
# A shifted certificate lifts each block b by t_b sigma_b = SHIFT_SLACK * max(0, -lambda_b)
# + CERT_TOL: the 1% slack absorbs the rounding of A*(y_b) and its off-block entries,
# and the CERT_TOL floor keeps every block's margin clear of rounding in verify's
# recomputation from the entries, including blocks that were already PSD.
SHIFT_SLACK = 1.01
# |b.y - 1| of a shifted certificate after its rescaling by 1/b.y'.  When the shift
# uses up nearly all of b.y_hat = 1, b.y' is a near-cancellation and the rescaling
# magnifies its rounding: such a y meets b.y = 1 only to a few 1e-11, and so does
# the dps2 witness value derived from it.  On the 31x31 dps2 grid, plain certificates
# meet b.y = 1 to 4e-13 at worst.
SHIFT_NORM_TOL = 1e-12
MAX_ITERATIONS = 200
STEP_FRACTION = 0.98
SLAB = 64                # rows of u per copy of the Schur assembly's blocked transpose

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITER = "max_iterations"
FAILURE = "numerical_failure"


def _herm_bound(a: np.ndarray) -> float:
    return HERM_TOL * max(1.0, float(np.max(np.abs(a))))


class BlockMatrix:
    """Block-diagonal matrix stored as a read-only tuple of dense square blocks.

    It does not check Hermiticity: the classes that receive SDP data do,
    ``SdpProblem`` for the objective and ``ConstraintSet`` for the stacks.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[np.ndarray]):
        blocks = tuple(np.array(b, dtype=complex) for b in blocks)
        for b in blocks:
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise ValueError(f"block of shape {b.shape} is not square")
            b.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("BlockMatrix is immutable")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    def inner(self, other: "BlockMatrix") -> float:
        """Hilbert-Schmidt inner product; real for Hermitian arguments."""
        return float(
            sum(np.sum(a.conj() * b).real for a, b in zip(self.blocks, other.blocks))
        )

    def min_eig(self) -> float:
        return min(_least_eigs(self.blocks))

    def norm(self) -> float:
        return float(np.sqrt(sum(np.linalg.norm(b) ** 2 for b in self.blocks)))

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(b))) for b in self.blocks)

    @staticmethod
    def zeros(dims: Sequence[int]) -> "BlockMatrix":
        return BlockMatrix([np.zeros((d, d), dtype=complex) for d in dims])


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _schur_rows(flats) -> tuple:
    """``ConstraintSet._block_csr`` from each block's (m, d^2) rows vec A_k."""
    out = []
    for i, flat in enumerate(flats):
        rows = np.flatnonzero(np.any(flat != 0, axis=1))
        if rows.size == 0:
            continue
        span = slice(int(rows[0]), int(rows[-1]) + 1)
        a = flat[span]
        s_b = scipy.sparse.csr_matrix(a.conj())
        r_b = scipy.sparse.csr_matrix(np.concatenate([a.real, -a.imag], axis=1))
        out.append((i, (span, span), s_b, r_b))
    return tuple(out)


class ConstraintSet:
    """Stacked constraint operators <A_k, X> for one block structure.

    A set receives the operators as one dense (m, n_b, n_b) complex stack per
    block, checks them and derives from them, at construction, every form it
    reads afterwards; it keeps no dense stack.  Those forms are shared between
    problems that differ only in their right-hand sides:

    - ``_entries``: per block, the stack's nonzero entries (k, i, j, value) in
      row-major order, A_k[i, j] = value, the stored form of the operators,
      which ``apply``, ``adjoint``, ``stacks`` and ``problem_to_json`` read;
    - ``_conj_csr``: the rows vec(conj A_k) over all blocks, so that
      <A_k, X> = Re(row_k . vec X), through which the solver applies A and A*
      (``_a_of``, and ``_a_adj`` through ``_conj_csr_t``, its transpose taken
      once, a view on the same arrays);
    - ``_block_csr``: per block with data, (block, index, S_b, R_b) for the
      Schur complement.  The span of block b runs from the first to the last
      constraint with data in that block.  S_b holds the rows vec(conj A_k) of
      block b for the constraints k in the span, and R_b the same rows as
      [Re vec A_k | -Im vec A_k], so that Re(conj(S_b) u^T) = R_b [Re u^T;
      Im u^T]; index = (span, span) addresses those rows and columns of an
      (m, m) matrix.  A row without data in the block only adds zeros;
    - ``_block_traces``: per block b, A(E_b), the traces of the constraints'
      block-b parts, for the start state.

    These, and the solver's start state ``_start`` (the Cholesky factor of
    the Schur complement there, the constant part of the start point's
    projection and the block shifts of the Farkas stop test), are read-only
    and never written again; ``_start`` is the set's one lazy cache, computed
    at the first solve.  The set holds nothing that a solve writes: each solve
    assembles its Schur complements into buffers of its own
    (``_schur_buffers``).  So threads may solve problems on one set at once,
    and the sweep's worker processes each hold their own sets.
    """

    def __init__(self, block_dims: Sequence[int], stacks: Sequence[np.ndarray]):
        self.block_dims = tuple(int(d) for d in block_dims)
        if any(d < 1 for d in self.block_dims):
            raise ValueError("block dims must be positive")
        stacks = [np.asarray(s, dtype=complex) for s in stacks]
        if len(stacks) != len(self.block_dims):
            raise ValueError("one stack per block required")
        m = stacks[0].shape[0]
        for s, d in zip(stacks, self.block_dims):
            if s.shape != (m, d, d):
                raise ValueError(f"stack shape {s.shape} incompatible with block dim {d}")
            if not np.isfinite(s).all():
                raise ValueError("constraint operator is not finite")
            if m and np.max(np.abs(s - s.conj().transpose(0, 2, 1))) > _herm_bound(s):
                raise ValueError("constraint operator is not Hermitian within tolerance")
        self.m = m
        self._splits = np.cumsum([d * d for d in self.block_dims])[:-1]
        entries = []
        for s in stacks:
            k, i, j = np.nonzero(s)
            entries.append(_read_only(k, i, j, s[k, i, j]))
        self._entries = tuple(entries)
        flats = [s.reshape(m, d * d) for s, d in zip(stacks, self.block_dims)]
        # conjugated after the conversion, so that one dense copy exists at a
        # time.  The rows are not built from _entries: freeing this dense block
        # raises glibc's mmap threshold, after which the solver's per-iteration
        # Schur temporaries are reused from the heap instead of being mapped
        # and page-faulted in afresh.
        self._conj_csr = scipy.sparse.csr_matrix(np.concatenate(flats, axis=1)).conj()
        # a CSC view on _conj_csr's arrays: each .T builds a new matrix
        self._conj_csr_t = self._conj_csr.T
        self._block_csr = _schur_rows(flats)
        self._block_traces = _read_only(*(np.einsum("kii->k", s).real for s in stacks))

    @property
    def stacks(self) -> tuple:
        """The dense (m, n_b, n_b) operator stacks, rebuilt from ``_entries`` on
        each access and read-only; the set itself keeps no dense stack."""
        out = []
        for (k, i, j, v), d in zip(self._entries, self.block_dims):
            stack = np.zeros((self.m, d, d), dtype=complex)
            stack[k, i, j] = v
            stack.setflags(write=False)
            out.append(stack)
        return tuple(out)

    def apply(self, x: BlockMatrix) -> np.ndarray:
        """A(X) = (Re <A_k, X>)_k, summed per k over the nonzero entries of each
        stack: the map that ``verify`` checks results with, independent of ``_a_of``."""
        return sum(
            np.bincount(k, weights=(v * xb[i, j].conj()).real, minlength=self.m)
            for (k, i, j, v), xb in zip(self._entries, x.blocks)
        )

    def adjoint(self, y: np.ndarray) -> BlockMatrix:
        """A*(y) = sum_k y_k A_k, summed per entry (i, j) over the nonzero entries
        of each stack: the map that ``verify`` checks results with, independent
        of ``_a_adj``."""
        blocks = []
        for (k, i, j, v), d in zip(self._entries, self.block_dims):
            flat, yk = i * d + j, y[k]
            blk = np.empty(d * d, dtype=complex)
            blk.real = np.bincount(flat, weights=yk * v.real, minlength=d * d)
            blk.imag = np.bincount(flat, weights=yk * v.imag, minlength=d * d)
            blocks.append(blk.reshape(d, d))
        return BlockMatrix(blocks)

    def _a_of(self, blocks) -> np.ndarray:
        """A(X) = (<A_k, X>)_k of the blocks of X, through the sparse rows."""
        vec = np.concatenate([blk.reshape(-1) for blk in blocks])
        return self._conj_csr.dot(vec).real

    def _a_adj(self, y: np.ndarray) -> list:
        """The Hermitian parts of the blocks of A*(y), through the sparse transpose."""
        parts = np.split(self._conj_csr_t.dot(y).conj(), self._splits)
        return [_sym(p.reshape(d, d)) for p, d in zip(parts, self.block_dims)]

    def _schur_buffers(self) -> tuple:
        """A new pair of buffers for ``_schur``: the (m, m) M and a flat real
        buffer, sized for the largest block, that each block reads a prefix of
        as [Re u^T; Im u^T]."""
        size = max((2 * s_b.shape[1] * s_b.shape[0] for _, _, s_b, _ in self._block_csr), default=0)
        return np.empty((self.m, self.m)), np.empty(size)

    def _schur(self, ws, buffers) -> np.ndarray:
        """M_kl = <A_k, W A_l W> for the per-block scalings ws, summed over
        blocks as Re(S_b (W kron W^T) S_b^H), written into the M of buffers,
        a pair from ``_schur_buffers``, and returned."""
        big_m, flat = buffers
        big_m.fill(0.0)
        for i, index, s_b, r_b in self._block_csr:
            w = ws[i]
            d = w.shape[0]
            # the products of np.kron(w, w.T)
            kron = (w[:, None, :, None] * w.T[None, :, None, :]).reshape(d * d, d * d)
            u = s_b.dot(kron)
            # conj(S_b) u^T is the transpose of the block's Hermitian term, whose
            # real part is symmetric: R_b [Re u^T; Im u^T], read from a
            # C-contiguous prefix of the buffer so that scipy copies nothing; the
            # transpose is copied in slabs of SLAB rows of u, which stay in cache
            rows = u.shape[0]
            re_im = flat[: 2 * u.size].reshape(2, d * d, rows)
            src = u.view(float).reshape(rows, d * d, 2).transpose(2, 1, 0)
            for k in range(0, rows, SLAB):
                np.copyto(re_im[:, :, k : k + SLAB], src[:, :, k : k + SLAB])
            big_m[index] += r_b.dot(re_im.reshape(2 * d * d, rows))
        return big_m

    @cached_property
    def _start(self) -> tuple:
        """(factor, P_0, shifts) at the start point x = s = I, y = 0, read-only.

        Every solve starts there, where the Nesterov-Todd scaling is W = I
        exactly, so iteration 0 of every problem on this set factors the same
        Gram matrix G = Re(A A^H): factor is its ``_factor``, None if that
        fails.  One solve with G against [A(I), A(E_0), ..., A(E_B)], with
        A(E_b) the traces of the constraints' block-b parts and A(I) their
        sum, gives the rest.

        P_0 = I - A*(G^-1 A(I)) per block is the constant part of the start
        point's projection onto {A(X) = b}, which is I - A*(G^-1 (A(I) - b))
        = P_0 + A*(G^-1 b).

        shifts holds (b, y_b, sigma_b) for each block b that -A*(y_b) lifts by
        sigma_b > 0.  y_b = -G^-1 A(E_b) is the least-squares multiplier of
        -A*(y) = E_b, the identity on block b.  Block b keeps it when S_b =
        -A*(y_b) is PSD on every block (to HERM_TOL sigma_b) and sigma_b =
        lambda_min(S_b on block b) > 0: adding t y_b to a y then raises block
        b of -A*(y) by at least t sigma_b and lowers no block (Weyl's
        inequality).  Without a factor or constraints, P_0 is None and there
        are no shifts.
        """
        eyes = [np.eye(d, dtype=complex) for d in self.block_dims]
        factor, _ = _factor(self._schur(eyes, self._schur_buffers()))
        if factor is None or self.m == 0:
            return factor, None, ()
        a_eyes = self._block_traces
        rhs = np.stack([sum(a_eyes), *a_eyes], axis=1)
        z = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
        p_0 = tuple(np.eye(d) - a for d, a in zip(self.block_dims, self._a_adj(z[:, 0])))
        shifts = []
        for b in range(len(self.block_dims)):
            y_b = -z[:, b + 1]
            lams = _least_eigs([-blk for blk in self._a_adj(y_b)])
            sigma = lams[b]
            if sigma > 0 and min(lams) >= -HERM_TOL * sigma:
                shifts.append((b, y_b, sigma))
        _read_only(factor[0], *p_0, *(y_b for _, y_b, _ in shifts))
        return factor, p_0, tuple(shifts)


@dataclass
class SdpProblem:
    """min <C, X> (or feasibility when objective is None) s.t. <A_k, X> = b_k, X >= 0."""

    objective: BlockMatrix | None
    constraint_set: ConstraintSet
    b: np.ndarray

    @property
    def block_dims(self) -> tuple[int, ...]:
        return self.constraint_set.block_dims

    def __post_init__(self):
        if self.objective is not None:
            if self.objective.dims != self.block_dims:
                raise ValueError("objective dims do not match the block structure")
            if not all(np.isfinite(blk).all() for blk in self.objective.blocks):
                raise ValueError("objective is not finite")
            if any(np.max(np.abs(c - c.conj().T)) > _herm_bound(c) for c in self.objective.blocks):
                raise ValueError("objective is not Hermitian within tolerance")
        self.b = np.asarray(self.b, dtype=float)
        if self.b.shape != (self.constraint_set.m,):
            raise ValueError("one right-hand side per constraint required")
        if not np.isfinite(self.b).all():
            raise ValueError("right-hand side is not finite")
        real_dim = sum(d * d for d in self.block_dims)
        if self.constraint_set.m > real_dim:
            raise ValueError(
                f"{self.constraint_set.m} constraints exceed the variable's "
                f"real dimension {real_dim}"
            )

    @staticmethod
    def from_constraints(
        block_dims: Sequence[int],
        objective: BlockMatrix | None,
        constraints: Sequence[tuple[BlockMatrix, float]],
    ) -> "SdpProblem":
        stacks = [
            np.array([a.blocks[i] for a, _ in constraints] or np.zeros((0, d, d)), dtype=complex)
            for i, d in enumerate(block_dims)
        ]
        b = np.array([v for _, v in constraints], dtype=float)
        return SdpProblem(objective, ConstraintSet(block_dims, stacks), b)


@dataclass
class SdpResult:
    """One solve.  ``optimal``: X, the dual y and <C, X>.  ``infeasible``: no X,
    and y is the Farkas certificate, scaled to b.y = 1 with -A*(y) >= 0.  Any
    other status: no X, and y is the best iterate's, for inspection only."""

    status: str
    x: BlockMatrix | None
    y: np.ndarray
    objective_value: float
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# interior-point helpers (complex Hermitian blocks)
# ---------------------------------------------------------------------------


def _sym(a: np.ndarray) -> np.ndarray:
    """Hermitian part."""
    return (a + a.conj().T) / 2


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Real inner product Re Tr(a^H b)."""
    return np.vdot(a, b).real


def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """(W, G, G^-1, lv) of one PD block pair, as in the module docstring, with
    G^-1 = diag(lv)^-1/2 U^H R^H; LinAlgError when X or S has no Cholesky factor."""
    l_x = np.linalg.cholesky(x)
    r_s = np.linalg.cholesky(s)
    u, lv, vh = np.linalg.svd(r_s.conj().T @ l_x)
    lv = np.maximum(lv, 1e-300)
    root = np.sqrt(lv)
    g = (l_x @ vh.conj().T) / root
    g_inv = (u.conj().T @ r_s.conj().T) / root[:, None]
    return _sym(g @ g.conj().T), g, g_inv, lv


def _least_eigs(blocks) -> list:
    """lambda_min of each block, from one eigvalsh call per block side."""
    lams = [0.0] * len(blocks)
    for d in {len(blk) for blk in blocks}:
        index = [i for i, blk in enumerate(blocks) if len(blk) == d]
        for i, lam in zip(index, np.linalg.eigvalsh(np.array([blocks[i] for i in index]))[:, 0]):
            lams[i] = float(lam)
    return lams


def _scaled_step(lvs, h_hats) -> float:
    """Largest alpha with diag(lv) + alpha h_hat >= 0 for every pair of the
    per-block lists lvs and h_hats, each h_hat a scaled dX or dS."""
    rs = [1.0 / np.sqrt(lv) for lv in lvs]
    lam = min(_least_eigs([h * r[:, None] * r[None, :] for r, h in zip(rs, h_hats)]))
    return np.inf if lam >= 0 else -1.0 / lam


def _factor(big_m):
    """(cho_factor, retries) of the Schur complement: the factor is retried
    with growing diagonal shifts, retries counts the shifted attempts, and
    the factor is None when every attempt fails.  Each retry overwrites the
    diagonal of big_m in place with the given diagonal plus its shift, the
    same values as big_m + shift * I, so a retry leaves big_m shifted; no
    caller reads big_m after the factorization."""
    m = big_m.shape[0]
    scale = max(np.trace(big_m) / max(m, 1), 1e-30)
    diagonal = np.diagonal(big_m).copy()
    for attempt in range(4):
        try:
            return scipy.linalg.cho_factor(big_m, lower=True, check_finite=False), attempt
        except np.linalg.LinAlgError:
            np.fill_diagonal(big_m, diagonal + scale * 10.0 ** (-14 + 4 * attempt))
    return None, 3


# a Newton direction that overflows is rejected by _finite, not reported as a warning
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


def _finite(direction) -> bool:
    d_x, d_y, d_s, d_tau, d_kappa = direction
    parts = [d_y, np.array([d_tau, d_kappa]), *d_x, *d_s]
    return all(np.isfinite(p).all() for p in parts)


def _start_point_stop(ops, b, v_dir):
    """X_p = P_0 + A*(v_dir), the projection of the start point onto
    {A(X) = b} when v_dir = G^-1 b, if every block of X_p has a Cholesky
    factor and its recomputed primal residual is at most 0.1 FEAS_TOL;
    else None.  Blocks are tried in order, and the residual only after all."""
    p_0 = ops._start[1]
    if p_0 is None:
        return None
    with np.errstate(**_QUIET):
        x_p = [p + d for p, d in zip(p_0, ops._a_adj(v_dir))]
        try:
            for blk in x_p:
                np.linalg.cholesky(blk)
        except np.linalg.LinAlgError:
            return None
        pres = np.linalg.norm(ops._a_of(x_p) - b) / (1.0 + np.linalg.norm(b))
    return x_p if pres <= 0.1 * FEAS_TOL else None


def _solve_factored(factor, rhs):
    """M^-1 rhs through the Cholesky factor, for one column or an (m, k) rhs."""
    if len(rhs) == 0:
        return np.zeros(rhs.shape)
    # a non-finite rhs yields a non-finite direction, which solve() rejects
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


def _try_certificate(ops, b, y, by, tau, kappa, info):
    """A Farkas certificate from the iterate's y, or None.

    The plain test: y_hat = y / b.y, if S = -A*(y_hat) passes CERT_TOL
    and, unless tau has collapsed, is PSD.  Failing that, the shifted
    test: when every block with lambda_b = lambda_min(S on block b) < 0
    has a block shift (``ConstraintSet._start``), y' = y_hat +
    sum_b t_b y_b with t_b sigma_b = SHIFT_SLACK max(0, -lambda_b) +
    CERT_TOL lifts every block above zero by Weyl's inequality, and
    y' / b.y' is returned when b.y' > 0, its recomputed b.y is 1 to
    SHIFT_NORM_TOL and its recomputed S is PSD; the t_b go to
    info["certificate_shift"].  Either way the result meets the
    INFEASIBLE contract, b.y = 1 and S >= 0, which only an infeasible
    problem admits, so the shift ends a solve earlier but never changes
    its verdict.
    """
    if by <= 0:
        return None
    y_hat = y / by
    s_hat = [-blk for blk in ops._a_adj(y_hat)]
    lams = _least_eigs(s_hat)
    lam = min(lams)
    norm = max(float(np.max(np.abs(blk))) for blk in s_hat)
    if lam >= -CERT_TOL * (1.0 + norm) and (tau <= TAU_KAPPA_RATIO * kappa or lam >= 0.0):
        return y_hat
    shifts = ops._start[2]
    shifted = {i for i, _, _ in shifts}
    if any(lam_i < 0 and i not in shifted for i, lam_i in enumerate(lams)):
        return None
    t = [0.0] * len(lams)
    y_shift = y_hat.copy()
    for i, y_i, sigma in shifts:
        t[i] = (SHIFT_SLACK * max(0.0, -lams[i]) + CERT_TOL) / sigma
        y_shift += t[i] * y_i
    by_shift = float(b @ y_shift)
    if by_shift <= 0:
        return None
    y_shift /= by_shift
    if abs(float(b @ y_shift) - 1.0) > SHIFT_NORM_TOL:
        return None
    if min(_least_eigs([-blk for blk in ops._a_adj(y_shift)])) < 0:
        return None
    info["certificate_shift"] = t
    return y_shift


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def solve(problem: SdpProblem) -> SdpResult:
    """Solve an SDP by the homogeneous self-dual iteration on its complex
    Hermitian blocks, for at most MAX_ITERATIONS iterations; deterministic
    given identical inputs.

    Never silently returns a wrong answer: hitting the iteration cap or a
    numerical breakdown is reported in the status.  ``info`` holds the
    iteration count, the (it, mu, pres, dres, gap, tau, kappa) trajectory
    with one row per iteration entered, the Schur factorizations'
    diagonal-shift retries (``schur_shifts``), ``stop`` when a feasibility
    solve ended at its start projection, and the reason for any failure.
    """
    objective = problem.objective or BlockMatrix.zeros(problem.block_dims)
    ops = problem.constraint_set
    b, c, dims = problem.b, objective.blocks, ops.block_dims
    m = len(b)
    n_total = sum(dims)
    x = [np.eye(d, dtype=complex) for d in dims]
    s = [np.eye(d, dtype=complex) for d in dims]
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0
    bnorm = 1.0 + np.linalg.norm(b)
    cnorm = 1.0 + np.sqrt(sum(np.linalg.norm(cb) ** 2 for cb in c))

    best = None
    best_parts = (np.inf, np.inf, np.inf)
    trajectory: list[tuple] = []
    info = {"iterations": 0, "trajectory": trajectory, "schur_shifts": 0}
    schur_buffers = ops._schur_buffers()

    def optimal(xb, yb) -> SdpResult:
        x_opt = BlockMatrix(xb)
        return SdpResult(OPTIMAL, x_opt, yb, objective.inner(x_opt), info=info)

    def without_x(status) -> SdpResult:
        """A failed solve: no X, and y of the best iterate, for inspection only."""
        return SdpResult(status, None, np.zeros(m) if best is None else best[1], np.nan, info=info)

    for it in range(MAX_ITERATIONS):
        info["iterations"] = it
        # residuals of the self-dual system
        ax = ops._a_of(x)
        aty = ops._a_adj(y)
        r_p = b * tau - ax
        r_d = [c[i] * tau - aty[i] - s[i] for i in range(len(dims))]
        cx = sum(_dot(c[i], x[i]) for i in range(len(dims)))
        by = float(b @ y)
        r_g = kappa + cx - by
        mu = (sum(_dot(x[i], s[i]) for i in range(len(dims))) + tau * kappa) / (n_total + 1)

        # dehomogenized convergence test
        pres = np.linalg.norm(ax / tau - b) / bnorm
        dres = (
            np.sqrt(
                sum(
                    np.linalg.norm(aty[i] / tau + s[i] / tau - c[i]) ** 2
                    for i in range(len(dims))
                )
            )
            / cnorm
        )
        pobj, dobj = cx / tau, by / tau
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        score = max(pres, dres, gap)
        trajectory.append((it, mu, pres, dres, gap, tau, kappa))
        if score < max(best_parts):
            best_parts = (pres, dres, gap)
            best = ([xi / tau for xi in x], y / tau)
        if pres <= 0.1 * FEAS_TOL and dres <= 0.1 * FEAS_TOL and gap <= 0.1 * GAP_TOL:
            return optimal(*best)
        if len(trajectory) > 12 and max(best_parts) > 0.5 * max(trajectory[-12][2:5]):
            # stalled; fall through to the incumbent-acceptance check below
            info["reason"] = "progress stalled"
            break

        # infeasibility certificates from the homogeneous iterate
        y_hat = _try_certificate(ops, b, y, by, tau, kappa, info)
        if y_hat is not None:
            return SdpResult(INFEASIBLE, None, y_hat, np.inf, info=info)
        if tau <= TAU_KAPPA_RATIO * kappa:
            info["reason"] = "tau collapsed without a verifiable certificate"
            return without_x(FAILURE)

        # Nesterov-Todd scaling per block
        if it == 0:
            # x = s = I, scaled by W = G = G^-1 = I with lv = 1: the set's start factor
            ws = gs = g_invs = x
            lvs = [np.ones(d) for d in dims]
            factor = ops._start[0]
        else:
            try:
                ws, gs, g_invs, lvs = zip(*[_nt_scaling(x[i], s[i]) for i in range(len(dims))])
            except np.linalg.LinAlgError:
                info["reason"] = "iterate has no Cholesky factor"
                break
            factor, retries = _factor(ops._schur(ws, schur_buffers))
            info["schur_shifts"] += retries
        if factor is None:
            info["reason"] = "Schur complement factorization failed"
            return without_x(FAILURE)
        with np.errstate(**_QUIET):
            # Schur complement pieces shared by both passes
            wcw = [_sym(ws[i] @ c[i] @ ws[i]) for i in range(len(dims))]
            g_vec = ops._a_of(wcw)
            h_cc = sum(_dot(c[i], wcw[i]) for i in range(len(dims)))
            wrdw = [_sym(ws[i] @ r_d[i] @ ws[i]) for i in range(len(dims))]
            a_wrdw = ops._a_of(wrdw)

            def rhs_primal(eta, rc):
                """The right-hand side of one pass's Schur system M u = rhs."""
                return eta * r_p - ops._a_of(rc) + eta * a_wrdw

            # v_dir and the predictor's u (eta = 1, rc = -X) in one two-column solve
            rc_aff = [-x[i] for i in range(len(dims))]
            rhs_aff = rhs_primal(1.0, rc_aff)
            v_dir, u_aff = _solve_factored(factor, np.array([g_vec + b, rhs_aff]).T).T
            c_wrdw = sum(_dot(c[i], wrdw[i]) for i in range(len(dims)))
            b_g = b - g_vec
            denom = float(b_g @ v_dir) + h_cc + kappa / tau

        if it == 0 and problem.objective is None:
            # C = 0 makes g_vec exactly 0, so v_dir = G^-1 b
            x_p = _start_point_stop(ops, b, v_dir)
            if x_p is not None:
                info["stop"] = "start_projection"
                return optimal(x_p, np.zeros(m))

        def newton(eta, rc, u, rhs_tk):
            """The direction whose primal Schur solve u = M^-1 rhs_primal(eta, rc) is given."""
            c_rc = sum(_dot(c[i], rc[i]) for i in range(len(dims)))
            rhs_g2 = eta * r_g + c_rc - eta * c_wrdw + rhs_tk / tau
            d_tau = (rhs_g2 - float(b_g @ u)) / denom
            d_y = u + v_dir * d_tau
            at_dy = ops._a_adj(d_y)
            d_s = [eta * r_d[i] - at_dy[i] + c[i] * d_tau for i in range(len(dims))]
            d_x = [_sym(rc[i] - ws[i] @ d_s[i] @ ws[i]) for i in range(len(dims))]
            d_kappa = (rhs_tk - kappa * d_tau) / tau
            return d_x, d_y, d_s, d_tau, d_kappa

        def scaled(d_x, d_s):
            """G^-1 dX G^-H per block, then G^H dS G per block: the scaled direction."""
            return [gi @ dx @ gi.conj().T for gi, dx in zip(g_invs, d_x)] + [
                g.conj().T @ ds @ g for g, ds in zip(gs, d_s)
            ]

        def step_bound(hats, d_tau, d_kappa):
            alpha = _scaled_step([*lvs, *lvs], hats)
            if d_tau < 0:
                alpha = min(alpha, -tau / d_tau)
            if d_kappa < 0:
                alpha = min(alpha, -kappa / d_kappa)
            return alpha

        # predictor (affine) pass
        with np.errstate(**_QUIET):
            aff = newton(1.0, rc_aff, u_aff, -tau * kappa)
        if not _finite(aff):
            info["reason"] = "non-finite Newton direction"
            break
        aff_hats = scaled(aff[0], aff[2])
        alpha_aff = min(1.0, step_bound(aff_hats, aff[3], aff[4]))
        mu_aff = (
            sum(
                _dot(x[i] + alpha_aff * aff[0][i], s[i] + alpha_aff * aff[2][i])
                for i in range(len(dims))
            )
            + (tau + alpha_aff * aff[3]) * (kappa + alpha_aff * aff[4])
        ) / (n_total + 1)
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-10, 1.0 - 1e-10))

        # corrector pass
        eta = 1.0 - sigma
        with np.errstate(**_QUIET):
            rc = []
            for g, lv, dxa_hat, dsa_hat in zip(gs, lvs, aff_hats, aff_hats[len(dims) :]):
                rhat = np.diag(sigma * mu - lv * lv) - _sym(dxa_hat @ dsa_hat)
                # Lyapunov solve (V D + D V)/2 = rhat at the diagonal V = diag(lv)
                d_hat = rhat / ((lv[:, None] + lv[None, :]) / 2.0)
                rc.append(_sym(g @ d_hat @ g.conj().T))
            rhs_tk = sigma * mu - tau * kappa - aff[3] * aff[4]
            u = _solve_factored(factor, rhs_primal(eta, rc))
            direction = newton(eta, rc, u, rhs_tk)
        if not _finite(direction):
            info["reason"] = "non-finite Newton direction"
            break
        d_x, d_y, d_s, d_tau, d_kappa = direction

        alpha = min(1.0, STEP_FRACTION * step_bound(scaled(d_x, d_s), d_tau, d_kappa))
        if not np.isfinite(alpha) or alpha <= 1e-14:
            info["reason"] = "step length collapsed"
            break

        x = [_sym(x[i] + alpha * d_x[i]) for i in range(len(dims))]
        s = [_sym(s[i] + alpha * d_s[i]) for i in range(len(dims))]
        y = y + alpha * d_y
        tau += alpha * d_tau
        kappa += alpha * d_kappa

    if best_parts[0] <= FEAS_TOL and best_parts[1] <= FEAS_TOL and best_parts[2] <= GAP_TOL:
        # the incumbent already satisfies the result contract
        return optimal(*best)
    y_hat = _try_certificate(ops, b, y, float(b @ y), tau, kappa, info)
    if y_hat is not None:
        return SdpResult(INFEASIBLE, None, y_hat, np.inf, info=info)
    info.setdefault("reason", "iteration limit reached")
    return without_x(MAX_ITER)


@dataclass
class VerificationReport:
    """Independent recomputation of every residual and certificate inequality."""

    checks: dict[str, tuple[bool, float, float]]

    @property
    def ok(self) -> bool:
        return all(passed for passed, _, _ in self.checks.values())

    def __str__(self):
        lines = []
        for name, (passed, value, thr) in self.checks.items():
            lines.append(f"{'pass' if passed else 'FAIL'} {name}: {value:.3e} (<= {thr:.1e})")
        return "\n".join(lines)


def verify(problem: SdpProblem, result: SdpResult) -> VerificationReport:
    """Recompute all result invariants from scratch; report-only.  For an
    infeasible result, checks["certificate_psd"][1] is lambda_min(-A*(y))."""
    checks: dict[str, tuple[bool, float, float]] = {}
    c = problem.objective or BlockMatrix.zeros(problem.block_dims)
    ops = problem.constraint_set

    if result.status == OPTIMAL:
        x = result.x
        ax = ops.apply(x)
        pres = float(np.linalg.norm(ax - problem.b) / (1.0 + np.linalg.norm(problem.b)))
        checks["primal_residual"] = (pres <= FEAS_TOL, pres, FEAS_TOL)
        lam_x = x.min_eig()
        floor_x = -FEAS_TOL * (1.0 + x.norm())
        checks["primal_psd"] = (lam_x >= floor_x, lam_x, abs(floor_x))
        s_dual = BlockMatrix([cb - ab for cb, ab in zip(c.blocks, ops.adjoint(result.y).blocks)])
        lam_s = s_dual.min_eig()
        floor_s = -FEAS_TOL * (1.0 + s_dual.norm())
        checks["dual_psd"] = (lam_s >= floor_s, lam_s, abs(floor_s))
        pobj = c.inner(x)
        dobj = float(problem.b @ result.y)
        gap_thr = GAP_TOL * (1.0 + abs(pobj))
        checks["duality_gap"] = (abs(pobj - dobj) <= gap_thr, abs(pobj - dobj), gap_thr)
        checks["weak_duality"] = (dobj <= pobj + gap_thr, dobj - pobj, gap_thr)
        obj_err = abs(result.objective_value - pobj)
        checks["objective_match"] = (obj_err <= FEAS_TOL * (1 + abs(pobj)), obj_err, FEAS_TOL * (1 + abs(pobj)))
    elif result.status == INFEASIBLE:
        # the Farkas conditions on y itself: S = -A*(y) >= 0 and b.y > 0
        s_farkas = ops.adjoint(-result.y)
        lam = s_farkas.min_eig()
        floor = -CERT_TOL * (1.0 + s_farkas.max_abs())
        checks["certificate_psd"] = (lam >= floor, lam, abs(floor))
        by = float(problem.b @ result.y)
        checks["certificate_improving"] = (by > 0, by, 0.0)
    else:
        checks["conclusive_status"] = (False, 0.0, 0.0)
    return VerificationReport(checks)


# ---------------------------------------------------------------------------
# serialization (matrices as in the operator JSON schema, constraints as sparse entries)
# ---------------------------------------------------------------------------


def block_matrix_to_json(bm: BlockMatrix) -> list[dict]:
    return [{"re": b.real.tolist(), "im": b.imag.tolist()} for b in bm.blocks]


def block_matrix_from_json(data: list[dict], dims: list[int]) -> BlockMatrix:
    """Inverse of ``block_matrix_to_json`` for blocks of sizes ``dims``;
    ValueError naming the field unless each block has d x d lists re and im."""
    if len(data) != len(dims):
        raise ValueError(f"{len(data)} objective blocks for {len(dims)} blocks")
    blocks = []
    for n, (d, block) in enumerate(zip(dims, data)):
        parts = []
        for key in ("re", "im"):
            if key not in block:
                raise ValueError(f"objective block {n} lacks {key}")
            parts.append(np.array(block[key], dtype=float))
            if parts[-1].shape != (d, d):
                raise ValueError(f"objective block {n} {key} is {parts[-1].shape}, not ({d}, {d})")
        blocks.append(parts[0] + 1j * parts[1])
    return BlockMatrix(blocks)


def problem_to_json(p: SdpProblem) -> dict:
    """The problem with each constraint stack as its nonzero entries, row-major."""
    constraints = [
        {
            "k": k.tolist(), "i": i.tolist(), "j": j.tolist(),
            "re": values.real.tolist(), "im": values.imag.tolist(),
        }
        for k, i, j, values in p.constraint_set._entries
    ]
    return {
        "blocks": list(p.block_dims),
        "objective": None if p.objective is None else block_matrix_to_json(p.objective),
        "b": p.b.tolist(),
        "constraints": constraints,
    }


def problem_from_json(data: dict) -> SdpProblem:
    """Inverse of ``problem_to_json``; ValueError unless the file's blocks
    are a list of positive integers, its objective is null or one d x d pair
    re, im per block, and it has one constraint entry per block, each with
    lists k, i, j, re and im of one length, every index an integer in its
    block's range and no (k, i, j) of a block listed twice."""
    dims = data["blocks"]
    if not isinstance(dims, list) or not all(type(d) is int and d > 0 for d in dims):
        raise ValueError(f"blocks {dims!r} is not a list of positive integers")
    objective = (
        None if data["objective"] is None else block_matrix_from_json(data["objective"], dims)
    )
    b = np.array(data["b"], dtype=float)
    if len(data["constraints"]) != len(dims):
        raise ValueError(f"{len(data['constraints'])} constraint entries for {len(dims)} blocks")
    stacks = []
    for d, entries in zip(dims, data["constraints"]):
        missing = [key for key in ("k", "i", "j", "re", "im") if key not in entries]
        if missing:
            raise ValueError(f"constraint entry lacks {', '.join(missing)}")
        if len({len(entries[key]) for key in ("k", "i", "j", "re", "im")}) != 1:
            raise ValueError("constraint lists k, i, j, re and im differ in length")
        index = tuple(np.asarray(entries[key]) for key in "kij")
        for key, idx, bound in zip("kij", index, (len(b), d, d)):
            if idx.size and idx.dtype.kind not in "iu":
                raise ValueError(f"constraint index {key} is not an integer")
            if idx.size and (idx.min() < 0 or idx.max() >= bound):
                raise ValueError(f"constraint index {key} outside [0, {bound})")
        index = k, i, j = tuple(idx.astype(int) for idx in index)
        if np.unique((k * d + i) * d + j).size != k.size:
            raise ValueError("constraint entry (k, i, j) listed twice in one block")
        stack = np.zeros((len(b), d, d), dtype=complex)
        stack.real[index] = entries["re"]
        stack.imag[index] = entries["im"]
        stacks.append(stack)
    return SdpProblem(objective, ConstraintSet(dims, stacks), b)


def result_to_json(r: SdpResult) -> dict:
    return {
        "status": r.status,
        "objective": None if not np.isfinite(r.objective_value) else r.objective_value,
        "x": None if r.x is None else block_matrix_to_json(r.x),
        "y": r.y.tolist(),
        "info": {k: v for k, v in r.info.items() if isinstance(v, (int, float, str, list))},
    }
