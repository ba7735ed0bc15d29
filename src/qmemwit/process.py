"""Process-matrix algebra for a system probed at two stations A and B.

A process is carried as an operator W on the labels (A_I, A_O, B_I); the
output of the second station is discarded.  Two Choi conventions coexist on
purpose: instrument elements carry the transposed convention, channels the
transpose-free one.  They are distinct types here because the probability
rule only holds with that pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensorlinalg as tl
from .tensorlinalg import TensorOperator

A_I, A_O, B_I, E_I, E_O = "A_I", "A_O", "B_I", "E_I", "E_O"

PROCESS_LABELS = (A_I, A_O, B_I)

# PSD checks absorb the float error accumulated by exp/link chains.
PSD_TOL = 1e-9
COMB_TOL = 1e-9

# the norms of markov_distance, and its zero: is_markovian
NORMS = ("trace", "frobenius")
MARKOV_TOL = 1e-9


def _psd_floor(op: TensorOperator) -> float:
    return -PSD_TOL * (1.0 + tl.spectral_norm(op))


@dataclass(frozen=True)
class ProcessMatrix:
    """Hermitian PSD operator on (A_I, A_O, B_I) satisfying the comb condition."""

    op: TensorOperator

    def __post_init__(self):
        if set(self.op.labels) != set(PROCESS_LABELS):
            raise ValueError(f"process labels must be {PROCESS_LABELS}, got {self.op.labels}")
        if self.op.labels != PROCESS_LABELS:
            object.__setattr__(self, "op", tl.reorder(self.op, PROCESS_LABELS))
        report = validate_comb(self.op)
        if not report.ok:
            raise ValueError(f"not a valid process matrix: {report}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.op.dims  # type: ignore[return-value]


@dataclass(frozen=True)
class ChannelChoi:
    """Transpose-free Choi matrix of a CPTP map, on (in-label, out-label)."""

    op: TensorOperator
    in_label: str
    out_label: str

    def __post_init__(self):
        if set(self.op.labels) != {self.in_label, self.out_label}:
            raise ValueError(f"channel labels {self.op.labels} != ({self.in_label}, {self.out_label})")
        if tl.min_eig(self.op) < _psd_floor(self.op):
            raise ValueError("channel Choi matrix is not PSD")
        marg = tl.partial_trace(self.op, {self.out_label})
        d_in = marg.space.total_dim
        if np.max(np.abs(marg.mat - np.eye(d_in))) > COMB_TOL:
            raise ValueError("channel is not trace preserving")


@dataclass(frozen=True)
class ClassicalMemoryProcess:
    """Mixture terms (q_j, rho_j, T_j): probabilities, input states, channels."""

    terms: tuple[tuple[float, TensorOperator, ChannelChoi], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("need at least one term")
        weights = np.array([q for q, _, _ in self.terms], dtype=float)
        if np.any(weights < -1e-12):
            raise ValueError("negative weight")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {weights.sum()}, not 1")
        for _, rho, _ in self.terms:
            if abs(rho.trace() - 1.0) > 1e-9 or tl.min_eig(rho) < _psd_floor(rho):
                raise ValueError("term state is not a density operator")


@dataclass(frozen=True)
class InstrumentElement:
    """Choi matrix of one CP map in the transposed convention."""

    op: TensorOperator

    def __post_init__(self):
        if tl.min_eig(self.op) < _psd_floor(self.op):
            raise ValueError("instrument element is not PSD")
        # must be dominated by a trace-preserving element of some instrument
        marg = tl.partial_trace(self.op, {A_O}) if A_O in self.op.labels else self.op
        bound = np.eye(marg.space.total_dim) - marg.mat
        if tl.min_eig(TensorOperator(marg.space, bound)) < _psd_floor(marg):
            raise ValueError("instrument element exceeds trace preservation")


def prepare_and_measure(measure_ket, prepare_ket) -> InstrumentElement:
    """Instrument element for: project onto ``measure_ket``, reprepare ``prepare_ket``.

    In the transposed Choi convention this is |m><m| on A_I tensor the
    conjugated preparation on A_O.
    """
    m = np.asarray(measure_ket, dtype=complex).reshape(-1)
    p = np.asarray(prepare_ket, dtype=complex).reshape(-1)
    mm = np.outer(m, m.conj())
    pp = np.outer(p, p.conj()).T
    return InstrumentElement(
        tl.kron(tl.operator([(A_I, len(m))], mm), tl.operator([(A_O, len(p))], pp))
    )


def povm_effect(effect) -> InstrumentElement:
    """Instrument element of the second station: the POVM effect itself."""
    e = np.asarray(effect, dtype=complex)
    return InstrumentElement(tl.operator([(B_I, e.shape[0])], e))


# ---------------------------------------------------------------------------
# Choi isomorphism and link product
# ---------------------------------------------------------------------------


def choi_of_unitary(u: TensorOperator, in_labels, out_labels) -> TensorOperator:
    """Rank-1 Choi operator of a unitary, on in tensor out labels.

    Built from the unnormalized maximally entangled vector sum_j |jj> over the
    input space: entries sum_{jk} |j><k| tensor u|j><k|u^dag.
    """
    in_labels = tuple(in_labels)
    out_labels = tuple(out_labels)
    if set(in_labels) != set(u.labels):
        raise ValueError(f"in labels {in_labels} do not match operator labels {u.labels}")
    if len(out_labels) != len(in_labels):
        raise ValueError("out labels must pair up with the in factors")
    u = tl.reorder(u, in_labels)
    if not tl.is_unitary(u):
        raise ValueError("operator is not unitary within tolerance")
    d = u.space.total_dim
    # (1 tensor u)|1>> in the (in, out) Kronecker order: component (j, a) = u[a, j]
    vec = u.mat.T.reshape(-1)
    mat = np.outer(vec, vec.conj())
    factors = tuple(u.space.factors) + tuple(
        (out, dim) for out, (_, dim) in zip(out_labels, u.space.factors)
    )
    return tl.operator(factors, mat)


def link_product(x: TensorOperator, y: TensorOperator) -> TensorOperator:
    """Contraction over shared labels with a partial transpose on them.

    Tr_common[(x^{T_common} tensor 1)(1 tensor y)], with automatic label
    alignment; output factors are x's others followed by y's others.
    """
    common = [name for name in x.labels if name in set(y.labels)]
    for name in common:
        if x.space.dim(name) != y.space.dim(name):
            raise ValueError(f"shared label {name!r} has mismatched dims")
    rest_x = [name for name in x.labels if name not in common]
    rest_y = [name for name in y.labels if name not in common]
    xo = tl.reorder(x, rest_x + common) if common or rest_x != list(x.labels) else x
    yo = tl.reorder(y, common + rest_y) if common or rest_y != list(y.labels) else y
    dp = math.prod(x.space.dim(n) for n in rest_x)
    dc = math.prod(x.space.dim(n) for n in common)
    dq = math.prod(y.space.dim(n) for n in rest_y)
    x4 = xo.mat.reshape(dp, dc, dp, dc)
    y4 = yo.mat.reshape(dc, dq, dc, dq)
    # out[(p,q),(p',q')] = sum_{a,b} x[(p,a),(p',b)] y[(a,q),(b,q')]
    out = np.einsum("iajb,akbl->ikjl", x4, y4).reshape(dp * dq, dp * dq)
    factors = tuple(f for f in xo.space.factors if f[0] in rest_x) + tuple(
        f for f in yo.space.factors if f[0] in rest_y
    )
    return tl.operator(factors, out)


# ---------------------------------------------------------------------------
# probability rule and process constructors
# ---------------------------------------------------------------------------


def prob_rule(w: ProcessMatrix, m_a: InstrumentElement, m_b: InstrumentElement) -> float:
    """p = Tr[W (M_A tensor M_B)] for instrument elements in the transposed convention."""
    joint = tl.kron(m_a.op, m_b.op)
    if set(joint.labels) != set(w.op.labels):
        raise ValueError(f"instrument labels {joint.labels} do not cover {w.op.labels}")
    p = np.trace(w.op.mat @ tl.reorder(joint, w.op.labels).mat)
    if abs(p.imag) > 1e-9:
        raise ValueError(f"probability has imaginary part {p.imag}")
    return float(p.real)


def markovian_process(rho: TensorOperator, channel: ChannelChoi) -> ProcessMatrix:
    """Memoryless process: W = rho tensor T."""
    if tuple(rho.labels) != (A_I,):
        raise ValueError(f"state must live on {A_I!r}")
    if abs(rho.trace() - 1.0) > 1e-9 or tl.min_eig(rho) < _psd_floor(rho):
        raise ValueError("not a density operator")
    if (channel.in_label, channel.out_label) != (A_O, B_I):
        raise ValueError(f"channel must map {A_O!r} to {B_I!r}")
    return ProcessMatrix(tl.kron(rho, tl.reorder(channel.op, (A_O, B_I))))


def classical_memory_process(c: ClassicalMemoryProcess) -> ProcessMatrix:
    """W = sum_j q_j rho_j tensor T_j."""
    total = None
    for q, rho, channel in c.terms:
        term = tl.kron(rho, tl.reorder(channel.op, (A_O, B_I))) * q
        total = term if total is None else total + term
    return ProcessMatrix(total.hermitized())


def random_classical_memory(seed: int, n_terms: int, dims=(2, 2, 2)) -> ClassicalMemoryProcess:
    """Reproducible random mixture: Ginibre states, Stinespring channels, flat simplex weights."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    d_ai, d_ao, d_bi = dims
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_terms))
    terms = []
    for j in range(n_terms):
        g = rng.standard_normal((d_ai, d_ai)) + 1j * rng.standard_normal((d_ai, d_ai))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        terms.append(
            (
                float(weights[j]),
                tl.operator([(A_I, d_ai)], rho),
                _random_channel(rng, d_ao, d_bi),
            )
        )
    return ClassicalMemoryProcess(tuple(terms))


def _random_channel(rng: np.random.Generator, d_in: int, d_out: int) -> ChannelChoi:
    d_env = d_in * d_out
    g = rng.standard_normal((d_out * d_env, d_in)) + 1j * rng.standard_normal((d_out * d_env, d_in))
    v, r = np.linalg.qr(g)
    v = v * np.sign(np.where(np.diag(r).real == 0, 1.0, np.diag(r).real))
    choi = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for j in range(d_in):
        for k in range(d_in):
            ejk = np.zeros((d_in, d_in), dtype=complex)
            ejk[j, k] = 1.0
            out = v @ ejk @ v.conj().T
            t_jk = np.trace(out.reshape(d_out, d_env, d_out, d_env), axis1=1, axis2=3)
            choi[j * d_out : (j + 1) * d_out, k * d_out : (k + 1) * d_out] = t_jk
    op = tl.operator([(A_O, d_in), (B_I, d_out)], choi).hermitized()
    return ChannelChoi(op, A_O, B_I)


# ---------------------------------------------------------------------------
# comb validation and the validity projector
# ---------------------------------------------------------------------------


@dataclass
class CombReport:
    """Violation magnitudes of every process-matrix condition."""

    hermiticity: float
    min_eig: float
    trace_error: float
    comb_condition: float
    psd_floor: float

    @property
    def ok(self) -> bool:
        return (
            self.hermiticity <= tl.HERM_TOL
            and self.min_eig >= self.psd_floor
            and self.trace_error <= COMB_TOL
            and self.comb_condition <= COMB_TOL
        )

    def __str__(self):
        return (
            f"hermiticity={self.hermiticity:.2e} min_eig={self.min_eig:.2e} "
            f"trace_error={self.trace_error:.2e} comb_condition={self.comb_condition:.2e}"
        )


def validate_comb(w: TensorOperator) -> CombReport:
    """Check Hermiticity, positivity, normalization and the comb condition."""
    if set(w.labels) != set(PROCESS_LABELS):
        raise ValueError(f"expected labels {PROCESS_LABELS}, got {w.labels}")
    w = tl.reorder(w, PROCESS_LABELS)
    herm = float(np.max(np.abs(w.mat - w.mat.conj().T)))
    sym = w.hermitized()
    lam = tl.min_eig(sym)
    d_ao = w.space.dim(A_O)
    tr_err = abs(w.trace() - d_ao)
    lhs = tl.trace_and_replace(sym, {B_I})
    rhs = tl.trace_and_replace(sym, {A_O, B_I})
    comb = float(np.max(np.abs(lhs.mat - rhs.mat)))
    return CombReport(herm, lam, float(tr_err), comb, psd_floor=_psd_floor(w))


def project_L(x: TensorOperator) -> TensorOperator:
    """Projector onto the subspace of valid process matrices.

    L(x) = x - TR_{B_I}(x) + TR_{A_O B_I}(x); idempotent, self-adjoint, and
    the identity on every comb.
    """
    if not x.is_hermitian():
        raise ValueError("input is not Hermitian")
    if set(x.labels) != set(PROCESS_LABELS):
        raise ValueError(f"expected labels {PROCESS_LABELS}, got {x.labels}")
    return x - tl.trace_and_replace(x, {B_I}) + tl.trace_and_replace(x, {A_O, B_I})


# ---------------------------------------------------------------------------
# Markovian marginal and distance
# ---------------------------------------------------------------------------


def marginal_markovian(w: ProcessMatrix) -> ProcessMatrix:
    """Markovian process with the same local marginals: (Tr_{A_O B_I} W / d_{A_O}) tensor Tr_{A_I} W."""
    d_ao = w.op.space.dim(A_O)
    rho = tl.partial_trace(w.op, {A_O, B_I}) / d_ao
    channel = tl.partial_trace(w.op, {A_I})
    return ProcessMatrix(tl.kron(rho, channel).hermitized())


def markov_distance(w: ProcessMatrix, norm: str = "trace") -> float:
    """Norm distance of W from its Markovian marginal; zero iff W is a product."""
    diff = w.op - marginal_markovian(w).op
    if norm == "trace":
        return tl.trace_norm(diff)
    if norm == "frobenius":
        return tl.frobenius_norm(diff)
    raise ValueError(f"unknown norm {norm!r}")


def is_markovian(distance: float, w_norm: float) -> bool:
    """A markov_distance of at most MARKOV_TOL * ||W||, both in one norm, is zero.

    On the 151x151 grid at t = 1, Markovian points reach 5.1e-16 and the
    others start at 0.0249 (trace) and 0.0125 (Frobenius); ||W|| <= Tr W = 2.
    """
    return distance <= MARKOV_TOL * w_norm
