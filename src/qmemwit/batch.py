"""Batched ppt test and Markovian distance along one J row of the sweep grid.

``evaluate_row`` builds the process matrices of all points (J, h_k, t) of a
row as one (N, 8, 8) stack, runs the partial-transpose test and the distance
from the Markovian marginal on the stack, and returns the stack too: it is
the W that ``cli.sweep`` hands to the SDP methods.  Every step repeats the
operation order of the per-point reference (``ising.process_matrix``,
``detect.ppt_witness``, ``process.markov_distance``) with the same NumPy and
LAPACK calls on stacked arrays, so each value agrees with the reference bit
for bit, and the tests compare the two bit for bit.  That matters on h = 0,
where the least eigenvalue of W^{T_{A_I}} is 0 in exact arithmetic and the
sign of the printed value is rounding noise.  Where a vectorized operation
would round differently (the eigenvector phase, the Frobenius norm) the
kernel calls it once per point.  The link with |phi+> is the one step that
is not the reference's call: it multiplies by the one value of the nonzero
entries of |phi+><phi+|, which gives the reference's values because every
other term of its contraction is an exact zero.

A point that fails a check the reference makes raises nothing here: its
error text is recorded for that point and the rest of the row carries on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import detect, ising
from . import process as pr
from . import tensorlinalg as tl

_XX = np.kron(tl.PAULI_X, tl.PAULI_X)
_ZSUM = np.kron(tl.PAULI_Z, np.eye(2)) + np.kron(np.eye(2), tl.PAULI_Z)
# |phi+><phi+| on (A_I, E_I) as x[i, a, j, b]; the link multiplies by its x[0, 0, 0, 0]
_PHI_PLUS4 = ising.initial_state().mat.reshape(2, 2, 2, 2)
_NOT_UNITARY = "operator is not unitary within tolerance"


@dataclass(frozen=True)
class Column:
    """One method's results along a row; ``errors[k]`` is None where point k succeeded."""

    values: np.ndarray
    verdicts: list[str]
    errors: list[str | None]


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _hermitized(a: np.ndarray) -> np.ndarray:
    return (a + _dagger(a)) / 2


def _max_abs(a: np.ndarray) -> np.ndarray:
    return np.abs(a).max(axis=(-2, -1))


def _partial_trace(w: np.ndarray, traced: str) -> np.ndarray:
    """Partial trace of an (N, 8, 8) stack on (A_I, A_O, B_I); ``traced`` lists
    the factors summed over, as subscripts of 'abc'."""
    kept = "".join(c for c in "abc" if c not in traced)
    cols = "".join(c if c in traced else c.upper() for c in "abc")
    out = np.einsum(f"nabc{cols}->n{kept}{kept.upper()}", w.reshape(-1, 2, 2, 2, 2, 2, 2))
    d = 2 ** len(kept)
    return out.reshape(-1, d, d)


def _comb_errors(w: np.ndarray, norm2: np.ndarray) -> list[str | None]:
    """``process.validate_comb`` on each matrix of the stack; None where it holds."""
    herm = _max_abs(w - _dagger(w))
    sym = _hermitized(w)
    lam = np.linalg.eigvalsh(sym)[:, 0]
    tr_err = np.abs(np.trace(w, axis1=1, axis2=2) - 2)
    lhs = np.kron(_partial_trace(sym, "c"), np.eye(2) / 2)
    rhs = np.kron(_partial_trace(sym, "bc"), np.eye(4) / 4)
    comb = _max_abs(lhs - rhs)
    floor = -pr.PSD_TOL * (1.0 + norm2)
    # a report is built only where a condition fails
    ok = pr.comb_ok(herm, lam, tr_err, comb, floor)
    errors: list[str | None] = [None] * len(w)
    for k in np.flatnonzero(~ok):
        report = pr.CombReport(
            float(herm[k]), float(lam[k]), float(tr_err[k]), float(comb[k]),
            psd_floor=float(floor[k]),
        )
        errors[k] = f"not a valid process matrix: {report}"
    return errors


def process_matrices(J: float, hs, t: float) -> tuple[np.ndarray, list[str | None]]:
    """W(J, h, t) for every h, as ``ising.process_matrix`` builds it before
    its comb check.

    Returns the (N, 8, 8) stack on (A_I, A_O, B_I), hermitized, and the
    error text of each point whose U is not unitary (an overflow); such a
    point's matrix must not be used.
    """
    hs = np.asarray(hs, dtype=float)
    n = len(hs)
    # Hermitian entry for entry, so tl.herm_eig's check cannot fail here; an
    # overflow gives a U that is not unitary, which the check below records
    with np.errstate(over="ignore", invalid="ignore"):
        ham = -J * _XX - hs[:, None, None] * _ZSUM
        vals, vecs = np.linalg.eigh(ham)
        phases = np.exp(-1j * t * vals)
        u = (vecs * phases[:, None, :]) @ _dagger(vecs)
    # not "> UNITARY_TOL": a NaN entry must fail, as it does in tl.is_unitary
    unitary = _max_abs(u @ _dagger(u) - np.eye(4)) <= tl.UNITARY_TOL
    errors = [None if ok else _NOT_UNITARY for ok in unitary]
    # Choi operator of U on (A_O, E_I, B_I, E_O): vec (j, a) = u[a, j]
    vec = u.swapaxes(-1, -2).reshape(n, 16)
    choi = (vec[:, :, None] * vec.conj()[:, None, :]).reshape(n, 2, 2, 2, 2, 2, 2, 2, 2)
    # link with |phi+> over E_I: reorder to (E_I, A_O, B_I, E_O) and contract.
    # The only nonzero entries of |phi+><phi+| are x[i, i, j, j], all equal,
    # so the contraction is that one stored entry times y4; 0.5 would round
    # differently, as the entry is (1/sqrt 2)^2 = 0.4999999999999999
    y4 = choi.transpose(0, 2, 1, 3, 4, 6, 5, 7, 8).reshape(n, 2, 8, 2, 8)
    linked = _PHI_PLUS4[0, 0, 0, 0] * y4
    # trace out E_O of (A_I, A_O, B_I, E_O)
    l8 = linked.reshape(n, 2, 2, 2, 2, 2, 2, 2, 2)
    w = l8[:, :, :, :, 0, :, :, :, 0] + l8[:, :, :, :, 1, :, :, :, 1]
    return _hermitized(w.reshape(n, 8, 8)), errors


def evaluate_row(
    J: float, hs, t: float, norm: str = "trace"
) -> tuple[dict[str, Column], np.ndarray]:
    """The ``ppt`` and ``markov_distance`` results at (J, h, t) for every h in
    ``hs``, and the (N, 8, 8) stack of process matrices they were computed on.

    ``ppt`` carries ``detect.ppt_witness``'s value and verdict, and
    ``markov_distance`` the value of ``process.markov_distance`` in ``norm``
    with the verdict of ``process.is_markovian``.  A point whose process
    matrix fails gets the same error in both columns, so point k's matrix is
    valid exactly where the ``ppt`` column's ``errors[k]`` is None.
    """
    if norm not in pr.NORMS:
        raise ValueError(f"unknown norm {norm!r}")
    w, errors = process_matrices(J, hs, t)
    built = [k for k, err in enumerate(errors) if err is None]
    sv = np.linalg.svd(w[built], compute_uv=False)
    norm2 = sv.max(axis=-1)
    w_norms = sv.sum(axis=-1) if norm == "trace" else np.sqrt((sv**2).sum(axis=-1))
    for k, err in zip(built, _comb_errors(w[built], norm2)):
        errors[k] = err
    valid = [i for i, k in enumerate(built) if errors[k] is None]
    points = [built[i] for i in valid]
    n = len(errors)
    ppt = Column(np.full(n, np.nan), ["error"] * n, list(errors))
    dist = Column(np.full(n, np.nan), ["error"] * n, list(errors))
    _ppt(w[points], norm2[valid], points, ppt)
    _distance(w[points], norm, w_norms[valid], points, dist)
    return {"ppt": ppt, "markov_distance": dist}, w


def _ppt(w: np.ndarray, norm2: np.ndarray, points: list[int], out: Column) -> None:
    """``detect.ppt_witness`` on the stack: the least eigenvalue of W^{T_{A_I}}
    where it is inconclusive, Tr(Z W) of its eigenvector witness otherwise."""
    # W is hermitized, so W^{T_{A_I}} is Hermitian entry for entry and
    # tl.herm_eig's check cannot fail here
    wt = w.reshape(-1, 2, 4, 2, 4).transpose(0, 3, 2, 1, 4).reshape(-1, 8, 8)
    vals, vecs = np.linalg.eigh(wt)
    lam = vals[:, 0]
    tol = detect.TOL_DETECT * norm2
    vec = vecs[:, :, 0]
    top = np.argmax(np.abs(vec), axis=1)
    quantum = np.flatnonzero(~(lam >= -tol))
    # the phase is a scalar division per point: vectorized, it rounds differently
    phase = np.array([vec[i, top[i]] / abs(vec[i, top[i]]) for i in quantum], dtype=complex)
    psi = vec[quantum] / phase[:, None]
    proj = psi[:, :, None] * psi.conj()[:, None, :]
    z = proj.reshape(-1, 2, 4, 2, 4).transpose(0, 3, 2, 1, 4).reshape(-1, 8, 8)
    witness_values = np.trace(z @ w[quantum], axis1=1, axis2=2).real
    for i, k in enumerate(points):
        out.values[k] = lam[i]
        out.verdicts[k] = detect.VERDICT_INCONCLUSIVE
    for i, value in zip(quantum, witness_values):
        out.values[points[i]] = value
        out.verdicts[points[i]] = detect.VERDICT_QUANTUM


def _distance(
    w: np.ndarray, norm: str, w_norms: np.ndarray, points: list[int], out: Column
) -> None:
    """``process.markov_distance`` on the stack, with the marginal's comb check;
    ``w_norms`` holds each ||W|| in ``norm``, for the Markovian-zero rule."""
    rho = _partial_trace(w, "bc") / complex(2)
    channel = _partial_trace(w, "a")
    # np.kron's product: marginal[(i, k), (j, l)] = rho[i, j] channel[k, l]
    product = rho[:, :, None, :, None] * channel[:, None, :, None, :]
    marginal = _hermitized(product.reshape(-1, 8, 8))
    errors = _comb_errors(marginal, np.linalg.svd(marginal, compute_uv=False).max(axis=-1))
    diff = w - marginal
    if norm == "trace":
        values = np.linalg.svd(diff, compute_uv=False).sum(axis=-1)
    else:
        # one call per point: np.linalg.norm over axes sums in another order
        values = np.array([np.linalg.norm(d) for d in diff])
    for i, k in enumerate(points):
        if errors[i] is not None:
            out.errors[k] = errors[i]
            continue
        out.values[k] = values[i]
        markovian = pr.is_markovian(values[i], w_norms[i])
        out.verdicts[k] = "markovian" if markovian else "non_markovian"
