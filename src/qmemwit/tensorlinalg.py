"""Dense complex linear algebra over labeled tensor-product spaces.

Everything downstream (process matrices, witnesses, SDP data) is carried as a
:class:`TensorOperator`: a square complex matrix together with an ordered list
of labeled subsystem dimensions.  The global basis is the Kronecker order of
the factor list, with the computational basis on each factor; all partial
transposition happens in that basis.  Binary operations match factors by
label, never by position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Hermiticity is checked entrywise.  Loose enough for d <= 32 in double
# precision, tight enough to separate zero from nonzero regimes downstream.
HERM_TOL = 1e-10
# Entrywise defect of U U^H from the identity that a unitary may carry.
UNITARY_TOL = 1e-9

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class SubsystemSpace:
    """Ordered list of (label, dim) factors of a tensor-product space."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [name for name, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in {labels}")
        for name, dim in self.factors:
            if dim < 1:
                raise ValueError(f"factor {name!r} has dim {dim} < 1")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def dim(self, label: str) -> int:
        for name, d in self.factors:
            if name == label:
                return d
        raise KeyError(f"unknown label {label!r}; have {self.labels}")

    def positions(self, labels: Iterable[str]) -> list[int]:
        index = {name: k for k, (name, _) in enumerate(self.factors)}
        out = []
        for label in labels:
            if label not in index:
                raise KeyError(f"unknown label {label!r}; have {self.labels}")
            out.append(index[label])
        return out

    def without(self, labels: Iterable[str]) -> "SubsystemSpace":
        drop = set(labels)
        self.positions(drop)  # validate
        return SubsystemSpace(tuple(f for f in self.factors if f[0] not in drop))

    def restricted(self, labels: Iterable[str]) -> "SubsystemSpace":
        keep = set(labels)
        self.positions(keep)
        return SubsystemSpace(tuple(f for f in self.factors if f[0] in keep))


def space(*factors: tuple[str, int]) -> SubsystemSpace:
    return SubsystemSpace(tuple((str(n), int(d)) for n, d in factors))


class TensorOperator:
    """Complex square matrix on a labeled tensor-product space.

    The matrix is defended against aliasing (copied, marked read-only);
    values are immutable and safe to share between threads.
    """

    __slots__ = ("space", "mat")

    def __init__(self, space: SubsystemSpace, mat: np.ndarray):
        mat = np.array(mat, dtype=complex)
        d = space.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} != ({d}, {d}) for {space.labels}")
        mat.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, name, value):
        raise AttributeError("TensorOperator is immutable")

    # -- basic queries -------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        return self.space.labels

    @property
    def dims(self) -> tuple[int, ...]:
        return self.space.dims

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def is_hermitian(self) -> bool:
        return bool(np.max(np.abs(self.mat - self.mat.conj().T)) <= HERM_TOL)

    def hermitized(self) -> "TensorOperator":
        return TensorOperator(self.space, (self.mat + self.mat.conj().T) / 2)

    # -- arithmetic (same label set; right operand is aligned) ---------

    def _aligned(self, other: "TensorOperator") -> np.ndarray:
        if other.space == self.space:
            return other.mat
        if set(other.labels) != set(self.labels):
            raise ValueError(f"label mismatch: {self.labels} vs {other.labels}")
        return reorder(other, self.labels).mat

    def __add__(self, other: "TensorOperator") -> "TensorOperator":
        return TensorOperator(self.space, self.mat + self._aligned(other))

    def __sub__(self, other: "TensorOperator") -> "TensorOperator":
        return TensorOperator(self.space, self.mat - self._aligned(other))

    def __mul__(self, scalar) -> "TensorOperator":
        return TensorOperator(self.space, self.mat * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "TensorOperator":
        return TensorOperator(self.space, self.mat / complex(scalar))

    def __neg__(self) -> "TensorOperator":
        return TensorOperator(self.space, -self.mat)

    def __matmul__(self, other: "TensorOperator") -> "TensorOperator":
        return TensorOperator(self.space, self.mat @ self._aligned(other))

    def __repr__(self):
        body = ", ".join(f"{n}:{d}" for n, d in self.space.factors)
        return f"TensorOperator[{body}]"

    # -- tensor reshaping helpers --------------------------------------

    def as_tensor(self) -> np.ndarray:
        """View as a 2N-index array (row factors then column factors)."""
        dims = self.dims
        return self.mat.reshape(dims + dims)


def operator(factors: Sequence[tuple[str, int]], mat) -> TensorOperator:
    return TensorOperator(space(*factors), mat)


def qubit(label: str, mat) -> TensorOperator:
    return TensorOperator(space((label, 2)), mat)


def identity(s: SubsystemSpace | Sequence[tuple[str, int]]) -> TensorOperator:
    if not isinstance(s, SubsystemSpace):
        s = space(*s)
    return TensorOperator(s, np.eye(s.total_dim, dtype=complex))


def max_abs_diff(a: TensorOperator, b: TensorOperator) -> float:
    return float(np.max(np.abs(a.mat - reorder(b, a.labels).mat)))


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def reorder(x: TensorOperator, new_labels: Sequence[str]) -> TensorOperator:
    """Permute the factor list into ``new_labels`` (a permutation of labels)."""
    if tuple(new_labels) == x.labels:
        return x
    if set(new_labels) != set(x.labels) or len(new_labels) != len(x.labels):
        raise ValueError(f"{tuple(new_labels)} is not a permutation of {x.labels}")
    perm = x.space.positions(new_labels)
    n = len(perm)
    t = x.as_tensor().transpose(tuple(perm) + tuple(n + p for p in perm))
    new_space = SubsystemSpace(tuple(x.space.factors[p] for p in perm))
    d = new_space.total_dim
    return TensorOperator(new_space, t.reshape(d, d))


def kron(a: TensorOperator, b: TensorOperator) -> TensorOperator:
    """Kronecker product; the factor lists are concatenated."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise ValueError(f"duplicate labels {sorted(overlap)} in kron")
    return TensorOperator(
        SubsystemSpace(a.space.factors + b.space.factors), np.kron(a.mat, b.mat)
    )


def partial_trace(x: TensorOperator, labels: Iterable[str]) -> TensorOperator:
    """Trace out the listed factors; Tr(out) = Tr(x)."""
    drop = set(labels)
    positions = set(x.space.positions(drop))
    n = len(x.dims)
    row = list(range(n))
    col = [p if p in positions else n + p for p in range(n)]
    kept = [p for p in range(n) if p not in positions]
    out = kept + [n + p for p in kept]
    t = np.einsum(x.as_tensor(), row + col, out)
    new_space = x.space.without(drop)
    d = new_space.total_dim
    return TensorOperator(new_space, t.reshape(d, d))


def partial_transpose(x: TensorOperator, labels: Iterable[str]) -> TensorOperator:
    """Transpose the listed factors in the computational basis; involutive."""
    sel = set(labels)
    positions = x.space.positions(sel)
    n = len(x.dims)
    axes = list(range(2 * n))
    for p in positions:
        axes[p], axes[p + n] = axes[p + n], axes[p]
    t = x.as_tensor().transpose(axes)
    d = x.space.total_dim
    return TensorOperator(x.space, t.reshape(d, d))


def trace_and_replace(x: TensorOperator, labels: Iterable[str]) -> TensorOperator:
    """Replace the listed factors by the normalized identity.

    Returns (Tr_labels x) tensor 1/d at the original factor positions, so the
    output lives on the same space as the input.  Idempotent, trace-preserving
    and self-adjoint for the Hilbert-Schmidt pairing.
    """
    sel = set(labels)
    reduced = partial_trace(x, sel)
    rep = x.space.restricted(sel)
    filler = TensorOperator(rep, np.eye(rep.total_dim, dtype=complex) / rep.total_dim)
    return reorder(kron(reduced, filler), x.labels)


def herm_eig(h: TensorOperator | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator.

    Returns eigenvalues in ascending order and the matrix whose columns are
    the corresponding orthonormal eigenvectors.  Raises on input that is not
    Hermitian within HERM_TOL.
    """
    mat = h.mat if isinstance(h, TensorOperator) else np.asarray(h, dtype=complex)
    if np.max(np.abs(mat - mat.conj().T)) > HERM_TOL:
        raise ValueError("input is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(mat)
    return vals, vecs


def unitary_from_hamiltonian(h: TensorOperator, s: float) -> TensorOperator:
    """exp(-i*s*h) through the eigendecomposition of Hermitian h."""
    vals, vecs = herm_eig(h)
    phases = np.exp(-1j * s * vals)
    u = (vecs * phases) @ vecs.conj().T
    return TensorOperator(h.space, u)


def trace_norm(x: TensorOperator | np.ndarray) -> float:
    """Sum of singular values."""
    mat = x.mat if isinstance(x, TensorOperator) else np.asarray(x)
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def frobenius_norm(x: TensorOperator | np.ndarray) -> float:
    mat = x.mat if isinstance(x, TensorOperator) else np.asarray(x)
    return float(np.linalg.norm(mat))


def spectral_norm(x: TensorOperator | np.ndarray) -> float:
    mat = x.mat if isinstance(x, TensorOperator) else np.asarray(x)
    return float(np.linalg.norm(mat, 2))


def min_eig(x: TensorOperator | np.ndarray) -> float:
    mat = x.mat if isinstance(x, TensorOperator) else np.asarray(x)
    return float(np.linalg.eigvalsh(mat)[0])


def is_unitary(x: TensorOperator) -> bool:
    d = x.space.total_dim
    return bool(np.max(np.abs(x.mat @ x.mat.conj().T - np.eye(d))) <= UNITARY_TOL)


# ---------------------------------------------------------------------------
# serialization: {labels: [[name, dim]...], re: [[...]], im: [[...]]} row-major
# ---------------------------------------------------------------------------


def to_json_dict(x: TensorOperator) -> dict:
    return {
        "labels": [[name, dim] for name, dim in x.space.factors],
        "re": x.mat.real.tolist(),
        "im": x.mat.imag.tolist(),
    }


def from_json_dict(data: dict) -> TensorOperator:
    """Inverse of ``to_json_dict``; ValueError naming the field unless data
    has labels as [name, dim] pairs with an integer dim and re and im of one
    shape."""
    for key in ("labels", "re", "im"):
        if key not in data:
            raise ValueError(f"operator lacks {key}")
    pairs = data["labels"]
    if not all(isinstance(f, (list, tuple)) and len(f) == 2 and isinstance(f[1], int) for f in pairs):
        raise ValueError(f"operator labels {pairs} are not [name, dim] pairs")
    factors = tuple((str(name), int(dim)) for name, dim in data["labels"])
    re, im = np.array(data["re"], dtype=float), np.array(data["im"], dtype=float)
    if re.shape != im.shape:
        raise ValueError(f"operator re is {re.shape} but im is {im.shape}")
    return TensorOperator(SubsystemSpace(factors), re + 1j * im)
