import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmemwit import tensorlinalg as tl


def random_op(seed, factors):
    rng = np.random.default_rng(seed)
    d = int(np.prod([dim for _, dim in factors]))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return tl.operator(factors, g)


def random_hermitian(seed, factors):
    x = random_op(seed, factors)
    return x.hermitized()


def bell_projector():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return tl.operator([("A", 2), ("B", 2)], np.outer(v, v.conj()))


# Independent oracle for the partially transposed Bell projector: build the
# 4x4 matrix entry by entry and diagonalize it with plain numpy.
def bell_pt_oracle_eigs():
    m = np.zeros((4, 4), dtype=complex)
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    for a in range(2):
        for b in range(2):
            for a2 in range(2):
                for b2 in range(2):
                    # <a b| rho^{T_A} |a2 b2> = <a2 b| rho |a b2>
                    m[a * 2 + b, a2 * 2 + b2] = v[a2 * 2 + b] * v[a * 2 + b2]
    return np.sort(np.linalg.eigvalsh(m))


BELL_PT_EIGS = bell_pt_oracle_eigs()  # [-0.5, 0.5, 0.5, 0.5]


class TestSpaces:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            tl.space(("A", 2), ("A", 3))

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            tl.space(("A", 0))

    def test_total_dim(self):
        assert tl.space(("A", 2), ("B", 3)).total_dim == 6
        assert tl.SubsystemSpace(()).total_dim == 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tl.operator([("A", 2)], np.eye(3))


class TestKron:
    def test_identity(self):
        a = tl.identity([("A", 2)])
        b = tl.identity([("B", 2)])
        assert np.allclose(tl.kron(a, b).mat, np.eye(4))

    def test_sigma_z_pair(self):
        z = tl.qubit("A", tl.PAULI_Z)
        z2 = tl.qubit("B", tl.PAULI_Z)
        assert np.allclose(tl.kron(z, z2).mat, np.diag([1, -1, -1, 1]))

    def test_block_structure(self):
        proj = tl.qubit("A", [[1, 0], [0, 0]])
        x = tl.qubit("B", tl.PAULI_X)
        out = tl.kron(proj, x).mat
        assert np.allclose(out[:2, :2], tl.PAULI_X)
        assert np.allclose(out[2:, 2:], 0)

    def test_duplicate_label_error(self):
        a = tl.qubit("A", tl.PAULI_X)
        with pytest.raises(ValueError):
            tl.kron(a, a)


class TestPartialTrace:
    def test_product_factorization(self):
        rho = tl.qubit("A", [[0.75, 0.1], [0.1, 0.25]])
        sig = tl.qubit("B", [[0.5, 0.2j], [-0.2j, 0.5]])
        out = tl.partial_trace(tl.kron(rho, sig), {"B"})
        assert np.allclose(out.mat, rho.mat)

    def test_bell_marginal(self):
        out = tl.partial_trace(bell_projector(), {"B"})
        assert np.allclose(out.mat, np.eye(2) / 2)

    def test_full_trace(self):
        x = random_op(3, [("A", 2), ("B", 3)])
        out = tl.partial_trace(x, {"A", "B"})
        assert out.mat.shape == (1, 1)
        assert np.isclose(out.mat[0, 0], np.trace(x.mat))

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            tl.partial_trace(bell_projector(), {"C"})

    @given(st.integers(0, 10**6))
    def test_trace_preserved(self, seed):
        x = random_op(seed, [("A", 2), ("B", 3), ("C", 2)])
        out = tl.partial_trace(x, {"B"})
        assert np.isclose(out.trace(), x.trace())

    @given(st.integers(0, 10**6))
    def test_kron_then_trace(self, seed):
        a = random_op(seed, [("A", 3)])
        b = random_op(seed + 1, [("B", 2)])
        out = tl.partial_trace(tl.kron(a, b), {"B"})
        assert np.allclose(out.mat, a.mat * np.trace(b.mat))


class TestPartialTranspose:
    def test_product_case(self):
        rho = random_op(5, [("A", 2)])
        sig = random_op(6, [("B", 3)])
        out = tl.partial_transpose(tl.kron(rho, sig), {"A"})
        assert np.allclose(out.mat, np.kron(rho.mat.T, sig.mat))

    @given(st.integers(0, 10**6))
    def test_involution(self, seed):
        x = random_op(seed, [("A", 2), ("B", 2), ("C", 3)])
        out = tl.partial_transpose(tl.partial_transpose(x, {"A", "C"}), {"A", "C"})
        assert np.allclose(out.mat, x.mat)

    @given(st.integers(0, 10**6))
    def test_commutes_on_disjoint_labels(self, seed):
        x = random_op(seed, [("A", 2), ("B", 2), ("C", 2)])
        ab = tl.partial_transpose(tl.partial_transpose(x, {"A"}), {"C"})
        ba = tl.partial_transpose(tl.partial_transpose(x, {"C"}), {"A"})
        assert np.allclose(ab.mat, ba.mat)
        both = tl.partial_transpose(x, {"A", "C"})
        assert np.allclose(ab.mat, both.mat)

    @given(st.integers(0, 10**6))
    def test_trace_invariant(self, seed):
        x = random_op(seed, [("A", 2), ("B", 3)])
        assert np.isclose(tl.partial_transpose(x, {"B"}).trace(), x.trace())

    def test_bell_min_eig_matches_oracle(self):
        vals, _ = tl.herm_eig(tl.partial_transpose(bell_projector(), {"A"}))
        assert np.allclose(vals, BELL_PT_EIGS, atol=1e-12)
        assert np.isclose(vals[0], -0.5, atol=1e-12)


class TestTraceAndReplace:
    def test_product_case(self):
        rho = tl.qubit("A", [[0.6, 0.0], [0.0, 0.4]])
        sig = tl.qubit("B", [[0.5, 0.1], [0.1, 0.5]])
        out = tl.trace_and_replace(tl.kron(rho, sig), {"B"})
        assert np.allclose(out.mat, np.kron(rho.mat, np.eye(2) / 2))

    @given(st.integers(0, 10**6))
    def test_idempotent(self, seed):
        x = random_hermitian(seed, [("A", 2), ("B", 2), ("C", 2)])
        once = tl.trace_and_replace(x, {"B"})
        twice = tl.trace_and_replace(once, {"B"})
        assert np.allclose(once.mat, twice.mat)

    @given(st.integers(0, 10**6))
    def test_trace_preserving(self, seed):
        x = random_hermitian(seed, [("A", 2), ("B", 3)])
        assert np.isclose(tl.trace_and_replace(x, {"A"}).trace(), x.trace())

    @given(st.integers(0, 10**6))
    def test_nested_composition(self, seed):
        # TR(TR(x, L1), L2) = TR(x, L1 u L2) when L1 is a subset of L2
        x = random_hermitian(seed, [("A", 2), ("B", 2), ("C", 2)])
        lhs = tl.trace_and_replace(tl.trace_and_replace(x, {"B"}), {"B", "C"})
        rhs = tl.trace_and_replace(x, {"B", "C"})
        assert np.allclose(lhs.mat, rhs.mat)

    @given(st.integers(0, 10**6))
    def test_self_adjoint(self, seed):
        x = random_hermitian(seed, [("A", 2), ("B", 2)])
        z = random_hermitian(seed + 1, [("A", 2), ("B", 2)])
        lhs = np.trace(tl.trace_and_replace(x, {"B"}).mat @ z.mat)
        rhs = np.trace(x.mat @ tl.trace_and_replace(z, {"B"}).mat)
        assert np.isclose(lhs, rhs)

    def test_preserves_factor_order(self):
        x = random_hermitian(9, [("A", 2), ("B", 2), ("C", 2)])
        assert tl.trace_and_replace(x, {"B"}).labels == ("A", "B", "C")

    def test_all_factors_give_the_normalized_identity(self):
        # every factor traced: Tr(x) times 1/8, bit for bit, on x's own labels.
        # The diagonal holds quarters, so that Tr(x) has no rounding in any
        # summation order, and np.trace agrees with the partial trace's sum
        rng = np.random.default_rng(29)
        mat = random_op(29, [("C", 2), ("A", 2), ("B", 2)]).mat.copy()
        np.fill_diagonal(mat, (rng.integers(-8, 9, 8) + 1j * rng.integers(-8, 9, 8)) / 4)
        x = tl.operator([("C", 2), ("A", 2), ("B", 2)], mat)
        out = tl.trace_and_replace(x, ["A", "B", "C"])
        assert out.labels == ("C", "A", "B")
        assert np.array_equal(out.mat, np.eye(8, dtype=complex) / 8 * x.trace())


class TestHermEig:
    def test_pauli_spectrum(self):
        vals, _ = tl.herm_eig(tl.qubit("A", tl.PAULI_Z))
        assert np.allclose(vals, [-1, 1])

    def test_identity_spectrum(self):
        vals, _ = tl.herm_eig(tl.identity([("A", 2), ("B", 2)]))
        assert np.allclose(vals, np.ones(4))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            tl.herm_eig(tl.qubit("A", [[0, 1], [0, 0]]))

    @given(st.integers(0, 10**6))
    def test_reconstruction_and_orthonormality(self, seed):
        h = random_hermitian(seed, [("A", 2), ("B", 3)])
        vals, vecs = tl.herm_eig(h)
        scale = max(1.0, tl.spectral_norm(h))
        assert np.linalg.norm((vecs * vals) @ vecs.conj().T - h.mat) <= 1e-9 * scale
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(6))) <= 1e-9
        assert np.all(np.diff(vals) >= 0)
        for k in range(6):
            res = np.linalg.norm(h.mat @ vecs[:, k] - vals[k] * vecs[:, k])
            assert res <= 1e-9 * scale


class TestUnitaryFromHamiltonian:
    def test_zero_time(self):
        h = random_hermitian(11, [("A", 2), ("B", 2)])
        assert np.allclose(tl.unitary_from_hamiltonian(h, 0.0).mat, np.eye(4))

    def test_pauli_phase(self):
        u = tl.unitary_from_hamiltonian(tl.qubit("A", tl.PAULI_Z), np.pi)
        assert np.allclose(u.mat, -np.eye(2))

    @given(st.integers(0, 10**6), st.floats(-5, 5))
    def test_unitary_and_inverse(self, seed, s):
        h = random_hermitian(seed, [("A", 2), ("B", 2)])
        u = tl.unitary_from_hamiltonian(h, s)
        assert tl.is_unitary(u)
        v = tl.unitary_from_hamiltonian(h, -s)
        assert np.max(np.abs((u @ v).mat - np.eye(4))) <= 1e-9


class TestNorms:
    def test_zero(self):
        assert tl.trace_norm(tl.operator([("A", 2)], np.zeros((2, 2)))) == 0.0

    def test_density_matrix(self):
        rho = tl.qubit("A", [[0.7, 0.2], [0.2, 0.3]])
        assert np.isclose(tl.trace_norm(rho), 1.0)

    def test_sigma_z(self):
        assert np.isclose(tl.trace_norm(tl.qubit("A", tl.PAULI_Z)), 2.0)


class TestReorderAndSerialization:
    @given(st.integers(0, 10**6))
    def test_reorder_roundtrip(self, seed):
        x = random_op(seed, [("A", 2), ("B", 3), ("C", 2)])
        y = tl.reorder(tl.reorder(x, ("C", "A", "B")), ("A", "B", "C"))
        assert np.allclose(x.mat, y.mat)

    def test_reorder_matches_kron_swap(self):
        a = random_op(21, [("A", 2)])
        b = random_op(22, [("B", 3)])
        ab = tl.kron(a, b)
        ba = tl.kron(b, a)
        assert np.allclose(tl.reorder(ab, ("B", "A")).mat, ba.mat)

    def test_json_roundtrip(self):
        x = random_op(33, [("A", 2), ("B", 3)])
        y = tl.from_json_dict(tl.to_json_dict(x))
        assert y.space == x.space
        assert np.array_equal(y.mat, x.mat)

    @pytest.mark.parametrize("key", ["labels", "re", "im"])
    def test_json_missing_field(self, key):
        data = tl.to_json_dict(random_op(34, [("A", 2)]))
        del data[key]
        with pytest.raises(ValueError, match=f"operator lacks {key}"):
            tl.from_json_dict(data)

    def test_json_re_and_im_of_different_shapes(self):
        # a (1, 1) im would broadcast, adding it to every entry
        data = {"labels": [["A", 2]], "re": np.eye(2).tolist(), "im": [[0.5]]}
        with pytest.raises(ValueError, match=r"operator re is \(2, 2\) but im is \(1, 1\)"):
            tl.from_json_dict(data)

    @pytest.mark.parametrize("labels", [["A2"], [["A", 2, 1]], [["A", 2.7]]])
    def test_json_label_that_is_not_a_pair(self, labels):
        # "A2" would unpack into the factor ("A", 2), and dim 2.7 truncate to 2
        data = {"labels": labels, "re": np.eye(2).tolist(), "im": np.zeros((2, 2)).tolist()}
        with pytest.raises(ValueError, match="not \\[name, dim\\] pairs"):
            tl.from_json_dict(data)

    def test_immutability(self):
        x = random_op(1, [("A", 2)])
        with pytest.raises(ValueError):
            x.mat[0, 0] = 5.0
        with pytest.raises(AttributeError):
            x.mat = np.eye(2)
