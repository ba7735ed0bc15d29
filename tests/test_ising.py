import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qmemwit import ising
from qmemwit import process as pr
from qmemwit import tensorlinalg as tl

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def oracle_process_matrix(J, h, t):
    """Independent construction of W: explicit index sums, scipy expm.

    W[(a,o,b),(a',o',b')] = (1/2) sum_e U[(b,e),(o,a)] conj(U[(b',e),(o',a')])
    with U = exp(-i H t) on (A_O, E_I).
    """
    ham = -J * np.kron(SX, SX) - h * (np.kron(SZ, np.eye(2)) + np.kron(np.eye(2), SZ))
    u = expm(-1j * t * ham)
    w = np.zeros((8, 8), dtype=complex)
    for a in range(2):
        for o in range(2):
            for b in range(2):
                for a2 in range(2):
                    for o2 in range(2):
                        for b2 in range(2):
                            acc = 0.0
                            for e in range(2):
                                acc += u[2 * b + e, 2 * o + a] * np.conj(
                                    u[2 * b2 + e, 2 * o2 + a2]
                                )
                            w[(a * 2 + o) * 2 + b, (a2 * 2 + o2) * 2 + b2] = 0.5 * acc
    return w


# Frozen fixture: smallest eigenvalue of W(1,1,1)^{T_{A_I}}, computed from the
# oracle above and np.linalg.eigvalsh.
PPT_MIN_EIG_111 = -0.29213928953775614


class TestHamiltonian:
    def test_zero_params(self):
        assert np.allclose(ising.hamiltonian(0.0, 0.0).mat, np.zeros((4, 4)))

    def test_pure_coupling(self):
        assert np.allclose(ising.hamiltonian(1.0, 0.0).mat, -np.kron(SX, SX))

    def test_pure_field(self):
        assert np.allclose(ising.hamiltonian(0.0, 1.0).mat, -np.diag([2.0, 0.0, 0.0, -2.0]))

    @given(st.floats(-4, 4), st.floats(-4, 4))
    @settings(max_examples=25)
    def test_hermitian_traceless(self, J, h):
        ham = ising.hamiltonian(J, h)
        assert ham.is_hermitian()
        assert abs(ham.trace()) <= 1e-12


class TestEvolution:
    def test_zero_time(self):
        assert np.allclose(ising.evolution(1.2, 3.4, 0.0).mat, np.eye(4))

    def test_special_point(self):
        u = ising.evolution(math.pi / 2, 0.0, 1.0)
        assert np.allclose(u.mat, 1j * np.kron(SX, SX), atol=1e-12)

    def test_lattice_point_factorizes(self):
        u = ising.evolution(math.pi, (math.pi / 2) * math.sqrt(3.0), 1.0)
        assert ising.factorizes(u)

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0, 3))
    @settings(max_examples=25)
    def test_unitary_and_scaling_identity(self, J, h, t):
        u = ising.evolution(J, h, t)
        assert tl.is_unitary(u)
        v = ising.evolution(J * t, h * t, 1.0)
        assert np.max(np.abs(u.mat - v.mat)) <= 1e-9

    def test_matches_scipy_expm(self):
        for J, h, t in [(0.3, 1.1, 0.7), (2.0, 0.0, 1.0), (5.5, 9.1, 0.2)]:
            ham = -J * np.kron(SX, SX) - h * (
                np.kron(SZ, np.eye(2)) + np.kron(np.eye(2), SZ)
            )
            assert np.max(np.abs(ising.evolution(J, h, t).mat - expm(-1j * t * ham))) <= 1e-12


class TestProcessMatrix:
    def test_zero_time_form(self):
        w = ising.process_matrix(0.7, 0.3, 0.0)
        ident_choi = pr.choi_of_unitary(tl.identity([(pr.A_O, 2)]), (pr.A_O,), (pr.B_I,))
        expect = np.kron(np.eye(2) / 2, ident_choi.mat)
        assert np.allclose(w.op.mat, expect)

    def test_matches_oracle(self):
        for J, h, t in [(1, 1, 1), (2.3, 0.7, 1.4), (0, 1.7, 1), (np.pi, 0, 1), (0.4, 3.3, 0.77)]:
            got = ising.process_matrix(J, h, t).op.mat
            assert np.max(np.abs(got - oracle_process_matrix(J, h, t))) <= 1e-12

    def test_zero_coupling_is_markovian(self):
        for h in (0.5, 1.7, 9.0):
            assert pr.markov_distance(ising.process_matrix(0.0, h, 1.0)) <= 1e-12

    def test_generic_point_is_npt(self):
        w = ising.process_matrix(1.0, 1.0, 1.0)
        lam = tl.min_eig(tl.partial_transpose(w.op, {pr.A_I}))
        assert abs(lam - PPT_MIN_EIG_111) <= 1e-12

    def test_trace_and_comb(self):
        w = ising.process_matrix(1.9, 4.2, 0.6)
        assert abs(w.op.trace() - 2.0) <= 1e-9
        assert pr.validate_comb(w.op).ok

    @given(st.floats(0, 5), st.floats(0, 5), st.floats(0.1, 2))
    @settings(max_examples=20)
    def test_time_scaling_identity(self, J, h, t):
        a = ising.process_matrix(J, h, t)
        b = ising.process_matrix(J * t, h * t, 1.0)
        assert tl.max_abs_diff(a.op, b.op) <= 1e-9


class TestAnalyticH0:
    @pytest.mark.parametrize("J,t", [(0.5, 1.0), (1.0, 1.0), (2.3, 0.7)])
    def test_matches_link_construction(self, J, t):
        gap = tl.max_abs_diff(ising.analytic_h0(J, t).op, ising.process_matrix(J, 0.0, t).op)
        assert gap <= 1e-10

    def test_two_equal_terms(self):
        mix = ising.analytic_h0_mixture(1.1, 0.8)
        assert len(mix.terms) == 2
        assert all(np.isclose(q, 0.5) for q, _, _ in mix.terms)
        # nu = +1 listed first: its state is the +1 eigenstate of sigma_x
        plus = np.array([1, 1]) / np.sqrt(2)
        assert np.allclose(mix.terms[0][1].mat, np.outer(plus, plus))

    @given(st.floats(0, 6), st.floats(0.1, 2))
    @settings(max_examples=20)
    def test_random_params_match_and_stay_ppt(self, J, t):
        w = ising.analytic_h0(J, t)
        assert tl.max_abs_diff(w.op, ising.process_matrix(J, 0.0, t).op) <= 1e-10
        assert tl.min_eig(tl.partial_transpose(w.op, {pr.A_I})) >= -1e-10


class TestMarkovianPoints:
    def test_small_window(self):
        pts = ising.markovian_points(4.0, 1.0)
        expect = [(0.0, 0.0), (round(math.pi / 2, 12), 0.0), (round(math.pi, 12), 0.0)]
        assert pts == expect

    def test_contains_k2_point(self):
        pts = ising.markovian_points(4.0, 2.8)
        target = (round(math.pi, 12), round((math.pi / 2) * math.sqrt(3.0), 12))
        assert target in pts

    def test_all_points_have_zero_distance(self):
        for j, h in ising.markovian_points(10.0, 10.0):
            assert pr.markov_distance(ising.process_matrix(j, h, 1.0)) <= 1e-9

    def test_sorted_unique(self):
        pts = ising.markovian_points(10.0, 10.0)
        assert pts == sorted(set(pts))

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            ising.markovian_points(0.0, 1.0)


class TestFactorizes:
    def test_product_true(self):
        u = tl.kron(tl.qubit("a", SX), tl.qubit("b", SZ))
        assert ising.factorizes(u)

    def test_cnot_false(self):
        cnot = np.eye(4, dtype=complex)
        cnot[2:, 2:] = SX
        assert not ising.factorizes(tl.operator([("a", 2), ("b", 2)], cnot))

    def test_lattice_vs_off_lattice(self):
        assert ising.factorizes(ising.evolution(math.pi, (math.pi / 2) * math.sqrt(3.0), 1.0))
        assert not ising.factorizes(ising.evolution(math.pi, 1.0, 1.0))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            ising.factorizes(tl.operator([("a", 2), ("b", 2)], np.diag([1, 1, 1, 0.5])))

    def test_exactly_the_lattice(self):
        # factorization holds on every lattice point up to (10, 10) and on
        # none of 500 random off-lattice draws
        lattice = ising.markovian_points(10.0, 10.0)
        for j, h in lattice:
            assert ising.factorizes(ising.evolution(j, h, 1.0), tol=1e-8)
        rng = np.random.default_rng(123)
        count = 0
        for _ in range(500):
            j, h = rng.uniform(0.0, 10.0, 2)
            if min(math.hypot(j - lj, h - lh) for lj, lh in lattice) < 1e-3 or j < 1e-3:
                continue
            assert not ising.factorizes(ising.evolution(j, h, 1.0), tol=1e-8)
            count += 1
        assert count > 450
