import json
from functools import cached_property

import numpy as np
import pytest

from qmemwit import sdp
from qmemwit.sdp import BlockMatrix, SdpProblem


def herm(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def eye_bm(n):
    return BlockMatrix([np.eye(n, dtype=complex)])


SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]])


def bounded_functional_problem(sigma):
    """Tr X = 1 and Tr(sigma X) = 3: infeasible, since |Tr(sigma X)| <= 1."""
    return SdpProblem.from_constraints(
        (2,), None, [(eye_bm(2), 1.0), (BlockMatrix([sigma]), 3.0)]
    )


def min_eig_problem(m):
    """min Tr(M X) s.t. Tr X = 1, X >= 0; optimum is lambda_min(M)."""
    n = m.shape[0]
    return SdpProblem.from_constraints((n,), BlockMatrix([m]), [(eye_bm(n), 1.0)])


class TestProblemValidation:
    def test_non_hermitian_objective_rejected(self):
        with pytest.raises(ValueError, match="objective is not Hermitian"):
            min_eig_problem(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_non_hermitian_constraint_rejected(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            SdpProblem.from_constraints(
                (2,), None, [(BlockMatrix([bad]), 0.0)]
            )

    def test_hermitian_check_is_relative(self):
        from qmemwit import detect, ising
        from qmemwit import tensorlinalg as tl

        rng = np.random.default_rng(83)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        big = 1e5 * g @ herm(rng, 8) @ g.conj().T
        scale = np.max(np.abs(big))
        defect = np.max(np.abs(big - big.conj().T))
        # rounding leaves a defect above the absolute bound but far below the relative one
        assert sdp.HERM_TOL < defect <= 1e-14 * scale
        min_eig_problem(big)
        sdp.ConstraintSet((8,), [big[None]])
        w = ising.process_matrix(1.0, 1.0, 1.0)
        a_op = tl.TensorOperator(w.op.space, big)
        report = detect.witness_sdp(w, constraints=[(a_op, np.trace(big).real / 8)])
        assert report.diagnostics["solver_status"] is not None

        bad = big.copy()
        bad[0, 1] += 1e-3 * scale
        with pytest.raises(ValueError):
            min_eig_problem(bad)
        with pytest.raises(ValueError):
            sdp.ConstraintSet((8,), [bad[None]])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SdpProblem.from_constraints((3,), None, [(eye_bm(2), 1.0)])

    def test_too_many_constraints_rejected(self):
        cons = [(eye_bm(2), 1.0)] * 5
        with pytest.raises(ValueError):
            SdpProblem.from_constraints((2,), None, cons)

    @staticmethod
    def spoil(data, where, value):
        if where == "b":
            data["b"][0] = value
        elif where == "constraint":
            data["constraints"][0]["re"][0] = value
        else:
            data["objective"][0]["re"][0][0] = value

    @pytest.mark.parametrize(
        "where, value",
        [("b", "NaN"), ("constraint", "NaN"), ("constraint", "Infinity"), ("objective", "NaN")],
    )
    def test_non_finite_data_rejected(self, where, value):
        # json reads NaN and Infinity, and a NaN passes the Hermitian checks
        data = TestSerialization.witness_dump()
        self.spoil(data, where, json.loads(value))
        with pytest.raises(ValueError, match="not finite"):
            sdp.problem_from_json(data)

    def test_non_finite_restriction_rejected(self):
        from qmemwit import detect, ising
        from qmemwit import tensorlinalg as tl

        w = ising.process_matrix(1.0, 1.0, 1.0)
        a_op = tl.TensorOperator(w.op.space, np.eye(8, dtype=complex))
        with pytest.raises(ValueError, match="not finite"):
            detect.witness_sdp(w, constraints=[(a_op, float("nan"))])


class TestSolveExamples:
    def test_diagonal_objective(self):
        c = BlockMatrix([np.diag([1.0, -2.0]).astype(complex)])
        p = SdpProblem.from_constraints((2,), c, [(eye_bm(2), 1.0)])
        r = sdp.solve(p)
        assert r.status == sdp.OPTIMAL
        assert abs(r.objective_value - (-2.0)) <= 1e-7
        assert sdp.verify(p, r).ok

    @pytest.mark.parametrize("sigma", [SIGMA_Z, SIGMA_Y], ids=["sigma_z", "sigma_y"])
    def test_bounded_functional_infeasible(self, sigma):
        p = bounded_functional_problem(sigma)
        r = sdp.solve(p)
        assert r.status == sdp.INFEASIBLE
        assert abs(float(p.b @ r.y) - 1.0) <= 1e-12
        assert sdp.verify(p, r).ok

    def test_bell_partial_transpose_optimum(self):
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        bell = np.outer(v, v)
        m = bell.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4).astype(complex)
        r = sdp.solve(min_eig_problem(m))
        # max of -Tr(MX) equals +1/2
        assert abs(-r.objective_value - 0.5) <= 1e-6

    def test_feasibility_mode(self):
        p = SdpProblem.from_constraints((3,), None, [(eye_bm(3), 1.0)])
        r = sdp.solve(p)
        assert r.status == sdp.OPTIMAL
        assert r.objective_value == 0.0
        assert sdp.verify(p, r).ok

    @pytest.mark.parametrize("n, expected", [(4, sdp.OPTIMAL), (8, sdp.MAX_ITER)])
    def test_non_finite_direction_reported(self, monkeypatch, n, expected):
        # an iteration makes two Cholesky solves, v_dir with the predictor's u
        # and the corrector's u; from the 13th (iteration 6's first) every
        # solve returns NaNs; at n = 4 the incumbent already meets the result
        # contract, at n = 8 not.  The set's start state, with its own solve,
        # is computed before the count starts
        import scipy.linalg

        cho_solve = scipy.linalg.cho_solve
        calls = [0]

        def nan_from_13th_call(*args, **kwargs):
            calls[0] += 1
            out = cho_solve(*args, **kwargs)
            return np.full_like(out, np.nan) if calls[0] >= 13 else out

        p = min_eig_problem(herm(np.random.default_rng(0), n))
        p.constraint_set._start
        monkeypatch.setattr(scipy.linalg, "cho_solve", nan_from_13th_call)
        r = sdp.solve(p)
        assert r.status == expected
        assert r.info["reason"] == "non-finite Newton direction"
        assert sdp.verify(p, r).ok == (r.status == sdp.OPTIMAL)

    @pytest.mark.parametrize("n, expected", [(4, sdp.OPTIMAL), (8, sdp.MAX_ITER)])
    def test_cholesky_failure_of_the_iterate_reported(self, monkeypatch, n, expected):
        # iteration 0 scales x = s = I in closed form and iterations 1 to 5
        # factor X and S of the one block, so from its 11th call (iteration 6's
        # X) every Cholesky factorization of the iterate fails; at n = 4 the
        # incumbent already meets the result contract, at n = 8 not
        cholesky = np.linalg.cholesky
        calls = [0]

        def failing_from_11th_call(a):
            calls[0] += 1
            if calls[0] >= 11:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", failing_from_11th_call)
        p = min_eig_problem(herm(np.random.default_rng(0), n))
        r = sdp.solve(p)
        assert r.info["iterations"] == 6
        assert r.status == expected
        assert r.info["reason"] == "iterate has no Cholesky factor"
        assert sdp.verify(p, r).ok == (r.status == sdp.OPTIMAL)

    @pytest.mark.parametrize("objective", [BlockMatrix([np.eye(3), np.diag([1.0, 2.0])]), None])
    def test_without_constraints(self, objective):
        p = SdpProblem.from_constraints((3, 2), objective, [])
        r = sdp.solve(p)
        assert r.status == sdp.OPTIMAL
        assert r.y.shape == (0,)
        assert sdp.verify(p, r).ok

    def test_zero_iterations(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 0)
        p = bounded_functional_problem(SIGMA_Z)
        r = sdp.solve(p)
        assert r.status == sdp.MAX_ITER
        assert r.x is None
        assert r.y.tobytes() == np.zeros(p.constraint_set.m).tobytes()
        assert np.isnan(r.objective_value)
        assert r.info["reason"] == "iteration limit reached"
        assert not sdp.verify(p, r).ok

    def test_iteration_cap_reported(self, monkeypatch):
        rng = np.random.default_rng(0)
        p = min_eig_problem(herm(rng, 6))
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 1)
        r = sdp.solve(p)
        assert r.status in (sdp.MAX_ITER, sdp.FAILURE)
        assert r.x is None


def random_pd(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return sdp._sym(g @ g.conj().T / d + np.eye(d))


class TestNtScaling:
    """sdp._nt_scaling, W from the Cholesky factors of X and S and one SVD,
    and the step bound read in its scaled frame."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(97)
        for d in (2, 3, 5, 8, 11, 16):
            yield rng, random_pd(rng, d), 10.0 ** rng.uniform(-3, 3) * random_pd(rng, d)

    @staticmethod
    def inv_sqrt(a):
        vals, vecs = np.linalg.eigh(a)
        return (vecs / np.sqrt(vals)) @ vecs.conj().T

    @staticmethod
    def rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    def test_scaled_point_is_diagonal(self):
        for _, x, s in self.pairs():
            w, g, g_inv, lv = sdp._nt_scaling(x, s)
            assert self.rel(w @ s @ w, x) <= 1e-12
            assert self.rel(g_inv @ g, np.eye(len(x))) <= 1e-12
            assert self.rel(g @ g.conj().T, w) <= 1e-12
            assert self.rel(g_inv @ x @ g_inv.conj().T, np.diag(lv)) <= 1e-12
            assert self.rel(g.conj().T @ s @ g, np.diag(lv)) <= 1e-12

    def test_matches_the_eigh_reference(self):
        # W = S^-1/2 (S^1/2 X S^1/2)^1/2 S^-1/2
        for _, x, s in self.pairs():
            s_inv_half = self.inv_sqrt(s)
            s_half = np.linalg.inv(s_inv_half)
            m_inv_half = self.inv_sqrt(sdp._sym(s_half @ x @ s_half))
            ref = s_inv_half @ np.linalg.inv(m_inv_half) @ s_inv_half
            assert self.rel(sdp._nt_scaling(x, s)[0], ref) <= 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 7, 8, 12, 16])
    def test_identity_pair_is_exact(self, d):
        # iteration 0 takes W = G = G^-1 = I and lv = 1 at x = s = I, and the
        # set's start factor is that of W = I: both need this scaling bitwise
        eye = np.eye(d, dtype=complex)
        w, g, g_inv, lv = sdp._nt_scaling(eye, eye)
        assert w.tobytes() == eye.tobytes()
        assert lv.tobytes() == np.ones(d).tobytes()
        assert np.array_equal(g, eye) and np.array_equal(g_inv, eye)
        assert g.tobytes() == eye.tobytes() and g_inv.tobytes() == eye.tobytes()

    def test_step_bound_matches_the_reference(self):
        for rng, x, s in self.pairs():
            _, g, g_inv, lv = sdp._nt_scaling(x, s)
            d = len(x)
            for point, direction, to_frame in (
                (x, herm(rng, d), lambda h: g_inv @ h @ g_inv.conj().T),
                (s, herm(rng, d), lambda h: g.conj().T @ h @ g),
            ):
                root = self.inv_sqrt(point)
                lam = np.linalg.eigvalsh(root @ direction @ root)[0]
                assert lam < 0
                got = sdp._scaled_step([lv], [to_frame(direction)])
                assert abs(got + 1.0 / lam) <= 1e-10 * (-1.0 / lam)
                assert sdp._scaled_step([lv], [to_frame(random_pd(rng, d))]) == np.inf

    def test_stacked_step_bound_is_the_least_per_block_bound(self):
        rng = np.random.default_rng(127)
        sides = (6, 3, 6, 2, 3, 6)
        lvs = [np.linalg.eigvalsh(random_pd(rng, d)) for d in sides]
        hats = [herm(rng, d) for d in sides]
        per_block = [sdp._scaled_step([lv], [h]) for lv, h in zip(lvs, hats)]
        assert sdp._scaled_step(lvs, hats) == min(per_block) < np.inf
        # a PSD direction on every block bounds no step
        assert sdp._scaled_step(lvs, [random_pd(rng, d) for d in sides]) == np.inf


class TestLeastEigs:
    """sdp._least_eigs, one eigvalsh call per block side, against one call per block."""

    @staticmethod
    def assert_per_block(blocks):
        got = sdp._least_eigs(blocks)
        want = [float(np.linalg.eigvalsh(b)[0]) for b in blocks]
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_one_block(self):
        self.assert_per_block([herm(np.random.default_rng(131), 5)])

    def test_mixed_sides(self):
        rng = np.random.default_rng(137)
        self.assert_per_block([herm(rng, d) for d in (2, 3, 16, 3, 16)])

    def test_one_call_per_side(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        rng = np.random.default_rng(139)
        sdp._least_eigs([herm(rng, d) for d in (2, 3, 16, 3, 16)])
        assert sorted(calls) == [(1, 2, 2), (2, 3, 3), (2, 16, 16)]


def random_problem(rng):
    """An objective SDP on blocks (3, 4, 2) whose last block carries no data."""
    dims, m = (3, 4, 2), 5
    cons = [
        (BlockMatrix([herm(rng, 3), herm(rng, 4), np.zeros((2, 2))]), float(rng.standard_normal()))
        for _ in range(m)
    ]
    objective = BlockMatrix([herm(rng, d) for d in dims])
    return SdpProblem.from_constraints(dims, objective, cons)


class TestSchur:
    """ConstraintSet._schur against M_kl = Re Tr(A_k^H W A_l W) computed from the stacks."""

    @staticmethod
    def reference(ops, ws):
        big_m = np.zeros((ops.m, ops.m))
        for stack, w in zip(ops.stacks, ws):
            waw = np.einsum("ab,lbc,cd->lad", w, stack, w)
            big_m += np.einsum("kab,lab->kl", stack.conj(), waw).real
        return big_m

    def assert_matches(self, ops, seed):
        rng = np.random.default_rng(seed)
        ws = [random_pd(rng, d) for d in ops.block_dims]
        got, ref = ops._schur(ws), self.reference(ops, ws)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_dps2_template(self):
        from qmemwit import detect

        ops = detect._dps2_template((2, 2, 2)).constraint_set
        assert [i for i, *_ in ops._block_csr] == [0, 1, 2]
        assert all(isinstance(index[0], slice) for _, index, *_ in ops._block_csr)
        self.assert_matches(ops, 41)

    def test_rows_not_contiguous(self):
        rng = np.random.default_rng(43)
        dims, m = (3, 4, 2), 7
        stacks = [np.stack([herm(rng, d) for _ in range(m)]) for d in dims]
        stacks[1][[1, 3, 4]] = 0.0          # block 1 carries rows 0, 2, 5, 6
        stacks[2][:5] = 0.0                 # block 2 carries rows 5, 6
        ops = sdp.ConstraintSet(dims, stacks)
        indices = {i: index for i, index, *_ in ops._block_csr}
        assert isinstance(indices[0][0], slice)
        # rows 1, 3 and 4 lie inside block 1's span and add zeros
        assert indices[1] == (slice(0, 7), slice(0, 7))
        assert indices[2] == (slice(5, 7), slice(5, 7))
        self.assert_matches(ops, 47)

    def test_block_without_data(self):
        rng = np.random.default_rng(53)
        dims, m = (4, 3), 5
        stacks = [np.stack([herm(rng, 4) for _ in range(m)]), np.zeros((m, 3, 3))]
        ops = sdp.ConstraintSet(dims, stacks)
        assert [i for i, *_ in ops._block_csr] == [0]
        self.assert_matches(ops, 59)

    def test_consecutive_assemblies_share_the_workspace(self):
        from qmemwit import detect

        ops = detect._dps2_template((2, 2, 2)).constraint_set
        rng = np.random.default_rng(61)
        first_ws = [random_pd(rng, d) for d in ops.block_dims]
        second_ws = [2.0 * random_pd(rng, d) for d in ops.block_dims]
        first = ops._schur(first_ws)
        ref = self.reference(ops, first_ws)
        assert np.max(np.abs(first - ref)) <= 1e-12 * np.max(np.abs(ref))
        second = ops._schur(second_ws)
        ref = self.reference(ops, second_ws)
        assert np.max(np.abs(second - ref)) <= 1e-12 * np.max(np.abs(ref))
        # valid until the next call on the set: both names hold the second assembly
        assert second is first

    def test_repeated_assembly_allocates_less_than_a_complex_m_by_m(self):
        import tracemalloc

        from qmemwit import detect

        ops = detect._dps2_template((2, 2, 2)).constraint_set
        ws = [random_pd(np.random.default_rng(67), d) for d in ops.block_dims]
        ops._schur(ws)
        tracemalloc.start()
        try:
            ops._schur(ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ops.m ** 2 * 16


def identity_blocks(ops):
    return [np.eye(d, dtype=complex) for d in ops.block_dims]


def assert_same_solve(r, ref):
    assert r.status == ref.status
    assert r.y.tobytes() == ref.y.tobytes()
    assert (r.x is None) == (ref.x is None)
    if r.x is not None:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(r.x.blocks, ref.x.blocks))
    assert np.array(r.info["trajectory"]).tobytes() == np.array(ref.info["trajectory"]).tobytes()
    assert r.info == ref.info


def fresh(problem):
    """The problem on a new ConstraintSet with the same stacks, so nothing is cached."""
    ops = problem.constraint_set
    return SdpProblem(problem.objective, sdp.ConstraintSet(ops.block_dims, ops.stacks), problem.b)


def without_block_shifts(monkeypatch):
    """Make every ConstraintSet whose start state is not yet cached compute it
    with no block shifts, so that no solve on it takes the shifted Farkas stop."""
    start = sdp.ConstraintSet._start.func
    patched = cached_property(lambda ops: (*start(ops)[:2], ()))
    patched.__set_name__(sdp.ConstraintSet, "_start")
    monkeypatch.setattr(sdp.ConstraintSet, "_start", patched)


class TestStartFactor:
    """The Schur factor at W = I, cached per ConstraintSet for every solve's iteration 0."""

    def test_is_the_factor_of_the_identity_assembly(self):
        from qmemwit import detect

        for ops in (
            detect._dps2_template((2, 2, 2)).constraint_set,
            random_problem(np.random.default_rng(73)).constraint_set,
        ):
            factor = ops._start[0]
            ref, retries = sdp._factor(ops._schur(identity_blocks(ops)))
            assert retries == 0
            assert factor[1] == ref[1]
            assert factor[0].tobytes() == ref[0].tobytes()
            assert not factor[0].flags.writeable
            assert ops._start[0] is factor
            gram = TestSchur.reference(ops, identity_blocks(ops))
            lower = np.tril(factor[0])
            assert np.max(np.abs(lower @ lower.T - gram)) <= 1e-12 * np.max(np.abs(gram))

    def test_assembled_once_fewer_than_iterations(self, monkeypatch):
        from qmemwit import detect, ising

        calls = []
        schur = sdp.ConstraintSet._schur

        def counted(self, ws):
            calls.append(1)
            return schur(self, ws)

        monkeypatch.setattr(sdp.ConstraintSet, "_schur", counted)
        # without the shifted stop, (1.3, 0.7) runs past iteration 1
        without_block_shifts(monkeypatch)
        template = detect._Dps2Template((2, 2, 2))
        problems = [
            min_eig_problem(herm(np.random.default_rng(79), 4)),
            template.problem(ising.process_matrix(1.3, 0.7, 1.0)),
            template.problem(ising.process_matrix(1.3, 0.0, 1.0)),
        ]
        sdp.solve(problems[0])
        sdp.solve(problems[1])
        for problem in problems:
            calls.clear()
            r = sdp.solve(problem)
            assert r.status in (sdp.OPTIMAL, sdp.INFEASIBLE)
            assert r.info["iterations"] >= 2
            assert len(calls) == r.info["iterations"] - 1

    def test_singular_gram_caches_the_shifted_factor(self):
        import scipy.linalg

        # Tr(P X) = 1/2 twice, with P = diag(1, 0): M = [[1, 1], [1, 1]] is singular
        p = BlockMatrix([np.diag([1.0, 0.0]).astype(complex)])
        c = BlockMatrix([np.diag([1.0, 2.0]).astype(complex)])
        problems = [
            SdpProblem.from_constraints((2,), c, [(p, b), (p, b), (eye_bm(2), 1.0)])
            for b in (0.5, 0.25)
        ]
        ops = problems[0].constraint_set
        problems[1].constraint_set = ops
        gram = ops._schur(identity_blocks(ops)).copy()    # _start assembles again
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
        factor = ops._start[0]
        assert factor is not None
        shifted, retries = sdp._factor(gram)
        assert retries >= 1
        assert factor[0].tobytes() == shifted[0].tobytes()
        for problem in problems + problems:
            r = sdp.solve(problem)
            assert r.status == sdp.OPTIMAL
            assert_same_solve(r, sdp.solve(fresh(problem)))
        assert ops._start[0] is factor

    def test_two_column_solve_equals_two_one_column_solves(self):
        import scipy.linalg

        from qmemwit import detect

        factor = detect._dps2_template((2, 2, 2)).constraint_set._start[0]
        rng = np.random.default_rng(113)
        for _ in range(5):
            a, b = rng.standard_normal(672), rng.standard_normal(672)
            v, u = scipy.linalg.cho_solve(factor, np.array([a, b]).T, check_finite=False).T
            assert v.tobytes() == scipy.linalg.cho_solve(factor, a, check_finite=False).tobytes()
            assert u.tobytes() == scipy.linalg.cho_solve(factor, b, check_finite=False).tobytes()
        # the start state's one solve, against A(I) and each A(E_b), column by column
        for ops in (
            detect._dps2_template((2, 2, 2)).constraint_set,
            detect._dps2_template((2, 1, 2)).constraint_set,
            detect._trace_constraint_set(8),
        ):
            a_eyes = [np.einsum("kii->k", s).real for s in ops.stacks]
            columns = np.stack([sum(a_eyes), *a_eyes], axis=1)
            factor = ops._start[0]
            z = scipy.linalg.cho_solve(factor, columns, check_finite=False)
            for col, got in zip(columns.T, z.T):
                one = scipy.linalg.cho_solve(factor, np.ascontiguousarray(col), check_finite=False)
                assert got.tobytes() == one.tobytes()

    def test_alternating_right_hand_sides_match_fresh_sets(self):
        from qmemwit import detect, ising

        template = detect._Dps2Template((2, 2, 2))
        problems = [
            template.problem(ising.process_matrix(j, h, 1.0))
            for j, h in ((1.3, 0.7), (1.3, 0.0))
        ]
        refs = [sdp.solve(fresh(p)) for p in problems]
        assert {r.status for r in refs} == {sdp.OPTIMAL, sdp.INFEASIBLE}
        for k in (0, 1, 0, 1):
            assert_same_solve(sdp.solve(problems[k]), refs[k])


class TestStartProjection:
    """The feasibility stop at iteration 0, on the projection of the start point I
    onto {A(X) = b} read from P_0 of ConstraintSet._start."""

    @staticmethod
    def projection(problem):
        """I - A*(G^+ (A(I) - b)) from the stacks, with the pseudo-inverse of the Gram matrix."""
        ops = problem.constraint_set
        gram = TestSchur.reference(ops, identity_blocks(ops))
        a_eye = sum(np.einsum("kii->k", s).real for s in ops.stacks)
        z = np.linalg.pinv(gram) @ (a_eye - problem.b)
        return [np.eye(d) - blk for d, blk in zip(ops.block_dims, ops.adjoint(z).blocks)]

    @staticmethod
    def assert_stopped(problem, r):
        assert r.status == sdp.OPTIMAL
        assert r.info["stop"] == "start_projection"
        assert r.info["iterations"] == 0 and len(r.info["trajectory"]) == 1
        assert r.info["schur_shifts"] == 0
        assert r.y.tobytes() == np.zeros(problem.constraint_set.m).tobytes()
        assert r.objective_value == 0.0
        rep = sdp.verify(problem, r)
        assert rep.ok, str(rep)

    def test_is_the_projection_from_the_stacks(self):
        from qmemwit import detect, ising

        problem = detect._Dps2Template((2, 2, 2)).problem(ising.process_matrix(0.0, 0.7, 1.0))
        ops = problem.constraint_set
        p_0 = ops._start[1]
        assert ops._start[1] is p_0
        assert not any(blk.flags.writeable for blk in p_0)
        r = sdp.solve(problem)
        self.assert_stopped(problem, r)
        for got, ref in zip(r.x.blocks, self.projection(problem)):
            assert np.max(np.abs(got - ref)) <= 1e-12
            assert np.linalg.eigvalsh(got)[0] > 0

    def test_feasibility_mode_only(self):
        # Tr X = 1 projects I to I/3; with an objective the same set iterates
        n = 3
        problem = SdpProblem.from_constraints((n,), None, [(eye_bm(n), 1.0)])
        r = sdp.solve(problem)
        self.assert_stopped(problem, r)
        assert np.max(np.abs(r.x.blocks[0] - np.eye(n) / n)) <= 1e-15
        objective = BlockMatrix([herm(np.random.default_rng(97), n)])
        with_objective = sdp.solve(SdpProblem(objective, problem.constraint_set, problem.b))
        assert with_objective.status == sdp.OPTIMAL
        assert with_objective.info["iterations"] >= 2
        assert "stop" not in with_objective.info

    def test_projection_that_is_not_pd_iterates(self):
        # Tr X = 1, Re X_01 = 0.45: the projection I/3 + 0.45 (E_01 + E_10) is
        # indefinite, while diag(0.49, 0.49, 0.02) + 0.45 (E_01 + E_10) is feasible and PD
        off = np.zeros((3, 3), dtype=complex)
        off[0, 1] = off[1, 0] = 0.5
        problem = SdpProblem.from_constraints(
            (3,), None, [(eye_bm(3), 1.0), (BlockMatrix([off]), 0.45)]
        )
        assert np.linalg.eigvalsh(self.projection(problem)[0])[0] < 0
        r = sdp.solve(problem)
        assert r.status == sdp.OPTIMAL
        assert r.info["iterations"] >= 2 and "stop" not in r.info
        assert sdp.verify(problem, r).ok

    def test_shifted_start_factor(self):
        # TestStartFactor's duplicated rows in feasibility mode: G is singular
        # and the start factor is shifted, so v_dir is only near G^+ b; the
        # stop still returns the projection diag(1/2, 1/2), checked as any other
        p = BlockMatrix([np.diag([1.0, 0.0]).astype(complex)])
        problem = SdpProblem.from_constraints((2,), None, [(p, 0.5), (p, 0.5), (eye_bm(2), 1.0)])
        ops = problem.constraint_set
        _, retries = sdp._factor(TestSchur.reference(ops, identity_blocks(ops)))
        assert retries >= 1
        r = sdp.solve(problem)
        self.assert_stopped(problem, r)
        assert np.max(np.abs(r.x.blocks[0] - np.eye(2) / 2)) <= 1e-12

    def test_schur_shifts_count_the_retries(self, monkeypatch):
        import scipy.linalg

        from qmemwit import detect, ising

        template = detect._Dps2Template((2, 2, 2))
        assert template.constraint_set._start[0] is not None
        failures = []
        cho_factor = scipy.linalg.cho_factor

        def counted(*args, **kwargs):
            try:
                return cho_factor(*args, **kwargs)
            except np.linalg.LinAlgError:
                failures.append(1)
                raise

        monkeypatch.setattr(scipy.linalg, "cho_factor", counted)
        for j, h in ((1.3, 0.0), (1.3, 0.7), (0.0, 0.7)):
            failures.clear()
            r = sdp.solve(template.problem(ising.process_matrix(j, h, 1.0)))
            assert r.info["schur_shifts"] == len(failures)
            assert (r.info["schur_shifts"] > 0) == (h == 0.0)


class TestBlockShifts:
    """The block shifts of ConstraintSet._start and the shifted Farkas stop they enable."""

    def test_dps2_template_shifts_every_block_by_its_identity(self):
        from qmemwit import detect

        ops = detect._Dps2Template((2, 2, 2)).constraint_set
        shifts = ops._start[2]
        assert [b for b, _, _ in shifts] == [0, 1, 2]
        for b, y_b, sigma in shifts:
            assert not y_b.flags.writeable
            for i, got in enumerate(ops.adjoint(-y_b).blocks):
                assert np.max(np.abs(got - np.eye(len(got)) * (i == b))) <= 1e-12
            assert abs(sigma - 1.0) <= 1e-12
        assert ops._start[2] is shifts

    def test_trace_constraint_gives_one_shift(self):
        ops = min_eig_problem(herm(np.random.default_rng(89), 4)).constraint_set
        ((b, y_b, sigma),) = ops._start[2]
        assert b == 0
        assert np.allclose(y_b, [-1.0]) and abs(sigma - 1.0) <= 1e-12

    def test_traceless_constraint_gives_none(self):
        p = SdpProblem.from_constraints((2,), None, [(BlockMatrix([SIGMA_Z]), 0.0)])
        assert p.constraint_set._start[2] == ()

    def test_shifted_stop_at_iteration_one(self, monkeypatch):
        from qmemwit import detect, ising

        problem = detect._Dps2Template((2, 2, 2)).problem(ising.process_matrix(1.3, 0.7, 1.0))
        r = sdp.solve(problem)
        assert r.status == sdp.INFEASIBLE
        assert r.info["iterations"] == 1
        assert abs(float(problem.b @ r.y) - 1.0) <= 1e-12
        shift = r.info["certificate_shift"]
        assert len(shift) == 3 and all(t > 0 for t in shift)
        rep = sdp.verify(problem, r)
        assert rep.ok, str(rep)
        assert rep.checks["certificate_psd"][1] >= 0
        assert json.loads(json.dumps(sdp.result_to_json(r)))["info"]["certificate_shift"] == shift

        without_block_shifts(monkeypatch)
        plain = sdp.solve(fresh(problem))
        assert plain.status == sdp.INFEASIBLE
        assert plain.info["iterations"] >= 2
        assert "certificate_shift" not in plain.info
        assert sdp.verify(problem, plain).ok

    def test_shift_that_loses_b_dot_y_is_refused(self, monkeypatch):
        from qmemwit import cli, detect, ising

        # at this grid point the iteration-3 shift uses up all but 0.8% of
        # b.y_hat = 1, and rescaling by 1/b.y' leaves b.y = 1 - 1.1e-11
        grid = cli.Range(0.0, 10.0, 151).values(stride=5)
        w = ising.process_matrix(grid[23], grid[1], 1.0)
        problem = detect._Dps2Template((2, 2, 2)).problem(w)
        r = sdp.solve(problem)
        assert r.status == sdp.INFEASIBLE
        assert r.info["iterations"] == 4 and "certificate_shift" not in r.info
        assert abs(float(problem.b @ r.y) - 1.0) <= sdp.SHIFT_NORM_TOL

        monkeypatch.setattr(sdp, "SHIFT_NORM_TOL", np.inf)
        loose = sdp.solve(fresh(problem))
        assert loose.info["iterations"] == 3 and "certificate_shift" in loose.info
        assert abs(float(problem.b @ loose.y) - 1.0) > 1e-12


class TestAdjoint:
    """ConstraintSet.adjoint, read from the stacks, against ConstraintSet._a_adj, the CSR path."""

    @staticmethod
    def assert_matches(ops, seed):
        y = np.random.default_rng(seed).standard_normal(ops.m)
        ref = ops._a_adj(y)
        got = ops.adjoint(y).blocks
        scale = max(np.max(np.abs(r)) for r in ref)
        assert scale > 0
        for g, r in zip(got, ref):
            assert np.max(np.abs(g - r)) <= 1e-12 * scale

    def test_dps2_template(self):
        from qmemwit import detect

        self.assert_matches(detect._dps2_template((2, 2, 2)).constraint_set, 61)

    def test_block_without_data(self):
        ops = random_problem(np.random.default_rng(67)).constraint_set
        assert not np.any(ops.stacks[2])
        self.assert_matches(ops, 71)
        assert not np.any(ops.adjoint(np.ones(ops.m)).blocks[2])

    @pytest.mark.parametrize("case", ["dps2_template", "rows_not_contiguous"])
    def test_sparse_maps_are_adjoint(self, case):
        # <A(X), y> = <X, A*(y)> for Hermitian X, both through the set's CSR maps
        from qmemwit import detect

        rng = np.random.default_rng(73)
        if case == "dps2_template":
            ops = detect._dps2_template((2, 2, 2)).constraint_set
        else:
            dims, m = (3, 4, 2), 7
            stacks = [np.stack([herm(rng, d) for _ in range(m)]) for d in dims]
            stacks[1][[1, 3, 4]] = 0.0      # block 1 carries rows 0, 2, 5 and 6
            stacks[2][:] = 0.0              # block 2 carries none
            ops = sdp.ConstraintSet(dims, stacks)
            assert not np.any(ops._a_adj(np.ones(ops.m))[2])
        x = [herm(rng, d) for d in ops.block_dims]
        y = rng.standard_normal(ops.m)
        ax = ops._a_of(x)
        lhs = float(ax @ y)
        rhs = sum(sdp._dot(xb, ab) for xb, ab in zip(x, ops._a_adj(y)))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(ax) * np.linalg.norm(y)


class TestEntries:
    """ConstraintSet.apply and .adjoint, summed over the stacks' nonzero entries,
    against einsum and tensordot over the dense stacks."""

    @staticmethod
    def pairs(ops, seed):
        """(entry-based, dense) pairs of A(X) and of each block of A*(y), for
        five random Hermitian X and real y."""
        rng = np.random.default_rng(seed)
        for _ in range(5):
            x = [herm(rng, d) for d in ops.block_dims]
            y = rng.standard_normal(ops.m)
            ax = sum(np.einsum("kij,ij->k", s, xb.conj()).real for s, xb in zip(ops.stacks, x))
            aty = [np.tensordot(y, s, axes=(0, 0)) for s in ops.stacks]
            yield [(ops.apply(BlockMatrix(x)), ax), *zip(ops.adjoint(y).blocks, aty)]

    def assert_close(self, ops, seed):
        for pairs in self.pairs(ops, seed):
            (got_ax, ax), *blocks = pairs
            assert np.max(np.abs(got_ax - ax)) <= 1e-15 * np.max(np.abs(ax))
            scale = max(np.max(np.abs(want)) for _, want in blocks)
            assert all(np.max(np.abs(got - want)) <= 1e-15 * scale for got, want in blocks)

    def test_dps2_template_bitwise(self):
        from qmemwit import detect

        ops = detect._dps2_template((2, 2, 2)).constraint_set
        for pairs in self.pairs(ops, 83):
            assert all(got.tobytes() == want.tobytes() for got, want in pairs)

    def test_block_without_data(self):
        ops = random_problem(np.random.default_rng(67)).constraint_set
        assert ops._entries[2][0].size == 0
        self.assert_close(ops, 89)

    def test_rows_not_contiguous(self):
        rng = np.random.default_rng(97)
        dims, m = (3, 4, 2), 7
        stacks = [np.stack([herm(rng, d) for _ in range(m)]) for d in dims]
        stacks[1][[1, 3, 4]] = 0.0      # block 1 carries rows 0, 2, 5 and 6
        stacks[2][:] = 0.0              # block 2 carries none
        ops = sdp.ConstraintSet(dims, stacks)
        assert sorted(set(ops._entries[1][0])) == [0, 2, 5, 6]
        self.assert_close(ops, 101)

    def test_entries_are_the_stacks_nonzeros_read_only(self):
        ops = random_problem(np.random.default_rng(103)).constraint_set
        for (k, i, j, values), stack in zip(ops._entries, ops.stacks):
            rebuilt = np.zeros_like(stack)
            rebuilt[k, i, j] = values
            assert np.array_equal(rebuilt, stack) and np.all(values != 0)
            with pytest.raises(ValueError):
                values[:1] = 1.0
        assert ops._entries is ops._entries


class TestEigOracle:
    def test_fifty_random_instances(self):
        # cross-module oracle: optimum of max -Tr(MX) is -lambda_min(M)
        from qmemwit import tensorlinalg as tl

        rng = np.random.default_rng(7)
        for k in range(50):
            n = int(rng.integers(2, 17))
            m = herm(rng, n)
            r = sdp.solve(min_eig_problem(m))
            assert r.status == sdp.OPTIMAL
            lam, _ = tl.herm_eig(m)
            assert abs(r.objective_value - lam[0]) <= 1e-6

    def test_scaling_covariance(self):
        rng = np.random.default_rng(5)
        m = herm(rng, 5)
        # make the minimal eigenvalue simple so the optimizer is unique
        r1 = sdp.solve(min_eig_problem(m))
        r2 = sdp.solve(min_eig_problem(3.0 * m))
        assert abs(r2.objective_value - 3.0 * r1.objective_value) <= 1e-6 * (
            1 + abs(r1.objective_value)
        )
        x1, x2 = r1.x.blocks[0], r2.x.blocks[0]
        assert np.max(np.abs(x1 - x2)) <= 1e-5


def random_feasible_problems(seed, count):
    """Objective SDPs on one block of side 2..8 with Tr X and up to three more
    constraints, all met by a random PD x0."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        n_extra = int(rng.integers(0, 4))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x0 = g @ g.conj().T / n
        cons = [(eye_bm(n), float(np.trace(x0).real))]
        for _ in range(n_extra):
            a = herm(rng, n)
            cons.append((BlockMatrix([a]), float(np.sum(a.conj() * x0).real)))
        yield SdpProblem.from_constraints((n,), BlockMatrix([herm(rng, n)]), cons)


class TestRandomFeasible:
    def test_verify_passes_on_optimal_results(self):
        for p in random_feasible_problems(11, 12):
            r = sdp.solve(p)
            assert r.status == sdp.OPTIMAL, r.info
            rep = sdp.verify(p, r)
            assert rep.ok, str(rep)

    def test_case_that_overflowed_converges(self):
        # case 8 (n = 7, two extra constraints), whose corrector direction
        # overflowed when the Lyapunov solve ran in an eigenbasis of the
        # scaled point, converges with no breakdown in the diagonal frame
        p = list(random_feasible_problems(11, 9))[8]
        assert p.block_dims == (7,) and p.constraint_set.m == 3
        r = sdp.solve(p)
        assert r.status == sdp.OPTIMAL
        assert "reason" not in r.info
        assert sdp.verify(p, r).ok

    @staticmethod
    def cho_solve_huge_from(monkeypatch, first_call):
        """Patch scipy.linalg.cho_solve to return 1e308 from its first_call-th call."""
        import scipy.linalg

        cho_solve = scipy.linalg.cho_solve
        calls = [0]

        def huge(*args, **kwargs):
            calls[0] += 1
            out = cho_solve(*args, **kwargs)
            return np.full_like(out, 1e308) if calls[0] >= first_call else out

        monkeypatch.setattr(scipy.linalg, "cho_solve", huge)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_direction_is_rejected_quietly(self, monkeypatch):
        # from its 17th call (iteration 8's v_dir and predictor u) every
        # Cholesky solve returns 1e308: the direction overflows, _finite
        # rejects it without a warning and the incumbent is optimal.  The
        # set's start state, with its own solve, is computed before the count
        p = list(random_feasible_problems(11, 9))[8]
        p.constraint_set._start
        self.cho_solve_huge_from(monkeypatch, 17)
        r = sdp.solve(p)
        assert r.info["iterations"] == 8
        assert r.status == sdp.OPTIMAL
        assert r.info["reason"] == "non-finite Newton direction"
        assert sdp.verify(p, r).ok

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_schur_pieces_are_rejected_quietly(self, monkeypatch):
        # the 3rd call is iteration 1's v_dir and predictor u: v_dir and
        # denom = (b - g).v_dir overflow before either pass, and the direction
        # is rejected as above
        p = list(random_feasible_problems(11, 9))[8]
        p.constraint_set._start
        self.cho_solve_huge_from(monkeypatch, 3)
        r = sdp.solve(p)
        assert r.info["iterations"] == 1
        assert r.info["reason"] == "non-finite Newton direction"

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        m = herm(rng, 6)
        p = min_eig_problem(m)
        r1, r2 = sdp.solve(p), sdp.solve(p)
        assert r1.objective_value == r2.objective_value
        assert np.array_equal(r1.x.blocks[0], r2.x.blocks[0])
        assert np.array_equal(r1.y, r2.y)

    def test_multiblock(self):
        rng = np.random.default_rng(17)
        a, b = herm(rng, 3), herm(rng, 2)
        c = BlockMatrix([a, b])
        ident = BlockMatrix([np.eye(3, dtype=complex), np.zeros((2, 2), dtype=complex)])
        ident2 = BlockMatrix([np.zeros((3, 3), dtype=complex), np.eye(2, dtype=complex)])
        p = SdpProblem.from_constraints((3, 2), c, [(ident, 1.0), (ident2, 1.0)])
        r = sdp.solve(p)
        assert r.status == sdp.OPTIMAL
        expected = np.linalg.eigvalsh(a)[0] + np.linalg.eigvalsh(b)[0]
        assert abs(r.objective_value - expected) <= 1e-6
        assert sdp.verify(p, r).ok


class TestVerify:
    def test_tampered_solution_fails(self):
        rng = np.random.default_rng(19)
        p = min_eig_problem(herm(rng, 4))
        r = sdp.solve(p)
        bad_x = BlockMatrix([r.x.blocks[0] * 1.1])
        tampered = sdp.SdpResult(sdp.OPTIMAL, bad_x, r.y, r.objective_value)
        rep = sdp.verify(p, tampered)
        assert not rep.ok
        assert not rep.checks["primal_residual"][0]

    @pytest.mark.parametrize("sigma", [SIGMA_Z, SIGMA_Y], ids=["sigma_z", "sigma_y"])
    def test_tampered_certificate_fails(self, sigma):
        p = bounded_functional_problem(sigma)
        r = sdp.solve(p)
        rep = sdp.verify(p, sdp.SdpResult(sdp.INFEASIBLE, None, -r.y, np.inf))
        assert not rep.ok

    def test_certificate_with_indefinite_s_fails_psd_alone(self):
        # Tr(sigma_x X) = 0 adds a row with b_k = 0: moving y along it keeps
        # b.y = 1 but subtracts a multiple of sigma_x from S = -A*(y)
        sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
        p = SdpProblem.from_constraints(
            (2,), None,
            [(eye_bm(2), 1.0), (BlockMatrix([SIGMA_Z]), 3.0), (BlockMatrix([sigma_x]), 0.0)],
        )
        r = sdp.solve(p)
        assert r.status == sdp.INFEASIBLE and sdp.verify(p, r).ok
        y = r.y + np.array([0.0, 0.0, 10.0])
        rep = sdp.verify(p, sdp.SdpResult(sdp.INFEASIBLE, None, y, np.inf))
        assert abs(float(p.b @ y) - 1.0) <= 1e-12
        assert {name: passed for name, (passed, _, _) in rep.checks.items()} == {
            "certificate_psd": False,
            "certificate_improving": True,
        }

    def test_weak_duality_holds(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            p = min_eig_problem(herm(rng, 5))
            r = sdp.solve(p)
            pobj = r.objective_value
            dobj = float(p.b @ r.y)
            assert dobj <= pobj + 1e-7 * (1 + abs(pobj))


class TestSerialization:
    @staticmethod
    def roundtrip(p):
        return sdp.problem_from_json(json.loads(json.dumps(sdp.problem_to_json(p))))

    def test_problem_roundtrip(self):
        from qmemwit import detect, ising

        rng = np.random.default_rng(29)
        w = ising.process_matrix(1.0, 1.0, 1.0)
        problems = [
            random_problem(rng),
            detect.witness_sdp(w, swap_symmetric=True).sdp_run[0],
            detect._dps2_template(w.dims).problem(w),
        ]
        for p in problems:
            q = self.roundtrip(p)
            assert q.block_dims == p.block_dims
            assert np.array_equal(q.b, p.b)
            assert (q.objective is None) == (p.objective is None)
            if p.objective is not None:
                for got, want in zip(q.objective.blocks, p.objective.blocks):
                    assert np.array_equal(got, want)
            assert len(q.constraint_set.stacks) == len(p.constraint_set.stacks)
            for got, want in zip(q.constraint_set.stacks, p.constraint_set.stacks):
                assert np.array_equal(got, want)
        p = min_eig_problem(herm(rng, 3))
        r_p, r_q = sdp.solve(p), sdp.solve(self.roundtrip(p))
        assert r_p.objective_value == r_q.objective_value

    @staticmethod
    def witness_dump():
        from qmemwit import detect, ising

        problem = detect.witness_sdp(ising.process_matrix(1.0, 1.0, 1.0)).sdp_run[0]
        return json.loads(json.dumps(sdp.problem_to_json(problem)))

    def test_extra_constraint_entries_rejected(self):
        data = self.witness_dump()
        assert len(data["blocks"]) == 1
        data["constraints"] = data["constraints"] * 2
        with pytest.raises(ValueError, match="2 constraint entries for 1 blocks"):
            sdp.problem_from_json(data)

    def test_constraint_index_out_of_range_rejected(self):
        data = self.witness_dump()
        data["constraints"][0]["k"][-1] = len(data["b"])
        with pytest.raises(ValueError, match="index k outside"):
            sdp.problem_from_json(data)

    def test_negative_constraint_index_rejected(self):
        data = self.witness_dump()
        data["constraints"][0]["j"][0] = -1
        with pytest.raises(ValueError, match="index j outside"):
            sdp.problem_from_json(data)

    def test_non_integer_constraint_index_rejected(self):
        # read as 1 by an integer cast
        data = self.witness_dump()
        data["constraints"][0]["i"][0] = 1.7
        with pytest.raises(ValueError, match="index i is not an integer"):
            sdp.problem_from_json(data)

    def test_repeated_constraint_entry_rejected(self):
        # read with its last value, A_0[0, 0] = 5, by an indexed assignment
        data = self.witness_dump()
        entries = data["constraints"][0]
        for key in ("k", "i", "j", "im"):
            entries[key].append(entries[key][0])
        entries["re"].append(5.0)
        with pytest.raises(ValueError, match="listed twice"):
            sdp.problem_from_json(data)

    def test_short_value_list_rejected(self):
        # one value would be broadcast to every entry of the block
        data = self.witness_dump()
        data["constraints"][0]["re"] = [5.0]
        with pytest.raises(ValueError, match="differ in length"):
            sdp.problem_from_json(data)

    def test_non_hermitian_objective_in_dump_rejected(self):
        # a non-Hermitian objective would run the solve to max_iterations
        data = self.witness_dump()
        data["objective"][0]["re"][0][1] += 0.5
        with pytest.raises(ValueError, match="objective is not Hermitian"):
            sdp.problem_from_json(data)

    def test_result_serializes(self):
        rng = np.random.default_rng(31)
        p = min_eig_problem(herm(rng, 3))
        r = sdp.solve(p)
        data = sdp.result_to_json(r)
        assert data["status"] == sdp.OPTIMAL
        assert len(data["y"]) == 1

    def test_trajectory_has_a_row_per_iteration_entered(self, monkeypatch):
        rng = np.random.default_rng(37)
        problems = [min_eig_problem(herm(rng, 3)), bounded_functional_problem(SIGMA_Z)]
        results = [sdp.solve(p) for p in problems]
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
        results.append(sdp.solve(problems[0]))
        assert [r.status for r in results] == [sdp.OPTIMAL, sdp.INFEASIBLE, sdp.MAX_ITER]
        for r in results:
            trajectory = r.info["trajectory"]
            assert len(trajectory) == r.info["iterations"] + 1
            assert [row[0] for row in trajectory] == list(range(len(trajectory)))
            assert all(len(row) == 7 for row in trajectory)
        data = json.loads(json.dumps(sdp.result_to_json(results[0])))
        assert data["info"]["trajectory"] == [list(row) for row in results[0].info["trajectory"]]
