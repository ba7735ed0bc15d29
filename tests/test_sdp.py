import json

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
        with pytest.raises(ValueError):
            BlockMatrix([np.array([[0, 1], [0, 0]], dtype=complex)])

    def test_non_hermitian_constraint_rejected(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            SdpProblem.from_constraints(
                (2,), None, [(BlockMatrix([bad], require_hermitian=False), 0.0)]
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
        BlockMatrix([big])
        sdp.ConstraintSet((8,), [big[None]])
        w = ising.process_matrix(1.0, 1.0, 1.0)
        a_op = tl.TensorOperator(w.op.space, big)
        report = detect.witness_sdp(w, constraints=[(a_op, np.trace(big).real / 8)])
        assert report.diagnostics["solver_status"] is not None

        bad = big.copy()
        bad[0, 1] += 1e-3 * scale
        with pytest.raises(ValueError):
            BlockMatrix([bad])
        with pytest.raises(ValueError):
            sdp.ConstraintSet((8,), [bad[None]])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SdpProblem.from_constraints((3,), None, [(eye_bm(2), 1.0)])

    def test_too_many_constraints_rejected(self):
        cons = [(eye_bm(2), 1.0)] * 5
        with pytest.raises(ValueError):
            SdpProblem.from_constraints((2,), None, cons)


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
        # from its 20th call (iteration 6) every Cholesky solve returns NaNs;
        # at n = 4 the incumbent already meets the result contract, at n = 8 not
        import scipy.linalg

        cho_solve = scipy.linalg.cho_solve
        calls = [0]

        def nan_from_20th_call(*args, **kwargs):
            calls[0] += 1
            out = cho_solve(*args, **kwargs)
            return np.full_like(out, np.nan) if calls[0] >= 20 else out

        monkeypatch.setattr(scipy.linalg, "cho_solve", nan_from_20th_call)
        p = min_eig_problem(herm(np.random.default_rng(0), n))
        r = sdp.solve(p)
        assert r.status == expected
        assert r.info["reason"] == "non-finite Newton direction"
        assert sdp.verify(p, r).ok == (r.status == sdp.OPTIMAL)

    def test_iteration_cap_reported(self):
        rng = np.random.default_rng(0)
        p = min_eig_problem(herm(rng, 6))
        r = sdp.solve(p, max_iterations=1)
        assert r.status in (sdp.MAX_ITER, sdp.FAILURE)
        assert r.x is None


class TestMaxStep:
    def test_eigen_fallback_when_cholesky_fails(self):
        # x = Q diag(-1e-17, 1, 2, 3) Q^H has no Cholesky factor; x + a dx >= 0
        # holds up to a = 2, where the v1 eigenvalue 1 - a/2 reaches zero
        rng = np.random.default_rng(0)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(g)
        x = sdp._sym(q @ np.diag([-1e-17, 1.0, 2.0, 3.0]) @ q.conj().T)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(x)
        v0, v1 = q[:, 0], q[:, 1]
        dx = np.outer(v0, v0.conj()) - np.outer(v1, v1.conj()) / 2
        assert abs(sdp._max_step(x, dx) - 2.0) <= 1e-9


def random_pd(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return sdp._sym(g @ g.conj().T / d + np.eye(d))


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
        assert not isinstance(indices[1][0], slice)
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
    return SdpProblem(
        problem.block_dims, problem.objective,
        sdp.ConstraintSet(ops.block_dims, ops.stacks), problem.b,
    )


class TestStartFactor:
    """The Schur factor at W = I, cached per ConstraintSet for every solve's iteration 0."""

    def test_is_the_factor_of_the_identity_assembly(self):
        from qmemwit import detect

        for ops in (
            detect._dps2_template((2, 2, 2)).constraint_set,
            random_problem(np.random.default_rng(73)).constraint_set,
        ):
            factor = ops._start_factor
            ref = sdp._factor(ops._schur(identity_blocks(ops)))
            assert factor[1] == ref[1]
            assert factor[0].tobytes() == ref[0].tobytes()
            assert not factor[0].flags.writeable
            assert ops._start_factor is factor
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
        gram = ops._schur(identity_blocks(ops)).copy()    # _start_factor assembles again
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
        factor = ops._start_factor
        assert factor is not None
        assert factor[0].tobytes() == sdp._factor(gram)[0].tobytes()
        for problem in problems + problems:
            r = sdp.solve(problem)
            assert r.status == sdp.OPTIMAL
            assert_same_solve(r, sdp.solve(fresh(problem)))
        assert ops._start_factor is factor

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


class TestAdjoint:
    """ConstraintSet.adjoint, read from the stacks, against _Core.a_adj, the CSR path."""

    @staticmethod
    def assert_matches(ops, seed):
        y = np.random.default_rng(seed).standard_normal(ops.m)
        c = [np.zeros((d, d), dtype=complex) for d in ops.block_dims]
        ref = sdp._Core(c, ops, np.zeros(ops.m)).a_adj(y)
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


class TestRandomFeasible:
    def test_verify_passes_on_optimal_results(self):
        rng = np.random.default_rng(11)
        for k in range(12):
            n = int(rng.integers(2, 9))
            n_extra = int(rng.integers(0, 4))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            x0 = g @ g.conj().T / n
            cons = [(eye_bm(n), float(np.trace(x0).real))]
            for _ in range(n_extra):
                a = herm(rng, n)
                cons.append((BlockMatrix([a]), float(np.sum(a.conj() * x0).real)))
            p = SdpProblem.from_constraints((n,), BlockMatrix([herm(rng, n)]), cons)
            r = sdp.solve(p)
            assert r.status == sdp.OPTIMAL, r.info
            rep = sdp.verify(p, r)
            assert rep.ok, str(rep)

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
        bad_x = BlockMatrix([r.x.blocks[0] * 1.1], require_hermitian=False)
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

    def test_result_serializes(self):
        rng = np.random.default_rng(31)
        p = min_eig_problem(herm(rng, 3))
        r = sdp.solve(p)
        data = sdp.result_to_json(r)
        assert data["status"] == sdp.OPTIMAL
        assert len(data["y"]) == 1

    def test_trajectory_has_a_row_per_iteration_entered(self):
        rng = np.random.default_rng(37)
        problems = [min_eig_problem(herm(rng, 3)), bounded_functional_problem(SIGMA_Z)]
        results = [sdp.solve(p) for p in problems] + [sdp.solve(problems[0], max_iterations=2)]
        assert [r.status for r in results] == [sdp.OPTIMAL, sdp.INFEASIBLE, sdp.MAX_ITER]
        for r in results:
            trajectory = r.info["trajectory"]
            assert len(trajectory) == r.info["iterations"] + 1
            assert [row[0] for row in trajectory] == list(range(len(trajectory)))
            assert all(len(row) == 7 for row in trajectory)
        data = json.loads(json.dumps(sdp.result_to_json(results[0])))
        assert data["info"]["trajectory"] == [list(row) for row in results[0].info["trajectory"]]
