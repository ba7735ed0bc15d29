import concurrent.futures
import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from qmemwit import detect, ising, sdp
from qmemwit import process as pr
from qmemwit import tensorlinalg as tl

from tests.test_ising import PPT_MIN_EIG_111


@pytest.fixture(scope="module")
def w111():
    return ising.process_matrix(1.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def w_pi0():
    return ising.process_matrix(math.pi, 0.0, 1.0)


class TestPptMinEig:
    def test_classical_processes_nonnegative(self):
        for seed in range(40):
            w = pr.classical_memory_process(pr.random_classical_memory(seed, 2))
            assert detect.ppt_min_eig(w) >= -1e-10

    def test_frozen_fixture(self, w111):
        assert abs(detect.ppt_min_eig(w111) - PPT_MIN_EIG_111) <= 1e-12

    def test_markovian_point(self, w_pi0):
        assert detect.ppt_min_eig(w_pi0) >= -1e-10


class TestPptWitness:
    def test_detects_quantum_memory(self, w111):
        report = detect.ppt_witness(w111)
        assert report.verdict == detect.VERDICT_QUANTUM
        assert report.witness is not None
        assert abs(report.value - PPT_MIN_EIG_111) <= 1e-9
        # value really is Tr(ZW)
        got = np.trace(report.witness.mat @ w111.op.mat).real
        assert abs(got - report.value) <= 1e-12

    @pytest.mark.parametrize("J", [0.5, 1.0, math.pi, 7.7])
    def test_h0_inconclusive(self, J):
        report = detect.ppt_witness(ising.process_matrix(J, 0.0, 1.0))
        assert report.verdict == detect.VERDICT_INCONCLUSIVE
        assert report.witness is None

    def test_nonnegative_on_product_terms(self, w111):
        # Eq.-(6)-style inequality: Tr(Z (rho x T)) >= 0 for product processes
        z = detect.ppt_witness(w111).witness
        rng = np.random.default_rng(7)
        worst = np.inf
        for _ in range(1000):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            sample = pr.random_classical_memory(int(rng.integers(2**31)), 1)
            channel = sample.terms[0][2]
            w_prod = tl.kron(tl.operator([(pr.A_I, 2)], rho), channel.op)
            worst = min(worst, np.trace(z.mat @ tl.reorder(w_prod, z.labels).mat).real)
        assert worst >= -1e-10

    def test_deterministic_eigenvector_phase(self, w111):
        a = detect.ppt_witness(w111).witness
        b = detect.ppt_witness(w111).witness
        assert np.array_equal(a.mat, b.mat)


class TestWitnessSdp:
    def test_matches_eigen_route(self, w111):
        report = detect.witness_sdp(w111)
        assert report.verdict == detect.VERDICT_QUANTUM
        assert abs(report.diagnostics["optimum"] + PPT_MIN_EIG_111) <= 1e-6
        assert report.diagnostics["verified"]

    def test_markovian_point_no_violation(self, w_pi0):
        report = detect.witness_sdp(w_pi0)
        assert report.verdict == detect.VERDICT_INCONCLUSIVE
        assert report.diagnostics["optimum"] <= 1e-7

    def test_swap_constraint_shrinks_optimum(self, w111):
        free = detect.witness_sdp(w111)
        swapped = detect.witness_sdp(w111, swap_symmetric=True)
        assert swapped.diagnostics["optimum"] <= free.diagnostics["optimum"] + 1e-8
        # the constrained optimizer really is swap symmetric
        z = swapped.witness
        perm = detect._station_swap_permutation(z.space)
        zt = tl.partial_transpose(z, {pr.A_I}).mat  # SDP variable Z
        assert np.max(np.abs(zt[np.ix_(perm, perm)] - zt)) <= 1e-7

    def test_unrestricted_calls_share_the_trace_constraint_set(self, w111, w_pi0):
        from tests.test_sdp import assert_same_solve, fresh

        reports = [
            detect.witness_sdp(w, swap_symmetric=swap)
            for w in (w111, w_pi0)
            for swap in (False, True)
        ]
        sets = {id(r.sdp_run[0].constraint_set) for r in reports}
        assert len(sets) == 1
        ops = reports[0].sdp_run[0].constraint_set
        assert ops.block_dims == (8,) and np.array_equal(ops.stacks[0], np.eye(8)[None])
        restricted = detect.witness_sdp(w111, constraints=[(self.sigma_z_on_a_i(), 0.0)])
        assert restricted.sdp_run[0].constraint_set is not ops
        for problem, result in (r.sdp_run for r in reports):
            assert_same_solve(result, sdp.solve(fresh(problem)))

    @staticmethod
    def sigma_z_on_a_i():
        return tl.operator(
            [(pr.A_I, 2), (pr.A_O, 2), (pr.B_I, 2)],
            np.kron(np.kron(tl.PAULI_Z, np.eye(2)), np.eye(2)),
        )

    def test_extra_linear_restriction(self, w111):
        # forbid any weight on the sigma_z x 1 x 1 direction
        a = self.sigma_z_on_a_i()
        report = detect.witness_sdp(w111, constraints=[(a, 0.0)])
        assert report.diagnostics["verified"]
        z_var = tl.partial_transpose(report.witness, {pr.A_I})
        assert abs(np.trace(a.mat @ z_var.mat).real) <= 1e-7

    def test_swap_with_linear_restriction(self, w111):
        a = self.sigma_z_on_a_i()
        both = detect.witness_sdp(w111, constraints=[(a, 0.1)], swap_symmetric=True)
        assert both.diagnostics["verified"]
        assert both.sdp_run[0].constraint_set.m == 2
        z_var = tl.partial_transpose(both.witness, {pr.A_I}).mat
        perm = detect._station_swap_permutation(both.witness.space)
        assert np.max(np.abs(z_var[np.ix_(perm, perm)] - z_var)) <= 1e-7
        assert abs(np.trace(a.mat @ z_var).real - 0.1) <= 1e-7
        for single in (
            detect.witness_sdp(w111, constraints=[(a, 0.1)]),
            detect.witness_sdp(w111, swap_symmetric=True),
        ):
            assert both.diagnostics["optimum"] <= single.diagnostics["optimum"] + 1e-8

    def test_independent_of_blas_threads(self):
        """The plain and swap-restricted solves at four points take the same
        path, bit for bit, at one and at two OpenBLAS threads.

        ``dps2`` is left out: its m = 672 Schur assembly and factorization
        round differently with two threads, and so do its trajectories.
        """
        script = textwrap.dedent(
            """
            import hashlib
            import numpy as np
            from qmemwit import detect, ising
            digest = hashlib.sha1()
            for j, h in ((1.0, 1.0), (1.3, 0.7), (4.5, 0.0), (7.2, 3.9)):
                w = ising.process_matrix(j, h, 1.0)
                for swap in (False, True):
                    r = detect.witness_sdp(w, swap_symmetric=swap).sdp_run[1]
                    digest.update(np.asarray(r.info["trajectory"], dtype=np.float64).tobytes())
                    digest.update(np.asarray(r.y, dtype=np.float64).tobytes())
            print(digest.hexdigest())
            """
        )
        src = str(pathlib.Path(detect.__file__).parents[1])
        digests = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src},
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert len(digests[0]) == 41 and digests[0] == digests[1]

    def test_duality_on_random_points(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            j, h = rng.uniform(0.4, 8.0, 2)
            w = ising.process_matrix(j, h, 1.0)
            report = detect.witness_sdp(w)
            assert abs(report.diagnostics["optimum"] + detect.ppt_min_eig(w)) <= 1e-6


class TestDps2:
    def test_infeasible_at_generic_point(self, w111):
        report = detect.dps2_feasibility(w111)
        assert report.verdict == detect.VERDICT_QUANTUM
        assert report.diagnostics["verified"]
        assert report.value < -detect.tol_detect(w111)

    @pytest.mark.parametrize("J", [0.5, 2.3])
    def test_feasible_on_h0_line(self, J):
        report = detect.dps2_feasibility(ising.process_matrix(J, 0.0, 1.0))
        assert report.verdict == detect.VERDICT_INCONCLUSIVE
        assert report.diagnostics["solver_status"] == "optimal"
        assert report.diagnostics["verified"]

    @pytest.mark.parametrize("h", [0.0, 0.7, 3.3, 10.0])
    def test_markovian_column_ends_at_the_start_projection(self, h):
        # at J = 0 rho has full rank, and the projection of I onto the
        # extension's affine set is already a positive-definite extension
        report = detect.dps2_feasibility(ising.process_matrix(0.0, h, 1.0))
        problem, result = report.sdp_run
        assert report.verdict == detect.VERDICT_INCONCLUSIVE
        assert report.diagnostics["solver_status"] == sdp.OPTIMAL
        assert report.diagnostics["verified"]
        assert report.diagnostics["iterations"] == 0
        assert result.info["stop"] == "start_projection"
        assert not result.y.any()
        ax = sum(
            np.einsum("kij,ij->k", stack, x.conj()).real
            for stack, x in zip(problem.constraint_set.stacks, result.x.blocks)
        )
        assert np.linalg.norm(ax - problem.b) <= sdp.FEAS_TOL
        assert all(np.linalg.eigvalsh(x)[0] > 0 for x in result.x.blocks)

    def test_h0_point_still_iterates(self):
        report = detect.dps2_feasibility(ising.process_matrix(1.3, 0.0, 1.0))
        result = report.sdp_run[1]
        assert report.diagnostics["solver_status"] == sdp.OPTIMAL
        assert report.diagnostics["verified"]
        assert result.info["iterations"] >= 2
        assert "stop" not in result.info

    def test_start_projection_stop_needs_a_feasible_extension_and_no_objective(self, w111):
        # the witness SDP at J = 0 has a PD projection of I, Tr Z = 1 gives I/8,
        # but an objective; (1, 1, 1) has no extension
        reports = [
            detect.witness_sdp(ising.process_matrix(0.0, 0.7, 1.0)),
            detect.witness_sdp(w111, swap_symmetric=True),
            detect.dps2_feasibility(w111),
        ]
        assert [r.sdp_run[1].status for r in reports] == [sdp.OPTIMAL, sdp.OPTIMAL, sdp.INFEASIBLE]
        for report in reports:
            assert report.diagnostics["iterations"] >= 1
            assert "stop" not in report.sdp_run[1].info

    def test_threads_share_the_template(self):
        # every thread solves on the one cached ConstraintSet, which holds
        # only read-only data; each solve takes its own Schur buffers, so
        # threads give the serial results
        grid = [k / 3 for k in range(1, 9)]
        points = [(j, 0.0) for j in grid] + [(1.0, 1.0), (2.0, 1.0), (1.0, 2.5), (3.0, 3.0)]
        ws = [ising.process_matrix(j, h, 1.0) for j, h in points]

        def outcome(report):
            d = report.diagnostics
            y = report.sdp_run[1].y.tobytes()
            return report.verdict, d["solver_status"], d["verified"], d["iterations"], y

        serial = [outcome(detect.dps2_feasibility(w)) for w in ws]
        assert [o[1] for o in serial] == [sdp.OPTIMAL] * 8 + [sdp.INFEASIBLE] * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                threaded = [outcome(r) for r in pool.map(detect.dps2_feasibility, ws, timeout=120)]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_feasible_on_random_classical(self):
        # separable states always admit symmetric extensions
        for seed in range(100):
            w = pr.classical_memory_process(pr.random_classical_memory(seed, 1 + seed % 3))
            report = detect.dps2_feasibility(w)
            assert report.verdict == detect.VERDICT_INCONCLUSIVE, (seed, report.diagnostics)
            assert report.diagnostics["solver_status"] == "optimal"

    def test_hierarchy_at_least_as_strong_as_ppt(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            j, h = rng.uniform(0.3, 9.0, 2)
            w = ising.process_matrix(j, h, 1.0)
            if detect.ppt_min_eig(w) < -1e-6:
                report = detect.dps2_feasibility(w)
                assert report.verdict == detect.VERDICT_QUANTUM


class TestSdpRun:
    def test_reports_carry_the_verified_solve(self, w111, w_pi0):
        reports = [
            detect.witness_sdp(w111),
            detect.dps2_feasibility(w111),
            detect.dps2_feasibility(w_pi0),
        ]
        assert [r.sdp_run[1].status for r in reports] == [sdp.OPTIMAL, sdp.INFEASIBLE, sdp.OPTIMAL]
        for report in reports:
            assert sdp.verify(*report.sdp_run).ok
            assert report.sdp_run[1].info["iterations"] == report.diagnostics["iterations"]
        assert detect.ppt_witness(w111).sdp_run is None


class TestDps2Witness:
    def test_negative_on_target_state(self, w111):
        report = detect.dps2_feasibility(w111)
        rho = w111.op.mat / np.trace(w111.op.mat).real
        assert np.trace(report.witness.mat @ rho).real < -1e-3

    def test_validated_against_classical_samples(self, w111):
        report = detect.dps2_feasibility(w111)
        validation = detect.validate_witness(report.witness, 1000, seed=5)
        assert validation.min_value >= -1e-9
        assert not validation.failures

    def test_no_witness_without_certificate(self, w_pi0):
        report = detect.dps2_feasibility(w_pi0)
        assert report.diagnostics["solver_status"] == sdp.OPTIMAL
        assert report.verdict == detect.VERDICT_INCONCLUSIVE
        assert report.witness is None
        assert "certificate_min_eig" not in report.diagnostics

    def test_nonnegative_witness_value_is_inconclusive(self, w111, monkeypatch):
        # with a tolerance above |Tr(Z W)|, the mapped value is not below -tol
        monkeypatch.setattr(detect, "tol_detect", lambda w: 1e3)
        report = detect.dps2_feasibility(w111)
        assert report.diagnostics["solver_status"] == sdp.INFEASIBLE
        assert report.diagnostics["verified"]
        assert report.diagnostics["certificate_min_eig"] >= 0
        assert report.verdict == detect.VERDICT_INCONCLUSIVE
        assert report.witness is None
        assert "is not below" in report.diagnostics["reason"]

    def test_negative_margin_withholds_the_verdict(self, w111, monkeypatch):
        template = detect._dps2_template(w111.dims)
        d_ab, n = 8, 16
        # A*(shift) = -I on every block: -1 on the n diagonal rows of each link
        # group gives -I on blocks 1 and 2 and +2 I on block 0, and -3 on the
        # d_ab diagonal marginal rows brings block 0 to -I
        shift = np.zeros(template.m)
        shift[:d_ab] = -3.0
        shift[d_ab**2 : d_ab**2 + n] = -1.0
        shift[d_ab**2 + n**2 : d_ab**2 + n**2 + n] = -1.0
        solve = sdp.solve

        def shifted_solve(problem):
            # y - t * shift subtracts t I from S = -A*(y): push its least
            # eigenvalue to -5e-9, inside verify's CERT_TOL floor
            result = solve(problem)
            s_min = sdp.verify(problem, result).checks["certificate_psd"][1]
            return dataclasses.replace(result, y=result.y - (s_min + 5e-9) * shift)

        monkeypatch.setattr(sdp, "solve", shifted_solve)
        report = detect.dps2_feasibility(w111)
        assert report.diagnostics["solver_status"] == sdp.INFEASIBLE
        assert report.diagnostics["verified"]
        assert -6e-9 <= report.diagnostics["certificate_min_eig"] < 0
        assert report.verdict == detect.VERDICT_INCONCLUSIVE
        assert report.witness is None
        assert report.value == 0.0
        assert "margin" in report.diagnostics["reason"]

    def test_margin_is_the_one_verify_measures(self, w111):
        report = detect.dps2_feasibility(w111)
        problem, result = report.sdp_run
        margin = sdp.verify(problem, result).checks["certificate_psd"][1]
        assert report.diagnostics["certificate_min_eig"] == margin
        assert "certificate_min_eig" not in result.info


class TestDps2Template:
    def test_marginal_rows_read_the_state(self, w111):
        # the marginal right-hand side is b_k = Tr(h_k rho) for basis element h_k
        template = detect._dps2_template(w111.dims)
        problem = template.problem(w111)
        rho = w111.op.mat / np.trace(w111.op.mat).real
        expected = np.einsum("kij,ji->k", template.marginal_basis, rho).real
        assert np.max(np.abs(problem.b[: expected.size] - expected)) <= 1e-15
        assert not problem.b[expected.size :].any()

    def test_swap_rows(self):
        # the rows after the marginal and the two link groups: Hermitian h
        # with P h P = -h for the swap P of A_I and A_I2, an orthogonal basis
        # of that space, which is 2 * 12 * 4 = 96-dimensional (P has 12
        # eigenvalues +1 and 4 eigenvalues -1 on n = 16)
        template = detect._Dps2Template((2, 2, 2))
        n = 16
        first = 64 + 2 * n * n
        rows = template.constraint_set.stacks[0][first:]
        assert rows.shape == (96, n, n)
        factors = [(pr.A_I, 2), (pr.A_O, 2), (pr.B_I, 2), (detect.EXTENSION_LABEL, 2)]
        swapped_labels = [detect.EXTENSION_LABEL, pr.A_O, pr.B_I, pr.A_I]

        def swap(x):
            return tl.reorder(tl.operator(factors, x), swapped_labels).mat

        for h in rows:
            assert np.array_equal(h, h.conj().T)
            assert np.array_equal(swap(h), -h)
        gram = np.einsum("kij,lij->kl", rows.conj(), rows).real
        assert np.array_equal(gram, np.diag(np.diag(gram)))
        embedding = np.concatenate([rows.real, rows.imag], axis=1).reshape(96, -1)
        assert np.linalg.matrix_rank(embedding) == 96
        g = np.random.default_rng(5).standard_normal((2, n, n))
        x = g[0] + 1j * g[1]
        x = x + x.conj().T
        symmetric = (x + swap(x)) / 2
        assert np.max(np.abs(np.einsum("kij,ij->k", rows.conj(), symmetric))) <= 1e-14
        for stack in template.constraint_set.stacks[1:]:
            assert not stack[first:].any()


class TestDps2AnalyticExtension:
    """A solver-free proof of the feasible side of the level-2 test: explicit
    Bose-symmetric extensions Y of rho = W / Tr W on (A_I, A_O, B_I, A_I2),
    whose blocks (Y, Y^{T_{A_I2}}, Y^{T_B}) with y = 0 pass ``sdp.verify`` as
    an optimal result of the template's problem."""

    FACTORS = [(pr.A_I, 2), (pr.A_O, 2), (pr.B_I, 2), (detect.EXTENSION_LABEL, 2)]

    def assert_extends(self, w, y_mat):
        problem = detect._dps2_template((2, 2, 2)).problem(w)
        ext = tl.operator(self.FACTORS, y_mat)
        blocks = [y_mat] + [
            tl.partial_transpose(ext, labels).mat
            for labels in ({detect.EXTENSION_LABEL}, {pr.A_O, pr.B_I})
        ]
        result = sdp.SdpResult(
            sdp.OPTIMAL, sdp.BlockMatrix(blocks), np.zeros(problem.constraint_set.m), 0.0
        )
        report = sdp.verify(problem, result)
        assert report.ok, str(report)
        assert report.checks["primal_residual"][1] <= 1e-14
        assert report.checks["primal_psd"][1] >= -1e-14

    def test_h0_mixture(self):
        # W = sum_nu q_nu rho_nu (x) T_nu at h = 0, and Y = sum_nu (q_nu / Tr W)
        # rho_nu (x) T_nu (x) rho_nu: the template's marginal is W / Tr W
        for k in range(1, 31):
            j = k / 3
            w = ising.process_matrix(j, 0.0, 1.0)
            trace = w.op.trace().real
            y_mat = 0
            for q, rho, t in ising.analytic_h0_mixture(j, 1.0).terms:
                t_mat = tl.reorder(t.op, [pr.A_O, pr.B_I]).mat
                y_mat = y_mat + q / trace * np.kron(np.kron(rho.mat, t_mat), rho.mat)
            self.assert_extends(w, y_mat)

    def test_markovian_line(self):
        # at J = 0, rho = rho_{A_I} (x) rho_{A_O B_I}, extended by a second rho_{A_I}
        for k in range(31):
            w = ising.process_matrix(0.0, k / 3, 1.0)
            rho = tl.reorder(w.op, pr.PROCESS_LABELS)
            rho = tl.operator(list(zip(pr.PROCESS_LABELS, (2, 2, 2))), rho.mat / rho.trace().real)
            rho_a = tl.partial_trace(rho, {pr.A_O, pr.B_I}).mat
            rho_ob = tl.reorder(tl.partial_trace(rho, {pr.A_I}), (pr.A_O, pr.B_I)).mat
            self.assert_extends(w, np.kron(np.kron(rho_a, rho_ob), rho_a))


class TestValidateWitness:
    def test_identity_witness(self):
        z = tl.operator([(pr.A_I, 2), (pr.A_O, 2), (pr.B_I, 2)], np.eye(8) / 8)
        report = detect.validate_witness(z, 300, seed=3)
        assert abs(report.min_value - 0.25) <= 1e-9
        assert report.ok

    def test_ppt_witness_sound(self, w111):
        z = detect.ppt_witness(w111).witness
        report = detect.validate_witness(z, 1000, seed=3)
        assert report.min_value >= -1e-9

    def test_negative_identity_fails_fast(self):
        z = tl.operator([(pr.A_I, 2), (pr.A_O, 2), (pr.B_I, 2)], -np.eye(8) / 8)
        report = detect.validate_witness(z, 50, seed=3)
        assert report.min_value < 0
        assert report.failures

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_rejects_fewer_than_one_sample(self, n_samples):
        z = tl.operator([(pr.A_I, 2), (pr.A_O, 2), (pr.B_I, 2)], np.eye(8) / 8)
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            detect.validate_witness(z, n_samples)

    def test_rejects_non_hermitian(self):
        z = tl.operator([(pr.A_I, 2), (pr.A_O, 2), (pr.B_I, 2)], np.triu(np.ones((8, 8))))
        with pytest.raises(ValueError):
            detect.validate_witness(z, 10)


class TestScaleInvariance:
    def test_verdict_threshold_scales_with_operator(self, w111):
        # tol_detect is relative to the spectral norm, so the decision
        # value < -tol is invariant under W -> alpha W
        lam = detect.ppt_min_eig(w111)
        tol = detect.tol_detect(w111)
        for alpha in (0.5, 2.0, 10.0):
            scaled_lam = alpha * lam
            scaled_tol = tol * alpha
            assert (scaled_lam < -scaled_tol) == (lam < -tol)

    def test_witness_sign_invariant(self, w111):
        z = detect.ppt_witness(w111).witness
        base = np.trace(z.mat @ w111.op.mat).real
        for alpha in (0.5, 3.0):
            assert np.sign(np.trace(z.mat @ (alpha * w111.op.mat)).real) == np.sign(base)
