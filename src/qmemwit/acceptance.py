"""Acceptance suite: the exit criteria of the build, one pass/fail line each.

Shared between ``qmemwit verify`` and tests/test_acceptance.py.  Criteria 2-6
record the verification of every solver result they trigger; criterion 7 then
asserts that none failed.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import cli, detect, ising
from . import process as pr
from . import sdp
from . import tensorlinalg as tl

POINT_SEED = 906041
WITNESS_SEED = 2024
LATTICE_MARGIN = 0.2
PPT_MARGIN = 1e-6


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    elapsed: float
    budget: float
    details: str

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.index} {flag} ({self.elapsed:6.1f}s / budget {self.budget:.0f}s) "
            f"{self.name}: {self.details}"
        )


@dataclass
class SuiteState:
    """Artifacts shared across criteria."""

    points: list[tuple[float, float]] = field(default_factory=list)
    witnesses: list[tl.TensorOperator] = field(default_factory=list)
    verifications: list[bool] = field(default_factory=list)


def acceptance_points(n: int = 20, seed: int = POINT_SEED) -> list[tuple[float, float]]:
    """Pseudo-random (J, h) in (0.3, 10)^2, > 0.2 away from the lattice and axes."""
    rng = np.random.default_rng(seed)
    lattice = ising.markovian_points(10.5, 10.5)
    points: list[tuple[float, float]] = []
    while len(points) < n:
        j, h = rng.uniform(0.3, 10.0, size=2)
        dist = min(math.hypot(j - lj, h - lh) for lj, lh in lattice)
        if dist > LATTICE_MARGIN:
            points.append((float(j), float(h)))
    return points


def _lattice_distance(j: float, h: float, lattice) -> float:
    """Distance to the Markovian set: the discrete lattice plus the J = 0 line."""
    d = min(math.hypot(j - lj, h - lh) for lj, lh in lattice)
    return min(d, abs(j))


def _markovian(w: pr.ProcessMatrix) -> bool:
    return pr.is_markovian(pr.markov_distance(w), tl.trace_norm(w.op))


def _timed(index, name, budget, fn) -> CriterionResult:
    start = time.perf_counter()
    try:
        passed, details = fn()
    except Exception as exc:  # honest red over a crash
        passed, details = False, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if passed and elapsed > budget:
        passed, details = False, f"{details} [exceeded runtime budget: {elapsed:.1f}s]"
    return CriterionResult(index, name, passed, elapsed, budget, details)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1() -> CriterionResult:
    pts = [
        (0.0, 0.0),
        (math.pi, 0.0),
        (2 * math.pi, 0.0),
        (math.pi / 2, 0.0),
        (math.pi, (math.pi / 2) * math.sqrt(3.0)),
        (0.0, 1.7),
    ]

    def run():
        worst_md, worst_eig, markovian = 0.0, 0.0, True
        for j, h in pts:
            w = ising.process_matrix(j, h, 1.0)
            worst_md = max(worst_md, pr.markov_distance(w))
            worst_eig = min(worst_eig, detect.ppt_min_eig(w))
            markovian = markovian and _markovian(w)
        ok = markovian and worst_eig >= -1e-9
        return ok, f"max markov_distance {worst_md:.2e}, min ppt eig {worst_eig:.2e} over {len(pts)} lattice points"

    return _timed(1, "Markovian lattice", 1.0, run)


def _h0_extension_report(w: pr.ProcessMatrix, j: float, t: float) -> sdp.VerificationReport:
    """``sdp.verify`` of Y = sum_nu (q_nu / Tr W) rho_nu (x) T_nu (x) rho_nu, the
    analytic extension of W = W(J, 0, t) = sum_nu q_nu rho_nu (x) T_nu, as the
    blocks (Y, Y^{T_{A_I2}}, Y^{T_B}) and y = 0 of the dps2 template's problem."""
    trace = w.op.trace().real
    y_mat = sum(
        q / trace * np.kron(np.kron(rho.mat, tl.reorder(choi.op, [pr.A_O, pr.B_I]).mat), rho.mat)
        for q, rho, choi in ising.analytic_h0_mixture(j, t).terms
    )
    ext = tl.operator([*zip(pr.PROCESS_LABELS, (2, 2, 2)), (detect.EXTENSION_LABEL, 2)], y_mat)
    labels = ({detect.EXTENSION_LABEL}, {pr.A_O, pr.B_I})
    blocks = [y_mat] + [tl.partial_transpose(ext, part).mat for part in labels]
    problem = detect._dps2_template((2, 2, 2)).problem(w)
    y = np.zeros(problem.constraint_set.m)
    return sdp.verify(problem, sdp.SdpResult(sdp.OPTIMAL, sdp.BlockMatrix(blocks), y, 0.0))


def criterion_2(state: SuiteState) -> CriterionResult:
    def run():
        worst_gap, worst_eig = 0.0, 0.0
        feasible = extended = 0
        cases = [(j, t) for j in (0.5, 1.0, 2.3) for t in (0.7, 1.0)]
        for j, t in cases:
            w = ising.process_matrix(j, 0.0, t)
            gap = tl.max_abs_diff(w.op, ising.analytic_h0(j, t).op)
            worst_gap = max(worst_gap, gap)
            worst_eig = min(worst_eig, detect.ppt_min_eig(w))
            report = detect.dps2_feasibility(w)
            state.verifications.append(bool(report.diagnostics.get("verified")))
            if report.verdict == detect.VERDICT_INCONCLUSIVE and report.diagnostics[
                "solver_status"
            ] == "optimal":
                feasible += 1
            # solver-free, so not one of criterion 7's solver verifications
            extended += _h0_extension_report(w, j, t).ok
        ok = worst_gap <= 1e-10 and worst_eig >= -1e-10 and feasible == extended == len(cases)
        return ok, (
            f"max |W - analytic| {worst_gap:.2e}, min ppt eig {worst_eig:.2e}, "
            f"dps2 feasible {feasible}/{len(cases)}, analytic extension {extended}/{len(cases)}"
        )

    return _timed(2, "h=0 classical memory", 30.0, run)


def criterion_3(state: SuiteState) -> CriterionResult:
    def run():
        state.points = acceptance_points()
        ppt_ok = wit_ok = dps_ok = 0
        for j, h in state.points:
            w = ising.process_matrix(j, h, 1.0)
            if detect.ppt_min_eig(w) < -PPT_MARGIN:
                ppt_ok += 1
            report = detect.ppt_witness(w)
            if report.verdict == detect.VERDICT_QUANTUM:
                wit_ok += 1
                state.witnesses.append(report.witness)
            dps = detect.dps2_feasibility(w)
            state.verifications.append(bool(dps.diagnostics.get("verified")))
            if dps.verdict == detect.VERDICT_QUANTUM:
                dps_ok += 1
                state.witnesses.append(dps.witness)
        n = len(state.points)
        ok = ppt_ok == n and wit_ok == n and dps_ok == n
        return ok, (
            f"ppt eig < -1e-6 at {ppt_ok}/{n}, witness verdicts {wit_ok}/{n}, "
            f"dps2 infeasible with verified certificate {dps_ok}/{n}"
        )

    return _timed(3, "quantum memory detection", 300.0, run)


def criterion_4(state: SuiteState) -> CriterionResult:
    def run():
        if not state.points:
            state.points = acceptance_points()
        worst = 0.0
        for j, h in state.points:
            w = ising.process_matrix(j, h, 1.0)
            report = detect.witness_sdp(w)
            state.verifications.append(bool(report.diagnostics.get("verified")))
            if report.witness is not None:
                state.witnesses.append(report.witness)
            gap = abs(report.diagnostics["optimum"] + detect.ppt_min_eig(w))
            worst = max(worst, gap)
        return worst <= 1e-6, f"max |sdp optimum + min eig| = {worst:.2e} over {len(state.points)} points"

    return _timed(4, "SDP/eigen duality", 60.0, run)


def criterion_5(state: SuiteState) -> CriterionResult:
    def run():
        if not state.witnesses:
            return False, "no witnesses were emitted by criteria 3-4"
        worst = np.inf
        for z in state.witnesses:
            report = detect.validate_witness(z, 1000, seed=WITNESS_SEED)
            worst = min(worst, report.min_value)
            if report.failures:
                return False, (
                    f"witness violated on {len(report.failures)} of 1000 samples "
                    f"(min {report.min_value:.2e})"
                )
        return True, f"{len(state.witnesses)} witnesses x 1000 samples, min Tr(ZW_cl) = {worst:.2e}"

    return _timed(5, "witness soundness", 120.0, run)


def ppt_violations(ppt: dict, lattice) -> tuple[list, list]:
    """Grid points whose ppt value contradicts the phase diagram.

    Returns the points off h = 0 and farther than LATTICE_MARGIN from the
    Markovian set whose value is not negative, and the points of h = 0 whose
    value exceeds PPT_MARGIN in magnitude.  On h = 0 the memory is classical
    and the least eigenvalue is 0 in exact arithmetic, so its sign there is
    rounding noise.
    """
    far = [
        p for p, r in ppt.items()
        if p[1] != 0.0 and _lattice_distance(*p, lattice) > LATTICE_MARGIN and not r.value < 0
    ]
    h0 = [p for p, r in ppt.items() if p[1] == 0.0 and not abs(r.value) <= PPT_MARGIN]
    return far, h0


def dps2_disagreements(ppt: dict, dps2_rows) -> tuple[list, list]:
    """The dps2 sweep rows that contradict the ppt rows, and the unverified ones.

    Where the ppt value lambda at a row's point exceeds PPT_MARGIN in
    magnitude, the row must read ``quantum_memory`` for lambda < 0 and
    ``inconclusive`` for lambda > 0; each contradiction is listed as
    (J, h, lambda, verdict).  A row is verified only if its status is
    ``optimal`` or ``infeasible``; the points of the others are listed too.
    """
    disagree, unverified = [], []
    for r in dps2_rows:
        if r.status not in (sdp.OPTIMAL, sdp.INFEASIBLE):
            unverified.append((r.J, r.h))
        lam = ppt[(r.J, r.h)].value
        if abs(lam) > PPT_MARGIN:
            expected = detect.VERDICT_QUANTUM if lam < 0 else detect.VERDICT_INCONCLUSIVE
            if r.verdict != expected:
                disagree.append((r.J, r.h, lam, r.verdict))
    return disagree, unverified


def criterion_6(state: SuiteState, workers: int | None = None) -> CriterionResult:
    workers = workers or max(1, min(4, os.cpu_count() or 1))

    def run():
        grid = cli.Range(0.0, 10.0, 151)
        config = cli.SweepConfig(
            j_range=grid, h_range=grid, t=1.0,
            methods=("ppt", "markov_distance"), workers=workers,
        )
        t_ppt = time.perf_counter()
        rows = cli.sweep(config)
        t_ppt = time.perf_counter() - t_ppt
        lattice = ising.markovian_points(10.5, 10.5)
        ppt = {(r.J, r.h): r for r in rows if r.method == "ppt"}
        dist = {(r.J, r.h): r for r in rows if r.method == "markov_distance"}

        far_violations, h0_bad = ppt_violations(ppt, lattice)
        on_lattice = [
            p for p in ppt
            if any(abs(p[0] - lj) <= 1e-9 and abs(p[1] - lh) <= 1e-9 for lj, lh in lattice)
        ]
        lattice_bad = [p for p in on_lattice if abs(ppt[p].value) > PPT_MARGIN]

        zeros = {p for p, r in dist.items() if r.verdict == "markovian"}
        markovian_set = set(on_lattice) | {p for p in dist if abs(p[0]) <= 1e-12}
        zeros_mismatch = zeros.symmetric_difference(markovian_set)
        direct_bad = [p for p in lattice if not _markovian(ising.process_matrix(*p, 1.0))]

        if t_ppt > 120.0:
            return False, f"PPT sweep took {t_ppt:.1f}s (> 120s)"
        if far_violations or h0_bad or lattice_bad or zeros_mismatch or direct_bad:
            return False, (
                f"ppt>=0 off-lattice at {len(far_violations)} points, "
                f"|ppt| > 1e-6 on h=0 at {len(h0_bad)}, "
                f"|ppt| > 1e-6 on-lattice at {len(lattice_bad)}, "
                f"distance-zero mismatches {len(zeros_mismatch)}, "
                f"nonzero distance at {len(direct_bad)} lattice points"
            )

        dps2_rows = cli.sweep(
            cli.SweepConfig(grid, grid, stride=5, methods=("dps2",), workers=workers)
        )
        disagree, unverified = dps2_disagreements(ppt, dps2_rows)
        state.verifications += [False] * len(unverified)
        state.verifications += [True] * (len(dps2_rows) - len(unverified))
        ok = not disagree and not unverified
        return ok, (
            f"PPT sweep {len(ppt)} points in {t_ppt:.1f}s, all structure checks hold; "
            f"dps2 vs ppt on {len(dps2_rows)} stride points: "
            f"{len(disagree)} disagreements, {len(unverified)} unverified solves"
        )

    return _timed(6, "phase-diagram reproduction", 1020.0, run)


def criterion_7(state: SuiteState) -> CriterionResult:
    def run():
        n = len(state.verifications)
        bad = state.verifications.count(False)
        if n == 0:
            return False, "no SDP verifications were recorded by criteria 2-6"
        return bad == 0, f"{n - bad}/{n} solver verifications passed (weak duality and certificates at 1e-7)"

    return _timed(7, "solver self-verification", 10.0, run)


def criterion_8(state: SuiteState) -> CriterionResult:
    def run():
        rng = np.random.default_rng(515151)
        n_cases = 100

        # comb validation on constructed processes; an explicit violation fails
        for k in range(n_cases):
            sample = pr.random_classical_memory(int(rng.integers(2**31)), int(rng.integers(1, 4)))
            if not pr.validate_comb(pr.classical_memory_process(sample).op).ok:
                return False, f"comb validation rejected a classical-memory process (case {k})"
        w = ising.process_matrix(1.0, 1.0, 1.0)
        szzz = tl.operator(
            list(zip(pr.PROCESS_LABELS, (2, 2, 2))),
            np.kron(np.kron(tl.PAULI_Z, tl.PAULI_Z), tl.PAULI_Z),
        )
        if pr.validate_comb(w.op + szzz * 0.1).ok:
            return False, "comb validation accepted a perturbed process"

        # L projector: idempotent, self-adjoint, fixes combs
        factors = list(zip(pr.PROCESS_LABELS, (2, 2, 2)))
        for k in range(n_cases):
            g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            x = tl.operator(factors, (g + g.conj().T) / 2)
            lx = pr.project_L(x)
            if tl.max_abs_diff(pr.project_L(lx), lx) > 1e-9:
                return False, "L projector is not idempotent"
            g2 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            z = tl.operator(factors, (g2 + g2.conj().T) / 2)
            lhs = np.trace(lx.mat @ z.mat)
            rhs = np.trace(x.mat @ pr.project_L(z).mat)
            if abs(lhs - rhs) > 1e-9 * (1 + abs(lhs)):
                return False, "L projector is not self-adjoint"
        wt = ising.process_matrix(*rng.uniform(0.2, 3.0, 2), 1.0)
        if tl.max_abs_diff(pr.project_L(wt.op), wt.op) > 1e-9:
            return False, "L projector moved a valid comb"

        # partial transpose involution on random labeled operators
        for k in range(n_cases):
            labels = [("P", 2), ("Q", int(rng.integers(2, 4))), ("R", 2)]
            d = int(np.prod([dim for _, dim in labels]))
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            x = tl.operator(labels, g)
            subset = {name for name, _ in labels if rng.random() < 0.5} or {"P"}
            twice = tl.partial_transpose(tl.partial_transpose(x, subset), subset)
            if tl.max_abs_diff(twice, x) > 1e-12:
                return False, "partial transpose is not an involution"

        # probability rule normalization over full instruments
        for k in range(n_cases):
            if rng.random() < 0.5:
                w_k = ising.process_matrix(*rng.uniform(0.0, 4.0, 2), 1.0)
            else:
                w_k = pr.classical_memory_process(
                    pr.random_classical_memory(int(rng.integers(2**31)), 2)
                )
            basis = np.linalg.qr(
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            )[0]
            preps = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2)]
            preps = [v / np.linalg.norm(v) for v in preps]
            e = rng.uniform(0.1, 0.9) * np.eye(2)
            effects = [e, np.eye(2) - e]
            total = 0.0
            for a_out in range(2):
                m_a = pr.prepare_and_measure(basis[:, a_out], preps[a_out])
                for e_b in effects:
                    total += pr.prob_rule(w_k, m_a, pr.povm_effect(e_b))
            if abs(total - 1.0) > 1e-9:
                return False, f"instrument probabilities sum to {total}, not 1"

        # determinism under parallelism
        config = cli.SweepConfig(
            j_range=cli.Range(0.0, 2.0, 5), h_range=cli.Range(0.0, 2.0, 5),
            methods=("ppt", "markov_distance"), workers=1,
        )
        csv_1 = cli.rows_to_csv(cli.sweep(config))
        csv_4 = cli.rows_to_csv(cli.sweep(replace(config, workers=4)))
        if csv_1 != csv_4:
            return False, "sweep output depends on the worker count"

        return True, f"{n_cases} cases per property suite, all held at module tolerances"

    return _timed(8, "structural property suites", 120.0, run)


def run_all(workers: int | None = None) -> list[CriterionResult]:
    state = SuiteState()
    results = [criterion_1()]
    print(results[-1].line(), flush=True)
    for fn in (criterion_2, criterion_3, criterion_4, criterion_5):
        results.append(fn(state))
        print(results[-1].line(), flush=True)
    results.append(criterion_6(state, workers))
    print(results[-1].line(), flush=True)
    results.append(criterion_7(state))
    print(results[-1].line(), flush=True)
    results.append(criterion_8(state))
    print(results[-1].line(), flush=True)
    ok = sum(r.passed for r in results)
    print(f"acceptance: {ok}/{len(results)} criteria passed", flush=True)
    return results
