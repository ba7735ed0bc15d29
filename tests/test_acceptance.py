"""Acceptance criteria, one test per criterion.

The suite is stateful across criteria (5 needs the witnesses of 3-4, 7 needs
every SDP verification of 2-6), so the run happens once in a module fixture.
Each criterion prints its own pass/fail line as it completes.
"""

import pytest

from qmemwit import acceptance, cli, ising


@pytest.fixture(scope="module")
def results():
    return {r.index: r for r in acceptance.run_all()}


def test_criterion_1_markovian_lattice(results):
    r = results[1]
    assert r.passed, r.line()


def test_criterion_2_h0_classical_memory(results):
    r = results[2]
    assert r.passed, r.line()


def test_criterion_3_quantum_memory_detection(results):
    r = results[3]
    assert r.passed, r.line()


def test_criterion_4_sdp_eigen_duality(results):
    r = results[4]
    assert r.passed, r.line()


def test_criterion_5_witness_soundness(results):
    r = results[5]
    assert r.passed, r.line()


def test_criterion_6_phase_diagram(results):
    r = results[6]
    assert r.passed, r.line()


def test_criterion_7_solver_self_verification(results):
    r = results[7]
    assert r.passed, r.line()


def test_criterion_8_structural_properties(results):
    r = results[8]
    assert r.passed, r.line()


def test_criterion_6_reads_h0_by_magnitude():
    lattice = [(0.0, 0.0), (3.14159265359, 0.0)]

    def rows(values):
        return {p: cli.SweepRow(p[0], p[1], 1.0, "ppt", v, "", "ok") for p, v in values.items()}

    # rounding noise of either sign on h = 0 holds; a real eigenvalue there does not
    far, h0 = acceptance.ppt_violations(rows({(1.0, 0.0): 1e-33, (2.0, 0.0): -6e-16}), lattice)
    assert (far, h0) == ([], [])
    far, h0 = acceptance.ppt_violations(rows({(1.0, 0.0): -1e-3, (2.0, 2.0): 0.0}), lattice)
    assert (far, h0) == ([(2.0, 2.0)], [(1.0, 0.0)])


def test_criterion_6_dps2_rows_against_ppt():
    ppt = {
        p: cli.SweepRow(p[0], p[1], 1.0, "ppt", v, "", "ok")
        for p, v in {(1.0, 1.0): -0.1, (2.0, 2.0): 0.01, (3.0, 3.0): 1e-9}.items()
    }

    def dps2(p, verdict, status):
        return cli.SweepRow(p[0], p[1], 1.0, "dps2", 0.0, verdict, status)

    rows = [
        dps2((1.0, 1.0), "quantum_memory", "infeasible"),
        dps2((2.0, 2.0), "quantum_memory", "infeasible"),  # lambda > 1e-6 says inconclusive
        dps2((3.0, 3.0), "inconclusive", "unverified:optimal"),
    ]
    disagree, unverified = acceptance.dps2_disagreements(ppt, rows)
    assert disagree == [(2.0, 2.0, 0.01, "quantum_memory")]
    assert unverified == [(3.0, 3.0)]
    assert acceptance.dps2_disagreements(ppt, rows[:1]) == ([], [])


def test_criterion_2_extension_is_the_h0_points_own():
    # the h = 0 extension of (J, t) verifies for W(J, 0, t) alone
    assert acceptance._h0_extension_report(ising.process_matrix(1.0, 0.0, 0.7), 1.0, 0.7).ok
    for w in (ising.process_matrix(1.0, 1.0, 0.7), ising.process_matrix(1.0, 0.0, 1.0)):
        report = acceptance._h0_extension_report(w, 1.0, 0.7)
        assert not report.checks["primal_residual"][0]
