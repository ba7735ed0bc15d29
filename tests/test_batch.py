"""The batched J-row kernel against the per-point reference path.

Every row is compared exactly: the value bit for bit (``float.hex``), and
the verdict and status as strings.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmemwit import batch, cli, detect, ising
from qmemwit import process as pr
from qmemwit import tensorlinalg as tl

GRID = cli.Range(0.0, 10.0, 151)
BATCHED = ("ppt", "markov_distance")


def reference_rows(J, hs, t, methods=BATCHED, norm="trace"):
    """Rows of the reference path: ising.process_matrix, then
    detect.ppt_witness and process.markov_distance at each point."""
    rows = []
    for h in hs:
        try:
            w = ising.process_matrix(J, h, t)
        except ValueError as exc:
            rows += [cli.SweepRow(J, h, t, m, math.nan, "error", f"error:{exc}") for m in methods]
            continue
        for method in methods:
            if method == "ppt":
                report = detect.ppt_witness(w)
                rows.append(cli.SweepRow(J, h, t, method, report.value, report.verdict, "ok"))
            else:
                value = pr.markov_distance(w, norm=norm)
                verdict = "markovian" if value <= 1e-9 else "non_markovian"
                rows.append(cli.SweepRow(J, h, t, method, value, verdict, "ok"))
    return rows


def assert_same_rows(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert (a.J, a.h, a.t, a.method, a.verdict, a.status) == (
            e.J, e.h, e.t, e.method, e.verdict, e.status
        )
        assert float(a.value).hex() == float(e.value).hex(), (a, e)


def kernel_rows(J, hs, t, norm="trace", methods=BATCHED):
    return cli._sweep_row((J, list(hs), t, methods, norm))


@pytest.mark.parametrize("norm", ["trace", "frobenius"])
@given(
    J=st.floats(-12.0, 12.0),
    hs=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=6),
    t=st.floats(0.05, 4.0).filter(lambda t: t != 1.0),
)
def test_random_points_match_reference(norm, J, hs, t):
    assert_same_rows(kernel_rows(J, hs, t, norm), reference_rows(J, hs, t, norm=norm))


def test_h0_row_matches_reference():
    # W^{T_{A_I}} has least eigenvalue 0 here: the values are rounding noise
    config = cli.SweepConfig(j_range=GRID, h_range=cli.Range(0.0, 0.0, 1), methods=BATCHED)
    expected = [r for J in GRID.values() for r in reference_rows(J, [0.0], 1.0)]
    assert_same_rows(cli.sweep(config), expected)


@pytest.mark.parametrize("norm", ["trace", "frobenius"])
def test_j0_column_matches_reference(norm):
    config = cli.SweepConfig(
        j_range=cli.Range(0.0, 0.0, 1), h_range=GRID, methods=BATCHED, norm=norm
    )
    rows = cli.sweep(config)
    assert_same_rows(rows, reference_rows(0.0, GRID.values(), 1.0, norm=norm))
    assert {r.verdict for r in rows if r.method == "markov_distance"} == {"markovian"}


def test_markovian_points_match_reference():
    by_j: dict[float, list[float]] = {}
    for J, h in ising.markovian_points(10.5, 10.5):
        by_j.setdefault(J, []).append(h)
    for J, hs in by_j.items():
        rows = kernel_rows(J, hs, 1.0)
        assert_same_rows(rows, reference_rows(J, hs, 1.0))
        assert {r.verdict for r in rows if r.method == "markov_distance"} == {"markovian"}


@pytest.mark.parametrize("norm", ["trace", "frobenius"])
def test_strided_cli_sweep_writes_the_reference_csv(tmp_path, norm):
    out = tmp_path / "rows.csv"
    step = "0:10:0.06666666666666667"
    code = cli.main([
        "sweep", "--j-range", step, "--h-range", step, "--stride", "5",
        "--method", "ppt", "--method", "markov_distance", "--norm", norm, "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    axis = GRID.values(stride=5)
    expected = [r for J in axis for r in reference_rows(J, axis, 1.0, norm=norm)]
    assert out.read_text() == cli.rows_to_csv(expected)


def test_mixed_methods_keep_config_order_per_point():
    methods = ("markov_distance", "dps2", "ppt", "ppt_sdp")
    config = cli.SweepConfig(
        j_range=cli.Range(1.0, 1.0, 1), h_range=cli.Range(1.0, 2.0, 2), methods=methods
    )
    rows = cli.sweep(config)
    assert [(r.h, r.method) for r in rows] == [(h, m) for h in (1.0, 2.0) for m in methods]
    for h in (1.0, 2.0):
        at_h = {r.method: r for r in rows if r.h == h}
        assert_same_rows(
            [at_h["ppt"], at_h["markov_distance"]],
            reference_rows(1.0, [h], 1.0, methods=("ppt", "markov_distance")),
        )
        w = ising.process_matrix(1.0, h, 1.0)
        for method, solve in (("dps2", detect.dps2_feasibility), ("ppt_sdp", detect.witness_sdp)):
            report = solve(w)
            assert (at_h[method].value, at_h[method].verdict, at_h[method].status) == (
                report.value, report.verdict, report.diagnostics["solver_status"]
            )


def test_invalid_process_matrix_fails_only_its_point(monkeypatch):
    hs = [0.5, 1.0, 1.5]
    szzz = np.kron(np.kron(tl.PAULI_Z, tl.PAULI_Z), tl.PAULI_Z)
    build = batch.process_matrices

    def perturbed(J, hs, t):
        w, errors = build(J, hs, t)
        w = w.copy()
        w[1] += 0.1 * szzz
        return w, errors

    monkeypatch.setattr(batch, "process_matrices", perturbed)
    rows = kernel_rows(1.0, hs, 1.0)
    bad = ising.process_matrix(1.0, hs[1], 1.0).op + tl.operator(
        list(zip(pr.PROCESS_LABELS, (2, 2, 2))), 0.1 * szzz
    )
    status = f"error:not a valid process matrix: {pr.validate_comb(bad)}"
    assert [(r.verdict, r.status) for r in rows[2:4]] == [("error", status)] * 2
    assert all(math.isnan(r.value) for r in rows[2:4])
    reference = reference_rows(1.0, hs, 1.0)
    assert_same_rows(rows[:2] + rows[4:], reference[:2] + reference[4:])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_point_fails_only_its_point():
    hs = [1.0, 1.7e308, 2.0]
    rows = kernel_rows(1.0, hs, 1.0)
    assert_same_rows(rows, reference_rows(1.0, hs, 1.0))
    assert rows[2].status == "error:operator is not unitary within tolerance"
