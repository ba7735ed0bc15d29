"""Each correctness gate passes the program's real output and fails on a planted wrong answer."""

import copy
import dataclasses

import pytest

import workloads as wl
from qmemwit import cli, detect, ising


def _row(j):
    config = cli.SweepConfig(cli.Range(j, j, 1), wl.GRID, methods=wl.SWEEP_METHODS)
    rows = cli.sweep(config)
    return rows, cli.rows_to_csv(rows)


@pytest.fixture(scope="module")
def rows_j0():
    return _row(0.0)


@pytest.fixture(scope="module")
def rows_j3():
    return _row(wl.GRID.values()[45])


def _plant(rows, j, h, method, **change):
    return [dataclasses.replace(r, **change) if (r.J, r.h, r.method) == (j, h, method) else r
            for r in rows]


def test_sweep_rows_pass(rows_j0, rows_j3):
    assert wl.check_sweep_row(*rows_j0) == []
    assert wl.check_sweep_row(*rows_j3) == []


@pytest.mark.parametrize("method, change, where", [
    ("ppt", {"value": 1e-3}, "far"),
    ("markov_distance", {"value": 0.0}, "far"),
    ("ppt", {"status": "error:planted"}, "far"),
    ("markov_distance", {"value": 1e-3}, "j0"),
    ("ppt", {"value": 1e-3}, "origin"),
])
def test_sweep_gate_fails_on_a_planted_answer(rows_j0, rows_j3, method, change, where):
    hs = wl.GRID.values()
    # (3, 6.67) lies 0.6 from the nearest lattice point; (0, 0) is on the lattice
    (rows, _), j, h = {
        "far": (rows_j3, wl.GRID.values()[45], hs[100]),
        "j0": (rows_j0, 0.0, hs[100]),
        "origin": (rows_j0, 0.0, 0.0),
    }[where]
    planted = _plant(rows, j, h, method, **change)
    failures = wl.check_sweep_row(planted, cli.rows_to_csv(planted))
    assert len(failures) == 1 and failures[0].startswith(f"({j}, {h})")


def test_sweep_gate_fails_on_a_csv_that_does_not_match(rows_j3):
    rows, text = rows_j3
    lines = text.splitlines()
    lines[5] = lines[5].replace("quantum_memory", "inconclusive")
    assert len(wl.check_sweep_row(rows, "\n".join(lines) + "\n")) == 1
    assert len(wl.check_sweep_row(rows, "\n".join(lines[:-2]) + "\n")) == wl.GRID.points


@pytest.fixture(scope="module")
def dps2_quantum():
    w = ising.process_matrix(3.0, 2.0, 1.0)
    return detect.dps2_feasibility(w), detect.ppt_min_eig(w)


def _with(report, verdict=None, **diagnostics):
    return dataclasses.replace(
        report, verdict=verdict or report.verdict, diagnostics={**report.diagnostics, **diagnostics}
    )


def test_dps2_gate(dps2_quantum):
    report, lam = dps2_quantum
    assert lam < -1e-6 and wl.check_dps2_point(report, lam) == []
    assert wl.check_dps2_point(_with(report, detect.VERDICT_INCONCLUSIVE), lam)
    assert wl.check_dps2_point(_with(report, verified=False), lam)
    assert wl.check_dps2_point(_with(report, solver_status="max_iterations"), lam)
    # inside the +-1e-6 band the ppt eigenvalue decides nothing
    assert wl.check_dps2_point(report, 0.0) == []


def test_dps2_order_keeps_the_feasible_share():
    order = wl.dps2_order(5)
    assert len(order) == len(set(order)) == 961 and order == wl.dps2_order(5)
    assert order != wl.dps2_order(6)
    for n in (16, 100, 300):
        on_axis = sum(j == 0.0 or h == 0.0 for j, h in order[:n])
        assert abs(on_axis - n * 61 / 961) <= 1
    # every prefix spreads over the eigenvalue ranks of the infeasible points
    _, ranked = wl._stride_grid()
    for n in (60, 200):
        ranks = sorted(ranked.index(p) for p in order[:n] if p in ranked)
        gaps = [b - a for a, b in zip([-1] + ranks, ranks + [len(ranked)])]
        assert max(gaps) <= 3 * len(ranked) / len(ranks)


@pytest.fixture(scope="module")
def certified():
    certify = wl.Certify(3)
    accepted = next(p for p in certify.order if p[1] > 0.0)
    h0 = next(p for p in certify.order if p[1] == 0.0)
    return certify, certify.run(accepted), certify.run(h0)


def _gap(c):
    return wl.check_certified(c, 0.0 if c.h == 0.0 else None)


def test_certify_points_mix_h0_points_one_in_four():
    points = wl.certify_points(3)
    assert points == wl.certify_points(3)
    assert points != wl.certify_points(4)
    for n in (8, 40, 100):
        assert abs(sum(h == 0.0 for _, h in points[:n]) - n / 4) <= 1


def test_certify_gate_passes(certified):
    certify, accepted, h0 = certified
    assert len(accepted.validations) >= 3
    assert certify.check(None, accepted) == []
    assert certify.check(None, h0) == []


def _planted(c, edit):
    c = dataclasses.replace(
        c,
        reports={k: dataclasses.replace(r, diagnostics=dict(r.diagnostics)) for k, r in c.reports.items()},
        validations={k: dataclasses.replace(v) for k, v in c.validations.items()},
        decompositions=copy.deepcopy(c.decompositions),
    )
    edit(c)
    return c


@pytest.mark.parametrize("edit", [
    lambda c: setattr(c.reports["ppt_sdp"], "verdict", detect.VERDICT_INCONCLUSIVE),
    lambda c: c.reports["dps2"].diagnostics.update(verified=False),
    lambda c: c.reports["ppt_sdp"].diagnostics.update(optimum=c.reports["ppt_sdp"].diagnostics["optimum"] + 1e-3),
    lambda c: c.reports["ppt_sdp_swap"].diagnostics.update(optimum=c.reports["ppt_sdp"].diagnostics["optimum"] + 1e-3),
    lambda c: setattr(c.validations["dps2"], "min_value", -1e-6),
    lambda c: c.decompositions["ppt"][5].update(coefficient=c.decompositions["ppt"][5]["coefficient"] + 1e-6),
], ids=["verdict", "unverified", "duality", "swap", "witness", "decomposition"])
def test_certify_gate_fails_on_a_planted_answer(certified, edit):
    _, accepted, _ = certified
    assert len(_gap(_planted(accepted, edit))) == 1


def test_h0_gate_fails_on_a_planted_answer(certified):
    _, _, h0 = certified
    assert _gap(h0) == []
    flipped = _planted(h0, lambda c: setattr(c.reports["dps2"], "verdict", detect.VERDICT_QUANTUM))
    assert len(_gap(flipped)) == 1
    assert len(wl.check_certified(h0, 1e-8)) == 1
