"""The benchmark's workloads: inputs made from the seed, the timed calls into
qmemwit, and the correctness gates that decide whether a point failed.

A workload hands out work units: one J row of the grid for ``phase_sweep``,
one (J, h) point otherwise.  ``run`` is the timed call into the program and
every call in it goes through a module attribute, so a tracer can wrap it.
``check`` runs untimed and untraced and returns one line per failed point.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from qmemwit import acceptance, cli, detect, ising, sdp
from qmemwit import process as pr
from qmemwit import tensorlinalg as tl

T = 1.0
GRID = cli.Range(0.0, 10.0, 151)
SWEEP_METHODS = ("ppt", "markov_distance")
DPS2_STRIDE = 5
INV_GOLDEN = (5**0.5 - 1) / 2
LATTICE = ising.markovian_points(10.5, 10.5)

# thresholds of the acceptance criteria the gates restate
LATTICE_MARGIN = 0.2  # criterion 6: ppt < 0 farther than this from the Markovian set
PPT_MARGIN = 1e-6  # criteria 3, 4 and 6
MARKOV_ZERO = 1e-9  # the markov_distance verdict threshold
H0_GAP = 1e-10  # criterion 2
WITNESS_FLOOR = -1e-9  # criterion 5
DECOMPOSITION_TOL = 1e-10
VALIDATION_SAMPLES = 1000

# off the sweep grid, and a quantum-memory point, so dps2 takes its certificate path
WARM_UP_POINT = (1.3, 0.7)

SOLVED = ("ppt_sdp", "ppt_sdp_swap", "dps2")
CONCLUSIVE = (sdp.OPTIMAL, sdp.INFEASIBLE)


def warm_up() -> None:
    """One call of each method at a fixed point outside every workload.

    Builds what the program caches across points: the dps2 constraint
    template, its real embedding and the identity multiplier.
    """
    j, h = WARM_UP_POINT
    point = cli.SweepConfig(
        j_range=cli.Range(j, j, 1), h_range=cli.Range(h, h, 1), t=T, methods=cli.METHODS
    )
    cli.rows_to_csv(cli.sweep(point))
    w = ising.process_matrix(j, h, T)
    detect.witness_sdp(w, swap_symmetric=True)
    z = detect.ppt_witness(w).witness
    detect.validate_witness(z, 8, seed=0)
    cli.pauli_decomposition(z)


# ---------------------------------------------------------------------------
# phase_sweep
# ---------------------------------------------------------------------------


def check_sweep_point(j: float, h: float, by_method: dict) -> list[str]:
    """Criterion 6's structure checks at one grid point."""
    ppt, md = by_method.get("ppt"), by_method.get("markov_distance")
    if ppt is None or md is None:
        return ["a method row is missing"]
    out = [f"{r.method} status {r.status}" for r in (ppt, md) if r.status != "ok"]
    on_lattice = any(abs(j - lj) <= 1e-9 and abs(h - lh) <= 1e-9 for lj, lh in LATTICE)
    distance = min(min(math.hypot(j - lj, h - lh) for lj, lh in LATTICE), abs(j))
    if distance > LATTICE_MARGIN and not ppt.value < 0:
        out.append(f"ppt {ppt.value:.3e} is not negative off the Markovian set")
    if on_lattice and not abs(ppt.value) <= PPT_MARGIN:
        out.append(f"|ppt| {abs(ppt.value):.3e} > {PPT_MARGIN} on the lattice")
    markovian = on_lattice or abs(j) <= 1e-12
    if (md.value <= MARKOV_ZERO) != markovian:
        out.append(f"markov_distance {md.value:.3e} on a point with markovian={markovian}")
    return out


def check_sweep_row(rows: list, text: str) -> list[str]:
    """One line per failed grid point of a swept row and its CSV."""
    points: dict[tuple[float, float], dict] = {}
    for r in rows:
        points.setdefault((r.J, r.h), {})[r.method] = r
    problems: dict[tuple[float, float], list[str]] = {p: [] for p in points}
    parsed = cli.rows_from_csv(text)
    if len(parsed) != len(rows):
        return [f"({j}, {h}): the CSV holds {len(parsed)} rows, not {len(rows)}" for j, h in points]
    for r, p in zip(rows, parsed):
        same = (p.method, p.verdict, p.status) == (r.method, r.verdict, r.status) and (
            math.isclose(p.value, r.value, rel_tol=1e-9, abs_tol=1e-12)
            or (math.isnan(p.value) and math.isnan(r.value))
        )
        if not same:
            problems[(r.J, r.h)].append(f"the CSV line for {r.method} does not match the row")
    for (j, h), by_method in points.items():
        problems[(j, h)] += check_sweep_point(j, h, by_method)
    return [f"({j}, {h}): " + "; ".join(p) for (j, h), p in problems.items() if p]


class PhaseSweep:
    """The paper's 151 x 151 grid, one J row per unit through cli.sweep and
    cli.rows_to_csv, J-major as ``qmemwit sweep`` orders it.  The grid is
    fixed: the seed is recorded and not used."""

    name = "phase_sweep"
    trace_units = 10

    def __init__(self, seed: int):
        self.js = GRID.values()

    def units(self):
        return itertools.cycle(self.js)

    def points(self, unit) -> int:
        return GRID.points

    def run(self, j: float):
        config = cli.SweepConfig(
            j_range=cli.Range(j, j, 1), h_range=GRID, t=T, methods=SWEEP_METHODS
        )
        rows = cli.sweep(config)
        return rows, cli.rows_to_csv(rows)

    def check(self, j: float, outcome) -> list[str]:
        return check_sweep_row(*outcome)


# ---------------------------------------------------------------------------
# dps2_grid
# ---------------------------------------------------------------------------


def ppt_eigenvalue(point: tuple[float, float]) -> float:
    return detect.ppt_min_eig(ising.process_matrix(point[0], point[1], T))


def spread_by_hardness(ranked: list, rng: np.random.Generator) -> list:
    """Points ranked by ppt eigenvalue, in an order whose every prefix
    spreads evenly over the ranks.

    The eigenvalue sets how many iterations an SDP needs to prove a point
    infeasible, so a prefix drawn this way holds easy and hard points in the
    shares of the whole list.  Rank r is visited at key frac(u + r / golden
    ratio), with u drawn from the seed; prefixes of that sequence are close
    to systematic samples of the ranks.
    """
    u = rng.random()
    keyed = sorted(((u + r * INV_GOLDEN) % 1.0, r) for r in range(len(ranked)))
    return [ranked[r] for _, r in keyed]


def interleave(sequences: list[list]) -> list:
    """Merge the sequences evenly, each in its own order, so that every
    prefix holds each sequence in its share of the whole."""
    keyed = [
        ((k + 0.5) / len(seq), i, item)
        for i, seq in enumerate(sequences)
        for k, item in enumerate(seq)
    ]
    return [item for _, _, item in sorted(keyed, key=lambda kv: kv[:2])]


@functools.cache
def _stride_grid() -> tuple[list, list]:
    axis = GRID.values(stride=DPS2_STRIDE)
    grid = [(j, h) for j in axis for h in axis]
    classical = [p for p in grid if p[0] == 0.0 or p[1] == 0.0]
    rest = sorted((p for p in grid if p[0] != 0.0 and p[1] != 0.0), key=ppt_eigenvalue)
    return classical, rest


def dps2_order(seed: int) -> list[tuple[float, float]]:
    """Criterion 6's 31 x 31 stride grid in a seeded order whose every prefix
    is a representative sample of the whole grid.

    The J = 0 column and the h = 0 row (61 of 961 points) are classical: the
    extension SDP is feasible there and takes several times longer.  They are
    shuffled and interleaved evenly with the other points, which are spread
    by ppt eigenvalue, so a run that stops anywhere has drawn the feasible
    points in their share of the full grid and the infeasible ones across
    their range of hardness.
    """
    rng = np.random.default_rng(seed)
    classical, rest = _stride_grid()
    shuffled = [classical[i] for i in rng.permutation(len(classical))]
    return interleave([shuffled, spread_by_hardness(rest, rng)])


def check_dps2_point(report: detect.WitnessReport, lam: float) -> list[str]:
    """Criterion 6's agreement check plus a verified, conclusive solve."""
    out = []
    status = report.diagnostics.get("solver_status")
    if status not in CONCLUSIVE:
        out.append(f"solver status {status}")
    if not report.diagnostics.get("verified"):
        out.append("sdp.verify failed")
    if abs(lam) > PPT_MARGIN:
        expected = detect.VERDICT_QUANTUM if lam < 0 else detect.VERDICT_INCONCLUSIVE
        if report.verdict != expected:
            out.append(f"dps2 says {report.verdict} where the ppt eigenvalue is {lam:.3e}")
    return ["; ".join(out)] if out else []


class Dps2Grid:
    """process_matrix then dps2_feasibility at each point of the stride grid."""

    name = "dps2_grid"
    trace_units = 48

    def __init__(self, seed: int):
        self.order = dps2_order(seed)

    def units(self):
        return itertools.cycle(self.order)

    def points(self, unit) -> int:
        return 1

    def run(self, point):
        w = ising.process_matrix(point[0], point[1], T)
        return w, detect.dps2_feasibility(w)

    def check(self, point, outcome) -> list[str]:
        w, report = outcome
        lines = check_dps2_point(report, detect.ppt_min_eig(w))
        return [f"{point}: {line}" for line in lines]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def certify_points(seed: int, n_accepted: int = 960) -> list[tuple[float, float]]:
    """Seeded acceptance points spread by ppt eigenvalue, with one h = 0 point
    in every four.

    The pool is large so that its eigenvalues, and with them the solver's
    iteration counts, follow the same distribution for every seed.  The
    h = 0 points take J in (0.3, 10) from a golden-ratio sequence with a
    seeded offset, which spreads them evenly too.
    """
    rng = np.random.default_rng([seed, 1])
    accepted = acceptance.acceptance_points(n_accepted, seed=seed)
    u = rng.random()
    h0 = [(0.3 + 9.7 * ((u + k * INV_GOLDEN) % 1.0), 0.0) for k in range(n_accepted // 3)]
    ranked = sorted(accepted, key=ppt_eigenvalue)
    return interleave([h0, spread_by_hardness(ranked, rng)])


@dataclass
class Certified:
    """Everything the witness pipeline produced at one point."""

    j: float
    h: float
    w: pr.ProcessMatrix
    reports: dict[str, detect.WitnessReport]
    validations: dict[str, detect.WitnessValidation]
    decompositions: dict[str, list[dict]]


def _pauli_sum(decomposition: list[dict]) -> np.ndarray:
    paulis = {"I": tl.PAULI_I, "X": tl.PAULI_X, "Y": tl.PAULI_Y, "Z": tl.PAULI_Z}
    out = np.zeros((8, 8), dtype=complex)
    for term in decomposition:
        a, b, c = (paulis[p] for p in term["pauli"])
        out += term["coefficient"] * np.kron(np.kron(a, b), c)
    return out


def check_certified(c: Certified, h0_gap: float | None) -> list[str]:
    """Criteria 2-5 and 7 at one point; ``h0_gap`` is |W - analytic_h0| at h = 0."""
    out = []
    for name in SOLVED:
        d = c.reports[name].diagnostics
        if d.get("solver_status") not in CONCLUSIVE or not d.get("verified"):
            out.append(f"{name}: unverified solve with status {d.get('solver_status')}")
    if c.h != 0.0:
        for name in ("ppt", "ppt_sdp", "dps2"):
            if c.reports[name].verdict != detect.VERDICT_QUANTUM:
                out.append(f"{name} verdict {c.reports[name].verdict} at an acceptance point")
    lam = c.reports["ppt"].diagnostics["min_eig"]
    optimum = c.reports["ppt_sdp"].diagnostics.get("optimum")
    swapped = c.reports["ppt_sdp_swap"].diagnostics.get("optimum")
    if optimum is None or not abs(optimum + lam) <= PPT_MARGIN:
        out.append(f"SDP optimum {optimum} does not match the eigenvalue {lam:.3e}")
    if optimum is None or swapped is None or not swapped <= optimum + PPT_MARGIN:
        out.append(f"swap-restricted optimum {swapped} exceeds the unrestricted {optimum}")
    if c.h == 0.0:
        dps2 = c.reports["dps2"]
        if dps2.diagnostics.get("solver_status") != sdp.OPTIMAL or dps2.verdict != detect.VERDICT_INCONCLUSIVE:
            out.append("dps2 is not feasible at h = 0")
        if h0_gap is None or not h0_gap <= H0_GAP:
            out.append(f"|W - analytic_h0| = {h0_gap} at h = 0")
    for name, v in c.validations.items():
        if v.failures or not v.min_value >= WITNESS_FLOOR:
            out.append(f"{name} witness reaches Tr(Z W_cl) = {v.min_value:.3e}")
    for name, dec in c.decompositions.items():
        z = tl.reorder(c.reports[name].witness, pr.PROCESS_LABELS).mat
        err = float(np.max(np.abs(_pauli_sum(dec) - z)))
        if not err <= DECOMPOSITION_TOL * (1.0 + float(np.max(np.abs(z)))):
            out.append(f"{name} Pauli decomposition is off by {err:.3e}")
    return ["; ".join(out)] if out else []


class Certify:
    """The witness pipeline of criteria 2-5 and 7 at seeded points: every
    detector, then validation and Pauli decomposition of each witness."""

    name = "certify"
    trace_units = 20

    def __init__(self, seed: int):
        self.seed = seed
        self.order = certify_points(seed)

    def units(self):
        return itertools.cycle(self.order)

    def points(self, unit) -> int:
        return 1

    def run(self, point) -> Certified:
        j, h = point
        w = ising.process_matrix(j, h, T)
        reports = {
            "ppt": detect.ppt_witness(w),
            "ppt_sdp": detect.witness_sdp(w),
            "ppt_sdp_swap": detect.witness_sdp(w, swap_symmetric=True),
            "dps2": detect.dps2_feasibility(w),
        }
        validations, decompositions = {}, {}
        for name, report in reports.items():
            if report.witness is not None:
                validations[name] = detect.validate_witness(
                    report.witness, VALIDATION_SAMPLES, seed=self.seed
                )
                decompositions[name] = cli.pauli_decomposition(report.witness)
        return Certified(j, h, w, reports, validations, decompositions)

    def check(self, point, c: Certified) -> list[str]:
        gap = tl.max_abs_diff(c.w.op, ising.analytic_h0(c.j, T).op) if c.h == 0.0 else None
        return [f"{point}: {line}" for line in check_certified(c, gap)]


WORKLOADS = {cls.name: cls for cls in (PhaseSweep, Dps2Grid, Certify)}
