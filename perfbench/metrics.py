"""End-to-end and per-layer metrics of a benchmark run.

The per-layer names follow ``<module>.<function>.<stat>``; ``LAYER_METRICS``
is the list ``BENCHMARK.json`` declares, in the same order.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from tracer import Span, self_times_ns

TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "point_p50_ms": "ms",
    "point_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

TRACED_MODULES = ("ising", "process", "tensorlinalg", "detect", "sdp", "cli")

LAYER_FUNCTIONS = (
    "ising.evolution",
    "ising.process_matrix",
    "process.choi_of_unitary",
    "process.link_product",
    "process.validate_comb",
    "process.marginal_markovian",
    "process.markov_distance",
    "tensorlinalg.partial_transpose",
    "tensorlinalg.partial_trace",
    "tensorlinalg.trace_and_replace",
    "tensorlinalg.reorder",
    "tensorlinalg.kron",
    "tensorlinalg.herm_eig",
    "tensorlinalg.unitary_from_hamiltonian",
    "tensorlinalg.trace_norm",
    "detect.ppt_witness",
    "cli.sweep",
    "cli.rows_to_csv",
    "sdp.solve",
    "sdp.verify",
    "detect.dps2_feasibility",
    "detect.witness_sdp",
    "detect.validate_witness",
    "process.random_classical_memory",
    "process.classical_memory_process",
    "process.project_L",
    "cli.pauli_decomposition",
)

SOLVER_STATUSES = ("optimal", "infeasible", "max_iterations", "numerical_failure")

SOLVER_STATS = (
    ("iterations_mean", "count"),
    ("iterations_optimal_mean", "count"),
    ("iterations_infeasible_mean", "count"),
    ("ms_per_iteration", "ms"),
    ("constraints_mean", "count"),
    ("schur_mflop_computed", "Mflop"),
) + tuple((f"status_{s}_frac", "fraction") for s in SOLVER_STATUSES)

LAYER_METRICS: tuple[tuple[str, str], ...] = (
    tuple(
        (f"{fn}.{stat}", unit)
        for fn in LAYER_FUNCTIONS
        for stat, unit in (("calls_per_point", "count"), ("self_us_per_point", "us"))
    )
    + (
        ("tensorlinalg.calls_per_point", "count"),
        ("tensorlinalg.self_us_per_point", "us"),
    )
    + tuple((f"sdp.solve.{stat}", unit) for stat, unit in SOLVER_STATS)
    + (("sdp.verify.ok_frac", "fraction"), ("trace_overhead_frac", "fraction"))
)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    ``TAIL_BEYOND`` samples beyond it; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def schur_flop_per_iteration(m: int, block_dims) -> float:
    """Dense flop count of one Schur-complement assembly, computed from sizes.

    Complex blocks of side d are solved as real blocks of side n = 2d:
    W A_k W for every constraint (4 m n^3) and the m x m inner products
    (2 m^2 n^2), summed over blocks.
    """
    sides = [2 * d for d in block_dims]
    return sum(4.0 * m * n**3 + 2.0 * m * m * n * n for n in sides)


def layer_metrics(spans: list[Span], points: int) -> dict[str, float]:
    """Every metric of ``LAYER_METRICS`` except ``trace_overhead_frac``.

    Counts and times are divided by the number of grid points in the traced
    pass.  A statistic over no calls reads 0.
    """
    selfs = self_times_ns(spans)
    calls: Counter[str] = Counter()
    self_ns: defaultdict[str, int] = defaultdict(int)
    for span, own in zip(spans, selfs):
        calls[span.name] += 1
        self_ns[span.name] += own

    out: dict[str, float] = {}
    for fn in LAYER_FUNCTIONS:
        out[f"{fn}.calls_per_point"] = calls[fn] / points
        out[f"{fn}.self_us_per_point"] = self_ns[fn] / 1e3 / points
    tl_names = [n for n in calls if n.startswith("tensorlinalg.")]
    out["tensorlinalg.calls_per_point"] = sum(calls[n] for n in tl_names) / points
    out["tensorlinalg.self_us_per_point"] = sum(self_ns[n] for n in tl_names) / 1e3 / points

    solves = [s for s in spans if s.name == "sdp.solve" and s.extra]
    iters = [s.extra["iterations"] for s in solves]
    total_iters = sum(iters)
    flops = [schur_flop_per_iteration(s.extra["m"], s.extra["block_dims"]) for s in solves]
    out["sdp.solve.iterations_mean"] = _mean(iters)
    for status in ("optimal", "infeasible"):
        out[f"sdp.solve.iterations_{status}_mean"] = _mean(
            s.extra["iterations"] for s in solves if s.extra["status"] == status
        )
    solve_ms = sum(s.end_ns - s.start_ns for s in solves) / 1e6
    out["sdp.solve.ms_per_iteration"] = solve_ms / total_iters if total_iters else 0.0
    out["sdp.solve.constraints_mean"] = _mean(s.extra["m"] for s in solves)
    out["sdp.solve.schur_mflop_computed"] = (
        sum(f * i for f, i in zip(flops, iters)) / total_iters if total_iters else _mean(flops)
    ) / 1e6
    for status in SOLVER_STATUSES:
        hits = sum(s.extra["status"] == status for s in solves)
        out[f"sdp.solve.status_{status}_frac"] = hits / len(solves) if solves else 0.0
    checks = [s.extra["ok"] for s in spans if s.name == "sdp.verify" and s.extra]
    out["sdp.verify.ok_frac"] = _mean(float(ok) for ok in checks)
    return out


def inclusive_us_per_point(spans: list[Span], points: int) -> dict[str, float]:
    """Inclusive time per point of every traced function, children included."""
    total: defaultdict[str, int] = defaultdict(int)
    for s in spans:
        total[s.name] += s.end_ns - s.start_ns
    return {name: ns / 1e3 / points for name, ns in sorted(total.items())}
