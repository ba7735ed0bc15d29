"""Run one benchmark workload of qmemwit in a fresh process and print its metrics.

    python3 perfbench/run.py --workload phase_sweep --seed 1 --seconds 36 --trace 0

``--trace 0`` works through the workload's units for ``--seconds`` seconds
and prints the end-to-end metrics.  ``--trace 1`` runs the workload's fixed
trace set twice, traced then untraced, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run also
writes its full result, with the environment record, to ``.perfbench-out/``
at the root of the checkout; a traced run writes its spans there too.

The program runs in this process with ``workers=1`` and one BLAS thread,
unless the caller sets ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import metrics
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOAD_NAMES = ("phase_sweep", "dps2_grid", "certify")
SETUP_PROBES = 2  # set-ups in fresh processes, besides this process's own
PROBE_TIMEOUT_S = 60


def load_program():
    """Import qmemwit from the checkout and warm it up; returns (workloads, seconds)."""
    # one BLAS thread unless the caller chose otherwise; see README.md, "BLAS threading"
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workloads.warm_up()
    elapsed = time.perf_counter() - start
    import qmemwit

    origin = Path(qmemwit.__file__).resolve().parent
    if origin != (SRC / "qmemwit").resolve():
        raise RuntimeError(f"qmemwit was imported from {origin}, not from {SRC}")
    return workloads, elapsed


def setup_probe() -> float:
    """Set-up time measured in a fresh interpreter running this script."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


@dataclass
class Pass:
    """Per-unit latencies (seconds per point) and outcomes of one pass."""

    samples: list[float] = field(default_factory=list)
    work_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def run_units(workload, units, deadline: float | None = None, tracer: Tracer | None = None) -> Pass:
    """Time each unit's program call, then check its outputs untimed.

    Stops after the first unit that ends past ``deadline``.  A unit that
    raises fails every point in it; the run goes on.
    """
    p = Pass()
    for index, unit in enumerate(units):
        n = workload.points(unit)
        start = time.perf_counter()
        try:
            if tracer is None:
                outcome = workload.run(unit)
            else:
                outcome = tracer.run_point(index, workload.run, unit)
            error = None
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        p.samples.append(elapsed / n)
        p.work_s += elapsed
        p.attempted += n
        if error is None:
            try:
                p.failures += workload.check(unit, outcome)
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is not None:
            p.failures += [f"{unit}: {error}"] * n
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return p


def timed_run(workload, seconds: int, setup_s: float) -> tuple[dict, dict, Pass]:
    p = run_units(workload, workload.units(), deadline=time.perf_counter() + seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [setup_probe() for _ in range(SETUP_PROBES)]
    tail_s, percentile, beyond = metrics.tail(p.samples)
    values = {
        "setup_s": statistics.median(setups),
        "points_per_s": p.attempted / p.work_s,
        "point_p50_ms": statistics.median(p.samples) * 1e3,
        "point_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "setup_samples_s": setups,
        "latency_samples": len(p.samples),
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
        "failed_frac": len(p.failures) / p.attempted,
        "work_s": p.work_s,
        "latency_samples_ms": [t * 1e3 for t in p.samples],
    }
    return values, details, p


def _solve_extra(args, kwargs, result) -> dict:
    problem = args[0] if args else kwargs["problem"]
    return {
        "status": result.status,
        "iterations": int(result.info.get("iterations", 0)),
        "m": int(problem.constraint_set.m),
        "block_dims": list(problem.block_dims),
    }


def _verify_extra(args, kwargs, report) -> dict:
    return {"ok": bool(report.ok)}


def traced_run(workload) -> tuple[dict, dict, Pass, Tracer]:
    """The trace set traced, then untraced; per-layer metrics from the spans.

    The traced pass goes first so that it, not the untraced pass, pays for
    caches the program fills on first use within a run (the classical-memory
    samples of ``validate_witness``).  The overhead compares median per-point
    latencies, which that one cold point does not move.
    """
    units = list(itertools.islice(workload.units(), workload.trace_units))
    modules = {name: importlib.import_module(f"qmemwit.{name}") for name in metrics.TRACED_MODULES}
    annotate = {"sdp.solve": _solve_extra, "sdp.verify": _verify_extra}
    with Tracer(modules, annotate) as tracer:
        traced = run_units(workload, units, tracer=tracer)
    untraced = run_units(workload, units)
    values = metrics.layer_metrics(tracer.spans, traced.attempted)
    values["trace_overhead_frac"] = (
        statistics.median(traced.samples) / statistics.median(untraced.samples) - 1.0
    )
    details = {
        "traced_work_s": traced.work_s,
        "untraced_work_s": untraced.work_s,
        "spans": len(tracer.spans),
        "inclusive_us_per_point": metrics.inclusive_us_per_point(tracer.spans, traced.attempted),
        "untraced_failures": len(untraced.failures),
    }
    return values, details, traced, tracer


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload: str, seed: int, points: int) -> dict:
    import numpy
    import scipy

    def blas(config) -> dict:
        info = config.get("Build Dependencies", {}).get("blas", {})
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_numpy": blas(numpy.show_config(mode="dicts")),
        "blas_scipy": blas(scipy.show_config(mode="dicts")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "points": points,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_probe and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qmemwit" / "__init__.py").is_file():
        print(f"error: no qmemwit sources under {SRC}", file=sys.stderr)
        return 2
    workloads, setup_s = load_program()
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        values, details, p, tracer = traced_run(workload)
        units = dict(metrics.LAYER_METRICS)
    else:
        values, details, p = timed_run(workload, args.seconds, setup_s)
        tracer = None
        units = metrics.END_TO_END_UNITS

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": not p.failures,
        "attempted": p.attempted,
        "failed": len(p.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        **result,
        "details": details,
        "failures": p.failures[:20],
        "environment": environment(args.workload, args.seed, p.attempted),
    }
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl")

    for line in p.failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  points {p.attempted}")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(
            f"  point_tail_ms is p{details['tail_percentile']:.2f} of {details['latency_samples']} "
            f"samples, {details['tail_samples_beyond']} beyond it"
        )
    print(f"  failed_frac {len(p.failures) / p.attempted:.6g} ({len(p.failures)} of {p.attempted} points)")
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
