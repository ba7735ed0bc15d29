"""Command-line front end: parameter sweeps, heatmaps, witness export, verify.

Commands:
  sweep    evaluate detection methods over a (J, h) grid, emit CSV
  heatmap  render a sweep CSV's value column as a static SVG heatmap
  witness  export the witness found at one parameter point as JSON
  verify   run the full acceptance suite

Grid convention: ``--j-range a:b:s`` takes the step *size* s with inclusive
endpoints (0:10:0.0667 gives 151 points).  Sweep rows are ordered J-major
then h and are independent of the worker count.  Exit codes: 0 success,
1 a ``verify`` run in which some criterion failed, 2 usage error or witness
export at an inconclusive point, 3 a point that could not be evaluated (a
process matrix that cannot be built, a solver failure or a solver result
that ``sdp.verify`` rejected) or a ``witness --validate N`` run in which
some classical-memory sample gave Tr(Z W_cl) < -1e-9.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import batch, detect, ising
from . import process as pr
from . import sdp
from . import tensorlinalg as tl

# the methods that find a witness, each evaluated on one process matrix; the
# lambdas look the detector up when called, so a wrapped or patched one is used
WITNESS_METHODS = {
    "ppt": lambda w: detect.ppt_witness(w),
    "ppt_sdp": lambda w: detect.witness_sdp(w),
    "dps2": lambda w: detect.dps2_feasibility(w),
}
METHODS = (*WITNESS_METHODS, "markov_distance")

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_SOLVER_FAILURE = 3

CSV_HEADER = "J,h,t,method,value,verdict,status"


@dataclass(frozen=True)
class Range:
    """Inclusive grid axis: lo, hi and the number of points."""

    lo: float
    hi: float
    points: int

    def __post_init__(self):
        if not math.isfinite(self.hi - self.lo):
            raise ValueError("range bounds and their span must be finite")
        if self.points < 1:
            raise ValueError("a range needs at least one point")
        if self.points == 1 and self.hi != self.lo:
            raise ValueError("a single-point range needs lo == hi")

    def values(self, stride: int = 1) -> list[float]:
        if self.points == 1:
            return [self.lo]
        step = (self.hi - self.lo) / (self.points - 1)
        return [self.lo + k * step for k in range(0, self.points, stride)]

    @staticmethod
    def parse(text: str) -> "Range":
        """Parse 'a:b:step' with step meaning step size.

        The step must divide b - a to a relative 1e-9, so that a rounded
        decimal step such as 1/15 still gives its exact point count.
        """
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range {text!r} is not of the form a:b:step")
        lo, hi, step = (float(p) for p in parts)
        if hi < lo:
            raise ValueError("range upper bound below lower bound")
        if hi == lo:
            return Range(lo, hi, 1)
        if step <= 0:
            raise ValueError("step size must be positive")
        steps = (hi - lo) / step
        if not math.isfinite(steps):
            raise ValueError(f"range {text!r} does not have a finite number of points")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"step {step} does not divide the span {hi - lo}")
        return Range(lo, hi, round(steps) + 1)


@dataclass(frozen=True)
class SweepConfig:
    """A sweep's settings; its defaults are the command line's."""

    j_range: Range = Range(0.0, 10.0, 151)
    h_range: Range = Range(0.0, 10.0, 151)
    t: float = 1.0
    methods: tuple[str, ...] = ("ppt",)
    out: str | None = None
    workers: int = 1
    norm: str = "trace"
    stride: int = 1

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")
        if not self.methods:
            raise ValueError("at least one method required")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods {self.methods} repeat a method")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
        if self.norm not in pr.NORMS:
            raise ValueError(f"norm must be one of {pr.NORMS}")
        if self.stride < 1 or self.workers < 1:
            raise ValueError("stride and workers must be >= 1")


@dataclass(frozen=True)
class SweepRow:
    J: float
    h: float
    t: float
    method: str
    value: float
    verdict: str
    status: str


def _error_row(J: float, h: float, t: float, method: str, exc) -> SweepRow:
    """A failed evaluation; the message is collapsed to one line to keep the CSV row whole."""
    message = " ".join(str(exc).split())
    return SweepRow(J, h, t, method, float("nan"), "error", f"error:{message}")


def _row_status(report: detect.WitnessReport) -> str:
    """The solver status of an SDP method (``ok`` otherwise), marked
    ``unverified:`` when the status is conclusive but ``sdp.verify`` failed."""
    status = str(report.diagnostics.get("solver_status", "ok"))
    if status in (sdp.OPTIMAL, sdp.INFEASIBLE) and not report.diagnostics["verified"]:
        return f"unverified:{status}"
    return status


def _failed(status: str) -> bool:
    """A row status that makes ``sweep`` exit with EXIT_SOLVER_FAILURE."""
    return status.startswith(("error:", "unverified:")) or status in (sdp.MAX_ITER, sdp.FAILURE)


# the factors of an (8, 8) stack entry of the row kernel
_PROCESS_FACTORS = tuple(zip(pr.PROCESS_LABELS, (2, 2, 2)))


def _sweep_row(task) -> list[SweepRow]:
    """Every configured method at each h of one J row, in ``methods`` order per point.

    The batched kernel builds the row's process matrices, the only W of the
    row, and gives ``ppt`` and ``markov_distance``.  The SDP methods are
    solved point by point on the same W, wrapped as a ``ProcessMatrix`` only
    at a point where one is asked for.  A point whose W is invalid gets the
    kernel's error text in every method's row.  The task holds the row's J
    index ``i``, which with the h index names its SDP dumps.
    """
    i, J, hs, t, methods, norm, dump_dir = task
    columns, stack = batch.evaluate_row(J, hs, t, norm)
    rows = []
    for k, h in enumerate(hs):
        w = None
        for method in methods:
            column = columns.get(method)
            error = (column or columns["ppt"]).errors[k]
            if error is not None:
                row = _error_row(J, h, t, method, error)
            elif column is not None:
                row = SweepRow(J, h, t, method, float(column.values[k]), column.verdicts[k], "ok")
            else:
                dump = dump_dir and os.path.join(dump_dir, f"sdp_{i:04d}_{k:04d}_{method}.json")
                try:
                    if w is None:
                        w = pr.ProcessMatrix(tl.operator(_PROCESS_FACTORS, stack[k]))
                    report = witness_report(w, method, dump)
                    status = _row_status(report)
                    row = SweepRow(J, h, t, method, report.value, report.verdict, status)
                except Exception as exc:
                    row = _error_row(J, h, t, method, exc)
            rows.append(row)
    return rows


def sweep(config: SweepConfig, dump_dir: str | None = None) -> list[SweepRow]:
    """Evaluate the configured methods on every grid point, J-major then h.

    One task per J row; with several workers the rows are spread over a
    process pool of at most one process per row, since the pool forks all
    its processes at once.  Per-point failures are recorded in their rows
    and the sweep continues.  Row values do not depend on the worker count,
    and neither do the names and bytes of the SDP dumps written to
    ``dump_dir``.
    """
    hs = config.h_range.values(config.stride)
    tasks = [
        (i, J, hs, config.t, config.methods, config.norm, dump_dir)
        for i, J in enumerate(config.j_range.values(config.stride))
    ]
    workers = min(config.workers, len(tasks))
    if workers <= 1:
        chunks = list(map(_sweep_row, tasks))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = max(1, len(tasks) // (4 * workers))
            chunks = list(pool.map(_sweep_row, tasks, chunksize=chunksize))
    return [row for chunk in chunks for row in chunk]


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{_fmt(r.J)},{_fmt(r.h)},{_fmt(r.t)},{r.method},{_fmt(r.value)},{r.verdict},{r.status}"
        )
    return "\n".join(lines) + "\n"


def rows_from_csv(text: str) -> list[SweepRow]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"expected header {CSV_HEADER!r}")
    rows = []
    for ln in lines[1:]:
        j, h, t, method, value, verdict, status = ln.split(",", 6)
        rows.append(
            SweepRow(float(j), float(h), float(t), method, float(value), verdict, status)
        )
    return rows


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# heatmap rendering (static SVG, byte-deterministic)
# ---------------------------------------------------------------------------

_STOPS = ((33, 62, 120), (245, 245, 245), (165, 32, 38))
_NAN_COLOR = "#808080"


def _color(value: float, vmin: float, vmax: float) -> str:
    if math.isnan(value):
        return _NAN_COLOR
    t = 0.5 if vmax <= vmin else (value - vmin) / (vmax - vmin)
    t = min(max(t, 0.0), 1.0)
    if t <= 0.5:
        a, b, u = _STOPS[0], _STOPS[1], t * 2
    else:
        a, b, u = _STOPS[1], _STOPS[2], (t - 0.5) * 2
    rgb = tuple(int(round(x + (y - x) * u)) for x, y in zip(a, b))
    return "#%02x%02x%02x" % rgb


def _pi_ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    ticks = []
    k = math.ceil(lo / math.pi - 1e-9)
    while k * math.pi <= hi + 1e-9:
        label = "0" if k == 0 else ("pi" if k == 1 else f"{k}pi")
        ticks.append((k * math.pi, label))
        k += 1
    return ticks


def render_heatmap(rows: list[SweepRow], path: str) -> None:
    """Write a raster-of-rects SVG of the value column over the (J, h) grid.

    The table must contain a single method; the color scale is linear from
    the minimum value to the maximum, axes carry ticks at multiples of pi, and
    identical input produces identical bytes.
    """
    if not rows:
        raise ValueError("empty table")
    methods = sorted({r.method for r in rows})
    if len(methods) != 1:
        raise ValueError(f"table mixes methods {methods}; filter to one before rendering")
    js = sorted({r.J for r in rows})
    hs = sorted({r.h for r in rows})
    grid = {(r.J, r.h): r.value for r in rows}
    finite = [v for v in grid.values() if not math.isnan(v)]
    vmin = min(finite) if finite else 0.0
    vmax = max(finite) if finite else 1.0

    left, top, plot_w, plot_h = 70, 20, 480, 480
    legend_x = left + plot_w + 30
    width, height = legend_x + 80, top + plot_h + 60
    cell_w = plot_w / len(js)
    cell_h = plot_h / len(hs)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i, jv in enumerate(js):
        for k, hv in enumerate(hs):
            v = grid.get((jv, hv), float("nan"))
            x = left + i * cell_w
            y = top + (len(hs) - 1 - k) * cell_h
            out.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w + 0.5:.2f}" '
                f'height="{cell_h + 0.5:.2f}" fill="{_color(v, vmin, vmax)}"/>'
            )

    def x_of(jv):
        if len(js) == 1:
            return left + plot_w / 2
        return left + (jv - js[0]) / (js[-1] - js[0]) * (plot_w - cell_w) + cell_w / 2

    def y_of(hv):
        if len(hs) == 1:
            return top + plot_h / 2
        return top + plot_h - cell_h / 2 - (hv - hs[0]) / (hs[-1] - hs[0]) * (plot_h - cell_h)

    axis_y = top + plot_h
    out.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    for value, label in _pi_ticks(js[0], js[-1]):
        x = x_of(value)
        out.append(f'<line x1="{x:.2f}" y1="{axis_y}" x2="{x:.2f}" y2="{axis_y + 6}" stroke="black"/>')
        out.append(f'<text x="{x:.2f}" y="{axis_y + 18}" text-anchor="middle">{label}</text>')
    for value, label in _pi_ticks(hs[0], hs[-1]):
        y = y_of(value)
        out.append(f'<line x1="{left - 6}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" stroke="black"/>')
        out.append(f'<text x="{left - 9}" y="{y + 4:.2f}" text-anchor="end">{label}</text>')
    out.append(
        f'<text x="{left + plot_w / 2}" y="{axis_y + 40}" text-anchor="middle">J</text>'
    )
    out.append(
        f'<text x="18" y="{top + plot_h / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {top + plot_h / 2})">h</text>'
    )

    n_band = 64
    band_h = plot_h / n_band
    for k in range(n_band):
        v = vmax - (vmax - vmin) * (k + 0.5) / n_band
        out.append(
            f'<rect x="{legend_x}" y="{top + k * band_h:.2f}" width="16" '
            f'height="{band_h + 0.5:.2f}" fill="{_color(v, vmin, vmax)}"/>'
        )
    out.append(f'<text x="{legend_x + 20}" y="{top + 10}">{_fmt(vmax)}</text>')
    out.append(f'<text x="{legend_x + 20}" y="{top + plot_h}">{_fmt(vmin)}</text>')
    if vmin < 0.0 < vmax:
        y0 = top + (vmax - 0.0) / (vmax - vmin) * plot_h
        out.append(f'<text x="{legend_x + 20}" y="{y0 + 4:.2f}">0</text>')
    out.append(f'<text x="{legend_x}" y="{top + plot_h + 18}">{methods[0]}:value</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# witness export
# ---------------------------------------------------------------------------

_PAULIS = {"I": tl.PAULI_I, "X": tl.PAULI_X, "Y": tl.PAULI_Y, "Z": tl.PAULI_Z}
# the 64 three-qubit Pauli products, in pauli_decomposition's order
_PAULI_PRODUCTS = tuple(
    (na + nb + nc, np.kron(np.kron(a, b), c))
    for na, a in _PAULIS.items()
    for nb, b in _PAULIS.items()
    for nc, c in _PAULIS.items()
)


class InconclusivePoint(Exception):
    pass


class SolverFailure(Exception):
    pass


def pauli_decomposition(z: tl.TensorOperator) -> list[dict]:
    """Coefficients of a three-qubit Hermitian operator over Pauli products."""
    z = tl.reorder(z, pr.PROCESS_LABELS)
    return [
        {"pauli": name, "coefficient": float(np.trace(p @ z.mat).real) / 8.0}
        for name, p in _PAULI_PRODUCTS
    ]


def witness_report(w: pr.ProcessMatrix, method: str, dump_path=None) -> detect.WitnessReport:
    """``method``'s report on ``w``.  With ``dump_path`` set, the SDP it
    solved, if any, is written there as JSON: problem and result."""
    if method not in WITNESS_METHODS:
        raise ValueError(f"method {method!r} does not produce witnesses")
    report = WITNESS_METHODS[method](w)
    if dump_path and report.sdp_run:
        problem, result = report.sdp_run
        payload = {"problem": sdp.problem_to_json(problem), "result": sdp.result_to_json(result)}
        with open(dump_path, "w") as fh:
            json.dump(payload, fh)
    return report


def export_witness(
    J: float, h: float, t: float, method: str, path: str, dump_dir: str | None = None
) -> dict:
    """Write the witness found at (J, h, t) to a JSON file.

    The exported operator is rescaled to unit spectral norm; the recorded
    value is Tr(Z W) for the rescaled witness, with the raw method value kept
    in the diagnostics.  Raises SolverFailure when W cannot be built (an
    overflow, say), when the solver failed or when its result is unverified,
    and InconclusivePoint when there is no witness.  With ``dump_dir`` set,
    the SDP solved is written there first, as ``sdp_<method>.json``.
    """
    try:
        # the exception is the report: an overflow's warnings would repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            w = ising.process_matrix(J, h, t)
    except ValueError as exc:
        raise SolverFailure(f"no process matrix at (J={J}, h={h}, t={t}): {exc}") from exc
    report = witness_report(w, method, dump_dir and os.path.join(dump_dir, f"sdp_{method}.json"))
    status = _row_status(report)
    if _failed(status):
        raise SolverFailure(f"no verified solver result at ({J}, {h}, {t}): {status}")
    if report.verdict != detect.VERDICT_QUANTUM or report.witness is None:
        raise InconclusivePoint(
            f"{method} found no quantum-memory witness at (J={J}, h={h}, t={t})"
        )
    scale = tl.spectral_norm(report.witness)
    z = report.witness * (1.0 / scale)
    value = float(np.trace(tl.reorder(z, pr.PROCESS_LABELS).mat @ w.op.mat).real)
    payload = {
        "operator": tl.to_json_dict(z),
        "method": report.method,
        "value": value,
        "point": {"J": J, "h": h, "t": t},
        "diagnostics": {
            "raw_value": report.value,
            "witness_scale": scale,
            **{
                k: v
                for k, v in report.diagnostics.items()
                if isinstance(v, (int, float, str, bool))
            },
        },
        "decomposition": pauli_decomposition(z),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    return payload


def reevaluate_witness_file(path: str) -> float:
    """Re-import an exported witness and recompute Tr(Z W) at its point;
    ValueError naming the field the file lacks."""
    with open(path) as fh:
        payload = json.load(fh)
    for key in ("operator", "point"):
        if key not in payload:
            raise ValueError(f"witness file lacks {key}")
    z = tl.from_json_dict(payload["operator"])
    p = payload["point"]
    for key in ("J", "h", "t"):
        if key not in p:
            raise ValueError(f"witness file point lacks {key}")
    w = ising.process_matrix(p["J"], p["h"], p["t"])
    return float(np.trace(tl.reorder(z, pr.PROCESS_LABELS).mat @ w.op.mat).real)


# ---------------------------------------------------------------------------
# config file + argument parsing
# ---------------------------------------------------------------------------


def read_config(path: str) -> dict[str, str]:
    """Flat key-value file: 'key = value' lines, '#' comments."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


# the keys a --config file may set, one per sweep flag: the SweepConfig field
# each fills and the parser of its value
_CONFIG_KEYS = {
    "j_range": ("j_range", Range.parse),
    "h_range": ("h_range", Range.parse),
    "t": ("t", float),
    "method": ("methods", lambda text: tuple(m.strip() for m in text.split(","))),
    "out": ("out", str),
    "workers": ("workers", int),
    "norm": ("norm", str),
    "stride": ("stride", int),
}


def _build_sweep_config(args) -> SweepConfig:
    """The sweep's settings: a flag over its --config key over SweepConfig's default."""
    conf = read_config(args.config) if args.config else {}
    unknown = sorted(set(conf) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; choose from {tuple(_CONFIG_KEYS)}")
    settings = {}
    for key, (name, parse) in _CONFIG_KEYS.items():
        flag = getattr(args, key)
        if flag is not None:
            settings[name] = flag
        elif key in conf:
            settings[name] = parse(conf[key])
    return SweepConfig(**settings)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _int_at_least(lowest: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"{text!r} must be >= {lowest}")
        return value

    return parse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="qmemwit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="evaluate methods over a (J, h) grid")
    sw.add_argument("--j-range", type=Range.parse, help="a:b:step (step size)")
    sw.add_argument("--h-range", type=Range.parse, help="a:b:step (step size)")
    sw.add_argument("--t", type=_finite_float)
    sw.add_argument("--method", action="append", choices=METHODS)
    sw.add_argument("--workers", type=_int_at_least(1))
    sw.add_argument("--norm", choices=pr.NORMS)
    sw.add_argument("--stride", type=_int_at_least(1))
    sw.add_argument("--out")
    sw.add_argument("--config")
    sw.add_argument("--dump-sdp", metavar="DIR",
                    help="write each SDP solved to DIR as sdp_<i>_<k>_<method>.json")

    hm = sub.add_parser("heatmap", help="render a sweep CSV as an SVG heatmap")
    hm.add_argument("--table", required=True, help="CSV produced by sweep")
    hm.add_argument("--method", choices=METHODS, help="filter the table to one method")
    hm.add_argument("--out", required=True)

    wt = sub.add_parser("witness", help="export the witness at one point")
    wt.add_argument("--j", type=_finite_float, required=True)
    wt.add_argument("--h", type=_finite_float, required=True)
    wt.add_argument("--t", type=_finite_float, default=1.0)
    wt.add_argument("--method", choices=tuple(WITNESS_METHODS), default="ppt")
    wt.add_argument("--out", required=True)
    wt.add_argument("--validate", type=_int_at_least(0), metavar="N", default=0,
                    help="also check the witness on N random classical-memory processes")
    wt.add_argument("--seed", type=int, default=2024)
    wt.add_argument("--dump-sdp", metavar="DIR", help="write the SDP solved to DIR as sdp_<method>.json")

    vf = sub.add_parser("verify", help="run the full acceptance suite")
    vf.add_argument("--workers", type=_int_at_least(1), default=None)

    args = parser.parse_args(argv)

    if args.command == "sweep":
        try:
            config = _build_sweep_config(args)
            # an unusable --out or --dump-sdp fails here, before any point is evaluated
            if args.dump_sdp:
                os.makedirs(args.dump_sdp, exist_ok=True)
            out = open(config.out, "w") if config.out else sys.stdout
        except (OSError, ValueError) as exc:
            sw.error(str(exc))
        rows = sweep(config, args.dump_sdp)
        out.write(rows_to_csv(rows))
        if out is not sys.stdout:
            out.close()
        if any(_failed(r.status) for r in rows):
            return EXIT_SOLVER_FAILURE
        return EXIT_OK

    if args.command == "heatmap":
        try:
            with open(args.table) as fh:
                rows = rows_from_csv(fh.read())
            if args.method:
                rows = [r for r in rows if r.method == args.method]
            render_heatmap(rows, args.out)
        except (OSError, ValueError) as exc:
            hm.error(str(exc))
        return EXIT_OK

    if args.command == "witness":
        try:
            # an unusable --out or --dump-sdp fails here, before the solve; the
            # --out this creates is removed again unless a witness is written
            if args.dump_sdp:
                os.makedirs(args.dump_sdp, exist_ok=True)
            created = not os.path.exists(args.out)
            open(args.out, "a").close()
        except OSError as exc:
            wt.error(str(exc))
        payload = None
        try:
            payload = export_witness(args.j, args.h, args.t, args.method, args.out, args.dump_sdp)
        except InconclusivePoint as exc:
            print(f"inconclusive: {exc}", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        except SolverFailure as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SOLVER_FAILURE
        finally:
            if payload is None and created:
                os.remove(args.out)
        print(f"wrote {args.out}: Tr(ZW) = {payload['value']:.12g}")
        if args.validate:
            z = tl.from_json_dict(payload["operator"])
            val = detect.validate_witness(z, args.validate, seed=args.seed)
            print(
                f"validation over {val.n_samples} classical-memory samples: "
                f"min Tr(ZW_cl) = {val.min_value:.3e}, failures = {len(val.failures)}"
            )
            if not val.ok:
                return EXIT_SOLVER_FAILURE
        return EXIT_OK

    if args.command == "verify":
        from . import acceptance

        results = acceptance.run_all(workers=args.workers)
        return EXIT_OK if all(r.passed for r in results) else 1

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
