"""Command-line front end: parameter sweeps, heatmaps, witness export, verify.

Commands:
  sweep    evaluate detection methods over a (J, h) grid, emit CSV
  heatmap  render a sweep CSV column as a static SVG heatmap
  witness  export the witness found at one parameter point as JSON
  verify   run the full acceptance suite

Grid convention: ``--j-range a:b:s`` takes the step *size* s with inclusive
endpoints (0:10:0.0667 gives 151 points).  Sweep rows are ordered J-major
then h and are independent of the worker count.  Exit codes: 0 success,
2 witness export at an inconclusive point, 3 solver failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from dataclasses import dataclass, replace

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
        """Parse 'a:b:step' with step meaning step size."""
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
        points = int(round((hi - lo) / step)) + 1
        return Range(lo, hi, points)


@dataclass(frozen=True)
class SweepConfig:
    j_range: Range
    h_range: Range
    t: float = 1.0
    methods: tuple[str, ...] = ("ppt",)
    out: str | None = None
    workers: int = 1
    norm: str = "trace"
    stride: int = 1

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")
        if not self.methods:
            raise ValueError("at least one method required")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
        if self.norm not in ("trace", "frobenius"):
            raise ValueError("norm must be 'trace' or 'frobenius'")
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


def _evaluate_point(J: float, h: float, t: float, methods) -> dict[str, SweepRow]:
    """The witness methods at one point, on one process matrix."""
    try:
        w = ising.process_matrix(J, h, t)
    except Exception as exc:
        return {m: _error_row(J, h, t, m, exc) for m in methods}
    rows = {}
    for method in methods:
        try:
            report = WITNESS_METHODS[method](w)
        except Exception as exc:
            rows[method] = _error_row(J, h, t, method, exc)
        else:
            status = str(report.diagnostics.get("solver_status", "ok"))
            rows[method] = SweepRow(J, h, t, method, report.value, report.verdict, status)
    return rows


def _sweep_row(task) -> list[SweepRow]:
    """Every configured method at each h of one J row, in ``methods`` order per point.

    ``ppt`` and ``markov_distance`` come from the batched kernel over the
    whole row; the SDP methods are solved point by point.
    """
    J, hs, t, methods, norm = task
    columns = batch.evaluate_row(J, hs, t, norm) if set(methods) & set(batch.METHODS) else {}
    per_point = [m for m in methods if m not in columns]
    rows = []
    for k, h in enumerate(hs):
        solved = _evaluate_point(J, h, t, per_point) if per_point else {}
        for method in methods:
            if method not in columns:
                rows.append(solved[method])
                continue
            column = columns[method]
            if column.errors[k] is not None:
                rows.append(_error_row(J, h, t, method, column.errors[k]))
            else:
                value = float(column.values[k])
                rows.append(SweepRow(J, h, t, method, value, column.verdicts[k], "ok"))
    return rows


def sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate the configured methods on every grid point, J-major then h.

    One task per J row; with several workers the rows are spread over a
    process pool.  Per-point failures are recorded in their rows and the
    sweep continues.  Row values do not depend on the worker count.
    """
    hs = config.h_range.values(config.stride)
    tasks = [
        (J, hs, config.t, config.methods, config.norm)
        for J in config.j_range.values(config.stride)
    ]
    if config.workers == 1:
        chunks = map(_sweep_row, tasks)
        rows = [row for chunk in chunks for row in chunk]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunksize = max(1, len(tasks) // (4 * config.workers))
            rows = [
                row
                for chunk in pool.map(_sweep_row, tasks, chunksize=chunksize)
                for row in chunk
            ]
    return rows


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


def render_heatmap(rows: list[SweepRow], column: str, path: str) -> None:
    """Write a raster-of-rects SVG of one numeric column over the (J, h) grid.

    The table must contain a single method; the color scale is linear from
    the column minimum to maximum, axes carry ticks at multiples of pi, and
    identical input produces identical bytes.
    """
    if column not in ("value",):
        raise ValueError(f"unknown column {column!r}; renderable columns: 'value'")
    methods = sorted({r.method for r in rows})
    if len(methods) != 1:
        raise ValueError(f"table mixes methods {methods}; filter to one before rendering")
    if not rows:
        raise ValueError("empty table")
    js = sorted({r.J for r in rows})
    hs = sorted({r.h for r in rows})
    grid = {(r.J, r.h): getattr(r, column) for r in rows}
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
    out.append(f'<text x="{legend_x}" y="{top + plot_h + 18}">{methods[0]}:{column}</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# witness export
# ---------------------------------------------------------------------------

_PAULIS = {"I": tl.PAULI_I, "X": tl.PAULI_X, "Y": tl.PAULI_Y, "Z": tl.PAULI_Z}


class InconclusivePoint(Exception):
    pass


class SolverFailure(Exception):
    pass


def pauli_decomposition(z: tl.TensorOperator) -> list[dict]:
    """Coefficients of a three-qubit Hermitian operator over Pauli products."""
    z = tl.reorder(z, pr.PROCESS_LABELS)
    out = []
    for na, a in _PAULIS.items():
        for nb, b in _PAULIS.items():
            for nc, c in _PAULIS.items():
                p = np.kron(np.kron(a, b), c)
                coeff = float(np.trace(p @ z.mat).real) / 8.0
                out.append({"pauli": na + nb + nc, "coefficient": coeff})
    return out


def witness_report_at(J: float, h: float, t: float, method: str) -> detect.WitnessReport:
    if method not in WITNESS_METHODS:
        raise ValueError(f"method {method!r} does not produce witnesses")
    return WITNESS_METHODS[method](ising.process_matrix(J, h, t))


def export_witness(J: float, h: float, t: float, method: str, path: str) -> dict:
    """Write the witness found at (J, h, t) to a JSON file.

    The exported operator is rescaled to unit spectral norm; the recorded
    value is Tr(Z W) for the rescaled witness, with the raw method value kept
    in the diagnostics.  Raises InconclusivePoint when there is no witness.
    """
    report = witness_report_at(J, h, t, method)
    status = str(report.diagnostics.get("solver_status", "ok"))
    if status in (sdp.MAX_ITER, sdp.FAILURE):
        raise SolverFailure(f"solver did not converge at ({J}, {h}, {t}): {status}")
    if report.verdict != detect.VERDICT_QUANTUM or report.witness is None:
        raise InconclusivePoint(
            f"{method} found no quantum-memory witness at (J={J}, h={h}, t={t})"
        )
    scale = tl.spectral_norm(report.witness)
    z = report.witness * (1.0 / scale)
    w = ising.process_matrix(J, h, t)
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
    """Re-import an exported witness and recompute Tr(Z W) at its point."""
    with open(path) as fh:
        payload = json.load(fh)
    z = tl.from_json_dict(payload["operator"])
    p = payload["point"]
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


def _build_sweep_config(args) -> SweepConfig:
    conf = read_config(args.config) if args.config else {}

    def pick(flag_value, key, parse, default):
        if flag_value is not None:
            return flag_value
        if key in conf:
            return parse(conf[key])
        return default

    methods = args.method or (
        tuple(m.strip() for m in conf["method"].split(",")) if "method" in conf else ("ppt",)
    )
    return SweepConfig(
        j_range=pick(args.j_range, "j_range", Range.parse, Range(0.0, 10.0, 151)),
        h_range=pick(args.h_range, "h_range", Range.parse, Range(0.0, 10.0, 151)),
        t=pick(args.t, "t", float, 1.0),
        methods=tuple(methods),
        out=pick(args.out, "out", str, None),
        workers=pick(args.workers, "workers", int, 1),
        norm=pick(args.norm, "norm", str, "trace"),
        stride=pick(args.stride, "stride", int, 1),
    )


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="qmemwit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="evaluate methods over a (J, h) grid")
    sw.add_argument("--j-range", type=Range.parse, help="a:b:step (step size)")
    sw.add_argument("--h-range", type=Range.parse, help="a:b:step (step size)")
    sw.add_argument("--t", type=_finite_float)
    sw.add_argument("--method", action="append", choices=METHODS)
    sw.add_argument("--workers", type=int)
    sw.add_argument("--norm", choices=("trace", "frobenius"))
    sw.add_argument("--stride", type=int)
    sw.add_argument("--out")
    sw.add_argument("--config")
    sw.add_argument("--dump-sdp", metavar="DIR", help="dump every SDP solved (forces workers=1)")

    hm = sub.add_parser("heatmap", help="render a sweep CSV as an SVG heatmap")
    hm.add_argument("--table", required=True, help="CSV produced by sweep")
    hm.add_argument("--column", default="value")
    hm.add_argument("--method", choices=METHODS, help="filter the table to one method")
    hm.add_argument("--out", required=True)

    wt = sub.add_parser("witness", help="export the witness at one point")
    wt.add_argument("--j", type=_finite_float, required=True)
    wt.add_argument("--h", type=_finite_float, required=True)
    wt.add_argument("--t", type=_finite_float, default=1.0)
    wt.add_argument("--method", choices=tuple(WITNESS_METHODS), default="ppt")
    wt.add_argument("--out", required=True)
    wt.add_argument("--validate", type=int, metavar="N", default=0,
                    help="also check the witness on N random classical-memory processes")
    wt.add_argument("--seed", type=int, default=2024)
    wt.add_argument("--dump-sdp", metavar="DIR", help="dump every SDP solved")

    vf = sub.add_parser("verify", help="run the full acceptance suite")
    vf.add_argument("--workers", type=int, default=None)

    args = parser.parse_args(argv)

    if args.command == "sweep":
        config = _build_sweep_config(args)
        if args.dump_sdp:
            os.makedirs(args.dump_sdp, exist_ok=True)
            config = replace(config, workers=1)
            with sdp.dump_context(args.dump_sdp):
                rows = sweep(config)
        else:
            rows = sweep(config)
        text = rows_to_csv(rows)
        if config.out:
            with open(config.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if any(r.status.startswith("error:") or r.status in (sdp.MAX_ITER, sdp.FAILURE) for r in rows):
            return EXIT_SOLVER_FAILURE
        return EXIT_OK

    if args.command == "heatmap":
        with open(args.table) as fh:
            rows = rows_from_csv(fh.read())
        if args.method:
            rows = [r for r in rows if r.method == args.method]
        render_heatmap(rows, args.column, args.out)
        return EXIT_OK

    if args.command == "witness":
        try:
            if args.dump_sdp:
                os.makedirs(args.dump_sdp, exist_ok=True)
                with sdp.dump_context(args.dump_sdp):
                    payload = export_witness(args.j, args.h, args.t, args.method, args.out)
            else:
                payload = export_witness(args.j, args.h, args.t, args.method, args.out)
        except InconclusivePoint as exc:
            print(f"inconclusive: {exc}", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        except SolverFailure as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return EXIT_SOLVER_FAILURE
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
