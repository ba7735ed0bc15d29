#!/usr/bin/env python3
"""Reproduce the two phase diagrams: the PPT witness value and the
Markovian-distance landscape over (J, h) in [0, 10]^2 at t = 1.

Writes CSV tables and SVG heatmaps into --outdir.  The full grid is 151x151
with step size 1/15; pass --stride 5 for a quick 31x31 preview.
"""

import argparse
import os
import time

from qmemwit import cli, process


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    # the parser of ``qmemwit sweep --stride/--workers``: below 1 is a usage error
    parser.add_argument("--stride", type=cli._int_at_least(1), default=1)
    parser.add_argument("--workers", type=cli._int_at_least(1), default=os.cpu_count() or 1)
    parser.add_argument("--norm", choices=process.NORMS, default="trace")
    args = parser.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    grid = cli.Range(0.0, 10.0, 151)
    config = cli.SweepConfig(
        j_range=grid,
        h_range=grid,
        t=1.0,
        methods=("ppt", "markov_distance"),
        workers=args.workers,
        norm=args.norm,
        stride=args.stride,
    )
    start = time.perf_counter()
    rows = cli.sweep(config)
    print(f"swept {len(rows) // 2} grid points in {time.perf_counter() - start:.1f}s")

    for method, stem in (("ppt", "ppt_witness_value"), ("markov_distance", "markov_distance")):
        subset = [r for r in rows if r.method == method]
        csv_path = os.path.join(args.outdir, f"{stem}.csv")
        svg_path = os.path.join(args.outdir, f"{stem}.svg")
        with open(csv_path, "w") as fh:
            fh.write(cli.rows_to_csv(subset))
        cli.render_heatmap(subset, "value", svg_path)
        print(f"wrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
