#!/usr/bin/env python3
"""Fingerprint every SDP solve of the detectors, or compare two fingerprints.

    PYTHONPATH=src python scripts/sdp_fingerprint.py --out FILE.json
    python scripts/sdp_fingerprint.py --compare A.json B.json

The first form records one entry per solve:

* ``dps2_feasibility`` on criterion 6's 31x31 stride grid (961 points);
* ``witness_sdp`` without and with the station-swap restriction at
  ``acceptance_points(60, seed=3)`` and at five h = 0 points (130 solves).

Each entry holds J, h, method, the problem's shape (``block_dims`` and the
number of constraints ``m``), verdict, solver status, verification outcome,
iteration count, ``trajectory_sha1`` (the SHA-1 of the float64 bytes of the
solver's trajectory rows and of its y, so equal digests mean the same
iteration path), ``x_sha1`` (the SHA-1 of the bytes of the result's X
blocks, None for a result without X), the reported value, for
``witness_sdp`` the SDP optimum and, for an infeasible ``dps2`` solve,
``certificate_min_eig``: the least eigenvalue of the Farkas certificate's
S = -A*(y), as ``sdp.verify`` forms it from the constraint stacks (older files hold the solver's own figure, which
was the same number) and ``certificate_shifted``: whether the solver's
shifted stop test produced that certificate (``certificate_shift`` in the
result's info), and the result's ``stop`` (``start_projection`` for a
feasibility solve that ended at iteration 0, else None) and ``schur_shifts``
(the diagonal-shift retries of its Schur factorizations).
The file also holds ``sweep_csv_sha1`` and ``sweep_dumps_sha1``: the SHA-1 of
the CSV of ``cli.sweep`` on the stride-30 grid with every method in
``cli.METHODS``, and of the sorted names and bytes of the SDP dumps that
sweep writes, and the BLAS setting the file was written under:
``openblas_num_threads`` (the ``OPENBLAS_NUM_THREADS`` environment variable,
or ``unset``) and ``cpu_count`` (``os.cpu_count()``), since ``dps2``
trajectories differ between one and two BLAS threads.
``qmemwit`` is imported from the environment, so pointing PYTHONPATH at
another checkout's ``src`` fingerprints that checkout.

The second form matches the entries of A and B by (method, J, h) and prints
every entry whose verdict, status, verification, iteration count,
trajectory_sha1 or x_sha1 differs (files that lack x_sha1, as older ones
do, read None on both sides), except that a change of problem shape is
reported once per method and pair of shapes, with its entries, in place of
their trajectory_sha1 and x_sha1 mismatches (files that lack the shape, as
older ones do, skip that check), the largest difference of value, optimum and
certificate_min_eig per method (a field absent from both entries, as in
older files, is skipped), per method how many values differ when printed
``%.12g``, the precision of the sweep CSV, per file how many ``dps2``
certificates have a negative margin (certificate_min_eig < 0, a withheld
verdict) and how many were shifted, how many ``dps2`` solves ended at the
start projection and the total of ``schur_shifts`` (older files lack these
fields and count none), and a histogram of the iteration differences (B - A), and whether
the sweep hashes agree (files that both lack them, as older ones do, skip
that check).  It prints both files' BLAS settings and numpy and scipy
versions (``unknown`` in files that lack them, as older ones do) and flags a
mismatch of either, which explains trajectory differences without being
one.  It exits with status 1 when an entry is missing, differs or changed
shape, when a numeric difference exceeds --tol, or when a sweep hash differs.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import sys
import tempfile
import time

DISCRETE = ("verdict", "solver_status", "verified", "iterations", "trajectory_sha1", "x_sha1")
DIGESTS = ("trajectory_sha1", "x_sha1")
NUMERIC = ("value", "optimum", "certificate_min_eig")
SWEEP_HASHES = ("sweep_csv_sha1", "sweep_dumps_sha1")
SHAPE = ("block_dims", "m")
BLAS_SETTING = ("openblas_num_threads", "cpu_count")
VERSIONS = ("numpy", "scipy")
PRINTED = ".12g"           # the precision of the sweep CSV's values
SWEEP_STRIDE = 30
H0_J = (0.5, 2.5, 4.5, 6.5, 8.5)


def _trajectory_sha1(result) -> str:
    import numpy as np

    digest = hashlib.sha1(np.asarray(result.info["trajectory"], dtype=np.float64).tobytes())
    digest.update(np.asarray(result.y, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _x_sha1(result) -> str | None:
    if result.x is None:
        return None
    digest = hashlib.sha1()
    for block in result.x.blocks:
        digest.update(block.tobytes())
    return digest.hexdigest()


def _record(j: float, h: float, method: str, report) -> dict:
    diag = report.diagnostics
    problem, result = report.sdp_run
    return {
        "J": j,
        "h": h,
        "method": method,
        "block_dims": list(problem.block_dims),
        "m": problem.constraint_set.m,
        "verdict": report.verdict,
        "solver_status": diag.get("solver_status"),
        "verified": bool(diag.get("verified")),
        "iterations": diag.get("iterations"),
        "trajectory_sha1": _trajectory_sha1(result),
        "x_sha1": _x_sha1(result),
        "value": report.value,
        "optimum": diag.get("optimum"),
        "certificate_min_eig": diag.get("certificate_min_eig"),
        "certificate_shifted": "certificate_shift" in result.info,
        "stop": result.info.get("stop"),
        "schur_shifts": result.info.get("schur_shifts"),
    }


def fingerprint() -> list[dict]:
    from qmemwit import acceptance, cli, detect, ising

    records = []
    grid = cli.Range(0.0, 10.0, 151).values(stride=5)
    for j in grid:
        for h in grid:
            w = ising.process_matrix(j, h, 1.0)
            records.append(_record(j, h, "dps2", detect.dps2_feasibility(w)))
    points = acceptance.acceptance_points(60, seed=3) + [(j, 0.0) for j in H0_J]
    for j, h in points:
        w = ising.process_matrix(j, h, 1.0)
        records.append(_record(j, h, "ppt_sdp", detect.witness_sdp(w)))
        records.append(
            _record(j, h, "ppt_sdp_swap", detect.witness_sdp(w, swap_symmetric=True))
        )
    return records


def sweep_hashes() -> dict:
    from qmemwit import cli

    grid = cli.Range(0.0, 10.0, 151)
    config = cli.SweepConfig(grid, grid, methods=cli.METHODS, stride=SWEEP_STRIDE)
    with tempfile.TemporaryDirectory() as dump_dir:
        csv = cli.rows_to_csv(cli.sweep(config, dump_dir))
        dumps = hashlib.sha1()
        for name in sorted(os.listdir(dump_dir)):
            with open(os.path.join(dump_dir, name), "rb") as fh:
                dumps.update(name.encode() + b"\0" + fh.read())
    return {
        "sweep_csv_sha1": hashlib.sha1(csv.encode()).hexdigest(),
        "sweep_dumps_sha1": dumps.hexdigest(),
    }


def _printed(value) -> str | None:
    """The value as the sweep CSV prints it."""
    return None if value is None else f"{value:{PRINTED}}"


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _key(r: dict) -> tuple:
    return (r["method"], r["J"], r["h"])


def _shape(r: dict) -> str | None:
    if any(f not in r for f in SHAPE):
        return None
    return f"blocks {tuple(r['block_dims'])}, m = {r['m']}"


def compare(file_a: dict, file_b: dict, tol: float) -> bool:
    a, b = file_a["records"], file_b["records"]
    by_a, by_b = {_key(r): r for r in a}, {_key(r): r for r in b}
    ok = True
    missing = by_a.keys() ^ by_b.keys()
    if missing:
        ok = False
        print(f"{len(missing)} entries present in only one file, e.g. {sorted(missing)[:3]}")
    worst: dict[str, dict[str, float]] = collections.defaultdict(
        lambda: {f: 0.0 for f in NUMERIC}
    )
    iteration_diff = collections.Counter()
    counts = collections.Counter()
    printed = collections.Counter()
    reshaped = collections.defaultdict(list)
    for k in sorted(by_a.keys() & by_b.keys()):
        ra, rb = by_a[k], by_b[k]
        counts[k[0]] += 1
        printed[k[0]] += _printed(ra.get("value")) != _printed(rb.get("value"))
        shapes = (_shape(ra), _shape(rb))
        diff = [f for f in DISCRETE if ra.get(f) != rb.get(f)]
        if None not in shapes and shapes[0] != shapes[1]:
            # a problem of another shape takes another path: the shape change,
            # reported once below, stands for its digest mismatches
            reshaped[(k[0], *shapes)].append(k[1:])
            diff = [f for f in diff if f not in DIGESTS]
        if diff:
            ok = False
            print(f"mismatch {k}: " + ", ".join(f"{f} {ra.get(f)!r} -> {rb.get(f)!r}" for f in diff))
        if ra["iterations"] is not None and rb["iterations"] is not None:
            iteration_diff[rb["iterations"] - ra["iterations"]] += 1
        for f in NUMERIC:
            va, vb = ra.get(f), rb.get(f)
            if va is None or vb is None:
                if (va is None) != (vb is None):
                    ok = False
                    print(f"mismatch {k}: {f} {va!r} -> {vb!r}")
                continue
            worst[k[0]][f] = max(worst[k[0]][f], abs(va - vb))
    for (method, shape_a, shape_b), entries in sorted(reshaped.items()):
        ok = False
        print(
            f"{method}: problem shape {shape_a} -> {shape_b} on {len(entries)} entries "
            f"(J, h): " + ", ".join(f"({j:g}, {h:g})" for j, h in entries)
        )
    for method in sorted(counts):
        w = worst[method]
        print(
            f"{method}: {counts[method]} solves, "
            + ", ".join(f"max |d {f}| {w[f]:.2e}" for f in NUMERIC)
            + f", {printed[method]} values differ as printed %{PRINTED}"
        )
        if max(w.values()) > tol:
            ok = False
    for name, records in (("A", a), ("B", b)):
        margins = [r.get("certificate_min_eig") for r in records]
        margins = [s for s in margins if s is not None]
        negative = sum(s < 0 for s in margins)
        least = f", least {min(margins):.2e}" if margins else ""
        shifted = sum(bool(r.get("certificate_shifted")) for r in records if r["method"] == "dps2")
        started = sum(
            r.get("stop") == "start_projection" for r in records if r["method"] == "dps2"
        )
        retries = sum(r.get("schur_shifts") or 0 for r in records)
        print(
            f"{name}: {negative} of {len(margins)} dps2 certificates have a negative "
            f"margin (verdict withheld){least}; {shifted} shifted; {started} dps2 solves "
            f"ended at the start projection; {retries} Schur factor retries"
        )
    settings = [
        {k: f.get(k, "unknown") for k in BLAS_SETTING + VERSIONS} for f in (file_a, file_b)
    ]
    for name, setting in zip("AB", settings):
        print(f"{name}: " + ", ".join(f"{k} {v}" for k, v in setting.items()))
    for fields, what in ((BLAS_SETTING, "BLAS settings"), (VERSIONS, "numpy or scipy versions")):
        if any(settings[0][k] != settings[1][k] for k in fields):
            print(f"{what} differ: dps2 trajectories may differ with them")
    hist = ", ".join(f"{d:+d}: {n}" for d, n in sorted(iteration_diff.items()))
    print(f"iteration differences (B - A): {hist}")
    for f in SWEEP_HASHES:
        if f in file_a or f in file_b:
            same = file_a.get(f) == file_b.get(f)
            ok = ok and same
            print(f"{f}: {'same' if same else 'DIFFERS'}")
    print("identical within tolerance" if ok else "DIFFERENT")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="FILE", help="write the fingerprint of this tree")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two fingerprints")
    parser.add_argument(
        "--tol", type=float, default=1e-8,
        help="largest accepted difference of a numeric field (default 1e-8)",
    )
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (_load(path) for path in args.compare)
        return 0 if compare(a, b, args.tol) else 1

    import numpy as np
    import scipy

    t0 = time.perf_counter()
    records = fingerprint()
    hashes = sweep_hashes()
    payload = {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seconds": round(time.perf_counter() - t0, 1),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "cpu_count": os.cpu_count(),
        **hashes,
        "records": records,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=0)
    print(f"{len(records)} solves in {payload['seconds']} s -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
