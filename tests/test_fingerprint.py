"""scripts/sdp_fingerprint.py --compare, the identity check between two trees'
fingerprints, on small synthetic files."""

import copy
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "sdp_fingerprint.py"


@pytest.fixture(scope="module")
def fingerprint():
    spec = importlib.util.spec_from_file_location("sdp_fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(j, h, method="dps2", **fields):
    out = {
        "J": j, "h": h, "method": method, "block_dims": [16, 16, 16], "m": 672,
        "verdict": "quantum", "solver_status": "infeasible", "verified": True,
        "iterations": 2, "trajectory_sha1": f"t{j}{h}", "x_sha1": None,
        "value": -0.25, "optimum": None, "certificate_min_eig": 1e-6,
        "certificate_shifted": True, "stop": None, "schur_shifts": 0,
    }
    out.update(fields)
    return out


def fingerprint_file(**fields):
    out = {
        "numpy": "2.4.6", "scipy": "1.17.1", "openblas_num_threads": "1", "cpu_count": 2,
        "sweep_csv_sha1": "c", "sweep_dumps_sha1": "d",
        "records": [record(1.0, 1.0), record(1.0, 2.0), record(0.0, 1.0, "ppt_sdp")],
    }
    out.update(fields)
    return out


def test_identical_files(fingerprint, capsys):
    a = fingerprint_file()
    assert fingerprint.compare(a, copy.deepcopy(a), tol=0.0)
    assert capsys.readouterr().out.endswith("identical within tolerance\n")


def test_altered_trajectory(fingerprint, capsys):
    a, b = fingerprint_file(), fingerprint_file()
    b["records"][1]["trajectory_sha1"] = "other"
    assert not fingerprint.compare(a, b, tol=0.0)
    assert "mismatch ('dps2', 1.0, 2.0): trajectory_sha1" in capsys.readouterr().out


def test_shape_change_reported_once(fingerprint, capsys):
    a, b = fingerprint_file(), fingerprint_file()
    for r in b["records"][:2]:
        r.update(block_dims=[16, 16], trajectory_sha1="other", x_sha1="other")
    assert not fingerprint.compare(a, b, tol=0.0)
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "mismatch" in line or "shape" in line] == [
        "dps2: problem shape blocks (16, 16, 16), m = 672 -> blocks (16, 16), m = 672 "
        "on 2 entries (J, h): (1, 1), (1, 2)"
    ]


def test_sweep_hash_differs(fingerprint, capsys):
    a, b = fingerprint_file(), fingerprint_file(sweep_dumps_sha1="other")
    assert not fingerprint.compare(a, b, tol=0.0)
    assert "sweep_dumps_sha1: DIFFERS" in capsys.readouterr().out


def test_version_mismatch_is_flagged_without_failing(fingerprint, capsys):
    a, b = fingerprint_file(), fingerprint_file(scipy="1.10.0")
    del a["numpy"]
    assert fingerprint.compare(a, b, tol=0.0)
    out = capsys.readouterr().out
    assert "A: openblas_num_threads 1, cpu_count 2, numpy unknown, scipy 1.17.1" in out
    assert "B: openblas_num_threads 1, cpu_count 2, numpy 2.4.6, scipy 1.10.0" in out
    assert "numpy or scipy versions differ" in out
    assert "BLAS settings differ" not in out
