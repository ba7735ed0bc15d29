import hashlib
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from qmemwit import cli, detect, ising, sdp
from qmemwit import process as pr
from qmemwit import tensorlinalg as tl


class TestRange:
    def test_parse_step_size(self):
        r = cli.Range.parse("0:10:0.06666666666666667")
        assert r.points == 151
        vals = r.values()
        assert vals[0] == 0.0
        assert np.isclose(vals[-1], 10.0)
        assert np.isclose(vals[1] - vals[0], 1 / 15)

    def test_parse_single_point(self):
        r = cli.Range.parse("1.5:1.5:1")
        assert r.points == 1
        assert r.values() == [1.5]

    def test_stride(self):
        r = cli.Range(0.0, 10.0, 151)
        assert len(r.values(stride=5)) == 31

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            cli.Range.parse("0:10")
        with pytest.raises(ValueError):
            cli.Range.parse("3:1:0.5")
        with pytest.raises(ValueError):
            cli.Range.parse("0:10:-1")
        with pytest.raises(ValueError):
            cli.Range(0.0, 1.0, 0)
        with pytest.raises(ValueError, match="finite"):
            cli.Range(-1e308, 1e308, 3)  # the span overflows: grid values would be NaN
        with pytest.raises(ValueError, match="does not divide"):
            cli.Range.parse("0:1:0.3")  # was rounded to 4 points at step 1/3
        with pytest.raises(ValueError, match="finite"):
            cli.Range.parse("-1e308:1e308:1e307")  # was an OverflowError

    def test_bad_range_flag_is_a_usage_error(self, tmp_path, capsys):
        for text in ("0:1:0.3", "-1e308:1e308:1e307"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["sweep", f"--h-range={text}", "--out", str(tmp_path / "rows.csv")])
            assert exc.value.code == 2
            assert "invalid parse value" in capsys.readouterr().err
        assert not (tmp_path / "rows.csv").exists()


class TestSweep:
    def test_row_order_j_major(self):
        config = cli.SweepConfig(
            j_range=cli.Range(0.0, 1.0, 2), h_range=cli.Range(0.0, 1.0, 3),
            methods=("markov_distance",),
        )
        rows = cli.sweep(config)
        coords = [(r.J, r.h) for r in rows]
        assert coords == [(0, 0), (0, 0.5), (0, 1), (1, 0), (1, 0.5), (1, 1)]

    def test_single_cell_all_methods_agree(self):
        config = cli.SweepConfig(
            j_range=cli.Range(1.0, 1.0, 1), h_range=cli.Range(1.0, 1.0, 1),
            methods=("ppt", "ppt_sdp", "dps2", "markov_distance"),
        )
        rows = {r.method: r for r in cli.sweep(config)}
        assert rows["ppt"].verdict == detect.VERDICT_QUANTUM
        assert rows["dps2"].verdict == detect.VERDICT_QUANTUM
        assert rows["ppt_sdp"].verdict == detect.VERDICT_QUANTUM
        assert rows["markov_distance"].verdict == "non_markovian"

    def test_worker_independence(self):
        config = cli.SweepConfig(
            j_range=cli.Range(0.0, 3.0, 4), h_range=cli.Range(0.0, 3.0, 4),
            methods=("ppt", "markov_distance"),
        )
        from dataclasses import replace

        csv1 = cli.rows_to_csv(cli.sweep(config))
        csv4 = cli.rows_to_csv(cli.sweep(replace(config, workers=4)))
        assert csv1 == csv4

    def test_pool_has_at_most_one_process_per_row(self, monkeypatch):
        # the pool forks all its processes on its first submit, so it is sized
        # by the row count; a fake pool records its size and starts no process
        created = []

        class FakePool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", FakePool)
        config = cli.SweepConfig(
            j_range=cli.Range(0.0, 2.0, 3), h_range=cli.Range(0.0, 1.0, 2),
            methods=("ppt", "markov_distance"),
        )
        serial = cli.rows_to_csv(cli.sweep(config))
        assert cli.rows_to_csv(cli.sweep(replace(config, workers=64))) == serial
        assert created == [3]
        one_row = replace(config, j_range=cli.Range(1.0, 1.0, 1))
        serial = cli.rows_to_csv(cli.sweep(one_row))
        assert cli.rows_to_csv(cli.sweep(replace(one_row, workers=64))) == serial
        assert created == [3]

    def test_frobenius_norm_flag(self):
        config = cli.SweepConfig(
            j_range=cli.Range(1.0, 1.0, 1), h_range=cli.Range(1.0, 1.0, 1),
            methods=("markov_distance",), norm="frobenius",
        )
        row = cli.sweep(config)[0]
        from tests.test_process import MARKOV_DISTANCE_111_FROBENIUS

        assert abs(row.value - MARKOV_DISTANCE_111_FROBENIUS) <= 1e-9

    def test_csv_roundtrip_and_schema(self):
        config = cli.SweepConfig(
            j_range=cli.Range(0.0, 2.0, 3), h_range=cli.Range(0.0, 2.0, 3),
            methods=("ppt",),
        )
        rows = cli.sweep(config)
        text = cli.rows_to_csv(rows)
        assert text.splitlines()[0] == "J,h,t,method,value,verdict,status"
        back = cli.rows_from_csv(text)
        assert [r.method for r in back] == [r.method for r in rows]
        assert all(
            abs(a.value - b.value) <= 1e-12 * max(1, abs(a.value))
            for a, b in zip(rows, back)
            if not math.isnan(a.value)
        )

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            cli.SweepConfig(
                j_range=cli.Range(0, 1, 2), h_range=cli.Range(0, 1, 2), methods=()
            )
        with pytest.raises(ValueError):
            cli.SweepConfig(
                j_range=cli.Range(0, 1, 2), h_range=cli.Range(0, 1, 2),
                methods=("ppt",), norm="nuclear",
            )


    def test_non_finite_t_rejected(self, tmp_path):
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                cli.SweepConfig(
                    j_range=cli.Range(0, 1, 2), h_range=cli.Range(0, 1, 2), t=t
                )
        for text in ("nan", "inf", "-inf"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["sweep", "--t", text, "--out", str(tmp_path / "rows.csv")])
            assert exc.value.code == 2
        assert not (tmp_path / "rows.csv").exists()
        for flag in ("--j", "--h", "--t"):
            point = {"--j": "1", "--h": "1", flag: "nan"}
            argv = ["witness", "--out", str(tmp_path / "w.json")]
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + [x for kv in point.items() for x in kv])
            assert exc.value.code == 2

    def test_repeated_method_is_a_usage_error(self, tmp_path, capsys):
        # a repeated method was solved twice per point and written as two rows
        out = tmp_path / "rows.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--j-range", "1:1:1", "--h-range", "1:1:1",
                      "--method", "dps2", "--method", "dps2", "--out", str(out)])
        assert exc.value.code == 2
        assert "repeat" in capsys.readouterr().err
        assert not out.exists()

    def test_count_flags_below_one_are_usage_errors(self, tmp_path, capsys):
        out = str(tmp_path / "rows.csv")
        for argv in (
            ["sweep", "--workers", "0", "--out", out],
            ["sweep", "--stride", "0", "--out", out],
            ["verify", "--workers", "0"],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert "must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "rows.csv").exists()

    def test_multiline_error_keeps_csv_rows_whole(self, monkeypatch):
        def fail(w, **kwargs):
            raise ValueError("first line\n  second line")

        monkeypatch.setattr(detect, "witness_sdp", fail)
        config = cli.SweepConfig(
            j_range=cli.Range(1.0, 1.0, 1), h_range=cli.Range(1.0, 2.0, 2),
            methods=("ppt", "ppt_sdp"),
        )
        rows = cli.sweep(config)
        assert [r.status for r in rows] == ["ok", "error:first line second line"] * 2
        back = cli.rows_from_csv(cli.rows_to_csv(rows))
        assert [(r.method, r.status) for r in back] == [(r.method, r.status) for r in rows]


class TestMethodTable:
    def test_methods_derive_from_the_table(self):
        assert cli.METHODS == ("ppt", "ppt_sdp", "dps2", "markov_distance")
        assert tuple(cli.WITNESS_METHODS) == ("ppt", "ppt_sdp", "dps2")

    def test_witness_rejects_a_method_without_witnesses(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["witness", "--j", "1", "--h", "1", "--method", "markov_distance",
                      "--out", str(tmp_path / "w.json")])
        with pytest.raises(ValueError, match="does not produce witnesses"):
            cli.witness_report(ising.process_matrix(1.0, 1.0, 1.0), "markov_distance")

    def test_sweep_seed_flag_removed(self):
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--seed", "3"])
        assert "seed" not in {f.name for f in fields(cli.SweepConfig)}


class TestHeatmap:
    def _rows(self, n=3):
        config = cli.SweepConfig(
            j_range=cli.Range(0.0, 4.0, n), h_range=cli.Range(0.0, 4.0, n),
            methods=("ppt",),
        )
        return cli.sweep(config)

    def test_byte_deterministic(self, tmp_path):
        rows = self._rows()
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        cli.render_heatmap(rows, str(a))
        cli.render_heatmap(rows, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_fixed_table_bytes(self, tmp_path):
        # negative, zero, positive and NaN values on a 3x3 grid with pi ticks
        values = (-0.25, -0.5, 0.0, 0.125, float("nan"), -1.0, 0.5, 0.25, -0.125)
        rows = [
            cli.SweepRow(j, h, 1.0, "ppt", v, "inconclusive", "ok")
            for (j, h), v in zip(itertools.product((0.0, 2.0, 4.0), repeat=2), values)
        ]
        path = tmp_path / "fixed.svg"
        cli.render_heatmap(rows, str(path))
        digest = hashlib.sha1(path.read_bytes()).hexdigest()
        assert digest == "0d8897aafd63095db3b970afdebaa10cccfa8531"

    def test_single_cell(self, tmp_path):
        config = cli.SweepConfig(
            j_range=cli.Range(1.0, 1.0, 1), h_range=cli.Range(1.0, 1.0, 1),
            methods=("ppt",),
        )
        path = tmp_path / "one.svg"
        cli.render_heatmap(cli.sweep(config), str(path))
        body = path.read_text()
        # one data cell plus the legend band and background
        data_rects = [ln for ln in body.splitlines() if 'y="20.00"' in ln and ln.startswith("<rect x=\"70")]
        assert len(data_rects) == 1

    def test_pi_ticks_present(self, tmp_path):
        rows = self._rows()
        path = tmp_path / "ticks.svg"
        cli.render_heatmap(rows, str(path))
        assert ">pi<" in path.read_text()

    def test_empty_selection_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="empty table"):
            cli.render_heatmap([], str(tmp_path / "x.svg"))
        table = tmp_path / "ppt.csv"
        table.write_text(cli.rows_to_csv(self._rows()))
        with pytest.raises(SystemExit) as exc:
            cli.main(["heatmap", "--table", str(table), "--method", "dps2",
                      "--out", str(tmp_path / "x.svg")])
        assert exc.value.code == 2
        assert "empty table" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()

    def test_unknown_column_flag_is_a_usage_error(self, tmp_path, capsys):
        table = tmp_path / "ppt.csv"
        table.write_text(cli.rows_to_csv(self._rows()))
        with pytest.raises(SystemExit) as exc:
            cli.main(["heatmap", "--table", str(table), "--column", "J",
                      "--out", str(tmp_path / "x.svg")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --column J" in capsys.readouterr().err

    def test_wrong_header_is_a_usage_error(self, tmp_path, capsys):
        table = tmp_path / "bad.csv"
        table.write_text("J,h,value\n1,1,0.5\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["heatmap", "--table", str(table), "--out", str(tmp_path / "x.svg")])
        assert exc.value.code == 2
        assert "expected header" in capsys.readouterr().err

    def test_mixed_methods_rejected(self, tmp_path):
        config = cli.SweepConfig(
            j_range=cli.Range(0.0, 1.0, 2), h_range=cli.Range(0.0, 1.0, 2),
            methods=("ppt", "markov_distance"),
        )
        with pytest.raises(ValueError, match="mixes methods"):
            cli.render_heatmap(cli.sweep(config), str(tmp_path / "x.svg"))


class TestWitnessExport:
    def test_export_and_roundtrip(self, tmp_path):
        path = tmp_path / "w.json"
        payload = cli.export_witness(1.0, 1.0, 1.0, "ppt", str(path))
        assert payload["value"] < 0
        z = tl.from_json_dict(payload["operator"])
        assert abs(tl.spectral_norm(z) - 1.0) <= 1e-9
        again = cli.reevaluate_witness_file(str(path))
        assert abs(again - payload["value"]) <= 1e-10

    def test_decomposition_reconstructs_witness(self, tmp_path):
        path = tmp_path / "w.json"
        payload = cli.export_witness(2.0, 1.0, 1.0, "ppt", str(path))
        z = tl.from_json_dict(payload["operator"])
        rebuilt = np.zeros((8, 8), dtype=complex)
        for item in payload["decomposition"]:
            p = np.array([[1]], dtype=complex)
            for ch in item["pauli"]:
                p = np.kron(p, cli._PAULIS[ch])
            rebuilt += item["coefficient"] * p
        assert np.max(np.abs(rebuilt - z.mat)) <= 1e-9

    def test_decomposition_bitwise_equals_per_term_kron(self):
        z = cli.witness_report(ising.process_matrix(2.0, 1.0, 1.0), "ppt").witness
        mat = tl.reorder(z, pr.PROCESS_LABELS).mat
        ref = [
            (a + b + c, float(np.trace(
                np.kron(np.kron(cli._PAULIS[a], cli._PAULIS[b]), cli._PAULIS[c]) @ mat
            ).real) / 8.0)
            for a in "IXYZ" for b in "IXYZ" for c in "IXYZ"
        ]
        got = cli.pauli_decomposition(z)
        assert [item["pauli"] for item in got] == [name for name, _ in ref]
        coefficients = np.array([item["coefficient"] for item in got])
        assert coefficients.tobytes() == np.array([value for _, value in ref]).tobytes()

    def test_inconclusive_raises(self, tmp_path):
        with pytest.raises(cli.InconclusivePoint):
            cli.export_witness(math.pi, 0.0, 1.0, "ppt", str(tmp_path / "w.json"))

    def test_main_exit_codes(self, tmp_path):
        out = str(tmp_path / "w.json")
        assert cli.main(["witness", "--j", "1", "--h", "1", "--out", out]) == 0
        code = cli.main(
            ["witness", "--j", str(math.pi), "--h", "0", "--out", str(tmp_path / "x.json")]
        )
        assert code == cli.EXIT_INCONCLUSIVE

    def test_point_without_process_matrix_exits_3(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        code = cli.main(["witness", "--j", "1", "--h", "1.7e308", "--out", str(out)])
        assert code == cli.EXIT_SOLVER_FAILURE
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: no process matrix at (J=1.0, h=1.7e+308, t=1.0): "
            "operator is not unitary within tolerance\n"
        )

    def test_negative_validate_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["witness", "--j", "1", "--h", "1", "--out", str(out), "--validate", "-5"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_dps2_export(self, tmp_path):
        path = tmp_path / "d.json"
        payload = cli.export_witness(1.0, 1.0, 1.0, "dps2", str(path))
        assert payload["method"] == "dps2"
        assert payload["value"] < 0


class TestConfigFile:
    def test_config_and_override(self, tmp_path):
        conf = tmp_path / "sweep.conf"
        conf.write_text(
            "# acceptance grid\n"
            "j_range = 0:2:1\n"
            "h_range = 0:2:1\n"
            "method = ppt, markov_distance\n"
            "workers = 1\n"
            "t = 0.5\n"
        )
        out = tmp_path / "rows.csv"
        code = cli.main(
            ["sweep", "--config", str(conf), "--t", "1.0", "--out", str(out)]
        )
        assert code == 0
        rows = cli.rows_from_csv(out.read_text())
        assert {r.method for r in rows} == {"ppt", "markov_distance"}
        assert all(r.t == 1.0 for r in rows)  # flag overrides config
        assert len(rows) == 9 * 2

    def test_unknown_key_is_a_usage_error(self, tmp_path, capsys):
        # misspelled keys were ignored: this file swept ppt at one worker
        conf = tmp_path / "sweep.conf"
        conf.write_text("methods = dps2\nwokers = 4\n")
        out = tmp_path / "rows.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", str(conf), "--j-range", "1:1:1",
                      "--h-range", "1:1:1", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "'methods'" in err and "'wokers'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        ["workers = 0", "stride = two", "j_range = 0:1:0.3", "method = ppt, bogus",
         "method = dps2, dps2"],
    )
    def test_bad_value_is_a_usage_error(self, tmp_path, capsys, line):
        conf = tmp_path / "sweep.conf"
        conf.write_text(line + "\n")
        out = tmp_path / "rows.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", str(conf), "--out", str(out)])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        for argv in (
            ["sweep", "--config", missing],
            ["heatmap", "--table", missing, "--out", str(tmp_path / "x.svg")],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert "No such file" in capsys.readouterr().err

    # key, its text in the file and the value it sets; a flag and the value it sets
    KEYS = [
        ("j_range", "0:2:1", cli.Range(0.0, 2.0, 3),
         ["--j-range", "1:1:1"], cli.Range(1.0, 1.0, 1)),
        ("h_range", "1:3:0.5", cli.Range(1.0, 3.0, 5),
         ["--h-range", "0:4:2"], cli.Range(0.0, 4.0, 3)),
        ("t", "0.5", 0.5, ["--t", "2"], 2.0),
        ("method", "ppt, markov_distance", ("ppt", "markov_distance"),
         ["--method", "dps2", "--method", "ppt"], ("dps2", "ppt")),
        ("out", "file.csv", "file.csv", ["--out", "flag.csv"], "flag.csv"),
        ("workers", "2", 2, ["--workers", "3"], 3),
        ("norm", "frobenius", "frobenius", ["--norm", "trace"], "trace"),
        ("stride", "2", 2, ["--stride", "3"], 3),
    ]

    @staticmethod
    def config_of(monkeypatch, argv) -> cli.SweepConfig:
        """The SweepConfig that ``qmemwit sweep argv`` would sweep."""
        seen = []
        monkeypatch.setattr(cli, "sweep", lambda config, dump_dir=None: seen.append(config) or [])
        assert cli.main(["sweep", *argv]) == 0
        return seen[0]

    @pytest.mark.parametrize("key, text, value, flag, flag_value", KEYS, ids=[k[0] for k in KEYS])
    def test_each_key_reaches_the_config_and_its_flag_overrides_it(
        self, tmp_path, monkeypatch, key, text, value, flag, flag_value
    ):
        monkeypatch.chdir(tmp_path)
        conf = tmp_path / "sweep.conf"
        conf.write_text(f"{key} = {text}\n")
        name = "methods" if key == "method" else key
        default = cli.SweepConfig()
        assert self.config_of(monkeypatch, ["--config", str(conf)]) == replace(
            default, **{name: value}
        )
        assert self.config_of(monkeypatch, ["--config", str(conf), *flag]) == replace(
            default, **{name: flag_value}
        )

    def test_defaults_are_the_sweep_configs(self, monkeypatch, capsys):
        config = self.config_of(monkeypatch, [])
        assert config == cli.SweepConfig()
        assert config.j_range == config.h_range == cli.Range(0.0, 10.0, 151)
        assert capsys.readouterr().out == cli.CSV_HEADER + "\n"

    def test_malformed_config(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("j_range 0:2:1\n")
        with pytest.raises(ValueError):
            cli.read_config(str(conf))


class TestDumpSdp:
    def test_sweep_dump(self, tmp_path):
        out = tmp_path / "rows.csv"
        dump = tmp_path / "dumps"
        code = cli.main(
            [
                "sweep", "--j-range", "1:1:1", "--h-range", "1:1:1",
                "--method", "ppt_sdp", "--out", str(out), "--dump-sdp", str(dump),
            ]
        )
        assert code == 0
        files = sorted(dump.glob("sdp_*.json"))
        assert files
        assert [f.name for f in files] == ["sdp_0000_0000_ppt_sdp.json"]
        payload = json.loads(files[0].read_text())
        problem = sdp.problem_from_json(payload["problem"])
        assert problem.block_dims == (8,)
        result = payload["result"]
        assert result["status"] == "optimal"
        assert len(result["info"]["trajectory"]) == result["info"]["iterations"] + 1

    @pytest.mark.parametrize("method", ["ppt_sdp", "dps2"])
    def test_names_and_bytes_do_not_depend_on_workers(self, tmp_path, method):
        # dps2 points share one constraint set, and with it the start factor
        # each worker process caches
        dumps = {}
        for workers in (1, 2):
            dump = tmp_path / f"dumps{workers}"
            code = cli.main(
                [
                    "sweep", "--j-range", "1:2:1", "--h-range", "1:2:1", "--method", method,
                    "--workers", str(workers), "--out", str(tmp_path / f"rows{workers}.csv"),
                    "--dump-sdp", str(dump),
                ]
            )
            assert code == 0
            dumps[workers] = {f.name: f.read_bytes() for f in dump.iterdir()}
        assert sorted(dumps[1]) == [
            f"sdp_{i:04d}_{k:04d}_{method}.json" for i in range(2) for k in range(2)
        ]
        assert dumps[1] == dumps[2]
        assert (tmp_path / "rows1.csv").read_bytes() == (tmp_path / "rows2.csv").read_bytes()

    def test_witness_dump(self, tmp_path):
        dump = tmp_path / "dumps"
        code = cli.main(
            ["witness", "--j", "1", "--h", "1", "--method", "dps2",
             "--out", str(tmp_path / "w.json"), "--dump-sdp", str(dump)]
        )
        assert code == 0
        assert [f.name for f in dump.iterdir()] == ["sdp_dps2.json"]
        # the 672 constraints go in as their nonzero entries, not as dense
        # blocks, and the Farkas certificate only as the result's y
        assert (dump / "sdp_dps2.json").stat().st_size <= 80_000
        payload = json.loads((dump / "sdp_dps2.json").read_text())
        assert payload["result"]["status"] == "infeasible"
        assert "certificate" not in payload["result"]
        problem = sdp.problem_from_json(payload["problem"])
        assert problem.block_dims == (16, 16, 16)

    def test_dps2_dump_replays(self, tmp_path):
        dump = tmp_path / "dumps"
        code = cli.main(
            ["sweep", "--j-range", "1:1:1", "--h-range", "1:1:1", "--method", "dps2",
             "--out", str(tmp_path / "rows.csv"), "--dump-sdp", str(dump)]
        )
        assert code == 0
        payload = json.loads((dump / "sdp_0000_0000_dps2.json").read_text())
        replayed = sdp.solve(sdp.problem_from_json(payload["problem"]))
        assert json.dumps(sdp.result_to_json(replayed)) == json.dumps(payload["result"])


class TestUnusableOutput:
    """An --out or --dump-sdp that cannot be written is a usage error found
    before any point is evaluated."""

    SWEEP = ["sweep", "--j-range", "1:1:1", "--h-range", "1:1:1"]
    WITNESS = ["witness", "--j", "1", "--h", "1"]

    @pytest.fixture(autouse=True)
    def no_evaluation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(cli, "sweep", fail)
        monkeypatch.setattr(cli, "export_witness", fail)

    @staticmethod
    def assert_usage_error(argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [SWEEP, WITNESS], ids=["sweep", "witness"])
    def test_out_in_a_missing_directory(self, tmp_path, capsys, command):
        out = tmp_path / "missing" / "x.csv"
        self.assert_usage_error([*command, "--out", str(out)], capsys)
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", [SWEEP, WITNESS], ids=["sweep", "witness"])
    def test_dump_sdp_naming_a_file(self, tmp_path, capsys, command):
        dump = tmp_path / "dumps"
        dump.write_text("")
        out = tmp_path / "out"
        self.assert_usage_error([*command, "--out", str(out), "--dump-sdp", str(dump)], capsys)
        assert not out.exists()


class TestUnverified:
    @pytest.fixture
    def failing_verify(self, monkeypatch):
        def fail(problem, result):
            return sdp.VerificationReport({"forced": (False, 1.0, 0.0)})

        monkeypatch.setattr(sdp, "verify", fail)

    def test_sweep_marks_unverified_rows_and_exits_3(self, tmp_path, failing_verify):
        out = tmp_path / "rows.csv"
        code = cli.main(
            ["sweep", "--j-range", "1:1:1", "--h-range", "1:1:1",
             "--method", "dps2", "--method", "ppt_sdp", "--out", str(out)]
        )
        assert code == cli.EXIT_SOLVER_FAILURE
        rows = cli.rows_from_csv(out.read_text())
        assert [(r.method, r.status) for r in rows] == [
            ("dps2", "unverified:infeasible"), ("ppt_sdp", "unverified:optimal")
        ]
        assert all(r.verdict == detect.VERDICT_INCONCLUSIVE for r in rows)

    def test_witness_export_is_a_solver_failure(self, tmp_path, failing_verify):
        out = tmp_path / "w.json"
        with pytest.raises(cli.SolverFailure, match="unverified:infeasible"):
            cli.export_witness(1.0, 1.0, 1.0, "dps2", str(out))
        code = cli.main(["witness", "--j", "1", "--h", "1", "--method", "dps2", "--out", str(out)])
        assert code == cli.EXIT_SOLVER_FAILURE
        assert not out.exists()

    def test_verified_rows_keep_their_status(self):
        config = cli.SweepConfig(
            cli.Range(1.0, 1.0, 1), cli.Range(1.0, 1.0, 1), methods=("dps2", "ppt_sdp")
        )
        assert [r.status for r in cli.sweep(config)] == ["infeasible", "optimal"]


class TestBlasThreads:
    @pytest.mark.parametrize("setting, expected", [(None, "1"), ("3", "3")])
    def test_import_sets_one_thread_unless_chosen(self, setting, expected):
        # OpenBLAS reads the variable when numpy loads, inside the import of qmemwit
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if setting is not None:
            env["OPENBLAS_NUM_THREADS"] = setting
        env["PYTHONPATH"] = str(pathlib.Path(cli.__file__).parents[1])
        script = "import os, qmemwit; print(os.environ['OPENBLAS_NUM_THREADS'])"
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == expected
