import json
import math
from dataclasses import fields

import numpy as np
import pytest

from qmemwit import cli, detect, ising
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
            cli.witness_report_at(1.0, 1.0, 1.0, "markov_distance")

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
        cli.render_heatmap(rows, "value", str(a))
        cli.render_heatmap(rows, "value", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_single_cell(self, tmp_path):
        config = cli.SweepConfig(
            j_range=cli.Range(1.0, 1.0, 1), h_range=cli.Range(1.0, 1.0, 1),
            methods=("ppt",),
        )
        path = tmp_path / "one.svg"
        cli.render_heatmap(cli.sweep(config), "value", str(path))
        body = path.read_text()
        # one data cell plus the legend band and background
        data_rects = [ln for ln in body.splitlines() if 'y="20.00"' in ln and ln.startswith("<rect x=\"70")]
        assert len(data_rects) == 1

    def test_pi_ticks_present(self, tmp_path):
        rows = self._rows()
        path = tmp_path / "ticks.svg"
        cli.render_heatmap(rows, "value", str(path))
        assert ">pi<" in path.read_text()

    def test_unknown_column(self, tmp_path):
        with pytest.raises(ValueError, match="unknown column"):
            cli.render_heatmap(self._rows(), "verdict", str(tmp_path / "x.svg"))

    def test_mixed_methods_rejected(self, tmp_path):
        config = cli.SweepConfig(
            j_range=cli.Range(0.0, 1.0, 2), h_range=cli.Range(0.0, 1.0, 2),
            methods=("ppt", "markov_distance"),
        )
        with pytest.raises(ValueError, match="mixes methods"):
            cli.render_heatmap(cli.sweep(config), "value", str(tmp_path / "x.svg"))


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
        from qmemwit import sdp

        payload = json.loads(files[0].read_text())
        problem = sdp.problem_from_json(payload["problem"])
        assert problem.block_dims == (8,)
        assert payload["result"]["status"] == "optimal"
