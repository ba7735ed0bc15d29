import importlib
import json
from pathlib import Path

import pytest

import metrics
import run
from tracer import ROOT, Span, Tracer, public_functions, self_times_ns

MODULES = {name: importlib.import_module(f"qmemwit.{name}") for name in metrics.TRACED_MODULES}


def _span(i, start, end, parent=ROOT):
    return Span(i, f"s{i}", start, end, parent, 0)


def test_self_time_of_nested_spans():
    spans = [
        _span(0, 0, 100),
        _span(1, 10, 40, parent=0),
        _span(2, 15, 25, parent=1),
        _span(3, 50, 70, parent=0),
    ]
    assert self_times_ns(spans) == [50, 20, 10, 20]


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, 0, 100), _span(1, 10, 40, parent=0), _span(2, 30, 60, parent=0)]
    assert self_times_ns(spans)[0] == 50


def test_self_time_clips_children_to_the_parent():
    spans = [_span(0, 10, 20), _span(1, 5, 15, parent=0), _span(2, 15, 30, parent=0)]
    assert self_times_ns(spans)[0] == 0


def test_tail_keeps_ten_samples_beyond():
    value, percentile, beyond = metrics.tail([float(k) for k in range(100, 0, -1)])
    assert (value, percentile, beyond) == (90.0, 90.0, 10)
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def _originals():
    return {(name, fn): obj for name, mod in MODULES.items() for fn, obj in public_functions(mod).items()}


def test_every_wrapped_attribute_is_restored_identity_equal():
    from qmemwit import cli

    before = _originals()
    assert len(before) > 50
    config = cli.SweepConfig(cli.Range(1.0, 1.0, 1), cli.Range(0.0, 1.0, 2), methods=("ppt",))
    with Tracer(MODULES) as tracer:
        for name, fn in before:
            assert getattr(MODULES[name], fn) is not before[(name, fn)]
        tracer.run_point(0, cli.sweep, config)
    assert tracer.spans
    for (name, fn), obj in before.items():
        assert getattr(MODULES[name], fn) is obj


def test_attributes_are_restored_when_the_run_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer(MODULES):
            raise RuntimeError("stop")
    assert all(getattr(MODULES[n], f) is obj for (n, f), obj in before.items())


def test_spans_nest_and_carry_the_point(tmp_path):
    from qmemwit import ising

    with Tracer(MODULES) as tracer:
        ising.process_matrix(1.0, 1.0, 1.0)  # not recording: leaves no span
        tracer.run_point(7, ising.process_matrix, 1.0, 1.0, 1.0)
    by_id = {s.id: s for s in tracer.spans}
    root = tracer.spans[0]
    assert root.name == "bench.point" and root.parent == ROOT
    pm = next(s for s in tracer.spans if s.name == "ising.process_matrix")
    ev = next(s for s in tracer.spans if s.name == "ising.evolution")
    assert pm.parent == root.id and ev.parent == pm.id
    assert all(s.point == 7 for s in tracer.spans)
    assert all(by_id[s.parent].start_ns <= s.start_ns <= s.end_ns <= by_id[s.parent].end_ns
               for s in tracer.spans if s.parent != ROOT)
    out = tmp_path / "spans.jsonl"
    tracer.write(out)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == len(tracer.spans)
    assert set(records[0]) == {"id", "name", "start_ns", "end_ns", "parent", "point"}


def test_layer_metrics_count_calls_and_solver_outcomes():
    from qmemwit import detect, ising

    def point(j, h):
        w = ising.process_matrix(j, h, 1.0)
        detect.dps2_feasibility(w)

    annotate = {"sdp.solve": run._solve_extra, "sdp.verify": run._verify_extra}
    with Tracer(MODULES, annotate) as tracer:
        tracer.run_point(0, point, 1.3, 0.7)
        tracer.run_point(1, point, 1.3, 0.0)
    values = metrics.layer_metrics(tracer.spans, points=2)
    assert set(values) == {name for name, _ in metrics.LAYER_METRICS} - {"trace_overhead_frac"}
    assert values["ising.process_matrix.calls_per_point"] == 1.0
    assert values["sdp.solve.calls_per_point"] == 1.0
    assert values["sdp.verify.ok_frac"] == 1.0
    assert values["sdp.solve.status_optimal_frac"] == 0.5
    assert values["sdp.solve.status_infeasible_frac"] == 0.5
    assert values["sdp.solve.constraints_mean"] == 672
    assert values["sdp.solve.iterations_optimal_mean"] > values["sdp.solve.iterations_infeasible_mean"] > 0
    assert values["cli.sweep.calls_per_point"] == 0.0
    assert all(v >= 0 for v in values.values())


def test_benchmark_json_matches_the_code():
    import workloads

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.LAYER_METRICS)
