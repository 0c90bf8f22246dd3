"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402  (puts the checkout's src on sys.path)
import gate  # noqa: E402
import layers  # noqa: E402
from spans import Span, Tracer, self_times, totals_by_name  # noqa: E402
from conicflow import cli, flow  # noqa: E402


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),  # overlaps a: the union 1..5 is covered once
        Span("a.child", 1.5, 2.0, 1),
        Span("late", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 1.5, 3.0, 0.5, 3.0])


def test_totals_count_recursive_spans_once_in_inclusive_time():
    spans = [
        Span("f", 0.0, 4.0, None),
        Span("g", 0.5, 3.5, 0),
        Span("f", 1.0, 2.0, 1),  # f nested inside f
        Span("f", 5.0, 6.0, None),
    ]
    tot = totals_by_name(spans)
    assert tot["f"].calls == 3
    assert tot["f"].inclusive_s == pytest.approx(5.0)
    assert tot["f"].self_s == pytest.approx(1.0 + 1.0 + 1.0)
    assert tot["g"].self_s == pytest.approx(2.0)


def test_tracer_records_parents_and_reraises():
    tr = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return 2 * x

    traced_inner = tr.wrap("inner", inner)
    outer = tr.wrap("outer", lambda x: traced_inner(x) + 1)
    assert outer(3) == 7
    with pytest.raises(ValueError):
        outer(-1)
    assert [(s.name, s.parent) for s in tr.spans] == [
        ("outer", None), ("inner", 0), ("outer", None), ("inner", 2)]
    assert all(s.end >= s.start > 0.0 for s in tr.spans)


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference():
    with open(workloads.REFERENCE_PATH) as fh:
        return json.load(fh)["flow2d_unstable"]


def _columns(ref):
    return {k: np.array(v, dtype=float) for k, v in ref["columns"].items()}


def test_gate_accepts_the_reference_itself(reference):
    cols = _columns(reference)
    assert gate.compare_to_reference(cols, reference["status"], reference["verdict"], reference) == []
    assert gate.check_invariants(cols, reference["status"], 50) == []


@pytest.mark.parametrize("column", ["f_beta", "d_p1_p2", "renorm_drift"])
def test_gate_rejects_one_column_perturbed_by_1e6(reference, column):
    cols = _columns(reference)
    cols[column] = cols[column].copy()
    cols[column][-1] *= 1.0 + 1e-6
    problems = gate.compare_to_reference(cols, reference["status"], reference["verdict"], reference)
    assert len(problems) == 1 and problems[0].startswith(column)


def test_gate_rejects_status_verdict_and_shape(reference):
    cols = _columns(reference)
    problems = gate.compare_to_reference(cols, "failed: x", "Soliton", reference)
    assert len(problems) == 2
    short = {k: v[:-1] for k, v in cols.items()}
    assert gate.compare_to_reference(short, reference["status"], reference["verdict"], reference)


def test_invariants_catch_area_nan_rise_and_failure(reference):
    cols = _columns(reference)
    bad = dict(cols, area=cols["area"] + 1e-9)
    assert any("area" in p for p in gate.check_invariants(bad, "completed", 50))
    bad = dict(cols, diameter=np.where(np.arange(cols["time"].size) == 2, np.nan, cols["diameter"]))
    assert any("diameter" in p for p in gate.check_invariants(bad, "completed", 50))
    rising = cols["f_beta"].copy()
    rising[-1] = rising[-2] + 1e-3
    assert any("f_beta" in p for p in gate.check_invariants(dict(cols, f_beta=rising), "completed", 50))
    assert gate.check_invariants(cols, "failed: stall", 50) == ["status 'failed: stall'"]


# ----------------------------------------------------------------------
# instrumentation on a tiny config
# ----------------------------------------------------------------------


def _tiny_config():
    cfg = workloads.WORKLOADS["flow2d_unstable"].config(seed=5)
    return replace(cfg, n_lat=16, n_lon=32, eps=0.15, t_max=0.08, sample_every=0.04)


def _traced_run(cfg, out_dir):
    tracer = Tracer()
    with layers.instrumented(tracer):
        cli.execute_run(cfg, str(out_dir))
    nbytes = sum(f.stat().st_size for f in Path(out_dir).iterdir())
    return layers.layer_metrics(tracer, nbytes), (Path(out_dir) / "trace.csv").read_bytes()


def test_counters_repeat_exactly_and_trace_is_unchanged(tmp_path):
    cfg = _tiny_config()
    first, trace_a = _traced_run(cfg, tmp_path / "a")
    second, trace_b = _traced_run(cfg, tmp_path / "b")
    counts = {k for k in first if not k.endswith("_s")}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["flow.steps"] == 8 and first["flow.sample_records"] == 3
    assert first["flow.backsolves"] >= first["flow.steps"]
    assert 1 <= first["flow.factorizations"]
    assert first["flow.stall_refactorizations"] <= first["flow.factorizations"] - 1
    assert first["geometry.dijkstra_calls"] == first["geometry.edge_graph_calls"] > 0
    cli.execute_run(cfg, str(tmp_path / "plain"))
    assert (tmp_path / "plain" / "trace.csv").read_bytes() == trace_a == trace_b


def test_instrumentation_is_removed_on_exit():
    originals = (cli.execute_run, flow._ImplicitStepper.solve, flow.spla)
    with pytest.raises(RuntimeError):
        with layers.instrumented(Tracer()):
            assert cli.execute_run is not originals[0]
            raise RuntimeError("leave the block")
    assert (cli.execute_run, flow._ImplicitStepper.solve, flow.spla) == originals
