"""The benchmark (perfbench/) reaches into conicflow by name: its layer
tracer wraps functions by attribute name, and its workloads build configs
from the shipped files and read FlowConfig fields.  A rename or a removed
config key breaks every benchmark run; these tests catch it in tier-1."""

import importlib
import os
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def bench():
    """Imports perfbench modules by name.  Importing ``workloads`` pins the
    BLAS/OpenMP thread counts through the environment; the variables it
    sets are restored afterwards."""
    env = dict(os.environ)
    sys.path.insert(0, str(BENCH_DIR))
    try:
        yield importlib.import_module
    finally:
        sys.path.remove(str(BENCH_DIR))
        for var in getattr(sys.modules.get("workloads"), "THREAD_VARS", ()):
            if var in env:
                os.environ[var] = env[var]
            else:
                os.environ.pop(var, None)


def test_tracer_finds_every_wrapped_name(bench):
    layers = bench("layers")
    for module, attr, _ in layers.FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    with layers.instrumented(bench("spans").Tracer()):
        pass


def test_every_workload_sets_up(bench):
    workloads = bench("workloads")
    for workload in workloads.WORKLOADS.values():
        workloads.set_up(workload.config(0))


def test_traced_run_counts_solver_work(bench, tmp_path):
    # the counters come from wrappers swapped in around flow.spla and the
    # stepper: a direct `from scipy.sparse.linalg import splu` in flow.py
    # would bypass them and zero the benchmark's solver metrics silently
    layers, spans = bench("layers"), bench("spans")
    from conicflow import cli, flow
    from conicflow.marked_sphere import Divisor

    cfg = flow.FlowConfig(divisor=Divisor([]), n_lat=64, n_lon=1, eps=0.1, dt=0.02,
                          t_max=0.1, sample_every=0.1, auto_stop=False)
    tracer = spans.Tracer()
    with layers.instrumented(tracer):
        solver = cli.execute_run(cfg, str(tmp_path / "run"))["manifest"]["solver"]
    metrics = layers.layer_metrics(tracer, 0)
    assert metrics["flow.factorizations"] == solver["factorizations"] > 0
    assert metrics["flow.backsolves"] == solver["backsolves"] > 0


@pytest.mark.parametrize("n_lat, eps, t_max", [(4096, 6e-4, 0.1), (8192, 3e-4, 0.05)],
                         ids=["stale_factor", "floor_rule"])
def test_manifest_stall_refactorizations_match_the_trace(bench, tmp_path, n_lat, eps, t_max):
    # the benchmark counts a factorization as stall-triggered when back-solves
    # preceded it in the same solve; the stepper's own counter must agree,
    # both after a stale factor stalls and once the residual-floor rule
    # refactors every step without refining first
    layers, spans = bench("layers"), bench("spans")
    from conicflow import cli
    from conftest import shipped_config

    cfg = shipped_config("soliton_axis", n_lat=n_lat, eps=eps, t_max=t_max)
    tracer = spans.Tracer()
    with layers.instrumented(tracer):
        solver = cli.execute_run(cfg, str(tmp_path / "run"))["manifest"]["solver"]
    metrics = layers.layer_metrics(tracer, 0)
    assert metrics["flow.stall_refactorizations"] == solver["stall_refactorizations"] > 0
    assert solver["stall_refactorizations"] < solver["factorizations"]
