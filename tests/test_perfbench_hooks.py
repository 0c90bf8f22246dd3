"""The benchmark (perfbench/) reaches into conicflow by name: its layer
tracer wraps functions by attribute name, and its workloads build configs
from the shipped files and read FlowConfig fields.  A rename or a removed
config key breaks every benchmark run; these tests catch it in tier-1, and
so does a change that moves a workload's trace outside the benchmark's
correctness gate."""

import importlib
import json
import os
import subprocess
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


#: one benchmark run and its gate, through perfbench/run.py's run_once;
#: ``run`` imports ``workloads`` first, so the BLAS threads are pinned
#: before numpy loads, as in the benchmark and when its reference was written
GATE_CHECK = """
import json, sys
from pathlib import Path
import run
w = run.workloads
cfg = w.WORKLOADS[sys.argv[1]].config(w.REFERENCE_SEED)
with open(w.REFERENCE_PATH) as fh:
    reference = json.load(fh)[sys.argv[1]]
print(json.dumps(run.run_once(cfg, Path(sys.argv[2]), reference)[2]))
"""


@pytest.mark.slow
@pytest.mark.parametrize("name", ["flow2d_unstable", "axis1d_soliton", "monitors2d_semistable"])
def test_workload_passes_the_gate_at_the_reference_seed(tmp_path, name):
    # a fresh process: here numpy is loaded already, and pinning the
    # threads now would not reach its BLAS
    out = subprocess.run([sys.executable, "-c", GATE_CHECK, name, str(tmp_path / "run")],
                         cwd=BENCH_DIR, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == []
