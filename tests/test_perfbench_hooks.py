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
