import os
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest
import scipy.sparse.linalg as spla

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import conicflow  # noqa: E402
from conicflow import cli  # noqa: E402
from conicflow import flow as fl  # noqa: E402
from conicflow import geometry as geo  # noqa: E402
from oracles import football_control_state  # noqa: E402

CONFIG_DIR = os.path.join(os.path.dirname(conicflow.__file__), "configs")


#: the three shipped 2-D runs, one per stability class
SHIPPED = ("stable", "semistable", "unstable")


def shipped_config_path(name):
    return os.path.join(CONFIG_DIR, f"{name}.cfg")


def shipped_config(name, **overrides):
    cfg = fl.parse_config_file(shipped_config_path(name))
    return replace(cfg, **overrides) if overrides else cfg


def shipped_divisor(name):
    """The divisor of the shipped config ``name``, as its file gives it."""
    return shipped_config(name).divisor


#: fixtures that integrate a flow; a test that requests one, directly or
#: through another fixture, is marked slow
FLOW_FIXTURES = {
    "shipped_results",
    "shipped_runs",
    "unstable_eps_sweep",
    "soliton_axis_result",
    "football_control",
    "football_control_beta06",
}


def pytest_collection_modifyitems(items):
    for item in items:
        if FLOW_FIXTURES & set(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)


def skew_factors_from_third_solve(monkeypatch):
    """From the third ``_ImplicitStepper.solve`` on, every LU factor the
    stepper has built returns 2.5 times its solution, so refinement
    diverges and a refactorized solve leaves a relative residual of 2.25.
    Returns the list that grows by one entry per solve."""
    solves = []
    real_solve = fl._ImplicitStepper.solve

    def solve(self, d, rhs):
        solves.append(1)
        return real_solve(self, d, rhs)

    class Skewed:
        def __init__(self, lu):
            self.lu = lu
            self.perm_c = lu.perm_c  # the stepper reads its column order

        def solve(self, b):
            return (2.5 if len(solves) >= 3 else 1.0) * self.lu.solve(b)

    monkeypatch.setattr(fl._ImplicitStepper, "solve", solve)
    monkeypatch.setattr(fl, "spla", types.SimpleNamespace(
        splu=lambda a, **kw: Skewed(spla.splu(a, **kw))))
    return solves


@pytest.fixture(scope="session")
def round_state():
    grid = geo.build_grid(48, 96)
    return geo.make_state(geo.background_metric(grid, grid.divisor, 0.1))


@pytest.fixture(scope="session")
def shipped_results(tmp_path_factory):
    """The three production runs, executed through the CLI surface
    (manifest + trace + report), at the acceptance parameters."""
    root = tmp_path_factory.mktemp("shipped")
    out = {}
    for name in SHIPPED:
        config = shipped_config(name)
        out[name] = cli.execute_run(config, str(root / name), config_hash=name)
    return out


@pytest.fixture(scope="session")
def shipped_runs(shipped_results):
    return {name: res["trace"] for name, res in shipped_results.items()}


@pytest.fixture(scope="session")
def unstable_eps_sweep(shipped_results, tmp_path_factory):
    """Epsilon-halving pair for the unstable config: the shipped eps = 0.05
    run plus a one-step run at eps = 0.1, whose t = 0 sample is the
    regularized background that criterion 8c compares."""
    root = tmp_path_factory.mktemp("eps_sweep")
    config = shipped_config("unstable", eps=0.1)
    coarse = cli.execute_run(
        replace(config, t_max=config.dt), str(root / "eps0.1"), config_hash="eps0.1"
    )
    return {0.1: coarse["trace"], 0.05: shipped_results["unstable"]["trace"]}


@pytest.fixture(scope="session")
def soliton_axis_result(tmp_path_factory):
    """The shipped axisymmetric soliton orbit-tracking run (criterion 9)."""
    root = tmp_path_factory.mktemp("axis")
    config = fl.parse_config_file(shipped_config_path("soliton_axis"))
    return cli.execute_run(config, str(root / "soliton"), config_hash="soliton_axis")


@pytest.fixture(scope="session")
def football_control():
    return football_control_state(64, 128, 0.55, 0.05)


@pytest.fixture(scope="session")
def football_control_beta06():
    return football_control_state(64, 128, 0.6, 0.05)
