"""The benchmark's workloads: fixed-horizon cut-downs of the shipped configs.

Each keeps the shipped grid, divisor, eps and dt, turns auto-stop off so
the step count is fixed, and (for the 2-D ones) starts from a bump whose
centre the workload seed moves.  See README.md for why each was chosen.

Importing this module pins the BLAS/OpenMP pools to one thread (when numpy
is not loaded yet), puts the checkout's ``src`` first on ``sys.path`` and
refuses a ``conicflow`` found anywhere else, so the benchmark always runs
the source next to it.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "conicflow").is_dir():
    raise ImportError(f"no conicflow source under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import conicflow  # noqa: E402

if Path(conicflow.__file__).resolve().parent != SRC / "conicflow":
    raise ImportError(f"conicflow was imported from {conicflow.__file__}, not from {SRC}")

from conicflow import flow as fl  # noqa: E402
from conicflow import functionals as fn  # noqa: E402
from conicflow import geometry as geo  # noqa: E402

CONFIG_DIR = os.path.join(os.path.dirname(conicflow.__file__), "configs")

#: the shipped config seed; runs at this seed are compared with REFERENCE_PATH
REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Workload:
    config_file: str
    steps: int | None = None  # fixed horizon in steps; None keeps the shipped t_max
    sample_every_step: bool = False
    seeded: bool = True  # the seed becomes the config seed of a bump start

    def config(self, seed: int) -> fl.FlowConfig:
        cfg = fl.parse_config_file(os.path.join(CONFIG_DIR, self.config_file))
        kw = {"auto_stop": False}
        if self.seeded:
            kw.update(initial="bump", seed=seed)
        if self.steps:
            kw["t_max"] = self.steps * cfg.dt
        if self.sample_every_step:
            kw["sample_every"] = cfg.dt
        return replace(cfg, **kw)


WORKLOADS = {
    "flow2d_unstable": Workload("unstable.cfg", steps=200),
    "axis1d_soliton": Workload("soliton_axis.cfg", seeded=False),
    "monitors2d_semistable": Workload("semistable.cfg", steps=40, sample_every_step=True),
}


def steps_per_sample(cfg: fl.FlowConfig) -> int:
    return max(1, round(cfg.sample_every / cfg.dt))


def set_up(cfg: fl.FlowConfig) -> None:
    """What every run builds before its first step: the grid, the background
    metric and the first grounded Poisson factorization."""
    if cfg.axisymmetric:
        grid = geo.build_axis_grid(cfg.n_lat, cfg.divisor)
    else:
        grid = geo.build_grid(cfg.n_lat, cfg.n_lon, cfg.divisor)
    fn.h_background(geo.background_metric(grid, cfg.divisor, cfg.eps))
