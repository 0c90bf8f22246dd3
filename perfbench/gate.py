"""Correctness gate applied to every benchmark run.

At the reference seed a run must reproduce the stored reference: the same
status, verdict, trace columns and row count, every value within
``REL_GATE`` relative.  At every seed a run must also hold the invariants
the acceptance suite asserts on the shipped runs.  Each check returns a
list of problems; an empty list passes.
"""

from __future__ import annotations

import numpy as np

#: relative tolerance of the reference comparison (ROADMAP's solver gate)
REL_GATE = 1e-9
#: values below this magnitude are compared absolutely, at REL_GATE * ABS_FLOOR
ABS_FLOOR = 1e-12
#: the area is restored to 2 after every step, so only round-off remains
AREA_TOL = 1e-12
#: allowed per-step rise of f_beta (acceptance criterion 5 uses the same)
PER_STEP_SLACK = 1e-6


def read_trace(path: str) -> dict[str, np.ndarray]:
    """The columns of a ``trace.csv``, the ``time`` column included."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def compare_to_reference(columns: dict, status: str, verdict: str, ref: dict) -> list[str]:
    """Problems of a run against a stored reference
    (``{"status", "verdict", "columns": {name: [values]}}``)."""
    problems = []
    if status != ref["status"]:
        problems.append(f"status {status!r} != reference {ref['status']!r}")
    if verdict != ref["verdict"]:
        problems.append(f"verdict {verdict!r} != reference {ref['verdict']!r}")
    if list(columns) != list(ref["columns"]):
        return problems + [f"trace columns {list(columns)} != reference {list(ref['columns'])}"]
    for name, values in columns.items():
        want = np.asarray(ref["columns"][name], dtype=float)
        if values.shape != want.shape:
            problems.append(f"{name}: {values.size} rows != reference {want.size}")
            continue
        tol = REL_GATE * np.maximum(np.abs(want), ABS_FLOOR)
        bad = np.flatnonzero(~(np.abs(values - want) <= tol))
        if bad.size:
            i = int(bad[0])
            problems.append(
                f"{name}[{i}] = {values[i]!r} differs from reference {want[i]!r} "
                f"by more than {REL_GATE:g} relative ({bad.size} rows)"
            )
    return problems


def check_invariants(columns: dict, status: str, steps_per_sample: int) -> list[str]:
    """Seed-independent checks: status, finiteness, area, monotone f_beta."""
    problems = []
    if status.startswith("failed"):
        problems.append(f"status {status!r}")
    for name, values in columns.items():
        if not np.all(np.isfinite(values)):
            problems.append(f"non-finite values in column {name}")
    area_dev = float(np.max(np.abs(columns["area"] - 2.0)))
    if not area_dev <= AREA_TOL:
        problems.append(f"area deviates from 2 by {area_dev:.3e}")
    rise = float(np.max(np.diff(columns["f_beta"]), initial=0.0))
    if not rise <= PER_STEP_SLACK * steps_per_sample:
        problems.append(f"f_beta rises by {rise:.3e} between samples")
    return problems
