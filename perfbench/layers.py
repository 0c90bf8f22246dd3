"""Per-layer instrumentation of conicflow, applied from outside the package.

:func:`instrumented` swaps span-recording wrappers into the conicflow
modules for the duration of a ``with`` block and restores the originals on
exit, so untraced runs in the same process execute the unmodified code.
:func:`layer_metrics` turns one traced run's spans and counters into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import sys

from conicflow import cli, diagnostics, flow, functionals, geometry, marked_sphere, soliton

from spans import Tracer, totals_by_name

#: (module, attribute, span name).  Every binding of the same function
#: object in any loaded conicflow module is replaced, so names imported with
#: ``from x import f`` are traced as well.
FUNCTIONS = [
    (cli, "execute_run", "cli.execute_run"),
    (flow, "_run_loop", "flow.run_loop"),
    (flow, "_semi_implicit_step", "flow.step"),
    (flow, "_sample_record", "flow.sample_record"),
    (geometry, "build_grid", "geometry.assemble"),
    (geometry, "build_axis_grid", "geometry.assemble"),
    (geometry, "background_metric", "geometry.background_metric"),
    (geometry, "_edge_graph", "geometry.edge_graph"),
    (geometry, "_csgraph_dijkstra", "geometry.dijkstra"),
    (functionals, "ricci_potential", "functionals.ricci_potential"),
    (functionals, "f_beta", "functionals.f_beta"),
    (functionals, "normalized_w", "functionals.normalized_w"),
    (functionals, "soliton_residual", "functionals.soliton_residual"),
    (diagnostics, "volume_ratio", "diagnostics.volume_ratio"),
    (diagnostics, "detect_convergence", "diagnostics.detect_convergence"),
    (soliton, "soliton_profile", "soliton.soliton_profile"),
    (marked_sphere, "enumerate_partitions", "marked_sphere.enumerate_partitions"),
]

#: Module prefixes whose summed span self time is reported as ``<prefix>.self_s``.
SELF_TIME_MODULES = ("flow", "geometry", "functionals", "diagnostics")


class _CountingFactor:
    """A sparse LU factor that counts its back-solves."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.counters["flow.backsolves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _CountingSparseLinalg:
    """Stands in for the ``scipy.sparse.linalg`` module that flow.py calls,
    so every factor it builds counts its back-solves."""

    def __init__(self, spla, tracer: Tracer):
        self._spla = spla
        self._tracer = tracer

    def splu(self, *args, **kwargs):
        return _CountingFactor(self._spla.splu(*args, **kwargs), self._tracer)

    def __getattr__(self, name):
        return getattr(self._spla, name)


def _conicflow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "conicflow" or name.startswith("conicflow."))]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Trace conicflow's layer boundaries into ``tracer`` inside the block."""
    undo = []
    backsolves_at_solve_start = 0

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def start_solve(*_args, **_kwargs):
        nonlocal backsolves_at_solve_start
        backsolves_at_solve_start = tracer.counters["flow.backsolves"]

    def start_factor(*_args, **_kwargs):
        # the stepper refactors up front when the diagonal drifted (or on the
        # first step) and after refinement stalled, which is after back-solves
        if tracer.counters["flow.backsolves"] > backsolves_at_solve_start:
            tracer.counters["flow.stall_refactorizations"] += 1

    try:
        modules = _conicflow_modules()
        for module, attr, name in FUNCTIONS:
            original = getattr(module, attr)
            wrapped = tracer.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        patch(m, key, wrapped)
        stepper = flow._ImplicitStepper
        patch(stepper, "solve", tracer.wrap("flow.solve", stepper.solve, start_solve))
        patch(stepper, "_factor", tracer.wrap("flow.factor", stepper._factor, start_factor))
        grid = geometry.SphereGrid
        patch(grid, "ground_solve", tracer.wrap("geometry.ground_solve", grid.ground_solve))
        patch(flow, "spla", _CountingSparseLinalg(flow.spla, tracer))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict[str, float]:
    """Per-layer values of one traced ``cli.execute_run``."""
    tot = totals_by_name(tracer.spans)
    c = tracer.counters

    def calls(name):
        return tot[name].calls if name in tot else 0

    def incl(name):
        return tot[name].inclusive_s if name in tot else 0.0

    def self_s(name):
        return tot[name].self_s if name in tot else 0.0

    steps = calls("flow.step")
    samples = calls("flow.sample_record")
    m = {
        "flow.steps": steps,
        "flow.solve_s": incl("flow.solve"),
        "flow.factorizations": calls("flow.factor"),
        "flow.factor_s": incl("flow.factor"),
        "flow.stall_refactorizations": c["flow.stall_refactorizations"],
        "flow.backsolves": c["flow.backsolves"],
        "flow.backsolves_per_step": c["flow.backsolves"] / steps if steps else 0.0,
        "flow.sample_records": samples,
        "flow.sample_record_s": incl("flow.sample_record"),
        "flow.loop_self_s": self_s("flow.run_loop"),
        "geometry.assemble_s": incl("geometry.assemble"),
        "geometry.background_metric_s": incl("geometry.background_metric"),
        "geometry.edge_graph_calls": calls("geometry.edge_graph"),
        "geometry.edge_graph_s": incl("geometry.edge_graph"),
        "geometry.dijkstra_calls": calls("geometry.dijkstra"),
        "geometry.dijkstra_s": incl("geometry.dijkstra"),
        "geometry.dijkstra_per_sample": calls("geometry.dijkstra") / samples if samples else 0.0,
        "geometry.ground_solve_calls": calls("geometry.ground_solve"),
        "geometry.ground_solve_s": incl("geometry.ground_solve"),
        "geometry.ground_solves_per_sample":
            calls("geometry.ground_solve") / samples if samples else 0.0,
        "functionals.ricci_potential_calls": calls("functionals.ricci_potential"),
        "functionals.ricci_potential_s": incl("functionals.ricci_potential"),
        "functionals.f_beta_s": incl("functionals.f_beta"),
        "functionals.normalized_w_s": incl("functionals.normalized_w"),
        "functionals.soliton_residual_calls": calls("functionals.soliton_residual"),
        "functionals.soliton_residual_s": incl("functionals.soliton_residual"),
        "diagnostics.volume_ratio_s": incl("diagnostics.volume_ratio"),
        "diagnostics.detect_convergence_s": incl("diagnostics.detect_convergence"),
        "soliton.soliton_profile_calls": calls("soliton.soliton_profile"),
        "marked_sphere.enumerate_partitions_calls": calls("marked_sphere.enumerate_partitions"),
        # execute_run minus the flow and detect_convergence spans inside it:
        # writing and hashing the trace, snapshots, report and manifest
        "cli.write_s": self_s("cli.execute_run"),
        "cli.bytes_written": bytes_written,
    }
    for prefix in SELF_TIME_MODULES:
        m[f"{prefix}.self_s"] = sum(t.self_s for n, t in tot.items() if n.startswith(prefix + "."))
    return m
