"""conicflow benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout, against the conicflow source in its
``src``.  With ``--trace 0`` it repeats (set-up x SETUPS_PER_RUN, one
``cli.execute_run``) for about ``--seconds`` (at least MIN_RUNS runs) and
reports the medians ``setup_s`` and ``run_s`` and the process's
``peak_rss_mb``.  With ``--trace 1`` it alternates untraced and traced runs
and reports the per-layer metrics of the traced ones.  Every run passes the
correctness gate (gate.py) or counts as failed.  The last line of standard
output is the JSON result; the samples, the machine description and (when
traced) the spans go to ``.perfbench_run/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads  # first: it pins the BLAS threads before numpy loads
import gate
import layers
import spans
from conicflow import cli

#: set-ups timed before each run; one takes 0.06-0.25 s and varies by tens
#: of percent, so the median of many spread over the whole run is reported
SETUPS_PER_RUN = 3
#: untraced runs per timed invocation, however short --seconds is
MIN_RUNS = 3

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def machine_description() -> dict:
    import numpy
    import scipy

    def read(path):
        try:
            with open(path) as fh:
                return fh.read()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or platform.machine())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read(index / f).strip() for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in workloads.THREAD_VARS},
    }


def run_once(cfg, run_dir: Path, reference, tracer=None):
    """One ``cli.execute_run`` (traced when ``tracer`` is given) and its gate.

    Returns (wall seconds, trace sha256, problems).  The run's result is
    dropped on return, so consecutive runs do not stack up in peak memory.
    """
    with layers.instrumented(tracer) if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        result = cli.execute_run(cfg, str(run_dir))
        wall = time.perf_counter() - t0
    columns = gate.read_trace(str(run_dir / "trace.csv"))
    status, verdict = result["trace"].status, result["report"].verdict
    problems = gate.check_invariants(columns, status, workloads.steps_per_sample(cfg))
    if reference is not None:
        problems += gate.compare_to_reference(columns, status, verdict, reference)
    return wall, result["manifest"]["trace_sha256"], problems


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_step"):
        return "count/step"
    if name.endswith("_per_sample"):
        return "count/sample"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cfg = workloads.WORKLOADS[args.workload].config(args.seed)
    reference = None
    if cfg.seed == workloads.REFERENCE_SEED:
        with open(workloads.REFERENCE_PATH) as fh:
            reference = json.load(fh)[args.workload]
    out = workloads.ROOT / ".perfbench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    machine = machine_description()
    print("machine: " + json.dumps(machine), flush=True)

    setup_s, untraced_s, traced_s, layer_runs, span_log = [], [], [], [], []
    attempted = failed = 0
    first_sha = None
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and attempted % 2 == 1
        attempted += 1
        run_dir = out / f"run{attempted}"
        tracer = spans.Tracer() if traced else None
        try:
            if not args.trace:
                for _ in range(SETUPS_PER_RUN):
                    t0 = time.perf_counter()
                    workloads.set_up(cfg)
                    setup_s.append(time.perf_counter() - t0)
            wall, sha, problems = run_once(cfg, run_dir, reference, tracer)
            (traced_s if traced else untraced_s).append(wall)
            first_sha = first_sha or sha
            if sha != first_sha:
                problems.append("trace.csv differs from the first run's")
            if traced:
                nbytes = sum(f.stat().st_size for f in run_dir.iterdir())
                layer_runs.append(layers.layer_metrics(tracer, nbytes))
                t0 = tracer.spans[0].start
                span_log.append({"run": attempted, "spans": spans.spans_as_dicts(tracer.spans, t0)})
        except Exception:  # a crashing run is a failed operation, not a crashed benchmark
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            print(f"run {attempted} FAILED:\n  " + "\n  ".join(problems), file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        elapsed = time.perf_counter() - t_start
        enough = attempted % 2 == 0 if args.trace else attempted >= MIN_RUNS
        if enough and elapsed * (attempted + 1) / attempted > args.seconds:
            break

    if not untraced_s or (args.trace and not layer_runs):
        print("error: no run completed", file=sys.stderr)
        return 1
    run_s = statistics.median(untraced_s)
    if args.trace:
        units = {name: layer_unit(name) for name in layer_runs[0]}
        units["bench.tracing_overhead_s"] = "s"
        # times are medians over the traced runs; counts repeat exactly, so
        # the first traced run's are reported
        values = {name: statistics.median(r[name] for r in layer_runs) if units[name] == "s"
                  else layer_runs[0][name] for name in layer_runs[0]}
        values["bench.tracing_overhead_s"] = statistics.median(traced_s) - run_s
        with open(out / "spans.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "machine": machine,
                       "layer_metrics": layer_runs, "traced_runs": span_log}, fh)
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    with open(out / "result.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "machine": machine, "setup_s": setup_s, "untraced_run_s": untraced_s,
                   "traced_run_s": traced_s, "attempted": attempted, "failed": failed,
                   "metrics": metrics}, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {attempted} runs ({failed} failed); "
          f"untraced run_s samples {[round(s, 4) for s in untraced_s]}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
