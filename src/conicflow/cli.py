"""Command-line surface: classify, soliton-table, run, sweep, report.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure,
3 verdict Undecided (so CI can gate on convergence).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import itertools
import json
import os
import sys
import time
from dataclasses import replace

from . import __version__
from . import diagnostics as diag
from . import flow as fl
from . import functionals as fn
from . import geometry as geo
from . import soliton as sol
from .marked_sphere import (
    Divisor,
    StabilityClass,
    alpha_invariant,
    classify_stability,
    euler_characteristic,
    predict_limit_divisor,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_UNDECIDED = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_divisor(path: str) -> Divisor:
    try:
        with open(path) as fh:
            return Divisor.from_json(fh.read())
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read divisor file {path!r}: {exc}") from exc


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------


def cmd_classify(args) -> int:
    d = _load_divisor(args.divisor)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cls = classify_stability(d)
        chi = float(euler_characteristic(d))
        out = {"class": str(cls), "chi": chi, "k": d.k,
               "weights": [float(w) for w in d.weights]}
        if float(d.total()) < 2.0:
            out["alpha"] = float(alpha_invariant(d))
        if cls is not StabilityClass.STABLE:
            ld = predict_limit_divisor(d)
            out["predicted_limit"] = {
                "beta_p": ld.beta_p, "beta_q": ld.beta_q,
                "partition": sorted(ld.partition), "conditional": ld.conditional,
            }
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        line = f"{out['class']}, chi={chi:g}"
        if "alpha" in out:
            line += f", alpha={out['alpha']:g}"
        if "predicted_limit" in out:
            p = out["predicted_limit"]
            line += f", predicted beta_inf=({p['beta_p']:g}, {p['beta_q']:g})"
            if p["conditional"]:
                line += " [conditional]"
        print(line)
    return EXIT_OK


# ----------------------------------------------------------------------
# soliton-table
# ----------------------------------------------------------------------


def cmd_soliton_table(args) -> int:
    d = _load_divisor(args.divisor)
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = sol.mu_table(d)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    rows = []
    for i, spec in enumerate(table.entries):
        rows.append({
            "rank": i + 1, "mu": spec.w, "beta_p": spec.beta_p, "beta_q": spec.beta_q,
            "tau": spec.tau, "c": spec.c, "partition": sorted(spec.partition),
        })
    out = {
        "entries": rows,
        "threshold": table.threshold,
        "threshold_defined": table.threshold is not None,
        "excluded_partitions": [
            {"beta_p": ld.beta_p, "beta_q": ld.beta_q, "partition": sorted(ld.partition)}
            for ld in table.excluded
        ],
    }
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        print(f"{'rank':>4} {'mu':>12} {'beta_p':>8} {'beta_q':>8} {'tau':>9} {'c':>9}  partition")
        for r in rows:
            print(f"{r['rank']:>4} {r['mu']:>12.6f} {r['beta_p']:>8.4f} {r['beta_q']:>8.4f} "
                  f"{r['tau']:>9.5f} {r['c']:>9.4f}  {r['partition']}")
        if table.threshold is None:
            print("threshold: undefined (fewer than two valid partitions)")
        else:
            print(f"threshold W_beta = mu_2 = {table.threshold:.6f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=2)
    if args.profiles:
        os.makedirs(args.profiles, exist_ok=True)
        for i, spec in enumerate(table.entries):
            prof = sol.soliton_profile(spec.beta_p, spec.beta_q)
            prof.to_csv(os.path.join(
                args.profiles, f"profile_{i + 1}_bp{spec.beta_p:g}_bq{spec.beta_q:g}.csv"
            ))
    return EXIT_OK


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _apply_overrides(config: fl.FlowConfig, args) -> fl.FlowConfig:
    kw = {}
    if args.resolution:
        try:
            nlat, nlon = (int(x) for x in args.resolution.lower().split("x"))
        except ValueError as exc:
            raise UsageError("--resolution expects NLATxNLON, e.g. 64x128") from exc
        kw["n_lat"], kw["n_lon"] = nlat, nlon
    if args.epsilon is not None:
        kw["eps"] = args.epsilon
    if args.tmax is not None:
        kw["t_max"] = args.tmax
    if args.dt is not None:
        kw["dt"] = args.dt
    if args.seed is not None:
        kw["seed"] = args.seed
    try:
        return replace(config, **kw)
    except ValueError as exc:
        raise UsageError(f"bad override: {exc}") from exc


def execute_run(config: fl.FlowConfig, out_dir: str, config_hash: str = "") -> dict:
    """Run one flow experiment and write manifest, trace, snapshots, report.

    A config the run cannot set up (grid, background or initial field) is a
    UsageError, and nothing is written for it.  The manifest holds the
    SHA-256 of the trace and of every field file.
    """
    t0 = time.perf_counter()
    try:
        trace = fl.run(config)
    except ValueError as exc:
        raise UsageError(f"cannot set up the run: {exc}") from exc
    state = trace.final_state
    report = diag.detect_convergence(trace, state, config.divisor)

    os.makedirs(out_dir, exist_ok=True)
    outputs = {}
    trace_path = os.path.join(out_dir, "trace.csv")
    trace.to_csv(trace_path)
    outputs["trace"] = "trace.csv"
    fields = [("final_snapshot", "u_final.csv", state.u)] + [
        (f"snapshot_{t:.6f}", f"u_t{t:012.6f}.csv", u) for t, u in trace.meta.get("snapshots", [])
    ]
    field_sha = {}
    for key, name, u in fields:
        path = os.path.join(out_dir, name)
        geo.save_field(path, u)
        outputs[key] = name
        field_sha[name] = _sha256(path)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(report.to_json())
    outputs["report"] = "report.json"

    manifest = {
        "code_version": __version__,
        "config_hash": config_hash,
        "trace_sha256": _sha256(trace_path),
        "field_sha256": field_sha,
        "config": config.to_dict(),
        "unit_constants": geo.UNITS.as_dict(),
        "status": trace.status,
        "verdict": report.verdict,
        "wall_time_s": time.perf_counter() - t0,
        "outputs": outputs,
        "nudges": [[int(i), float(o)] for i, o in trace.meta.get("nudges", [])],
        "solver": trace.meta["solver"],
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    return {"trace": trace, "report": report, "manifest": manifest}


def cmd_run(args) -> int:
    try:
        config = fl.parse_config_file(args.config)
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad config {args.config!r}: {exc}") from exc
    config = _apply_overrides(config, args)
    out_dir = args.out or "run_out"
    result = execute_run(config, out_dir, _sha256(args.config))
    trace, report = result["trace"], result["report"]
    print(report.summary())
    print(f"status: {trace.status}; outputs in {out_dir}")
    if trace.status.startswith("failed"):
        return EXIT_NUMERICAL
    if report.verdict == "Undecided":
        return EXIT_UNDECIDED
    return EXIT_OK


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def parse_sweep_file(path: str):
    """Sweep schema: a base ``config = path`` line plus ``sweep_<key> = v1, v2``
    lists, for any run-config key except ``divisor``; the cartesian product
    over all sweep lists defines the runs."""
    base = None
    lists = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not _:
                raise UsageError(f"sweep line {lineno}: expected 'key = value'")
            if key == "config":
                base = val if os.path.isabs(val) else os.path.join(
                    os.path.dirname(os.path.abspath(path)), val)
            elif key.startswith("sweep_") and key[6:] in fl.CONFIG_KEYS.keys() - {"divisor"}:
                items = [v.strip() for v in val.split(",") if v.strip()]
                try:
                    lists[key[6:]] = [fl.parse_config_value(key[6:], v)[1] for v in items]
                except ValueError as exc:
                    raise UsageError(f"sweep line {lineno}: {exc}") from exc
            else:
                raise UsageError(f"sweep line {lineno}: unknown key {key!r}")
    if base is None:
        raise UsageError("sweep file is missing the 'config' key")
    if not lists:
        raise UsageError("empty sweep: no sweep_* lists given")
    return base, lists


def _sweep_one(payload):
    config, overrides, out_dir, tag = payload
    try:
        result = execute_run(config, out_dir, tag)
        trace, report = result["trace"], result["report"]
        solver = result["manifest"]["solver"]
        row = {
            "run": tag, "status": trace.status, "verdict": report.verdict,
            **{k: v for k, v in overrides.items()},
            "t_end": float(trace.times[-1]),
            "sup_dev_half_chi": report.curvature["sup_dev_half_chi"],
            "w_normalized": float(trace["w_normalized"][-1]),
            "soliton_residual": float(trace["soliton_residual"][-1]),
            "f_beta": float(trace["f_beta"][-1]),
            "factorizations": solver["factorizations"],
            "stall_refactorizations": solver["stall_refactorizations"],
            "backsolves": solver["backsolves"],
        }
    except Exception as exc:  # per-run failures are isolated
        row = {"run": tag, "status": f"error: {exc}", "verdict": "", **overrides}
    return row


def cmd_sweep(args) -> int:
    base_path, lists = parse_sweep_file(args.config)
    try:
        base_config = fl.parse_config_file(base_path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad base config {base_path!r}: {exc}") from exc
    out_root = args.out or "sweep_out"
    os.makedirs(out_root, exist_ok=True)
    keys = sorted(lists.keys())
    jobs = []
    for combo in itertools.product(*(lists[k] for k in keys)):
        overrides = dict(zip(keys, combo))
        tag = "run_" + "_".join(f"{k}{v}" for k, v in overrides.items())
        kw = {fl.CONFIG_KEYS[k][0]: v for k, v in overrides.items()}
        try:
            config = replace(base_config, **kw)
        except ValueError as exc:
            raise UsageError(f"bad sweep values {overrides}: {exc}") from exc
        jobs.append((config, overrides, os.path.join(out_root, tag), tag))
    if args.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_sweep_one, jobs))
    else:
        rows = [_sweep_one(j) for j in jobs]
    agg = os.path.join(out_root, "aggregate.csv")
    cols = sorted({k for r in rows for k in r})
    with open(agg, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for r in rows:
            fh.write(",".join(str(r.get(c, "")) for c in cols) + "\n")
    print(f"{len(rows)} runs; aggregate written to {agg}")
    bad = [r for r in rows if str(r["status"]).startswith(("error", "failed"))]
    return EXIT_NUMERICAL if len(bad) == len(rows) else EXIT_OK


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


def _read_run(run_dir: str):
    """(final state, trace) of a finished run directory; ``trace.csv`` and
    ``u_final.csv`` must match the SHA-256 sums in its manifest."""
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    cfgd, outputs = manifest["config"], manifest["outputs"]
    div = Divisor(cfgd["divisor"]["weights"], cfgd["divisor"]["positions"])
    if cfgd["n_lon"] == 1:
        grid = geo.build_axis_grid(cfgd["n_lat"], div)
    else:
        grid = geo.build_grid(cfgd["n_lat"], cfgd["n_lon"], div)
    bg = geo.background_metric(grid, div, cfgd["eps"])
    u_name = outputs["final_snapshot"]
    u = geo.load_field(os.path.join(run_dir, u_name), grid.n)
    trace_path = os.path.join(run_dir, outputs["trace"])
    for path, digest in ((trace_path, manifest["trace_sha256"]),
                         (os.path.join(run_dir, u_name), manifest["field_sha256"][u_name])):
        if _sha256(path) != digest:
            raise ValueError(f"{path!r} does not match the SHA-256 in the manifest")
    trace = fl.FlowTrace.from_csv(trace_path)
    trace.status = manifest["status"]
    return geo.make_state(bg, u), trace


def cmd_report(args) -> int:
    try:
        state, trace = _read_run(args.run_dir)
    except KeyError as exc:
        raise UsageError(f"manifest in {args.run_dir!r} lacks the key {exc}") from exc
    except (OSError, ValueError, TypeError) as exc:
        raise UsageError(f"cannot read run {args.run_dir!r}: {exc}") from exc
    report = diag.detect_convergence(trace, state, state.background.divisor)
    print(report.summary())
    rp = fn.ricci_potential(state)
    print(f"f_beta: {fn.f_beta(state):.8g}")
    print(f"normalized_w(-v): {fn.normalized_w(state, -rp.v):.8g}")
    print(f"soliton_residual: {fn.soliton_residual(state, rp.v):.6g}")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
    return EXIT_UNDECIDED if report.verdict == "Undecided" else EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="conicflow", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="stability class of a divisor file")
    c.add_argument("divisor")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_classify)

    s = sub.add_parser("soliton-table", help="mu-table and threshold of a divisor")
    s.add_argument("divisor")
    s.add_argument("--json", action="store_true")
    s.add_argument("--out", help="also write the JSON table to this path")
    s.add_argument("--profiles", help="directory for per-partition profile CSVs")
    s.set_defaults(func=cmd_soliton_table)

    r = sub.add_parser("run", help="integrate a flow config")
    r.add_argument("--config", required=True)
    r.add_argument("--out")
    r.add_argument("--seed", type=int)
    r.add_argument("--resolution", help="NLATxNLON override")
    r.add_argument("--epsilon", type=float)
    r.add_argument("--tmax", type=float)
    r.add_argument("--dt", type=float)
    r.set_defaults(func=cmd_run)

    w = sub.add_parser("sweep", help="cartesian parameter sweep")
    w.add_argument("--config", required=True, help="sweep spec file")
    w.add_argument("--out")
    w.add_argument("--workers", type=int, default=1)
    w.set_defaults(func=cmd_sweep)

    q = sub.add_parser("report", help="recompute the report of a finished run")
    q.add_argument("run_dir")
    q.add_argument("--json", help="write the report JSON to this path")
    q.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except fl.FlowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
