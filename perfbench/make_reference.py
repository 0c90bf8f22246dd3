"""Write reference.json: status, verdict and trace of each workload at the
reference seed, which run.py's correctness gate compares against.

    python3 perfbench/make_reference.py

Regenerate it only when a change is meant to alter the traces, and say so:
the gate exists to catch changes that alter them by accident.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads  # first: it pins the BLAS threads before numpy loads
import gate
from conicflow import cli


def main() -> int:
    ref = {}
    out = workloads.ROOT / ".perfbench_run" / "reference"
    for name, wl in workloads.WORKLOADS.items():
        result = cli.execute_run(wl.config(workloads.REFERENCE_SEED), str(out / name))
        columns = gate.read_trace(str(out / name / "trace.csv"))
        ref[name] = {
            "status": result["trace"].status,
            "verdict": result["report"].verdict,
            "columns": {k: v.tolist() for k, v in columns.items()},
        }
        print(f"{name}: {ref[name]['status']}, {ref[name]['verdict']}, "
              f"{len(columns['time'])} rows")
    shutil.rmtree(out, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
