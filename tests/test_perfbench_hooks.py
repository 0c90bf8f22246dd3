"""The benchmark's layer tracer (perfbench/layers.py) wraps conicflow
functions by attribute name; renaming one breaks traced benchmark runs."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_wrapped_name():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import layers
        from spans import Tracer
    finally:
        sys.path.remove(str(BENCH_DIR))
    for module, attr, _ in layers.FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    with layers.instrumented(Tracer()):
        pass
