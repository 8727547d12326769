"""Guard for the benchmark's tracer, which wraps mhekit functions by name."""

import importlib
import importlib.util
import sys
from pathlib import Path


def test_perfbench_trace_points_resolve():
    """Every name the benchmark's tracer wraps is still an attribute of its
    module, so a traced run cannot silently lose a layer."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    for module_name, attr, _ in spans.TRACE_POINTS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
