"""Guards for the benchmark, which wraps mhekit functions by name and
perturbs estimates through them."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_trace_points_resolve():
    """Every name the benchmark's tracer wraps is still an attribute of its
    module, so a traced run cannot silently lose a layer."""
    path = ROOT / "perfbench" / "spans.py"
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


def test_perfbench_selftest_passes():
    """The benchmark's own self-test (tiny sizes, a few seconds): every
    metric printed, the gate rejecting estimates perturbed through
    ``harness.rollout``, and consistent spans around the traced solves."""
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
