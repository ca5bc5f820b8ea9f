"""Every function the benchmark's tracer binds by name still exists."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).parent.parent / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_package():
    spans = _spans_module()
    bound = [(module, name) for _, module, names in (*spans.SPANS, *spans.COUNTED) for name in names]
    assert bound
    missing = [(module, name) for module, name in bound
               if not callable(getattr(importlib.import_module(f"fibquiver.{module}"), name, None))]
    assert missing == []
