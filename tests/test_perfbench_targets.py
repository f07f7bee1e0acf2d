"""The traced benchmark wraps names in abflux's module namespaces; each
one must still exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [(module, attr) for module, attr, _, _ in spans.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
