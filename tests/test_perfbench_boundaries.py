"""The functions that the benchmark in perfbench/ traces still exist.

The benchmark's own tests are outside the Tier-1 suite, and its tracer
reports a boundary that has gone as missing rather than failing, so a change
that deletes or renames a traced function is caught here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_benchmark_boundary_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # perfbench/test_perfbench.py also reads classify.normalized_polys.
    boundaries = [(module, attr) for module, attr, _ in spans.BOUNDARIES]
    boundaries.append(("classify", "normalized_polys"))
    missing = ["%s.%s" % (module, attr) for module, attr in boundaries
               if not callable(getattr(importlib.import_module("ffrat." + module), attr, None))]
    assert missing == []
