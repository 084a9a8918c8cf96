"""The functions that the benchmark in perfbench/ traces still exist.

The benchmark's own tests are outside the Tier-1 suite, and its tracer
reports a boundary that has gone as missing rather than failing, so a change
that deletes or renames a traced function, or takes a counted layer out of the
benchmark's paths, is caught here.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

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


def test_benchmark_counters_read_above_zero(monkeypatch):
    # The benchmark's own traced run: every counted layer is reached, and no
    # boundary is missing.  It runs on the ffrat modules already imported,
    # since load_ffrat would import the package afresh under the other tests.
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = SPANS.parent / "test_perfbench.py"
    spec = importlib.util.spec_from_file_location("perfbench_test_perfbench", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    names = importlib.import_module("workloads").MODULES
    lib = SimpleNamespace(ffrat=importlib.import_module("ffrat"),
                          **{name: importlib.import_module("ffrat." + name) for name in names})
    metrics = bench.traced_results(lib)[1]
    assert metrics["trace.missing_boundaries"] == 0
    assert [name for name in bench.COUNTS if not metrics[name] > 0] == []
