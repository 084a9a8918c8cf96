"""The benchmark's workloads: the operations each one runs and the checks
that every result must pass.

An operation is one count, one classification or one CLI invocation.  Its
check compares the result with the closed forms of ``ffrat.counting`` or with
properties the method must have, never with a stored copy of earlier output.
An operation that raises or fails a check counts as failed.  Each workload
runs whole rounds of the same operations, so the share of failed operations
does not depend on the seed or on the length of the run.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import cold_setup
from speed import timed_call

MODULES = ("gf", "polyring", "ratmap", "counting", "classify", "oracle", "cli")

# The grid `ffrat verify` runs when given no --q and --n.
DEFAULT_VERIFY_QS = (2, 3, 4, 5)
DEFAULT_VERIFY_NS = (1, 2, 3)
APPENDIX_CHECKS_PER_Q = 60
REPORT_NAME = "verify.json"


def load_ffrat() -> SimpleNamespace:
    """Import ``ffrat`` afresh, so that its field caches start empty."""
    for name in [n for n in sys.modules if n == "ffrat" or n.startswith("ffrat.")]:
        del sys.modules[name]
    lib = {"ffrat": importlib.import_module("ffrat")}
    for name in MODULES:
        lib[name] = importlib.import_module("ffrat." + name)
    return SimpleNamespace(**lib)


@dataclass
class Op:
    name: str
    part: str                         # burnside, orbit, classify or cli
    run: Callable[[], object]
    check: Callable[[object], list]   # the problems found; empty when correct
    known_fault: str = ""             # why it fails today, if it is expected to


@dataclass
class OpResult:
    op: Op
    seconds: float                    # scaled to the reference core speed (speed.py)
    wall_seconds: float
    problems: list

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class Workload:
    fields: tuple[int, ...]           # field orders built during set-up
    exts: tuple[int, ...]             # base field orders whose GF(q^2) is built too
    ops: Callable[[SimpleNamespace, Path], list]


def build_fields(lib: SimpleNamespace, workload: Workload) -> None:
    cold_setup.build_fields(lib.gf, workload.fields, workload.exts)


def expect(label: str, want, got) -> list:
    return [] if want == got else ["%s: expected %r, got %r" % (label, want, got)]


def run_round(ops: list, tracer=None) -> list:
    """Run every operation once, timing each, then check the results."""
    gc.collect()
    timed = []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            value, error, wall, scaled = timed_call(op.run)
            timed.append((op, scaled, wall, value, error))
    finally:
        if tracer is not None:
            tracer.uninstall()
    results = []
    for op, seconds, wall, value, error in timed:
        if error is not None:
            where = traceback.extract_tb(error.__traceback__)[-1]
            problems = ["raised %s at %s:%d: %s" % (type(error).__name__,
                                                    Path(where.filename).name,
                                                    where.lineno, error)]
        else:
            problems = op.check(value)
        results.append(OpResult(op, seconds, wall, problems))
    return results


# -- rational-oracle ---------------------------------------------------------


def _rational_check(lib, q: int, n: int):
    def check(got):
        c = lib.counting
        return (expect("count_rational_classes(%d, %d)" % (q, n),
                       c.count_rational_classes(q, n), got)
                + expect("count_rational_classes_lowdeg(%d, %d)" % (q, n),
                         c.count_rational_classes_lowdeg(q, n), got))
    return check


def rational_oracle_ops(lib, tmp: Path) -> list:
    o, field = lib.oracle, lib.gf.field_of_order
    F9, F5, F7 = field(9), field(5), field(7)
    return [
        Op("burnside_count_rational(q=9, n=3)", "burnside",
           lambda: o.burnside_count_rational(F9, 3), _rational_check(lib, 9, 3)),
        Op("burnside_count_rational(q=5, n=4)", "burnside",
           lambda: o.burnside_count_rational(F5, 4), _rational_check(lib, 5, 4)),
        Op("orbit_count_rational(q=7, n=4)", "orbit",
           lambda: o.orbit_count_rational(F7, 4), _rational_check(lib, 7, 4)),
    ]


# -- poly-classify -----------------------------------------------------------


def _poly_count_check(lib, q: int, n: int):
    def check(got):
        c = lib.counting
        problems = expect("count_polynomial_classes(%d, %d)" % (q, n),
                          c.count_polynomial_classes(q, n), got)
        if n <= 5:
            problems += expect("count_polynomial_classes_lowdeg(%d, %d)" % (q, n),
                               c.count_polynomial_classes_lowdeg(q, n), got)
        return problems
    return check


def _classify_check(lib, F, n: int):
    q = F.q

    def check(reps):
        problems = _poly_count_check(lib, q, n)(len(reps))
        sizes = [r.orbit_size for r in reps]
        problems += expect("sum of orbit sizes", q ** (n - 1), sum(sizes))
        bad = [s for s in sizes if (q * (q - 1)) % s]
        if bad:
            problems.append("orbit sizes %r do not divide q(q-1) = %d" % (bad[:5], q * (q - 1)))
        canons = [r.canon.coeffs for r in reps]
        if len(set(canons)) != len(canons):
            problems.append("canonical members are not pairwise distinct")
        odd = [cs for cs in canons if len(cs) != n + 1 or cs[-1] != 1 or cs[0] != 0]
        if odd:
            problems.append("canonical members not normalized: %r" % (odd[:3],))
        if n <= 5:
            sizes_by_tag = Counter()
            for tag, members in lib.classify.table_families(F, n):
                sizes_by_tag[tag] += len(members)
            problems += expect("classes per family tag", dict(sizes_by_tag),
                               dict(Counter(r.family_tag for r in reps)))
        return problems
    return check


def poly_classify_ops(lib, tmp: Path) -> list:
    o, c, field = lib.oracle, lib.classify, lib.gf.field_of_order
    F16, F9 = field(16), field(9)
    return [
        Op("classify_all(q=16, n=5)", "classify",
           lambda: c.classify_all(F16, 5), _classify_check(lib, F16, 5)),
        Op("classify_all(q=9, n=6)", "classify",
           lambda: c.classify_all(F9, 6), _classify_check(lib, F9, 6)),
        Op("burnside_count_poly(q=9, n=6)", "burnside",
           lambda: o.burnside_count_poly(F9, 6), _poly_count_check(lib, 9, 6)),
        Op("orbit_count_poly(q=9, n=6)", "orbit",
           lambda: o.orbit_count_poly(F9, 6), _poly_count_check(lib, 9, 6)),
    ]


# -- verify-cli --------------------------------------------------------------


def expected_verify_checks(qs, ns) -> int:
    """Checks `ffrat verify` must report over a (q, n) grid with every kind:
    per q and n, one fix-formula check per conjugacy class of GL(2, q) and
    2 or 3 frakN and frakM checks (the low-degree tables stop at n = 4 and
    n = 5); per q, the appendix checks."""
    return sum(sum((q * q - 1) + (3 if n <= 4 else 2) + (3 if n <= 5 else 2)
                   for n in ns) + APPENDIX_CHECKS_PER_Q
               for q in qs)


def _cli(lib, argv: list, env: dict | None = None) -> int:
    """Run ``cli.main`` in this process with its output discarded; return
    the exit code."""
    saved = {k: os.environ.get(k) for k in env or {}}
    try:
        os.environ.update(env or {})
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return lib.cli.main(argv)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _verify_check(report_path: Path):
    want_checks = expected_verify_checks(DEFAULT_VERIFY_QS, DEFAULT_VERIFY_NS)

    def check(code):
        problems = expect("exit code", 0, code)
        if not report_path.exists():
            return problems + ["no report written"]
        report = json.loads(report_path.read_text())
        checks = report["checks"]
        summary = report["summary"]
        problems += expect("summary failed", 0, summary["failed"])
        problems += expect("summary skipped", 0, summary["skipped"])
        problems += expect("summary total", len(checks), summary["total"])
        problems += expect("number of checks", want_checks, len(checks))
        wrong = ["%s q=%s n=%s" % (c["name"], c["q"], c["n"]) for c in checks
                 if c["expected"] != c["actual"] or not c["pass"]]
        if wrong:
            problems.append("checks with expected != actual: %s" % wrong[:5])
        return problems
    return check


def _exit_check(want: int):
    return lambda code: expect("exit code", want, code)


def _verify_to(lib, report: Path) -> int:
    report.unlink(missing_ok=True)   # a report left by an earlier round must not pass
    return _cli(lib, ["verify", "--jobs", "1", "--out", str(report)])


def verify_cli_ops(lib, tmp: Path) -> list:
    report = tmp / REPORT_NAME
    return [
        Op("verify --out <tmp>", "cli",
           lambda: _verify_to(lib, report), _verify_check(report)),
        Op("count --q 6 --n 2", "cli",
           lambda: _cli(lib, ["count", "--q", "6", "--n", "2"]), _exit_check(2)),
        Op("verify --q 2 --n 5 --kinds frakN --budget 10 --strict", "cli",
           lambda: _cli(lib, ["verify", "--q", "2", "--n", "5", "--kinds", "frakN",
                              "--budget", "10", "--strict"]), _exit_check(3)),
        Op("FFRAT_JOBS=abc verify --q 2 --n 1", "cli",
           lambda: _cli(lib, ["verify", "--q", "2", "--n", "1"], {"FFRAT_JOBS": "abc"}),
           _exit_check(2),
           known_fault="build_parser reads FFRAT_JOBS outside main's try, so the "
                       "ValueError escapes as a traceback (ROADMAP item 5)"),
    ]


WORKLOADS = {
    "rational-oracle": Workload((9, 5, 7), (), rational_oracle_ops),
    "poly-classify": Workload((16, 9), (), poly_classify_ops),
    "verify-cli": Workload(DEFAULT_VERIFY_QS, DEFAULT_VERIFY_QS, verify_cli_ops),
}
