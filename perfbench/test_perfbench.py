"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import signal
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import probe  # noqa: E402
import speed  # noqa: E402
import steady  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (Op, _classify_check, _rational_check, expected_verify_checks,  # noqa: E402
                       load_ffrat, run_round)

COUNTS = ("ratmap.keys_enumerated", "ratmap.key_images", "polyring.gcd_calls",
          "classify.substitutions", "classify.canonical_forms", "oracle.checks")


@pytest.fixture(scope="module")
def lib():
    return load_ffrat()


def tiny_results(lib):
    F = lib.gf.field_of_order(3)
    reps = lib.classify.classify_all(F, 3)
    report = lib.oracle.verify_grid([2], [1, 2])
    return (lib.oracle.burnside_count_rational(F, 3),
            lib.oracle.orbit_count_rational(F, 3),
            lib.oracle.burnside_count_poly(F, 3),
            lib.oracle.orbit_count_poly(F, 3),
            [(r.canon.coeffs, r.orbit_size, r.family_tag) for r in reps],
            report.to_json_obj()["summary"])


def traced_results(lib):
    tracer = Tracer(lib)
    tracer.install()
    try:
        results = tiny_results(lib)
    finally:
        tracer.uninstall()
    return results, tracer.layer_metrics()


def test_traced_and_untraced_results_agree(lib):
    plain = tiny_results(lib)
    traced, metrics = traced_results(lib)
    assert traced == plain
    assert metrics["trace.missing_boundaries"] == 0
    for name in COUNTS:
        assert metrics[name] > 0, name


def test_uninstall_restores_every_attribute(lib):
    before = {name: dict(vars(module)) for name, module in vars(lib).items()}
    traced_results(lib)
    after = {name: dict(vars(module)) for name, module in vars(lib).items()}
    assert after == before


def test_traced_counts_repeat_exactly(lib):
    first = traced_results(lib)[1]
    second = traced_results(lib)[1]
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_missing_boundary_is_reported_not_fatal(lib):
    stripped = types.SimpleNamespace(**vars(lib))
    stripped.classify = types.SimpleNamespace(normalized_polys=lib.classify.normalized_polys)
    tracer = Tracer(stripped)
    tracer.install()
    tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["trace.missing_boundaries"] == 3
    assert metrics["classify.substitutions"] == 0


def test_expected_verify_checks_default_grid():
    assert expected_verify_checks((2, 3, 4, 5), (1, 2, 3)) == 462


def test_expected_verify_checks_matches_program(lib):
    grid = ((2,), (1, 2, 5, 6))
    report = lib.oracle.verify_grid(*grid)
    assert report.skipped == 0
    assert report.total == expected_verify_checks(*grid)


def test_wrong_count_marks_operation_failed(lib):
    F = lib.gf.field_of_order(3)
    right = lib.counting.count_rational_classes(3, 3)
    reps = lib.classify.classify_all(F, 3)
    ops = [Op("right", "burnside", lambda: right, _rational_check(lib, 3, 3)),
           Op("off by one", "burnside", lambda: right + 1, _rational_check(lib, 3, 3)),
           Op("lost class", "classify", lambda: reps[1:], _classify_check(lib, F, 3)),
           Op("raises", "cli", lambda: 1 // 0, _rational_check(lib, 3, 3))]
    results = run_round(ops)
    assert [r.failed for r in results] == [False, True, True, True]
    assert "ZeroDivisionError" in results[3].problems[0]


def test_timed_call_scales_by_probe_speed():
    def spin():
        total = 0
        for i in range(300000):
            total += i % 7
        return total
    handler = signal.getsignal(signal.SIGALRM)
    value, error, wall, scaled = speed.timed_call(spin)
    assert (value, error) == (spin(), None)
    assert wall > 0 and scaled > 0
    # The timer is off again and the previous handler is back.
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    value, error, wall, scaled = speed.timed_call(lambda: 1 // 0)
    assert value is None and isinstance(error, ZeroDivisionError)


def test_scale_is_wall_time_at_reference_speed():
    ref = probe.REFERENCE_PROBE_S
    assert probe.scale(2.0, [ref, ref]) == pytest.approx(2.0)
    # A core half as fast runs the probe in twice the time: the same wall
    # time then stands for half the work.
    assert probe.scale(2.0, [2 * ref]) == pytest.approx(1.0)


def _runs(values: dict, failed: int = 1, attempted: int = 4) -> list:
    n = len(next(iter(values.values())))
    return [{"correct": True, "attempted": attempted, "failed": failed,
             "metrics": {k: {"value": v[i]} for k, v in values.items()}}
            for i in range(n)]


SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
]}


def test_steadiness_check_accepts_agreeing_sets():
    a = _runs({"setup_s": [0.050, 0.052, 0.054, 0.051], "wall_s": [10.0, 10.1, 9.9, 10.0]})
    b = _runs({"setup_s": [0.053, 0.051, 0.052, 0.050], "wall_s": [10.2, 10.1, 10.0, 10.1]})
    assert steady.compare(SPEC, a, b)[1]


def test_steadiness_check_rejects_shift_spread_and_failures():
    a = _runs({"setup_s": [0.04] * 4, "wall_s": [10.0, 10.1, 9.9, 10.0]})
    slower = _runs({"setup_s": [0.04] * 4, "wall_s": [11.5, 11.6, 11.4, 11.5]})
    faster = _runs({"setup_s": [0.04] * 4, "wall_s": [8.5, 8.6, 8.4, 8.5]})
    noisy = _runs({"setup_s": [0.04] * 4, "wall_s": [8.0, 10.0, 12.0, 10.0]})
    noisy_setup = _runs({"setup_s": [0.03, 0.04, 0.05, 0.06], "wall_s": [10.0] * 4})
    more_failed = _runs({"setup_s": [0.04] * 4, "wall_s": [10.0] * 4}, failed=2)
    for b in (slower, faster, noisy, noisy_setup, more_failed):
        assert not steady.compare(SPEC, a, b)[1]
