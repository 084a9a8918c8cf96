"""Command line interface: outputs, formats, and exit codes."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ffrat
from ffrat import counting
from ffrat.cli import (EXIT_BUDGET, EXIT_FAILED, EXIT_OK, EXIT_USAGE, MAX_COUNT_DIGITS,
                       MAX_RANGE_LENGTH, UsageError, _parse_int_set, build_parser,
                       count_digits_bound, main)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- count ----------------------------------------------------------------------


def test_count_rational(capsys):
    code, out, _ = run_cli(capsys, "count", "--q", "3", "--n", "3")
    assert code == EXIT_OK
    assert out == "7\n"


def test_count_defaults_to_rational(capsys):
    code, out, _ = run_cli(capsys, "count", "--q", "2", "--n", "3")
    assert code == EXIT_OK
    assert out == "4\n"


def test_count_large_cell(capsys):
    code, out, _ = run_cli(capsys, "count", "--q", "5", "--n", "4")
    assert code == EXIT_OK
    assert out == "167\n"


def test_count_poly(capsys):
    code, out, _ = run_cli(capsys, "count", "--kind", "poly", "--q", "3", "--n", "3")
    assert code == EXIT_OK
    assert out == "4\n"


@pytest.mark.parametrize("method", ["formula", "burnside", "orbit"])
def test_count_methods_agree(capsys, method):
    code, out, _ = run_cli(capsys, "count", "--q", "3", "--n", "2",
                           "--method", method)
    assert code == EXIT_OK
    assert out == "2\n"


def _decimal_value(text: str) -> int:
    # int() refuses more than 4,300 digits by default; read 1,000 at a time.
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _int_str_limit() -> int:
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("kind,n,formula", [
    ("poly", 20000, counting.count_polynomial_classes),
    ("rational", 8000, counting.count_rational_classes)])
def test_count_prints_counts_past_the_int_to_str_limit(capsys, kind, n, formula):
    limit = _int_str_limit()
    code, out, _ = run_cli(capsys, "count", "--kind", kind, "--q", "2", "--n", str(n))
    assert code == EXIT_OK
    assert len(out.strip()) > 4300
    assert _decimal_value(out.strip()) == formula(2, n)
    # main runs in-process here, and leaves the limit as it found it.
    assert _int_str_limit() == limit


def _first_degree_over_the_digit_cap(kind: str, q: int) -> int:
    # Bisect for the degree whose bound first exceeds the cap.
    lo, hi = 1, 2
    while count_digits_bound(kind, q, hi) <= MAX_COUNT_DIGITS:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if count_digits_bound(kind, q, mid) <= MAX_COUNT_DIGITS:
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("kind,q,formula", [
    ("poly", 2, counting.count_polynomial_classes),
    ("rational", 4, counting.count_rational_classes)])
def test_count_past_the_digit_cap_is_a_usage_error(capsys, kind, q, formula):
    n = _first_degree_over_the_digit_cap(kind, q)
    assert count_digits_bound(kind, q, n - 1) <= MAX_COUNT_DIGITS
    assert count_digits_bound(kind, q, n) > MAX_COUNT_DIGITS
    code, out, _ = run_cli(capsys, "count", "--kind", kind, "--q", str(q),
                           "--n", str(n - 1))
    assert code == EXIT_OK
    value = _decimal_value(out.strip())
    assert value == formula(q, n - 1)
    assert len(out.strip()) <= MAX_COUNT_DIGITS
    for command in ("count", "table"):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--kind", kind, "--q", str(q),
                                 "--n", str(n))
        assert code == EXIT_USAGE
        assert out == "" and "digits" in err
        assert time.perf_counter() - started < 0.1


def test_count_digit_bound_holds_on_every_small_cell():
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32):
        for n in range(1, 40):
            assert len(str(counting.count_rational_classes(q, n))) <= \
                count_digits_bound("rational", q, n)
            assert len(str(counting.count_polynomial_classes(q, n))) <= \
                count_digits_bound("poly", q, n)


def test_count_rejects_non_prime_power(capsys):
    code, _, err = run_cli(capsys, "count", "--q", "6", "--n", "2")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_count_rejects_degree_zero(capsys):
    code, _, err = run_cli(capsys, "count", "--q", "2", "--n", "0")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_count_rejects_multiple_q(capsys):
    code, _, err = run_cli(capsys, "count", "--q", "2,3", "--n", "2")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_count_budget_exceeded(capsys):
    code, _, err = run_cli(capsys, "count", "--q", "3", "--n", "4",
                           "--method", "orbit", "--budget", "10")
    assert code == EXIT_BUDGET
    assert "error:" in err


def test_count_burnside_charges_the_keys_and_the_plane_walk(capsys):
    # One key at n = 1 and a few row pairs in the walk, at any q.
    code, out, _ = run_cli(capsys, "count", "--kind", "rational", "--method",
                           "burnside", "--q", "257", "--n", "1")
    assert (code, out) == (EXIT_OK, "1\n")
    # At (3, 2): 9 keys, but 12 row pairs.
    code, out, err = run_cli(capsys, "count", "--kind", "rational", "--method",
                             "burnside", "--q", "3", "--n", "2", "--budget", "11")
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == ("error: q=3 n=2 needs 12 row pairs in the invariant-plane walk, "
                   "budget is 11\n")


@pytest.mark.parametrize("command", ["count", "table", "verify", "classify"])
def test_every_subcommand_charges_the_trial_divisions_of_q(capsys, monkeypatch, command):
    # Validating q, and the closed forms' divisors of q - 1 and q + 1, take
    # about 3 sqrt(q) trial divisions: refused at once with exit 3.
    from ffrat import oracle
    monkeypatch.setattr(oracle, "verify_grid", lambda *a, **k: pytest.fail("a cell ran"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--q", "10000000000000061", "--n", "2")
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == ("error: q=10000000000000061 needs 300000000 trial divisions, "
                   "budget is 10000000\n")


def test_count_of_a_large_prime_within_the_trial_division_budget(capsys):
    assert run_cli(capsys, "count", "--q", "1000000007", "--n", "2")[:2] == (EXIT_OK, "2\n")


def test_missing_required_argument(capsys):
    code, _, _ = run_cli(capsys, "count", "--n", "2")
    assert code == EXIT_USAGE


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "recount")
    assert code == EXIT_USAGE


# -- table ----------------------------------------------------------------------


def test_table_csv_grid(capsys):
    code, out, _ = run_cli(capsys, "table", "--q", "2..5", "--n", "1..3")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "q,n,kind,count"
    assert lines[1:] == [
        "2,1,rational,1", "2,2,rational,2", "2,3,rational,4",
        "3,1,rational,1", "3,2,rational,2", "3,3,rational,7",
        "4,1,rational,1", "4,2,rational,2", "4,3,rational,10",
        "5,1,rational,1", "5,2,rational,2", "5,3,rational,10",
    ]


def test_table_accepts_mixed_lists_and_ranges(capsys):
    code, out, _ = run_cli(capsys, "table", "--q", "3,2..3,2", "--n", "1")
    assert code == EXIT_OK
    assert out.splitlines()[1:] == ["2,1,rational,1", "3,1,rational,1"]


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "table", "--q", "2", "--n", "1..2",
                           "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == [
        {"q": 2, "n": 1, "kind": "rational", "count": "1"},
        {"q": 2, "n": 2, "kind": "rational", "count": "2"},
    ]
    assert out == json.dumps(payload, indent=2) + "\n"


def test_table_text_format(capsys):
    code, out, _ = run_cli(capsys, "table", "--q", "2", "--n", "3",
                           "--format", "text")
    assert code == EXIT_OK
    line = out.splitlines()[0]
    assert line.startswith("q=2")
    assert "n=3" in line and "rational" in line and line.rstrip().endswith("4")


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_table_prints_counts_past_the_int_to_str_limit(capsys, fmt):
    limit = _int_str_limit()
    code, out, _ = run_cli(capsys, "table", "--kind", "poly", "--q", "2",
                           "--n", "20000", "--format", fmt)
    assert code == EXIT_OK
    if fmt == "json":
        text = json.loads(out)[0]["count"]
    else:
        text = out.replace(",", " ").split()[-1]
    assert _decimal_value(text) == counting.count_polynomial_classes(2, 20000)
    assert _int_str_limit() == limit


def test_table_poly_methods_agree_through_cli(capsys):
    base = run_cli(capsys, "table", "--kind", "poly", "--q", "2,3", "--n", "1..4")
    orbit = run_cli(capsys, "table", "--kind", "poly", "--q", "2,3", "--n", "1..4",
                    "--method", "orbit")
    assert base[0] == orbit[0] == EXIT_OK
    assert base[1] == orbit[1]


def test_table_rejects_bad_ranges(capsys):
    assert run_cli(capsys, "table", "--q", "5..2", "--n", "1")[0] == EXIT_USAGE
    assert run_cli(capsys, "table", "--q", ",", "--n", "1")[0] == EXIT_USAGE
    assert run_cli(capsys, "table", "--q", "2", "--n", "x")[0] == EXIT_USAGE
    assert run_cli(capsys, "table", "--q", "2,6", "--n", "1")[0] == EXIT_USAGE
    assert run_cli(capsys, "table", "--q", "2", "--n", "0..2")[0] == EXIT_USAGE


def test_range_longer_than_the_cap_is_a_usage_error(capsys):
    # A range is refused by its length, before it is expanded.
    assert len(_parse_int_set("1..%d" % MAX_RANGE_LENGTH)) == MAX_RANGE_LENGTH
    with pytest.raises(UsageError):
        _parse_int_set("1..%d" % (MAX_RANGE_LENGTH + 1))
    code, _, err = run_cli(capsys, "table", "--q", "2..%d" % (MAX_RANGE_LENGTH + 2),
                           "--n", "3")
    assert code == EXIT_USAGE
    assert "more than %d values" % MAX_RANGE_LENGTH in err
    assert run_cli(capsys, "verify", "--q", "2",
                   "--n", "1..%d" % (MAX_RANGE_LENGTH + 1))[0] == EXIT_USAGE


# -- verify ---------------------------------------------------------------------


def test_verify_report_shape(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "2", "--n", "1,2",
                           "--kinds", "frakN,frakM")
    assert code == EXIT_OK
    report = json.loads(out)
    assert set(report) == {"checks", "skipped_cells", "summary", "meta"}
    assert report["skipped_cells"] == []
    assert report["summary"] == {"total": 12, "failed": 0, "skipped": 0}
    for entry in report["checks"]:
        assert list(entry) == ["name", "q", "n", "expected", "actual",
                               "pass", "elapsed_ms"]
        assert entry["pass"] is True
        assert isinstance(entry["expected"], str)
        assert isinstance(entry["actual"], str)


def test_verify_defaults_pin_the_standard_grid():
    args = build_parser().parse_args(["verify"])
    assert args.q == "2,3,4,5"
    assert args.n == "1,2,3"
    assert args.kinds == "fix-formulas,frakN,frakM,appendix-lemmas"
    assert args.strict is False


def test_verify_jobs_default_comes_from_env(monkeypatch):
    monkeypatch.setenv("FFRAT_JOBS", "3")
    assert build_parser().parse_args(["verify"]).jobs == 3


def test_verify_bad_jobs_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("FFRAT_JOBS", "abc")
    code, _, err = run_cli(capsys, "verify", "--q", "2", "--n", "1")
    assert code == EXIT_USAGE
    assert "--jobs" in err and "'abc'" in err
    # An explicit --jobs wins over the environment; other commands ignore it.
    code, _, _ = run_cli(capsys, "verify", "--q", "2", "--n", "1",
                         "--kinds", "frakN", "--jobs", "1")
    assert code == EXIT_OK
    assert run_cli(capsys, "count", "--q", "3", "--n", "3")[0] == EXIT_OK


def test_verify_jobs_below_one_is_a_usage_error(capsys, monkeypatch):
    for jobs in ("0", "-3"):
        code, _, err = run_cli(capsys, "verify", "--q", "2", "--n", "1", "--jobs", jobs)
        assert code == EXIT_USAGE
        assert "--jobs" in err and "at least 1" in err
    monkeypatch.setenv("FFRAT_JOBS", "0")
    code, _, err = run_cli(capsys, "verify", "--q", "2", "--n", "1")
    assert code == EXIT_USAGE
    assert "--jobs" in err


def test_verify_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--q", "2", "--n", "1",
                           "--kinds", "frakN", "--out", str(target))
    assert code == EXIT_OK
    assert out == "3 checks, 0 failed, 0 cells skipped\n"
    text = target.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["summary"]["total"] == 3


def test_verify_report_carries_meta(capsys, tmp_path):
    target = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "verify", "--q", "2", "--n", "1", "--kinds",
                         "frakN,frakM", "--budget", "500", "--jobs", "1",
                         "--out", str(target))
    assert code == EXIT_OK
    meta = json.loads(target.read_text())["meta"]
    assert list(meta) == ["version", "python", "budget", "jobs", "kinds", "wall_s"]
    assert meta["version"] == ffrat.__version__
    assert meta["python"] == "%d.%d.%d" % sys.version_info[:3]
    assert (meta["budget"], meta["jobs"], meta["kinds"]) == (500, 1, ["frakN", "frakM"])
    assert isinstance(meta["wall_s"], float) and meta["wall_s"] >= 0


def test_verify_runs_a_repeated_kind_once(capsys):
    # Kept in the order first named, as --q and --n keep each value once.
    code, out, _ = run_cli(capsys, "verify", "--q", "2", "--n", "1",
                           "--kinds", "frakN,frakM,frakN")
    assert code == EXIT_OK
    report = json.loads(out)
    assert [c["name"] for c in report["checks"]] == [
        "frakN/burnside", "frakN/orbit", "frakN/lowdeg",
        "frakM/orbit", "frakM/burnside", "frakM/lowdeg"]
    assert report["meta"]["kinds"] == ["frakN", "frakM"]


@pytest.mark.parametrize("argv", [
    ["count", "--q", "2", "--n", "1"],
    ["table", "--q", "2", "--n", "1"],
    ["verify", "--q", "2", "--n", "1", "--strict"],
    ["classify", "--q", "2", "--n", "2"],
])
def test_negative_budget_is_a_usage_error(capsys, monkeypatch, argv):
    # Refused by the parser, before any work; a budget of 0 stays valid.
    from ffrat import oracle
    monkeypatch.setattr(oracle, "verify_grid", lambda *a, **k: pytest.fail("a cell ran"))
    code, out, err = run_cli(capsys, *argv, "--budget", "-1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--budget" in err and "at least 0, got -1" in err
    assert build_parser().parse_args(argv + ["--budget", "0"]).budget == 0


def test_verify_skipped_cells_are_not_failures(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "3", "--n", "3",
                           "--kinds", "frakN", "--budget", "10")
    assert code == EXIT_OK
    assert json.loads(out)["summary"] == {"total": 0, "failed": 0, "skipped": 1}


def test_verify_names_every_skipped_cell(capsys, tmp_path):
    target = tmp_path / "r.json"
    code, out, _ = run_cli(capsys, "verify", "--budget", "100", "--out", str(target))
    assert code == EXIT_OK
    report = json.loads(target.read_text())
    # Keys: q^(2n-2) > 100 at n = 3 for q = 4, 5; appendix: q^6 > 100 for
    # q >= 3; fix-formulas: (q^2 - 1)(q + 1) = 144 class-walk steps at q = 5.
    # The invariant-plane walks stay below 100 row pairs.
    assert [(c["q"], c["n"], c["kind"]) for c in report["skipped_cells"]] == [
        (3, None, "appendix-lemmas"),
        (4, 3, "fix-formulas"), (4, 3, "frakN"), (4, None, "appendix-lemmas"),
        (5, 1, "fix-formulas"), (5, 2, "fix-formulas"),
        (5, 3, "fix-formulas"), (5, 3, "frakN"), (5, None, "appendix-lemmas")]
    assert report["skipped_cells"][1]["reason"] == "q=4 n=3 needs 256 keys, budget is 100"
    assert report["summary"]["skipped"] == 9
    assert out == "%d checks, 0 failed, 9 cells skipped\n" % report["summary"]["total"]


def test_verify_strict_names_the_first_skipped_cell(capsys):
    code, _, err = run_cli(capsys, "verify", "--q", "2,3", "--n", "3",
                           "--kinds", "frakN", "--strict", "--budget", "20")
    assert code == EXIT_BUDGET
    assert err == ("error: 1 cells skipped, the first frakN at q=3 n=3: "
                   "q=3 n=3 needs 81 keys, budget is 20\n")


@pytest.mark.parametrize("strict", [False, True])
def test_verify_frak_m_names_the_refused_orbit_check(capsys, strict):
    code, out, err = run_cli(capsys, "verify", "--q", "16", "--n", "7", "--kinds",
                             "frakM", *(["--strict"] if strict else []))
    report = json.loads(out)
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [("frakM/burnside", True)]
    reason = "frakM/orbit: q=16 n=7 needs 16777216 polynomials, budget is 10000000"
    assert report["skipped_cells"] == [{"q": 16, "n": 7, "kind": "frakM", "reason": reason}]
    if strict:
        assert code == EXIT_BUDGET
        assert err == "error: 1 cells skipped, the first frakM at q=16 n=7: %s\n" % reason
    else:
        assert code == EXIT_OK


@pytest.mark.parametrize("strict", [False, True])
def test_verify_skips_a_field_over_the_size_bound(capsys, tmp_path, strict):
    # GF(1031^2) is over the size bound: q = 1031's appendix cell is skipped
    # like a budget cell, and the old report is replaced by the full one.
    target = tmp_path / "r.json"
    target.write_text("old report\n")
    code, out, err = run_cli(capsys, "verify", "--q", "2,1031", "--n", "1", "--kinds",
                             "appendix-lemmas,frakM", "--budget", str(10 ** 19),
                             "--out", str(target), *(["--strict"] if strict else []))
    report = json.loads(target.read_text())
    reason = "GF(1031**2) exceeds size bound 1048576"
    assert report["skipped_cells"] == [
        {"q": 1031, "n": None, "kind": "appendix-lemmas", "reason": reason}]
    assert report["summary"] == {"total": 66, "failed": 0, "skipped": 1}
    assert out == "66 checks, 0 failed, 1 cells skipped\n"
    if strict:
        assert code == EXIT_BUDGET
        assert err == ("error: 1 cells skipped, the first appendix-lemmas at "
                       "q=1031: %s\n" % reason)
    else:
        assert (code, err) == (EXIT_OK, "")


def test_verify_out_path_that_cannot_be_written(capsys, tmp_path, monkeypatch):
    # Refused with one line and exit 2 before any cell runs.
    from ffrat import oracle
    monkeypatch.setattr(oracle, "verify_grid", lambda *a, **k: pytest.fail("a cell ran"))
    for target in (tmp_path / "missing" / "r.json", tmp_path):
        code, out, err = run_cli(capsys, "verify", "--q", "2", "--n", "1",
                                 "--out", str(target))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: cannot write the report to %s: " % target)
        assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("kinds", [[], ["--kinds", "appendix-lemmas"]])
def test_verify_degree_zero_leaves_the_old_report(capsys, tmp_path, monkeypatch, kinds):
    # Refused as by `table`, before --out is opened, whether or not a kind
    # that depends on n runs.
    from ffrat import oracle
    monkeypatch.setattr(oracle, "verify_grid", lambda *a, **k: pytest.fail("a cell ran"))
    target = tmp_path / "r.json"
    target.write_text("old report\n")
    code, out, err = run_cli(capsys, "verify", "--q", "2", "--n", "0",
                             "--out", str(target), *kinds)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: degrees must be at least 1\n"
    assert target.read_text() == "old report\n"


@pytest.mark.parametrize("kinds", ["", ",", " , "])
def test_verify_empty_kind_list_is_a_usage_error(capsys, kinds):
    code, out, err = run_cli(capsys, "verify", "--q", "2", "--n", "1", "--kinds", kinds)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: --kinds %r names no check kind" % kinds)


def test_verify_strict_turns_skips_into_exit_3(capsys):
    code, _, _ = run_cli(capsys, "verify", "--q", "3", "--n", "3",
                         "--kinds", "frakN", "--strict", "--budget", "10")
    assert code == EXIT_BUDGET


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(counting, "count_rational_classes", lambda q, n: 999)
    code, out, _ = run_cli(capsys, "verify", "--q", "2", "--n", "1",
                           "--kinds", "frakN")
    assert code == EXIT_FAILED
    report = json.loads(out)
    assert report["summary"]["failed"] == 3
    assert all(entry["expected"] == "999" for entry in report["checks"])


def test_verify_rejects_unknown_kind(capsys):
    code, _, err = run_cli(capsys, "verify", "--kinds", "burnside")
    assert code == EXIT_USAGE
    assert "error:" in err


# -- classify -------------------------------------------------------------------


def test_classify_poly_text(capsys):
    code, out, _ = run_cli(capsys, "classify", "--kind", "poly", "--q", "3", "--n", "3")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "X^3  orbit_size=1 [X^3]"
    assert len(lines) == 4
    assert all("orbit_size=" in line for line in lines)


def test_classify_defaults_to_poly(capsys):
    code, out, _ = run_cli(capsys, "classify", "--q", "2", "--n", "2")
    assert code == EXIT_OK
    assert out.splitlines() == ["X^2  orbit_size=1 [X^2]",
                                "X^2+X  orbit_size=1 [X^2+X]"]


def test_classify_poly_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--kind", "poly", "--q", "3",
                           "--n", "3", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [entry["poly"] for entry in payload] == ["X^3", "X^3+X", "X^3+2*X",
                                                    "X^3+X^2"]
    assert sum(int(entry["orbit_size"]) for entry in payload) == 9
    for entry in payload:
        assert list(entry) == ["poly", "coeffs", "orbit_size", "family"]
        assert entry["family"] is not None


def test_classify_rational_degree_one(capsys):
    code, out, _ = run_cli(capsys, "classify", "--kind", "rational",
                           "--q", "2", "--n", "1")
    assert code == EXIT_OK
    assert out == "X\n"


def test_classify_rational_degree_two(capsys):
    code, out, _ = run_cli(capsys, "classify", "--kind", "rational",
                           "--q", "3", "--n", "2")
    assert code == EXIT_OK
    assert out.splitlines() == ["X^2", "(X^2+2)/X"]


def test_classify_rational_degree_two_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--kind", "rational",
                           "--q", "3", "--n", "2", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == [
        {"map": "X^2", "num_coeffs": [0, 0, 1], "den_coeffs": [1]},
        {"map": "(X^2+2)/X", "num_coeffs": [2, 0, 1], "den_coeffs": [0, 1]},
    ]


def test_classify_rational_degree_three_is_out_of_scope(capsys):
    code, _, err = run_cli(capsys, "classify", "--kind", "rational",
                           "--q", "2", "--n", "3")
    assert code == EXIT_USAGE
    assert "no complete classification" in err
    assert "degree 3" in err


def test_classify_rejects_bad_input(capsys):
    assert run_cli(capsys, "classify", "--q", "6", "--n", "2")[0] == EXIT_USAGE
    assert run_cli(capsys, "classify", "--q", "2", "--n", "0")[0] == EXIT_USAGE
    # The walk at (5, 6) takes 360 steps.
    code, _, err = run_cli(capsys, "classify", "--kind", "poly", "--q", "5",
                           "--n", "6", "--budget", "359")
    assert code == EXIT_BUDGET
    assert "needs 360 walk steps" in err
    assert run_cli(capsys, "classify", "--q", "5", "--n", "6", "--budget", "360")[0] == EXIT_OK
    # The family tags' canonical forms are refused before the walk starts:
    # 8,196 members at q (n(n-1)/2 + 1) = 28,672 steps each.
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "classify", "--q", "4096", "--n", "4")
    assert code == EXIT_BUDGET
    assert "needs 234995712 canonical-form steps" in err
    assert time.perf_counter() - start < 5


def test_classify_quadratics_over_gf4093_fit_the_default_budget(capsys):
    # One member at 2q = 8,186 canonical-form steps, and the walk's 2q.
    code, out, _ = run_cli(capsys, "classify", "--q", "4093", "--n", "2")
    assert code == EXIT_OK
    assert out == "X^2  orbit_size=4093 [X^2]\n"


# -- entry points -----------------------------------------------------------------


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "ffrat.cli",
                           "count", "--q", "2", "--n", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "2\n"


def test_cold_import_loads_no_heavy_modules():
    # Start-up cost: importing the package pulls in no dataclasses, no
    # fractions and no process pool.
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; before = set(sys.modules); import ffrat; "
            "print(sorted({'dataclasses', 'fractions', 'concurrent.futures'}"
            " & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_console_script_installed():
    assert shutil.which("ffrat") is not None
