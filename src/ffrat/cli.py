"""Command line front end.

Subcommands:

* ``count``: one exact class count, printed as a decimal string.
* ``table``: counts over a (q, n) grid as CSV, JSON, or aligned text.
* ``verify``: run the brute-force verification grid and emit a JSON report.
* ``classify``: representative lists with orbit sizes and family tags.

Exit codes: 0 success, 1 verification failure, 2 usage error (including
invalid q), 3 budget or field-size bound exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time

from ffrat import __version__, classify, counting, oracle
from ffrat.gf import BudgetExceededError, check_budget, field_of_order
from ffrat.polyring import Poly, poly_str
from ffrat.ratmap import DEFAULT_KEY_BUDGET, normalize

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# The most values one range of --q or --n may hold; longer ranges are usage
# errors, refused before the range is expanded.
MAX_RANGE_LENGTH = 10_000

# The most decimal digits a count may have by ``count_digits_bound``; larger
# counts are usage errors, refused before any arithmetic.  Printing a count
# takes time quadratic in its digits: 0.17 s at 100,000 digits and 11 s at
# 1,000,000 on one core of a 2-vCPU machine with Python 3.11.
MAX_COUNT_DIGITS = 100_000


class UsageError(ValueError):
    pass


def _parse_int_set(text: str) -> list[int]:
    """Parse '2,3,4' / '2..5' / mixes of both into a sorted list."""
    out = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            lo, _, hi = token.partition("..")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError:
                raise UsageError("bad range %r" % token)
            if hi_i < lo_i:
                raise UsageError("empty range %r" % token)
            if hi_i - lo_i >= MAX_RANGE_LENGTH:
                raise UsageError("range %r holds more than %d values"
                                 % (token, MAX_RANGE_LENGTH))
            out.update(range(lo_i, hi_i + 1))
        else:
            try:
                out.add(int(token))
            except ValueError:
                raise UsageError("bad integer %r" % token)
    if not out:
        raise UsageError("empty value set %r" % text)
    return sorted(out)


def _validated_q_list(text: str, budget: int) -> list[int]:
    qs = _parse_int_set(text)
    for q in qs:
        # Validating q, and the closed forms' divisors of q - 1 and q + 1,
        # trial-divide up to sqrt(q) each.
        check_budget(q, None, 3 * math.isqrt(max(q, 0)), "trial divisions", budget)
        if not counting.is_prime_power(q):
            raise UsageError("%d is not a prime power" % q)
    return qs


def _validated_n_list(text: str) -> list[int]:
    ns = _parse_int_set(text)
    if min(ns) < 1:
        raise UsageError("degrees must be at least 1")
    return ns


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value
    return parse


positive_int = _int_at_least(1)
non_negative_int = _int_at_least(0)


def count_digits_bound(kind: str, q: int, n: int) -> int:
    """An upper bound on the decimal digits of the class count.  The count
    is at most the number of subfield keys, q^(2n-2), for rational maps and
    of normalized polynomials, q^(n-1), for polynomials; and q <= 2^b for b
    the bit length of q - 1."""
    e = 2 * n - 2 if kind == "rational" else n - 1
    # log10(2) < 0.30103.
    return e * (q - 1).bit_length() * 30103 // 100000 + 1


def _one_count(kind: str, q: int, n: int, method: str, budget: int) -> int:
    digits = count_digits_bound(kind, q, n)
    if digits > MAX_COUNT_DIGITS:
        raise UsageError("the %s count at q=%d n=%d may have %d digits, more than "
                         "%d" % (kind, q, n, digits, MAX_COUNT_DIGITS))
    return oracle.class_count(kind, method, q, n, budget)


def _single_q(text: str, budget: int) -> int:
    qs = _validated_q_list(text, budget)
    if len(qs) != 1:
        raise UsageError("expected a single q, got %r" % text)
    return qs[0]


def cmd_count(args) -> int:
    print(_one_count(args.kind, _single_q(args.q, args.budget), args.n, args.method,
                     args.budget))
    return EXIT_OK


def cmd_table(args) -> int:
    qs = _validated_q_list(args.q, args.budget)
    ns = _validated_n_list(args.n)
    rows = [(q, n, args.kind, _one_count(args.kind, q, n, args.method, args.budget))
            for q in qs for n in ns]
    if args.format == "csv":
        print("q,n,kind,count")
        for q, n, kind, count in rows:
            print("%d,%d,%s,%d" % (q, n, kind, count))
    elif args.format == "json":
        payload = [{"q": q, "n": n, "kind": kind, "count": str(count)}
                   for q, n, kind, count in rows]
        print(json.dumps(payload, indent=2))
    else:
        width = max(len(str(r[3])) for r in rows)
        for q, n, kind, count in rows:
            print("q=%-4d n=%-3d %-9s %*d" % (q, n, kind, width, count))
    return EXIT_OK


def cmd_verify(args) -> int:
    qs = _validated_q_list(args.q, args.budget)
    ns = _validated_n_list(args.n)
    kinds = tuple(dict.fromkeys(k.strip() for k in args.kinds.split(",") if k.strip()))
    expected = ", ".join(oracle.VERIFY_KINDS)
    if not kinds:
        raise UsageError("--kinds %r names no check kind (expected %s)"
                         % (args.kinds, expected))
    for kind in kinds:
        if kind not in oracle.VERIFY_KINDS:
            raise UsageError("unknown check kind %r (expected %s)" % (kind, expected))
    # Open the report before any cell runs, so that a path that cannot be
    # written is a usage error, not a traceback after the whole grid.
    try:
        handle = open(args.out, "w") if args.out else None
    except OSError as exc:
        raise UsageError("cannot write the report to %s: %s"
                         % (args.out, exc.strerror or exc))
    with handle or contextlib.nullcontext():
        start = time.perf_counter()
        report = oracle.verify_grid(qs, ns, kinds, budget=args.budget, jobs=args.jobs)
        payload = report.to_json_obj()
        payload["meta"] = {"version": __version__,
                           "python": sys.version.split()[0],
                           "budget": args.budget, "jobs": args.jobs,
                           "kinds": list(kinds),
                           "wall_s": round(time.perf_counter() - start, 6)}
        text = json.dumps(payload, indent=2)
        if handle:
            handle.write(text + "\n")
    if handle:
        print("%d checks, %d failed, %d cells skipped"
              % (report.total, report.failed, report.skipped))
    else:
        print(text)
    if report.failed:
        return EXIT_FAILED
    if args.strict and report.skipped:
        cell = report.skipped_cells[0]
        where = "q=%d" % cell.q if cell.n is None else "q=%d n=%d" % (cell.q, cell.n)
        print("error: %d cells skipped, the first %s at %s: %s"
              % (report.skipped, cell.kind, where, cell.reason), file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_classify(args) -> int:
    n = args.n
    F = field_of_order(_single_q(args.q, args.budget))
    if args.kind == "rational":
        if n == 1:
            reps = [normalize(Poly.x(F), Poly.one(F))]
        elif n == 2:
            reps = classify.degree2_rational_reps(F)
        else:
            raise UsageError(
                "no complete classification of rational maps of degree %d is "
                "known; supported degrees are 1 and 2" % n)
        if args.format == "json":
            payload = [{"map": str(r),
                        "num_coeffs": list(r.num.coeffs),
                        "den_coeffs": list(r.den.coeffs)} for r in reps]
            print(json.dumps(payload, indent=2))
        else:
            for r in reps:
                print(str(r))
        return EXIT_OK

    reps = classify.classify_all(F, n, budget=args.budget)
    if args.format == "json":
        payload = [{"poly": poly_str(r.canon),
                    "coeffs": list(r.canon.coeffs),
                    "orbit_size": str(r.orbit_size),
                    "family": r.family_tag} for r in reps]
        print(json.dumps(payload, indent=2))
    else:
        for r in reps:
            tag = " [%s]" % r.family_tag if r.family_tag else ""
            print("%s  orbit_size=%d%s" % (poly_str(r.canon), r.orbit_size, tag))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffrat",
        description="Exact class counts for rational functions and polynomials "
                    "over finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--budget", type=non_negative_int, default=DEFAULT_KEY_BUDGET,
                       help="enumeration budget (default %d)" % DEFAULT_KEY_BUDGET)

    p_count = sub.add_parser("count", help="print one exact class count")
    p_count.add_argument("--kind", choices=("rational", "poly"), default="rational")
    p_count.add_argument("--q", required=True, help="field order (prime power)")
    p_count.add_argument("--n", required=True, type=positive_int, help="degree")
    p_count.add_argument("--method", choices=("formula", "burnside", "orbit"),
                         default="formula")
    add_budget(p_count)
    p_count.set_defaults(func=cmd_count)

    p_table = sub.add_parser("table", help="counts over a (q, n) grid")
    p_table.add_argument("--kind", choices=("rational", "poly"), default="rational")
    p_table.add_argument("--q", required=True, help="e.g. 2..5 or 2,3,9")
    p_table.add_argument("--n", required=True, help="e.g. 1..4")
    p_table.add_argument("--method", choices=("formula", "burnside", "orbit"),
                         default="formula")
    p_table.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    add_budget(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="brute-force verification grid")
    p_verify.add_argument("--q", default="2,3,4,5")
    p_verify.add_argument("--n", default="1,2,3")
    p_verify.add_argument("--kinds", default=",".join(oracle.VERIFY_KINDS))
    p_verify.add_argument("--out", help="write the JSON report to a file")
    p_verify.add_argument("--strict", action="store_true",
                          help="treat budget-skipped cells as an error (exit 3)")
    # argparse converts a string default, so a bad FFRAT_JOBS exits 2 too.
    p_verify.add_argument("--jobs", type=positive_int,
                          default=os.environ.get("FFRAT_JOBS", "1"),
                          help="worker processes (env FFRAT_JOBS)")
    add_budget(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_classify = sub.add_parser("classify", help="list class representatives")
    p_classify.add_argument("--kind", choices=("rational", "poly"), default="poly")
    p_classify.add_argument("--q", required=True)
    p_classify.add_argument("--n", required=True, type=positive_int)
    p_classify.add_argument("--format", choices=("text", "json"), default="text")
    add_budget(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # Counts may run past the limit that Python 3.10.7 and later put on
    # int-to-str conversion: lift it while the command runs, then restore it.
    set_digits = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_digits(0)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    finally:
        set_digits(limit)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
