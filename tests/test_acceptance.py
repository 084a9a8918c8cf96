"""End-to-end acceptance checks for the guaranteed behaviors.

Each test walks one guarantee across its full grid, collects any violations,
prints a single PASS or FAIL line with the elapsed time, and then asserts.
Stated runtime budgets are enforced, not aspirational; tests with no stated
budget only report their time.
"""

from __future__ import annotations

import ast
import inspect
import sys
import time

from ffrat import counting
from ffrat.classify import verify_table
from ffrat.gf import field_of_order, make_ext
from ffrat.oracle import (burnside_count_poly, burnside_count_rational,
                          count_coprime_nonzero_const,
                          count_coprime_pairs, count_coprime_pairs_upto,
                          count_rational_functions, count_reversal_coprime,
                          count_self_dual, count_self_dual_coprime_pairs,
                          enumerate_classes, expected_fix,
                          orbit_count_poly, orbit_count_rational,
                          poly_equivalence_partitions_agree)
from ffrat.ratmap import KeyPermutations, enumerate_subfield_keys, fixed_points

from enumerators import prime_powers_upto

RATIONAL_ORACLE_CELLS = [(q, n) for q in (2, 3, 4, 5) for n in (1, 2, 3)]
RATIONAL_ORACLE_CELLS += [(2, 4), (3, 4), (4, 4), (5, 4)]
POLY_GRID_Q = (2, 3, 4, 5, 7, 8, 9)


def _finish(label: str, started: float, failures: list[str],
            budget_s: float | None) -> None:
    elapsed = time.perf_counter() - started
    print("%s: %s (%.2f s)" % (label, "FAIL" if failures else "PASS", elapsed))
    assert not failures, "%s: %s" % (label, "; ".join(failures[:10]))
    if budget_s is not None:
        assert elapsed < budget_s, ("%s took %.1f s, budget is %.0f s"
                                    % (label, elapsed, budget_s))


def test_small_degree_rational_class_counts():
    started = time.perf_counter()
    failures: list[str] = []

    def check(cond, msg):
        if not cond:
            failures.append(msg)

    for q in prime_powers_upto(49):
        check(counting.count_rational_classes(q, 1) == 1, "q=%d n=1" % q)
        check(counting.count_rational_classes(q, 2) == 2, "q=%d n=2" % q)
        for n in (3, 4):
            general = counting.count_rational_classes(q, n)
            cases = counting.count_rational_classes_lowdeg(q, n)
            check(general == cases,
                  "q=%d n=%d: general %d vs case table %d" % (q, n, general, cases))
    anchors = [(2, 3, 4), (3, 3, 7), (4, 3, 10), (7, 3, 16),
               (2, 4, 15), (5, 4, 167)]
    for q, n, want in anchors:
        got = counting.count_rational_classes(q, n)
        check(got == want, "anchor q=%d n=%d: %d != %d" % (q, n, got, want))

    _finish("small-degree rational class counts", started, failures, 1.0)


def test_oracle_agreement_for_rational_classes():
    started = time.perf_counter()
    failures: list[str] = []

    def check(cond, msg):
        if not cond:
            failures.append(msg)

    for q, n in RATIONAL_ORACLE_CELLS:
        F = field_of_order(q)
        want = counting.count_rational_classes(q, n)
        check(burnside_count_rational(F, n) == want,
              "burnside q=%d n=%d" % (q, n))
        check(orbit_count_rational(F, n) == want, "orbit q=%d n=%d" % (q, n))
        # Each class's fixed keys, on one engine shared by every class.
        engine = KeyPermutations(F, n)
        for rep in enumerate_classes(F):
            brute = fixed_points(engine.image_perm(rep.matrix))
            closed = expected_fix(F, n, rep)
            check(brute == closed,
                  "fix q=%d n=%d %s%r: %d != %d"
                  % (q, n, rep.kind, rep.params, brute, closed))

    _finish("oracle agreement for rational classes", started, failures, 300.0)


# Residue branches of count_rational_classes_lowdeg that the per-class grid
# above does not reach: n=3 with q = 1 mod 6, n=4 with q = 7, 8, 9, 11 and
# 1 mod 12.
LOWDEG_BRANCH_CELLS = [(7, 3, "burnside"), (7, 3, "orbit"),
                       (7, 4, "burnside"), (8, 4, "orbit"), (9, 4, "orbit"),
                       (11, 4, "burnside"), (13, 4, "burnside")]


def test_low_degree_branches_against_brute_force():
    started = time.perf_counter()
    failures: list[str] = []
    methods = {"burnside": burnside_count_rational, "orbit": orbit_count_rational}
    for q, n, method in LOWDEG_BRANCH_CELLS:
        general = counting.count_rational_classes(q, n)
        cases = counting.count_rational_classes_lowdeg(q, n)
        brute = methods[method](field_of_order(q), n)
        if not general == cases == brute:
            failures.append("q=%d n=%d: general %d, case table %d, %s %d"
                            % (q, n, general, cases, method, brute))

    _finish("low-degree branches against brute force", started, failures, 60.0)


# The n = 5 polynomial branches that POLY_GRID_Q does not reach: q = 11 mod 12,
# q = 1 mod 12 with p != 5 and with p = 5, and q = 5 mod 12 with p != 5.
POLY_LOWDEG_BRANCH_CELLS = [(11, 5), (13, 5), (25, 5), (17, 5)]


def test_polynomial_low_degree_branches_against_brute_force():
    started = time.perf_counter()
    failures: list[str] = []
    for q, n in POLY_LOWDEG_BRANCH_CELLS:
        F = field_of_order(q)
        formula = counting.count_polynomial_classes(q, n)
        cases = counting.count_polynomial_classes_lowdeg(q, n)
        orbit = orbit_count_poly(F, n)
        burnside = burnside_count_poly(F, n)
        if not formula == cases == orbit == burnside:
            failures.append("q=%d n=%d: formula %d, case table %d, orbit %d, burnside %d"
                            % (q, n, formula, cases, orbit, burnside))

    _finish("polynomial low-degree branches against brute force", started, failures, 60.0)


# The rational n = 4 branches that no Tier-1 cell brute-forces yet.
OPEN_RATIONAL_BRANCH_CELLS: list[tuple[int, int]] = []


def _return_lines(fn) -> set[int]:
    # The line of every return statement in fn.
    lines, first = inspect.getsourcelines(fn)
    tree = ast.parse("".join(lines))
    return {node.lineno + first - 1 for node in ast.walk(tree)
            if isinstance(node, ast.Return)}


def _returns_reached(fn, cells) -> dict[int, list[tuple[int, int]]]:
    # The cells (q, n) that leave fn through each return line.
    reached: dict[int, list[tuple[int, int]]] = {}

    def local(frame, event, arg):
        if event == "return":
            reached.setdefault(frame.f_lineno, []).append(cell)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is fn.__code__ else None

    for cell in cells:
        previous = sys.gettrace()
        sys.settrace(calls)
        try:
            fn(*cell)
        finally:
            sys.settrace(previous)
    return reached


def test_every_lowdeg_branch_has_a_brute_force_cell():
    # Each return of the piecewise tables is reached by a cell that a Tier-1
    # test counts by brute force, except the returns of the open cells, which
    # must stay unreached until a brute-force cell for them is added.
    started = time.perf_counter()
    failures: list[str] = []
    rational_cells = RATIONAL_ORACLE_CELLS + [(q, n) for q, n, _ in LOWDEG_BRANCH_CELLS]
    poly_cells = ([(q, n) for q in POLY_GRID_Q for n in range(1, 6)]
                  + POLY_LOWDEG_BRANCH_CELLS)
    tables = [(counting.count_rational_classes_lowdeg, rational_cells,
               OPEN_RATIONAL_BRANCH_CELLS),
              (counting.count_polynomial_classes_lowdeg, poly_cells, [])]
    for fn, cells, open_cells in tables:
        returns = _return_lines(fn)
        covered = set(_returns_reached(fn, cells))
        open_lines = _returns_reached(fn, open_cells)
        for line in sorted(returns - covered):
            if line not in open_lines:
                failures.append("%s line %d: no brute-forced cell" % (fn.__name__, line))
        for line, where in sorted(open_lines.items()):
            if line in covered:
                failures.append("%s line %d: %r is brute-forced now; drop it from "
                                "the open cells" % (fn.__name__, line, where))
        if covered - returns:
            failures.append("%s: returns outside the return statements" % fn.__name__)

    _finish("every low-degree branch has a brute-force cell", started, failures, 5.0)


def test_polynomial_class_counts_three_ways():
    started = time.perf_counter()
    failures: list[str] = []
    for q in POLY_GRID_Q:
        F = field_of_order(q)
        for n in range(1, 6):
            formula = counting.count_polynomial_classes(q, n)
            cases = counting.count_polynomial_classes_lowdeg(q, n)
            orbit = orbit_count_poly(F, n)
            if not formula == cases == orbit:
                failures.append("q=%d n=%d: formula %d, case table %d, orbit %d"
                                % (q, n, formula, cases, orbit))

    _finish("polynomial class counts three ways", started, failures, 60.0)


def test_representative_tables():
    started = time.perf_counter()
    failures = ["q=%d n=%d" % (q, n) for q in POLY_GRID_Q for n in range(1, 6)
                if not verify_table(field_of_order(q), n)]
    _finish("representative tables", started, failures, 60.0)


def test_pair_counting_series():
    started = time.perf_counter()
    failures: list[str] = []

    def check(cond, msg):
        if not cond:
            failures.append(msg)

    for q in (2, 3, 4):
        F = field_of_order(q)
        for m in range(5):
            for n in range(5):
                check(count_coprime_pairs(F, m, n)
                      == counting.coprime_monic_pairs(q, m, n),
                      "coprime-pairs q=%d m=%d n=%d" % (q, m, n))
                check(count_coprime_nonzero_const(F, m, n)
                      == counting.coprime_pairs_nonzero_constant(q, m, n),
                      "nonzero-const q=%d m=%d n=%d" % (q, m, n))
        for n in range(1, 5):
            check(count_coprime_pairs_upto(F, n)
                  == counting.coprime_monic_pairs_upto(q, n),
                  "pairs-upto q=%d n=%d" % (q, n))
    for q in (2, 3):
        F = field_of_order(q)
        ctx = make_ext(F)
        for i in range(4):
            check(count_self_dual(ctx, i) == counting.self_dual_count(q, i),
                  "self-dual q=%d i=%d" % (q, i))
            check(count_reversal_coprime(ctx, i)
                  == counting.reversal_coprime_count(q, i),
                  "reversal q=%d i=%d" % (q, i))
        for i in range(4):
            for j in range(4):
                check(count_self_dual_coprime_pairs(ctx, i, j)
                      == counting.self_dual_coprime_pairs(q, i, j),
                      "self-dual-pairs q=%d i=%d j=%d" % (q, i, j))
        for n in range(3):
            check(count_rational_functions(F, n)
                  == counting.rational_function_count(q, n),
                  "rational-count q=%d n=%d" % (q, n))
    for q in (2, 3, 4, 5):
        for l in range(7):
            total = sum(counting.self_dual_count(q, i)
                        * counting.reversal_coprime_count(q, l - i)
                        for i in range(l + 1))
            check(total == q ** (2 * l), "convolution q=%d l=%d" % (q, l))

    _finish("pair-counting series", started, failures, 60.0)


def test_structural_invariants():
    started = time.perf_counter()
    failures: list[str] = []

    def check(cond, msg):
        if not cond:
            failures.append(msg)

    for q in prime_powers_upto(16):
        F = field_of_order(q)
        classes = enumerate_classes(F)
        check(len(classes) == q * q - 1, "class count q=%d" % q)
        group = (q * q - 1) * (q * q - q)
        check(sum(group // rep.centralizer for rep in classes) == group,
              "class equation q=%d" % q)
        check(all(group % rep.centralizer == 0 for rep in classes),
              "centralizer divisibility q=%d" % q)
    for q, n in RATIONAL_ORACLE_CELLS:
        F = field_of_order(q)
        count = sum(1 for _ in enumerate_subfield_keys(F, n))
        check(count == q ** (2 * (n - 1)), "key count q=%d n=%d" % (q, n))
    # The counting layer raises on any inexact internal division, so
    # evaluating the full grids is the divisibility check.
    for q in prime_powers_upto(49):
        for n in range(1, 5):
            counting.count_rational_classes(q, n)
        for n in range(1, 6):
            counting.count_polynomial_classes(q, n)

    _finish("structural invariants", started, failures, None)


def test_equivalence_notions_coincide():
    started = time.perf_counter()
    failures = ["q=%d n=%d" % (q, n)
                for q, n in [(2, 2), (2, 3), (3, 2), (3, 3)]
                if not poly_equivalence_partitions_agree(field_of_order(q), n)]
    _finish("equivalence notions coincide", started, failures, 60.0)
