"""Brute-force verification engine.

Everything in ``counting`` has an independent enumeration mirror here:

* conjugacy classes of the invertible 2x2 matrices over GF(q), with their
  centralizer orders, built directly from eigenvalue data;
* per-class fixed-subfield counts by walking every subfield key, as fixed
  points of the permutation a matrix induces on the indexed keys;
* Burnside averages and explicit orbit closures for both the rational and
  the polynomial action, on index permutations of the subfield keys
  (``ratmap.KeyPermutations``) or of the normalized polynomials
  (``classify.PolyPermutations``), with one orbit search
  (``ratmap.label_orbits``) for both;
* direct enumerations of the coprime-pair and self-dual series.

``verify_grid`` packages the comparisons into a report of named checks, one
expected/actual pair per check, suitable for JSON serialization.  Cells whose
enumeration would exceed the budget are skipped and counted, never failed.
"""

from __future__ import annotations

import functools
import itertools
import time
from typing import NamedTuple

from ffrat import classify, counting
from ffrat.gf import (ExtFieldCtx, FieldCtx, field_of_order, make_ext,
                      mult_order)
from ffrat.polyring import (Poly, conj_reverse, gcd, monic_polys, polys_upto,
                            self_dual_scalar)
from ffrat.ratmap import (BudgetExceededError, DEFAULT_KEY_BUDGET,
                          KeyPermutations, MoebiusTransform, SubfieldKey,
                          check_budget, compose_perms, enumerate_subfield_keys,
                          fixed_points, label_orbits, normalize, orbit_count,
                          subfield_key)

VERIFY_KINDS = ("fix-formulas", "frakN", "frakM", "appendix-lemmas")


class ConjClassRep(NamedTuple):
    """One conjugacy class of invertible 2x2 matrices.

    kind is "central", "split" (distinct eigenvalues in GF(q)), "nonsplit"
    (conjugate eigenvalues in GF(q^2) only), or "unipotent" (one repeated
    eigenvalue, nondiagonalizable).  params identifies the class within its
    kind; matrix is a representative as a row-major (a, b, c, d) tuple.
    """
    kind: str
    params: tuple[int, ...]
    matrix: tuple[int, int, int, int]
    centralizer: int

    def moebius(self, F: FieldCtx) -> MoebiusTransform:
        return MoebiusTransform(F, self.matrix)


def enumerate_classes(F: FieldCtx) -> list[ConjClassRep]:
    """All q^2 - 1 conjugacy classes, deterministic order."""
    q = F.q
    out = []
    for a in F.units:
        out.append(ConjClassRep("central", (a,), (a, 0, 0, a),
                                q * (q - 1) ** 2 * (q + 1)))
    for a in F.units:
        for b in F.units:
            if a < b:
                out.append(ConjClassRep("split", (a, b), (a, 0, 0, b),
                                        (q - 1) ** 2))
    for t in F.elements:
        for s in F.units:
            # X^2 - tX + s irreducible over GF(q): no root.
            if all(F.add(F.sub(F.mul(x, x), F.mul(t, x)), s) for x in F.elements):
                out.append(ConjClassRep("nonsplit", (t, s),
                                        (t, F.neg(s), 1, 0), q * q - 1))
    for a in F.units:
        out.append(ConjClassRep("unipotent", (a,), (a, a, 0, a), q * (q - 1)))
    if len(out) != q * q - 1:
        raise AssertionError("expected %d classes, found %d" % (q * q - 1, len(out)))
    return out


def nonsplit_twist_order(ctx: ExtFieldCtx, t: int, s: int) -> int:
    """For an irreducible X^2 - tX + s over GF(q) with root x in GF(q^2),
    the order of conj(x)/x; always divides q + 1 and exceeds 1."""
    E = ctx.ext
    te, se = ctx.embed(t), ctx.embed(s)
    for x in E.elements:
        if E.add(E.sub(E.mul(x, x), E.mul(te, x)), se) == 0:
            d = mult_order(E, E.div(ctx.frobenius(x), x))
            if (ctx.base.q + 1) % d or d < 2:
                raise AssertionError("twist order %d invalid" % d)
            return d
    raise ValueError("X^2 - %d*X + %d has no root in the extension" % (t, s))


def expected_fix(F: FieldCtx, n: int, rep: ConjClassRep,
                 ctx: ExtFieldCtx | None = None) -> int:
    """Closed-form fixed-subfield count for one conjugacy class."""
    q = F.q
    if rep.kind == "central":
        return counting.fix_central(q, n)
    if rep.kind == "split":
        a, b = rep.params
        return counting.fix_diagonal(q, n, mult_order(F, F.div(a, b)))
    if rep.kind == "nonsplit":
        if ctx is None:
            ctx = make_ext(F)
        t, s = rep.params
        return counting.fix_nonsplit(q, n, nonsplit_twist_order(ctx, t, s))
    if rep.kind == "unipotent":
        return counting.fix_unipotent(q, n)
    raise ValueError("unknown class kind %r" % rep.kind)


def _engine(F: FieldCtx, n: int, budget: int,
            engine: KeyPermutations | None = None) -> KeyPermutations:
    if engine is None:
        return KeyPermutations(F, n, list(enumerate_subfield_keys(F, n, budget)))
    if engine.F is not F or engine.n != n:
        raise ValueError("engine holds the degree-%d keys over %r, not the "
                         "degree-%d keys over %r" % (engine.n, engine.F, n, F))
    return engine


def fix_count_bruteforce(F: FieldCtx, n: int, rep: ConjClassRep,
                         budget: int = DEFAULT_KEY_BUDGET,
                         engine: KeyPermutations | None = None) -> int:
    """Count the degree-n subfield keys fixed by a class representative by
    transforming every key.  ``engine`` may pass a ``KeyPermutations`` over
    all the degree-n keys, so that several classes share one enumeration
    and one index."""
    return fixed_points(_engine(F, n, budget, engine).image_perm(rep.matrix))


def _burnside(engine: KeyPermutations) -> int:
    # Each class holds |GL(2, q)| / centralizer matrices.
    q = engine.F.q
    group = q * (q - 1) ** 2 * (q + 1)
    fixed = sum(engine.fix_count(rep.matrix) * counting.exact_div(group, rep.centralizer)
                for rep in enumerate_classes(engine.F))
    return counting.exact_div(fixed, group)


def burnside_count_rational(F: FieldCtx, n: int,
                            budget: int = DEFAULT_KEY_BUDGET,
                            engine: KeyPermutations | None = None) -> int:
    """Class count as the centralizer-weighted sum of per-class fixed
    counts; must agree with counting.count_rational_classes.  ``engine``
    may pass a shared ``KeyPermutations``, as for ``fix_count_bruteforce``."""
    return _burnside(_engine(F, n, budget, engine))


def burnside_count_rational_fullgroup(F: FieldCtx, n: int,
                                      budget: int = DEFAULT_KEY_BUDGET) -> int:
    """Burnside average over every invertible matrix, no conjugacy classes.

    Quadratically slower than burnside_count_rational; a debugging
    cross-check for tiny fields.
    """
    engine = _engine(F, n, budget)
    total = 0
    group_order = 0
    for a, b, c, d in itertools.product(F.elements, repeat=4):
        if F.sub(F.mul(a, d), F.mul(b, c)):
            group_order += 1
            total += engine.fix_count((a, b, c, d))
    if group_order != (F.q ** 2 - 1) * (F.q ** 2 - F.q):
        raise AssertionError("group order mismatch")
    return counting.exact_div(total, group_order)


def orbit_count_rational(F: FieldCtx, n: int,
                         budget: int = DEFAULT_KEY_BUDGET) -> int:
    """Number of orbits of subfield keys under the full substitution group,
    by closure under a generating set."""
    return orbit_count(_engine(F, n, budget).generators)


def orbit_labels(F: FieldCtx, n: int,
                 budget: int = DEFAULT_KEY_BUDGET) -> dict[SubfieldKey, int]:
    """Map each subfield key to an orbit index (order of first discovery)."""
    engine = _engine(F, n, budget)
    return dict(zip(engine.keys, label_orbits(engine.generators)))


# -- polynomial action ------------------------------------------------------


def orbit_count_poly(F: FieldCtx, n: int,
                     budget: int = DEFAULT_KEY_BUDGET) -> int:
    """Orbits of normalized degree-n polynomials under right substitution by
    invertible affine maps."""
    return orbit_count(classify.PolyPermutations(F, n, budget).generators)


def burnside_count_poly(F: FieldCtx, n: int,
                        budget: int = DEFAULT_KEY_BUDGET) -> int:
    """Polynomial class count as a Burnside average over the q conjugacy
    classes of invertible affine maps (identity, the scalings, X+1).  The
    scalings X -> g^k X are the powers of the generator D."""
    D, T = classify.PolyPermutations(F, n, budget).generators
    q = F.q
    # Class sizes: 1 for the identity, q per scaling, q - 1 for translations.
    scalings = 0
    power = D
    for _ in range(q - 2):
        scalings += fixed_points(power)
        power = compose_perms(power, D)
    fixed = len(D) + q * scalings + (q - 1) * fixed_points(T)
    return counting.exact_div(fixed, q * (q - 1))


def poly_equivalence_partitions_agree(F: FieldCtx, n: int,
                                      budget: int = DEFAULT_KEY_BUDGET) -> bool:
    """Check that two normalized polynomials are affinely equivalent exactly
    when their subfield keys lie in the same substitution orbit: each affine
    orbit label pairs with one key orbit label, and back."""
    engine = classify.PolyPermutations(F, n, budget)
    labels = orbit_labels(F, n, budget)
    one = Poly.one(F)
    pairs = {(affine, labels[subfield_key(normalize(Poly(F, f), one))])
             for f, affine in zip(engine.polys, label_orbits(engine.generators))}
    return len(pairs) == len({a for a, _ in pairs}) == len({k for _, k in pairs})


# -- direct enumerations of the counting series -----------------------------


def count_coprime_pairs(F: FieldCtx, m: int, n: int) -> int:
    """Enumeration mirror of counting.coprime_monic_pairs."""
    return sum(1 for f in monic_polys(F, m) for g in monic_polys(F, n)
               if gcd(f, g).degree == 0)


def count_coprime_pairs_upto(F: FieldCtx, n: int) -> int:
    """Enumeration mirror of counting.coprime_monic_pairs_upto."""
    return sum(count_coprime_pairs(F, m, n) for m in range(n))


def count_coprime_nonzero_const(F: FieldCtx, m: int, n: int) -> int:
    """Enumeration mirror of counting.coprime_pairs_nonzero_constant."""
    return sum(1 for f in monic_polys(F, m) if f.coeff(0)
               for g in monic_polys(F, n) if gcd(f, g).degree == 0)


def count_rational_functions(F: FieldCtx, n: int) -> int:
    """Enumeration mirror of counting.rational_function_count: reduced pairs
    (P, Q) with Q monic and max degree exactly n."""
    count = 0
    for den_deg in range(n + 1):
        for den in monic_polys(F, den_deg):
            for num in polys_upto(F, n):
                if num.is_zero:
                    continue
                if max(num.degree, den.degree) != n:
                    continue
                if gcd(num, den).degree == 0:
                    count += 1
    return count


def count_self_dual(ctx: ExtFieldCtx, i: int) -> int:
    """Enumeration mirror of counting.self_dual_count."""
    return sum(1 for g in monic_polys(ctx.ext, i)
               if self_dual_scalar(g, ctx) is not None)


def count_reversal_coprime(ctx: ExtFieldCtx, i: int) -> int:
    """Enumeration mirror of counting.reversal_coprime_count."""
    return sum(1 for g in monic_polys(ctx.ext, i)
               if gcd(g, conj_reverse(g, ctx)).degree == 0)


def count_self_dual_coprime_pairs(ctx: ExtFieldCtx, i: int, j: int) -> int:
    """Enumeration mirror of counting.self_dual_coprime_pairs."""
    left = [g for g in monic_polys(ctx.ext, i) if self_dual_scalar(g, ctx) is not None]
    right = [g for g in monic_polys(ctx.ext, j) if self_dual_scalar(g, ctx) is not None]
    return sum(1 for f in left for g in right if gcd(f, g).degree == 0)


# -- verification grid -------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    q: int
    n: int
    expected: int
    actual: int
    passed: bool
    elapsed_ms: float


class VerificationReport:
    def __init__(self, checks: list[CheckResult] | None = None, skipped: int = 0):
        self.checks = [] if checks is None else checks
        self.skipped = skipped

    @property
    def total(self) -> int:
        return len(self.checks)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def to_json_obj(self) -> dict:
        return {
            "checks": [
                {"name": c.name, "q": c.q, "n": c.n,
                 "expected": str(c.expected), "actual": str(c.actual),
                 "pass": c.passed, "elapsed_ms": c.elapsed_ms}
                for c in self.checks
            ],
            "summary": {"total": self.total, "failed": self.failed,
                        "skipped": self.skipped},
        }


def _timed(name: str, q: int, n: int, expected: int, actual_fn) -> CheckResult:
    start = time.perf_counter()
    actual = actual_fn()
    ms = round((time.perf_counter() - start) * 1000, 3)
    return CheckResult(name, q, n, expected, actual, expected == actual, ms)


def _cell_fix_formulas(q: int, n: int, budget: int) -> list[CheckResult]:
    F = field_of_order(q)
    ctx = make_ext(F)
    # The first check builds the engine, so check times add up to the cell's.
    engine = functools.cache(lambda: _engine(F, n, budget))
    out = []
    for rep in enumerate_classes(F):
        want = expected_fix(F, n, rep, ctx)
        name = "fix-formulas/%s%r" % (rep.kind, rep.params)
        out.append(_timed(name, q, n, want,
                          lambda rep=rep: engine().fix_count(rep.matrix)))
    return out


def _cell_frak_n(q: int, n: int, budget: int) -> list[CheckResult]:
    F = field_of_order(q)
    want = counting.count_rational_classes(q, n)
    engine = functools.cache(lambda: _engine(F, n, budget))
    out = [_timed("frakN/burnside", q, n, want, lambda: _burnside(engine())),
           _timed("frakN/orbit", q, n, want,
                  lambda: orbit_count(engine().generators))]
    if n <= 4:
        out.append(_timed("frakN/lowdeg", q, n, want,
                          lambda: counting.count_rational_classes_lowdeg(q, n)))
    return out


def _cell_frak_m(q: int, n: int, budget: int) -> list[CheckResult]:
    F = field_of_order(q)
    want = counting.count_polynomial_classes(q, n)
    out = [_timed("frakM/orbit", q, n, want,
                  lambda: orbit_count_poly(F, n, budget)),
           _timed("frakM/burnside", q, n, want,
                  lambda: burnside_count_poly(F, n, budget))]
    if n <= 5:
        out.append(_timed("frakM/lowdeg", q, n, want,
                          lambda: counting.count_polynomial_classes_lowdeg(q, n)))
    return out


def _cell_appendix(q: int, budget: int) -> list[CheckResult]:
    # The largest enumerations are q^6: coprime pairs of cubics, and monic
    # cubics over GF(q^2).
    check_budget(q, 3, q ** 6, "polynomials", budget)
    F = field_of_order(q)
    ctx = make_ext(F)
    out = []
    for m in range(4):
        for n in range(4):
            out.append(_timed("appendix/coprime-pairs[m=%d]" % m, q, n,
                              counting.coprime_monic_pairs(q, m, n),
                              lambda m=m, n=n: count_coprime_pairs(F, m, n)))
    for n in range(1, 4):
        out.append(_timed("appendix/coprime-pairs-upto", q, n,
                          counting.coprime_monic_pairs_upto(q, n),
                          lambda n=n: count_coprime_pairs_upto(F, n)))
        out.append(_timed("appendix/rational-count", q, n - 1,
                          counting.rational_function_count(q, n - 1),
                          lambda n=n: count_rational_functions(F, n - 1)))
    for m in range(4):
        for n in range(4):
            out.append(_timed("appendix/nonzero-const[m=%d]" % m, q, n,
                              counting.coprime_pairs_nonzero_constant(q, m, n),
                              lambda m=m, n=n: count_coprime_nonzero_const(F, m, n)))
    for i in range(4):
        out.append(_timed("appendix/self-dual", q, i,
                          counting.self_dual_count(q, i),
                          lambda i=i: count_self_dual(ctx, i)))
        out.append(_timed("appendix/reversal-coprime", q, i,
                          counting.reversal_coprime_count(q, i),
                          lambda i=i: count_reversal_coprime(ctx, i)))
    for i in range(3):
        for j in range(3):
            out.append(_timed("appendix/self-dual-pairs[i=%d]" % i, q, j,
                              counting.self_dual_coprime_pairs(q, i, j),
                              lambda i=i, j=j: count_self_dual_coprime_pairs(ctx, i, j)))
    for l in range(5):
        want = q ** (2 * l)
        out.append(_timed("appendix/convolution", q, l, want,
                          lambda l=l: sum(counting.self_dual_count(q, i)
                                          * counting.reversal_coprime_count(q, l - i)
                                          for i in range(l + 1))))
    return out


def _run_cell(task) -> tuple[list[CheckResult], int]:
    q, n, kind, budget = task
    try:
        if kind == "fix-formulas":
            return _cell_fix_formulas(q, n, budget), 0
        if kind == "frakN":
            return _cell_frak_n(q, n, budget), 0
        if kind == "frakM":
            return _cell_frak_m(q, n, budget), 0
        if kind == "appendix-lemmas":
            return _cell_appendix(q, budget), 0
        raise ValueError("unknown verification kind %r" % kind)
    except BudgetExceededError:
        return [], 1


def verify_grid(q_list, n_list, kinds=VERIFY_KINDS,
                budget: int = DEFAULT_KEY_BUDGET, jobs: int = 1) -> VerificationReport:
    """Run the named check kinds over a (q, n) grid.

    appendix-lemmas checks do not depend on n and run once per q.  With
    jobs > 1 the cells run in a process pool of at most one worker per
    cell; results keep the sequential order either way.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1, got %d" % jobs)
    for kind in kinds:
        if kind not in VERIFY_KINDS:
            raise ValueError("unknown verification kind %r" % kind)
    tasks = []
    for q in q_list:
        counting.char_and_degree(q)
        for kind in kinds:
            if kind == "appendix-lemmas":
                tasks.append((q, 0, kind, budget))
            else:
                tasks.extend((q, n, kind, budget) for n in n_list)

    workers = min(jobs, len(tasks))
    if workers > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, tasks))
    else:
        results = [_run_cell(t) for t in tasks]

    report = VerificationReport()
    for checks, skipped in results:
        report.checks.extend(checks)
        report.skipped += skipped
    return report
