"""Brute-force verification engine.

Everything in ``counting`` has an independent enumeration mirror here:

* conjugacy classes of the invertible 2x2 matrices over GF(q), with their
  centralizer and projective orders, built directly from eigenvalue data;
* per-class fixed-subfield counts on the invariant planes of the matrix's
  substitution matrix (``ratmap.fixed_key_counts``): a plane inside the left
  kernel of M - x, or spanned by v and vM for v in the left kernel of a
  quadratic in M, whose roots are eigenvalues of M; no key is listed;
* Burnside averages for both actions by one rule over the cyclic subgroups
  that partition each group, whose phi(d) elements of each order d fix what
  one of them fixes (``_burnside_average``), listing no class: for rational
  maps, one plane count per kind of torus (``_tori``) and order; for
  polynomials, one ``_affine_fixed`` kernel per scaling order and X -> X + 1;
* orbit closures on index permutations of the candidate key ranks or of the
  normalized polynomials (``ratmap.KeyPermutations``,
  ``classify.PolyPermutations``), with one orbit search from the listed
  points (``ratmap.label_orbits``) for both.  The rational closure
  searches only the affine group B, generated by X -> gX and X -> X + 1: the
  whole group is the disjoint union of B and B.S.B, S = X -> 1/X, so the
  B-orbits of a class are joined by the images under S of q keys of its
  first B-orbit, q inversions per class (``KeyPermutations.bruhat_labels``);
* enumerations of the appendix series: the coprime-pair series count the
  sieved table ``polyring.coprime_flags`` of all monic pairs of two degrees;
  over GF(q^2) the self-dual polynomials are walked by half their digits,
  one constant term at a time, and those coprime to their conjugated
  reversal are sieved by the ranks of the walked ones' multiples, with no
  ``gcd`` (only the pairs of self-dual polynomials take one each).

``verify_grid`` packages the comparisons into a report of named checks, one
expected/actual pair per check, suitable for JSON serialization.  Work that
would exceed the budget is skipped, never failed, and named in the report
with the budget's message: a frakN or frakM cell names each refused check as
"check name: message" and still runs its other checks; any other cell is
skipped whole.
"""

from __future__ import annotations

import functools
import itertools
import time
from typing import Iterator, NamedTuple

from ffrat import classify, counting
from ffrat.gf import (BudgetExceededError, ExtFieldCtx, FieldCtx, char_roots,
                      check_budget, field_of_order, left_kernel, make_ext,
                      mult_order, over_size_bound, power)
from ffrat.polyring import Poly, _multiple_ranks, coprime_flags, gcd
from ffrat.ratmap import (DEFAULT_KEY_BUDGET, KeyPermutations, _check_keys, fixed_key_counts,
                          label_orbits)

VERIFY_KINDS = ("fix-formulas", "frakN", "frakM", "appendix-lemmas")


class ConjClassRep(NamedTuple):
    """One conjugacy class of invertible 2x2 matrices.

    kind is "central", "split" (distinct eigenvalues in GF(q)), "nonsplit"
    (conjugate eigenvalues in GF(q^2) only), or "unipotent" (one repeated
    eigenvalue, nondiagonalizable).  params identifies the class within its
    kind; matrix is a representative as a row-major (a, b, c, d) tuple.
    order is the projective order, from the eigenvalues a, b and not from
    matrix products: the order of a/b, or p for a unipotent class.
    """
    kind: str
    params: tuple[int, ...]
    matrix: tuple[int, int, int, int]
    centralizer: int
    order: int


def enumerate_classes(F: FieldCtx) -> list[ConjClassRep]:
    """All q^2 - 1 conjugacy classes, deterministic order.  GF(q^2) is
    built first, so a field over the size bound is refused before any walk."""
    q = F.q
    ctx = make_ext(F)
    out = []
    for a in F.units:
        out.append(ConjClassRep("central", (a,), (a, 0, 0, a),
                                q * (q - 1) ** 2 * (q + 1), 1))
    for a in F.units:
        for b in F.units:
            if a < b:
                out.append(ConjClassRep("split", (a, b), (a, 0, 0, b),
                                        (q - 1) ** 2, mult_order(F, F.div(a, b))))
    # x and y = x^q outside GF(q) are the roots of one irreducible
    # X^2 - tX + s, t = x + y and s = xy; the lesser of the two gives it.
    E, base = ctx.ext, ctx.embed_table
    nonsplit = sorted((base.index(E.add(x, y)), base.index(E.mul(x, y)),
                       mult_order(E, E.div(y, x)))
                      for x, y in enumerate(ctx.frob_table) if x < y)
    for t, s, d in nonsplit:
        out.append(ConjClassRep("nonsplit", (t, s), (t, F.neg(s), 1, 0),
                                q * q - 1, d))
    for a in F.units:
        out.append(ConjClassRep("unipotent", (a,), (a, a, 0, a), q * (q - 1), F.p))
    if len(out) != q * q - 1:
        raise AssertionError("expected %d classes, found %d" % (q * q - 1, len(out)))
    return out


def expected_fix(F: FieldCtx, n: int, rep: ConjClassRep) -> int:
    """Closed-form fixed-subfield count for one conjugacy class."""
    q = F.q
    if rep.kind == "central":
        return counting.fix_central(q, n)
    if rep.kind == "split":
        return counting.fix_diagonal(q, n, rep.order)
    if rep.kind == "nonsplit":
        return counting.fix_nonsplit(q, n, rep.order)
    if rep.kind == "unipotent":
        return counting.fix_unipotent(q, n)
    raise ValueError("unknown class kind %r" % rep.kind)


def _burnside_average(points: int, group: int, families) -> int:
    """Orbit count by Burnside's lemma over a group of order ``group`` whose
    non-identity elements each lie in one subgroup of the families
    (k, N, fixed): k conjugate cyclic subgroups of order N, whose phi(d)
    elements of each order d > 1 dividing N generate one subgroup, so they
    all fix the ``fixed[d]`` points that one of them fixes."""
    order = 1 + sum(k * (N - 1) for k, N, _ in families)
    if order != group:
        raise AssertionError("the subgroups hold %d elements, not %d" % (order, group))
    total = points
    for k, N, fixed in families:
        if sorted(fixed) != counting.divisors(N)[1:]:
            raise AssertionError("the fixed counts of a cyclic group of order %d are keyed by "
                                 "%r, not by its orders d > 1" % (N, sorted(fixed)))
        total += k * sum(counting.euler_phi(d) * count for d, count in fixed.items())
    return counting.exact_div(total, order)


def _power(F: FieldCtx, mat, e: int) -> tuple[int, ...]:
    """mat^e of a row-major 2x2 (a, b, c, d), by ``gf.power``."""
    add, mul = F.add, F.mul
    return power(lambda x, y: tuple(add(mul(x[i], y[j]), mul(x[i + 1], y[j + 2]))
                                    for i in (0, 2) for j in (0, 1)), (1, 0, 0, 1), mat, e)


def _tori(F: FieldCtx) -> list[tuple[int, int, str, tuple[int, ...]]]:
    """(k, N, kind, generator) for the k conjugate cyclic subgroups of order
    N that hold each non-identity element of PGL(2, q) once: split <D>,
    D = X -> gX; nonsplit <R>, R the first C + cI, C the companion matrix of
    the first irreducible X^2 - tX + 1, whose (q+1)/r-th power is not scalar
    for any prime r dividing q + 1; and unipotent <T>, T = X -> X + 1.  The
    q + 1 elements of norm 1 in GF(q^2) include at most 1 and -1 from GF(q),
    so the others have such an irreducible minimal polynomial for every q."""
    q, p = F.q, F.p
    t = next(t for t in F.elements if not char_roots(F, t, 1))
    R = next(mat for mat in ((F.add(t, c), F.neg(1), 1, c) for c in F.elements)
             if all(mat_e[1] or mat_e[2] or mat_e[0] != mat_e[3]
                    for mat_e in (_power(F, mat, (q + 1) // r)
                                  for r in counting.prime_factors(q + 1))))
    return [(q * (q + 1) // 2, q - 1, "split", (F.generator, 0, 0, 1)),
            (q * (q - 1) // 2, q + 1, "nonsplit", R),
            ((q * q - 1) // (p - 1), p, "unipotent", (1, 1, 0, 1))]


def burnside_count_rational(F: FieldCtx, n: int,
                            budget: int = DEFAULT_KEY_BUDGET) -> int:
    """Class count as the Burnside average over the cyclic subgroups of
    ``_tori``.  Each (kind, order) is counted once, on the invariant planes
    of a power of the generator (``ratmap.fixed_key_counts``).  Must agree
    with counting.count_rational_classes."""
    q = F.q
    _check_keys(q, n, budget)
    tori = _tori(F)
    points, fixed = fixed_key_counts(
        F, n, {(kind, d): _power(F, gen, N // d)
               for _, N, kind, gen in tori for d in counting.divisors(N)[1:]}, budget)
    return _burnside_average(points, q * (q * q - 1), [
        (k, N, {d: fixed[kind, d] for d in counting.divisors(N)[1:]}) for k, N, kind, _ in tori])


def orbit_count_rational(F: FieldCtx, n: int,
                         budget: int = DEFAULT_KEY_BUDGET) -> int:
    """Number of orbits of subfield keys under the full substitution group:
    the affine orbits, joined by q inversions X -> 1/X per class."""
    return max(KeyPermutations(F, n, budget).bruhat_labels()[1]) + 1


# -- polynomial action ------------------------------------------------------


def orbit_count_poly(F: FieldCtx, n: int,
                     budget: int = DEFAULT_KEY_BUDGET) -> int:
    """Orbits of normalized degree-n polynomials under right substitution by
    invertible affine maps."""
    D, T = classify.PolyPermutations(F, n, budget).generators
    return len(label_orbits((D, T), range(len(D)))[1])


def _affine_fixed(F: FieldCtx, n: int, a: int, b: int) -> int:
    """Normalized degree-n polynomials that X -> aX + b fixes: the vectors
    (c_1, ..., c_n) with c_n = 1 in the left kernel of M - I, M the
    ``classify.affine_matrix`` of the map, q^(dim - 1) of them if an echelon
    row of the kernel ends in a nonzero entry."""
    kernel = left_kernel(F, classify.affine_matrix(F, n, a, b), (F.neg(1), 1))
    return F.q ** (len(kernel) - 1) if any(r[-1] for r in kernel) else 0


def burnside_count_poly(F: FieldCtx, n: int,
                        budget: int = DEFAULT_KEY_BUDGET) -> int:
    """Polynomial class count as the Burnside average over the affine group:
    the identity and the non-identity elements of the q point stabilizers,
    conjugates of the scalings <D>, and of the (q-1)/(p-1) cyclic groups of
    translations, conjugates of <T>, whose elements fix what T fixes.  The
    elements of order d in <D> fix what X -> g^((q-1)/d) X fixes, so each
    count is one ``_affine_fixed``, charged n^3 elimination steps."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    q, p, g = F.q, F.p, F.generator
    orders = counting.divisors(q - 1)[1:]
    check_budget(q, n, (len(orders) + 1) * n ** 3, "elimination steps", budget)
    return _burnside_average(q ** (n - 1), q * (q - 1), [
        (q, q - 1, {d: _affine_fixed(F, n, F.pow(g, (q - 1) // d), 0) for d in orders}),
        ((q - 1) // (p - 1), p, {p: _affine_fixed(F, n, 1, 1)})])


def class_count(kind: str, method: str, q: int, n: int, budget: int) -> int:
    """The degree-n classes of kind "rational" or "poly" over GF(q), by method
    "formula", "burnside" or "orbit".  Each function is looked up here, at
    call time, where tracing and tests rebind it."""
    if method == "formula":
        return {"rational": counting.count_rational_classes,
                "poly": counting.count_polynomial_classes}[kind](q, n)
    return {("rational", "burnside"): burnside_count_rational,
            ("rational", "orbit"): orbit_count_rational,
            ("poly", "burnside"): burnside_count_poly,
            ("poly", "orbit"): orbit_count_poly}[kind, method](field_of_order(q), n, budget)


def poly_equivalence_partitions_agree(F: FieldCtx, n: int,
                                      budget: int = DEFAULT_KEY_BUDGET) -> bool:
    """Check that two normalized polynomials are affinely equivalent exactly
    when their subfield keys lie in the same substitution orbit: each affine
    orbit label pairs with one key orbit label, and back.  The key of f/1 has
    the rows (f, 1), already in echelon form because f(0) = 0."""
    poly_engine = classify.PolyPermutations(F, n, budget)
    key_engine = KeyPermutations(F, n, budget)
    blabels, glabels = key_engine.bruhat_labels()
    one = (0,) * n + (1,)
    D, T = poly_engine.generators
    pairs = {(affine, glabels[blabels[key_engine.rank((f[::-1], one))]])
             for f, affine in zip(classify.normalized_polys(F, n),
                                  label_orbits((D, T), range(len(D)))[0])}
    return len(pairs) == len({a for a, _ in pairs}) == len({k for _, k in pairs})


# -- direct enumerations of the counting series -----------------------------


def count_coprime_pairs(F: FieldCtx, m: int, n: int) -> int:
    """Enumeration mirror of counting.coprime_monic_pairs."""
    return coprime_flags(F, m, n).count(1)


def count_coprime_pairs_upto(F: FieldCtx, n: int) -> int:
    """Enumeration mirror of counting.coprime_monic_pairs_upto."""
    return _pairs_upto(functools.partial(coprime_flags, F), n)


def count_coprime_nonzero_const(F: FieldCtx, m: int, n: int) -> int:
    """Enumeration mirror of counting.coprime_pairs_nonzero_constant."""
    return _nonzero_const(F.q, functools.partial(coprime_flags, F), m, n)


def count_rational_functions(F: FieldCtx, n: int) -> int:
    """Enumeration mirror of counting.rational_function_count: reduced pairs
    (P, Q) with Q monic and max degree exactly n: q - 1 units times the
    coprime monic pairs of degrees (a, b) with max(a, b) = n."""
    return _rational_functions(F.q, functools.partial(coprime_flags, F), n)


# The mirrors above on table(m, n), the ``coprime_flags`` table of (m, n)
# over one field, which ``_cell_appendix`` builds once per (m, n).


def _pairs_upto(table, n: int) -> int:
    return sum(table(m, n).count(1) for m in range(n))


def _nonzero_const(q: int, table, m: int, n: int) -> int:
    # f(0) is the most significant digit of f's rank: f(0) != 0 from q^(m-1) up.
    return table(m, n).count(1, q ** (m - 1 + n) if m else 0)


def _rational_functions(q: int, table, n: int) -> int:
    return (q - 1) * sum(table(a, b).count(1) for a in range(n + 1)
                         for b in range(n + 1) if max(a, b) == n)


def _self_dual_walk(ctx: ExtFieldCtx, i: int) -> Iterator[tuple[int, ...]]:
    """The ascending coefficients of every monic self-dual g of degree i over
    GF(q^2).  conj_reverse(g) = c*g forces c = conj(g_0) from the leading
    terms, so g_j = conj(g_(i-j)) / conj(g_0) for every j, and at j = 0
    g_0 = 1/conj(g_0).  For such a g_0, x -> conj(x)*g_0 is an involution:
    g_1..g_((i-1)/2) run free and fix their partners g_(i-j), and for even i
    the middle digit runs over the fixed points of the map."""
    if i == 0:
        yield (1,)
        return
    E, frob = ctx.ext, ctx.frob_table
    mul = E.mul
    for g0 in E.units:
        if mul(g0, frob[g0]) != 1:
            continue
        # 1/conj(g0) = g0 here.
        dual = [mul(frob[x], g0) for x in E.elements]
        middles = [(x,) for x in E.elements if dual[x] == x] if i % 2 == 0 else [()]
        for low in itertools.product(E.elements, repeat=(i - 1) // 2):
            high = tuple(dual[x] for x in reversed(low))
            for middle in middles:
                yield (g0, *low, *middle, *high, 1)


def count_self_dual(ctx: ExtFieldCtx, i: int) -> int:
    """Enumeration mirror of counting.self_dual_count."""
    return sum(1 for _ in _self_dual_walk(ctx, i))


def count_reversal_coprime(ctx: ExtFieldCtx, i: int) -> int:
    """Enumeration mirror of counting.reversal_coprime_count, by a sieve over
    the monic g of degree i, ranked as ``coprime_flags`` ranks them.  X never
    divides g* = conj_reverse(g), and an irreducible p with p(0) != 0
    divides g* exactly when p* divides g.  So g and g* share a factor exactly
    when g is a multiple of a self-dual h of degree 1..i, or of the monic
    h*h* for a monic h with h(0) != 0 and 2 deg h <= i.  (h*h*)* = h* * h,
    so that h*h* is self-dual too, and the multiples of the h that
    ``_self_dual_walk`` lists are all the sieve clears."""
    E = ctx.ext
    flags = bytearray(b"\x01") * E.q ** i
    for d in range(1, i + 1):
        for h in _self_dual_walk(ctx, d):
            for r in _multiple_ranks(E, h, i):
                flags[r] = 0
    return flags.count(1)


def count_self_dual_coprime_pairs(ctx: ExtFieldCtx, i: int, j: int) -> int:
    """Enumeration mirror of counting.self_dual_coprime_pairs: one ``gcd``
    per pair of self-dual polynomials."""
    E = ctx.ext
    left = [Poly._make(E, g) for g in _self_dual_walk(ctx, i)]
    right = [Poly._make(E, g) for g in _self_dual_walk(ctx, j)]
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


class SkippedCell(NamedTuple):
    """A cell, or some checks of a class-count cell, left out because the
    enumeration would exceed the budget; n is None for the appendix cells,
    which do not depend on n."""
    q: int
    n: int | None
    kind: str
    reason: str


class VerificationReport(NamedTuple):
    checks: list[CheckResult]
    skipped_cells: list[SkippedCell]

    @property
    def skipped(self) -> int:
        return len(self.skipped_cells)

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
            "skipped_cells": [cell._asdict() for cell in self.skipped_cells],
            "summary": {"total": self.total, "failed": self.failed,
                        "skipped": self.skipped},
        }


def _timed(name: str, q: int, n: int, expected: int, actual_fn) -> CheckResult:
    start = time.perf_counter()
    actual = actual_fn()
    ms = round((time.perf_counter() - start) * 1000, 3)
    return CheckResult(name, q, n, expected, actual, expected == actual, ms)


def _cell_fix_formulas(q: int, n: int, budget: int) -> list[CheckResult]:
    # The q^2 - 1 classes: the nonsplit ones come from a walk of GF(q^2)
    # that looks up a trace and a norm of each pair among the q elements of
    # GF(q).
    check_budget(q, n, (q * q - 1) * (q + 1), "class-walk steps", budget)
    F = field_of_order(q)
    classes = enumerate_classes(F)
    # The first check counts every (kind, order) on invariant planes, so
    # check times add up to the cell's.  The central classes fix every key.
    counts = functools.cache(lambda: fixed_key_counts(
        F, n, {(rep.kind, rep.order): rep.matrix for rep in classes
               if rep.kind != "central"}, budget))

    def fixed(rep: ConjClassRep) -> int:
        points, by_kind = counts()
        return points if rep.kind == "central" else by_kind[rep.kind, rep.order]

    return [_timed("fix-formulas/%s%r" % (rep.kind, rep.params), q, n,
                   expected_fix(F, n, rep), lambda rep=rep: fixed(rep))
            for rep in classes]


def _cell_class_count(q: int, n: int, kind: str,
                      budget: int) -> tuple[list[CheckResult], SkippedCell | None]:
    # frakN or frakM: the closed form against Burnside, an orbit listing and
    # the low-degree table.  A field over the size bound skips the cell; a
    # check the budget refuses is named in its reason, and the others run.
    field_of_order(q)
    if kind == "frakN":
        action, methods = "rational", ("burnside", "orbit")
        lowdeg, top = counting.count_rational_classes_lowdeg, 4
    else:
        action, methods = "poly", ("orbit", "burnside")
        lowdeg, top = counting.count_polynomial_classes_lowdeg, 5
    want = class_count(action, "formula", q, n, budget)
    out, refused = [], []
    for method in methods:
        name = "%s/%s" % (kind, method)
        try:
            out.append(_timed(name, q, n, want, lambda: class_count(action, method, q, n, budget)))
        except BudgetExceededError as exc:
            refused.append("%s: %s" % (name, exc))
    if n <= top:
        out.append(_timed(kind + "/lowdeg", q, n, want, lambda: lowdeg(q, n)))
    return out, SkippedCell(q, n, kind, "; ".join(refused)) if refused else None


def _cell_appendix(q: int, budget: int) -> list[CheckResult]:
    # The largest tables are q^6 bytes: the coprime pairs of monic cubics,
    # and the reversal sieve over the monic cubics over GF(q^2).
    check_budget(q, 3, q ** 6, "polynomials", budget)
    F = field_of_order(q)
    ctx = make_ext(F)
    # One table per (m, n), shared by the four coprime-pair mirrors.
    table = functools.cache(functools.partial(coprime_flags, F))
    out = []
    for m, n in itertools.product(range(4), repeat=2):
        out.append(_timed("appendix/coprime-pairs[m=%d]" % m, q, n,
                          counting.coprime_monic_pairs(q, m, n),
                          lambda m=m, n=n: table(m, n).count(1)))
    for n in range(1, 4):
        out.append(_timed("appendix/coprime-pairs-upto", q, n,
                          counting.coprime_monic_pairs_upto(q, n),
                          lambda n=n: _pairs_upto(table, n)))
        out.append(_timed("appendix/rational-count", q, n - 1,
                          counting.rational_function_count(q, n - 1),
                          lambda n=n: _rational_functions(q, table, n - 1)))
    for m, n in itertools.product(range(4), repeat=2):
        out.append(_timed("appendix/nonzero-const[m=%d]" % m, q, n,
                          counting.coprime_pairs_nonzero_constant(q, m, n),
                          lambda m=m, n=n: _nonzero_const(q, table, m, n)))
    for i in range(4):
        out.append(_timed("appendix/self-dual", q, i,
                          counting.self_dual_count(q, i),
                          lambda i=i: count_self_dual(ctx, i)))
        out.append(_timed("appendix/reversal-coprime", q, i,
                          counting.reversal_coprime_count(q, i),
                          lambda i=i: count_reversal_coprime(ctx, i)))
    for i, j in itertools.product(range(3), repeat=2):
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


def _run_cell(task) -> tuple[list[CheckResult], SkippedCell | None]:
    q, n, kind, budget = task
    try:
        if kind == "fix-formulas":
            return _cell_fix_formulas(q, n, budget), None
        if kind == "appendix-lemmas":
            return _cell_appendix(q, budget), None
        return _cell_class_count(q, n, kind, budget)
    except BudgetExceededError as exc:
        return [], SkippedCell(q, n, kind, str(exc))


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
        if not over_size_bound(q):      # else every cell of q is skipped
            counting.char_and_degree(q)
        for kind in kinds:
            if kind == "appendix-lemmas":
                tasks.append((q, None, kind, budget))
            else:
                tasks.extend((q, n, kind, budget) for n in n_list)

    workers = min(jobs, len(tasks))
    if workers > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, tasks))
    else:
        results = [_run_cell(t) for t in tasks]

    return VerificationReport([check for checks, _ in results for check in checks],
                              [skipped for _, skipped in results if skipped is not None])
