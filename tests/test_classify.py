"""Canonical forms, coset representatives, and the family tables."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest

from ffrat import classify, counting
from ffrat.classify import (PolyClassRep, PolyPermutations, _normalized_raw,
                            _substitute_raw, affine_matrix, canonical_poly,
                            classify_all, coset_representatives, degree2_rational_reps,
                            least_nonsquare, left_normalize, normalized_polys,
                            table_families, verify_table)
from ffrat.gf import BudgetExceededError, field_of_order
from ffrat.oracle import orbit_count_poly
from ffrat.polyring import Poly, affine_substitute, compose
from ffrat.ratmap import KeyPermutations, subfield_key, substitution_matrix

from enumerators import (SMALL_ORDERS, affine_matrix_by_binomials,
                         canonical_poly_by_substitution, coset_representatives_greedy,
                         perm_product)

F2 = field_of_order(2)
F3 = field_of_order(3)
F4 = field_of_order(4)
F5 = field_of_order(5)
F7 = field_of_order(7)
F9 = field_of_order(9)


def P(field, *coeffs):
    """Ascending-coefficient shorthand: P(F2, 1, 0, 1) is X^2+1."""
    return Poly(field, coeffs)


# -- normalization and canonical forms ----------------------------------------


def test_left_normalize_example():
    assert left_normalize(P(F3, 1, 1, 2)) == P(F3, 0, 2, 1)


def test_left_normalize_is_idempotent():
    f = left_normalize(P(F3, 2, 1, 0, 2))
    assert left_normalize(f) == f
    assert f.lc == 1
    assert f.coeff(0) == 0


def test_left_normalize_rejects_constants():
    with pytest.raises(ValueError):
        left_normalize(Poly.one(F3))


def test_normalized_polys_counts():
    for q, n in [(2, 1), (2, 3), (3, 2), (4, 3), (5, 2), (8, 2), (9, 3)]:
        F = field_of_order(q)
        polys = normalized_polys(F, n)
        assert len(polys) == q ** (n - 1)
        assert len(set(polys)) == len(polys)
        for tup in polys:
            assert tup[0] == 0 and tup[-1] == 1 and len(tup) == n + 1
        # Rank order: the order canonical_poly compares in, from the top down.
        assert polys == sorted(polys, key=lambda cs: cs[::-1])
        # The i-th has the digits of i, read base q with c_{n-1} most significant.
        assert [sum(c * q ** (k - 1) for k, c in enumerate(f[1:n], 1))
                for f in polys] == list(range(q ** (n - 1)))
    with pytest.raises(ValueError):
        normalized_polys(F2, 0)


def test_canonical_poly_examples():
    assert canonical_poly(P(F2, 1, 1, 1)) == P(F2, 0, 1, 1)   # X^2+X
    assert canonical_poly(P(F2, 0, 0, 1)) == P(F2, 0, 0, 1)   # X^2 is stable
    with pytest.raises(ValueError):
        canonical_poly(Poly.one(F2))


def test_canonical_poly_is_idempotent():
    for coeffs in [(1, 2, 0, 1), (0, 1, 1, 2), (2, 2, 2, 1)]:
        canon = canonical_poly(Poly(F3, coeffs))
        assert canonical_poly(canon) == canon


def test_canonical_poly_is_class_invariant():
    f = P(F4, 2, 1, 0, 1)
    canon = canonical_poly(f)
    for a in F4.units:
        for b in F4.elements:
            assert canonical_poly(affine_substitute(f, a, b)) == canon
    # Left composition with an affine map lands in the same class too.
    assert canonical_poly(f.scale(3) + Poly.constant(F4, 1)) == canon


def test_canonical_poly_separates_classes():
    assert canonical_poly(P(F2, 0, 0, 0, 1)) != canonical_poly(P(F2, 0, 1, 0, 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_canonical_poly_matches_substitution_reference(q):
    F = field_of_order(q)
    for n in (1, 2, 3, 4):
        for f in normalized_polys(F, n):
            assert canonical_poly(Poly(F, f)) == canonical_poly_by_substitution(Poly(F, f))


def test_canonical_poly_of_unnormalized_input_matches_reference():
    # A lead other than 1 and a nonzero constant term: the left factor's work.
    for F in (F5, F9):
        for mid in itertools.product(F.elements, repeat=2):
            f = Poly(F, (1, *mid, 2))
            assert canonical_poly(f) == canonical_poly_by_substitution(f)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_canonical_poly_of_table_members_matches_reference(q):
    F = field_of_order(q)
    for _, members in table_families(F, 5):
        for member in members:
            assert canonical_poly(member) == canonical_poly_by_substitution(member)


def test_canonical_poly_of_quartic_table_members_over_gf16_matches_reference():
    # q = 16 = 1 mod 3: a level below the top with all scalings live keeps
    # the d = gcd(3, 15) = 3 cube roots of unity.
    F = field_of_order(16)
    for _, members in table_families(F, 4):
        for member in members:
            assert canonical_poly(member) == canonical_poly_by_substitution(member)


@pytest.mark.parametrize("q,n", [(16, 5), (11, 3), (7, 4), (2, 5), (9, 2)])
def test_least_image_clears_the_top_digit_in_one_step_where_p_does_not_divide_n(monkeypatch, q, n):
    # Digit n-1 of f(X + b) is c_{n-1} + n b, 0 at the one b = -c_{n-1}/n:
    # the top level evaluates that shift alone, one step, all that a
    # quadratic takes.
    def one_at_the_top(F, n, k, prefix, bs):
        assert k < n - 1 or len(bs) == 1, "the top level evaluated %d shifts" % len(bs)
        return shifts(F, n, k, prefix, bs)

    shifts = classify._shifts
    monkeypatch.setattr(classify, "_shifts", one_at_the_top)
    F = field_of_order(q)
    polys = ([m for _, ms in table_families(F, n) for m in ms] if q ** (n - 1) > 1000
             else [Poly(F, f) for f in normalized_polys(F, n)])
    for f in polys:
        digits, steps = classify._least_image(F, f.coeffs)
        assert (0, *digits[::-1], 1) == canonical_poly_by_substitution(f).coeffs, f
        if n == 2:
            assert steps == 1


@pytest.mark.parametrize("q,n,top", [(5, 5, (0,)), (3, 6, (0, 1, 2))])
def test_canonical_poly_where_p_divides_n_matches_reference(q, n, top):
    # p | n: the top digit c_{n-1} is the same for every b, so all q shifts
    # stay candidates below it: with all scalings live where c_{n-1} = 0,
    # which at (5, 5) leads to the q - 1 products, or with one scaling each.
    F = field_of_order(q)
    for f in normalized_polys(F, n):
        if f[n - 1] in top:
            assert canonical_poly(Poly(F, f)) == canonical_poly_by_substitution(Poly(F, f))


def test_canonical_poly_past_degree_five_matches_reference():
    # At (5, 6) a level with all scalings live keeps the two square roots,
    # the next one tells them apart, and the last one, n - k = 5, would
    # tell them apart again: a scaling dropped early must stay dropped.
    rng = random.Random(56)
    for _ in range(80):
        f = Poly(F5, [0] + [rng.randrange(5) for _ in range(5)] + [1])
        assert canonical_poly(f) == canonical_poly_by_substitution(f)


def test_canonical_poly_over_gf4093_quadratics_is_x_squared():
    # Over an odd field 3X^2 + cX + e = 3(X + c/6)^2 + ..., and X^2, the
    # least normalized quadratic, is the reference's minimum once one
    # substitution reaches it: the reference would make q(q-1) = 16.7 million.
    F = field_of_order(4093)
    for c in (0, 1, 2, 4092, 1234):
        f = P(F, 17, c, 3)
        image = _normalized_raw(F, _substitute_raw(F, f.coeffs, 1, F.neg(F.div(c, 6))))
        assert canonical_poly(f) == Poly(F, image) == P(F, 0, 0, 1)


@pytest.mark.parametrize("q,n", [(2, 5), (3, 5), (4, 5), (5, 5), (7, 4), (16, 3)])
def test_canonical_form_steps_are_within_the_charge(q, n):
    # The tags' budget charges q (n(n-1)/2 + 1) steps per member, a bound
    # for every normalized polynomial of degree n <= 5.
    F = field_of_order(q)
    bound = q * (n * (n - 1) // 2 + 1)
    assert max(classify._least_image(F, f)[1] for f in normalized_polys(F, n)) <= bound
    assert classify._table_cost(q, n) == bound * counting.count_polynomial_classes(q, n)


def test_canonical_form_steps_of_table_members_are_within_the_charge():
    # p | n at (25, 5): 625 of the 683 members keep every b past the top.
    F = field_of_order(25)
    steps = [classify._least_image(F, m.coeffs)[1] for _, ms in table_families(F, 5) for m in ms]
    assert max(steps) <= 11 * 25
    assert sum(steps) <= classify._table_cost(25, 5)


def test_canonical_poly_over_a_large_prime_field():
    # X^2 + 5X + 7 = (X + 518)^2 + 7 - 518^2 over GF(1031): past the
    # q(q-1) = 1,061,530 full substitutions of the reference.
    assert canonical_poly(P(field_of_order(1031), 7, 5, 1)) == P(field_of_order(1031), 0, 0, 1)


# -- classify_all ---------------------------------------------------------------


def test_classify_all_f3_cubics():
    reps = classify_all(F3, 3)
    assert [(r.canon.coeffs, r.orbit_size, r.family_tag) for r in reps] == [
        ((0, 0, 0, 1), 1, "X^3"),
        ((0, 1, 0, 1), 1, "X^3+a*X, a in C_2"),
        ((0, 2, 0, 1), 1, "X^3+a*X, a in C_2"),
        ((0, 0, 1, 1), 6, "X^3+X^2"),
    ]


@pytest.mark.parametrize("q,n", [(2, 2), (2, 4), (3, 3), (4, 2), (4, 3),
                                 (5, 3), (5, 4), (7, 3)])
def test_classify_all_partitions_normalized_polys(q, n):
    F = field_of_order(q)
    reps = classify_all(F, n)
    assert len(reps) == counting.count_polynomial_classes(q, n)
    assert sum(r.orbit_size for r in reps) == q ** (n - 1)
    canons = [r.canon.coeffs for r in reps]
    assert len(set(canons)) == len(canons)
    for r in reps:
        assert r.canon == canonical_poly(r.canon)
        assert (q * (q - 1)) % r.orbit_size == 0


def test_classify_all_sorted_with_monomial_first():
    reps = classify_all(F5, 4)
    assert reps[0].canon == Poly.monomial(F5, 4)
    keys = [r.canon.coeffs[::-1] for r in reps]
    assert keys == sorted(keys)


def test_classify_all_tags_every_class_through_degree_five():
    for q, n in [(2, 4), (2, 5), (3, 4), (4, 5)]:
        for rep in classify_all(field_of_order(q), n):
            assert rep.family_tag is not None


def test_classify_all_has_no_tags_past_degree_five():
    assert all(r.family_tag is None for r in classify_all(F2, 6))


def test_classify_all_budget_and_validation():
    # The walk's levels at (5, 6), q steps per node plus its stabilizer's
    # length (q for all of B): 10 for the root, 9, 23 over 3 nodes, 53 over
    # 8 and 265 over 40, 360 in all.
    with pytest.raises(BudgetExceededError, match="360 walk steps, budget is 359"):
        classify_all(F5, 6, budget=359)
    assert len(classify_all(F5, 6, budget=360)) == counting.count_polynomial_classes(5, 6)
    with pytest.raises(ValueError):
        classify_all(F5, 0)


def test_classify_all_budget_covers_family_canonical_forms():
    # 8 family members at q (n(n-1)/2 + 1) = 35 canonical-form steps each,
    # charged first, then the walk's levels: 10 for the root, 9 for X^4, 23
    # for its 3 children.
    with pytest.raises(BudgetExceededError, match="needs 280 canonical-form steps, budget is 279"):
        classify_all(F5, 4, budget=279)
    with pytest.raises(BudgetExceededError, match="needs 322 canonical-form and walk steps"):
        classify_all(F5, 4, budget=321)
    assert len(classify_all(F5, 4, budget=322)) == 8


# -- polynomial permutation engine ------------------------------------------------


def test_affine_matrix_matches_binomials_and_the_homogeneous_substitution():
    # Against the binomial formula, and against a^(-n) times the rows and
    # columns 1..n of the substitution matrix of (a, b, 0, 1), whose row i is
    # the descending vector of (aX + b)^(n-i).
    for q in SMALL_ORDERS:
        F = field_of_order(q)
        for n in range(1, 6):
            for a in F.units:
                scale = F.pow(a, -n)
                for b in F.elements:
                    M = affine_matrix(F, n, a, b)
                    assert M == affine_matrix_by_binomials(F, n, a, b), (q, n, a, b)
                    S = substitution_matrix(F, (a, b, 0, 1), n)
                    assert M == [[F.mul(scale, S[n - j][n - k]) for k in range(1, n + 1)]
                                 for j in range(1, n + 1)], (q, n, a, b)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_poly_permutations_match_scalar_substitution(q):
    # q = 8 and 9 take the binomials C(j, k) mod p into extension fields.
    F = field_of_order(q)
    for n in range(1, 5):
        engine = PolyPermutations(F, n)
        polys = normalized_polys(F, n)
        for a in F.units:
            for b in F.elements:
                aX_b = Poly(F, (b, a))
                for f, i in zip(polys, engine.image_perm(a, b)):
                    want = _normalized_raw(F, _substitute_raw(F, f, a, b))
                    assert polys[i] == want
                    assert want == left_normalize(compose(Poly(F, f), aX_b)).coeffs


@pytest.mark.parametrize("q,n", [(4, 3), (5, 3), (7, 3), (9, 2)])
def test_poly_scalings_are_composed_powers_of_the_generator(q, n):
    F = field_of_order(q)
    engine = PolyPermutations(F, n)
    D = engine.generators[0]
    power = D
    for k in range(1, q - 1):
        assert power == engine.image_perm(F.pow(F.generator, k), 0)
        power = perm_product(power, D)
    assert power == list(range(len(D)))


def test_poly_image_perm_work_is_bounded_by_the_points(monkeypatch):
    # GF(257) at n = 2 has 257 points: q digit rows of q entries each would
    # take q^2 = 66,049 products.
    F = field_of_order(257)
    mul, calls = F.mul, []

    def counted(x, y):
        calls.append(None)
        return mul(x, y)

    monkeypatch.setattr(F, "mul", counted)
    engine = PolyPermutations(F, 2)
    perm = engine.image_perm(3, 5)
    assert len(calls) < 4 * F.q
    monkeypatch.undo()
    polys = normalized_polys(F, 2)
    assert [polys[i] for i in perm] == [_normalized_raw(F, _substitute_raw(F, f, 3, 5))
                                        for f in polys]


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in (1, 2, 3)]
                         + [(4, 4), (5, 4)])
def test_poly_scaling_generator_matches_substitution(q, n):
    # Both generators against the scalar substitution, polynomial by polynomial.
    F = field_of_order(q)
    engine = PolyPermutations(F, n)
    polys = normalized_polys(F, n)
    index = {f: i for i, f in enumerate(polys)}
    for perm, (a, b) in zip(engine.generators, [(F.generator, 0), (1, 1)]):
        assert perm == [index[_normalized_raw(F, _substitute_raw(F, f, a, b))]
                        for f in polys]


# Cells where a stabilizer stays all of B for more than one level.
WHOLE_B_CELLS = [(2, 4), (4, 4), (2, 8), (3, 6), (8, 4)]


@pytest.mark.parametrize("q,n", WHOLE_B_CELLS)
def test_classify_all_matches_grouping_by_substitution(q, n):
    # Against the q(q-1) substitutions that define the canonical form.
    F = field_of_order(q)
    sizes = Counter(canonical_poly_by_substitution(Poly(F, f)).coeffs
                    for f in normalized_polys(F, n))
    reps = classify_all(F, n)
    assert [(r.canon.coeffs, r.orbit_size) for r in reps] == sorted(
        sizes.items(), key=lambda item: item[0][::-1])


@pytest.mark.parametrize("q,n", WHOLE_B_CELLS)
def test_classify_all_matches_the_orbit_search(q, n):
    F = field_of_order(q)
    assert len(classify_all(F, n)) == orbit_count_poly(F, n)


@pytest.mark.parametrize("n", [2, 3])
def test_classify_walk_work_is_bounded_by_q(monkeypatch, n):
    # At GF(1031) the walk makes about 2q products at n = 2 and 4.5q at
    # n = 3; listing all of B would take q(q-1) = 1,061,530.
    F = field_of_order(1031)
    monkeypatch.setattr(classify, "table_families", lambda F, n: [])
    mul, calls = F.mul, []

    def counted(x, y):
        calls.append(None)
        return mul(x, y)

    monkeypatch.setattr(F, "mul", counted)
    reps = classify_all(F, n)
    assert len(calls) < 6 * F.q
    assert len(reps) == counting.count_polynomial_classes(F.q, n)
    assert sum(r.orbit_size for r in reps) == F.q ** (n - 1)


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (4, 3), (5, 4), (7, 3),
                                 (8, 3), (8, 4), (9, 3)])
def test_classify_all_matches_grouping_by_canonical_poly(q, n):
    # The canonical member read off the walk against the canonical form of
    # every normalized polynomial.
    F = field_of_order(q)
    sizes = Counter(canonical_poly(Poly(F, f)).coeffs for f in normalized_polys(F, n))
    reps = classify_all(F, n)
    assert {r.canon.coeffs: r.orbit_size for r in reps} == sizes
    assert [r.canon.coeffs for r in reps] == sorted(sizes, key=lambda cs: cs[::-1])


# -- coset representatives ------------------------------------------------------


def test_coset_representative_examples():
    assert coset_representatives(F5, 1) == [1]
    assert coset_representatives(F5, 2) == [1, 2]
    assert coset_representatives(F5, 4) == [1, 2, 3, 4]
    assert coset_representatives(F7, 3) == [1, 2, 3]
    assert coset_representatives(F9, 2) == [1, 4]
    with pytest.raises(ValueError):
        coset_representatives(F5, 0)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_coset_representatives_cover_units_once(q, i):
    F = field_of_order(q)
    reps = coset_representatives(F, i)
    assert len(reps) == math.gcd(i, q - 1)
    assert reps[0] == 1
    powers = {F.pow(u, i) for u in F.units}
    cover = [F.mul(r, h) for r in reps for h in powers]
    assert sorted(cover) == sorted(F.units)


@pytest.mark.parametrize("q", SMALL_ORDERS + [27, 49, 64, 81, 121, 125, 243, 256, 343, 512, 625])
def test_coset_representatives_match_the_greedy_cover(q):
    # The orbit search from ascending starts against the greedy cover.
    F = field_of_order(q)
    for i in range(1, 13):
        assert coset_representatives(F, i) == coset_representatives_greedy(F, i), i


def test_least_nonsquare():
    assert least_nonsquare(F3) == 2
    assert least_nonsquare(F5) == 2
    assert least_nonsquare(F7) == 3
    assert least_nonsquare(F9) == 4
    with pytest.raises(ValueError):
        least_nonsquare(F4)
    b = least_nonsquare(F9)
    assert all(F9.mul(u, u) != b for u in F9.units)


# -- family tables --------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_verify_table_grid(q, n):
    assert verify_table(field_of_order(q), n)


def test_verify_table_budget_covers_canonical_forms():
    # 8 family members at q (n(n-1)/2 + 1) = 35 canonical-form steps each.
    with pytest.raises(BudgetExceededError, match="needs 280 canonical-form steps"):
        verify_table(F5, 4, budget=279)
    assert verify_table(F5, 4, budget=280)


def test_table_families_rejects_high_degree():
    with pytest.raises(ValueError):
        table_families(F2, 6)


def test_table_row_totals_q13_degree5():
    families = table_families(field_of_order(13), 5)
    sizes = [len(members) for _, members in families]
    assert sizes == [156, 26, 12, 3, 4, 1]
    assert sum(sizes) == counting.count_polynomial_classes(13, 5) == 202


@pytest.mark.parametrize("q,sizes", [(17, [272, 34, 17, 4, 1]),     # 5 mod 12, p != 5
                                     (25, [625, 50, 3, 4, 1])])    # 1 mod 12, p = 5
def test_table_row_totals_degree5_off_the_verify_grid(q, sizes):
    families = table_families(field_of_order(q), 5)
    assert [len(members) for _, members in families] == sizes
    assert sum(sizes) == counting.count_polynomial_classes(q, 5)
    assert sum(sizes) == counting.count_polynomial_classes_lowdeg(q, 5)


def test_table_members_have_the_right_shape():
    for n in (1, 2, 3, 4, 5):
        families = table_families(F9, n)
        tags = [tag for tag, _ in families]
        assert len(set(tags)) == len(tags)
        for _, members in families:
            for member in members:
                assert member.degree == n
                assert member.lc == 1
                assert member.coeff(0) == 0


def test_family_orbit_sizes_match_classify_all():
    # classify_all and the table agree not just in count but class by class.
    reps = classify_all(F5, 4)
    table_canons = {canonical_poly(member).coeffs
                    for _, members in table_families(F5, 4) for member in members}
    assert table_canons == {r.canon.coeffs for r in reps}


# -- degree-2 rational representatives ------------------------------------------


def test_degree2_reps_strings():
    assert [str(f) for f in degree2_rational_reps(F2)] == ["X^2", "X^2+X"]
    assert [str(f) for f in degree2_rational_reps(F3)] == ["X^2", "(X^2+2)/X"]
    assert [str(f) for f in degree2_rational_reps(F4)] == ["X^2", "X^2+X"]
    assert [str(f) for f in degree2_rational_reps(F7)] == ["X^2", "(X^2+3)/X"]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_degree2_reps_hit_both_orbits(q):
    F = field_of_order(q)
    assert counting.count_rational_classes(q, 2) == 2
    engine = KeyPermutations(F, 2)
    blabels, glabels = engine.bruhat_labels()
    first, second = (glabels[blabels[engine.rank(subfield_key(f))]]
                     for f in degree2_rational_reps(F))
    assert first != second
