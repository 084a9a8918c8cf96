"""Rational maps, fractional-linear substitution, and subfield keys."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from ffrat import counting
from ffrat.gf import BudgetExceededError, field_of_order, row_echelon, row_times
from ffrat.polyring import Poly, gcd, monic_polys
from ffrat.ratmap import (KeyPermutations, RationalMap, act,
                          enumerate_subfield_keys, invariant_planes, is_fixed,
                          key_image, normalize, subfield_key,
                          substitution_matrix)

from enumerators import polys_upto, projective_order

F2 = field_of_order(2)
F3 = field_of_order(3)
F4 = field_of_order(4)


def P(field, *coeffs):
    """Ascending-coefficient shorthand: P(F2, 1, 0, 1) is X^2+1."""
    return Poly(field, coeffs)


def inverse(F, mat):
    """The adjugate of the matrix, its inverse up to the scalar det(mat)."""
    a, b, c, d = mat
    return (d, F.neg(b), F.neg(c), a)


def mat_product(F, A, B):
    """The row-major product AB of two 2x2 matrices."""
    a, b, c, d = A
    e, f, g, h = B
    add, mul = F.add, F.mul
    return (add(mul(a, e), mul(b, g)), add(mul(a, f), mul(b, h)),
            add(mul(c, e), mul(d, g)), add(mul(c, f), mul(d, h)))


def key_rows_as_polys(F, key):
    r0, r1 = key
    return Poly(F, r0[::-1]), Poly(F, r1[::-1])


def invertible_mats(F):
    for mat in itertools.product(range(F.q), repeat=4):
        a, b, c, d = mat
        if F.sub(F.mul(a, d), F.mul(b, c)):
            yield mat


# -- normalize ----------------------------------------------------------------


def test_normalize_cancels_common_factor():
    f = normalize(P(F2, 0, 1, 1), P(F2, 0, 1))     # (X^2+X)/X
    assert f.num == P(F2, 1, 1)
    assert f.den == Poly.one(F2)
    assert f.degree == 1


def test_normalize_makes_denominator_monic():
    f = normalize(P(F3, 0, 1), P(F3, 1, 2))        # X/(2X+1)
    assert f.den.lc == 1
    assert f.num == P(F3, 0, 2)
    assert f.den == P(F3, 2, 1)


def test_normalize_leaves_reduced_pair_alone():
    f = normalize(P(F2, 0, 0, 0, 1), P(F2, 1, 1))
    assert f.num == P(F2, 0, 0, 0, 1)
    assert f.den == P(F2, 1, 1)
    assert f.degree == 3


def test_normalize_is_scale_invariant():
    assert normalize(P(F3, 2, 0, 2), P(F3, 0, 2)) == normalize(P(F3, 1, 0, 1), P(F3, 0, 1))


def test_degree_is_max_of_both_sides():
    assert normalize(P(F2, 1, 1), P(F2, 1, 1, 1)).degree == 2


def test_normalize_rejects_zero_denominator():
    with pytest.raises(ValueError):
        normalize(P(F2, 0, 0, 1), Poly.zero(F2))


def test_normalize_rejects_constant_map():
    with pytest.raises(ValueError):
        normalize(Poly.zero(F2), P(F2, 0, 1))
    with pytest.raises(ValueError):
        normalize(P(F2, 0, 0, 1), P(F2, 0, 0, 1))  # reduces to 1/1


def test_rational_map_str():
    assert str(normalize(P(F3, 2, 0, 1), P(F3, 0, 1))) == "(X^2+2)/X"
    assert str(normalize(P(F3, 0, 0, 1), P(F3, 1, 1))) == "X^2/(X+1)"
    assert str(normalize(P(F3, 0, 1), P(F3, 1, 2))) == "(2*X)/(X+2)"
    assert str(normalize(P(F2, 0, 1, 1), P(F2, 0, 1))) == "X+1"
    assert repr(normalize(P(F3, 0, 0, 1), P(F3, 1, 1))) == "RationalMap(X^2/(X+1))"


def test_rational_map_equality_and_hash():
    f = normalize(P(F3, 1, 0, 1), P(F3, 0, 1))
    g = normalize(P(F3, 2, 0, 2), P(F3, 0, 2))
    assert f == g
    assert hash(f) == hash(g)
    assert f != normalize(P(F3, 1, 0, 1), P(F3, 1, 1))


# -- subfield keys ------------------------------------------------------------


def test_subfield_key_example():
    f = normalize(P(F3, 0, 0, 1), P(F3, 1, 1))     # X^2/(X+1)
    assert subfield_key(f) == ((1, 0, 0), (0, 1, 1))


def test_key_ignores_left_composition():
    # Post-composing with (aP+bQ)/(cP+dQ) changes the map but spans the same
    # two-dimensional coefficient space, so the key must not move.
    num, den = P(F3, 1, 0, 1), P(F3, 0, 1)
    key = subfield_key(normalize(num, den))
    for a, b, c, d in invertible_mats(F3):
        mixed_num = num.scale(a) + den.scale(b)
        mixed_den = num.scale(c) + den.scale(d)
        assert subfield_key(normalize(mixed_num, mixed_den)) == key


def test_key_separates_distinct_subfields():
    f = normalize(P(F2, 0, 0, 1), Poly.one(F2))    # X^2
    g = normalize(P(F2, 0, 1, 1), Poly.one(F2))    # X^2+X
    assert subfield_key(f) != subfield_key(g)


@pytest.mark.parametrize("q,n,count", [(2, 1, 1), (2, 2, 4), (3, 2, 9),
                                       (2, 3, 16), (3, 3, 81), (4, 2, 16)])
def test_enumerate_key_count(q, n, count):
    keys = list(enumerate_subfield_keys(field_of_order(q), n))
    assert len(keys) == count
    assert len(set(keys)) == count
    assert count == field_of_order(q).q ** (2 * (n - 1))


def test_degree_one_key_is_unique():
    assert list(enumerate_subfield_keys(F2, 1)) == [((1, 0), (0, 1))]


def _brute_keys(F, n):
    seen = set()
    for m in range(n + 1):
        for den in monic_polys(F, m):
            for num in polys_upto(F, n):
                if num.is_zero or max(num.degree, m) != n:
                    continue
                if gcd(num, den).degree:
                    continue
                seen.add(subfield_key(RationalMap(num, den)))
    return seen


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3)])
def test_enumerate_keys_complete(q, n):
    # Every reduced degree-n pair lands on a key the enumeration also visits.
    F = field_of_order(q)
    assert set(enumerate_subfield_keys(F, n)) == _brute_keys(F, n)


def _gcd_filtered_keys(F, n):
    # The keys in enumeration order, each candidate pair tested with gcd.
    keys = []
    for m in range(n):
        free_positions = [i for i in range(n) if i != m]
        for p_low in itertools.product(range(F.q), repeat=n - 1):
            pc = [0] * n + [1]
            for pos, val in zip(free_positions, p_low):
                pc[pos] = val
            for q_low in itertools.product(range(F.q), repeat=m):
                Q = Poly(F, q_low + (1,))
                if gcd(Poly(F, pc), Q).degree == 0:
                    keys.append((tuple(reversed(pc)), (0,) * (n - m) + Q.coeffs[::-1]))
    return keys


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in (1, 2, 3)]
                         + [(4, 4), (5, 4)])
def test_sieved_enumeration_matches_gcd_filter(q, n):
    F = field_of_order(q)
    assert list(enumerate_subfield_keys(F, n)) == _gcd_filtered_keys(F, n)


def test_key_rows_regenerate_the_key():
    for key in enumerate_subfield_keys(F3, 3):
        r0, r1 = key_rows_as_polys(F3, key)
        assert subfield_key(normalize(r0, r1)) == key


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_subfield_keys(F3, 3, budget=80))
    assert len(list(enumerate_subfield_keys(F3, 3, budget=81))) == 81


def test_enumerate_rejects_degree_zero():
    with pytest.raises(ValueError):
        list(enumerate_subfield_keys(F2, 0))


# -- matrices and their projective orders ------------------------------------


SINGULAR_ENTRY_POINTS = {
    "act": lambda mat: act(normalize(P(F3, 1, 0, 1), P(F3, 0, 1)), mat),
    "is_fixed": lambda mat: is_fixed(((1, 0, 0), (0, 0, 1)), mat, F3),
    "substitution_matrix": lambda mat: substitution_matrix(F3, mat, 2),
    "image_perm": lambda mat: KeyPermutations(F3, 2).image_perm(mat),
    "invariant_planes": lambda mat: invariant_planes(F3, 2, mat),
    "projective_order": lambda mat: projective_order(F3, mat),
}


def test_transform_rejects_singular_matrix():
    for name, entry in SINGULAR_ENTRY_POINTS.items():
        for mat in ((1, 1, 1, 1), (0, 0, 1, 1), (0, 0, 0, 0)):
            with pytest.raises(ValueError, match=r"matrix \(.*\) is singular"):
                entry(mat)


def test_transform_orders():
    assert projective_order(F2, (1, 0, 0, 1)) == 1
    assert projective_order(F3, (1, 1, 0, 1)) == 3   # X+1
    assert projective_order(F3, (2, 0, 0, 1)) == 2   # 2X, projectively
    assert projective_order(F3, (0, 1, 1, 0)) == 2   # 1/X
    assert projective_order(F2, (0, 1, 1, 1)) == 3   # 1/(X+1)


def test_order_multiset_over_all_invertible_matrices():
    # Each projective class contains q-1 matrices, so the matrix-level order
    # counts are q-1 times the class-level ones.
    orders = Counter(projective_order(F3, mat) for mat in invertible_mats(F3))
    assert orders == {1: 2, 2: 18, 3: 16, 4: 12}
    assert sum(orders.values()) == 48


# -- substitution action -------------------------------------------------------


def test_act_identity():
    f = normalize(P(F3, 1, 0, 1), P(F3, 0, 1))
    assert act(f, (1, 0, 0, 1)) == f


def test_act_example():
    f = normalize(P(F3, 0, 0, 1), Poly.one(F3))
    shifted = act(f, (1, 1, 0, 1))
    assert shifted == normalize(P(F3, 1, 2, 1), Poly.one(F3))  # (X+1)^2


def test_act_scale_keeps_square_but_not_key_partner():
    f = normalize(P(F3, 0, 0, 1), Poly.one(F3))
    assert act(f, (2, 0, 0, 1)) == f    # (2X)^2 = X^2


def test_act_is_right_action():
    f = normalize(P(F3, 1, 0, 1), P(F3, 0, 1))
    mats = [(1, 1, 0, 1), (2, 0, 0, 1), (0, 1, 1, 0), (1, 2, 1, 1), (2, 1, 1, 1)]
    for A in mats:
        for B in mats:
            assert act(f, mat_product(F3, A, B)) == act(act(f, A), B)


def test_act_inverse_restores_the_map():
    f = normalize(P(F2, 0, 1, 0, 1), P(F2, 1, 1))
    for mat in invertible_mats(F2):
        assert act(act(f, mat), inverse(F2, mat)) == f


def test_key_image_matches_act():
    # The fast linear-algebra path and the substitute-then-reduce path must
    # land on the same key for every transform.
    f = normalize(P(F3, 1, 0, 1), P(F3, 0, 1))
    key = subfield_key(f)
    for mat in invertible_mats(F3):
        M = substitution_matrix(F3, mat, f.degree)
        assert key_image(key, M, F3) == subfield_key(act(f, mat))


def test_substitution_matrix_identity():
    M = substitution_matrix(F3, (1, 0, 0, 1), 2)
    assert M == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_substitution_matrix_example():
    # Rows are (X+1)^(2-i) * 1^i in descending coefficient order.
    M = substitution_matrix(F2, (1, 1, 0, 1), 2)
    assert M == ((1, 0, 1), (0, 1, 1), (0, 0, 1))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_substitution_matrix_matches_the_substitution_pointwise(q):
    # act and key_image share this matrix, so it is checked against its
    # definition on all of GL(2, q): the image of P evaluates to
    # (cx+d)^n P((ax+b)/(cx+d)) wherever cx+d != 0.  P runs over the basis
    # X^n, ..., 1 and one polynomial with no zero coefficient.
    F = field_of_order(q)
    add, mul = F.add, F.mul
    for n in (1, 2, 3):
        rows = [tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1)]
        rows.append(tuple(k % (q - 1) + 1 for k in range(n + 1)))
        for a, b, c, d in invertible_mats(F):
            M = substitution_matrix(F, (a, b, c, d), n)
            for row in rows:
                f = Poly(F, row[::-1])
                image = Poly(F, row_times(F, row, M)[::-1])
                for x in F.elements:
                    den = add(mul(c, x), d)
                    if den:
                        y = F.div(add(mul(a, x), b), den)
                        assert image(x) == mul(F.pow(den, n), f(y)), (a, b, c, d, row, x)


# -- echelon forms -------------------------------------------------------------


DEPENDENT_ROWS = [[(0, 0, 0), (0, 0, 0)], [(1, 0, 0), (1, 0, 0)], [(0, 0, 0), (0, 2, 1)],
                  [(1, 2, 0), (2, 1, 0)], [(0, 0, 0)], [(1, 0, 1), (0, 1, 1), (1, 1, 2)]]


def test_row_echelon_refuses_dependent_rows():
    # Zero rows included, which once sent the two-row echelon form of keys
    # past the row end.
    for key in (((0, 0, 0), (0, 0, 0)), ((1, 0, 0), (1, 0, 0))):
        with pytest.raises(ValueError, match="rows are linearly dependent"):
            is_fixed(key, (1, 0, 0, 1), F3)
    for rows in DEPENDENT_ROWS:
        with pytest.raises(ValueError, match="rows are linearly dependent"):
            row_echelon(F3, rows)


@pytest.mark.parametrize("q", [2, 3])
def test_row_echelon_is_the_reduced_form_of_the_span(q):
    # Every independent pair of length 3 against the reduced basis found in
    # its span: with j the first column the span reaches, r1 is the vector
    # with a 0 at j whose first nonzero entry is 1, and r0 the one with a 1
    # at j and a 0 at r1's first nonzero entry.
    F = field_of_order(q)
    vectors = list(itertools.product(F.elements, repeat=3))

    def lead(w):
        return next((i for i, x in enumerate(w) if x), None)
    for u, v in itertools.product(vectors, repeat=2):
        span = {tuple(F.add(F.mul(x, a), F.mul(y, b)) for a, b in zip(u, v))
                for x in F.elements for y in F.elements}
        if len(span) < q * q:
            continue
        j = min(lead(w) for w in span if any(w))
        [r1] = [w for w in span if any(w) and w[j] == 0 and w[lead(w)] == 1]
        [r0] = [w for w in span if w[j] == 1 and w[lead(r1)] == 0]
        assert row_echelon(F, [u, v]) == (r0, r1), (u, v)
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert row_echelon(F, [(1, 1, 1), (0, 1, 1), (0, 0, 1)]) == identity
    assert row_echelon(F, [(0, 0, 1), (0, 1, 0), (1, 0, 1)]) == identity


# -- fixed keys under the action -----------------------------------------------


def test_identity_fixes_every_key():
    keys = list(enumerate_subfield_keys(F3, 2))
    assert sum(is_fixed(k, (1, 0, 0, 1), F3) for k in keys) == counting.fix_central(3, 2)


def test_fixed_counts_match_closed_forms():
    keys22 = list(enumerate_subfield_keys(F2, 2))
    keys32 = list(enumerate_subfield_keys(F3, 2))
    unipotent = (1, 1, 0, 1)
    assert sum(is_fixed(k, unipotent, F2) for k in keys22) == counting.fix_unipotent(2, 2)
    diagonal = (2, 0, 0, 1)
    assert sum(is_fixed(k, diagonal, F3) for k in keys32) == counting.fix_diagonal(3, 2, 2)
    nonsplit = (0, 1, 1, 1)   # order 3, no eigenvalues
    assert sum(is_fixed(k, nonsplit, F2) for k in keys22) == counting.fix_nonsplit(2, 2, 3)


def test_is_fixed_agrees_with_act_on_representatives():
    A = (1, 1, 0, 1)
    for key in enumerate_subfield_keys(F3, 2):
        f = normalize(*key_rows_as_polys(F3, key))
        assert is_fixed(key, A, F3) == (subfield_key(act(f, A)) == key)
