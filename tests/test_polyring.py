"""Polynomial arithmetic, duality operators, and forward differences."""

from __future__ import annotations

import itertools

import pytest

from ffrat import polyring
from ffrat.gf import field_of_order, make_ext, make_field
from ffrat.polyring import (NEG_INFINITY, Poly, _multiple_ranks, affine_substitute,
                            compose, conj, conj_reverse, coprime_flags, gcd,
                            horner_rank, monic_polys, poly_str, self_dual_scalar)

from enumerators import polys_upto

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def P(field, *coeffs):
    """Ascending-coefficient shorthand: P(F2, 1, 0, 1) is X^2+1."""
    return Poly(field, coeffs)


# -- construction and structure ---------------------------------------------


def test_trailing_zeros_stripped():
    assert P(F2, 1, 1, 0, 0).coeffs == (1, 1)


def test_zero_degree_is_neg_infinity():
    z = Poly.zero(F2)
    assert z.degree == NEG_INFINITY
    assert z.is_zero
    assert max(z.degree, P(F2, 1).degree) == 0


def test_coefficient_validation():
    with pytest.raises(ValueError):
        P(F2, 2)


def test_monomial_and_coeff():
    f = Poly.monomial(F3, 4, 2)
    assert f.coeffs == (0, 0, 0, 0, 2)
    assert f.coeff(4) == 2
    assert f.coeff(7) == 0


# -- ring arithmetic ----------------------------------------------------------


def test_arithmetic_examples():
    x = Poly.x(F3)
    f = x * x + Poly.one(F3)                      # X^2+1
    g = x + Poly.constant(F3, 2)                  # X+2
    assert (f + g).coeffs == (0, 1, 1)            # X^2+X
    assert (f - g).coeffs == (2, 2, 1)            # X^2+2X+2
    assert (f * g).coeffs == (2, 1, 2, 1)         # X^3+2X^2+X+2
    assert (g ** 2).coeffs == (1, 1, 1)           # X^2+X+1


@pytest.mark.parametrize("q", [2, 3])
def test_divmod_property_exhaustive(q):
    F = field_of_order(q)
    for f in polys_upto(F, 3):
        for g in polys_upto(F, 2):
            if g.is_zero:
                continue
            quo, rem = divmod(f, g)
            assert quo * g + rem == f
            assert rem.degree < g.degree


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.x(F2), Poly.zero(F2))


def test_evaluation_is_a_homomorphism():
    for f in polys_upto(F4, 2):
        for g in polys_upto(F4, 2):
            for x in F4.elements:
                assert (f + g)(x) == F4.add(f(x), g(x))
                assert (f * g)(x) == F4.mul(f(x), g(x))


def test_scale_and_monic():
    f = P(F3, 2, 0, 2)
    assert f.scale(2).coeffs == (1, 0, 1)
    assert f.monic().coeffs == (1, 0, 1)
    assert f.monic().is_monic()


# -- gcd and composition -----------------------------------------------------


def test_gcd_examples():
    assert gcd(P(F2, 0, 1, 1), P(F2, 0, 1)) == P(F2, 0, 1)       # X^2+X, X -> X
    assert gcd(P(F2, 1, 0, 1), P(F2, 1, 1)) == P(F2, 1, 1)       # X^2+1, X+1 -> X+1
    assert gcd(P(F3, 1, 2, 1), Poly.one(F3)) == Poly.one(F3)


def test_gcd_is_monic_and_divides_both():
    for f in polys_upto(F3, 3):
        for g in polys_upto(F3, 2):
            if f.is_zero and g.is_zero:
                continue
            d = gcd(f, g)
            assert d.is_monic()
            if not f.is_zero:
                assert (f % d).is_zero
            if not g.is_zero:
                assert (g % d).is_zero


def test_compose_examples():
    assert compose(P(F2, 0, 0, 1), P(F2, 1, 1)) == P(F2, 1, 0, 1)
    g = P(F3, 2, 1, 2)
    assert compose(Poly.x(F3), g) == g
    assert compose(P(F3, 0, 1, 0, 1), P(F3, 1, 1)) == P(F3, 2, 1, 0, 1)


def test_affine_substitute_matches_compose():
    # Fields of characteristic 2 and 3, where some binomials C(j, k) with
    # j <= 3 vanish.  A scalar factor and the constant term commute with the
    # substitution, so over GF(8) and GF(9) the monic polynomials without
    # constant term stand for the rest.
    for q in (3, 4, 8, 9):
        F = field_of_order(q)
        for f in polys_upto(F, 3):
            if q < 8 or (f.is_monic() and not f.coeff(0)):
                for a in F.units:
                    for b in F.elements:
                        assert affine_substitute(f, a, b) == compose(f, P(F, b, a))


# -- conjugation and reversal over the quadratic extension -------------------


CTX2 = make_ext(F2)   # GF(2) inside GF(4)
CTX3 = make_ext(F3)   # GF(3) inside GF(9)


def test_conj_fixes_base_coefficients():
    base_image = {CTX2.embed_table[a] for a in F2.elements}
    for coeffs in itertools.product(sorted(base_image), repeat=3):
        f = Poly(CTX2.ext, coeffs)
        assert conj(f, CTX2) == f


def test_conj_is_an_involution():
    for f in polys_upto(CTX2.ext, 2):
        assert conj(conj(f, CTX2), CTX2) == f


def test_conj_swaps_the_two_proper_elements_of_gf4():
    # Over GF(4) = {0, 1, w, w^2} the Frobenius exchanges w and w^2.
    w = F4.generator
    w2 = F4.mul(w, w)
    f = Poly(F4, (w, 1))
    assert conj(f, CTX2) == Poly(F4, (w2, 1))


def test_conj_reverse_examples():
    for m in range(4):
        assert conj_reverse(Poly.monomial(F4, m), CTX2) == Poly.one(F4)
    f = P(F4, 1, 1)
    assert conj_reverse(f, CTX2) == f
    # Reversal and conjugation cancel on w + w^2 X: it equals its own dual.
    w = F4.generator
    w2 = F4.mul(w, w)
    assert conj_reverse(Poly(F4, (w, w2)), CTX2) == Poly(F4, (w, w2))


def test_conj_reverse_general_linear():
    # aX+b with a, b nonzero maps to conj(b)X + conj(a).
    frob = CTX2.frob_table
    for a in F4.units:
        for b in F4.units:
            got = conj_reverse(Poly(F4, (b, a)), CTX2)
            assert got == Poly(F4, (frob[a], frob[b]))


def test_conj_reverse_multiplicative():
    polys = [f for f in polys_upto(F4, 2) if not f.is_zero]
    for f in polys:
        for g in polys:
            assert (conj_reverse(f * g, CTX2)
                    == conj_reverse(f, CTX2) * conj_reverse(g, CTX2))


def test_conj_reverse_involution_on_nonzero_constant_term():
    for f in polys_upto(F4, 2):
        if f.is_zero or f.coeff(0) == 0:
            continue
        assert conj_reverse(conj_reverse(f, CTX2), CTX2) == f


def test_conj_rejects_base_field_polynomials():
    with pytest.raises(ValueError):
        conj(Poly.x(F2), CTX2)


# -- self-duality -------------------------------------------------------------


def test_self_dual_scalar_examples():
    assert self_dual_scalar(Poly.one(F4), CTX2) == 1
    assert self_dual_scalar(Poly.x(F4), CTX2) is None


def test_self_dual_scalar_agrees_with_direct_search():
    for f in polys_upto(CTX3.ext, 2):
        if f.is_zero:
            continue
        rev = conj_reverse(f, CTX3)
        matches = [c for c in CTX3.ext.units if rev == f.scale(c)]
        c = self_dual_scalar(f, CTX3)
        if matches:
            assert c == matches[0] and len(matches) == 1
        else:
            assert c is None


def test_monic_degree_one_self_dual_count_over_gf4():
    count = sum(1 for f in monic_polys(F4, 1)
                if self_dual_scalar(f, CTX2) is not None)
    assert count == 3


# -- forward differences ------------------------------------------------------


def forward_difference(f):
    """f(X+1) - f(X), through the one affine substitution."""
    return affine_substitute(f, 1, 1) - f


def nth_difference_is_zero(f, i):
    for _ in range(i):
        f = forward_difference(f)
    return f.is_zero


def test_delta_examples():
    assert forward_difference(Poly.x(F3)) == Poly.one(F3)
    assert forward_difference(P(F2, 0, 0, 1)) == Poly.one(F2)
    artin = P(F3, 0, 2, 0, 1)                     # X^3 - X over GF(3)
    assert forward_difference(artin).is_zero
    assert forward_difference(P(F2, 0, 1, 1)).is_zero


def test_delta_on_cube_over_gf2():
    cube = P(F2, 0, 0, 0, 1)
    assert forward_difference(cube) == P(F2, 1, 1, 1)
    assert forward_difference(forward_difference(cube)).is_zero
    assert nth_difference_is_zero(cube, 2)


def test_nth_difference_examples():
    artin = P(F3, 0, 2, 0, 1)
    assert nth_difference_is_zero(artin, 1)
    x3 = Poly.x(F3)
    assert not nth_difference_is_zero(x3, 1)
    assert nth_difference_is_zero(x3, 2)
    assert nth_difference_is_zero(Poly.zero(F3), 0)
    assert not nth_difference_is_zero(Poly.one(F3), 0)


@pytest.mark.parametrize("p", [2, 3])
def test_pth_difference_annihilates_everything(p):
    F = make_field(p, 1)
    for f in polys_upto(F, 4):
        assert nth_difference_is_zero(f, p)


def _representable(F, i, cap):
    """All f with deg f <= cap of the form sum_{j<i} X^j g_j(X^p - X)."""
    p = F.p
    s = Poly.monomial(F, p) - Poly.x(F)
    out = set()
    factor_cap = [(cap - j) // p for j in range(i)]
    pools = [list(polys_upto(F, c)) for c in factor_cap]
    for gs in itertools.product(*pools):
        total = Poly.zero(F)
        for j, g in enumerate(gs):
            total = total + Poly.monomial(F, j) * compose(g, s)
        if total.degree <= cap:
            out.add(total.coeffs)
    return out


@pytest.mark.parametrize("p,i", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_difference_kernel_is_spanned_by_artin_schreier_multiples(p, i):
    # Delta^i f = 0 exactly when f = sum_{j<i} X^j g_j(X^p - X).
    F = make_field(p, 1)
    cap = 6
    kernel = {f.coeffs for f in polys_upto(F, cap)
              if nth_difference_is_zero(f, i)}
    assert kernel == _representable(F, i, cap)


# -- iteration helpers and printing -------------------------------------------


@pytest.mark.parametrize("q,d", [(2, 0), (2, 3), (3, 2), (4, 2)])
def test_monic_polys_count(q, d):
    F = field_of_order(q)
    polys = list(monic_polys(F, d))
    assert len(polys) == q ** d
    assert len(set(polys)) == q ** d
    assert all(f.degree == d and f.is_monic() for f in polys)


@pytest.mark.parametrize("q,d", [(2, 2), (3, 1)])
def test_polys_upto_count(q, d):
    F = field_of_order(q)
    polys = list(polys_upto(F, d))
    assert len(polys) == q ** (d + 1)
    assert len(set(polys)) == q ** (d + 1)


def test_poly_str():
    assert poly_str(P(F3, 1, 2, 1)) == "X^2+2*X+1"
    assert poly_str(P(F3, 0, 1)) == "X"
    assert poly_str(Poly.zero(F3)) == "0"
    assert poly_str(P(F3, 2)) == "2"
    assert poly_str(P(F2, 0, 1, 0, 1)) == "X^3+X"


# -- the coprimality sieve ------------------------------------------------------


SIEVE_GRID_Q = (2, 3, 4, 5, 7, 8, 9)


def _gcd_table(F, n, m):
    # table[i][j]: whether the i-th monic P of degree n and the j-th monic Q
    # of degree m are coprime, by one gcd per pair; for n == m only the pairs
    # i <= j are computed, since gcd(P, Q) == gcd(Q, P).
    ps, qs = list(monic_polys(F, n)), list(monic_polys(F, m))
    table = [[None] * len(qs) for _ in ps]
    for i, f in enumerate(ps):
        for j, g in enumerate(qs):
            if n != m or i <= j:
                table[i][j] = gcd(f, g).degree == 0
            else:
                table[i][j] = table[j][i]
    return table


@pytest.mark.parametrize("q", SIEVE_GRID_Q)
def test_coprime_flags_match_pairwise_gcd(q):
    # Every (n, m) with n, m <= 3: flags(n, m) against the gcd table, and
    # flags(m, n) against its transpose.
    F = field_of_order(q)
    for n in range(4):
        for m in range(n, 4):
            table = _gcd_table(F, n, m)
            want = bytearray(x for row in table for x in row)
            assert coprime_flags(F, n, m) == want, (q, n, m)
            want_t = bytearray(row[j] for j in range(q ** m) for row in table)
            assert coprime_flags(F, m, n) == want_t, (q, m, n)


def test_coprime_flags_list_the_multiples_once_per_h_for_equal_degrees(monkeypatch):
    # For n = m the P and Q multiples of h are one list: one call for each
    # of the 2 + 4 + 8 monic h of degree 1..3 over GF(2).
    F, calls = field_of_order(2), []

    def counted(*args):
        calls.append(args)
        return _multiple_ranks(*args)

    monkeypatch.setattr(polyring, "_multiple_ranks", counted)
    flags = coprime_flags(F, 3, 3)
    assert len(calls) == 14
    assert flags == bytearray(x for row in _gcd_table(F, 3, 3) for x in row)


@pytest.mark.parametrize("q", SIEVE_GRID_Q)
def test_pinned_coprime_flags_match_gcd_filter(q):
    # The form that enumerates subfield keys pins k = m: P's X^k digit is
    # zero and is left out of P's rank.  Every k in m..n-1 is checked, with
    # one gcd per pair whatever the number of digits of P that are zero.
    F = field_of_order(q)
    for n in range(1, 4):
        for m in range(n):
            qs = list(monic_polys(F, m))
            rows = {f: bytearray(gcd(f, g).degree == 0 for g in qs)
                    for f in monic_polys(F, n) if 0 in f.coeffs[m:n]}
            for k in range(m, n):
                positions = [i for i in range(n) if i != k]
                want = bytearray(q ** (n - 1 + m))
                for f, row in rows.items():
                    if f.coeff(k) == 0:
                        base = horner_rank(q, [f.coeff(i) for i in positions]) * q ** m
                        want[base:base + q ** m] = row
                assert coprime_flags(F, n, m, zero_digit=k) == want, (q, n, m, k)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_multiple_ranks_match_poly_products(q):
    # The ranks of the monic multiples h*A of degree k, A running over the
    # monic polynomials of degree k - deg h, with and without a pinned zero
    # digit z >= deg h, which the rank leaves out.
    F = field_of_order(q)
    for e in (1, 2):
        for h in monic_polys(F, e):
            for k in range(e, 5):
                for z in (None, *range(e, k)):
                    positions = [i for i in range(k) if i != z]
                    want = sorted(horner_rank(q, [g.coeff(i) for i in positions])
                                  for g in (h * A for A in monic_polys(F, k - e))
                                  if z is None or g.coeff(z) == 0)
                    assert sorted(_multiple_ranks(F, h.coeffs, k, z)) == want, (h, k, z)


def test_pinned_coprime_flags_reject_a_digit_below_m_or_past_n():
    # The pinned digit is one of the free top digits of the multiples of
    # every monic h of degree d <= m, which needs its index to be at least m.
    F = field_of_order(3)
    for n, m, k in [(3, 2, 1), (3, 1, 3)]:
        with pytest.raises(ValueError, match="zero digit"):
            coprime_flags(F, n, m, zero_digit=k)
