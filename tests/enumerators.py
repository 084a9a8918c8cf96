"""Exhaustive enumerators and permutation helpers that the tests share."""

from __future__ import annotations

import itertools
from typing import Iterator

from ffrat.classify import _normalized_raw, left_normalize
from ffrat.counting import exact_div, is_prime_power
from ffrat.gf import ExtFieldCtx, FieldCtx, char_roots, check_budget, mult_order
from ffrat.polyring import (Poly, conj_reverse, gcd, monic_polys, self_dual_scalar,
                            substitute_raw)
from ffrat.ratmap import (DEFAULT_KEY_BUDGET, KeyPermutations, fixed_points,
                          substitution_matrix)


def prime_powers_upto(limit: int) -> list[int]:
    return [q for q in range(2, limit + 1) if is_prime_power(q)]


def perm_product(first: list[int], then: list[int]) -> list[int]:
    """The index permutation of ``first`` followed by ``then``."""
    return list(map(then.__getitem__, first))


def cycle_lengths(perm: list[int], points=None) -> dict[int, int]:
    """How many cycles of each length the permutation has on ``points``, a
    set it keeps (all of its points by default)."""
    seen = bytearray(len(perm))
    counts: dict[int, int] = {}
    for start in range(len(perm)) if points is None else points:
        if not seen[start]:
            length, i = 0, start
            while not seen[i]:
                seen[i] = 1
                i = perm[i]
                length += 1
            counts[length] = counts.get(length, 0) + 1
    return counts


def polys_upto(field: FieldCtx, degree: int) -> Iterator[Poly]:
    """All polynomials of degree <= degree, including zero."""
    yield Poly.zero(field)
    for length in range(1, degree + 2):
        for lower in itertools.product(range(field.q), repeat=length - 1):
            for lead in field.units:
                yield Poly._make(field, lower + (lead,))


def canonical_poly_by_substitution(f: Poly) -> Poly:
    """The reference definition of ``classify.canonical_poly``: the least
    normalized image of f under all q(q-1) substitutions X -> aX + b,
    comparing coefficients from the top degree down."""
    F = f.field
    base = left_normalize(f).coeffs
    return Poly._make(F, min((_normalized_raw(F, substitute_raw(F, base, a, b))
                              for a in F.units for b in F.elements),
                             key=lambda cand: cand[::-1]))


def self_dual_polys(ctx: ExtFieldCtx, degree: int) -> Iterator[Poly]:
    """The monic self-dual polynomials of the degree over GF(q^2), by
    ``self_dual_scalar`` on every monic polynomial."""
    return (g for g in monic_polys(ctx.ext, degree) if self_dual_scalar(g, ctx) is not None)


def reversal_coprime_by_gcd(ctx: ExtFieldCtx, degree: int) -> int:
    """The monic g of the degree over GF(q^2) with gcd(g, conj_reverse(g)) = 1,
    counted one gcd at a time."""
    return sum(1 for g in monic_polys(ctx.ext, degree)
               if gcd(g, conj_reverse(g, ctx)).degree == 0)


def irreducible_quadratics(field: FieldCtx) -> list[tuple[int, int]]:
    """The (t, s) for which X^2 - tX + s is irreducible, by t and then s,
    each tested for a root in the field."""
    return [(t, s) for t in field.elements for s in field.units
            if not char_roots(field, t, s)]


def twist_order_by_root_search(ctx: ExtFieldCtx, t: int, s: int) -> int:
    """For an irreducible X^2 - tX + s over GF(q), the order of conj(x)/x,
    with its first root x in GF(q^2) found by testing every element."""
    E = ctx.ext
    te, se = ctx.embed_table[t], ctx.embed_table[s]
    for x in E.elements:
        if E.add(E.sub(E.mul(x, x), E.mul(te, x)), se) == 0:
            return mult_order(E, E.div(ctx.frob_table[x], x))
    raise ValueError("X^2 - %d*X + %d has no root in the extension" % (t, s))


def projective_order(F: FieldCtx, mat) -> int:
    """The least d for which the invertible matrix mat^d is scalar, found by
    2x2 products; raises ValueError for a singular matrix."""
    substitution_matrix(F, mat, 1)
    add, mul = F.add, F.mul
    a, b, c, d = mat
    e, f, g, h = mat
    order = 1
    while f or g or e != h:
        e, f, g, h = (add(mul(e, a), mul(f, c)), add(mul(e, b), mul(f, d)),
                      add(mul(g, a), mul(h, c)), add(mul(g, b), mul(h, d)))
        order += 1
    return order


def burnside_count_rational_fullgroup(F: FieldCtx, n: int,
                                      budget: int = DEFAULT_KEY_BUDGET) -> int:
    """Burnside average over all q^4 matrices, each fixing the fixed points
    of its own ``image_perm``: a check of the subgroup counts k and of the
    fixed counts that ``oracle.burnside_count_rational`` uses, for tiny
    fields."""
    engine = KeyPermutations(F, n, budget)
    check_budget(F.q, n, F.q ** 4, "matrices", budget)
    total = 0
    group_order = 0
    for a, b, c, d in itertools.product(F.elements, repeat=4):
        if F.sub(F.mul(a, d), F.mul(b, c)):
            group_order += 1
            total += fixed_points(engine.image_perm((a, b, c, d)))
    if group_order != (F.q ** 2 - 1) * (F.q ** 2 - F.q):
        raise AssertionError("group order mismatch")
    return exact_div(total, group_order)
