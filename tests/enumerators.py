"""Exhaustive enumerators and permutation helpers that the tests share."""

from __future__ import annotations

import itertools
from typing import Iterator

from ffrat.counting import is_prime_power
from ffrat.gf import ExtFieldCtx, FieldCtx, char_roots, mult_order
from ffrat.polyring import Poly, conj_reverse, gcd, monic_polys, self_dual_scalar


def prime_powers_upto(limit: int) -> list[int]:
    return [q for q in range(2, limit + 1) if is_prime_power(q)]


def perm_product(first: list[int], then: list[int]) -> list[int]:
    """The index permutation of ``first`` followed by ``then``."""
    return list(map(then.__getitem__, first))


def polys_upto(field: FieldCtx, degree: int) -> Iterator[Poly]:
    """All polynomials of degree <= degree, including zero."""
    yield Poly.zero(field)
    for length in range(1, degree + 2):
        for lower in itertools.product(range(field.q), repeat=length - 1):
            for lead in field.units:
                yield Poly._make(field, lower + (lead,))


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
            if char_roots(field, t, s) == 0]


def twist_order_by_root_search(ctx: ExtFieldCtx, t: int, s: int) -> int:
    """For an irreducible X^2 - tX + s over GF(q), the order of conj(x)/x,
    with its first root x in GF(q^2) found by testing every element."""
    E = ctx.ext
    te, se = ctx.embed(t), ctx.embed(s)
    for x in E.elements:
        if E.add(E.sub(E.mul(x, x), E.mul(te, x)), se) == 0:
            return mult_order(E, E.div(ctx.frobenius(x), x))
    raise ValueError("X^2 - %d*X + %d has no root in the extension" % (t, s))
