"""Exhaustive enumerators and permutation helpers that the tests share."""

from __future__ import annotations

import itertools
from typing import Iterator

from ffrat.counting import is_prime_power
from ffrat.gf import FieldCtx
from ffrat.polyring import Poly


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
