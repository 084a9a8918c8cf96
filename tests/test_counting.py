"""Closed-form counting formulas: frozen values and internal consistency."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrat import counting
from ffrat.counting import (char_and_degree, coprime_monic_pairs,
                            coprime_monic_pairs_upto,
                            coprime_pairs_nonzero_constant,
                            count_polynomial_classes,
                            count_polynomial_classes_lowdeg,
                            count_rational_classes,
                            count_rational_classes_lowdeg, divisors, euler_phi,
                            exact_div, fix_affine_identity, fix_affine_scale,
                            fix_affine_translate, fix_central, fix_diagonal,
                            fix_nonsplit, fix_unipotent, is_prime_power,
                            nonsplit_fix_total, rational_function_count,
                            reversal_coprime_count, self_dual_coprime_pairs,
                            self_dual_count, split_fix_total)

from enumerators import prime_powers_upto

PRIME_POWERS_49 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29,
                   31, 32, 37, 41, 43, 47, 49]


# -- integer utilities --------------------------------------------------------


def test_exact_div():
    assert exact_div(12, 4) == 3
    with pytest.raises(ArithmeticError):
        exact_div(13, 4)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(6) == 2
    assert euler_phi(7) == 6


def test_euler_phi_divisor_sum():
    for n in range(1, 60):
        assert sum(euler_phi(d) for d in divisors(n)) == n


def test_prime_power_recognition():
    assert prime_powers_upto(49) == PRIME_POWERS_49
    assert is_prime_power(8) and not is_prime_power(6)
    assert char_and_degree(49) == (7, 2)
    with pytest.raises(ValueError):
        char_and_degree(12)
    for q, pk in [(2 ** 20, (2, 20)), (3 ** 12, (3, 12)), (1048573, (1048573, 1)),
                  (2 ** 31 - 1, (2 ** 31 - 1, 1))]:
        assert is_prime_power(q) and char_and_degree(q) == pk
    for q in (1048575, 1, 0, -4, True):
        assert not is_prime_power(q)
        with pytest.raises(ValueError, match="is not a prime power"):
            char_and_degree(q)


# -- coprime-pair counts ------------------------------------------------------


def test_coprime_monic_pairs_examples():
    assert coprime_monic_pairs(2, 0, 3) == 8
    assert coprime_monic_pairs(2, 1, 1) == 2
    assert coprime_monic_pairs(3, 2, 2) == 54
    assert coprime_monic_pairs(2, 0, 0) == 1


@given(st.sampled_from([2, 3, 4, 5, 7]), st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_coprime_monic_pairs_symmetric(q, m, n):
    assert coprime_monic_pairs(q, m, n) == coprime_monic_pairs(q, n, m)


def test_coprime_monic_pairs_upto_examples():
    assert coprime_monic_pairs_upto(2, 1) == 2
    assert coprime_monic_pairs_upto(2, 3) == 32
    assert coprime_monic_pairs_upto(5, 1) == 5


def test_coprime_monic_pairs_upto_is_column_sum():
    for q in (2, 3, 4):
        for n in range(1, 5):
            assert (coprime_monic_pairs_upto(q, n)
                    == sum(coprime_monic_pairs(q, m, n) for m in range(n)))


def test_rational_function_count_examples():
    assert rational_function_count(3, 0) == 2
    assert rational_function_count(2, 1) == 6
    assert rational_function_count(2, 2) == 24


def test_nonzero_constant_pairs_examples():
    for q in (2, 3, 5):
        for n in range(4):
            assert coprime_pairs_nonzero_constant(q, 0, n) == q ** n
    assert coprime_pairs_nonzero_constant(2, 1, 0) == 1
    assert coprime_pairs_nonzero_constant(2, 1, 1) == 1


# -- self-dual and reversal-coprime counts ------------------------------------


def test_self_dual_count_examples():
    for q in (2, 3, 5):
        assert self_dual_count(q, 0) == 1
    assert self_dual_count(2, 1) == 3
    assert self_dual_count(2, 2) == 6


def test_reversal_coprime_examples():
    for q in (2, 3, 5):
        assert reversal_coprime_count(q, 0) == 1
    assert reversal_coprime_count(2, 1) == 1
    assert reversal_coprime_count(3, 1) == 5


def test_self_dual_coprime_pairs_examples():
    for q in (2, 3, 5):
        assert self_dual_coprime_pairs(q, 0, 0) == 1
    assert self_dual_coprime_pairs(2, 0, 2) == 6
    assert self_dual_coprime_pairs(2, 1, 1) == 6


@given(st.sampled_from([2, 3, 4, 5]), st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_self_dual_coprime_pairs_symmetric(q, i, j):
    assert self_dual_coprime_pairs(q, i, j) == self_dual_coprime_pairs(q, j, i)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_convolution_identity(q):
    for l in range(7):
        total = sum(self_dual_count(q, i) * reversal_coprime_count(q, l - i)
                    for i in range(l + 1))
        assert total == q ** (2 * l)


# -- per-class fixed-key counts ------------------------------------------------


def test_fix_central():
    assert fix_central(3, 1) == 1
    assert fix_central(3, 3) == 81
    assert fix_central(2, 4) == 64


def test_fix_diagonal_examples():
    assert fix_diagonal(3, 2, 2) == 3
    for q, d in [(3, 2), (5, 4), (7, 3)]:
        assert fix_diagonal(q, 1, d) == 1
    assert fix_diagonal(5, 3, 4) == 1


def test_fix_diagonal_rejects_bad_order():
    with pytest.raises(ValueError):
        fix_diagonal(3, 2, 1)
    with pytest.raises(ValueError):
        fix_diagonal(3, 2, 5)


def test_fix_nonsplit_examples():
    for q, d in [(2, 3), (3, 2), (3, 4), (4, 5)]:
        assert fix_nonsplit(q, 1, d) == 1
    assert fix_nonsplit(2, 3, 3) == 1
    assert fix_nonsplit(3, 2, 2) == 5


def test_fix_nonsplit_rejects_bad_order():
    with pytest.raises(ValueError):
        fix_nonsplit(3, 2, 3)


def test_fix_unipotent_examples():
    for q in (2, 3, 4, 5):
        assert fix_unipotent(q, 1) == 1
    assert fix_unipotent(2, 2) == 2
    assert fix_unipotent(3, 2) == 0
    assert fix_unipotent(2, 3) == 2
    assert fix_unipotent(3, 3) == 3


# -- aggregated class-number formulas ------------------------------------------


def test_split_and_nonsplit_totals_at_degree_one():
    for q in (2, 3, 4, 5, 7, 8, 9):
        assert split_fix_total(q, 1) == q - 2
        assert nonsplit_fix_total(q, 1) == q


def test_rational_class_count_examples():
    for q in (2, 3, 4, 5, 7, 8, 9):
        assert count_rational_classes(q, 1) == 1
    for q in (2, 3, 4, 5):
        assert count_rational_classes(q, 2) == 2
    assert count_rational_classes(2, 3) == 4
    assert count_rational_classes(3, 3) == 7
    assert count_rational_classes(4, 3) == 10
    assert count_rational_classes(7, 3) == 16
    assert count_rational_classes(2, 4) == 15
    assert count_rational_classes(3, 4) == 46
    assert count_rational_classes(5, 4) == 167


def test_rational_lowdeg_examples():
    assert count_rational_classes_lowdeg(2, 3) == 4
    assert count_rational_classes_lowdeg(4, 3) == 10
    assert count_rational_classes_lowdeg(2, 4) == 15
    assert count_rational_classes_lowdeg(5, 4) == 167


@pytest.mark.parametrize("q", PRIME_POWERS_49)
def test_rational_lowdeg_matches_general_formula(q):
    for n in range(1, 5):
        assert count_rational_classes_lowdeg(q, n) == count_rational_classes(q, n)


def test_polynomial_class_count_examples():
    for q in (2, 3, 4, 5, 7, 8, 9):
        assert count_polynomial_classes(q, 1) == 1
    assert count_polynomial_classes(2, 2) == 2
    assert count_polynomial_classes(3, 3) == 4
    assert count_polynomial_classes(7, 4) == 12
    assert count_polynomial_classes(3, 4) == 6
    assert count_polynomial_classes(5, 4) == 8
    assert count_polynomial_classes(5, 5) == 41


@pytest.mark.parametrize("q", PRIME_POWERS_49)
def test_polynomial_lowdeg_matches_general_formula(q):
    for n in range(1, 6):
        assert (count_polynomial_classes_lowdeg(q, n)
                == count_polynomial_classes(q, n))


@given(st.sampled_from(PRIME_POWERS_49), st.integers(1, 8))
@settings(max_examples=120, deadline=None)
def test_class_counts_are_positive_integers(q, n):
    assert count_rational_classes(q, n) >= 1
    assert count_polynomial_classes(q, n) >= 1


def test_larger_grid_divisions_are_exact():
    # The formula asserts integrality internally; sweep a wide grid to
    # exercise every divisor-sum branch.
    for q in PRIME_POWERS_49:
        for n in range(1, 11):
            count_rational_classes(q, n)
            count_polynomial_classes(q, n)


def test_integer_class_counts_match_fraction_burnside_averages():
    # The averages over the group elements, as exact fractions: PGL(2, q)
    # has phi(d) q(q+1)/2 split and phi(d) q(q-1)/2 nonsplit elements whose
    # eigenvalue ratio has order d, and q^2 - 1 unipotent ones; the affine
    # group has q phi(d) scalings X -> aX + b with a of order d, and q - 1
    # translations.
    for q in prime_powers_upto(32):
        for n in range(1, 11):
            rational = (fix_central(q, n)
                        + sum(Fraction(euler_phi(d) * q * (q + 1), 2) * fix_diagonal(q, n, d)
                              for d in divisors(q - 1) if d > 1)
                        + sum(Fraction(euler_phi(d) * q * (q - 1), 2) * fix_nonsplit(q, n, d)
                              for d in divisors(q + 1) if d > 1)
                        + (q * q - 1) * fix_unipotent(q, n)) / (q * (q * q - 1))
            poly = Fraction(fix_affine_identity(q, n)
                            + sum(q * euler_phi(d) * fix_affine_scale(q, n, d)
                                  for d in divisors(q - 1) if d > 1)
                            + (q - 1) * fix_affine_translate(q, n), q * (q - 1))
            assert count_rational_classes(q, n) == rational, (q, n)
            assert count_polynomial_classes(q, n) == poly, (q, n)


# -- affine-action fixed counts -----------------------------------------------


def test_fix_affine_examples():
    assert fix_affine_identity(3, 2) == 3
    assert fix_affine_scale(3, 3, 2) == 3
    assert fix_affine_translate(2, 2) == 2
    assert fix_affine_translate(3, 2) == 0
    assert fix_affine_translate(2, 1) == 1


def test_count_rational_rejects_bad_degree():
    with pytest.raises(ValueError):
        count_rational_classes(3, 0)


def test_count_polynomial_rejects_bad_degree():
    with pytest.raises(ValueError):
        count_polynomial_classes(3, 0)
