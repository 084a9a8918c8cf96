"""One orbit count assembled by hand, checked three ways.

Degree-2 rational maps over GF(3) correspond to 9 subfield keys acted on by
the invertible 2x2 matrices.  This script enumerates the 8 conjugacy classes
of that group, counts the keys each representative fixes by brute force,
compares with the closed-form fixed counts, averages with centralizer
weights, and confirms the result against a direct orbit closure and the
divisor-sum formula.

Run with:  python3 demos/oracle_walkthrough.py
"""

from __future__ import annotations

from fractions import Fraction

from ffrat import counting
from ffrat.gf import field_of_order
from ffrat.oracle import enumerate_classes, expected_fix, orbit_count_rational
from ffrat.ratmap import KeyPermutations, enumerate_subfield_keys, fixed_points

Q, N = 3, 2


def main():
    F = field_of_order(Q)
    engine = KeyPermutations(F, N)
    keys = list(enumerate_subfield_keys(F, N))
    group = (Q * Q - 1) * (Q * Q - Q)
    print("GF(%d), degree %d: %d subfield keys, group of order %d"
          % (Q, N, len(keys), group))
    print()
    print("  kind       params   matrix          |centralizer|  fixed  closed-form")

    average = Fraction(0)
    for rep in enumerate_classes(F):
        brute = fixed_points(engine.image_perm(rep.matrix))
        closed = expected_fix(F, N, rep)
        marker = "" if brute == closed else "  <-- MISMATCH"
        print("  %-9s  %-7r  %-14r  %13d  %5d  %11d%s"
              % (rep.kind, rep.params, rep.matrix, rep.centralizer,
                 brute, closed, marker))
        if brute != closed:
            raise AssertionError("closed form disagrees for %r" % (rep,))
        average += Fraction(brute * (group // rep.centralizer), group)

    print()
    print("weighted average of fixed counts: %s" % average)
    orbits = orbit_count_rational(F, N)
    formula = counting.count_rational_classes(Q, N)
    print("orbit closure finds %d orbits; the formula gives %d" % (orbits, formula))
    if not (average == orbits == formula):
        raise AssertionError("the three counts disagree")
    print("all three agree.")


if __name__ == "__main__":
    main()
