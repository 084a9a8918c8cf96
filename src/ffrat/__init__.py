"""Exact counting and classification of rational functions and polynomials
over finite fields, up to composition with invertible fractional-linear
(respectively affine) maps.

Closed-form counts live in ``ffrat.counting``; ``ffrat.oracle`` checks every
formula against direct enumeration, and ``ffrat.classify`` produces explicit
representatives for small degrees.
"""

from ffrat.classify import (PolyClassRep, canonical_poly, classify_all,
                            coset_representatives, degree2_rational_reps,
                            left_normalize, table_families, verify_table)
from ffrat.counting import (count_polynomial_classes,
                            count_polynomial_classes_lowdeg,
                            count_rational_classes,
                            count_rational_classes_lowdeg)
from ffrat.gf import (DEFAULT_SIZE_BOUND, BudgetExceededError, ExtFieldCtx,
                      FieldCtx, FieldSizeError, field_of_order, make_ext,
                      make_field, mult_order)
from ffrat.oracle import (ConjClassRep, VerificationReport,
                          burnside_count_poly, burnside_count_rational,
                          enumerate_classes, orbit_count_poly,
                          orbit_count_rational, verify_grid)
from ffrat.polyring import (NEG_INFINITY, Poly, affine_substitute, compose,
                            conj, conj_reverse, gcd, monic_polys, poly_str,
                            self_dual_scalar)
from ffrat.ratmap import (DEFAULT_KEY_BUDGET, RationalMap, act,
                          enumerate_subfield_keys, is_fixed, normalize,
                          subfield_key)

__version__ = "0.1.0"
