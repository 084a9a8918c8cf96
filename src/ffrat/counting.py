"""Closed-form exact counts over GF(q).

Everything here is integer arithmetic on q and the degree parameters; no
field tables are built.  The closed forms cost O(sqrt(q)): they trial-divide
q, q - 1 and q + 1 (``char_and_degree``, ``divisors``, ``euler_phi``).  The
headline quantities are

* ``count_rational_classes(q, n)``: the number of equivalence classes of
  degree-n rational functions over GF(q), where f and g are equivalent when
  g = u(f(v(X))) for invertible fractional-linear maps u, v;
* ``count_polynomial_classes(q, n)``: the analogous count for degree-n
  polynomials under invertible *affine* maps u, v.

Both are Burnside averages over the conjugacy classes of the acting group:
2x2 invertible matrices up to scalars for rational functions, and the
degree-one polynomials under composition for polynomials.  Each average is
assembled from the per-class fixed counts, which are exposed individually
(``fix_central``, ``fix_diagonal``, ``fix_nonsplit``, ``fix_unipotent`` and
the affine ``fix_affine_*`` family) so that a brute-force engine can check
each one.

The auxiliary counts (coprime pair counts, self-dual counts and friends) are
the combinatorial series from which the fixed-point formulas are assembled;
each has a direct enumeration mirror in ``ffrat.oracle``.

Internal divisions must always be exact; a nonzero remainder raises
ArithmeticError and indicates a genuine bug, never bad input.
"""

from __future__ import annotations


def exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("non-exact division %d / %d" % (a, b))
    return q


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError("divisors of %d undefined" % n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending; none for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    """Count of 1 <= m <= n coprime to n."""
    if n < 1:
        raise ValueError("euler_phi of %d undefined" % n)
    for p in prime_factors(n):
        n -= n // p
    return n


def char_and_degree(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p**k, or raise ValueError."""
    primes = prime_factors(q) if isinstance(q, int) and q >= 2 else []
    if len(primes) != 1:
        raise ValueError("%r is not a prime power" % (q,))
    p, k = primes[0], 1
    while p ** k < q:
        k += 1
    return p, k


def is_prime_power(q) -> bool:
    try:
        char_and_degree(q)
    except ValueError:
        return False
    return True


# -- coprime pair and self-dual series ------------------------------------


def coprime_monic_pairs(q: int, m: int, n: int) -> int:
    """Coprime pairs (f, g) of monic polynomials with deg f = m, deg g = n."""
    if m < 0 or n < 0:
        raise ValueError("degrees must be nonnegative")
    if m == 0 or n == 0:
        return q ** (m + n)
    return q ** (m + n) - q ** (m + n - 1)


def coprime_monic_pairs_upto(q: int, n: int) -> int:
    """Coprime pairs (f, g), g monic of degree n, f monic of degree < n."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    return q ** (2 * n - 1)


def rational_function_count(q: int, n: int) -> int:
    """Number of rational functions of degree exactly n over GF(q).

    Degree is max(deg P, deg Q) for the reduced form P/Q; degree 0 means the
    nonzero constants.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return q - 1
    return (q * q - 1) * q ** (2 * n - 1)


def coprime_pairs_nonzero_constant(q: int, m: int, n: int) -> int:
    """Coprime monic pairs (f, g), deg f = m, deg g = n, with f(0) != 0."""
    if m < 0 or n < 0:
        raise ValueError("degrees must be nonnegative")
    if m == 0:
        return q ** n
    if m > n:
        return q ** (m - n - 1) * (q - 1) * exact_div(q ** (2 * n + 1) + 1, q + 1)
    return q ** (n - m) * (q - 1) * exact_div(q ** (2 * m) - 1, q + 1)


def self_dual_count(q: int, i: int) -> int:
    """Monic self-dual polynomials of degree i over GF(q^2).

    Self-dual means equal to a scalar multiple of the conjugated reversal;
    see ``ffrat.polyring.self_dual_scalar``.
    """
    if i < 0:
        raise ValueError("degree must be nonnegative")
    if i == 0:
        return 1
    return (q + 1) * q ** (i - 1)


def reversal_coprime_count(q: int, i: int) -> int:
    """Monic degree-i polynomials over GF(q^2) coprime to their conjugated
    reversal."""
    if i < 0:
        raise ValueError("degree must be nonnegative")
    sign = -1 if i % 2 else 1
    return exact_div(sign * (1 + q) + q ** (2 * i + 1) * (q - 1), 1 + q * q)


def self_dual_coprime_pairs(q: int, i: int, j: int) -> int:
    """Ordered coprime pairs of monic self-dual polynomials over GF(q^2) of
    degrees i and j.  Symmetric in (i, j)."""
    if i < 0 or j < 0:
        raise ValueError("degrees must be nonnegative")
    a, b = min(i, j), max(i, j)
    gap = b - a
    sign = -1 if a % 2 else 1
    if a == 0:
        return 1 if gap == 0 else q ** (gap - 1) * (q + 1)
    if gap == 0:
        return exact_div(q * (q + 1) * (q ** (2 * a) - q ** (2 * a - 2) - 2 * sign),
                         q * q + 1)
    return exact_div(q ** (gap - 1) * (q + 1) * (q * q - 1) * (q ** (2 * a) - sign),
                     q * q + 1)


# -- fixed-subfield counts, one per conjugacy class kind -------------------


def fix_central(q: int, n: int) -> int:
    """Subfields of degree n fixed by the identity substitution: all of them."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    return q ** (2 * (n - 1))


def fix_diagonal(q: int, n: int, d: int) -> int:
    """Degree-n subfields fixed by X -> cX where c has order d >= 2."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if d < 2 or (q - 1) % d:
        raise ValueError("order d=%d must divide q-1=%d and exceed 1" % (d, q - 1))
    if n % d == 0:
        k = n // d
        return q ** (2 * k - 2) + (d - 1) * exact_div(q ** (2 * k) - 1, q + 1)
    return exact_div(q ** (2 * (n // d) + 1) + 1, q + 1)


def fix_nonsplit(q: int, n: int, d: int) -> int:
    """Degree-n subfields fixed by a substitution whose matrix has
    irreducible characteristic polynomial; d >= 2 is the order of the ratio
    of its two conjugate eigenvalues and divides q + 1."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if d < 2 or (q + 1) % d:
        raise ValueError("order d=%d must divide q+1=%d and exceed 1" % (d, q + 1))
    if n % d == 0:
        k = n // d
        base = q ** (2 * k - 2)
        if d % 2 == 0:
            sign = -1 if k % 2 else 1
            return base + (q + 1) * exact_div(q ** (2 * k) - sign, q * q + 1)
        return base
    return reversal_coprime_count(q, n // d)


def fix_unipotent(q: int, n: int) -> int:
    """Degree-n subfields fixed by X -> X + 1 (equivalently any unipotent
    non-identity substitution), in characteristic p."""
    p, _ = char_and_degree(q)
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n % p == 0:
        return q ** (2 * (n // p) - 1)
    if n == 1:
        return 1
    if n % p == 1:
        return q ** (2 * ((n - 1) // p) - 1) * (q - 1)
    return 0


def split_fix_total(q: int, n: int) -> int:
    """Sum of fix_diagonal over nontrivial orders d | q-1, each weighted by
    the number euler_phi(d) of eigenvalue ratios of that order."""
    return sum(euler_phi(d) * fix_diagonal(q, n, d)
               for d in divisors(q - 1) if d > 1)


def nonsplit_fix_total(q: int, n: int) -> int:
    """Sum of fix_nonsplit over nontrivial orders d | q+1, weighted by
    euler_phi(d)."""
    return sum(euler_phi(d) * fix_nonsplit(q, n, d)
               for d in divisors(q + 1) if d > 1)


# -- headline class counts -------------------------------------------------


def count_rational_classes(q: int, n: int) -> int:
    """Equivalence classes of degree-n rational functions over GF(q)."""
    char_and_degree(q)
    # The four class-kind terms over their common denominator 2q(q^2 - 1).
    fixed = (2 * fix_central(q, n) + q * (q + 1) * split_fix_total(q, n)
             + q * (q - 1) * nonsplit_fix_total(q, n)
             + 2 * (q * q - 1) * fix_unipotent(q, n))
    return exact_div(fixed, 2 * q * (q * q - 1))


def count_rational_classes_lowdeg(q: int, n: int) -> int:
    """Piecewise-in-q form of count_rational_classes for n <= 4."""
    char_and_degree(q)
    if n == 1:
        return 1
    if n == 2:
        return 2
    if n == 3:
        r = q % 6
        if r in (1, 4):
            return 2 * (q + 1)
        if r in (2, 5):
            return 2 * q
        if r == 3:
            return 2 * q + 1
        raise AssertionError("impossible residue %d mod 6 for prime power" % r)
    if n == 4:
        r = q % 12
        cubes = q ** 3 + q ** 2
        if r == 1:
            return cubes + 3 * q + 4
        if r in (2, 8):
            # Collapsing the divisor sums over this residue class gives
            # q^3 + q^2 + 2q - 1; brute-force orbit enumeration at q = 8
            # confirms it (the simpler form 3q/2 + q^2 + q^3 holds only
            # at q = 2, where the two expressions coincide).
            return cubes + 2 * q - 1
        if r == 3:
            return cubes + 3 * q + 1
        if r == 4:
            return cubes + 2 * q + 1
        if r in (5, 7):
            return cubes + 3 * q + 2
        if r == 9:
            return cubes + 3 * q + 3
        if r == 11:
            return cubes + 3 * q
        raise AssertionError("impossible residue %d mod 12 for prime power" % r)
    raise ValueError("no low-degree form for n=%d" % n)


def count_polynomial_classes(q: int, n: int) -> int:
    """Equivalence classes of degree-n polynomials over GF(q) under
    composition with invertible affine maps on both sides."""
    char_and_degree(q)
    # Fixed points of the identity, of the q - 2 scaling classes of q maps
    # each, and of the q - 1 translations, over the q(q - 1) affine maps.
    fixed = (fix_affine_identity(q, n)
             + q * sum(euler_phi(d) * fix_affine_scale(q, n, d)
                       for d in divisors(q - 1) if d > 1)
             + (q - 1) * fix_affine_translate(q, n))
    return exact_div(fixed, q * (q - 1))


def count_polynomial_classes_lowdeg(q: int, n: int) -> int:
    """Piecewise-in-q form of count_polynomial_classes for n <= 5."""
    p, _ = char_and_degree(q)
    if n == 1:
        return 1
    if n == 2:
        return 2 if p == 2 else 1
    if n == 3:
        if p == 2:
            return 2
        if p == 3:
            return 4
        return 3
    if n == 4:
        r = q % 6
        if r == 1:
            return q + 5
        if r == 2:
            return 2 * q + 2
        if r in (3, 5):
            return q + 3
        if r == 4:
            return 2 * q + 4
        raise AssertionError("impossible residue %d mod 6 for prime power" % r)
    if n == 5:
        r = q % 12
        sq = q * q
        if r == 1:
            return sq + 2 * q + (8 if p == 5 else 7)
        if r in (2, 8):
            return sq + q + 2
        if r in (3, 11):
            return sq + 2 * q + 3
        if r == 4:
            return sq + q + 4
        if r == 5:
            return sq + 2 * q + (6 if p == 5 else 5)
        if r in (7, 9):
            return sq + 2 * q + 5
        raise AssertionError("impossible residue %d mod 12 for prime power" % r)
    raise ValueError("no low-degree form for n=%d" % n)


# -- fixed polynomial counts for the affine action -------------------------


def fix_affine_identity(q: int, n: int) -> int:
    """Normalized degree-n polynomials fixed by the identity: all q**(n-1)."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    return q ** (n - 1)


def fix_affine_scale(q: int, n: int, d: int) -> int:
    """Normalized degree-n polynomials fixed by X -> aX, a of order d >= 2."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if d < 2 or (q - 1) % d:
        raise ValueError("order d=%d must divide q-1=%d and exceed 1" % (d, q - 1))
    return q ** ((n + d - 1) // d - 1)


def fix_affine_translate(q: int, n: int) -> int:
    """Normalized degree-n polynomials fixed by X -> X + 1."""
    p, _ = char_and_degree(q)
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n % p == 0:
        return q ** (n // p)
    if n == 1:
        return 1
    return 0
