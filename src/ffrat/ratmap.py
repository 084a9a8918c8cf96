"""Rational maps over GF(q), fractional-linear substitution, and canonical
keys for the intermediate fields they generate.

A rational map f = P/Q of degree n (degree = max of the numerator and
denominator degrees after reduction) generates a subfield GF(q)(f) of the
rational function field, and two maps generate the same subfield iff the
2-dimensional coefficient spans of their reduced pairs {P, Q} coincide.  The
subfield key of f is the reduced row-echelon basis of that span, the tuple
(r0, r1) of two coefficient vectors of length n+1 ordered from X^n down to the
constant term; it is a complete, hashable invariant for "same subfield", and
its degree is len(r0) - 1.

An invertible matrix A = [[a, b], [c, d]], the tuple (a, b, c, d), acts by
the substitution X -> (aX + b)/(cX + d): the pair (P, Q) is replaced by its
homogeneous substitute (sum_i p_i (aX+b)^i (cX+d)^(n-i), same for Q), which
spans the key of f((aX+b)/(cX+d)).  ``substitution_matrix`` builds those
powers once and refuses a singular A, and both ``act`` and ``key_image``
apply it.  The action factors through scalars, so A acts with its projective
order, the least d for which A^d is scalar (``projective_order``).

``enumerate_subfield_keys`` lists each of the q^(2(n-1)) keys exactly once by
walking the canonical bases directly: pairs (P, Q) with P monic of degree n,
Q monic of degree m < n, gcd(P, Q) = 1 and the X^m coefficient of P zero.
The coprime pairs come from ``polyring.coprime_flags``, the one coprimality
sieve, with P's X^m digit pinned to zero, and the walk's order ranks every
candidate pair by its digits (``polyring.horner_rank``), which
``KeyPermutations`` uses to index keys and to image them under scalings and
translations without an echelon form.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterator

from ffrat.counting import exact_div
from ffrat.gf import FieldCtx, char_roots
from ffrat.polyring import (Poly, coprime_flags, gcd, horner_rank, poly_str,
                            substitute_raw)

DEFAULT_KEY_BUDGET = 10 ** 7

Key = tuple[tuple[int, ...], tuple[int, ...]]


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""


def check_budget(q: int, n: int, cost: int, what: str, budget: int) -> None:
    """Raise BudgetExceededError before an enumeration whose cost exceeds
    the budget."""
    if cost > budget:
        raise BudgetExceededError("q=%d n=%d needs %d %s, budget is %d"
                                  % (q, n, cost, what, budget))


class RationalMap:
    """A reduced rational map; build with ``normalize``."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        self.num = num
        self.den = den

    @property
    def field(self) -> FieldCtx:
        return self.num.field

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMap)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return "RationalMap(%s)" % str(self)

    def __str__(self) -> str:
        num = poly_str(self.num)
        if self.den == Poly.one(self.field):
            return num
        den = poly_str(self.den)
        if "+" in num or "*" in num:
            num = "(%s)" % num
        if "+" in den or "*" in den:
            den = "(%s)" % den
        return "%s/%s" % (num, den)


def normalize(num: Poly, den: Poly) -> RationalMap:
    """Reduce P/Q: cancel the gcd and make the denominator monic.

    Raises ValueError for a zero denominator or a constant map (degree 0).
    """
    num._check_field(den)
    if den.is_zero:
        raise ValueError("zero denominator")
    if num.is_zero:
        raise ValueError("constant rational map")
    g = gcd(num, den)
    if g.degree > 0:
        num, den = num // g, den // g
    if max(num.degree, den.degree) < 1:
        raise ValueError("constant rational map")
    c = num.field.inv(den.lc)
    return RationalMap(num.scale(c), den.scale(c))


def _descending(f: Poly, n: int) -> list[int]:
    cs = f.coeffs
    return [cs[i] if i < len(cs) else 0 for i in range(n, -1, -1)]


def _echelon2(F: FieldCtx, v0: list[int], v1: list[int]) -> Key:
    # Reduced row echelon form of a rank-2 matrix with rows v0, v1.
    width = len(v0)
    j0 = 0
    while v0[j0] == 0 and v1[j0] == 0:
        j0 += 1
    if v0[j0] == 0:
        v0, v1 = v1, v0
    add, mul = F.add, F.mul
    piv = v0[j0]
    if piv != 1:
        s = F.inv(piv)
        v0 = [mul(s, x) for x in v0]
    if v1[j0]:
        c = F.neg(v1[j0])
        v1 = [add(x, mul(c, y)) if y else x for x, y in zip(v1, v0)]
    j1 = j0 + 1
    while j1 < width and v1[j1] == 0:
        j1 += 1
    if j1 == width:
        raise ValueError("rows are linearly dependent")
    piv = v1[j1]
    if piv != 1:
        s = F.inv(piv)
        v1 = [mul(s, x) for x in v1]
    if v0[j1]:
        c = F.neg(v0[j1])
        v0 = [add(x, mul(c, y)) if y else x for x, y in zip(v0, v1)]
    return tuple(v0), tuple(v1)


def subfield_key(f: RationalMap) -> Key:
    """Canonical invariant of the subfield GF(q)(f)."""
    n = f.degree
    return _echelon2(f.field, _descending(f.num, n), _descending(f.den, n))


def _check_invertible(F: FieldCtx, mat) -> None:
    a, b, c, d = mat
    if F.sub(F.mul(a, d), F.mul(b, c)) == 0:
        raise ValueError("matrix %r is singular" % (mat,))


def substitution_matrix(F: FieldCtx, mat, n: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of the homogeneous substitution by [[a,b],[c,d]] on coefficient
    vectors of length n+1 in descending order: row i is the vector of
    (aX+b)^(n-i) (cX+d)^i, so transformed = sum_i v[i] * M[i].  Raises
    ValueError for a singular matrix."""
    _check_invertible(F, mat)
    a, b, c, d = mat
    U = Poly(F, (b, a))
    V = Poly(F, (d, c))
    upow = [Poly.one(F)]
    vpow = [Poly.one(F)]
    for _ in range(n):
        upow.append(upow[-1] * U)
        vpow.append(vpow[-1] * V)
    return tuple(tuple(_descending(upow[n - i] * vpow[i], n)) for i in range(n + 1))


def projective_order(F: FieldCtx, mat) -> int:
    """The least d for which the invertible matrix mat^d is scalar, found by
    2x2 products; raises ValueError for a singular matrix."""
    _check_invertible(F, mat)
    add, mul = F.add, F.mul
    a, b, c, d = mat
    e, f, g, h = mat
    order = 1
    while f or g or e != h:
        e, f, g, h = (add(mul(e, a), mul(f, c)), add(mul(e, b), mul(f, d)),
                      add(mul(g, a), mul(h, c)), add(mul(g, b), mul(h, d)))
        order += 1
    return order


def _row_times(F: FieldCtx, row, M) -> list[int]:
    # The coefficient vector sum_i row[i] * M[i].
    add, mul = F.add, F.mul
    acc = [0] * len(row)
    for c, mi in zip(row, M):
        if c:
            for j, m in enumerate(mi):
                if m:
                    acc[j] = add(acc[j], m if c == 1 else mul(c, m))
    return acc


def key_image(key: Key, M, F: FieldCtx, products: dict | None = None) -> Key:
    """Key of the substituted map, given a precomputed substitution matrix;
    ``products`` keeps each row's product with M for later calls with M."""
    if products is None:
        products = {}
    images = []
    for row in key:
        image = products.get(row)
        if image is None:
            image = products[row] = _row_times(F, row, M)
        images.append(image)
    return _echelon2(F, *images)


def act(f: RationalMap, mat) -> RationalMap:
    """The substituted map f((aX+b)/(cX+d)), reduced.

    This is a right action: act(f, AB) == act(act(f, A), B) for the matrix
    product AB.
    """
    F = f.field
    n = f.degree
    M = substitution_matrix(F, mat, n)
    num, den = (Poly(F, _row_times(F, _descending(P, n), M)[::-1])
                for P in (f.num, f.den))
    image = normalize(num, den)
    if image.degree != n:
        raise AssertionError("substitution changed the degree")
    return image


def is_fixed(key: Key, mat, F: FieldCtx) -> bool:
    """Whether the substitution by the matrix maps the subfield onto itself."""
    M = substitution_matrix(F, mat, len(key[0]) - 1)
    return key_image(key, M, F) == key


def _rank_offsets(q: int, n: int) -> list[int]:
    # offsets[m]: the first rank of the degree-n keys whose Q has degree m;
    # offsets[n] is the number of ranks.
    return [q ** (n - 1) * (q ** m - 1) // (q - 1) for m in range(n + 1)]


def enumerate_subfield_keys(F: FieldCtx, n: int,
                            budget: int = DEFAULT_KEY_BUDGET) -> Iterator[Key]:
    """All q^(2(n-1)) subfield keys of degree n, in deterministic order: by
    the degree m of Q, then the free digits of P, then the low digits of Q,
    each in ``itertools.product`` order from the constant term up."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    q = F.q
    check_budget(q, n, q ** (2 * (n - 1)), "keys", budget)

    for m in range(n):
        q_rows = [(0,) * (n - m) + (1,) + q_low[::-1]
                  for q_low in itertools.product(range(q), repeat=m)]
        size = len(q_rows)
        flags = coprime_flags(F, n, m, zero_digit=m)
        for i, p_low in enumerate(itertools.product(range(q), repeat=n - 1)):
            p_row = (1,) + (p_low[:m] + (0,) + p_low[m:])[::-1]
            for q_row in itertools.compress(q_rows, flags[i * size:(i + 1) * size]):
                yield p_row, q_row


def digit_ranks(q: int, tables: list[list[int]], base: int = 0,
                unit: int = 1) -> Iterator[int]:
    """Item r is base plus unit times the rank of the image of the r-th string
    of ``itertools.product(range(q), repeat=len(tables))`` that maps digit k
    by tables[k], the first digit most significant.  The last digit is added
    lazily, so that a caller may look each rank up without a list of all."""
    vals, tab = [base], [0]
    weight = unit * q ** len(tables)
    for t in tables:
        vals = [v + s for v in vals for s in tab]
        weight //= q
        tab = [x * weight for x in t]
    return (v + s for v in vals for s in tab)


def _closed(perm: list[int]) -> list[int]:
    # -1 stands for an image that is not among the engine's points.
    if -1 in perm:
        raise AssertionError("orbit closure escaped the key set")
    return perm


class KeyPermutations:
    """The subfield keys that ``enumerate_subfield_keys`` lists, indexed 0..N-1,
    the index permutations that invertible matrices induce, and the number of
    keys each matrix fixes.

    Every key has a rank, offset[m] + rank(P free digits) * q^m +
    rank(Q low digits), which orders the keys strictly; a table maps ranks to
    indices, with -1 for the ranks of keys not listed.
    ``image_perm`` takes the ``key_image`` of every key.  ``scaling`` and
    ``translation`` are the permutations of D = (g, 0, 0, 1) and
    T = (1, 1, 0, 1); both keep the pivots of a key, so their images are
    ranked by digit arithmetic, with no ``key_image``.
    ``fix_count`` reads one table, ``cyclic_subgroups``.

    ``bruhat_labels`` labels the orbits without S's permutation.  D and T
    generate the affine group B, and PGL(2, q) is the disjoint union of B and
    B.S.B (Bruhat).  B.S.B = U.S.B for U the translations T_b = X -> X + b,
    and T_b = D^k.T.D^-k for b = g^k.  S normalizes the diagonal maps, so
    x.T_b.S.B = x.D^k.T.S.B, and the orbit of a key x is the union of the
    B-orbits of x, of x.S and of x.D^k.T.S for k = 0..q-2: q inversions per
    class, not one per key.
    """

    def __init__(self, F: FieldCtx, n: int, budget: int = DEFAULT_KEY_BUDGET):
        self.F, self.n = F, n
        self.keys = list(enumerate_subfield_keys(F, n, budget))
        self._offsets = _rank_offsets(F.q, n)
        self._p_numbers: dict = {}    # r0 -> its digits X^0..X^(n-1) as one number
        self._q_parts: dict = {}      # r1 -> (rank base, q^(pivot-1), q^m)
        self._table = [-1] * self._offsets[n]
        for i, key in enumerate(self.keys):
            self._table[self.rank(key)] = i

    def rank(self, key: Key) -> int:
        """The rank of a degree-n key."""
        r0, r1 = key
        q, n = self.F.q, self.n
        part = self._q_parts.get(r1)
        if part is None:
            # offset[m] + rank(Q low digits); q^m weighs P's free digits.
            j1 = r1.index(1)
            part = self._q_parts[r1] = (
                self._offsets[n - j1] + horner_rank(q, r1[n:j1:-1]),
                q ** (j1 - 1), q ** (n - j1))
        base, low, qm = part
        number = self._p_numbers.get(r0)
        if number is None:
            number = self._p_numbers[r0] = horner_rank(q, r0[n:0:-1])
        # Drop the zero digit of X^m, which sits at weight q^(j1-1).
        return base + (number // (low * q) * low + number % low) * qm

    def key_index(self, key: Key) -> int:
        """The index of a degree-n key, or -1 if the engine does not list it."""
        return self._table[self.rank(key)]

    def image_perm(self, mat) -> list[int]:
        F, table = self.F, self._table
        M = substitution_matrix(F, mat, self.n)
        products: dict = {}
        return _closed([table[self.rank(key_image(key, M, F, products))]
                        for key in self.keys])

    def _assign(self, perm: list[int], start: int, stop: int, images) -> None:
        # perm[i] = j for each key i ranked in start..stop-1 and its image j.
        for i, j in zip(self._table[start:stop], images):
            if i >= 0:
                perm[i] = j

    @functools.cached_property
    def scaling(self) -> list[int]:
        # D sends P to P(gX) / g^n and Q to Q(gX) / g^m: digit i of each
        # row is scaled by g^(i-n) or g^(i-m), and the pivots stay.
        F, n, table = self.F, self.n, self._table
        ginv = F.inv(F.generator)
        perm = [-1] * len(self.keys)
        for m in range(n):
            scales = ([F.pow(ginv, n - i) for i in range(n) if i != m]
                      + [F.pow(ginv, m - i) for i in range(m)])
            tables = [[F.mul(s, x) for x in F.elements] for s in scales]
            ranks = digit_ranks(F.q, tables, self._offsets[m])
            self._assign(perm, self._offsets[m], self._offsets[m + 1],
                         map(table.__getitem__, ranks))
        return _closed(perm)

    @functools.cached_property
    def translation(self) -> list[int]:
        # With m = deg Q, lo = P's digits X^0..X^(m-1) and hi = X^(m+1)..,
        # the image key is (P(X+1) - c*Q(X+1), Q(X+1)), c = [X^m]P(X+1).  Its
        # hi and c depend on hi alone, and its lo is A.lo + v, A the shift of
        # the polynomials of degree < m and v = u - c*Q(X+1)'s low digits, u
        # those of P(X+1) at lo = 0.  So the rank offset[m] + (lo*q^(n-1-m) +
        # hi)*q^m + rank(Q) goes to rank(A.lo + v)*q^(n-1) + part(hi, Q).
        F, q, n, table = self.F, self.F.q, self.n, self._table
        add, mul, neg = F.add, F.mul, F.neg
        block = q ** (n - 1)
        perm = [-1] * len(self.keys)
        for m in range(n):
            q_images = [substitute_raw(F, low + (1,), 1, 1)[:m]
                        for low in itertools.product(range(q), repeat=m)]
            v_ranks, parts = [], []
            for hi in itertools.product(range(q), repeat=n - 1 - m):
                p = substitute_raw(F, (0,) * (m + 1) + hi + (1,), 1, 1)
                minus_c, u = neg(p[m]), p[:m]
                base = self._offsets[m] + horner_rank(q, p[m + 1:n]) * q ** m
                for b in q_images:
                    v = [add(x, mul(minus_c, y)) for x, y in zip(u, b)]
                    v_ranks.append(horner_rank(q, v))
                    parts.append(base + horner_rank(q, b))
            start = self._offsets[m]
            for lo in itertools.product(range(q), repeat=m):
                row = list(digit_ranks(q, [[add(a, x) for x in F.elements]
                                           for a in substitute_raw(F, lo + (0,), 1, 1)[:m]],
                                       0, block))
                ranks = map(operator.add, map(row.__getitem__, v_ranks), parts)
                self._assign(perm, start, start + block, map(table.__getitem__, ranks))
                start += block
        return _closed(perm)

    def bruhat_labels(self) -> tuple[list[int], list[int]]:
        """The B-orbit label of every key, by ``label_orbits`` over D and T,
        and the orbit label of every B-orbit under the whole group, both
        numbered in order of first discovery.  Only the first key x of each
        orbit is inverted, together with its q - 1 translates x.D^k.T."""
        F, keys, table = self.F, self.keys, self._table
        D, T = self.scaling, self.translation
        blabels = label_orbits((D, T))
        glabels = [-1] * (max(blabels) + 1)
        M = substitution_matrix(F, (0, 1, 1, 0), self.n)
        products: dict = {}
        orbits = 0
        for i, b in enumerate(blabels):
            if glabels[b] < 0:
                glabels[b] = orbits
                starts, j = [i], i
                for _ in range(F.q - 1):
                    starts.append(T[j])
                    j = D[j]
                images = [table[self.rank(key_image(keys[j], M, F, products))]
                          for j in starts]
                for image in _closed(images):
                    glabels[blabels[image]] = orbits
                orbits += 1
        return blabels, glabels

    @functools.cached_property
    def cyclic_subgroups(self) -> dict[int, tuple[int, dict[int, int]]]:
        """By root count of X^2 - trace*X + det in GF(q), 2, 0 or 1: the order
        N of <D>, <R> or <T>, which holds every non-scalar matrix of that type
        up to conjugacy, and the generator's cycle counts by length; T's
        cycles other than its fixed points have length p."""
        F = self.F
        fixed = fixed_points(self.translation)
        return {2: (F.q - 1, cycle_lengths(self.scaling)),
                0: (F.q + 1, cycle_lengths(self.image_perm(nonsplit_generator(F)))),
                1: (F.p, {1: fixed, F.p: exact_div(len(self.keys) - fixed, F.p)})}

    def fix_count(self, mat) -> int:
        """Number of keys that an invertible matrix fixes, as conjugates do.  A
        scalar fixes every key; any other of projective order d lies in a
        cyclic subgroup of order N (``cyclic_subgroups``), where it fixes the
        points on the generator's cycles of length dividing N/d."""
        F = self.F
        a, b, c, d = mat
        order = projective_order(F, mat)
        if order == 1:
            return len(self.keys)
        roots = char_roots(F, F.add(a, d), F.sub(F.mul(a, d), F.mul(b, c)))
        N, cycles = self.cyclic_subgroups[roots]
        return sum(length * count for length, count in cycles.items()
                   if (N // order) % length == 0)


def nonsplit_generator(F: FieldCtx) -> tuple[int, int, int, int]:
    """The first companion matrix (t, -s, 1, 0) of an irreducible X^2 - tX + s
    of projective order q + 1, a generator of a nonsplit torus of PGL(2, q)."""
    for t in F.elements:
        for s in F.units:
            mat = (t, F.neg(s), 1, 0)
            if char_roots(F, t, s) == 0 and projective_order(F, mat) == F.q + 1:
                return mat
    raise AssertionError("no nonsplit element of order q + 1")


def fixed_points(perm: list[int]) -> int:
    return sum(map(operator.eq, perm, range(len(perm))))


def cycle_lengths(perm: list[int]) -> dict[int, int]:
    """How many cycles of each length the permutation has."""
    seen = bytearray(len(perm))
    counts: dict[int, int] = {}
    for start in range(len(perm)):
        if not seen[start]:
            length, i = 0, start
            while not seen[i]:
                seen[i] = 1
                i = perm[i]
                length += 1
            counts[length] = counts.get(length, 0) + 1
    return counts


def label_orbits(generators: tuple[list[int], ...]) -> list[int]:
    """Orbit index of every point under the group that the index
    permutations ``generators`` generate, numbered in order of first
    discovery."""
    label = [-1] * len(generators[0])
    orbits = 0
    for start in range(len(label)):
        if label[start] < 0:
            label[start], stack = orbits, [start]
            while stack:
                i = stack.pop()
                for g in generators:
                    j = g[i]
                    if label[j] < 0:
                        label[j] = orbits
                        stack.append(j)
            orbits += 1
    return label
