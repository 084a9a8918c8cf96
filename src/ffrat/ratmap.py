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
apply it.  A fixes a key exactly when its span is an invariant plane of that
matrix M, so ``fixed_key_counts`` counts fixed keys on the invariant planes
of M (``invariant_planes``), found from the left kernels of M - x and of
quadratics in M (``gf.left_kernel``), with no key enumerated.

``enumerate_subfield_keys`` lists each of the q^(2(n-1)) keys exactly once by
walking the canonical bases directly: pairs (P, Q) with P monic of degree n,
Q monic of degree m < n, gcd(P, Q) = 1 and the X^m coefficient of P zero.
The coprime pairs come from ``polyring.coprime_flags``, the one coprimality
sieve, with P's X^m digit pinned to zero, and the walk's order ranks every
candidate pair by its digits.  ``KeyPermutations`` permutes the candidate
ranks and keeps nothing per key: it decodes a key's rows from its rank where
read, ranks scalings and translations by digit arithmetic, with no echelon
form, and streams the listed ranks into one orbit search, ``label_orbits``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import struct
from typing import Iterable, Iterator, NamedTuple, Sequence

from ffrat.gf import (FieldCtx, char_roots, check_budget, left_kernel,
                      row_echelon, row_times, span_sums)
from ffrat.polyring import (Poly, coprime_flags, gcd, horner_rank, poly_str,
                            substitute_raw)

DEFAULT_KEY_BUDGET = 10 ** 7

Key = tuple[tuple[int, ...], tuple[int, ...]]


class RationalMap(NamedTuple):
    """A reduced rational map; build with ``normalize``."""
    num: Poly
    den: Poly

    @property
    def field(self) -> FieldCtx:
        return self.num.field

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

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


def subfield_key(f: RationalMap) -> Key:
    """Canonical invariant of the subfield GF(q)(f)."""
    n = f.degree
    return row_echelon(f.field, (_descending(f.num, n), _descending(f.den, n)))


def substitution_matrix(F: FieldCtx, mat, n: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of the homogeneous substitution by [[a,b],[c,d]] on coefficient
    vectors of length n+1 in descending order: row i is the vector of
    (aX+b)^(n-i) (cX+d)^i, so transformed = sum_i v[i] * M[i].  Raises
    ValueError for a singular matrix."""
    a, b, c, d = mat
    if F.sub(F.mul(a, d), F.mul(b, c)) == 0:
        raise ValueError("matrix %r is singular" % (mat,))
    U = Poly(F, (b, a))
    V = Poly(F, (d, c))
    upow = [Poly.one(F)]
    vpow = [Poly.one(F)]
    for _ in range(n):
        upow.append(upow[-1] * U)
        vpow.append(vpow[-1] * V)
    return tuple(tuple(_descending(upow[n - i] * vpow[i], n)) for i in range(n + 1))


def key_image(key: Key, M, F: FieldCtx, products: dict | None = None) -> Key:
    """Key of the substituted map, given a precomputed substitution matrix;
    ``products`` keeps each row's product with M for later calls with M."""
    if products is None:
        products = {}
    images = []
    for row in key:
        image = products.get(row)
        if image is None:
            image = products[row] = row_times(F, row, M)
        images.append(image)
    return row_echelon(F, images)


def act(f: RationalMap, mat) -> RationalMap:
    """The substituted map f((aX+b)/(cX+d)), reduced.

    This is a right action: act(f, AB) == act(act(f, A), B) for the matrix
    product AB.
    """
    F = f.field
    n = f.degree
    M = substitution_matrix(F, mat, n)
    num, den = (Poly(F, row_times(F, _descending(P, n), M)[::-1])
                for P in (f.num, f.den))
    image = normalize(num, den)
    if image.degree != n:
        raise AssertionError("substitution changed the degree")
    return image


def is_fixed(key: Key, mat, F: FieldCtx) -> bool:
    """Whether the substitution by the matrix maps the subfield onto itself."""
    M = substitution_matrix(F, mat, len(key[0]) - 1)
    return key_image(key, M, F) == key


def invariant_planes(F: FieldCtx, n: int, mat) -> list[tuple]:
    """Blocks (base, free) of rows of length 2(n + 1), each a pair (v, w):
    the sums base + x_1 free_1 + x_2 free_2 + ... over GF(q) give each plane
    V = span(v, w) with VM = V, M = ``substitution_matrix(F, mat, n)``, that
    holds a vector of degree n, once.  M's eigenvalues lambda^(n-i) mu^i and
    lambda^i mu^(n-i), lambda and mu those of mat, are the roots of
    X^2 - s^i (lambda^k + mu^k) X + s^n, k = n - 2i, s = det mat.  Either
    M = x on V, inside the left kernel E of M - x: echelon pairs of E that
    start at E[0]'s pivot.  Or V holds eigenvectors of two roots: a line of
    each kernel.  Or V = span(v, vM), v in the left kernel K of (M - x)^2
    or of a quadratic with no root: with w_1, w_2, ... the rows of K each
    outside the span of the w_i and w_i M before it, and Z the rows of E
    outside that span, v = w_j + sum_(i > j) (a_i w_i + b_i w_i M)
    + sum_(i < j) b_i w_i (M - x) + z, z in the span of Z; the quadratic
    with no root has neither Z nor the w_i (M - x).  K is E unless M is not
    semisimple, that is unless mat is unipotent: one eigenvalue, not scalar."""
    add, mul, neg = F.add, F.mul, F.neg
    M = substitution_matrix(F, mat, n)
    a, b, c, d = mat
    t, s = add(a, d), F.sub(mul(a, d), mul(b, c))
    lucas = [add(1, 1), t]      # lambda^k + mu^k from k = 0 up
    for _ in range(n):
        lucas.append(F.sub(mul(t, lucas[-1]), mul(s, lucas[-2])))
    roots, irreducible, sn = set(), set(), F.pow(s, n)
    for i in range(n // 2 + 1):
        sigma = mul(F.pow(s, i), lucas[n - 2 * i])
        found = char_roots(F, sigma, sn)
        roots.update(found)
        if not found:
            irreducible.add((sn, neg(sigma), 1))
    zero = (0,) * (n + 1)

    def lift(v) -> tuple[int, ...]:     # the pair (v, vM)
        return tuple(v) + tuple(row_times(F, v, M))

    def pair(u, U, w, W) -> tuple:      # u + span U beside w + span W
        return u + w, [r + zero for r in U] + [zero + r for r in W]

    spaces = {x: left_kernel(F, M, (neg(x), 1)) for x in roots}
    blocks = [pair(E[0], E[1:j] + E[j + 1:], E[j], E[j + 1:])
              for E in spaces.values() if E[0][0] for j in range(1, len(E))]
    blocks += [pair(P[i], P[i + 1:], Q[j], Q[j + 1:])
               for x, y in itertools.combinations(spaces, 2)
               for P, Q in [(spaces[x], spaces[y])]
               for i in range(len(P)) for j in range(len(Q))]
    unipotent = lucas[2] == mul(lucas[0], s) and (b, c, a) != (0, 0, d)
    for p, x in ([((mul(x, x), neg(add(x, x)), 1), x) for x in roots if unipotent]
                 + [(p, None) for p in irreducible]):
        pairs, Z, span = [], [], ()
        for rows in ([(w, row_times(F, w, M)) for w in left_kernel(F, M, p)]
                     + [(e,) for e in spaces.get(x, ())]):
            try:
                span = row_echelon(F, span + rows)
            except ValueError:
                continue
            (pairs if len(rows) == 2 else Z).append(lift(rows[0]))
        nil = [] if x is None else [
            lift([F.sub(y, mul(x, z)) for y, z in zip(w[n + 1:], w)]) for w in pairs]
        blocks += [(w, [lift(u[k:k + n + 1]) for u in pairs[j + 1:] for k in (0, n + 1)]
                    + nil[:j] + Z) for j, w in enumerate(pairs)]
    return blocks


def fixed_key_counts(F: FieldCtx, n: int, mats: dict,
                     budget: int = DEFAULT_KEY_BUDGET) -> tuple[int, dict]:
    """The number of degree-n keys, and for each labelled invertible matrix
    the number of keys it fixes: the ``invariant_planes`` whose echelon form
    (r0, r1) has r0[0] == 1 and is set in the pinned ``coprime_flags`` table
    of m = deg Q that ``enumerate_subfield_keys`` walks.  The budget is
    charged with the q^(2n-2) keys and with the row pairs of every walk."""
    q = F.q
    _check_keys(q, n, budget)
    walks = {label: invariant_planes(F, n, mat) for label, mat in mats.items()}
    check_budget(q, n, sum(q ** len(free) for blocks in walks.values()
                           for _, free in blocks),
                 "row pairs in the invariant-plane walk", budget)
    flags = [coprime_flags(F, n, m, zero_digit=m) for m in range(n)]

    def is_key(r0, r1) -> int:
        j = r1.index(1)
        return r0[0] and flags[n - j][horner_rank(q, r0[n:j:-1] + r0[j - 1:0:-1])
                                      * q ** (n - j) + horner_rank(q, r1[n:j:-1])]
    return sum(f.count(1) for f in flags), {
        label: sum(1 for base, free in blocks for pair in span_sums(F, base, free)
                   if is_key(*row_echelon(F, (pair[:n + 1], pair[n + 1:]))))
        for label, blocks in walks.items()}


def _check_keys(q: int, n: int, budget: int) -> None:
    # The refusals of work on all q^(2n-2) degree-n keys.
    if n < 1:
        raise ValueError("degree must be at least 1")
    check_budget(q, n, q ** (2 * n - 2), "keys", budget)


def _key_rows(q: int, n: int, m: int) -> tuple[list, list]:
    # The P rows (X^m digit 0) and Q rows of the keys with deg Q = m, in listing order.
    return ([(1,) + (low[:m] + (0,) + low[m:])[::-1]
             for low in itertools.product(range(q), repeat=n - 1)],
            [(0,) * (n - m) + (1,) + low[::-1]
             for low in itertools.product(range(q), repeat=m)])


def enumerate_subfield_keys(F: FieldCtx, n: int,
                            budget: int = DEFAULT_KEY_BUDGET) -> Iterator[Key]:
    """All q^(2(n-1)) subfield keys of degree n, in deterministic order: by
    the degree m of Q, then the free digits of P, then the low digits of Q,
    each in ``itertools.product`` order from the constant term up."""
    q = F.q
    _check_keys(q, n, budget)
    for m in range(n):
        p_rows, q_rows = _key_rows(q, n, m)
        size = len(q_rows)
        flags = coprime_flags(F, n, m, zero_digit=m)
        for i, p_row in enumerate(p_rows):
            for q_row in itertools.compress(q_rows, flags[i * size:(i + 1) * size]):
                yield p_row, q_row


def digit_ranks(q: int, tables: list[list[int]], base: int = 0,
                unit: int = 1) -> Iterator[list[int]]:
    """Item r of the concatenated lists is base plus unit times the rank of
    the image of the r-th string of ``itertools.product(range(q),
    repeat=len(tables))`` that maps digit k by tables[k], the first digit
    most significant: one list per value of the first half of the digits,
    so that none holds more than q^ceil(len(tables) / 2) ranks."""
    weight, half, sums = unit * q ** len(tables), len(tables) // 2, []
    for digits, vals in ((tables[:half], [base]), (tables[half:], [0])):
        for table in digits:
            weight //= q
            vals = [v + x * weight for v in vals for x in table]
        sums.append(vals)
    heads, tails = sums
    return ([h + s for s in tails] for h in heads)


def _ints(size: int, fill: int) -> memoryview:
    # size C ints, all 0 or all -1 (array.array would load a shared library).
    return memoryview(bytearray((fill & 255,)) * (4 * size)).cast("i")


def _packed(size: int, chunks: Iterator[list[int]]) -> memoryview:
    # The size C ints that the lists ``chunks`` hold, in order.
    buf, at = bytearray(4 * size), 0
    for chunk in chunks:
        buf[at:at + 4 * len(chunk)] = struct.pack("%di" % len(chunk), *chunk)
        at += 4 * len(chunk)
    return memoryview(buf).cast("i")


def _closed(labels: Sequence[int]) -> Sequence[int]:
    # -1 stands for a rank that the listing does not hold.
    if -1 in labels:
        raise AssertionError("orbit closure escaped the key set")
    return labels


class KeyPermutations:
    """The permutations that invertible matrices induce on the subfield keys
    that ``enumerate_subfield_keys`` lists, indexed by candidate rank.

    Every pair (P, Q) of the listing's shape, coprime or not, has a rank
    0..R-1, offset[m] + rank(P free digits) * q^m + rank(Q low digits).  The
    engine keeps nothing per key, and a key's rows are decoded from its rank
    where read.  Permutations are buffers of R 4-byte C ints: ``image_perm``
    takes the ``key_image`` of every listed key, -1 at candidates not
    listed; ``scaling`` and ``translation``, of D = (g, 0, 0, 1) and
    T = (1, 1, 0, 1), permute all R candidates by digit arithmetic, with no
    ``key_image``, since both keep the pivots of a pair.

    ``bruhat_labels`` labels the orbits without S's permutation.  D and T
    generate the affine group B, and PGL(2, q) is the disjoint union of B and
    B.S.B (Bruhat).  B.S.B = U.S.B for U the translations T_b = X -> X + b,
    and T_b = D^k.T.D^-k for b = g^k.  S normalizes the diagonal maps, so
    x.T_b.S.B = x.D^k.T.S.B, and the orbit of a key x is the union of the
    B-orbits of x, of x.S and of x.D^k.T.S for k = 0..q-2: q inversions per
    class, not one per key.
    """

    def __init__(self, F: FieldCtx, n: int, budget: int = DEFAULT_KEY_BUDGET):
        self.F, self.n, self._budget, q = F, n, budget, F.q
        _check_keys(q, n, budget)     # the listing checks only at its first key
        # offsets[m]: the first rank of the pairs whose Q has degree m.
        self._offsets = [q ** (n - 1) * (q ** m - 1) // (q - 1) for m in range(n + 1)]
        self._rows = [_key_rows(q, n, m) for m in range(n)]
        self._parts: dict = {}      # Q row -> (its rank, {P row: P's share})
        for offset, (p_rows, q_rows) in zip(self._offsets, self._rows):
            shares = {r0: offset + i * len(q_rows) for i, r0 in enumerate(p_rows)}
            self._parts.update((r1, (j, shares)) for j, r1 in enumerate(q_rows))

    @property
    def keys(self) -> list[Key]:
        """The listed keys, in listing order (increasing rank)."""
        return list(enumerate_subfield_keys(self.F, self.n, self._budget))

    def _key(self, rank: int) -> Key:
        m = bisect.bisect_right(self._offsets, rank) - 1
        p_rows, q_rows = self._rows[m]
        i, j = divmod(rank - self._offsets[m], len(q_rows))
        return p_rows[i], q_rows[j]

    def rank(self, key: Key) -> int:
        """The rank of a degree-n key."""
        j, shares = self._parts[key[1]]
        return shares[key[0]] + j

    def image_perm(self, mat) -> memoryview:
        F, rank = self.F, self.rank
        M = substitution_matrix(F, mat, self.n)
        products: dict = {}
        perm = _ints(self._offsets[-1], -1)
        for key in self.keys:
            perm[rank(key)] = rank(key_image(key, M, F, products))
        _closed([perm[j] for j in perm if j >= 0])
        return perm

    @functools.cached_property
    def scaling(self) -> memoryview:
        # D sends P to P(gX) / g^n and Q to Q(gX) / g^m: digit i of each
        # row is scaled by g^(i-n) or g^(i-m), and the pivots stay.
        F, n = self.F, self.n
        ginv = F.inv(F.generator)

        def ranks(m):
            scales = ([F.pow(ginv, n - i) for i in range(n) if i != m]
                      + [F.pow(ginv, m - i) for i in range(m)])
            tables = [[F.mul(s, x) for x in F.elements] for s in scales]
            return digit_ranks(F.q, tables, self._offsets[m])
        return _packed(self._offsets[n], itertools.chain.from_iterable(map(ranks, range(n))))

    @functools.cached_property
    def translation(self) -> memoryview:
        # With m = deg Q, lo = P's digits X^0..X^(m-1) and hi = X^(m+1)..,
        # the image pair is (P(X+1) - c*Q(X+1), Q(X+1)), c = [X^m]P(X+1).
        # Its hi and c depend on hi alone, and its lo is A.lo + v, A the shift
        # of the polynomials of degree < m, v = u - c*Q(X+1)'s low digits, u
        # those of P(X+1) at lo = 0: rank offset[m] + (lo*q^(n-1-m) + hi)*q^m
        # + rank(Q) goes to rank(A.lo + v)*q^(n-1) + part(hi, Q), in rank order.
        F, q, n = self.F, self.F.q, self.n
        add, mul, neg = F.add, F.mul, F.neg

        def blocks():
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
                for lo in itertools.product(range(q), repeat=m):
                    row = [r for rs in digit_ranks(q, [[add(a, x) for x in F.elements] for a in
                                                       substitute_raw(F, lo + (0,), 1, 1)[:m]],
                                                   0, q ** (n - 1)) for r in rs]
                    yield list(map(operator.add, map(row.__getitem__, v_ranks), parts))
        return _packed(self._offsets[n], blocks())

    def bruhat_labels(self) -> tuple[list[int], list[int]]:
        """The B-orbit label of every rank by ``label_orbits`` over D and T
        from the listed keys, and the orbit label of every B-orbit under the
        whole group, both numbered in order of first discovery.  Only the
        first key x of each orbit is inverted, with its translates x.D^k.T."""
        F, rank = self.F, self.rank
        D, T = self.scaling, self.translation
        blabels, firsts = label_orbits(
            (D, T), map(rank, enumerate_subfield_keys(F, self.n, self._budget)))
        glabels = [-1] * len(firsts)
        M = substitution_matrix(F, (0, 1, 1, 0), self.n)
        products: dict = {}
        orbits = 0
        for b, i in enumerate(firsts):
            if glabels[b] < 0:
                glabels[b] = orbits
                starts, j = [i], i
                for _ in range(F.q - 1):
                    starts.append(T[j])
                    j = D[j]
                for image in _closed([blabels[rank(key_image(self._key(j), M, F, products))]
                                      for j in starts]):
                    glabels[image] = orbits
                orbits += 1
        return blabels, glabels


def fixed_points(perm: Sequence[int]) -> int:
    return sum(map(operator.eq, perm, range(len(perm))))


def label_orbits(generators: tuple[Sequence[int], ...],
                 starts: Iterable[int]) -> tuple[list[int], list[int]]:
    """Orbit labels, numbered in order of first discovery, -1 where unreached,
    from the distinct points ``starts`` under the index permutations
    ``generators`` (lists or int buffers), and the first start of each orbit,
    searched breadth-first.  Raises AssertionError unless the orbits hold
    just the starts: unless the starts are closed under the generators."""
    label = [-1] * len(generators[0])
    firsts: list[int] = []
    labelled = listed = 0
    for listed, start in enumerate(starts, 1):
        if label[start] < 0:
            orbit = len(firsts)
            firsts.append(start)
            label[start] = orbit
            points = [start]
            for i in points:
                for g in generators:
                    j = g[i]
                    if label[j] < 0:
                        label[j] = orbit
                        points.append(j)
            labelled += len(points)
    if labelled != listed:
        raise AssertionError("orbit closure escaped the key set")
    return label, firsts
