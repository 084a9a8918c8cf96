"""Canonical forms and representative tables for polynomial equivalence.

Two degree-n polynomials f, g over GF(q) are equivalent when
g = u(f(v(X))) for degree-one polynomials u, v with nonzero leading
coefficient.  Every class contains *normalized* members (monic with constant
term 0); the left factor u can always be spent to normalize, so classes
correspond to orbits of the q^(n-1) normalized polynomials under the right
substitution action f -> normalize(f(aX+b)).

``canonical_poly`` picks the orbit member whose descending coefficient tuple
is lexicographically least, digit by digit from the top: it evaluates digit k
of f(X + b) only for the b still in the running, by the Horner rule that the
walk below shares (``_shifts``), and takes a minimum over their scalings.  The
tests hold the q(q-1) substitutions that define it as their reference.
``classify_all`` finds the least member of every class at once, by a walk
over the digits from the top whose nodes carry their stabilizers in the
affine group, so its work follows the classes, not the q^(n-1) polynomials.
``PolyPermutations``, the permutations of all of them, serves the oracle's
orbit counts, an independent method.

For n <= 5 the classes organize into short parametric families (rows such as
"X^4 + a*(X^2+X) for a nonzero", with a running through fixed coset
representatives C_i of the i-th powers in the unit group where only the coset
matters).  ``table_families`` builds the family members for the residue class
of q and ``verify_table`` checks that they are pairwise inequivalent and
exhaust all classes.
"""

from __future__ import annotations

import functools
import math
from itertools import product, repeat
from typing import NamedTuple

from ffrat import counting
from ffrat.gf import FieldCtx, check_budget
# ``_substitute_raw`` is the name under which the benchmark traces the
# affine substitution, and the tests import it from here.
from ffrat.polyring import Poly, substitute_raw as _substitute_raw  # noqa: F401
from ffrat.ratmap import DEFAULT_KEY_BUDGET, RationalMap, normalize


def _normalized_raw(F: FieldCtx, coeffs: list[int]) -> tuple[int, ...]:
    # coeffs ascending, full length, nonzero lead, a list the caller gives
    # up (its constant term is overwritten); returns the normalized tuple.
    lead = coeffs[-1]
    if lead != 1:
        inv, mul = F.inv(lead), F.mul
        coeffs = [mul(inv, c) for c in coeffs]
    coeffs[0] = 0
    return tuple(coeffs)


def left_normalize(f: Poly) -> Poly:
    """The unique monic, constant-term-0 polynomial u(f) with u affine."""
    if f.degree < 1:
        raise ValueError("left normalization needs degree >= 1")
    return Poly._make(f.field, _normalized_raw(f.field, list(f.coeffs)))


def normalized_polys(F: FieldCtx, n: int) -> list[tuple[int, ...]]:
    """Ascending coefficient tuples of the q^(n-1) normalized polynomials,
    in rank order: the i-th has the base-q digits of i as its coefficients
    (c_{n-1}, ..., c_1), the top one most significant."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    return [(0,) + mid[::-1] + (1,) for mid in product(range(F.q), repeat=n - 1)]


class PolyPermutations:
    """The normalized polynomials X^n + c_{n-1}X^(n-1) + ... + c_1X indexed
    by rank, the base-q number with digits (c_{n-1}, ..., c_1), and the index
    permutations that the substitutions X -> aX + b induce.  Rank order is
    ``normalized_polys`` order and the order in which ``canonical_poly``
    compares, from the top coefficient down.

    The normalized image of f under X -> aX + b has the coefficients

        c'_k = a^(k-n) * sum_{j=k..n} C(j, k) b^(j-k) c_j    (c_n = 1),

    so digit k of the image depends only on the digits c_j with j >= k.
    ``image_perm`` walks the digits from c_{n-1} down, carrying for every
    prefix its image's rank so far and the partial sums of the lower image
    digits; each digit is a q-entry row per partial sum that occurs, so the
    work is bounded by the points, and the permutation comes out in index
    order with no substitution.
    ``generators`` are the images under D = X -> gX (g the field generator)
    and T = X -> X + 1."""

    def __init__(self, F: FieldCtx, n: int, budget: int = DEFAULT_KEY_BUDGET):
        if n < 1:
            raise ValueError("degree must be at least 1")
        check_budget(F.q, n, F.q ** (n - 1), "polynomials", budget)
        self.F, self.n = F, n
        # Every permutation takes its entries from this one list, so that
        # the engine holds one int object per point however many it builds.
        self._points = list(range(F.q ** (n - 1)))

    def image_perm(self, a: int, b: int) -> list[int]:
        F, q, n, points = self.F, self.F.q, self.n, self._points
        add, mul = F.add, F.mul
        ainv = F.inv(a)

        def weight(j: int, k: int) -> int:
            # C(j, k) b^(j-k); the integers below p are the prime field.
            return mul(math.comb(j, k) % F.p, F.pow(b, j - k))

        ranks = [0]
        # sums[k - 1][i]: the partial sum of image digit k for the i-th prefix.
        sums = [[weight(n, k)] for k in range(1, n)]
        for j in range(n - 1, 0, -1):
            scale, place = F.pow(ainv, n - j), q ** (j - 1)
            digit = {s: [mul(scale, add(s, c)) * place for c in range(q)]
                     for s in set(sums[j - 1])}
            ranks = [points[r + t] for r, s in zip(ranks, sums[j - 1]) for t in digit[s]]
            steps = [{s: [add(s, mul(w, c)) for c in range(q)] for s in set(col)}
                     for col, w in zip(sums, [weight(j, k) for k in range(1, j)])]
            sums = [[x for s in col for x in step[s]] for col, step in zip(sums, steps)]
        return ranks

    @functools.cached_property
    def generators(self) -> tuple[list[int], ...]:
        return self.image_perm(self.F.generator, 0), self.image_perm(1, 1)


def canonical_poly(f: Poly) -> Poly:
    """Lexicographically least normalized member of the class of f,
    comparing coefficients from the top degree down."""
    n = f.degree
    if n < 1:
        raise ValueError("classification needs degree >= 1")
    F = f.field
    digits, _ = _least_image(F, _normalized_raw(F, list(f.coeffs)))
    return Poly._make(F, (0, *digits[::-1], 1))


def _least_image(F: FieldCtx, base: tuple[int, ...]) -> tuple[list[int], int]:
    """The digits (c'_{n-1}, ..., c'_1) of the least normalized image of the
    normalized base under X -> aX + b, and the steps taken.

    Digit k of the image is a^(k-n) g_k(b), where g_k(b), digit k of
    f(X + b), depends only on the digits c_j, j >= k (``_shifts``).  The
    candidates are the b that reach the least prefix so far, each with its
    live scalings, None for all units.  Each level evaluates g_k for the
    candidates, one step each.  If one is 0, the digit is 0 and only the b
    with g_k = 0 stay.  Otherwise each candidate takes the least a^(k-n) g_k
    over its scalings, one step per scaling, and the b and scalings that
    reach the least of all stay.  With all scalings live the work is done
    once per distinct g_k, and d = gcd(n-k, q-1) decides it: for d = 1,
    a -> a^(k-n) permutes the units, so the least is 1 at the one
    a = g_k^(1/(n-k)), one step; otherwise the q - 1 products make q - 1
    steps and keep d scalings.

    For n <= 5 that is at most q (n(n-1)/2 + 1) steps (``_table_cost``).  The
    top level takes q evaluations and at most q roots.  A level k below it
    takes at most q evaluations and q (n-k-1) products: a list of scalings
    comes from a level j > k with d <= n - j, and the q - 1 products are made
    at most once.  For the b with all scalings live there had g_j = 0 at
    every level j above: that is one b when p does not divide n, and every
    b, with one g_k, when p | n <= 5."""
    n, q = len(base) - 1, F.q
    add, mul, pow_ = F.add, F.mul, F.pow
    live = dict.fromkeys(F.elements)
    digits, steps = [], 0
    for k in range(n - 1, 0, -1):
        ck = base[k]
        values = {b: add(ck, s) for b, s in _shifts(F, n, k, base[n - 1:k:-1], live).items()}
        steps += len(values)
        zeros = {b: live[b] for b, g in values.items() if not g}
        if zeros:
            live = zeros
            digits.append(0)
            continue
        e, d = k - n, math.gcd(n - k, q - 1)
        best, kept, by_value = q, {}, {}
        for b, g in values.items():
            scalings = live[b]
            if scalings is None:
                if g not in by_value:
                    if d == 1:                      # a -> a^(k-n) permutes the units
                        by_value[g] = 1, [pow_(g, pow(n - k, -1, q - 1))]
                        steps += 1
                    else:
                        row = [mul(pow_(a, e), g) for a in F.units]
                        steps += q - 1
                        least = min(row)
                        by_value[g] = least, [a for a, v in zip(F.units, row) if v == least]
                least, scalings = by_value[g]
            else:
                row = [mul(pow_(a, e), g) for a in scalings]
                steps += len(row)
                least = min(row)
                scalings = [a for a, v in zip(scalings, row) if v == least]
            if least < best:
                best, kept = least, {}
            if least == best:
                kept[b] = scalings
        live = kept
        digits.append(best)
    return digits, steps


def _shifts(F: FieldCtx, n: int, k: int, prefix: tuple[int, ...], bs) -> dict[int, int]:
    """b -> s_b = sum_{j>k} C(j, k) b^(j-k) c_j for each b in bs, by Horner's
    rule on the weights C(j, k) c_j, from the digits prefix =
    (c_{n-1}, ..., c_{k+1}) and c_n = 1: digit k of f(X + b) is c_k + s_b."""
    add, mul = F.add, F.mul
    weights = [mul(math.comb(j, k) % F.p, c) for j, c in zip(range(n, k, -1), (1, *prefix))]
    top, rest = weights[0], weights[1:]
    shifts = {}
    for b in bs:
        acc = top
        for w in rest:
            acc = add(mul(acc, b), w)
        shifts[b] = mul(acc, b)
    return shifts


class PolyClassRep(NamedTuple):
    """One equivalence class: its canonical member, the number of normalized
    polynomials in the class, and the table family it instantiates (None when
    no family table covers this degree)."""
    canon: Poly
    orbit_size: int
    family_tag: str | None = None


def classify_all(F: FieldCtx, n: int,
                 budget: int = DEFAULT_KEY_BUDGET) -> list[PolyClassRep]:
    """All classes of degree-n polynomials, sorted by canonical member.

    A walk grows the least prefixes (c_{n-1}, ..., c_{k+1}) one digit at a
    time, each with its stabilizer H in B = {X -> aX + b}: None for all of
    B, which is never listed, or a list of (a, b).  The least value of each
    H-orbit on c_k extends a prefix (``_extensions``), so the leaves, one per
    class, come out sorted, and a class with stabilizer H has q(q-1)/|H|
    members.  The budget charges the family tags of n <= 5 first
    (``_table_cost``), then, before each level, q steps per node plus the
    length of its stabilizer's list (q for all of B): 79,615 steps list the
    69,944 classes of the 16.7 million polynomials at (16, 7).
    """
    q = F.q
    spent, what = (_table_cost(q, n), "canonical-form and walk steps") if n <= 5 else (0, "walk steps")
    check_budget(q, n, spent, "canonical-form steps", budget)
    nodes: list = [((), None)]
    for k in range(n - 1, 0, -1):
        spent += sum(q + (q if h is None else len(h)) for _, h in nodes)
        check_budget(q, n, spent, what, budget)
        nodes = [(prefix + (x,), stab) for prefix, h in nodes
                 for x, stab in _extensions(F, n, k, prefix, h)]
    tags = _family_tag_map(table_families(F, n)) if n <= 5 else {}
    reps = []
    for prefix, h in nodes:
        canon = (0, *prefix[::-1], 1)
        size = 1 if h is None else q * (q - 1) // len(h)
        reps.append(PolyClassRep(Poly._make(F, canon), size, tags.get(canon)))
    return reps


def _extensions(F: FieldCtx, n: int, k: int, prefix: tuple[int, ...], h):
    """The least member x of each orbit of H, the stabilizer of a least
    prefix (c_{n-1}, ..., c_{k+1}), on the digit c_k, ascending, with the
    elements of H that fix x.  (a, b) acts by c -> a^(k-n) (c + s_b), with
    s_b = sum_{j>k} C(j, k) b^(j-k) c_j and c_n = 1."""
    if h is not None and len(h) == 1:       # X -> X alone: each value is an orbit
        yield from zip(F.elements, repeat(h))
        return
    add, mul, seen = F.add, F.mul, set()
    shifts = _shifts(F, n, k, prefix, F.elements if h is None else {b for _, b in h})
    if h is None:
        # An orbit of B is closed under X -> gX and X -> X + 1, and (a, b)
        # fixes x when s_b = x (a^(n-k) - 1), which a dict s -> [b] looks up.
        gen, step, by_shift = F.pow(F.generator, k - n), shifts[1], {}
        for b, s in shifts.items():
            by_shift.setdefault(s, []).append(b)
        for x in F.elements:
            if x not in seen:
                orbit = [x]
                seen.add(x)
                for y in orbit:
                    for z in (mul(gen, y), add(y, step)):
                        if z not in seen:
                            seen.add(z)
                            orbit.append(z)
                yield x, None if len(orbit) == 1 else [
                    (a, b) for a in F.units
                    for b in by_shift.get(x and mul(x, F.sub(F.pow(a, n - k), 1)), ())]
        return
    maps: dict = {}                         # (u, t) of c -> uc + t, and the elements acting so
    for a, b in h:
        u = F.pow(a, k - n)
        maps.setdefault((u, mul(u, shifts[b])), []).append((a, b))
    for x in F.elements:
        if x not in seen:
            images = [(add(mul(u, x), t), hs) for (u, t), hs in maps.items()]
            seen.update(y for y, _ in images)
            fixers = [hs for y, hs in images if y == x]
            # H's list, or its kernel's, is shared where the stabilizer is one.
            yield x, (h if len(fixers) == len(maps) else maps[1, 0] if len(fixers) == 1
                      else [e for hs in fixers for e in hs])


# -- coset representatives and family tables -------------------------------


def coset_representatives(F: FieldCtx, i: int) -> list[int]:
    """Representatives of the cosets of the i-th powers in the unit group,
    chosen greedily by element index (the first is always 1)."""
    if i < 1:
        raise ValueError("power must be at least 1")
    powers = {F.pow(u, i) for u in F.units}
    reps = []
    covered: set[int] = set()
    for u in F.units:
        if u not in covered:
            reps.append(u)
            covered |= {F.mul(u, h) for h in powers}
    return reps


def least_nonsquare(F: FieldCtx) -> int:
    """The least-index unit that is not a square; q must be odd."""
    if F.q % 2 == 0:
        raise ValueError("every element of an even-order field is a square")
    squares = {F.mul(u, u) for u in F.units}
    return next(u for u in F.units if u not in squares)


# The family rows, each named by its coefficients of X^n down to X^1: a digit,
# or a parameter that runs over the set its clause in the tag names (after
# "/" comes only what tells apart rows with equal coefficients).
_ROWS = {
    "1": "X",
    "10": "X^2", "11": "X^2+X",
    "100": "X^3", "101": "X^3+X", "110": "X^3+X^2", "10a": "X^3+a*X, a in C_2",
    "1000": "X^4", "1001": "X^4+X", "100a": "X^4+a*X, a in C_3",
    "10a0": "X^4+a*X^2, a in C_2", "10aa": "X^4+a*(X^2+X), a nonzero",
    "101a": "X^4+X^2+a*X, a in GF(q)", "110a": "X^4+X^3+a*X, a in GF(q)",
    "10000": "X^5", "10001": "X^5+X", "10010": "X^5+X^2",
    "1000a/2": "X^5+a*X, a in C_2", "1000a/4": "X^5+a*X, a in C_4",
    "100a0": "X^5+a*X^2, a in C_3", "100aa": "X^5+a*(X^2+X), a nonzero",
    "1001a": "X^5+X^2+a*X, a in GF(q)", "1010a": "X^5+X^3+a*X, a in GF(q)",
    "10a0b": "X^5+a*X^3+b*X, a in C_2, b in GF(q)",
    "10aab": "X^5+a*(X^3+X^2)+b*X, a nonzero, b in GF(q)",
    "110ab": "X^5+X^4+a*X^2+b*X, a,b in GF(q)",
}


def _row_names(q: int, p: int, n: int) -> str:
    # The rows of the degree-n table for this q, in table order.
    if n == 1:
        return "1"
    if n == 2:
        return "11 10" if p == 2 else "10"
    if n == 3:
        return {2: "101 100", 3: "110 10a 100"}.get(p, "10a 100")
    if n == 4:
        r = q % 6
        if r == 1:
            return "10aa 10a0 100a 1000"
        if r == 2:
            return "110a 101a 1001 1000"
        if r == 4:
            return "110a 101a 100a 1000"
        return "10aa 10a0 1001 1000"                    # r in (3, 5)
    if n == 5:
        r = q % 12
        if r == 1 and p == 5:
            return "110ab 10a0b 100a0 1000a/4 10000"
        if r == 5 and p == 5:
            return "110ab 10a0b 10010 1000a/4 10000"
        if r == 1:
            return "10aab 10a0b 100aa 100a0 1000a/4 10000"
        if r in (2, 8):
            return "10aab 1010a 1001a 10001 10000"
        if r in (3, 11):
            return "10aab 10a0b 1001a 1000a/2 10000"
        if r == 4:
            return "10aab 1010a 100aa 100a0 10001 10000"
        if r == 7:
            return "10aab 10a0b 100aa 100a0 1000a/2 10000"
        return "10aab 10a0b 1001a 1000a/4 10000"        # r in (5, 9)
    raise ValueError("no representative table for degree %d" % n)


def table_families(F: FieldCtx, n: int) -> list[tuple[str, list[Poly]]]:
    """The representative families for degree n <= 5, as (tag, members).

    The rows depend only on the residue of q modulo 6 or 12 (and on the
    characteristic for small primes); within a row the parameters run over
    all of GF(q), its units, or the coset representatives C_i, as the tag's
    clauses say, the first parameter outermost.
    """
    families = []
    for name in _row_names(F.q, F.p, n).split():
        tag = _ROWS[name]
        ranges = {}
        for clause in tag.split(", ")[1:]:
            params, where = clause.split(" ", 1)
            values = (F.units if where == "nonzero" else F.elements if where == "in GF(q)"
                      else coset_representatives(F, int(where.removeprefix("in C_"))))
            ranges.update(dict.fromkeys(params.split(","), values))
        digits = name.split("/")[0][::-1]
        members = []
        for values in product(*ranges.values()):
            value = dict(zip(ranges, values))
            coeffs = [value[c] if c in value else int(c) for c in digits]
            members.append(Poly._make(F, (0, *coeffs)))
        families.append((tag, members))
    return families


def _table_cost(q: int, n: int) -> int:
    # The family-table members are one per class, and each one's canonical
    # form takes at most q (n(n-1)/2 + 1) steps (``_least_image``).
    return counting.count_polynomial_classes(q, n) * q * (n * (n - 1) // 2 + 1)


def _family_tag_map(families) -> dict[tuple[int, ...], str]:
    tags: dict[tuple[int, ...], str] = {}
    for tag, members in families:
        for member in members:
            tags[canonical_poly(member).coeffs] = tag
    return tags


def verify_table(F: FieldCtx, n: int, budget: int = DEFAULT_KEY_BUDGET) -> bool:
    """Check the degree-n family table against the closed-form class count:
    members must be pairwise inequivalent and exactly exhaust the classes.
    The budget charges the bound on the steps of each member's canonical
    form (``_table_cost``)."""
    check_budget(F.q, n, _table_cost(F.q, n), "canonical-form steps", budget)
    families = table_families(F, n)
    return (len(_family_tag_map(families)) == sum(len(m) for _, m in families)
            == counting.count_polynomial_classes(F.q, n)
            == counting.count_polynomial_classes_lowdeg(F.q, n))


def degree2_rational_reps(F: FieldCtx) -> list[RationalMap]:
    """The two classes of degree-2 rational maps: X^2 and X^2+X for even q,
    X^2 and (X^2+b)/X with b the least nonsquare for odd q."""
    x2 = Poly.monomial(F, 2)
    one = Poly.one(F)
    if F.q % 2 == 0:
        return [normalize(x2, one), normalize(Poly(F, (0, 1, 1)), one)]
    b = least_nonsquare(F)
    return [normalize(x2, one), normalize(Poly(F, (b, 0, 1)), Poly.x(F))]
