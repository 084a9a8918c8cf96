"""Dense univariate polynomials over a ``FieldCtx``.

Coefficients are element indices stored lowest degree first with no trailing
zeros, which the ``Poly`` constructor strips, so the tuple is a canonical
form: two polynomials over the same field are equal iff their coefficient
tuples are equal.  The zero polynomial has an empty tuple and degree
``NEG_INFINITY`` (a float, so ``max`` with ordinary integer degrees behaves
correctly).

Beyond ring arithmetic this module provides the substitution and duality
operators used throughout the package:

* ``compose(f, g)`` is f(g(X)), and ``affine_substitute(f, a, b)`` the
  specialised f(a*X + b) by ``substitute_raw``, the one Horner loop for it on
  raw coefficient lists, which ``classify.affine_matrix`` calls as well;
* ``conj`` applies the q-power Frobenius of a quadratic extension to every
  coefficient, and ``conj_reverse(g)`` is X**deg(g) * conj(g)(1/X), i.e. the
  conjugated, reversed coefficient vector;
* a polynomial is *self-dual* when it equals a scalar multiple of its own
  conj_reverse; the scalar is then a (q+1)-st root of unity.

``coprime_flags`` sieves coprimality for a whole table of monic pairs at
once; ``gcd`` is the pair-by-pair reference it is tested against.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from ffrat.gf import ExtFieldCtx, FieldCtx, evaluate, power

NEG_INFINITY = float("-inf")


class Poly:
    """Immutable dense polynomial over a fixed field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldCtx, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        q = field.q
        for c in cs:
            if not isinstance(c, int) or not 0 <= c < q:
                raise ValueError("coefficient %r outside 0..%d" % (c, q - 1))
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _make(cls, field: FieldCtx, stripped: tuple[int, ...]) -> "Poly":
        # Internal fast path: caller guarantees stripped, valid coefficients.
        obj = object.__new__(cls)
        obj.field = field
        obj.coeffs = stripped
        return obj

    @classmethod
    def zero(cls, field: FieldCtx) -> "Poly":
        return cls._make(field, ())

    @classmethod
    def one(cls, field: FieldCtx) -> "Poly":
        return cls._make(field, (1,))

    @classmethod
    def x(cls, field: FieldCtx) -> "Poly":
        return cls._make(field, (0, 1))

    @classmethod
    def constant(cls, field: FieldCtx, c: int) -> "Poly":
        return cls(field, (c,))

    @classmethod
    def monomial(cls, field: FieldCtx, degree: int, c: int = 1) -> "Poly":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls(field, (0,) * degree + (c,))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        """Leading coefficient, 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else 0

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def is_monic(self) -> bool:
        return self.lc == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.field.q, self.coeffs))

    # -- arithmetic ----------------------------------------------------------

    def _check_field(self, other: "Poly") -> None:
        if self.field is not other.field:
            raise ValueError("mixed-field polynomial arithmetic")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_field(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = self.field.add
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        while out and out[-1] == 0:
            out.pop()
        return Poly._make(self.field, tuple(out))

    def __neg__(self) -> "Poly":
        neg = self.field.neg
        return Poly._make(self.field, tuple(neg(c) for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_field(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.field)
        add, mul = self.field.add, self.field.mul
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] = add(out[i + j], mul(ca, cb))
        return Poly._make(self.field, tuple(out))

    def scale(self, c: int) -> "Poly":
        if c == 0:
            return Poly.zero(self.field)
        if c == 1:
            return self
        mul = self.field.mul
        return Poly._make(self.field, tuple(mul(c, a) for a in self.coeffs))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        dlen = len(other.coeffs)
        if len(rem) < dlen:
            return Poly.zero(F), self
        inv_lead = F.inv(other.lc)
        sub, mul = F.sub, F.mul
        quot = [0] * (len(rem) - dlen + 1)
        for shift in range(len(rem) - dlen, -1, -1):
            c = rem[shift + dlen - 1]
            if c:
                c = mul(c, inv_lead)
                quot[shift] = c
                for i, dc in enumerate(other.coeffs):
                    rem[shift + i] = sub(rem[shift + i], mul(c, dc))
        while rem and rem[-1] == 0:
            rem.pop()
        return Poly._make(F, tuple(quot)), Poly._make(F, tuple(rem))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        return power(Poly.__mul__, Poly.one(self.field), self, e)

    def __call__(self, x: int) -> int:
        return evaluate(self.field, self.coeffs, x)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        return self.scale(self.field.inv(self.lc))

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return "Poly(GF(%d), %s)" % (self.field.q, list(self.coeffs))


def poly_str(f: Poly) -> str:
    """Human form with coefficients shown as element indices, e.g. X^2+2*X."""
    if f.is_zero:
        return "0"
    parts = []
    for i in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            xp = "X" if i == 1 else "X^%d" % i
            parts.append(xp if c == 1 else "%d*%s" % (c, xp))
    return "+".join(parts)


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    f._check_field(g)
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    F = f.field
    add, mul = F.add, F.mul
    a, b = list(f.coeffs), list(g.coeffs)
    while b:
        # a mod b in place, keeping each remainder up to a unit factor.
        db = len(b) - 1
        scale = F.neg(F.inv(b[db]))
        low = [(i, x) for i, x in enumerate(b[:db]) if x]
        for base in range(len(a) - db - 1, -1, -1):
            c = mul(a.pop(), scale)
            for i, x in low:
                a[base + i] = add(a[base + i], mul(c, x))
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return Poly._make(F, tuple(a)).monic()


def compose(f: Poly, g: Poly) -> Poly:
    """f(g(X)) by Horner evaluation in the polynomial ring."""
    f._check_field(g)
    F = f.field
    acc = Poly.zero(F)
    for c in reversed(f.coeffs):
        acc = acc * g
        if c:
            acc = acc + Poly.constant(F, c)
    return acc


def substitute_raw(F: FieldCtx, coeffs, a: int, b: int) -> list[int]:
    """The ascending coefficients of f(a*X + b), by Horner's rule on the
    nonempty ascending coefficient sequence of f; the list keeps the length
    of the input, trailing zeros included."""
    add, mul = F.add, F.mul
    res = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        new = [0] * (len(res) + 1)
        for i, r in enumerate(res):
            if r:
                if b:
                    new[i] = add(new[i], mul(r, b))
                new[i + 1] = mul(r, a)
        new[0] = add(new[0], c)
        res = new
    return res


def affine_substitute(f: Poly, a: int, b: int) -> Poly:
    """f(a*X + b) without building intermediate Poly products."""
    if f.is_zero:
        return f
    return Poly(f.field, substitute_raw(f.field, f.coeffs, a, b))


def conj(g: Poly, ctx: ExtFieldCtx) -> Poly:
    """Apply x -> x**q to every coefficient of a polynomial over GF(q^2)."""
    if g.field is not ctx.ext:
        raise ValueError("conj expects a polynomial over the extension field")
    frob = ctx.frob_table
    return Poly._make(ctx.ext, tuple(frob[c] for c in g.coeffs))


def conj_reverse(g: Poly, ctx: ExtFieldCtx) -> Poly:
    """X**deg(g) * conj(g)(1/X): the conjugated, reversed coefficient vector.

    Multiplicative, and an involution on polynomials with nonzero constant
    term; conj_reverse(X**m) = 1.
    """
    if g.field is not ctx.ext:
        raise ValueError("conj_reverse expects a polynomial over the extension field")
    if g.is_zero:
        raise ValueError("conj_reverse of the zero polynomial is undefined")
    frob = ctx.frob_table
    return Poly(ctx.ext, [frob[c] for c in reversed(g.coeffs)])


def self_dual_scalar(g: Poly, ctx: ExtFieldCtx) -> int | None:
    """The scalar c with conj_reverse(g) = c * g, or None if there is none.

    Any such c satisfies c**(q+1) = 1.
    """
    if g.is_zero:
        raise ValueError("the zero polynomial is not self-dual")
    rev = conj_reverse(g, ctx)
    if rev.degree != g.degree:
        return None
    E = ctx.ext
    c = E.div(rev.lc, g.lc)
    if rev != g.scale(c):
        return None
    if E.pow(c, ctx.base.q + 1) != 1:
        raise AssertionError("self-dual scalar %d is not a norm-one element" % c)
    return c


def monic_polys(field: FieldCtx, degree: int) -> Iterator[Poly]:
    """All monic polynomials of the exact degree, in deterministic order."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    for lower in itertools.product(range(field.q), repeat=degree):
        yield Poly._make(field, lower + (1,))


def horner_rank(q: int, digits) -> int:
    """The digits as one base-q number, the first digit most significant:
    the position of the digit string in ``itertools.product`` order."""
    acc = 0
    for d in digits:
        acc = acc * q + d
    return acc


def coprime_flags(F: FieldCtx, n: int, m: int,
                  zero_digit: int | None = None) -> bytearray:
    """flags[rank(P) * q^m + rank(Q)] is 1 exactly when gcd(P, Q) = 1, over
    the monic P of degree n and Q of degree m, ranked by the ``horner_rank``
    of their low coefficients from the constant term up (``monic_polys``
    order).  With ``zero_digit`` = k, m <= k < n, only the P with zero X^k
    coefficient are ranked, that digit left out.  A common factor contains a
    monic h of degree 1..min(n, m), so clearing every pair of multiples of h,
    ranked by ``_multiple_ranks``, clears exactly the pairs not coprime.  For
    n = m, where no digit can be pinned, P and Q share one list per h."""
    if zero_digit is not None and not m <= zero_digit < n:
        raise ValueError("the zero digit must lie in m..n-1")
    q = F.q
    qm = q ** m
    flags = bytearray(b"\x01") * (q ** (n if zero_digit is None else n - 1) * qm)
    for d in range(1, min(n, m) + 1):
        for h in monic_polys(F, d):
            q_ranks = _multiple_ranks(F, h.coeffs, m)
            for p in q_ranks if n == m else _multiple_ranks(F, h.coeffs, n, zero_digit):
                base = p * qm
                for r in q_ranks:
                    flags[base + r] = 0
    return flags


def _multiple_ranks(F: FieldCtx, h, k: int, zero_digit: int | None = None) -> list[int]:
    # The ranks, as coprime_flags ranks them, of the monic g of degree k that
    # the monic h (ascending coefficients, degree 1 <= e <= k) divides.  The
    # top digits g_e..g_(k-1) run free, except g_zero_digit = 0 (zero_digit
    # >= e), which the rank leaves out; the low digits are then
    # -(X^k + sum g_j X^j) mod h, from the vectors -X^j mod h.
    q, e = F.q, len(h) - 1
    add, sub, mul = F.add, F.sub, F.mul
    rems = [list(h[:e])]        # -X^j mod h for j = e..k
    for _ in range(e, k):
        r = rems[-1]
        rems.append([sub(a, mul(r[-1], b)) for a, b in zip([0, *r[:-1]], h)])
    free = [j for j in range(e, k) if j != zero_digit]
    lows = [[c] for c in rems[-1]]      # low digit i of every multiple
    for j in free:
        steps = [[mul(x, c) for x in F.elements] for c in rems[j - e]]
        lows = [[add(a, t) for a in low for t in step] for low, step in zip(lows, steps)]
    ranks = lows[0]
    for low in lows[1:]:
        ranks = [r * q + d for r, d in zip(ranks, low)]
    weight = q ** len(free)
    return [r * weight + i for i, r in enumerate(ranks)]
