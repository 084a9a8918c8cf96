"""Arithmetic contexts for small finite fields GF(p^k).

Elements of GF(p^k) are encoded as the integers 0..q-1: the integer
``e = sum(c_i * p**i)`` stands for the residue ``sum(c_i * X**i)`` modulo a
fixed monic irreducible polynomial of degree k.  Under this encoding 0 and 1
are the additive and multiplicative identities of every field, the integers
0..p-1 always form the prime subfield, and for k = 1 the encoding is the
ordinary residue arithmetic mod p.

Construction is fully deterministic so that two fields of the same order are
byte-for-byte interchangeable:

* the modulus is the lexicographically least monic irreducible of degree k,
  comparing coefficient tuples from the constant term upward (for k = 1 this
  gives the modulus X);
* irreducibility is established by trial division against every monic
  polynomial of degree at most k // 2;
* ``generator`` is the least element index of multiplicative order q - 1.

Row vectors over a field are lists or tuples of element indices:
``row_echelon`` is the one reduced echelon form, ``row_times`` multiplies a
row by a matrix, ``left_kernel`` solves vP = 0 for a polynomial P in a
matrix, and ``span_sums`` walks a coset of a span.

Multiplication runs on log/antilog tables relative to ``generator`` whenever
q <= 2**16, with full q x q lookup tables layered on top for very small
fields; larger prime fields multiply and raise to powers mod p, and larger
extension fields fall back to direct polynomial reduction.  Fields above
``DEFAULT_SIZE_BOUND`` (2**20) elements are refused at construction with
``FieldSizeError``; like every refusal of oversize work, it is a
``BudgetExceededError`` (``check_budget`` raises the others).
"""

from __future__ import annotations

import itertools
from typing import Iterator

from ffrat.counting import char_and_degree, divisors, prime_factors

DEFAULT_SIZE_BOUND = 1 << 20

_TABLE_LIMIT = 512       # full q x q add/mul tables up to this order
_LOG_LIMIT = 1 << 16     # log/antilog tables up to this order


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""


def check_budget(q: int, n: int | None, cost: int, what: str, budget: int) -> None:
    """Raise BudgetExceededError before work whose cost exceeds the budget;
    n is None for work on q alone."""
    if cost > budget:
        where = "q=%d" % q if n is None else "q=%d n=%d" % (q, n)
        raise BudgetExceededError("%s needs %d %s, budget is %d"
                                  % (where, cost, what, budget))


class FieldSizeError(BudgetExceededError, ValueError):
    """Field order over ``DEFAULT_SIZE_BOUND``: a budget refusal and bad input."""


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for the supported field sizes."""
    return n > 1 and prime_factors(n) == [n]


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    # Dense ascending coefficient lists over Z/p, den nonzero.
    num = list(num)
    dlen = len(den)
    inv_lead = pow(den[-1], -1, p)
    quot = [0] * max(0, len(num) - dlen + 1)
    for shift in range(len(num) - dlen, -1, -1):
        c = num[shift + dlen - 1]
        if c:
            c = (c * inv_lead) % p
            quot[shift] = c
            for i, dc in enumerate(den):
                num[shift + i] = (num[shift + i] - c * dc) % p
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _is_irreducible(m: list[int], p: int) -> bool:
    # Monic ascending m of degree k; trial division by every monic divisor
    # candidate of degree 1..k//2.
    k = len(m) - 1
    for d in range(1, k // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            _, rem = _poly_divmod(m, list(lower) + [1], p)
            if not rem:
                return False
    return True


def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    if k == 1:
        return (0, 1)  # the polynomial X
    # Constant term 0 would make the candidate divisible by X, so start at 1.
    for coeffs in itertools.product(range(1, p), *[range(p)] * (k - 1)):
        m = list(coeffs) + [1]
        if _is_irreducible(m, p):
            return tuple(m)
    raise AssertionError("no irreducible polynomial of degree %d over GF(%d)" % (k, p))


class FieldCtx:
    """Arithmetic for one finite field.

    ``add`` and ``mul`` are plain callables taking and returning element
    indices; they are bound to the fastest available implementation at
    construction time, so hot loops may hoist them into locals.  Instances
    are immutable once built and are cached by ``make_field``, so identity
    comparison is the intended equality test.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = q = p ** k
        self.modulus = tuple(modulus)

        self._digit_cache: list[tuple[int, ...]] | None = None
        if q <= _LOG_LIMIT:
            self._digit_cache = [self._digits_of(e) for e in range(q)]

        self.generator = self._find_generator()

        self.exp_table: list[int] | None = None
        self.log_table: list[int] | None = None
        if q <= _LOG_LIMIT:
            exp = [0] * (q - 1)
            log = [0] * q
            v = 1
            for i in range(q - 1):
                exp[i] = v
                log[v] = i
                v = self._raw_mul(v, self.generator)
            if v != 1:
                raise AssertionError("generator order mismatch")
            self.exp_table = exp
            self.log_table = log

        self.neg_table: list[int] | None = None
        self.inv_table: list[int] | None = None
        if q <= _LOG_LIMIT:
            self.neg_table = [self._neg_digitwise(e) for e in range(q)]
            qm1 = q - 1
            self.inv_table = [0] + [exp[(qm1 - log[a]) % qm1] for a in range(1, q)]

        # Bind add/mul to the fastest implementation available.
        if p == 2:
            self.add = int.__xor__
        elif q <= _TABLE_LIMIT:
            rows = [[self._add_digitwise(a, b) for b in range(q)] for a in range(q)]
            self.add = lambda a, b: rows[a][b]
        elif k == 1:
            self.add = lambda a, b: (a + b) % p
        else:
            self.add = self._add_digitwise

        if q <= _TABLE_LIMIT:
            exp, log, qm1 = self.exp_table, self.log_table, q - 1
            mrows = [[0] * q]
            for a in range(1, q):
                la = log[a]
                mrows.append([0] + [exp[(la + log[b]) % qm1] for b in range(1, q)])
            self.mul = lambda a, b: mrows[a][b]
        elif q <= _LOG_LIMIT:
            exp, log, qm1 = self.exp_table, self.log_table, q - 1
            self.mul = lambda a, b: exp[(log[a] + log[b]) % qm1] if a and b else 0
        elif k == 1:
            self.mul = lambda a, b: a * b % p
        else:
            self.mul = self._raw_mul

    # -- encoding helpers -------------------------------------------------

    def _digits_of(self, e: int) -> tuple[int, ...]:
        p = self.p
        out = []
        while e:
            out.append(e % p)
            e //= p
        return tuple(out)

    def _digits(self, e: int) -> tuple[int, ...]:
        if self._digit_cache is not None:
            return self._digit_cache[e]
        return self._digits_of(e)

    def element_coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficients of a over the prime field, length k, lowest first."""
        d = self._digits(a)
        return d + (0,) * (self.k - len(d))

    # -- raw arithmetic (used during construction and for large fields) ---

    def _add_digitwise(self, a: int, b: int) -> int:
        p = self.p
        s = 0
        mult = 1
        while a or b:
            s += (a % p + b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return s

    def _neg_digitwise(self, a: int) -> int:
        p = self.p
        s = 0
        mult = 1
        while a:
            c = a % p
            if c:
                s += (p - c) * mult
            a //= p
            mult *= p
        return s

    def _raw_mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        p = self.p
        va = self._digits(a)
        vb = self._digits(b)
        prod = [0] * (len(va) + len(vb) - 1)
        for i, ca in enumerate(va):
            if ca:
                for j, cb in enumerate(vb):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        if len(prod) > self.k:
            _, prod = _poly_divmod(prod, list(self.modulus), p)
        e = 0
        for c in reversed(prod):
            e = e * p + c
        return e

    def _pow_raw(self, a: int, e: int) -> int:
        if self.k == 1:
            return pow(a, e, self.p)
        r = 1
        while e:
            if e & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        if self.q == 2:
            return 1
        target = self.q - 1
        prime_facs = prime_factors(target)
        for cand in range(2, self.q):
            if all(self._pow_raw(cand, target // r) != 1 for r in prime_facs):
                return cand
        raise AssertionError("no generator found for GF(%d)" % self.q)

    # -- public arithmetic -------------------------------------------------

    def neg(self, a: int) -> int:
        if self.neg_table is not None:
            return self.neg_table[a]
        return self._neg_digitwise(a)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.q)
        if self.inv_table is not None:
            return self.inv_table[a]
        return self._pow_raw(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        if a == 0:
            return 1 if e == 0 else 0
        if self.log_table is not None:
            return self.exp_table[(self.log_table[a] * e) % (self.q - 1)]
        return self._pow_raw(a, e)

    @property
    def elements(self) -> range:
        return range(self.q)

    @property
    def units(self) -> range:
        return range(1, self.q)

    def __repr__(self) -> str:
        return "GF(%d)" % self.q


def mult_order(F: FieldCtx, a: int) -> int:
    """Multiplicative order of a nonzero element; always divides q - 1."""
    if a == 0:
        raise ValueError("0 has no multiplicative order")
    for d in divisors(F.q - 1):
        if F.pow(a, d) == 1:
            return d
    raise AssertionError("order of %d not found in GF(%d)" % (a, F.q))


def char_roots(F: FieldCtx, trace: int, det: int) -> list[int]:
    """The roots of X^2 - trace*X + det in the field, ascending."""
    add, sub, mul = F.add, F.sub, F.mul
    return [x for x in F.elements if add(mul(x, sub(x, trace)), det) == 0]


def row_echelon(F: FieldCtx, rows) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form of linearly independent rows, ordered by
    pivot; raises ValueError for dependent rows, zero rows among them."""
    add, mul, neg = F.add, F.mul, F.neg
    done: list[list] = []     # [pivot, row]
    for v in rows:
        for j, r in done:
            if v[j]:
                c = neg(v[j])
                v = [add(x, mul(c, y)) if y else x for x, y in zip(v, r)]
        j = 0
        for x in v:
            if x:
                break
            j += 1
        else:
            raise ValueError("rows are linearly dependent")
        if x != 1:
            c = F.inv(x)
            v = [mul(c, y) for y in v]
        for pair in done:
            r = pair[1]
            if r[j]:
                c = neg(r[j])
                pair[1] = [add(y, mul(c, z)) if z else y for y, z in zip(r, v)]
        done.append([j, v])
    done.sort()
    return tuple([tuple(r) for _, r in done])


def row_times(F: FieldCtx, row, M) -> list[int]:
    """The row vector times the matrix M: sum_i row[i] * M[i]."""
    add, mul = F.add, F.mul
    acc = [0] * len(row)
    for c, mi in zip(row, M):
        if c:
            for j, m in enumerate(mi):
                if m:
                    acc[j] = add(acc[j], m if c == 1 else mul(c, m))
    return acc


def left_kernel(F: FieldCtx, M, coeffs) -> list[tuple[int, ...]]:
    """Echelon basis of the left kernel {v : vP = 0} of the matrix
    polynomial P = c_0 + c_1 M + c_2 M^2 + ..., coefficients from c_0 up."""
    # The rows of [P | I] reduce to rows whose P part is zero exactly where
    # their I part is a kernel vector.
    add, mul, w = F.add, F.mul, len(M)
    unit = [tuple(int(i == j) for j in range(w)) for i in range(w)]
    P = [[0] * w for _ in M]
    for i, c in enumerate(coeffs):     # no power of M past the last coefficient
        power = [row_times(F, r, M) for r in power] if i else unit
        P = [[add(x, mul(c, y)) for x, y in zip(r, u)] for r, u in zip(P, power)]
    rows = row_echelon(F, [tuple(r) + u for r, u in zip(P, unit)])
    return [r[w:] for r in rows if not any(r[:w])]


def span_sums(F: FieldCtx, base, free) -> Iterator[tuple[int, ...]]:
    """base + x_1 free_1 + ... + x_k free_k for every x in GF(q)^k, lazily."""
    if not free:
        yield tuple(base)
        return
    multiples = [[F.mul(x, y) for y in free[-1]] for x in F.elements]
    for v in span_sums(F, base, free[:-1]):
        for m in multiples:
            yield tuple(map(F.add, v, m))


class ExtFieldCtx:
    """A field GF(q) together with its quadratic extension GF(q^2).

    ``embed_table`` carries base elements into the extension (the base
    generator is mapped to the least-index root of the base modulus), and
    ``frob_table`` is x -> x**q on the extension, computed by k-fold p-th
    powering.  Fixed points of ``frob_table`` are exactly the embedded base
    field.
    """

    def __init__(self, base: FieldCtx, ext: FieldCtx,
                 embed_table: tuple[int, ...], frob_table: tuple[int, ...]):
        self.base = base
        self.ext = ext
        self.embed_table = embed_table
        self.frob_table = frob_table

    def __repr__(self) -> str:
        return "GF(%d) in GF(%d)" % (self.base.q, self.ext.q)


# One FieldCtx per (p, k): Poly equality compares fields by identity, so every
# construction path must hand back the same instance.
_FIELD_CACHE: dict[tuple[int, int], FieldCtx] = {}


def make_field(p: int, k: int) -> FieldCtx:
    """Construct (and cache) GF(p**k) with the canonical modulus."""
    if not isinstance(p, int) or not isinstance(k, int):
        raise ValueError("p and k must be integers")
    if k < 1:
        raise ValueError("extension degree must be at least 1")
    # The bound comes before the trial division of p; 2**k alone passes it
    # for every k of DEFAULT_SIZE_BOUND's bit length or more.
    if p > 1 and (k >= DEFAULT_SIZE_BOUND.bit_length() or p ** k > DEFAULT_SIZE_BOUND):
        raise FieldSizeError("GF(%d**%d) exceeds size bound %d" % (p, k, DEFAULT_SIZE_BOUND))
    if not is_prime(p):
        raise ValueError("%r is not prime" % (p,))
    F = _FIELD_CACHE.get((p, k))
    if F is None:
        F = _FIELD_CACHE[(p, k)] = FieldCtx(p, k, _least_irreducible(p, k))
    return F


def over_size_bound(q) -> bool:
    """Whether q is an order over ``DEFAULT_SIZE_BOUND``, refused before q is
    factored, prime power or not."""
    return isinstance(q, int) and q > DEFAULT_SIZE_BOUND


def field_of_order(q: int) -> FieldCtx:
    """Construct (and cache) the field with q elements; q must be a prime power.
    An order over ``DEFAULT_SIZE_BOUND`` is refused before q is factored."""
    if over_size_bound(q):
        raise FieldSizeError("order %d exceeds size bound %d" % (q, DEFAULT_SIZE_BOUND))
    p, k = char_and_degree(q)
    return make_field(p, k)


def make_ext(F: FieldCtx) -> ExtFieldCtx:
    """Construct (and cache) the quadratic extension context for F."""
    cached = getattr(F, "_ext_ctx", None)
    if cached is not None:
        return cached
    ext = make_field(F.p, 2 * F.k)

    root = None
    for x in ext.elements:
        acc = 0
        for c in reversed(F.modulus):
            acc = ext.add(ext.mul(acc, x), c)
        if acc == 0:
            root = x
            break
    if root is None:
        raise AssertionError("modulus of %r has no root in %r" % (F, ext))

    embed = []
    for a in F.elements:
        acc = 0
        for c in reversed(F.element_coeffs(a)):
            acc = ext.add(ext.mul(acc, root), c)
        embed.append(acc)

    frob = []
    for x in ext.elements:
        y = x
        for _ in range(F.k):
            y = ext.pow(y, F.p)
        frob.append(y)

    ctx = ExtFieldCtx(F, ext, tuple(embed), tuple(frob))
    F._ext_ctx = ctx
    return ctx
