"""Field construction, arithmetic axioms, and quadratic extension contexts."""

from __future__ import annotations

import itertools
import random

import pytest

from ffrat import gf
from ffrat.counting import divisors, euler_phi, prime_factors
from ffrat.gf import (BudgetExceededError, FieldSizeError, field_of_order,
                      is_prime, left_kernel, make_ext, make_field, mult_order,
                      row_echelon, row_times)

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]


def test_prime_field_modulus_convention():
    F = make_field(2, 1)
    assert F.modulus == (0, 1)
    assert list(F.elements) == [0, 1]


def test_gf4_modulus_is_least_irreducible_quadratic():
    F = make_field(2, 2)
    assert F.modulus == (1, 1, 1)


def test_gf8_gf9_moduli_are_irreducible_and_least():
    # Frozen from an independent scan of all monic cubics/quadratics,
    # ordered by constant-coefficient-first comparison.
    assert make_field(2, 3).modulus == (1, 0, 1, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        make_field(4, 1)


def test_make_field_rejects_bad_degree():
    with pytest.raises(ValueError):
        make_field(2, 0)


def test_size_bound_enforced(monkeypatch):
    # 2^21 is above DEFAULT_SIZE_BOUND; the check comes before any field work.
    def unbuilt(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(gf, "_least_irreducible", unbuilt)
    monkeypatch.setattr(gf, "FieldCtx", unbuilt)
    with pytest.raises(FieldSizeError, match="exceeds size bound"):
        make_field(2, 21)
    assert (2, 21) not in gf._FIELD_CACHE


def test_size_bound_comes_before_trial_division(monkeypatch):
    # Refusing a large prime must not first trial-divide it up to its root.
    def untried(*args):
        raise AssertionError("q or p was trial-divided")

    monkeypatch.setattr(gf, "is_prime", untried)
    monkeypatch.setattr(gf, "char_and_degree", untried)
    with pytest.raises(FieldSizeError, match="order 100000000000031 exceeds"):
        field_of_order(100000000000031)
    with pytest.raises(FieldSizeError, match="GF\\(100000000000031\\*\\*1\\) exceeds"):
        make_field(100000000000031, 1)
    # A huge degree is refused without forming p**k.
    with pytest.raises(FieldSizeError, match="GF\\(2\\*\\*10{18}\\) exceeds"):
        make_field(2, 10 ** 18)


def test_field_size_error_is_a_budget_refusal_and_a_value_error():
    # Callers that refuse oversize work catch the one BudgetExceededError;
    # callers of make_field that catch bad input still catch it.
    assert issubclass(FieldSizeError, BudgetExceededError)
    assert issubclass(FieldSizeError, ValueError)
    with pytest.raises(BudgetExceededError, match="GF\\(1031\\*\\*2\\) exceeds"):
        make_field(1031, 2)


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_of_order(q):
    assert field_of_order(q).q == q


@pytest.mark.parametrize("q", [1, 6, 10, 12, 100])
def test_field_of_order_rejects_non_prime_powers(q):
    with pytest.raises(ValueError):
        field_of_order(q)


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q):
    F = field_of_order(q)
    els = list(F.elements)
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", [729, 1031, 65537, 66049])
def test_field_axioms_sampled_past_the_full_tables(q):
    # Log-table multiplication (729, 1031) and direct polynomial reduction
    # (65537, 66049), with digitwise addition (729, 66049) or addition mod p
    # (1031, 65537): tiers too large for the exhaustive test, checked on
    # seeded samples against the raw arithmetic.
    F = field_of_order(q)
    rng = random.Random(q)
    for _ in range(30):
        a, b, c = (rng.randrange(q) for _ in range(3))
        digits = zip(F.element_coeffs(a), F.element_coeffs(b))
        assert F.element_coeffs(F.add(a, b)) == tuple((x + y) % F.p for x, y in digits)
        assert F.add(a, F.neg(a)) == 0
        assert F.mul(a, b) == F.mul(b, a) == F._raw_mul(a, b)
        if F.k == 1:
            assert F.mul(a, b) == a * b % q
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        if a:
            e = rng.randrange(-q, q)
            assert F.mul(a, F.inv(a)) == 1
            assert F.pow(a, e) == F._pow_raw(a, e % (q - 1))
            assert F.mul(F.pow(a, e), a) == F.pow(a, e + 1)
    assert mult_order(F, F.generator) == q - 1


def test_prime_field_add_past_the_tables_is_digitwise_addition():
    # Past the q x q tables an odd prime field adds mod p, not digit by digit.
    F = field_of_order(1031)
    assert F.add != F._add_digitwise
    rng = random.Random(1031)
    pairs = [(0, 0), (1030, 1), (1030, 1030)] + [
        (rng.randrange(1031), rng.randrange(1031)) for _ in range(500)]
    assert [F.add(a, b) for a, b in pairs] == [F._add_digitwise(a, b) for a, b in pairs]


def test_prime_field_past_the_log_tables_multiplies_mod_p():
    # Past the log tables a prime field multiplies and raises to powers mod p;
    # the reference is the digit-list product and its square-and-multiply.
    F = field_of_order(1048573)
    assert F.mul != F._raw_mul

    def digit_pow(a, e):
        r = 1
        while e:
            if e & 1:
                r = F._raw_mul(r, a)
            a = F._raw_mul(a, a)
            e >>= 1
        return r

    rng = random.Random(1048573)
    pairs = [(0, 5), (1, 1048572), (1048572, 1048572)] + [
        (rng.randrange(1048573), rng.randrange(1048573)) for _ in range(200)]
    assert [F.mul(a, b) for a, b in pairs] == [F._raw_mul(a, b) for a, b in pairs]
    exponents = [0, 1, 2, 1048572, -1, -7] + [rng.randrange(1, 1 << 21) for _ in range(20)]
    for a in [1, 2, 1048572] + [rng.randrange(1, 1048573) for _ in range(10)]:
        inv = F.inv(a)
        assert F._raw_mul(a, inv) == 1
        assert inv == digit_pow(a, 1048571)
        assert [F.pow(a, e) for e in exponents] == [
            digit_pow(a, e) if e >= 0 else digit_pow(inv, -e) for e in exponents]


@pytest.mark.parametrize("p, k", [(1048573, 1), (3, 12)])
def test_neg_and_sub_past_the_tables(p, k):
    # Past the tables neg negates mod p in a prime field and digit by digit
    # in an extension field.
    F = make_field(p, k)
    assert F.neg_table is None
    rng = random.Random(F.q)
    samples = [0, 1, p - 1, F.q - 1] + [rng.randrange(F.q) for _ in range(200)]
    for a, b in zip(samples, reversed(samples)):
        assert F.add(a, F.neg(a)) == 0
        assert F.sub(a, b) == F.add(a, F.neg(b))


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_generator_is_primitive(q):
    F = field_of_order(q)
    assert mult_order(F, F.generator) == q - 1
    seen = set()
    x = 1
    for _ in range(q - 1):
        seen.add(x)
        x = F.mul(x, F.generator)
    assert seen == set(F.units)


def test_mult_order_examples():
    assert mult_order(make_field(5, 1), 2) == 4
    assert mult_order(make_field(7, 1), 6) == 2
    for q in SMALL_ORDERS:
        assert mult_order(field_of_order(q), 1) == 1


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_order_distribution_matches_euler_phi(q):
    F = field_of_order(q)
    counts = {}
    for a in F.units:
        d = mult_order(F, a)
        counts[d] = counts.get(d, 0) + 1
    assert counts == {d: euler_phi(d) for d in divisors(q - 1)}


def test_element_coeffs_roundtrip():
    F = make_field(3, 2)
    for a in F.elements:
        assert sum(c * 3 ** i for i, c in enumerate(F.element_coeffs(a))) == a
    assert F.element_coeffs(5) == (2, 1)


def test_pow_and_div():
    F = make_field(2, 2)
    for a in F.units:
        assert F.pow(a, 3) == 1
        assert F.div(a, a) == 1
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_ext_norm_one_count(q):
    ext = make_ext(field_of_order(q)).ext
    assert sum(ext.pow(x, q + 1) == 1 for x in ext.units) == q + 1


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_ext_frobenius_involution_and_fixed_field(q):
    F = field_of_order(q)
    ctx = make_ext(F)
    ext = ctx.ext
    embed, frob = ctx.embed_table, ctx.frob_table
    image = {embed[a] for a in F.elements}
    assert len(image) == q
    for x in ext.elements:
        assert frob[frob[x]] == x
    fixed = {x for x in ext.elements if frob[x] == x}
    assert fixed == image


@pytest.mark.parametrize("q", [2, 3, 4])
def test_ext_embedding_is_homomorphism(q):
    F = field_of_order(q)
    ctx = make_ext(F)
    ext, embed = ctx.ext, ctx.embed_table
    for a in F.elements:
        for b in F.elements:
            assert embed[F.add(a, b)] == ext.add(embed[a], embed[b])
            assert embed[F.mul(a, b)] == ext.mul(embed[a], embed[b])


def test_frobenius_is_qth_power():
    # The reference is q - 1 products, not a power.
    for q in SMALL_ORDERS:
        ctx = make_ext(field_of_order(q))
        ext = ctx.ext
        for x in ext.elements:
            y = x
            for _ in range(q - 1):
                y = ext.mul(y, x)
            assert ctx.frob_table[x] == y, (q, x)


def test_make_field_is_cached():
    assert make_field(3, 1) is make_field(3, 1)
    assert field_of_order(9) is make_field(3, 2)


@pytest.mark.parametrize("q,w", [(2, 3), (3, 2), (4, 2)])
def test_left_kernel_is_the_echelon_basis_of_every_solution(q, w):
    # For every w x w matrix M and a few polynomials P: the basis is in
    # reduced echelon form, and its span is exactly the v with v P(M) = 0,
    # found by trying every v.  [P | I] always has full rank, so no input is
    # refused.
    F = field_of_order(q)
    vectors = list(itertools.product(F.elements, repeat=w))
    polys = [(0,), (1,), (F.neg(1), 1), (0, 0, 1), (1, 1, 1)]

    def image(v, M, coeffs):
        acc = (0,) * w
        for c in coeffs:
            acc = tuple(F.add(x, F.mul(c, y)) for x, y in zip(acc, v))
            v = row_times(F, v, M)
        return acc
    for entries in itertools.product(F.elements, repeat=w * w):
        M = [entries[i:i + w] for i in range(0, w * w, w)]
        for coeffs in polys:
            basis = left_kernel(F, M, coeffs)
            if basis:
                assert row_echelon(F, basis) == tuple(basis), (M, coeffs)
            span = {(0,) * w}
            for row in basis:
                span = {tuple(F.add(x, F.mul(c, y)) for x, y in zip(u, row))
                        for u in span for c in F.elements}
            assert span == {v for v in vectors if not any(image(v, M, coeffs))}, (M, coeffs)


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_mult_order_reads_the_log_table_as_the_divisor_scan(q):
    # (q - 1)/gcd(log a, q - 1) against the least divisor d of q - 1 with
    # a^d = 1, on every unit.
    F = field_of_order(q)
    assert F.log_table is not None
    for a in F.units:
        assert mult_order(F, a) == next(d for d in divisors(q - 1) if F.pow(a, d) == 1), a


def test_mult_order_past_the_log_tables():
    # GF(65537) has no log table: the divisor scan, on sampled units.  2^16
    # is -1, so 2 has order 32, and 3 generates the units.
    F = field_of_order(65537)
    assert F.log_table is None
    assert (mult_order(F, 2), mult_order(F, 3), mult_order(F, 65536)) == (32, 65536, 2)
    for a in random.Random(65537).sample(range(1, 65537), 20):
        d = mult_order(F, a)
        assert F.pow(a, d) == 1 and all(F.pow(a, d // r) != 1 for r in prime_factors(d)), a
