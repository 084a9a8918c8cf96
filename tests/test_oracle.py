"""Brute-force enumeration mirrors and the verification grid."""

from __future__ import annotations

import gc
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter

import pytest

from ffrat import classify, counting, gf, oracle, ratmap
from ffrat.gf import BudgetExceededError, char_roots, field_of_order, make_ext
from ffrat.oracle import (VERIFY_KINDS, SkippedCell, burnside_count_poly,
                          burnside_count_rational,
                          count_coprime_nonzero_const, count_coprime_pairs,
                          count_coprime_pairs_upto, count_rational_functions,
                          count_reversal_coprime, count_self_dual,
                          count_self_dual_coprime_pairs, enumerate_classes,
                          expected_fix, orbit_count_poly, orbit_count_rational,
                          poly_equivalence_partitions_agree, verify_grid)
from ffrat.polyring import Poly, conj_reverse, gcd, monic_polys
from ffrat.ratmap import (KeyPermutations, enumerate_subfield_keys,
                          fixed_key_counts, fixed_points, invariant_planes,
                          key_image, label_orbits, normalize, subfield_key,
                          substitution_matrix)

from enumerators import (burnside_count_rational_fullgroup, cycle_lengths,
                         irreducible_quadratics, perm_product,
                         projective_order, reversal_coprime_by_gcd,
                         self_dual_polys, twist_order_by_root_search)

F2 = field_of_order(2)
F3 = field_of_order(3)
F4 = field_of_order(4)
F5 = field_of_order(5)


# -- conjugacy classes ---------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_class_count(q):
    assert len(enumerate_classes(field_of_order(q))) == q * q - 1


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_class_kind_breakdown(q):
    kinds = Counter(rep.kind for rep in enumerate_classes(field_of_order(q)))
    assert kinds["central"] == q - 1
    assert kinds["split"] == (q - 1) * (q - 2) // 2
    assert kinds["nonsplit"] == q * (q - 1) // 2
    assert kinds["unipotent"] == q - 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_class_equation(q):
    # Class sizes |GL| / |centralizer| must partition the whole group.
    group = (q * q - 1) * (q * q - q)
    sizes = [counting.exact_div(group, rep.centralizer)
             for rep in enumerate_classes(field_of_order(q))]
    assert sum(sizes) == group


def test_centralizer_orders_for_q3():
    by_kind = {rep.kind: rep.centralizer for rep in enumerate_classes(F3)}
    assert by_kind == {"central": 48, "split": 4, "nonsplit": 8, "unipotent": 6}


def test_class_representatives_are_invertible():
    for rep in enumerate_classes(F4):
        a, b, c, d = rep.matrix
        assert F4.sub(F4.mul(a, d), F4.mul(b, c)) != 0


def test_centralizers_via_direct_count():
    # |centralizer| counted by commuting matrices, for every class of GF(3).
    def commutes(x, y):
        ax, bx, cx, dx = x
        ay, by, cy, dy = y
        F = F3
        left = (F.add(F.mul(ax, ay), F.mul(bx, cy)),
                F.add(F.mul(ax, by), F.mul(bx, dy)),
                F.add(F.mul(cx, ay), F.mul(dx, cy)),
                F.add(F.mul(cx, by), F.mul(dx, dy)))
        right = (F.add(F.mul(ay, ax), F.mul(by, cx)),
                 F.add(F.mul(ay, bx), F.mul(by, dx)),
                 F.add(F.mul(cy, ax), F.mul(dy, cx)),
                 F.add(F.mul(cy, bx), F.mul(dy, dx)))
        return left == right

    import itertools
    invertible = [m for m in itertools.product(range(3), repeat=4)
                  if F3.sub(F3.mul(m[0], m[3]), F3.mul(m[1], m[2]))]
    for rep in enumerate_classes(F3):
        direct = sum(1 for m in invertible if commutes(rep.matrix, m))
        assert direct == rep.centralizer


def test_nonsplit_twist_orders():
    orders2 = Counter(rep.order for rep in enumerate_classes(F2) if rep.kind == "nonsplit")
    assert orders2 == {3: 1}
    orders3 = Counter(rep.order for rep in enumerate_classes(F3) if rep.kind == "nonsplit")
    assert orders3 == {2: 1, 4: 2}


def test_nonsplit_twist_order_divides_q_plus_one():
    for rep in enumerate_classes(F4):
        if rep.kind == "nonsplit":
            assert rep.order > 1 and (F4.q + 1) % rep.order == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25])
def test_nonsplit_classes_match_the_root_tests(q):
    # One pass over GF(q^2) against a root test per (t, s) and a root search
    # per class; and the order from eigenvalues against matrix products.
    F = field_of_order(q)
    ctx = make_ext(F)
    classes = enumerate_classes(F)
    nonsplit = [rep for rep in classes if rep.kind == "nonsplit"]
    assert [rep.params for rep in nonsplit] == irreducible_quadratics(F)
    for rep in nonsplit:
        assert rep.order == twist_order_by_root_search(ctx, *rep.params), rep
    for rep in classes:
        assert projective_order(F, rep.matrix) == rep.order, rep


# -- per-class fixed counts ----------------------------------------------------


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                                 (4, 2), (5, 2)])
def test_bruteforce_fix_matches_closed_forms(q, n):
    F = field_of_order(q)
    engine = KeyPermutations(F, n)
    for rep in enumerate_classes(F):
        assert fixed_points(engine.image_perm(rep.matrix)) == expected_fix(F, n, rep), rep


def test_expected_fix_rejects_unknown_kind():
    rep = enumerate_classes(F2)[0]
    bogus = rep._replace(kind="twisted")
    with pytest.raises(ValueError):
        expected_fix(F2, 2, bogus)


# -- fixed counts on invariant planes against the key-permutation engine ------


def _invertible(F):
    return [m for m in itertools.product(F.elements, repeat=4)
            if F.sub(F.mul(m[0], m[3]), F.mul(m[1], m[2]))]


ENGINE_CELLS = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in (1, 2, 3)
                if q ** (2 * n - 2) <= 2500]


@pytest.mark.parametrize("q,n", ENGINE_CELLS)
def test_engine_fix_counts_match_scalar_key_images(q, n):
    # The plane count of every class, the central ones too, against the
    # fixed points of its image_perm, which images the keys one by one.
    F = field_of_order(q)
    engine = KeyPermutations(F, n)
    classes = enumerate_classes(F)
    points, fixed = fixed_key_counts(F, n, {rep: rep.matrix for rep in classes})
    assert points == len(engine.keys)
    for rep in classes:
        assert fixed[rep] == fixed_points(engine.image_perm(rep.matrix)), rep


@pytest.mark.parametrize("q,n", [(5, 4), (7, 4)])
def test_plane_fix_counts_match_torus_cycles(q, n):
    # Too many keys to image once per class: D and T come from digit
    # arithmetic, and the nonsplit generator R from its key images.  Up to
    # conjugacy, a class of order d is a power of D, R or T, of order N, and
    # fixes the points on the generator's cycles of length dividing N/d.
    # The permutations are indexed by rank: cycles are taken over the
    # listed ranks only.
    F = field_of_order(q)
    engine = KeyPermutations(F, n)
    classes = [rep for rep in enumerate_classes(F) if rep.kind != "central"]
    points, fixed = fixed_key_counts(F, n, {rep: rep.matrix for rep in classes})
    listed = list(map(engine.rank, engine.keys))
    assert points == len(listed)
    R = oracle._tori(F)[1][3]
    cycles = {"split": (q - 1, cycle_lengths(engine.scaling, listed)),
              "nonsplit": (q + 1, cycle_lengths(engine.image_perm(R), listed)),
              "unipotent": (F.p, cycle_lengths(engine.translation, listed))}
    for rep in classes:
        N, lengths = cycles[rep.kind]
        assert fixed[rep] == sum(length * count for length, count in lengths.items()
                                 if (N // rep.order) % length == 0), rep


@pytest.mark.parametrize("q", [2, 3, 4])
def test_engine_perm_matches_key_image_on_all_of_gl2(q):
    # The plane count of every invertible matrix against the fixed points
    # of its image_perm, which images the keys one by one and holds the
    # image's rank at every listed rank, -1 at every other.
    F = field_of_order(q)
    mats = _invertible(F)
    for n in (1, 2, 3):
        engine = KeyPermutations(F, n)
        keys = engine.keys
        points, fixed = fixed_key_counts(F, n, {mat: mat for mat in mats})
        assert points == len(keys)
        for mat in mats:
            M = substitution_matrix(F, mat, n)
            want = [-1] * len(engine.scaling)
            for key in keys:
                want[engine.rank(key)] = engine.rank(key_image(key, M, F))
            assert engine.image_perm(mat).tolist() == want, mat
            assert fixed[mat] == fixed_points(want), mat


def test_engine_rejects_singular_matrices():
    for mat in ((1, 2, 2, 1), (1, 1, 0, 0)):
        with pytest.raises(ValueError, match="singular"):
            invariant_planes(F3, 2, mat)
        with pytest.raises(ValueError, match="singular"):
            fixed_key_counts(F3, 2, {"A": (1, 0, 0, 1), "B": mat})


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_nonsplit_generator_has_projective_order_q_plus_one(q):
    # Each torus of the Burnside average is cyclic, generated by a matrix of
    # projective order N; the nonsplit one has no eigenvalue in GF(q).
    F = field_of_order(q)
    tori = oracle._tori(F)
    assert [(kind, N) for _, N, kind, _ in tori] == [
        ("split", q - 1), ("nonsplit", q + 1), ("unipotent", F.p)]
    for _, N, _, gen in tori:
        assert projective_order(F, gen) == N
        for e in range(1, N + 1):
            a, b, c, d = oracle._power(F, gen, e)
            assert (b == c == 0 and a == d) == (e == N), (gen, e)
    a, b, c, d = tori[1][3]
    assert char_roots(F, F.add(a, d), F.sub(F.mul(a, d), F.mul(b, c))) == []


@pytest.mark.parametrize("q", [7, 8, 9, 257])
def test_power_matches_repeated_products(q):
    # Square-and-multiply against e - 1 products, for every e <= 2N of each
    # torus generator of order N, and for sampled e at q = 257.
    F = field_of_order(q)
    add, mul = F.add, F.mul
    rng = random.Random(q)
    for _, N, _, gen in oracle._tori(F):
        wanted = (set(range(1, 2 * N + 1)) if q < 257
                  else {1, 2, N, 2 * N, *rng.sample(range(3, 2 * N), 40)})
        product = gen
        for e in range(1, 2 * N + 1):
            if e in wanted:
                assert oracle._power(F, gen, e) == product, (gen, e)
            product = tuple(add(mul(product[i], gen[j]), mul(product[i + 1], gen[j + 2]))
                            for i in (0, 2) for j in (0, 1))


def test_engine_builds_its_keys_within_the_budget(monkeypatch):
    F, n = F4, 3
    assert KeyPermutations(F, n).keys == list(enumerate_subfield_keys(F, n))
    assert len(KeyPermutations(F, n, budget=256).keys) == 256
    # Refusals come before the row tables are built.
    monkeypatch.setattr(ratmap, "_key_rows", lambda *args: pytest.fail("rows were built"))
    with pytest.raises(BudgetExceededError, match="keys"):
        KeyPermutations(F, n, budget=255)
    with pytest.raises(ValueError, match="degree"):
        KeyPermutations(F, 0)


def test_engine_holds_ranks_not_keys():
    # The engine keeps nothing per key: only the row tables, q^(n-1) P rows
    # and q^m Q rows for each m, 6.6 bytes per key at (5, 4), where a tuple
    # pair per key held 108 and a rank per key with a rank table 18.  D and
    # T hold a 4-byte C int each per candidate rank, and (5, 4) has 1.25
    # candidates per key.  A small engine first, so that one-time loads are
    # not counted.
    KeyPermutations(F5, 1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine = KeyPermutations(F5, 4)
        held = tracemalloc.get_traced_memory()[0] - before
        assert engine.scaling and engine.translation
        generators = tracemalloc.get_traced_memory()[0] - before - held
    finally:
        tracemalloc.stop()
    keys, candidates = len(engine.keys), len(engine.scaling)
    assert (keys, candidates) == (15625, 19500)
    assert held <= 7 * keys
    assert generators <= 8.5 * candidates
    assert held + generators <= (20 + 9) * keys


def _listing_only(monkeypatch, keys):
    # The engine lists its keys through ratmap.enumerate_subfield_keys.
    monkeypatch.setattr(ratmap, "enumerate_subfield_keys", lambda F, n, budget: iter(keys))


def test_engine_rejects_a_key_set_not_closed_under_the_action(monkeypatch):
    _listing_only(monkeypatch, list(enumerate_subfield_keys(F3, 2))[1:])
    with pytest.raises(AssertionError, match="escaped the key set"):
        KeyPermutations(F3, 2).image_perm((1, 1, 0, 1))


@pytest.mark.parametrize("fill", [0, 255, 65535, 2 ** 24 - 1])
def test_closure_check_finds_a_missing_image_in_an_int_buffer(fill):
    # Indices whose low bytes are 0xff pass, and a -1 in the first, a
    # middle or the last entry is caught.
    perm = ratmap._ints(5, 0)
    for i in range(5):
        perm[i] = fill
    assert ratmap._closed(perm) is perm
    for pos in (0, 2, 4):
        perm[pos] = -1
        with pytest.raises(AssertionError, match="escaped the key set"):
            ratmap._closed(perm)
        perm[pos] = fill


def test_engine_generators_reject_a_key_set_not_closed_under_the_action(monkeypatch):
    # D and T permute all candidates and read no listing: the orbit search
    # refuses the listing, since it labels more points than it lists.  The
    # missing key X^2 is fixed by D, but T sends (X - 1)^2 to it.
    whole = KeyPermutations(F3, 2)
    _listing_only(monkeypatch, list(enumerate_subfield_keys(F3, 2))[1:])
    engine = KeyPermutations(F3, 2)
    assert engine.translation.tolist() == whole.translation.tolist()
    with pytest.raises(AssertionError, match="escaped the key set"):
        engine.bruhat_labels()


RANKED_CELLS = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in (1, 2, 3)]
RANKED_CELLS += [(4, 4), (5, 4), (3, 5), (2, 6)]


@pytest.mark.parametrize("q,n", RANKED_CELLS)
def test_scaling_and_translation_generators_match_key_images(q, n):
    # D and T are ranked by digit arithmetic; image_perm goes through
    # key_image and an echelon form for every key.  At (3, 5) and (2, 6)
    # the degree m of Q reaches 4 and 5.
    F = field_of_order(q)
    engine = KeyPermutations(F, n)
    keys = engine.keys
    assert keys == list(enumerate_subfield_keys(F, n))
    ranks = [engine.rank(key) for key in keys]
    assert ranks == sorted(set(ranks))
    assert all(engine._key(r) == key for r, key in zip(ranks, keys))
    assert len(engine.scaling) == len(engine.translation) == engine._offsets[n]
    for mat, perm in (((F.generator, 0, 0, 1), engine.scaling),
                      ((1, 1, 0, 1), engine.translation)):
        M = substitution_matrix(F, mat, n)
        want = [engine.rank(key_image(key, M, F)) for key in keys]
        assert [perm[r] for r in ranks] == want, mat
        assert list(map(engine.image_perm(mat).__getitem__, ranks)) == want, mat


def test_orbit_labels_match_scalar_closure():
    F, n = F3, 3
    engine = KeyPermutations(F, n)
    keys = engine.keys
    mats = [substitution_matrix(F, g, n)
            for g in ((1, 1, 0, 1), (1, 0, 1, 1), (F.generator, 0, 0, 1))]
    orbits: list[set] = []
    seen: set = set()
    for start in keys:
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            cur = frontier.pop()
            for M in mats:
                img = key_image(cur, M, F)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        seen |= orbit
        orbits.append(orbit)
    blabels, glabels = engine.bruhat_labels()
    by_label: dict[int, set] = {}
    for key in keys:
        by_label.setdefault(glabels[blabels[engine.rank(key)]], set()).add(key)
    assert sorted(map(sorted, by_label.values())) == sorted(map(sorted, orbits))


BRUHAT_CELLS = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in (1, 2, 3)]
BRUHAT_CELLS += [(4, 4), (5, 4), (3, 5), (2, 6)]


@pytest.mark.parametrize("q,n", BRUHAT_CELLS)
def test_bruhat_labels_match_closure_under_all_generators(q, n):
    # Same orbits, numbered in the same order of first discovery.
    F = field_of_order(q)
    engine = KeyPermutations(F, n)
    blabels, glabels = engine.bruhat_labels()
    starts = list(map(engine.rank, engine.keys))
    D, T = engine.scaling, engine.translation
    assert blabels == label_orbits((D, T), starts)[0]
    S = engine.image_perm((0, 1, 1, 0))
    assert [-1 if b < 0 else glabels[b] for b in blabels] == label_orbits((D, T, S), starts)[0]


def test_bruhat_labels_reject_a_key_set_not_closed_under_inversion(monkeypatch):
    # Dropping one affine orbit keeps the keys closed under D and T, but its
    # class holds other affine orbits, whose inversions lead into the gap.
    F, n = F3, 3
    whole = KeyPermutations(F, n)
    blabels, glabels = whole.bruhat_labels()
    shared = Counter(glabels)
    gap = next(b for b, g in enumerate(glabels) if shared[g] > 1)
    _listing_only(monkeypatch, [k for k in whole.keys if blabels[whole.rank(k)] != gap])
    engine = KeyPermutations(F, n)
    assert engine.scaling and engine.translation
    with pytest.raises(AssertionError, match="escaped the key set"):
        engine.bruhat_labels()


@pytest.mark.parametrize("q,n", [(3, 3), (4, 3), (5, 3)])
def test_orbit_count_rational_inverts_q_keys_per_class(monkeypatch, q, n):
    # No permutation of S is built: the only key images are the q inversions
    # of each class's first key.
    def unbuilt(self, mat):
        raise AssertionError("image_perm(%r) was called" % (mat,))

    images = []

    def counted(*args, **kwargs):
        images.append(None)
        return key_image(*args, **kwargs)

    monkeypatch.setattr(KeyPermutations, "image_perm", unbuilt)
    monkeypatch.setattr(ratmap, "key_image", counted)
    classes = counting.count_rational_classes(q, n)
    assert orbit_count_rational(field_of_order(q), n) == classes
    assert len(images) == q * classes


@pytest.mark.parametrize("q,n", [(3, 3), (4, 3), (5, 3), (2, 4), (9, 2)])
def test_burnside_count_rational_takes_no_key_image(monkeypatch, q, n):
    # The fixed counts come from invariant planes: no class is listed, and
    # no key is listed, imaged or permuted.
    def refuse(*args, **kwargs):
        raise AssertionError("a class or a key was walked")

    monkeypatch.setattr(KeyPermutations, "image_perm", refuse)
    monkeypatch.setattr(ratmap, "key_image", refuse)
    monkeypatch.setattr(ratmap, "enumerate_subfield_keys", refuse)
    monkeypatch.setattr(oracle, "enumerate_classes", refuse)
    F = field_of_order(q)
    assert burnside_count_rational(F, n) == counting.count_rational_classes(q, n)


def test_burnside_count_rational_charges_keys_before_the_torus_search(monkeypatch):
    monkeypatch.setattr(oracle, "_tori", lambda F: pytest.fail("tori were searched"))
    with pytest.raises(BudgetExceededError, match="needs 16777216 keys"):
        burnside_count_rational(field_of_order(4096), 2)


@pytest.mark.parametrize("q", [256, 4096])
def test_torus_search_probes_few_quadratics(monkeypatch, q):
    # Each probe scans all q elements; X^2 - tX + 1 is irreducible for some t
    # within the first few.
    calls = []

    def counted(F, t, s):
        calls.append((t, s))
        return char_roots(F, t, s)
    monkeypatch.setattr(oracle, "char_roots", counted)
    oracle._tori(field_of_order(q))
    assert 1 <= len(calls) <= 10


def test_burnside_count_rational_charges_the_class_walk():
    # At (3, 2) the sieve flags 9 keys, and the walks over the invariant
    # planes of one matrix per (kind, order) visit 12 row pairs.
    assert burnside_count_rational(F3, 2, budget=12) == 2
    with pytest.raises(BudgetExceededError,
                       match="needs 12 row pairs in the invariant-plane walk"):
        burnside_count_rational(F3, 2, budget=11)
    with pytest.raises(BudgetExceededError, match="needs 9 keys"):
        burnside_count_rational(F3, 2, budget=8)
    # The refused Burnside check is named, and the 9-key orbit listing and
    # the low-degree table still run.
    report = verify_grid([3], [2], kinds=("frakN",), budget=11)
    assert [(c.name, c.passed) for c in report.checks] == [
        ("frakN/orbit", True), ("frakN/lowdeg", True)]
    assert report.skipped_cells == [SkippedCell(
        3, 2, "frakN", "frakN/burnside: q=3 n=2 needs 12 row pairs in the "
                       "invariant-plane walk, budget is 11")]


def test_fix_formulas_charges_the_class_walk():
    # q^2 - 1 = 24 classes, the nonsplit ones from a walk of GF(q^2) charged
    # q + 1 = 6 steps per class, before any class is listed.
    report = verify_grid([5], [1], kinds=("fix-formulas",), budget=143)
    assert report.checks == []
    assert [(c.kind, "class-walk steps" in c.reason)
            for c in report.skipped_cells] == [("fix-formulas", True)]
    report = verify_grid([5], [1], kinds=("fix-formulas",), budget=144)
    assert (report.total, report.failed, report.skipped) == (24, 0, 0)


def test_fix_formulas_skips_a_large_field_before_walking_it(monkeypatch):
    # At q = 257 the class walk is charged 66,048 * 258 steps, more than the
    # default budget, so the cell is skipped without building GF(q^2).
    def refuse(*args):
        raise AssertionError("the classes were walked")

    monkeypatch.setattr(oracle, "enumerate_classes", refuse)
    report = verify_grid([257], [1], kinds=("fix-formulas",))
    assert (report.total, report.skipped) == (0, 1)
    assert report.skipped_cells[0].reason == (
        "q=257 n=1 needs 17040384 class-walk steps, budget is 10000000")


def test_fix_formulas_refuses_an_oversize_extension_before_walking(monkeypatch):
    # Within the budget, but GF(1031^2) is over the size bound: the cell is
    # skipped before any class is walked.
    def refuse(*args):
        raise AssertionError("the classes were walked")

    monkeypatch.setattr(oracle, "mult_order", refuse)
    report = verify_grid([1031], [1], kinds=("fix-formulas",), budget=10 ** 12)
    assert report.checks == []
    assert report.skipped_cells == [SkippedCell(
        1031, 1, "fix-formulas", "GF(1031**2) exceeds size bound 1048576")]


def test_verify_grid_tests_the_size_bound_before_factoring_q(monkeypatch):
    # A q over the field-size bound is not trial-divided: each of its cells
    # is skipped, with a budget or size reason, whether or not q is a prime
    # power (6,291,456 = 3 * 2^21 is not).
    def untried(*args):
        raise AssertionError("q was trial-divided")

    monkeypatch.setattr(gf, "char_and_degree", untried)
    monkeypatch.setattr(counting, "char_and_degree", untried)
    report = verify_grid([100000000000031, 6291456], [1])
    assert report.checks == []
    assert [(c.q, c.kind) for c in report.skipped_cells] == [
        (q, kind) for q in (100000000000031, 6291456) for kind in VERIFY_KINDS]
    assert [c.reason for c in report.skipped_cells if c.kind in ("frakN", "frakM")] == [
        "order %d exceeds size bound 1048576" % q
        for q in (100000000000031, 6291456) for _ in range(2)]


def test_frak_m_runs_burnside_where_the_listing_is_refused():
    # (16, 7) has 16^6 normalized polynomials, over the default budget; the
    # Burnside sum lists none and still runs, and the cell names the orbit
    # check as the one left out.
    report = verify_grid([16], [7], kinds=("frakM",))
    assert [(c.name, c.passed) for c in report.checks] == [("frakM/burnside", True)]
    assert report.skipped_cells == [SkippedCell(
        16, 7, "frakM", "frakM/orbit: q=16 n=7 needs 16777216 polynomials, "
                        "budget is 10000000")]
    # Below n = 6 the low-degree table runs beside it.  At (5, 5) the
    # listing needs 625 polynomials, and the Burnside sum 3 * 5^3 = 375
    # elimination steps; a budget below both names both checks, and the
    # table, which enumerates nothing, still runs.
    report = verify_grid([5], [5], kinds=("frakM",), budget=375)
    assert [c.name for c in report.checks] == ["frakM/burnside", "frakM/lowdeg"]
    assert report.failed == 0
    assert [c.reason for c in report.skipped_cells] == [
        "frakM/orbit: q=5 n=5 needs 625 polynomials, budget is 375"]
    report = verify_grid([5], [5], kinds=("frakM",), budget=374)
    assert [(c.name, c.passed) for c in report.checks] == [("frakM/lowdeg", True)]
    assert [c.reason for c in report.skipped_cells] == [
        "frakM/orbit: q=5 n=5 needs 625 polynomials, budget is 374; "
        "frakM/burnside: q=5 n=5 needs 375 elimination steps, budget is 374"]
    # At (2, 5) the Burnside sum alone is refused (125 elimination steps);
    # the 16 polynomials are listed and the table runs.
    report = verify_grid([2], [5], kinds=("frakM",), budget=100)
    assert [(c.name, c.passed) for c in report.checks] == [
        ("frakM/orbit", True), ("frakM/lowdeg", True)]
    assert [c.reason for c in report.skipped_cells] == [
        "frakM/burnside: q=2 n=5 needs 125 elimination steps, budget is 100"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_cell_over_the_field_bound_is_skipped_and_the_grid_runs_on(jobs):
    # GF(1031^2) is over the size bound, so q = 1031's appendix cell is
    # skipped like a budget cell; its frakM cell and all of q = 2 still run.
    report = verify_grid([2, 1031], [1], kinds=("appendix-lemmas", "frakM"),
                         budget=10 ** 19, jobs=jobs)
    assert report.skipped_cells == [SkippedCell(
        1031, None, "appendix-lemmas", "GF(1031**2) exceeds size bound 1048576")]
    alone = verify_grid([2], [1], kinds=("appendix-lemmas", "frakM"))
    assert [(c.name, c.q, c.n) for c in report.checks] == (
        [(c.name, c.q, c.n) for c in alone.checks]
        + [("frakM/orbit", 1031, 1), ("frakM/burnside", 1031, 1),
           ("frakM/lowdeg", 1031, 1)])
    assert (report.total, report.failed) == (66, 0)


# -- class counts three ways ---------------------------------------------------


# Where p < q, the (q^2 - 1)/(p - 1) unipotent subgroups are fewer than the
# q^2 - 1 unipotent elements: (4, 3), (8, 3), (9, 3) and (4, 4).
@pytest.mark.parametrize("q,n,count", [(2, 1, 1), (2, 2, 2), (2, 3, 4),
                                       (3, 2, 2), (3, 3, 7), (4, 3, 10), (5, 3, 10),
                                       (8, 3, 16), (9, 3, 19), (4, 4, 89)])
def test_burnside_rational_examples(q, n, count):
    assert count == counting.count_rational_classes(q, n)
    assert burnside_count_rational(field_of_order(q), n) == count


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                                 (4, 2), (4, 3), (5, 2)])
def test_three_rational_counts_agree(q, n):
    F = field_of_order(q)
    want = counting.count_rational_classes(q, n)
    assert burnside_count_rational(F, n) == want
    assert orbit_count_rational(F, n) == want


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2)])
def test_fullgroup_burnside_agrees(q, n):
    F = field_of_order(q)
    assert burnside_count_rational_fullgroup(F, n) == counting.count_rational_classes(q, n)


def test_fullgroup_burnside_charges_the_matrices():
    # Four keys, but 2^4 = 16 matrices to walk.
    assert burnside_count_rational_fullgroup(F2, 2, budget=16) == 2
    with pytest.raises(BudgetExceededError, match="matrices"):
        burnside_count_rational_fullgroup(F2, 2, budget=15)


def test_orbit_labels_partition_the_keys():
    blabels, glabels = KeyPermutations(F3, 2).bruhat_labels()
    labels = [glabels[b] for b in blabels if b >= 0]
    assert len(labels) == 9
    assert len(set(labels)) == counting.count_rational_classes(3, 2)
    # Orbit sizes must divide the group order and cover all keys.
    sizes = Counter(labels)
    group = (9 - 1) * (9 - 3)
    assert sum(sizes.values()) == 9
    for size in sizes.values():
        assert group % size == 0


# -- polynomial action ---------------------------------------------------------


@pytest.mark.parametrize("q,n,count", [(2, 1, 1), (2, 2, 2), (2, 3, 2), (2, 4, 6),
                                       (3, 3, 4), (5, 4, 8), (7, 4, 12)])
def test_orbit_count_poly_examples(q, n, count):
    assert orbit_count_poly(field_of_order(q), n) == count


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_poly_counts_agree(q):
    F = field_of_order(q)
    for n in range(1, 5):
        want = counting.count_polynomial_classes(q, n)
        assert orbit_count_poly(F, n) == want
        assert burnside_count_poly(F, n) == want


@pytest.mark.parametrize("q,n", [(3, 4), (4, 4), (5, 4), (7, 3), (8, 3), (9, 3),
                                 (8, 4), (9, 4), (16, 3)])
def test_scaling_fixed_points_from_cycle_lengths_match_composed_powers(q, n):
    F = field_of_order(q)
    D, T = classify.PolyPermutations(F, n).generators
    cycles = cycle_lengths(D)
    assert sum(length * count for length, count in cycles.items()) == len(D)
    assert len(D) == counting.fix_affine_identity(q, n)
    assert fixed_points(T) == counting.fix_affine_translate(q, n)
    fixed, power = [], D
    for k in range(1, q - 1):
        fixed.append(fixed_points(power))
        assert fixed[-1] == sum(length * count for length, count in cycles.items()
                                if k % length == 0), k
        # D^k scales by g^k, of order (q - 1) / gcd(k, q - 1).
        assert fixed[-1] == counting.fix_affine_scale(q, n, (q - 1) // math.gcd(k, q - 1)), k
        power = perm_product(power, D)
    # The Burnside average over the affine group, on the composed powers.
    total = len(D) + q * sum(fixed) + (q - 1) * fixed_points(T)
    assert burnside_count_poly(F, n) == total // (q * (q - 1))
    assert total % (q * (q - 1)) == 0
    # Where p < q, (q - 1)/(p - 1) translation subgroups hold the q - 1 translations.
    assert burnside_count_poly(F, n) == counting.count_polynomial_classes(q, n)


@pytest.mark.parametrize("q,n", [(16, 7), (16, 8), (2, 20), (1031, 8)])
def test_burnside_count_poly_lists_no_polynomial(monkeypatch, q, n):
    # Cells the listing refuses: the fixed subspaces list nothing.
    def refuse(*args, **kwargs):
        raise AssertionError("the polynomials were listed")

    monkeypatch.setattr(classify, "PolyPermutations", refuse)
    F = field_of_order(q)
    assert burnside_count_poly(F, n) == counting.count_polynomial_classes(q, n)


@pytest.mark.parametrize("q", [q for q in range(2, 28) if counting.is_prime_power(q)])
def test_affine_fixed_counts_are_the_lemmas(q):
    # One scaling of each order d > 1 dividing q - 1, and X -> X + 1.
    F = field_of_order(q)
    for n in range(1, 9):
        for d in counting.divisors(q - 1)[1:]:
            a = F.pow(F.generator, (q - 1) // d)
            assert oracle._affine_fixed(F, n, a, 0) == counting.fix_affine_scale(q, n, d), (n, d)
        assert oracle._affine_fixed(F, n, 1, 1) == counting.fix_affine_translate(q, n), n


@pytest.mark.parametrize("q,n", [(2, 4), (3, 4), (4, 3), (5, 3)])
def test_affine_fixed_counts_match_the_listing(q, n):
    # Every affine map, the mixed aX + b included, against the fixed points
    # of its permutation of the normalized polynomials.
    F = field_of_order(q)
    engine = classify.PolyPermutations(F, n)
    for a in F.units:
        for b in F.elements:
            assert oracle._affine_fixed(F, n, a, b) == fixed_points(engine.image_perm(a, b)), (a, b)


def test_burnside_average_weighs_each_order_and_checks_the_keys():
    # The affine group of GF(5) at n = 3, from the lemmas: five stabilizers
    # of order 4, with one element of order 2 and two of order 4 each, and
    # one group of translations, of order 5.
    q, n = 5, 3
    scalings = {d: counting.fix_affine_scale(q, n, d) for d in (2, 4)}
    translations = {5: counting.fix_affine_translate(q, n)}
    assert oracle._burnside_average(q ** (n - 1), q * (q - 1), [
        (q, q - 1, scalings), (1, q, translations)]) == counting.count_polynomial_classes(q, n)
    for fixed in ({4: scalings[4]}, {**scalings, 3: 0}):
        with pytest.raises(AssertionError, match=r"order 4 are keyed by \[(2, 3, )?4\], not by its orders"):
            oracle._burnside_average(q ** (n - 1), q * (q - 1), [
                (q, q - 1, fixed), (1, q, translations)])


def test_orbit_count_poly_budget():
    with pytest.raises(BudgetExceededError):
        orbit_count_poly(F5, 6, budget=100)
    with pytest.raises(BudgetExceededError):
        burnside_count_poly(F5, 6, budget=100)
    with pytest.raises(ValueError):
        orbit_count_poly(F5, 0)
    with pytest.raises(ValueError):
        burnside_count_poly(F5, 0)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_poly_equivalence_partitions_agree(monkeypatch, q, n):
    # Each polynomial's key is read off its coefficients: no gcd, so no
    # normalize.
    monkeypatch.setattr(ratmap, "gcd", lambda f, g: pytest.fail("gcd was called"))
    assert poly_equivalence_partitions_agree(field_of_order(q), n)


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4) for n in (1, 2, 3)])
def test_poly_key_rows_index_the_subfield_key(q, n):
    # The lookup of poly_equivalence_partitions_agree: f/1 has the echelon
    # rows (f, 1), from X^n down, since f(0) = 0.
    F = field_of_order(q)
    engine = KeyPermutations(F, n)
    one = Poly.one(F)
    listed = set(map(engine.rank, engine.keys))
    for f in classify.normalized_polys(F, n):
        want = engine.rank(subfield_key(normalize(Poly(F, f), one)))
        assert want in listed
        assert engine.rank((f[::-1], (0,) * n + (1,))) == want, f


# -- appendix mirrors ----------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_coprime_pair_mirrors(q, monkeypatch):
    # The four coprime-pair mirrors read the sieve alone: no gcd runs.
    from ffrat import oracle, polyring

    def refuse(f, g):
        raise AssertionError("gcd called")
    monkeypatch.setattr(oracle, "gcd", refuse)
    monkeypatch.setattr(polyring, "gcd", refuse)
    F = field_of_order(q)
    for m in range(4):
        for n in range(4):
            assert count_coprime_pairs(F, m, n) == counting.coprime_monic_pairs(q, m, n)
            assert (count_coprime_nonzero_const(F, m, n)
                    == counting.coprime_pairs_nonzero_constant(q, m, n))
    for n in range(1, 4):
        assert count_coprime_pairs_upto(F, n) == counting.coprime_monic_pairs_upto(q, n)
    for n in range(4):
        assert count_rational_functions(F, n) == counting.rational_function_count(q, n)


@pytest.mark.parametrize("q,n", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
def test_rational_function_count_mirror(q, n):
    F = field_of_order(q)
    assert count_rational_functions(F, n) == counting.rational_function_count(q, n)


SELF_DUAL_GRID = [(q, i) for q in (2, 3, 4, 5, 7, 8, 9) for i in range(4 if q <= 4 else 3)]
SELF_DUAL_GRID += [(2, 4), (3, 4)]     # even degree with a free digit pair


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_self_dual_and_reversal_mirrors(q):
    ctx = make_ext(field_of_order(q))
    top = 4 if q <= 5 else 3
    for i in range(top):
        assert count_self_dual(ctx, i) == counting.self_dual_count(q, i)
        assert count_reversal_coprime(ctx, i) == counting.reversal_coprime_count(q, i)
    for i in range(top - 1):
        for j in range(top - 1):
            assert (count_self_dual_coprime_pairs(ctx, i, j)
                    == counting.self_dual_coprime_pairs(q, i, j))


@pytest.mark.parametrize("q,i", SELF_DUAL_GRID)
def test_self_dual_walk_matches_scalar_filter(q, i):
    ctx = make_ext(field_of_order(q))
    walked = list(oracle._self_dual_walk(ctx, i))
    assert len(walked) == len(set(walked))
    assert set(walked) == {g.coeffs for g in self_dual_polys(ctx, i)}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_self_dual_walk_holds_every_product_with_the_reversal(q):
    # The reversal sieve clears the multiples of the monic h*h*, h(0) != 0,
    # only as multiples of the self-dual polynomials that the walk lists.
    ctx = make_ext(field_of_order(q))
    walked = set(oracle._self_dual_walk(ctx, 2))
    for h in monic_polys(ctx.ext, 1):
        if h.coeffs[0]:
            assert (h * conj_reverse(h, ctx)).monic().coeffs in walked, h


@pytest.mark.parametrize("q,i", SELF_DUAL_GRID)
def test_reversal_sieve_matches_gcd_loop(q, i):
    ctx = make_ext(field_of_order(q))
    assert count_reversal_coprime(ctx, i) == reversal_coprime_by_gcd(ctx, i)


def test_self_dual_mirrors_call_gcd_once_per_pair_only(monkeypatch):
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return gcd(f, g)
    monkeypatch.setattr(oracle, "gcd", counted)
    ctx = make_ext(F3)
    for i in range(4):
        count_self_dual(ctx, i)
        count_reversal_coprime(ctx, i)
    assert calls == []
    report = verify_grid([2], [1], kinds=("appendix-lemmas",))
    assert report.failed == 0
    # Pairs of self-dual polynomials of degrees 0..2 each: (q^2 + 2q + 2)^2.
    assert len(calls) == 100


def test_appendix_cell_builds_each_coprime_table_once(monkeypatch):
    # The four coprime-pair mirrors share one table per (m, n) in the cell,
    # 16 in all, though their 47 checks read 47 tables.
    from ffrat import polyring
    builds = []

    def counted(F, m, n):
        builds.append((m, n))
        return polyring.coprime_flags(F, m, n)
    monkeypatch.setattr(oracle, "coprime_flags", counted)
    report = verify_grid([3], [1], kinds=("appendix-lemmas",))
    assert (report.total, report.failed) == (60, 0)
    assert sorted(builds) == [(m, n) for m in range(4) for n in range(4)]


# -- verification grid ---------------------------------------------------------


def test_verify_grid_smoke():
    report = verify_grid([2], [1, 2], kinds=("frakN", "frakM"))
    assert report.total == 12
    assert report.failed == 0
    assert report.skipped == 0
    assert all(c.passed for c in report.checks)
    assert {c.name.split("/")[0] for c in report.checks} == {"frakN", "frakM"}


def test_verify_grid_fix_formulas():
    report = verify_grid([3], [2], kinds=("fix-formulas",))
    assert report.total == 8          # one check per conjugacy class
    assert report.failed == 0


def test_verify_grid_appendix_runs_once_per_q():
    once = verify_grid([2], [1], kinds=("appendix-lemmas",))
    twice = verify_grid([2], [1, 2, 3], kinds=("appendix-lemmas",))
    assert once.total == twice.total
    assert once.failed == twice.failed == 0


def test_verify_grid_counts_skips():
    # Both frakN methods enumerate the 81 keys and are named; the
    # low-degree table enumerates nothing and runs.
    report = verify_grid([3], [3], kinds=("frakN",), budget=10)
    assert [(c.name, c.passed) for c in report.checks] == [("frakN/lowdeg", True)]
    assert report.skipped == 1
    assert report.skipped_cells == [SkippedCell(
        3, 3, "frakN", "frakN/burnside: q=3 n=3 needs 81 keys, budget is 10; "
                       "frakN/orbit: q=3 n=3 needs 81 keys, budget is 10")]
    report = verify_grid([2], [4], kinds=("frakN",), budget=63)
    assert [(c.name, c.passed) for c in report.checks] == [("frakN/lowdeg", True)]
    assert [c.reason for c in report.skipped_cells] == [
        "frakN/burnside: q=2 n=4 needs 64 keys, budget is 63; "
        "frakN/orbit: q=2 n=4 needs 64 keys, budget is 63"]
    appendix = verify_grid([2], [1], kinds=("appendix-lemmas",), budget=-1)
    assert (appendix.total, appendix.skipped) == (0, 1)
    assert appendix.skipped_cells == [
        SkippedCell(2, None, "appendix-lemmas", "q=2 n=3 needs 64 polynomials, budget is -1")]


def test_verify_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_grid([2], [1], kinds=("burnside",))
    with pytest.raises(ValueError):
        verify_grid([6], [1])


def test_verify_grid_parallel_matches_sequential():
    seq = verify_grid([2, 3], [1, 2], kinds=("frakM",), jobs=1)
    par = verify_grid([2, 3], [1, 2], kinds=("frakM",), jobs=2)
    assert par.total == seq.total
    assert par.failed == seq.failed == 0
    assert [c.name for c in par.checks] == [c.name for c in seq.checks]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, starting no worker."""
    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_verify_grid_pool_is_capped_at_one_worker_per_cell(monkeypatch):
    import concurrent.futures
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    report = verify_grid([2, 3], [1], kinds=("frakM",), jobs=100000)
    assert _RecordingPool.sizes == [2]
    assert (report.total, report.failed) == (6, 0)
    verify_grid([2, 3], [1, 2], kinds=("frakM",), jobs=3)
    assert _RecordingPool.sizes == [2, 3]
    # One cell, or one job, runs in this process with no pool at all.
    verify_grid([2], [1], kinds=("frakM",), jobs=100000)
    verify_grid([2, 3], [1], kinds=("frakM",), jobs=1)
    assert _RecordingPool.sizes == [2, 3]


def test_verify_grid_rejects_fewer_than_one_job():
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            verify_grid([2], [1], kinds=("frakM",), jobs=jobs)


def test_report_json_shape():
    report = verify_grid([2], [1], kinds=("frakN",))
    obj = report.to_json_obj()
    assert set(obj) == {"checks", "skipped_cells", "summary"}
    assert obj["skipped_cells"] == []
    assert obj["summary"] == {"total": report.total, "failed": 0, "skipped": 0}
    for entry in obj["checks"]:
        assert list(entry) == ["name", "q", "n", "expected", "actual",
                               "pass", "elapsed_ms"]
        assert isinstance(entry["expected"], str)
        assert isinstance(entry["actual"], str)
        assert entry["pass"] is True
        assert entry["elapsed_ms"] >= 0
    json.dumps(obj)                   # must be serializable as-is


def test_verify_kinds_vocabulary():
    assert VERIFY_KINDS == ("fix-formulas", "frakN", "frakM", "appendix-lemmas")
