import threading
from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrespec import (DEFINITIONAL, FAST, LEFT, RIGHT, TWO_SIDED,
                       BasisTooLarge, ImproperIdeal, NotAnIdeal, allow_large,
                       enumerate_serre_ideals, gallery_names,
                       is_completely_prime, is_semiprime, is_serre_ideal,
                       is_serre_prime, labels_from_mask, load_gallery,
                       mask_from_labels, minimal_primes_over,
                       pairs_inside, product_support, quotient_ring,
                       serre_closure, serre_spec, truncate_to_ring)
from serrespec import ideals
from serrespec.gallery import quantum_plane
from serrespec.ideals import down_sets

from ladder import (diagonal, matrix_corner, proper_quotients,
                    upper_triangular)
from oracles import canonical_key, combination_subsets, naive_enumerate, \
    naive_ideal_witness, naive_is_serre_ideal, naive_product_support, \
    scan_enumerate, scan_pairs_inside, worklist_closure
from strategies import incidence_quotients, preorders


@pytest.fixture(scope="module")
def gallery():
    return {name: load_gallery(name) for name in gallery_names()}


def members(ring, labels):
    return mask_from_labels(ring, labels)


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def test_is_serre_ideal_witness_zx2_1():
    ring = load_gallery("zx2-1")
    ok, witness = is_serre_ideal(ring, members(ring, ["x"]))
    assert not ok
    g, b, e = witness
    assert (ring.labels[g], ring.labels[b], ring.labels[e]) == ("x", "x", "1")


def test_zero_subset_is_ideal():
    ring = load_gallery("ising")
    assert is_serre_ideal(ring, 0) == (True, None)


def test_zx2_x_singleton_is_ideal():
    ring = load_gallery("zx2-x")
    assert is_serre_ideal(ring, members(ring, ["x"])) == (True, None)


def test_is_serre_ideal_matches_naive(gallery):
    for ring in gallery.values():
        for side in (LEFT, RIGHT, TWO_SIDED):
            for m in range(1 << ring.size):
                assert is_serre_ideal(ring, m, side)[0] \
                    == naive_is_serre_ideal(ring, m, side)


def test_is_serre_ideal_witness_is_the_first_escape(gallery):
    for ring in gallery.values():
        for side in (LEFT, RIGHT, TWO_SIDED):
            for m in range(1 << ring.size):
                witness = naive_ideal_witness(ring, m, side)
                assert is_serre_ideal(ring, m, side) \
                    == (witness is None, witness), (ring.name, side, m)


def test_closure_examples():
    ising = load_gallery("ising")
    assert serre_closure(ising, members(ising, ["sigma"])) \
        == ising.full_mask
    s3 = load_gallery("rep-s3")
    assert serre_closure(s3, members(s3, ["s"])) == s3.full_mask
    assert serre_closure(ising, 0) == 0


def test_closure_is_a_closure_operator(gallery):
    # idempotent, extensive, monotone; fixpoints = enumerated ideals
    for ring in gallery.values():
        ideals = set(enumerate_serre_ideals(ring))
        for gens in range(1 << ring.size):
            closed = serre_closure(ring, gens)
            assert gens & ~closed == 0
            assert serre_closure(ring, closed) == closed
            assert closed in ideals
        for gens in range(1 << ring.size):
            closed = serre_closure(ring, gens)
            bigger = gens
            for extra in range(ring.size):
                sup = serre_closure(ring, bigger | 1 << extra)
                assert closed & ~sup == 0


def _closure_rings():
    """The gallery, qplane-trunc-0..3, tri-1..5, tri-block-3, diag-1..5,
    matrix-corner-2 and every quotient of those by a nonzero proper
    ideal."""
    rings = [load_gallery(name) for name in gallery_names()]
    rings += [truncate_to_ring(quantum_plane(), d) for d in range(4)]
    rings += [upper_triangular(k) for k in range(1, 6)]
    rings += [upper_triangular(3, blocks=True), matrix_corner(2)]
    rings += [diagonal(k) for k in range(1, 6)]
    return rings + proper_quotients(rings)


def _assert_worklist_closures(ring):
    # every generator and every pair of generators, on each side
    n = ring.size
    gens = [1 << g | 1 << h for g in range(n) for h in range(g, n)]
    for side in (LEFT, RIGHT, TWO_SIDED):
        for m in gens:
            assert serre_closure(ring, m, side) \
                == worklist_closure(ring, m, side), (ring.name, side, m)


def test_frontier_closures_equal_the_worklist():
    for ring in _closure_rings():
        _assert_worklist_closures(ring)


@settings(max_examples=150, deadline=None)
@given(incidence_quotients())
def test_frontier_closures_equal_the_worklist_on_drawn_rings(ring):
    _assert_worklist_closures(ring)


def test_enumerate_examples():
    zx = load_gallery("zx2-1")
    assert [labels_from_mask(zx, i) for i in enumerate_serre_ideals(zx)] \
        == [[], ["1", "x"]]
    ti = load_gallery("two-idem")
    assert [labels_from_mask(ti, i) for i in enumerate_serre_ideals(ti)] \
        == [[], ["a"], ["b"], ["a", "b"]]
    m2 = load_gallery("m2-block")
    assert list(enumerate_serre_ideals(m2)) == [0, m2.full_mask]


def test_enumerate_matches_naive_and_closure_fixpoints(gallery):
    for ring in gallery.values():
        for side in (LEFT, RIGHT, TWO_SIDED):
            got = list(enumerate_serre_ideals(ring, side))
            assert sorted(got) == naive_enumerate(ring, side)
            fixpoints = {serre_closure(ring, m, side)
                         for m in range(1 << ring.size)}
            assert set(got) == fixpoints


def test_enumerate_equals_the_exhaustive_scan_in_order(gallery):
    rings = list(gallery.values())
    rings += [truncate_to_ring(quantum_plane(), d) for d in range(4)]
    rings += [upper_triangular(k) for k in range(1, 6)]
    rings += [diagonal(k) for k in (1, 2, 7, 15)]
    for ring in rings:
        assert ring.size <= 15
        for side in (LEFT, RIGHT, TWO_SIDED):
            got = list(enumerate_serre_ideals(ring, side))
            assert got == scan_enumerate(ring, side), (ring.name, side)


@pytest.mark.parametrize("degree", [6, 7])
def test_quantum_plane_truncations_past_the_guard(degree):
    # n = 28, 36: far beyond a 2^n scan; C(D+2) ideals, and the only prime
    # is the ideal of all monomials of positive degree
    ring = truncate_to_ring(quantum_plane(), degree)
    with allow_large():
        ideals = enumerate_serre_ideals(ring)
        assert len(ideals) == catalan(degree + 2)
        assert serre_spec(ring).primes \
            == [ring.full_mask & ~members(ring, ["1"])]


@pytest.mark.parametrize("k", range(1, 8))
def test_upper_triangular_closed_forms(k):
    ring = upper_triangular(k)
    with allow_large():
        count = {side: len(enumerate_serre_ideals(ring, side))
                 for side in (LEFT, RIGHT, TWO_SIDED)}
        assert count == {TWO_SIDED: catalan(k + 1), LEFT: factorial(k + 1),
                         RIGHT: factorial(k + 1)}
        assert len(serre_spec(ring).primes) == k


@pytest.mark.parametrize("k", [1, 3, 12])
def test_diagonal_closed_forms(k):
    ring = diagonal(k)
    for side in (LEFT, RIGHT, TWO_SIDED):
        assert len(enumerate_serre_ideals(ring, side)) == 2 ** k
    primes = serre_spec(ring).primes
    # the complements of single idempotents, the one dropping d_k first
    assert primes == [ring.full_mask & ~(1 << i) for i in reversed(range(k))]


def test_enumerate_order_is_cardinality_then_lex():
    ti = load_gallery("two-idem")
    out = list(enumerate_serre_ideals(ti))
    keys = [(m.bit_count(), labels_from_mask(ti, m)) for m in out]
    assert keys == sorted(keys)


def brute_down_sets(closures):
    """Every subset closed under the closures, sorted by canonical_key."""
    n = len(closures)
    return sorted((m for m in range(1 << n)
                   if all(not closures[g] & ~m
                          for g in range(n) if m >> g & 1)),
                  key=canonical_key)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(preorders())
def test_down_sets_come_out_in_canonical_order(closures):
    n = len(closures)
    assert down_sets(closures, (1 << n) - 1) == brute_down_sets(closures)


@pytest.fixture
def searches(monkeypatch):
    """The closures each down-set search was started on: the search, and
    only the search, transposes them first."""
    started = []

    def spy(closures, transpose=ideals.transpose):
        started.append(closures)
        return transpose(closures)

    monkeypatch.setattr(ideals, "transpose", spy)
    return started


@pytest.mark.parametrize("n", range(15))
def test_discrete_orders_list_every_subset_without_a_search(n, searches):
    closures = [1 << g for g in range(n)]
    assert down_sets(closures, (1 << n) - 1) == brute_down_sets(closures)
    assert searches == []


@pytest.mark.parametrize("bits", [(), (0,), (7,), (0, 3, 5, 9, 12),
                                  (1, 2, 11), (0, 1, 2, 3, 12)])
def test_discrete_orders_list_the_subsets_of_a_gapped_mask(bits, searches):
    # a full mask with gaps: the subsets of its bits only, each
    # cardinality in the order combinations gives it
    full = sum(1 << g for g in bits)
    assert down_sets([1 << g for g in range(13)], full) \
        == combination_subsets(full)
    assert searches == []


@pytest.mark.parametrize("n, g, h", [(2, 1, 0), (2, 0, 1), (6, 0, 5),
                                     (9, 6, 2), (12, 11, 10)])
def test_one_comparable_pair_takes_the_search(n, g, h, searches):
    # h below g rules out the down-sets holding g but not h, a quarter
    closures = [1 << i for i in range(n)]
    closures[g] |= 1 << h
    found = down_sets(closures, (1 << n) - 1)
    assert found == brute_down_sets(closures)
    assert len(found) == 3 << n - 2
    assert searches == [closures]


def test_one_sided_lattices_differ_on_m2():
    m2 = load_gallery("m2-block")
    two = set(enumerate_serre_ideals(m2, TWO_SIDED))
    left = set(enumerate_serre_ideals(m2, LEFT))
    # column span {e11, e21} is a left ideal but not two-sided
    col = members(m2, ["e11", "e21"])
    assert col in left and col not in two
    # a mask carries no side, so every two-sided predicate must refuse it
    for call in (lambda: is_serre_prime(m2, col, FAST),
                 lambda: is_serre_prime(m2, col, DEFINITIONAL),
                 lambda: is_completely_prime(m2, col),
                 lambda: is_semiprime(m2, col, FAST),
                 lambda: is_semiprime(m2, col, DEFINITIONAL),
                 lambda: minimal_primes_over(m2, col),
                 lambda: quotient_ring(m2, col)):
        with pytest.raises(NotAnIdeal):
            call()


def test_guard_refuses_large_basis():
    ring = truncate_to_ring(quantum_plane(), 5)  # 21 < guard, builds fine
    assert ring.size == 21
    big = truncate_to_ring(quantum_plane(), 6)   # 28 > guard
    with pytest.raises(BasisTooLarge):
        enumerate_serre_ideals(big)


def test_guard_refuses_only_a_lattice_not_yet_built():
    # the guard is checked where an uncached lattice would be built: once
    # allow_large() has built the two-sided lattice, later calls read it
    big = truncate_to_ring(quantum_plane(), 6)
    with allow_large():
        ideals = enumerate_serre_ideals(big)
    assert enumerate_serre_ideals(big) is ideals
    assert serre_spec(big).primes == [big.full_mask & ~members(big, ["1"])]
    with pytest.raises(BasisTooLarge):
        enumerate_serre_ideals(big, LEFT)  # a side not yet built
    fresh = truncate_to_ring(quantum_plane(), 6)
    for call in (enumerate_serre_ideals, serre_spec):
        with pytest.raises(BasisTooLarge):
            call(fresh)


def test_allow_large_holds_in_its_block_and_context_only():
    def fresh():
        return truncate_to_ring(quantum_plane(), 6)  # n = 28 > guard

    refused = []

    def in_thread():
        try:
            enumerate_serre_ideals(fresh())
        except BasisTooLarge:
            refused.append(True)

    with allow_large():
        assert len(enumerate_serre_ideals(fresh())) == catalan(8)
        with allow_large(False):
            with pytest.raises(BasisTooLarge):
                enumerate_serre_ideals(fresh())
        assert len(serre_spec(fresh()).primes) == 1
        # a new thread starts in a fresh context, so it is guarded
        thread = threading.Thread(target=in_thread)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert refused == [True]
    with pytest.raises(BasisTooLarge):
        enumerate_serre_ideals(fresh())
    with pytest.raises(ZeroDivisionError):
        with allow_large():
            1 / 0
    with pytest.raises(BasisTooLarge):
        enumerate_serre_ideals(fresh())


def test_product_support_examples():
    ti = load_gallery("two-idem")
    assert product_support(ti, members(ti, ["a"]), members(ti, ["b"])) == 0
    ising = load_gallery("ising")
    assert product_support(ising, ising.full_mask, ising.full_mask) \
        == ising.full_mask
    zx = load_gallery("zx2-x")
    x = members(zx, ["x"])
    assert product_support(zx, x, x) == x


def test_product_support_matches_naive(gallery):
    for ring in gallery.values():
        ideals = list(enumerate_serre_ideals(ring))
        for i in ideals:
            for j in ideals:
                assert product_support(ring, i, j) \
                    == naive_product_support(ring, i, j)


PAIR_RINGS = {name: load_gallery(name) for name in gallery_names()}
PAIR_RINGS.update((ring.name, ring) for ring in
                  [upper_triangular(2), upper_triangular(3),
                   upper_triangular(4), upper_triangular(3, blocks=True),
                   diagonal(4), matrix_corner(2),
                   matrix_corner(2, blocks=False)])


@st.composite
def pair_scans(draw):
    """A ring, a list of up to 7 masks (lattice ideals and arbitrary
    subsets, the full mask among them, repeats allowed) and a target that
    is an ideal or an arbitrary subset.  Subsets of at most three basis
    elements and their complements make I*J and J*I often fall on
    different sides of the target."""
    ring = PAIR_RINGS[draw(st.sampled_from(sorted(PAIR_RINGS)))]
    full = ring.full_mask
    ideals = st.sampled_from(enumerate_serre_ideals(ring))
    few = st.sets(st.integers(0, ring.size - 1), min_size=1, max_size=3).map(
        lambda bits: sum(1 << b for b in bits))
    masks = st.one_of(ideals, few, st.integers(0, full), st.just(full))
    target = st.one_of(ideals, few, few.map(lambda m: full & ~m))
    return ring, draw(st.lists(masks, max_size=7)), draw(target)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(pair_scans())
def test_pairs_inside_is_the_pair_scan_in_order(case):
    ring, subsets, target = case
    expected = scan_pairs_inside(ring, subsets, target)
    assert list(pairs_inside(ring, subsets, target)) == expected
    assert list(pairs_inside(ring, iter(subsets), target)) == expected


@settings(max_examples=200, derandomize=True, deadline=None)
@given(pair_scans())
def test_the_first_pair_comes_before_any_later_subset_is_read(case):
    ring, subsets, target = case
    read = []

    def counted():
        for j in subsets:
            read.append(j)
            yield j

    first = next(pairs_inside(ring, counted(), target), None)
    n = len(subsets)
    # the first row completes its pair (subsets[0], subsets[c]) when it
    # reads subsets[c]; a later row needs every subset listed
    cells = [(r, c) for r in range(n) for c in range(n)
             if not naive_product_support(ring, subsets[r], subsets[c])
             & ~target]
    if not cells:
        assert first is None
        assert len(read) == n
        return
    r, c = cells[0]
    assert first == (subsets[r], subsets[c])
    assert len(read) == (c + 1 if r == 0 else n)


def test_intersection_of_ideals_is_ideal(gallery):
    for ring in gallery.values():
        ideals = list(enumerate_serre_ideals(ring))
        for i, j in combinations(ideals, 2):
            assert is_serre_ideal(ring, i & j)[0]


def test_product_lands_in_intersection(gallery):
    for ring in gallery.values():
        ideals = list(enumerate_serre_ideals(ring))
        for i in ideals:
            for j in ideals:
                assert product_support(ring, i, j) & ~(i & j) == 0


def test_quotient_examples():
    zx = load_gallery("zx2-x")
    q = quotient_ring(zx, members(zx, ["x"]))
    assert q.labels == ("1",)
    assert q.tensor == {(0, 0): {(0, 0): 1}}

    qp = load_gallery("qplane-trunc-2")
    face_x = serre_closure(qp, members(qp, ["x"]))
    assert labels_from_mask(qp, face_x) == ["x", "x2", "xy"]
    quo = quotient_ring(qp, face_x)
    assert quo.labels == ("1", "y", "y2")

    ising = load_gallery("ising")
    assert quotient_ring(ising, 0) == ising


def test_quotient_improper_rejected():
    ising = load_gallery("ising")
    with pytest.raises(ImproperIdeal):
        quotient_ring(ising, ising.full_mask)


def test_quotient_valid_for_every_proper_ideal(gallery):
    # validation inside build_ring re-checks associativity and positivity
    for ring in gallery.values():
        for ideal in enumerate_serre_ideals(ring):
            if ideal == ring.full_mask:
                continue
            q = quotient_ring(ring, ideal)
            assert q.size == ring.size - ideal.bit_count()
