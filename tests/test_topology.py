from itertools import combinations_with_replacement

import pytest

from serrespec import (BALMER, TWO_SIDED, ZARISKI, RingError, allow_large,
                       build_topology, closed_set, enumerate_serre_ideals,
                       gallery_names, labels_from_mask, load_gallery,
                       mask_from_labels, product_support, serre_closure,
                       serre_spec, specialization_edges, to_dot,
                       truncate_to_ring)
from serrespec.gallery import quantum_plane
from serrespec.ideals import principal_complements

from ladder import diagonal, proper_quotients, upper_triangular
from oracles import sweep_topology


@pytest.fixture(scope="module")
def gallery():
    return {name: load_gallery(name) for name in gallery_names()}


@pytest.fixture(scope="module")
def spectra(gallery):
    return {name: serre_spec(ring) for name, ring in gallery.items()}


def point_index(ring, spec, labels):
    target = mask_from_labels(ring, labels)
    return spec.primes.index(target)


def test_closed_set_examples():
    zx = load_gallery("zx2-x")
    spec = serre_spec(zx)
    x = mask_from_labels(zx, ["x"])
    v_x = closed_set(spec, x, ZARISKI)
    assert v_x == 1 << point_index(zx, spec, ["x"])
    vb_x = closed_set(spec, x, BALMER)
    assert vb_x == 1 << point_index(zx, spec, [])
    assert closed_set(spec, 0, ZARISKI) == (1 << len(spec.primes)) - 1


def test_two_idem_zariski_topology_is_discrete():
    ti = load_gallery("two-idem")
    family = build_topology(ti, ZARISKI)
    assert sorted(e for e, _ in family.sets) == [0b00, 0b01, 0b10, 0b11]


def test_zx2_x_zariski_chain_and_generic_point():
    zx = load_gallery("zx2-x")
    family = build_topology(zx, ZARISKI)
    spec = serre_spec(zx)
    zero = point_index(zx, spec, [])
    x = point_index(zx, spec, ["x"])
    assert sorted(e for e, _ in family.sets) == [0, 1 << x, 0b11]
    assert family.closures[zero] == 0b11  # generic point
    assert family.closures[x] == 1 << x


def test_zx2_x_balmer_chain_is_reversed():
    zx = load_gallery("zx2-x")
    spec = serre_spec(zx)
    zero = point_index(zx, spec, [])
    x = point_index(zx, spec, ["x"])
    family = build_topology(zx, BALMER)
    assert sorted(e for e, _ in family.sets) == [0, 1 << zero, 0b11]
    assert family.empty_set_adjoined  # the zero ideal is prime here
    z_edges = set(specialization_edges(build_topology(zx, ZARISKI)))
    b_edges = set(specialization_edges(family))
    assert z_edges == {(zero, x)}
    assert b_edges == {(j, i) for i, j in z_edges}


def test_singleton_spectrum_closure():
    ising = load_gallery("ising")
    family = build_topology(ising, ZARISKI)
    assert family.closures[0] == 0b1


def test_topology_axioms_both_styles(gallery, spectra):
    for name, ring in gallery.items():
        space = (1 << len(spectra[name].primes)) - 1
        for style in (ZARISKI, BALMER):
            family = build_topology(ring, style)
            extents = {e for e, _ in family.sets}
            assert 0 in extents and space in extents
            for a in extents:
                for b in extents:
                    assert a | b in extents
                    assert a & b in extents


def test_zariski_union_identity(gallery, spectra):
    # V(I) union V(J) = V(closure of the product support)
    for name, ring in gallery.items():
        spec = spectra[name]
        ideals = list(enumerate_serre_ideals(ring))
        for i in ideals:
            for j in ideals:
                left = closed_set(spec, i, ZARISKI) \
                    | closed_set(spec, j, ZARISKI)
                prod = serre_closure(ring, product_support(ring, i, j))
                assert left == closed_set(spec, prod, ZARISKI)


def test_zariski_intersection_identity_families_up_to_three(gallery, spectra):
    for name, ring in gallery.items():
        spec = spectra[name]
        ideals = list(enumerate_serre_ideals(ring))
        for family in combinations_with_replacement(ideals, 3):
            inter = (1 << len(spec.primes)) - 1
            union = 0
            for i in family:
                inter &= closed_set(spec, i, ZARISKI)
                union |= i
            assert inter == closed_set(spec, serre_closure(ring, union),
                                       ZARISKI)


def test_zariski_closed_sets_decompose_into_prime_cones(gallery, spectra):
    # finite basis gives the chain condition for free: every closed set
    # V(I) is the finite combination of cones V(P) over the minimal primes
    # over I, constructively from the product chain (and empty exactly
    # when no prime contains I)
    from serrespec import NoPrimeOver, minimal_primes_over
    for name, ring in gallery.items():
        spec = spectra[name]
        for ideal in enumerate_serre_ideals(ring):
            ext = closed_set(spec, ideal, ZARISKI)
            if ideal == ring.full_mask:
                assert ext == 0
                continue
            try:
                minimal, _ = minimal_primes_over(ring, ideal)
            except NoPrimeOver:
                assert ext == 0
                continue
            combined = 0
            for p in minimal:
                combined |= closed_set(spec, p, ZARISKI)
            assert ext == combined


def test_balmer_generated_sets_closed_under_intersection(gallery, spectra):
    # V_B(X) ∩ V_B(Y) = V_B(X ∪ Y) on generators
    for name, ring in gallery.items():
        if ring.size > 6:
            continue
        spec = spectra[name]
        for x in range(1 << ring.size):
            for y in range(1 << ring.size):
                assert (closed_set(spec, x, BALMER)
                        & closed_set(spec, y, BALMER)) \
                    == closed_set(spec, x | y, BALMER)


def test_tags_name_defining_sets(gallery):
    for name, ring in gallery.items():
        for style in (ZARISKI, BALMER):
            family = build_topology(ring, style)
            spec = serre_spec(ring)
            for extent, tag in family.sets:
                if tag is None:
                    continue
                assert closed_set(spec, tag, style) == extent


def test_dot_export_stable():
    zx = load_gallery("zx2-x")
    family = build_topology(zx, ZARISKI)
    dot = to_dot(zx, family)
    assert dot == ('digraph specialization {\n'
                   '  "{}";\n'
                   '  "{x}";\n'
                   '  "{}" -> "{x}";\n'
                   '}\n')
    assert to_dot(zx, family) == dot


def family_summary(family):
    return (family.sets,
            family.generators_union_closed, family.empty_set_adjoined)


@pytest.fixture(scope="module")
def sweep_rings(gallery):
    """Rings of at most 10 basis elements: the gallery, small ladder rings
    and the proper quotients of all of them."""
    rings = list(gallery.values())
    rings += [truncate_to_ring(quantum_plane(), d) for d in range(4)]
    rings += [upper_triangular(k) for k in range(1, 5)]
    rings += [diagonal(k) for k in range(1, 8)]
    rings += [q for q in proper_quotients(rings) if q.size <= 10]
    assert all(ring.size <= 10 for ring in rings)
    return rings


def test_build_topology_equals_the_sweep(sweep_rings):
    for ring in sweep_rings:
        for style in (ZARISKI, BALMER):
            assert family_summary(build_topology(ring, style)) \
                == sweep_topology(ring, style), (ring.name, style)


@pytest.mark.parametrize("ring", [
    diagonal(8), diagonal(9), upper_triangular(5), upper_triangular(6),
    load_gallery("qplane-trunc-4"), load_gallery("qplane-trunc-5"),
], ids=lambda ring: ring.name)
def test_zariski_topology_equals_the_sweep_on_larger_rings(ring):
    # Zariski only: the Balmer-style sweep visits all 2^n basis subsets
    assert family_summary(build_topology(ring, ZARISKI)) \
        == sweep_topology(ring, ZARISKI)


def test_an_ideal_lies_in_a_prime_exactly_when_it_misses_its_generator(
        sweep_rings):
    # the key fact of the Zariski tags: I is not inside P exactly when
    # g_P is in I, so serre_closure(g_P) is the least ideal not inside P.
    # g_P is read from the complement map, which keys each complement to
    # its first g
    for ring in sweep_rings:
        first = principal_complements(ring)
        up = [serre_closure(ring, 1 << h) for h in range(ring.size)]
        expected = {}
        for g in range(ring.size):
            complement = sum(1 << h for h in range(ring.size)
                             if not up[h] >> g & 1)
            expected.setdefault(complement, g)
        assert list(first.items()) == list(expected.items()), ring.name
        for ideal in enumerate_serre_ideals(ring):
            for p in serre_spec(ring).primes:
                g = first[p]
                assert (not ideal & ~p) == (not ideal >> g & 1), \
                    (ring.name, ideal, p, g)


@pytest.mark.parametrize("style", [ZARISKI, BALMER])
def test_a_discrete_spectrum_of_twelve_points_equals_the_sweep(style):
    # 4,096 extents, listed without a search; the Balmer-style sweep
    # visits all 4,096 basis subsets
    ring = diagonal(12)
    assert family_summary(build_topology(ring, style)) \
        == sweep_topology(ring, style)


def test_unknown_style_is_refused_before_any_work():
    ring = load_gallery("qplane-trunc-5")
    with pytest.raises(RingError, match="^unknown topology style 'nope'$"):
        build_topology(ring, "nope")
    assert ring.cache == {}


@pytest.mark.parametrize("k", [7, 9])
def test_zariski_topology_reads_no_lattice(k):
    # n = 28 and 45, past the guard; 9 primes take two byte tables.  The
    # spectrum is computed inside allow_large() and the lattice it read is
    # dropped, so a Zariski topology that listed it again would raise
    ring = upper_triangular(k)
    with allow_large():
        serre_spec(ring)
    del ring.cache[("ideals", TWO_SIDED)]
    assert family_summary(build_topology(ring, ZARISKI)) \
        == sweep_topology(ring, ZARISKI)


@pytest.mark.parametrize("k", range(1, 8))
@pytest.mark.parametrize("build", [upper_triangular, diagonal])
def test_triangular_and_diagonal_topologies_are_discrete(build, k):
    # k pairwise incomparable primes: every subset is closed in both
    # styles; the Balmer-style generators are the whole space, the k
    # singletons and, unless the zero ideal is the one prime (k = 1),
    # the empty set
    ring = build(k)
    with allow_large():
        zariski = build_topology(ring, ZARISKI)
        balmer = build_topology(ring, BALMER)
    assert zariski.extents == balmer.extents
    assert len(zariski.sets) == 2 ** k
    assert zariski.generators_union_closed
    assert not zariski.empty_set_adjoined
    assert None not in zariski.tags
    assert balmer.generators_union_closed == (k <= 2)
    assert balmer.empty_set_adjoined == (k == 1)
    tagged = 1 if k == 1 else min(k + 2, 2 ** k)
    assert sum(t is not None for t in balmer.tags) == tagged


@pytest.mark.parametrize("degree", [5, 6, 7])
def test_quantum_plane_balmer_topology_past_the_guard(degree):
    # n = 21, 28, 36: one prime, every monomial of positive degree;
    # V_B(X) is the whole point exactly when X lies inside {1}
    ring = truncate_to_ring(quantum_plane(), degree)
    with allow_large():
        family = build_topology(ring, BALMER)
    assert family.sets == [(0, mask_from_labels(ring, ["x"])), (1, 0)]
    assert family.generators_union_closed
    assert not family.empty_set_adjoined
