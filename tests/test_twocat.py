import pytest

from serrespec import (FAST, LEFT, RIGHT, TWO_SIDED, MissingBlocks,
                       RingValidationError, allow_large, block_view,
                       build_ring, classify_completely_primes, corner_ring,
                       enumerate_serre_ideals, gallery_names, ideals,
                       is_completely_prime, is_serre_prime, labels_from_mask,
                       load_gallery, quotient_ring, serre_spec, spectrum)
from serrespec.zring import BlockIncompatibility, UnitViolation

from arith import basis, mul
from ladder import (diagonal, matrix_corner, proper_quotients,
                    upper_triangular)
from oracles import corner_classified_cprimes, table_of

BLOCK_RINGS = ["m2-block", "m3-block", "two-idem", "mixed-3obj"]


def brute_completely_primes(ring):
    return [i for i in enumerate_serre_ideals(ring)
            if i != ring.full_mask and is_completely_prime(ring, i)[0]]


def test_a_unit_set_short_of_the_identity_fails_to_build():
    # e11 alone is idempotent, but the unit sum misses the object 2
    m2 = load_gallery("m2-block")
    with pytest.raises(RingValidationError) as exc:
        build_ring(m2.labels, table_of(m2), blocks=dict(enumerate(m2.blocks)),
                   units=["e11"])
    witnesses = {v.witness for v in exc.value.violations
                 if isinstance(v, UnitViolation)}
    assert witnesses and witnesses <= {"e12", "e21", "e22"}


def test_block_view_structure():
    m2 = load_gallery("m2-block")
    view = block_view(m2)
    assert view.objects == ("1", "2")
    assert view.block_masks[("1", "1")] == 1 << m2.index("e11")
    assert view.block_masks[("2", "1")] == 1 << m2.index("e12")
    assert view.diagonal_units["1"] == m2.index("e11")


def test_block_view_requires_blocks_and_units():
    ising = load_gallery("ising")
    with pytest.raises(MissingBlocks):
        block_view(ising)


def test_block_view_refuses_an_object_with_two_units():
    # u v = v u = 0, so u + v is the identity of a valid ring on one object
    ring = build_ring(["u", "v"], {("u", "u"): {"u": 1}, ("v", "v"): {"v": 1}},
                      blocks={"u": ("A", "A"), "v": ("A", "A")},
                      units=["u", "v"])
    with pytest.raises(MissingBlocks, match="^object A declares two units$"):
        block_view(ring)


@pytest.mark.parametrize("labels,tensor,blocks,violation", [
    # u u = u cannot vanish, yet the block check says it must
    (["u"], {("u", "u"): {"u": 1}}, {"u": ("A", "B")},
     BlockIncompatibility("u", "u", "target of u is B but source of u is "
                          "A; the product must vanish")),
    # f runs from A to B; the unit sum times f needs a unit on B, and
    # only A has one
    (["e", "f"], {("e", "e"): {"e": 1}, ("f", "e"): {"f": 1}},
     {"e": ("A", "A"), "f": ("A", "B")},
     UnitViolation(None, "f", "unit sum times f is 0, expected f")),
], ids=["unit-off-the-diagonal", "object-without-a-unit"])
def test_rings_block_view_need_not_refuse_fail_to_build(
        labels, tensor, blocks, violation):
    with pytest.raises(RingValidationError) as exc:
        build_ring(labels, tensor, blocks=blocks, units=labels[:1])
    assert exc.value.violations == [violation]


def test_corner_ring_of_mixed_fixture():
    mixed = load_gallery("mixed-3obj")
    corner, old = corner_ring(mixed, "A")
    assert corner.labels == ("uA",)
    assert old == [mixed.index("uA")]
    assert corner.units == frozenset({0})


def test_classify_examples():
    assert classify_completely_primes(load_gallery("m2-block")) == []
    ti = load_gallery("two-idem")
    out = classify_completely_primes(ti)
    assert [labels_from_mask(ti, p) for p in out] == [["a"], ["b"]]
    # one-object rings degrade to plain filtering
    ising = load_gallery("ising")
    assert classify_completely_primes(ising) == [0]


@pytest.mark.parametrize("name", BLOCK_RINGS)
def test_classify_matches_brute_force(name):
    ring = load_gallery(name)
    classified = classify_completely_primes(ring)
    assert classified == brute_completely_primes(ring)


def ladder_rings():
    # the matrix corners have primes that are not completely prime, in a
    # corner ring (block form) or in the ring itself (plain form)
    rings = [load_gallery(name) for name in BLOCK_RINGS]
    rings += [upper_triangular(k, blocks=True) for k in range(1, 6)]
    rings += [diagonal(k, blocks=True) for k in range(1, 7)]
    rings += [matrix_corner(k, blocks) for k in (1, 2, 3)
              for blocks in (True, False)]
    return rings + proper_quotients(rings)


def test_classify_matches_brute_force_on_the_ladder():
    # the corner-ring classification checks the paper's block theorem
    for ring in ladder_rings():
        classified = classify_completely_primes(ring)
        assert classified == brute_completely_primes(ring), ring.name
        assert classified == corner_classified_cprimes(ring), ring.name


def test_classification_checks_no_complement_to_be_an_ideal(monkeypatch):
    # every principal complement is a proper two-sided ideal already
    rings = ladder_rings() + [load_gallery(name) for name in gallery_names()]
    calls = []
    check = spectrum.require_proper_two_sided

    def counted(ring, members):
        calls.append(members)
        return check(ring, members)

    for module in (ideals, spectrum):
        monkeypatch.setattr(module, "require_proper_two_sided", counted)
    for ring in rings:
        classify_completely_primes(ring)
    assert calls == []


@pytest.mark.parametrize("build", [
    lambda: upper_triangular(7), lambda: upper_triangular(7, blocks=True),
    lambda: upper_triangular(9), lambda: upper_triangular(9, blocks=True),
    lambda: load_gallery("qplane-trunc-7")],
    ids=["tri-7", "tri-block-7", "tri-9", "tri-block-9", "qplane-trunc-7"])
def test_classification_reads_no_lattice(build):
    # n = 28, 45 and 36, past the guard: a lattice listed outside
    # allow_large() would raise, and none is left in the cache
    ring = build()
    classified = classify_completely_primes(ring)
    assert not [side for side in (LEFT, RIGHT, TWO_SIDED)
                if ("ideals", side) in ring.cache]
    with allow_large():
        assert classified == brute_completely_primes(build())


@pytest.mark.parametrize("name", ["m2-block", "m3-block"])
def test_matrix_block_rings_are_simple(name):
    ring = load_gallery(name)
    assert list(enumerate_serre_ideals(ring)) \
        == [0, ring.full_mask]
    spec = serre_spec(ring)
    assert spec.primes == [0]
    assert is_serre_prime(ring, 0, FAST)[0]


def test_quotient_by_classified_prime_is_domain_like():
    # composable products of nonzero classes stay nonzero in the quotient
    for name in gallery_names():
        ring = load_gallery(name)
        for p in classify_completely_primes(ring):
            q = quotient_ring(ring, p)
            for a in range(q.size):
                for b in range(q.size):
                    if q.blocks is not None:
                        if q.blocks[b][1] != q.blocks[a][0]:
                            continue
                    prod = mul(q.tensor, basis(a), basis(b))
                    assert prod, (name, q.labels[a], q.labels[b])
