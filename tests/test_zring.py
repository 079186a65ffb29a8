import random
import tracemalloc
from functools import partial, reduce
from operator import or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from serrespec import (INT, LAURENT, Coefficient, RingError,
                       RingValidationError, UnknownLabel, block_view,
                       build_ring, corner_ring, enumerate_serre_ideals,
                       gallery_names, labels_from_mask, load_gallery,
                       mask_from_labels, parse_ring_file, quotient_ring,
                       serialize_ring, truncate_to_ring)
from serrespec import spectrum, zring
from serrespec.gallery import quantum_plane
from serrespec.ideals import principal_closures, product_support, serre_closure
from serrespec.monomial import MonomialRing
from serrespec.zring import (SIDES, AssociativityViolation,
                             BlockIncompatibility, DuplicateLabel,
                             UnitViolation, ZPlusRing,
                             _associativity_violations, _by_middle,
                             _packed_mismatches, _packing_pays,
                             _sparse_mismatches, is_commutative, iter_bits,
                             mask_of, select_by_mask, sub_ring, subset_key)

from arith import add, basis, mul, support
from conftest import SEED
from ladder import diagonal, matrix_corner, upper_triangular
from oracles import (flat_rows, index_tuple, looped_packing_pays,
                     naive_middle_support, naive_mismatches,
                     naive_product_mask, naive_triple_support,
                     naive_violations, rebuilt_sub_ring, table_of)


@pytest.fixture(scope="module")
def gallery():
    return {name: load_gallery(name) for name in gallery_names()}


def test_ising_builds_and_has_three_elements():
    ring = load_gallery("ising")
    assert ring.size == 3
    assert ring.labels == ("1", "eps", "sigma")


BROKEN_ISING = {
    ("1", "1"): {"1": 1}, ("1", "eps"): {"eps": 1},
    ("1", "sigma"): {"sigma": 1},
    ("eps", "1"): {"eps": 1}, ("eps", "eps"): {"1": 1},
    ("eps", "sigma"): {"1": 1},              # wrong: should be sigma
    ("sigma", "1"): {"sigma": 1}, ("sigma", "eps"): {"sigma": 1},
    ("sigma", "sigma"): {"1": 1, "eps": 1}}


def test_broken_ising_reports_associativity_triple():
    with pytest.raises(RingValidationError) as exc:
        build_ring(["1", "eps", "sigma"], BROKEN_ISING, INT, units=["1"])
    triples = [(v.alpha, v.beta, v.gamma) for v in exc.value.violations
               if isinstance(v, AssociativityViolation)]
    assert ("eps", "eps", "sigma") in triples


def test_matrix_units_block_ring_valid():
    ring = load_gallery("m2-block")
    assert ring.size == 4
    assert ring.blocks is not None and ring.units is not None


def test_duplicate_label_rejected():
    with pytest.raises(RingValidationError):
        build_ring(["a", "a"], {}, INT)
    # refused before the label map merges the two a's and leaves one of
    # them without a block
    with pytest.raises(RingValidationError) as exc:
        build_ring(["a", "a"], {}, blocks={"a": ("A", "A")})
    assert exc.value.violations == [DuplicateLabel("a")]


def test_negative_constant_rejected():
    message = r"\(a, a\) -> a must be nonnegative, got "
    with pytest.raises(RingError, match=message + "-1$"):
        build_ring(["a"], {("a", "a"): {"a": -1}}, INT)
    laurent = Coefficient(LAURENT, {1: -2, 0: 1})
    with pytest.raises(RingError, match=message + r"1 \+ -2q$"):
        build_ring(["a"], {("a", "a"): {"a": laurent}}, LAURENT)


@pytest.mark.parametrize("build", [
    lambda: build_ring(["a", "b"], {(0.9, 0): {0: 1}}, INT),
    lambda: build_ring(["a", "b"], {(0, 0): {1.0: 1}}, INT),
    lambda: build_ring(["a", "b"], {}, INT, units=[0.5]),
])
def test_float_basis_keys_are_refused(build):
    # int() would truncate 0.9 and 0.5 to a and 1.0 to b
    with pytest.raises(UnknownLabel, match="neither a label nor an index"):
        build()


def test_block_incompatibility_detected():
    tensor = {("a", "b"): {"a": 1}}
    blocks = {"a": ("A", "A"), "b": ("B", "B")}
    with pytest.raises(RingValidationError) as exc:
        build_ring(["a", "b"], tensor, INT, blocks)
    assert any("block" in v.describe() for v in exc.value.violations)


def _tri_block_edit(*rows):
    """tri-block-3's table with the rows (a, b, output) set, by label,
    in reversed order: the block check lists its violations sorted by
    (a, b), not in the table's order."""
    tri = upper_triangular(3, blocks=True)
    tensor = table_of(tri)
    for a, b, g in rows:
        tensor[tri.index(a), tri.index(b)] = {tri.index(g): 1}
    with pytest.raises(RingValidationError) as exc:
        build_ring(tri.labels, dict(reversed(tensor.items())), tri.mode,
                   dict(zip(tri.labels, tri.blocks)), tri.units)
    return exc.value.violations


@pytest.mark.parametrize("rows, expected", [
    ([("e2_2", "e2_3", "e2_2"), ("e1_2", "e2_3", "e1_2")], [
        BlockIncompatibility("e1_2", "e2_3", "output e1_2 lies in block "
                             "('2', '1'), expected (3, 1)"),
        BlockIncompatibility("e2_2", "e2_3", "output e2_2 lies in block "
                             "('2', '2'), expected (3, 2)")]),
    ([("e2_3", "e1_1", "e1_3"), ("e1_2", "e1_2", "e1_2")], [
        BlockIncompatibility("e1_2", "e1_2", "target of e1_2 is 1 but "
                             "source of e1_2 is 2; the product must vanish"),
        BlockIncompatibility("e2_3", "e1_1", "target of e1_1 is 1 but "
                             "source of e2_3 is 3; the product must vanish")]),
], ids=["output-in-another-block", "product-across-blocks"])
def test_block_violations_come_first_in_product_order(rows, expected):
    violations = _tri_block_edit(*rows)
    assert violations[:len(expected)] == expected
    assert not any(isinstance(v, BlockIncompatibility)
                   for v in violations[len(expected):])


def test_unit_violation_detected():
    # a is not idempotent, so it cannot be declared a unit
    with pytest.raises(RingValidationError) as exc:
        build_ring(["a"], {("a", "a"): {"a": 2}}, INT, units=["a"])
    assert any(isinstance(v, UnitViolation) for v in exc.value.violations)


def test_multiply_ising_sigma_squared():
    ring = load_gallery("ising")
    one, eps, sigma = map(basis, range(3))
    assert mul(ring.tensor, sigma, sigma) == add(one, eps)


def test_multiply_by_zero():
    ring = load_gallery("ising")
    assert mul(ring.tensor, basis(ring.index("sigma")), {}) == {}


def test_zx2_1_square_is_one():
    ring = load_gallery("zx2-1")
    x = basis(ring.index("x"))
    assert mul(ring.tensor, x, x) == basis(ring.index("1"))


def test_signed_multiplication_cancels():
    # (x - 1)(x + 1) = x^2 - 1 = 0 in Z[x]/(x^2 - 1)
    ring = load_gallery("zx2-1")
    one, x = ring.index("1"), ring.index("x")
    assert not mul(ring.tensor, add(basis(x), basis(one, -1)),
                   add(basis(x), basis(one)))


def test_support_examples():
    ring = load_gallery("ising")
    x = add(basis(ring.index("1")), basis(ring.index("eps")))
    assert labels_from_mask(ring, support(x)) == ["1", "eps"]
    assert support({}) == 0
    qp = load_gallery("qplane-trunc-2")
    scaled = basis(qp.index("x"), 2, 1)
    assert labels_from_mask(qp, support(scaled)) == ["x"]


def test_triple_support_examples():
    # the two-step supports supp(b_a b_b) and supp(b_a b_t b_b); primality
    # reads product_support(<a>, <b>) in their place, which holds them and
    # generates the same ideal
    ising = load_gallery("ising")
    s = ising.index("sigma")
    assert labels_from_mask(ising, naive_triple_support(ising, s, s)) \
        == ["1", "eps", "sigma"]
    assert labels_from_mask(ising, spectrum._square(ising, s)) \
        == ["1", "eps", "sigma"]
    m2 = load_gallery("m2-block")
    a, b = m2.index("e12"), m2.index("e21")
    t = naive_triple_support(m2, a, b)
    assert labels_from_mask(m2, t) == ["e11"]
    up = principal_closures(m2)
    assert serre_closure(m2, t) \
        == serre_closure(m2, product_support(m2, up[a], up[b]))
    ti = load_gallery("two-idem")
    a, b = ti.index("a"), ti.index("b")
    assert naive_triple_support(ti, a, b) == 0
    up = principal_closures(ti)
    assert product_support(ti, up[a], up[b]) == 0


def test_triple_support_matches_naive_oracle(gallery):
    for ring in gallery.values():
        up = principal_closures(ring)
        for a in range(ring.size):
            assert spectrum._square(ring, a) \
                == product_support(ring, up[a], up[a])
            for b in range(ring.size):
                triple = naive_triple_support(ring, a, b)
                principal = product_support(ring, up[a], up[b])
                assert not triple & ~principal, (ring.name, a, b)
                assert serre_closure(ring, triple) \
                    == serre_closure(ring, principal), (ring.name, a, b)


def test_product_masks_match_naive_oracle(gallery):
    for ring in gallery.values():
        for a in range(ring.size):
            for b in range(ring.size):
                assert ring.product_masks[a][b] == naive_product_mask(ring, a, b)


TABLES = ("product_masks", "left_absorb", "right_absorb", "two_sided_absorb")


def _table_rings():
    rings = [load_gallery(name) for name in gallery_names()]
    rings += [upper_triangular(k) for k in range(1, 5)]
    rings += [diagonal(k) for k in range(1, 5)]
    rings += [matrix_corner(2), matrix_corner(2, blocks=False)]
    # no units and x * x = y beside x * y = 0: the bare product is the
    # only nonzero one
    rings.append(build_ring(["x", "y"], {("x", "x"): {"y": 1}},
                            name="square-zero"))
    return rings


def _naive_tables(ring):
    n = ring.size
    pm = tuple(tuple(naive_product_mask(ring, a, b) for b in range(n))
               for a in range(n))
    left = tuple(reduce(or_, (pm[b][g] for b in range(n))) for g in range(n))
    right = tuple(reduce(or_, pm[g]) for g in range(n))
    return {
        "product_masks": pm,
        "left_absorb": left,
        "right_absorb": right,
        "two_sided_absorb": tuple(x | y for x, y in zip(left, right)),
    }


def test_build_ring_stores_no_table():
    ring = upper_triangular(3)
    assert not set(TABLES) & set(vars(ring))
    assert ring.right_absorb is ring.right_absorb
    assert "right_absorb" in vars(ring)
    assert "left_absorb" not in vars(ring)


@pytest.mark.parametrize("ring", _table_rings(), ids=lambda r: r.name)
def test_directly_constructed_ring_derives_the_build_ring_tables(ring):
    direct = ZPlusRing(ring.name, ring.labels, ring.mode, ring.tensor,
                       ring.blocks, ring.units)
    naive = _naive_tables(ring)
    for name in TABLES:
        assert getattr(direct, name) == getattr(ring, name) == naive[name]


@pytest.mark.parametrize("ring", _table_rings(), ids=lambda r: r.name)
def test_columns_hold_each_nonzero_product_of_their_right_factor(ring):
    pm = _naive_tables(ring)["product_masks"]
    n = ring.size
    assert len(ring.columns) == n
    for b, column in enumerate(ring.columns):
        assert len(column) == len(set(column))
        assert set(column) == {(a, pm[a][b]) for a in range(n) if pm[a][b]}


@pytest.mark.parametrize("ring", [r for r in _table_rings() if r.units],
                         ids=lambda r: r.name)
def test_bare_product_lies_in_the_middle_factor_union_with_units(ring):
    for a in range(ring.size):
        for b in range(ring.size):
            middle = naive_middle_support(ring, a, b)
            assert not ring.product_masks[a][b] & ~middle


def _random_positive(ring, rng):
    x = {}
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(ring.size)
        e = 0 if ring.mode == INT else rng.randint(-2, 2)
        x[i, e] = rng.randint(1, 3)
    return x


def test_multiplication_associative_randomized(gallery):
    rng = random.Random(SEED)
    for ring in gallery.values():
        for _ in range(1000):
            x = _random_positive(ring, rng)
            y = _random_positive(ring, rng)
            z = _random_positive(ring, rng)
            t = ring.tensor
            assert mul(t, mul(t, x, y), z) == mul(t, x, mul(t, y, z))


def test_support_homomorphism_on_positive_elements(gallery):
    rng = random.Random(SEED + 1)
    for ring in gallery.values():
        for _ in range(300):
            x = _random_positive(ring, rng)
            y = _random_positive(ring, rng)
            expected = 0
            for a, _ in x:
                for b, _ in y:
                    expected |= ring.product_masks[a][b]
            assert support(mul(ring.tensor, x, y)) == expected


def test_declared_units_act_as_identity(gallery):
    for ring in gallery.values():
        if ring.units is None:
            continue
        unit_sum = add(*map(basis, ring.units))
        for g in range(ring.size):
            e = basis(g)
            assert mul(ring.tensor, unit_sum, e) == e
            assert mul(ring.tensor, e, unit_sum) == e


def test_mask_label_round_trip(gallery):
    for ring in gallery.values():
        for m in range(min(1 << ring.size, 64)):
            labels = labels_from_mask(ring, m)
            assert mask_from_labels(ring, labels) == m


def test_labels_from_mask_lists_the_members_in_basis_order(gallery):
    # n from 1 to 21: masks of one, two and three bytes
    rings = list(gallery.values())
    rings += [upper_triangular(k) for k in range(1, 7)]
    assert {ring.size for ring in rings} >= {1, 9, 15, 21}
    for ring in rings:
        for side in SIDES:
            for m in enumerate_serre_ideals(ring, side):
                assert labels_from_mask(ring, m) \
                    == [ring.labels[i] for i in iter_bits(m)]


def test_select_by_mask_picks_the_items_at_the_set_bits():
    # any sequence, not only a ring's labels: the topology report selects
    # from its point names; items need not be hashable
    rng = random.Random(SEED)
    items = [[i] for i in range(40)]
    masks = list(range(1 << 8)) + [rng.getrandbits(40) for _ in range(500)]
    for m in masks:
        assert select_by_mask(items, m) == [items[i] for i in iter_bits(m)]
    assert select_by_mask("abc", 0b101) == ["a", "c"]
    assert select_by_mask((), 0) == []


def test_subset_key_orders_by_cardinality_then_index_tuple():
    rng = random.Random(SEED)
    masks = list(range(1 << 10))
    masks += [rng.getrandbits(40) for _ in range(2000)]
    # mixed widths up to 1,001 bits, and few bits far apart, so that
    # masks of one cardinality differ in width
    masks += [rng.getrandbits(rng.randint(1, 1001)) for _ in range(500)]
    masks += [sum(1 << b for b in rng.sample(range(1001), k))
              for k in (1, 2, 3, 5) for _ in range(200)]
    rng.shuffle(masks)
    assert sorted(masks, key=subset_key) \
        == sorted(masks, key=lambda m: (m.bit_count(), index_tuple(m)))


def _assert_sub_ring(parent, sub, keep):
    """sub is parent restricted to the basis mask keep: the same labels,
    blocks and units in order, and each product of two kept basis
    elements is the parent's product with the dropped elements removed."""
    old = list(iter_bits(keep))
    assert sub.labels == tuple(parent.labels[i] for i in old)
    if parent.blocks is not None:
        assert sub.blocks == tuple(parent.blocks[i] for i in old)
    if parent.units is not None:
        assert sub.units == {new for new, i in enumerate(old)
                             if i in parent.units}
    new = {i: k for k, i in enumerate(old)}
    for a, pa in enumerate(old):
        for b, pb in enumerate(old):
            got = mul(sub.tensor, basis(a), basis(b))
            full = mul(parent.tensor, basis(pa), basis(pb))
            assert got == {(new[g], e): v for (g, e), v in full.items()
                           if g in new}


# every block ring of the gallery and of the ladder
BLOCK_RINGS = {name: partial(load_gallery, name) for name in
               ("two-idem", "m2-block", "m3-block", "mixed-3obj")}
BLOCK_RINGS.update({f"tri-block-{k}": partial(upper_triangular, k, True)
                    for k in (1, 2, 3, 4)})
BLOCK_RINGS.update({f"diag-block-{k}": partial(diagonal, k, True)
                    for k in (1, 2, 3)})
BLOCK_RINGS.update({f"matrix-corner-{k}": partial(matrix_corner, k)
                    for k in (1, 2, 3)})


@pytest.mark.parametrize("name", sorted(BLOCK_RINGS))
def test_corner_ring_is_the_sub_ring_of_its_block(name):
    ring = BLOCK_RINGS[name]()
    view = block_view(ring)
    for obj in view.objects:
        corner, old = corner_ring(ring, obj)
        _assert_sub_ring(ring, corner, mask_of(old))
        # exactly the object's unit, and one object
        assert corner.units == {old.index(view.diagonal_units[obj])}
        assert corner.blocks == ((obj, obj),) * corner.size


def test_quotient_ring_is_the_sub_ring_off_each_proper_ideal(gallery):
    for ring in gallery.values():
        for ideal in enumerate_serre_ideals(ring):
            if ideal != ring.full_mask:
                _assert_sub_ring(ring, quotient_ring(ring, ideal),
                                 ring.full_mask & ~ideal)


# x x = c x and x y = y x = c y with c = q^-1 + 2 + q^3
MULTI_TERM = build_ring(
    ["1", "x", "y"],
    {("1", "1"): {"1": 1}, ("1", "x"): {"x": 1}, ("x", "1"): {"x": 1},
     ("1", "y"): {"y": 1}, ("y", "1"): {"y": 1},
     ("x", "x"): {"x": Coefficient(LAURENT, {-1: 1, 0: 2, 3: 1})},
     ("x", "y"): {"y": Coefficient(LAURENT, {-1: 1, 0: 2, 3: 1})},
     ("y", "x"): {"y": Coefficient(LAURENT, {-1: 1, 0: 2, 3: 1})}},
    LAURENT, units=["1"], name="multi-term")


def _tensor_producers():
    """producer name -> the rings it makes."""
    built = [load_gallery(name) for name in gallery_names()]
    built += [upper_triangular(3, True), diagonal(3), matrix_corner(2),
              MULTI_TERM]
    cube = MonomialRing(3, ((0, 0, 0), (1, 0, 0), (1, 1, 0)))
    return {
        "build_ring": built,
        "parse_ring_file": [parse_ring_file(serialize_ring(r))
                            for r in built],
        "quotient": [quotient_ring(r, ideal) for r in built
                     for ideal in enumerate_serre_ideals(r)
                     if ideal != r.full_mask],
        "corner": [corner_ring(BLOCK_RINGS[name](), obj)[0]
                   for name in sorted(BLOCK_RINGS)
                   for obj in block_view(BLOCK_RINGS[name]()).objects],
        "truncate_to_ring": [truncate_to_ring(quantum_plane(), 3),
                             truncate_to_ring(cube, 2)],
    }


TENSOR_PRODUCERS = _tensor_producers()


@pytest.mark.parametrize("producer", sorted(TENSOR_PRODUCERS))
def test_tensor_rows_are_nonempty_flat_rows_of_positive_ints(producer):
    for ring in TENSOR_PRODUCERS[producer]:
        n = ring.size
        for (a, b), row in ring.tensor.items():
            assert 0 <= a < n and 0 <= b < n and row
            for (g, e), v in row.items():
                assert type(g) is type(e) is type(v) is int
                assert 0 <= g < n and v > 0
                assert e == 0 or ring.mode == LAURENT


SUB_RING_BASES = [load_gallery(name) for name in gallery_names()]
SUB_RING_BASES += [upper_triangular(3, True), matrix_corner(2), MULTI_TERM]


def _outcome(build):
    """The ring, or what build_ring's checks refused in it."""
    try:
        return build()
    except RingValidationError as exc:
        return [tuple(v) for v in exc.violations]
    except RingError as exc:
        return str(exc)


@pytest.mark.parametrize("ring", SUB_RING_BASES, ids=lambda r: r.name)
def test_sub_ring_equals_the_label_keyed_rebuild(ring):
    # every nonempty mask, so the restrictions that fail a check too
    outcomes = set()
    for keep in range(1, ring.full_mask + 1):
        got = _outcome(lambda: sub_ring(ring, keep, "sub"))
        assert got == _outcome(lambda: rebuilt_sub_ring(ring, keep, "sub"))
        outcomes.add(type(got))
    assert ZPlusRing in outcomes


def _shared_groups(tensor):
    """The lists of two or more pairs whose products are one row object."""
    groups = {}
    for pair, row in tensor.items():
        groups.setdefault(id(row), []).append(pair)
    return [pairs for pairs in groups.values() if len(pairs) > 1]


# parsed from their files, where every repeated product text is one row
SHARING_BASES = [parse_ring_file(serialize_ring(r)) for r in SUB_RING_BASES
                 + [upper_triangular(3), diagonal(3), matrix_corner(2, False),
                    load_gallery("verlinde-sl2-6")]]
SHARING_BASES = [r for r in SHARING_BASES if _shared_groups(r.tensor)]


@pytest.mark.parametrize("ring", SHARING_BASES, ids=lambda r: r.name)
def test_quotients_keep_the_parent_rows_shared(ring):
    groups = _shared_groups(ring.tensor)
    still_shared = 0
    for ideal in enumerate_serre_ideals(ring):
        if ideal == ring.full_mask:
            continue
        keep = ring.full_mask & ~ideal
        sub = sub_ring(ring, keep, "quotient")
        assert sub == rebuilt_sub_ring(ring, keep, "quotient")
        new = {old: i for i, old in enumerate(iter_bits(keep))}
        for pairs in groups:
            rows = [sub.tensor.get((new.get(a), new.get(b)))
                    for a, b in pairs]
            rows = [row for row in rows if row is not None]
            assert all(row is rows[0] for row in rows)
            still_shared += len(rows) > 1
    assert still_shared


def _broken_ising():
    labels = ("1", "eps", "sigma")
    idx = {lab: i for i, lab in enumerate(labels)}
    tensor = {(idx[a], idx[b]): {idx[g]: Coefficient.of(v, INT)
                                 for g, v in row.items()}
              for (a, b), row in BROKEN_ISING.items()}
    return labels, tensor, INT, frozenset({0})


def _edited(name, edit):
    """A gallery ring's index-keyed tensor after one in-place edit."""
    def case():
        ring = load_gallery(name)
        tensor = table_of(ring)
        edit(tensor)
        return ring.labels, tensor, ring.mode, ring.units
    return case


def _shift_q(tensor):       # 1 * x = q x
    tensor[(0, 1)] = {1: Coefficient.q_power(1)}


def _extra_term(tensor):    # f1 * f1 = f0 + f2 + f4
    tensor[(1, 1)] = {**tensor[(1, 1)], 4: Coefficient(INT, {0: 1})}


def _drop_product(tensor):  # eps * sigma = 0, so (eps sigma) sigma = 0
    del tensor[(1, 2)]


def _unit_squares_wrong(tensor):  # a * a = a + b
    one = Coefficient(INT, {0: 1})
    tensor[(0, 0)] = {0: one, 1: one}


BROKEN_TABLES = {
    "broken-ising": _broken_ising,
    "qplane-trunc-2-shifted-q": _edited("qplane-trunc-2", _shift_q),
    "verlinde-sl2-4-extra-term": _edited("verlinde-sl2-4", _extra_term),
    "ising-dropped-product": _edited("ising", _drop_product),
    "two-idem-non-idempotent-unit": _edited("two-idem", _unit_squares_wrong),
}


@pytest.mark.parametrize("case", sorted(BROKEN_TABLES))
def test_violation_list_matches_oracle_in_order(case):
    labels, tensor, mode, units = BROKEN_TABLES[case]()
    expected = naive_violations(labels, tensor, units)
    with pytest.raises(RingValidationError) as exc:
        build_ring(labels, tensor, mode, units=units)
    assert [tuple(v) for v in exc.value.violations] == expected


def test_oracle_sees_a_zero_left_product_with_nonzero_right_side():
    labels, tensor, mode, units = BROKEN_TABLES["ising-dropped-product"]()
    found = naive_violations(labels, tensor, units)
    assert ("eps", "sigma", "sigma", "1", "0", "1 + eps") in found
    labels, tensor, mode, units = BROKEN_TABLES["qplane-trunc-2-shifted-q"]()
    assert ("1", "1", "x", "x", "(q)*x", "(q^2)*x") in \
        naive_violations(labels, tensor, units)


def _found(labels, tensor, mode, units=None):
    """build_ring's violations as the oracle's tuples ([] for a ring)."""
    try:
        build_ring(labels, tensor, mode, units=units)
    except RingValidationError as exc:
        return [tuple(v) for v in exc.violations]
    return []


def _table(mode, rows):
    """Index-keyed tensor from {(a, b): {g: {exponent: value}}}."""
    return {ab: {g: Coefficient(mode, terms) for g, terms in row.items()}
            for ab, row in rows.items()}


# In each, one (ab)c coefficient is exactly max row mass * max constant
# (2 * 1), and a packing one bit narrower carries it into the next field,
# where the other side of the triple has a 1: (2, 2, 2) in int mode, with
# b0 and b1 adjacent; (1, 1, 1) in Laurent mode, with 2 b2 beside q b0.
WIDTH_BOUNDARY = {
    "int": _table(INT, {(2, 2): {0: {0: 1}, 1: {0: 1}},
                        (0, 2): {0: {0: 1}}, (1, 2): {0: {0: 1}},
                        (2, 0): {1: {0: 1}}}),
    "laurent": _table(LAURENT, {(1, 1): {0: {0: 1}, 2: {0: 1}},
                                (0, 1): {2: {0: 1}}, (2, 1): {2: {0: 1}},
                                (1, 0): {0: {1: 1}}}),
}


ROW = {(1, 0): 1}


@pytest.mark.parametrize("flat, commutative", [
    ({}, True),
    ({(0, 0): ROW, (1, 1): {(0, 2): 3}}, True),           # diagonal only
    ({(0, 1): ROW, (1, 0): ROW, (2, 2): ROW}, True),
    ({(0, 1): ROW}, False),                               # ab, no ba
    ({(1, 0): ROW}, False),                               # ba, no ab
    ({(0, 1): ROW, (1, 0): ROW, (2, 0): ROW}, False),     # one more ba
    ({(0, 1): ROW, (1, 0): {(1, 0): 2}}, False),
    ({(0, 1): ROW, (1, 0): {(1, 1): 1}}, False),
], ids=["empty", "diagonal", "symmetric", "one-sided-ab", "one-sided-ba",
        "unpaired-ba", "coefficient", "exponent"])
def test_commutativity_compares_each_unordered_pair(flat, commutative):
    assert is_commutative(flat) == commutative
    assert commutative == all(flat.get((b, a)) == row
                              for (a, b), row in flat.items())


def _packed(flat, n):
    """The packed path run alone on a table of n basis elements."""
    return _packed_mismatches(flat, _by_middle(flat, n))


def test_width_boundary_tables_hold_the_carried_violation():
    labels = ("b0", "b1", "b2")
    assert ("b2", "b2", "b2", "b0", "(2)*b0", "b1") \
        in naive_violations(labels, WIDTH_BOUNDARY[INT])
    assert ("b1", "b1", "b1", "b0", "(2)*b2", "(q)*b0") \
        in naive_violations(labels, WIDTH_BOUNDARY[LAURENT])
    # build_ring sends these small tables down the sparse path, so the
    # packed path runs here, at the exact width
    for table in WIDTH_BOUNDARY.values():
        flat = flat_rows(table)
        assert _packed(flat, 3) == naive_mismatches(flat, 3)


EXPONENT_SCALES = {
    "small": lambda rng: rng.randint(-3, 3),
    # every exponent a multiple of 10^9: packs as densely as the small ones
    "scaled": lambda rng: rng.randint(-3, 3) * 10 ** 9,
    # 10^9 beside exponents 1 apart: too wide to pack
    "wide": lambda rng: rng.choice([-1, 0, 1, 10 ** 9]),
}


@st.composite
def positive_tables(draw):
    """A positive table: its shape from Hypothesis, its entries from a
    drawn seed (one draw per table keeps generation fast)."""
    n = draw(st.sampled_from([3, 4, 5, 1, 2]))
    mode = draw(st.sampled_from([INT, LAURENT]))
    exponent = EXPONENT_SCALES[draw(st.sampled_from(sorted(EXPONENT_SCALES)))]
    top = draw(st.sampled_from([3, 2 ** 80]))
    density = draw(st.sampled_from([0.2, 0.6, 1.0]))
    with_units = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    tensor = {}
    for a in range(n):
        for b in range(n):
            if rng.random() >= density:
                continue
            tensor[(a, b)] = {
                g: Coefficient(mode, {
                    exponent(rng) if mode == LAURENT else 0:
                        rng.randint(1, top)
                    for _ in range(rng.randint(1, 3))})
                for g in rng.sample(range(n), rng.randint(1, n))}
    units = None
    if with_units:
        units = frozenset(rng.sample(range(n), rng.randint(1, n)))
    return tuple(f"g{i}" for i in range(n)), tensor, mode, units


@given(positive_tables())
@example((("b0", "b1", "b2"), WIDTH_BOUNDARY[INT], INT, None))
@example((("b0", "b1", "b2"), WIDTH_BOUNDARY[LAURENT], LAURENT, None))
@settings(max_examples=400)
def test_violation_list_matches_oracle_on_drawn_tables(case):
    labels, tensor, mode, units = case
    assert _found(labels, tensor, mode, units) \
        == naive_violations(labels, tensor, units)


def _perturbation_bases():
    rings = [load_gallery(name) for name in gallery_names()]
    rings += [upper_triangular(k) for k in (2, 3)]
    rings += [diagonal(k) for k in (3, 4)] + [matrix_corner(1)]
    return [r for r in rings if r.tensor]


PERTURBATION_BASES = _perturbation_bases()


@st.composite
def perturbed_tables(draw, bases=PERTURBATION_BASES):
    """A gallery or ladder ring's table after one drawn edit: a raised,
    dropped or extra term, or (Laurent mode) a shifted exponent.  On a
    commutative base (Verlinde, diagonal) the kind "symmetric" makes one
    such edit at both (a, b) and (b, a): the table stays commutative, so
    the packed check takes its commutative route when the table packs."""
    ring = draw(st.sampled_from(bases))
    mode = ring.mode
    tensor = table_of(ring)
    ab = draw(st.sampled_from(sorted(tensor)))
    g = draw(st.sampled_from(sorted(tensor[ab])))
    edits = ["raise", "drop", "extra"] + ["shift"] * (mode == LAURENT)
    symmetric = ["symmetric"] * is_commutative(tensor)
    kind = draw(st.sampled_from(edits + symmetric))
    pairs = {ab}
    if kind == "symmetric":  # tensor[ab] == tensor[ba] on these bases
        pairs.add(ab[::-1])
        kind = draw(st.sampled_from(edits))
    row = tensor[ab]
    if kind == "drop":
        del row[g]
    elif kind == "extra":
        h = draw(st.integers(0, ring.size - 1))
        terms = dict(row[h].terms) if h in row else {}
        terms[0] = terms.get(0, 0) + 1
        row[h] = Coefficient(mode, terms)
    else:
        terms = dict(row[g].terms)
        e = draw(st.sampled_from(sorted(terms)))
        if kind == "raise":
            terms[e] += draw(st.integers(1, 2 ** 80))
        else:  # 10^9 leaves the table too wide to pack
            terms[e + draw(st.sampled_from([-1, 1, 10 ** 9]))] = \
                terms.pop(e)
        row[g] = Coefficient(mode, terms)
    for pair in pairs:
        tensor[pair] = row
    tensor = {pair: row for pair, row in tensor.items() if row}
    return ring.labels, tensor, mode, ring.units


@given(perturbed_tables())
@settings(max_examples=150)
def test_violation_list_matches_oracle_on_perturbed_rings(case):
    labels, tensor, mode, units = case
    assert _found(labels, tensor, mode, units) \
        == naive_violations(labels, tensor, units)


@given(st.one_of(positive_tables(), perturbed_tables()))
@settings(max_examples=300)
def test_packed_and_sparse_paths_find_the_oracle_triples(case):
    # build_ring runs only the path the rules pick; here both run, and
    # each triple's two rows are the flat-row products (ab)c and a(bc)
    labels, tensor, mode, _ = case
    flat, n = flat_rows(tensor), len(labels)
    expected = naive_mismatches(flat, n)
    assert _sparse_mismatches(_by_middle(flat, n)) == expected
    packed = _packed(flat, n)
    assert packed is None or packed == expected


def _coefficient_table(flat):
    """An int-mode flat table as the Coefficient table the oracle reads."""
    return {ab: {g: Coefficient(INT, {e: v}) for (g, e), v in row.items()}
            for ab, row in flat.items()}


def _raise_one(flat, ab):  # ab no longer equals ba
    row = flat[ab]
    key = min(row)
    flat[ab] = {**row, key: row[key] + 1}


def _add_unit_term(flat, ab):
    row = flat[ab]
    flat[ab] = {**row, (0, 0): row.get((0, 0), 0) + 1}


def _raise_both(flat, ab):  # one new row object at ab and ba
    _raise_one(flat, ab)
    flat[ab[::-1]] = flat[ab]


# each makes one edit at f1 f2 ("symmetric": the same edit at f2 f1 too)
# in a copy of a parsed Verlinde table, whose other rows stay shared
SHARED_ROW_EDITS = {
    "none": lambda flat, ab: None,
    "raise": _raise_one,
    "drop": lambda flat, ab: flat.pop(ab),
    "extra": _add_unit_term,
    "symmetric": _raise_both,
}


@pytest.mark.parametrize("edit", sorted(SHARED_ROW_EDITS))
@pytest.mark.parametrize("k", range(2, 17))
def test_shared_rows_are_summed_as_their_copies(k, edit):
    ring = parse_ring_file(serialize_ring(load_gallery(f"verlinde-sl2-{k}")))
    flat = dict(ring.tensor)
    SHARED_ROW_EDITS[edit](flat, (1, 2))
    assert _shared_groups(flat)
    copied = {pair: dict(row) for pair, row in flat.items()}
    found = _associativity_violations(ring.labels, flat)
    assert found == _associativity_violations(ring.labels, copied)
    assert [tuple(v) for v in found] \
        == naive_violations(ring.labels, _coefficient_table(flat))
    assert bool(found) == (edit != "none")
    # the packed path alone, also where the work rule routes the table
    # sparse: with its kept sums it finds the copy's triples and rows
    packed = _packed(flat, ring.size)
    assert packed is not None
    assert packed == _packed(copied, ring.size) == naive_mismatches(
        copied, ring.size)


# rings with units: one unit (qplane, verlinde), blocks (tri, matrix
# units, mixed-3obj) and several units without blocks (tri, diagonal,
# the matrix sum)
UNIT_BASES = [load_gallery(name) for name in (
    "qplane-trunc-3", "verlinde-sl2-5", "m3-block", "mixed-3obj")] + [
    upper_triangular(4, blocks=True), matrix_corner(2), upper_triangular(4),
    diagonal(4), matrix_corner(2, blocks=False)]


@st.composite
def unit_row_edits(draw):
    """A ring with units after one drawn edit to a unit row, a row u g or
    g u with u a unit: the row dropped, redirected (moved to a drawn unit
    on the same side, with a drawn output) or given an extra term."""
    ring = draw(st.sampled_from(UNIT_BASES))
    units, n = ring.units, ring.size
    tensor = table_of(ring)
    a, b = draw(st.sampled_from(sorted(
        ab for ab in tensor if ab[0] in units or ab[1] in units)))
    row = tensor.pop((a, b))
    kind = draw(st.sampled_from(["drop", "redirect", "extra"]))
    if kind == "redirect":
        u = draw(st.sampled_from(sorted(units)))
        g = b if a in units else a
        h = draw(st.sampled_from([g, *range(n)]))
        tensor[(u, g) if a in units else (g, u)] = {
            h: Coefficient(ring.mode, {0: 1})}
    elif kind == "extra":
        h = draw(st.integers(0, n - 1))
        terms = dict(row[h].terms) if h in row else {}
        terms[0] = terms.get(0, 0) + 1
        tensor[a, b] = {**row, h: Coefficient(ring.mode, terms)}
    return ring.labels, tensor, ring.mode, units


@given(st.one_of(perturbed_tables(UNIT_BASES), unit_row_edits()))
@settings(max_examples=200)
def test_unit_triples_are_skipped_only_where_they_associate(case):
    labels, tensor, mode, units = case
    expected = naive_violations(labels, tensor, units)
    assert _found(labels, tensor, mode, units) == expected
    flat = flat_rows(tensor)
    skip = zring._unit_check(labels, flat, units)[1]
    skipped = _associativity_violations(labels, flat, skip)
    assert skipped == _associativity_violations(labels, flat)
    assert [tuple(v) for v in skipped] == [v for v in expected if len(v) == 6]


def test_every_unit_base_skips_its_unit_triples():
    for ring in UNIT_BASES:
        assert zring._unit_check(ring.labels, ring.tensor, ring.units) \
            == ([], ring.units)


def _peak_mb(fn):
    tracemalloc.start()
    try:
        out = fn()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return out, peak / 2 ** 20


def _qplane_times_billion():
    ring = load_gallery("qplane-trunc-3")
    return {ab: {g: Coefficient(LAURENT, {e * 10 ** 9: v
                                          for e, v in c.terms.items()})
                 for g, c in row.items()}
            for ab, row in table_of(ring).items()}


def _raise_value(tensor):  # still every exponent a multiple of 10^9
    ab = max(tensor)
    g, c = max(tensor[ab].items())
    tensor[ab][g] = Coefficient(LAURENT,
                                {**c.terms, 0: c.terms.get(0, 0) + 1})


def _shift_exponent(tensor):  # one exponent off the 10^9 grid
    ab = max(tensor)
    g, c = max(tensor[ab].items())
    tensor[ab][g] = Coefficient(LAURENT, {e + 1: v
                                          for e, v in c.terms.items()})


@pytest.mark.parametrize("edit", [None, _raise_value, _shift_exponent])
def test_billion_scaled_exponents_stay_small(edit):
    ring = load_gallery("qplane-trunc-3")
    tensor = _qplane_times_billion()
    if edit is not None:
        edit(tensor)
    found, peak = _peak_mb(
        lambda: _found(ring.labels, tensor, LAURENT, ring.units))
    assert peak < 5
    assert found == naive_violations(ring.labels, tensor, ring.units)
    assert bool(found) == (edit is not None)
    # the gcd keeps the 10^9 grid packed; one exponent off it does not
    assert (_packed(flat_rows(tensor), ring.size) is None) \
        == (edit is _shift_exponent)


def _carry_group(m, k, gap):
    """Z/m x Z/k with b_x b_y = q^(gap * carry_m + carry_k) b_(x + y):
    associative (each carry is a 2-cocycle), unit b_0, exponents
    {0, 1, gap, gap + 1}."""
    tensor = {}
    for x in range(m * k):
        for y in range(m * k):
            (i, j), (ii, jj) = divmod(x, k), divmod(y, k)
            e = gap * (i + ii >= m) + (j + jj >= k)
            tensor[(x, y)] = {((i + ii) % m) * k + (j + jj) % k:
                              Coefficient(LAURENT, {e: 1})}
    return tuple(f"g{x}" for x in range(m * k)), tensor


@pytest.mark.parametrize("perturbed", [False, True])
def test_exponent_gaps_stay_within_the_packing_budget(perturbed):
    # packed, each slice entry would be an int of about W * n * 6000 bits
    labels, tensor = _carry_group(5, 8, 3000)
    if perturbed:  # the last product moves from q^3001 to q^3002
        _shift_exponent(tensor)
    units = frozenset({0})
    found, peak = _peak_mb(lambda: _found(labels, tensor, LAURENT, units))
    assert peak < 5
    assert found == naive_violations(labels, tensor, units)
    assert bool(found) == perturbed
    assert _packed(flat_rows(tensor), len(labels)) is None


LADDER = {
    "verlinde-sl2-40": lambda: load_gallery("verlinde-sl2-40"),
    "qplane-trunc-12": lambda: load_gallery("qplane-trunc-12"),
    "tri-16": lambda: upper_triangular(16),
    "diag-150": lambda: diagonal(150),
}


def _flat(labels, table):
    return labels, flat_rows(table)


def _table_of(ring):
    return _flat(ring.labels, table_of(ring))


def _parsed(name):
    """A gallery ring's labels and flat rows as its file parses, one row
    object for each distinct product text."""
    ring = parse_ring_file(serialize_ring(load_gallery(name)))
    return ring.labels, ring.tensor


# name -> (labels and flat rows, the paths the check runs): dense fusion
# tables pack, their partial products outweighing the packed path's cells
# (the sparse check takes seconds on verlinde-sl2-40), also parsed, with
# their shared rows' kept sums in the memory rule; small or sparse tables
# go sparse without packing anything, their n^3 slice cells outweighing
# the partial products; the carry group passes the work rule, but the
# memory rule refuses its exponent range
PACKED = [("_packed_mismatches", True)]
SPARSE = [("_sparse_mismatches", True)]
ROUTES = {
    **{f"verlinde-sl2-{k}": (
        lambda k=k: _table_of(load_gallery(f"verlinde-sl2-{k}")), PACKED)
       for k in (6, 16)},
    "verlinde-sl2-40": (lambda: _table_of(LADDER["verlinde-sl2-40"]()),
                        PACKED),
    "tri-6": (lambda: _table_of(upper_triangular(6)), SPARSE),
    "diag-10": (lambda: _table_of(diagonal(10)), SPARSE),
    "qmono-3-deg3": (lambda: _table_of(truncate_to_ring(
        MonomialRing(3, ((0, 0, 0), (1, 0, 0), (1, 1, 0))), 3)), SPARSE),
    "diag-150": (lambda: _table_of(LADDER["diag-150"]()), SPARSE),
    "qplane-trunc-12": (lambda: _table_of(LADDER["qplane-trunc-12"]()),
                        SPARSE),
    "carry-5x8-gap-3000": (lambda: _flat(*_carry_group(5, 8, 3000)),
                           [("_packed_mismatches", False)] + SPARSE),
    "parsed-verlinde-sl2-40": (lambda: _parsed("verlinde-sl2-40"), PACKED),
}


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_packing_rule_picks_the_route(name, monkeypatch):
    make, route = ROUTES[name]
    labels, flat = make()
    calls = []
    for path in ("_packed_mismatches", "_sparse_mismatches"):
        def spy(*args, run=getattr(zring, path), path=path):
            found = run(*args)
            calls.append((path, found is not None))
            return found
        monkeypatch.setattr(zring, path, spy)
    assert _associativity_violations(labels, flat) == []
    assert calls == route


def _work_rule_tables():
    for ring in _table_rings():
        yield pytest.param(lambda ring=ring: (ring.labels, ring.tensor),
                           id=ring.name)
    for name, (make, _) in sorted(ROUTES.items()):
        yield pytest.param(make, id=name)


@pytest.mark.parametrize("make", _work_rule_tables())
def test_work_rule_decides_as_weighing_every_term(make):
    # the bound on the heaviest output decides the sparse tables of
    # ROUTES before the per-row pass, and the packed ones after it
    labels, flat = make()
    assert _packing_pays(flat, len(labels)) \
        == looped_packing_pays(flat, len(labels))


@given(perturbed_tables())
@settings(max_examples=100)
def test_work_rule_decides_as_weighing_every_term_on_perturbed_rings(case):
    labels, tensor, _, _ = case
    flat = flat_rows(tensor)
    assert _packing_pays(flat, len(labels)) \
        == looped_packing_pays(flat, len(labels))


@pytest.mark.parametrize("name", sorted(LADDER))
def test_ladder_rings_build_in_small_memory(name):
    ring = LADDER[name]()
    table = table_of(ring)
    built, peak = _peak_mb(lambda: build_ring(
        ring.labels, table, ring.mode, units=ring.units, name=name))
    assert peak < 5
    assert built.product_masks == ring.product_masks
    rng = random.Random(SEED)
    for _ in range(40):
        a, b = rng.randrange(ring.size), rng.randrange(ring.size)
        assert built.product_masks[a][b] == naive_product_mask(ring, a, b)


def test_parsed_fusion_file_validates_in_small_memory():
    # the 1,681 products of verlinde-sl2-40 have 441 distinct texts, and
    # each shared row keeps its n summed ints on the packed path
    ring = load_gallery("verlinde-sl2-40")
    text = serialize_ring(ring)
    parsed, peak = _peak_mb(lambda: parse_ring_file(text))
    assert peak < 5
    assert parsed == ring
    assert 3 * len(set(map(id, parsed.tensor.values()))) < len(parsed.tensor)
