import pytest
from hypothesis import given
from hypothesis import strategies as st

from serrespec import (FullFace, ImproperIdeal, MonomialRing, RingError,
                       build_monoid_ideal, face_quotient, labels_from_mask,
                       mask_from_labels, monoid_ideal_is_prime,
                       monoid_membership, monomial_label, quotient_ring,
                       serre_closure, truncate_to_ring)
from serrespec.cli import EXIT_INPUT, run_command
from serrespec.gallery import quantum_plane

from arith import basis, mul, support
from oracles import (all_small_gen_sets, box_monoid_prime,
                     labelled_truncation)


def test_build_monoid_ideal_drops_dominating_generators():
    ideal = build_monoid_ideal(2, [(2, 0), (3, 1)])
    assert ideal.gens == ((2, 0),)


def test_build_monoid_ideal_keeps_incomparable():
    ideal = build_monoid_ideal(2, [(1, 0), (0, 1)])
    assert ideal.gens == ((0, 1), (1, 0))


def test_build_monoid_ideal_empty():
    assert build_monoid_ideal(2, []).gens == ()


def test_build_monoid_ideal_dimension_mismatch():
    with pytest.raises(Exception):
        build_monoid_ideal(2, [(1, 0, 0)])


@pytest.mark.parametrize("call", [
    lambda: build_monoid_ideal(2, [(1.5, 0)]),
    lambda: monoid_membership(build_monoid_ideal(2, [(1, 0)]), (1.0, 0)),
    lambda: MonomialRing(2, ((0.5, 0), (1, 0))),
    lambda: face_quotient(quantum_plane(), [0.7]),
])
def test_non_integer_exponents_twists_and_faces_are_refused(call):
    # int() would truncate each of these to a different ring or ideal
    with pytest.raises(RingError, match="must be integers"):
        call()


@pytest.mark.parametrize("call", [
    lambda: MonomialRing(2.0, ((0, 0), (1, 0))),
    lambda: MonomialRing("2", ((0, 0), (1, 0))),
    lambda: truncate_to_ring(quantum_plane(), 2.5),
    lambda: truncate_to_ring(quantum_plane(), 2.0),
])
def test_non_integer_variable_counts_and_degrees_are_refused(call):
    # unchecked, a float count is stored as it is and a float degree
    # fails inside range() with a bare TypeError
    with pytest.raises(RingError, match="must be an integer"):
        call()


def test_membership_examples():
    ideal = build_monoid_ideal(2, [(2, 0)])
    assert monoid_membership(ideal, (3, 1))
    assert not monoid_membership(ideal, (1, 1))
    assert not monoid_membership(build_monoid_ideal(2, []), (5, 5))


def test_prime_decision_examples():
    assert monoid_ideal_is_prime(build_monoid_ideal(2, [(1, 0)])) \
        == (True, (0,))
    holds, witness = monoid_ideal_is_prime(build_monoid_ideal(2, [(2, 0)]))
    assert not holds and witness == ((1, 0), (1, 0))
    holds, witness = monoid_ideal_is_prime(build_monoid_ideal(2, [(1, 1)]))
    assert not holds and witness == ((1, 0), (0, 1))


def test_prime_rejects_improper():
    with pytest.raises(ImproperIdeal):
        monoid_ideal_is_prime(build_monoid_ideal(2, [(0, 0)]))


def test_zero_ideal_is_prime_with_empty_face():
    assert monoid_ideal_is_prime(build_monoid_ideal(2, [])) == (True, ())


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_prime_decision_matches_box_brute_force(nvars):
    # full enumeration: <= 3 generators, entries <= 2, box bound 4
    for gens in all_small_gen_sets(nvars):
        ideal = build_monoid_ideal(nvars, gens)
        holds, payload = monoid_ideal_is_prime(ideal)
        assert holds == box_monoid_prime(ideal.gens or gens, nvars), gens
        if holds:
            face_ideal = build_monoid_ideal(
                nvars, [tuple(1 if j == i else 0 for j in range(nvars))
                        for i in payload])
            assert face_ideal.gens == ideal.gens
        else:
            a, b = payload
            total = tuple(x + y for x, y in zip(a, b))
            assert monoid_membership(ideal, total)
            assert not monoid_membership(ideal, a)
            assert not monoid_membership(ideal, b)


vectors = st.lists(st.integers(min_value=0, max_value=5), min_size=2,
                   max_size=2).map(tuple)


@given(st.lists(vectors, min_size=0, max_size=4), vectors, vectors)
def test_membership_upward_closed(gens, a, b):
    ideal = build_monoid_ideal(2, gens)
    if monoid_membership(ideal, a):
        assert monoid_membership(ideal, tuple(x + y for x, y in zip(a, b)))


@given(st.lists(vectors, min_size=0, max_size=4))
def test_normal_form_idempotent(gens):
    ideal = build_monoid_ideal(2, gens)
    assert build_monoid_ideal(2, ideal.gens).gens == ideal.gens
    for g in ideal.gens:
        assert monoid_membership(ideal, g)
    for g, h in zip(ideal.gens, ideal.gens[1:]):
        assert g < h


@pytest.mark.parametrize("nvars", [0, -1])
@pytest.mark.parametrize("action", [["--truncate", "1"], ["--prime", "1"],
                                    ["--face", "1"]])
def test_cli_rejects_rings_without_variables(nvars, action):
    result = run_command(["monomial", "--vars", str(nvars), "--twist", "",
                          *action])
    assert result.exit_code == EXIT_INPUT
    assert result.report == {
        "error": "input",
        "message": f"a monomial ring needs at least one variable, got {nvars}",
    }


@pytest.mark.parametrize("face, typed", [("0", 0), ("3", 3), ("1,5", 5)])
def test_cli_face_out_of_range_names_the_typed_index(face, typed):
    result = run_command(["monomial", "--vars", "2", "--twist", "0,1;0,0",
                          "--face", face])
    assert result.exit_code == EXIT_INPUT
    assert result.report == {
        "error": "input",
        "message": f"face variable {typed} out of range 1..2",
    }


def test_cli_face_repeated_index_is_the_face_once():
    argv = ["monomial", "--vars", "3", "--twist", "0,0,0;1,0,0;0,0,0",
            "--face"]
    once = run_command(argv + ["2"])
    assert run_command(argv + ["2,2"]) == once
    assert once.report["face"] == [2]
    assert once.report["remaining_vars"] == 2


def test_monomial_labels():
    assert monomial_label((0, 0)) == "1"
    assert monomial_label((1, 0)) == "x"
    assert monomial_label((2, 1)) == "x2y"
    assert monomial_label((0, 0, 3)) == "z3"
    assert monomial_label((1, 0, 2, 0)) == "x1_x3p2"


def test_truncate_quantum_plane_degree_one():
    ring = truncate_to_ring(quantum_plane(), 1)
    assert ring.labels == ("1", "x", "y")
    y, x = basis(ring.index("y")), basis(ring.index("x"))
    assert not mul(ring.tensor, y, x)


def test_truncate_quantum_plane_degree_two():
    ring = truncate_to_ring(quantum_plane(), 2)
    assert ring.labels == ("1", "x", "y", "x2", "xy", "y2")
    y, x = basis(ring.index("y")), basis(ring.index("x"))
    assert mul(ring.tensor, y, x) == basis(ring.index("xy"), 1, 1)
    assert mul(ring.tensor, x, y) == basis(ring.index("xy"))


def test_truncate_degree_zero():
    ring = truncate_to_ring(quantum_plane(), 0)
    assert ring.labels == ("1",)


def test_truncations_validate_for_general_twists():
    # the bilinear twist satisfies the cocycle identity for any matrix;
    # build_ring re-verifies associativity from scratch
    twists = [((0, 0), (1, 0)), ((2, -1), (3, 5)), ((0, -2), (2, 0))]
    for twist in twists:
        ring = truncate_to_ring(MonomialRing(2, twist), 3)
        assert ring.size == 10
    ring3 = truncate_to_ring(MonomialRing(3, ((0, 1, -1), (2, 0, 0),
                                              (-3, 1, 0))), 3)
    assert ring3.size == 20


# the bench's twists (bench/workloads.py), then one with negative entries
TRUNCATION_TWISTS = (((0, 0, 0), (1, 0, 0), (1, 1, 0)),
                     ((0, 1, 0), (0, 0, 2), (1, 0, 0)),
                     ((0, -1, 0), (2, 0, 0), (0, 1, 1)),
                     ((-2, 3, -1), (0, -1, 4), (-3, 0, 2)))


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("twist", TRUNCATION_TWISTS)
def test_truncation_equals_the_label_keyed_build(nvars, twist):
    ring = MonomialRing(nvars, [row[:nvars] for row in twist[:nvars]])
    for degree in range(7):
        assert truncate_to_ring(ring, degree) \
            == labelled_truncation(ring, degree)
    assert truncate_to_ring(ring, 2, name="t") \
        == labelled_truncation(ring, 2, name="t")


def test_face_quotient_restriction():
    cube = MonomialRing(3, ((0, 0, 0), (1, 0, 0), (2, 3, 0)))
    quo = face_quotient(cube, [0])
    assert quo.nvars == 2
    assert quo.twist == ((0, 0), (3, 0))
    assert face_quotient(cube, []) == cube


def test_face_quotient_full_face_rejected():
    with pytest.raises(FullFace):
        face_quotient(quantum_plane(), [0, 1])


def test_face_quotient_agrees_with_ring_quotient_on_truncations():
    # quotient of the degree-d truncation by (face ideal + degree overflow)
    # has the same table as the truncation of the face quotient
    degree = 4
    cube = MonomialRing(3, ((0, 0, 0), (1, 0, 0), (1, 1, 0)))
    for var in range(3):
        big = truncate_to_ring(cube, degree)
        face_members = serre_closure(
            big, mask_from_labels(big, [monomial_label(
                tuple(1 if j == var else 0 for j in range(3)))]))
        quotient = quotient_ring(big, face_members)
        small = truncate_to_ring(face_quotient(cube, [var]), degree)
        rename = {monomial_label(_lift(v, var, 3)): monomial_label(v)
                  for v in _vectors_upto(2, degree)}
        assert [rename[lab] for lab in quotient.labels] == list(small.labels)
        for (a, b), row in small.tensor.items():
            assert quotient.tensor.get((a, b), {}) == row
        for (a, b), row in quotient.tensor.items():
            assert small.tensor.get((a, b), {}) == row


def _vectors_upto(nvars, degree):
    from serrespec.monomial import _graded_vectors
    return _graded_vectors(nvars, degree)


def _lift(vec, dropped, nvars):
    out = []
    k = 0
    for i in range(nvars):
        if i == dropped:
            out.append(0)
        else:
            out.append(vec[k])
            k += 1
    return tuple(out)


def test_symbolic_and_truncated_membership_agree():
    # membership and additive closure agree with the finite model up to
    # the truncation degree
    degree = 4
    for nvars in (1, 2, 3):
        ring = MonomialRing(nvars, tuple(tuple(1 if i > j else 0
                                               for j in range(nvars))
                                         for i in range(nvars)))
        big = truncate_to_ring(ring, degree)
        vecs = _vectors_upto(nvars, degree)
        ideal = build_monoid_ideal(
            nvars, [v for v in vecs if sum(v) == 2])
        member_labels = {monomial_label(v) for v in vecs
                         if monoid_membership(ideal, v)}
        mask = mask_from_labels(big, sorted(member_labels))
        # upward closure within the box: the mask is a Serre ideal of the
        # truncated ring once the degree overflow is taken into account
        from serrespec import is_serre_ideal
        assert is_serre_ideal(big, mask)[0]
        for v in vecs:
            for w in vecs:
                total = tuple(x + y for x, y in zip(v, w))
                if sum(total) > degree:
                    continue
                prod = mul(big.tensor, basis(big.index(monomial_label(v))),
                           basis(big.index(monomial_label(w))))
                in_sym = monoid_membership(ideal, total)
                in_trunc = bool(support(prod) & mask)
                assert in_sym == in_trunc
