from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrespec import (DEFINITIONAL, FAST, ImproperIdeal, NoPrimeOver,
                       NotAnIdeal, allow_large, build_ring,
                       chain_product_support,
                       enumerate_serre_ideals, gallery_names,
                       is_completely_prime, is_semiprime, is_serre_prime,
                       labels_from_mask, load_gallery, mask_from_labels,
                       minimal_primes_over, product_support, quotient_ring,
                       serre_closure, serre_spec, truncate_to_ring)
from serrespec.gallery import quantum_plane

from arith import basis, mul
from ladder import diagonal, proper_quotients, upper_triangular
from oracles import (lattice_filtered_primes, lattice_maximal_disjoint,
                     naive_first_pair, naive_is_completely_prime,
                     naive_is_prime, naive_is_semiprime, naive_triple_support,
                     plain_fold, power_orbit, squares_primes)
from strategies import incidence_quotients


@pytest.fixture(scope="module")
def gallery():
    return {name: load_gallery(name) for name in gallery_names()}


@pytest.fixture(scope="module")
def ladder_rings(gallery):
    """The gallery, qplane-trunc-0..3, tri-1..4, diag-1..5 and every
    quotient of those by a nonzero proper ideal."""
    rings = list(gallery.values())
    rings += [truncate_to_ring(quantum_plane(), d) for d in range(4)]
    rings += [upper_triangular(k) for k in range(1, 5)]
    rings += [diagonal(k) for k in range(1, 6)]
    return rings + proper_quotients(rings)


def proper_ideals(ring):
    return [i for i in enumerate_serre_ideals(ring)
            if i != ring.full_mask]


def spectrum_labels(ring):
    return [labels_from_mask(ring, p)
            for p in serre_spec(ring).primes]


def test_prime_examples():
    zx = load_gallery("zx2-1")
    assert is_serre_prime(zx, 0)[0]
    ti = load_gallery("two-idem")
    holds, witness = is_serre_prime(ti, 0)
    assert not holds
    assert (witness["alpha"], witness["beta"]) == ("a", "b")
    assert witness["alpha_ideal"] == ["a"] and witness["beta_ideal"] == ["b"]
    m2 = load_gallery("m2-block")
    assert is_serre_prime(m2, 0)[0]


def test_prime_precondition_errors():
    ising = load_gallery("ising")
    with pytest.raises(ImproperIdeal):
        is_serre_prime(ising, ising.full_mask)
    with pytest.raises(NotAnIdeal):
        is_serre_prime(ising, mask_from_labels(ising, ["sigma"]))


def test_two_step_supports_land_in_an_ideal_with_the_principal_product(
        ladder_rings):
    # for a proper ideal P: supp(b_a b_b) and every supp(b_a b_t b_b)
    # lie in P exactly when product_support(<a>, <b>) does.  So the fast
    # witnesses are the former ones: the first pair (a, b), and the first
    # a with (a, a), whose two-step supports all land in P
    square_zero = build_ring(["x", "y"], {("x", "x"): {"y": 1}},
                             name="square-zero")
    for ring in ladder_rings + [square_zero]:
        n = ring.size
        naive = [[naive_triple_support(ring, a, b) for b in range(n)]
                 for a in range(n)]
        up = [serre_closure(ring, 1 << a) for a in range(n)]
        principal = [[product_support(ring, up[a], up[b]) for b in range(n)]
                     for a in range(n)]
        for ideal in proper_ideals(ring):
            for a in range(n):
                for b in range(n):
                    assert (not naive[a][b] & ~ideal) \
                        == (not principal[a][b] & ~ideal), \
                        (ring.name, ideal, a, b)
            holds, witness = is_serre_prime(ring, ideal, FAST)
            pair = naive_first_pair(naive, ideal)
            assert holds == (pair is None), (ring.name, ideal)
            if pair is not None:
                a, b = pair
                assert witness == {
                    "alpha": ring.labels[a], "beta": ring.labels[b],
                    "alpha_ideal": labels_from_mask(ring, up[a]),
                    "beta_ideal": labels_from_mask(ring, up[b])}
            element = next((ring.labels[a] for a in range(n)
                            if not ideal >> a & 1
                            and not naive[a][a] & ~ideal), None)
            holds, witness = is_semiprime(ring, ideal, FAST)
            assert witness == (element and {"element": element}), \
                (ring.name, ideal)
            assert holds == (element is None)


def test_completely_prime_examples():
    m2 = load_gallery("m2-block")
    holds, witness = is_completely_prime(m2, 0)
    # first vanishing product in basis order; e12*e12 = 0 refutes as well
    assert not holds and witness == {"alpha": "e11", "beta": "e21"}
    e12 = basis(m2.index("e12"))
    assert not mul(m2.tensor, e12, e12)
    ising = load_gallery("ising")
    assert is_completely_prime(ising, 0)[0]
    ti = load_gallery("two-idem")
    assert is_completely_prime(ti, mask_from_labels(ti, ["a"]))[0]


def test_semiprime_examples():
    nil = load_gallery("nilpotent")
    holds, witness = is_semiprime(nil, 0)
    assert not holds and witness == {"element": "a"}
    assert is_semiprime(nil, 0, DEFINITIONAL)[1]["note"]
    ti = load_gallery("two-idem")
    assert is_semiprime(ti, 0)[0]
    assert not is_serre_prime(ti, 0)[0]
    ising = load_gallery("ising")
    assert is_semiprime(ising, 0)[0]


def test_fast_equals_definitional_everywhere(gallery):
    for ring in gallery.values():
        for ideal in proper_ideals(ring):
            fast = is_serre_prime(ring, ideal, FAST)[0]
            definitional = is_serre_prime(ring, ideal, DEFINITIONAL)[0]
            assert fast == definitional, (ring.name, ideal)
            assert fast == naive_is_prime(ring, ideal)
            s_fast = is_semiprime(ring, ideal, FAST)[0]
            s_def = is_semiprime(ring, ideal, DEFINITIONAL)[0]
            assert s_fast == s_def, (ring.name, ideal)
            assert s_fast == naive_is_semiprime(ring, ideal)


@pytest.mark.parametrize("ring", [upper_triangular(4), upper_triangular(5),
                                  diagonal(6), diagonal(7), diagonal(8)],
                         ids=lambda ring: ring.name)
def test_fast_equals_definitional_on_larger_ladder_rings(ring):
    # the naive oracle is too slow here; the two library modes check
    # each other
    for ideal in proper_ideals(ring):
        assert is_serre_prime(ring, ideal, FAST)[0] \
            == is_serre_prime(ring, ideal, DEFINITIONAL)[0], ideal
        assert is_semiprime(ring, ideal, FAST)[0] \
            == is_semiprime(ring, ideal, DEFINITIONAL)[0], ideal


def test_completely_prime_matches_naive_and_implies_prime(gallery):
    for ring in gallery.values():
        for ideal in proper_ideals(ring):
            cp = is_completely_prime(ring, ideal)[0]
            assert cp == naive_is_completely_prime(ring, ideal)
            if cp:
                assert is_serre_prime(ring, ideal, FAST)[0]


def test_semiprime_square_characterizations(gallery):
    # semiprime Q: no ideal I with I*I inside Q escapes Q, and conversely
    for ring in gallery.values():
        lattice = list(enumerate_serre_ideals(ring))
        for ideal in proper_ideals(ring):
            q = ideal
            semi = is_semiprime(ring, ideal, FAST)[0]
            square_cond = all(
                not (not product_support(ring, i, i) & ~q and i & ~q)
                for i in lattice)
            strict_cond = all(
                product_support(ring, i, i) & ~q
                for i in lattice if i != q and not q & ~i)
            assert semi == square_cond == strict_cond, (ring.name, ideal)


def test_semiprime_power_absorption(gallery):
    # if the n-fold product support of an ideal lies in semiprime Q for
    # some n <= 4, the ideal itself does
    for ring in gallery.values():
        lattice = list(enumerate_serre_ideals(ring))
        for ideal in proper_ideals(ring):
            q = ideal
            if not is_semiprime(ring, ideal, FAST)[0]:
                continue
            for i in lattice:
                power = i
                for _ in range(3):  # I^2, I^3, I^4
                    power = product_support(ring, power, i)
                    if not power & ~q:
                        assert not i & ~q, (ring.name, ideal, i)
                        break


def test_spec_examples():
    assert spectrum_labels(load_gallery("zx2-1")) == [[]]
    assert spectrum_labels(load_gallery("two-idem")) == [["a"], ["b"]]
    assert spectrum_labels(load_gallery("nilpotent")) == []


def test_spec_flags_and_inclusions():
    zx = load_gallery("zx2-x")
    spec = serre_spec(zx)
    assert spectrum_labels(zx) == [[], ["x"]]
    assert spec.completely_prime == [True, True]
    assert spec.semiprime == [True, True]
    assert spec.inclusions == [(0, 1)]


def test_spec_primes_are_the_lattice_filtered_by_primality(gallery):
    for ring in gallery.values():
        primes = serre_spec(ring).primes
        for mode in (FAST, DEFINITIONAL):
            assert primes == [i for i in proper_ideals(ring)
                              if is_serre_prime(ring, i, mode)[0]], \
                (ring.name, mode)


def test_spec_reports_do_not_share_lists():
    ring = load_gallery("zx2-x")
    first, second = serre_spec(ring), serre_spec(ring)
    assert first == second
    for name in ("primes", "completely_prime", "semiprime", "inclusions"):
        assert getattr(first, name) is not getattr(second, name)
    first.primes.clear()
    first.inclusions.append((0, 0))
    assert spectrum_labels(ring) == [[], ["x"]]
    assert second == serre_spec(ring)


def test_spec_nonempty_for_unital_gallery_rings(gallery):
    for ring in gallery.values():
        if ring.units is not None:
            assert serre_spec(ring).primes, ring.name


def test_minimal_primes_examples():
    ti = load_gallery("two-idem")
    minimal, chain = minimal_primes_over(ti, 0)
    as_labels = [labels_from_mask(ti, p) for p in minimal]
    assert as_labels == [["a"], ["b"]]
    assert [labels_from_mask(ti, p) for p in chain] == [["a"], ["b"]]

    zx = load_gallery("zx2-x")
    x = mask_from_labels(zx, ["x"])
    minimal, chain = minimal_primes_over(zx, x)
    assert [labels_from_mask(zx, p) for p in minimal] == [["x"]]
    assert [labels_from_mask(zx, p) for p in chain] == [["x"]]

    ising = load_gallery("ising")
    minimal, chain = minimal_primes_over(ising, 0)
    assert minimal == [0]
    assert chain == [0]


def test_minimal_primes_no_prime_over():
    nil = load_gallery("nilpotent")
    with pytest.raises(NoPrimeOver):
        minimal_primes_over(nil, 0)


def test_minimal_primes_chain_verified_everywhere(gallery):
    for ring in gallery.values():
        primes = serre_spec(ring).primes
        prime_masks = set(primes)
        for ideal in proper_ideals(ring):
            over = [p for p in prime_masks if not ideal & ~p]
            if not over:
                continue
            minimal, chain = minimal_primes_over(ring, ideal)
            minimal_masks = set(minimal)
            # inclusion-minimality against the full spectrum
            for p in minimal_masks:
                assert not any(q != p and not q & ~p for q in over)
            # the chain multiplies into the ideal and consists of minimal
            # primes covering all of them
            fold = chain_product_support(ring, chain)
            assert not fold & ~ideal
            assert set(chain) == minimal_masks


def test_minimal_primes_chain_fold_matches_the_plain_fold(gallery):
    rings = list(gallery.values())
    rings += [truncate_to_ring(quantum_plane(), d) for d in range(4)]
    rings += [upper_triangular(k) for k in range(1, 5)]
    rings += [diagonal(k) for k in range(1, 7)]
    checked = 0
    for ring in rings + proper_quotients(rings):
        try:
            minimal, chain = minimal_primes_over(ring, 0)
        except NoPrimeOver:
            continue
        assert chain_product_support(ring, chain) == \
            plain_fold(ring, chain), ring.name
        checked += 1
    assert checked > 100


FOLD_RINGS = {name: load_gallery(name)
              for name in ("mixed-3obj", "m3-block", "qplane-trunc-2")}
FOLD_RINGS["tri-3"] = upper_triangular(3)


@st.composite
def repeating_chains(draw):
    """A ring and a list of its lattice ideals drawn from a pool of at
    most three, so that (acc, nxt) pairs of the fold recur."""
    ring = FOLD_RINGS[draw(st.sampled_from(sorted(FOLD_RINGS)))]
    ideals = enumerate_serre_ideals(ring)
    pool = draw(st.lists(st.sampled_from(ideals), min_size=1, max_size=3))
    chain = draw(st.lists(st.sampled_from(pool), max_size=40))
    return ring, chain


@settings(max_examples=200, derandomize=True, deadline=None)
@given(repeating_chains())
def test_chain_product_support_is_the_plain_fold(case):
    ring, chain = case
    assert chain_product_support(ring, chain) == plain_fold(ring, chain)


# the minimal-primes rings of the lattice ladder (bench/workloads.py)
FOLD_LADDER = {
    **{f"qplane-trunc-{d}": partial(load_gallery, f"qplane-trunc-{d}")
       for d in (3, 4)},
    **{f"tri-{k}": partial(upper_triangular, k) for k in (4, 5)},
    **{f"diag-{k}": partial(diagonal, k) for k in (6, 10)},
}


@pytest.mark.parametrize("name", sorted(FOLD_LADDER))
def test_chain_fold_stopping_at_zero_is_the_plain_fold(name):
    # over 0 the fold reaches 0 early (tri-5: step 1,098 of 16,384); over
    # the least nonzero ideal it may not (diag-k)
    ring = FOLD_LADDER[name]()
    least = next(i for i in enumerate_serre_ideals(ring) if i)
    for ideal in (0, least):
        _, chain = minimal_primes_over(ring, ideal)
        assert chain_product_support(ring, chain) == plain_fold(ring, chain)


def test_multiplicative_set_orbit_is_exact():
    ising = load_gallery("ising")
    orbit = power_orbit(ising, mask_from_labels(ising, ["sigma"]))
    assert [labels_from_mask(ising, o) for o in orbit] \
        == [["sigma"], ["1", "eps"]]


def _maximal_disjoint(ring, generator, base=0):
    orbit = power_orbit(ring, mask_from_labels(ring, generator))
    return [labels_from_mask(ring, m)
            for m in lattice_maximal_disjoint(ring, orbit, base)]


def test_maximal_disjoint_examples():
    assert _maximal_disjoint(load_gallery("zx2-1"), ["1"]) == [[]]
    assert _maximal_disjoint(load_gallery("two-idem"), ["a"]) == [["b"]]
    assert _maximal_disjoint(load_gallery("ising"), ["sigma"]) == [[]]
    # a power inside the base leaves no candidate
    zx = load_gallery("zx2-x")
    assert _maximal_disjoint(zx, ["x"]) == [[]]
    assert _maximal_disjoint(zx, ["x"], mask_from_labels(zx, ["x"])) == []


def test_maximal_disjoint_always_prime(ladder_rings):
    # the paper's statement: an ideal maximal among those that contain a
    # base ideal and avoid the powers of a positive element is prime.
    # The element is a basis element or a sum of two, and the base every
    # ideal of the lattice that no power lies inside, the zero ideal too
    cases = 0
    for ring in ladder_rings:
        lattice = enumerate_serre_ideals(ring)
        prime = {}
        generators = [(g,) for g in range(ring.size)]
        generators += combinations(range(ring.size), 2)
        for gens in generators:
            orbit = power_orbit(ring, sum(1 << g for g in gens))
            for base in lattice:
                if any(not s & ~base for s in orbit):
                    continue
                for p in lattice_maximal_disjoint(ring, orbit, base):
                    if p not in prime:
                        prime[p] = naive_is_prime(ring, p)
                    assert prime[p], (ring.name, gens, base, p)
                cases += 1
    assert cases == 14687


def test_quotient_spectrum_is_the_spectrum_above_the_ideal(ladder_rings):
    # primes and completely prime ideals of R/I lift to exactly those of R
    # that contain I
    for ring in ladder_rings:
        spec = serre_spec(ring)
        primes = {p: cp
                  for p, cp in zip(spec.primes, spec.completely_prime)}
        for ideal in enumerate_serre_ideals(ring):
            base = ideal
            if base == ring.full_mask:
                continue
            keep = [i for i in range(ring.size) if not base >> i & 1]
            quotient = serre_spec(quotient_ring(ring, ideal))
            lifted = {base | sum(1 << old for i, old in enumerate(keep)
                                 if q >> i & 1): cp
                      for q, cp in zip(quotient.primes,
                                       quotient.completely_prime)}
            above = {p: cp for p, cp in primes.items() if not base & ~p}
            assert lifted == above, (ring.name, base)


def test_every_prime_is_a_principal_complement(ladder_rings):
    # each Serre prime is {h : g not in the closure of h} for a basis
    # element g: primes are meet-irreducible in the lattice.  The primes
    # come from the whole lattice, not from serre_spec, which scans only
    # these complements
    for ring in ladder_rings:
        up = [serre_closure(ring, 1 << h) for h in range(ring.size)]
        complements = {sum(1 << h for h in range(ring.size)
                           if not up[h] >> g & 1)
                       for g in range(ring.size)}
        for p in lattice_filtered_primes(ring):
            assert p in complements, (ring.name, p)


def test_producer_list_primes_equal_the_squares_test(ladder_rings):
    for ring in ladder_rings:
        assert serre_spec(ring).primes == squares_primes(ring), ring.name


@settings(max_examples=150, deadline=None)
@given(incidence_quotients())
def test_producer_list_primes_equal_the_squares_test_on_drawn_rings(ring):
    with allow_large():
        primes = serre_spec(ring).primes
    assert primes == squares_primes(ring)
    assert primes == lattice_filtered_primes(ring)


def test_spec_primes_are_the_whole_lattice_filtered(ladder_rings):
    rings = list(ladder_rings)
    rings += [upper_triangular(k) for k in (5, 6)]
    rings += [diagonal(k) for k in range(8, 12)]
    rings += [load_gallery(f"qplane-trunc-{d}") for d in (4, 5)]
    for ring in rings:
        assert serre_spec(ring).primes == lattice_filtered_primes(ring), \
            ring.name
