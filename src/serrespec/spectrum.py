"""Primality predicates, the full spectrum, and minimal primes with
product chains.

Each predicate comes in a fast form (bitmask scans over basis pairs) and,
where the theory provides one, a definitional form quantifying over the
ideal lattice; the two are asserted equivalent in the test suite.  The
definitional quantifiers deliberately include the improper ideal: that is
what keeps the equivalences true for rings without units.

The spectrum scans only the n principal complements {h : g not in
serre_closure(h)} for primality, since every Serre prime is
meet-irreducible in the ideal lattice and so one of them; the cached
lattice is read only to list them in canonical order, which also keeps
the basis-size guard in front of every spectrum.

Definitional primality still quantifies over every pair of ideals, but
decides each containment I*J inside P with one AND instead of a product
support: the product escapes P exactly when I meets the escape mask of J,
the set of basis elements a sending some b in J outside P
(ideals.pairs_inside).
"""

from collections import namedtuple

from .ideals import (enumerate_serre_ideals, pairs_inside,
                     principal_complements, product_support,
                     require_proper_two_sided, serre_closure)
from .zring import TWO_SIDED, RingError, labels_from_mask

FAST = "fast"
DEFINITIONAL = "definitional"


class NoPrimeOver(RingError):
    pass


def _first_pair(table, members):
    """First basis pair (a, b) outside the ideal subset, in basis order,
    with table[a][b] inside it; None if there is none.  The caller vouches
    that the mask is a proper two-sided ideal."""
    outside = [i for i in range(len(table)) if not members >> i & 1]
    for a in outside:
        row = table[a]
        for b in outside:
            if not row[b] & ~members:
                return a, b
    return None


def _prime_masks(ring):
    """Serre prime masks in canonical order, computed once per ring.

    Only the principal complements {h : g not in serre_closure(h)} are
    scanned, at most n of them.  A prime P is meet-irreducible: if
    P = I & J for ideals I, J strictly above P, then IJ lies in I & J = P
    with neither factor inside P, so P is not prime.  The ideal subsets
    are the down-sets of a finite preorder, and there the
    meet-irreducible members are exactly the principal complements: a
    proper down-set is the meet of the complements of the g outside it,
    and the complement of g is the largest down-set missing g.

    The cached two-sided lattice is read all the same, one set lookup
    per member: it lists the candidates in canonical order with no sort, and
    it keeps the basis-size guard in front of every spectrum.
    """
    cached = ring.cache.get("primes")
    if cached is None:
        lattice = enumerate_serre_ideals(ring, TWO_SIDED)
        # no complement is the full mask: it misses its own g
        complements = set(principal_complements(ring))
        tm = ring.triple_masks
        cached = tuple(m for m in lattice
                       if m in complements and _first_pair(tm, m) is None)
        ring.cache["primes"] = cached
    return cached


def is_serre_prime(ring, ideal, mode=FAST):
    """Serre primality of a proper two-sided ideal subset.

    Fast mode: no pair of basis elements outside P whose two-step product
    supports all land in P.  Definitional mode: no pair (I, J) of
    two-sided ideal subsets (the improper one included) with
    product_support(I, J) inside P but neither factor inside P.  It still
    visits every pair of escaping ideals, in lattice order, but decides
    each with one AND through pairs_inside: I*J escapes P exactly when I
    meets the union of the escape masks of J's members.

    Returns (holds, witness); the fast witness names the basis pair along
    with the principal ideals it generates, which form a definitional
    witness as well.  The definitional witness is the first such pair.
    """
    members = require_proper_two_sided(ring, ideal)
    if mode == FAST:
        pair = _first_pair(ring.triple_masks, members)
        if pair is None:
            return True, None
        a, b = pair
        return False, {
            "alpha": ring.labels[a],
            "beta": ring.labels[b],
            "alpha_ideal": labels_from_mask(ring, serre_closure(ring, 1 << a)),
            "beta_ideal": labels_from_mask(ring, serre_closure(ring, 1 << b)),
        }
    if mode != DEFINITIONAL:
        raise RingError(f"unknown primality mode {mode!r}")
    return _definitional_prime(ring, members)


def _definitional_prime(ring, members):
    """is_serre_prime's definitional mode on a mask the caller vouches is
    a proper two-sided ideal."""
    escaping = [m for m in enumerate_serre_ideals(ring, TWO_SIDED)
                if m & ~members]
    pair = next(pairs_inside(ring, escaping, members), None)
    if pair is None:
        return True, None
    return False, {"ideal_pair": [labels_from_mask(ring, m) for m in pair]}


def is_completely_prime(ring, ideal):
    """No pair of basis elements outside P whose product support lands in
    P; a vanishing product of elements outside P refutes."""
    members = require_proper_two_sided(ring, ideal)
    pair = _first_pair(ring.product_masks, members)
    if pair is None:
        return True, None
    a, b = pair
    return False, {"alpha": ring.labels[a], "beta": ring.labels[b]}


def is_semiprime(ring, ideal, mode=FAST):
    """Serre semiprimality of a proper two-sided ideal subset.

    Fast mode scans basis elements against the two-step self-products;
    definitional mode asks for equality with the intersection of the Serre
    primes above (false with a note when no prime lies above).
    """
    members = require_proper_two_sided(ring, ideal)
    if mode == FAST:
        return _fast_semiprime(ring, members)
    if mode != DEFINITIONAL:
        raise RingError(f"unknown semiprimality mode {mode!r}")
    return _definitional_semiprime(ring, members)


def _fast_semiprime(ring, members):
    """is_semiprime's fast mode on a mask the caller vouches is a proper
    two-sided ideal."""
    tm = ring.triple_masks
    for a in range(ring.size):
        if members >> a & 1:
            continue
        if not tm[a][a] & ~members:
            return False, {"element": ring.labels[a]}
    return True, None


def _definitional_semiprime(ring, members):
    """is_semiprime's definitional mode on a mask the caller vouches is a
    proper two-sided ideal."""
    over = [p for p in _prime_masks(ring) if not members & ~p]
    if not over:
        return False, {"note": "no Serre prime ideal contains this ideal"}
    inter = ring.full_mask
    for p in over:
        inter &= p
    if inter == members:
        return True, None
    return False, {"intersection": labels_from_mask(ring, inter)}


class SpectrumReport(namedtuple("SpectrumReport",
                                "ring_name primes completely_prime "
                                "semiprime inclusions", defaults=((),))):
    """Serre prime ideals in canonical order with per-prime flags and the
    inclusion (specialization) preorder.

    ``primes`` lists the prime masks in canonical order; ``inclusions``
    holds (i, j) for every primes[i] < primes[j].
    """

    __slots__ = ()


def serre_spec(ring):
    primes = list(_prime_masks(ring))
    cp = [_first_pair(ring.product_masks, p) is None for p in primes]
    inclusions = []
    for i, p in enumerate(primes):
        for j, q in enumerate(primes):
            if i != j and not p & ~q:
                inclusions.append((i, j))
    return SpectrumReport(ring.name, primes, cp, [True] * len(primes),
                          inclusions)


def minimal_primes_over(ring, ideal):
    """Inclusion-minimal Serre primes over a proper two-sided ideal, plus a
    finite product chain of them (repetition allowed) whose iterated
    product support lies inside the ideal.

    The chain is found by recursive splitting: a non-prime ideal admits a
    pair of strictly larger ideal subsets whose product support falls back
    into it, and the two half-chains concatenate.  Splitting pairs are
    tried over every pair of larger ideals in canonical lattice order, and
    results memoized, so the outcome is deterministic.  Which pairs fall
    back is decided by pairs_inside with one AND per pair: J*K lies inside
    the ideal exactly when J misses the escape masks of K's members.  Each
    chain entry is then replaced by a minimal prime below it, which keeps
    the product property.

    The chain is long (2^(n-1) entries on qplane-trunc-D and tri-k) but
    repeats at most r = len(minimal) primes, and the raw chain's entries
    are primes over the ideal; so each distinct raw entry is mapped to
    its minimal prime once and the chain is read through that map.
    """
    members = require_proper_two_sided(ring, ideal)
    masks = enumerate_serre_ideals(ring, TWO_SIDED)
    prime_masks = _prime_masks(ring)
    over = [p for p in prime_masks if not members & ~p]
    if not over:
        raise NoPrimeOver(
            "no Serre prime ideal contains "
            f"{{{', '.join(labels_from_mask(ring, members))}}}")
    minimal = [p for p in over
               if not any(q != p and not q & ~p for q in over)]

    prime_set = set(prime_masks)
    memo = {}

    def chain_for(m):
        if m in memo:
            return memo[m]
        if m in prime_set:
            memo[m] = [m]
            return memo[m]
        result = None
        above = [k for k in masks if not m & ~k and k != m]
        for j, k in pairs_inside(ring, above, m):
            cj = chain_for(j)
            if cj is None:
                continue
            ck = chain_for(k)
            if ck is None:
                continue
            result = cj + ck
            break
        memo[m] = result
        return result

    raw_chain = chain_for(members)
    if raw_chain is None:
        raise NoPrimeOver(
            "no product chain of Serre primes exists over "
            f"{{{', '.join(labels_from_mask(ring, members))}}}")

    # minimal is in canonical order, and the minimal primes below p are
    # exactly the members of minimal inside p
    lowest = {p: next(q for q in minimal if not q & ~p)
              for p in set(raw_chain)}
    return minimal, [lowest[p] for p in raw_chain]


def chain_product_support(ring, chain):
    """Left fold of product_support along a chain of ideal subsets.

    Each step's result depends only on the pair (acc, nxt), and a long
    chain of few distinct entries meets few distinct pairs; so the fold
    keeps the products it has computed in a memo local to this call.  The
    memo is exact: every value in it is a real ``product_support``.  The
    fold stops once the product is 0, which is exact too: the zero subset
    times any subset is 0 (tri-5's 16,384-entry chain reaches it at step
    1,098).
    """
    if not chain:
        return 0
    products = {}
    acc = chain[0]
    for nxt in chain[1:]:
        if not acc:
            break
        pair = acc, nxt
        if pair not in products:
            products[pair] = product_support(ring, acc, nxt)
        acc = products[pair]
    return acc
