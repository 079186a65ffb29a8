"""Primality predicates, the full spectrum, and minimal primes with
product chains.

Each predicate comes in a fast form and, where the theory provides one,
a definitional form quantifying over the ideal lattice; the two are
asserted equivalent in the test suite.  The definitional quantifiers
deliberately include the improper ideal: that is what keeps the
equivalences true for rings without units.

The fast forms quantify over the n principal ideals <a> =
serre_closure(a) only.  For an ideal P and basis elements a, b, the
two-step supports supp(b_a b_b) and supp(b_a b_t b_b), t ranging over
the basis, all lie in P exactly when product_support(<a>, <b>) does.
One way is containment: b_a b_b and b_a b_t b_b are sums of products of
<a> with <b>.  For the other, a product of a basis element x of <a>
with one x' of <b> lies in the support of (u b_a v)(u' b_b v') for
basis products u, v, u', v', each possibly empty, and positivity keeps
every such support inside the ideal generated by the supports of
b_a (v u') b_b: of b_a b_t b_b for t in supp(v u'), or of b_a b_b when
v and u' are both empty.  So the fast prime test is the definitional
quantifier restricted to the pairs (<a>, <b>), a and b outside P: an
ideal I not inside P holds such an a and then <a>, so a pair (I, J)
with IJ inside P yields a principal pair with the same property.

The spectrum scans only the n principal complements P_g = {h : g not in
serre_closure(h)} for primality, since every Serre prime is
meet-irreducible in the ideal lattice and so one of them.  An ideal not
inside P_g holds g and so <g>, so a pair of them with product inside
P_g puts <g><g> inside P_g.  P_g is thus prime exactly when its square
<g><g> escapes it.

The lemma that decides this from the products inside <g> alone: the
support of a product IJ of two ideal subsets is itself an ideal subset.
For x in supp(b_a b_b), a in I and b in J, positivity puts supp(b_r x)
inside supp((b_r b_a) b_b), which lies in product_support(I, J) as
supp(b_r b_a) lies in I; and the same on the right.  So the square
S = product_support(<g>, <g>) is an ideal, and it escapes P_g, the
largest ideal missing g, exactly when it holds g: an h in S outside P_g
has g in its closure, which S contains.  P_g is therefore prime exactly
when some nonzero product b_a b_b with a and b in <g> has g in its
support, which _prime_masks reads from per-output producer lists with
no product support computed.  The cached lattice is read only to list
the primes in canonical order, which also keeps the basis-size guard in
front of every spectrum.

Definitional primality still quantifies over every pair of ideals, but
decides each containment I*J inside P with one AND instead of a product
support: the product escapes P exactly when I meets the escape mask of J,
the set of basis elements a sending some b in J outside P
(ideals.pairs_inside).  It pays only for what it visits: the lattice
reaches pairs_inside through a lazy filter of the ideals escaping P,
pairs_inside reads that one ideal at a time, and each escape mask is
read from the nonzero products in its column (ZPlusRing.columns).  So
the check on a non-prime P stops at its first pair, often after a few
ideals, and only a prime P visits every pair of escaping ideals.  The
minimal-primes split search reads the ideals strictly above a node the
same way.
"""

from collections import namedtuple
from itertools import compress, count

from .ideals import (enumerate_serre_ideals, pairs_inside,
                     principal_closures, principal_complements,
                     product_support, require_proper_two_sided)
from .zring import TWO_SIDED, RingError, iter_bits, labels_from_mask

FAST = "fast"
DEFINITIONAL = "definitional"


class NoPrimeOver(RingError):
    pass


def _first_pair(table, members):
    """First basis pair (a, b) outside the ideal subset, in basis order,
    with table[a][b] inside it; None if there is none.  The caller vouches
    that the mask is a proper two-sided ideal."""
    outside = list(iter_bits(~members & ((1 << len(table)) - 1)))
    for a in outside:
        row = table[a]
        for b in outside:
            if not row[b] & ~members:
                return a, b
    return None


def _square(ring, g):
    """product_support(<g>, <g>) of the principal ideal
    <g> = serre_closure(g), computed on its first read and kept in a
    dict cached on the ring."""
    squares = ring.cache.setdefault("squares", {})
    square = squares.get(g)
    if square is None:
        closure = principal_closures(ring)[g]
        square = squares[g] = product_support(ring, closure, closure)
    return square


def _prime_masks(ring):
    """Serre prime masks in canonical order, computed once per ring.

    Only the principal complements P_g = {h : g not in serre_closure(h)}
    are scanned, at most n of them.  A prime P is meet-irreducible: if
    P = I & J for ideals I, J strictly above P, then IJ lies in I & J = P
    with neither factor inside P, so P is not prime.  The ideal subsets
    are the down-sets of a finite preorder, and there the meet-irreducible
    members are exactly the principal complements: a proper down-set is
    the meet of the complements of the g outside it, and the complement
    of g is the largest down-set missing g.

    P_g is kept exactly when some nonzero product ab with a and b in <g>
    has g in its support (see the module docstring), read from per-output
    producer lists: for each h, the pair mask of every (a, b) whose row
    holds h, built in one pass over the tensor.  The first pair inside
    <g> decides, so no product support is computed.

    The cached two-sided lattice is read all the same, one dict lookup
    per member: it lists the candidates in canonical order with no sort,
    and it keeps the basis-size guard in front of every spectrum.
    """
    cached = ring.cache.get("primes")
    if cached is None:
        lattice = enumerate_serre_ideals(ring, TWO_SIDED)
        closures = principal_closures(ring)
        producers = [[] for _ in closures]
        for (a, b), row in ring.tensor.items():
            pair = 1 << a | 1 << b
            for h, _ in row:
                producers[h].append(pair)
        # no complement is the full mask: it misses its own g
        first = principal_complements(ring)
        prime = set()
        for m, g in first.items():
            outside = ~closures[g]
            for pair in producers[g]:
                if not pair & outside:
                    prime.add(m)
                    break
        cached = tuple(m for m in lattice if m in prime)
        ring.cache["primes"] = cached
    return cached


def is_serre_prime(ring, ideal, mode=FAST):
    """Serre primality of a proper two-sided ideal subset.

    Definitional mode: no pair (I, J) of two-sided ideal subsets (the
    improper one included) with product_support(I, J) inside P but
    neither factor inside P.  It visits every pair of escaping ideals, in
    lattice order, but decides each with one AND through pairs_inside:
    I*J escapes P exactly when I meets the union of the escape masks of
    J's members.  Fast mode is the same quantifier over the principal
    ideals <a> of the basis elements a outside P only, which decides the
    same (see the module docstring): no pair (<a>, <b>) with
    product_support(<a>, <b>) inside P, equivalently no a, b outside P
    whose two-step product supports all land in P.

    Returns (holds, witness); the fast witness names the first such basis
    pair (a, b) in basis order along with <a> and <b>, which form a
    definitional witness as well.  The definitional witness is the first
    pair of ideals.
    """
    members = require_proper_two_sided(ring, ideal)
    if mode == FAST:
        closures = principal_closures(ring)
        outside = list(iter_bits(ring.full_mask & ~members))
        principal = [closures[a] for a in outside]
        pair = next(pairs_inside(ring, principal, members), None)
        if pair is None:
            return True, None
        # the first pair holds the first index of each principal ideal
        a, b = (outside[principal.index(m)] for m in pair)
        return False, {
            "alpha": ring.labels[a],
            "beta": ring.labels[b],
            "alpha_ideal": labels_from_mask(ring, pair[0]),
            "beta_ideal": labels_from_mask(ring, pair[1]),
        }
    if mode != DEFINITIONAL:
        raise RingError(f"unknown primality mode {mode!r}")
    pair = _definitional_prime(ring, members)
    if pair is None:
        return True, None
    return False, {"ideal_pair": [labels_from_mask(ring, m) for m in pair]}


def _definitional_prime(ring, members):
    """The first pair (I, J) of lattice ideals escaping the mask whose
    product lies inside it, or None when the mask is prime; the caller
    vouches that the mask is a proper two-sided ideal.

    The lattice is filtered lazily: when the first escaping ideal is in
    a pair, no ideal after the one that completes it is read."""
    lattice = enumerate_serre_ideals(ring, TWO_SIDED)
    escaping = compress(lattice, map((~members).__and__, lattice))
    return next(pairs_inside(ring, escaping, members), None)


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

    Fast mode fails at the first basis element a outside P whose
    principal ideal <a> squares into P, each square computed on its
    first read and kept on the ring: product_support(<a>, <a>) inside
    P, equivalently every two-step self-product supp(b_a b_a),
    supp(b_a b_t b_a) inside P (see the module docstring).  Definitional
    mode asks for equality with the intersection of the Serre primes
    above (false with a note when no prime lies above).
    """
    members = require_proper_two_sided(ring, ideal)
    if mode == FAST:
        return _fast_semiprime(ring, members)
    if mode != DEFINITIONAL:
        raise RingError(f"unknown semiprimality mode {mode!r}")
    return _definitional_semiprime(ring, members)


def _fast_semiprime(ring, members):
    """is_semiprime's fast mode on a mask the caller vouches is a proper
    two-sided ideal.  The elements outside it are tested in basis order,
    and the first failure stops the scan, so only the squares read up to
    it are computed."""
    for a in iter_bits(ring.full_mask & ~members):
        if not _square(ring, a) & ~members:
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
    the ideal exactly when J misses the escape masks of K's members.  The
    larger ideals are read lazily from just after the node in the
    canonical lattice, where every strict superset lies (it has more
    members, and cardinality comes first), so a node that splits at its
    first pairs reads few of them.  Each chain entry is then replaced by
    a minimal prime below it, which keeps the product property.

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
    # the position just after each lattice member
    after = dict(zip(masks, count(1)))
    memo = {}

    def chain_for(m):
        if m in memo:
            return memo[m]
        if m in prime_set:
            memo[m] = [m]
            return memo[m]
        result = None
        later = masks[after[m]:]
        above = compress(later, map(m.__eq__, map(m.__and__, later)))
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
    return minimal, list(map(lowest.__getitem__, raw_chain))


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
