"""Serre ideals as basis subsets: recognition, closure, lattice
enumeration, support products, and quotient rings.

A subset of the basis spans a left (right, two-sided) ideal exactly when
every basis product hitting the subset from the relevant side has support
inside it; positivity makes this subset condition equivalent to the ideal
condition on the whole Z-span, and every such ideal is spanned by a
subset of the basis.

Preorder the basis by h <= g when h lies in the principal ideal subset
generated by g; the ideal subsets are then exactly the down-sets of this
preorder.  The lattice is enumerated by include/exclude branching on the
principal closures, at a cost proportional to the number of ideals
rather than to the 2^n basis subsets.  The search emits the ideals in
canonical order (cardinality, then lexicographic index tuple), so no
sort follows it.  A discrete preorder, every principal closure a single
element (diag-k on every side), has all 2^n subsets for ideals, the
most any preorder has; those are listed by cardinality, in the same
order, with no search: the bits are taken from the highest down, and
the subsets holding each new bit go in front of the others of their
cardinality.

An ideal is its int bitmask in basis order, here and in every module that
takes or returns one.  One-sided lattices are masks too: a mask does not
record its side, so the caller keeps track of which side it asked for.

This module also owns the basis-size guard, the one gate before any
lattice is listed: a lattice not yet cached is built for a basis over
BASIS_GUARD only inside ``allow_large()``.  The setting is a context
variable, so it holds for the code run in its block and in that context
only; every new thread starts guarded.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain

from .zring import (LEFT, RIGHT, TWO_SIDED, RingError, iter_bits,
                    labels_from_mask, sub_ring)

BASIS_GUARD = 24
_ALLOW_LARGE = ContextVar("serrespec_allow_large", default=False)


class NotAnIdeal(RingError):
    pass


class ImproperIdeal(RingError):
    pass


class BasisTooLarge(RingError):
    pass


@contextmanager
def allow_large(allowed=True):
    """Lift (or, with allowed=False, restore) the basis-size guard for
    the code run inside the block, as ``decimal.localcontext`` scopes a
    decimal context.

    The previous setting comes back when the block exits, also when it
    raises.  The scope is per context: a thread started inside the block
    begins in a fresh context and is guarded.
    """
    token = _ALLOW_LARGE.set(allowed)
    try:
        yield
    finally:
        _ALLOW_LARGE.reset(token)


def _absorb_table(ring, side):
    if side == LEFT:
        return ring.left_absorb
    if side == RIGHT:
        return ring.right_absorb
    if side == TWO_SIDED:
        return ring.two_sided_absorb
    raise RingError(f"unknown ideal side {side!r}")


def is_serre_ideal(ring, members, side=TWO_SIDED):
    """Decide the spanning-subset ideal condition.

    Returns (True, None), or (False, (gamma, beta, escapee)) giving the
    first product in basis order whose support escapes: escapee lies in
    supp(b_beta * b_gamma) for the left condition or supp(b_gamma * b_beta)
    for the right one.
    """
    absorb = _absorb_table(ring, side)
    outside = ~members
    for g in iter_bits(members):
        if absorb[g] & outside:
            break
    else:
        return True, None
    # the absorb masks are unions of product supports, so g's own row
    # holds the first escaping product
    pm = ring.product_masks
    for b in range(ring.size):
        if side in (LEFT, TWO_SIDED):
            esc = pm[b][g] & outside
            if esc:
                return False, (g, b, (esc & -esc).bit_length() - 1)
        if side in (RIGHT, TWO_SIDED):
            esc = pm[g][b] & outside
            if esc:
                return False, (g, b, (esc & -esc).bit_length() - 1)


def serre_closure(ring, gens, side=TWO_SIDED):
    """Least ideal subset containing the generators.

    Grows by whole frontier rounds: the first frontier is the generators,
    and each round ORs the absorb masks of the frontier's bits, taken by
    their lowest set bit, so the next frontier is what that adds to the
    members.  Each member's absorb mask is read once, in the round after
    it joins, so the cost is one OR per member of the closure.
    """
    absorb = _absorb_table(ring, side)
    members = frontier = gens
    while frontier:
        added = 0
        while frontier:
            low = frontier & -frontier
            added |= absorb[low.bit_length() - 1]
            frontier ^= low
        frontier = added & ~members
        members |= frontier
    return members


def down_sets(closures, full):
    """Every subset of the full mask that contains closures[g] for each
    of its members g, in canonical order: by cardinality, then by
    lexicographic index tuple.

    closures[g] must contain g and the closure of each of its members
    (a reflexive, transitive relation).

    A discrete order, every closures[g] == {g}, constrains nothing: its
    down-sets are all 2^r subsets of full, the most an order on r points
    has, and reached by no other order (a comparable pair h < g rules
    out {g}).  These are the largest families listed (diag-k lattices on
    every side, the extents of every discrete spectrum), so one O(n)
    check sends them to a doubling over the bits of full, highest first,
    that keeps by_size[k], the subsets of k of the bits met so far, in
    canonical order: a new bit is lower than every bit met, so among
    subsets of one cardinality those holding it have the smaller index
    tuples and come first, each followed by its subset of the higher
    bits, in the order already kept; those without it follow, as before.
    So by_size[k] becomes [bit | s for s in by_size[k - 1]] followed by
    by_size[k], each subset costs one OR and about two list slots, and
    nothing is searched or sorted.

    Any other order is searched.  Branches on the lowest undecided
    index g: either g is included, which forces in closures[g], or it is
    excluded, which forces out every h whose closure contains g.  Both
    branches stay consistent (the included part is a union of closures,
    the excluded part a union of their transposes), so every leaf is a
    distinct answer and the search costs O(n) per answer.  A node is
    the pair (inside, free) of its included and undecided indices: the
    exclude branch at g is pushed with free less the transpose below[g],
    so no pop works out again which indices are still undecided.

    The order needs no sort.  Two leaves that part at g agree on every
    index below g, all of which were decided before g was; so of two
    leaves of one cardinality, the one holding g has the smaller index
    tuple.  From each popped node the search follows the include chain
    down to a leaf, pushing the exclude branch of every index it
    includes; the stack is last in, first out, so every leaf holding g
    comes out before the exclude branch at g is popped, and each
    cardinality's leaves, bucketed in emission order, are already in
    canonical order.
    """
    if all(c == 1 << g for g, c in enumerate(closures)):
        by_size = [[0]]
        for bit in reversed([1 << g for g in iter_bits(full)]):
            by_size.append([])
            for k in range(len(by_size) - 1, 0, -1):
                by_size[k] = [bit | s for s in by_size[k - 1]] + by_size[k]
        return list(chain.from_iterable(by_size))
    below = transpose(closures)
    buckets = [[] for _ in range(full.bit_count() + 1)]
    stack = [(0, full)]
    while stack:
        inside, free = stack.pop()
        while free:
            g = (free & -free).bit_length() - 1
            stack.append((inside, free & ~below[g]))
            inside |= closures[g]
            free &= ~closures[g]
        buckets[inside.bit_count()].append(inside)
    return list(chain.from_iterable(buckets))


def transpose(closures):
    """below[g]: the mask of every h whose closure holds g.

    For principal closures, the complement of below[g] is the principal
    complement {h : g not in closure(h)}, the largest down-set missing g.
    """
    below = [0] * len(closures)
    for h, closure in enumerate(closures):
        for g in iter_bits(closure):
            below[g] |= 1 << h
    return below


def principal_closures(ring, side=TWO_SIDED):
    """The n principal ideal subsets serre_closure(g), g in basis order:
    a tuple cached on the ring per side, read by the lattice, the
    spectrum and the Zariski tags alike."""
    key = ("principal", side)
    cached = ring.cache.get(key)
    if cached is None:
        cached = tuple(serre_closure(ring, 1 << g, side)
                       for g in range(ring.size))
        ring.cache[key] = cached
    return cached


def principal_complements(ring):
    """{complement: g} over the principal complements {h : g not in
    serre_closure(h)}, the largest two-sided ideal subset missing g,
    each keyed once to its first g in basis order."""
    full = ring.full_mask
    first = {}
    for g, below in enumerate(transpose(principal_closures(ring))):
        first.setdefault(full & ~below, g)
    return first


def enumerate_serre_ideals(ring, side=TWO_SIDED):
    """Every ideal subset, empty and full included, ordered by
    (cardinality, lexicographic index tuple).

    The down-sets of the principal closures, found after n closures, in
    the order down_sets emits them; nothing sorts them afterwards.  When
    every principal closure is a single element, the lattice is all 2^n
    subsets, listed by cardinality with no search (see down_sets).  The
    result is a tuple of masks, cached on the ring and returned as is.
    This is the one place BasisTooLarge is raised: a lattice not yet
    cached is built for a basis over BASIS_GUARD only inside
    ``allow_large()`` in the current context; a cached one is returned
    in any context.
    """
    key = ("ideals", side)
    cached = ring.cache.get(key)
    if cached is None:
        if ring.size > BASIS_GUARD and not _ALLOW_LARGE.get():
            raise BasisTooLarge(
                f"basis of size {ring.size} exceeds the basis-size guard "
                f"({BASIS_GUARD}); pass --allow-large or use "
                f"serrespec.allow_large() to override")
        cached = tuple(down_sets(principal_closures(ring, side),
                                 ring.full_mask))
        ring.cache[key] = cached
    return cached


def product_support(ring, left, right):
    """Union of supp(b_alpha b_beta) over alpha in the first subset and
    beta in the second; the product ideal lies inside a Serre ideal P
    exactly when this subset does."""
    pm = ring.product_masks
    rights = list(iter_bits(right))
    out = 0
    for a in iter_bits(left):
        row = pm[a]
        for b in rights:
            out |= row[b]
    return out


def pairs_inside(ring, subsets, target):
    """Every pair (i, j) of the listed subsets whose product_support lies
    inside the target mask, i-major in list order.

    The subsets may come from any iterable, a one-shot iterator
    included, and are read lazily: the first row reads them one at a
    time and yields (first, j) as soon as it has read j, so a caller
    that stops at its first pair reads no subset after the one that
    completes it.  Rows 2 onward scan the subsets the first row listed.

    No product support is computed.  The product of i and j leaves the
    target exactly when some a in i and b in j have product_masks[a][b]
    outside it; so each basis element b gets, on first use, the escape
    mask of the a that send it out, read from ring.columns[b], one AND
    per nonzero product ab; each subset j gets the union of its members'
    escape masks, its hit, as it is read; and after that a pair costs
    one AND.
    """
    columns = ring.columns
    outside = ~target
    escapes = [None] * len(columns)
    listed = []
    hits = []
    subsets = iter(subsets)
    first = next(subsets, None)
    if first is None:
        return
    for j in chain((first,), subsets):
        hit = 0
        for b in iter_bits(j):
            escape = escapes[b]
            if escape is None:
                escape = 0
                for a, product in columns[b]:
                    if product & outside:
                        escape |= 1 << a
                escapes[b] = escape
            hit |= escape
        listed.append(j)
        hits.append(hit)
        if not first & hit:
            yield first, j
    for i in listed[1:]:
        for j, hit in zip(listed, hits):
            if not i & hit:
                yield i, j


def require_proper_two_sided(ring, members):
    """Shared precondition for primality-style predicates; returns the mask."""
    ok, witness = is_serre_ideal(ring, members, TWO_SIDED)
    if not ok:
        g, b, e = witness
        raise NotAnIdeal(
            f"{{{', '.join(labels_from_mask(ring, members))}}} is not a "
            f"two-sided Serre ideal: product with {ring.labels[b]} escapes "
            f"through {ring.labels[e]}")
    if members == ring.full_mask:
        raise ImproperIdeal("the whole ring is not a proper ideal")
    return members


def quotient_ring(ring, ideal):
    """Quotient by a proper two-sided ideal subset: the sub_ring on the
    complement of the ideal.

    The surviving basis keeps its order and structure constants; blocks
    and units restrict, units absorbed by the ideal are dropped.  The
    truncated table is re-validated from scratch rather than trusted.
    """
    members = require_proper_two_sided(ring, ideal)
    if members == 0:
        name = ring.name
    else:
        dropped = ",".join(labels_from_mask(ring, members))
        name = f"{ring.name}/{{{dropped}}}"
    return sub_ring(ring, ring.full_mask & ~members, name)
