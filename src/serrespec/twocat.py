"""Block-structured rings viewed as arrow algebras over finitely many
objects: corner rings and the classification of completely prime ideal
subsets.

A completely prime ideal of a block ring singles out one object A: it
contains every class outside the diagonal block of A, and meets that
block in a completely prime ideal Q of the corner ring, subject to the
cross-block condition that arrows through any other object compose into
Q.  The classification needs no corner rings to find them, though,
because of two inclusions:

- every completely prime ideal is Serre prime: for a and b outside P,
  ab lies in the product <a><b> of the principal ideals they generate,
  so if <a><b> lands in P, so does ab;
- every Serre prime is a principal complement {h : g not in
  serre_closure(h)} (spectrum._prime_masks).

So the answers are the completely prime ones among the at most n
principal complements, for every ring with or without blocks; no ideal
lattice and no spectrum is read.  The tests check them against
brute-force filtering of the lattice and against the corner-ring
classification (tests/oracles.py:corner_classified_cprimes).

A ring here has passed the checks of zring._assemble, so its units are
already a decomposition of the identity, each unit lies on the diagonal
and every object has a unit (see block_view); only a missing
declaration and an object with two units are left to refuse.
"""

from collections import namedtuple

from .ideals import principal_complements
from .spectrum import _first_pair
from .zring import RingError, block_objects, iter_bits, sub_ring, subset_key


class MissingBlocks(RingError):
    pass


class BlockRingView(namedtuple("BlockRingView",
                               "objects block_masks diagonal_units")):
    """``objects`` in first-appearance order along the basis;
    ``block_masks`` maps (source, target) to a basis mask and
    ``diagonal_units`` maps an object to its unit's basis index."""

    __slots__ = ()


def block_view(ring):
    """Block decomposition with one declared unit per object.

    The block and unit checks the ring passed leave two refusals out.  A
    unit u has u u = u, a nonzero product, so the block check puts u in
    a diagonal block (A, A).  For g in block (A, B), the unit sum times
    g and g times the unit sum are both g, so some unit u has u g != 0
    and some unit v has g v != 0, and the block check puts u on B and v
    on A: every object has a unit.
    """
    if ring.blocks is None:
        raise MissingBlocks("ring declares no blocks")
    if ring.units is None:
        raise MissingBlocks("block classification requires declared units")
    objects = block_objects(ring.blocks)
    block_masks = {}
    for i, pair in enumerate(ring.blocks):
        block_masks[pair] = block_masks.get(pair, 0) | 1 << i
    diagonal_units = {}
    for u in sorted(ring.units):
        obj = ring.blocks[u][0]
        if obj in diagonal_units:
            raise MissingBlocks(f"object {obj} declares two units")
        diagonal_units[obj] = u
    return BlockRingView(objects, block_masks, diagonal_units)


def corner_ring(ring, obj):
    """The induced ring on the diagonal block of one object: the sub_ring
    on that block.

    Returns (corner, old_indices).  Products of diagonal classes never
    leave the block, so nothing is truncated; the corner keeps the
    object's one unit (block_view puts it on the diagonal) and its
    one-object block.
    """
    view = block_view(ring)
    if obj not in view.objects:
        raise MissingBlocks(f"unknown object {obj!r}")
    corner_mask = view.block_masks[obj, obj]
    corner = sub_ring(ring, corner_mask, f"{ring.name}[{obj},{obj}]")
    return corner, list(iter_bits(corner_mask))


def classify_completely_primes(ring):
    """All completely prime ideal subsets, in canonical order: the
    distinct principal complements with no pair of basis elements outside
    whose product support lands inside (spectrum._first_pair).  Each
    complement is a proper two-sided ideal by construction, so none is
    checked for it.

    Complete primality implies Serre primality (ab lies in <a><b>), and
    every Serre prime is a principal complement, so no completely prime
    ideal lies outside the candidates.
    A ring that declares blocks must also pass block_view, whose
    MissingBlocks refusals name what the block structure lacks.
    """
    if ring.blocks is not None:
        block_view(ring)
    table = ring.product_masks
    return sorted((c for c in principal_complements(ring)
                   if _first_pair(table, c) is None), key=subset_key)
