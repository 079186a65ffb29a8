"""Block-structured rings viewed as arrow algebras over finitely many
objects: unit-decomposition checking and the corner-ring classification of
completely prime ideal subsets.

A completely prime ideal of a block ring singles out one object A: it
contains every class outside the diagonal block of A, and meets that
block in a completely prime ideal Q of the corner ring, subject to the
cross-block condition that arrows through any other object compose into
Q.  Conversely every such (A, Q) pair yields a completely prime ideal, so
the classification below agrees with brute-force filtering of the ideal
lattice (asserted in the tests).

Every completely prime ideal is Serre prime, so the candidates Q (and,
without blocks, the answers themselves) are the flagged primes of a
spectrum; no ideal lattice is filtered here.
"""

from dataclasses import dataclass

from .ideals import product_support
from .spectrum import serre_spec
from .zring import (RingError, block_objects, iter_bits, mask_of, sub_ring,
                    subset_key, unit_decomposition_violations)


class MissingBlocks(RingError):
    pass


@dataclass(frozen=True)
class BlockRingView:
    objects: tuple        # first-appearance order along the basis
    block_masks: dict     # (source, target) -> basis mask
    diagonal_units: dict  # object -> unit basis index


def block_view(ring):
    """Validated block decomposition with one declared unit per object."""
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
        src, dst = ring.blocks[u]
        if src != dst:
            raise MissingBlocks(
                f"unit {ring.labels[u]} lies off the diagonal")
        if src in diagonal_units:
            raise MissingBlocks(f"object {src} declares two units")
        diagonal_units[src] = u
    missing = [obj for obj in objects if obj not in diagonal_units]
    if missing:
        raise MissingBlocks(
            f"objects without a declared unit: {', '.join(missing)}")
    return BlockRingView(objects, block_masks, diagonal_units)


def check_unit_decomposition(ring, units=None):
    """Is the sum of the (given or declared) units a two-sided identity?

    Returns (True, None) or (False, first failing basis label).
    """
    if units is None:
        units = ring.units
    if units is None:
        raise RingError("no units declared")
    units = frozenset(u if isinstance(u, int) else ring.index(u)
                      for u in units)
    violations = unit_decomposition_violations(ring.labels, ring.tensor, units)
    if violations:
        return False, violations[0].witness
    return True, None


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
    """All completely prime ideal subsets: the completely prime points of
    the Serre spectrum, read per corner ring and lifted when blocks are
    declared.

    Exact because every completely prime ideal is Serre prime: were
    a t b inside P for all t with a, b outside P, each class c of a t
    would have c b inside P and so lie in P itself; but a is a class of
    a u for some declared unit u, and without units the product a b is
    among those checked.
    """
    if ring.blocks is None:
        spec = serre_spec(ring)
        return [p for p, cp in zip(spec.primes, spec.completely_prime) if cp]
    view = block_view(ring)
    results = []
    for obj in view.objects:
        corner_mask = view.block_masks.get((obj, obj), 0)
        corner, old = corner_ring(ring, obj)
        cross = 0
        for other in view.objects:
            if other == obj:
                continue
            arrows_in = view.block_masks.get((other, obj), 0)
            arrows_out = view.block_masks.get((obj, other), 0)
            cross |= product_support(ring, arrows_in, arrows_out)
        outside = ring.full_mask & ~corner_mask
        spec = serre_spec(corner)
        for q, cp in zip(spec.primes, spec.completely_prime):
            lifted = mask_of(old[i] for i in iter_bits(q))
            if not cp or cross & ~lifted:
                continue
            results.append(outside | lifted)
    return sorted(set(results), key=subset_key)
