"""The two topologies on the set of Serre primes: inclusion-based closed
sets V(I) = {P : P contains I} indexed by ideal subsets (Zariski), and
support-avoidance closed sets V_B(X) = {P : X does not meet P} indexed by
basis subsets (Balmer style).

The Zariski family generated by all ideal subsets is already closed under
finite unions and arbitrary intersections; the Balmer-style family is
generated, the empty set adjoined when no basis subset produces it (it
never does while the zero ideal is prime), and then explicitly closed
under pairwise unions.  Whether the generators were union-closed to begin
with is recorded per ring.
"""

from dataclasses import dataclass, field

from .ideals import enumerate_serre_ideals, members_of
from .zring import (RingError, check_guard, iter_bits, labels_from_mask,
                    subset_key)
from .spectrum import serre_spec

ZARISKI = "zariski"
BALMER = "balmer"


@dataclass(frozen=True)
class ClosedSet:
    extent: int       # bitmask over spectrum points
    tag: int | None   # defining ideal / basis subset; None for adjoined sets


@dataclass
class ClosedSetFamily:
    style: str
    space: list                  # primes, canonical order
    sets: list = field(default_factory=list)
    generators_union_closed: bool = True
    empty_set_adjoined: bool = False


def closed_set(ring, spec, arg, style):
    """Extent mask of one closed set over the given spectrum.

    Zariski: primes containing the ideal subset; Balmer style: primes
    whose members avoid the basis subset.
    """
    arg = members_of(arg)
    extent = 0
    if style == ZARISKI:
        for i, p in enumerate(spec.primes):
            if not arg & ~p.members:
                extent |= 1 << i
    elif style == BALMER:
        for i, p in enumerate(spec.primes):
            if not arg & p.members:
                extent |= 1 << i
    else:
        raise RingError(f"unknown topology style {style!r}")
    return extent


def build_topology(ring, style, spec=None, allow_large=False):
    """Family of all closed sets of the chosen style, deduplicated by
    extent; every set keeps the first defining subset in canonical order
    as its tag (None for sets only reachable by closing the family)."""
    if spec is None:
        spec = serre_spec(ring, allow_large)
    by_extent = {}
    if style == ZARISKI:
        for ideal in enumerate_serre_ideals(ring, allow_large=allow_large):
            ext = closed_set(ring, spec, ideal, style)
            by_extent.setdefault(ext, ideal.members)
    elif style == BALMER:
        check_guard(ring, allow_large)
        for mask in sorted(range(1 << ring.size), key=subset_key):
            ext = closed_set(ring, spec, mask, style)
            by_extent.setdefault(ext, mask)
    else:
        raise RingError(f"unknown topology style {style!r}")

    sets = {ext: ClosedSet(ext, tag) for ext, tag in by_extent.items()}
    union_closed = True
    adjoined = 0 not in sets
    if adjoined:
        sets[0] = ClosedSet(0, None)
    while True:
        extents = list(sets)
        new = {}
        for i, a in enumerate(extents):
            for b in extents[i + 1:]:
                u = a | b
                if u not in sets and u not in new:
                    new[u] = ClosedSet(u, None)
        if not new:
            break
        union_closed = False
        sets.update(new)

    ordered = sorted(sets.values(), key=lambda s: subset_key(s.extent))
    return ClosedSetFamily(style, list(spec.primes), ordered, union_closed,
                           adjoined)


def point_closure(family, point):
    """Intersection of all closed sets containing the point."""
    bit = 1 << point
    extent = (1 << len(family.space)) - 1
    for s in family.sets:
        if s.extent & bit:
            extent &= s.extent
    return extent


def specialization_edges(family):
    """Pairs (i, j), i != j, with point j in the closure of point i."""
    closures = [point_closure(family, i) for i in range(len(family.space))]
    edges = []
    for i, cl in enumerate(closures):
        for j in iter_bits(cl):
            if j != i:
                edges.append((i, j))
    return edges


def ideal_node_name(ring, ideal):
    return "{" + ",".join(labels_from_mask(ring, members_of(ideal))) + "}"


def to_dot(ring, family):
    """DOT digraph of the specialization preorder; an edge P -> Q means Q
    lies in the closure of {P}.  Node names are the ideal label lists."""
    lines = ["digraph specialization {"]
    names = [ideal_node_name(ring, p) for p in family.space]
    for name in names:
        lines.append(f'  "{name}";')
    for i, j in specialization_edges(family):
        lines.append(f'  "{names[i]}" -> "{names[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
