"""The two topologies on the set of Serre primes: inclusion-based closed
sets V(I) = {P : P contains I} indexed by ideal subsets (Zariski), and
support-avoidance closed sets V_B(X) = {P : X does not meet P} indexed by
basis subsets (Balmer style).

Both families are finite topologies.  Their generators are closed under
intersection (V(I) & V(J) = V(I + J), V_B(X) & V_B(Y) = V_B(X | Y)) and
include the closure of every point, so the closed sets are exactly the
subsets of the spectrum closed under specialization, the unions of point
closures.  The closure of P is V(P) = {Q : P inside Q} for Zariski and
V_B(complement of P) = {Q : Q inside P} for Balmer style.  Both are read
from the spectrum's inclusion pairs, the one definition of the
specialization order, and kept on the family; the closed sets are listed
by the same down-set search as the ideal lattice, in the canonical extent
order that search emits, not sorted afterwards.  A discrete spectrum, no
prime inside another, has every subset of the space closed in both
styles; ``down_sets`` lists those 2^r extents without a search.

Each closed set is tagged with its first defining subset in canonical
order.  The Zariski generators are already closed under unions.  A
Balmer-style set may be only a union of generators and then has no tag,
and the empty set is adjoined untagged exactly when the zero ideal is
prime, since every V_B(X) then contains it.  Both facts are recorded per
ring.

The Zariski tags read no lattice.  Every Serre prime P is a principal
complement {h : g not in serre_closure(h)}, the largest ideal missing
g; take for each prime the first such g, its generator g_P.  An ideal
I is not inside P exactly when g_P is in I, that is when
serre_closure(g_P) lies in I: the least ideal not inside P.  For a
closed set E let U_E be the union of serre_closure(g_P) over the primes
P outside E, an ideal since ideal subsets are the down-sets of a
preorder.  A prime Q of E lies inside no P outside E, as E holds every
prime above Q; so Q holds every such g_P, and U_E lies inside the
intersection of E.  U_E lies inside no P outside E, so V(U_E) = E.
Every ideal I with V(I) = E lies inside no such P and so holds U_E;
U_E is smaller unless it is I, and comes first in canonical order,
which puts cardinality first.  So every closed set has a defining
ideal, U_E is its tag, and no Zariski union is left untagged and no
empty set adjoined.
"""

from collections import namedtuple

from .ideals import down_sets, principal_closures, principal_complements
from .zring import RingError, iter_bits, labels_from_mask
from .spectrum import serre_spec

ZARISKI = "zariski"
BALMER = "balmer"


class ClosedSetFamily(namedtuple("ClosedSetFamily",
                                 "style space extents tags "
                                 "generators_union_closed empty_set_adjoined "
                                 "closures")):
    """The closed sets of one topology on the spectrum.

    ``space`` lists the prime masks and ``extents`` the closed sets over
    them, both in canonical order; ``tags`` gives each extent its defining
    subset, or None; ``closures`` maps each point to its closure extent.
    """

    __slots__ = ()

    @property
    def sets(self):
        """The closed sets as (extent, tag) pairs."""
        return list(zip(self.extents, self.tags))


def closed_set(spec, arg, style):
    """Extent mask of one closed set over the given spectrum.

    Zariski: primes containing the ideal subset; Balmer style: primes
    whose members avoid the basis subset.
    """
    extent = 0
    if style == ZARISKI:
        for i, p in enumerate(spec.primes):
            if not arg & ~p:
                extent |= 1 << i
    elif style == BALMER:
        for i, p in enumerate(spec.primes):
            if not arg & p:
                extent |= 1 << i
    else:
        raise RingError(f"unknown topology style {style!r}")
    return extent


def _balmer_tags(ring, spec, space):
    """The first basis subset X in canonical order for every extent
    V_B(X), searched breadth-first by cardinality.

    V_B(X | {x}) = V_B(X) & V_B({x}), and a first subset minus its
    largest index is again the first subset of its own extent; so each
    level extends only the previous level's first subsets, by indices
    above their largest, and in that order the first candidate to reach
    an extent is its first subset.
    """
    single = [closed_set(spec, 1 << x, BALMER) for x in range(ring.size)]
    tags = {space: 0}
    level = [(0, space)]
    while level:
        nxt = []
        for mask, extent in level:
            for x in range(mask.bit_length(), ring.size):
                ext = extent & single[x]
                if ext not in tags:
                    tags[ext] = mask | 1 << x
                    nxt.append((mask | 1 << x, ext))
        level = nxt
    return tags


def _zariski_tags(ring, primes, extents):
    """The first ideal in canonical order for every extent V(I): the
    union of least[i] = serre_closure(g_i) over the primes i outside it
    (see the module docstring).

    The unions are read one byte of primes at a time: each run of 8
    primes has a table of the unions of its 256 subsets, built by
    doubling, so a tag costs one lookup per run."""
    closures = principal_closures(ring)
    first = principal_complements(ring)
    least = [closures[first[p]] for p in primes]
    tables = []
    for start in range(0, len(least), 8):
        table = [0]
        for closure in least[start:start + 8]:
            table += [union | closure for union in table]
        tables.append(table)
    space = (1 << len(primes)) - 1
    tags = {}
    for extent in extents:
        outside, tag = space & ~extent, 0
        for table in tables:
            tag |= table[outside & 255]
            outside >>= 8
        tags[extent] = tag
    return tags


def build_topology(ring, style):
    """Family of all closed sets of the chosen style in canonical extent
    order; every set keeps the first defining subset in canonical order
    as its tag (None for unions of generators and an adjoined empty
    set).

    The extents are the down-sets of the point closures, all 2^r
    subsets of the space when no prime lies inside another.  Zariski tags
    are then unions of the least ideals outside each prime, read per
    extent from byte tables (see the module docstring); Balmer-style
    tags come from a breadth-first search over basis subsets.  An unknown
    style is refused before any of this work."""
    if style not in (ZARISKI, BALMER):
        raise RingError(f"unknown topology style {style!r}")
    spec = serre_spec(ring)
    space = (1 << len(spec.primes)) - 1
    closures = [1 << i for i in range(len(spec.primes))]
    for i, j in spec.inclusions:
        if style == ZARISKI:
            closures[i] |= 1 << j
        else:
            closures[j] |= 1 << i
    extents = down_sets(closures, space)
    if style == ZARISKI:
        tags = _zariski_tags(ring, spec.primes, extents)
    else:
        tags = _balmer_tags(ring, spec, space)
    return ClosedSetFamily(style, list(spec.primes), extents,
                           [tags.get(e) for e in extents],
                           all(e in tags for e in extents if e),
                           0 not in tags, closures)


def specialization_edges(family):
    """Pairs (i, j), i != j, with point j in the closure of point i."""
    edges = []
    for i, closure in enumerate(family.closures):
        for j in iter_bits(closure):
            if j != i:
                edges.append((i, j))
    return edges


def ideal_node_name(ring, ideal):
    return "{" + ",".join(labels_from_mask(ring, ideal)) + "}"


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
