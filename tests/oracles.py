"""Independent brute-force oracles used to pin expected values.

Everything here recomputes from element arithmetic on flat rows
(tests/arith.py: products of basis elements read straight off the
tensor), deliberately avoiding the precomputed support tables, the
absorb-mask ideal test, and the fast primality scans that the library
itself uses; naive_mismatches and naive_violations multiply on a table
that was never validated.  Tests compare library output against
these.  The exceptions are scan_enumerate, sweep_topology,
lattice_maximal_disjoint, lattice_filtered_primes and plain_fold, copies
of the library's former 2^n absorb-mask lattice scan, its former
topology construction (a 2^n Balmer sweep closed under unions), its
former search for maximal ideals avoiding a power orbit (a filter over
the whole ideal lattice), its former prime list (the basis-pair
primality scan run on every lattice member, now over naive two-step
supports with its own pair scan, naive_first_pair) and its former
memo-free product fold, kept as order-exact oracles for the down-set
searches, the reading of the prime list, the paper's statement that
such maximal ideals are prime and the memoised fold; scan_pairs_inside
is the former double loop of the definitional primality check and the
minimal-primes splitting search, kept on naive_product_support as the
order-exact oracle for ideals.pairs_inside;
rebuilt_sub_ring is the former label-keyed zring.sub_ring, which rebuilt
the restricted table through build_ring; labelled_truncation is the
former monomial.truncate_to_ring, which made a Coefficient for every
pair of monomials within the degree and validated through build_ring;
looped_unit_defaults is the former io._fill_unit_defaults, which decided
each (unit, basis element, side) triple on its own; looped_packing_pays
is the former zring._packing_pays, which weighed the rows' terms until
they outweighed the cells, with no bound to decide a table first;
combination_subsets is the former discrete path of ideals.down_sets,
which listed the subsets of each cardinality by itertools.combinations;
corner_classified_cprimes is the former twocat classification, which
read each object's corner-ring spectrum and lifted it, the paper's block
theorem for completely prime ideals; worklist_closure is the former
ideals.serre_closure, a deque worklist in basis order over the absorb
masks, and squares_primes the former spectrum._prime_masks, which kept
each principal complement P_g whose square product_support(<g>, <g>)
escapes it, kept as order-exact oracles for the frontier rounds and the
producer-list test.
"""

from collections import deque
from itertools import (chain, combinations, combinations_with_replacement,
                       product)

import numpy as np

from serrespec import (BALMER, LAURENT, LEFT, RIGHT, TWO_SIDED, ZARISKI,
                       Coefficient, allow_large, block_view, build_ring,
                       closed_set, corner_ring, enumerate_serre_ideals,
                       product_support, serre_spec)
from serrespec.monomial import _graded_vectors, monomial_label
from serrespec.zring import (_CELLS_PER_PARTIAL_PRODUCT, iter_bits,
                             mask_of, select_by_mask, subset_key)

from arith import add, basis, mul, support, text


def naive_product_mask(ring, a, b):
    return support(mul(ring.tensor, basis(a), basis(b)))


def naive_is_serre_ideal(ring, members, side=TWO_SIDED):
    for g in range(ring.size):
        if not members >> g & 1:
            continue
        for b in range(ring.size):
            if side in (LEFT, TWO_SIDED):
                if naive_product_mask(ring, b, g) & ~members:
                    return False
            if side in (RIGHT, TWO_SIDED):
                if naive_product_mask(ring, g, b) & ~members:
                    return False
    return True


def naive_ideal_witness(ring, members, side=TWO_SIDED):
    """First (gamma, beta, escapee) with gamma in the subset, scanning
    gamma then beta in basis order, the left product b_beta b_gamma
    before the right one b_gamma b_beta; escapee is the lowest index of
    the product's support outside the subset.  None for an ideal."""
    for g in range(ring.size):
        if not members >> g & 1:
            continue
        for b in range(ring.size):
            products = []
            if side in (LEFT, TWO_SIDED):
                products.append(naive_product_mask(ring, b, g))
            if side in (RIGHT, TWO_SIDED):
                products.append(naive_product_mask(ring, g, b))
            for esc in products:
                esc &= ~members
                if esc:
                    return g, b, (esc & -esc).bit_length() - 1
    return None


def naive_enumerate(ring, side=TWO_SIDED):
    return [m for m in range(1 << ring.size)
            if naive_is_serre_ideal(ring, m, side)]


def scan_enumerate(ring, side=TWO_SIDED):
    """Every subset closed under the absorb masks of the side, tested one
    by one over all 2^n subsets, in canonical (cardinality, lex) order."""
    tables = []
    if side in (LEFT, TWO_SIDED):
        tables.append(ring.left_absorb)
    if side in (RIGHT, TWO_SIDED):
        tables.append(ring.right_absorb)
    absorb = [0] * ring.size
    for g in range(ring.size):
        for t in tables:
            absorb[g] |= t[g]
    found = []
    for m in range(1 << ring.size):
        mm = m
        while mm:
            low = mm & -mm
            if absorb[low.bit_length() - 1] & ~m:
                break
            mm ^= low
        else:
            found.append(m)
    found.sort(key=lambda m: (m.bit_count(), index_tuple(m)))
    return found


def index_tuple(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def canonical_key(mask):
    return mask.bit_count(), index_tuple(mask)


def combination_subsets(full):
    """Every subset of the mask full in canonical order: combinations
    emit each cardinality in lexicographic index order."""
    bits = [1 << g for g in iter_bits(full)]
    return list(chain.from_iterable(map(sum, combinations(bits, k))
                                    for k in range(len(bits) + 1)))


def sweep_topology(ring, style):
    """Closed sets of the style as ([(extent, tag)] in canonical extent
    order, generators_union_closed, empty_set_adjoined): Zariski
    generators from every ideal subset, Balmer-style ones from all 2^n
    basis subsets, the first subset per extent as its tag, then the
    empty set adjoined if missing and the unions of the extents added
    (a worklist, independent of the library's down-set search)."""
    with allow_large():
        spec = serre_spec(ring)
        if style == ZARISKI:
            args = enumerate_serre_ideals(ring)
        else:
            assert style == BALMER
            args = sorted(range(1 << ring.size), key=canonical_key)
    tags = {}
    for arg in args:
        tags.setdefault(closed_set(spec, arg, style), arg)
    sets = dict(tags)
    adjoined = 0 not in sets
    if adjoined:
        sets[0] = None
    # every union of generators is reached one generator at a time, so
    # each round unions only the sets the last one added with the
    # generators, and the first round each pair of generators once
    gens = list(sets)
    new = {a | b for i, a in enumerate(gens) for b in gens[:i]}
    new.difference_update(sets)
    union_closed = not new
    while new:
        sets.update(dict.fromkeys(new))
        new = {a | b for a in new for b in gens}.difference(sets)
    ordered = sorted(sets.items(), key=lambda item: canonical_key(item[0]))
    return ordered, union_closed, adjoined


def power_orbit(ring, gens):
    """The supports of g, g^2, g^3, ... each listed once, for g the sum of
    the basis elements in the mask gens.  By positivity the support of
    x * g is the product support of supp(x) and supp(g), so each support
    follows from the one before and the sequence is eventually periodic:
    the list is exact, with no power bound."""
    orbit = []
    cur = gens
    while cur not in orbit:
        orbit.append(cur)
        cur = naive_product_support(ring, cur, gens)
    return orbit


def lattice_maximal_disjoint(ring, orbit, base):
    """Masks maximal among the two-sided ideal subsets that contain the
    base mask and no mask of the orbit, in canonical order.

    Canonical order puts cardinality first, so walking the lattice in
    reverse meets every candidate after each one strictly above it.  A
    candidate that is not maximal lies below a maximal one, which is
    then already kept, so testing against the kept ones suffices."""
    with allow_large():
        lattice = enumerate_serre_ideals(ring)
    kept = []
    for m in reversed(lattice):
        if (not base & ~m and all(s & ~m for s in orbit)
                and all(m & ~k for k in kept)):
            kept.append(m)
    return kept[::-1]


def naive_first_pair(table, members):
    """First basis pair (a, b) outside the subset, in basis order, with
    table[a][b] inside it; None if there is none.  Every pair of indices
    is visited, so this shares no code with the library's scan."""
    n = len(table)
    for a, b in product(range(n), repeat=2):
        if not (members >> a & 1 or members >> b & 1
                or table[a][b] & ~members):
            return a, b
    return None


def lattice_filtered_primes(ring):
    """Proper two-sided ideal subsets with no basis pair (a, b) outside
    them whose naive two-step supports all land inside, every lattice
    member tested, in lattice order.  The table is built here from
    element arithmetic, so it shares nothing with the fast prime test,
    which quantifies over principal ideals instead."""
    with allow_large():
        lattice = enumerate_serre_ideals(ring)
    table = [[naive_triple_support(ring, a, b) for b in range(ring.size)]
             for a in range(ring.size)]
    return [m for m in lattice
            if m != ring.full_mask and naive_first_pair(table, m) is None]


def worklist_closure(ring, gens, side=TWO_SIDED):
    """Least ideal subset containing the generators: a worklist in basis
    order, each member's absorb mask read once as it is popped."""
    absorb = {LEFT: ring.left_absorb, RIGHT: ring.right_absorb,
              TWO_SIDED: ring.two_sided_absorb}[side]
    members = gens
    queue = deque(iter_bits(members))
    while queue:
        added = absorb[queue.popleft()] & ~members
        members |= added
        queue.extend(iter_bits(added))
    return members


def squares_primes(ring):
    """Serre prime masks in lattice order: each principal complement P_g
    whose square product_support(<g>, <g>) escapes it, with <g> the
    worklist closure of g."""
    with allow_large():
        lattice = enumerate_serre_ideals(ring, TWO_SIDED)
    closures = [worklist_closure(ring, 1 << g) for g in range(ring.size)]
    first = {}
    for g in range(ring.size):
        first.setdefault(mask_of(h for h, c in enumerate(closures)
                                 if not c >> g & 1), g)
    squares = [product_support(ring, c, c) for c in closures]
    return [m for m in lattice if m in first and squares[first[m]] & ~m]


def corner_classified_cprimes(ring):
    """Completely prime ideal subsets in canonical order.  Without blocks,
    the completely prime points of the Serre spectrum.  With blocks, per
    object A: every class outside A's diagonal block, together with a
    completely prime ideal Q of A's corner ring such that the arrows
    through every other object compose into Q."""
    if ring.blocks is None:
        spec = serre_spec(ring)
        return [p for p, cp in zip(spec.primes, spec.completely_prime) if cp]
    view = block_view(ring)
    results = set()
    for obj in view.objects:
        corner, old = corner_ring(ring, obj)
        cross = 0
        for other in view.objects:
            if other != obj:
                cross |= product_support(
                    ring, view.block_masks.get((other, obj), 0),
                    view.block_masks.get((obj, other), 0))
        outside = ring.full_mask & ~view.block_masks[obj, obj]
        spec = serre_spec(corner)
        for q, cp in zip(spec.primes, spec.completely_prime):
            lifted = mask_of(old[i] for i in iter_bits(q))
            if cp and not cross & ~lifted:
                results.add(outside | lifted)
    return sorted(results, key=subset_key)


def plain_fold(ring, chain):
    """Left fold of product_support along a chain, one product per step."""
    if not chain:
        return 0
    acc = chain[0]
    for nxt in chain[1:]:
        acc = product_support(ring, acc, nxt)
    return acc


def table_of(ring):
    """The ring's tensor as build_ring input: a fresh index-keyed table
    {(a, b): {g: Coefficient}}, safe to edit."""
    table = {}
    for ab, row in ring.tensor.items():
        terms = {}
        for (g, e), v in row.items():
            terms.setdefault(g, {})[e] = v
        table[ab] = {g: Coefficient(ring.mode, t) for g, t in terms.items()}
    return table


def flat_rows(table):
    """An index-keyed Coefficient table as the flat rows a ring stores,
    {(a, b): {(g, q-exponent): value}}."""
    return {ab: {(g, e): v for g, c in row.items() for e, v in c.terms.items()}
            for ab, row in table.items()}


def rebuilt_sub_ring(ring, keep, name):
    """The ring on the basis mask keep, its label-keyed table restricted
    to keep and validated through build_ring."""
    labels = ring.labels
    tensor = {}
    for (a, b), row in table_of(ring).items():
        if keep >> a & keep >> b & 1:
            kept = {labels[g]: c for g, c in row.items() if keep >> g & 1}
            if kept:
                tensor[labels[a], labels[b]] = kept
    kept_labels = select_by_mask(labels, keep)
    blocks = None
    if ring.blocks is not None:
        blocks = dict(zip(kept_labels, select_by_mask(ring.blocks, keep)))
    units = None
    if ring.units is not None:
        units = [labels[u] for u in sorted(ring.units) if keep >> u & 1]
    return build_ring(kept_labels, tensor, ring.mode, blocks, units, name)


def labelled_truncation(ring, degree, name=None):
    """The monomial ring's degree truncation from a label-keyed table:
    every pair of monomials is tried, and those within the degree get
    the row {label of a + b: q^kappa(a, b)}."""
    vecs = _graded_vectors(ring.nvars, degree)
    labels = [monomial_label(v) for v in vecs]
    position = {v: i for i, v in enumerate(vecs)}
    tensor = {}
    for a in vecs:
        for b in vecs:
            s = tuple(x + y for x, y in zip(a, b))
            if sum(s) > degree:
                continue
            coeff = Coefficient.q_power(ring.kappa(a, b))
            tensor[(labels[position[a]], labels[position[b]])] = {
                labels[position[s]]: coeff}
    if name is None:
        name = f"qmonomial-{ring.nvars}vars-deg{degree}"
    return build_ring(labels, tensor, LAURENT, None, ["1"], name)


def looped_unit_defaults(rows, n, units, blocks):
    """Fill the unit products the axioms force, in place: rows holds a
    row for every written pair, empty for '= 0', and each (unit, g, side)
    triple not in rows is decided on its own."""
    for u in units:
        for g in range(n):
            for pair, unit_on_left in (((u, g), True), ((g, u), False)):
                if pair in rows:
                    continue
                if blocks is not None:
                    obj = blocks[u][0]
                    src, dst = blocks[g]
                    acts = (dst == obj) if unit_on_left else (src == obj)
                elif len(units) == 1:
                    acts = True
                else:
                    continue  # several units, no blocks: nothing is forced
                if acts:
                    rows[pair] = {(g, 0): 1}


def looped_packing_pays(flat, n):
    """The work rule weighed term by term: whether _CELLS_PER_PARTIAL_PRODUCT
    times the partial products the sparse path makes from the flat rows
    outweighs the packed path's n * (2 * terms + n^2) cells."""
    starts = [0] * n
    ends = [0] * n
    for (a, b), row in flat.items():
        starts[a] += len(row)
        ends[b] += len(row)
    cells = n * (2 * sum(starts) + n * n)
    weighted = 0
    for row in flat.values():
        for g, _ in row:
            weighted += _CELLS_PER_PARTIAL_PRODUCT * (starts[g] + ends[g])
    return weighted > cells


def naive_mismatches(flat, n):
    """(a, b, c, (ab)c, a(bc)) for every triple of basis indices whose two
    products differ, in lexicographic order, multiplied out on the flat
    rows {(a, b): {(g, q-exponent): value}} of a table."""
    out = []
    for a, b, c in product(range(n), repeat=3):
        lhs = mul(flat, mul(flat, basis(a), basis(b)), basis(c))
        rhs = mul(flat, basis(a), mul(flat, basis(b), basis(c)))
        if lhs != rhs:
            out.append((a, b, c, lhs, rhs))
    return out


def naive_violations(labels, tensor, units=None):
    """Associativity and unit-axiom failures of an index-keyed Coefficient
    tensor, in build_ring's order: (alpha, beta, gamma, first differing
    label, lhs text, rhs text) for every triple in lexicographic order,
    then (unit or None, witness, detail) for the unit checks."""
    flat = flat_rows(tensor)
    elem = [basis(i) for i in range(len(labels))]

    def times(x, y):
        return mul(flat, x, y)

    def show(x):
        return text(labels, x)

    out = []
    for a, b, c, lhs, rhs in naive_mismatches(flat, len(labels)):
        first = min(g for g, e in lhs.keys() | rhs.keys()
                    if lhs.get((g, e)) != rhs.get((g, e)))
        out.append((labels[a], labels[b], labels[c], labels[first],
                    show(lhs), show(rhs)))
    if units is None:
        return out
    for u in sorted(units):
        sq = times(elem[u], elem[u])
        if sq != elem[u]:
            out.append((labels[u], labels[u],
                        f"{labels[u]} is not idempotent: square is "
                        f"{show(sq)}"))
    unit_sum = add(*(elem[u] for u in units))
    for g, x in enumerate(elem):
        left, right = times(unit_sum, x), times(x, unit_sum)
        if left != x:
            out.append((None, labels[g], f"unit sum times {labels[g]} is "
                        f"{show(left)}, expected {labels[g]}"))
        if right != x:
            out.append((None, labels[g], f"{labels[g]} times unit sum is "
                        f"{show(right)}, expected {labels[g]}"))
    return out


def naive_product_support(ring, left_mask, right_mask):
    out = 0
    for a in range(ring.size):
        if not left_mask >> a & 1:
            continue
        for b in range(ring.size):
            if right_mask >> b & 1:
                out |= naive_product_mask(ring, a, b)
    return out


def scan_pairs_inside(ring, subsets, target):
    """Every pair (i, j) of the listed subsets whose product support lies
    inside the target, i-major in list order, one product per pair."""
    return [(i, j) for i in subsets for j in subsets
            if not naive_product_support(ring, i, j) & ~target]


def naive_triple_support(ring, a, b):
    """The bare product's support and every supp(b_a b_t b_b)."""
    return naive_product_mask(ring, a, b) | naive_middle_support(ring, a, b)


def naive_middle_support(ring, a, b):
    """Union of supp(b_a b_t b_b) over every middle factor t."""
    out = 0
    for t in range(ring.size):
        at = mul(ring.tensor, basis(a), basis(t))
        out |= support(mul(ring.tensor, at, basis(b)))
    return out


def naive_is_prime(ring, members):
    """Definition-level primality over the naive ideal lattice."""
    lattice = naive_enumerate(ring, TWO_SIDED)
    for i in lattice:
        if not i & ~members:
            continue
        for j in lattice:
            if not j & ~members:
                continue
            if not naive_product_support(ring, i, j) & ~members:
                return False
    return True


def naive_is_completely_prime(ring, members):
    for a in range(ring.size):
        if members >> a & 1:
            continue
        for b in range(ring.size):
            if members >> b & 1:
                continue
            if not naive_product_mask(ring, a, b) & ~members:
                return False
    return True


def naive_is_semiprime(ring, members):
    """Intersection-of-primes characterization over the naive lattice."""
    full = ring.full_mask
    primes = [m for m in naive_enumerate(ring, TWO_SIDED)
              if m != full and naive_is_prime(ring, m)]
    over = [p for p in primes if not members & ~p]
    if not over:
        return False
    inter = full
    for p in over:
        inter &= p
    return inter == members


def box_monoid_prime(gens, nvars, bound=4):
    """Brute-force primality of an upward-closed set over {0..bound}^n:
    for all a, b in the box with a+b in the box, a+b in S implies a in S
    or b in S."""
    box = np.array(list(product(range(bound + 1), repeat=nvars)), dtype=int)
    gens = np.array(sorted(gens), dtype=int).reshape(len(gens), nvars)

    def member(vs):
        return (vs[:, None, :] >= gens[None, :, :]).all(-1).any(-1)

    in_s = member(box)
    for idx, a in enumerate(box):
        if in_s[idx]:
            continue
        sums = box + a
        ok = (sums <= bound).all(-1)
        bad = ok & ~in_s & member(sums)
        if bad.any():
            return False
    return True


def all_small_gen_sets(nvars, max_gens=3, entry_bound=2):
    """Every nonempty generator set of size <= max_gens with entries
    <= entry_bound, the zero vector excluded (it makes the ideal improper)."""
    vectors = [v for v in product(range(entry_bound + 1), repeat=nvars)
               if any(v)]
    for size in range(1, max_gens + 1):
        yield from combinations_with_replacement(vectors, size)
