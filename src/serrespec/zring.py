"""Positive-basis rings: validated structure-constant tables and the
support calculus everything downstream is built on.

A ring here is a free abelian group on a finite labeled basis whose
structure constants are nonnegative (integers or Laurent polynomials in q
with nonnegative coefficients).  Rings need not be unital.  An optional
block structure records a hom-decomposition (each basis element is an
arrow between two objects, and products respect composability), and an
optional unit set records the identity classes.

Positivity means supports multiply without cancellation, so ideal and
primality questions reduce to bitmask algebra over product-support
tables.  The tensor is stored in one form from input to tables: flat
rows {(gamma, q-exponent): positive int}, index-keyed.  build_ring and
the ring-file parser resolve labels once and hand such rows to one
assembler, which only validates; the ring derives each table from its
tensor on first read, so a command pays only for the tables it uses.
Rows are read-only: one row object may stand for several products.
Positivity also makes validation cheap: associativity is checked on
packed integer rows or on the sparse flat rows.  Two gates, both read
from the flat rows before any packed int is built, admit a table to the
packed path: the work rule at _CELLS_PER_PARTIAL_PRODUCT weighs the
packed path's cells against the sparse path's partial products, and the
memory rule at _BITS_PER_ENTRY bounds the packed ints (a commutative
table builds only its (ab)c slices there).  The packed path sums each
row object that stands for several products once per side and keeps
that sum for every slice that reads it: the ring-file parser gives each
repeated product text one row, so a parsed fusion table, where ab = ba
and most sums recur, is summed once per distinct product text.  Either
path returns exactly the violating triples, each with the rows (ab)c and
a(bc) it summed, and violation text is written from those rows.  Once
the unit axioms hold and the units grade the table (see _unit_check),
every triple with a unit in it associates, and both paths visit only
the others.
Coefficients are built only at input coercion in build_ring.  Basis
subsets are bitmasks in basis order throughout the package.
"""

from collections import Counter, namedtuple
from functools import cached_property
from itertools import compress, repeat
from math import gcd
from operator import add, index, itemgetter, lshift, mul, or_, sub

from .coefficients import INT, LAURENT, Coefficient, format_terms

LEFT = "left"
RIGHT = "right"
TWO_SIDED = "two"
SIDES = (LEFT, RIGHT, TWO_SIDED)


class RingError(Exception):
    pass


class UnknownLabel(RingError):
    pass


class DuplicateLabel(namedtuple("DuplicateLabel", "label")):
    __slots__ = ()

    def describe(self):
        return f"duplicate basis label {self.label!r}"


class AssociativityViolation(namedtuple(
        "AssociativityViolation", "alpha beta gamma output lhs rhs")):
    """``output`` is the first basis label where the two sides differ."""

    __slots__ = ()

    def describe(self):
        return (f"associativity fails on ({self.alpha}, {self.beta}, {self.gamma}): "
                f"({self.alpha}*{self.beta})*{self.gamma} = {self.lhs} but "
                f"{self.alpha}*({self.beta}*{self.gamma}) = {self.rhs} "
                f"(first difference at {self.output})")


class BlockIncompatibility(namedtuple("BlockIncompatibility",
                                      "alpha beta detail")):
    __slots__ = ()

    def describe(self):
        return f"block structure violated at ({self.alpha}, {self.beta}): {self.detail}"


class UnitViolation(namedtuple("UnitViolation", "unit witness detail")):
    """``unit`` is the offending unit, or None for a failure of the sum;
    ``witness`` is the basis label where the identity property breaks."""

    __slots__ = ()

    def describe(self):
        return f"unit axiom fails (witness {self.witness}): {self.detail}"


class RingValidationError(RingError):
    """Raised by build_ring; carries the full list of violations.

    The message describes every violation, so it is written only when
    it is read, by str(): a caller that reports the violations itself,
    as validate does, describes each one once."""

    def __init__(self, ring_name, violations, hints=()):
        super().__init__(ring_name)
        self.ring_name = ring_name
        self.violations = list(violations)
        self.hints = list(hints)

    def __str__(self):
        lines = [v.describe() for v in self.violations] + self.hints
        return f"invalid ring {self.ring_name!r}:\n  " + "\n  ".join(lines)


class ZPlusRing:
    """Immutable validated ring value.  Construct with build_ring().

    ``tensor`` maps each (alpha, beta) index pair with a nonzero product
    to its flat row {(gamma, q-exponent): positive int}; an int-mode row
    has only exponent 0; rows are read-only and may be shared between
    pairs.  ``blocks`` gives each basis index its (source object, target
    object), or is None.  The support tables are functions of the tensor,
    derived on first read and kept in the instance dict; they and
    ``cache`` are not part of the ring's identity.
    """

    def __init__(self, name, labels, mode, tensor, blocks, units):
        vars(self).update(name=name, labels=labels, mode=mode, tensor=tensor,
                          blocks=blocks, units=units, cache={})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return (f"ZPlusRing(name={self.name!r}, labels={self.labels!r}, "
                f"mode={self.mode!r}, tensor={self.tensor!r}, "
                f"blocks={self.blocks!r}, units={self.units!r})")

    @cached_property
    def product_masks(self):
        """product_masks[a][b]: the support of b_a * b_b."""
        n = len(self.labels)
        pm = [[0] * n for _ in range(n)]
        for (a, b), row in self.tensor.items():
            mask = 0
            for g, _ in row:
                mask |= 1 << g
            pm[a][b] = mask
        return tuple(map(tuple, pm))

    @cached_property
    def left_absorb(self):
        """left_absorb[g]: the union of supp(b_b * b_g) over every b."""
        pm = self.product_masks
        out = [0] * len(self.labels)
        for a, b in self.tensor:
            out[b] |= pm[a][b]
        return tuple(out)

    @cached_property
    def right_absorb(self):
        """right_absorb[g]: the union of supp(b_g * b_b) over every b."""
        pm = self.product_masks
        out = [0] * len(self.labels)
        for a, b in self.tensor:
            out[a] |= pm[a][b]
        return tuple(out)

    @cached_property
    def two_sided_absorb(self):
        """left_absorb[g] | right_absorb[g] for each g."""
        return tuple(map(or_, self.left_absorb, self.right_absorb))

    @cached_property
    def columns(self):
        """columns[b]: a pair (a, product_masks[a][b]) for each a with
        b_a * b_b nonzero, in tensor order."""
        pm = self.product_masks
        out = [[] for _ in self.labels]
        for a, b in self.tensor:
            out[b].append((a, pm[a][b]))
        return tuple(map(tuple, out))

    def __eq__(self, other):
        if not isinstance(other, ZPlusRing):
            return NotImplemented
        return (self.name == other.name and self.labels == other.labels
                and self.mode == other.mode and self.tensor == other.tensor
                and self.blocks == other.blocks and self.units == other.units)

    __hash__ = None

    @property
    def size(self):
        return len(self.labels)

    @property
    def full_mask(self):
        return (1 << len(self.labels)) - 1

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"unknown basis label {label!r}") from None


def iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


_SELECTORS = bytes.maketrans(b"01", b"\0\1")


#: a mask's bits from index 0 up, a set bit as "0" and a clear one as "1"
_SET_BITS_FIRST = str.maketrans("01", "10")


def subset_key(mask):
    """Canonical subset order: cardinality, then lexicographic indices.

    Of two masks of one cardinality, the first index at which they
    differ decides: the mask holding it has the smaller index tuple, and
    its string, read from bit 0 up with a set bit as "0", is the smaller
    there.  Neither string is a prefix of the other, as each ends at its
    mask's highest set bit.  So one string stands for the tuple, and a
    sort compares in C."""
    return mask.bit_count(), bin(mask)[:1:-1].translate(_SET_BITS_FIRST)


def mask_from_labels(ring, labels):
    return mask_of(ring.index(lab) for lab in labels)


def select_by_mask(items, mask):
    """The items at the mask's set bits, in index order."""
    # the mask's bits from index 0 up, as 0/1 bytes selecting items
    bits = bin(mask)[:1:-1].encode().translate(_SELECTORS)
    return list(compress(items, bits))


def labels_from_mask(ring, mask):
    """The labels of the mask's members, in basis order."""
    return select_by_mask(ring.labels, mask)


def block_objects(blocks):
    """The objects of a block assignment in first-appearance order: along
    the basis, the source of each element before its target."""
    return tuple(dict.fromkeys(obj for pair in blocks for obj in pair))


def _resolve(index_map, labels, key):
    if isinstance(key, str):
        try:
            return index_map[key]
        except KeyError:
            raise UnknownLabel(f"unknown basis label {key!r}") from None
    try:
        i = index(key)
    except TypeError:
        raise UnknownLabel(
            f"basis key {key!r} is neither a label nor an index") from None
    if not 0 <= i < len(labels):
        raise UnknownLabel(f"basis index {key} out of range")
    return i


def _format_row(labels, row):
    """'(2)*eps + sigma'-style text of a flat row (diagnostics only),
    written straight from its positive terms: per output in basis order,
    the label alone for the coefficient 1, else the coefficient's text
    times the label.  The text reads only the terms, so it is the same in
    either mode."""
    outputs = {}
    for (g, e), v in sorted(row.items()):
        outputs.setdefault(g, []).append((e, v))
    return " + ".join(
        labels[g] if terms == [(0, 1)]
        else f"({format_terms(terms)})*{labels[g]}"
        for g, terms in outputs.items()) or "0"


#: the work rule: a table is packed only when the packed path's cell work
#: is below this many times the sparse path's partial products (see
#: _packing_pays).  On dense fusion tables a partial product, one dict
#: update, costs about three cells, one big-int operation in a C-level map
#: (verlinde-sl2-16 on a 2-vCPU host, Python 3.11: 0.31 and 0.09
#: microseconds).
_CELLS_PER_PARTIAL_PRODUCT = 3

#: the memory rule, the second gate: a table is packed only when
#: 3 * n^2 + 2 * n * k ints of W * n * (2 * span + 1) bits, a bound on its
#: packed rows, one middle factor's two slices and the n summed ints kept
#: on each side for each of its k row objects that stand for several
#: products, take at most this many bits per entry of its tensor, the flat
#: rows {(gamma, q-exponent): positive int}, that is 1 KB, a few times the
#: 100 to 300 bytes a flat entry takes (its key tuple, value and dict
#: slot).  Packed ints grow with n and with the exponent range left after
#: the gcd rescaling (q^3000 beside q), and the slices with n^2 whatever
#: the table's sparsity; flat entries do neither.  A table either rule
#: refuses takes the sparse path, whose dicts hold only nonzero partial
#: products.
_BITS_PER_ENTRY = 8192


def _associativity_violations(labels, flat, skip=frozenset()):
    """An AssociativityViolation for every triple with (ab)c != a(bc), in
    (a, b, c) order, among the triples with no index in skip: the caller
    passes as skip only indices whose triples all associate.

    Two gates pick the path before any packed int is built: the work rule
    at _CELLS_PER_PARTIAL_PRODUCT, then the memory rule at _BITS_PER_ENTRY
    (checked in _packed_mismatches); a table either refuses takes the
    sparse path.  Either path hands back the rows (ab)c and a(bc) it summed
    for each violating triple, so describing a failure multiplies nothing
    again and formats each row object once (the packed path shares one
    per distinct sum).  The first differing output is the least key of
    the terms the two rows do not share.  Both paths read the rows
    grouped by middle factor, built once here.
    """
    n = len(labels)
    middle = _by_middle(flat, n, skip)
    found = _packed_mismatches(flat, middle) \
        if _packing_pays(flat, n) else None
    if found is None:
        found = _sparse_mismatches(middle)
    texts = {}
    out = []
    for a, b, c, lhs, rhs in found:
        first = min(lhs.items() ^ rhs.items())[0][0]
        out.append(AssociativityViolation(
            labels[a], labels[b], labels[c], labels[first],
            _row_text(labels, lhs, texts), _row_text(labels, rhs, texts)))
    return out


def _row_text(labels, row, texts):
    """_format_row's text of a flat row, kept in texts by the row's id:
    the caller keeps every row alive while texts is in use."""
    text = texts.get(id(row))
    if text is None:
        text = texts[id(row)] = _format_row(labels, row)
    return text


def _packing_pays(flat, n):
    """The work rule: whether the packed path's cell work is below
    _CELLS_PER_PARTIAL_PRODUCT times the sparse path's partial products,
    both counted from the flat rows.

    The sparse path makes one partial product per term (g, e) of a row
    and term of a row g c (its (ab)c sums), and one per such term and term
    of a row a g (its a(bc) sums).  The packed path moves n cells per row
    term of each of its two sums, since _combine maps over a slice row,
    and n^2 cells per middle factor to transpose and compare the slice:
    n * (2 * terms + n^2) in all.  A commutative table sums one side only,
    so the rule leans to the sparse path there; on the tables measured
    that changes no route.  Dense fusion tables pack (verlinde-sl2-6:
    6,552 weighted partial products against 1,519 cells); small sparse
    ones do not, their n^3 slice cells outweighing the few partial
    products (tri-6: 756 against 11,613).  No term weighs more than the
    heaviest output, so a table that stays within its cells even when
    every term weighs that much goes sparse before the per-row pass.
    That bound decides every sparse table measured but qplane-trunc-5,
    whose unit weighs 42 (15,876 against 14,553 cells).
    """
    starts = [0] * n  # the terms of the rows g c, over every c
    ends = [0] * n    # the terms of the rows a g, over every a
    for (a, b), size in zip(flat, map(len, flat.values())):
        starts[a] += size
        ends[b] += size
    # a term of output g makes starts[g] + ends[g] partial products
    weights = list(map(add, starts, ends))
    terms = sum(starts)
    cells = n * (2 * terms + n * n)
    if _CELLS_PER_PARTIAL_PRODUCT * terms * max(weights, default=0) <= cells:
        return False
    weight = weights.__getitem__
    weighted = 0
    for row in flat.values():  # a dense table passes within a few rows
        weighted += _CELLS_PER_PARTIAL_PRODUCT * sum(map(weight, map(
            itemgetter(0), row)))
        if weighted > cells:
            break
    return weighted > cells


def _by_middle(flat, n, skip=frozenset()):
    """(ending, starting, skip): ending[b] = [(a, row of ab)] and
    starting[b] = [(c, row of bc)] over the nonzero products with a and c
    outside skip, and the indices that no path takes as middle factor.
    The rows of every b stay listed, since sums run through any output."""
    ending = [[] for _ in range(n)]
    starting = [[] for _ in range(n)]
    for (a, b), row in flat.items():
        if a not in skip:
            ending[b].append((a, row))
        if b not in skip:
            starting[a].append((b, row))
    return ending, starting, skip


def _sparse_mismatches(middle):
    """The (a, b, c, (ab)c, a(bc)) with (ab)c != a(bc), in (a, b, c)
    order, summed on the flat rows of _by_middle's lists.

    For each middle factor b, (ab)c is summed into a dict keyed
    (a, c, h, exponent) over the terms (g, e, v) of each nonzero ab and
    the nonzero rows g c, and a(bc) the same way over the terms (k, f, w)
    of each nonzero bc and the nonzero rows a k; the two dicts are
    compared whole, and only when they differ are the entries of each
    pair (a, c) that differs grouped into its two flat rows.  A triple
    with no nonzero partial product is 0 on both sides and is never
    visited.  Nothing is packed, so the path has no width, span or memory
    bound.
    """
    ending, starting, skip = middle
    found = []
    for b in range(len(ending)):
        if b in skip:
            continue
        lhs = {}
        for a, row in ending[b]:
            for (g, e), v in row.items():
                for c, part in starting[g]:
                    for (h, f), w in part.items():
                        key = a, c, h, e + f
                        lhs[key] = lhs.get(key, 0) + v * w
        rhs = {}
        for c, row in starting[b]:
            for (k, f), w in row.items():
                for a, part in ending[k]:
                    for (h, e), v in part.items():
                        key = a, c, h, e + f
                        rhs[key] = rhs.get(key, 0) + v * w
        if lhs != rhs:
            pairs = {key[:2] for key in lhs.keys() | rhs.keys()
                     if lhs.get(key) != rhs.get(key)}
            left, right = _rows_of(lhs, pairs), _rows_of(rhs, pairs)
            found += [(a, b, c, left[a, c], right[a, c]) for a, c in pairs]
    found.sort(key=itemgetter(0, 1, 2))
    return found


def _rows_of(sums, pairs):
    """{(a, c): flat row} for the given pairs, from one slice's sums keyed
    (a, c, h, exponent)."""
    rows = {pair: {} for pair in pairs}
    for (a, c, h, e), v in sums.items():
        row = rows.get((a, c))
        if row is not None:
            row[h, e] = v
    return rows


def _packed_mismatches(flat, middle):
    """The (a, b, c, (ab)c, a(bc)) with packed (ab)c != packed a(bc), in
    (a, b, c) order, or None when the memory rule refuses the table;
    middle is _by_middle's lists of the flat rows.

    A flat row {(h, e): v} packs into one int whose field
    (e - emin) / step * n + h, W bits wide, holds v; step is the gcd of
    the exponents' distances from the least one, emin, so exponents that
    share a factor (q^1000000000 and its powers) pack as densely as small
    ones.  (ab)c is the sum of v * packed(g c) << shift over the terms
    (g, e, v) of ab, with shift = W * n * (e - emin) / step; a(bc) is the
    same over bc with packed(a k).  The field of q^(e + f) b_h in either
    sum is its distinct (e + f - 2 emin) / step * n + h.

    Exactness: every constant is positive, so each field of either sum
    is a sum of positive products, at most mass(ab) * C (or mass(bc) * C)
    where mass is a row's sum of values and C the largest constant.  W is
    the bit length of max mass * max C, so no field, partial sum or not,
    reaches 2^W: nothing borrows (positivity) and nothing carries into the
    next field.  Each packed sum is then the base-2^W spelling of its row,
    so two are equal exactly when the rows are, and _unpack reads the row
    back from the sum.  The sum over one row depends only on the row, the
    packed table it reads (cols or rows) and the shifts, all fixed within
    one call, so a row object that stands for several products is summed
    once per side and its list reused in every slice that reads it; a row
    used once is not kept, so an unshared table sums as before.

    For each middle factor b the whole n x n slice is built with C-level
    maps: lhs[a][c] from cols[g], the packed g c over c, and rhs[c][a]
    from rows[k], the packed a k over a; lhs is compared with the
    transpose of rhs.

    Commutative tables, those with every flat row ab equal to ba, skip
    rhs: there a(bc) = (bc)a = (cb)a, since x a = a x for every element x
    once the basis commutes, so rhs[c][a] = lhs[c][a] as packed ints as
    well as flat rows.  The associator A(a, b, c) = (ab)c - a(bc) is then
    antisymmetric, A(c, b, a) = (cb)a - c(ba) = a(bc) - (ab)c =
    -A(a, b, c), and lhs compared with its own transpose finds the same
    triples (each with its mirror (c, b, a)) at half the _combine work.

    Memory: the at most n^2 packed rows of W * n * (span + 1) bits, one
    middle factor's two n x n slices and the kept sums, n ints per shared
    row object per side, of W * n * (2 * span + 1) bits are within
    (3 * n^2 + 2 * n * k) * W * n * (2 * span + 1) bits for k shared row
    objects (both sides counted, also where a commutative table sums one).
    The memory rule, decided before any packed int is built, caps that at
    _BITS_PER_ENTRY bits per flat entry.
    """
    if not flat:
        return []
    ending, starting, skip = middle
    n = len(ending)
    exps = {e for row in flat.values() for _, e in row}
    emin = min(exps)
    step = gcd(*map(sub, exps, repeat(emin))) or 1
    span = (max(exps) - emin) // step
    values = list(map(dict.values, flat.values()))
    width = (max(map(sum, values)) * max(map(max, values))).bit_length()
    slot = width * n
    # the row objects that stand for several products: each is summed once
    # per side, kept in left (over cols) or right (over rows)
    shared = {key for key, count in Counter(map(id, flat.values())).items()
              if count > 1}
    if (3 * n + 2 * len(shared)) * n * slot * (2 * span + 1) \
            > _BITS_PER_ENTRY * sum(map(len, values)):
        return None
    shifts = {e: slot * ((e - emin) // step) for e in exps}
    commutative = is_commutative(flat)
    left = {}
    right = {}
    # cols[g][c] = rows[c][g] = packed g c, cols for c and rows for g
    # outside skip; None for a g (or c) with no such product, which adds
    # nothing to a sum
    cols = [None] * n
    rows = [None] * n
    for (g, c), row in flat.items():
        x = 0
        for (h, e), v in row.items():
            x |= v << (shifts[e] + width * h)
        if c not in skip:
            if cols[g] is None:
                cols[g] = [0] * n
            cols[g][c] = x
        if g not in skip:
            if rows[c] is None:
                rows[c] = [0] * n
            rows[c][g] = x
    zero = [0] * n
    found = []
    for b in range(n):
        if b in skip:
            continue
        lhs = [zero] * n
        for a, row in ending[b]:
            lhs[a] = _combine(row, cols, shifts, zero, shared, left)
        if commutative:  # a(bc) = (cb)a
            rhs = lhs
        else:
            rhs = [zero] * n
            for c, row in starting[b]:
                rhs[c] = _combine(row, rows, shifts, zero, shared, right)
        rhs = list(map(list, zip(*rhs)))
        if lhs == rhs:
            continue
        for a, (x, y) in enumerate(zip(lhs, rhs)):
            if x != y:
                found += [(a, b, c, u, w) for c, (u, w) in enumerate(zip(x, y))
                          if u != w]
    found.sort()
    # field j of a sum holds q^(2 emin + step * (j // n)) b_(j % n)
    sums = {s for _, _, _, u, w in found for s in (u, w)}
    unpacked = {s: _unpack(s, width, n, 2 * emin, step) for s in sums}
    return [(a, b, c, unpacked[u], unpacked[w]) for a, b, c, u, w in found]


def _unpack(x, width, n, base, step):
    """The flat row of a packed sum whose field j, width bits wide, holds
    the coefficient of q^(base + step * (j // n)) b_(j % n)."""
    row = {}
    mask = (1 << width) - 1
    j = 0
    while x:
        v = x & mask
        if v:
            row[j % n, base + step * (j // n)] = v
        x >>= width
        j += 1
    return row


def is_commutative(flat):
    """Whether every row ab of an index-keyed table equals its row ba.

    Each unordered pair is compared once, from its row with a < b.  When
    every such row has an equal row ba, the rows with a > b number at
    least as many, and exactly as many only when none lacks its partner:
    so a row ab with no row ba still makes the table non-commutative."""
    upper = lower = 0
    for (a, b), row in flat.items():
        if a < b:
            other = flat.get((b, a))
            if other is not row and other != row:
                return False
            upper += 1
        elif a > b:
            lower += 1
    return upper == lower


def _combine(row, table, shifts, zero, shared, kept):
    """Element-wise sum of v * table[g] << shifts[e] over the terms
    {(g, e): v} of a flat row.  A row whose id is in shared is summed
    once: its list is kept in kept by that id and returned again."""
    acc = kept.get(id(row))
    if acc is not None:
        return acc
    acc = zero
    for (g, e), v in row.items():
        part = table[g]
        if part is None:
            continue
        if v != 1:
            part = map(mul, part, repeat(v))
        shift = shifts[e]
        if shift:
            part = map(lshift, part, repeat(shift))
        acc = list(part) if acc is zero else list(map(add, acc, part))
    if id(row) in shared:
        kept[id(row)] = acc
    return acc


def _unit_check(labels, tensor, units):
    """(violations, skip): the unit-axiom violations of a tensor, and the
    indices whose triples need no associativity check, all the units or
    none.

    The axioms are that each unit is idempotent and the unit sum is a
    two-sided identity on every basis element; the unit products of
    every g are gathered in one pass over the tensor.  Once they hold,
    each g has one left unit l(g) and one right unit r(g), by positivity:
    the unit sum times g is g, a sum of positive terms, so one unit
    product is g and the others are 0.  So u g = [u = l(g)] g and
    g u = [u = r(g)] g.  When every nonzero row xy has r(x) = l(y), and
    l(h) = l(x) and r(h) = r(y) for each of its outputs h, every triple
    with a unit u in it associates: (ub)c = [u = l(b)] bc = u(bc), since
    each output of bc has the left unit of b; (ab)u = a(bu) the same way;
    and (au)c = [u = r(a)] ac = [u = l(c)] ac = a(uc), as ac = 0 unless
    r(a) = l(c).  A single unit acts on every g from both sides, so the
    condition always holds.
    """
    violations = []
    for u in sorted(units):
        sq = tensor.get((u, u), {})
        if sq != {(u, 0): 1}:
            violations.append(UnitViolation(
                labels[u], labels[u],
                f"{labels[u]} is not idempotent: square is "
                f"{_format_row(labels, sq)}"))
    n = len(labels)
    lefts = [[] for _ in range(n)]   # (u, row of u g) for each unit u
    rights = [[] for _ in range(n)]  # (u, row of g u) for each unit u
    for (a, b), row in tensor.items():
        if a in units:
            lefts[b].append((a, row))
        if b in units:
            rights[a].append((b, row))
    for g, lab in enumerate(labels):
        for found, side in ((lefts[g], "unit sum times {}"),
                            (rights[g], "{} times unit sum")):
            # rows are nonempty, so two or more never sum to g
            if len(found) != 1 or found[0][1] != {(g, 0): 1}:
                text = _format_row(labels, sum(
                    (Counter(row) for _, row in found), Counter()))
                violations.append(UnitViolation(
                    None, lab,
                    f"{side.format(lab)} is {text}, expected {lab}"))
    if violations:
        return violations, frozenset()
    if len(units) > 1:
        left = [found[0][0] for found in lefts]
        right = [found[0][0] for found in rights]
        for (x, y), row in tensor.items():
            lx = left[x]
            ry = right[y]
            if right[x] != left[y]:
                return violations, frozenset()
            for h, _ in row:
                if left[h] != lx or right[h] != ry:
                    return violations, frozenset()
    return violations, units


def build_ring(labels, tensor, mode=INT, blocks=None, units=None, name=""):
    """Validate and assemble a ring from label-keyed structure constants.

    ``tensor`` maps (label, label) pairs to {label: coefficient} rows;
    plain ints are accepted as coefficients and missing pairs mean the
    product is zero.  Indices may stand for labels.  Every invariant is
    checked: distinct labels, nonnegative constants, block compatibility,
    unit axioms, and full associativity.  Raises RingValidationError
    listing every failure.

    Each label is resolved and each coefficient coerced once here, into
    the flat rows the ring stores as its tensor (see ZPlusRing); the
    checks after that run in _assemble, which the ring-file parser
    shares.  The ring derives its support tables on first read.
    """
    labels = tuple(labels)
    if not labels:
        raise RingError("basis must be nonempty")
    if mode not in (INT, LAURENT):
        raise RingError(f"unknown coefficient mode {mode!r}")
    # _assemble checks this too, but the label map below merges repeats
    _require_distinct(labels, name)
    index = {lab: i for i, lab in enumerate(labels)}

    rows = {}
    for (a, b), row in tensor.items():
        ai = _resolve(index, labels, a)
        bi = _resolve(index, labels, b)
        if (ai, bi) in rows:
            raise RingError(f"duplicate tensor entry for ({a}, {b})")
        clean = {}
        for g, v in row.items():
            gi = _resolve(index, labels, g)
            c = Coefficient.of(v, mode)
            if not c:
                continue
            if not c.is_nonnegative():
                raise RingError(
                    f"structure constant for ({a}, {b}) -> {g} must be "
                    f"nonnegative, got {c}")
            if gi in clean:
                raise RingError(f"duplicate output {g} in entry ({a}, {b})")
            clean[gi] = c.terms
        if clean:
            rows[ai, bi] = {(gi, e): x for gi, terms in clean.items()
                            for e, x in terms.items()}

    blocks_t = None
    if blocks is not None:
        per_index = {}
        for lab, pair in blocks.items():
            i = _resolve(index, labels, lab)
            if i in per_index:
                raise RingError(f"label {labels[i]!r} assigned to two blocks")
            src, dst = pair
            per_index[i] = (str(src), str(dst))
        missing = [labels[i] for i in range(len(labels)) if i not in per_index]
        if missing:
            raise RingError(f"labels without a block: {', '.join(missing)}")
        blocks_t = tuple(per_index[i] for i in range(len(labels)))

    if units is not None:
        units = frozenset(_resolve(index, labels, u) for u in units)
    return _assemble(labels, mode, rows, blocks_t, units, name)


def _require_distinct(labels, name):
    """Raise RingValidationError listing each repeat of a basis label."""
    seen = set()
    repeats = []
    for lab in labels:
        if lab in seen:
            repeats.append(DuplicateLabel(lab))
        seen.add(lab)
    if repeats:
        raise RingValidationError(name, repeats)


def _assemble(labels, mode, tensor, blocks, units, name):
    """The ring on labels with index-keyed flat rows, after the label,
    block, associativity and unit checks; every ring is built here, so
    what these checks prove holds for every ring and is not checked again.

    Repeated labels are refused first, on their own.

    blocks is a (source, target) pair per index or None, and units a
    frozenset of indices or None.  Associativity is checked on the packed
    or the sparse path, chosen by the work and memory rules stated at
    _CELLS_PER_PARTIAL_PRODUCT and _BITS_PER_ENTRY, over the triples with
    no unit in them when _unit_check finds that the others associate; the
    violating triples are described in (a, b, c) order, then the unit
    violations.  The block check is one pass in tensor order that sorts
    only what it finds, so its violations come in (a, b) order, first of
    all.
    """
    _require_distinct(labels, name)
    if units is not None and not units:
        raise RingError("unit set must be nonempty when given")
    violations = []
    if blocks is not None:
        found = []
        for (ai, bi), row in tensor.items():
            sa, ta = blocks[ai]
            sb, tb = blocks[bi]
            if tb != sa:
                found.append(((ai, bi), BlockIncompatibility(
                    labels[ai], labels[bi],
                    f"target of {labels[bi]} is {tb} but source of "
                    f"{labels[ai]} is {sa}; the product must vanish")))
                continue
            want = (sb, ta)
            for g, _ in row:
                if blocks[g] != want:
                    found.extend(
                        ((ai, bi), BlockIncompatibility(
                            labels[ai], labels[bi],
                            f"output {labels[gi]} lies in block "
                            f"{blocks[gi]}, expected ({sb}, {ta})"))
                        for gi in dict.fromkeys(h for h, _ in row)
                        if blocks[gi] != want)
                    break
        found.sort(key=itemgetter(0))
        violations.extend(map(itemgetter(1), found))

    unit_violations, skip = [], frozenset()
    if units is not None:
        unit_violations, skip = _unit_check(labels, tensor, units)
    violations.extend(_associativity_violations(labels, tensor, skip))
    violations.extend(unit_violations)
    if violations:
        raise RingValidationError(name, violations)
    return ZPlusRing(name, labels, mode, tensor, blocks, units)


def sub_ring(ring, keep, name):
    """The ring on the basis elements in the mask keep, in basis order.

    The tensor keeps the rows of kept pairs restricted to the kept outputs
    and renumbered, each distinct row object once, so products that share
    a row still share one; the blocks and the declared units restrict to
    keep (a dropped unit is gone).  The result goes through the same
    checks as build_ring's, so it is validated from scratch rather than
    trusted.
    """
    new = {old: i for i, old in enumerate(iter_bits(keep))}
    tensor = {}
    restricted = {}  # id of a parent row -> its restriction
    for (a, b), row in ring.tensor.items():
        if a in new and b in new:
            kept = restricted.get(id(row))
            if kept is None:
                kept = restricted[id(row)] = {
                    (new[g], e): v for (g, e), v in row.items() if g in new}
            if kept:
                tensor[new[a], new[b]] = kept
    blocks = ring.blocks
    if blocks is not None:
        blocks = tuple(select_by_mask(blocks, keep))
    units = ring.units
    if units is not None:
        units = frozenset(new[u] for u in units if u in new)
    return _assemble(tuple(select_by_mask(ring.labels, keep)), ring.mode,
                     tensor, blocks, units, name)
