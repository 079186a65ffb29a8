"""Positive-basis rings: validated structure-constant tables, element
arithmetic, and the support calculus everything downstream is built on.

A ring here is a free abelian group on a finite labeled basis whose
structure constants are nonnegative (integers or Laurent polynomials in q
with nonnegative coefficients).  Rings need not be unital.  An optional
block structure records a hom-decomposition (each basis element is an
arrow between two objects, and products respect composability), and an
optional unit set records the identity classes.

Positivity means supports multiply without cancellation, so ideal and
primality questions reduce to bitmask algebra over product-support tables
that are precomputed once per ring.  It also keeps validation plain: the
associativity and unit checks multiply flat rows {(gamma, q-exponent):
positive int} through one product routine, and since no sum of positive
integers vanishes, no zero terms need pruning and two rows are equal
exactly when the dicts are.  Basis subsets are bitmasks in basis order
throughout the package.
"""

from dataclasses import dataclass, field
from itertools import compress

from .coefficients import INT, LAURENT, Coefficient

LEFT = "left"
RIGHT = "right"
TWO_SIDED = "two"
SIDES = (LEFT, RIGHT, TWO_SIDED)

#: commands that accept allow_large refuse larger bases unless overridden;
#: this keeps the CLI contract (exit 3); the searches behind it cost per
#: ideal and per closed set, not per basis subset
BASIS_GUARD = 24


class RingError(Exception):
    pass


class UnknownLabel(RingError):
    pass


class BasisTooLarge(RingError):
    def __init__(self, size):
        super().__init__(
            f"basis of size {size} exceeds the exhaustive-scan guard "
            f"({BASIS_GUARD}); pass allow_large=True to override")
        self.size = size


@dataclass(frozen=True)
class DuplicateLabel:
    label: str

    def describe(self):
        return f"duplicate basis label {self.label!r}"


@dataclass(frozen=True)
class AssociativityViolation:
    alpha: str
    beta: str
    gamma: str
    output: str  # first basis label where the two sides differ
    lhs: str
    rhs: str

    def describe(self):
        return (f"associativity fails on ({self.alpha}, {self.beta}, {self.gamma}): "
                f"({self.alpha}*{self.beta})*{self.gamma} = {self.lhs} but "
                f"{self.alpha}*({self.beta}*{self.gamma}) = {self.rhs} "
                f"(first difference at {self.output})")


@dataclass(frozen=True)
class BlockIncompatibility:
    alpha: str
    beta: str
    detail: str

    def describe(self):
        return f"block structure violated at ({self.alpha}, {self.beta}): {self.detail}"


@dataclass(frozen=True)
class UnitViolation:
    unit: str | None  # offending unit, or None for a failure of the sum
    witness: str      # basis label where the identity property breaks
    detail: str

    def describe(self):
        return f"unit axiom fails (witness {self.witness}): {self.detail}"


class RingValidationError(RingError):
    """Raised by build_ring; carries the full list of violations."""

    def __init__(self, ring_name, violations, hints=()):
        self.ring_name = ring_name
        self.violations = list(violations)
        self.hints = list(hints)
        lines = [v.describe() for v in self.violations] + list(self.hints)
        super().__init__(
            f"invalid ring {ring_name!r}:\n  " + "\n  ".join(lines))


@dataclass(frozen=True, eq=False)
class ZPlusRing:
    """Immutable validated ring value.  Construct with build_ring()."""

    name: str
    labels: tuple
    mode: str
    tensor: dict  # (alpha, beta) index pair -> {gamma index: Coefficient}
    blocks: tuple | None  # per basis index: (source object, target object)
    units: frozenset | None
    # derived support tables; functions of the tensor, not part of identity
    product_masks: tuple = field(repr=False, default=())
    triple_masks: tuple = field(repr=False, default=())
    left_absorb: tuple = field(repr=False, default=())
    right_absorb: tuple = field(repr=False, default=())
    cache: dict = field(repr=False, default_factory=dict)

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


class RingElement:
    """Sparse element of the Z-span of the basis; coefficients may be signed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = {i: c for i, c in dict(coeffs).items() if c}

    def is_positive(self):
        """Membership in the nonnegative cone spanned by the basis."""
        return all(c.is_nonnegative() for c in self.coeffs.values())

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, RingElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            acc = out.get(i)
            acc = c if acc is None else acc + c
            if acc:
                out[i] = acc
            else:
                del out[i]
        return RingElement(out)

    def __repr__(self):
        return f"RingElement({self.coeffs!r})"


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


_COMPLEMENT = str.maketrans("01", "10")
_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def subset_key(mask):
    """Canonical subset order: cardinality, then lexicographic indices.

    Two index tuples of one cardinality first differ at the lowest bit
    where the masks differ, and the set holding that bit comes first; so
    the complemented bits, listed from index 0 up, compare as strings in
    the tuple order.  A leading character carries the cardinality.
    """
    return chr(mask.bit_count()) + bin(mask)[:1:-1].translate(_COMPLEMENT)


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


def check_guard(ring, allow_large=False):
    if ring.size > BASIS_GUARD and not allow_large:
        raise BasisTooLarge(ring.size)


def _resolve(index_map, labels, key):
    if isinstance(key, str):
        try:
            return index_map[key]
        except KeyError:
            raise UnknownLabel(f"unknown basis label {key!r}") from None
    i = int(key)
    if not 0 <= i < len(labels):
        raise UnknownLabel(f"basis index {key} out of range")
    return i


def format_element(labels, coeffs):
    """Human-readable '2*eps + sigma' form (for diagnostics)."""
    if not coeffs:
        return "0"
    parts = []
    for g in sorted(coeffs):
        c = coeffs[g]
        if c.terms == {0: 1}:
            parts.append(labels[g])
        else:
            parts.append(f"({c})*{labels[g]}")
    return " + ".join(parts)


def _derived_tables(n, tensor, units):
    pm = [[0] * n for _ in range(n)]
    for (a, b), row in tensor.items():
        m = 0
        for g in row:
            m |= 1 << g
        pm[a][b] = m
    left = [0] * n
    right = [0] * n
    for g in range(n):
        lm = rm = 0
        for b in range(n):
            lm |= pm[b][g]
            rm |= pm[g][b]
        left[g] = lm
        right[g] = rm
    # triple[a][b] = union over middle factors t of supp(b_a b_t b_b); for
    # non-unital rings the bare product b_a b_b is adjoined so the two-step
    # test stays meaningful without identity classes.
    include_bare = units is None
    triple = [[0] * n for _ in range(n)]
    for a in range(n):
        deltas = 0
        for t in range(n):
            deltas |= pm[a][t]
        delta_list = list(iter_bits(deltas))
        for b in range(n):
            acc = pm[a][b] if include_bare else 0
            for d in delta_list:
                acc |= pm[d][b]
            triple[a][b] = acc
    return (tuple(map(tuple, pm)), tuple(map(tuple, triple)),
            tuple(left), tuple(right))


def _flat(tensor):
    """(alpha, beta) -> {(gamma, q-exponent): positive int}."""
    return {ab: {(g, e): v for g, c in row.items() for e, v in c.terms.items()}
            for ab, row in tensor.items()}


def _product(flat, row, b, row_first):
    """row * b (row_first) or b * row for a flat row and basis index b.

    Constants are positive, so sums never cancel and need no pruning.
    """
    out = {}
    for (g, e), v in row.items():
        sub = flat.get((g, b) if row_first else (b, g))
        if sub:
            for (h, f), w in sub.items():
                key = (h, e + f)
                out[key] = out.get(key, 0) + v * w
    return out


def _format_row(labels, mode, row):
    """format_element of a flat row (diagnostics only)."""
    coeffs = {}
    for (g, e), v in row.items():
        coeffs.setdefault(g, {})[e] = v
    return format_element(
        labels, {g: Coefficient(mode, t) for g, t in coeffs.items()})


def unit_decomposition_violations(labels, tensor, mode, units):
    """Check that each unit is idempotent and the unit sum is a two-sided
    identity on every basis element; returns UnitViolation records."""
    return _unit_violations(labels, _flat(tensor), mode, units)


def _unit_violations(labels, flat, mode, units):
    out = []
    unit_list = sorted(units)
    for u in unit_list:
        sq = flat.get((u, u), {})
        if sq != {(u, 0): 1}:
            out.append(UnitViolation(
                labels[u], labels[u],
                f"{labels[u]} is not idempotent: square is "
                f"{_format_row(labels, mode, sq)}"))
    unit_sum = {(u, 0): 1 for u in unit_list}
    for g in range(len(labels)):
        left = _product(flat, unit_sum, g, True)
        right = _product(flat, unit_sum, g, False)
        if left != {(g, 0): 1}:
            out.append(UnitViolation(
                None, labels[g],
                f"unit sum times {labels[g]} is "
                f"{_format_row(labels, mode, left)}, expected {labels[g]}"))
        if right != {(g, 0): 1}:
            out.append(UnitViolation(
                None, labels[g],
                f"{labels[g]} times unit sum is "
                f"{_format_row(labels, mode, right)}, expected {labels[g]}"))
    return out


def build_ring(labels, tensor, mode=INT, blocks=None, units=None, name=""):
    """Validate and assemble a ring from label-keyed structure constants.

    ``tensor`` maps (label, label) pairs to {label: coefficient} rows;
    plain ints are accepted as coefficients and missing pairs mean the
    product is zero.  Every invariant is checked: distinct labels,
    nonnegative constants, block compatibility, unit axioms, and full
    associativity.  Raises RingValidationError listing every failure.

    Once the constants are known to be nonnegative, the unit and
    associativity checks multiply flat positive-integer rows, skipping
    triples where both ab and bc vanish; positivity means no cancellation
    can occur, so no zero terms are pruned.  Coefficients are rebuilt only
    to describe a violation.
    """
    labels = tuple(labels)
    if not labels:
        raise RingError("basis must be nonempty")
    if mode not in (INT, LAURENT):
        raise RingError(f"unknown coefficient mode {mode!r}")
    violations = []
    seen = set()
    for lab in labels:
        if lab in seen:
            violations.append(DuplicateLabel(lab))
        seen.add(lab)
    if violations:
        raise RingValidationError(name, violations)
    index = {lab: i for i, lab in enumerate(labels)}

    tens = {}
    for (a, b), row in tensor.items():
        ai = _resolve(index, labels, a)
        bi = _resolve(index, labels, b)
        if (ai, bi) in tens:
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
            clean[gi] = c
        if clean:
            tens[(ai, bi)] = clean

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

    units_f = None
    if units is not None:
        us = frozenset(_resolve(index, labels, u) for u in units)
        if not us:
            raise RingError("unit set must be nonempty when given")
        units_f = us

    if blocks_t is not None:
        for (ai, bi) in sorted(tens):
            sa, ta = blocks_t[ai]
            sb, tb = blocks_t[bi]
            if tb != sa:
                violations.append(BlockIncompatibility(
                    labels[ai], labels[bi],
                    f"target of {labels[bi]} is {tb} but source of "
                    f"{labels[ai]} is {sa}; the product must vanish"))
                continue
            for gi in tens[(ai, bi)]:
                if blocks_t[gi] != (sb, ta):
                    violations.append(BlockIncompatibility(
                        labels[ai], labels[bi],
                        f"output {labels[gi]} lies in block "
                        f"{blocks_t[gi]}, expected ({sb}, {ta})"))

    flat = _flat(tens)
    n = len(labels)
    for a in range(n):
        for b in range(n):
            ab = flat.get((a, b), {})
            for c in range(n):
                bc = flat.get((b, c), {})
                if not (ab or bc):
                    continue
                lhs = _product(flat, ab, c, True)
                rhs = _product(flat, bc, a, False)
                if lhs != rhs:
                    first = min(g for g, e in lhs.keys() | rhs.keys()
                                if lhs.get((g, e)) != rhs.get((g, e)))
                    violations.append(AssociativityViolation(
                        labels[a], labels[b], labels[c], labels[first],
                        _format_row(labels, mode, lhs),
                        _format_row(labels, mode, rhs)))

    if units_f is not None:
        violations.extend(_unit_violations(labels, flat, mode, units_f))

    if violations:
        raise RingValidationError(name, violations)

    derived = _derived_tables(len(labels), tens, units_f)
    return ZPlusRing(name, labels, mode, tens, blocks_t, units_f, *derived)


def ring_element(ring, coeffs):
    """Element from {label or index: int or Coefficient}."""
    index = {lab: i for i, lab in enumerate(ring.labels)}
    out = {}
    for key, v in dict(coeffs).items():
        i = _resolve(index, ring.labels, key)
        c = v if isinstance(v, Coefficient) else Coefficient.of(v, ring.mode)
        if c.mode != ring.mode:
            raise RingError(f"coefficient mode {c.mode} does not match ring")
        if c:
            out[i] = c
    return RingElement(out)


def basis_element(ring, key):
    index = {lab: i for i, lab in enumerate(ring.labels)}
    i = _resolve(index, ring.labels, key)
    return RingElement({i: Coefficient.one(ring.mode)})


def multiply_elements(ring, x, y):
    """Bilinear extension of the structure-constant table (signed safe)."""
    out = {}
    for a, ca in x.coeffs.items():
        for b, cb in y.coeffs.items():
            row = ring.tensor.get((a, b))
            if not row:
                continue
            scale = ca * cb
            for g, n in row.items():
                acc = out.get(g)
                acc = n * scale if acc is None else acc + n * scale
                if acc:
                    out[g] = acc
                else:
                    del out[g]
    return RingElement(out)


def support_of(x):
    """Bitmask of basis indices with nonzero coefficient."""
    return mask_of(x.coeffs)


def triple_support(ring, alpha, beta):
    """Union of supp(b_alpha b_t b_beta) over middle basis factors t,
    plus supp(b_alpha b_beta) itself when the ring declares no units."""
    return ring.triple_masks[alpha][beta]
