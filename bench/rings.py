"""Ring-file generators that do not use serrespec.

Every table is built here from its closed-form definition and written in
the line grammar documented in ``serrespec/io.py``, so the parent commit
and a changed commit read exactly the same bytes.  Each ring also carries
the answers that follow from its definition (principal ideals, Serre
primes, completely prime ideals, lattice and closed-set counts) for the
correctness gate in ``workloads.py``.
"""

from dataclasses import dataclass, field
from math import comb, factorial


def catalan(k):
    return comb(2 * k, k) // (k + 1)


@dataclass
class RingSpec:
    name: str
    mode: str                  # "int" or "laurent"
    labels: list
    # (a, b) -> [(value, q_exponent, label)]; a missing pair is a zero product
    table: dict
    units: list | None = None
    blocks: list | None = None  # [(source, target, [labels])]
    # label -> labels of the two-sided ideal it generates
    principal: dict = field(default_factory=dict)
    primes: list | None = None   # Serre primes, as frozensets of labels
    cprimes: list | None = None  # the completely prime ones among them
    # closed-form counts: "ideals" {side: count}, "zariski", "balmer"
    expect: dict = field(default_factory=dict)

    @property
    def size(self):
        return len(self.labels)

    def closure(self, gens):
        """Two-sided ideal generated by the labels, as a frozenset."""
        out = set()
        for g in gens:
            out |= self.principal[g]
        return frozenset(out)

    def constants(self):
        """Every nonzero structure constant as (a, b, term index), in file order."""
        return [(a, b, t) for (a, b), row in self.table.items()
                for t in range(len(row))]


def _term(value, exp, label):
    if exp == 0:
        return label if value == 1 else f"{value}*{label}"
    q = "q" if exp == 1 else f"q^{exp}"
    return f"{q}*{label}" if value == 1 else f"{value}{q}*{label}"


def ring_text(spec):
    lines = [f'ring "{spec.name}"', f"coeff {spec.mode}",
             "basis " + " ".join(spec.labels)]
    if spec.units is not None:
        lines.append("unit " + " ".join(spec.units))
    for src, dst, members in spec.blocks or ():
        lines.append(f"block {src} {dst}: " + ",".join(members))
    for (a, b), row in spec.table.items():
        terms = " + ".join(_term(*t) for t in row)
        lines.append(f"mul {a} {b} = {terms}")
    return "\n".join(lines) + "\n"


def perturbed(spec, slot):
    """Copy of the ring with one structure constant raised by one.

    ``slot`` picks the constant by a fixed stride through the table, so a
    slot names the same constant on every run.  Products with a unit are
    skipped: raising one of those breaks the unit axioms on its own, and the
    copy should exercise the associativity check.
    """
    units = set(spec.units or ())
    candidates = [c for c in spec.constants()
                  if c[0] not in units and c[1] not in units]
    a, b, t = candidates[(slot * 7919 + 11) % len(candidates)]
    table = {pair: list(row) for pair, row in spec.table.items()}
    value, exp, label = table[(a, b)][t]
    table[(a, b)][t] = (value + 1, exp, label)
    return RingSpec(f"{spec.name}.bad{slot}", spec.mode, spec.labels, table,
                    spec.units, spec.blocks)


def diag(k, name=None):
    """k orthogonal idempotents, one object each: every subset is an ideal
    and the primes are the complements of single idempotents."""
    labels = [f"e{i}" for i in range(1, k + 1)]
    table = {(e, e): [(1, 0, e)] for e in labels}
    blocks = [(f"O{i}", f"O{i}", [e]) for i, e in enumerate(labels, 1)]
    primes = [frozenset(labels) - {e} for e in labels]
    n = 2 ** k
    return RingSpec(name or f"diag-{k}", "int", labels, table, list(labels),
                    blocks, {e: frozenset([e]) for e in labels}, primes,
                    primes, {"ideals": {"l": n, "r": n, "2": n},
                             "zariski": n, "balmer": n})


def tri(k):
    """Upper-triangular k x k matrix units: e_ij e_jl = e_il for i <= j <= l.

    Each e_ij is an arrow from object j to object i.  Two-sided ideals are
    the up-sets of the staircase order (Catalan many); a left ideal picks
    a prefix of every column and a right ideal a suffix of every row.  The
    primes are the complements of single diagonal units, and every subset
    of them is a Zariski and a Balmer closed set.
    """
    idx = [(i, j) for i in range(1, k + 1) for j in range(i, k + 1)]
    label = {p: f"e{p[0]}_{p[1]}" for p in idx}
    table = {}
    for i, j in idx:
        for l in range(j, k + 1):
            table[(label[(i, j)], label[(j, l)])] = [(1, 0, label[(i, l)])]
    blocks = [(f"O{j}", f"O{i}", [label[(i, j)]]) for i, j in idx]
    units = [label[(i, i)] for i in range(1, k + 1)]
    principal = {label[(i, j)]: frozenset(label[(h, l)] for h, l in idx
                                          if h <= i and l >= j)
                 for i, j in idx}
    everything = frozenset(label.values())
    primes = [everything - {u} for u in units]
    one_sided = factorial(k + 1)
    return RingSpec(f"tri-{k}", "int", [label[p] for p in idx], table, units,
                    blocks, principal, primes, primes,
                    {"ideals": {"l": one_sided, "r": one_sided,
                                "2": catalan(k + 1)},
                     "zariski": 2 ** k, "balmer": 2 ** k})


def _monomial_label(vec):
    if not any(vec):
        return "1"
    return "".join(f"x{i}" + (f"p{e}" if e > 1 else "")
                   for i, e in enumerate(vec, 1) if e)


def _graded(nvars, degree):
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    for d in range(degree + 1):
        rec([], d, nvars)
    return out


def qmonomial(name, twist, degree):
    """Monomials of total degree <= degree in len(twist) q-twisted
    variables: b_a b_b = q^(a^T L b) b_(a+b), zero above the degree.
    Every monomial but 1 is nilpotent, so the augmentation ideal is the
    only prime, and it is completely prime."""
    n = len(twist)
    vecs = _graded(n, degree)
    label = {v: _monomial_label(v) for v in vecs}
    table = {}
    for a in vecs:
        for b in vecs:
            s = tuple(x + y for x, y in zip(a, b))
            if sum(s) > degree:
                continue
            exp = sum(twist[i][j] * a[i] * b[j]
                      for i in range(n) for j in range(n))
            table[(label[a], label[b])] = [(1, exp, label[s])]
    principal = {label[v]: frozenset(label[w] for w in vecs
                                     if all(x >= y for x, y in zip(w, v)))
                 for v in vecs}
    aug = [frozenset(label[v] for v in vecs if any(v))]
    return RingSpec(name, "laurent", [label[v] for v in vecs], table, ["1"],
                    None, principal, aug, aug)


def qplane(d):
    """Quantum plane y x = q x y truncated at degree d.  Supports multiply
    like commuting monomials, so every one-sided ideal is two-sided; the
    ideals are the up-sets of a staircase, C(d+2) of them."""
    spec = qmonomial(f"qplane-trunc-{d}", ((0, 0), (1, 0)), d)
    c = catalan(d + 2)
    spec.expect = {"ideals": {"l": c, "r": c, "2": c},
                   "zariski": 2, "balmer": 2}
    return spec


def verlinde(k):
    """sl2 level-k fusion table: f_a f_b = sum of f_c over
    c = |a-b|, |a-b|+2, ..., min(a+b, 2k-a-b).  Simple, so the only ideals
    are zero and the whole ring, and the zero ideal is completely prime."""
    labels = [f"f{a}" for a in range(k + 1)]
    table = {}
    for a in range(k + 1):
        for b in range(k + 1):
            row = [(1, 0, f"f{c}")
                   for c in range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2)]
            if row:
                table[(labels[a], labels[b])] = row
    everything = frozenset(labels)
    zero = [frozenset()]
    return RingSpec(f"verlinde-sl2-{k}", "int", labels, table, ["f0"], None,
                    {f: everything for f in labels}, zero, zero,
                    {"ideals": {"2": 2}})


def matrix_units(k):
    """Full k x k matrix units as a block ring: simple, and the zero ideal
    is prime but not completely prime (e12 e12 = 0)."""
    idx = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1)]
    label = {p: f"e{p[0]}{p[1]}" for p in idx}
    table = {}
    for i, j in idx:
        for l in range(1, k + 1):
            table[(label[(i, j)], label[(j, l)])] = [(1, 0, label[(i, l)])]
    blocks = [(f"O{j}", f"O{i}", [label[(i, j)]]) for i, j in idx]
    units = [label[(i, i)] for i in range(1, k + 1)]
    everything = frozenset(label.values())
    return RingSpec(f"m{k}-block", "int", [label[p] for p in idx], table,
                    units, blocks, {x: everything for x in everything},
                    [frozenset()], [], {"ideals": {"2": 2}})


def two_idem():
    return diag(2, name="two-idem")


def mixed_3obj():
    """Commutative triangle f: A->B, g: B->C, h = g f: A->C with units.
    Each prime leaves out the unit of one object."""
    labels = ["uA", "uB", "uC", "f", "g", "h"]
    obj = {"uA": ("A", "A"), "uB": ("B", "B"), "uC": ("C", "C"),
           "f": ("A", "B"), "g": ("B", "C"), "h": ("A", "C")}
    table = {}
    for a in labels:
        for b in labels:
            # a * b composes b first, so b's target must be a's source
            if obj[b][1] != obj[a][0]:
                continue
            if a.startswith("u"):
                out = b
            elif b.startswith("u"):
                out = a
            elif (a, b) == ("g", "f"):
                out = "h"
            else:
                continue
            table[(a, b)] = [(1, 0, out)]
    blocks = [(obj[x][0], obj[x][1], [x]) for x in labels]
    principal = {x: frozenset(s.split()) for x, s in (
        ("uA", "uA f h"), ("uB", "uB f g h"), ("uC", "uC g h"),
        ("f", "f h"), ("g", "g h"), ("h", "h"))}
    everything = frozenset(labels)
    primes = [everything - {u} for u in ("uC", "uB", "uA")]
    return RingSpec("mixed-3obj", "int", labels, table, ["uA", "uB", "uC"],
                    blocks, principal, primes, primes, {"ideals": {"2": 14}})
