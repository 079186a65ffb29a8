"""q-twisted monomial rings on the exponent monoid N^n, with finitely
generated upward-closed exponent ideals kept in minimal form.

The twist is a bilinear integer form kappa(a, b) = a^T L b, so that
b_a b_b = q^kappa(a,b) b_{a+b}; bilinearity gives the cocycle identity and
hence associativity for any integer matrix L.  Degree truncation produces
honest finite rings (with zero divisors above the cut), while quotients by
face ideals stay inside the monomial class and keep the domain property.
"""

from collections import namedtuple
from math import comb
from operator import index

from .coefficients import LAURENT
from .ideals import ImproperIdeal
from .zring import RingError, _assemble


class FullFace(RingError):
    pass


class MonomialRing(namedtuple("MonomialRing", "nvars twist")):
    """``twist`` is the n x n integer matrix L, rows as tuples."""

    __slots__ = ()

    def __new__(cls, nvars, twist):
        nvars = _integer(nvars, "the number of variables")
        if nvars < 1:
            raise RingError(
                f"a monomial ring needs at least one variable, got {nvars}")
        rows = tuple(_integers(row, "twist entries") for row in twist)
        if len(rows) != nvars or any(len(r) != nvars for r in rows):
            raise RingError(f"twist matrix must be {nvars}x{nvars}")
        return super().__new__(cls, nvars, rows)

    def kappa(self, a, b):
        """Bilinear twist exponent sum_ij L[i][j] a_i b_j."""
        total = 0
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = self.twist[i]
            for j, bj in enumerate(b):
                if bj:
                    total += row[j] * ai * bj
        return total


class MonoidIdeal(namedtuple("MonoidIdeal", "nvars gens")):
    """Upward-closed subset of N^n given by its minimal generators
    (pairwise incomparable, lexicographically sorted)."""

    __slots__ = ()


def _integer(value, what):
    """The value as an int; RingError for a float or any other value that
    is not an integer."""
    try:
        return index(value)
    except TypeError:
        raise RingError(f"{what} must be an integer, got {value!r}") from None


def _integers(values, what):
    """The values as a tuple of ints; RingError for a float or any other
    value that is not an integer, which int() would silently truncate."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise RingError(f"{what} must be integers, got {values!r}") from None


def _check_vector(nvars, vec):
    v = _integers(vec, "exponent vectors")
    if len(v) != nvars:
        raise RingError(f"expected a vector of length {nvars}, got {vec!r}")
    if any(x < 0 for x in v):
        raise RingError(f"exponent vectors must be nonnegative, got {vec!r}")
    return v


def _dominates(a, b):
    return all(x >= y for x, y in zip(a, b))


def build_monoid_ideal(nvars, gens):
    """Normalize generators: drop any vector dominating another one."""
    vecs = sorted({_check_vector(nvars, g) for g in gens})
    minimal = [g for g in vecs
               if not any(h != g and _dominates(g, h) for h in vecs)]
    return MonoidIdeal(nvars, tuple(minimal))


def monoid_membership(ideal, vec):
    v = _check_vector(ideal.nvars, vec)
    return any(_dominates(v, g) for g in ideal.gens)


def monoid_ideal_is_prime(ideal):
    """Decide a+b in S => a in S or b in S for the upward-closed set S.

    Let V be the variables whose unit vector lies in S.  S is prime
    exactly when every generator has a positive entry at some variable in
    V, and then S is the face ideal of V.  Returns (True, face-index
    tuple) or (False, (a, b)) with a concrete splitting witness.
    """
    n = ideal.nvars
    if any(not any(g) for g in ideal.gens):
        raise ImproperIdeal("the ideal contains 0 and is all of N^n")
    unit = lambda i: tuple(1 if j == i else 0 for j in range(n))
    face = tuple(i for i in range(n) if monoid_membership(ideal, unit(i)))
    face_set = set(face)
    for g in ideal.gens:
        if not any(g[i] for i in face_set):
            i = next(i for i in range(n) if g[i])
            a = unit(i)
            b = tuple(x - y for x, y in zip(g, a))
            return False, (a, b)
    return True, face


def monomial_label(vec):
    """Label within [A-Za-z0-9_]: x/y/z names for up to three variables
    (exponent appended when above 1), x1p2_x3 style beyond that."""
    if not any(vec):
        return "1"
    n = len(vec)
    parts = []
    for i, e in enumerate(vec):
        if not e:
            continue
        if n <= 3:
            name = "xyz"[i]
            parts.append(name if e == 1 else f"{name}{e}")
        else:
            name = f"x{i + 1}"
            parts.append(name if e == 1 else f"{name}p{e}")
    return ("" if n <= 3 else "_").join(parts)


def _graded_vectors(nvars, degree):
    """Exponent vectors of total degree <= degree, graded and with the
    earlier variables heaviest (so x before y before z).  Those of degree
    at most d are the first comb(d + nvars, nvars)."""
    vecs = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            vecs.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    for d in range(degree + 1):
        rec([], d, nvars)
    return vecs


def truncate_to_ring(ring, degree, name=None):
    """Finite Laurent-mode ring on the monomials of total degree at most
    ``degree``; products that overflow the degree are zero.

    The monomials are listed by degree, so the b with deg a + deg b at
    most ``degree`` are a prefix of the list, and only those products are
    made: each is one flat row {(a + b, kappa(a, b)): 1}, keyed by index.
    The rows go straight to the assembler, which checks the labels, the
    cocycle identity (associativity) and the unit axioms for the unit 1;
    every constant is 1 and every pair has one row, so build_ring's
    coercion has nothing to check."""
    degree = _integer(degree, "the degree")
    if degree < 0:
        raise RingError("degree must be nonnegative")
    vecs = _graded_vectors(ring.nvars, degree)
    # upto[d]: the number of monomials of degree below d
    upto = [0] + [comb(d + ring.nvars, ring.nvars) for d in range(degree + 1)]
    labels = tuple(map(monomial_label, vecs))
    position = {v: i for i, v in enumerate(vecs)}
    kappa = ring.kappa
    rows = {}
    for i, a in enumerate(vecs):
        for j, b in enumerate(vecs[:upto[degree - sum(a) + 1]]):
            s = position[tuple(x + y for x, y in zip(a, b))]
            rows[i, j] = {(s, kappa(a, b)): 1}
    if name is None:
        name = f"qmonomial-{ring.nvars}vars-deg{degree}"
    return _assemble(labels, LAURENT, rows, None, frozenset({0}), name)


def face_quotient(ring, face):
    """Quotient by the face ideal of the given variables: the monomial
    ring on the remaining variables with the restricted twist."""
    face = sorted(set(_integers(face, "face variables")))
    for i in face:
        if not 0 <= i < ring.nvars:
            raise RingError(f"face variable {i} out of range")
    keep = [i for i in range(ring.nvars) if i not in face]
    if not keep:
        raise FullFace("the face must leave at least one variable")
    twist = tuple(tuple(ring.twist[i][j] for j in keep) for i in keep)
    return MonomialRing(len(keep), twist)
