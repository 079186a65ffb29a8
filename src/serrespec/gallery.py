"""Built-in example rings with frozen expected results.

Each canonical entry records the two-sided ideal count, the spectrum (as
label lists in canonical subset order) and the completely-prime flag per
prime; the test suite reproduces every number from scratch.  The two
parameterized families accept a trailing integer: ``verlinde-sl2-K`` and
``qplane-trunc-D``.
"""

import re
from collections import namedtuple

from .coefficients import INT
from .monomial import MonomialRing, truncate_to_ring
from .zring import RingError, build_ring


class GalleryEntry(namedtuple("GalleryEntry", "name summary build expected",
                              defaults=(None,))):
    __slots__ = ()


def _trivial():
    return build_ring(["1"], {("1", "1"): {"1": 1}}, INT, units=["1"],
                      name="trivial")


def _zx2_1():
    tensor = {("1", "1"): {"1": 1}, ("1", "x"): {"x": 1},
              ("x", "1"): {"x": 1}, ("x", "x"): {"1": 1}}
    return build_ring(["1", "x"], tensor, INT, units=["1"], name="zx2-1")


def _zx2_x():
    tensor = {("1", "1"): {"1": 1}, ("1", "x"): {"x": 1},
              ("x", "1"): {"x": 1}, ("x", "x"): {"x": 1}}
    return build_ring(["1", "x"], tensor, INT, units=["1"], name="zx2-x")


def _two_idem():
    tensor = {("a", "a"): {"a": 1}, ("b", "b"): {"b": 1}}
    blocks = {"a": ("A", "A"), "b": ("B", "B")}
    return build_ring(["a", "b"], tensor, INT, blocks, ["a", "b"],
                      name="two-idem")


def _nilpotent():
    return build_ring(["a"], {}, INT, name="nilpotent")


def _matrix_units(n):
    labels = [f"e{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    tensor = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for l in range(1, n + 1):
                tensor[(f"e{i}{j}", f"e{j}{l}")] = {f"e{i}{l}": 1}
    blocks = {f"e{i}{j}": (str(j), str(i))
              for i in range(1, n + 1) for j in range(1, n + 1)}
    units = [f"e{i}{i}" for i in range(1, n + 1)]
    return build_ring(labels, tensor, INT, blocks, units, name=f"m{n}-block")


def _ising():
    tensor = {("1", "1"): {"1": 1}, ("1", "eps"): {"eps": 1},
              ("1", "sigma"): {"sigma": 1},
              ("eps", "1"): {"eps": 1}, ("eps", "eps"): {"1": 1},
              ("eps", "sigma"): {"sigma": 1},
              ("sigma", "1"): {"sigma": 1}, ("sigma", "eps"): {"sigma": 1},
              ("sigma", "sigma"): {"1": 1, "eps": 1}}
    return build_ring(["1", "eps", "sigma"], tensor, INT, units=["1"],
                      name="ising")


def _verlinde_sl2(k):
    labels = [f"f{a}" for a in range(k + 1)]
    tensor = {}
    for a in range(k + 1):
        for b in range(k + 1):
            row = {f"f{c}": 1
                   for c in range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2)}
            if row:
                tensor[(f"f{a}", f"f{b}")] = row
    return build_ring(labels, tensor, INT, units=["f0"],
                      name=f"verlinde-sl2-{k}")


def _rep_s3():
    tensor = {("t", "t"): {"t": 1}, ("t", "s"): {"s": 1}, ("t", "d"): {"d": 1},
              ("s", "t"): {"s": 1}, ("s", "s"): {"t": 1}, ("s", "d"): {"d": 1},
              ("d", "t"): {"d": 1}, ("d", "s"): {"d": 1},
              ("d", "d"): {"t": 1, "s": 1, "d": 1}}
    return build_ring(["t", "s", "d"], tensor, INT, units=["t"], name="rep-s3")


def quantum_plane():
    """Two variables with y x = q x y (twist entry L[1][0] = 1)."""
    return MonomialRing(2, ((0, 0), (1, 0)))


def _qplane_trunc(d):
    return truncate_to_ring(quantum_plane(), d, name=f"qplane-trunc-{d}")


def _mixed_3obj():
    # commutative-triangle arrow algebra on objects A, B, C:
    # f: A->B, g: B->C and their composite h = g*f: A->C
    labels = ["uA", "uB", "uC", "f", "g", "h"]
    blocks = {"uA": ("A", "A"), "uB": ("B", "B"), "uC": ("C", "C"),
              "f": ("A", "B"), "g": ("B", "C"), "h": ("A", "C")}
    tensor = {("uA", "uA"): {"uA": 1}, ("uB", "uB"): {"uB": 1},
              ("uC", "uC"): {"uC": 1},
              ("f", "uA"): {"f": 1}, ("uB", "f"): {"f": 1},
              ("g", "uB"): {"g": 1}, ("uC", "g"): {"g": 1},
              ("h", "uA"): {"h": 1}, ("uC", "h"): {"h": 1},
              ("g", "f"): {"h": 1}}
    return build_ring(labels, tensor, INT, blocks, ["uA", "uB", "uC"],
                      name="mixed-3obj")


_AUG2 = ["x", "y", "x2", "xy", "y2"]

_ENTRIES = [
    GalleryEntry(
        "trivial", "one basis element, 1*1 = 1", _trivial,
        {"ideal_count": 2, "spectrum": [[]], "completely_prime": [True]}),
    GalleryEntry(
        "zx2-1", "Z[x]/(x^2-1): the zero ideal is Serre prime", _zx2_1,
        {"ideal_count": 2, "spectrum": [[]], "completely_prime": [True]}),
    GalleryEntry(
        "zx2-x", "Z[x]/(x^2-x): two-point spectrum with a generic point",
        _zx2_x,
        {"ideal_count": 3, "spectrum": [[], ["x"]],
         "completely_prime": [True, True]}),
    GalleryEntry(
        "two-idem", "two orthogonal idempotents as a two-object block ring",
        _two_idem,
        {"ideal_count": 4, "spectrum": [["a"], ["b"]],
         "completely_prime": [True, True]}),
    GalleryEntry(
        "nilpotent", "one nilpotent class, a^2 = 0: empty spectrum",
        _nilpotent,
        {"ideal_count": 2, "spectrum": [], "completely_prime": []}),
    GalleryEntry(
        "m2-block", "2x2 matrix units as a block ring",
        lambda: _matrix_units(2),
        {"ideal_count": 2, "spectrum": [[]], "completely_prime": [False]}),
    GalleryEntry(
        "m3-block", "3x3 matrix units as a block ring",
        lambda: _matrix_units(3),
        {"ideal_count": 2, "spectrum": [[]], "completely_prime": [False]}),
    GalleryEntry(
        "ising", "Ising fusion table {1, eps, sigma}", _ising,
        {"ideal_count": 2, "spectrum": [[]], "completely_prime": [True]}),
    GalleryEntry(
        "verlinde-sl2-3", "sl2 level-3 fusion table",
        lambda: _verlinde_sl2(3),
        {"ideal_count": 2, "spectrum": [[]], "completely_prime": [True]}),
    GalleryEntry(
        "rep-s3", "character table ring of S3: d^2 = t + s + d", _rep_s3,
        {"ideal_count": 2, "spectrum": [[]], "completely_prime": [True]}),
    GalleryEntry(
        "qplane-trunc-2", "quantum plane truncated at degree 2",
        lambda: _qplane_trunc(2),
        {"ideal_count": 14, "spectrum": [_AUG2],
         "completely_prime": [True]}),
    GalleryEntry(
        "mixed-3obj", "three-object commutative triangle arrow algebra",
        _mixed_3obj,
        {"ideal_count": 14,
         "spectrum": [["uA", "uB", "f", "g", "h"],
                      ["uA", "uC", "f", "g", "h"],
                      ["uB", "uC", "f", "g", "h"]],
         "completely_prime": [True, True, True]}),
]

_BY_NAME = {e.name: e for e in _ENTRIES}

# canonical ASCII numerals only, so each ring has one name
_VERLINDE_RE = re.compile(r"verlinde-sl2-(0|[1-9][0-9]*)\Z")
_QPLANE_RE = re.compile(r"qplane-trunc-(0|[1-9][0-9]*)\Z")


def gallery_names():
    """Canonical gallery, the set every exhaustive test sweeps."""
    return tuple(e.name for e in _ENTRIES)


def gallery_summary(name):
    entry = _BY_NAME.get(name)
    return entry.summary if entry else None


def gallery_expected(name):
    """Frozen expected results, or None for non-canonical parameters."""
    entry = _BY_NAME.get(name)
    return dict(entry.expected) if entry and entry.expected else None


def load_gallery(name):
    entry = _BY_NAME.get(name)
    if entry is not None:
        return entry.build()
    m = _VERLINDE_RE.match(name)
    if m:
        k = int(m.group(1))
        if k < 1:
            raise RingError("verlinde-sl2 level must be at least 1")
        return _verlinde_sl2(k)
    m = _QPLANE_RE.match(name)
    if m:
        return _qplane_trunc(int(m.group(1)))
    raise RingError(
        f"unknown gallery ring {name!r}; known names: "
        + ", ".join(gallery_names())
        + " (plus verlinde-sl2-K and qplane-trunc-D)")
