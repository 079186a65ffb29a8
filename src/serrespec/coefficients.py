"""Exact coefficients for structure constants: values, canonical text
and parsing.

Two modes: plain arbitrary-precision integers (``int``) and sparse Laurent
polynomials in q (``laurent``).  A value is a map from q-exponent to a
nonzero integer; int mode only ever uses exponent 0.  Values are immutable
and hashable.

Structure constants must be nonnegative; the sign restriction is enforced
at the validation boundaries (parsing and table building), not here.
"""

from operator import index

INT = "int"
LAURENT = "laurent"
_MODES = (INT, LAURENT)


class CoefficientError(ValueError):
    """Bad mode, a non-integer term, or a value of the wrong mode."""


class CoefficientSyntaxError(CoefficientError):
    """Unparseable coefficient text; ``offset`` is the byte position."""

    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class Coefficient:
    """Sparse exponent-to-value map, canonically sorted, no zero values."""

    __slots__ = ("mode", "terms")

    def __init__(self, mode, terms=()):
        if mode not in _MODES:
            raise CoefficientError(f"unknown coefficient mode {mode!r}")
        clean = {}
        for exp, value in dict(terms).items():
            try:
                exp, value = index(exp), index(value)
            except TypeError:
                raise CoefficientError(
                    f"non-integer term {exp!r}: {value!r}") from None
            if value == 0:
                continue
            if mode == INT and exp != 0:
                raise CoefficientError("q-exponents are not allowed in int mode")
            clean[exp] = value
        self.mode = mode
        self.terms = dict(sorted(clean.items()))

    @classmethod
    def of(cls, value, mode):
        """Coerce an int (or pass through a matching Coefficient)."""
        if isinstance(value, Coefficient):
            if value.mode != mode:
                raise CoefficientError(
                    f"expected a {mode} coefficient, got {value.mode}")
            return value
        return cls(mode, {0: value})

    @classmethod
    def q_power(cls, exponent, value=1):
        return cls(LAURENT, {exponent: value})

    def is_nonnegative(self):
        return all(v > 0 for v in self.terms.values())

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Coefficient)
                and self.mode == other.mode and self.terms == other.terms)

    def __hash__(self):
        return hash((self.mode, tuple(self.terms.items())))

    def __str__(self):
        return format_terms(self.terms.items())

    def __repr__(self):
        return f"Coefficient({self.mode!r}, {self.terms!r})"


def format_terms(terms):
    """Canonical text of nonzero (exponent, value) pairs given in
    increasing exponent order, e.g. 'q^-1 + 1 + 2q^3'."""
    parts = []
    for exp, value in terms:
        if exp == 0:
            parts.append(str(value))
        else:
            q = "q" if exp == 1 else f"q^{exp}"
            parts.append(q if value == 1 else f"{value}{q}")
    return " + ".join(parts) or "0"


def parse_coefficient(text, mode):
    """Parse ``term ('+' term)*`` where term is ``[uint]['q'['^' int]]``.

    Whitespace-insensitive; like terms are collected.  Raises
    CoefficientSyntaxError with the byte offset of the problem.
    """
    if mode not in _MODES:
        raise CoefficientError(f"unknown coefficient mode {mode!r}")
    n = len(text)
    pos = _skip_ws(text, 0)
    if pos == n:
        raise CoefficientSyntaxError("empty coefficient", pos)
    terms = {}
    while True:
        pos, exp, value = _scan_term(text, pos, mode)
        new = terms.get(exp, 0) + value
        if new:
            terms[exp] = new
        else:
            terms.pop(exp, None)
        pos = _skip_ws(text, pos)
        if pos == n:
            break
        if text[pos] != "+":
            raise CoefficientSyntaxError(f"expected '+', found {text[pos]!r}", pos)
        pos = _skip_ws(text, pos + 1)
        if pos == n:
            raise CoefficientSyntaxError("dangling '+'", pos)
    return Coefficient(mode, terms)


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _scan_uint(text, pos):
    start = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == start:
        return start, None
    return pos, int(text[start:pos])


def _scan_term(text, pos, mode):
    if text[pos] == "-":
        raise CoefficientSyntaxError("negative literal coefficient", pos)
    pos, value = _scan_uint(text, pos)
    probe = _skip_ws(text, pos) if value is not None else pos
    if probe < len(text) and text[probe] == "q":
        if mode == INT:
            raise CoefficientSyntaxError("'q' is not allowed in int mode", probe)
        pos = probe + 1
        exp = 1
        probe = _skip_ws(text, pos)
        if probe < len(text) and text[probe] == "^":
            pos = _skip_ws(text, probe + 1)
            sign = 1
            if pos < len(text) and text[pos] == "-":
                sign = -1
                pos += 1
            pos, mag = _scan_uint(text, pos)
            if mag is None:
                raise CoefficientSyntaxError("expected integer exponent after '^'", pos)
            exp = sign * mag
        return pos, exp, 1 if value is None else value
    if value is None:
        raise CoefficientSyntaxError(f"expected term, found {text[pos]!r}", pos)
    return pos, 0, value
