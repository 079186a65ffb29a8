"""Line-oriented ring-file format and canonical serialization.

Grammar ('#' starts a comment, blank lines are skipped)::

    ring "NAME"                         (or a bare NAME; no '"' inside;
                                         "" is the empty name)
    coeff int|laurent
    basis LABEL ...
    unit LABEL ...                      (optional, at most one line)
    block SRC DST: LABEL[, LABEL ...]   (optional, one line per block)
    mul LABEL LABEL = 0 | TERM [+ TERM ...]

A TERM is ``[MONOMIAL *] LABEL`` where MONOMIAL follows the coefficient
grammar (``2``, ``q``, ``3q^-2`` ...); repeating a label accumulates, so a
coefficient with several monomials serializes as repeated terms.  Labels
match [A-Za-z0-9_]+ and "block SRC DST" assigns source and target objects.

Unspecified products are zero, except products with declared units, which
default to whatever the unit axioms force.  The identity is the sum of
one unit per object, so u g = g for each unit u on g's target object and
g u = g for each unit on g's source; a single unit without blocks is the
unit of one anonymous object, a two-sided identity.  With several units
and no blocks the axioms do not pin individual products down, so nothing
is defaulted.  A product written '= 0' is never defaulted.
"""

import re
from pathlib import Path

from .coefficients import (INT, LAURENT, CoefficientError, format_terms,
                           parse_coefficient)
from .zring import (AssociativityViolation, RingError, RingValidationError,
                    _assemble, block_objects)

_LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_HEADER_FIRST = "'ring', 'coeff' and 'basis' lines must come first"
# each directive but 'mul' -> the directives that must come before it;
# every directive but 'block' appears at most once
_NEEDS = {"ring": set(), "coeff": {"ring"}, "basis": {"ring", "coeff"},
          "unit": {"basis"}, "block": {"basis"}}


class RingFileError(RingError):
    def __init__(self, message, source="<ring>", line=None):
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")
        self.source = source
        self.line = line


def _check_label(label, source, line):
    if not _LABEL_RE.match(label):
        raise RingFileError(f"bad label {label!r}", source, line)
    return label


def _index_of(index, label, source, line):
    if label not in index:
        raise RingFileError(f"unknown label {label!r}", source, line)
    return index[label]


def parse_ring_file(text, source="<ring>"):
    """Parse and fully validate a ring file; diagnostics carry line numbers.

    Each label is resolved to its basis index once, where it is read, and
    the products are added up as the flat rows the ring stores; only
    nonzero rows are kept, and pair_lines records every written product,
    '= 0' ones included.  'mul' lines, nearly all of a file, are tested
    for first.  Every other line is checked once against _NEEDS; a
    'basis' line needs 'ring' and 'coeff' before it, so a read basis
    stands for the whole header.  Each distinct product text is parsed
    once, at its first line, and every line with that text shares its
    read-only row; each distinct coefficient text, such as a 'q^2'
    repeated across products, is parsed once too, so a bad one raises at
    its first line.
    """
    name = None
    mode = None
    labels = None
    units = None
    seen = set()     # the directives read so far, 'mul' aside
    blocks = {}      # basis index -> (source, target)
    rows = {}        # (a, b) index pair -> nonzero flat row
    pair_lines = {}  # (a, b) index pair -> line number of its 'mul' line
    parsed = {}      # stripped product text -> its flat row
    coeffs = {}      # stripped coefficient text -> its terms

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        word, _, rest = line.partition(" ")
        if word == "mul":
            if labels is None:
                raise RingFileError(_HEADER_FIRST, source, line_no)
            head, sep, sum_text = rest.partition("=")
            if not sep:
                raise RingFileError("mul line needs '='", source, line_no)
            factors = head.split()
            if len(factors) != 2:
                raise RingFileError(
                    "mul line needs two factor labels", source, line_no)
            a, b = factors
            try:
                pair = index[a], index[b]
            except KeyError as exc:
                raise RingFileError(f"unknown label {exc.args[0]!r}",
                                    source, line_no) from None
            if pair in pair_lines:
                raise RingFileError(
                    f"duplicate 'mul {a} {b}' (first at line "
                    f"{pair_lines[pair]})", source, line_no)
            sum_text = sum_text.strip()
            row = parsed.get(sum_text)
            if row is None:
                row = parsed[sum_text] = _parse_sum(
                    sum_text, mode, index, coeffs, source, line_no)
            if row:
                rows[pair] = row
            pair_lines[pair] = line_no
            continue
        if word not in _NEEDS:
            raise RingFileError(f"unknown directive {word!r}", source, line_no)
        if word in seen and word != "block":
            raise RingFileError(f"duplicate {word!r} line", source, line_no)
        if not _NEEDS[word] <= seen:
            raise RingFileError(_HEADER_FIRST, source, line_no)
        seen.add(word)
        rest = rest.strip()
        if word == "ring":
            if not rest:
                raise RingFileError("missing ring name", source, line_no)
            m = re.fullmatch(r'"([^"]*)"', rest)
            name = m.group(1) if m else rest  # 'ring ""' names it ""
            if '"' in name:
                raise RingFileError(f"bad ring name {rest!r}", source, line_no)
        elif word == "coeff":
            if rest not in (INT, LAURENT):
                raise RingFileError(
                    f"coeff must be 'int' or 'laurent', got {rest!r}",
                    source, line_no)
            mode = rest
        elif word == "basis":
            labels = [_check_label(t, source, line_no) for t in rest.split()]
            if not labels:
                raise RingFileError("empty basis", source, line_no)
            index = {lab: i for i, lab in enumerate(labels)}
        elif word == "unit":
            units = [_check_label(t, source, line_no) for t in rest.split()]
        else:  # block
            head, sep, members = rest.partition(":")
            if not sep:
                raise RingFileError("block line needs ':'", source, line_no)
            objs = head.split()
            if len(objs) != 2:
                raise RingFileError(
                    "block line needs two object names", source, line_no)
            src, dst = (_check_label(o, source, line_no) for o in objs)
            for lab in members.split(","):
                lab = lab.strip()
                if not lab:
                    raise RingFileError("empty block member", source, line_no)
                _check_label(lab, source, line_no)
                i = _index_of(index, lab, source, line_no)
                if i in blocks:
                    raise RingFileError(
                        f"label {lab!r} assigned to two blocks", source, line_no)
                blocks[i] = (src, dst)

    if labels is None:
        raise RingFileError(_HEADER_FIRST, source)
    if blocks:
        missing = [lab for lab in labels if index[lab] not in blocks]
        if missing:
            raise RingFileError(
                f"labels without a block: {', '.join(missing)}", source)
    if units is not None:
        for u in units:
            if u not in index:
                raise RingFileError(f"unknown unit label {u!r}", source)
    # by label: each copy of a repeated label, which _assemble refuses,
    # takes the block of the copy the index names
    blocks = tuple(blocks[index[lab]] for lab in labels) if blocks else None
    if units is not None:
        units = frozenset(index[u] for u in units)
        _fill_unit_defaults(rows, pair_lines, len(labels), units, blocks)
    try:
        return _assemble(tuple(labels), mode, rows, blocks, units, name)
    except RingValidationError as exc:
        hints = list(exc.hints)
        for v in exc.violations:
            if isinstance(v, AssociativityViolation):
                # _assemble refuses repeated labels before this check, so
                # each label names one index; a pair with a row but no
                # line took its product from the unit axioms
                for x, y in ((v.alpha, v.beta), (v.beta, v.gamma)):
                    pair = index[x], index[y]
                    if pair not in pair_lines and pair not in rows:
                        hints.append(f"hint: no 'mul {x} {y}' line in "
                                     f"{source}; the product defaulted to 0")
        raise RingValidationError(exc.ring_name, exc.violations,
                                  dict.fromkeys(hints)) from None


def _parse_sum(text, mode, index, coeffs, source, line_no):
    """The flat row {(gamma, q-exponent): positive int} of a product.

    A bare label adds 1 at exponent 0; only a term with '*' goes through
    the coefficient grammar, once per distinct coefficient text: coeffs
    keeps the terms of each text already parsed."""
    if text == "0":
        return {}
    if not text:
        raise RingFileError("empty product (write '= 0')", source, line_no)
    row = {}
    for piece in text.split("+"):
        coeff_text, star, label = piece.rpartition("*")
        try:
            g = index[label.strip()]
        except KeyError as exc:
            raise RingFileError(f"unknown label {exc.args[0]!r}",
                                source, line_no) from None
        if not star:
            key = g, 0
            row[key] = row.get(key, 0) + 1
            continue
        coeff_text = coeff_text.strip()
        terms = coeffs.get(coeff_text)
        if terms is None:
            try:
                terms = coeffs[coeff_text] = parse_coefficient(
                    coeff_text, mode).terms
            except CoefficientError as exc:
                raise RingFileError(str(exc), source, line_no) from None
        for e, v in terms.items():
            row[g, e] = row.get((g, e), 0) + v
    return row


def _fill_unit_defaults(rows, written, n, units, blocks):
    """Set rows[u, g] = g for each unit u on g's target object and
    rows[g, u] = g for each unit on g's source, where no line wrote the
    product (written holds the written pairs, '= 0' ones included).

    A unit's object is its source.  A single unit without blocks is the
    unit of one anonymous object; several units without blocks force
    nothing.  Each object's units are listed once and each g is visited
    once, so the work is O(n + units).  The product of two units on one
    object, which fails the unit axioms whatever it is, gets a default at
    each factor's visit and keeps the later one; the units are visited
    first, in the unit set's order, so it keeps the default of the unit
    met first, as tests/oracles.py:looped_unit_defaults does.

    The defaults enter rows in visit order, but no report reads the
    order of the tensor's keys: _assemble's block check walks
    sorted(tensor), _unit_check's verdicts and texts do not depend on
    the order it gathers the unit products in, the associativity
    violations are described in (a, b, c) order, the support tables are
    ORs, and serialize_ring sorts.  tests/test_io.py checks this by
    shuffling the 'mul' lines of ring files, which shuffles the tensor.
    """
    if blocks is None:
        if len(units) > 1:
            return  # several units, no blocks: nothing is forced
        blocks = ((None, None),) * n
    acting = {}  # object -> its units
    for u in units:
        acting.setdefault(blocks[u][0], []).append(u)
    for g in [*units, *(g for g in range(n) if g not in units)]:
        src, dst = blocks[g]
        pairs = [(u, g) for u in acting.get(dst, ())]
        pairs += [(g, u) for u in acting.get(src, ())]
        for pair in pairs:
            if pair not in written:
                rows[pair] = {(g, 0): 1}


def serialize_ring(ring):
    """Canonical text: basis order everywhere, every nonzero product
    spelled out, multi-monomial coefficients as repeated terms."""
    for lab in ring.labels:
        if not _LABEL_RE.match(lab):
            raise RingError(f"label {lab!r} cannot be serialized")
    if '"' in ring.name or "#" in ring.name or \
            "".join(ring.name.splitlines()) != ring.name:
        raise RingError(f"ring name {ring.name!r} cannot be serialized")
    lines = [f'ring "{ring.name}"', f"coeff {ring.mode}",
             "basis " + " ".join(ring.labels)]
    if ring.units is not None:
        lines.append("unit " + " ".join(ring.labels[u]
                                        for u in sorted(ring.units)))
    if ring.blocks is not None:
        order = {obj: i for i, obj in enumerate(block_objects(ring.blocks))}
        grouped = {}
        for i, pair in enumerate(ring.blocks):
            grouped.setdefault(pair, []).append(ring.labels[i])
        for pair in sorted(grouped, key=lambda p: (order[p[0]], order[p[1]])):
            lines.append(
                f"block {pair[0]} {pair[1]}: " + ",".join(grouped[pair]))
    for a, b in sorted(ring.tensor):  # every stored row is nonempty
        terms = []
        for (g, exp), value in sorted(ring.tensor[a, b].items()):
            # a bare "0" would read back as the zero product
            if exp == 0 and value == 1 and ring.labels[g] != "0":
                terms.append(ring.labels[g])
            else:
                mono = format_terms(((exp, value),))
                terms.append(f"{mono}*{ring.labels[g]}")
        lines.append(
            f"mul {ring.labels[a]} {ring.labels[b]} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def resolve_ring_arg(arg):
    """Accept 'gallery:NAME' or a ring-file path (for the CLI)."""
    if arg.startswith("gallery:"):
        from .gallery import load_gallery
        return load_gallery(arg[len("gallery:"):])
    path = Path(arg)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise RingFileError(f"cannot read ring file: {exc}", str(path)) \
            from None
    return parse_ring_file(text, source=str(path))
