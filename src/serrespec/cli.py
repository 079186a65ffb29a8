"""Command-line surface.

Every subcommand emits one JSON document with a stable field order, so
identical inputs produce byte-identical reports.  Exit codes: 0 success,
1 well-formed input but the queried property is false, 2 input error,
3 basis-size guard exceeded.  Ring arguments accept a file path or
``gallery:NAME``.

A report value is JSON data or a ``MaskList``: the subsets of a report
(the ideal lattice, the product chain, the closed sets) stay bitmasks
until ``render_report`` writes them, and a MaskList iterates as the
list of their label lists, so ``json.dumps(report, default=list)``
serializes any report.
"""

import argparse
import functools
import json
import os
import sys
from collections import namedtuple
from itertools import compress, product, repeat
from json.encoder import encode_basestring_ascii
from operator import rshift

from .gallery import gallery_expected, gallery_names, gallery_summary, \
    load_gallery
from .ideals import (BasisTooLarge, allow_large, enumerate_serre_ideals,
                     quotient_ring, serre_closure)
from .io import resolve_ring_arg, serialize_ring
from .monomial import MonomialRing, build_monoid_ideal, face_quotient, \
    monoid_ideal_is_prime, truncate_to_ring
from .spectrum import (DEFINITIONAL, FAST, NoPrimeOver, _definitional_prime,
                       _definitional_semiprime, _fast_semiprime,
                       chain_product_support, is_completely_prime,
                       is_serre_prime, is_semiprime, minimal_primes_over,
                       serre_spec)
from .topology import (BALMER, ZARISKI, build_topology, ideal_node_name,
                       specialization_edges, to_dot)
from .twocat import classify_completely_primes
from .zring import (LEFT, RIGHT, TWO_SIDED, RingError, RingValidationError,
                    labels_from_mask, mask_from_labels, select_by_mask)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_GUARD = 3

_SIDES = {"l": LEFT, "r": RIGHT, "2": TWO_SIDED}


class MaskList:
    """Subsets of ``names`` held as bitmasks, read as the list of their
    name lists.

    Iterating yields ``select_by_mask(names, mask)`` per mask, and None
    for a mask that is None.  With ``tags``, a MaskList holding one mask
    (or None) per set, each item is ``{"points": ..., "tag": ...}`` as a
    closed set reads.  ``repeats`` tells the renderer that an untagged
    list repeats its masks many times (a product chain), so each
    distinct mask's text is made once; it changes no text.  Equality
    compares the materialized lists.
    """

    __slots__ = ("names", "masks", "tags", "repeats")

    def __init__(self, names, masks, tags=None, repeats=False):
        self.names = names
        self.masks = masks
        self.tags = tags
        self.repeats = repeats

    def __len__(self):
        return len(self.masks)

    def __iter__(self):
        lists = (None if m is None else select_by_mask(self.names, m)
                 for m in self.masks)
        if self.tags is None:
            return lists
        return ({"points": p, "tag": t} for p, t in zip(lists, self.tags))

    def __eq__(self, other):
        if isinstance(other, MaskList):
            other = list(other)
        return list(self) == other


class CommandResult(namedtuple("CommandResult", "exit_code report")):
    __slots__ = ()


class _UsageError(Exception):
    def __init__(self, message, usage=None):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # self is the parser that failed: the subcommand's, once one is named
        raise _UsageError(message, self.format_usage().strip())


def _formatter(prog):
    return argparse.HelpFormatter(prog, width=78)


@functools.cache
def _build_parser():
    """The argparse tree, built on first use and shared by every call.
    Each subcommand's parser holds its handler as the ``handler`` default.

    Usage text of every parser wraps at a fixed width rather than the
    terminal's, so usage reports do not depend on where the command runs.
    """
    parser = _Parser(prog="serrespec", description=__doc__.splitlines()[0],
                     formatter_class=_formatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler):
        p = sub.add_parser(name, help=help_text, formatter_class=_formatter)
        p.set_defaults(handler=handler)
        return p

    def ring_cmd(name, help_text, handler):
        p = add(name, help_text, handler)
        p.add_argument("ring", metavar="F",
                       help="ring file path or gallery:NAME")
        p.add_argument("--allow-large", action="store_true",
                       help="override the basis-size guard")
        return p

    ring_cmd("validate", "parse and validate a ring file", _cmd_validate)

    p = ring_cmd("ideals", "list the Serre ideal lattice", _cmd_ideals)
    p.add_argument("--side", choices=sorted(_SIDES), default="2")

    ring_cmd("spec", "Serre prime spectrum with flags", _cmd_spec)

    p = ring_cmd("check", "test one ideal for a primality property",
                 _cmd_check)
    p.add_argument("--ideal", required=True,
                   help="comma-separated labels; empty string for the zero ideal")
    p.add_argument("--prop", required=True,
                   choices=["prime", "cprime", "semiprime"])
    p.add_argument("--mode", choices=["fast", "oracle"], default="fast")

    p = ring_cmd("closure", "smallest Serre ideal containing the generators",
                 _cmd_closure)
    p.add_argument("--gens", required=True)
    p.add_argument("--side", choices=sorted(_SIDES), default="2")

    p = ring_cmd("minimal-primes",
                 "minimal primes over an ideal plus a product chain",
                 _cmd_minimal_primes)
    p.add_argument("--ideal", required=True)

    p = ring_cmd("quotient", "quotient ring by a two-sided Serre ideal",
                 _cmd_quotient)
    p.add_argument("--ideal", required=True)
    p.add_argument("-o", "--output", help="write the quotient ring file here")

    p = ring_cmd("topology", "closed-set family on the spectrum",
                 _cmd_topology)
    p.add_argument("--style", choices=[ZARISKI, BALMER], required=True)
    p.add_argument("--dot", help="write the specialization digraph here")

    p = ring_cmd("twocat", "block-ring analysis", _cmd_twocat)
    p.add_argument("--classify-cprimes", action="store_true")

    p = add("monomial", "q-twisted monomial ring operations", _cmd_monomial)
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--twist", required=True,
                   help="rows separated by ';', entries by ','")
    p.add_argument("--prime", help="ideal generators, ';'-separated vectors")
    p.add_argument("--truncate", type=int, help="truncation degree")
    p.add_argument("--face", help="1-based variable indices, ','-separated")

    p = add("gallery", "list or show built-in rings", _cmd_gallery)
    p.add_argument("name", nargs="?")

    ring_cmd("oracle", "run every fast-vs-definitional cross-check",
             _cmd_oracle)

    return parser


def _parse_labels(text):
    return [t.strip() for t in text.split(",") if t.strip()]


def _ideal_from_arg(ring, text):
    return mask_from_labels(ring, _parse_labels(text))


def _cmd_validate(args):
    try:
        ring = resolve_ring_arg(args.ring)
    except RingValidationError as exc:
        report = {
            "command": "validate",
            "ring": exc.ring_name,
            "ok": False,
            "violations": [v.describe() for v in exc.violations],
            "hints": list(exc.hints),
        }
        return EXIT_FALSE, report
    report = {
        "command": "validate",
        "ring": ring.name,
        "ok": True,
        "basis": list(ring.labels),
        "mode": ring.mode,
        "has_blocks": ring.blocks is not None,
        "has_units": ring.units is not None,
    }
    return EXIT_OK, report


def _ring_report(handler):
    """The handler of a command on one ring: ``handler(ring, args)``
    returns the exit code and the report's own fields, and every report
    opens with the command and the ring's name."""
    def run(args):
        ring = resolve_ring_arg(args.ring)
        code, fields = handler(ring, args)
        return code, {"command": args.command, "ring": ring.name, **fields}
    return run


@_ring_report
def _cmd_ideals(ring, args):
    side = _SIDES[args.side]
    ideals = enumerate_serre_ideals(ring, side)
    return EXIT_OK, {
        "side": side,
        "count": len(ideals),
        "ideals": MaskList(ring.labels, ideals),
    }


@_ring_report
def _cmd_spec(ring, args):
    spec = serre_spec(ring)
    primes = [{"ideal": labels_from_mask(ring, p),
               "completely_prime": spec.completely_prime[i],
               "semiprime": spec.semiprime[i]}
              for i, p in enumerate(spec.primes)]
    return EXIT_OK, {
        "basis": list(ring.labels),
        "prime_count": len(primes),
        "primes": primes,
        "inclusions": [list(pair) for pair in spec.inclusions],
    }


@_ring_report
def _cmd_check(ring, args):
    ideal = _ideal_from_arg(ring, args.ideal)
    mode = FAST if args.mode == "fast" else DEFINITIONAL
    if args.prop == "prime":
        holds, witness = is_serre_prime(ring, ideal, mode)
    elif args.prop == "cprime":
        holds, witness = is_completely_prime(ring, ideal)
    else:
        holds, witness = is_semiprime(ring, ideal, mode)
    return (EXIT_OK if holds else EXIT_FALSE), {
        "ideal": labels_from_mask(ring, ideal),
        "property": args.prop,
        "mode": args.mode,
        "holds": holds,
        "witness": witness,
    }


@_ring_report
def _cmd_closure(ring, args):
    side = _SIDES[args.side]
    gens = mask_from_labels(ring, _parse_labels(args.gens))
    closed = serre_closure(ring, gens, side)
    return EXIT_OK, {
        "side": side,
        "generators": labels_from_mask(ring, gens),
        "closure": labels_from_mask(ring, closed),
    }


@_ring_report
def _cmd_minimal_primes(ring, args):
    """Minimal primes over an ideal and the product chain of them.

    The chain repeats a few minimal primes many times; it stays a
    MaskList with ``repeats``, and ``render_report`` writes each distinct
    prime once.
    """
    ideal = _ideal_from_arg(ring, args.ideal)
    try:
        minimal, chain = minimal_primes_over(ring, ideal)
    except NoPrimeOver as exc:
        return EXIT_FALSE, {
            "ideal": labels_from_mask(ring, ideal),
            "minimal_primes": [],
            "chain": [],
            "note": str(exc),
        }
    fold = chain_product_support(ring, chain)
    return EXIT_OK, {
        "ideal": labels_from_mask(ring, ideal),
        "minimal_primes": [labels_from_mask(ring, p) for p in minimal],
        "chain": MaskList(ring.labels, chain, repeats=True),
        "chain_product_support": labels_from_mask(ring, fold),
        "chain_verified": not fold & ~ideal,
    }


@_ring_report
def _cmd_quotient(ring, args):
    ideal = _ideal_from_arg(ring, args.ideal)
    result = quotient_ring(ring, ideal)
    text = serialize_ring(result)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    return EXIT_OK, {
        "ideal": labels_from_mask(ring, ideal),
        "quotient_basis": list(result.labels),
        "output": args.output,
        "ring_file": text,
    }


@_ring_report
def _cmd_topology(ring, args):
    family = build_topology(ring, args.style)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(to_dot(ring, family))
    points = [ideal_node_name(ring, p) for p in family.space]
    tags = MaskList(ring.labels, family.tags)
    return EXIT_OK, {
        "style": args.style,
        "points": points,
        "closed_sets": MaskList(points, family.extents, tags),
        "generators_union_closed": family.generators_union_closed,
        "empty_set_adjoined": family.empty_set_adjoined,
        "specialization": [[points[i], points[j]]
                           for i, j in specialization_edges(family)],
        "dot": args.dot,
    }


@_ring_report
def _cmd_twocat(ring, args):
    # the loaded ring has passed the unit axioms for its declared units
    if ring.units is None:
        raise RingError("no units declared")
    fields = {"unit_decomposition": True, "unit_witness": None}
    if args.classify_cprimes:
        primes = classify_completely_primes(ring)
        fields["completely_primes"] = [labels_from_mask(ring, p)
                                       for p in primes]
    return EXIT_OK, fields


def _parse_vectors(text):
    vecs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        vecs.append(tuple(int(t) for t in chunk.split(",")))
    return vecs


def _cmd_monomial(args):
    rows = _parse_vectors(args.twist)
    ring = MonomialRing(args.vars, tuple(rows))
    chosen = [name for name in ("prime", "truncate", "face")
              if getattr(args, name) is not None]
    if len(chosen) != 1:
        raise _UsageError(
            "monomial needs exactly one of --prime, --truncate, --face")
    report = {
        "command": "monomial",
        "vars": args.vars,
        "twist": [list(r) for r in ring.twist],
    }
    if args.prime is not None:
        gens = _parse_vectors(args.prime)
        ideal = build_monoid_ideal(args.vars, gens)
        holds, payload = monoid_ideal_is_prime(ideal)
        report["action"] = "prime"
        report["generators"] = [list(g) for g in gens]
        report["minimal_generators"] = [list(g) for g in ideal.gens]
        report["is_prime"] = holds
        if holds:
            report["face"] = [i + 1 for i in payload]
            report["witness"] = None
        else:
            report["face"] = None
            report["witness"] = [list(payload[0]), list(payload[1])]
        return (EXIT_OK if holds else EXIT_FALSE), report
    if args.truncate is not None:
        truncated = truncate_to_ring(ring, args.truncate)
        report["action"] = "truncate"
        report["degree"] = args.truncate
        report["basis"] = list(truncated.labels)
        report["ring_file"] = serialize_ring(truncated)
        return EXIT_OK, report
    face = sorted({int(t) - 1 for t in args.face.split(",") if t.strip()})
    for i in face:
        if not 0 <= i < ring.nvars:
            raise RingError(
                f"face variable {i + 1} out of range 1..{ring.nvars}")
    quotient = face_quotient(ring, face)
    report["action"] = "face"
    report["face"] = [i + 1 for i in face]
    report["remaining_vars"] = quotient.nvars
    report["twist_restricted"] = [list(r) for r in quotient.twist]
    return EXIT_OK, report


def _cmd_gallery(args):
    if args.name is None:
        entries = []
        for name in gallery_names():
            ring = load_gallery(name)
            entries.append({
                "name": name,
                "summary": gallery_summary(name),
                "basis_size": ring.size,
            })
        report = {"command": "gallery", "names": list(gallery_names()),
                  "entries": entries}
        return EXIT_OK, report
    ring = load_gallery(args.name)
    report = {
        "command": "gallery",
        "name": args.name,
        "summary": gallery_summary(args.name),
        "expected": gallery_expected(args.name),
        "ring_file": serialize_ring(ring),
    }
    return EXIT_OK, report


@_ring_report
def _cmd_oracle(ring, args):
    ideals = enumerate_serre_ideals(ring, TWO_SIDED)
    # a lattice ideal is fast-prime exactly when the spectrum lists it
    primes = set(serre_spec(ring).primes)
    # every member but the last, the whole ring, is a proper two-sided
    # ideal, as the predicates' bodies take it to be
    proper = ideals[:-1]
    mismatches = []
    for ideal in proper:
        for prop, fast, definitional in (
                ("prime", ideal in primes,
                 _definitional_prime(ring, ideal) is None),
                ("semiprime", _fast_semiprime(ring, ideal)[0],
                 _definitional_semiprime(ring, ideal)[0])):
            if fast != definitional:
                mismatches.append({"ideal": labels_from_mask(ring, ideal),
                                   "property": prop, "fast": fast,
                                   "definitional": definitional})
    return (EXIT_OK if not mismatches else EXIT_FALSE), {
        "ideals_checked": len(proper),
        "mismatches": mismatches,
        "ok": not mismatches,
    }


def run_command(argv):
    """Run one CLI invocation; returns CommandResult(exit_code, report).

    The report's values are JSON data or MaskLists, which iterate as
    label lists; ``json.dumps(report, default=list)`` serializes it.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return CommandResult(EXIT_INPUT, {"error": "usage",
                                          "message": str(exc),
                                          "usage": exc.usage})
    try:
        # monomial and gallery have no --allow-large and run guarded
        with allow_large(getattr(args, "allow_large", False)):
            code, report = args.handler(args)
    except _UsageError as exc:
        return CommandResult(EXIT_INPUT, {"error": "usage",
                                          "message": str(exc)})
    except BasisTooLarge as exc:
        return CommandResult(EXIT_GUARD, {"error": "guard",
                                          "message": str(exc)})
    except (RingError, ValueError, OSError) as exc:
        return CommandResult(EXIT_INPUT, {"error": "input",
                                          "message": str(exc)})
    return CommandResult(code, report)


def render_report(report):
    """The report as JSON text: exactly ``json.dumps(report, indent=2,
    default=list)`` plus a newline.

    On CPython 3.11, ``json.dumps`` with any ``indent`` falls back from
    the C encoder to the pure-Python one, which costs Python work per
    item.  Here a list of labels is one join over the C string encoder,
    a MaskList is written from its masks, and the text is one join of
    the pieces ``_write`` appends.  Dict keys must be ``str``.
    """
    return "".join(_pieces(report))


def _pieces(report):
    out = []
    _write(out, report, "")
    out.append("\n")
    return out


def _write(out, value, indent):
    """Append the pieces of ``json.dumps(value, indent=2, default=list)``
    to ``out``, every line after the first prefixed by ``indent``."""
    if isinstance(value, MaskList):
        _write_masks(out, value, indent)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        try:  # a list of labels; checking every item first is slower
            out.append("[\n" + inner
                       + sep.join(map(encode_basestring_ascii, value)))
        except TypeError:
            lead = "[\n" + inner
            for v in value:
                out.append(lead)
                _write(out, v, inner)
                lead = sep
        out.append("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        lead = "{\n" + inner
        for k, v in value.items():
            out.append(lead + encode_basestring_ascii(k) + ": ")
            _write(out, v, inner)
            lead = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    else:
        out.append(json.dumps(value))


def _write_masks(out, value, indent):
    """Append a MaskList's pieces.  No item's text is made: an item's
    pieces go into ``out`` as they are, each item followed by the text
    that closes it and opens the next; the closing bracket replaces the
    last of those.

    An untagged list without ``repeats`` is written as three pieces per
    mask, from ``_low_and_high_pieces``.  A list with ``repeats`` or
    holding None, and a closed-set list, make each distinct mask's text
    once, and every repeat of it is the same string; a closed set's
    pieces are its points' text, ``mid`` and its tag's text."""
    if not value.masks:
        out.append("[]")
        return
    inner = indent + "  "
    head = tail = ""
    if value.tags is not None:
        field = inner + "  "
        points = _subset_texts(value.names, value.masks, field)
        tags = _subset_texts(value.tags.names, value.tags.masks, field)
        head = "{\n" + field + '"points": '
        mid = ",\n" + field + '"tag": '
        tail = "\n" + inner + "}"
        pieces = [None, mid, None, tail + ",\n" + inner + head] \
            * len(value.masks)
        pieces[::4] = map(points.__getitem__, value.masks)
        pieces[2::4] = map(tags.__getitem__, value.tags.masks)
    elif value.repeats:
        pieces = _text_pieces(value.names, value.masks, inner)
    else:
        try:
            pieces = _low_and_high_pieces(value.names, value.masks, inner)
        except TypeError:  # a mask is None; checking first is slower
            pieces = _text_pieces(value.names, value.masks, inner)
    pieces[-1] = tail + "\n" + indent + "]"
    out.append("[\n" + inner + head)
    out.extend(pieces)


#: _BITS[b]: the bits of the byte b from bit 0 up, as 0/1 selectors
_BITS = [bytes(bits[::-1]) for bits in product((0, 1), repeat=8)]

#: the table rule of _byte_pieces: masks at least 1/_MASKS_PER_TABLE as
#: many as a run of names has bytes make the pieces of every byte by
#: doubling; fewer join the names of each byte they hold.  It decides
#: each level of _joined and the low bytes of _low_and_high_pieces.  On
#: 8-name runs a byte costs about 0.18 microseconds in the table and 0.58
#: joined, plus 0.03 per mask to find the bytes held (a 2-vCPU host,
#: Python 3.11), so the table pays once the masks hold about a third of
#: the bytes; a quarter is near enough, and the larger lists, the ideal
#: lattices, the diag-k extents, hold every byte many times over.
_MASKS_PER_TABLE = 4


def _low_and_high_pieces(names, masks, indent):
    """The pieces of an untagged mask list, three per mask in list order:
    its level-0 piece, the text ``_joined`` makes for its higher part
    ``m >> 8`` (empty when it has none), and the separator.  The level-0
    piece is the byte's end for a mask below 256 (``[]`` for 0), its
    link otherwise.  Nothing is kept per distinct mask and no mask's
    text is made, so the work grows with the list and its distinct
    higher parts, which suits a list that does not repeat its masks, an
    ideal lattice.  A mask that is None raises TypeError."""
    inner = indent + "  "
    head, sep, tail = "[\n" + inner, ",\n" + inner, "\n" + indent + "]"
    quoted = list(map(encode_basestring_ascii, names))
    link, end = _byte_pieces(quoted[:8], masks, head, sep, tail)
    end[0] = "[]"
    highs = list(map(rshift, masks, repeat(8)))
    rests = _joined(quoted[8:], set(highs) - {0}, "", sep, tail)
    rests[0] = ""
    pieces = [None, None, ",\n" + indent] * len(masks)
    pieces[::3] = [end[m] if m < 256 else link[m & 255] for m in masks]
    pieces[1::3] = map(rests.__getitem__, highs)
    return pieces


def _text_pieces(names, masks, indent):
    """The pieces of an untagged mask list, two per mask: the text
    ``_subset_texts`` made for it and the separator."""
    texts = _subset_texts(names, masks, indent)
    pieces = [None, ",\n" + indent] * len(masks)
    pieces[::2] = map(texts.__getitem__, masks)
    return pieces


def _subset_texts(names, masks, indent):
    """{mask: the JSON list of the names at its bits} over the distinct
    masks, each list opening on a line indented by ``indent``; a mask
    that is None maps to ``null``.

    ``_joined`` returns each text whole, brackets included (its link
    and end pieces carry them), so nothing is concatenated per mask
    here, and the work grows with the distinct masks, not the names."""
    inner = indent + "  "
    texts = _joined(list(map(encode_basestring_ascii, names)),
                    set(masks) - {0, None},
                    "[\n" + inner, ",\n" + inner, "\n" + indent + "]")
    texts[0] = "[]"
    texts[None] = "null"
    return texts


def _joined(names, masks, head, sep, tail):
    """{mask: head, the names at its bits joined by sep, then tail} over
    a set of nonzero masks.

    Level k holds the distinct masks shifted right by 8k bits, and its
    texts are made from the top level down, each level's byte pieces by
    ``_byte_pieces``; level 0's pieces open with head.  A mask is its
    byte's link followed by the text level k + 1 made for its rest, or
    its byte's end when it has no rest.  So every text is whole, and a
    mask costs at most one concatenation a level.
    """
    levels = [masks]
    while 8 * len(levels) < len(names):
        levels.append({m >> 8 for m in levels[-1]} - {0})
    texts = {}
    while levels:
        level = levels.pop()
        link, end = _byte_pieces(names[8 * len(levels):8 * len(levels) + 8],
                                 level, "" if levels else head, sep, tail)
        rests = texts
        texts = {m: link[m & 255] + rests[m >> 8] if m >> 8 else end[m & 255]
                 for m in level}
    return texts


def _byte_pieces(run, masks, prefix, sep, tail):
    """(link, end), indexed by a low byte of masks over the names of run:
    a byte's "link" is prefix, its names and sep (prefix alone for the
    empty byte), and its "end" prefix, its names and tail.  Each piece is
    made once, and the containers are new, so a caller may edit them.

    By the rule at _MASKS_PER_TABLE, many masks for the run's bytes get a
    list of every byte's pieces, made by doubling: after the run's names
    below j, a byte whose highest name is j is the link of the byte
    without it followed by that name, then sep for its link or tail for
    its end; so each piece is two concatenations, and no byte is taken
    apart.  Fewer masks get a dict over the distinct low bytes they
    hold, each joining its names, selected by _BITS.
    """
    if _MASKS_PER_TABLE * len(masks) >= 1 << len(run):
        link, end = [prefix], [prefix + tail]
        for name in run:
            end += [t + name + tail for t in link]
            link += [t + name + sep for t in link]
        return link, end
    link, end = {}, {}
    for low in {m & 255 for m in masks}:
        body = prefix + sep.join(compress(run, _BITS[low]))
        link[low] = body + sep if low else prefix
        end[low] = body + tail
    return link, end


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        result = run_command(argv)
    except SystemExit as exc:  # argparse --help
        code, pieces = int(exc.code or 0), ()
    else:
        code, pieces = result.exit_code, _pieces(result.report)
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (| head); the rest of the report,
        # and the flush at exit, go to devnull and the code stands
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
