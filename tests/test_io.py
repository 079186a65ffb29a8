import random

import pytest

from serrespec import io
from serrespec import (LAURENT, Coefficient, RingError, RingFileError,
                       RingValidationError, build_ring, gallery_names,
                       load_gallery,
                       mask_from_labels, parse_ring_file, quotient_ring,
                       serialize_ring)
from serrespec.cli import EXIT_FALSE, EXIT_INPUT, render_report, run_command
from serrespec.coefficients import parse_coefficient
from serrespec.zring import AssociativityViolation

from conftest import SEED
from ladder import diagonal, matrix_corner, upper_triangular
from oracles import looped_unit_defaults

ISING_FIXTURE = """\
# Ising fusion table
ring "ising"
coeff int
basis 1 eps sigma
unit 1
mul eps eps = 1
mul eps sigma = sigma
mul sigma eps = sigma
mul sigma sigma = 1 + eps
"""


def test_parse_ising_fixture():
    ring = parse_ring_file(ISING_FIXTURE, "ising.ring")
    assert ring == load_gallery("ising")


def test_unit_products_default_from_axioms():
    # the single-unit rows were omitted above and must be filled in
    ring = parse_ring_file(ISING_FIXTURE)
    one = ring.index("1")
    sig = ring.index("sigma")
    assert ring.tensor[(one, sig)] and ring.tensor[(sig, one)]


def test_block_fixture_parses():
    text = """\
ring "m2"
coeff int
basis e11 e12 e21 e22
unit e11 e22
block 1 1: e11
block 2 1: e12
block 1 2: e21
block 2 2: e22
mul e12 e21 = e11
mul e21 e12 = e22
"""
    ring = parse_ring_file(text)
    assert ring.blocks is not None
    m2 = load_gallery("m2-block")
    assert ring.tensor == m2.tensor


def test_omitted_product_surfaces_associativity_with_hint():
    text = """\
ring "broken"
coeff int
basis 1 eps sigma
unit 1
mul eps eps = 1
mul sigma eps = sigma
mul sigma sigma = 1 + eps
"""
    with pytest.raises(RingValidationError) as exc:
        parse_ring_file(text, "broken.ring")
    assert any("mul eps sigma" in h for h in exc.value.hints)
    assert any(v.describe().startswith("associativity fails on (eps, eps, sigma)")
               for v in exc.value.violations)
    # the whole message; the hint reads the 'mul' lines by index pair
    assert str(exc.value) == "\n  ".join([
        "invalid ring 'broken':",
        "associativity fails on (eps, eps, sigma): (eps*eps)*sigma = sigma "
        "but eps*(eps*sigma) = 0 (first difference at sigma)",
        "associativity fails on (eps, sigma, sigma): (eps*sigma)*sigma = 0 "
        "but eps*(sigma*sigma) = 1 + eps (first difference at 1)",
        "associativity fails on (sigma, eps, sigma): (sigma*eps)*sigma = "
        "1 + eps but sigma*(eps*sigma) = 0 (first difference at 1)",
        "associativity fails on (sigma, sigma, sigma): (sigma*sigma)*sigma "
        "= sigma but sigma*(sigma*sigma) = (2)*sigma (first difference at "
        "sigma)",
        "hint: no 'mul eps sigma' line in broken.ring; the product "
        "defaulted to 0"])


def test_round_trip_all_gallery_rings():
    for name in gallery_names():
        ring = load_gallery(name)
        text = serialize_ring(ring)
        again = parse_ring_file(text, name)
        assert again == ring
        assert serialize_ring(again) == text


def test_round_trip_after_quotient():
    zx = load_gallery("zx2-x")
    quo = quotient_ring(zx, mask_from_labels(zx, ["x"]))
    text = serialize_ring(quo)
    assert parse_ring_file(text) == quo


ZERO_LABELLED = {
    # 0 is the unit, and e * e = 0 has it as its only output
    "only": (["0", "e"], {("0", "0"): {"0": 1}, ("0", "e"): {"e": 1},
                          ("e", "0"): {"e": 1}, ("e", "e"): {"0": 1}},
             ["0"], "mul e e = 1*0\n"),
    # the Ising table with 0 for 1, so sigma * sigma = 0 + eps
    "several": (["0", "eps", "sigma"],
                {("0", g): {g: 1} for g in ("0", "eps", "sigma")}
                | {(g, "0"): {g: 1} for g in ("eps", "sigma")}
                | {("eps", "eps"): {"0": 1}, ("eps", "sigma"): {"sigma": 1},
                   ("sigma", "eps"): {"sigma": 1},
                   ("sigma", "sigma"): {"0": 1, "eps": 1}},
                ["0"], "mul sigma sigma = 1*0 + eps\n"),
}


@pytest.mark.parametrize("case", sorted(ZERO_LABELLED))
def test_basis_element_named_0_round_trips(case):
    labels, tensor, units, line = ZERO_LABELLED[case]
    ring = build_ring(labels, tensor, units=units, name=case)
    text = serialize_ring(ring)
    assert line in text
    assert parse_ring_file(text) == ring


def test_quotient_keeping_a_basis_element_named_0_round_trips(tmp_path):
    # tri-2 with e1_1, e1_2, e2_2 named 0, a, e: the quotient by the
    # radical {a} keeps 0 * 0 = 0
    text = """\
ring "tri"
coeff int
basis 0 a e
unit 0 e
mul 0 0 = 1*0
mul 0 a = a
mul a e = a
mul e e = e
"""
    (tmp_path / "tri.ring").write_text(text)
    result = run_command(["quotient", str(tmp_path / "tri.ring"),
                          "--ideal", "a"])
    assert "mul 0 0 = 1*0" in result.report["ring_file"]
    ring = parse_ring_file(text)
    quo = quotient_ring(ring, mask_from_labels(ring, ["a"]))
    assert parse_ring_file(result.report["ring_file"]) == quo


def test_empty_tensor_ring_serializes_without_mul_lines():
    nil = load_gallery("nilpotent")
    text = serialize_ring(nil)
    assert "mul" not in text
    assert parse_ring_file(text) == nil


def test_laurent_coefficients_round_trip():
    qp = load_gallery("qplane-trunc-2")
    text = serialize_ring(qp)
    assert "q*xy" in text
    assert parse_ring_file(text) == qp


def test_multi_term_coefficients_as_repeated_labels():
    text = """\
ring "doubled"
coeff laurent
basis u a
unit u
mul a a = a + q*a
"""
    ring = parse_ring_file(text)
    a = ring.index("a")
    assert ring.tensor[(a, a)] == {(a, 0): 1, (a, 1): 1}
    assert "mul a a = a + q*a" in serialize_ring(ring)


# the same ring as a ring file and as build_ring input: repeated terms
# add up, omitted unit products default, and block lines assign blocks
SAME_RING = {
    "laurent-repeated-terms": ("""\
ring "multi-term"
coeff laurent
basis 1 x y
unit 1
mul x x = q^-1*x + x + q^3*x + x
mul x y = 2*y + q^3*y + q^-1*y
mul y x = q^-1*y + 2*y + q^3*y
mul y y = 0
""", lambda: build_ring(
        ["1", "x", "y"],
        {("1", g): {g: 1} for g in ("1", "x", "y")}
        | {(g, "1"): {g: 1} for g in ("x", "y")}
        | {pair: {out: Coefficient(LAURENT, {-1: 1, 0: 2, 3: 1})}
           for pair, out in ((("x", "x"), "x"), (("x", "y"), "y"),
                             (("y", "x"), "y"))},
        LAURENT, units=["1"], name="multi-term")),
    "int-repeated-terms": ("""\
ring "doubled"
coeff int
basis x y
mul x x = x + x
mul x y = 0*y + y + 1*y
""", lambda: build_ring(["x", "y"],
                        {("x", "x"): {"x": 2}, ("x", "y"): {"y": 2}},
                        name="doubled")),
    "blocks-and-unit-defaults": ("""\
ring "mixed-3obj"
coeff int
basis uA uB uC f g h
unit uA uB uC
block A A: uA
block B B: uB
block C C: uC
block A B: f
block B C: g
block A C: h
mul g f = h
""", lambda: load_gallery("mixed-3obj")),
}


@pytest.mark.parametrize("case", sorted(SAME_RING))
def test_parser_and_build_ring_give_equal_rings(case):
    text, build = SAME_RING[case]
    assert parse_ring_file(text) == build()


@pytest.mark.parametrize("text,fragment", [
    ("coeff int\nbasis a\nring \"x\"\n", "must come first"),
    ("ring \"x\"\ncoeff int\nbasis a\nmul a b = a\n", "unknown label"),
    ("ring \"x\"\ncoeff int\nbasis a\nmul a a = a\nmul a a = a\n",
     "duplicate 'mul a a'"),
    ("ring \"x\"\ncoeff int\nbasis a\nmul a a =\n", "empty product"),
    ("ring \"x\"\ncoeff frac\nbasis a\n", "coeff must be"),
    ("ring \"x\"\ncoeff int\nbasis a!\n", "bad label"),
    ("ring \"x\"\ncoeff int\nbasis a\nfoo bar\n", "unknown directive"),
    ("ring \"x\"\ncoeff int\nbasis a b\nblock A A: a\n", "without a block"),
    ("ring \"x\"\ncoeff int\nbasis a\nblock A A: a, z\n",
     "bad.ring:4: unknown label 'z'"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(RingFileError) as exc:
        parse_ring_file(text, "bad.ring")
    assert fragment in str(exc.value)


_HEADER = 'ring "x"\ncoeff int\nbasis a b\n'
_FIRST = "'ring', 'coeff' and 'basis' lines must come first"


# whole messages, line numbers included
@pytest.mark.parametrize("text,message", [
    ('ring "x"\ncoeff int\nmul a a = a\nbasis a\n', f"bad.ring:3: {_FIRST}"),
    ("mul a a = a\nring \"x\"\n", f"bad.ring:1: {_FIRST}"),
    ('ring "x"\ncoeff int\nunit a\nbasis a\n', f"bad.ring:3: {_FIRST}"),
    ("# no header\n", f"bad.ring: {_FIRST}"),
    (_HEADER + "mul a b = a\n# between\nmul a b = b\n",
     "bad.ring:6: duplicate 'mul a b' (first at line 4)"),
    (_HEADER + "mul a a = a + z\n", "bad.ring:4: unknown label 'z'"),
    (_HEADER.replace("int", "laurent") + "mul a a = a + q*z\n",
     "bad.ring:4: unknown label 'z'"),
    (_HEADER + "mul a a = a + + b\n", "bad.ring:4: unknown label ''"),
    (_HEADER + "mul y z = a\n", "bad.ring:4: unknown label 'y'"),
    (_HEADER + "mul a a = 2x*a\n",
     "bad.ring:4: expected '+', found 'x' at offset 1"),
    (_HEADER + "mul a a = q*a\n",
     "bad.ring:4: 'q' is not allowed in int mode at offset 0"),
    (_HEADER + "mul a a a\n", "bad.ring:4: mul line needs '='"),
    (_HEADER + "mul a = a\n", "bad.ring:4: mul line needs two factor labels"),
    # the header rules: each directive but 'block' once, after its
    # prerequisites
    ('ring "x"\n# again\nring "y"\n', "bad.ring:3: duplicate 'ring' line"),
    ('ring "x"\ncoeff int\ncoeff laurent\n',
     "bad.ring:3: duplicate 'coeff' line"),
    (_HEADER + "basis a\n", "bad.ring:4: duplicate 'basis' line"),
    (_HEADER + "unit a\nunit b\n", "bad.ring:5: duplicate 'unit' line"),
    ('coeff int\nring "x"\n', f"bad.ring:1: {_FIRST}"),
    ('ring "x"\ncoeff int\nblock A A: a\nbasis a\n', f"bad.ring:3: {_FIRST}"),
    ("# unnamed\nring\n", "bad.ring:2: missing ring name"),
    ('ring "x"\ncoeff int\nbasis  # none\n', "bad.ring:3: empty basis"),
    (_HEADER + "foo bar\n", "bad.ring:4: unknown directive 'foo'"),
    ("foo\nring \"x\"\n", "bad.ring:1: unknown directive 'foo'"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(RingFileError) as exc:
        parse_ring_file(text, "bad.ring")
    assert str(exc.value) == message


def test_comment_after_a_sum_is_ignored():
    ring = parse_ring_file(
        _HEADER + "mul a a = a  # = 2*b + q\nmul b b = 0#\n")
    assert ring.tensor == {(0, 0): {(0, 0): 1}}


def test_error_carries_line_number():
    text = "ring \"x\"\ncoeff int\nbasis a\nmul a a = b\n"
    with pytest.raises(RingFileError) as exc:
        parse_ring_file(text, "bad.ring")
    assert "bad.ring:4" in str(exc.value)


def _named(name):
    return build_ring(("u",), {("u", "u"): {"u": 1}}, name=name)


@pytest.mark.parametrize("name", [
    "ising", "two words", "zx2-x/{x}", "sl2 [k=3]", "it's", " padded ",
    "",  # build_ring's default, written as 'ring ""'
])
def test_ring_name_round_trips_unchanged(name):
    text = serialize_ring(_named(name))
    again = parse_ring_file(text)
    assert again.name == name
    assert serialize_ring(again) == text


@pytest.mark.parametrize("line", ["ring", "ring   ", "ring # no name"])
def test_bare_ring_line_is_an_input_error(line, tmp_path):
    text = line + "\ncoeff int\nbasis a\n"
    with pytest.raises(RingFileError, match="missing ring name") as exc:
        parse_ring_file(text, "bare.ring")
    assert exc.value.line == 1
    path = tmp_path / "bare.ring"
    path.write_text(text)
    result = run_command(["validate", str(path)])
    assert result.exit_code == EXIT_INPUT
    assert result.report["error"] == "input"


@pytest.mark.parametrize("name", ['a"b', '"a"', "a#b", "a\nb", "a\rb", "a\n"])
def test_ring_name_that_cannot_round_trip_is_not_serialized(name):
    with pytest.raises(RingError, match="cannot be serialized"):
        serialize_ring(_named(name))


@pytest.mark.parametrize("line", [
    'ring "a\\"b"', 'ring a"b', 'ring "a#b"', 'ring "a" "b"', 'ring "a',
])
def test_ring_name_with_a_stray_quote_is_an_input_error(line, tmp_path):
    text = line + "\ncoeff int\nbasis a\n"
    with pytest.raises(RingFileError, match="bad ring name") as exc:
        parse_ring_file(text, "bad.ring")
    assert exc.value.line == 1
    path = tmp_path / "bad.ring"
    path.write_text(text)
    result = run_command(["validate", str(path)])
    assert result.exit_code == EXIT_INPUT
    assert result.report["error"] == "input"


@pytest.mark.parametrize("text", [
    'ring "x"\ncoeff int\nbasis a a\n',
    # the block line reaches one copy of a, and the refusal comes first
    'ring "x"\ncoeff int\nbasis a a\nunit a\nblock A A: a\n',
], ids=["bare", "with-a-block"])
def test_repeated_basis_labels_in_a_file_fail_validation(text, tmp_path):
    path = tmp_path / "twice.ring"
    path.write_text(text)
    result = run_command(["validate", str(path)])
    assert result.exit_code == EXIT_FALSE
    assert result.report["ok"] is False
    assert result.report["violations"] == ["duplicate basis label 'a'"]


def test_ring_file_that_is_not_utf8_is_an_input_error(tmp_path):
    path = tmp_path / "latin.ring"
    path.write_bytes(b'ring "x"\ncoeff int\nbasis a\nmul a a = a\n\xff')
    result = run_command(["validate", str(path)])
    assert result.exit_code == EXIT_INPUT
    assert result.report["error"] == "input"
    assert result.report["message"].startswith(
        f"{path}: cannot read ring file: 'utf-8' codec can't decode")


UNGRADED_LOOP = """\
ring "ungraded-loop"
coeff int
basis e1 e2 x
unit e1 e2
mul e1 e1 = e1
mul e2 e2 = e2
mul e1 x = x
mul x e2 = x
mul x x = x
"""


def test_units_that_do_not_grade_the_table_leave_no_triple_unchecked(
        tmp_path, monkeypatch):
    # the unit axioms hold, with l(x) = e1 and r(x) = e2, but x x != 0
    # while r(x) != l(x): the triples through a unit must still be summed
    (tmp_path / "ungraded-loop.ring").write_text(UNGRADED_LOOP)
    monkeypatch.chdir(tmp_path)
    result = run_command(["validate", "ungraded-loop.ring"])
    assert result.exit_code == EXIT_FALSE
    assert result.report == {
        "command": "validate", "ring": "ungraded-loop", "ok": False,
        "violations": [
            "associativity fails on (x, e1, x): (x*e1)*x = 0 but "
            "x*(e1*x) = x (first difference at x)",
            "associativity fails on (x, e2, x): (x*e2)*x = x but "
            "x*(e2*x) = 0 (first difference at x)"],
        "hints": [
            "hint: no 'mul x e1' line in ungraded-loop.ring; the product "
            "defaulted to 0",
            "hint: no 'mul e2 x' line in ungraded-loop.ring; the product "
            "defaulted to 0"]}


def test_repeated_product_texts_share_one_row():
    text = _HEADER.replace("basis a b", "basis a b c") + (
        "mul a a = 2*c\nmul b b = 2*c\nmul a b = 2*c \nmul b a = 3*c\n")
    tensor = parse_ring_file(text).tensor
    assert tensor[0, 0] is tensor[1, 1] is tensor[0, 1] == {(2, 0): 2}
    assert tensor[1, 0] == {(2, 0): 3}
    bad = _HEADER + "mul a a = 2*z\nmul b b = 2*z\n"
    with pytest.raises(RingFileError, match="unknown label 'z'") as exc:
        parse_ring_file(bad)
    assert exc.value.line == 4


SPLIT = """\
ring "split"
coeff int
basis 1 sigma eps
unit 1
mul eps eps = 1
mul sigma sigma = 1 + eps
"""


def test_failing_file_lists_each_hint_once_in_first_seen_order():
    # both mixed products are missing, and each is the missing factor
    # pair of two triples; 'mul sigma eps' is met first, though it sorts
    # after 'mul eps sigma'
    with pytest.raises(RingValidationError) as exc:
        parse_ring_file(SPLIT, "split.ring")
    assert str(exc.value) == "\n  ".join([
        "invalid ring 'split':",
        "associativity fails on (sigma, sigma, eps): (sigma*sigma)*eps = "
        "1 + eps but sigma*(sigma*eps) = 0 (first difference at 1)",
        "associativity fails on (sigma, eps, eps): (sigma*eps)*eps = 0 but "
        "sigma*(eps*eps) = sigma (first difference at sigma)",
        "associativity fails on (eps, sigma, sigma): (eps*sigma)*sigma = 0 "
        "but eps*(sigma*sigma) = 1 + eps (first difference at 1)",
        "associativity fails on (eps, eps, sigma): (eps*eps)*sigma = sigma "
        "but eps*(eps*sigma) = 0 (first difference at sigma)",
        "hint: no 'mul sigma eps' line in split.ring; the product "
        "defaulted to 0",
        "hint: no 'mul eps sigma' line in split.ring; the product "
        "defaulted to 0"])


def test_validate_describes_each_violation_once(tmp_path, monkeypatch):
    (tmp_path / "split.ring").write_text(SPLIT)
    monkeypatch.chdir(tmp_path)
    calls = []
    describe = AssociativityViolation.describe

    def spy(self):
        calls.append(tuple(self[:3]))
        return describe(self)

    monkeypatch.setattr(AssociativityViolation, "describe", spy)
    result = run_command(["validate", "split.ring"])
    assert result.exit_code == EXIT_FALSE
    assert len(result.report["violations"]) == 4
    assert calls == [("sigma", "sigma", "eps"), ("sigma", "eps", "eps"),
                     ("eps", "sigma", "sigma"), ("eps", "eps", "sigma")]


def test_repeated_coefficient_texts_are_parsed_once(monkeypatch):
    # every product of a and b lands in c, which annihilates everything
    text = ('ring "x"\ncoeff laurent\nbasis a b c\n'
            "mul a a = q^2*c\nmul a b = q^2*c + 3*c\nmul b a = q^2 * c + c\n"
            "mul b b = 3*c + q^2*c\n")
    expected = {(0, 0): {(2, 2): 1}, (0, 1): {(2, 2): 1, (2, 0): 3},
                (1, 0): {(2, 2): 1, (2, 0): 1}, (1, 1): {(2, 0): 3, (2, 2): 1}}
    calls = []

    def spy(coeff_text, mode):
        calls.append(coeff_text)
        return parse_coefficient(coeff_text, mode)

    monkeypatch.setattr(io, "parse_coefficient", spy)
    assert parse_ring_file(text).tensor == expected
    assert calls == ["q^2", "3"]
    bad = ('ring "x"\ncoeff int\nbasis a b\n'
           "mul a a = q*b\nmul a b = 2*b\nmul b b = q*a\n")
    with pytest.raises(RingFileError, match="'q' is not allowed") as exc:
        parse_ring_file(bad)
    assert exc.value.line == 4


def _without_unit_lines(text, ring):
    """The ring file with every 'mul' line that has a unit factor deleted,
    so the unit defaults make those products."""
    units = {ring.labels[u] for u in ring.units}
    return "".join(line for line in text.splitlines(keepends=True)
                   if not (line.startswith("mul ")
                           and units & set(line.split()[1:3])))


def _unit_ring_files():
    """{name: text}: every gallery and ladder ring file with units, with
    and without blocks, and each again with its unit 'mul' lines deleted."""
    rings = [load_gallery(name) for name in gallery_names()]
    rings += [family(k, blocks) for family, sizes in (
        (upper_triangular, (1, 2, 4)), (diagonal, (1, 2, 5)),
        (matrix_corner, (1, 2, 3))) for k in sizes for blocks in (False, True)]
    files = {}
    for ring in rings:
        if ring.units is not None:
            text = serialize_ring(ring)
            files[ring.name] = text
            files[f"{ring.name}/no-unit-lines"] = _without_unit_lines(
                text, ring)
    # two units on one object, which the unit set lists as x8, x1: the
    # default of x1 x8 is that of the unit met first, x1 x8 = x1
    labels = [f"x{i}" for i in range(10)]
    files["two-units-on-one-object"] = (
        'ring "two-units"\ncoeff int\nbasis ' + " ".join(labels)
        + "\nunit x1 x8\nblock A A: " + ", ".join(labels) + "\n")
    return files


UNIT_FILES = _unit_ring_files()


def _looped_fill(rows, written, n, units, blocks):
    """io._fill_unit_defaults through the looped oracle, which expects a
    row for every written pair, empty for '= 0'."""
    looped = {pair: rows.get(pair, {}) for pair in written}
    looped_unit_defaults(looped, n, units, blocks)
    rows.update((pair, row) for pair, row in looped.items() if row)


def _outcome(text):
    """The parsed ring, or the text of its validation error."""
    try:
        return parse_ring_file(text, "units.ring")
    except RingValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(UNIT_FILES))
def test_unit_defaults_equal_the_looped_oracle(name, monkeypatch):
    filled = []

    def recorded(fill):
        def spy(rows, *args):
            fill(rows, *args)
            filled.append(dict(rows))
        return spy

    outcomes = []
    for fill in (io._fill_unit_defaults, _looped_fill):
        monkeypatch.setattr(io, "_fill_unit_defaults", recorded(fill))
        outcomes.append(_outcome(UNIT_FILES[name]))
    assert len(filled) == 2
    assert filled[0] == filled[1]
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("text,line,violation", [
    (ISING_FIXTURE, "mul 1 sigma = 0",
     "unit sum times sigma is 0, expected sigma"),
    (ISING_FIXTURE, "mul sigma 1 = 0",
     "sigma times unit sum is 0, expected sigma"),
    (SAME_RING["blocks-and-unit-defaults"][0], "mul uB f = 0",
     "unit sum times f is 0, expected f"),
    (SAME_RING["blocks-and-unit-defaults"][0], "mul f uA = 0",
     "f times unit sum is 0, expected f"),
])
def test_a_unit_product_written_zero_stays_zero(text, line, violation):
    # the axioms would default the product, but a written line wins
    with pytest.raises(RingValidationError) as exc:
        parse_ring_file(text + line + "\n", "zero.ring")
    witness = violation.split()[-1]
    assert f"unit axiom fails (witness {witness}): {violation}" in \
        str(exc.value).split("\n  ")


def test_no_hint_names_a_product_the_unit_axioms_defaulted(tmp_path,
                                                           monkeypatch):
    # g*uB has no line, but the axioms defaulted it to g, as (g*uB)*f = h
    # shows; uB*f has a line, '= 0'; so neither factor pair is hinted
    (tmp_path / "zero.ring").write_text(
        SAME_RING["blocks-and-unit-defaults"][0] + "mul uB f = 0\n")
    monkeypatch.chdir(tmp_path)
    result = run_command(["validate", "zero.ring"])
    assert result.exit_code == EXIT_FALSE
    assert result.report == {
        "command": "validate", "ring": "mixed-3obj", "ok": False,
        "violations": [
            "associativity fails on (g, uB, f): (g*uB)*f = h but "
            "g*(uB*f) = 0 (first difference at h)",
            "unit axiom fails (witness f): unit sum times f is 0, "
            "expected f"],
        "hints": []}


_SHUFFLED = {name: UNIT_FILES[name] for name in (
    "ising", "m3-block", "mixed-3obj", "qplane-trunc-2", "verlinde-sl2-3",
    "two-idem", "tri-block-4/no-unit-lines", "diag-5/no-unit-lines",
    "matrix-corner-2/no-unit-lines")} | {
    "split": SPLIT, "ungraded-loop": UNGRADED_LOOP}
_REPORTS = (["validate"], ["spec"], ["ideals"],
            ["topology", "--style", "zariski"],
            ["topology", "--style", "balmer"])


@pytest.mark.parametrize("name", sorted(_SHUFFLED))
def test_reports_do_not_read_the_order_of_mul_lines(name, tmp_path,
                                                    monkeypatch):
    # the 'mul' lines fix the order of the tensor's keys, and the unit
    # defaults follow them; no report may depend on that order
    lines = _SHUFFLED[name].splitlines(keepends=True)
    head = [line for line in lines if not line.startswith("mul ")]
    muls = [line for line in lines if line.startswith("mul ")]
    shuffled = muls[:]
    random.Random(SEED).shuffle(shuffled)
    reports = []
    for i, order in enumerate((muls, muls[::-1], shuffled)):
        (tmp_path / str(i)).mkdir()
        monkeypatch.chdir(tmp_path / str(i))
        (tmp_path / str(i) / "r.ring").write_text("".join(head + order))
        results = [run_command([cmd[0], "r.ring", *cmd[1:]])
                   for cmd in _REPORTS]
        reports.append([(r.exit_code, render_report(r.report))
                        for r in results])
    assert reports[0] == reports[1] == reports[2]
