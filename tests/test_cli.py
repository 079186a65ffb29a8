"""CLI contract: byte-exact reports and exit codes for every pinned command,
and one JSON input-error report for every output path that cannot be
written."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrespec import (LEFT, cli, enumerate_serre_ideals, gallery_names,
                       ideals, load_gallery, spectrum)
from serrespec.cli import EXIT_FALSE, EXIT_GUARD, EXIT_INPUT, EXIT_OK, \
    MaskList, render_report, run_command
from serrespec.io import serialize_ring

from golden_manifest import GOLDEN_COMMANDS
from ladder import upper_triangular

GOLDEN = Path(__file__).resolve().parent / "golden"

# exit code of every command that does not succeed
EXIT_CODES = {
    "check_nilpotent_semiprime.json": EXIT_FALSE,
    "check_two-idem_prime.json": EXIT_FALSE,
    "check_two-idem_prime_oracle.json": EXIT_FALSE,
    "minimal-primes_nilpotent.json": EXIT_FALSE,
    "monomial_prime_false.json": EXIT_FALSE,
    "usage_none.json": EXIT_INPUT,
    "usage_nope.json": EXIT_INPUT,
    "usage_spec.json": EXIT_INPUT,
    "usage_ideals_side-x.json": EXIT_INPUT,
    "usage_minimal-primes_no-ideal.json": EXIT_INPUT,
    "usage_monomial_no-action.json": EXIT_INPUT,
    "input_check_ising_sigma.json": EXIT_INPUT,
    "guard_ideals_qplane-trunc-6.json": EXIT_GUARD,
}


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == \
        sorted(GOLDEN_COMMANDS)
    assert set(EXIT_CODES) <= set(GOLDEN_COMMANDS)


def _check_golden(filename):
    result = run_command(GOLDEN_COMMANDS[filename])
    assert render_report(result.report) == (GOLDEN / filename).read_text()
    assert result.exit_code == EXIT_CODES.get(filename, EXIT_OK)


@pytest.mark.parametrize("filename", sorted(GOLDEN_COMMANDS))
def test_report_matches_golden(filename):
    _check_golden(filename)


@pytest.mark.parametrize("filename", sorted(GOLDEN_COMMANDS))
def test_report_matches_golden_on_a_wide_terminal(filename, monkeypatch):
    # usage text must not wrap at the terminal width
    monkeypatch.setenv("COLUMNS", "200")
    _check_golden(filename)


@pytest.mark.parametrize("argv", [
    ["ideals", "--side", "l"],
    ["spec"],
    ["topology", "--style", "zariski"],
    ["topology", "--style", "balmer"],
    ["minimal-primes", "--ideal", ""],
    ["check", "--ideal", "", "--mode", "oracle", "--prop", "prime"],
    ["check", "--ideal", "", "--mode", "oracle", "--prop", "semiprime"],
    ["oracle"],
], ids=lambda argv: " ".join(a or "''" for a in argv))
def test_every_command_reading_the_lattice_is_guarded(argv):
    # n = 28: each command refuses before it lists the lattice
    argv = argv[:1] + ["gallery:qplane-trunc-6"] + argv[1:]
    result = run_command(argv)
    assert result.exit_code == EXIT_GUARD
    assert render_report(result.report) == \
        (GOLDEN / "guard_ideals_qplane-trunc-6.json").read_text()


def test_twocat_classification_needs_no_allow_large():
    # n = 28: the classification reads the principal complements, not the
    # lattice, so the guard has nothing to refuse
    argv = ["twocat", "gallery:qplane-trunc-6", "--classify-cprimes"]
    result = run_command(argv)
    assert result.exit_code == EXIT_OK
    assert render_report(result.report) == \
        render_report(run_command(argv + ["--allow-large"]).report)


def test_allow_large_flag_lifts_the_guard_for_its_own_command_only():
    argv = ["spec", "gallery:qplane-trunc-6"]
    assert run_command(argv + ["--allow-large"]).exit_code == EXIT_OK
    result = run_command(argv)
    assert result.exit_code == EXIT_GUARD
    assert render_report(result.report) == \
        (GOLDEN / "guard_ideals_qplane-trunc-6.json").read_text()


@pytest.mark.parametrize("filename", sorted(
    name for name in GOLDEN_COMMANDS if name.startswith("usage_")))
def test_usage_goldens_hold_on_a_narrow_terminal(filename, monkeypatch):
    # subcommand usage too must not wrap at the terminal width
    monkeypatch.setenv("COLUMNS", "40")
    _check_golden(filename)


# render_report must agree byte for byte with json.dumps(indent=2); text
# draws on every class of character the encoder treats differently
AWKWARD_TEXT = st.text(st.sampled_from(
    ["a", "Z", "0", " ", '"', "\\", "/", "\x7f", "\u00e9", "\u2028", "\uffff",
     "\U0001f600", "\U0010ffff"] + [chr(c) for c in range(32)]), max_size=6)
LABEL_LIST = st.lists(AWKWARD_TEXT, max_size=4)
JSON_LEAVES = st.one_of(
    AWKWARD_TEXT, st.integers(), st.integers(-2 ** 100, 2 ** 100),
    st.floats(), st.booleans(), st.none())


def aliased_lists(items):
    """Lists that hold some of their items several times, as one object:
    a pool of items and a list of picks from it."""
    return st.tuples(st.lists(items, min_size=1, max_size=3),
                     st.lists(st.integers(0, 2), min_size=1, max_size=6)) \
        .map(lambda t: [t[0][i % len(t[0])] for i in t[1]])


# a list of lists opens with a list, then may hold anything else
LIST_THEN_OTHERS = st.tuples(
    LABEL_LIST,
    aliased_lists(st.one_of(st.dictionaries(AWKWARD_TEXT, JSON_LEAVES,
                                            max_size=3),
                            AWKWARD_TEXT, st.none()))) \
    .map(lambda t: [t[0]] + t[1] + [t[0]])
JSON_VALUES = st.recursive(
    JSON_LEAVES | LABEL_LIST | st.lists(LABEL_LIST, max_size=4)
    | aliased_lists(LABEL_LIST) | LIST_THEN_OTHERS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(AWKWARD_TEXT, inner, max_size=4),
        aliased_lists(st.lists(inner, max_size=3)
                      | st.dictionaries(AWKWARD_TEXT, inner, max_size=3))),
    max_leaves=20)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(JSON_VALUES)
def test_render_report_is_json_dumps_with_indent_two(value):
    assert render_report(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    True, False, None, 0, -7, 10 ** 40 - 1, -(10 ** 40), 0.5,
    {"holds": True, "witness": None, "count": 3, "flags": [False, True]},
], ids=["true", "false", "none", "zero", "negative", "40-digit",
        "negative-41-digit", "float", "report"])
def test_render_report_writes_scalars_as_json_dumps(value):
    assert render_report(value) == \
        json.dumps(value, indent=2, default=list) + "\n"


@pytest.mark.parametrize("shared", [True, False], ids=["one", "distinct"])
def test_render_report_of_ten_thousand_label_lists(shared):
    labels = ["e1_1", "e1_2", "e2_2", "q^-1"]
    if shared:
        chain = [labels] * 10_000
    else:
        chain = [list(labels) for _ in range(10_000)]
    report = {"command": "minimal-primes", "chain": chain}
    assert render_report(report) == json.dumps(report, indent=2) + "\n"


def _members(names, mask):
    return [name for i, name in enumerate(names) if mask >> i & 1]


@st.composite
def mask_lists(draw):
    """(MaskList, the label lists it reads as): masks with repeats, the
    zero and full masks and None among them, and sometimes closed-set
    tags."""
    def subsets(names):
        full = (1 << len(names)) - 1
        return st.none() | st.sampled_from([0, full]) | st.integers(0, full)

    def read(names, m):
        return None if m is None else _members(names, m)

    # up to 20 names, so masks reach past one and two 8-name bytes
    names = draw(st.lists(AWKWARD_TEXT, max_size=20))
    masks = draw(st.just([]) | aliased_lists(subsets(names)))
    expected = [read(names, m) for m in masks]
    if not draw(st.booleans()):
        return MaskList(names, masks), expected
    tag_names = draw(st.lists(AWKWARD_TEXT, max_size=20))
    tags = [draw(subsets(tag_names)) for _ in masks]
    expected = [{"points": p, "tag": read(tag_names, t)}
                for p, t in zip(expected, tags)]
    return MaskList(names, masks, MaskList(tag_names, tags)), expected


def holding(carrier):
    """JSON values holding the carrier, and maybe others, at any depth."""
    return st.recursive(
        st.just(carrier) | mask_lists().map(lambda t: t[0]) | JSON_LEAVES,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(AWKWARD_TEXT, inner, max_size=3),
        max_leaves=8)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_mask_list_reads_and_renders_as_its_label_lists(data):
    carrier, expected = data.draw(mask_lists())
    assert len(carrier) == len(carrier.masks) == len(expected)
    assert carrier == expected and expected == carrier
    assert list(carrier) == expected
    for repeats in (False, True):  # an untagged list takes either path
        twin = MaskList(carrier.names, carrier.masks, carrier.tags, repeats)
        assert render_report(twin) == json.dumps(expected, indent=2) + "\n"
    value = data.draw(holding(carrier))
    assert render_report(value) == \
        json.dumps(value, indent=2, default=list) + "\n"


def test_mask_lists_over_seventy_names_render_as_json_dumps():
    # nine bytes of names, the last one partly filled: masks that touch
    # only the top byte, every byte, and the bits either side of 64; and
    # a null mask in a plain list
    names = [f"n{i}" for i in range(68)] + ['"q\\', "\u00e9\n"]
    full = (1 << 70) - 1
    one_per_byte = sum(1 << (9 * k) for k in range(8))
    masks = [1 << 69, 0b11 << 68, 0x3f << 64, full, one_per_byte,
             one_per_byte | 1 << 64, 1 << 63, 1 << 64, 0b11 << 63, 0,
             0x3f << 64, full, 1 << 63]
    plain = MaskList(names, masks)
    with_null = MaskList(names, masks[:5] + [None] + masks[5:])
    tagged = MaskList(names, masks,
                      MaskList(names[::-1], masks[::-1][:-1] + [None]))
    for value in (plain, with_null, tagged, {"a": [plain, {"b": tagged}]}):
        assert render_report(value) == \
            json.dumps(value, indent=2, default=list) + "\n"


@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 24, 25])
def test_every_one_and_two_bit_mask_renders_as_json_dumps(n):
    # around each byte edge: masks whose low byte is empty and whose rest
    # is not, masks in the top byte only, the empty and the full mask,
    # and null tags
    names = [f"n{i}" for i in range(n - 1)] + ['"q\\']
    full = (1 << n) - 1
    masks = [1 << i | 1 << j for i in range(n) for j in range(i, n)]
    masks += [0, full, full & ~255, full >> 8 << 8 | 1, full >> 16 << 16]
    tags = masks[::-1]
    tags[::3] = [None] * len(tags[::3])
    tagged = MaskList(names, masks, MaskList(names[::-1], tags))
    for repeats in (False, True):
        plain = MaskList(names, masks, repeats=repeats)
        for value in (plain, tagged, {"a": [plain, {"b": tagged}]}):
            assert render_report(value) == \
                json.dumps(value, indent=2, default=list) + "\n"


class _Reads(list):
    """A list that records the index of each item read."""

    def __init__(self, items, read):
        super().__init__(items)
        self.read = read

    def __getitem__(self, i):
        self.read.append(i)
        return super().__getitem__(i)


def _render_both(names, masks, tags, monkeypatch):
    """Render masks plain and tagged, each equal to json.dumps; returns
    the bytes whose names were joined, not read from a table."""
    read = []
    monkeypatch.setattr(cli, "_BITS", _Reads(cli._BITS, read))
    plain = MaskList(names, masks)
    tagged = MaskList(names, masks, MaskList(names[::-1], tags))
    for value in (plain, tagged):
        _assert_same_text(render_report(value),
                          json.dumps(value, indent=2, default=list) + "\n")
    return read


def _assert_same_text(got, want):
    """got == want, failed with the lengths and the first differing offset
    and an excerpt around it, so that a wrong render of a long text fails
    at once rather than in a diff of the whole texts."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    start = max(at - 40, 0)
    pytest.fail(f"lengths {len(got)} and {len(want)}, first difference at "
                f"offset {at}: {got[start:at + 40]!r} != "
                f"{want[start:at + 40]!r}")


def _past_the_rule():
    for n in range(8, 13):
        names = [f"n{i}" for i in range(n - 1)] + ['"q\\']
        yield pytest.param(names, range(1 << n), id=f"all-subsets-{n}")
    tri = upper_triangular(6)
    yield pytest.param(list(tri.labels), enumerate_serre_ideals(tri, LEFT),
                       id="tri-6-left")


@pytest.mark.parametrize("names, masks", _past_the_rule())
def test_large_levels_render_from_doubling_tables(names, masks, monkeypatch):
    # every level holds at least a quarter as many masks as its run has
    # bytes, so no byte's names are joined
    masks = list(masks)
    tags = masks[::-1]
    tags[::7] = [None] * len(tags[::7])
    assert _render_both(names, masks, tags, monkeypatch) == []


def test_small_levels_join_the_bytes_they_hold(monkeypatch):
    # 20 names: runs of 8, 8 and 4 names, and at most 3 masks a level
    # past the first, whose 6 masks hold 4 low bytes; so every level joins
    # its bytes, and the plain list, rendered first, reads 3, 3 and 4 of
    # them
    names = [f"n{i}" for i in range(19)] + ['"q\\']
    masks = [(1 << 20) - 1, 1 << 19, 0x5a5a5, 1, 0, 1 << 19]
    read = _render_both(names, masks, [None, 0, 1 << 19, 0x5a5a5, 1, 1],
                        monkeypatch)
    assert sorted(read[:10]) == sorted([0xf, 0x8, 0x5, 0xff, 0x00, 0xa5,
                                        0xff, 0x00, 0xa5, 0x01])


@pytest.mark.parametrize("at", [0, 2, 3, None],
                         ids=["first", "middle", "last", "only"])
def test_closed_sets_render_as_json_dumps_wherever_the_empty_set_is(at):
    # an untagged empty extent, as an adjoined empty set reads, at each
    # end of the family, inside it, and alone: the bracket closing the
    # family replaces the text between two items
    points = ["{a}", "{b}", '{"c"}']
    pairs = [(0b011, 0b10), (0b111, 0), (0b100, 0b11)]
    empty = [(0, None)]
    pairs = empty if at is None else pairs[:at] + empty + pairs[at:]
    extents, tags = map(list, zip(*pairs))
    family = MaskList(points, extents, MaskList(["x", "y"], tags))
    for value in (family, {"closed_sets": family, "after": [family]}):
        assert render_report(value) == \
            json.dumps(value, indent=2, default=list) + "\n"


LONG_CHAIN = ["minimal-primes", "gallery:qplane-trunc-4", "--ideal", ""]


def test_rendering_a_long_chain_allocates_little_beyond_its_text():
    report = run_command(LONG_CHAIN).report
    tracemalloc.start()
    try:
        text = render_report(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 2_000_000  # the 16,384-entry product chain
    assert peak <= 2.5 * len(text)


def test_rendering_a_lattice_allocates_little_beyond_its_text(tmp_path):
    # the 5,040 left ideals of tri-6 are written as per-byte pieces, with
    # no text of their own
    path = tmp_path / "tri-6.ring"
    path.write_text(serialize_ring(upper_triangular(6)))
    report = run_command(["ideals", str(path), "--side", "l"]).report
    tracemalloc.start()
    try:
        text = render_report(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["count"] == 5040
    assert peak <= 1.5 * len(text)


def test_main_prints_the_rendered_report(capsys):
    assert cli.main(LONG_CHAIN) == EXIT_OK
    assert capsys.readouterr().out == render_report(
        run_command(LONG_CHAIN).report)


def test_a_reader_closing_stdout_early_ends_quietly_with_the_code():
    # a 212 KB report: more than a pipe holds, so writes meet the closed end
    argv = ["ideals", "gallery:qplane-trunc-6", "--allow-large"]
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "serrespec.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)})
    try:
        head = proc.stdout.read(100)
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert head.startswith(b'{\n  "command": "ideals"')
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert code == EXIT_OK


def test_oracle_checks_each_lattice_member_once(monkeypatch):
    # the lattice lists only ideals, so no member is checked again to be one
    calls = []
    check = spectrum.require_proper_two_sided

    def counted(ring, members):
        calls.append(members)
        return check(ring, members)

    for module in (ideals, spectrum):
        monkeypatch.setattr(module, "require_proper_two_sided", counted)
    result = run_command(["oracle", "gallery:qplane-trunc-3"])
    assert result.exit_code == EXIT_OK
    assert calls == []
    lattice = enumerate_serre_ideals(load_gallery("qplane-trunc-3"))
    assert result.report["ideals_checked"] == len(lattice) - 1


@pytest.mark.parametrize("flags", [[], ["--classify-cprimes"]],
                         ids=["bare", "classify-cprimes"])
def test_twocat_without_units_is_an_input_error(flags):
    result = run_command(["twocat", "gallery:nilpotent", *flags])
    assert result.exit_code == EXIT_INPUT
    assert result.report == {"error": "input",
                             "message": "no units declared"}


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("argv,reads", [
    (["validate", "gallery:ising"], False),
    (["validate", "tri-3.ring"], False),
    (["closure", "gallery:ising", "--gens", "eps"], False),
    (["closure", "tri-3.ring", "--gens", "e2_2", "--side", "l"], False),
    (["spec", "gallery:ising"], False),
    (["check", "gallery:ising", "--prop", "semiprime", "--ideal", ""], True),
], ids=["validate", "validate-file", "closure", "closure-file", "spec",
        "check-semiprime"])
def test_only_commands_that_need_it_build_the_triple_table(
        argv, reads, tmp_path, monkeypatch):
    # the table is the squares table, product_support(<g>, <g>) per
    # basis element g, which fast semiprimality reads in place of the
    # former two-step triple table; the spectrum reads producer lists
    (tmp_path / "tri-3.ring").write_text(serialize_ring(upper_triangular(3)))
    monkeypatch.chdir(tmp_path)
    built = []
    derive = spectrum._square

    def spy(ring, g):
        if "squares" not in ring.cache:
            built.append(ring)
        return derive(ring, g)

    monkeypatch.setattr(spectrum, "_square", spy)
    assert run_command(argv).exit_code == EXIT_OK
    assert bool(built) == reads


@pytest.mark.parametrize("argv", [
    ["quotient", "gallery:zx2-x", "--ideal", "x", "-o"],
    ["topology", "gallery:zx2-x", "--style", "zariski", "--dot"],
], ids=["quotient-output", "topology-dot"])
def test_unwritable_output_path_is_an_input_error(tmp_path, argv):
    target = tmp_path / "missing" / "x"
    result = run_command(argv + [str(target)])
    assert result.exit_code == EXIT_INPUT
    assert result.report["error"] == "input"
    assert str(target) in result.report["message"]
    assert list(result.report) == ["error", "message"]
    json.loads(render_report(result.report))
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["gallery", "qplane-trunc-\u0663"],
    ["gallery", "qplane-trunc-03"],
    ["gallery", "qplane-trunc-00"],
    ["gallery", "verlinde-sl2-07"],
    ["spec", "gallery:qplane-trunc-\u0663"],
    ["validate", "gallery:verlinde-sl2-\uff13"],
], ids=" ".join)
def test_gallery_parameters_are_canonical_ascii_numerals(argv):
    # one name per ring: "03", "00" and non-ASCII digits are not numerals
    result = run_command(argv)
    assert result.exit_code == EXIT_INPUT
    assert result.report["message"].startswith("unknown gallery ring")
    canonical = run_command(["gallery", "qplane-trunc-0"]).report
    assert 'ring "qplane-trunc-0"' in canonical["ring_file"]


def test_topology_renders_dot_only_when_asked(tmp_path, monkeypatch):
    argv = ["topology", "gallery:zx2-x", "--style", "zariski"]
    expected = run_command(argv)
    rendered = []
    to_dot = cli.to_dot

    def counting_to_dot(ring, family):
        rendered.append(ring.name)
        return to_dot(ring, family)

    monkeypatch.setattr(cli, "to_dot", counting_to_dot)
    assert run_command(argv) == expected
    assert rendered == []
    target = tmp_path / "spec.dot"
    result = run_command(argv + ["--dot", str(target)])
    assert result.exit_code == EXIT_OK
    assert rendered == ["zx2-x"]
    assert target.read_text().startswith("digraph specialization {")


# argv fuzz: every command, flag and label/value token the CLI knows,
# except help and the flags that write files.  Each command mostly gets
# its own flags, the required ones usually present, plus now and then a
# flag of another command.
LABELS = {f"gallery:{name}": load_gallery(name).labels
          for name in gallery_names()}
RINGS = sorted(LABELS) + [str(GOLDEN / "missing.ring"),
                          "gallery:no-such-ring"]
GALLERY_NAMES = ["ising", "qplane-trunc-2", "verlinde-sl2-3", "nope"]
LABEL_LISTS = st.sampled_from(["", "1", "x", "a", "sigma", "eps,sigma",
                               "e11,e21", "uA", "f,g,h", "x,xy", "nope"])
OPTION_VALUES = {
    "--allow-large": None,
    "--classify-cprimes": None,
    "--side": st.sampled_from(["2", "l", "r", "x"]),
    "--ideal": LABEL_LISTS,
    "--gens": LABEL_LISTS,
    "--prop": st.sampled_from(["prime", "cprime", "semiprime", "nope"]),
    "--mode": st.sampled_from(["fast", "oracle", "nope"]),
    "--style": st.sampled_from(["zariski", "balmer", "nope"]),
    "--vars": st.integers(1, 3).map(str),
    "--twist": st.sampled_from(["0", "1", "0,0;1,0", "0,1;-1,0",
                                "0,0,0;1,0,0;1,1,0", "0,0;x,0", ""]),
    "--prime": st.sampled_from(["1", "1,0", "2,0", "1,0;0,1", "0,0",
                                "1,1,1", "", "a"]),
    "--truncate": st.integers(0, 4).map(str),
    "--face": st.sampled_from(["1", "2", "3", "1,2", "2,2", "0", "x", ""]),
}
# (required flags, optional flags) per command
COMMAND_FLAGS = {
    "validate": ([], ["--allow-large"]),
    "ideals": ([], ["--allow-large", "--side"]),
    "spec": ([], ["--allow-large"]),
    "check": (["--ideal", "--prop"], ["--allow-large", "--mode"]),
    "closure": (["--gens"], ["--allow-large", "--side"]),
    "minimal-primes": (["--ideal"], ["--allow-large"]),
    "quotient": (["--ideal"], ["--allow-large"]),
    "topology": (["--style"], ["--allow-large"]),
    "twocat": ([], ["--allow-large", "--classify-cprimes"]),
    "monomial": (["--vars", "--twist"], ["--prime", "--truncate", "--face"]),
    "gallery": ([], []),
    "oracle": ([], ["--allow-large"]),
}


def test_fuzz_covers_every_command():
    # the usage report lists the subcommands as {validate,ideals,...}
    usage = run_command([]).report["usage"]
    names = usage[usage.index("{") + 1:usage.index("}")].split(",")
    assert sorted(COMMAND_FLAGS) == sorted(names)


def _fitted_values(flag, labels, nvars):
    """Values that fit the ring's labels and the variable count, or None."""
    if flag in ("--ideal", "--gens") and labels:
        return st.lists(st.sampled_from(labels), max_size=3,
                        unique=True).map(",".join)
    if flag == "--vars":
        return st.just(str(nvars))
    if flag == "--twist":
        return st.lists(_vector(nvars, -1, 1), min_size=nvars,
                        max_size=nvars).map(";".join)
    if flag == "--prime":
        return st.lists(_vector(nvars, 0, 2), min_size=1,
                        max_size=2).map(";".join)
    if flag == "--face":
        return st.lists(st.integers(1, nvars).map(str), max_size=2,
                        unique=True).map(",".join)
    return None


def _vector(n, low, high):
    return st.lists(st.integers(low, high).map(str), min_size=n,
                    max_size=n).map(",".join)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    required, optional = COMMAND_FLAGS[command]
    pool = GALLERY_NAMES if command == "gallery" else RINGS
    usually = st.sampled_from([True] * 7 + [False])
    count = draw(st.sampled_from([1] * 6 + [0, 2]))
    if command == "monomial":  # takes no positional; one is the odd case
        count = 1 - count
    positional = [draw(st.sampled_from(pool)) for _ in range(max(count, 0))]
    flags = [f for f in required if draw(usually)]
    flags += [f for f in optional if draw(st.booleans())]
    if not draw(usually):
        flags.append(draw(st.sampled_from(sorted(OPTION_VALUES))))
    labels = LABELS.get(positional[0] if positional else None)
    nvars = draw(st.integers(1, 3))
    options = []
    for flag in draw(st.permutations(flags)):
        options.append(flag)
        values = OPTION_VALUES[flag]
        fitted = _fitted_values(flag, labels, nvars)
        if fitted is not None and draw(usually):
            values = fitted
        if values is not None:
            options.append(draw(values))
    return [command] + positional + options


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argvs())
def test_every_argv_ends_in_one_report_with_a_documented_exit(argv):
    start = time.perf_counter()
    result = run_command(argv)
    report = result.report
    text = render_report(report)
    # the slowest example seen takes about 0.2 s
    assert time.perf_counter() - start < 2.0, argv
    assert result.exit_code in (EXIT_OK, EXIT_FALSE, EXIT_INPUT, EXIT_GUARD)
    assert isinstance(report, dict)
    assert text == json.dumps(report, indent=2, default=list) + "\n"
    if result.exit_code in (EXIT_INPUT, EXIT_GUARD):
        assert "error" in report and "message" in report
    else:
        assert report["command"] == argv[0]
    # the cached parser must not carry state from one call to the next
    assert run_command(argv) == result
