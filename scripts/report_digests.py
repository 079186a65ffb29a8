#!/usr/bin/env python3
"""Print one digest per CLI report over a fixed set of rings and commands.

Two trees give the same answers exactly when this script prints the same
lines in both, so it checks that a change left every report
byte-identical:

    python3 scripts/report_digests.py > after.txt
    # the same in a checkout of the other commit, then
    diff before.txt after.txt

Each line is "sha256  argv" for one command.  The digest covers the exit
code and the report as the CLI prints it, and for topology also the DOT
file that --dot writes.  The rings are every gallery ring, the ladder
rings tri-1..5 and diag-1..8 of tests/ladder.py and MULTI_TERM, a Laurent
ring whose constants have several monomials, written as ring files to a
temporary directory.  That directory is the working directory while
the commands run, so file arguments read the same in every run.  Every
ring gets every ring command; a ring with at most SMALL basis elements
also gets check (every property, both modes), quotient and minimal-primes
over every ideal of its lattice.  The gallery and monomial commands run
once each.  Every ring above has n <= 24, so one ring past the guard,
qplane-trunc-6 (n = 28), gets spec with and without --allow-large: once
exit 0, once the guard's exit 3.

Violation and hint text is covered too: for every product of every
ring, two perturbed ring files are written, one with a constant of the
product bumped by one and one with the product dropped, and each gets a
validate run.

    python3 scripts/report_digests.py --summary > tests/report_digests.txt

prints one "sha256  name" line per group instead: one per ring argument,
over the lines of its commands and of its perturbed copies' validate
runs, and one named "gallery monomial guard" over the rest.  The
committed summary is checked in tier-1 (tests/test_report_digests.py),
which names each group whose reports moved; the full listing then finds
the exact commands.
"""

import hashlib
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from ladder import diagonal, upper_triangular  # noqa: E402

from serrespec import gallery_names, load_gallery  # noqa: E402
from serrespec.cli import render_report, run_command  # noqa: E402
from serrespec.io import parse_ring_file, serialize_ring  # noqa: E402

SMALL = 10
HEAD = "gallery monomial guard"
PROPS = ("prime", "cprime", "semiprime")
MODES = ("fast", "oracle")
MONOMIAL = [
    ["--vars", "2", "--twist", "0,0;1,0", "--prime", "1,0"],
    ["--vars", "2", "--twist", "0,0;1,0", "--prime", "2,0"],
    ["--vars", "2", "--twist", "0,0;1,0", "--prime", "1,0;0,1"],
    ["--vars", "2", "--twist", "0,0;1,0", "--truncate", "3"],
    ["--vars", "3", "--twist", "0,0,0;1,0,0;1,1,0", "--truncate", "2"],
    ["--vars", "3", "--twist", "0,0,0;1,0,0;1,1,0", "--face", "1"],
    ["--vars", "3", "--twist", "0,0,0;1,0,0;1,1,0", "--face", "3,1"],
]
# x x = c x and x y = y x = c y with c = q^-1 + 2 + q^3: associative, with
# the four ideals 0, {y}, {x, y} and the whole ring; its quotients and
# perturbed copies serialize and describe multi-term constants
MULTI_TERM = """\
ring "multi-term"
coeff laurent
basis 1 x y
unit 1
mul x x = q^-1*x + 2*x + q^3*x
mul x y = q^-1*y + 2*y + q^3*y
mul y x = q^-1*y + 2*y + q^3*y
"""


def digest(argv, dot=None):
    """The "sha256  argv" line of one command."""
    result = run_command(argv)
    h = hashlib.sha256(f"{result.exit_code}\n".encode())
    h.update(render_report(result.report).encode())
    if dot is not None and os.path.exists(dot):
        h.update(Path(dot).read_bytes())
        os.remove(dot)
    return f"{h.hexdigest()}  {shlex.join(argv)}"


def ring_commands(arg, labels, ideals):
    """argv lists for one ring argument with the given basis labels and
    two-sided ideals (comma-joined label lists)."""
    cmds = [["validate", arg], ["spec", arg], ["twocat", arg],
            ["twocat", arg, "--classify-cprimes"], ["oracle", arg]]
    cmds += [["ideals", arg, "--side", side] for side in ("l", "r", "2")]
    cmds += [["closure", arg, "--gens", label, "--side", side]
             for label in labels for side in ("l", "r", "2")]
    cmds += [["topology", arg, "--style", style, "--dot", "out.dot"]
             for style in ("zariski", "balmer")]
    targets = ideals if len(labels) <= SMALL else [""]
    for ideal in targets:
        cmds += [["check", arg, "--ideal", ideal, "--prop", prop,
                  "--mode", mode] for prop in PROPS for mode in MODES]
        cmds.append(["quotient", arg, "--ideal", ideal])
        cmds.append(["minimal-primes", arg, "--ideal", ideal])
    return cmds


def perturbed(text):
    """Perturbed copies of a serialized ring, two per 'mul' line: the line
    with one more of its first output, and the text without the line."""
    lines = text.splitlines(keepends=True)
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("mul "):
            continue
        first = line.split("=", 1)[1].split("+", 1)[0].strip()
        bumped = f"{line.rstrip()} + {first.rpartition('*')[2]}\n"
        out.append("".join(lines[:i] + [bumped] + lines[i + 1:]))
        out.append("".join(lines[:i] + lines[i + 1:]))
    return out


def digest_lines():
    """The digest lines as (head, validate, commands): head the gallery,
    monomial and guard lines, and validate and commands the lines of
    each ring argument's perturbed copies and of its own commands, keyed
    by the argument in ring order."""
    rings = [(f"gallery:{name}", load_gallery(name))
             for name in gallery_names()]
    ladder = [upper_triangular(k) for k in range(1, 6)]
    ladder += [diagonal(k) for k in range(1, 9)]
    ladder.append(parse_ring_file(MULTI_TERM))
    head = [digest(["gallery"])]
    head += [digest(["gallery", name]) for name in gallery_names()]
    head += [digest(["monomial", *argv]) for argv in MONOMIAL]
    head += [digest(["spec", "gallery:qplane-trunc-6", *flag])
             for flag in (["--allow-large"], [])]
    validate = {}
    commands = {}
    with tempfile.TemporaryDirectory() as tmp:
        home = os.getcwd()
        os.chdir(tmp)
        try:
            for ring in ladder:
                path = f"{ring.name}.ring"
                Path(path).write_text(serialize_ring(ring))
                rings.append((path, ring))
            for arg, ring in rings:
                validate[arg] = []
                for j, text in enumerate(perturbed(serialize_ring(ring))):
                    path = f"perturbed-{ring.name}-{j}.ring"
                    Path(path).write_text(text)
                    validate[arg].append(digest(["validate", path]))
            for arg, ring in rings:
                report = run_command(["ideals", arg]).report
                ideals = [",".join(ideal) for ideal in report["ideals"]]
                commands[arg] = [
                    digest(argv, argv[-1] if argv[0] == "topology" else None)
                    for argv in ring_commands(arg, ring.labels, ideals)]
        finally:
            os.chdir(home)
    return head, validate, commands


def summary():
    """{group name: sha256 of the group's lines}, "gallery monomial
    guard" first, then each ring argument."""
    head, validate, commands = digest_lines()
    groups = {HEAD: head}
    groups.update((arg, validate[arg] + commands[arg]) for arg in validate)
    return {name: hashlib.sha256(
                "".join(line + "\n" for line in lines).encode()).hexdigest()
            for name, lines in groups.items()}


def main(argv):
    if argv[1:] not in ([], ["--summary"]):
        sys.exit(f"usage: {argv[0]} [--summary]")
    if argv[1:]:
        lines = [f"{h}  {name}" for name, h in summary().items()]
    else:
        head, validate, commands = digest_lines()
        lines = head + [line for group in (validate, commands)
                        for ring_lines in group.values()
                        for line in ring_lines]
    sys.stdout.write("".join(line + "\n" for line in lines))


if __name__ == "__main__":
    main(sys.argv)
