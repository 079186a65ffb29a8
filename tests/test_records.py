"""The public record types: what importing them costs, that they
refuse assignment, and the equality callers compare them by."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import serrespec
from serrespec import (ZARISKI, RingError, block_view, build_monoid_ideal,
                       build_topology, load_gallery, serre_spec)
from serrespec.cli import CommandResult
from serrespec.gallery import GalleryEntry
from serrespec.monomial import MonomialRing
from serrespec.spectrum import SpectrumReport
from serrespec.zring import (AssociativityViolation, BlockIncompatibility,
                             DuplicateLabel, UnitViolation)

SRC = Path(serrespec.__file__).resolve().parent.parent


def test_importing_the_cli_loads_no_dataclass_machinery():
    # site hooks may preload some of these, so only what the import adds
    # counts
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import serrespec.cli\n"
            "added = set(sys.modules) - before\n"
            "print(sorted(added & {'dataclasses', 'inspect', 'typing'}))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _two_idem():
    return load_gallery("two-idem")


FROZEN = {
    "DuplicateLabel": (lambda: DuplicateLabel("a"), "label"),
    "AssociativityViolation": (
        lambda: AssociativityViolation("a", "b", "c", "a", "1", "2"),
        "alpha beta gamma output lhs rhs"),
    "BlockIncompatibility": (lambda: BlockIncompatibility("a", "b", "x"),
                             "alpha beta detail"),
    "UnitViolation": (lambda: UnitViolation(None, "a", "x"),
                      "unit witness detail"),
    "ZPlusRing": (_two_idem, "name labels mode tensor blocks units cache"),
    "GalleryEntry": (lambda: GalleryEntry("g", "summary", _two_idem),
                     "name summary build expected"),
    "MonomialRing": (lambda: MonomialRing(2, ((0, 0), (1, 0))),
                     "nvars twist"),
    "MonoidIdeal": (lambda: build_monoid_ideal(2, [(1, 0)]), "nvars gens"),
    "BlockRingView": (lambda: block_view(_two_idem()),
                      "objects block_masks diagonal_units"),
    "CommandResult": (lambda: CommandResult(0, {}), "exit_code report"),
    "SpectrumReport": (lambda: serre_spec(_two_idem()),
                       "ring_name primes completely_prime semiprime "
                       "inclusions"),
    "ClosedSetFamily": (lambda: build_topology(_two_idem(), ZARISKI),
                        "style space extents tags generators_union_closed "
                        "empty_set_adjoined closures"),
}


@pytest.mark.parametrize("name", FROZEN)
def test_formerly_frozen_records_refuse_field_assignment(name):
    build, fields = FROZEN[name]
    record = build()
    for field in fields.split():
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        assert getattr(record, field) is value


@pytest.mark.parametrize("args, message", [
    ((0, ()), "at least one variable"),
    ((2, ((0, 0),)), "must be 2x2"),
    ((2, ((0, 0), (1, 0, 0))), "must be 2x2"),
])
def test_monomial_ring_refuses_a_bad_shape_on_construction(args, message):
    with pytest.raises(RingError, match=message):
        MonomialRing(*args)


@pytest.mark.parametrize("make, other", [
    (lambda: CommandResult(0, {"primes": [[]]}),
     CommandResult(1, {"primes": [[]]})),
    (lambda: SpectrumReport("r", [1], [True], [True]),
     SpectrumReport("r", [1], [True], [True], [(0, 0)])),
    (lambda: DuplicateLabel("a"), DuplicateLabel("b")),
    (lambda: AssociativityViolation("a", "b", "c", "a", "1", "2"),
     AssociativityViolation("a", "b", "c", "a", "1", "3")),
    (lambda: BlockIncompatibility("a", "b", "x"),
     BlockIncompatibility("b", "a", "x")),
    (lambda: UnitViolation(None, "a", "x"), UnitViolation("u", "a", "x")),
], ids=["CommandResult", "SpectrumReport", "DuplicateLabel",
        "AssociativityViolation", "BlockIncompatibility", "UnitViolation"])
def test_records_with_equal_fields_compare_equal(make, other):
    first, second = make(), make()
    assert first is not second
    assert first == second
    assert not first != second
    assert first != other
