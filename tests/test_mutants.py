"""The committed mutant list stays current: each snippet occurs exactly
once in its file, and each named test exists.  Running the mutants
takes minutes (python3 scripts/mutants.py), so only this check is
here."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m[0])
def test_every_mutant_still_applies(mutant):
    assert mutants.stale_reason(ROOT, mutant) is None
