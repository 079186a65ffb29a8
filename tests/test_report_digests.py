"""Every CLI report that scripts/report_digests.py covers is byte-identical
to the committed summary, tests/report_digests.txt: one sha256 per ring
argument and one for the gallery, monomial and guard commands.  A change
that moves reports on purpose regenerates the file with

    python3 scripts/report_digests.py --summary > tests/report_digests.txt

and names the groups that moved; the full listing, run in both trees,
finds the exact commands."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "report_digests", ROOT / "scripts" / "report_digests.py")
report_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digests)


def test_reports_match_the_committed_digests():
    committed = {}
    for line in (ROOT / "tests" / "report_digests.txt").read_text() \
            .splitlines():
        digest, _, name = line.partition("  ")
        committed[name] = digest
    now = report_digests.summary()
    # a group only one side has counts as moved too
    moved = [name for name in {**committed, **now}
             if committed.get(name) != now.get(name)]
    assert not moved, f"reports moved for {', '.join(moved)}"
