#!/usr/bin/env python3
"""Rewrite tests/golden/*.json from the current CLI output.

Run after an intentional report-format change, then review the diff.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from golden_manifest import GOLDEN_COMMANDS  # noqa: E402

from serrespec.cli import render_report, run_command  # noqa: E402


def main():
    golden_dir = ROOT / "tests" / "golden"
    golden_dir.mkdir(exist_ok=True)
    for filename, argv in sorted(GOLDEN_COMMANDS.items()):
        result = run_command(argv)
        (golden_dir / filename).write_text(render_report(result.report))
        print(f"wrote {filename} (exit {result.exit_code})")


if __name__ == "__main__":
    main()
