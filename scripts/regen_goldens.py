#!/usr/bin/env python3
"""Rewrite tests/golden/*.json from the current CLI output.

Run after an intentional report-format change, then review the diff.
Nothing is written unless every report renders exactly as
``json.dumps(report, indent=2, default=list)`` does, so the goldens never
depend on the CLI's own JSON writer.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from golden_manifest import GOLDEN_COMMANDS  # noqa: E402

from serrespec.cli import render_report, run_command  # noqa: E402


def main():
    golden_dir = ROOT / "tests" / "golden"
    texts = {}
    for filename, argv in sorted(GOLDEN_COMMANDS.items()):
        result = run_command(argv)
        text = render_report(result.report)
        if text != json.dumps(result.report, indent=2, default=list) + "\n":
            sys.exit(f"{filename}: render_report differs from json.dumps; "
                     "no golden written")
        texts[filename] = text, result.exit_code
    golden_dir.mkdir(exist_ok=True)
    for filename, (text, code) in texts.items():
        (golden_dir / filename).write_text(text)
        print(f"wrote {filename} (exit {code})")


if __name__ == "__main__":
    main()
