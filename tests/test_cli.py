"""CLI contract: byte-exact reports and exit codes for every pinned command,
and one JSON input-error report for every output path that cannot be
written."""

import json
from pathlib import Path

import pytest

from serrespec import cli
from serrespec.cli import EXIT_FALSE, EXIT_INPUT, EXIT_OK, render_report, \
    run_command

from golden_manifest import GOLDEN_COMMANDS

GOLDEN = Path(__file__).resolve().parent / "golden"

# commands whose queried property is false; every other one succeeds
FALSE_COMMANDS = {
    "check_nilpotent_semiprime.json",
    "check_two-idem_prime.json",
    "check_two-idem_prime_oracle.json",
    "minimal-primes_nilpotent.json",
    "monomial_prime_false.json",
}


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == \
        sorted(GOLDEN_COMMANDS)
    assert FALSE_COMMANDS <= set(GOLDEN_COMMANDS)


@pytest.mark.parametrize("filename", sorted(GOLDEN_COMMANDS))
def test_report_matches_golden(filename):
    result = run_command(GOLDEN_COMMANDS[filename])
    assert render_report(result.report) == (GOLDEN / filename).read_text()
    expected = EXIT_FALSE if filename in FALSE_COMMANDS else EXIT_OK
    assert result.exit_code == expected


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
