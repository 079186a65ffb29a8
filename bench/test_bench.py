"""Tests of the benchmark itself: seeded generation, the closed-form
answers the gate relies on, the gate, the pins and the tracer."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import rings  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Command, check_report  # noqa: E402

from serrespec import cli  # noqa: E402
from serrespec.coefficients import Coefficient  # noqa: E402
from serrespec.io import parse_ring_file  # noqa: E402
from serrespec.zring import RingValidationError  # noqa: E402


def _run(argv):
    result = cli.run_command(argv)
    return result.exit_code, result.report


def test_same_seed_gives_same_commands_and_bytes(tmp_path):
    for name in workloads.BUILDERS:
        a = workloads.build(name, tmp_path)
        b = workloads.build(name, tmp_path)
        assert a.files() == b.files()
        assert ([c.argv for c in a.commands(7)]
                == [c.argv for c in b.commands(7)])
        assert ([c.argv for c in a.commands(7)]
                != [c.argv for c in a.commands(8)])


def test_pins_cover_every_command_a_seed_can_pick():
    pins = json.loads(run.PINS.read_text())
    for name in workloads.BUILDERS:
        pool = workloads.build(name, run.WORK / name).pool()
        assert [c.key for c in pool if c.key not in pins] == []


def test_generated_files_parse_to_their_basis_sizes():
    specs = {}
    for name in workloads.BUILDERS:
        for spec in workloads.build(name, Path("w")).specs:
            # the largest fusion tables take most of a second to validate
            if len(spec.constants()) <= 300:
                specs[spec.name] = spec
    for spec in specs.values():
        text = rings.ring_text(spec)
        if ".bad" in spec.name:
            with pytest.raises(RingValidationError):
                parse_ring_file(text)
        else:
            assert list(parse_ring_file(text).labels) == spec.labels


@pytest.mark.parametrize("spec", [
    rings.qplane(2), rings.tri(3), rings.diag(3), rings.verlinde(3),
    rings.mixed_3obj(), rings.matrix_units(2), rings.two_idem()],
    ids=lambda s: s.name)
def test_closed_forms_hold_on_the_smallest_instances(tmp_path, spec):
    path = str(tmp_path / "r.ring")
    Path(path).write_text(rings.ring_text(spec))
    cmds = [Command(["validate", path], {"exit": (0,), "basis": spec.labels}),
            Command(["spec", path], {"exit": (0,), "primes": set(spec.primes)}),
            Command(["twocat", path, "--classify-cprimes"],
                    {"exit": (0,), "cprimes": set(spec.cprimes)})]
    for side, count in spec.expect.get("ideals", {}).items():
        cmds.append(Command(["ideals", path, "--side", side],
                            {"exit": (0,), "count": count}))
    for style in ("zariski", "balmer"):
        expect = {"exit": (0,), "points": set(spec.primes)}
        if style in spec.expect:
            expect["closed_sets"] = spec.expect[style]
        cmds.append(Command(["topology", path, "--style", style], expect))
    for ideal in set(workloads.candidate_ideals(spec, "t")) | {frozenset()}:
        text = workloads.arg(spec, ideal)
        for prop in workloads.PROPS:
            cmds.append(Command(
                ["check", path, "--ideal", text, "--prop", prop],
                {"exit": (0, 1), "holds": workloads.holds(spec, ideal, prop)}))
        if workloads.above(spec, ideal):
            cmds.append(Command(
                ["minimal-primes", path, "--ideal", text],
                {"exit": (0,),
                 "minimal": workloads.minimal_primes(spec, ideal)}))
    for gen in spec.labels:
        cmds.append(Command(["closure", path, "--gens", gen],
                            {"exit": (0,), "closure": spec.principal[gen]}))
    for cmd in cmds:
        assert check_report(cmd, *_run(cmd.argv)) == [], cmd.key


def test_gate_rejects_wrong_answers(tmp_path):
    spec = rings.diag(3)
    path = str(tmp_path / "r.ring")
    Path(path).write_text(rings.ring_text(spec))
    code, report = _run(["ideals", path])
    assert check_report(Command([], {"exit": (0,), "count": 8}),
                        code, report) == []
    assert check_report(Command([], {"exit": (0,), "count": 9}),
                        code, report)
    assert check_report(Command([], {"exit": (1,), "count": 8}),
                        code, report)
    assert check_report(Command([], {"exit": (0,), "primes": set()}),
                        code, report)


def _bindings():
    return {(name, attr): value
            for name, m in sorted(sys.modules.items())
            if name == "serrespec" or name.startswith("serrespec.")
            for attr, value in vars(m).items() if callable(value)}


def test_tracer_wraps_every_binding_and_restores_the_originals():
    before = _bindings()
    init = Coefficient.__init__
    tr = tracer.Tracer()
    tr.install()
    try:
        from serrespec import ideals, spectrum
        assert cli.enumerate_serre_ideals is not before[
            ("serrespec.ideals", "enumerate_serre_ideals")]
        assert spectrum.enumerate_serre_ideals is cli.enumerate_serre_ideals
        assert ideals.enumerate_serre_ideals is cli.enumerate_serre_ideals
        traced = cli.render_report(
            cli.run_command(["spec", "gallery:mixed-3obj"]).report)
        summary = tr.summary()
    finally:
        tr.restore()
    assert _bindings() == before
    assert Coefficient.__init__ is init
    assert tr.missing == []
    plain = cli.render_report(
        cli.run_command(["spec", "gallery:mixed-3obj"]).report)
    assert traced == plain
    stats = summary["stats"]
    assert stats["spectrum.serre_spec"][0] == 1
    assert stats["ideals.enumerate_serre_ideals"][0] == 1
    assert summary["counts"]["allocs"] > 0
    assert all(s[2] <= s[1] + 1e-9 for s in stats.values())
    # self times partition the traced time of the root spans
    assert sum(s[2] for s in stats.values()) == pytest.approx(
        summary["traced_s"], rel=1e-6)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert ({m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]}
            == run.END_TO_END)
    assert ({m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
            == {k: v[:2] for k, v in run.PER_LAYER.items()})
    assert ({w["name"] for w in doc["workloads"]}
            == set(workloads.BUILDERS))
