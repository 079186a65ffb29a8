"""The benchmark's workloads: seeded command lists over generated ring
files, and the gate that checks each report against answers derived in
``rings.py`` rather than computed by serrespec.

A workload is a list of slots.  Each slot holds a few candidate command
groups, fixed independently of the seed; the seed picks one candidate per
slot and the order of the picked commands.  Because the candidates are
fixed, ``pins.json`` holds the report hash of every command any seed can
run.
"""

import random
import shlex
from dataclasses import dataclass
from math import comb
from pathlib import Path

import rings

POOL = 3  # candidates per seeded argument
PROPS = ("prime", "semiprime", "cprime")

# The gallery's frozen answers for the canonical names used here, restated
# from the rings' definitions so the gate does not read them from serrespec.
GALLERY_EXPECTED = {
    "two-idem": {"ideal_count": 4, "spectrum": [["a"], ["b"]],
                 "completely_prime": [True, True]},
    "mixed-3obj": {"ideal_count": 14,
                   "spectrum": [["uA", "uB", "f", "g", "h"],
                                ["uA", "uC", "f", "g", "h"],
                                ["uB", "uC", "f", "g", "h"]],
                   "completely_prime": [True, True, True]},
    "ising": {"ideal_count": 2, "spectrum": [[]], "completely_prime": [True]},
    "rep-s3": {"ideal_count": 2, "spectrum": [[]], "completely_prime": [True]},
    "qplane-trunc-2": {"ideal_count": 14,
                       "spectrum": [["x", "y", "x2", "xy", "y2"]],
                       "completely_prime": [True]},
}

TWISTS = (((0, 0, 0), (1, 0, 0), (1, 1, 0)),
          ((0, 1, 0), (0, 0, 2), (1, 0, 0)),
          ((0, -1, 0), (2, 0, 0), (0, 1, 1)))


@dataclass
class Command:
    argv: list
    expect: dict  # what the gate checks; see check_report

    @property
    def key(self):
        return shlex.join(self.argv)


@dataclass
class Workload:
    name: str
    workdir: Path
    specs: list   # every ring file the workload reads, perturbed copies too
    slots: list   # [[tuple of Command, ...], ...]

    def ring_path(self, spec):
        return str(self.workdir / f"{spec.name}.ring")

    def files(self):
        return {self.ring_path(s): rings.ring_text(s) for s in self.specs}

    def commands(self, seed):
        rng = random.Random(seed)
        picked = [c for slot in self.slots
                  for c in slot[rng.randrange(len(slot))]]
        rng.shuffle(picked)
        return picked

    def pool(self):
        seen = {}
        for slot in self.slots:
            for group in slot:
                for c in group:
                    seen.setdefault(c.key, c)
        return list(seen.values())


# ---------------------------------------------------------------- answers

def above(spec, ideal):
    return [p for p in spec.primes if ideal <= p]


def holds(spec, ideal, prop):
    if prop == "prime":
        return ideal in spec.primes
    if prop == "cprime":
        return ideal in spec.cprimes
    over = above(spec, ideal)
    return bool(over) and frozenset.intersection(*over) == ideal


def minimal_primes(spec, ideal):
    over = above(spec, ideal)
    return {p for p in over if not any(q < p for q in over)}


def candidate_ideals(spec, tag):
    """POOL proper ideals, each generated by one or two random labels;
    the zero ideal when the ring has no other proper ideal."""
    everything = frozenset(spec.labels)
    out = []
    for j in range(50):
        if len(out) == POOL:
            break
        rng = random.Random(f"{spec.name}/{tag}/{j}")
        ideal = spec.closure(rng.sample(spec.labels, rng.randint(1, 2)))
        if ideal != everything:
            out.append(ideal)
    return out or [frozenset()]


def arg(spec, ideal):
    return ",".join(x for x in spec.labels if x in ideal)


# ----------------------------------------------------------------- gate

def _points(report):
    return {frozenset(p.strip("{}").split(",")) - {""} for p in report["points"]}


def _listed(ideals):
    return {frozenset(i) for i in ideals}


def check_report(cmd, code, report):
    """Problems with one command's outcome; empty when it is correct."""
    e = cmd.expect
    probs = []

    def need(ok, what):
        if not ok:
            probs.append(what)

    need(code in e["exit"], f"exit {code}, expected one of {e['exit']}")
    if "error" in report:
        return probs + [f"error report: {report.get('message')}"]
    try:
        if "basis" in e:
            need(report["ok"] is True and report["basis"] == e["basis"],
                 "validate did not accept the ring with its basis")
        if e.get("invalid"):
            need(report["ok"] is False and len(report["violations"]) >= 1,
                 "perturbed ring was not rejected with violations")
        if "count" in e:
            need(report["count"] == e["count"] == len(report["ideals"]),
                 f"ideal count {report['count']}, expected {e['count']}")
        if "primes" in e:
            need(_listed(p["ideal"] for p in report["primes"]) == e["primes"]
                 and report["prime_count"] == len(e["primes"]),
                 "spectrum differs from the closed form")
        if "points" in e:
            need(_points(report) == e["points"], "topology points differ")
        if "closed_sets" in e:
            need(len(report["closed_sets"]) == e["closed_sets"],
                 f"{len(report['closed_sets'])} closed sets, expected "
                 f"{e['closed_sets']}")
        if "dot" in e:
            text = Path(e["dot"]).read_text()
            need(text.startswith("digraph specialization {")
                 and text.count(" -> ") == len(report["specialization"])
                 and text.count(";") - text.count(" -> ")
                 == len(report["points"]),
                 "dot file disagrees with the report")
        if "holds" in e:
            need(report["holds"] is e["holds"]
                 and code == (0 if e["holds"] else 1),
                 f"holds={report['holds']}, expected {e['holds']}")
        if "closure" in e:
            need(frozenset(report["closure"]) == e["closure"],
                 "closure differs from the generated up-set")
        if "quotient_basis" in e:
            need(report["quotient_basis"] == e["quotient_basis"],
                 "quotient basis differs")
        if "minimal" in e:
            need(_listed(report["minimal_primes"]) == e["minimal"]
                 and report["chain_verified"] is True,
                 "minimal primes differ or the chain is not verified")
        if "cprimes" in e:
            need(_listed(report["completely_primes"]) == e["cprimes"]
                 and report["unit_decomposition"] is True,
                 "completely prime classification differs")
        if "checked" in e:
            need(report["ok"] is True
                 and report["ideals_checked"] == e["checked"],
                 "oracle found mismatches or checked the wrong lattice")
        if "truncated" in e:
            need(len(report["basis"]) == e["truncated"],
                 "truncation has the wrong number of monomials")
        if "gallery" in e:
            need(report["expected"] == e["gallery"],
                 "gallery expectations differ")
    except (KeyError, TypeError, ValueError, OSError) as exc:
        probs.append(f"malformed report: {exc!r}")
    return probs


def out_counts(report):
    """(ideals, primes, closed sets) a report lists.  Primes are ideals
    too, so they count in both.  A command whose ideal argument the seed
    picks counts as one ideal, whatever it lists, so the totals of a pass
    are the same for every seed."""
    cmd = report.get("command")
    if cmd == "ideals":
        return report["count"], 0, 0
    if cmd == "oracle":
        return report["ideals_checked"], 0, 0
    if cmd in ("check", "closure", "quotient", "minimal-primes"):
        return 1, 0, 0
    if cmd == "spec":
        return report["prime_count"], report["prime_count"], 0
    if cmd == "twocat":
        n = len(report.get("completely_primes", ()))
        return n, n, 0
    if cmd == "topology":
        n = len(report["points"])
        return n, n, len(report["closed_sets"])
    return 0, 0, 0


# ------------------------------------------------------------ workloads

def _ok(**expect):
    return {"exit": (0,), **expect}


def _check_group(w, spec, tag, props=PROPS, mode=None):
    """Slot: one check command per candidate ideal and property."""
    group = []
    for ideal in candidate_ideals(spec, tag):
        for prop in props:
            argv = ["check", w.ring_path(spec), "--ideal", arg(spec, ideal),
                    "--prop", prop]
            if mode:
                argv += ["--mode", mode]
            group.append((Command(argv, {"exit": (0, 1),
                                         "holds": holds(spec, ideal, prop)}),))
    return group


def _lattice(w):
    specs = [rings.qplane(3), rings.qplane(4), rings.qplane(5),
             rings.tri(4), rings.tri(5), rings.tri(6),
             rings.diag(6), rings.diag(10)]
    w.specs = specs
    for s in specs:
        path = w.ring_path(s)
        primes = set(s.primes)
        ideal_count = s.expect["ideals"]["2"]
        for side in ("l", "r", "2"):
            w.slots.append([(Command(
                ["ideals", path, "--side", side],
                _ok(count=s.expect["ideals"][side])),)])
        w.slots.append([(Command(["spec", path], _ok(primes=primes)),)])
        w.slots.append([(Command(
            ["topology", path, "--style", "zariski"],
            _ok(points=primes, closed_sets=s.expect["zariski"])),)])
        w.slots.append(_check_group(w, s, "check", ("prime", "semiprime"),
                                    "oracle"))
        w.slots.append([(Command(["twocat", path, "--classify-cprimes"],
                                 _ok(cprimes=set(s.cprimes))),)])
        if s.size <= 15:
            # over the zero ideal: its cost and memory depend strongly on
            # the ideal, so the seed does not pick it
            w.slots.append([(Command(
                ["minimal-primes", path, "--ideal", ""],
                _ok(minimal=minimal_primes(s, frozenset()))),)])
        # the definitional checks are quadratic in the lattice
        if s.size <= 15 and ideal_count <= 200:
            w.slots.append([(Command(["oracle", path],
                                     _ok(checked=ideal_count - 1)),)])


def _validate(w):
    fusion = [rings.verlinde(k) for k in (6, 9, 12, 16)]
    tri6 = rings.tri(6)
    twisted = [rings.qmonomial("qmono-3-deg3", TWISTS[0], 3),
               rings.qmonomial("qmono-3-deg4", TWISTS[1], 4),
               rings.qplane(5), tri6]
    mixed, m3 = rings.mixed_3obj(), rings.matrix_units(3)
    w.specs = fusion + twisted + [mixed, m3]
    # a fusion command costs one build_ring, and at K = 16 that is most of
    # a pass, so closure and quotient run only on the smaller tables
    for s, closure, quotient in ([(s, s.size <= 13, s.size <= 10)
                                  for s in fusion]
                                 + [(s, True, True) for s in twisted]):
        path = w.ring_path(s)
        w.slots.append([(Command(["validate", path],
                                 _ok(basis=list(s.labels))),)])
        bad = [rings.perturbed(s, slot) for slot in range(POOL + 1)]
        w.specs += bad
        w.slots.append([(Command(["validate", w.ring_path(b)],
                                 {"exit": (1,), "invalid": True}),)
                        for b in bad])
        w.slots.append(_check_group(w, s, "check"))
        if closure:
            w.slots.append([(Command(
                ["closure", path, "--gens", ",".join(gens)],
                _ok(closure=s.closure(gens))),)
                for gens in (random.Random(f"{s.name}/gens/{j}").sample(
                    s.labels, 2) for j in range(POOL))])
        if quotient:
            w.slots.append([(Command(
                ["quotient", path, "--ideal", arg(s, i)],
                _ok(quotient_basis=[x for x in s.labels if x not in i])),)
                for i in candidate_ideals(s, "quotient")])
    for s in (tri6, mixed, m3):
        w.slots.append([(Command(["twocat", w.ring_path(s),
                                  "--classify-cprimes"],
                                 _ok(cprimes=set(s.cprimes))),)])
    # the one topology command keeps the closed-set count nonzero here
    w.slots.append([(Command(
        ["topology", w.ring_path(mixed), "--style", "zariski"],
        _ok(points=set(mixed.primes), closed_sets=8)),)])
    for nvars, degree in ((3, 3), (2, 5)):
        w.slots.append([(Command(
            ["monomial", "--vars", str(nvars), "--twist",
             ";".join(",".join(map(str, row[:nvars]))
                      for row in twist[:nvars]),
             "--truncate", str(degree)],
            _ok(truncated=comb(degree + nvars, nvars))),)
            for twist in TWISTS])
    for name in sorted(GALLERY_EXPECTED):
        w.slots.append([(Command(["gallery", name],
                                 _ok(gallery=GALLERY_EXPECTED[name])),)])
    w.slots.append([(Command(["gallery", "verlinde-sl2-8"],
                             _ok(gallery=None)),)])


def _topology(w):
    w.specs = ([rings.diag(k) for k in range(6, 12)]
               + [rings.tri(4), rings.tri(5), rings.qplane(3), rings.qplane(4),
                  rings.mixed_3obj(), rings.two_idem(), rings.matrix_units(3)])
    for s in w.specs:
        path = w.ring_path(s)
        dot = str(w.workdir / f"{s.name}.dot")
        group = []
        for dot_style in ("balmer", "zariski"):
            pair = []
            for style in ("balmer", "zariski"):
                expect = _ok(points=set(s.primes))
                if style in s.expect:
                    expect["closed_sets"] = s.expect[style]
                argv = ["topology", path, "--style", style]
                if style == dot_style:
                    argv += ["--dot", dot]
                    expect["dot"] = dot
                pair.append(Command(argv, expect))
            group.append(tuple(pair))
        w.slots.append(group)


BUILDERS = {"lattice": _lattice, "validate": _validate, "topology": _topology}


def build(name, workdir):
    w = Workload(name, Path(workdir), [], [])
    BUILDERS[name](w)
    return w
