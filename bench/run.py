#!/usr/bin/env python3
"""Closed-loop CLI benchmark for serrespec.

    python3 bench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

One client, one thread: each command is ``cli.run_command`` followed by
``cli.render_report``, exactly what a CLI call does, and the next command
starts when the previous one returns.  Every command resolves its ring
afresh from a file that set-up wrote under ``.bench_work/``.  The run
repeats whole passes over the workload's seeded command list for about
``--seconds`` seconds and checks every report (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, writing the
per-command span totals to ``.bench_work/<workload>/trace-<seed>.json``.
The last line of standard output is one JSON object.

Times are reported at reference speed: a fixed pure-Python loop runs
between commands and around each set-up, and each time is scaled by how
much slower than REF_S that loop ran around it.  On a shared 2-vCPU
host, identical passes varied by up to 75% within one run while the
scaled figures held within a few percent; the host-clock figures are
printed as well, and are ``host.*`` in the traced run.

``--pin`` runs every command any seed can pick once and rewrites
``pins.json`` with the sha256 of each report; do that only on a commit
whose reports are the reference.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")
PINS = BENCH / "pins.json"
SETUP_REPEATS = 7
MIN_TIMED = 100  # commands per run, so ten lie beyond the 90th percentile
REF_S = 0.002    # reference loop seconds that define "reference speed"

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402
import workloads  # noqa: E402

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_ref_s": ("s", "lower"),
    "cmd_geomean_ref_ms": ("ms", "lower"),
    "cmd_p90_ref_ms": ("ms", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "out_ideals": ("count", "higher"),
    "out_primes": ("count", "higher"),
    "out_closed_sets": ("count", "higher"),
}


# spans whose calls / total / self time are reported, per traced pass
_SPANS = (
    ("ideals.enumerate_serre_ideals", "calls self_s"),
    ("ideals.serre_closure", "calls self_s"),
    ("ideals.product_support", "calls self_s"),
    ("ideals.is_serre_ideal", "calls self_s"),
    ("ideals.quotient_ring", "total_s"),
    ("spectrum.serre_spec", "calls total_s"),
    ("spectrum.is_serre_prime.fast", "calls"),
    ("spectrum.is_serre_prime.definitional", "calls self_s"),
    ("spectrum.is_semiprime", "calls self_s"),
    ("spectrum.minimal_primes_over", "calls self_s"),
    ("topology.build_topology.zariski", "self_s"),
    ("topology.build_topology.balmer", "self_s"),
    ("topology.closed_set", "calls"),
    ("topology.specialization_edges", "self_s"),
    ("zring.build_ring", "calls total_s"),
    ("io.parse_ring_file", "calls self_s"),
    ("io.serialize_ring", "total_s"),
    ("twocat.classify_completely_primes", "calls self_s"),
    ("twocat.corner_ring", "calls total_s"),
    ("monomial.truncate_to_ring", "total_s"),
    ("gallery.load_gallery", "total_s"),
    ("cli.run_command", "calls self_s"),
    ("cli.render_report", "total_s"),
)
_FIELDS = {"calls": (0, "count"), "total_s": (1, "s"), "self_s": (2, "s")}


def _span(name, field):
    return lambda a: a["stats"].get(name, (0, 0.0, 0.0))[field]


def _count(name):
    return lambda a: a["counts"].get(name, 0)


def _ratio(num, den, scale=1.0):
    return lambda a: scale * num(a) / den(a) if den(a) else 0.0


def _share(layer):
    return lambda a: (sum(s[2] for n, s in a["stats"].items()
                          if n.split(".")[0] == layer) / a["traced_s"]
                      if a["traced_s"] else 0.0)


# name -> (unit, better, value from the per-pass trace aggregate)
PER_LAYER = {
    f"{name}.{f}": (_FIELDS[f][1], "lower", _span(name, _FIELDS[f][0]))
    for name, fields in _SPANS for f in fields.split()}
PER_LAYER.update({
    "ideals.enumerate.us_per_ideal":
        ("us", "lower", _ratio(_span("ideals.enumerate_serre_ideals", 2),
                               _count("ideals_out"), 1e6)),
    "spectrum.primes_out": ("count", "higher", _count("primes_out")),
    # closed_set evaluations per distinct Balmer closed set: wasted work
    "topology.balmer.closed_set_calls_per_set":
        ("ratio", "lower", _ratio(
            lambda a: a["under"].get(("topology.closed_set",
                                      "topology.build_topology.balmer"), 0),
            _count("closed_sets_out.balmer"))),
    "topology.closed_sets_out": ("count", "higher",
                                 _count("closed_sets_out")),
    "zring.build_ring.us_per_triple":
        ("us", "lower", _ratio(_span("zring.build_ring", 1),
                               _count("triples"), 1e6)),
    "zring.nonzero_constants": ("count", "higher",
                                _count("nonzero_constants")),
    "coefficients.Coefficient.allocs": ("count", "lower", _count("allocs")),
    "coefficients.allocs_per_constant":
        ("ratio", "lower", _ratio(_count("allocs"),
                                  _count("nonzero_constants"))),
    "io.ring_bytes": ("B", "lower", _count("ring_bytes")),
    "cli.report_bytes": ("B", "lower", _count("report_bytes")),
    "trace.traced_s": ("s", "lower", lambda a: a["traced_s"]),
    "trace.spans": ("count", "lower", lambda a: a["spans"]),
})
PER_LAYER.update({f"layer.{m}.self_share": ("ratio", "lower", _share(m))
                  for m in tracer.LAYERS})
# set by the runner from the untraced passes of a traced run
PER_LAYER.update({
    "trace.overhead_pct": ("%", "lower", None),
    "host.wall_s": ("s", "lower", None),
    "host.cmd_geomean_ms": ("ms", "lower", None),
    "host.cmd_p90_ms": ("ms", "lower", None),
    "host.speed": ("ratio", "higher", None),
})


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def setup(name):
    """Import serrespec afresh and write the workload's ring files.

    Returns (workload, cli module, seconds).  The package is dropped from
    ``sys.modules`` first, so every repetition pays the full import."""
    for mod in [m for m in sys.modules
                if m == "serrespec" or m.startswith("serrespec.")]:
        del sys.modules[mod]
    start = time.perf_counter()
    cli = importlib.import_module("serrespec.cli")
    w = workloads.build(name, WORK / name)
    w.workdir.mkdir(parents=True, exist_ok=True)
    for path, text in w.files().items():
        Path(path).write_text(text)
    elapsed = time.perf_counter() - start
    return w, cli, elapsed


def digest(code, text):
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


def reference_loop():
    """Fixed pure-Python work of the kinds serrespec does (bit masks, dict
    and list traffic, a keyed sort, string joins); it never changes, so its
    time tracks only the host's speed."""
    table = {}
    masks = []
    for i in range(1500):
        m = (i * 2654435761) & 0xFFFFF
        table[m & 511] = table.get(m & 511, 0) + (m & -m).bit_length()
        masks.append(m ^ (m >> 3))
    masks.sort(key=lambda m: (m.bit_count(), m))
    return ",".join(str(v) for v in table.values())


def reference_s():
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


@dataclass
class Pass:
    host: list     # seconds per command on the host clock
    ref: list      # the same at reference speed
    digests: list  # sha256 per report, None where the command raised
    out: list      # (ideals, primes, closed sets) listed


def run_pass(cli, cmds, pins, failures, trace=None):
    """Run the commands once.

    The reference loop runs between commands, outside the timed region,
    and each latency is also scaled by REF_S over the mean of the loop
    times before and after it: this host's speed drifts by a third within
    a minute, and the scaled latency does not follow it."""
    p = Pass([], [], [], [0, 0, 0])
    before = reference_s()
    for i, cmd in enumerate(cmds):
        if "dot" in cmd.expect:
            Path(cmd.expect["dot"]).unlink(missing_ok=True)
        if trace is not None:
            trace.cmd_id = i
        result = None
        start = time.perf_counter()
        try:
            result = cli.run_command(cmd.argv)
            text = cli.render_report(result.report)
        except Exception as exc:  # a crash is a failed command, not a stop
            result, crash = None, repr(exc)
        elapsed = time.perf_counter() - start
        after = reference_s()
        p.host.append(elapsed)
        p.ref.append(elapsed * 2 * REF_S / (before + after))
        before = after
        if result is None:
            p.digests.append(None)
            failures.append((cmd.key, [f"raised {crash}"]))
            continue
        h = digest(result.exit_code, text)
        p.digests.append(h)
        problems = workloads.check_report(cmd, result.exit_code,
                                          result.report)
        if pins is not None and pins.get(cmd.key) != h:
            problems.append("report differs from the pinned sha256")
        if problems:
            failures.append((cmd.key, problems))
        for j, v in enumerate(workloads.out_counts(result.report)):
            p.out[j] += v
    return p


def enough(passes, elapsed, seconds, n_cmds):
    """Stop once MIN_TIMED commands ran and another pass would end more
    than half a pass after ``seconds``."""
    need = math.ceil(MIN_TIMED / n_cmds)
    typical = statistics.median(sum(p.host) for p in passes)
    return len(passes) >= need and elapsed + typical / 2 > seconds


def geomean(values):
    return math.exp(statistics.fmean(math.log(x) for x in values))


def timings(passes, clock):
    """(pass seconds, geometric mean ms, 90th percentile ms): medians over
    passes, so one slow stretch moves one pass and not the result; the
    percentile pools every command."""
    per = [getattr(p, clock) for p in passes]
    pooled = [x for lat in per for x in lat]
    return (statistics.median(sum(lat) for lat in per),
            statistics.median(geomean(lat) for lat in per) * 1e3,
            statistics.quantiles(pooled, n=10)[8] * 1e3)


def measure(cli, cmds, pins, seconds, failures):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, cmds, pins, failures))
        if enough(passes, time.perf_counter() - start, seconds, len(cmds)):
            break
    if any(p.out != passes[0].out for p in passes):
        failures.append(("(pass)", ["output totals differ between passes"]))
    wall, geo, p90 = timings(passes, "host")
    print(f"host clock: wall_s {wall:.4f}  cmd_geomean_ms {geo:.4f}  "
          f"cmd_p90_ms {p90:.4f}  passes "
          + " ".join(f"{sum(p.host):.3f}" for p in passes))
    wall, geo, p90 = timings(passes, "ref")
    metrics = {"wall_ref_s": wall, "cmd_geomean_ref_ms": geo,
               "cmd_p90_ref_ms": p90,
               **dict(zip(("out_ideals", "out_primes", "out_closed_sets"),
                          passes[0].out))}
    return metrics, sum(len(p.host) for p in passes)


def measure_traced(cli, cmds, pins, seconds, failures, trace_file):
    tr = tracer.Tracer()
    plain, traced, summaries = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(cli, cmds, pins, failures))
        tr.install()
        try:
            traced.append(run_pass(cli, cmds, pins, failures, tr))
        finally:
            tr.restore()
        for cmd, a, b in zip(cmds, plain[-1].digests, traced[-1].digests):
            if a != b:
                failures.append((cmd.key, ["traced report differs"]))
        summaries.append(tr.summary())
        per_command = tr.per_command()
        tr.reset()
        pair = sum(plain[-1].host) + sum(traced[-1].host)
        if time.perf_counter() - start + pair / 2 > seconds:
            break
    # per-pass means of every summary entry
    k = len(summaries)
    agg = {"stats": {}, "under": {}, "counts": {}, "spans": 0,
           "traced_s": 0.0}
    for s in summaries:
        for name, values in s["stats"].items():
            a = agg["stats"].setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                a[i] += v
        for key in ("under", "counts"):
            for name, v in s[key].items():
                agg[key][name] = agg[key].get(name, 0) + v
        agg["spans"] += s["spans"]
        agg["traced_s"] += s["traced_s"]
    agg["stats"] = {n: [v / k for v in a] for n, a in agg["stats"].items()}
    for key in ("under", "counts"):
        agg[key] = {n: v / k for n, v in agg[key].items()}
    agg["spans"] /= k
    agg["traced_s"] /= k
    metrics = {name: fn(agg) for name, (_, _, fn) in PER_LAYER.items()
               if fn is not None}
    metrics["trace.overhead_pct"] = 100.0 * (
        timings(traced, "ref")[0] / timings(plain, "ref")[0] - 1.0)
    wall, geo, p90 = timings(plain, "host")
    metrics.update({"host.wall_s": wall, "host.cmd_geomean_ms": geo,
                    "host.cmd_p90_ms": p90,
                    "host.speed": sum(sum(p.ref) for p in plain)
                    / sum(sum(p.host) for p in plain)})
    trace_file.write_text(json.dumps({
        "metrics": metrics,
        "missing": tr.missing,
        "commands": [{"argv": c.argv, "spans": per_command.get(i, {})}
                     for i, c in enumerate(cmds)],
    }, indent=1) + "\n")
    return metrics, 2 * len(cmds) * len(plain)


def load_pins():
    try:
        return json.loads(PINS.read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read {PINS.name}: {exc}")


def pin():
    """Rewrite pins.json from every command in every workload pool."""
    pins, failures = {}, []
    for name in workloads.BUILDERS:
        w, cli, _ = setup(name)
        pool = w.pool()
        digests = run_pass(cli, pool, None, failures).digests
        pins.update(zip((c.key for c in pool), digests))
        print(f"{name}: {len(pool)} commands", file=sys.stderr)
    for key, problems in failures:
        print(f"FAIL {key}: {'; '.join(problems)}", file=sys.stderr)
    if failures:
        fail("not pinning a commit whose reports fail the gate")
    PINS.write_text(json.dumps(dict(sorted(pins.items())), indent=1) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true")
    args = p.parse_args()

    if not (SRC / "serrespec" / "__init__.py").is_file():
        fail(f"no serrespec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)  # ring paths inside reports are relative to the root
    if args.pin:
        return pin()
    if args.workload is None:
        p.error("--workload is required")
    pins = load_pins()

    setups, host_setups = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_s()
        w, cli, elapsed = setup(args.workload)
        setups.append(elapsed * 2 * REF_S / (before + reference_s()))
        host_setups.append(elapsed)
    print(f"host clock: setup_s {statistics.median(host_setups):.4f}")
    if not str(Path(cli.__file__).resolve()).startswith(str(SRC)):
        fail(f"imported serrespec from {cli.__file__}, not {SRC}")
    cmds = w.commands(args.seed)
    failures = []
    if args.trace:
        trace_file = w.workdir / f"trace-{args.seed}.json"
        metrics, attempted = measure_traced(cli, cmds, pins, args.seconds,
                                            failures, trace_file)
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        metrics, attempted = measure(cli, cmds, pins, args.seconds, failures)
        metrics["setup_s"] = statistics.median(setups)
        metrics["ok_ratio"] = 1.0 - len(failures) / attempted
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        units = {k: v[0] for k, v in END_TO_END.items()}
        metrics = {k: metrics[k] for k in END_TO_END}

    for key, problems in failures[:20]:
        print(f"FAIL {key}: {'; '.join(problems)}")
    print(f"{args.workload} seed={args.seed} commands/pass={len(cmds)} "
          f"attempted={attempted} failed={len(failures)}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
