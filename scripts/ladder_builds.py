#!/usr/bin/env python3
"""Time build_ring and the ring-file parse on a fixed ladder of rings,
one line per ring.

    python3 scripts/ladder_builds.py [ring name ...]

Each line gives the ring, its basis size n, its number of nonzero
structure-constant terms, the route its associativity check takes
("packed"; "commutative", the packed check of a commutative table,
which builds only the (ab)c slices; "sparse", where the work rule
refuses packing; or "sparse-wide", where the work rule admits it and the
memory rule refuses), whether the unit triples were skipped ("skip",
else "full"; see zring._unit_check), and then twice the best of three
times on the host clock and at reference speed and the peak of a fourth
run traced with tracemalloc: first for build_ring, then, after the
parsed table's own route, for parse_ring_file on the ring's
serialize_ring text, the path a CLI command takes.  Both validate the
ring's table from scratch; the parsed table shares one row object among
the products with one text, where the built one has a row per product.
The last column times ideals.principal_closures on the left, right and
two-sided side, the best of three host-clock times each, with the
absorb tables already built: the n closures every lattice, spectrum and
topology starts from.
The rings are the gallery's verlinde-sl2-16/40/60 and
qplane-trunc-5/10/15/19/20/25, tri-6/16/40, diag-10/150/400/1000 and
diag-block-400 from tests/ladder.py, and the benchmark's qmono-3-deg4;
the bench-sized ones (qplane-trunc-5, tri-6, diag-10, qmono-3-deg4) time
the sparse side of the work rule.  Names given on the command line pick
a subset.  Run it in two checkouts to compare them.

Host-clock times on a shared host can move by half between runs of the
same code.  The reference-speed time scales each run by REF_S over
the mean time of bench/run.py's fixed reference loop, run just before
and just after it, as the benchmark scales its commands; compare those
across checkouts.
"""

import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "bench"))

from ladder import diagonal, upper_triangular  # noqa: E402
from oracles import table_of  # noqa: E402
from run import REF_S, reference_s  # noqa: E402
from workloads import TWISTS  # noqa: E402

from serrespec import (build_ring, load_gallery,  # noqa: E402
                       parse_ring_file, serialize_ring)
from serrespec.ideals import principal_closures  # noqa: E402
from serrespec.monomial import MonomialRing, truncate_to_ring  # noqa: E402
from serrespec.zring import (SIDES, _by_middle,  # noqa: E402
                             _packed_mismatches, _packing_pays, _unit_check,
                             is_commutative)

RINGS = {
    **{f"verlinde-sl2-{k}": load_gallery for k in (16, 40, 60)},
    **{f"qplane-trunc-{d}": load_gallery for d in (5, 10, 15, 19, 20, 25)},
    **{f"tri-{k}": (lambda name, k=k: upper_triangular(k))
       for k in (6, 16, 40)},
    **{f"diag-{k}": (lambda name, k=k: diagonal(k))
       for k in (10, 150, 400, 1000)},
    "diag-block-400": lambda name: diagonal(400, blocks=True),
    "qmono-3-deg4": lambda name: truncate_to_ring(
        MonomialRing(3, TWISTS[1]), 4, name),
}
REPEATS = 3


def build(ring, table):
    blocks = None if ring.blocks is None else dict(enumerate(ring.blocks))
    return build_ring(ring.labels, table, ring.mode, blocks,
                      ring.units, ring.name)


def route(ring, skip):
    """The associativity route build_ring takes: the work rule first, then
    the memory rule, as in zring._associativity_violations."""
    if not _packing_pays(ring.tensor, ring.size):
        return "sparse"
    middle = _by_middle(ring.tensor, ring.size, skip)
    if _packed_mismatches(ring.tensor, middle) is None:
        return "sparse-wide"
    return "commutative" if is_commutative(ring.tensor) else "packed"


def skipped_units(ring):
    """The indices whose triples build_ring's check leaves out."""
    if ring.units is None:
        return frozenset()
    return _unit_check(ring.labels, ring.tensor, ring.units)[1]


def timed(run):
    """'best=... ref=... peak=...' for run(): the best of REPEATS runs on
    the host clock and at reference speed, and a traced run's peak."""
    best = best_ref = float("inf")
    for _ in range(REPEATS):
        before = reference_s()
        start = time.perf_counter()
        run()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        scale = 2 * REF_S / (before + reference_s())
        best_ref = min(best_ref, elapsed * scale)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (f"best={best * 1000:10.3f} ms  ref={best_ref * 1000:10.3f} ms  "
            f"peak={peak / 2 ** 20:6.1f} MB")


def closure_times(ring):
    """'closures left=... right=... two=...': the best of REPEATS
    host-clock times of principal_closures on each side, from a cleared
    cache and built absorb tables."""
    ring.two_sided_absorb
    times = []
    for side in SIDES:
        best = float("inf")
        for _ in range(REPEATS):
            ring.cache.clear()
            start = time.perf_counter()
            principal_closures(ring, side)
            best = min(best, time.perf_counter() - start)
        times.append(f"{side}={best * 1000:.3f} ms")
    return "closures " + " ".join(times)


def measure(name):
    ring = RINGS[name](name)
    table = table_of(ring)
    text = serialize_ring(ring)
    skip = skipped_units(ring)
    path = route(ring, skip)
    parsed = route(parse_ring_file(text), skip)
    terms = sum(map(len, ring.tensor.values()))
    return (f"{name:<16} n={ring.size:<4} terms={terms:<7} {path:<12}"
            f"{'skip' if skip else 'full':<5} "
            f"build {timed(lambda: build(ring, table))}  "
            f"parse {parsed:<12}{timed(lambda: parse_ring_file(text))}  "
            f"{closure_times(ring)}")


def main():
    names = sys.argv[1:] or list(RINGS)
    unknown = [name for name in names if name not in RINGS]
    if unknown:
        sys.exit(f"unknown ladder ring(s): {', '.join(unknown)}")
    for name in names:
        print(measure(name), flush=True)


if __name__ == "__main__":
    main()
