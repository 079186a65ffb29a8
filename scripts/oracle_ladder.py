#!/usr/bin/env python3
"""Time the CLI's oracle, definitional prime check, spec, topology and
twocat classification commands on a fixed ladder of rings, one line per
ring.

    python3 scripts/oracle_ladder.py [ring name ...]

Each line gives the ring, its basis size n, its number of two-sided
ideals, its number of Serre primes, whether the oracle found the fast
and definitional checks in agreement, and the best of three wall times
of `oracle RING` (best=), of `check RING --ideal P --prop prime --mode
oracle` for the first Serre prime P in canonical order (defprime=), of
`spec RING` (spec=), of `topology RING --style zariski` (zariski=), of
`topology RING --style balmer` (balmer=) and of `twocat RING
--classify-cprimes` (twocat=) on the same ring file.  P is prime, so
its definitional check finds no pair and visits every pair of lattice
ideals escaping P: defprime= times that quadratic scan on its own, which
`oracle` runs once per prime among its other checks.  A timed run is
what one CLI call does, run_command and then render_report, and it
parses the ring afresh, so no lattice is cached between runs.  The rings
are diag-6..10 and tri-4..6 from tests/ladder.py, written as ring files
to a temporary directory, and the gallery's qplane-trunc-3..5; names
given on the command line pick a subset.  Run it in two checkouts to
compare them.
"""

import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from ladder import diagonal, upper_triangular  # noqa: E402

from serrespec import (enumerate_serre_ideals,  # noqa: E402
                       labels_from_mask, load_gallery, serre_spec)
from serrespec.cli import render_report, run_command  # noqa: E402
from serrespec.io import serialize_ring  # noqa: E402

RINGS = {
    **{f"diag-{k}": lambda name, k=k: diagonal(k) for k in range(6, 11)},
    **{f"tri-{k}": lambda name, k=k: upper_triangular(k) for k in (4, 5, 6)},
    **{f"qplane-trunc-{d}": load_gallery for d in (3, 4, 5)},
}
REPEATS = 3


def best_of(argv):
    """The last result of REPEATS runs of argv, each rendered, and the
    least wall time."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = run_command(argv)
        render_report(result.report)
        best = min(best, time.perf_counter() - start)
    return result, best


def measure(name, tmp):
    ring = RINGS[name](name)
    path = Path(tmp) / f"{name}.ring"
    path.write_text(serialize_ring(ring))
    result, best = best_of(["oracle", str(path)])
    prime = ",".join(labels_from_mask(ring, serre_spec(ring).primes[0]))
    _, defprime = best_of(["check", str(path), "--ideal", prime,
                           "--prop", "prime", "--mode", "oracle"])
    _, spec = best_of(["spec", str(path)])
    _, zariski = best_of(["topology", str(path), "--style", "zariski"])
    _, balmer = best_of(["topology", str(path), "--style", "balmer"])
    _, twocat = best_of(["twocat", str(path), "--classify-cprimes"])
    ideals = len(enumerate_serre_ideals(ring))
    primes = len(serre_spec(ring).primes)
    return (f"{name:<16} n={ring.size:<3} ideals={ideals:<6} "
            f"primes={primes:<3} ok={str(result.report['ok']):<5} "
            f"best={best * 1000:9.1f} ms  defprime={defprime * 1000:7.1f} ms  "
            f"spec={spec * 1000:7.1f} ms  "
            f"zariski={zariski * 1000:7.1f} ms  "
            f"balmer={balmer * 1000:7.1f} ms  "
            f"twocat={twocat * 1000:7.1f} ms")


def main():
    names = sys.argv[1:] or list(RINGS)
    unknown = [name for name in names if name not in RINGS]
    if unknown:
        sys.exit(f"unknown ladder ring(s): {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            print(measure(name, tmp), flush=True)


if __name__ == "__main__":
    main()
