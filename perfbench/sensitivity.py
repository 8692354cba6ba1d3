"""Check that probe-scaled `ops_per_s` follows a known change in op cost.

    python3 perfbench/sensitivity.py

For each case below it builds the workload's op list (seed 21) twice: as
it is (A), and with extra work added to every op of one kind (B).  It
then alternates an A pass and a B pass in one process for SECONDS, so
both see the same machine speed, and prints the drop in `ops_per_s` that
B shows against A, once from wall time (median over pass pairs of B / A
pass time) and once from the probe-scaled `ops_per_s` the benchmark
reports.  If the probe passes changes in op cost through in proportion,
the two drops agree.  The extra work:

- repeat: the op runs twice (the same work again, same cache footprint);
- cache: after the op, 3 x amount in-place passes over a 32 MB int64
  array, which evict the caches the probe then runs in;
- interp: after the op, a pure-Python loop of 60000 x amount steps.

The cases take about 15 minutes.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

import run

SEED = 21
SECONDS = 120.0
CASES = (   # workload, op kind, extra work, amount
    ("local-r1", "stability_check", "repeat", 1),
    ("local-r1", "stability_check", "cache", 1),
    ("local-r1", "stability_check", "interp", 1),
    ("modules", "normalizer_decomposition", "repeat", 1),
    ("modules", "sym_adjoint_decomposition", "cache", 7),
    ("modules", "sym_adjoint_decomposition", "interp", 10),
    ("global-selmer", "selmer_model", "cache", 2),
)


def _with_extra(fn, extra, amount, big):
    if extra == "repeat":
        def op(state):
            fn(state)
            return fn(state)
    elif extra == "cache":
        def op(state):
            out = fn(state)
            for _ in range(3 * amount):
                big[...] += 1
            return out
    else:
        def op(state):
            out = fn(state)
            acc = 0
            for i in range(60000 * amount):
                acc += i & 7
            return out
    return op


def drops(workload, kind, extra, amount):
    """(wall drop, scaled drop, pass pairs) of one case."""
    import numpy as np
    import workloads
    ops, _, _ = run._setup(workload, SEED)
    big = np.zeros(4_000_000, dtype=np.int64)
    changed = [workloads.Op(op.kind, _with_extra(op.fn, extra, amount, big)
                            if op.kind == kind else op.fn, op.counted)
               for op in ops]
    a = run.Runner(workload, ops, workloads.canonical)
    b = run.Runner(workload, changed, workloads.canonical)
    t0 = perf_counter()
    while perf_counter() - t0 < SECONDS:
        a.run_pass()
        b.run_pass()
    if a.failed or b.failed:
        raise SystemExit("failed ops: %d plain, %d with extra work"
                         % (a.failed, b.failed))
    wall = statistics.median(y / x for x, y in zip(a.pass_wall, b.pass_wall))
    scaled = a.ops_per_s() / b.ops_per_s()
    return 1 - 1 / wall, 1 - 1 / scaled, len(a.pass_wall)


def main():
    run._pin_environment()
    print("%-14s %-26s %-10s %9s %11s %6s" % (
        "workload", "op kind", "extra", "wall drop", "scaled drop",
        "pairs"))
    for workload, kind, extra, amount in CASES:
        wall, scaled, pairs = drops(workload, kind, extra, amount)
        print("%-14s %-26s %-10s %9.3f %11.3f %6d" % (
            workload, kind, "%s x%d" % (extra, amount), wall, scaled,
            pairs), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
