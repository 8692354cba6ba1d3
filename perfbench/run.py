"""liftlab benchmark: one seeded workload, timed end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload local-r1 --seed 1 --seconds 15 \
        --trace 0

`--trace 0` measures the end-to-end metrics with no instrumentation;
`--trace 1` alternates untraced and traced passes and reports the
per-layer metrics.  The last line of stdout is the result object
`{"correct", "attempted", "failed", "metrics"}`; the line before it is
a `{"summary": ...}` object with the result digest, sample counts,
wall-clock figures and the metrics that are not part of the result
(see perfbench/README.md).

The run is one process and one thread, a closed loop with a single
caller: each op starts when the previous one has returned.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 3          # fresh-process set-ups per run (plus this one)
RSS_PASSES = 3             # peak_rss_mb is read after this many passes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("local-r1", "local-ext", "global-selmer", "modules",
             "lift-tower")
# Nominal times of the two parts of one SpeedProbe call: about their
# medians on the 2-core VM the bounds were set on.  Only the scale of the
# reported times depends on them.
PROBE_PRODUCTS_S = 1.7e-4
PROBE_ELIMINATIONS_S = 1.3e-4
PROBE_EVERY_S = 0.005
# Workloads whose ops are interpreter-bound work on small matrices: the
# probe's products alone follow their speed more closely than with the
# eliminations added (perfbench/README.md, "Nominal machine speed").
# Set-up is always scaled by the whole probe.
PRODUCTS_ONLY = ("local-r1", "local-ext", "lift-tower")


def _pin_environment():
    """One numpy thread; liftlab taken from this checkout only."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("LIFTLAB_DATA", None)   # read the checkout's own tables
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def _import_liftlab():
    if not (ROOT / "src" / "liftlab" / "__init__.py").is_file():
        raise SystemExit("perfbench: no liftlab sources under %s"
                         % (ROOT / "src"))
    import liftlab
    if Path(liftlab.__file__).resolve().parent != ROOT / "src" / "liftlab":
        raise SystemExit("perfbench: liftlab imported from %s, not from "
                         "this checkout" % liftlab.__file__)


class SpeedProbe:
    """A fixed kernel that calls no liftlab code: interpreter-bound
    products of 8x8 int64 matrices (the shape of liftlab's local and
    lift-tower paths), plus, unless `eliminations` is false, rank-one
    row updates of a 40x80 int64 matrix mod 13 (the shape of modp's
    eliminations).  The VM this benchmark was built on runs identical
    work 15-30% slower for stretches of seconds to minutes.  Run right
    after each op, once per PROBE_EVERY_S of the op's time, the probe's
    time follows those stretches, so each op's time is reported at the
    probe's nominal speed: multiplied by (the nominal call time) / (the
    probe's mean call time after that op).  One untimed call comes
    first, so that the state the op leaves in the caches and the
    allocator is not what gets timed."""

    def __init__(self, eliminations):
        import numpy as np
        self.np = np
        self.a0 = (np.arange(64).reshape(8, 8) % 7).astype(np.int64)
        self.m0 = (np.arange(40 * 80).reshape(40, 80) % 13).astype(np.int64)
        self.eliminations = eliminations
        self.nominal_s = PROBE_PRODUCTS_S + (PROBE_ELIMINATIONS_S
                                             if self.eliminations else 0.0)

    def call(self):
        a0 = a = self.a0
        acc = 0
        for i in range(40):
            a = (a @ a0 + i) % 97
            acc += int(a[i & 7, 3]) % 5
        if self.eliminations:
            m = self.m0
            for r in range(6):
                m = (m - self.np.outer(m[:, r], m[r])) % 13
            acc += int(m[0, 0])
        return acc

    def scale_after(self, op_s):
        """Factor from `op_s` measured seconds to nominal seconds."""
        calls = 1 + int(op_s / PROBE_EVERY_S)
        self.call()
        t = perf_counter()
        for _ in range(calls):
            self.call()
        return self.nominal_s * calls / (perf_counter() - t)


def _setup(workload, seed):
    """Import liftlab and generate the workload's inputs; returns (ops,
    wall seconds, seconds at nominal probe speed)."""
    t0 = perf_counter()
    _import_liftlab()
    import workloads
    ops = workloads.build(workload, seed)
    wall = perf_counter() - t0
    return ops, wall, wall * SpeedProbe(True).scale_after(wall)


def _setup_in_fresh_process(workload, seed):
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-only"],
        cwd=str(ROOT), env=os.environ.copy(), capture_output=True,
        text=True, timeout=120, check=True)
    wall, scaled = out.stdout.split()[-2:]
    return float(wall), float(scaled)


def _canon_text(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Runner:
    """Runs whole passes over the op list and checks every output
    against the first pass."""

    def __init__(self, workload, ops, canonical):
        self.workload = workload
        self.ops = ops
        self.canonical = canonical
        self.counted = sum(op.counted for op in ops)
        self.reference = None     # canonical text per op, first pass
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.op_s = [[] for _ in ops]   # scaled time per op per pass
        self.pass_wall = []
        self.pass_scaled = []

    def run_pass(self, tracer=None):
        """One pass; returns its op time at nominal probe speed.  Untraced
        passes also record every op's scaled time."""
        probe = SpeedProbe(self.workload not in PRODUCTS_ONLY)
        state = {}
        texts = []
        times = []
        scaled = []
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.begin_op(i, "op." + op.kind)
            s = perf_counter()
            try:
                out, ok = op.fn(state)
            except Exception:    # an op that raises is a failed op
                out, ok = {"error": traceback.format_exc(limit=2)}, False
                if len(self.errors) < 3:
                    self.errors.append(out["error"])
            times.append(perf_counter() - s)
            if tracer is not None:
                tracer.end_op()
            scaled.append(times[-1] * probe.scale_after(times[-1]))
            texts.append(_canon_text(self.canonical(out)))
            if op.counted:
                self.attempted += 1
                self.failed += not (ok and (self.reference is None
                                            or self.reference[i] == texts[-1]))
        if self.reference is None:
            self.reference = texts
        if tracer is None:
            for per_op, t in zip(self.op_s, scaled):
                per_op.append(t)
            self.pass_wall.append(sum(times))
            self.pass_scaled.append(sum(scaled))
        return sum(scaled)

    def ops_per_s(self):
        """Counted ops per second at nominal probe speed, each op's time
        being its median over the untraced passes (perfbench/README.md
        compares this with other estimators)."""
        return self.counted / sum(statistics.median(d) for d in self.op_s)

    def latencies(self, kind):
        return [t for op, per_op in zip(self.ops, self.op_s)
                if op.kind == kind for t in per_op]

    def digest(self):
        h = hashlib.sha256()
        for text in self.reference:
            h.update(text.encode())
            h.update(b"\n")
        return h.hexdigest()


def _metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def _spec_units(section):
    """{metric name: unit} of one metric list of BENCHMARK.json."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _write_spans(workload, seed, spans):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / ("spans-%s-seed%d.jsonl" % (workload, seed))
    with open(path, "w") as fh:
        for i, (name, t0, t1, parent, op) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                 "end": t1, "parent": parent, "op": op})
                     + "\n")
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _pin_environment()

    if args.setup_only:
        _, wall, scaled = _setup(args.workload, args.seed)
        print(repr(wall), repr(scaled))
        return 0

    _import_liftlab()
    setups = [_setup_in_fresh_process(args.workload, args.seed)
              for _ in range(SETUP_SAMPLES)]
    ops, wall, scaled = _setup(args.workload, args.seed)
    setups.append((wall, scaled))
    import workloads
    import tracing as tr
    runner = Runner(args.workload, ops, workloads.canonical)

    overheads, profiles = [], []
    tracer = tr.Tracer() if args.trace else None
    first_spans = None
    peak_rss_kb = None
    t_start = perf_counter()
    while True:
        plain = runner.run_pass()
        if len(runner.pass_wall) == RSS_PASSES:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.install()
            try:
                traced = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            overheads.append(traced / plain)
            profiles.append(tr.pass_profile(tracer.spans, tracer.counts,
                                            runner.counted))
            if first_spans is None:
                first_spans = tracer.spans
            tracer.reset()
        if ((args.trace or len(runner.pass_wall) >= RSS_PASSES)
                and perf_counter() - t_start >= args.seconds):
            break

    passes = len(runner.pass_wall)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "result_digest": runner.digest(),
        "correct": runner.failed == 0,
        "passes": passes, "ops_per_pass": runner.counted,
        "pass_s_wall": [round(t, 4) for t in runner.pass_wall],
        "pass_s": [round(t, 4) for t in runner.pass_scaled],
        "attempted": runner.attempted, "failed": runner.failed,
        "ops_per_s_wall": runner.counted / statistics.median(
            runner.pass_wall),
        "setup_s_wall": statistics.median(w for w, _ in setups),
    }
    if args.trace:
        spans_path = _write_spans(args.workload, args.seed, first_spans)
        signatures = [tr.count_signature(p) for p in profiles]
        values = tr.per_layer_metrics(profiles, statistics.median(overheads))
        units = _spec_units("per_layer")
        if set(values) != set(units):
            raise SystemExit("perfbench: traced metrics %s differ from "
                             "BENCHMARK.json per_layer"
                             % sorted(set(values) ^ set(units)))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
        summary.update({
            "traced_passes": len(profiles),
            "counts_repeat": all(s == signatures[0] for s in signatures),
            "layer_share": tr.layer_shares(profiles),
            "spans_file": str(spans_path.relative_to(ROOT)),
        })
        summary["correct"] = summary["correct"] and summary["counts_repeat"]
        result_metrics = metrics
    else:
        units = _spec_units("end_to_end")
        metrics = {
            "ops_per_s": _metric(runner.ops_per_s(), units["ops_per_s"],
                                 passes),
            "setup_s": _metric(statistics.median(s for _, s in setups),
                               units["setup_s"], len(setups)),
            "peak_rss_mb": _metric(peak_rss_kb / 1024.0,
                                   units["peak_rss_mb"], 1),
            # Summary only: 0 on a correct run (see perfbench/README.md).
            "fail_ratio": _metric(runner.failed / runner.attempted, "ratio",
                                  runner.attempted),
        }
        levels = runner.latencies("level")
        if levels:
            metrics["level_ms_p50"] = _metric(tr.pct_ms(levels, 0.5), "ms",
                                              len(levels))
            metrics["level_ms_p90"] = _metric(tr.pct_ms(levels, 0.9), "ms",
                                              len(levels))
        result_metrics = {k: {"value": metrics[k]["value"], "unit": unit}
                          for k, unit in units.items()}
    if runner.errors:
        summary["errors"] = runner.errors
    summary["metrics"] = metrics

    print("workload %s  seed %d  trace %d  passes %d  ops/pass %d"
          % (args.workload, args.seed, args.trace, passes, runner.counted))
    for name, m in metrics.items():
        print("  %-46s %14.6g %-8s %s" % (
            name, m["value"], m["unit"],
            "(n=%d)" % m["samples"] if "samples" in m else ""))
    print("  result_digest  %s" % summary["result_digest"])
    print("  verdict        %s" % ("correct" if summary["correct"]
                                  else "INCORRECT"))
    print(json.dumps({"summary": summary}, sort_keys=True))
    print(json.dumps({"correct": summary["correct"],
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": result_metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
