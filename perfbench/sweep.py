"""Run the benchmark over several seeds and collect a result file.

    python3 perfbench/sweep.py --out perfbench/results/base.jsonl \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads local-r1 ...] [--trace 1]

Each run is `perfbench/run.py` in its own process, one after another,
with `run_seconds` from BENCHMARK.json.  The summary of every run is
appended to --out; at the end the spread (q3 - q1) / median of each
end-to-end metric over the runs is printed next to its bound, together
with the distinct result digests per seed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import compare

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None):
    spec = json.loads(compare.BENCHMARK.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ok = True
    with open(args.out, "a") as fh:
        for workload in args.workloads:
            for seed in args.seeds:
                proc = subprocess.run(
                    [sys.executable, str(RUN), "--workload", workload,
                     "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]),
                     "--trace", str(args.trace)],
                    cwd=str(ROOT), capture_output=True, text=True,
                    timeout=600)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    print("run failed: %s seed %d (exit %d)\n%s"
                          % (workload, seed, proc.returncode,
                             proc.stderr[-2000:]), file=sys.stderr)
                    ok = False
                    continue
                summary = json.loads(lines[-2])["summary"]
                ok = ok and summary["correct"]
                fh.write(json.dumps({"summary": summary}, sort_keys=True)
                         + "\n")
                fh.flush()
                print("%s seed %d: %s" % (workload, seed, " ".join(
                    "%s=%.5g" % (k, v["value"])
                    for k, v in summary["metrics"].items()
                    if args.trace == 0)), flush=True)

    runs = compare.load(args.out)
    bounds = compare.bounds()
    print("\n%-14s %-14s %8s %8s %6s" % ("workload", "metric", "median",
                                         "spread", "bound"))
    for (workload, trace), summaries in sorted(runs.items()):
        if trace != args.trace or workload not in args.workloads:
            continue
        mine = [s for s in summaries if s["seed"] in args.seeds]
        digests = defaultdict(set)
        for s in mine:
            digests[s["seed"]].add(s["result_digest"])
        if any(len(d) > 1 for d in digests.values()):
            print("%s: result digests differ between runs of one seed"
                  % workload)
            ok = False
        if trace:
            continue
        for name, spec_m in bounds.items():
            vals = [s["metrics"][name]["value"] for s in mine]
            print("%-14s %-14s %8.4g %8.4f %6.2f" % (
                workload, name, compare.quartiles(vals)[1],
                compare.spread(vals), spec_m["bound"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
