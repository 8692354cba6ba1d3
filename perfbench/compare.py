"""Compare two benchmark result files, one row per (workload, metric).

A result file holds one `{"summary": ...}` JSON object per line, as
written by perfbench/sweep.py (or collected from the second-to-last
stdout line of perfbench/run.py).  Usage:

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

For each side the row shows the median and the first and third
quartiles (`statistics.quantiles(values, n=4)`).  The verdict uses the
bounds in BENCHMARK.json:

- unresolved: either side's spread (q3 - q1) / median exceeds the
  bound, unless every change run reads better than every base run;
- worse: the change median is worse than the base median by more
  than bound x base median;
- improved: the change median is better by more than the base's own
  quartile spread and by more than a third of the bound (the spread a
  steady run stays under, so the smallest change the benchmark
  resolves), and the change wins at least 9 in 10 of the paired runs;
- unchanged: otherwise.

Runs are paired by (seed, occurrence): the k-th base run of a seed with
the k-th change run of that seed, so a file may hold several runs of
one seed and every run counts.  Metrics without a bound (the per-layer
ones, and the end-to-end ones the result line does not carry) are
listed with verdict "-".  After the table, every (workload, seed) whose
`result_digest`s differ between or within the two files is listed: the
outputs must be identical on both sides.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, trace): [summary, ...]} from a result file."""
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            s = json.loads(line).get("summary")
            if s is not None:
                runs[(s["workload"], s["trace"])].append(s)
    return runs


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def bounds():
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def by_run(summaries, name):
    """{(seed, occurrence): value} of one metric, in file order."""
    out, seen = {}, Counter()
    for s in summaries:
        if name in s["metrics"]:
            out[(s["seed"], seen[s["seed"]])] = s["metrics"][name]["value"]
            seen[s["seed"]] += 1
    return out


def verdict(base, change, spec):
    """Verdict for one metric; base and change are {(seed, k): value}."""
    if spec is None:
        return "-"
    sign = 1.0 if spec["better"] == "higher" else -1.0
    a, b = list(base.values()), list(change.values())
    bound = spec["bound"]
    if spread(a) > bound or spread(b) > bound:
        if min(sign * x for x in b) > max(sign * x for x in a):
            return "improved"
        return "unresolved"
    q1a, meda, q3a = quartiles(a)
    medb = quartiles(b)[1]
    gain = sign * (medb - meda)
    if gain < -bound * abs(meda):
        return "worse"
    pairs = [s for s in base if s in change]
    wins = sum(sign * (change[s] - base[s]) > 0 for s in pairs)
    if (gain > max(q3a - q1a, bound / 3.0 * abs(meda)) and pairs
            and wins >= 0.9 * len(pairs)):
        return "improved"
    return "unchanged"


def rows(base_runs, change_runs):
    specs = bounds()
    out = []
    for key in sorted(set(base_runs) & set(change_runs)):
        workload, trace = key
        names = sorted({n for s in base_runs[key] + change_runs[key]
                        for n in s["metrics"]})
        for name in names:
            base = by_run(base_runs[key], name)
            change = by_run(change_runs[key], name)
            if not base or not change:
                continue
            spec = specs.get(name) if trace == 0 else None
            out.append((workload, name, quartiles(list(base.values())),
                        quartiles(list(change.values())),
                        verdict(base, change, spec)))
    return out


def digest_mismatches(base_runs, change_runs):
    """[(workload, seed)] whose result digests are not all one value."""
    digests = defaultdict(set)
    for runs in (base_runs, change_runs):
        for (workload, _), summaries in runs.items():
            for s in summaries:
                digests[(workload, s["seed"])].add(s["result_digest"])
    return sorted(k for k, d in digests.items() if len(d) > 1)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    print("%-14s %-44s %-32s %-32s %s" % ("workload", "metric",
                                          "base q1 / median / q3",
                                          "change q1 / median / q3",
                                          "verdict"))
    for workload, name, qa, qb, v in rows(base, change):
        print("%-14s %-44s %-32s %-32s %s" % (
            workload, name, "%.4g / %.4g / %.4g" % qa,
            "%.4g / %.4g / %.4g" % qb, v))
    mismatches = digest_mismatches(base, change)
    for workload, seed in mismatches:
        print("DIGEST MISMATCH  %s seed %d" % (workload, seed))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
