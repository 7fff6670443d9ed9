"""Summarise run records written by ``run.py``.

    python3 perfbench/summarize.py perfbench/out/results.jsonl

For each workload, prints every reported metric as median and quartiles
over the runs (quartiles as ``statistics.quantiles(values, n=4)`` gives
them), the spread (q3 - q1) / median, and the tracing overhead: median
traced ``trace.run_s`` minus median untraced ``run_s``.
"""

import json
import statistics
import sys
from collections import defaultdict


def summarize(records: list) -> str:
    groups = defaultdict(list)
    for rec in records:
        groups[(rec["workload"], rec["trace"])].append(rec)
    lines = []
    if records:
        env = dict(records[0]["env"])
        env.pop("seed", None)
        lines.append("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for (workload, trace), recs in sorted(groups.items()):
        seeds = sorted({r["seed"] for r in recs})
        failed = sum(r["result"]["failed"] for r in recs)
        attempted = sum(r["result"]["attempted"] for r in recs)
        lines.append(f"\n{workload} trace={trace}: {len(recs)} runs, seeds {seeds}, "
                     f"{attempted} operations, {failed} failed")
        for name in recs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in recs]
            unit = recs[0]["result"]["metrics"][name]["unit"]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            lines.append(f"  {name:<28} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                         f" spread {spread:6.3f}  {unit}")
    for workload in sorted({w for w, _ in groups}):
        plain, traced = groups.get((workload, 0)), groups.get((workload, 1))
        if plain and traced:
            base = statistics.median(r["values"]["run_s"] for r in plain)
            with_trace = statistics.median(r["values"]["trace.run_s"] for r in traced)
            lines.append(f"\ntracing overhead {workload}: {with_trace - base:+.3f} s "
                         f"({with_trace:.3f} s traced vs {base:.3f} s untraced)")
    return "\n".join(lines)


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:]) or ["perfbench/out/results.jsonl"]
    records = []
    for path in paths:
        with open(path) as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    print(summarize(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
