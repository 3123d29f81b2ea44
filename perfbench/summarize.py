"""Medians and quartiles of benchmark results, per workload and metric.

    python3 perfbench/summarize.py [--out FILE] [RESULT.json ...]

Reads the records ``run.py`` writes (default: every file in
``.perfbench_out/results``) and prints, for each workload and metric, the
median over runs, the quartiles from ``statistics.quantiles(n=4)`` and the
spread (Q3 - Q1) / median, the figure a bound is judged against.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".perfbench_out" / "results"


def summarize(paths) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    runs = defaultdict(list)
    for path in paths:
        record = json.loads(Path(path).read_text())
        metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
        for name, value in metrics.items():
            values[record["workload"]][name].append(value)
        runs[record["workload"]].append({"seed": record["env"]["seed"], "trace": record["trace"],
                                         "commit": record["env"]["git_commit"]})
    out = {}
    for workload, metrics in values.items():
        rows = {}
        for name, vals in metrics.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            rows[name] = {"median": median, "q1": q1, "q3": q3, "n": len(vals),
                          "spread": (q3 - q1) / median if median else 0.0}
        out[workload] = {"runs": runs[workload], "metrics": rows}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="*", help="result records (default: all)")
    parser.add_argument("--out", help="also write the summary as JSON to this file")
    args = parser.parse_args(argv)
    summary = summarize(args.results or sorted(RESULTS.glob("*.json")))
    for workload, block in summary.items():
        for name, row in block["metrics"].items():
            print(f"{workload:18s} {name:32s} median {row['median']:<12.6g} "
                  f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                  f"spread {row['spread']:.4f} n {row['n']}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
