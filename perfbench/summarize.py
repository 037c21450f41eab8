#!/usr/bin/env python3
"""Summarise saved benchmark outputs: per workload and metric, the median and
the quartile spread (Q3 - Q1) / median over the runs.

    python3 perfbench/summarize.py OUT_DIR [--json]

OUT_DIR holds one file per run named `<workload>-<anything>.out`, each the
standard output of `perfbench/run.py`; only its last line is read.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarise(out_dir: Path) -> dict:
    runs: dict = defaultdict(lambda: defaultdict(list))
    correct: dict = defaultdict(list)
    for path in sorted(out_dir.glob("*.out")):
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        result = json.loads(lines[-1])
        workload = path.name.split("-", 1)[0]
        correct[workload].append(bool(result["correct"]))
        for name, metric in result["metrics"].items():
            runs[workload][name].append(metric["value"])
    summary = {}
    for workload, metrics in runs.items():
        rows = {}
        for name, values in metrics.items():
            med = statistics.median(values)
            spread = None
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(med)
            rows[name] = {"median": med, "spread": spread, "runs": len(values)}
        summary[workload] = {"all_correct": all(correct[workload]), "metrics": rows}
    return summary


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir", type=Path)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)
    summary = summarise(args.out_dir)
    if args.json:
        print(json.dumps(summary, indent=1))
        return 0
    for workload, entry in summary.items():
        print(f"{workload}: all correct = {entry['all_correct']}")
        for name, row in entry["metrics"].items():
            spread = "-" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"  {name:48s} median {row['median']:<14.6g} spread {spread}"
                  f"  ({row['runs']} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
