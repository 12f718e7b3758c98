#!/usr/bin/env python3
"""Median and quartiles of each metric over bench_e2e run records.

    python3 bench/e2e/summarize.py RECORD.json... [--update-baseline FILE]
        [--update-reference FILE]

RECORDs are the --json files of run.py runs of one workload. The spread is
(Q3 - Q1) / median, with the quartiles of statistics.quantiles(n=4).
--update-baseline writes the workload's medians and quartiles into a
baseline file (see baseline.json); --update-reference writes the outputs of
every op that has any into a reference file (see reference_seed1.json).
Both keep the file's other workloads.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(records, section):
    rows = {}
    for name, first in records[0][section].items():
        values = [r[section][name]["value"] for r in records]
        q1, median, q3 = quartiles(values)
        rows[name] = {"median": median, "q1": q1, "q3": q3, "unit": first["unit"],
                      "spread": (q3 - q1) / median if median else 0.0,
                      "identical": len(set(values)) == 1}
    return rows


def update(path, workload, entry):
    path = Path(path)
    doc = json.loads(path.read_text()) if path.is_file() else {}
    doc[workload] = entry
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="+")
    parser.add_argument("--update-baseline")
    parser.add_argument("--update-reference")
    args = parser.parse_args()

    records = [json.loads(Path(p).read_text()) for p in args.records]
    workload = records[0]["workload"]
    if any(r["workload"] != workload for r in records):
        sys.exit("summarize.py: records of more than one workload")
    seeds = sorted({r["seed"] for r in records})
    failed = sum(not r["correct"] for r in records)
    print(f"{workload}: {len(records)} runs, seeds {seeds}, {failed} incorrect")
    sections = {}
    for section in ("end_to_end", "per_layer"):
        if not records[0][section]:
            continue
        sections[section] = summarize(records, section)
        print(f"  {'metric':32s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}")
        for name, row in sections[section].items():
            print(f"  {name:32s} {row['median']:14.6g} {row['q1']:14.6g} {row['q3']:14.6g}"
                  f" {row['spread']:8.2%} {row['unit']}{'  identical' if row['identical'] else ''}")

    if args.update_baseline:
        entry = {key: records[0][key] for key in ("seconds", "nproc", "compiler", "build_type")}
        entry.update(runs=len(records), seeds=seeds)
        for section, rows in sections.items():
            entry[section] = {name: {k: row[k] for k in ("median", "q1", "q3", "unit")}
                              for name, row in rows.items()}
        update(args.update_baseline, workload, entry)
    if args.update_reference:
        if len(seeds) != 1:
            sys.exit("summarize.py: a reference needs runs of one seed")
        ops = {}
        for record in records:
            for op in (op for op in record["ops"] if op["outputs"]):
                if ops.setdefault(op["name"], op["outputs"]) != op["outputs"]:
                    sys.exit(f"summarize.py: runs disagree on {op['name']}")
        update(args.update_reference, workload, {"seed": seeds[0], "ops": ops})
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
