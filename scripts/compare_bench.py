#!/usr/bin/env python3
"""Diff machine-readable bench output against the committed baseline.

The benches emit "eblocks-bench/2" JSON (see bench/bench_json.h and
docs/benchmarks.md): one record per (bench, workload), with an `exact`
map of values that reproduce bit-for-bit on every run, machine and
compiler, and an `info` map (wall times, rates, speedups) that is never
compared.  This script merges one or more current output files and, for
every baseline record, requires each exact value to appear in the
current record's exact map with the same number.  Every difference --
changed, missing, or moved to info -- prints one GitHub-annotation error
naming the bench, workload, value, old and new.

Exit status: 0 when every exact value matches; 1 when any differs or is
missing, so CI fails until a deliberate algorithm change ships its own
baseline update; other non-zero codes for malformed input, a duplicate
record, or a file of another schema.  A workload the baseline lacks is
only a note.  --merged-out is written before the comparison, so the
regeneration recipe in docs/benchmarks.md works while values differ.

Usage:
  scripts/compare_bench.py --baseline bench/baselines/BENCH_partition.json \
      [--merged-out BENCH_partition.json] current1.json [current2.json ...]
"""

import argparse
import json
import sys

SCHEMA = "eblocks-bench/2"


def load_records(path):
    """Returns {(bench, workload): record} from one JSON file."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        sys.exit(f"error: {path}: expected schema '{SCHEMA}', "
                 f"got '{doc.get('schema')}'")
    records = {}
    for record in doc.get("records", []):
        key = (record["bench"], record["workload"])
        if not all(isinstance(record.get(m), dict) for m in ("exact", "info")):
            sys.exit(f"error: {path}: record {key} lacks an exact or info map")
        if key in records:
            sys.exit(f"error: {path}: duplicate record {key}")
        records[key] = record
    return records


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON")
    parser.add_argument("--merged-out", default=None,
                        help="write the merged current records to this "
                             "path (the CI artifact)")
    parser.add_argument("current", nargs="+",
                        help="bench output files to compare")
    args = parser.parse_args()

    baseline = load_records(args.baseline)
    current = {}
    for path in args.current:
        for key, record in load_records(path).items():
            if key in current:
                sys.exit(f"error: {path}: duplicate record {key} (already "
                         f"seen in another current file)")
            current[key] = record

    if args.merged_out:
        merged = [current[key] for key in sorted(current)]
        with open(args.merged_out, "w", encoding="utf-8") as f:
            json.dump({"schema": SCHEMA, "records": merged}, f, indent=2)
            f.write("\n")
        print(f"merged {len(merged)} records -> {args.merged_out}")

    compared = differences = 0
    for (bench, workload), base in sorted(baseline.items()):
        exact = current.get((bench, workload), {}).get("exact", {})
        for name, old in sorted(base["exact"].items()):
            compared += 1
            new = exact.get(name, "missing")
            if new != old:
                print(f"::error::bench {bench} workload '{workload}' exact "
                      f"value '{name}': {old} -> {new}. If intentional, "
                      f"regenerate bench/baselines/ (see docs/benchmarks.md).")
                differences += 1

    for key in sorted(set(current) - set(baseline)):
        print(f"note: new workload {key} not in the baseline; add it by "
              f"regenerating bench/baselines/")

    print(f"compare_bench: {compared} exact values compared, "
          f"{differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
