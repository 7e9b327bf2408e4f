#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py [--seconds S]

Run it from the repository root.  It checks BENCHMARK.json against the
benchmark's format rules, then makes a short smoke pass of every workload
through perfbench/run.py:

  * untraced and traced, the last line of standard output must be the JSON
    result, with exactly the end-to-end (resp. per-layer) metrics that
    BENCHMARK.json names, each with its unit, and the run must check
    correct and exit 0;
  * with one output deliberately corrupted, the run must report
    correct=false with at least one failure and exit non-zero.

Exits 0 when every check passes.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_config(config):
    """Returns a list of problems with BENCHMARK.json."""
    problems = []
    if set(config) != {"command", "paths", "run_seconds", "workloads",
                       "end_to_end", "per_layer"}:
        problems.append(f"unexpected keys {sorted(config)}")
    if not 1 <= len(config.get("paths", [])) <= 16:
        problems.append("paths must list 1 to 16 directories")
    if not isinstance(config.get("run_seconds"), int) or \
            not 1 <= config["run_seconds"] <= 60:
        problems.append("run_seconds must be a whole number from 1 to 60")
    if not 2 <= len(config.get("workloads", [])) <= 8:
        problems.append("there must be 2 to 8 workloads")
    names = []
    for w in config.get("workloads", []):
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: needs one-line why <= 200")
    for m in config.get("end_to_end", []):
        names.append(m["name"])
        if set(m) != {"name", "unit", "better", "bound"} or \
                not 0 < m["bound"] <= 0.25:
            problems.append(f"end_to_end {m['name']}: bad keys or bound")
    for m in config.get("per_layer", []):
        names.append(m["name"])
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per_layer {m['name']}: bad keys")
    for m in config.get("end_to_end", []) + config.get("per_layer", []):
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"metric {m['name']}: bad unit or direction")
    problems += [f"bad name {n}" for n in names if not NAME.match(n)]
    if len(names) != len(set(names)):
        problems.append("names are not unique")
    setup = [m for m in config.get("end_to_end", []) if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (unit s, lower) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in config["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    return problems


def run(workload, seconds, trace, corrupt=0):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", str(seconds),
               "--trace", str(trace), "--corrupt", str(corrupt)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def check_result(result, expected):
    """Problems with one result line, given {metric name: unit}."""
    if result is None:
        return ["no result line"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append("metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')} != {unit}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a number")
    return problems


def main():
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        config = json.load(f)
    failures = [f"BENCHMARK.json: {p}" for p in check_config(config)]
    end_to_end = {m["name"]: m["unit"] for m in config["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in config["per_layer"]}

    for workload in (w["name"] for w in config["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            code, result, stderr = run(workload, args.seconds, trace)
            problems = check_result(result, expected)
            if code != 0 or not (result or {}).get("correct"):
                problems.append(f"exit {code}, correct="
                                f"{(result or {}).get('correct')}: {stderr[-400:]}")
            failures += [f"{workload} trace={trace}: {p}" for p in problems]
            print(f"{workload} trace={trace}: "
                  f"{'ok' if not problems else 'FAILED'}", flush=True)
        code, result, _ = run(workload, args.seconds, 0, corrupt=1)
        caught = code != 0 and result is not None and \
            result.get("correct") is False and result.get("failed", 0) >= 1
        if not caught:
            failures.append(f"{workload}: corrupted output not caught "
                            f"(exit {code}, result {result})")
        print(f"{workload} corrupted: {'caught' if caught else 'MISSED'}",
              flush=True)

    for failure in failures:
        print("FAIL " + failure, file=sys.stderr)
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
