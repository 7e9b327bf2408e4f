#!/usr/bin/env python3
"""Tests for scripts/compare_bench.py (standard library only).

Runs the comparator as a subprocess on small eblocks-bench/2 files and
checks its error annotations and exit status.  Registered with ctest as
`bench.compare`; run directly with `python3 scripts/compare_bench_test.py`.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "compare_bench.py")

BASELINE = {
    "schema": "eblocks-bench/2",
    "records": [
        {"bench": "bench_a", "workload": "w/n=1",
         "exact": {"nodes": 120, "pruned": 7, "cost": 3},
         "info": {"seconds": 0.0123}},
        {"bench": "bench_a", "workload": "w/n=2",
         "exact": {"nodes": 4500, "pruned": 0, "cost": 5},
         "info": {"seconds": 0.5}},
        {"bench": "bench_b", "workload": "moves/edges/n=100",
         "exact": {"moves": 262144, "allocs": 0, "checksum": 102965274},
         "info": {"seconds": 0.01}},
    ],
}


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.baseline = self.write("baseline.json", BASELINE)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def compare(self, doc, *extra):
        """Runs the comparator on `doc`; returns (exit code, errors, out)."""
        current = self.write("current.json", doc)
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--baseline", self.baseline, current,
             *extra],
            capture_output=True, text=True, check=False)
        errors = [line for line in proc.stdout.splitlines()
                  if line.startswith("::error::")]
        return proc.returncode, errors, proc.stdout

    def edited(self, index, edit):
        doc = copy.deepcopy(BASELINE)
        edit(doc["records"][index])
        return doc

    def test_identical_files_give_no_error(self):
        code, errors, out = self.compare(BASELINE)
        self.assertEqual(code, 0)
        self.assertEqual(errors, [])
        self.assertIn("9 exact values compared, 0 difference(s)", out)

    def test_one_changed_exact_value_fails_naming_it(self):
        doc = self.edited(2, lambda r: r["exact"].update(allocs=3))
        code, errors, out = self.compare(doc)
        self.assertEqual(code, 1)
        self.assertEqual(len(errors), 1)
        self.assertIn("bench_b", errors[0])
        self.assertIn("moves/edges/n=100", errors[0])
        self.assertIn("'allocs': 0 -> 3", errors[0])
        self.assertIn("9 exact values compared, 1 difference(s)", out)

    def test_low_digits_of_a_checksum_count(self):
        doc = self.edited(2, lambda r: r["exact"].update(checksum=102965275))
        code, errors, _ = self.compare(doc)
        self.assertEqual(code, 1)
        self.assertEqual(len(errors), 1)
        self.assertIn("102965274 -> 102965275", errors[0])

    def test_missing_exact_value_fails(self):
        doc = self.edited(0, lambda r: r["exact"].pop("pruned"))
        code, errors, _ = self.compare(doc)
        self.assertEqual(code, 1)
        self.assertEqual(len(errors), 1)
        self.assertIn("'pruned': 7 -> missing", errors[0])

    def test_exact_value_moved_to_info_fails(self):
        def move(record):
            record["info"]["nodes"] = record["exact"].pop("nodes")
        code, errors, _ = self.compare(self.edited(1, move))
        self.assertEqual(code, 1)
        self.assertEqual(len(errors), 1)
        self.assertIn("'nodes': 4500 -> missing", errors[0])

    def test_missing_record_fails_for_each_exact_value(self):
        doc = copy.deepcopy(BASELINE)
        del doc["records"][1]
        code, errors, _ = self.compare(doc)
        self.assertEqual(code, 1)
        self.assertEqual(len(errors), 3)
        self.assertTrue(all("w/n=2" in e for e in errors))

    def test_changed_info_value_gives_no_error(self):
        doc = self.edited(0, lambda r: r["info"].update(seconds=9.5))
        code, errors, _ = self.compare(doc)
        self.assertEqual(code, 0)
        self.assertEqual(errors, [])

    def test_new_workload_is_a_note_not_an_error(self):
        doc = copy.deepcopy(BASELINE)
        doc["records"].append({"bench": "bench_a", "workload": "w/n=3",
                               "exact": {"nodes": 1}, "info": {}})
        code, errors, out = self.compare(doc)
        self.assertEqual(code, 0)
        self.assertEqual(errors, [])
        self.assertIn("note: new workload", out)

    def test_merged_out_holds_every_current_record(self):
        merged = os.path.join(self.tmp.name, "merged.json")
        code, _, _ = self.compare(BASELINE, "--merged-out", merged)
        self.assertEqual(code, 0)
        with open(merged, encoding="utf-8") as f:
            doc = json.load(f)
        self.assertEqual(doc["schema"], "eblocks-bench/2")
        self.assertEqual(len(doc["records"]), 3)

    def test_merged_out_is_written_when_values_differ(self):
        # The regeneration recipe merges new output over the baseline
        # while its values still differ.
        merged = os.path.join(self.tmp.name, "merged.json")
        doc = self.edited(1, lambda r: r["exact"].update(nodes=4501))
        code, _, _ = self.compare(doc, "--merged-out", merged)
        self.assertEqual(code, 1)
        with open(merged, encoding="utf-8") as f:
            written = json.load(f)
        self.assertEqual(written["records"][1]["exact"]["nodes"], 4501)

    def test_v1_file_exits_non_zero(self):
        # Version 1 records carried fixed fields instead of the two maps.
        v1 = {"schema": "eblocks-bench/1",
              "records": [{"bench": "bench_a", "workload": "w/n=1",
                           "deterministic": True, "nodes": 120,
                           "pruned": 7, "seconds": 0.01, "cost": 3}]}
        code, _, _ = self.compare(v1)
        self.assertNotEqual(code, 0)
        # The flat fields are rejected under the current schema name too.
        v1["schema"] = BASELINE["schema"]
        code, _, _ = self.compare(v1)
        self.assertNotEqual(code, 0)

    def test_duplicate_record_exits_non_zero(self):
        doc = copy.deepcopy(BASELINE)
        doc["records"].append(copy.deepcopy(doc["records"][0]))
        code, _, _ = self.compare(doc)
        self.assertNotEqual(code, 0)

    def test_record_without_info_map_exits_non_zero(self):
        doc = self.edited(0, lambda r: r.pop("info"))
        code, _, _ = self.compare(doc)
        self.assertNotEqual(code, 0)


if __name__ == "__main__":
    unittest.main()
