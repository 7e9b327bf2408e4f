#!/usr/bin/env python3
"""Tests for scripts/compare_bench.py (standard library only).

Runs the comparator as a subprocess on small eblocks-bench/2 files and
checks its warnings and exit status.  Registered with ctest as
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
        """Runs the comparator on `doc`; returns (exit code, warnings, out)."""
        current = self.write("current.json", doc)
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--baseline", self.baseline, current,
             *extra],
            capture_output=True, text=True, check=False)
        warnings = [line for line in proc.stdout.splitlines()
                    if line.startswith("::warning::")]
        return proc.returncode, warnings, proc.stdout

    def edited(self, index, edit):
        doc = copy.deepcopy(BASELINE)
        edit(doc["records"][index])
        return doc

    def test_identical_files_give_no_warning(self):
        code, warnings, out = self.compare(BASELINE)
        self.assertEqual(code, 0)
        self.assertEqual(warnings, [])
        self.assertIn("9 exact values compared, 0 warning(s)", out)

    def test_one_changed_exact_value_gives_one_warning_naming_it(self):
        doc = self.edited(2, lambda r: r["exact"].update(allocs=3))
        code, warnings, _ = self.compare(doc)
        self.assertEqual(code, 0)
        self.assertEqual(len(warnings), 1)
        self.assertIn("bench_b", warnings[0])
        self.assertIn("moves/edges/n=100", warnings[0])
        self.assertIn("'allocs': 0 -> 3", warnings[0])

    def test_low_digits_of_a_checksum_count(self):
        doc = self.edited(2, lambda r: r["exact"].update(checksum=102965275))
        _, warnings, _ = self.compare(doc)
        self.assertEqual(len(warnings), 1)
        self.assertIn("102965274 -> 102965275", warnings[0])

    def test_missing_exact_value_warns(self):
        doc = self.edited(0, lambda r: r["exact"].pop("pruned"))
        _, warnings, _ = self.compare(doc)
        self.assertEqual(len(warnings), 1)
        self.assertIn("'pruned': 7 -> missing", warnings[0])

    def test_exact_value_moved_to_info_warns(self):
        def move(record):
            record["info"]["nodes"] = record["exact"].pop("nodes")
        _, warnings, _ = self.compare(self.edited(1, move))
        self.assertEqual(len(warnings), 1)
        self.assertIn("'nodes': 4500 -> missing", warnings[0])

    def test_missing_record_warns_for_each_exact_value(self):
        doc = copy.deepcopy(BASELINE)
        del doc["records"][1]
        _, warnings, _ = self.compare(doc)
        self.assertEqual(len(warnings), 3)
        self.assertTrue(all("w/n=2" in w for w in warnings))

    def test_changed_info_value_gives_no_warning(self):
        doc = self.edited(0, lambda r: r["info"].update(seconds=9.5))
        code, warnings, _ = self.compare(doc)
        self.assertEqual(code, 0)
        self.assertEqual(warnings, [])

    def test_new_workload_is_a_note_not_a_warning(self):
        doc = copy.deepcopy(BASELINE)
        doc["records"].append({"bench": "bench_a", "workload": "w/n=3",
                               "exact": {"nodes": 1}, "info": {}})
        code, warnings, out = self.compare(doc)
        self.assertEqual(code, 0)
        self.assertEqual(warnings, [])
        self.assertIn("note: new workload", out)

    def test_merged_out_holds_every_current_record(self):
        merged = os.path.join(self.tmp.name, "merged.json")
        code, _, _ = self.compare(BASELINE, "--merged-out", merged)
        self.assertEqual(code, 0)
        with open(merged, encoding="utf-8") as f:
            doc = json.load(f)
        self.assertEqual(doc["schema"], "eblocks-bench/2")
        self.assertEqual(len(doc["records"]), 3)

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
