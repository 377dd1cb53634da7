#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic, plus a schema smoke test.

    python3 perfbench/test_perfbench.py            # arithmetic + smoke
    python3 perfbench/test_perfbench.py Arithmetic # arithmetic only

The smoke test builds the driver (about a minute the first time) and runs
every workload on tiny inputs through `run.py --smoke`.
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402
import run  # noqa: E402


class Arithmetic(unittest.TestCase):
    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(values, 0.5), 50)
        self.assertEqual(metrics.percentile(values, 0.9), 90)
        self.assertEqual(metrics.percentile([7.0], 0.9), 7.0)
        self.assertEqual(metrics.percentile([3, 1, 2], 0.5), 2)
        with self.assertRaises(ValueError):
            metrics.percentile([], 0.5)

    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(metrics.samples_beyond(100, 0.9), 10)
        self.assertTrue(metrics.tail_rule_met(100, 0.9))
        self.assertEqual(metrics.samples_beyond(99, 0.9), 9)
        self.assertFalse(metrics.tail_rule_met(99, 0.9))
        self.assertTrue(metrics.tail_rule_met(20, 0.5))
        self.assertFalse(metrics.tail_rule_met(19, 0.5))
        # The samples beyond really are above the percentile.
        values = list(range(100))
        p = metrics.percentile(values, 0.9)
        self.assertEqual(sum(v > p for v in values),
                         metrics.samples_beyond(100, 0.9))

    def test_union_length_merges_overlaps(self):
        self.assertEqual(metrics.union_length([]), 0.0)
        self.assertEqual(metrics.union_length([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertEqual(metrics.union_length([(0, 10), (2, 3)]), 10.0)

    def test_self_time_subtracts_covered_children(self):
        children = {"p": {"c"}}
        events = [
            ("p", "x", 0, 0.0, 100.0),
            ("c", "x", 0, 10.0, 30.0),
            ("c", "x", 0, 20.0, 40.0),    # overlaps the first child
            ("c", "x", 0, 90.0, 120.0),   # runs past the parent's end
            ("c", "x", 1, 50.0, 60.0),    # another lane: not a child
            ("other", "x", 0, 60.0, 70.0),  # not named as a child
        ]
        out = metrics.self_times(events, children)
        self.assertEqual(out[0], ("p", "x", 0, 100.0 - 30.0 - 10.0))
        # Spans without children keep their whole duration.
        self.assertEqual([s for *_, s in out[1:]], [20.0, 20.0, 30.0, 10.0, 10.0])

    def test_rank_span_metrics_take_the_slowest_lane(self):
        events = [
            ("collide", "lbm", 0, 0.0, 4000.0),
            ("overlap.wait", "overlap", 0, 4000.0, 5000.0),
            ("collide", "lbm", 1, 0.0, 2000.0),
            ("overlap.wait", "overlap", 1, 2000.0, 5000.0),
            ("service.scenario", "service", 0, 0.0, 9000.0),
        ]
        out, covered = metrics.rank_span_metrics(events, steps=2)
        self.assertEqual(out["lbm.collide_ms"], 2.0)   # 4 ms over 2 steps
        self.assertEqual(out["core.wait_ms"], 1.5)
        self.assertAlmostEqual(out["core.rank_imbalance"], 4.0 / 3.0)
        self.assertEqual(covered, 2.5)

    def test_open_loop_lateness(self):
        late = metrics.lateness_ms([0.0, 100.0, 200.0], [0.5, 99.0, 460.0])
        self.assertEqual(late, [0.5, 0.0, 260.0])
        self.assertTrue(metrics.generator_fell_behind(late))
        self.assertFalse(metrics.generator_fell_behind(late[:2]))
        self.assertFalse(metrics.generator_fell_behind([]))

    def test_refusals_count_as_failures(self):
        self.assertEqual(metrics.accounting(100, 3, 2), (100, 5, 0.05))
        self.assertEqual(metrics.accounting(1, 0, 0), (1, 0, 0.0))
        with self.assertRaises(ValueError):
            metrics.accounting(0, 0, 0)

    def test_validate_flags_schema_errors(self):
        spec = {"end_to_end": [{"name": "a_ms", "unit": "ms"}],
                "per_layer": [{"name": "b", "unit": "count"}]}
        good = {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"a_ms": {"value": 1.5, "unit": "ms"}}}
        self.assertEqual(run.validate(good, spec, trace=False), [])
        bad = dict(good, attempted=0,
                   metrics={"a_ms": {"value": "1", "unit": "s"}})
        self.assertEqual(len(run.validate(bad, spec, trace=False)), 3)
        self.assertTrue(run.validate(good, spec, trace=True))


class Smoke(unittest.TestCase):
    def test_every_workload_on_tiny_inputs(self):
        r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                            "--smoke"], cwd=os.path.dirname(HERE),
                           capture_output=True, text=True, timeout=1800)
        self.assertEqual(r.returncode, 0, r.stderr[-4000:])


if __name__ == "__main__":
    unittest.main()
