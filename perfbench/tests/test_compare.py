"""Tests of the compare mode's quartiles and verdicts."""

import statistics
import unittest

import compare


class QuartileTests(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, med, q3 = compare.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_exclusive_method_on_ten_values(self):
        # Positions (n+1)p: 2.75, 5.5, 8.25 on the sorted values 1..10.
        self.assertEqual(compare.quartiles([float(v) for v in range(10, 0, -1)]),
                         (2.75, 5.5, 8.25))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(compare.quartiles([7.0]), (7.0, 7.0, 7.0))


class VerdictTests(unittest.TestCase):
    def test_separates_only_beyond_first_sides_spread(self):
        a = [100.0, 101.0, 102.0, 103.0, 104.0]
        inside = compare.compare_metric(a, [v + 2.0 for v in a])
        outside = compare.compare_metric(a, [v + 10.0 for v in a])
        self.assertFalse(inside["separates"])
        self.assertTrue(outside["separates"])
        self.assertAlmostEqual(outside["delta_share"], 10.0 / 102.0)

    def test_rows_cover_shared_metrics_and_failed_share(self):
        run = {"correct": True, "attempted": 10, "failed": 0,
               "metrics": {"p50_us": {"value": 5.0, "unit": "us"}}}
        rows = list(compare.compare({("w", 0): [run, run]}, {("w", 0): [run]}))
        self.assertEqual([r[2] for r in rows], ["p50_us", "failed/attempted"])
        self.assertEqual(rows[1][4]["shares"], [(0, 20), (0, 10)])


if __name__ == "__main__":
    unittest.main()
