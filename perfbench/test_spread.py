"""Tests of the run-to-run spread computation in spread.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spread import relative_spread  # noqa: E402


class RelativeSpreadTest(unittest.TestCase):
    def test_matches_statistics_quartiles_over_median(self):
        vals = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        self.assertAlmostEqual(relative_spread(vals),
                               (q3 - q1) / statistics.median(vals))

    def test_known_value(self):
        # exclusive method on 1..9: Q1 = 2.5, Q3 = 7.5, median 5.
        self.assertAlmostEqual(relative_spread(list(range(1, 10))), 1.0)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(relative_spread([1.0] * 10), 0.0)
        self.assertEqual(relative_spread([0.0] * 10), 0.0)

    def test_scale_free_and_order_free(self):
        vals = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6]
        self.assertAlmostEqual(relative_spread(vals),
                               relative_spread([v * 1000 for v in vals]))
        self.assertAlmostEqual(relative_spread(vals),
                               relative_spread(sorted(vals)))

    def test_one_outlier_moves_it_little(self):
        base = [100.0 + i for i in range(10)]
        spiked = base[:-1] + [1000.0]
        self.assertLess(relative_spread(spiked) - relative_spread(base), 0.02)

    def test_zero_median_with_spread_is_infinite(self):
        self.assertTrue(math.isinf(relative_spread([-1.0, 0.0, 0.0, 1.0])))

    def test_needs_two_values(self):
        with self.assertRaises(ValueError):
            relative_spread([1.0])


if __name__ == "__main__":
    unittest.main()
