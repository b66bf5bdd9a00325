#!/usr/bin/env python3
"""Self-test of the across-run summary in spread.py: median, quartiles and
spread, checked against values worked out by hand.

    python3 perfbench/tests/spread_test.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spread import spread  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_ten_runs(self):
        # Exclusive quartiles of 1..10: positions 2.75 and 8.25.
        median, q1, q3, share = spread(list(range(10, 0, -1)))
        self.assertEqual(median, 5.5)
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(share, 5.5 / 5.5)

    def test_steady_runs(self):
        values = [100, 101, 99, 100, 102, 98, 100, 100, 101, 99]
        median, q1, q3, share = spread(values)
        self.assertEqual(median, 100)
        self.assertEqual((q1, q3), (99, 101))
        self.assertAlmostEqual(share, 0.02)

    def test_one_outlier_does_not_move_the_quartiles(self):
        values = [100, 101, 99, 100, 102, 98, 100, 100, 101, 500]
        median, q1, q3, _ = spread(values)
        self.assertEqual(median, 100)
        self.assertLess(q3, 110)


if __name__ == "__main__":
    unittest.main()
