"""Tests of the spread statistic and the median comparison:

    python3 -m unittest discover perfbench
"""

import statistics
import unittest

from stability import seeds, spread, worsening


class SpreadTest(unittest.TestCase):
    def test_exclusive_quartiles_over_the_median(self):
        # Exclusive quartiles of 1..10 are 2.75 and 8.25; the median is 5.5.
        self.assertAlmostEqual(spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)

    def test_is_scale_free_and_zero_for_identical_runs(self):
        v = [0.81, 0.79, 0.83, 0.80, 0.82, 0.78, 0.84, 0.80, 0.81, 0.79]
        self.assertAlmostEqual(spread(v), spread([1000 * x for x in v]))
        self.assertEqual(spread([4.0] * 10), 0.0)

    def test_matches_the_statistics_module(self):
        v = [44.0, 44.1, 43.9, 44.3, 44.0, 45.2, 44.1, 44.0, 43.8, 44.2]
        q1, _, q3 = statistics.quantiles(v, n=4)
        self.assertAlmostEqual(spread(v), (q3 - q1) / statistics.median(v))

    def test_worsening_follows_the_better_direction(self):
        self.assertAlmostEqual(worsening(100.0, 110.0, "lower"), 0.1)
        self.assertAlmostEqual(worsening(100.0, 110.0, "higher"), -0.1)
        self.assertAlmostEqual(worsening(50.0, 45.0, "higher"), 0.1)

    def test_seed_ranges(self):
        self.assertEqual(seeds("3-6"), [3, 4, 5, 6])
        self.assertEqual(seeds("7"), [7])


if __name__ == "__main__":
    unittest.main()
