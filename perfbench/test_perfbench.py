"""Harness tests: the tail-percentile rule, the seeded generator, and the
driver's ROSpec classification (its --self-test).

    python3 perfbench/test_perfbench.py

The classification test builds the driver first if needed (about a minute
on four cores).
"""

import os
import random
import statistics
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen_inputs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402


class TailRule(unittest.TestCase):
    def test_exactly_ten_samples_beyond(self):
        for n in (21, 22, 37, 48, 100, 1000):
            xs = random.Random(n).sample(range(10 * n), n)
            value, pct, count = metrics.tail(xs)
            self.assertEqual(count, n)
            self.assertEqual(sum(1 for x in xs if x > value), 10, n)
            self.assertGreaterEqual(value, statistics.median(xs), n)

    def test_percentile_label(self):
        self.assertEqual(metrics.tail(list(range(100)))[:2], (89, 90.0))
        self.assertEqual(metrics.tail(list(range(40)))[:2], (29, 75.0))
        self.assertAlmostEqual(metrics.tail(list(range(21)))[1], 1100.0 / 21)

    def test_order_independent(self):
        xs = [float(x) for x in random.Random(5).sample(range(100), 30)]
        self.assertEqual(metrics.tail(xs), metrics.tail(sorted(xs)))
        self.assertEqual(metrics.tail(xs)[0], sorted(xs)[19])

    def test_fewer_than_21_samples_give_the_maximum(self):
        self.assertEqual(metrics.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        self.assertEqual(metrics.tail(list(range(12))), (11, 100.0, 12))
        self.assertEqual(metrics.tail(list(range(20)))[:2], (19, 100.0))
        with self.assertRaises(ValueError):
            metrics.tail([])


class OverheadPairs(unittest.TestCase):
    @staticmethod
    def rep(traced, host_ms):
        return {"traced": traced, "cycles": [
            {"timed": True, "host_ms": x} for x in host_ms]}

    def test_median_of_order_swapped_pairs(self):
        reps = [self.rep(False, [100, 100]), self.rep(True, [110, 110]),
                self.rep(True, [90, 90]), self.rep(False, [100, 100]),
                self.rep(False, [200, 200]), self.rep(True, [260, 260])]
        ratios = metrics.overhead_ratios(reps)
        self.assertEqual(ratios, [1.1, 0.9, 1.3])


class Generator(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in gen_inputs.WORKLOADS:
            self.assertEqual(gen_inputs.generate(w, 3), gen_inputs.generate(w, 3))
            self.assertNotEqual(gen_inputs.generate(w, 3),
                                gen_inputs.generate(w, 4))

    def test_fleet_schedule_in_arrival_order(self):
        starts = [float(line.split()[2])
                  for line in gen_inputs.generate("conveyor-fleet", 1).splitlines()
                  if line.startswith("parcel ")]
        self.assertEqual(starts, sorted(starts))
        self.assertLess(starts[0], 0.0)  # belt already full at t = 0
        self.assertGreater(starts[-1],
                           gen_inputs.WORKLOADS["conveyor-fleet"]["horizon_s"])

    def test_scene_sizes(self):
        text = gen_inputs.generate("steady-2k", 1).splitlines()
        self.assertEqual(sum(1 for l in text if l.startswith("turntable ")), 100)
        self.assertEqual(sum(1 for l in text if l.startswith("static ")), 1900)


class Classification(unittest.TestCase):
    def test_driver_self_test(self):
        driver = run.build(run.build_dir())
        proc = subprocess.run([driver, "--self-test"], capture_output=True,
                              text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
