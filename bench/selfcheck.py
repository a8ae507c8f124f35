"""Checks of the benchmark harness itself.  Run: python3 bench/selfcheck.py

They need nothing from the program except the last test, which enumerates
every coset-count presentation the query stream can draw and is skipped
when kgunits cannot be imported.
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import queries  # noqa: E402
import tracing  # noqa: E402


def _stream(seed, blocks=3):
    return [q for block in queries.blocks(seed, blocks) for q in block]


class StreamTest(unittest.TestCase):
    def test_same_seed_same_stream(self):
        self.assertEqual(_stream(7), _stream(7))
        self.assertNotEqual(_stream(7), _stream(8))

    def test_every_block_has_the_same_mix(self):
        for block in queries.blocks(3, 4):
            props = queries.properties([block])
            rounds = queries.ROUNDS_PER_BLOCK
            self.assertEqual(props["per_kind"], {
                "unit-group": rounds * len(queries.ROUND_UNIT_GROUP),
                "decompose": rounds * queries.ROUND_DECOMPOSE,
                "coset-count": rounds * len(queries.FAMILIES)})
            for family, (grid, *_) in queries.FAMILIES.items():
                drawn = sorted(q["n"] for q in block if q.get("family") == family)
                self.assertTrue(all(abs(n - g) <= queries.JITTER
                                    for n, g in zip(drawn, sorted(grid))), (family, drawn))

    def test_every_block_repeats_half_its_targets(self):
        # each block runs in a fresh process: its repeats must be its own
        for block in queries.blocks(1, 12):
            share = queries.properties([block])["unit_group_repeat_share"]
            self.assertGreaterEqual(share, 0.5)
            self.assertLess(share, 0.6)


class SpanTest(unittest.TestCase):
    def synthetic(self):
        # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
        ticks = iter([0, 1, 2, 3, 4, 5, 9, 10])
        tracer = tracing.Tracer(clock=lambda: next(ticks))
        b = tracer.span_wrapper("b", lambda: None)
        a = tracer.span_wrapper("a", lambda: b())
        c = tracer.span_wrapper("c", lambda: None)
        root = tracer.span_wrapper("root", lambda: (a(), c()))
        root()
        return tracer.spans

    def test_tree(self):
        spans = self.synthetic()
        self.assertEqual([(s[0], s[1], s[2]) for s in spans],
                         [("root", 0, 10), ("a", 1, 4), ("b", 2, 3), ("c", 5, 9)])
        self.assertEqual([s[3] for s in spans], [-1, 0, 1, 0])

    def test_self_time(self):
        self.assertEqual(tracing.self_times(self.synthetic()), [3, 2, 1, 4])

    def test_total_time_counts_nested_family_spans_once(self):
        spans = self.synthetic()
        self.assertEqual(tracing.total_time(spans, ("a", "b")), 3)
        self.assertEqual(tracing.total_time(spans, ("b", "c")), 5)
        self.assertEqual(tracing.total_time(spans, ("root", "c")), 10)


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(tracing.percentile(range(19), 0.5))
        self.assertEqual(tracing.percentile(range(20), 0.5), 9)
        self.assertIsNone(tracing.percentile(range(199), 0.95))
        self.assertEqual(tracing.percentile(range(200), 0.95), 189)
        self.assertIsNone(tracing.percentile([], 0.5))


class PerLayerTest(unittest.TestCase):
    def part(self, rows=0, unbound=()):
        return {"sums": {}, "unbound": list(unbound), "labels": [],
                "samples": {"catalog.row_p50_ms": [0.001 * i for i in range(rows)]}}

    def test_enough_samples(self):
        values, problems = tracing.per_layer([self.part(rows=30)], {"catalog.row_p50_ms"})
        self.assertEqual(problems, [])
        self.assertAlmostEqual(values["catalog.row_p50_ms"], 14.0)

    def test_required_metric_without_samples_is_a_problem(self):
        values, problems = tracing.per_layer([self.part(rows=15)], {"catalog.row_p50_ms"})
        self.assertEqual(problems, ["too few samples for catalog.row_p50_ms"])

    def test_metric_the_workload_never_samples_reads_zero(self):
        values, problems = tracing.per_layer([self.part()], set())
        self.assertEqual(problems, [])
        self.assertEqual(values["cli.unit_group_p50_ms"], 0.0)

    def test_unbound_target_is_a_problem(self):
        _, problems = tracing.per_layer(
            [self.part(unbound=["kgunits.fields.FieldElement.__mul__"])], set())
        self.assertEqual(problems, ["tracing target not found: kgunits.fields.FieldElement.__mul__"])


class NamesTest(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        empty = {"sums": {}, "samples": {}, "labels": []}
        produced = set(tracing.merge_summaries([empty])) | {"trace.overhead_s"}
        declared = {m["name"]: m for m in spec["per_layer"]}
        self.assertEqual(set(declared), produced)
        for name, m in declared.items():
            self.assertEqual(m["unit"], tracing.unit_of(name), name)
        documented = json.loads((HERE / "metrics.json").read_text())
        self.assertEqual({m["name"] for m in documented["per_layer"]}, produced)
        self.assertEqual({m["name"] for m in documented["end_to_end"]},
                         {m["name"] for m in spec["end_to_end"]})
        self.assertEqual(set(documented["workloads"]), {w["name"] for w in spec["workloads"]})


class CosetFamiliesTest(unittest.TestCase):
    def test_every_drawable_presentation_has_its_order(self):
        try:
            from kgunits.presentations import coset_enumeration, parse_presentation
        except ImportError:
            self.skipTest("kgunits is not importable")
        for family in queries.FAMILIES:
            for n in queries.family_sizes(family):
                q = queries.coset_query(family, n)
                with self.subTest(family=family, n=n):
                    self.assertEqual(coset_enumeration(parse_presentation(q["argv"][1])),
                                     q["order"])


if __name__ == "__main__":
    unittest.main()
