import hashlib
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_type_rule, reference_generate_graph, schedule_mutants
from priosynth import bench
from priosynth.bench import (
    FAMILIES,
    GeneratorSpec,
    generate_graph,
    generate_suite,
    render_report_csv,
    render_report_text,
    run_campaign,
    standard_battery,
    summarize,
)
from priosynth.dsl import print_expr
from priosynth.graph import Dag, canonical_json, dump_dag
from priosynth.scheduler import Schedule


class TestGenerators:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_valid_and_deterministic(self, family):
        spec = GeneratorSpec(family=family, layers=4, width=3, seed=9, label="t")
        suite_a = generate_suite(spec, 5)
        suite_b = generate_suite(spec, 5)
        assert [dump_dag(d) for d in suite_a] == [dump_dag(d) for d in suite_b]
        for dag in suite_a:
            assert len(dag) > 0
            assert dag.name.startswith(f"{family}-")

    def test_indices_are_independent_streams(self):
        spec = GeneratorSpec(family="layered", seed=9, label="t")
        # Graph 3 is identical whether or not graphs 0..2 were generated.
        alone = generate_graph(spec, 3)
        in_suite = generate_suite(spec, 5)[3]
        assert dump_dag(alone) == dump_dag(in_suite)

    @pytest.mark.parametrize("count", [0, -3])
    def test_suite_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match="count must be a positive integer"):
            generate_suite(GeneratorSpec(), count)

    def test_seed_and_label_change_output(self):
        base = GeneratorSpec(family="layered", seed=9, label="t")
        other_seed = GeneratorSpec(family="layered", seed=10, label="t")
        other_label = GeneratorSpec(family="layered", seed=9, label="u")
        assert dump_dag(generate_graph(base, 0)) != dump_dag(generate_graph(other_seed, 0))
        assert dump_dag(generate_graph(base, 0)) != dump_dag(generate_graph(other_label, 0))

    def test_chain_family_is_a_path(self):
        dag = generate_graph(GeneratorSpec(family="chain", layers=6, seed=1), 0)
        assert len(dag) == 6
        assert dag.edges == tuple((i, i + 1) for i in range(5))

    def test_fork_join_shape(self):
        dag = generate_graph(GeneratorSpec(family="fork_join", layers=3, width=4, seed=1), 0)
        assert len(dag) == 2 + 4 * 3
        stats = dag.stats()
        assert stats.fanout[0] == 4
        assert stats.fanin[len(dag) - 1] == 4

    def test_diamond_mesh_shape(self):
        dag = generate_graph(GeneratorSpec(family="diamond_mesh", layers=2, width=3, seed=1), 0)
        assert len(dag) == 2 * (3 + 1) + 1
        stats = dag.stats()
        assert stats.fanout[0] == 3
        assert stats.reconv[0] == 3  # all middle pairs meet at the merge

    @pytest.mark.parametrize(
        "family, layers, width, edge_prob",
        [
            ("layered", 1, 4, 0.35),
            ("layered", 5, 5, 0.35),
            ("layered", 4, 7, 1.0),
            ("layered", 6, 5, 0.0),
            ("layered", 60, 64, 0.35),
            ("layered", 60, 64, 0.02),
            ("layered", 80, 96, 0.35),
            ("layered", 80, 96, 0.0),
            ("layered", 41, 27, 0.35),
            ("layered", 42, 26, 0.35),
            ("chain", 1, 1, 0.35),
            ("chain", 9, 1, 0.35),
            ("fork_join", 3, 4, 0.35),
            ("fork_join", 1, 6, 0.35),
            ("diamond_mesh", 2, 3, 0.35),
            ("diamond_mesh", 5, 1, 0.35),
        ],
    )
    def test_bytes_match_reference_generator(self, family, layers, width, edge_prob):
        weights = GeneratorSpec().type_weights
        cases = [(0, 0, weights), (1, 1, weights), (7, 0, (("alu", 0.5), ("mem", 0.0), ("mul", 2.5)))]
        if layers * width > 1000:
            cases = cases[:2]  # thousands of nodes: one graph per seed
        else:
            cases += [(seed, index, weights) for seed in (2, 3) for index in range(3)]
        for seed, index, type_weights in cases:
            spec = GeneratorSpec(family, layers=layers, width=width, edge_prob=edge_prob, seed=seed,
                                 type_weights=type_weights, label=f"ref-{family}")
            assert dump_dag(generate_graph(spec, index)) == dump_dag(reference_generate_graph(spec, index))

    @pytest.mark.parametrize("words, count", [(0, 1), (0, 312), (1, 312), (623, 1), (100, 2000)])
    def test_bulk_draws_match_random(self, words, count):
        # The bulk path relies on getrandbits(64 * n) yielding the words of n
        # random() calls; a generator refills its 624 words every 312 doubles,
        # and an odd word offset splits one double across the refill.
        ref, bulk = random.Random("stream"), random.Random("stream")
        ref.getrandbits(32 * words)
        bulk.getrandbits(32 * words)
        expected = [ref.random() for _ in range(count)]
        ints = bench._random_ints(bulk, count)
        assert (ints / 2.0**53).tolist() == expected
        assert bulk.getstate() == ref.getstate()
        # random() < p exactly when k < p * 2**53, a drawn value included.
        for p in (0.0, 0.02, 0.35, 1.0, expected[-1], expected[0]):
            assert (ints < p * 2.0**53).tolist() == [x < p for x in expected]

    @staticmethod
    def record_draw_paths(monkeypatch) -> list[str]:
        """Patch the bulk draw to record, per call, whether it kept its
        graph ("bulk") or sent it back to the per-flip loop ("fallback")."""
        taken = []
        bulk = bench._bulk_layered_succs

        def recording(rng, layers, edge_prob):
            succs = bulk(rng, layers, edge_prob)
            taken.append("fallback" if succs is None else "bulk")
            return succs

        monkeypatch.setattr(bench, "_bulk_layered_succs", recording)
        return taken

    @staticmethod
    def edge_flips(spec: GeneratorSpec, index: int) -> int:
        rng = random.Random(f"{spec.seed}:{spec.label}:{index}")
        sizes = [rng.randint(max(1, spec.width // 2), spec.width) for _ in range(spec.layers)]
        return sum(a * b for a, b in zip(sizes, sizes[1:]))

    @pytest.mark.parametrize(
        "layers, width, edge_prob, seed, index, flips, path",
        [
            # The sparse and empty shapes of test_bytes_match_reference_generator.
            (60, 64, 0.02, 0, 0, 134_995, "fallback"),
            (60, 64, 0.02, 1, 1, 133_503, "fallback"),
            (80, 96, 0.0, 0, 0, 418_275, "fallback"),
            (80, 96, 0.0, 1, 1, 417_190, "fallback"),
            # Its threshold-straddling shapes.
            (41, 27, 0.35, 0, 0, 16_851, "bulk"),
            (41, 27, 0.35, 1, 1, 15_926, "loop"),
            (42, 26, 0.35, 0, 0, 16_160, "bulk"),
            (42, 26, 0.35, 1, 1, 15_509, "loop"),
            (5, 5, 0.35, 0, 0, 59, "loop"),
        ],
    )
    def test_layered_draw_path(self, monkeypatch, layers, width, edge_prob, seed, index, flips, path):
        taken = self.record_draw_paths(monkeypatch)
        spec = GeneratorSpec("layered", layers=layers, width=width, edge_prob=edge_prob, seed=seed, label="ref-layered")
        assert self.edge_flips(spec, index) == flips
        generate_graph(spec, index)
        assert taken == ([] if path == "loop" else [path])

    def test_large_graphs_draw_in_bulk(self, monkeypatch):
        # The six graphs of each input set of the benchmark's `large`
        # workload, for input sets 0-4.
        taken = self.record_draw_paths(monkeypatch)
        for seed in range(5):
            for layers, width, graphs in ((60, 64, 4), (80, 96, 2)):
                spec = GeneratorSpec("layered", layers=layers, width=width, seed=seed, label=f"large-{layers}x{width}")
                for index in range(graphs):
                    generate_graph(spec, index)
        assert taken == ["bulk"] * 30

    @pytest.mark.parametrize("edge_prob", [0.35, 0.02])
    def test_successor_ids_share_one_int(self, monkeypatch, edge_prob):
        # One int object per node id, on the bulk path and on the loop it
        # falls back to: an int per edge costs memory and scheduler time.
        taken = self.record_draw_paths(monkeypatch)
        spec = GeneratorSpec("layered", layers=60, width=64, edge_prob=edge_prob, label="ref-layered")
        dag = generate_graph(spec, 0)
        assert taken == ["bulk" if edge_prob == 0.35 else "fallback"]
        first: dict[int, int] = {}
        for vs in dag.succs:
            for v in vs:
                assert first.setdefault(v, v) is v

    def test_every_family_hands_dag_ascending_succs(self, monkeypatch):
        # Dag's trusted path checks nothing, so the generator's successor
        # lists must already ascend, hold no repeats, stay in range and
        # point forward (u < v).
        handed = []
        trusted = Dag._from_succs

        def recording(nodes, succs, capacities, name=None):
            handed.append((len(nodes), [list(vs) for vs in succs]))
            return trusted(nodes, succs, capacities, name)

        monkeypatch.setattr(Dag, "_from_succs", recording)
        shapes = [(1, 1, 0.35), (4, 3, 0.0), (5, 6, 0.02), (6, 5, 0.35), (4, 7, 1.0), (12, 20, 0.35)]
        for family in FAMILIES:
            for layers, width, edge_prob in shapes:
                spec = GeneratorSpec(family, layers=layers, width=width, edge_prob=edge_prob, seed=2)
                generate_graph(spec, 0)
        assert len(handed) == len(FAMILIES) * len(shapes)
        for n, succs in handed:
            assert len(succs) == n
            assert any(succs) == (n > 1)
            for u, vs in enumerate(succs):
                assert vs == sorted(set(vs))
                assert all(u < v < n for v in vs)

    def test_layered_edges_span_adjacent_layers(self):
        spec = GeneratorSpec(family="layered", layers=5, width=4, seed=3)
        dag = generate_graph(spec, 0)
        # Every non-source node has at least one predecessor.
        stats = dag.stats()
        sources = [v for v in range(len(dag)) if stats.fanin[v] == 0]
        assert sources  # first layer at minimum
        assert all(stats.fanin[v] > 0 for v in range(len(dag)) if v not in sources)

    def test_durations_within_range(self):
        spec = GeneratorSpec(family="layered", duration_range=(2, 3), seed=4)
        for dag in generate_suite(spec, 4):
            assert all(2 <= rec.duration <= 3 for rec in dag.nodes)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GeneratorSpec(family="bogus")
        with pytest.raises(ValueError):
            GeneratorSpec(family="chain", layers=0)
        with pytest.raises(ValueError):
            GeneratorSpec(family="chain", duration_range=(0, 3))
        with pytest.raises(ValueError):
            GeneratorSpec(family="layered", edge_prob=1.5)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("family", 5, "family must be of type str, got 5"),
            ("layers", 3.0, "layers must be of type int, got 3.0"),
            ("layers", True, "layers must be of type int, got true"),
            ("width", 2.5, "width must be of type int, got 2.5"),
            ("seed", "0", 'seed must be of type int, got "0"'),
            ("label", 5, "label must be of type str, got 5"),
            ("duration_range", (1.0, 6), "duration_range[0] must be of type int, got 1.0"),
            ("duration_range", (1, True), "duration_range[1] must be of type int, got true"),
            ("duration_range", (1, 2, 3), "duration_range must hold 2 items, got 3"),
            ("edge_prob", True, "edge_prob must be of type float, got true"),
            ("edge_prob", "0.5", 'edge_prob must be of type float, got "0.5"'),
            (
                "type_weights",
                (("alu", "3"), ("mem", 1.0), ("mul", 1.0)),
                'type_weights[0][1] must be of type float, got "3"',
            ),
        ],
    )
    def test_rejects_mistyped_fields(self, field, value, message):
        assert_type_rule("train", {field: value}, message)

    @pytest.mark.parametrize(
        "capacities, message",
        [
            ((("alu", 2), ("mem", True), ("mul", 1)), "capacities[1][1] must be of type int, got true"),
            ((("alu", 2.0), ("mem", 1), ("mul", 1)), "capacities[0][1] must be of type int, got 2.0"),
            ((("alu", 2), ("mem", 0), ("mul", 1)), "capacity for 'mem' must be a positive integer, got 0"),
            ((("alu", 2), ("mem", 1)), "op type 'mul' has positive weight but no capacity"),
            ((("", 1), ("alu", 2), ("mem", 1), ("mul", 1)), "op type '' must be a non-empty string"),
        ],
    )
    def test_rejects_bad_capacities(self, capacities, message):
        assert_type_rule("train", {"capacities": capacities}, message)


class TestSummarize:
    def test_empty_and_singleton(self):
        assert summarize([]) == {"n": 0, "mean": 0.0, "std": 0.0, "ci95": 0.0}
        assert summarize([4.0]) == {"n": 1, "mean": 4.0, "std": 0.0, "ci95": 0.0}

    def test_known_pair(self):
        summary = summarize([1.0, 3.0])
        assert summary["mean"] == 2.0
        assert summary["std"] == pytest.approx(math.sqrt(2.0))

    def test_reference_row_statistics(self):
        # Mean and sample std of the published per-family success rates.
        summary = summarize([52.0, 98.8, 95.2, 71.8])
        assert summary["mean"] == pytest.approx(79.45, abs=0.01)
        assert summary["std"] == pytest.approx(21.87, abs=0.01)

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_formulas(self, values):
        summary = summarize(values)
        n = len(values)
        mean = sum(values) / n
        var = sum((x - mean) ** 2 for x in values) / (n - 1)
        assert summary["mean"] == pytest.approx(mean)
        assert summary["std"] == pytest.approx(math.sqrt(var))
        assert summary["ci95"] == pytest.approx(1.96 * summary["std"] / math.sqrt(n))


class TestBattery:
    def test_composition(self):
        battery = standard_battery(seed=0)
        names = [name for name, _ in battery]
        assert names[0] == "baseline_level"
        assert len(battery) == 6
        by_name = dict(battery)
        assert print_expr(by_name["baseline_level"]) == "1*level"
        assert print_expr(by_name["crit_fanout_level"]) == "1*crit + 1*fanout - 1*level"
        assert print_expr(by_name["fanout_only"]) == "1*fanout"

    def test_random_entry_seeded(self):
        a = dict(standard_battery(seed=5))["random_linear"]
        b = dict(standard_battery(seed=5))["random_linear"]
        c = dict(standard_battery(seed=6))["random_linear"]
        assert a == b
        assert a != c


class TestCampaign:
    def _suites(self):
        spec = GeneratorSpec(family="layered", layers=4, width=4, seed=2, label="s")
        return {"layered_small": generate_suite(spec, 6)}

    def test_report_structure(self):
        report = run_campaign(self._suites(), standard_battery(0), measure_runtime=False)
        rows = report["suites"]["layered_small"]["heuristics"]
        assert set(rows) == {name for name, _ in standard_battery(0)}
        for row in rows.values():
            assert row["graphs"] == 6
            assert 0 <= row["feasible"] <= 6
            assert row["makespan"]["n"] == 6
        assert rows["baseline_level"]["improvement_pct"] == 0.0

    def test_all_feasible_under_battery(self):
        report = run_campaign(self._suites(), standard_battery(0), measure_runtime=False)
        for row in report["suites"]["layered_small"]["heuristics"].values():
            assert row["feasible"] == row["graphs"]

    def test_campaign_leaves_edge_tuples_unbuilt(self):
        # The report path reads adjacency only.  On a graph of 100k edges
        # the first read of ``Dag.edges`` builds as many tuples.
        suites = self._suites()
        run_campaign(suites, standard_battery(0), measure_runtime=False)
        assert all(dag._edges is None for dag in suites["layered_small"])

    def test_renderers_cover_every_row(self):
        report = run_campaign(self._suites(), standard_battery(0), measure_runtime=False)
        text = render_report_text(report)
        csv_text = render_report_csv(report)
        for name, _ in standard_battery(0):
            assert name in text
            assert name in csv_text
        assert csv_text.splitlines()[0].startswith("suite,heuristic,")
        assert len(csv_text.splitlines()) == 1 + 6

    def test_broken_schedules_are_not_counted_feasible(self, monkeypatch):
        # The scheduler's own feasible flag stays set: only verify_schedule
        # can reject these.
        suites = self._suites()
        dags = suites["layered_small"]
        battery = standard_battery(0)
        real = bench.list_schedule
        calls = []

        def broken(dag, priority, measure=True):
            schedule = real(dag, priority, measure=measure)
            mutants = schedule_mutants(dag, schedule.starts)
            kind = {(0, 1): "one_edge", (1, 2): "capacity_by_one"}.get(divmod(len(calls), len(dags)))
            calls.append(kind)
            if kind is not None:
                schedule = Schedule(mutants[kind], schedule.makespan, True, schedule.runtime_ms)
            return schedule

        monkeypatch.setattr(bench, "list_schedule", broken)
        report = run_campaign(suites, battery, measure_runtime=False)
        assert calls.count("one_edge") == calls.count("capacity_by_one") == 1
        rows = report["suites"]["layered_small"]["heuristics"]
        feasible = [rows[name]["feasible"] for name, _ in battery]
        assert feasible == [len(dags) - 1, len(dags) - 1] + [len(dags)] * (len(battery) - 2)

    def test_empty_battery_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(self._suites(), [])

    def test_report_bytes_are_pinned(self):
        # The report path on graphs of 60-600 nodes from every family: any
        # change to a schedule, a feature or the report layout moves this hash.
        suites = {}
        for family, layers, width in (("layered", 24, 32), ("diamond_mesh", 30, 6), ("fork_join", 20, 8), ("chain", 60, 1)):
            spec = GeneratorSpec(family, layers=layers, width=width, seed=0, label="pin")
            suites[family] = [generate_graph(spec, 0), generate_graph(spec, 1)]
        report = run_campaign(suites, standard_battery(0), measure_runtime=False)
        digest = hashlib.sha256(canonical_json(report).encode("utf-8")).hexdigest()
        assert digest == "715e36989efc8eb43f2cdb36f54329c9c290ff6944f6f02d5c2f792e509104b9"
