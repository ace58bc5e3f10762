import json

import pytest
from hypothesis import given, settings

from helpers import brute_crit, brute_level, brute_reconv, dags
from priosynth.graph import (
    Dag,
    GraphFormatError,
    NodeRecord,
    compute_crit,
    compute_levels,
    compute_reconv,
    dump_dag,
    load_dag,
)


class TestValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            load_dag(
                {
                    "nodes": [
                        {"id": 0, "type": "a", "duration": 1},
                        {"id": 0, "type": "a", "duration": 1},
                    ],
                    "edges": [],
                    "capacities": {"a": 1},
                }
            )

    def test_sparse_ids_rejected(self):
        with pytest.raises(GraphFormatError, match="dense"):
            load_dag(
                {
                    "nodes": [
                        {"id": 0, "type": "a", "duration": 1},
                        {"id": 2, "type": "a", "duration": 1},
                    ],
                    "edges": [],
                    "capacities": {"a": 1},
                }
            )

    @pytest.mark.parametrize("duration", [0, -1, 1.5, "2", True])
    def test_bad_duration_rejected(self, duration):
        with pytest.raises(GraphFormatError):
            load_dag(
                {
                    "nodes": [{"id": 0, "type": "a", "duration": duration}],
                    "edges": [],
                    "capacities": {"a": 1},
                }
            )

    def test_missing_capacity_rejected(self):
        with pytest.raises(GraphFormatError, match="capacity"):
            load_dag(
                {
                    "nodes": [{"id": 0, "type": "a", "duration": 1}],
                    "edges": [],
                    "capacities": {"b": 1},
                }
            )

    @pytest.mark.parametrize("cap", [0, -2, 1.5])
    def test_nonpositive_capacity_rejected(self, cap):
        with pytest.raises(GraphFormatError):
            load_dag(
                {
                    "nodes": [{"id": 0, "type": "a", "duration": 1}],
                    "edges": [],
                    "capacities": {"a": cap},
                }
            )

    def test_dangling_edge_rejected(self):
        with pytest.raises(GraphFormatError, match="unknown node"):
            load_dag(
                {
                    "nodes": [{"id": 0, "type": "a", "duration": 1}],
                    "edges": [[0, 7]],
                    "capacities": {"a": 1},
                }
            )

    def test_cycle_rejected(self):
        with pytest.raises(GraphFormatError, match="cycle"):
            load_dag(
                {
                    "nodes": [{"id": i, "type": "a", "duration": 1} for i in range(3)],
                    "edges": [[0, 1], [1, 2], [2, 0]],
                    "capacities": {"a": 1},
                }
            )

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="cycle"):
            load_dag(
                {
                    "nodes": [{"id": 0, "type": "a", "duration": 1}],
                    "edges": [[0, 0]],
                    "capacities": {"a": 1},
                }
            )

    def test_invalid_json_text(self):
        with pytest.raises(GraphFormatError, match="invalid JSON"):
            load_dag("{nope")

    def test_missing_section(self):
        with pytest.raises(GraphFormatError, match="edges"):
            load_dag({"nodes": [], "capacities": {}})

    def test_unordered_nodes_accepted(self):
        # Readers are lenient about ordering; only structure is strict.
        dag = load_dag(
            {
                "nodes": [
                    {"id": 1, "type": "a", "duration": 2},
                    {"id": 0, "type": "a", "duration": 1},
                ],
                "edges": [[1, 0]],
                "capacities": {"a": 1},
            }
        )
        assert [rec.id for rec in dag.nodes] == [0, 1]
        assert dag.edges == ((1, 0),)

    def test_duplicate_edges_collapse(self):
        dag = load_dag(
            {
                "nodes": [{"id": i, "type": "a", "duration": 1} for i in range(2)],
                "edges": [[0, 1], [0, 1]],
                "capacities": {"a": 1},
            }
        )
        assert dag.edges == ((0, 1),)

    def test_empty_graph_allowed(self):
        dag = load_dag({"nodes": [], "edges": [], "capacities": {}})
        assert len(dag) == 0
        assert dag.stats().cp_length == 0


class TestFeatures:
    def test_diamond_tables(self, diamond):
        stats = diamond.stats()
        assert stats.level == {0: 0, 1: 2, 2: 2, 3: 5}
        assert stats.crit == {0: 7, 1: 5, 2: 3, 3: 2}
        assert stats.slack == {0: 0, 1: 0, 2: 2, 3: 0}
        assert stats.fanout == {0: 2, 1: 1, 2: 1, 3: 0}
        assert stats.fanin == {0: 0, 1: 1, 2: 1, 3: 2}
        assert stats.reconv == {0: 1, 1: 0, 2: 0, 3: 0}
        assert stats.cp_length == 7

    def test_diamond_pressure(self, diamond):
        stats = diamond.stats()
        assert stats.pressure["alu"] == pytest.approx(7 / 7)
        assert stats.pressure["mem"] == pytest.approx(1 / 7)

    def test_reconv_counts_pair_sharing_one_child(self):
        # 0 -> {1, 2} and 1 -> 2: child 2 is reachable from child 1, so the
        # pair (1, 2) reconverges even without a third meeting node.
        dag = load_dag(
            {
                "nodes": [{"id": i, "type": "a", "duration": 1} for i in range(3)],
                "edges": [[0, 1], [0, 2], [1, 2]],
                "capacities": {"a": 2},
            }
        )
        assert compute_reconv(dag)[0] == 1

    def test_fanout_pairs_without_meeting_are_zero(self):
        dag = load_dag(
            {
                "nodes": [{"id": i, "type": "a", "duration": 1} for i in range(3)],
                "edges": [[0, 1], [0, 2]],
                "capacities": {"a": 2},
            }
        )
        assert compute_reconv(dag)[0] == 0

    @given(dags())
    @settings(max_examples=120, deadline=None)
    def test_level_matches_path_enumeration(self, dag):
        level = compute_levels(dag)
        for v in range(len(dag)):
            assert level[v] == brute_level(dag, v)

    @given(dags())
    @settings(max_examples=120, deadline=None)
    def test_crit_matches_path_enumeration(self, dag):
        crit = compute_crit(dag)
        for v in range(len(dag)):
            assert crit[v] == brute_crit(dag, v)

    @given(dags())
    @settings(max_examples=120, deadline=None)
    def test_reconv_matches_reachability_sets(self, dag):
        reconv = compute_reconv(dag)
        for v in range(len(dag)):
            assert reconv[v] == brute_reconv(dag, v)

    @given(dags())
    @settings(max_examples=80, deadline=None)
    def test_slack_nonnegative_and_zero_on_critical(self, dag):
        slack = dag.stats().slack
        assert all(s >= 0 for s in slack.values())
        if len(dag):
            assert 0 in slack.values()

    @given(dags())
    @settings(max_examples=60, deadline=None)
    def test_pressure_definition(self, dag):
        stats = dag.stats()
        cp = max((brute_level(dag, v) + brute_crit(dag, v) for v in range(len(dag))), default=0)
        work = {t: 0 for t in dag.capacities}
        for rec in dag.nodes:
            work[rec.op_type] += rec.duration
        assert stats.cp_length == cp
        assert list(stats.pressure) == list(dag.capacities)
        for op, value in stats.pressure.items():
            if cp == 0:
                assert value == 0.0
            else:
                assert value == pytest.approx(work[op] / (dag.capacities[op] * cp))


class TestSerialization:
    @given(dags())
    @settings(max_examples=60, deadline=None)
    def test_dump_load_round_trip(self, dag):
        text = dump_dag(dag)
        again = load_dag(text)
        assert again.nodes == dag.nodes
        assert again.edges == dag.edges
        assert again.capacities == dag.capacities
        assert dump_dag(again) == text

    def test_dump_is_sorted_and_newline_terminated(self, diamond):
        text = dump_dag(diamond)
        assert text.endswith("\n")
        doc = json.loads(text)
        assert list(doc) == ["capacities", "edges", "nodes"]
        ids = [entry["id"] for entry in doc["nodes"]]
        assert ids == sorted(ids)
        assert doc["edges"] == sorted(doc["edges"])

    def test_direct_construction_matches_loader(self):
        dag = Dag(
            [NodeRecord(0, "a", 1), NodeRecord(1, "a", 2)],
            [(0, 1)],
            {"a": 1},
        )
        assert dump_dag(dag) == dump_dag(load_dag(json.loads(dump_dag(dag))))
