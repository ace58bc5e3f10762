import enum
import json
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_crit,
    brute_level,
    brute_reconv,
    dag_documents,
    dags,
    generator_specs,
    reference_compute_crit,
    reference_compute_levels,
    reference_compute_reconv,
    reference_dag_edges,
    reference_generate_graph,
    reference_induced_subdag,
    relabeled_dags,
)
from priosynth import graph as graph_module
from priosynth.bench import GeneratorSpec, generate_graph
from priosynth.graph import (
    Dag,
    GraphFormatError,
    NodeRecord,
    canonical_json,
    compute_crit,
    compute_levels,
    compute_reconv,
    dag_to_document,
    dump_dag,
    load_dag,
)
from priosynth.kernels import induced_subdag, mine_motifs


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf]),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
)

# Non-str keys of one type at a time: json.dumps sorts keys before it writes
# them, so mixed key types fail the same way in both writers.
_json_documents = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans()), children, max_size=3),
    ),
    max_leaves=24,
)


class _Level(enum.IntEnum):
    LOW = 1


def _stdlib_json(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _reference_reconv_column(dag: Dag) -> tuple[int, ...]:
    """The reference count as a column indexed by node id."""
    reference = reference_compute_reconv(dag)
    return tuple(reference[v] for v in range(len(dag)))


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

    @pytest.mark.parametrize("edge", [[0.0, 1], [0, True], [0.0, True], [0, 1.5], [0, "1"], [None, 1]])
    def test_non_integer_edge_endpoint_rejected(self, edge):
        with pytest.raises(GraphFormatError, match="endpoints must be integer"):
            load_dag(
                {
                    "nodes": [{"id": i, "type": "a", "duration": 1} for i in range(2)],
                    "edges": [edge],
                    "capacities": {"a": 1},
                }
            )

    @pytest.mark.parametrize("other", ["a", None])
    def test_mixed_type_ids_rejected(self, other):
        # A sort by id would compare 0 with the other id and raise TypeError.
        with pytest.raises(GraphFormatError, match=f"node id {other!r} is not an integer"):
            load_dag(
                {
                    "nodes": [
                        {"id": 0, "type": "a", "duration": 1},
                        {"id": other, "type": "a", "duration": 1},
                    ],
                    "edges": [],
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
        assert stats.level == (0, 2, 2, 5)
        assert stats.crit == (7, 5, 3, 2)
        assert stats.slack == (0, 0, 2, 0)
        assert stats.fanout == (2, 1, 1, 0)
        assert stats.fanin == (0, 1, 1, 2)
        assert stats.reconv == (1, 0, 0, 0)
        assert stats.duration == (2, 3, 1, 2)
        assert stats.op_index == (0, 0, 1, 0)
        assert stats.cp_length == 7

    @settings(max_examples=200, deadline=None)
    @given(dags(max_types=4))
    def test_each_type_lists_its_ids_and_work(self, dag):
        stats = dag.stats()
        members = tuple(tuple(v for v, rec in enumerate(dag.nodes) if rec.op_type == op) for op in dag.capacities)
        assert stats.members == members
        assert all(list(dag.capacities)[stats.op_index[v]] == rec.op_type for v, rec in enumerate(dag.nodes))
        assert stats.work == tuple(sum(dag.nodes[v].duration for v in ids) for ids in members)

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

    def test_reconv_groups_children_with_equal_sink_sets(self):
        # 0 -> {1, 2, 3, 5, 7}; 1, 2 and 3 reach only sink 4, 5 is a sink of
        # its own, 7 reaches sinks 4 and 6.  Pairs among {1, 2, 3} share 4,
        # and each of them shares 4 with 7; 5 shares nothing: 3 + 3 = 6.
        dag = load_dag(
            {
                "nodes": [{"id": i, "type": "a", "duration": 1} for i in range(8)],
                "edges": [[0, 1], [0, 2], [0, 3], [0, 5], [0, 7], [1, 4], [2, 4], [3, 4], [7, 4], [7, 6]],
                "capacities": {"a": 2},
            }
        )
        assert compute_reconv(dag)[0] == 6
        assert compute_reconv(dag) == _reference_reconv_column(dag)

    @pytest.mark.parametrize(
        "edges, expected",
        [
            # Two children that reach disjoint sinks, 3 and 4.
            ([[0, 1], [0, 2], [1, 3], [2, 4]], 0),
            # Two children that share sink 3.
            ([[0, 1], [0, 2], [1, 3], [2, 3]], 1),
            # Four children that all reach only sink 5: every pair.
            ([[0, 1], [0, 2], [0, 3], [0, 4], [1, 5], [2, 5], [3, 5], [4, 5]], 6),
            # Children 1 and 2 reach {7}, 3 reaches {7, 8}, 4 reaches {8},
            # 5 reaches {9} and 6 is a sink: (1, 2), (1, 3), (2, 3) and (3, 4).
            (
                [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [0, 6], [1, 7], [2, 7], [3, 7], [3, 8], [4, 8], [5, 9]],
                4,
            ),
            # Sink 1 is a child and reachable from child 2, so both reach
            # {1}; child 3 reaches {4}.  Two distinct sets: only (1, 2) meets.
            ([[0, 1], [0, 2], [0, 3], [2, 1], [3, 4]], 1),
            # Node 1's children reach {4}, {3} and {3}; its reach is their
            # union, which meets child 2's {3} at node 0.
            ([[0, 1], [0, 2], [1, 5], [1, 6], [1, 7], [2, 3], [5, 4], [6, 3], [7, 3]], 1),
            # Three children that reach the pairwise disjoint {4}, {5} and
            # {3}: no pair meets.
            ([[0, 1], [0, 2], [0, 3], [1, 4], [2, 5]], 0),
            # Disjoint groups {6} (children 1 and 2), {7} (child 3) and {4}
            # (child 4 itself): only the repeated group's pair meets.
            ([[0, 1], [0, 2], [0, 3], [0, 4], [1, 6], [2, 6], [3, 7], [5, 7]], 1),
            # Two repeated groups, {6} from 1 and 2 and {7} from 3 and 4,
            # and the sink 5: one pair inside each group.
            ([[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [1, 6], [2, 6], [3, 7], [4, 7]], 2),
        ],
        ids=[
            "two-disjoint",
            "two-shared",
            "one-set",
            "several-sets",
            "child-reaches-child",
            "union-reaches-parent",
            "three-disjoint",
            "disjoint-repeated-group",
            "disjoint-two-repeated-groups",
        ],
    )
    def test_reconv_branches_match_both_references(self, edges, expected):
        n = 1 + max(max(edge) for edge in edges)
        dag = load_dag(
            {
                "nodes": [{"id": i, "type": "a", "duration": 1} for i in range(n)],
                "edges": edges,
                "capacities": {"a": 1},
            }
        )
        reconv = compute_reconv(dag)
        assert reconv[0] == expected
        assert reconv == _reference_reconv_column(dag)
        assert list(reconv) == [brute_reconv(dag, v) for v in range(n)]

    @pytest.mark.parametrize("children, expected", [((1, 2, 3), 3), ((1, 2, 3, 4), 3), ((1, 2), 1)])
    def test_reconv_groups_equal_reach_sets_held_in_distinct_ints(self, children, expected):
        # Nodes 1, 2 and 3 each reach sinks 5 and 6 through two children, so
        # each one's reach set is its own OR of the same two sink bits; node
        # 4 reaches sink 7 only.  The pass runs in reverse id order, so the
        # isolated sinks 8-17 take the ten low bits, and those ORs are equal
        # ints above the small ones CPython shares: distinct objects.
        a, b = 1 << 10, 1 << 11
        assert (a | b) is not (a | b)
        edges = [[0, c] for c in children] + [[1, 5], [1, 6], [2, 5], [2, 6], [3, 5], [3, 6], [4, 7]]
        dag = load_dag(
            {
                "nodes": [{"id": i, "type": "a", "duration": 1} for i in range(18)],
                "edges": edges,
                "capacities": {"a": 1},
            }
        )
        reconv = compute_reconv(dag)
        assert reconv[0] == expected
        assert reconv == _reference_reconv_column(dag)
        assert list(reconv) == [brute_reconv(dag, v) for v in range(len(dag))]

    def test_reconv_matches_reference_at_scale(self, scale_dags):
        for dag in scale_dags:
            assert compute_reconv(dag) == _reference_reconv_column(dag)

    def test_reconv_matches_reference_with_many_sinks(self):
        # Wide layers leave many nodes without successors; isolated nodes
        # appended after the graph are sinks of their own.
        spec = GeneratorSpec("layered", layers=12, width=60, edge_prob=0.02, seed=5, label="sinks")
        for index in range(3):
            base = generate_graph(spec, index)
            n = len(base)
            extra = [NodeRecord(n + k, "alu", 1) for k in range(40)]
            dag = Dag(list(base.nodes) + extra, base.edges, base.capacities)
            sinks = sum(1 for v in range(len(dag)) if not dag.succs[v])
            assert sinks > 100
            assert compute_reconv(dag) == _reference_reconv_column(dag)

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

    def test_levels_and_crit_match_reference_at_scale(self, scale_dags):
        for dag in scale_dags:
            assert compute_levels(dag) == reference_compute_levels(dag)
            assert compute_crit(dag) == reference_compute_crit(dag)

    @given(dags())
    @settings(max_examples=120, deadline=None)
    def test_levels_and_crit_match_reference(self, dag):
        assert dag.stats().level == compute_levels(dag) == reference_compute_levels(dag)
        assert dag.stats().crit == compute_crit(dag) == reference_compute_crit(dag)

    @given(dags())
    @settings(max_examples=120, deadline=None)
    def test_reconv_matches_reachability_sets(self, dag):
        reconv = compute_reconv(dag)
        assert dag.stats().reconv == reconv == _reference_reconv_column(dag)
        for v in range(len(dag)):
            assert reconv[v] == brute_reconv(dag, v)

    @given(dags())
    @settings(max_examples=80, deadline=None)
    def test_slack_nonnegative_and_zero_on_critical(self, dag):
        slack = dag.stats().slack
        assert len(slack) == len(dag)
        assert all(s >= 0 for s in slack)
        if len(dag):
            assert 0 in slack

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


class TestRelabeledIds:
    """The structural passes on graphs whose ids are not a topological
    order, so they run along a Kahn order that differs from id order."""

    def test_strategy_reaches_a_non_identity_order(self):
        dag = find(
            relabeled_dags(), lambda d: d.topo_order != tuple(range(len(d))), settings=settings(database=None)
        )
        assert sorted(dag.topo_order) == list(range(len(dag)))

    @given(relabeled_dags())
    @settings(max_examples=120, deadline=None)
    def test_level_and_crit_match_path_enumeration(self, dag):
        level, crit = compute_levels(dag), compute_crit(dag)
        assert list(level) == [brute_level(dag, v) for v in range(len(dag))]
        assert list(crit) == [brute_crit(dag, v) for v in range(len(dag))]
        assert level == reference_compute_levels(dag)
        assert crit == reference_compute_crit(dag)

    @given(relabeled_dags())
    @settings(max_examples=120, deadline=None)
    def test_reconv_matches_both_references(self, dag):
        reconv = compute_reconv(dag)
        assert reconv == _reference_reconv_column(dag)
        assert list(reconv) == [brute_reconv(dag, v) for v in range(len(dag))]


def _structure(dag: Dag) -> dict[str, tuple]:
    return {"edges": dag.edges, "preds": dag.preds, "succs": dag.succs, "topo_order": dag.topo_order}


def _parent_error(n: int, edges) -> str:
    with pytest.raises(GraphFormatError) as caught:
        reference_dag_edges(n, edges)
    return str(caught.value)


class TestEdgeConstruction:
    """``Dag`` against the per-edge constructor it replaced."""

    @staticmethod
    def _nodes(n: int) -> list[NodeRecord]:
        return [NodeRecord(v, "a", 1 + v % 3) for v in range(n)]

    def _check(self, n: int, edges) -> None:
        dag = Dag(self._nodes(n), edges, {"a": 2})
        assert dag._edges is None  # built on the first read
        assert _structure(dag) == reference_dag_edges(n, edges)
        assert dag.edges is dag.edges

    def test_sorted_shuffled_and_duplicated_input(self, scale_dags):
        rng = random.Random(7)
        for base in scale_dags:
            n = len(base)
            edges = list(base.edges)
            self._check(n, edges)
            shuffled = edges[:]
            rng.shuffle(shuffled)
            self._check(n, shuffled)
            repeated = edges + rng.sample(edges, len(edges) // 3)
            rng.shuffle(repeated)
            self._check(n, repeated)
            self._check(n, [list(edge) for edge in shuffled])

    def test_iterable_inputs(self):
        edges = [(0, 2), (1, 2), (0, 1), (0, 2)]
        expected = reference_dag_edges(3, edges)
        for source in (tuple(edges), iter(edges), (edge for edge in edges), [iter(edge) for edge in edges]):
            assert _structure(Dag(self._nodes(3), source, {"a": 2})) == expected

    def test_induced_subdag_input(self):
        spec = GeneratorSpec("layered", layers=6, width=6, seed=4, label="motifs")
        dag = generate_graph(spec, 0)
        motifs = mine_motifs(dag)
        subdags = [induced_subdag(dag, motif.nodes) for motif in motifs]
        assert dag._edges is None
        for motif, sub in zip(motifs, subdags):
            chosen = sorted(set(motif.nodes))
            remap = {v: i for i, v in enumerate(chosen)}
            edges = [(remap[u], remap[v]) for u, v in dag.edges if u in remap and v in remap]
            assert _structure(sub) == reference_dag_edges(len(chosen), edges)

    @given(dag_documents(max_nodes=12), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_ascending_edges_give_the_identity_order(self, document, rng):
        n = len(document["nodes"])
        edges = [tuple(edge) for edge in document["edges"]]
        for source in (sorted(edges), edges, rng.sample(edges, len(edges))):
            dag = Dag(self._nodes(n), source, {"a": 2})
            assert dag.topo_order == tuple(range(n)) == reference_dag_edges(n, source)["topo_order"]

    def test_descending_edge_gets_the_kahn_order(self):
        edges = [(0, 3), (3, 1), (1, 2)]
        dag = Dag(self._nodes(4), edges, {"a": 2})
        assert dag.topo_order == (0, 3, 1, 2) == reference_dag_edges(4, edges)["topo_order"]

    @pytest.mark.parametrize(
        "n, edges, node",
        [
            (1, [(0, 0)], 0),
            (3, [(0, 1), (1, 1), (1, 2)], 1),
            (3, [(0, 1), (1, 2), (2, 1)], 1),
            (2, [(1, 0), (0, 1)], 0),
        ],
    )
    def test_cycles_are_still_detected(self, n, edges, node):
        with pytest.raises(GraphFormatError, match=rf"^cycle detected involving node {node}$") as caught:
            Dag(self._nodes(n), edges, {"a": 2})
        assert str(caught.value) == _parent_error(n, edges)

    @given(dag_documents(max_nodes=10), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_documents(self, document, rng):
        n = len(document["nodes"])
        edges = [tuple(edge) for edge in document["edges"]]
        edges += rng.choices(edges, k=rng.randint(0, len(edges))) if edges else []
        rng.shuffle(edges)
        document = dict(document, edges=[list(edge) for edge in edges])
        assert _structure(load_dag(document)) == reference_dag_edges(n, edges)

    @pytest.mark.parametrize(
        "bad",
        [(0, True), (False, 1), (0.0, 1), (0, 1.5), ("0", 1), (0, "1"), ([0], 1), (0, [1]), (None, 1),
         (-1, 2), (0, -3), (4, 1), (0, 4), (2, 10**30)],
    )
    def test_error_names_the_first_bad_edge(self, bad):
        # Good edges on both sides, and a later bad edge of the other class,
        # which must not be the one reported.
        later = (0, 2.5) if type(bad[0]) is int and type(bad[1]) is int else (0, 99)
        edges = [(0, 1), (1, 2), bad, (2, 3), later]
        with pytest.raises(GraphFormatError) as caught:
            Dag(self._nodes(4), edges, {"a": 1})
        assert str(caught.value) == _parent_error(4, edges)
        assert str(caught.value) != _parent_error(4, [later])

    def test_edges_on_a_graph_without_nodes_rejected(self):
        with pytest.raises(GraphFormatError, match="unknown node id"):
            Dag([], [(0, 0)], {})

    @pytest.mark.parametrize("bad", [(0, 1, 2), (0,), (), 5, None])
    def test_edge_that_is_not_a_pair_rejected(self, bad):
        edges = [(0, 1), bad, (1, 2)]
        with pytest.raises((TypeError, ValueError)):
            reference_dag_edges(3, edges)  # the old constructor leaked these
        with pytest.raises(GraphFormatError, match=rf"^edge {re.escape(repr(bad))} is not a pair of node ids$"):
            Dag(self._nodes(3), edges, {"a": 1})


def _assert_same_graph(trusted: Dag, checked: Dag) -> None:
    assert (trusted.nodes, trusted.name) == (checked.nodes, checked.name)
    assert list(trusted.capacities.items()) == list(checked.capacities.items())
    assert (trusted.succs, trusted.preds, trusted.topo_order) == (checked.succs, checked.preds, checked.topo_order)
    assert trusted.stats() == checked.stats()
    assert dump_dag(trusted) == dump_dag(checked)


class TestTrustedPath:
    """``Dag._from_succs``, the unchecked entry point of the generators and
    ``induced_subdag``, against the validating constructor."""

    @given(generator_specs(), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_generated_graphs_match_the_validating_constructor(self, spec, index):
        _assert_same_graph(generate_graph(spec, index), reference_generate_graph(spec, index))

    @given(generator_specs(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_induced_subgraphs_of_generated_graphs_match(self, spec, rng):
        dag = generate_graph(spec, 0)
        subset = rng.sample(range(len(dag)), rng.randint(1, len(dag)))
        _assert_same_graph(induced_subdag(dag, subset), reference_induced_subdag(dag, subset))

    @given(relabeled_dags(max_nodes=10), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_induced_subgraphs_of_relabeled_graphs_match(self, dag, rng):
        subset = rng.sample(range(len(dag)), rng.randint(1, len(dag)))
        _assert_same_graph(induced_subdag(dag, subset), reference_induced_subdag(dag, subset))

    def test_induced_subgraph_with_descending_ids_takes_the_kahn_order(self):
        nodes = [{"id": v, "type": "a", "duration": 1} for v in range(4)]
        dag = load_dag({"nodes": nodes, "edges": [[3, 1], [1, 0], [2, 0]], "capacities": {"a": 1}})
        sub = induced_subdag(dag, [0, 1, 3])
        assert sub.succs == ((), (0,), (1,))
        assert sub.topo_order == (2, 1, 0)
        _assert_same_graph(sub, reference_induced_subdag(dag, [0, 1, 3]))


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

    @given(_json_documents)
    @settings(max_examples=400, deadline=None)
    def test_canonical_json_matches_the_stdlib_writer(self, document):
        assert canonical_json(document) == _stdlib_json(document)

    @pytest.mark.parametrize(
        "document",
        [
            {"a": [np.float64(0.1), 2], "b": {}},
            [_Level.LOW, {"z": _Level.LOW}],
            {1: "a", 10: "b", 2: "c"},
        ],
    )
    def test_canonical_json_examples(self, document):
        assert canonical_json(document) == _stdlib_json(document)

    @given(
        st.one_of(
            st.lists(st.lists(_scalars, min_size=1, max_size=3) | st.tuples(_scalars, _scalars), max_size=6),
            st.lists(st.dictionaries(st.text(), _scalars, min_size=1, max_size=3), max_size=6),
        ),
        st.integers(0, 2),
    )
    @settings(max_examples=300, deadline=None)
    def test_lists_of_flat_containers_match_the_stdlib_writer(self, items, depth):
        # Written by one C encoder call with control characters as
        # separators, at any nesting depth.
        document = items
        for _ in range(depth):
            document = {"k": [document, 0]}
        assert canonical_json(document) == _stdlib_json(document)

    @pytest.mark.parametrize(
        "document",
        [
            [["]", "[\x00"], ["}\x00{", "\x01"], ["]\x00[", "\\"]],
            [{"]": "}", "\x00": "{\x00"}, {"}\x00{": "]\x00[", "a": None}],
            [[1, 2], [], [3]],
            [{"a": 1}, {}],
            [[1], {"a": 1}],
            ([0.5, math.nan], (math.inf, -math.inf, True, False)),
        ],
    )
    def test_lists_of_flat_containers_examples(self, document):
        assert canonical_json(document) == _stdlib_json(document)

    def test_dump_dag_matches_the_stdlib_writer_at_scale(self, scale_dags):
        for dag in scale_dags:
            assert dump_dag(dag) == _stdlib_json(dag_to_document(dag))

    @given(
        st.one_of(
            st.lists(st.lists(_scalars, min_size=1, max_size=3), min_size=1, max_size=4),
            st.lists(st.dictionaries(st.text(), _scalars, min_size=1, max_size=3), min_size=1, max_size=4),
        ),
        _scalars,
        st.lists(st.tuples(st.booleans(), st.integers(0, 3)), min_size=1, max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_shared_references_match_the_stdlib_writer(self, flat, scalar, places):
        # One flat list and one container that is not flat, each referred to
        # from several places at several depths, as an ablation's records
        # share one list of validation rows.
        other = {"rows": flat, "more": [flat, scalar], "again": [flat, flat]}
        document = {}
        for index, (use_flat, depth) in enumerate(places):
            value = flat if use_flat else other
            for _ in range(depth):
                value = {"k": [value, index]}
            document[str(index)] = value
        assert canonical_json(document) == _stdlib_json(document)

    def test_shared_list_is_encoded_once_per_depth(self, monkeypatch):
        rows = [{"graph": "a", "makespan": 3}, {"graph": "b", "makespan": 4}]
        document = {"x": [rows, rows, {"y": rows}], "z": rows}
        encoded = []
        real_flat_items = graph_module._flat_items

        def counting_flat_items(value, depth):
            encoded.append((id(value), depth))
            return real_flat_items(value, depth)

        monkeypatch.setattr(graph_module, "_flat_items", counting_flat_items)
        assert canonical_json(document) == _stdlib_json(document)
        # ``rows`` sits at depths 2 (twice), 3 and 1; ``x`` is not flat.
        assert Counter(encoded) == Counter([(id(document["x"]), 1), (id(rows), 1), (id(rows), 2), (id(rows), 3)])

    def test_canonical_json_rejects_a_cycle_like_the_stdlib(self):
        document: list = [1]
        document.append({"loop": document})
        with pytest.raises(ValueError, match="Circular reference detected"):
            canonical_json(document)

    def test_direct_construction_matches_loader(self):
        dag = Dag(
            [NodeRecord(0, "a", 1), NodeRecord(1, "a", 2)],
            [(0, 1)],
            {"a": 1},
        )
        assert dump_dag(dag) == dump_dag(load_dag(json.loads(dump_dag(dag))))
