import enum
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SCALE_SPECS,
    brute_optimal,
    capacity_ok,
    dags,
    random_dag,
    reference_list_schedule,
    reference_verify_schedule,
    relabeled_dags,
    scale_priorities,
    schedule_mutants,
    type_order,
    unit_step_schedule,
)
from priosynth import loop
from priosynth.bench import GeneratorSpec, generate_graph, standard_battery
from priosynth.dsl import eval_expr, parse_expr
from priosynth.graph import Dag, NodeRecord, load_dag
from priosynth.scheduler import (
    Schedule,
    baseline_expr_text,
    dump_schedule,
    list_schedule,
    lower_bound_makespan,
    optimal_makespan,
    verify_schedule,
)

priorities_strategy = st.integers(0, 2**32 - 1)


def seeded_priority(dag, seed):
    rng = random.Random(seed)
    return [rng.uniform(-10, 10) for _ in range(len(dag))]


class TestListSchedule:
    def test_diamond_serialization(self, diamond):
        schedule = list_schedule(diamond, eval_expr(parse_expr("1*crit"), diamond))
        assert schedule.feasible
        assert schedule.starts == {0: 0, 1: 2, 2: 2, 3: 5}
        assert schedule.makespan == 7
        doc = json.loads(dump_schedule(schedule))
        assert set(doc) == {"starts", "makespan", "feasible", "runtime_ms"}
        assert doc["starts"]["3"] == 5

    def test_chain_runs_serially(self, chain5):
        schedule = list_schedule(chain5, [0.0] * 5)
        assert schedule.makespan == sum(rec.duration for rec in chain5.nodes)

    def test_ties_break_by_id(self):
        dag = load_dag(
            {
                "nodes": [{"id": i, "type": "a", "duration": 1} for i in range(3)],
                "edges": [],
                "capacities": {"a": 1},
            }
        )
        schedule = list_schedule(dag, [1.0, 1.0, 1.0])
        assert schedule.starts == {0: 0, 1: 1, 2: 2}

    def test_higher_priority_first(self):
        dag = load_dag(
            {
                "nodes": [{"id": i, "type": "a", "duration": 1} for i in range(2)],
                "edges": [],
                "capacities": {"a": 1},
            }
        )
        schedule = list_schedule(dag, [0.0, 5.0])
        assert schedule.starts == {1: 0, 0: 1}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_priority_poisons(self, diamond, bad):
        schedule = list_schedule(diamond, [bad, 0.0, 0.0, 0.0])
        assert schedule == Schedule(starts={}, makespan=0, feasible=False, runtime_ms=schedule.runtime_ms)

    @pytest.mark.parametrize(
        "priority",
        [
            [math.nan, 0.0, 0.0, 0.0],
            (0.0, 0.0, 0.0, math.inf),
            [1e308, 1e308, 1e308, -math.inf],
            [math.inf, -math.inf, 0.0, 0.0],
            [1e308, 1e308, 1e308, math.nan],
        ],
    )
    def test_non_finite_priority_sequence_poisons(self, diamond, priority):
        schedule = list_schedule(diamond, priority, measure=False)
        assert schedule == Schedule(starts={}, makespan=0, feasible=False, runtime_ms=0.0)

    def test_missing_priority_raises(self, diamond):
        with pytest.raises(ValueError, match="^priority must be a list or tuple of 4 values indexed by node id$"):
            list_schedule(diamond, [1.0])

    def test_short_priority_sequence_raises_like_a_mapping(self):
        dag = load_dag(
            {
                "nodes": [{"id": i, "type": "a", "duration": 1} for i in range(2)],
                "edges": [],
                "capacities": {"a": 1},
            }
        )
        # A dict of the right length is refused whatever its keys, as is
        # any sequence other than a list or a tuple.
        wrong = ([1.0], (1.0, 2.0, 3.0), {0: 1.0, 1: 2.0}, {1: 2.0, 0: 1.0}, {5: 1.0, 6: 2.0}, range(2), "12", None)
        for priority in wrong:
            with pytest.raises(ValueError, match="^priority must be a list or tuple of 2 values indexed by node id$"):
                list_schedule(dag, priority)

    def test_empty_graph(self):
        dag = load_dag({"nodes": [], "edges": [], "capacities": {}})
        schedule = list_schedule(dag, [])
        assert schedule.feasible and schedule.makespan == 0 and schedule.starts == {}

    def test_measure_flag_zeroes_runtime(self, diamond):
        schedule = list_schedule(diamond, [0.0] * 4, measure=False)
        assert schedule.runtime_ms == 0.0

    @given(dags(), priorities_strategy)
    @settings(max_examples=120, deadline=None)
    def test_always_feasible_and_verified(self, dag, seed):
        priority = seeded_priority(dag, seed)
        schedule = list_schedule(dag, priority)
        assert schedule.feasible
        assert verify_schedule(dag, schedule.starts) == []
        assert capacity_ok(dag, schedule.starts)

    @given(dags(), priorities_strategy)
    @settings(max_examples=120, deadline=None)
    def test_matches_unit_step_reference(self, dag, seed):
        priority = seeded_priority(dag, seed)
        schedule = list_schedule(dag, priority)
        assert schedule.starts == unit_step_schedule(dag, priority)

    @given(dags(max_nodes=7), priorities_strategy, st.sampled_from([2.0, 4.0, 0.5, 8.0]))
    @settings(max_examples=80, deadline=None)
    def test_positive_scaling_invariance(self, dag, seed, factor):
        # Power-of-two factors rescale priorities exactly, so the greedy
        # order, and hence the whole schedule, must not change.
        priority = seeded_priority(dag, seed)
        scaled = [p * factor for p in priority]
        assert list_schedule(dag, priority).starts == list_schedule(dag, scaled).starts


    @given(relabeled_dags(), priorities_strategy)
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_on_relabeled_ids(self, dag, seed):
        priority = seeded_priority(dag, seed)
        schedule = list_schedule(dag, priority, measure=False)
        reference = reference_list_schedule(dag, priority, measure=False)
        assert schedule.starts == reference.starts
        assert schedule.makespan == reference.makespan

    def test_reads_type_indexes_in_capacity_order(self):
        # Capacities given out of name order, and a type without nodes
        # ("div") between two that have some: the graph keeps them sorted,
        # and each node's op_index points at its own type in that order.
        types = ["mul", "alu", "mul", "mem", "alu", "alu", "mem", "mul"]
        dag = Dag(
            [NodeRecord(v, op, 1 + v % 3) for v, op in enumerate(types)],
            [(0, 2), (1, 2), (1, 3), (2, 5), (3, 4), (3, 6), (4, 7), (5, 7)],
            {"mul": 1, "mem": 1, "div": 2, "alu": 2},
        )
        stats = dag.stats()
        assert list(dag.capacities) == ["alu", "div", "mem", "mul"]
        assert stats.op_index == (3, 0, 3, 2, 0, 0, 2, 3)
        for v, rec in enumerate(dag.nodes):
            assert list(dag.capacities)[stats.op_index[v]] == rec.op_type
        for priority in ([0.0] * 8, [float(v) for v in range(8)], [-float(v % 3) for v in range(8)]):
            schedule = list_schedule(dag, priority, measure=False)
            assert schedule.starts == reference_list_schedule(dag, priority, measure=False).starts
            assert verify_schedule(dag, schedule.starts) == []


class TestScaleEquivalence:
    """The per-type ready heaps against the global re-sorting scheduler they
    replaced, on graphs far past the hypothesis sizes."""

    @pytest.mark.parametrize("index", range(len(SCALE_SPECS)))
    def test_matches_reference_scheduler(self, scale_dags, index):
        dag = scale_dags[index]
        for priority in scale_priorities(dag, index):
            schedule = list_schedule(dag, priority, measure=False)
            reference = reference_list_schedule(dag, priority, measure=False)
            assert schedule.feasible and reference.feasible
            assert schedule.starts == reference.starts
            assert schedule.makespan == reference.makespan

    @pytest.mark.parametrize("index", range(len(SCALE_SPECS)))
    def test_finite_priorities_whose_sum_overflows(self, scale_dags, index):
        dag = scale_dags[index]
        n = len(dag)
        for priority in ([1e308] * n, tuple((v % 7) * 1e307 for v in range(n))):
            assert not math.isfinite(sum(priority))
            schedule = list_schedule(dag, priority, measure=False)
            reference = reference_list_schedule(dag, priority, measure=False)
            assert schedule.feasible and reference.feasible
            assert schedule.starts == reference.starts
            assert schedule.makespan == reference.makespan

    @pytest.mark.parametrize("index", range(len(SCALE_SPECS)))
    def test_makespan_is_the_latest_finish(self, scale_dags, index):
        dag = scale_dags[index]
        for priority in scale_priorities(dag, index):
            schedule = list_schedule(dag, priority, measure=False)
            assert schedule.makespan == max(t + dag.nodes[v].duration for v, t in schedule.starts.items())


def heap_order(dag, priority):
    """Each type's members in the order its ready heap pops them, by the
    heap's own (-priority, id) key, the types in capacity order."""
    order = []
    for op in dag.capacities:
        members = [v for v, rec in enumerate(dag.nodes) if rec.op_type == op]
        order += sorted(members, key=lambda v: (-priority[v], v))
    return tuple(order)


class TestTypeOrder:
    """``type_order`` is a memo key for ``list_schedule``: any two priority
    vectors that order each type's members alike schedule alike."""

    @given(dags(), priorities_strategy, st.lists(st.integers(-50, 50), min_size=4, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_per_type_ranks_schedule_alike(self, dag, seed, offsets):
        # Few distinct values, so ties within a type are common.
        rng = random.Random(seed)
        values = [rng.uniform(-10, 10) for _ in range(3)] + [0.0, -0.0]
        priority = [rng.choice(values) for _ in range(len(dag))]
        # Each member's rank within its type, plus an offset per type: an
        # order-preserving map per type that reorders the types against
        # each other freely and breaks every tie as the id does.
        ranked = [0.0] * len(dag)
        for index, op in enumerate(dag.capacities):
            members = [v for v, rec in enumerate(dag.nodes) if rec.op_type == op]
            ordered = sorted(members, key=lambda v: (-priority[v], v))
            for rank, v in enumerate(ordered):
                ranked[v] = float(len(ordered) - rank + 1000 * offsets[index % len(offsets)])
        key = type_order(dag, priority)
        assert key == heap_order(dag, priority)
        assert type_order(dag, ranked) == key
        schedule = list_schedule(dag, priority, measure=False)
        again = list_schedule(dag, ranked, measure=False)
        assert schedule.feasible and again.feasible
        assert schedule.starts == again.starts
        assert schedule.makespan == again.makespan

    def test_members_are_cached_per_graph(self, diamond):
        assert type_order(diamond, [0.0, 1.0, 5.0, 2.0]) == (3, 1, 0, 2)
        assert diamond.stats() is diamond.stats()
        assert diamond.stats().members == ((0, 1, 3), (2,))

    def test_empty_graph(self):
        dag = load_dag({"nodes": [], "edges": [], "capacities": {"a": 1}})
        assert type_order(dag, []) == ()

    @pytest.mark.parametrize(
        "priority",
        [
            [math.nan, 0.0, 0.0, 0.0],
            (0.0, 0.0, 0.0, math.inf),
            [1e308, 1e308, 1e308, -math.inf],
            [math.inf, -math.inf, 0.0, 0.0],
            [1e308, 1e308, 1e308, math.nan],
        ],
    )
    def test_non_finite_priority_has_no_order(self, diamond, priority):
        assert type_order(diamond, priority) is None

    def test_finite_priorities_whose_sum_overflows_have_an_order(self, diamond):
        priority = [1e308, 1e308, 1e308, -1e308]
        assert type_order(diamond, priority) == heap_order(diamond, priority) == (0, 1, 3, 2)

    @pytest.mark.parametrize("text", ["1e308*crit", "-1e308*crit", "1e308*crit - 1e308*level"])
    def test_non_finite_expression_is_infeasible_through_the_loop_memo(self, diamond, text, monkeypatch):
        expr = parse_expr(text)
        priority = eval_expr(expr, diamond)
        assert not all(map(math.isfinite, priority))
        calls = []
        real_schedule = loop.list_schedule

        def counting_schedule(dag, priority, measure=True):
            calls.append(dag)
            return real_schedule(dag, priority, measure=measure)

        monkeypatch.setattr(loop, "list_schedule", counting_schedule)
        cfg, cache = loop.LoopConfig(), loop.RunCache()
        for _ in range(2):
            (row,) = loop.evaluate_heuristic(expr, [diamond], cfg, cache)
            assert (row["makespan"], row["feasible"]) == (0, False)
        # Scheduled once, and stored under the expression's terms only.
        assert calls == [diamond]
        assert cache.schedules == {(diamond, expr.terms): (0, False)}
        (row,) = loop.evaluate_heuristic(parse_expr("1*crit"), [diamond], cfg, cache)
        assert (row["makespan"], row["feasible"]) == (7, True)


class TestVerify:
    def test_reports_missing_node(self, diamond):
        assert any("no start" in v for v in verify_schedule(diamond, {0: 0}))

    def test_reports_precedence_violation(self, diamond):
        violations = verify_schedule(diamond, {0: 0, 1: 1, 2: 2, 3: 5})
        assert any("precedence" in v for v in violations)

    def test_reports_capacity_violation(self):
        dag = load_dag(
            {
                "nodes": [{"id": i, "type": "a", "duration": 2} for i in range(2)],
                "edges": [],
                "capacities": {"a": 1},
            }
        )
        violations = verify_schedule(dag, {0: 0, 1: 1})
        assert any("capacity" in v for v in violations)

    def test_bool_key_is_an_unknown_node(self):
        # True == 1 and hashes like 1, so a membership test alone finds it.
        dag = load_dag(
            {
                "nodes": [{"id": i, "type": "a", "duration": 1} for i in range(2)],
                "edges": [[0, 1]],
                "capacities": {"a": 1},
            }
        )
        assert verify_schedule(dag, {0: 0, True: 1}) == ["unknown node True in starts"]

    def test_reports_bad_start_values(self, diamond):
        assert verify_schedule(diamond, {0: -1, 1: 2, 2: 2, 3: 5})
        assert verify_schedule(diamond, {0: 0.5, 1: 2, 2: 2, 3: 5})

    def test_accepts_valid_schedule_with_idle_gap(self, chain5):
        starts = {}
        t = 3  # deliberate initial idle time is still valid
        for rec in chain5.nodes:
            starts[rec.id] = t
            t += rec.duration
        assert verify_schedule(chain5, starts) == []


def _framed(dag: Dag, sinks: int) -> Dag:
    """``dag`` with its ids moved up by 2 behind a new edge ``(0, 1)``, then
    a new edge between the next two ids, then ``sinks`` isolated nodes, all
    of its first type: the first and the last edge in ``succs`` order are
    each the only edge into their head, and the highest ids are sinks."""
    n, op = len(dag), next(iter(dag.capacities))
    nodes = [NodeRecord(0, op, 1), NodeRecord(1, op, 1)]
    nodes += [NodeRecord(rec.id + 2, rec.op_type, rec.duration) for rec in dag.nodes]
    nodes += [NodeRecord(v, op, 1) for v in range(n + 2, n + 4 + sinks)]
    edges = [(0, 1)] + [(u + 2, v + 2) for u, v in dag.edges] + [(n + 2, n + 3)]
    return Dag(nodes, edges, dag.capacities)


@pytest.fixture(scope="module")
def verify_dags(scale_dags):
    """The scale graphs, then the second one framed by two lone edges and
    30 trailing sinks: the precedence test's cached layout has a segment
    per node with successors, and this graph puts one at either end."""
    return (*scale_dags, _framed(scale_dags[1], 30))


class TestVerifyEquivalence:
    """The vector checks must accept exactly what the message loop accepts,
    and every rejected schedule must get the message loop's exact
    messages."""

    @pytest.mark.parametrize("index", range(len(SCALE_SPECS) + 1))
    def test_messages_match_reference_at_scale(self, verify_dags, index):
        dag = verify_dags[index]
        starts = list_schedule(dag, scale_priorities(dag, index)[3], measure=False).starts
        assert verify_schedule(dag, starts) == reference_verify_schedule(dag, starts) == []
        mutants = schedule_mutants(dag, starts)
        chain = index < len(SCALE_SPECS) and SCALE_SPECS[index].family == "chain"
        assert chain or "capacity_by_one" in mutants
        for kind, mutant in mutants.items():
            expected = reference_verify_schedule(dag, mutant)
            assert expected, kind
            assert verify_schedule(dag, mutant) == expected, kind

    def test_float_key_is_an_unknown_node(self, diamond):
        starts = {0: 0, 1.0: 2, 2: 2, 3: 5}
        expected = ["unknown node 1.0 in starts"]
        assert verify_schedule(diamond, starts) == reference_verify_schedule(diamond, starts) == expected

    def test_capacity_boundary(self):
        # Two units of "a": a third op may start exactly when one finishes,
        # but not a cycle earlier.
        dag = load_dag(
            {
                "nodes": [{"id": i, "type": "a", "duration": 2} for i in range(3)],
                "edges": [],
                "capacities": {"a": 2},
            }
        )
        assert verify_schedule(dag, {0: 0, 1: 0, 2: 2}) == []
        late = {0: 0, 1: 0, 2: 1}
        expected = ["capacity exceeded for type 'a' at cycle 1"]
        assert verify_schedule(dag, late) == reference_verify_schedule(dag, late) == expected

    @given(dags(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_random_starts_match_reference(self, dag, seed):
        # Random starts near a list schedule: some valid, most not.
        rng = random.Random(seed)
        base = list_schedule(dag, seeded_priority(dag, seed), measure=False).starts
        starts = {v: max(0, s + rng.choice((0, 0, 0, -1, 1, -2))) for v, s in base.items()}
        assert verify_schedule(dag, starts) == reference_verify_schedule(dag, starts)


@st.composite
def dags_with_starts(draw):
    """A graph and a start map that need not come from any scheduler: small
    int starts that break edges and capacities freely, sometimes with node
    ids dropped, keys outside the id range or float keys, and sometimes with
    negative, float or bool start values.  Bool keys are left out: the
    reference checker predates treating them as unknown nodes."""
    dag = draw(dags())
    n = len(dag)
    starts: dict = {v: draw(st.integers(0, 2 * n)) for v in range(n)}
    if draw(st.booleans()):
        for v in draw(st.sets(st.integers(0, n - 1), max_size=2)):
            del starts[v]
        for key in draw(st.lists(st.integers(-2, n + 1) | st.sampled_from([0.0, 1.0, 2.5]), max_size=3)):
            starts[key] = draw(st.integers(0, 2 * n))
    if starts and draw(st.booleans()):
        for key in draw(st.sets(st.sampled_from(sorted(starts, key=repr)), max_size=3)):
            starts[key] = draw(st.integers(-2, -1) | st.sampled_from([0.0, 1.0, 2.5]) | st.booleans())
    return dag, starts


class TestVerifyArbitraryStarts:
    """The checker against the reference on start maps that are not
    perturbed list schedules."""

    @given(dags_with_starts())
    @settings(max_examples=300, deadline=None)
    def test_messages_match_reference(self, dag_and_starts):
        dag, starts = dag_and_starts
        assert verify_schedule(dag, starts) == reference_verify_schedule(dag, starts)

    def test_several_edges_and_types_at_once(self):
        dag = load_dag(
            {
                "nodes": [{"id": i, "type": "ab"[i % 2], "duration": 2} for i in range(6)],
                "edges": [[0, 2], [1, 3], [2, 4]],
                "capacities": {"a": 1, "b": 2},
            }
        )
        starts = {v: 0 for v in range(6)}
        expected = [
            "precedence violated on edge (0, 2): 0 < 0 + 2",
            "precedence violated on edge (1, 3): 0 < 0 + 2",
            "precedence violated on edge (2, 4): 0 < 0 + 2",
            "capacity exceeded for type 'a' at cycle 0",
            "capacity exceeded for type 'b' at cycle 0",
        ]
        assert verify_schedule(dag, starts) == reference_verify_schedule(dag, starts) == expected

    def test_int_subclass_starts_are_checked(self):
        # They fail the plain-int type test but are valid start values, so
        # the later checks still run on them.
        cycle = enum.IntEnum("Cycle", {"ZERO": 0, "ONE": 1, "TWO": 2})
        dag = load_dag(
            {
                "nodes": [{"id": i, "type": "a", "duration": 2} for i in range(2)],
                "edges": [[0, 1]],
                "capacities": {"a": 1},
            }
        )
        assert verify_schedule(dag, {0: cycle.ZERO, 1: cycle.TWO}) == []
        late = {0: cycle.ZERO, 1: cycle.ONE}
        violations = verify_schedule(dag, late)
        assert violations == reference_verify_schedule(dag, late)
        assert [v.split(" ")[0] for v in violations] == ["precedence", "capacity"]

    def test_empty_graph(self):
        dag = Dag([], [], {})
        assert verify_schedule(dag, {}) == []
        assert verify_schedule(dag, {0: 0}) == ["unknown node 0 in starts"]


def shifted(starts, offset):
    """Every nonnegative int start moved by ``offset``; other values kept,
    so each mutant keeps its kind of violation."""
    return {v: s + offset if type(s) is int and s >= 0 else s for v, s in starts.items()}


class TestVectorChecks:
    """The whole-array precedence and capacity tests against the reference
    message loop, at the edges of what the arrays hold."""

    @pytest.mark.parametrize("index", range(len(SCALE_SPECS) + 1))
    def test_starts_past_int64(self, verify_dags, index):
        dag = verify_dags[index]
        starts = list_schedule(dag, scale_priorities(dag, index)[3], measure=False).starts
        assert verify_schedule(dag, shifted(starts, 2**70)) == []
        for kind, mutant in schedule_mutants(dag, starts).items():
            mutant = shifted(mutant, 2**70)
            expected = reference_verify_schedule(dag, mutant)
            assert expected, kind
            assert verify_schedule(dag, mutant) == expected, kind

    def test_int_enum_starts_at_scale(self, scale_dags):
        dag = scale_dags[5]
        starts = list_schedule(dag, scale_priorities(dag, 5)[3], measure=False).starts
        cycle = enum.IntEnum("Cycle", {f"C{t}": t for t in range(max(starts.values()) + 1)})
        assert verify_schedule(dag, {v: cycle(s) for v, s in starts.items()}) == []
        mutants = schedule_mutants(dag, starts)
        for kind in ("one_edge", "several_edges", "capacity_by_one"):
            mutant = {v: cycle(s) for v, s in mutants[kind].items()}
            expected = reference_verify_schedule(dag, mutant)
            assert expected, kind
            assert verify_schedule(dag, mutant) == expected, kind

    def test_graph_without_edges(self):
        dag = Dag([NodeRecord(v, "a", 2) for v in range(5)], [], {"a": 2})
        for offset in (0, 2**70):
            assert verify_schedule(dag, shifted({0: 0, 1: 0, 2: 2, 3: 2, 4: 4}, offset)) == []
            late = shifted({0: 0, 1: 0, 2: 1, 3: 2, 4: 4}, offset)
            assert verify_schedule(dag, late) == reference_verify_schedule(dag, late)
            assert verify_schedule(dag, late) == [f"capacity exceeded for type 'a' at cycle {offset + 1}"]

    @pytest.mark.parametrize("offset", [0, 2**70])
    @pytest.mark.parametrize("position", [0, -1])
    def test_broken_end_edge_alone(self, verify_dags, position, offset):
        # The first and the last edge in ``succs`` order open the first
        # segment and close the last one; starting its head a cycle early
        # breaks that edge and no other.
        dag = verify_dags[-1]
        starts = list_schedule(dag, [float(v) for v in range(len(dag))], measure=False).starts
        u, v = dag.edges[position]
        assert dag.preds[v] == (u,)
        broken = shifted({**starts, v: starts[u] + dag.nodes[u].duration - 1}, offset)
        expected = reference_verify_schedule(dag, broken)
        assert [m for m in expected if m.startswith("precedence")] == [
            f"precedence violated on edge ({u}, {v}): {broken[v]} < {broken[u]} + {dag.nodes[u].duration}"
        ]
        assert verify_schedule(dag, broken) == expected

    def test_capacity_type_without_nodes(self):
        dag = Dag([NodeRecord(0, "b", 1), NodeRecord(1, "b", 1)], [(0, 1)], {"a": 1, "b": 1, "c": 3})
        assert verify_schedule(dag, {0: 0, 1: 1}) == []
        broken = {0: 0, 1: 0}
        assert verify_schedule(dag, broken) == reference_verify_schedule(dag, broken)
        assert [v.split(" ")[0] for v in verify_schedule(dag, broken)] == ["precedence", "capacity"]

    def test_second_check_reuses_the_cached_arrays(self, scale_dags):
        dag = Dag(scale_dags[1].nodes, scale_dags[1].edges, scale_dags[1].capacities)
        starts = list_schedule(dag, scale_priorities(dag, 1)[2], measure=False).starts
        mutant = schedule_mutants(dag, starts)["several_edges"]
        assert dag._checks is None
        assert verify_schedule(dag, starts) == []
        cached = dag._checks
        assert cached is not None
        assert verify_schedule(dag, mutant) == reference_verify_schedule(dag, mutant)
        assert verify_schedule(dag, starts) == []
        assert dag._checks is cached


class TestOptimal:
    def test_node_limit_enforced(self):
        dag = random_dag(random.Random(0), 13)
        with pytest.raises(ValueError, match="limited"):
            optimal_makespan(dag)

    def test_empty_graph(self):
        dag = load_dag({"nodes": [], "edges": [], "capacities": {}})
        assert optimal_makespan(dag) == 0

    def test_chain_equals_duration_sum(self, chain5):
        assert optimal_makespan(chain5) == sum(rec.duration for rec in chain5.nodes)

    def test_known_packing_instance(self):
        # Three unit-capacity ops of durations 3, 2, 2: serial is 7 but the
        # optimum packs nothing better, while capacity 2 packs to 4.
        doc = {
            "nodes": [
                {"id": 0, "type": "a", "duration": 3},
                {"id": 1, "type": "a", "duration": 2},
                {"id": 2, "type": "a", "duration": 2},
            ],
            "edges": [],
            "capacities": {"a": 1},
        }
        assert optimal_makespan(load_dag(doc)) == 7
        doc["capacities"] = {"a": 2}
        assert optimal_makespan(load_dag(doc)) == 4

    def test_beats_greedy_when_delaying_helps(self):
        # Non-delay schedules are suboptimal here: greedily starting the long
        # op at cycle 0 blocks the chain head; the optimum idles instead.
        doc = {
            "nodes": [
                {"id": 0, "type": "a", "duration": 5},
                {"id": 1, "type": "a", "duration": 1},
                {"id": 2, "type": "b", "duration": 6},
            ],
            "edges": [[1, 2]],
            "capacities": {"a": 1, "b": 1},
        }
        dag = load_dag(doc)
        assert optimal_makespan(dag) == 7
        greedy_long_first = list_schedule(dag, [1.0, 0.0, 0.0])
        assert greedy_long_first.makespan == 12

    @given(dags(max_nodes=5, max_duration=2, max_types=2, max_cap=2))
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_enumeration(self, dag):
        assert optimal_makespan(dag) == brute_optimal(dag)

    @given(dags(max_nodes=9), priorities_strategy)
    @settings(max_examples=60, deadline=None)
    def test_sandwiched_by_bounds(self, dag, seed):
        opt = optimal_makespan(dag)
        assert lower_bound_makespan(dag) <= opt
        schedule = list_schedule(dag, seeded_priority(dag, seed))
        assert opt <= schedule.makespan

    @given(dags(max_nodes=8, max_cap=3))
    @settings(max_examples=40, deadline=None)
    def test_ample_capacity_reaches_critical_path(self, dag):
        # With capacities at least |V| nothing ever waits on a resource.
        relaxed = load_dag(
            {
                "nodes": [
                    {"id": rec.id, "type": rec.op_type, "duration": rec.duration}
                    for rec in dag.nodes
                ],
                "edges": [list(edge) for edge in dag.edges],
                "capacities": {op: len(dag) for op in dag.capacities},
            }
        )
        assert optimal_makespan(relaxed, node_limit=8) == relaxed.stats().cp_length


def test_baseline_expression_is_level():
    assert parse_expr(baseline_expr_text()).terms == ((1.0, "level"),)


def test_lower_bound_work_term():
    dag = load_dag(
        {
            "nodes": [{"id": i, "type": "a", "duration": 3} for i in range(4)],
            "edges": [],
            "capacities": {"a": 2},
        }
    )
    # cp = 3 but work bound is ceil(12 / 2) = 6.
    assert lower_bound_makespan(dag) == 6


@settings(max_examples=200, deadline=None)
@given(dags(max_types=4))
def test_lower_bound_matches_the_per_type_work_formula(dag):
    # The bound as it was computed before the stats table held each type's
    # work: a dict of duration sums keyed in capacity order.
    work = {t: 0 for t in dag.capacities}
    for rec in dag.nodes:
        work[rec.op_type] += rec.duration
    bound = dag.stats().cp_length
    for op, total in work.items():
        bound = max(bound, -(-total // dag.capacities[op]))
    assert lower_bound_makespan(dag) == bound


def test_non_finite_guard_is_exact(diamond):
    values = [1.0, 2.0, 3.0, math.ldexp(1, 1000)]
    assert list_schedule(diamond, values).feasible


def typed_graham_bound(dag) -> Fraction:
    """cp + sum over types of work / capacity, exactly.

    Graham's argument, per type: follow a chain back from the node that
    finishes last.  Whenever no chain node runs, the next chain node is ready
    and waits, so every unit of its type is busy; that idle-chain time is at
    most work_t / cap_t per type.  So every list schedule that never leaves a
    ready node waiting beside a free unit ends by this bound.  The critical
    path is recomputed here from the edges rather than read from ``Dag.stats``."""
    finish: dict[int, int] = {}
    for v in dag.topo_order:
        finish[v] = dag.nodes[v].duration + max((finish[u] for u in dag.preds[v]), default=0)
    work: dict[str, int] = {}
    for rec in dag.nodes:
        work[rec.op_type] = work.get(rec.op_type, 0) + rec.duration
    return max(finish.values(), default=0) + sum(Fraction(w, dag.capacities[op]) for op, w in work.items())


@pytest.mark.parametrize(
    ("family", "layers", "width", "edge_prob"),
    [
        ("layered", 24, 20, 0.35),
        ("layered", 40, 48, 0.1),
        ("layered", 30, 140, 0.02),
        ("fork_join", 60, 30, 0.35),
        ("diamond_mesh", 100, 12, 0.35),
    ],
)
def test_list_schedules_of_large_graphs_meet_the_typed_graham_bound(family, layers, width, edge_prob):
    # Hundreds to a few thousand nodes, far past optimal_makespan's limit.
    for index in range(2):
        spec = GeneratorSpec(family=family, layers=layers, width=width, edge_prob=edge_prob, seed=7, label="graham")
        dag = generate_graph(spec, index)
        assert len(dag) >= 200
        upper = typed_graham_bound(dag)
        lower = lower_bound_makespan(dag)
        priorities = [eval_expr(expr, dag) for _, expr in standard_battery(index)]
        priorities += [seeded_priority(dag, seed) for seed in range(3)]
        for priority in priorities:
            schedule = list_schedule(dag, priority, measure=False)
            assert schedule.feasible
            assert verify_schedule(dag, schedule.starts) == []
            assert lower <= schedule.makespan <= upper
