"""Tests of the benchmark itself: the oracle, span arithmetic, the wrappers
and the printer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
from oracle import GraphOracle, critical_path  # noqa: E402
from priosynth import bench, loop, scheduler  # noqa: E402
from priosynth.dsl import eval_expr, parse_expr  # noqa: E402
from reference import Reference  # noqa: E402
from spans import Span, Tracer, aggregate, install, outermost, self_times, under, uninstall  # noqa: E402
from workloads import WORKLOADS, Outcome, Workload, _ablation_workload  # noqa: E402

# Diamond 0 -> {1, 2} -> 3; nodes 1 and 2 share one alu unit.
DURATIONS = [2, 3, 3, 1]
TYPES = ["mem", "alu", "alu", "mem"]
EDGES = [(0, 1), (0, 2), (1, 3), (2, 3)]
CAPS = {"alu": 1, "mem": 1}


def diamond() -> GraphOracle:
    return GraphOracle(DURATIONS, TYPES, EDGES, CAPS)


def test_diamond_bounds():
    oracle = diamond()
    assert oracle.cp == 6
    assert oracle.lower == 6
    assert oracle.upper == 6 + 6 + 3


def test_oracle_accepts_a_valid_schedule():
    assert diamond().check({0: 0, 1: 2, 2: 5, 3: 8}, recorded_makespan=9) == []


def test_oracle_rejects_broken_precedence():
    problems = diamond().check({0: 0, 1: 1, 2: 5, 3: 8})
    assert any("edge (0, 1)" in p for p in problems)


def test_oracle_rejects_broken_capacity():
    problems = diamond().check({0: 0, 1: 2, 2: 3, 3: 8})
    assert any("capacity" in p for p in problems)


def test_oracle_rejects_makespan_above_upper_bound():
    # Valid precedence and capacity, but an idle gap no list schedule leaves.
    problems = diamond().check({0: 0, 1: 2, 2: 5, 3: 20})
    assert len(problems) == 1 and "upper bound" in problems[0]


def test_oracle_rejects_makespan_below_lower_bound():
    problems = diamond().check({0: 0, 1: 0, 2: 0, 3: 0})
    assert any("lower bound" in p for p in problems)


def test_oracle_rejects_incomplete_and_mismatched_schedules():
    assert any("no start" in p for p in diamond().check({0: 0, 1: 2, 2: 5}))
    assert any("not a nonnegative integer" in p for p in diamond().check({0: -1, 1: 2, 2: 5, 3: 8}))
    assert any("recorded makespan" in p for p in diamond().check({0: 0, 1: 2, 2: 5, 3: 8}, recorded_makespan=8))


def test_critical_path_rejects_a_cycle():
    with pytest.raises(ValueError):
        critical_path([1, 1], [(0, 1), (1, 0)])


@pytest.mark.parametrize("seed", range(3))
def test_oracle_accepts_the_scheduler_on_generated_graphs(seed):
    spec = bench.GeneratorSpec("layered", layers=12, width=10, seed=seed, label="oracle")
    dag = bench.generate_graph(spec, 0)
    oracle = GraphOracle.of_dag(dag)
    for _, expr in bench.standard_battery(seed):
        schedule = scheduler.list_schedule(dag, eval_expr(expr, dag), measure=False)
        assert oracle.check_schedule(schedule, schedule.makespan) == []


def test_oracle_flags_infeasible_and_wrong_makespan():
    spec = bench.GeneratorSpec("layered", layers=3, width=3, seed=0, label="oracle")
    dag = bench.generate_graph(spec, 0)
    schedule = scheduler.list_schedule(dag, eval_expr(parse_expr("1*crit"), dag), measure=False)
    oracle = GraphOracle.of_dag(dag)
    schedule.makespan += 1
    assert any("scheduler makespan" in p for p in oracle.check_schedule(schedule))
    schedule.feasible = False
    assert oracle.check_schedule(schedule) == ["scheduler reported the schedule infeasible"]


def synthetic_tree() -> list[Span]:
    return [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 9.0, 0),
        Span("c", 6.0, 8.0, 2),
        Span("b", 6.5, 7.0, 3),
    ]


def test_self_time_subtracts_direct_children():
    assert self_times(synthetic_tree()) == pytest.approx([3.0, 3.0, 2.0, 1.5, 0.5])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [Span("p", 0.0, 10.0, -1), Span("x", 1.0, 5.0, 0), Span("y", 3.0, 7.0, 0), Span("z", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_inclusive_time_counts_recursion_once():
    spans = synthetic_tree()
    assert outermost(spans) == [True, True, True, True, False]
    table = aggregate(spans)
    assert table["b"] == {"calls": 2, "s": pytest.approx(4.0), "self_s": pytest.approx(2.5)}
    assert under(spans, "b") == [False, False, False, True, True]


def test_tracer_records_parents_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.counted("leaf", lambda: None)
    inner = tracer.timed("inner", lambda: leaf(), meta=lambda: "m", result=lambda value: "r")
    outer = tracer.timed("outer", lambda: [inner(), inner()])
    outer()
    leaf()
    assert [(s.name, s.parent, s.meta, s.result) for s in tracer.spans] == [
        ("outer", -1, None, None),
        ("inner", 0, "m", "r"),
        ("inner", 0, "m", "r"),
    ]
    assert tracer.counts == {("leaf", "inner"): 2, ("leaf", ""): 1}


def test_install_replaces_every_binding_and_uninstall_restores():
    original = scheduler.list_schedule
    tracer = Tracer()
    undo = install(tracer, [(scheduler, "list_schedule", "s", "span", None, None)])
    try:
        assert loop.list_schedule is bench.list_schedule is scheduler.list_schedule
        assert scheduler.list_schedule is not original
    finally:
        uninstall(undo)
    assert loop.list_schedule is bench.list_schedule is scheduler.list_schedule is original


def test_traced_tiny_ablation_matches_untraced_and_reports_every_metric():
    tiny = _ablation_workload(train=6, val=6, iterations=2, batch=4)
    plain = tiny.body(tiny.setup(3), 3)
    tracer = Tracer()
    undo = install(tracer, layers.targets())
    try:
        traced = tiny.body(tiny.setup(3), 3)
    finally:
        uninstall(undo)
    assert run.digest(traced.artifacts) == run.digest(plain.artifacts)
    values = layers.per_layer(tracer, 0, 0.0)
    assert list(values) == [name for name, _ in layers.PER_LAYER]
    assert values["loop.fallback_synthesize.calls"] == 8
    assert values["scheduler.list_schedule.calls"] >= values["loop.fallback.schedules"] > 0
    assert 0 < values["graph.stats.hit_ratio"] < 1
    ratios, problems = tiny.check(tiny.setup(3), plain, 3)
    assert len(ratios) == 4 * 6 and min(ratios) >= 1.0 and problems == []


def toy_workload(input_sets: int, body) -> Workload:
    return Workload(
        setup=lambda seed: seed,
        body=body,
        check=lambda inputs, outcome, seed: ([1.0 + seed], []),
        gain_pct=lambda outcome: 0.0,
        input_sets=input_sets,
    )


def test_run_cycles_through_the_input_sets_of_its_seed():
    seen = []

    def body(inputs, seed):
        seen.append(seed)
        return Outcome(artifacts={"out": str(inputs)}, report={})

    timed = run.Run(toy_workload(3, body), seed=2, seconds=0)
    timed.repeat()
    assert seen == [6, 7, 8] == timed.input_seeds
    assert list(timed.digests) == [6, 7, 8]
    assert timed.ratios == [7.0, 8.0, 9.0]
    assert timed.first.artifacts == {"out": "6"}
    assert (timed.attempted, timed.failed) == (6, 0)


def test_run_fails_a_repetition_whose_artifacts_change():
    calls = []

    def body(inputs, seed):
        calls.append(seed)
        time.sleep(0.002)
        return Outcome(artifacts={"out": str(len(calls))}, report={})

    timed = run.Run(toy_workload(1, body), seed=0, seconds=0.02)
    timed.repeat()
    assert len(calls) > 1
    assert timed.failed == len(calls) - 1
    assert all("differ from its first repetition" in p for p in timed.problems)


def test_run_scales_each_repetition_by_the_reference_around_it():
    passes = iter([1.0, 2.0, 0.5])

    def body(inputs, seed):
        return Outcome(artifacts={"out": str(inputs)}, report={})

    workload = toy_workload(3, body)
    workload = Workload(**{**workload.__dict__, "reference": Reference(lambda: next(passes), 1.0)})
    timed = run.Run(workload, seed=0, seconds=0)
    timed.repeat()
    assert timed.references == [1.0, 2.0, 0.5]
    # The first repetition has only the pass after it.
    assert timed.scales() == pytest.approx([1.0, 2 / 3, 2 / 2.5])
    assert run.Run(toy_workload(2, body), seed=0, seconds=0).scales() == []


def test_references_time_fixed_work():
    from reference import LARGE_GRAPH, SMALL_GRAPHS, _list_schedule

    # Diamond with both middle nodes on the single alu unit: 2 + 3 + 3 + 1.
    assert _list_schedule(DURATIONS, TYPES, EDGES, CAPS) == 9
    for reference in (SMALL_GRAPHS, LARGE_GRAPH):
        assert reference.run() > 0 and reference.nominal_s > 0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES) == set(WORKLOADS)


def test_printer_emits_every_metric_with_its_unit():
    for specs in (run.END_TO_END, layers.PER_LAYER):
        metrics = {name: {"value": 1.5, "unit": unit} for name, unit in specs}
        lines = run.metric_lines(metrics)
        assert len(lines) == len(specs)
        for line, (name, unit) in zip(lines, specs):
            assert line.split()[0] == name and line.split()[-1] == unit


def test_table_has_one_row_per_workload_and_a_unit_per_column():
    metrics = {name: {"value": 2.0, "unit": unit} for name, unit in run.END_TO_END}
    lines = run.table_lines({"search": metrics, "large": metrics})
    for name, unit in run.END_TO_END:
        assert f"{name} [{unit}]" in lines[0]
    assert [line.split()[0] for line in lines[1:]] == ["search", "large"]
    transposed = run.table_lines({"search": metrics, "large": metrics}, by_metric=True)
    assert transposed[0].split() == ["metric", "search", "large"]
    assert [line.split()[:2] for line in transposed[1:]] == [[name, f"[{unit}]"] for name, unit in run.END_TO_END]
