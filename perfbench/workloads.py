"""The benchmark's workloads, driven through the package's public API.

Each workload splits one run into ``setup`` (generate the inputs, which
builds and validates every ``Dag``, plus ``build_vocab``) and ``body`` (the
work a user waits for, including serializing its artifacts).  ``check``
replays every schedule behind the body's result through the independent
oracle after timing.  Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from priosynth import bench, config, embedding, kernels, loop
from priosynth.dsl import eval_expr, parse_expr
from priosynth.graph import canonical_json
from priosynth.scheduler import list_schedule

from oracle import GraphOracle
from reference import LARGE_GRAPH, SMALL_GRAPHS, Reference

# (layers, width, graphs) of the large suites: four graphs of about 2.9k
# nodes and 48k edges, and two of about 5.7k nodes and 140k edges.  Several
# graphs of many layers each average out how much the seed moves their size,
# and a repetition short enough to run a dozen times per run keeps the
# median steady on a shared machine.  Wider layers put the edge sets of some
# seeds but not others past a hash-table resize, which made peak RSS jump
# by a tenth between seeds.
LARGE_SUITES = ((60, 64, 4), (80, 96, 2))


@dataclass
class Outcome:
    """What one body produced: serialized artifacts and the parsed report."""

    artifacts: dict[str, str]
    report: dict


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], object]
    body: Callable[[object, int], Outcome]
    # Returns makespan over the oracle's lower bound for every schedule it
    # replayed, and one message per failing schedule.
    check: Callable[[object, Outcome, int], tuple[list[float], list[str]]]
    gain_pct: Callable[[Outcome], float]
    # How many input sets one seed stands for; a run cycles through them.
    input_sets: int = 1
    # Run between repetitions to scale their times for the machine's speed.
    reference: Reference | None = None


def _ablation_config(seed: int, train: int | None = None, val: int | None = None,
                     iterations: int | None = None, batch: int | None = None):
    doc = config.default_run_config_document(seed)
    doc["loop"]["jobs"] = 1
    if train is not None:
        doc["train"]["count"] = train
    if val is not None:
        doc["val"]["count"] = val
    if iterations is not None:
        doc["loop"]["iterations"] = iterations
    if batch is not None:
        doc["loop"]["batch_size"] = batch
    return config.load_run_config(doc)


def _ablation_workload(input_sets: int = 1, reference: Reference | None = None, **overrides) -> Workload:
    def setup(seed: int):
        cfg = _ablation_config(seed, **overrides)
        train, val = config.build_corpora(cfg)
        vocab = embedding.build_vocab(train + val)
        return cfg, train, val, vocab

    def body(inputs, seed: int) -> Outcome:
        cfg, train, val, vocab = inputs
        library, normalizer = kernels.build_kernel_library(
            train,
            vocab=vocab,
            k=cfg.library.k,
            theta=cfg.library.theta,
            budget=cfg.library.budget,
            chain_min_len=cfg.library.chain_min_len,
        )
        report = loop.run_ablation(train, val, library, normalizer, vocab, cfg.loop, modes=cfg.modes)
        return Outcome(
            artifacts={
                "library.json": kernels.dump_library(library),
                "normalizer.json": embedding.dump_normalizer(normalizer),
                "ablation.json": canonical_json(report),
            },
            report=report,
        )

    def check(inputs, outcome: Outcome, seed: int) -> tuple[list[float], list[str]]:
        """Replay each mode winner on every validation graph."""
        _, _, val, _ = inputs
        oracles = [GraphOracle.of_dag(dag) for dag in val]
        ratios, problems = [], []
        for mode, row in outcome.report["modes"].items():
            expr = parse_expr(row["best_expr"])
            evals = row["history"]["records"][row["best_iteration"]]["evals"]
            if len(evals) != len(val):
                problems.append(f"{mode}: {len(evals)} recorded evals for {len(val)} graphs")
            for dag, graph_oracle, recorded in zip(val, oracles, evals):
                schedule = list_schedule(dag, eval_expr(expr, dag), measure=False)
                ratios.append(schedule.makespan / graph_oracle.lower)
                found = graph_oracle.check_schedule(schedule, recorded["makespan"])
                if recorded["graph"] != dag.name:
                    found.append(f"recorded graph {recorded['graph']!r}")
                if found:
                    problems.append(f"{mode} {dag.name}: " + "; ".join(found))
        return ratios, problems

    return Workload(setup, body, check, _ablation_gain, input_sets, reference)


def _ablation_gain(outcome: Outcome) -> float:
    """Mean validation makespan gain of the ``full`` winner over ``1*level``."""
    full = outcome.report["modes"]["full"]
    base = [e["makespan"] for e in full["history"]["baseline"]["evals"]]
    base_mean = sum(base) / len(base)
    return 100.0 * (base_mean - full["mean_val_makespan"]) / base_mean


def modes_differ(outcome: Outcome) -> int:
    """Validation graphs whose ``full`` and ``no_retrieval`` winners differ
    in makespan."""
    def winner_makespans(mode: str) -> list[int]:
        row = outcome.report["modes"][mode]
        return [e["makespan"] for e in row["history"]["records"][row["best_iteration"]]["evals"]]

    if not {"full", "no_retrieval"} <= set(outcome.report.get("modes", {})):
        return 0
    return sum(a != b for a, b in zip(winner_makespans("full"), winner_makespans("no_retrieval")))


def _large_setup(seed: int):
    suites = {}
    for layers, width, graphs in LARGE_SUITES:
        spec = bench.GeneratorSpec("layered", layers=layers, width=width, seed=seed, label=f"large-{layers}x{width}")
        suites[f"layered-{layers}x{width}"] = [bench.generate_graph(spec, index) for index in range(graphs)]
    vocab = embedding.build_vocab(dag for dags in suites.values() for dag in dags)
    return suites, vocab


def _large_body(inputs, seed: int) -> Outcome:
    suites, _ = inputs
    report = bench.run_campaign(suites, bench.standard_battery(seed), measure_runtime=False)
    return Outcome(artifacts={"campaign.json": canonical_json(report)}, report=report)


def _large_check(inputs, outcome: Outcome, seed: int) -> tuple[list[float], list[str]]:
    """Replay every battery heuristic on every graph.  The report keeps only
    each suite's mean makespan, so the mean of the replayed makespans must
    equal it."""
    suites, _ = inputs
    ratios, problems = [], []
    for suite_name, dags in suites.items():
        oracles = [GraphOracle.of_dag(dag) for dag in dags]
        rows = outcome.report["suites"][suite_name]["heuristics"]
        for heuristic, expr in bench.standard_battery(seed):
            row = rows[heuristic]
            makespans: list[float] = []
            for dag, graph_oracle in zip(dags, oracles):
                schedule = list_schedule(dag, eval_expr(expr, dag), measure=False)
                ratios.append(schedule.makespan / graph_oracle.lower)
                makespans.append(float(schedule.makespan))
                found = graph_oracle.check_schedule(schedule)
                if found:
                    problems.append(f"{suite_name} {dag.name} {heuristic}: " + "; ".join(found))
            # The same float sum in the same order as the campaign's summary.
            recomputed = sum(makespans) / len(makespans)
            if row["makespan"]["mean"] != recomputed:
                problems.append(f"{suite_name} {heuristic}: recorded mean makespan {row['makespan']['mean']} "
                                f"differs from recomputed {recomputed}")
            if row["feasible"] != len(dags) or row["graphs"] != len(dags):
                problems.append(f"{suite_name} {heuristic}: campaign counted {row['feasible']} feasible "
                                f"of {row['graphs']}, for {len(dags)} graphs")
    return ratios, problems


def _large_gain(outcome: Outcome) -> float:
    """Best battery heuristic's improvement over the level baseline, averaged
    over the suites."""
    suites = outcome.report["suites"]
    names = next(iter(suites.values()))["heuristics"]
    return max(
        sum(suites[suite]["heuristics"][name]["improvement_pct"] for suite in suites) / len(suites)
        for name in names
    )


WORKLOADS: dict[str, Workload] = {
    # The pinned desk ablation behind the release gate: kernels and embedding.
    # One repetition takes 14-29 s, so a run holds only one input set.
    "desk": _ablation_workload(),
    # Tiny library, many validation graphs and iterations: loop and scheduler.
    # How many passes the coordinate descent makes depends on the inputs, so
    # one input set's time moves by up to a sixth; a run of about twelve
    # repetitions cycles through ten input sets to average that out.
    "search": _ablation_workload(10, SMALL_GRAPHS, train=24, val=200, iterations=10, batch=16),
    # Six large graphs through the report path: graph, dsl and scheduler.
    # Their size moves less with the seed, and five input sets suffice.
    "large": Workload(_large_setup, _large_body, _large_check, _large_gain, 5, LARGE_GRAPH),
}
