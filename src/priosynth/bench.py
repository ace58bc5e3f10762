"""Seeded workload generators, summary statistics, and batch campaigns.

Every generated graph is a pure function of (seed, label, index), so suites
are reproducible byte for byte across processes and platforms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from math import isfinite, sqrt
from typing import Mapping, Sequence

from .dsl import FEATURES, PriorityExpr, eval_expr, make_expr, parse_expr, print_expr
from .graph import Dag, NodeRecord
from .kernels import template_expr
from .scheduler import baseline_expr_text, list_schedule, verify_schedule

FAMILIES = ("layered", "chain", "fork_join", "diamond_mesh")


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one graph family.

    ``layers`` is depth (chain length for the chain family); ``width`` is the
    per-layer node budget; ``edge_prob`` is the cross-layer wiring density
    for the layered family.  Durations are drawn uniformly from the inclusive
    range.  ``label`` isolates the random stream of this suite from others
    sharing a seed.
    """

    family: str = "layered"
    layers: int = 4
    width: int = 4
    edge_prob: float = 0.35
    type_weights: tuple[tuple[str, float], ...] = (("alu", 3.0), ("mem", 1.0), ("mul", 1.0))
    duration_range: tuple[int, int] = (1, 6)
    capacities: tuple[tuple[str, int], ...] = (("alu", 2), ("mem", 1), ("mul", 1))
    seed: int = 0
    label: str = "suite"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown graph family {self.family!r}")
        if self.layers < 1 or self.width < 1:
            raise ValueError("layers and width must be positive")
        if not (0.0 <= self.edge_prob <= 1.0):
            raise ValueError("edge_prob must lie in [0, 1]")
        lo, hi = self.duration_range
        if lo < 1 or hi < lo:
            raise ValueError("duration_range must satisfy 1 <= lo <= hi")
        weights = [weight for _, weight in self.type_weights]
        if not (all(isfinite(w) and w >= 0 for w in weights) and sum(weights) > 0):
            raise ValueError(
                f"type_weights must be finite and nonnegative with a positive total, got {dict(self.type_weights)!r}"
            )


def generate_graph(spec: GeneratorSpec, index: int) -> Dag:
    """Deterministically generate graph ``index`` of a suite.

    Every family's edges ascend (``pred < succ``), so :class:`Dag` takes the
    ids in order as the topological order.  The layered and chain families,
    which reach thousands of nodes, also hand their edges over strictly
    increasing in ``(pred, succ)`` and one at a time, from a generator: the
    constructor then files each straight into its adjacency lists, with no
    sort and no edge tuple kept.  The layered family draws each node's
    predecessors as the node ids ascend and files each edge under its
    predecessor to get that order.
    """
    rng = random.Random(f"{spec.seed}:{spec.label}:{index}")
    if spec.family == "layered":
        layer_sizes = [rng.randint(max(1, spec.width // 2), spec.width) for _ in range(spec.layers)]
        layers: list[range] = []
        counter = 0
        for size in layer_sizes:
            layers.append(range(counter, counter + size))
            counter += size
        total = counter
        succs: list[list[int]] = [[] for _ in range(total)]
        draw, edge_prob = rng.random, spec.edge_prob
        for above, layer in zip(layers, layers[1:]):
            for v in layer:
                preds = [u for u in above if draw() < edge_prob]
                if not preds:
                    preds = [rng.choice(above)]
                for u in preds:
                    succs[u].append(v)
        edges = ((u, v) for u, vs in enumerate(succs) for v in vs)
    elif spec.family == "chain":
        total = spec.layers
        edges = ((i, i + 1) for i in range(total - 1))
    elif spec.family == "fork_join":
        # Root, `width` parallel chains of `layers` nodes, join.
        total = 2 + spec.width * spec.layers
        edges = []
        join = total - 1
        for branch in range(spec.width):
            first = 1 + branch * spec.layers
            edges.append((0, first))
            for step in range(spec.layers - 1):
                edges.append((first + step, first + step + 1))
            edges.append((first + spec.layers - 1, join))
    else:  # diamond_mesh: stacked split/middle/merge diamonds
        edges = []
        counter = 0
        split = counter
        counter += 1
        for _ in range(spec.layers):
            middles = list(range(counter, counter + spec.width))
            counter += spec.width
            merge = counter
            counter += 1
            for mid in middles:
                edges.append((split, mid))
                edges.append((mid, merge))
            split = merge
        total = counter

    names = [name for name, _ in spec.type_weights]
    cum_weights = list(accumulate(weight for _, weight in spec.type_weights))
    lo, hi = spec.duration_range
    nodes = []
    for v in range(total):
        op = rng.choices(names, cum_weights=cum_weights)[0]
        nodes.append(NodeRecord(id=v, op_type=op, duration=rng.randint(lo, hi)))
    return Dag(nodes, edges, dict(spec.capacities), name=f"{spec.family}-{index:04d}")


def generate_suite(spec: GeneratorSpec, count: int) -> list[Dag]:
    if count < 1:
        raise ValueError(f"count must be a positive integer, got {count}")
    return [generate_graph(spec, index) for index in range(count)]


def summarize(values: Sequence[float]) -> dict:
    """``n``, ``mean``, sample standard deviation ``std`` (ddof=1, zero when
    n < 2), and ``ci95``, the normal-approximation 95 percent confidence
    half-width, as the campaign report writes them."""
    n = len(values)
    mean = sum(values) / n if n else 0.0
    std = ci95 = 0.0
    if n >= 2:
        std = sqrt(sum((x - mean) ** 2 for x in values) / (n - 1))
        ci95 = 1.96 * std / sqrt(n)
    return {"n": n, "mean": mean, "std": std, "ci95": ci95}


def standard_battery(seed: int = 0) -> list[tuple[str, PriorityExpr]]:
    """Six reference heuristics: the level baseline, a hand-written
    critical-path form, the reconvergent and chain kernel templates, a
    deliberately myopic fanout-only rule, and one seeded random linear
    expression."""
    rng = random.Random(f"{seed}:battery-random")
    random_weights = {
        name: round(rng.uniform(-2.0, 2.0), 3) for name in FEATURES if name != "const"
    }
    return [
        ("baseline_level", parse_expr(baseline_expr_text())),
        ("crit_fanout_level", parse_expr("1*crit + 1*fanout - 1*level")),
        ("reconvergent_defaults", template_expr("reconvergent")),
        ("deep_chain_defaults", template_expr("chain")),
        ("fanout_only", parse_expr("1*fanout")),
        ("random_linear", make_expr(random_weights)),
    ]


def run_campaign(
    suites: Mapping[str, Sequence[Dag]],
    battery: Sequence[tuple[str, PriorityExpr]],
    measure_runtime: bool = True,
) -> dict:
    """Schedule every battery heuristic on every suite graph and aggregate.

    Each heuristic row reports feasibility counts, makespan and runtime
    summaries, and mean makespan improvement over the first battery entry
    (by convention the baseline)."""
    if not battery:
        raise ValueError("battery must contain at least one heuristic")
    report: dict = {"suites": {}}
    for suite_name in sorted(suites):
        dags = suites[suite_name]
        rows: dict[str, dict] = {}
        baseline_mean: float | None = None
        for heuristic_name, expr in battery:
            makespans: list[float] = []
            runtimes: list[float] = []
            feasible = 0
            for dag in dags:
                schedule = list_schedule(dag, eval_expr(expr, dag), measure=measure_runtime)
                if schedule.feasible and not verify_schedule(dag, schedule.starts):
                    feasible += 1
                makespans.append(float(schedule.makespan))
                runtimes.append(schedule.runtime_ms)
            makespan_summary = summarize(makespans)
            if baseline_mean is None:
                baseline_mean = makespan_summary["mean"]
            improvement = 0.0
            if baseline_mean > 0:
                improvement = 100.0 * (baseline_mean - makespan_summary["mean"]) / baseline_mean
            rows[heuristic_name] = {
                "expr": print_expr(expr),
                "graphs": len(dags),
                "feasible": feasible,
                "makespan": makespan_summary,
                "runtime_ms": summarize(runtimes),
                "improvement_pct": improvement,
            }
        report["suites"][suite_name] = {"heuristics": rows}
    return report


def render_report_text(report: Mapping) -> str:
    """Fixed-width table, one block per suite."""
    lines: list[str] = []
    for suite_name in sorted(report["suites"]):
        rows = report["suites"][suite_name]["heuristics"]
        lines.append(f"suite: {suite_name}")
        header = f"{'heuristic':<24} {'feas':>5} {'makespan':>10} {'±ci95':>8} {'runtime_ms':>11} {'impr%':>7}"
        lines.append(header)
        lines.append("-" * len(header))
        for heuristic_name in rows:
            row = rows[heuristic_name]
            lines.append(
                f"{heuristic_name:<24} "
                f"{row['feasible']:>5} "
                f"{row['makespan']['mean']:>10.2f} "
                f"{row['makespan']['ci95']:>8.2f} "
                f"{row['runtime_ms']['mean']:>11.4f} "
                f"{row['improvement_pct']:>7.2f}"
            )
        lines.append("")
    return "\n".join(lines)


def render_report_csv(report: Mapping) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        [
            "suite",
            "heuristic",
            "expr",
            "graphs",
            "feasible",
            "makespan_mean",
            "makespan_std",
            "makespan_ci95",
            "runtime_ms_mean",
            "improvement_pct",
        ]
    )
    for suite_name in sorted(report["suites"]):
        rows = report["suites"][suite_name]["heuristics"]
        for heuristic_name, row in rows.items():
            writer.writerow(
                [
                    suite_name,
                    heuristic_name,
                    row["expr"],
                    row["graphs"],
                    row["feasible"],
                    f"{row['makespan']['mean']:.6g}",
                    f"{row['makespan']['std']:.6g}",
                    f"{row['makespan']['ci95']:.6g}",
                    f"{row['runtime_ms']['mean']:.6g}",
                    f"{row['improvement_pct']:.6g}",
                ]
            )
    return buffer.getvalue()
