"""Seeded workload generators, summary statistics, and batch campaigns.

Every generated graph is a pure function of (seed, label, index), so suites
are reproducible byte for byte across processes and platforms.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from math import isfinite, sqrt
from operator import mul
from typing import Mapping, Sequence

import numpy as np

from .dsl import FEATURES, PriorityExpr, eval_expr, make_expr, parse_expr, print_expr
from .graph import Dag, NodeRecord, check_type
from .kernels import template_expr
from .scheduler import baseline_expr_text, list_schedule, verify_schedule

FAMILIES = ("layered", "chain", "fork_join", "diamond_mesh")

# A layered graph with at least this many edge coin flips (the sum of
# |layer i| * |layer i+1|) draws them a layer pair at a time; below it one
# random() per flip is faster.  Timing generate_graph at edge_prob 0.35 on a
# 2-CPU x86_64 machine, square shapes break even between 28x28 (about 12k
# flips) and 32x32 (18k), and 60x64 (131k) takes 0.72 of the loop's time.
# A layer pair costs about 12 us more in bulk, so narrow layers gain less:
# 100x24 (31k flips) takes 1.12 of the loop's time.
BULK_FLIPS = 16_000


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
        for name, kind in (("family", str), ("layers", int), ("width", int), ("edge_prob", float), ("seed", int),
                           ("label", str)):
            object.__setattr__(self, name, check_type(name, getattr(self, name), kind))
        for name, kind in (("type_weights", float), ("capacities", int)):
            pairs = enumerate(check_type(name, getattr(self, name), tuple))
            object.__setattr__(self, name, tuple(_check_items(f"{name}[{i}]", pair, (str, kind)) for i, pair in pairs))
        lo, hi = _check_items("duration_range", self.duration_range, (int, int))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown graph family {self.family!r}")
        if self.layers < 1 or self.width < 1:
            raise ValueError("layers and width must be positive")
        if not (0.0 <= self.edge_prob <= 1.0):
            raise ValueError("edge_prob must lie in [0, 1]")
        if lo < 1 or hi < lo:
            raise ValueError("duration_range must satisfy 1 <= lo <= hi")
        weights = [weight for _, weight in self.type_weights]
        if not (all(isfinite(w) and w >= 0 for w in weights) and sum(weights) > 0):
            raise ValueError(
                f"type_weights must be finite and nonnegative with a positive total, got {dict(self.type_weights)!r}"
            )
        # generate_graph hands its graphs to Dag unchecked, so the checks
        # that Dag makes of op types and capacities are made here, once.
        caps = dict(self.capacities)
        for name, cap in caps.items():
            if not name:
                raise ValueError(f"op type {name!r} must be a non-empty string")
            if cap < 1:
                raise ValueError(f"capacity for {name!r} must be a positive integer, got {cap!r}")
        for name, weight in self.type_weights:
            if weight > 0 and name not in caps:
                raise ValueError(f"op type {name!r} has positive weight but no capacity")


def _check_items(name: str, items, kinds: tuple) -> tuple:
    """``items``, a tuple of ``len(kinds)`` values, item ``i`` checked as ``kinds[i]``."""
    check_type(name, items, tuple)
    if len(items) != len(kinds):
        raise ValueError(f"{name} must hold {len(kinds)} items, got {len(items)}")
    return tuple(check_type(f"{name}[{i}]", item, kind) for i, (item, kind) in enumerate(zip(items, kinds)))


def generate_graph(spec: GeneratorSpec, index: int) -> Dag:
    """Deterministically generate graph ``index`` of a suite.

    Every family builds each node's successor list directly, ascending,
    free of repeats and above the node's own id (``pred < succ``), and
    hands the lists to :class:`Dag` through its trusted path with nodes in
    id order; :class:`GeneratorSpec` has already checked the op types and
    capacities.  Since every edge ascends, the ids in order are the
    topological order.  The layered family draws each node's predecessors
    as the node ids ascend and files each edge under its predecessor, which
    keeps every successor list ascending.  A layered graph with at least
    :data:`BULK_FLIPS` edge coin flips takes the same flips from the same
    stream a layer pair at a time (see :func:`_bulk_layered_succs`); if a
    node drew no predecessor, it rewinds and draws the whole graph one flip
    at a time, so both paths give the same graph.
    """
    rng = random.Random(f"{spec.seed}:{spec.label}:{index}")
    succs: list[list[int]]
    if spec.family == "layered":
        layer_sizes = [rng.randint(max(1, spec.width // 2), spec.width) for _ in range(spec.layers)]
        layers: list[range] = []
        counter = 0
        for size in layer_sizes:
            layers.append(range(counter, counter + size))
            counter += size
        total = counter
        bulk = None
        if sum(map(mul, layer_sizes, layer_sizes[1:])) >= BULK_FLIPS:
            state = rng.getstate()
            bulk = _bulk_layered_succs(rng, layers, spec.edge_prob)
            if bulk is None:
                rng.setstate(state)
        if bulk is not None:
            succs = bulk
        else:
            succs = [[] for _ in range(total)]
            draw, edge_prob = rng.random, spec.edge_prob
            for above, layer in zip(layers, layers[1:]):
                for v in layer:
                    preds = [u for u in above if draw() < edge_prob]
                    if not preds:
                        preds = [rng.choice(above)]
                    for u in preds:
                        succs[u].append(v)
    elif spec.family == "chain":
        total = spec.layers
        succs = [[v] for v in range(1, total)] + [[]]
    elif spec.family == "fork_join":
        # Root, `width` parallel chains of `layers` nodes, join.
        total = 2 + spec.width * spec.layers
        join = total - 1
        succs = [[v + 1] for v in range(total - 1)] + [[]]
        succs[0] = [1 + branch * spec.layers for branch in range(spec.width)]
        for branch in range(1, spec.width + 1):
            succs[branch * spec.layers] = [join]
    else:  # diamond_mesh: stacked split/middle/merge diamonds
        total = 1 + spec.layers * (spec.width + 1)
        succs = []
        for split in range(0, total - 1, spec.width + 1):
            merge = split + spec.width + 1
            succs.append(list(range(split + 1, merge)))
            succs.extend([merge] for _ in range(spec.width))
        succs.append([])

    # Each node's op type is drawn with the arithmetic ``rng.choices(names,
    # cum_weights=cum_weights)`` performs, so it takes the same draw and
    # picks the same type, without the per-call setup.
    names = [name for name, _ in spec.type_weights]
    cum_weights = list(accumulate(weight for _, weight in spec.type_weights))
    weight_total = cum_weights[-1] + 0.0
    last = len(names) - 1
    lo, hi = spec.duration_range
    draw, randint = rng.random, rng.randint
    nodes = []
    for v in range(total):
        op = names[bisect(cum_weights, draw() * weight_total, 0, last)]
        nodes.append(NodeRecord(id=v, op_type=op, duration=randint(lo, hi)))
    return Dag._from_succs(nodes, succs, dict(spec.capacities), name=f"{spec.family}-{index:04d}")


def _random_ints(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` values of ``rng.random()`` as 53-bit integers
    ``k``, each ``random() == k / 2**53``, leaving ``rng`` where those calls
    would.  ``random()`` builds each double from two consecutive 32-bit words
    ``a``, ``b`` as ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``, and
    ``getrandbits(64 * count)`` returns the next ``2 * count`` words, lowest
    first."""
    words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), dtype="<u8")
    return ((words & 0xFFFFFFE0) << 21) | (words >> 38)


def _bulk_layered_succs(rng: random.Random, layers: list[range], edge_prob: float) -> list[list[int]] | None:
    """The layered family's successor lists from the flips the per-flip loop
    of :func:`generate_graph` draws, or ``None`` as soon as some node drew
    no predecessor: the loop then calls ``rng.choice`` in mid-stream, so
    the caller rewinds ``rng`` and runs the loop instead."""
    # One int object per id: a list of successors holds references to these,
    # not a fresh int per edge.
    ids = np.array(range(layers[-1].stop), dtype=object)
    # random() < p exactly when k < p * 2**53; both scalings are exact.
    threshold = edge_prob * 2.0**53
    succs: list[list[int]] = []
    for above, layer in zip(layers, layers[1:]):
        rows = len(layer)
        # Row v - layer.start holds v's flips against ``above``, in draw order.
        hits = (_random_ints(rng, rows * len(above)) < threshold).reshape(rows, len(above))
        if not hits.any(axis=1).all():
            return None
        # Column u - above.start holds u's successors; the transposed mask
        # lists them by u, ascending.
        vs = ids[layer.start:layer.stop][np.flatnonzero(hits.T) % rows].tolist()
        ends = np.cumsum(hits.sum(axis=0)).tolist()
        succs += [vs[start:end] for start, end in zip([0] + ends, ends)]
    succs += [[] for _ in layers[-1]]
    return succs


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
