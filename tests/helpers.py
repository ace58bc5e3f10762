"""Shared test oracles, data builders, and the run-input type rule.

Every oracle here recomputes a quantity by a different algorithm than the
implementation under test: exhaustive path walks for level and crit, literal
reachability sets for reconvergence, unit-cycle stepping for the scheduler,
and bounded start-time enumeration for the exact optimum.  The ``reference_*``
functions at the end are earlier implementations, kept verbatim so the
faster ones can be checked against them on graphs of thousands of nodes.
"""

from __future__ import annotations

import heapq
import math
import random
import re
import time
from collections import Counter, deque
from typing import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from priosynth.bench import FAMILIES, GeneratorSpec
from priosynth.config import ConfigError, load_run_config
from priosynth.dsl import PriorityExpr, eval_expr, make_expr, parse_expr
from priosynth.graph import Dag, GraphFormatError, NodeRecord, load_dag
from priosynth.kernels import CATEGORY_FEATURES, Kernel, LibraryParams
from priosynth.loop import (
    _CORE_FEATURES,
    _GRID,
    _MAX_PASSES,
    LoopConfig,
    ScheduleMemo,
    score_schedule,
)
from priosynth.providers import ProviderSpec
from priosynth.scheduler import Schedule, list_schedule


@st.composite
def dag_documents(draw, max_nodes: int = 8, max_types: int = 3, max_duration: int = 5, max_cap: int = 3):
    n = draw(st.integers(1, max_nodes))
    type_count = draw(st.integers(1, max_types))
    types = [f"t{i}" for i in range(type_count)]
    nodes = [
        {"id": i, "type": draw(st.sampled_from(types)), "duration": draw(st.integers(1, max_duration))}
        for i in range(n)
    ]
    edges = []
    for v in range(1, n):
        for u in range(v):
            if draw(st.booleans()):
                edges.append([u, v])
    capacities = {t: draw(st.integers(1, max_cap)) for t in types}
    return {"nodes": nodes, "edges": edges, "capacities": capacities}


@st.composite
def dags(draw, **kwargs):
    return load_dag(draw(dag_documents(**kwargs)))


@st.composite
def relabeled_dags(draw, **kwargs):
    """A :func:`dag_documents` graph with its ids renamed by a drawn
    permutation, so edges may descend and ``topo_order`` may differ from id
    order (the constructor's Kahn branch)."""
    document = draw(dag_documents(**kwargs))
    perm = draw(st.permutations(range(len(document["nodes"]))))
    nodes = [{**node, "id": perm[node["id"]]} for node in document["nodes"]]
    edges = [[perm[u], perm[v]] for u, v in document["edges"]]
    return load_dag({"nodes": nodes, "edges": edges, "capacities": document["capacities"]})


@st.composite
def generator_specs(draw) -> GeneratorSpec:
    """A small :class:`GeneratorSpec` of any family.  Some op types weigh 0,
    and a zero-weight type may lack a capacity, which the spec allows."""
    weights = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 3.0)), min_size=1, max_size=3))
    if not any(weights):
        weights[0] = 1.0
    names = [f"t{i}" for i in range(len(weights))]
    capacities = tuple(
        (name, draw(st.integers(1, 3))) for name, weight in zip(names, weights) if weight or draw(st.booleans())
    )
    lo = draw(st.integers(1, 4))
    return GeneratorSpec(
        family=draw(st.sampled_from(FAMILIES)),
        layers=draw(st.integers(1, 6)),
        width=draw(st.integers(1, 6)),
        edge_prob=draw(st.sampled_from((0.0, 0.02, 0.35, 1.0))),
        type_weights=tuple(zip(names, weights)),
        duration_range=(lo, lo + draw(st.integers(0, 3))),
        capacities=capacities,
        seed=draw(st.integers(0, 2**16)),
        label="trusted",
    )


def random_dag(rng: random.Random, n: int, edge_prob: float = 0.4, types=("a", "b"), max_duration: int = 4, max_cap: int = 2) -> Dag:
    """Seeded random DAG on a fixed topological order (edges u->v, u < v)."""
    nodes = [
        {"id": i, "type": rng.choice(types), "duration": rng.randint(1, max_duration)}
        for i in range(n)
    ]
    edges = [[u, v] for v in range(1, n) for u in range(v) if rng.random() < edge_prob]
    capacities = {t: rng.randint(1, max_cap) for t in types}
    return load_dag({"nodes": nodes, "edges": edges, "capacities": capacities})


def brute_level(dag: Dag, v: int) -> int:
    best = 0

    def walk(node: int, acc: int) -> None:
        nonlocal best
        preds = dag.preds[node]
        if not preds:
            best = max(best, acc)
        for u in preds:
            walk(u, acc + dag.nodes[u].duration)

    walk(v, 0)
    return best


def brute_crit(dag: Dag, v: int) -> int:
    best = 0

    def walk(node: int, acc: int) -> None:
        nonlocal best
        acc += dag.nodes[node].duration
        succs = dag.succs[node]
        if not succs:
            best = max(best, acc)
        for w in succs:
            walk(w, acc)

    walk(v, 0)
    return best


def reach_set(dag: Dag, v: int) -> set[int]:
    out = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for w in dag.succs[x]:
            if w not in out:
                out.add(w)
                stack.append(w)
    return out


def brute_reconv(dag: Dag, v: int) -> int:
    children = dag.succs[v]
    count = 0
    for i in range(len(children)):
        for j in range(i + 1, len(children)):
            if reach_set(dag, children[i]) & reach_set(dag, children[j]):
                count += 1
    return count


def unit_step_schedule(dag: Dag, priority: Mapping[int, float]) -> dict[int, int]:
    """Reference list scheduler that walks one cycle at a time."""
    n = len(dag)
    caps = dag.capacities
    starts: dict[int, int] = {}
    finished: set[int] = set()
    running: dict[int, int] = {}
    t = 0
    while len(finished) < n:
        for v in list(running):
            if running[v] <= t:
                finished.add(v)
                del running[v]
        busy = Counter(dag.nodes[v].op_type for v in running)
        ready = [
            v for v in range(n) if v not in starts and all(u in finished for u in dag.preds[v])
        ]
        for v in sorted(ready, key=lambda v: (-priority[v], v)):
            op = dag.nodes[v].op_type
            if busy[op] < caps[op]:
                busy[op] += 1
                starts[v] = t
                running[v] = t + dag.nodes[v].duration
        t += 1
        if t > 10**6:
            raise RuntimeError("unit stepper did not terminate")
    return starts


def capacity_ok(dag: Dag, starts: Mapping[int, int]) -> bool:
    """Literal per-cycle occupancy count, independent of verify_schedule."""
    horizon = max((starts[v] + dag.nodes[v].duration for v in starts), default=0)
    for t in range(horizon):
        load: Counter = Counter()
        for v, s in starts.items():
            if s <= t < s + dag.nodes[v].duration:
                load[dag.nodes[v].op_type] += 1
        for op, used in load.items():
            if used > dag.capacities[op]:
                return False
    return True


def brute_optimal(dag: Dag) -> int:
    """Minimum makespan by bounded enumeration of all start assignments."""
    n = len(dag)
    if n == 0:
        return 0
    horizon = sum(rec.duration for rec in dag.nodes)
    order = dag.topo_order
    best = [horizon]
    starts: dict[int, int] = {}

    def go(index: int) -> None:
        if index == n:
            makespan = max(starts[v] + dag.nodes[v].duration for v in starts)
            if makespan < best[0] and capacity_ok(dag, starts):
                best[0] = makespan
            return
        v = order[index]
        lo = max((starts[u] + dag.nodes[u].duration for u in dag.preds[v]), default=0)
        hi = best[0] - dag.nodes[v].duration
        for s in range(lo, hi + 1):
            starts[v] = s
            go(index + 1)
        starts.pop(v, None)

    go(0)
    return best[0]


# Graph 0 of each is one seeded graph of 300 to about 3,000 nodes: all four
# families, one type at capacity 1, and four types.
SCALE_SPECS = (
    GeneratorSpec("layered", layers=40, width=100, edge_prob=0.03, seed=11, label="scale"),
    GeneratorSpec("fork_join", layers=40, width=20, seed=11, label="scale"),
    GeneratorSpec("diamond_mesh", layers=100, width=8, seed=11, label="scale"),
    GeneratorSpec("chain", layers=300, seed=11, label="scale"),
    # One type at capacity 1: every operation waits for the same unit.
    GeneratorSpec(
        "layered", layers=20, width=40, edge_prob=0.1, seed=11, label="scale",
        type_weights=(("alu", 1.0),), capacities=(("alu", 1),),
    ),
    GeneratorSpec(
        "layered", layers=25, width=40, edge_prob=0.1, seed=11, label="scale",
        type_weights=(("alu", 3.0), ("mem", 1.0), ("mul", 1.0), ("div", 1.0)),
        capacities=(("alu", 2), ("mem", 1), ("mul", 1), ("div", 3)),
    ),
)


def scale_expr(expr: PriorityExpr, factor: float) -> PriorityExpr:
    """``expr`` with every weight multiplied by ``factor``."""
    return make_expr({name: weight * factor for weight, name in expr.terms})


def scale_priorities(dag: Dag, seed: int = 0) -> list[list[float]]:
    """Priorities indexed by node id, from heavily tied to tie-free:
    ``1*fanout`` (as ``eval_expr`` returns it), then a constant, small
    integers, and distinct floats."""
    rng = random.Random(seed)
    n = len(dag)
    return [
        eval_expr(parse_expr("1*fanout"), dag),
        [1.0] * n,
        [float(rng.randint(0, 3)) for _ in range(n)],
        [rng.uniform(-10, 10) for _ in range(n)],
    ]


def schedule_mutants(dag: Dag, starts: Mapping[int, int]) -> dict[str, dict]:
    """Invalid variants of a valid schedule, one per kind of violation."""
    n = len(dag)
    durations = [rec.duration for rec in dag.nodes]
    edges = [(u, v) for u, v in dag.edges if starts[v] > starts[u]]
    mutants = {}
    dropped = dict(starts)
    del dropped[n // 2]
    mutants["dropped"] = dropped
    mutants["unknown"] = {**starts, n: 0}
    mutants["negative"] = {**starts, n // 3: -1}
    mutants["bool"] = {**starts, n // 3: True}
    mutants["float_key"] = {(1.0 if v == 1 else v): s for v, s in starts.items()}
    u, v = edges[len(edges) // 2]
    mutants["one_edge"] = {**starts, v: starts[u] + durations[u] - 1}
    several = dict(starts)
    for u, v in edges[:: max(1, len(edges) // 5)]:
        several[v] = starts[u]
    mutants["several_edges"] = several
    # A node that waited for a unit after its inputs were ready: every unit
    # of its type was busy the cycle before it started, so starting it then
    # exceeds the capacity by one without breaking any edge.
    ready = [max((starts[u] + durations[u] for u in dag.preds[v]), default=0) for v in range(n)]
    waited = [v for v in range(n) if starts[v] > ready[v]]
    if waited:
        v = min(waited, key=starts.__getitem__)
        mutants["capacity_by_one"] = {**starts, v: starts[v] - 1}
    return mutants


# The run-input dataclass each run-config section is read into.
SECTION_CLASSES = {
    "train": GeneratorSpec,
    "library": LibraryParams,
    "loop": LoopConfig,
    "loop.provider": ProviderSpec,
}
# GeneratorSpec fields that a run config spells differently.
_DOCUMENT_KEYS = {
    "type_weights": ("types", dict),
    "capacities": ("capacities", dict),
    "duration_range": ("durations", list),
}


def section_document(section: str, kwargs: Mapping) -> dict:
    """The run config that sets the fields ``kwargs`` of ``section``'s
    dataclass, as JSON spells them (a tuple is an array, pairs an object)."""
    doc: dict = {}
    for name, value in kwargs.items():
        key, spell = _DOCUMENT_KEYS.get(name, (name, list))
        doc[key] = spell(value) if type(value) is tuple else value
    for key in reversed(section.split(".")):
        doc = {key: doc}
    return doc


def assert_type_rule(section: str, kwargs: Mapping, message: str) -> None:
    """Constructing ``section``'s dataclass from ``kwargs`` fails with
    ``message``, and reading the same values from a run config fails with
    ``bad <section>: <message>``."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SECTION_CLASSES[section](**kwargs)
    with pytest.raises(ConfigError, match=f"^bad {re.escape(section)}: {re.escape(message)}$"):
        load_run_config(section_document(section, kwargs))


def reference_compute_levels(dag: Dag) -> tuple[int, ...]:
    """Levels as a generator over the predecessors that looks up each
    one's duration, before the finish column.

    Unconstrained ASAP start times: 0 for sources, else max over
    predecessors of ``level(u) + duration(u)``."""
    level = [0] * len(dag)
    for v in dag.topo_order:
        level[v] = max((level[u] + dag.nodes[u].duration for u in dag.preds[v]), default=0)
    return tuple(level)


def reference_compute_crit(dag: Dag) -> tuple[int, ...]:
    """Crit as a generator over the successors, before it started from the
    duration column.

    Remaining critical-path length: the largest duration sum over any
    directed path from ``v`` to a sink, including ``v`` itself."""
    crit = [0] * len(dag)
    for v in reversed(dag.topo_order):
        crit[v] = dag.nodes[v].duration + max((crit[w] for w in dag.succs[v]), default=0)
    return tuple(crit)


def reference_compute_reconv(dag: Dag) -> dict[int, int]:
    """Reconvergence with one reach bit per node, before the sink bitsets
    and child grouping.

    Reconvergence marker: for each node, the number of unordered child
    pairs whose reachable sets intersect.

    Reachability is reflexive-transitive, so a child counts as "shared" when
    the other child reaches it.  Computed with bitset transitive closure.
    """
    n = len(dag)
    reach = [0] * n
    for v in reversed(dag.topo_order):
        r = 1 << v
        for w in dag.succs[v]:
            r |= reach[w]
        reach[v] = r
    out: dict[int, int] = {}
    for v in range(n):
        children = dag.succs[v]
        count = 0
        for i in range(len(children)):
            ri = reach[children[i]]
            for j in range(i + 1, len(children)):
                if ri & reach[children[j]]:
                    count += 1
        out[v] = count
    return out


def reference_list_schedule(dag: Dag, priority: Mapping[int, float], measure: bool = True) -> Schedule:
    """The list scheduler that per-type ready heaps replaced: it re-sorts the
    whole ready list by (priority descending, id ascending) at every event.

    Greedy list schedule under ``priority``.

    Non-finite priority values poison the whole schedule: the result is
    infeasible with empty starts instead of an exception, so a bad synthesized
    expression scores a penalty rather than crashing a run.
    """
    begin = time.perf_counter()
    n = len(dag)
    try:
        prio = [float(priority[v]) for v in range(n)]
    except KeyError as exc:
        raise ValueError(f"priority map is missing node {exc.args[0]}") from None

    def finish(starts: dict[int, int], feasible: bool) -> Schedule:
        makespan = max((starts[v] + dag.nodes[v].duration for v in starts), default=0)
        elapsed = (time.perf_counter() - begin) * 1000.0 if measure else 0.0
        return Schedule(starts=starts, makespan=makespan, feasible=feasible, runtime_ms=elapsed)

    if any(not math.isfinite(p) for p in prio):
        return finish({}, False)

    caps = dag.capacities
    indeg = [len(dag.preds[v]) for v in range(n)]
    ready = [v for v in range(n) if indeg[v] == 0]
    running: list[tuple[int, int]] = []
    busy = {t: 0 for t in caps}
    starts: dict[int, int] = {}
    now = 0
    while len(starts) < n:
        ready.sort(key=lambda v: (-prio[v], v))
        still_blocked: list[int] = []
        for v in ready:
            op = dag.nodes[v].op_type
            if busy[op] < caps[op]:
                busy[op] += 1
                starts[v] = now
                heapq.heappush(running, (now + dag.nodes[v].duration, v))
            else:
                still_blocked.append(v)
        ready = still_blocked
        if len(starts) == n:
            break
        if not running:
            # Unreachable on a validated DAG (capacity >= 1 guarantees
            # progress); kept as a guard against internal inconsistency.
            return finish({}, False)
        now = running[0][0]
        while running and running[0][0] == now:
            _, v = heapq.heappop(running)
            busy[dag.nodes[v].op_type] -= 1
            for w in dag.succs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
    return finish(starts, True)


def reference_verify_schedule(dag: Dag, starts: Mapping[int, int]) -> list[str]:
    """The schedule checker as it was before its one-pass acceptance test:
    every schedule goes through the message loop.

    Return a list of violation messages; empty means valid.

    Checks completeness, integer nonnegative starts, every precedence edge,
    and per-type capacity at every cycle (by an event sweep).
    """
    violations: list[str] = []
    n = len(dag)
    for v in range(n):
        if v not in starts:
            violations.append(f"node {v} has no start time")
    for v in starts:
        if not (isinstance(v, int) and 0 <= v < n):
            violations.append(f"unknown node {v!r} in starts")
    if violations:
        return violations
    for v, s in starts.items():
        if not isinstance(s, int) or isinstance(s, bool) or s < 0:
            violations.append(f"node {v}: start {s!r} is not a nonnegative integer")
    if violations:
        return violations
    for u, v in dag.edges:
        if starts[v] < starts[u] + dag.nodes[u].duration:
            violations.append(
                f"precedence violated on edge ({u}, {v}): {starts[v]} < {starts[u]} + {dag.nodes[u].duration}"
            )
    events: dict[str, list[tuple[int, int]]] = {t: [] for t in dag.capacities}
    for rec in dag.nodes:
        events[rec.op_type].append((starts[rec.id], 1))
        events[rec.op_type].append((starts[rec.id] + rec.duration, -1))
    for op, moves in events.items():
        load = 0
        for cycle, delta in sorted(moves):
            load += delta
            if load > dag.capacities[op]:
                violations.append(f"capacity exceeded for type {op!r} at cycle {cycle}")
                break
    return violations


def reference_eval_expr(expr: PriorityExpr, dag: Dag) -> dict[int, float]:
    """The expression evaluator before the stats columns: one scalar loop
    per node that branches on each term's feature name.

    Evaluate the expression for every node of ``dag``.

    ``pressure`` contributes the pressure of the node's own op type; ``const``
    contributes its coefficient directly.
    """
    stats = dag.stats()
    tables: dict[str, Mapping[int, float] | None] = {
        "crit": stats.crit,
        "duration": None,
        "fanin": stats.fanin,
        "fanout": stats.fanout,
        "level": stats.level,
        "reconv": stats.reconv,
        "slack": stats.slack,
    }
    out: dict[int, float] = {}
    for rec in dag.nodes:
        total = 0.0
        for weight, name in expr.terms:
            if name == "const":
                total += weight
            elif name == "duration":
                total += weight * rec.duration
            elif name == "pressure":
                total += weight * stats.pressure[rec.op_type]
            else:
                table = tables[name]
                assert table is not None
                total += weight * table[rec.id]
        out[rec.id] = total
    return out


def type_order(dag: Dag, priority: Sequence[float]) -> tuple[int, ...] | None:
    """The order ``list_schedule`` pops each type's ready heap in under
    ``priority``, a sequence indexed by node id: every type's member ids
    sorted by (priority descending, id ascending), the types in capacity
    order, concatenated.  ``None`` when a priority is not finite.  The
    per-graph reference for the loop's stacked orders."""
    if not math.isfinite(sum(priority)) and not all(map(math.isfinite, priority)):
        return None
    key = priority.__getitem__
    order: list[int] = []
    for members in dag.stats().members:
        # A stable sort keeps ascending ids among equal priorities, also
        # when reversed.
        order += sorted(members, key=key, reverse=True)
    return tuple(order)


def reference_schedule(expr: PriorityExpr, dag: Dag, memo: ScheduleMemo) -> tuple[int, bool]:
    """(makespan, feasible) of one graph under ``expr``, through the loop's
    two memo keys as the loop computed them one graph at a time: the
    expression's terms, then ``eval_expr`` and the graph's
    :func:`type_order`."""
    key = (dag, expr.terms)
    found = memo.get(key)
    if found is None:
        priority = eval_expr(expr, dag)
        order = type_order(dag, priority)
        if order is not None:
            found = memo.get((dag, order))
        if found is None:
            schedule = list_schedule(dag, priority, measure=False)
            found = (schedule.makespan, schedule.feasible)
            if order is not None:
                memo[dag, order] = found
        memo[key] = found
    return found


# The fallback's sign conventions for the features a basis can hold: the
# core and those the kernel templates name.
_FEATURE_SIGNS = {
    "crit": 1.0,
    "fanout": 1.0,
    "level": -1.0,
    "reconv": 1.0,
    "slack": -1.0,
}


def reference_fallback_synthesize(
    selections: Sequence[tuple[Dag, Sequence[Kernel]]],
    batch: Sequence[Dag],
    cfg: LoopConfig,
    memo: ScheduleMemo | None = None,
) -> PriorityExpr:
    """The fallback synthesizer before it kept its own scores: every
    candidate, repeated or not, is scored one graph at a time through
    :func:`reference_schedule`.

    Deterministic template-merge synthesizer.

    The basis is the union of features named by the retrieved kernels'
    category templates plus an always-present core (crit, fanout, level).
    Coordinate descent over a fixed magnitude grid maximizes the mean batch
    score, run from two starts: the signed mean of the templates'
    magnitudes (each 1.0), and a hand-written critical-path start.  No
    randomness and no wall-clock input anywhere.
    """
    if memo is None:
        memo = {}
    contributions: dict[str, list[float]] = {}
    for _, kerns in selections:
        for kern in kerns:
            for feature in CATEGORY_FEATURES[kern.category]:
                contributions.setdefault(feature, []).append(_FEATURE_SIGNS[feature] * 1.0)
    basis = sorted(set(contributions) | set(_CORE_FEATURES))

    def objective(weights: dict[str, float]) -> float:
        expr = make_expr(weights)
        total = 0.0
        for dag in batch:
            total += score_schedule(cfg, *reference_schedule(expr, dag, memo))
        return total / max(1, len(batch))

    def descend(start: dict[str, float], features: Sequence[str]) -> tuple[dict[str, float], float]:
        weights = dict(start)
        best = objective(weights)
        for _ in range(_MAX_PASSES):
            improved = False
            for feature in features:
                kept = weights[feature]
                for magnitude in _GRID:
                    candidate = _FEATURE_SIGNS[feature] * magnitude
                    if candidate == kept:
                        continue
                    weights[feature] = candidate
                    value = objective(weights)
                    if value > best:
                        best = value
                        kept = candidate
                        improved = True
                    else:
                        weights[feature] = kept
            if not improved:
                break
        return weights, best

    template_start = {}
    for feature in basis:
        if feature in contributions:
            values = contributions[feature]
            template_start[feature] = sum(values) / len(values)
        else:
            template_start[feature] = _FEATURE_SIGNS[feature]
    core_start = {feature: 0.0 for feature in basis}
    for feature in _CORE_FEATURES:
        core_start[feature] = _FEATURE_SIGNS[feature]

    best_weights, best_value = descend(template_start, basis)
    if core_start != template_start:
        weights, value = descend(core_start, basis)
        if value > best_value:
            best_weights, best_value = weights, value
    return make_expr(best_weights)


def reference_dag_edges(n: int, edges) -> dict[str, tuple]:
    """``Dag.__init__``'s edge handling before it sorted the edges in input
    order, for a graph with dense node ids ``0..n-1``: a per-edge check loop
    into a set, the set sorted, adjacency appended edge by edge, and the
    min-heap Kahn order.  Returns ``edges``, ``preds``, ``succs`` and
    ``topo_order``, or raises as that constructor did (including the bare
    ``ValueError``/``TypeError`` of an edge that is not a pair)."""
    seen = set(range(n))
    edge_set: set[tuple[int, int]] = set()
    for edge in edges:
        u, v = edge
        if type(u) is not int or type(v) is not int:
            raise GraphFormatError(f"edge ({u!r}, {v!r}): endpoints must be integer node ids")
        if u not in seen or v not in seen:
            raise GraphFormatError(f"edge ({u}, {v}) references an unknown node id")
        edge_set.add((u, v))
    sorted_edges = tuple(sorted(edge_set))
    preds: list[list[int]] = [[] for _ in range(n)]
    succs: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted_edges:
        succs[u].append(v)
        preds[v].append(u)
    indeg = [len(preds[v]) for v in range(n)]
    heap = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in succs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) != n:
        stuck = min(v for v in range(n) if indeg[v] > 0)
        raise GraphFormatError(f"cycle detected involving node {stuck}")
    return {
        "edges": sorted_edges,
        "preds": tuple(tuple(p) for p in preds),
        "succs": tuple(tuple(s) for s in succs),
        "topo_order": tuple(order),
    }


def _reference_draw_node(rng: random.Random, spec: GeneratorSpec) -> tuple[str, int]:
    names = [name for name, _ in spec.type_weights]
    weights = [weight for _, weight in spec.type_weights]
    op = rng.choices(names, weights=weights, k=1)[0]
    lo, hi = spec.duration_range
    return op, rng.randint(lo, hi)


def reference_generate_graph(spec: GeneratorSpec, index: int) -> Dag:
    """``generate_graph`` before it emitted sorted edges and drew node types
    from precomputed cumulative weights: the layered family emits its edges
    grouped by successor, and every node rebuilds the weight lists."""
    rng = random.Random(f"{spec.seed}:{spec.label}:{index}")
    if spec.family == "layered":
        layer_sizes = [rng.randint(max(1, spec.width // 2), spec.width) for _ in range(spec.layers)]
        edges: list[tuple[int, int]] = []
        layers: list[list[int]] = []
        counter = 0
        for size in layer_sizes:
            layers.append(list(range(counter, counter + size)))
            counter += size
        for depth in range(1, len(layers)):
            for v in layers[depth]:
                preds = [u for u in layers[depth - 1] if rng.random() < spec.edge_prob]
                if not preds:
                    preds = [rng.choice(layers[depth - 1])]
                edges.extend((u, v) for u in preds)
        total = counter
    elif spec.family == "chain":
        total = spec.layers
        edges = [(i, i + 1) for i in range(total - 1)]
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

    nodes = []
    for v in range(total):
        op, duration = _reference_draw_node(rng, spec)
        nodes.append(NodeRecord(id=v, op_type=op, duration=duration))
    return Dag(nodes, edges, dict(spec.capacities), name=f"{spec.family}-{index:04d}")


def reference_induced_subdag(dag: Dag, nodes) -> Dag:
    """``induced_subdag`` before it handed adjacency to ``Dag`` unchecked:
    the remapped edges through the validating constructor."""
    chosen = sorted(set(nodes))
    remap = {v: i for i, v in enumerate(chosen)}
    records = [
        NodeRecord(id=remap[v], op_type=dag.nodes[v].op_type, duration=dag.nodes[v].duration)
        for v in chosen
    ]
    edges = [(remap[u], remap[v]) for u in chosen for v in dag.succs[u] if v in remap]
    used = {dag.nodes[v].op_type for v in chosen}
    caps = {t: dag.capacities[t] for t in used}
    return Dag(records, edges, caps)


def _reference_bounded_bfs(adjacency, source: int, depth: int) -> dict[int, int]:
    """Nodes within ``depth`` edges of ``source`` (source included, dist 0)."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if dist[v] == depth:
            continue
        for w in adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def reference_reconvergent_regions(dag: Dag, k: int) -> list[tuple[int, tuple[int, ...]]]:
    """The ``(anchor, nodes)`` of each reconvergent motif of
    ``kernels.mine_motifs``, by the search it ran before one backward search
    per anchor: a forward search from every node within ``k`` of a child,
    kept if a witness lies within the remaining depth."""
    stats = dag.stats()
    regions = []
    for v in range(len(dag)):
        if stats.reconv[v] == 0:
            continue
        children = dag.succs[v]
        reach_from_child = {c: _reference_bounded_bfs(dag.succs, c, k) for c in children}
        witness_count: dict[int, int] = {}
        for c in children:
            for x in reach_from_child[c]:
                witness_count[x] = witness_count.get(x, 0) + 1
        witnesses = {x for x, count in witness_count.items() if count >= 2}
        region = {v, *children}
        if witnesses:
            for c in children:
                for y, dist_cy in reach_from_child[c].items():
                    onward = _reference_bounded_bfs(dag.succs, y, k - dist_cy)
                    if witnesses & set(onward):
                        region.add(y)
        regions.append((v, tuple(sorted(region))))
    return regions


_REFERENCE_FANOUT_EDGES = (0, 1, 2, 3, 5, 8, 16)


def reference_embed(dag: Dag, vocab: Sequence[str]) -> np.ndarray:
    """``embedding.embed`` as per-node loops, before the layout had one
    array implementation: each histogram bin adds ``1.0 / n`` once per node
    that falls in it."""
    stats = dag.stats()
    n = len(dag)
    vec = np.zeros(19 + 2 * len(vocab), dtype=float)
    if n == 0:
        return vec
    cp = stats.cp_length

    vec[0] = cp / n
    if cp > 0:
        ratios = np.array([stats.crit[v] / cp for v in range(n)], dtype=float)
        vec[1] = float(ratios.mean())
        vec[2] = float(ratios.std())

    for v in range(n):
        fanout_bin = next((i for i, edge in enumerate(_REFERENCE_FANOUT_EDGES) if stats.fanout[v] <= edge), 7)
        vec[3 + fanout_bin] += 1.0 / n

    for v in range(n):
        if cp > 0:
            bin_index = min(7, int(8 * stats.level[v] / cp))
        else:
            bin_index = 0
        vec[11 + bin_index] += 1.0 / n

    type_index = {op: i for i, op in enumerate(vocab)}
    for op in dag.capacities:
        if op not in type_index:
            raise ValueError(f"op type {op!r} is not in the embedding vocabulary")
    for rec in dag.nodes:
        vec[19 + type_index[rec.op_type]] += 1.0 / n
    for op, value in stats.pressure.items():
        vec[19 + len(vocab) + type_index[op]] = value
    return vec
