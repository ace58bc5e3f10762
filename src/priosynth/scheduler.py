"""Resource-constrained list scheduling and an exact small-graph optimum.

The list scheduler is greedy and deterministic: at each decision cycle the
ready operations are ranked by (priority descending, id ascending) and
admitted while per-type capacity remains.  Decision cycles are event-aligned
(cycle 0 plus every finish time), which is equivalent to stepping one cycle
at a time because capacity and readiness only change when something finishes.

``optimal_makespan`` is a memoized branch-and-bound over event-aligned
schedules.  Restricting starts to event times is lossless: any feasible
schedule can be left-shifted op by op, without increasing the makespan, until
every start sits at cycle 0 or at some finish time.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Mapping

from .graph import Dag, canonical_json, compute_work


@dataclass
class Schedule:
    """Start times plus summary fields.  ``runtime_ms`` is wall time spent in
    the scheduler, or 0.0 when measurement is disabled for reproducibility."""

    starts: dict[int, int]
    makespan: int
    feasible: bool
    runtime_ms: float


def schedule_to_document(schedule: Schedule) -> dict:
    return {
        "starts": {str(v): t for v, t in sorted(schedule.starts.items())},
        "makespan": schedule.makespan,
        "feasible": schedule.feasible,
        "runtime_ms": schedule.runtime_ms,
    }


def dump_schedule(schedule: Schedule) -> str:
    return canonical_json(schedule_to_document(schedule))


def baseline_expr_text() -> str:
    """The reference priority every run is compared against: plain ASAP level
    with id tie-breaking supplied by the scheduler itself."""
    return "1*level"


def list_schedule(dag: Dag, priority: Mapping[int, float], measure: bool = True) -> Schedule:
    """Greedy list schedule under ``priority``.

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


def verify_schedule(dag: Dag, starts: Mapping[int, int]) -> list[str]:
    """Return a list of violation messages; empty means valid.

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


def lower_bound_makespan(dag: Dag) -> int:
    """max(critical path, per-type ceil(work / capacity)); valid for any
    feasible schedule."""
    bound = dag.stats().cp_length
    for op, total in compute_work(dag).items():
        bound = max(bound, -(-total // dag.capacities[op]))
    return bound


def optimal_makespan(dag: Dag, node_limit: int = 12) -> int:
    """Exact minimum makespan by branch and bound; refuses graphs larger than
    ``node_limit`` nodes because the state space is exponential."""
    n = len(dag)
    if n > node_limit:
        raise ValueError(f"graph has {n} nodes; optimal_makespan is limited to {node_limit}")
    if n == 0:
        return 0

    stats = dag.stats()
    crit = stats.crit
    caps = dag.capacities
    durations = [dag.nodes[v].duration for v in range(n)]
    op_types = [dag.nodes[v].op_type for v in range(n)]
    preds_mask = [0] * n
    for u, v in dag.edges:
        preds_mask[v] |= 1 << u
    succ_crit = [max((crit[w] for w in dag.succs[v]), default=0) for v in range(n)]
    full = (1 << n) - 1

    incumbent = list_schedule(dag, {v: float(crit[v]) for v in range(n)}, measure=False)
    best = incumbent.makespan

    memo: dict[tuple, int] = {}

    def dfs(now: int, done_mask: int, started_mask: int, running: tuple[tuple[int, int], ...]) -> None:
        nonlocal best
        bound = now
        rem_work = {t: 0 for t in caps}
        for v in range(n):
            if not (started_mask >> v) & 1:
                if now + crit[v] > bound:
                    bound = now + crit[v]
                rem_work[op_types[v]] += durations[v]
        for f, v in running:
            if f + succ_crit[v] > bound:
                bound = f + succ_crit[v]
            rem_work[op_types[v]] += f - now
        for op, total in rem_work.items():
            b = now + -(-total // caps[op])
            if b > bound:
                bound = b
        if bound >= best:
            return

        key = (started_mask, tuple(sorted((f - now, v) for f, v in running)))
        prev = memo.get(key)
        if prev is not None and prev <= now:
            return
        memo[key] = now

        busy = {t: 0 for t in caps}
        for _, v in running:
            busy[op_types[v]] += 1
        ready = [
            v
            for v in range(n)
            if not (started_mask >> v) & 1 and (done_mask & preds_mask[v]) == preds_mask[v]
        ]

        subsets: list[tuple[int, ...]] = []

        def choose(idx: int, chosen: list[int], load: dict[str, int]) -> None:
            if idx == len(ready):
                subsets.append(tuple(chosen))
                return
            choose(idx + 1, chosen, load)
            v = ready[idx]
            op = op_types[v]
            if load[op] < caps[op]:
                load[op] += 1
                chosen.append(v)
                choose(idx + 1, chosen, load)
                chosen.pop()
                load[op] -= 1

        choose(0, [], dict(busy))

        for subset in subsets:
            if not subset and not running:
                continue
            new_running = list(running)
            new_started = started_mask
            for v in subset:
                new_running.append((now + durations[v], v))
                new_started |= 1 << v
            if new_started == full:
                makespan = max(f for f, _ in new_running)
                if makespan < best:
                    best = makespan
                continue
            new_running.sort()
            horizon = new_running[0][0]
            finished = 0
            carry: list[tuple[int, int]] = []
            for f, v in new_running:
                if f == horizon:
                    finished |= 1 << v
                else:
                    carry.append((f, v))
            dfs(horizon, done_mask | finished, new_started, tuple(carry))

    dfs(0, 0, 0, ())
    return best
