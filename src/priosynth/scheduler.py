"""Resource-constrained list scheduling and an exact small-graph optimum.

The list scheduler is greedy and deterministic: at each decision cycle the
ready operations are ranked by (priority descending, id ascending) and
admitted while per-type capacity remains.  Decision cycles are event-aligned
(cycle 0 plus every finish time), which is equivalent to stepping one cycle
at a time because capacity and readiness only change when something finishes.
The priorities come in one form, a list or tuple indexed by node id: the list
:func:`~priosynth.dsl.eval_expr` returns, a slice of the loop's stacked pass,
or a stats column such as ``crit``.  A mapping keyed by node id is refused.

Whether one ready operation is admitted depends only on how many units of
its own type are busy, and only admissions of that type change that count.
A pass over all ready operations in rank order therefore admits, per type,
exactly the best-ranked ready operations of that type until its units run
out.  So the scheduler keeps one ready heap per type, keyed
(-priority, id), pops each until its type is full, and never re-sorts the
whole ready list; the start times are those of the global ranked pass.

The schedule therefore depends on the priorities only through the order in
which each type's heap pops its members: per type, the member ids sorted by
(priority descending, id ascending).  Two priority vectors that give every
type the same such order give identical starts, makespan and feasibility,
so a caller can memoize schedules on it, as :mod:`priosynth.loop` does; a
vector with a NaN or an infinity has no order, because ``list_schedule``
rejects it.

``optimal_makespan`` is a memoized branch-and-bound over event-aligned
schedules.  Restricting starts to event times is lossless: any feasible
schedule can be left-shifted op by op, without increasing the makespan, until
every start sits at cycle 0 or at some finish time.

``verify_schedule`` tests precedence and capacity as numpy operations over
arrays that a graph builds on its first check and keeps.  Only a check that
fails walks the edges or the members of a type in Python, to write its
messages.
"""

from __future__ import annotations

import heapq
import math
import operator
import time
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .graph import Dag, canonical_json


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


def list_schedule(dag: Dag, priority: Sequence[float], measure: bool = True) -> Schedule:
    """Greedy list schedule under ``priority``, a list or tuple indexed by
    node id, as :func:`~priosynth.dsl.eval_expr` returns; anything else, or a
    sequence of another length, raises ``ValueError``.

    Non-finite priority values poison the whole schedule: the result is
    infeasible with empty starts instead of an exception, so a bad synthesized
    expression scores a penalty rather than crashing a run.

    Each node's type index, duration and in-degree are read from the graph's
    cached stats table (``op_index``, ``duration`` and ``fanin``), which every
    caller that derives priorities from the graph has already built.
    """
    begin = time.perf_counter()
    n = len(dag)
    if not isinstance(priority, (list, tuple)) or len(priority) != n:
        raise ValueError(f"priority must be a list or tuple of {n} values indexed by node id")

    # A sum of finite values is finite unless it overflows, so only a
    # non-finite sum needs the scan for a NaN or an infinity.
    if not math.isfinite(sum(priority)) and not all(map(math.isfinite, priority)):
        return _result(begin, measure, {}, 0, False)

    stats = dag.stats()
    caps = list(dag.capacities.values())
    op_of = stats.op_index
    durations = stats.duration
    succs = dag.succs
    indeg = list(stats.fanin)
    # One ready heap per op type, keyed (-priority, id); see the module
    # docstring for why this admits exactly what one global ranking would.
    ready: list[list[tuple[float, int]]] = [[] for _ in caps]
    for v in range(n):
        if indeg[v] == 0:
            ready[op_of[v]].append((-priority[v], v))
    for heap in ready:
        heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    running: list[tuple[int, int]] = []
    free = caps[:]
    starts: dict[int, int] = {}
    now = makespan = 0
    while True:
        for op, heap in enumerate(ready):
            while free[op] and heap:
                v = pop(heap)[1]
                starts[v] = now
                end = now + durations[v]
                push(running, (end, v))
                if end > makespan:
                    makespan = end
                free[op] -= 1
        if len(starts) == n:
            break
        if not running:
            # Unreachable on a validated DAG (capacity >= 1 guarantees
            # progress); kept as a guard against internal inconsistency.
            return _result(begin, measure, {}, 0, False)
        now = running[0][0]
        while running and running[0][0] == now:
            v = pop(running)[1]
            free[op_of[v]] += 1
            for w in succs[v]:
                indeg[w] -= 1
                if not indeg[w]:
                    push(ready[op_of[w]], (-priority[w], w))
    return _result(begin, measure, starts, makespan, True)


def _result(begin: float, measure: bool, starts: dict[int, int], makespan: int, feasible: bool) -> Schedule:
    elapsed = (time.perf_counter() - begin) * 1000.0 if measure else 0.0
    return Schedule(starts=starts, makespan=makespan, feasible=feasible, runtime_ms=elapsed)


_INT64_MAX = int(np.iinfo(np.int64).max)


def verify_schedule(dag: Dag, starts: Mapping[int, int]) -> list[str]:
    """Return a list of violation messages; empty means valid.

    Checks completeness, integer nonnegative starts, every precedence edge,
    and per-type capacity at every cycle, in that order.  Precedence and
    capacity are tested as whole-array numpy operations; only a check that
    fails walks its edges or members in Python to write the messages.

    Capacity: per type, counting from 0, the j-th smallest finish must not
    exceed the (j + cap)-th smallest start.  A finish at cycle t frees its
    unit before a start at t claims one, so the first j that breaks this
    names the cycle, that (j + cap)-th start, at which the load first
    exceeds the capacity.
    """
    n = len(dag)
    # The type test comes first: it rejects an empty or mixed key set
    # before min() and max() see it.
    if len(starts) != n or set(map(type, starts)) != {int} or min(starts) < 0 or max(starts) >= n:
        missing = [f"node {v} has no start time" for v in range(n) if v not in starts]
        return missing + [f"unknown node {v!r} in starts" for v in starts if not (type(v) is int and 0 <= v < n)]
    values = starts.values()
    if set(map(type, values)) != {int} or min(values) < 0:
        # Only a message rejects: an int subclass other than bool is valid.
        bad = [
            f"node {v}: start {s!r} is not a nonnegative integer"
            for v, s in starts.items()
            if not isinstance(s, int) or isinstance(s, bool) or s < 0
        ]
        if bad:
            return bad
    tails, first, heads, duration, max_duration, types = _check_columns(dag)
    # Finishes past int64 are compared as exact Python ints.
    dtype = np.int64 if max(values) + max_duration <= _INT64_MAX else object
    start = np.empty(n, dtype)
    start[np.fromiter(starts.keys(), np.intp, n)] = np.fromiter(values, dtype, n)
    finish = start + duration
    violations: list[str] = []
    # Each node with successors must finish by the earliest of their starts.
    if (finish.take(tails) > np.minimum.reduceat(start.take(heads), first)).any():
        violations += _precedence_messages(dag, starts)
    for op, cap, members in types:
        later_starts = np.sort(start[members])[cap:]
        if (np.sort(finish[members])[: len(later_starts)] > later_starts).any():
            violations.append(_capacity_message(dag, starts, op, cap, members.tolist()))
    return violations


def _check_columns(dag: Dag) -> tuple:
    """``(tails, first, heads, duration, max_duration, types)`` for the
    vector checks, built on a graph's first check and cached in its
    ``_checks`` slot.

    ``heads`` lists every edge's head in sorted edge order, which is each
    node's successors in turn.  ``tails`` holds the ascending ids of the
    nodes with successors and ``first`` the position of each one's first
    edge in ``heads``, so ``np.minimum.reduceat`` over ``first`` gives each
    tail's earliest successor start in one call.  ``duration`` is int64
    unless one duration overflows it; ``types`` holds ``(op type,
    capacity, member ids)`` in capacity order.  Fanouts, durations and
    member ids come from the graph's stats table."""
    if dag._checks is None:
        stats = dag.stats()
        fanout = np.array(stats.fanout, np.intp)
        tails = np.flatnonzero(fanout)
        first = (np.cumsum(fanout) - fanout)[tails]
        heads = np.fromiter(chain.from_iterable(dag.succs), np.intp, int(fanout.sum()))
        max_duration = max(stats.duration)
        duration = np.array(stats.duration, np.int64 if max_duration <= _INT64_MAX else object)
        types = [
            (op, cap, np.array(members, np.intp))
            for (op, cap), members in zip(dag.capacities.items(), stats.members)
        ]
        dag._checks = (tails, first, heads, duration, max_duration, types)
    return dag._checks


def _precedence_messages(dag: Dag, starts: Mapping[int, int]) -> list[str]:
    nodes = dag.nodes
    messages = []
    for u, w in dag.edges:
        if starts[w] < starts[u] + nodes[u].duration:
            messages.append(f"precedence violated on edge ({u}, {w}): {starts[w]} < {starts[u]} + {nodes[u].duration}")
    return messages


def _capacity_message(dag: Dag, starts: Mapping[int, int], op: str, cap: int, members: list[int]) -> str:
    nodes = dag.nodes
    type_finishes = sorted([starts[v] + nodes[v].duration for v in members])
    later_starts = sorted([starts[v] for v in members])[cap:]
    j = list(map(operator.gt, type_finishes, later_starts)).index(True)
    return f"capacity exceeded for type {op!r} at cycle {later_starts[j]}"


def lower_bound_makespan(dag: Dag) -> int:
    """max(critical path, per-type ceil(work / capacity)); valid for any
    feasible schedule."""
    stats = dag.stats()
    bound = stats.cp_length
    for cap, total in zip(dag.capacities.values(), stats.work):
        bound = max(bound, -(-total // cap))
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
    durations = stats.duration
    op_types = [dag.nodes[v].op_type for v in range(n)]
    preds_mask = [0] * n
    for u, v in dag.edges:
        preds_mask[v] |= 1 << u
    succ_crit = [max((crit[w] for w in dag.succs[v]), default=0) for v in range(n)]
    full = (1 << n) - 1

    incumbent = list_schedule(dag, crit, measure=False)
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
