"""Independent schedule oracle for the benchmark.

It re-derives everything it checks from the raw graph data (durations, op
types, edges, capacities) and never calls ``verify_schedule`` or
``lower_bound_makespan``, so a bug shared by the scheduler and the package's
own checks cannot hide here.

Bounds, for a non-delay list schedule on typed capacities:

- lower: ``max(cp, ceil(work_t / cap_t))`` holds for every feasible schedule;
- upper: ``cp + sum_t work_t / cap_t`` is Graham's list-scheduling argument
  ("Bounds on multiprocessing timing anomalies", 1969) extended to typed
  capacities.  Walk back from the last finishing op along a chain of
  predecessors; every instant not covered by a chain op is one where the
  waiting chain op's type has all its units busy, and type ``t`` can be
  saturated for at most ``work_t / cap_t`` time in total.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Mapping, Sequence


def critical_path(durations: Sequence[int], edges: Sequence[tuple[int, int]]) -> int:
    """Longest duration sum over any path, by Kahn's algorithm.  A cycle
    leaves nodes unvisited and raises."""
    n = len(durations)
    succs: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in edges:
        succs[u].append(v)
        indeg[v] += 1
    finish = [0] * n
    queue = deque(v for v in range(n) if indeg[v] == 0)
    ready_at = [0] * n
    visited = 0
    while queue:
        v = queue.popleft()
        visited += 1
        finish[v] = ready_at[v] + durations[v]
        for w in succs[v]:
            if finish[v] > ready_at[w]:
                ready_at[w] = finish[v]
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if visited != n:
        raise ValueError("graph has a cycle")
    return max(finish, default=0)


class GraphOracle:
    """Bounds of one graph, computed once, and checks of schedules on it."""

    def __init__(
        self,
        durations: Sequence[int],
        op_types: Sequence[str],
        edges: Sequence[tuple[int, int]],
        capacities: Mapping[str, int],
    ):
        unknown = sorted(set(op_types) - set(capacities))
        if unknown:
            raise ValueError(f"op type {unknown[0]!r} has no capacity")
        self.durations = list(durations)
        self.op_types = list(op_types)
        self.edges = list(edges)
        self.capacities = dict(capacities)
        work = {t: 0 for t in capacities}
        for duration, t in zip(self.durations, self.op_types):
            work[t] += duration
        self.cp = critical_path(self.durations, self.edges)
        self.lower = max([self.cp] + [-(-work[t] // capacities[t]) for t in capacities])
        self.upper = self.cp + sum(Fraction(work[t], capacities[t]) for t in capacities)

    @classmethod
    def of_dag(cls, dag) -> "GraphOracle":
        """Read only the raw fields of a ``priosynth`` graph."""
        return cls(
            [rec.duration for rec in dag.nodes],
            [rec.op_type for rec in dag.nodes],
            dag.edges,
            dag.capacities,
        )

    def check(self, starts: Mapping[int, int], recorded_makespan: float | None = None) -> list[str]:
        """Every violated property of ``starts``, as messages; empty means the
        schedule passes.  Checks completeness, precedence, per-type capacity,
        both makespan bounds and, when given, a makespan recorded elsewhere."""
        durations, n = self.durations, len(self.durations)
        problems: list[str] = []
        missing = [v for v in range(n) if v not in starts]
        if missing:
            problems.append(f"{len(missing)} nodes have no start (first {missing[0]})")
        extra = [v for v in starts if not (isinstance(v, int) and 0 <= v < n)]
        if extra:
            problems.append(f"start given for unknown node {extra[0]!r}")
        bad = [v for v, s in starts.items() if not isinstance(s, int) or isinstance(s, bool) or s < 0]
        if bad:
            problems.append(f"node {bad[0]} has start {starts[bad[0]]!r}, not a nonnegative integer")
        if problems:
            return problems

        for u, v in self.edges:
            if starts[v] < starts[u] + durations[u]:
                problems.append(f"edge ({u}, {v}): start {starts[v]} before finish {starts[u] + durations[u]}")
                break

        events: dict[str, list[tuple[int, int]]] = {t: [] for t in self.capacities}
        for v in range(n):
            events[self.op_types[v]].extend(((starts[v], 1), (starts[v] + durations[v], -1)))
        for t, moves in events.items():
            load = 0
            # Ends sort before starts at the same cycle, so back-to-back use is legal.
            for cycle, delta in sorted(moves):
                load += delta
                if load > self.capacities[t]:
                    problems.append(f"type {t!r} runs {load} ops at cycle {cycle}, capacity {self.capacities[t]}")
                    break

        makespan = max((starts[v] + durations[v] for v in range(n)), default=0)
        if makespan < self.lower:
            problems.append(f"makespan {makespan} below the lower bound {self.lower}")
        if makespan > self.upper:
            problems.append(f"makespan {makespan} above the list-scheduling upper bound {float(self.upper):.3f}")
        if recorded_makespan is not None and recorded_makespan != makespan:
            problems.append(f"recorded makespan {recorded_makespan} differs from recomputed {makespan}")
        return problems

    def check_schedule(self, schedule, recorded_makespan: float | None = None) -> list[str]:
        """:meth:`check` on a ``priosynth`` schedule, whose own makespan and
        feasibility flag must agree too."""
        if not schedule.feasible:
            return ["scheduler reported the schedule infeasible"]
        problems = self.check(schedule.starts, recorded_makespan)
        if not problems:
            makespan = max((schedule.starts[v] + d for v, d in enumerate(self.durations)), default=0)
            if schedule.makespan != makespan:
                problems.append(f"scheduler makespan {schedule.makespan} differs from recomputed {makespan}")
        return problems
