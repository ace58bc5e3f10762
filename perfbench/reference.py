"""Fixed reference work that measures how fast the machine runs right now.

On a machine whose cores are shared with other tenants, the same Python
code runs up to 1.8 times slower for phases of seconds to minutes.  A run
times one of these references between its repetitions and scales each
repetition's time by the reference's nominal time over its time around the
repetition, which cancels most of the phase.

Both use only the standard library and this directory's oracle, never the
``priosynth`` package, so no change to the package moves them.  Each does
the kind of work its workload does: ``SMALL_GRAPHS`` schedules hundreds of
tiny graphs, ``LARGE_GRAPH`` builds reachability bitsets and a schedule on
one big graph.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass
from typing import Callable

from oracle import critical_path


def _layered(rng: random.Random, layers: int, width: int, edge_prob: float):
    """A layered DAG as (durations, types, edges), like the workloads' own."""
    sizes = [rng.randint(max(1, width // 2), width) for _ in range(layers)]
    starts = [sum(sizes[:i]) for i in range(layers)]
    edges = []
    for depth in range(1, layers):
        below = range(starts[depth - 1], starts[depth - 1] + sizes[depth - 1])
        for v in range(starts[depth], starts[depth] + sizes[depth]):
            preds = [u for u in below if rng.random() < edge_prob] or [rng.choice(below)]
            edges.extend((u, v) for u in preds)
    n = sum(sizes)
    durations = [rng.randint(1, 6) for _ in range(n)]
    types = [rng.choice(("alu", "alu", "alu", "mem", "mul")) for _ in range(n)]
    return durations, types, edges


def _list_schedule(durations, types, edges, capacities) -> int:
    """Non-delay list schedule by longest remaining path; returns the makespan."""
    n = len(durations)
    succs = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in edges:
        succs[u].append(v)
        indeg[v] += 1
    rank = [0] * n
    for v in reversed(range(n)):  # nodes are numbered in topological order
        rank[v] = durations[v] + max((rank[w] for w in succs[v]), default=0)
    ready = [(-rank[v], v) for v in range(n) if indeg[v] == 0]
    heapq.heapify(ready)
    running: list[tuple[int, int]] = []
    free = dict(capacities)
    clock = 0
    done = 0
    while done < n:
        waiting = []
        while ready:
            item = heapq.heappop(ready)
            v = item[1]
            if free[types[v]]:
                free[types[v]] -= 1
                heapq.heappush(running, (clock + durations[v], v))
            else:
                waiting.append(item)
        for item in waiting:
            heapq.heappush(ready, item)
        clock, v = heapq.heappop(running)
        free[types[v]] += 1
        done += 1
        for w in succs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, (-rank[w], w))
    return clock


CAPACITIES = {"alu": 2, "mem": 1, "mul": 1}


def _make_small():
    rng = random.Random("perfbench-reference-small")
    return [_layered(rng, 5, 5, 0.35) for _ in range(200)]


def _make_large():
    rng = random.Random("perfbench-reference-large")
    return _layered(rng, 60, 64, 0.35)


_SMALL = None
_LARGE = None


def small_graphs() -> float:
    """Seconds to schedule 200 tiny graphs 32 times over."""
    global _SMALL
    if _SMALL is None:
        _SMALL = _make_small()
    t0 = time.perf_counter()
    for _ in range(32):
        for durations, types, edges in _SMALL:
            critical_path(durations, edges)
            _list_schedule(durations, types, edges, CAPACITIES)
    return time.perf_counter() - t0


def large_graph() -> float:
    """Seconds to build reachability bitsets and schedule one 2.9k-node
    graph, four times over."""
    global _LARGE
    if _LARGE is None:
        _LARGE = _make_large()
    t0 = time.perf_counter()
    for _ in range(4):
        _large_once(*_LARGE)
    return time.perf_counter() - t0


def _large_once(durations, types, edges) -> None:
    n = len(durations)
    succs = [[] for _ in range(n)]
    for u, v in edges:
        succs[u].append(v)
    reach = [0] * n
    for v in reversed(range(n)):
        r = 1 << v
        for w in succs[v]:
            r |= reach[w]
        reach[v] = r
    shared = 0
    for v in range(n):
        children = succs[v]
        for i in range(len(children)):
            for j in range(i + 1, len(children)):
                if reach[children[i]] & reach[children[j]]:
                    shared += 1
    critical_path(durations, edges)
    _list_schedule(durations, types, edges, CAPACITIES)


@dataclass(frozen=True)
class Reference:
    run: Callable[[], float]  # one pass; returns its seconds
    # A pass's time on the machine the bounds were set on ("Intel(R) Xeon(R)
    # Processor", 2 vCPUs, Python 3.11.7) outside its slow phases.  It only
    # converts scaled times back into seconds; any fixed value would do.
    nominal_s: float


SMALL_GRAPHS = Reference(small_graphs, 0.28)
LARGE_GRAPH = Reference(large_graph, 0.35)
