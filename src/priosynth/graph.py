"""Operation-DAG data model and deterministic structural analyses.

A :class:`Dag` holds typed, multi-cycle operations with precedence edges and
per-type resource capacities.  All structural features used by priority
expressions (level, remaining critical path, slack, degrees, reconvergence,
resource pressure) are computed here, in one pass that :meth:`Dag.stats`
caches.  Instances are immutable after construction.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


class GraphFormatError(ValueError):
    """A graph document violates the schema or the DAG invariants."""


@dataclass(frozen=True)
class NodeRecord:
    """One operation: dense integer id, op type, duration in cycles (>= 1)."""

    id: int
    op_type: str
    duration: int


@dataclass(frozen=True)
class StatsTable:
    """Per-node structural features plus graph-level aggregates.

    ``slack[v] = cp_length - level[v] - crit[v]`` and is zero exactly on the
    nodes that lie on some longest source-to-sink path.  ``pressure[t]`` is
    the total work of type ``t`` over its capacity times ``cp_length`` (0.0
    when ``cp_length`` is 0); a value above 1 marks a guaranteed bottleneck.
    """

    level: dict[int, int]
    crit: dict[int, int]
    slack: dict[int, int]
    fanout: dict[int, int]
    fanin: dict[int, int]
    reconv: dict[int, int]
    pressure: dict[str, float]
    cp_length: int


class Dag:
    """Validated directed acyclic graph of operations.

    Node ids must be dense integers ``0..n-1``.  Every op type that appears on
    a node must have a positive capacity entry.  Edges are deduplicated and
    stored sorted; a topological order is computed on construction (which also
    proves acyclicity).
    """

    __slots__ = ("nodes", "edges", "capacities", "name", "preds", "succs", "topo_order", "_stats")

    def __init__(
        self,
        nodes: Sequence[NodeRecord],
        edges: Iterable[tuple[int, int]],
        capacities: Mapping[str, int],
        name: str | None = None,
    ):
        node_list = sorted(nodes, key=lambda r: r.id)
        n = len(node_list)
        seen: set[int] = set()
        for rec in node_list:
            if not isinstance(rec.id, int) or isinstance(rec.id, bool):
                raise GraphFormatError(f"node id {rec.id!r} is not an integer")
            if rec.id in seen:
                raise GraphFormatError(f"duplicate node id {rec.id}")
            seen.add(rec.id)
            if not isinstance(rec.duration, int) or isinstance(rec.duration, bool) or rec.duration < 1:
                raise GraphFormatError(f"node {rec.id}: duration must be a positive integer, got {rec.duration!r}")
            if not isinstance(rec.op_type, str) or not rec.op_type:
                raise GraphFormatError(f"node {rec.id}: op type must be a non-empty string")
        if seen and (min(seen) != 0 or max(seen) != n - 1):
            raise GraphFormatError(f"node ids must be dense 0..{n - 1}")

        caps: dict[str, int] = {}
        for op_type, cap in capacities.items():
            if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
                raise GraphFormatError(f"capacity for {op_type!r} must be a positive integer, got {cap!r}")
            caps[str(op_type)] = cap
        for rec in node_list:
            if rec.op_type not in caps:
                raise GraphFormatError(f"missing capacity entry for op type {rec.op_type!r}")

        edge_set: set[tuple[int, int]] = set()
        for edge in edges:
            u, v = edge
            if u not in seen or v not in seen:
                raise GraphFormatError(f"edge ({u}, {v}) references an unknown node id")
            edge_set.add((int(u), int(v)))

        self.nodes: tuple[NodeRecord, ...] = tuple(node_list)
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(edge_set))
        self.capacities: dict[str, int] = dict(sorted(caps.items()))
        self.name = name

        preds: list[list[int]] = [[] for _ in range(n)]
        succs: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            succs[u].append(v)
            preds[v].append(u)
        self.preds: tuple[tuple[int, ...], ...] = tuple(tuple(p) for p in preds)
        self.succs: tuple[tuple[int, ...], ...] = tuple(tuple(s) for s in succs)
        self.topo_order: tuple[int, ...] = self._toposort()
        self._stats: StatsTable | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<Dag{tag} |V|={len(self.nodes)} |E|={len(self.edges)}>"

    def _toposort(self) -> tuple[int, ...]:
        # Kahn's algorithm with a min-heap so the order is id-deterministic.
        n = len(self.nodes)
        indeg = [len(self.preds[v]) for v in range(n)]
        heap = [v for v in range(n) if indeg[v] == 0]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            v = heapq.heappop(heap)
            order.append(v)
            for w in self.succs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(heap, w)
        if len(order) != n:
            stuck = min(v for v in range(n) if indeg[v] > 0)
            raise GraphFormatError(f"cycle detected involving node {stuck}")
        return tuple(order)

    def stats(self) -> StatsTable:
        """Compute (once) and return the full stats table for this graph."""
        if self._stats is None:
            level = compute_levels(self)
            crit = compute_crit(self)
            cp = max((level[v] + crit[v] for v in range(len(self))), default=0)
            slack = {v: cp - level[v] - crit[v] for v in range(len(self))}
            work = compute_work(self)
            self._stats = StatsTable(
                level=level,
                crit=crit,
                slack=slack,
                fanout={v: len(self.succs[v]) for v in range(len(self))},
                fanin={v: len(self.preds[v]) for v in range(len(self))},
                reconv=compute_reconv(self),
                pressure={t: work[t] / (cap * cp) if cp else 0.0 for t, cap in self.capacities.items()},
                cp_length=cp,
            )
        return self._stats


def compute_levels(dag: Dag) -> dict[int, int]:
    """Unconstrained ASAP start times: 0 for sources, else max over
    predecessors of ``level(u) + duration(u)``."""
    level: dict[int, int] = {}
    for v in dag.topo_order:
        level[v] = max((level[u] + dag.nodes[u].duration for u in dag.preds[v]), default=0)
    return level


def compute_crit(dag: Dag) -> dict[int, int]:
    """Remaining critical-path length: the largest duration sum over any
    directed path from ``v`` to a sink, including ``v`` itself."""
    crit: dict[int, int] = {}
    for v in reversed(dag.topo_order):
        crit[v] = dag.nodes[v].duration + max((crit[w] for w in dag.succs[v]), default=0)
    return crit


def compute_work(dag: Dag) -> dict[str, int]:
    """Total duration of the operations of each type, keyed in capacity
    order; types without operations have work 0."""
    work = {t: 0 for t in dag.capacities}
    for rec in dag.nodes:
        work[rec.op_type] += rec.duration
    return work


def compute_reconv(dag: Dag) -> dict[int, int]:
    """Reconvergence marker: for each node, the number of unordered child
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


# ---------------------------------------------------------------------------
# Graph JSON format
#
# {"nodes": [{"id": int, "type": str, "duration": int}, ...],
#  "edges": [[pred, succ], ...],
#  "capacities": {"<type>": int}}
#
# Writers emit nodes sorted by id, edges sorted lexicographically, and object
# keys sorted, so equal graphs serialize to identical bytes.


def load_dag(document: Mapping | str, name: str | None = None) -> Dag:
    """Build a validated :class:`Dag` from a graph document (dict or JSON text)."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(document, Mapping):
        raise GraphFormatError("graph document must be a JSON object")
    for key in ("nodes", "edges", "capacities"):
        if key not in document:
            raise GraphFormatError(f"graph document is missing {key!r}")
    raw_nodes = document["nodes"]
    raw_edges = document["edges"]
    raw_caps = document["capacities"]
    if not isinstance(raw_nodes, list):
        raise GraphFormatError("'nodes' must be an array")
    if not isinstance(raw_edges, list):
        raise GraphFormatError("'edges' must be an array")
    if not isinstance(raw_caps, Mapping):
        raise GraphFormatError("'capacities' must be an object")

    nodes = []
    for entry in raw_nodes:
        if not isinstance(entry, Mapping) or not {"id", "type", "duration"} <= set(entry):
            raise GraphFormatError(f"malformed node entry: {entry!r}")
        nodes.append(NodeRecord(id=entry["id"], op_type=entry["type"], duration=entry["duration"]))
    edges = []
    for entry in raw_edges:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise GraphFormatError(f"malformed edge entry: {entry!r}")
        edges.append((entry[0], entry[1]))
    return Dag(nodes, edges, raw_caps, name=name)


def dag_to_document(dag: Dag) -> dict:
    return {
        "nodes": [{"id": r.id, "type": r.op_type, "duration": r.duration} for r in dag.nodes],
        "edges": [[u, v] for u, v in dag.edges],
        "capacities": dict(dag.capacities),
    }


def dump_dag(dag: Dag) -> str:
    """Canonical byte-stable serialization of a graph."""
    return canonical_json(dag_to_document(dag))


def canonical_json(document) -> str:
    """The one JSON writer used for every artifact: sorted keys, 2-space
    indent, trailing newline.  Equal documents produce equal bytes."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def load_dag_file(path) -> Dag:
    from pathlib import Path

    p = Path(path)
    return load_dag(p.read_text(encoding="utf-8"), name=p.stem)
