"""Operation-DAG data model and deterministic structural analyses.

A :class:`Dag` holds typed, multi-cycle operations with precedence edges and
per-type resource capacities.  It is built through one of two entry points
that share one finisher: the public constructor, used by :func:`load_dag`
and the CLI, checks every node, capacity and edge; the private
``Dag._from_succs`` trusts adjacency that the generators in
:mod:`priosynth.bench` and :func:`priosynth.kernels.induced_subdag` (the
reference for motif embeddings, which build no graph) make valid by
construction.  The sorted edge tuple is built only when something
reads :attr:`Dag.edges`.  All structural features used by
priority expressions (level, remaining critical path, slack, degrees,
reconvergence, resource pressure) are computed here, in one pass that
:meth:`Dag.stats` caches.  The same pass gives each node its op type's
index in capacity order and files each type's member ids and total work;
the scheduler reads these with the duration and fan-in columns, so it
builds no per-node list of its own.  Instances are immutable after
construction.

The module is also the document layer: graph files, the canonical JSON
writer every artifact goes through, and the type checks that every document
reader and run-input dataclass applies to its values.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter, or_
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

    Each per-node feature is a column: a tuple indexed by the dense node id.
    ``slack[v] = cp_length - level[v] - crit[v]`` and is zero exactly on the
    nodes that lie on some longest source-to-sink path.  ``pressure[t]`` is
    the total work of type ``t`` over its capacity times ``cp_length`` (0.0
    when ``cp_length`` is 0); a value above 1 marks a guaranteed bottleneck.
    ``op_index[v]`` is the position of node ``v``'s op type in capacity
    order, the order of ``Dag.capacities``.  ``members`` and ``work`` hold
    one entry per op type, in that order: the type's ascending node ids, and
    the sum of their durations (0 for a type without nodes).
    """

    level: tuple[int, ...]
    crit: tuple[int, ...]
    slack: tuple[int, ...]
    fanout: tuple[int, ...]
    fanin: tuple[int, ...]
    reconv: tuple[int, ...]
    duration: tuple[int, ...]
    op_index: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    work: tuple[int, ...]
    pressure: dict[str, float]
    cp_length: int


class Dag:
    """Validated directed acyclic graph of operations.

    Node ids must be dense integers ``0..n-1``.  Every op type that appears on
    a node must have a positive capacity entry.  Each edge must be a pair of
    ``int`` node ids.  One pass over the edges checks each in input order and
    appends it to ``succs``; only input that is not strictly increasing in
    ``(u, v)`` is then sorted and deduplicated node by node.

    ``Dag._from_succs`` is the trusted entry point for producers that meet
    these rules by construction (its docstring lists them); it checks
    nothing.  Both entry points hand over to ``Dag._finish``, which files
    ``preds`` from ``succs`` in ``u`` order, so each list ascends, and sets
    ``topo_order``: the min-heap Kahn order, which also proves acyclicity.
    When every edge ascends (``u < v``), as the generators in
    :mod:`priosynth.bench` build them, it is the ids in order and costs no
    search; an induced subgraph of a loaded graph whose ids are not a
    topological order takes the search.  ``edges`` is the sorted,
    deduplicated edge tuple, built from ``succs`` on its first read.
    """

    __slots__ = (
        "nodes", "capacities", "name", "preds", "succs", "topo_order", "_edges", "_stats", "_checks"
    )

    def __init__(
        self,
        nodes: Sequence[NodeRecord],
        edges: Iterable[tuple[int, int]],
        capacities: Mapping[str, int],
        name: str | None = None,
    ):
        node_list = list(nodes)
        # Every id is checked before the sort compares any two of them.
        for rec in node_list:
            if not isinstance(rec.id, int) or isinstance(rec.id, bool):
                raise GraphFormatError(f"node id {rec.id!r} is not an integer")
        node_list.sort(key=lambda r: r.id)
        n = len(node_list)
        seen: set[int] = set()
        for rec in node_list:
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
            if not isinstance(op_type, str) or not op_type:
                raise GraphFormatError(f"op type {op_type!r} must be a non-empty string")
            if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
                raise GraphFormatError(f"capacity for {op_type!r} must be a positive integer, got {cap!r}")
            caps[op_type] = cap
        for rec in node_list:
            if rec.op_type not in caps:
                raise GraphFormatError(f"missing capacity entry for op type {rec.op_type!r}")

        succs: list[list[int]] = [[] for _ in range(n)]
        # ``u * n + v`` ascends exactly when ``(u, v)`` does.
        last = -1
        ordered = True
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise GraphFormatError(f"edge {edge!r} is not a pair of node ids") from None
            if type(u) is not int or type(v) is not int:
                raise GraphFormatError(f"edge ({u!r}, {v!r}): endpoints must be integer node ids")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u}, {v}) references an unknown node id")
            succs[u].append(v)
            key = u * n + v
            if key <= last:
                ordered = False
            last = key
        if not ordered:
            # Strictly increasing input leaves every list sorted and free of
            # repeats; anything else is put in that form here.
            succs = [sorted(set(vs)) for vs in succs]
        self._finish(node_list, succs, caps, name)

    @classmethod
    def _from_succs(
        cls,
        nodes: Sequence[NodeRecord],
        succs: Sequence[Sequence[int]],
        capacities: Mapping[str, int],
        name: str | None = None,
    ) -> Dag:
        """A graph from adjacency that its producer guarantees, with no
        checks: ``nodes[i].id == i`` with a positive ``int`` duration and an
        op type that ``capacities`` maps to a positive ``int``, and each
        ``succs[u]`` ascending, free of repeats and within ``0..n-1``.  A
        cycle still raises :class:`GraphFormatError` in ``_toposort``."""
        dag = cls.__new__(cls)
        dag._finish(nodes, succs, capacities, name)
        return dag

    def _finish(
        self,
        nodes: Sequence[NodeRecord],
        succs: Sequence[Sequence[int]],
        capacities: Mapping[str, int],
        name: str | None,
    ) -> None:
        """Both entry points end here: file ``preds`` from ``succs`` in
        ``u`` order, so each list ascends, and find the topological order."""
        n = len(nodes)
        preds: list[list[int]] = [[] for _ in range(n)]
        for u, vs in enumerate(succs):
            for v in vs:
                preds[v].append(u)
        self.nodes: tuple[NodeRecord, ...] = tuple(nodes)
        self.capacities: dict[str, int] = dict(sorted(capacities.items()))
        self.name = name
        self.preds: tuple[tuple[int, ...], ...] = tuple(map(tuple, preds))
        self.succs: tuple[tuple[int, ...], ...] = tuple(map(tuple, succs))
        # With every edge ascending, node ``i`` is the smallest ready node
        # once ``0..i-1`` are done, so the ids in order are exactly the
        # min-heap Kahn order, and the graph is acyclic.
        if all(vs[0] > u for u, vs in enumerate(succs) if vs):
            self.topo_order: tuple[int, ...] = tuple(range(n))
        else:
            self.topo_order = self._toposort()
        self._edges: tuple[tuple[int, int], ...] | None = None
        self._stats: StatsTable | None = None
        # The arrays scheduler.verify_schedule tests schedules with, built
        # by the first check of this graph.
        self._checks: tuple | None = None

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge ``(u, v)`` once, sorted; built from ``succs`` on the
        first read."""
        if self._edges is None:
            self._edges = tuple([(u, v) for u, vs in enumerate(self.succs) for v in vs])
        return self._edges

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<Dag{tag} |V|={len(self.nodes)} |E|={sum(map(len, self.succs))}>"

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
            cp = max((lv + cr for lv, cr in zip(level, crit)), default=0)
            type_index = {t: i for i, t in enumerate(self.capacities)}
            op_index = []
            members: list[list[int]] = [[] for _ in type_index]
            work = [0] * len(type_index)
            for v, rec in enumerate(self.nodes):
                i = type_index[rec.op_type]
                op_index.append(i)
                members[i].append(v)
                work[i] += rec.duration
            self._stats = StatsTable(
                level=level,
                crit=crit,
                slack=tuple(cp - lv - cr for lv, cr in zip(level, crit)),
                fanout=tuple(map(len, self.succs)),
                fanin=tuple(map(len, self.preds)),
                reconv=compute_reconv(self),
                duration=tuple(rec.duration for rec in self.nodes),
                op_index=tuple(op_index),
                members=tuple(map(tuple, members)),
                work=tuple(work),
                pressure={t: w / (cap * cp) if cp else 0.0 for (t, cap), w in zip(self.capacities.items(), work)},
                cp_length=cp,
            )
        return self._stats


def compute_levels(dag: Dag) -> tuple[int, ...]:
    """Unconstrained ASAP start times: 0 for sources, else max over
    predecessors of ``level(u) + duration(u)``."""
    level = [0] * len(dag)
    # Each node's ASAP finish: its duration until its level is added.
    finish = [rec.duration for rec in dag.nodes]
    preds = dag.preds
    for v in dag.topo_order:
        ps = preds[v]
        if ps:
            # One C call reads every predecessor's finish.
            lv = finish[ps[0]] if len(ps) == 1 else max(itemgetter(*ps)(finish))
            level[v] = lv
            finish[v] += lv
    return tuple(level)


def compute_crit(dag: Dag) -> tuple[int, ...]:
    """Remaining critical-path length: the largest duration sum over any
    directed path from ``v`` to a sink, including ``v`` itself."""
    # Starts as the duration column; a sink keeps its duration.
    crit = [rec.duration for rec in dag.nodes]
    succs = dag.succs
    for v in reversed(dag.topo_order):
        ws = succs[v]
        if ws:
            crit[v] += crit[ws[0]] if len(ws) == 1 else max(itemgetter(*ws)(crit))
    return tuple(crit)


def compute_reconv(dag: Dag) -> tuple[int, ...]:
    """Reconvergence marker: for each node, the number of unordered child
    pairs whose reachable sets intersect.

    Reachability is reflexive-transitive, so a child counts as "shared" when
    the other child reaches it.  Every node reaches some sink, so two nodes
    share a descendant exactly when they share a sink descendant; the reach
    bitsets therefore hold one bit per sink, not per node.

    One reverse-topological pass fills in each node's reach and count
    together, since its children are done before it.  A node with one child
    takes that child's reach and counts 0.  With two, one OR gives the reach
    and one AND decides the single pair.  With more, one C call reads the
    children's reach sets.  If they all equal the first (a value test,
    which hashes nothing), every pair intersects, since a reach set is never
    empty: ``c * (c - 1) / 2`` pairs.  Otherwise the children are grouped
    by equal sets, and the union of the groups is the reach.  The ``c``
    children of one group give ``c * (c - 1) / 2`` pairs.  When the groups
    are pairwise disjoint, which holds exactly when their bit counts add up
    to the union's, no other pair meets; else two groups of ``ca`` and
    ``cb`` children give ``ca * cb`` more pairs when their sets intersect.
    """
    n = len(dag)
    succs = dag.succs
    reach = [0] * n
    out = [0] * n
    sink_bit = 1
    for v in reversed(dag.topo_order):
        children = succs[v]
        c = len(children)
        if c == 1:
            reach[v] = reach[children[0]]
        elif c == 2:
            a, b = itemgetter(*children)(reach)
            reach[v] = a | b
            if a & b:
                out[v] = 1
        elif c:
            reaches = itemgetter(*children)(reach)
            first = reaches[0]
            if reaches.count(first) == c:
                reach[v] = first
                out[v] = c * (c - 1) // 2
                continue
            groups = Counter(reaches)
            union = reach[v] = reduce(or_, groups)
            count = sum([ca * (ca - 1) // 2 for ca in groups.values()])
            if sum(map(int.bit_count, groups)) != union.bit_count():
                sets = list(groups.items())
                for i, (ra, ca) in enumerate(sets):
                    for rb, cb in sets[i + 1 :]:
                        if ra & rb:
                            count += ca * cb
            out[v] = count
        else:
            reach[v] = sink_bit
            sink_bit <<= 1
    return tuple(out)


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
        # Stored as tuples, which canonical_json writes as arrays.
        "edges": dag.edges,
        "capacities": dict(dag.capacities),
    }


def dump_dag(dag: Dag) -> str:
    """Canonical byte-stable serialization of a graph."""
    return canonical_json(dag_to_document(dag))


# Value types that the C encoder writes exactly as the pure-Python one does.
# Subclasses (an ``IntEnum``, a NumPy float) are left to ``json.dumps``.
_SCALARS = frozenset((str, int, float, bool, type(None)))
_STR = frozenset((str,))
_SEQUENCES = frozenset((list, tuple))
_DICT = frozenset((dict,))
# Separators that no encoded value holds: the C encoder escapes every
# control character inside a string.
_ITEM_SEP, _KEY_SEP = "\x00", "\x01"
_MARKED = json.JSONEncoder(sort_keys=True, separators=(_ITEM_SEP, _KEY_SEP))


def _flat_items(value: list | tuple, depth: int) -> str | None:
    """``value`` written at indent ``depth`` if its items are all non-empty
    lists or tuples of scalars, or all non-empty dicts from ``str`` keys to
    scalars; otherwise ``None``.

    One C encoder call writes every item with control characters as
    separators, which are then replaced by the indented ones.  No scalar
    ends in ``]`` or ``}``, so an item separator right after one of them
    is the one between two items."""
    if _SEQUENCES.issuperset(map(type, value)):
        open_, close = "[", "]"
        scalars = chain.from_iterable(value)
    elif _DICT.issuperset(map(type, value)) and _STR.issuperset(map(type, chain.from_iterable(value))):
        open_, close = "{", "}"
        scalars = chain.from_iterable(map(dict.values, value))
    else:
        return None
    if not all(value) or not _SCALARS.issuperset(map(type, scalars)):
        return None
    outer = "\n" + "  " * (depth + 1)
    inner = "\n" + "  " * (depth + 2)
    body = (
        _MARKED.encode(value)[2:-2]
        .replace(close + _ITEM_SEP + open_, outer + close + "," + outer + open_ + inner)
        .replace(_ITEM_SEP, "," + inner)
        .replace(_KEY_SEP, ": ")
    )
    return "[" + outer + open_ + inner + body + outer + close + "\n" + "  " * depth + "]"


class _Unproven(Exception):
    """A part of a document that ``canonical_json`` leaves to ``json.dumps``."""


def canonical_json(document) -> str:
    """The one JSON writer used for every artifact: sorted keys, 2-space
    indent, trailing newline.  Equal documents produce equal bytes.

    The bytes are exactly ``json.dumps(document, indent=2, sort_keys=True)
    + "\\n"``.  ``indent`` forces ``json.dumps`` onto its pure-Python
    encoder, so nesting is written here and every container whose values
    are all scalars goes to the C encoder, whose item separator carries
    that container's indent.  A list of such containers, such as a graph's
    edges, goes to the C encoder in one call (:func:`_flat_items`), and one
    that the document refers to from several places at one depth, such as
    the validation rows that an ablation's records share, is written once.
    A document holding anything else (a non-``str`` key, a type outside
    :data:`_SCALARS`, a cycle) is written by ``json.dumps`` whole.
    """
    encoders: list[json.JSONEncoder] = []  # index: indent depth of the items
    # (id(value), depth) -> what ``_flat_items`` gave for that list or tuple
    # at that depth.  The document holds every object it reaches for the
    # whole call, so an id names one object throughout.  A cycle still ends
    # in ``RecursionError``: depth grows on each pass around it.
    shared: dict[tuple[int, int], str | None] = {}
    out: list[str] = []
    emit = out.append

    def flat(value, depth: int) -> str:
        while len(encoders) <= depth:
            pad = "  " * len(encoders)
            encoders.append(json.JSONEncoder(sort_keys=True, separators=(",\n" + pad, ": ")))
        return encoders[depth].encode(value)

    def write(value, depth: int) -> None:
        kind = type(value)
        if kind is dict:
            if not value:
                emit("{}")
                return
            if not _STR.issuperset(map(type, value)):
                raise _Unproven
            inner = "\n" + "  " * (depth + 1)
            if _SCALARS.issuperset(map(type, value.values())):
                emit("{" + inner + flat(value, depth + 1)[1:-1] + "\n" + "  " * depth + "}")
                return
            sep = "{" + inner
            for key in sorted(value):
                emit(sep + encode_basestring_ascii(key) + ": ")
                write(value[key], depth + 1)
                sep = "," + inner
            emit("\n" + "  " * depth + "}")
        elif kind is list or kind is tuple:
            if not value:
                emit("[]")
                return
            inner = "\n" + "  " * (depth + 1)
            if _SCALARS.issuperset(map(type, value)):
                emit("[" + inner + flat(value, depth + 1)[1:-1] + "\n" + "  " * depth + "]")
                return
            key = (id(value), depth)
            if key in shared:
                items = shared[key]
            else:
                items = shared[key] = _flat_items(value, depth)
            if items is not None:
                emit(items)
                return
            sep = "[" + inner
            for item in value:
                emit(sep)
                write(item, depth + 1)
                sep = "," + inner
            emit("\n" + "  " * depth + "]")
        elif kind in _SCALARS:
            emit(flat(value, 0))
        else:
            raise _Unproven

    try:
        write(document, 0)
    except (_Unproven, RecursionError):
        return json.dumps(document, indent=2, sort_keys=True) + "\n"
    emit("\n")
    return "".join(out)


def load_dag_file(path) -> Dag:
    from pathlib import Path

    p = Path(path)
    return load_dag(p.read_text(encoding="utf-8"), name=p.stem)


# ---------------------------------------------------------------------------
# Input checks shared by every document reader and run-input dataclass


def is_number(value) -> bool:
    """A finite int or float read from a document; a bool or a numeric
    string is not a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_type(name: str, value, kind):
    """``value`` if its type is exactly ``kind`` (one of the classes of a
    union such as ``str | None``), without coercion: only an int widens, to
    a float, and a bool is neither an int nor a float."""
    kinds = getattr(kind, "__args__", (kind,))
    if type(value) in kinds:
        return value
    if float in kinds and type(value) is int:
        return float(value)
    try:
        got = json.dumps(value, default=repr)
    except TypeError:  # a mapping key that JSON cannot hold
        got = repr(value)
    raise ValueError(f"{name} must be of type {getattr(kind, '__name__', kind)}, got {got}")


def number_list(value, what: str) -> tuple[float, ...]:
    """``value`` as floats if it is a list of numbers (see :func:`is_number`);
    nothing is coerced, so ``"12"`` is an error rather than ``(1.0, 2.0)``."""
    if not isinstance(value, list) or not all(is_number(x) for x in value):
        raise ValueError(f"{what} must be a list of finite numbers")
    return tuple(float(x) for x in value)


def reject_unknown_keys(document: dict, known: Sequence[str], where: str) -> None:
    """Refuse a misspelled or stray key rather than ignore it."""
    for key in document:
        if key not in known:
            raise ValueError(f"{where}: unknown key {key!r} (expected one of {', '.join(known)})")
