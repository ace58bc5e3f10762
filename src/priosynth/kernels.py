"""Structural motif mining and the clustered kernel library.

A kernel is a reusable scheduling hint: a centroid signature in embedding
space (for retrieval by similarity) for one motif category, whose template
(for synthesis) is the category's: the features of ``CATEGORY_FEATURES``,
each with its sign from ``FEATURE_SIGNS``.  Kernels are mined from a
training corpus in three motif categories, embedded from their parent graphs
by :func:`priosynth.embedding.motif_matrix` without a subgraph per motif,
and deduplicated by greedy leader clustering per category.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .dsl import PriorityExpr, make_expr
from .embedding import (
    Normalizer,
    apply_normalizer,
    build_vocab,
    cosine_rows,
    embed,
    fit_normalizer,
    is_number,
    motif_matrix,
    number_list,
    reject_unknown_keys,
    row_norms,
    top_m,
)
from .graph import Dag, NodeRecord, canonical_json

LIBRARY_LAYOUT = "v3"

# The sign each template feature takes: pull work that unlocks depth and
# parallelism forward, push slack and shallow level back.  The fallback
# search picks the magnitudes.
FEATURE_SIGNS: dict[str, float] = {
    "crit": 1.0,
    "fanout": 1.0,
    "level": -1.0,
    "reconv": 1.0,
    "slack": -1.0,
}

# Kernel category -> the features of its template.  ``whole_graph`` is the
# no_motif ablation's one kernel per training graph.
CATEGORY_FEATURES: dict[str, tuple[str, ...]] = {
    "hub": ("crit", "fanout"),
    "reconvergent": ("crit", "fanout", "reconv"),
    "chain": ("crit", "slack"),
    "whole_graph": ("crit", "fanout"),
}


def template_expr(category: str) -> PriorityExpr:
    """The category's template: its features, each at magnitude 1 with its sign."""
    if category not in CATEGORY_FEATURES:
        raise ValueError(f"unknown kernel category {category!r}")
    return make_expr({feature: FEATURE_SIGNS[feature] for feature in CATEGORY_FEATURES[category]})


@dataclass(frozen=True)
class LibraryParams:
    """The parameters of a library build (see :func:`mine_motifs` and
    :func:`cluster_motifs`), checked when constructed: ``k``, ``budget`` and
    ``chain_min_len`` must be of type ``int`` and ``theta`` a finite int or
    float, without coercion, as the run-config reader checks them; ``theta``
    is stored as a ``float``, the value that reader widens an int to."""

    k: int = 2
    theta: float = 0.95
    budget: int = 50
    chain_min_len: int = 4

    def __post_init__(self):
        for name in ("k", "budget", "chain_min_len"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be of type int, got {json.dumps(value, default=repr)}")
        if not is_number(self.theta):
            if type(self.theta) is float:
                raise ValueError(f"theta must be finite, got {self.theta!r}")
            raise ValueError(f"theta must be of type float, got {json.dumps(self.theta, default=repr)}")
        if self.k < 0:
            raise ValueError(f"k must be nonnegative, got {self.k!r}")
        if self.budget < 0:
            raise ValueError(f"budget must be nonnegative, got {self.budget!r}")
        if self.chain_min_len < 1:
            raise ValueError(f"chain_min_len must be positive, got {self.chain_min_len!r}")
        object.__setattr__(self, "theta", float(self.theta))


@dataclass(frozen=True)
class Motif:
    """A node subset of one graph, tagged with its mining category."""

    category: str
    anchor: int
    nodes: tuple[int, ...]


@dataclass(frozen=True)
class Kernel:
    id: str
    category: str
    signature: tuple[float, ...]
    support: int


def induced_subdag(dag: Dag, nodes: Iterable[int]) -> Dag:
    """Induced subgraph with ids remapped to dense 0..m-1 in ascending
    original-id order; capacities restricted to the op types present.

    The library build does not call it: a motif's row from
    :func:`~priosynth.embedding.motif_matrix` equals the embedding of this
    subgraph.  It stays public as the reference the tests check those rows
    against, and the benchmark's tracer wraps it by name."""
    chosen = sorted(set(nodes))
    remap = {v: i for i, v in enumerate(chosen)}
    records = [
        NodeRecord(id=i, op_type=dag.nodes[v].op_type, duration=dag.nodes[v].duration)
        for i, v in enumerate(chosen)
    ]
    # The remap keeps the order, so each list stays ascending.
    succs = [[remap[v] for v in dag.succs[u] if v in remap] for u in chosen]
    used = {rec.op_type for rec in records}
    caps = {t: dag.capacities[t] for t in used}
    return Dag._from_succs(records, succs, caps)


def _bounded_bfs(adjacency: Sequence[Sequence[int]], source: int, depth: int) -> dict[int, int]:
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


def _top_decile(degrees: Sequence[int], n: int) -> list[int]:
    # Highest-degree ceil(n/10) nodes, ties broken by ascending id.
    count = -(-n // 10)
    ranked = sorted(range(n), key=lambda v: (-degrees[v], v))
    return ranked[:count]


def mine_motifs(
    dag: Dag,
    k: int = LibraryParams.k,
    chain_min_len: int = LibraryParams.chain_min_len,
) -> list[Motif]:
    """All motifs of one graph, in a deterministic order.

    - ``hub``: anchor with direct neighbors, for top-decile fanout and fanin
      anchors;
    - ``reconvergent``: for anchors with reconverging child pairs, the union
      of child-to-witness paths of at most ``k`` edges (connector nodes
      included so the motif stays connected);
    - ``chain``: maximal linear runs (fanin and fanout at most 1) of at least
      ``chain_min_len`` nodes.

    Motifs with fewer than two nodes are dropped; duplicates within one
    category are kept once.
    """
    n = len(dag)
    stats = dag.stats()
    motifs: list[Motif] = []
    seen: set[tuple[str, tuple[int, ...]]] = set()

    def push(category: str, anchor: int, nodes: Iterable[int]) -> None:
        subset = tuple(sorted(set(nodes)))
        if len(subset) < 2:
            return
        key = (category, subset)
        if key in seen:
            return
        seen.add(key)
        motifs.append(Motif(category=category, anchor=anchor, nodes=subset))

    hub_anchors = sorted(set(_top_decile(stats.fanout, n)) | set(_top_decile(stats.fanin, n)))
    for v in hub_anchors:
        push("hub", v, {v, *dag.preds[v], *dag.succs[v]})

    for v in range(n):
        if stats.reconv[v] == 0:
            continue
        children = dag.succs[v]
        reach_from_child = {c: _bounded_bfs(dag.succs, c, k) for c in children}
        witness_count: dict[int, int] = {}
        for c in children:
            for x in reach_from_child[c]:
                witness_count[x] = witness_count.get(x, 0) + 1
        witnesses = {x for x, count in witness_count.items() if count >= 2}
        region = {v, *children}
        if witnesses:
            for c in children:
                for y, dist_cy in reach_from_child[c].items():
                    onward = _bounded_bfs(dag.succs, y, k - dist_cy)
                    if witnesses & set(onward):
                        region.add(y)
        push("reconvergent", v, region)

    eligible = [v for v in range(n) if stats.fanin[v] <= 1 and stats.fanout[v] <= 1]
    eligible_set = set(eligible)
    for v in eligible:
        preds = dag.preds[v]
        if preds and preds[0] in eligible_set:
            continue
        run = [v]
        while True:
            succs = dag.succs[run[-1]]
            if len(succs) == 1 and succs[0] in eligible_set:
                run.append(succs[0])
            else:
                break
        if len(run) >= chain_min_len:
            push("chain", run[0], run)

    return motifs


class _Centroids:
    """One category's cluster centroids, as the leading rows of a matrix that
    doubles when full, with the rows' norms cached for :func:`cosine_rows`."""

    def __init__(self, dim: int):
        self.rows = np.empty((8, dim))
        self.norms = np.empty(8)
        self.clusters: list[int] = []  # creation order of the cluster in each row

    def add(self, vec: np.ndarray, cluster: int) -> None:
        count = len(self.clusters)
        if count == len(self.rows):
            self.rows = np.concatenate([self.rows, np.empty_like(self.rows)])
            self.norms = np.concatenate([self.norms, np.empty_like(self.norms)])
        self.rows[count] = vec
        self.clusters.append(cluster)
        self.renorm(count)

    def renorm(self, row: int) -> None:
        self.norms[row] = row_norms(self.rows[row : row + 1])[0]


def cluster_motifs(
    entries: Sequence[tuple[Motif, np.ndarray]],
    theta: float = LibraryParams.theta,
    budget: int = LibraryParams.budget,
) -> list[tuple[Motif, np.ndarray, int, int]]:
    """Greedy leader clustering per category at cosine threshold ``theta``.

    A motif joins the most similar centroid of its category (the earliest
    on ties) if that similarity reaches ``theta``, and leads a new cluster
    otherwise.  Returns one row per surviving cluster: (leader motif,
    centroid, support, creation order).  Clusters beyond ``budget`` are
    dropped lowest-support first (creation order breaks ties).
    """
    categories: dict[str, _Centroids] = {}
    leaders: list[Motif] = []
    supports: list[int] = []
    places: list[tuple[_Centroids, int]] = []  # each cluster's category matrix and row
    for motif, vec in entries:
        group = categories.get(motif.category)
        if group is None:
            group = categories[motif.category] = _Centroids(len(vec))
        count = len(group.clusters)
        if count:
            sims = cosine_rows(group.rows[:count], group.norms[:count], vec)
            best = int(np.argmax(sims))
            if sims[best] >= theta:
                cluster = group.clusters[best]
                centroid = group.rows[best]
                # Running mean keeps the centroid independent of later members.
                centroid += (vec - centroid) / (supports[cluster] + 1)
                group.renorm(best)
                supports[cluster] += 1
                continue
        places.append((group, count))
        group.add(vec, len(leaders))
        leaders.append(motif)
        supports.append(1)
    ranked = sorted(range(len(leaders)), key=lambda i: (-supports[i], i))
    rows = []
    for i in sorted(ranked[:budget]):
        group, row = places[i]
        rows.append((leaders[i], group.rows[row].copy(), supports[i], i))
    return rows


def build_kernel_library(
    train: Sequence[Dag],
    vocab: Sequence[str] | None = None,
    k: int = LibraryParams.k,
    theta: float = LibraryParams.theta,
    budget: int = LibraryParams.budget,
    chain_min_len: int = LibraryParams.chain_min_len,
) -> tuple[list[Kernel], Normalizer]:
    """Mine, embed, cluster, and budget kernels from a training corpus.

    The four parameters are checked as a :class:`LibraryParams` first.  The
    normalizer is fitted on whole-graph embeddings of the corpus and records
    ``vocab`` (by default the corpus's), which retrieval embeds query graphs
    with, so motif signatures and query vectors live in one z-space.  Every
    motif is embedded from its graph by one :func:`motif_matrix` call and
    normalized with the others in one pass; no subgraph is built.
    """
    params = LibraryParams(k=k, theta=theta, budget=budget, chain_min_len=chain_min_len)
    if not train:
        raise ValueError("cannot build a kernel library from zero graphs")
    if vocab is None:
        vocab = build_vocab(train)
    normalizer = fit_normalizer([embed(dag, vocab) for dag in train], vocab=vocab)

    mined = [mine_motifs(dag, k=params.k, chain_min_len=params.chain_min_len) for dag in train]
    rows = motif_matrix([(dag, [motif.nodes for motif in motifs]) for dag, motifs in zip(train, mined)], vocab)
    entries = list(zip([motif for motifs in mined for motif in motifs], apply_normalizer(normalizer, rows)))

    kernels: list[Kernel] = []
    counters: dict[str, int] = {}
    for motif, centroid, support, _ in cluster_motifs(entries, theta=params.theta, budget=params.budget):
        seq = counters.get(motif.category, 0)
        counters[motif.category] = seq + 1
        kernels.append(
            Kernel(
                id=f"{motif.category}-{seq:03d}",
                category=motif.category,
                signature=tuple(float(x) for x in centroid),
                support=support,
            )
        )
    kernels.sort(key=lambda kern: kern.id)
    return kernels, normalizer


def library_to_document(kernels: Sequence[Kernel]) -> dict:
    return {
        "layout": LIBRARY_LAYOUT,
        "kernels": [
            {
                "id": kern.id,
                "category": kern.category,
                "signature": list(kern.signature),
                "support": kern.support,
            }
            for kern in sorted(kernels, key=lambda kern: kern.id)
        ],
    }


def dump_library(kernels: Sequence[Kernel]) -> str:
    return canonical_json(library_to_document(kernels))


def load_library(document) -> list[Kernel]:
    if isinstance(document, str):
        document = json.loads(document)
    if not isinstance(document, dict):
        raise ValueError("kernel library must be a JSON object")
    # The kind of file is checked before its layout, so a normalizer passed
    # as a library is named as such.
    if "kernels" not in document:
        raise ValueError("kernel library has no 'kernels' array")
    if document.get("layout") != LIBRARY_LAYOUT:
        raise ValueError(f"unsupported kernel library layout {document.get('layout')!r}")
    reject_unknown_keys(document, ("layout", "kernels"), "kernel library")
    entries = document["kernels"]
    if not isinstance(entries, list):
        raise ValueError("kernel library 'kernels' must be an array")
    kernels = [_kernel_from_document(entry, index) for index, entry in enumerate(entries)]
    # Retrieval maps ids back to kernels and stacks signatures as matrix rows,
    # so ids must be unique and signatures of one length.
    first: dict[str, int] = {}
    for index, kern in enumerate(kernels):
        where = f"kernel library entry {index} ({kern.id})"
        if kern.id in first:
            raise ValueError(f"{where}: id {kern.id!r} repeats entry {first[kern.id]}")
        first[kern.id] = index
        if len(kern.signature) != len(kernels[0].signature):
            raise ValueError(
                f"{where}: 'signature' has {len(kern.signature)} entries but entry 0 has {len(kernels[0].signature)}"
            )
    kernels.sort(key=lambda kern: kern.id)
    return kernels


def _kernel_from_document(entry, index: int) -> Kernel:
    """One entry of a library's ``kernels`` array, type-checked without
    coercion; a ValueError names the entry and the field."""
    where = f"kernel library entry {index}"
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be an object")
    reject_unknown_keys(entry, ("id", "category", "signature", "support"), where)
    for name in ("id", "category"):
        if not isinstance(entry.get(name), str):
            raise ValueError(f"{where}: '{name}' must be a string")
    where = f"kernel library entry {index} ({entry['id']})"
    if entry["category"] not in CATEGORY_FEATURES:
        raise ValueError(f"{where}: 'category' must be one of {sorted(CATEGORY_FEATURES)}")
    signature = number_list(entry.get("signature"), f"{where}: 'signature'")
    support = entry.get("support")
    if not isinstance(support, int) or isinstance(support, bool):
        raise ValueError(f"{where}: 'support' must be an integer")
    # A support counts the motifs of a cluster, so a built kernel has one.
    if support < 1:
        raise ValueError(f"{where}: 'support' must be at least 1, got {support}")
    return Kernel(id=entry["id"], category=entry["category"], signature=signature, support=support)


# Dag -> its embedding in one normalizer's z-space, keyed on the graph object
# like loop.ScheduleMemo, so a run embeds each query graph once.
QueryVectors = dict[Dag, np.ndarray]


def query_vector(dag: Dag, normalizer: Normalizer, vectors: QueryVectors) -> np.ndarray:
    """``dag``'s embedding under the normalizer's vocabulary, normalized,
    computed on first use and then read from ``vectors``; the vector is
    read-only because callers share it."""
    vec = vectors.get(dag)
    if vec is None:
        vec = vectors[dag] = apply_normalizer(normalizer, embed(dag, normalizer.vocab))
        vec.flags.writeable = False
    return vec


class KernelIndex(Sequence):
    """A library as a sequence of kernels that also keeps their signatures
    stacked as matrix rows with cached norms, so one query is scored against
    every kernel in one :func:`cosine_rows` pass."""

    def __init__(self, kernels: Sequence[Kernel]):
        self._kernels = tuple(kernels)
        self._ids = [kern.id for kern in self._kernels]
        self._by_id = {kern.id: kern for kern in self._kernels}
        self._matrix = np.array([kern.signature for kern in self._kernels], dtype=float)
        self._norms = row_norms(self._matrix) if self._kernels else np.zeros(0)

    def __getitem__(self, index):
        return self._kernels[index]

    def __len__(self) -> int:
        return len(self._kernels)

    def retrieve(self, query: np.ndarray, m: int) -> list[tuple[Kernel, float]]:
        sims = cosine_rows(self._matrix, self._norms, query) if self._kernels else np.zeros(0)
        return [(self._by_id[kern_id], sim) for kern_id, sim in top_m(self._ids, sims, m)]


def retrieve_kernels(
    dag: Dag,
    kernels: Sequence[Kernel],
    normalizer: Normalizer,
    m: int,
    vectors: QueryVectors | None = None,
) -> list[tuple[Kernel, float]]:
    """Top-m kernels for one query graph: cosine similarity in z-space,
    descending, kernel id ascending on ties.  Callers that query many graphs
    pass a :class:`KernelIndex` built once and a ``vectors`` dict that lives
    for the run."""
    if not isinstance(kernels, KernelIndex):
        kernels = KernelIndex(kernels)
    return kernels.retrieve(query_vector(dag, normalizer, {} if vectors is None else vectors), m)
