"""Structural motif mining and the clustered kernel library.

A kernel is a reusable scheduling hint: a centroid signature in embedding
space (for retrieval by similarity) for one motif category, whose template
(for synthesis) is the category's: the features of ``CATEGORY_FEATURES``,
each with its sign from ``FEATURE_SIGNS``.  Kernels are mined from a
training corpus in three motif categories, embedded from their parent graphs
by :func:`priosynth.embedding.motif_matrix` without a subgraph per motif,
and deduplicated by greedy leader clustering per category over the rows of
that one normalized matrix.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from math import isfinite

import numpy as np

from .dsl import PriorityExpr, make_expr
from .embedding import (
    Normalizer,
    apply_normalizer,
    build_vocab,
    cosine_rows,
    embed,
    fit_normalizer,
    motif_matrix,
    row_norms,
    top_m,
)
from .graph import Dag, NodeRecord, canonical_json, check_type, number_list, reject_unknown_keys

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
    :func:`cluster_motifs`), checked when constructed by :func:`check_type`:
    ``theta`` is a finite float, to which an int widens, and the rest ints."""

    k: int = 2
    theta: float = 0.95
    budget: int = 50
    chain_min_len: int = 4

    def __post_init__(self):
        for name, kind in (("k", int), ("theta", float), ("budget", int), ("chain_min_len", int)):
            object.__setattr__(self, name, check_type(name, getattr(self, name), kind))
        if not isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        if self.k < 0:
            raise ValueError(f"k must be nonnegative, got {self.k!r}")
        if self.budget < 0:
            raise ValueError(f"budget must be nonnegative, got {self.budget!r}")
        if self.chain_min_len < 1:
            raise ValueError(f"chain_min_len must be positive, got {self.chain_min_len!r}")


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


def _bounded_bfs(adjacency: Sequence[Sequence[int]], sources: Iterable[int], depth: int) -> dict[int, int]:
    """Nodes within ``depth`` edges of ``sources``, each with its distance
    from the nearest source (sources included, dist 0)."""
    dist = dict.fromkeys(sources, 0)
    queue = deque(dist)
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
      included so the motif stays connected).  A witness is a node within
      ``k`` edges of two children; one forward search per child and one
      backward search of depth ``k - 1`` from all witnesses at once give each
      node's two distances, and a node joins when they sum to at most ``k``;
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
        reaches = [_bounded_bfs(dag.succs, (c,), k) for c in children]
        witness_count = Counter(x for reach in reaches for x in reach)
        witnesses = [x for x, count in witness_count.items() if count >= 2]
        # Distance onward from each node to its nearest witness, up to k - 1:
        # a node k from every witness joins only at distance 0 from a child,
        # so it is a child, and the region holds every child already.
        to_witness = _bounded_bfs(dag.preds, witnesses, max(k - 1, 0))
        region = {v, *children}
        for reach in reaches:
            region.update(y for y, dist_cy in reach.items() if dist_cy + to_witness.get(y, k + 1) <= k)
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


def cluster_motifs(
    motifs: Sequence[Motif],
    rows: np.ndarray,
    theta: float = LibraryParams.theta,
    budget: int = LibraryParams.budget,
) -> list[tuple[Motif, np.ndarray, int, int]]:
    """Greedy leader clustering per category at cosine threshold ``theta``,
    over ``rows``, the motifs' normalized embeddings in order.

    A motif joins the most similar centroid of its category (the earliest
    on ties) if that similarity reaches ``theta``, and leads a new cluster
    otherwise.  Returns one row per surviving cluster: (leader motif,
    centroid, support, creation order).  Clusters beyond ``budget`` are
    dropped lowest-support first (creation order breaks ties).

    Each category's centroids are the leading rows of a table sized to its
    motif count, with their norms cached for :func:`cosine_rows`: a new
    cluster takes its leader's norm from one :func:`row_norms` pass over
    ``rows``, and a centroid that a motif joins is renormalized.
    """
    norms = row_norms(rows)
    # Per category: its centroid table, their norms, and each row's cluster.
    tables = {
        category: (np.empty((count, rows.shape[1])), np.empty(count), [])
        for category, count in Counter(motif.category for motif in motifs).items()
    }
    leaders: list[Motif] = []
    supports: list[int] = []
    centroid_of: list[np.ndarray] = []  # each cluster's row of its table, a view
    for index, motif in enumerate(motifs):
        centroids, centroid_norms, clusters = tables[motif.category]
        vec = rows[index]
        count = len(clusters)
        if count:
            sims = cosine_rows(centroids[:count], centroid_norms[:count], vec)
            best = int(np.argmax(sims))
            if sims[best] >= theta:
                cluster = clusters[best]
                centroid = centroids[best]
                # Running mean keeps the centroid independent of later members.
                centroid += (vec - centroid) / (supports[cluster] + 1)
                centroid_norms[best] = row_norms(centroids[best : best + 1])[0]
                supports[cluster] += 1
                continue
        centroids[count] = vec
        centroid_norms[count] = norms[index]
        clusters.append(len(leaders))
        centroid_of.append(centroids[count])
        leaders.append(motif)
        supports.append(1)
    ranked = sorted(range(len(leaders)), key=lambda i: (-supports[i], i))
    return [(leaders[i], centroid_of[i].copy(), supports[i], i) for i in sorted(ranked[:budget])]


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
    normalizer is fitted on the corpus's whole-graph rows from one
    :func:`embed` call and records ``vocab`` (by default the corpus's), which
    :func:`query_vectors` embeds query graphs with, so motif signatures and
    query vectors live in one z-space.  Every motif is embedded from its
    graph by one :func:`motif_matrix` call and normalized with the others in
    one pass; no subgraph is built.
    """
    params = LibraryParams(k=k, theta=theta, budget=budget, chain_min_len=chain_min_len)
    if not train:
        raise ValueError("cannot build a kernel library from zero graphs")
    if vocab is None:
        vocab = build_vocab(train)
    normalizer = fit_normalizer(embed(train, vocab), vocab)

    mined = [mine_motifs(dag, k=params.k, chain_min_len=params.chain_min_len) for dag in train]
    rows = motif_matrix([(dag, [motif.nodes for motif in motifs]) for dag, motifs in zip(train, mined)], vocab)
    motifs = [motif for found in mined for motif in found]

    kernels: list[Kernel] = []
    counters: dict[str, int] = {}
    clusters = cluster_motifs(motifs, apply_normalizer(normalizer, rows), theta=params.theta, budget=params.budget)
    for motif, centroid, support, _ in clusters:
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
# like loop.ScheduleMemo.
QueryVectors = dict[Dag, np.ndarray]


def query_vectors(dags: Sequence[Dag], normalizer: Normalizer) -> QueryVectors:
    """Each graph's embedding under the normalizer's vocabulary, normalized:
    one :func:`embed` call and one :func:`apply_normalizer` pass.  The rows
    are read-only because callers share them."""
    rows = apply_normalizer(normalizer, embed(dags, normalizer.vocab))
    rows.flags.writeable = False
    return dict(zip(dags, rows))


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


def retrieve_kernels(query: np.ndarray, kernels: Sequence[Kernel], m: int) -> list[tuple[Kernel, float]]:
    """Top-m kernels for one query graph's vector from :func:`query_vectors`:
    cosine similarity in z-space, descending, kernel id ascending on ties.
    Callers that query many graphs pass a :class:`KernelIndex` built once."""
    if not isinstance(kernels, KernelIndex):
        kernels = KernelIndex(kernels)
    return kernels.retrieve(query, m)
