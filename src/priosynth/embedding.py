"""Deterministic graph embeddings, z-score normalization, and retrieval.

Layout ``v1`` concatenates, in order:

1. critical-path summary (3): cp length over node count, mean and population
   std of per-node ``crit / cp``;
2. fanout histogram (8): fraction of nodes with fanout 0, 1, 2, 3, 4-5, 6-8,
   9-16, 17+;
3. level histogram (8): fraction of nodes per eighth of normalized level;
4. type histogram (len(vocab)): fraction of nodes per op type;
5. pressure (len(vocab)): per-type work over capacity times cp length.

The vocabulary is a sorted tuple of op types shared by every graph in a
corpus so that all vectors have identical dimension ``19 + 2 * len(vocab)``.

:func:`embed` gives the vectors of whole graphs from their stats tables, one
row per graph, and :func:`motif_matrix` the vectors of node subsets of
graphs, each equal to the vector of the induced subgraph, without building
one.  Both group their rows by node count and fill each group through one
builder, so the layout has one implementation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from heapq import nsmallest
from typing import Iterable, Sequence

import numpy as np

from .graph import Dag, canonical_json, number_list, reject_unknown_keys

LAYOUT = "v1"

# Upper fanout of each histogram bin but the last: bin ``i`` is the first
# whose edge is at least the fanout, so ``np.searchsorted`` finds it.
_FANOUT_EDGES = np.array((0, 1, 2, 3, 5, 8, 16))


def embedding_dim(vocab: Sequence[str]) -> int:
    return 19 + 2 * len(vocab)


def build_vocab(dags: Iterable[Dag]) -> tuple[str, ...]:
    """Union of op types across a corpus, sorted for a stable layout."""
    types: set[str] = set()
    for dag in dags:
        types.update(dag.capacities)
    return tuple(sorted(types))


def _missing_type(op: str) -> ValueError:
    return ValueError(f"op type {op!r} is not in the embedding vocabulary")


def _fractions(n: int) -> np.ndarray:
    """``k`` times ``1.0 / n`` added up from 0.0, for ``k`` in ``0..n``: the
    histogram value of a bin that holds ``k`` of ``n`` nodes.  Every increment
    is the same float, so a bin's bits depend only on ``(n, k)``; ``k / n``
    would round differently."""
    step = 1.0 / n
    values = [0.0]
    for _ in range(n):
        values.append(values[-1] + step)
    return np.array(values)


def _bin_counts(bins: np.ndarray, width: int, weights: np.ndarray | None = None) -> np.ndarray:
    """Per row of a ``(rows, n)`` array of bin indices in ``0..width-1``, how
    many fall in each bin, or the sum of their ``weights``."""
    rows = len(bins)
    keys = bins + width * np.arange(rows)[:, None]
    return np.bincount(keys.ravel(), None if weights is None else weights.ravel(), width * rows).reshape(rows, width)


def _layout_rows(level, crit, fanout, slot, duration, capacity) -> np.ndarray:
    """Layout-``v1`` rows of graphs that have ``n >= 1`` nodes each.

    This is the one implementation of the layout.  ``level``, ``crit``,
    ``fanout``, ``slot`` (each node's op type as a vocabulary position) and
    ``duration`` are ``(rows, n)`` int arrays, one row per graph in node-id
    order; ``capacity`` is ``(rows, len(vocab))``, any positive value for a
    type the graph does not have.  Each float has the bits that per-node
    loops over one graph give: the crit ratios' sums are numpy's reductions
    along a row, which sum a row as they sum a vector, and each histogram
    bin comes from :func:`_fractions`."""
    rows, n = level.shape
    types = capacity.shape[1]
    fractions = _fractions(n)
    out = np.empty((rows, 19 + 2 * types))
    cp = (level + crit).max(axis=1)
    out[:, 0] = cp / n
    ratios = crit / cp[:, None]
    # ``np.mean`` and ``np.std`` (ddof 0) spelled out: the same reductions
    # and divisions in the same order, without their per-call overhead.
    mean = ratios.sum(axis=1) / n
    deviation = ratios - mean[:, None]
    out[:, 1] = mean
    out[:, 2] = np.sqrt((deviation * deviation).sum(axis=1) / n)
    # The fanout, level and type histograms are adjacent: one count fills them.
    level_bins = np.minimum(7, (8 * level / cp[:, None]).astype(np.int64))
    bins = np.concatenate((np.searchsorted(_FANOUT_EDGES, fanout), 8 + level_bins, 16 + slot), axis=1)
    out[:, 3 : 19 + types] = fractions[_bin_counts(bins, 16 + types)]
    # Per-type work sums integers, which float64 holds exactly.
    out[:, 19 + types :] = _bin_counts(slot, types, duration) / (capacity * cp[:, None])
    return out


def _rows_by_size(rows: Sequence[tuple[Sequence[Sequence[int]], Sequence[int]]], vocab: Sequence[str]) -> np.ndarray:
    """One layout-``v1`` row per ``(columns, capacity)`` pair, in order:
    ``columns`` are one graph's five node columns for :func:`_layout_rows`
    and ``capacity`` its capacity row.  Graphs of one node count share one
    :func:`_layout_rows` call; a graph with no nodes gets a row of zeros."""
    groups: dict[int, list[int]] = {}
    for place, (columns, _) in enumerate(rows):
        groups.setdefault(len(columns[0]), []).append(place)
    matrix = np.zeros((len(rows), embedding_dim(vocab)))
    for size, places in groups.items():
        if size:
            columns = np.array([rows[place][0] for place in places]).transpose(1, 0, 2)
            matrix[places] = _layout_rows(*columns, np.array([rows[place][1] for place in places]))
    return matrix


def embed(dags: Iterable[Dag], vocab: Sequence[str]) -> np.ndarray:
    """The layout-``v1`` rows of ``dags``, one per graph, in order.  Every
    capacity type of every graph, used by a node or not, must be in
    ``vocab``."""
    type_index = {op: i for i, op in enumerate(vocab)}
    rows = []
    for dag in dags:
        for op in dag.capacities:
            if op not in type_index:
                raise _missing_type(op)
        stats = dag.stats()
        slots = [type_index[op] for op in dag.capacities]
        columns = (stats.level, stats.crit, stats.fanout, [slots[i] for i in stats.op_index], stats.duration)
        rows.append((columns, [dag.capacities.get(op, 1) for op in vocab]))
    return _rows_by_size(rows, vocab)


def motif_matrix(graphs: Iterable[tuple[Dag, Iterable[Iterable[int]]]], vocab: Sequence[str]) -> np.ndarray:
    """One layout-``v1`` row per node set, in order, for ``(graph, node
    sets)`` pairs: the row of each set is bit for bit
    ``embed([kernels.induced_subdag(graph, nodes)], vocab)[0]``, computed
    from the graph's own columns without building the subgraph.

    Levels and crit run over the set's induced edges in the graph's
    topological order restricted to the set; they are integers, so they
    match the subgraph's own.  Only the op types the set uses must be in
    ``vocab``, and only their pressure slots are filled, each with the
    graph's capacity.  Sets of one size share one :func:`_layout_rows`
    call, as graphs do in :func:`embed`."""
    type_index = {op: i for i, op in enumerate(vocab)}
    rows = []
    for dag, node_sets in graphs:
        stats = dag.stats()
        preds, succs, duration = dag.preds, dag.succs, stats.duration
        slots = [type_index.get(op) for op in dag.capacities]
        node_slot = [slots[i] for i in stats.op_index]
        capacity = [dag.capacities.get(op, 1) for op in vocab]
        position = None
        if dag.topo_order != tuple(range(len(dag))):
            position = {v: i for i, v in enumerate(dag.topo_order)}.__getitem__
        # Per-node scratch indexed by the graph's ids: a set writes each of
        # its nodes, in topological order, before it reads it.
        level = [0] * len(dag)
        crit = [0] * len(dag)
        fanout = [0] * len(dag)
        for nodes in node_sets:
            chosen = sorted(set(nodes))
            slot = [node_slot[v] for v in chosen]
            if None in slot:
                raise _missing_type(min(dag.nodes[v].op_type for v in chosen if node_slot[v] is None))
            inside = set(chosen)
            order = chosen if position is None else sorted(chosen, key=position)
            for v in order:
                start = 0
                for u in preds[v]:
                    if u in inside and level[u] + duration[u] > start:
                        start = level[u] + duration[u]
                level[v] = start
            for v in reversed(order):
                tail = out = 0
                for w in succs[v]:
                    if w in inside:
                        out += 1
                        if crit[w] > tail:
                            tail = crit[w]
                crit[v] = tail + duration[v]
                fanout[v] = out
            columns = (
                [level[v] for v in chosen],
                [crit[v] for v in chosen],
                [fanout[v] for v in chosen],
                slot,
                [duration[v] for v in chosen],
            )
            rows.append((columns, capacity))
    return _rows_by_size(rows, vocab)


@dataclass(frozen=True)
class Normalizer:
    """Per-dimension z-score parameters fitted on a corpus.

    ``vocab`` records the op-type vocabulary the vectors were embedded with,
    which retrieval embeds query graphs with too."""

    mean: tuple[float, ...]
    std: tuple[float, ...]
    vocab: tuple[str, ...]


def fit_normalizer(rows: np.ndarray, vocab: Sequence[str]) -> Normalizer:
    """Sample statistics (ddof=1) of the rows of a matrix, such as
    :func:`embed` gives under ``vocab``; a single row or a constant dimension
    yields std 0, which :func:`apply_normalizer` treats as center-only."""
    matrix = np.asarray(rows)
    if not len(matrix):
        raise ValueError("cannot fit a normalizer on zero vectors")
    mean = matrix.mean(axis=0)
    if matrix.shape[0] > 1:
        std = matrix.std(axis=0, ddof=1)
    else:
        std = np.zeros(matrix.shape[1])
    return Normalizer(
        mean=tuple(float(x) for x in mean),
        std=tuple(float(x) for x in std),
        vocab=tuple(vocab),
    )


def apply_normalizer(normalizer: Normalizer, vector: np.ndarray) -> np.ndarray:
    """``vector`` in z-space: one vector, or a matrix whose rows are vectors
    and are normalized in one pass."""
    mean = np.asarray(normalizer.mean)
    std = np.asarray(normalizer.std)
    if vector.shape[-1:] != mean.shape:
        raise ValueError(f"vector dim {vector.shape[-1:]} does not match normalizer dim {mean.shape}")
    centered = vector - mean
    scale = np.where(std > 0, std, 1.0)
    return centered / scale


def normalizer_to_document(normalizer: Normalizer) -> dict:
    return {
        "mean": list(normalizer.mean),
        "std": list(normalizer.std),
        "layout": LAYOUT,
        "vocab": list(normalizer.vocab),
    }


def dump_normalizer(normalizer: Normalizer) -> str:
    return canonical_json(normalizer_to_document(normalizer))


def load_normalizer(document) -> Normalizer:
    if isinstance(document, str):
        document = json.loads(document)
    if not isinstance(document, dict):
        raise ValueError("normalizer must be a JSON object")
    if "mean" not in document or "std" not in document:
        raise ValueError("normalizer has no 'mean' or no 'std' array")
    if document.get("layout") != LAYOUT:
        raise ValueError(f"unsupported normalizer layout {document.get('layout')!r}")
    reject_unknown_keys(document, ("layout", "mean", "std", "vocab"), "normalizer")
    mean = number_list(document["mean"], "normalizer 'mean'")
    std = number_list(document["std"], "normalizer 'std'")
    if len(mean) != len(std):
        raise ValueError(f"normalizer 'mean' has {len(mean)} entries but 'std' has {len(std)}")
    for index, value in enumerate(std):
        if value < 0:
            raise ValueError(f"normalizer 'std' entry {index} is negative ({value!r})")
    if "vocab" not in document:
        raise ValueError("normalizer has no 'vocab' array")
    vocab = document["vocab"]
    if not isinstance(vocab, list) or not all(isinstance(op, str) for op in vocab):
        raise ValueError("normalizer 'vocab' must be a list of strings")
    if len(set(vocab)) < len(vocab):
        raise ValueError(f"normalizer 'vocab' repeats an op type: {vocab}")
    if vocab != sorted(vocab):
        raise ValueError(f"normalizer 'vocab' is not in sorted order: {vocab}")
    if len(mean) != embedding_dim(vocab):
        raise ValueError(
            f"normalizer 'vocab' of {len(vocab)} op types needs {embedding_dim(vocab)} 'mean' and 'std' "
            f"entries but the normalizer has {len(mean)}"
        )
    return Normalizer(mean=mean, std=std, vocab=tuple(vocab))


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a 2-D array, reduced the same way as
    the dot products of :func:`cosine_rows`."""
    return np.sqrt((matrix * matrix).sum(axis=1))


def cosine_rows(matrix: np.ndarray, norms: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Cosine similarity of ``vector`` to every row of ``matrix``, given the
    rows' cached :func:`row_norms`; a zero vector or a zero row scores 0.

    This is the one similarity kernel of the package.  Each dot product is
    an elementwise product summed along its row by numpy's fixed-order sum,
    never ``np.dot`` or ``@``, whose BLAS kernels may round differently from
    one CPU to another; a row therefore scores the same bits alone or among
    others."""
    vector_norm = row_norms(vector[None, :])[0]
    dots = (matrix * vector).sum(axis=1)
    sims = np.zeros(len(norms))
    if vector_norm != 0.0:
        np.divide(dots, norms * vector_norm, out=sims, where=norms != 0.0)
    return sims


def cosine_sim(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors: :func:`cosine_rows` with ``a`` as
    the only row."""
    row = np.asarray(a, dtype=float)[None, :]
    return float(cosine_rows(row, row_norms(row), b)[0])


def top_m(ids: Sequence[str], sims: np.ndarray, m: int) -> list[tuple[str, float]]:
    """The ``m`` best of ``ids`` scored by ``sims`` (from :func:`cosine_rows`):
    similarity descending, id ascending on exact ties."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return nsmallest(m, zip(ids, sims.tolist()), key=lambda pair: (-pair[1], pair[0]))


def retrieve_top_m(
    query: np.ndarray,
    entries: Sequence[tuple[str, np.ndarray]],
    m: int,
) -> list[tuple[str, float]]:
    """The ``m`` entries most similar to ``query``, ranked by :func:`top_m`."""
    matrix = np.array([vec for _, vec in entries], dtype=float).reshape(len(entries), len(query))
    return top_m([entry_id for entry_id, _ in entries], cosine_rows(matrix, row_norms(matrix), query), m)
