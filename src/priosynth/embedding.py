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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import nsmallest
from typing import Iterable, Sequence

import numpy as np

from .graph import Dag, canonical_json

LAYOUT = "v1"

_FANOUT_EDGES = (0, 1, 2, 3, 5, 8, 16)


def embedding_dim(vocab: Sequence[str]) -> int:
    return 19 + 2 * len(vocab)


def build_vocab(dags: Iterable[Dag]) -> tuple[str, ...]:
    """Union of op types across a corpus, sorted for a stable layout."""
    types: set[str] = set()
    for dag in dags:
        types.update(dag.capacities)
    return tuple(sorted(types))


def _fanout_bin(fanout: int) -> int:
    for index, edge in enumerate(_FANOUT_EDGES):
        if fanout <= edge:
            return index
    return 7


def embed(dag: Dag, vocab: Sequence[str]) -> np.ndarray:
    stats = dag.stats()
    n = len(dag)
    vec = np.zeros(embedding_dim(vocab), dtype=float)
    if n == 0:
        return vec
    cp = stats.cp_length

    vec[0] = cp / n
    if cp > 0:
        ratios = np.array([stats.crit[v] / cp for v in range(n)], dtype=float)
        vec[1] = float(ratios.mean())
        vec[2] = float(ratios.std())

    for v in range(n):
        vec[3 + _fanout_bin(stats.fanout[v])] += 1.0 / n

    for v in range(n):
        if cp > 0:
            bin_index = min(7, int(8 * stats.level[v] / cp))
        else:
            bin_index = 0
        vec[11 + bin_index] += 1.0 / n

    type_index = {op: i for i, op in enumerate(vocab)}
    # Every node's type has a capacity entry, so this covers the nodes too.
    for op in dag.capacities:
        if op not in type_index:
            raise ValueError(f"op type {op!r} is not in the embedding vocabulary")
    for rec in dag.nodes:
        vec[19 + type_index[rec.op_type]] += 1.0 / n
    for op, value in stats.pressure.items():
        vec[19 + len(vocab) + type_index[op]] = value
    return vec


@dataclass(frozen=True)
class Normalizer:
    """Per-dimension z-score parameters fitted on a corpus.

    ``vocab`` optionally records the op-type vocabulary the vectors were
    embedded with, so saved artifacts are self-describing."""

    mean: tuple[float, ...]
    std: tuple[float, ...]
    vocab: tuple[str, ...] = ()


def fit_normalizer(vectors: Sequence[np.ndarray], vocab: Sequence[str] = ()) -> Normalizer:
    """Sample statistics (ddof=1); a single vector or a constant dimension
    yields std 0, which :func:`apply_normalizer` treats as center-only."""
    if not vectors:
        raise ValueError("cannot fit a normalizer on zero vectors")
    matrix = np.stack(vectors)
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
    mean = np.asarray(normalizer.mean)
    std = np.asarray(normalizer.std)
    if vector.shape != mean.shape:
        raise ValueError(f"vector dim {vector.shape} does not match normalizer dim {mean.shape}")
    centered = vector - mean
    scale = np.where(std > 0, std, 1.0)
    return centered / scale


def normalizer_to_document(normalizer: Normalizer) -> dict:
    doc = {
        "mean": list(normalizer.mean),
        "std": list(normalizer.std),
        "layout": LAYOUT,
    }
    if normalizer.vocab:
        doc["vocab"] = list(normalizer.vocab)
    return doc


def dump_normalizer(normalizer: Normalizer) -> str:
    return canonical_json(normalizer_to_document(normalizer))


def is_number(value) -> bool:
    """A finite int or float read from a document; a bool or a numeric
    string is not a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


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


def load_normalizer(document) -> Normalizer:
    import json

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
    vocab = document.get("vocab", [])
    if not isinstance(vocab, list) or not all(isinstance(op, str) for op in vocab):
        raise ValueError("normalizer 'vocab' must be a list of strings")
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
