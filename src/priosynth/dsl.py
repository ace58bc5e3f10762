"""Linear priority expressions over a closed feature vocabulary.

An expression is a signed linear combination of per-node structural features,
written as e.g. ``2*crit + 0.5*fanout - 1*level``.  Parsing, canonical
printing, and evaluation round-trip exactly: ``parse(print(e)) == e`` for any
canonical ``e``, and printing is injective on canonical forms.

This module owns the evaluation arithmetic.  :func:`feature_column` builds a
feature's float64 column over one graph or a sequence of graphs, and
:func:`priorities` sums the terms over those columns.  :func:`eval_expr` is
that sum over one graph; the synthesis loop runs the same sum once over a
stack of graphs, so each graph's slice equals its ``eval_expr`` list bit for
bit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import Dag, StatsTable

# Alphabetical; "const" contributes its coefficient unscaled.
FEATURES: tuple[str, ...] = (
    "const",
    "crit",
    "duration",
    "fanin",
    "fanout",
    "level",
    "pressure",
    "reconv",
    "slack",
)

_FEATURE_SET = frozenset(FEATURES)

# An expression's terms: (weight, feature) pairs.
Terms = tuple[tuple[float, str], ...]


class ExprError(ValueError):
    """Raised for unparseable text, unknown features, or non-finite weights."""


@dataclass(frozen=True)
class PriorityExpr:
    """Canonical linear expression: terms sorted by feature name, no zero
    coefficients, no duplicate features.  The all-zero expression is kept as
    the single term ``0*const`` so every expression has at least one term."""

    terms: Terms

    def __str__(self) -> str:
        return print_expr(self)


def make_expr(weights: Mapping[str, float]) -> PriorityExpr:
    """Canonicalize a feature->weight mapping into a :class:`PriorityExpr`."""
    terms: list[tuple[float, str]] = []
    for name in sorted(weights):
        if name not in _FEATURE_SET:
            raise ExprError(f"unknown feature {name!r}")
        w = float(weights[name])
        if w != w or w in (float("inf"), float("-inf")):
            raise ExprError(f"non-finite weight for {name!r}")
        if w != 0.0:
            terms.append((w, name))
    if not terms:
        return PriorityExpr(terms=((0.0, "const"),))
    return PriorityExpr(terms=tuple(terms))


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExprError(f"unexpected character {rest[0]!r} at position {pos}")
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    return tokens


def parse_expr(text: str) -> PriorityExpr:
    """Parse ``term ((+|-) term)*`` where a term is ``number '*' feature``,
    a bare feature (weight 1), or a bare number (a const contribution).
    Only the first term may carry its own leading sign."""
    stripped = text.strip()
    if not stripped or stripped.startswith("#"):
        raise ExprError("empty expression")
    tokens = _tokenize(stripped)
    if not tokens:
        raise ExprError("empty expression")

    weights: dict[str, float] = {}
    i = 0

    def read_term(sign: float) -> None:
        nonlocal i
        kind, value = tokens[i]
        if kind == "num":
            number = float(value)
            if i + 1 < len(tokens) and tokens[i + 1] == ("op", "*"):
                if i + 2 >= len(tokens) or tokens[i + 2][0] != "ident":
                    raise ExprError("expected feature name after '*'")
                name = tokens[i + 2][1]
                i += 3
            else:
                name = "const"
                i += 1
        elif kind == "ident":
            number = 1.0
            name = value
            i += 1
        else:
            raise ExprError(f"unexpected token {value!r}")
        if name not in _FEATURE_SET:
            raise ExprError(f"unknown feature {name!r}")
        weights[name] = weights.get(name, 0.0) + sign * number

    sign = 1.0
    if tokens[0][0] == "op" and tokens[0][1] in "+-":
        sign = -1.0 if tokens[0][1] == "-" else 1.0
        i = 1
        if i >= len(tokens):
            raise ExprError("dangling sign")
    read_term(sign)
    while i < len(tokens):
        kind, value = tokens[i]
        if kind != "op" or value not in "+-":
            raise ExprError(f"expected '+' or '-' between terms, got {value!r}")
        i += 1
        if i >= len(tokens):
            raise ExprError("dangling operator")
        read_term(-1.0 if value == "-" else 1.0)

    return make_expr(weights)


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def print_expr(expr: PriorityExpr) -> str:
    """Canonical text: ``w*feature`` terms joined by `` + `` / `` - `` with
    positive magnitudes, first term carrying a bare ``-`` when negative."""
    parts: list[str] = []
    for index, (weight, name) in enumerate(expr.terms):
        magnitude = _format_number(abs(weight))
        body = f"{magnitude}*{name}"
        if index == 0:
            parts.append(body if weight >= 0 else f"-{body}")
        else:
            parts.append(f"{' + ' if weight >= 0 else ' - '}{body}")
    return "".join(parts)


def feature_column(name: str, dags: Sequence[Dag]) -> np.ndarray:
    """The float64 column of feature ``name`` over the nodes of ``dags``: the
    graphs in sequence order, each graph's nodes in id order.  Each node
    takes its :class:`~priosynth.graph.StatsTable` value; ``pressure``, which
    the table keeps per op type, is spread to each node from its own type.
    ``const`` has no column.  One graph, as :func:`eval_expr` passes, is
    read without chaining."""
    if len(dags) == 1:
        (dag,) = dags
        return np.fromiter(_node_values(dag.stats(), name), float, len(dag))
    values = chain.from_iterable(_node_values(dag.stats(), name) for dag in dags)
    return np.fromiter(values, float, sum(map(len, dags)))


def _node_values(table: StatsTable, name: str) -> Iterable[int | float]:
    """Feature ``name`` of each node of one graph, in id order."""
    if name == "pressure":
        # ``pressure`` is keyed in capacity order, which ``op_index`` counts in.
        return map(list(table.pressure.values()).__getitem__, table.op_index)
    return getattr(table, name)


def priorities(terms: Terms, columns: Mapping[str, np.ndarray], size: int) -> np.ndarray:
    """Every node's priority under the expression ``terms``, given the
    :func:`feature_column` of each feature the terms name.  The sum starts
    from zeros and adds ``weight * column`` term by term in expression order
    (``const`` adds its weight alone), so a product or a sum that overflows
    gives an infinity, and opposite infinities meet as a NaN, without a
    warning."""
    p = np.zeros(size)
    with np.errstate(over="ignore", invalid="ignore"):
        for weight, name in terms:
            p = p + weight if name == "const" else p + weight * columns[name]
    return p


def eval_expr(expr: PriorityExpr, dag: Dag) -> list[float]:
    """Evaluate the expression for every node of ``dag``; the result is
    indexed by node id.  Builds only the columns the terms name."""
    columns = {name: feature_column(name, (dag,)) for _, name in expr.terms if name != "const"}
    return priorities(expr.terms, columns, len(dag)).tolist()


def load_heuristic_text(text: str) -> PriorityExpr:
    """Read a heuristic file: comment lines start with ``#``; the first
    non-comment non-blank line must hold exactly one expression."""
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        return parse_expr(stripped)
    raise ExprError("no expression found")


def load_heuristic_file(path) -> PriorityExpr:
    from pathlib import Path

    return load_heuristic_text(Path(path).read_text(encoding="utf-8"))


def dump_heuristic(expr: PriorityExpr, comment: str | None = None) -> str:
    lines = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"# {row}" if row else "#")
    lines.append(print_expr(expr))
    return "\n".join(lines) + "\n"
