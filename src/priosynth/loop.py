"""Iterative synthesis of priority expressions, with retrieval and ablations.

Each iteration samples a training batch, retrieves matching kernels, renders
a deterministic prompt, and obtains one candidate expression either from a
completion provider or from the built-in deterministic synthesizer.  The
candidate is scored on the validation set; feedback about its worst
regressions against the level baseline is folded into the next prompt.  The
loop returns the best-scoring candidate across iterations (earliest wins on
ties).

Each evaluation is built once, as the row ``history.json`` writes: a graph's
row holds its ``graph``, ``makespan``, ``feasible`` and ``score``, and an
iteration's record holds its ``iteration``, ``source``, ``expr``,
``mean_score``, ``evals`` rows and ``feedback``.  The loop reads its feedback,
its scores and its winner from those same dicts.

A candidate is scored by the schedule lengths it gives, never by a clock, so
a whole run is a pure function of (corpus, library, config) and its history
serializes to identical bytes on every execution.  That also lets one run
keep everything it computes in one :class:`RunCache`, which lives for one
:func:`run_loop` call, or for one :func:`run_ablation` call, whose modes share
the same graphs and batches:

- The schedule memo holds (makespan, feasible) per graph on two keys.  The
  first is the expression's terms, so a repeated expression costs one lookup.
  The second is the order in which list scheduling pops each op type's ready
  heap under the expression's priorities (see :mod:`priosynth.scheduler`):
  that order decides the whole schedule, so two expressions that give a graph
  the same order share one schedule, and expressions that give different
  orders never do.  Each (graph, order) pair is scheduled once.
- Each graph sequence the loop scores, the validation set and each
  iteration's batch, has its feature columns stacked once.  One pass of
  :func:`~priosynth.dsl.priorities`, the term sum of ``eval_expr``, over the
  stack then gives every graph's priorities, and one sort its heap order,
  under a new expression.
- Each such stack also keeps what is computed for its sequence: an
  evaluation's history rows per expression, the fallback search's candidate
  scores per expression and its winner per basis.  An expression evaluated
  again, by a later iteration or mode, gets the same row list, so every
  record that holds it refers to one list, which
  :func:`~priosynth.graph.canonical_json` writes once; a fallback search
  repeated on the same batch and basis returns its stored winner.
- The training graphs, every graph retrieval can query, are embedded in one
  batch per cache, and each is ranked against the library once per
  :func:`run_loop` call.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, replace
from itertools import accumulate, chain
from math import comb
from typing import Sequence

import numpy as np

from .dsl import FEATURES, ExprError, PriorityExpr, Terms, feature_column, make_expr, parse_expr, print_expr, priorities
from .embedding import Normalizer
from .graph import Dag, check_type
from .kernels import (
    CATEGORY_FEATURES,
    FEATURE_SIGNS,
    Kernel,
    KernelIndex,
    QueryVectors,
    query_vectors,
    retrieve_kernels,
    template_expr,
)
from .providers import ProviderError, ProviderSpec, make_provider, provider_spec_to_document
from .scheduler import baseline_expr_text, list_schedule

ABLATIONS = ("full", "no_retrieval", "no_motif", "random_kernel")

_PROVIDER_ATTEMPTS = 3

# Charged once per infeasible schedule, on top of its negated makespan.
INFEASIBILITY_PENALTY = 5000.0


@dataclass(frozen=True)
class LoopConfig:
    """Hyperparameters of one synthesis run, checked when constructed by
    :func:`check_type`."""

    iterations: int = 3
    top_m: int = 5
    batch_size: int = 8
    seed: int = 0
    ablation: str = "full"
    fallback_on_error: bool = True
    provider: ProviderSpec = field(default_factory=ProviderSpec)

    def __post_init__(self):
        for name, kind in (("iterations", int), ("top_m", int), ("batch_size", int), ("seed", int),
                           ("ablation", str), ("fallback_on_error", bool), ("provider", ProviderSpec)):
            object.__setattr__(self, name, check_type(name, getattr(self, name), kind))
        if self.ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation mode {self.ablation!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.top_m < 0:
            raise ValueError("top_m must be nonnegative")


def loop_config_to_document(cfg: LoopConfig) -> dict:
    return {**asdict(cfg), "provider": provider_spec_to_document(cfg.provider)}


@dataclass(frozen=True)
class RunResult:
    best_expr: PriorityExpr
    best_iteration: int
    history: dict


def score_schedule(makespan: int, feasible: bool) -> float:
    """Higher is better: negated makespan, minus
    :data:`INFEASIBILITY_PENALTY` when the schedule is infeasible."""
    value = -float(makespan)
    if not feasible:
        value -= INFEASIBILITY_PENALTY
    return value


# (graph, expression terms) -> (makespan, feasible), and (graph, type order)
# -> (makespan, feasible), in one dict.  The type order is every op type's
# member ids sorted by (priority descending, id ascending), the types in
# capacity order, concatenated: the order ``list_schedule`` pops each type's
# ready heap in.  The schedule depends on the priorities only through it, so
# expressions that rank every type's members alike share one entry.  The two
# kinds of key never meet: terms are (float, str) pairs and an order holds
# ints.  Keyed on the ``Dag`` object itself, which hashes by identity, so a
# graph stays alive while the memo does and two graphs that share a name never
# share an entry.
ScheduleMemo = dict[tuple[Dag, tuple], tuple[int, bool]]


class _Stack:
    """A graph sequence's feature columns, stacked once, so that one array
    pass gives every graph's priorities and type order under an expression.

    ``columns`` holds each feature's :func:`~priosynth.dsl.feature_column`
    over the sequence; ``bounds[g]:bounds[g + 1]`` is graph ``g``'s slice.
    ``group`` is the graph's type offset (how many op types the graphs before
    it have) plus the node's type index in capacity order, so sorting on
    (group, -priority, id) lays out each graph's type order in its own
    slice.

    The stack also keeps what the run computes for its sequence: ``rows``,
    each evaluation's history rows keyed by terms; ``scores``, the fallback
    candidates' mean scores keyed by terms; and ``winners``, each fallback
    winner keyed by basis."""

    def __init__(self, dags: tuple[Dag, ...]):
        self.dags = dags
        self.bounds = [0, *accumulate(map(len, dags))]
        size = self.bounds[-1]
        self.columns = {name: feature_column(name, dags) for name in FEATURES if name != "const"}
        self.ids = np.fromiter(chain.from_iterable(map(range, map(len, dags))), np.intp, size)
        offsets = accumulate((len(dag.capacities) for dag in dags), initial=0)
        self.group = np.fromiter(
            (offset + i for offset, dag in zip(offsets, dags) for i in dag.stats().op_index), np.intp, size
        )
        self.rows: dict[Terms, list[dict]] = {}
        self.scores: dict[Terms, float] = {}
        self.winners: dict[tuple[str, ...], PriorityExpr] = {}

    def rank(self, p: np.ndarray) -> tuple[np.ndarray, set[int]]:
        """The node ids sorted by (group, -priority, id), whose slice
        ``bounds[g]:bounds[g + 1]`` is graph ``g``'s type order, and the
        graphs whose slice of ``p`` holds a NaN or an infinity: they have no
        order, because ``list_schedule`` rejects their priorities."""
        ranked = self.ids[np.lexsort((self.ids, -p, self.group))]
        finite = np.isfinite(p)
        if finite.all():
            return ranked, set()
        bounds = self.bounds
        return ranked, {g for g in range(len(self.dags)) if not finite[bounds[g] : bounds[g + 1]].all()}

    def outcomes(self, terms: Terms, memo: ScheduleMemo) -> list[tuple[int, bool]]:
        """(makespan, feasible) per graph under the expression ``terms``.
        Graphs that miss the memo on their terms share one stacked pass; each
        schedules only if it misses on its type order too.  A graph without
        an order is scheduled from its priorities, comes out infeasible, and
        is stored under its terms only."""
        results = [memo.get((dag, terms)) for dag in self.dags]
        if None in results:
            # Each graph's slice equals its ``eval_expr`` list bit for bit.
            p = priorities(terms, self.columns, len(self.ids))
            ranked, unordered = self.rank(p)
            bounds = self.bounds
            for g, dag in enumerate(self.dags):
                if results[g] is not None:
                    continue
                start, end = bounds[g], bounds[g + 1]
                order = None if g in unordered else (dag, tuple(ranked[start:end].tolist()))
                found = None if order is None else memo.get(order)
                if found is None:
                    schedule = list_schedule(dag, p[start:end].tolist(), measure=False)
                    found = (schedule.makespan, schedule.feasible)
                    if order is not None:
                        memo[order] = found
                results[g] = memo[dag, terms] = found
        return results


@dataclass
class RunCache:
    """What one run computes once and reads again, each keyed by what it
    depends on: the schedule memo per graph, a :class:`_Stack` per scored
    graph sequence (with that sequence's history rows, fallback scores and
    fallback winners), and the query vectors of the training graphs, which
    the first :func:`run_loop` call fills.  Everything in it is a pure
    function of its key, the graphs and the normalizer, so one cache serves
    every mode of an ablation over the same corpora, library and
    normalizer."""

    schedules: ScheduleMemo = field(default_factory=dict)
    stacks: dict[tuple[Dag, ...], _Stack] = field(default_factory=dict)
    vectors: QueryVectors | None = None

    def stack(self, dags: Sequence[Dag]) -> _Stack:
        key = tuple(dags)
        found = self.stacks.get(key)
        if found is None:
            found = self.stacks[key] = _Stack(key)
        return found


def evaluate_heuristic(
    expr: PriorityExpr,
    dags: Sequence[Dag],
    cache: RunCache | None = None,
) -> list[dict]:
    """Schedule every graph under ``expr``, in the order of ``dags``, and
    return one history row per graph: ``graph``, ``makespan``, ``feasible``
    and ``score``.

    The list is kept on the graphs' stack in ``cache`` under the
    expression's terms, and a repeated call returns that same list object, so
    every record and mode that evaluates the expression shares it.  Callers
    must not mutate the list or its rows."""
    if cache is None:
        cache = RunCache()
    stack = cache.stack(dags)
    rows = stack.rows.get(expr.terms)
    if rows is None:
        outcomes = stack.outcomes(expr.terms, cache.schedules)
        rows = stack.rows[expr.terms] = [
            {
                "graph": dag.name or "",
                "makespan": makespan,
                "feasible": feasible,
                "score": score_schedule(makespan, feasible),
            }
            for dag, (makespan, feasible) in zip(stack.dags, outcomes)
        ]
    return rows


def mean_score(evals: Sequence[dict]) -> float:
    if not evals:
        return 0.0
    return sum(e["score"] for e in evals) / len(evals)


def whole_graph_kernels(train: Sequence[Dag], vectors: QueryVectors) -> list[Kernel]:
    """Substitute library for the no_motif ablation: one kernel per training
    graph, signature = that graph's query vector from ``vectors`` (see
    :func:`~priosynth.kernels.query_vectors`), no budget applied."""
    return [
        Kernel(
            id=f"whole_graph-{index:04d}",
            category="whole_graph",
            signature=tuple(float(x) for x in vectors[dag]),
            support=1,
        )
        for index, dag in enumerate(train)
    ]


def select_kernels(
    batch: Sequence[Dag],
    kernels: Sequence[Kernel],
    cfg: LoopConfig,
    iteration: int,
    vectors: QueryVectors,
    ranked: dict[Dag, list[Kernel]] | None = None,
) -> list[tuple[Dag, list[Kernel]]]:
    """Per-graph kernel choice under the configured ablation mode; retrieval
    ranks each graph by its vector in ``vectors`` (see
    :func:`~priosynth.kernels.query_vectors`).  A run passes its library as a
    :class:`KernelIndex`, so it is not rebuilt per call, and a ``ranked``
    dict that keeps each graph's top-m kernels, so a graph is ranked once
    while the library, the normalizer and ``top_m`` stay the same."""
    if cfg.ablation == "no_retrieval":
        return [(dag, []) for dag in batch]
    if cfg.ablation == "random_kernel":
        pool = sorted(kernels, key=lambda kern: kern.id)
        out = []
        for dag in batch:
            rng = random.Random(f"{cfg.seed}:random-kernel:{iteration}:{dag.name}")
            out.append((dag, rng.sample(pool, min(cfg.top_m, len(pool)))))
        return out
    if ranked is None:
        ranked = {}
    out = []
    for dag in batch:
        kerns = ranked.get(dag)
        if kerns is None:
            kerns = ranked[dag] = [kern for kern, _ in retrieve_kernels(vectors[dag], kernels, cfg.top_m)]
        out.append((dag, kerns))
    return out


_TASK_TEXT = """\
You design a priority function for greedy list scheduling of typed operation
DAGs under per-type capacity limits.  Higher priority runs first; ties break
by lower node id.  The goal is minimum makespan across the graphs below.

Available per-node features:
- crit: longest duration sum from the node to any sink (inclusive)
- level: earliest possible start ignoring capacities
- slack: critical-path length minus level minus crit (0 on critical nodes)
- fanout / fanin: successor / predecessor counts
- reconv: number of successor pairs whose descendants meet again
- duration: the node's own duration
- pressure: total work of the node's op type over capacity times critical path
- const: constant 1"""

_GRAMMAR_TEXT = """\
Write one signed linear combination, for example:
2*crit + 0.5*fanout - 1*level
Allowed feature names: const, crit, duration, fanin, fanout, level, pressure,
reconv, slack.  Reply with exactly one expression line and nothing else."""


def build_prompt(
    batch: Sequence[Dag],
    selections: Sequence[tuple[Dag, Sequence[Kernel]]],
    feedback_history: Sequence[str],
) -> str:
    """Render the full deterministic prompt for one iteration.  Each batch
    graph's op types are listed in its sorted ``capacities`` order."""
    parts: list[str] = ["# Task", _TASK_TEXT, "", "# Batch"]
    for dag in batch:
        stats = dag.stats()
        types_text = ", ".join(f"{op}:{len(ids)}" for op, ids in zip(dag.capacities, stats.members) if ids)
        pressure_text = ", ".join(f"{op}={stats.pressure[op]:.3f}" for op in sorted(stats.pressure))
        parts.append(
            f"- {dag.name}: |V|={len(dag)}, |E|={sum(map(len, dag.succs))}, cp={stats.cp_length}, "
            f"types[{types_text}], pressure[{pressure_text}]"
        )

    tally: dict[str, int] = {}
    by_id: dict[str, Kernel] = {}
    for _, kerns in selections:
        for kern in kerns:
            tally[kern.id] = tally.get(kern.id, 0) + 1
            by_id[kern.id] = kern
    if tally:
        parts.extend(["", "# Retrieved kernels"])
        for kern_id in sorted(tally, key=lambda k: (-tally[k], k)):
            kern = by_id[kern_id]
            parts.append(
                f"- {kern.id} (category {kern.category}, matched {tally[kern_id]} graphs, "
                f"support {kern.support}): suggested form {print_expr(template_expr(kern.category))}"
            )

    parts.extend(["", "# Grammar", _GRAMMAR_TEXT])
    if feedback_history:
        parts.extend(["", "# Feedback from previous candidates"])
        for index, entry in enumerate(feedback_history):
            parts.append(f"[iteration {index}]")
            parts.append(entry)
    return "\n".join(parts) + "\n"


def parse_reply(text: str) -> PriorityExpr:
    """Extract the first parseable expression line from a provider reply,
    skipping blanks, comments, and code fences."""
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith("```"):
            continue
        try:
            return parse_expr(stripped)
        except ExprError:
            continue
    raise ExprError("no parseable expression in provider reply")


# The deterministic synthesizer searches these core features and those the
# selected kernels' templates name, each at its sign in ``FEATURE_SIGNS``.
# ``pressure`` and ``const`` are left out: each takes one value per op type,
# and list_schedule ranks each type's ready heap on its own (see the
# scheduler module docstring), so adding them cannot change which node gets
# a unit.  That is exact only up to rounding: a ``pressure`` term changes how
# the float priority sum rounds, so two nodes of one type whose priorities tie
# or nearly tie can compare the other way, and a provider's expression with
# that term can still schedule differently.  On validation graph
# ``layered-0138`` of the ``search`` benchmark's input set 5,
# ``1*crit + 1*fanout - 1*level + 1*pressure + 1*reconv`` gives makespan 34
# and the same sum without ``pressure`` 32.  No template names ``pressure``
# or ``const``.
_CORE_FEATURES = ("crit", "fanout", "level")

_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)

_MAX_PASSES = 3


def fallback_basis(selections: Sequence[tuple[Dag, Sequence[Kernel]]]) -> tuple[str, ...]:
    """The sorted features :func:`fallback_synthesize` searches for one batch:
    the core (crit, fanout, level) and every feature that a selected kernel's
    category template names.  Nothing else of ``selections`` is read, so
    selections whose kernels name the same features give the same basis."""
    named = {feature for _, kerns in selections for kern in kerns for feature in CATEGORY_FEATURES[kern.category]}
    return tuple(sorted(named.union(_CORE_FEATURES)))


def fallback_synthesize(
    basis: Sequence[str],
    batch: Sequence[Dag],
    cache: RunCache | None = None,
) -> PriorityExpr:
    """Deterministic template-merge synthesizer over the sorted feature
    ``basis`` that :func:`fallback_basis` returns.

    Coordinate descent over a fixed magnitude grid, with each feature at its
    sign in ``FEATURE_SIGNS``, maximizes the mean batch score.  Each descent
    moves every basis feature, from one of two starts: every basis feature at
    its sign, and the core at its signs with the other basis features at 0.
    With the core alone the two starts are equal, and one descent runs.  No
    randomness and no wall-clock input anywhere.

    The winner depends only on (batch, basis), and a candidate's score only
    on (batch, terms), so ``cache`` keeps both on the batch's stack: a
    repeated call returns its stored winner, and every call on a batch
    shares that batch's scores.
    """
    if cache is None:
        cache = RunCache()
    stack = cache.stack(batch)
    key = tuple(basis)
    winner = stack.winners.get(key)
    if winner is not None:
        return winner

    def objective(weights: dict[str, float]) -> float:
        terms = make_expr(weights).terms
        value = stack.scores.get(terms)
        if value is None:
            total = 0.0
            for makespan, feasible in stack.outcomes(terms, cache.schedules):
                total += score_schedule(makespan, feasible)
            value = stack.scores[terms] = total / max(1, len(stack.dags))
        return value

    def descend(start: dict[str, float]) -> tuple[dict[str, float], float]:
        weights = dict(start)
        best = objective(weights)
        for _ in range(_MAX_PASSES):
            improved = False
            for feature in start:
                kept = weights[feature]
                for magnitude in _GRID:
                    candidate = FEATURE_SIGNS[feature] * magnitude
                    if candidate == kept:
                        continue
                    weights[feature] = candidate
                    value = objective(weights)
                    if value > best:
                        best = value
                        kept = candidate
                        improved = True
                    else:
                        weights[feature] = kept
            if not improved:
                break
        return weights, best

    signs = {feature: FEATURE_SIGNS[feature] for feature in basis}
    core = {feature: signs[feature] if feature in _CORE_FEATURES else 0.0 for feature in basis}
    starts = [signs] if core == signs else [signs, core]
    # max keeps the first of equal scores, so the sign start wins a tie.
    best_weights, _ = max(map(descend, starts), key=lambda found: found[1])
    winner = stack.winners[key] = make_expr(best_weights)
    return winner


def make_feedback(
    evals: Sequence[dict],
    baseline_evals: Sequence[dict],
    dags: Sequence[Dag],
) -> str:
    """Summarize where the candidate lost to the baseline: up to five worst
    makespan regressions with a structural profile, plus infeasible graphs."""
    lines: list[str] = []
    infeasible = sorted(e["graph"] for e in evals if not e["feasible"])
    if infeasible:
        lines.append("infeasible on: " + ", ".join(infeasible))
    regressions = []
    for dag, cand, base in zip(dags, evals, baseline_evals):
        if cand["feasible"] and base["feasible"] and cand["makespan"] > base["makespan"]:
            regressions.append((cand["makespan"] - base["makespan"], cand["graph"], dag, cand, base))
    regressions.sort(key=lambda row: (-row[0], row[1]))
    if regressions:
        lines.append("worst regressions vs the level baseline:")
        for delta, name, dag, cand, base in regressions[:5]:
            stats = dag.stats()
            hot = max(stats.pressure, key=lambda op: (stats.pressure[op], op))
            lines.append(
                f"- {name}: makespan {base['makespan']} -> {cand['makespan']} (+{delta}); "
                f"|V|={len(dag)}, cp={stats.cp_length}, hottest type {hot}={stats.pressure[hot]:.3f}"
            )
    if not lines:
        lines.append("candidate matched or beat the level baseline on every validation graph")
    return "\n".join(lines)


def sample_batch(train: Sequence[Dag], cfg: LoopConfig, iteration: int) -> list[Dag]:
    """Seeded without-replacement sample, kept in corpus order.  Depends only
    on (seed, iteration, corpus size) so every ablation mode sees the same
    batches."""
    if len(train) <= cfg.batch_size:
        return list(train)
    rng = random.Random(f"{cfg.seed}:batch:{iteration}")
    picked = sorted(rng.sample(range(len(train)), cfg.batch_size))
    return [train[i] for i in picked]


def run_loop(
    train: Sequence[Dag],
    val: Sequence[Dag],
    kernels: Sequence[Kernel],
    normalizer: Normalizer,
    vocab: Sequence[str],
    cfg: LoopConfig,
    provider=None,
    cache: RunCache | None = None,
) -> RunResult:
    """Execute the full synthesis loop and return the winner plus history.

    ``provider`` overrides the one implied by ``cfg.provider`` (tests inject
    scripted providers this way).  Provider failures and unparseable replies
    are retried up to three attempts total, then the deterministic
    synthesizer takes over; with ``fallback_on_error=False`` the error
    propagates instead.  ``cache`` is shared by callers that run the loop
    again on the same corpora, library and normalizer, as
    :func:`run_ablation` does; by default the run keeps its own.  ``vocab``
    must be the vocabulary the normalizer records, which retrieval embeds
    with; a ``ValueError`` names both when they differ.
    """
    if tuple(vocab) != normalizer.vocab:
        raise ValueError(f"vocabulary {tuple(vocab)} does not match the normalizer's {normalizer.vocab}")
    if cache is None:
        cache = RunCache()
    if provider is None:
        provider = make_provider(cfg.provider)
    if cache.vectors is None:
        cache.vectors = query_vectors(train, normalizer)
    if cfg.ablation == "no_motif":
        kernels = whole_graph_kernels(train, cache.vectors)
    index = KernelIndex(kernels)
    # Each training graph's top-m kernels under this run's library,
    # normalizer and top_m.
    ranked: dict[Dag, list[Kernel]] = {}

    baseline = parse_expr(baseline_expr_text())
    baseline_evals = evaluate_heuristic(baseline, val, cache)

    feedback_history: list[str] = []
    records: list[dict] = []
    for iteration in range(cfg.iterations):
        batch = sample_batch(train, cfg, iteration)
        selections = select_kernels(batch, index, cfg, iteration, cache.vectors, ranked)

        expr: PriorityExpr | None = None
        source = "fallback"
        last_error: Exception | None = None
        if provider is not None:
            prompt = build_prompt(batch, selections, feedback_history)
            for _ in range(_PROVIDER_ATTEMPTS):
                try:
                    expr = parse_reply(provider.complete(prompt))
                    source = "provider"
                    break
                except (ProviderError, ExprError) as exc:
                    last_error = exc
        if expr is None:
            if provider is not None and not cfg.fallback_on_error:
                raise ProviderError(f"provider failed after {_PROVIDER_ATTEMPTS} attempts: {last_error}")
            expr = fallback_synthesize(fallback_basis(selections), batch, cache)
            source = "fallback"

        evals = evaluate_heuristic(expr, val, cache)
        feedback = make_feedback(evals, baseline_evals, val)
        feedback_history.append(feedback)
        records.append(
            {
                "iteration": iteration,
                "source": source,
                "expr": print_expr(expr),
                "mean_score": mean_score(evals),
                "evals": evals,
                "feedback": feedback,
            }
        )

    best = max(records, key=lambda record: (record["mean_score"], -record["iteration"]))
    history = {
        "config": loop_config_to_document(cfg),
        "baseline": {
            "expr": print_expr(baseline),
            "mean_score": mean_score(baseline_evals),
            "evals": baseline_evals,
        },
        "records": records,
        "best": {key: best[key] for key in ("iteration", "expr", "mean_score")},
    }
    return RunResult(best_expr=parse_expr(best["expr"]), best_iteration=best["iteration"], history=history)


def check_modes(modes: Sequence[str]) -> None:
    """Raise ``ValueError`` unless ``modes`` is non-empty and every mode is a
    known ablation mode, listed once."""
    if not modes:
        raise ValueError("modes must be a non-empty array")
    for index, mode in enumerate(modes):
        if mode not in ABLATIONS:
            raise ValueError(f"unknown ablation mode {mode!r}")
        if mode in modes[:index]:
            raise ValueError(f"ablation mode {mode!r} is listed twice")


def run_ablation(
    train: Sequence[Dag],
    val: Sequence[Dag],
    kernels: Sequence[Kernel],
    normalizer: Normalizer,
    vocab: Sequence[str],
    cfg: LoopConfig,
    modes: Sequence[str] = ABLATIONS,
    provider=None,
) -> dict:
    """Run the loop once per ablation mode on identical corpora and batches,
    and report per-mode winners with mean validation makespans.  The modes
    share one :class:`RunCache`, so a pair one mode scored is not scheduled
    again by the next, a batch is not stacked or a candidate scored again, a
    fallback search that an earlier mode ran on the same batch and basis is
    not run again, and no graph is embedded again."""
    check_modes(modes)
    out: dict = {"modes": {}}
    cache = RunCache()
    for mode in modes:
        result = run_loop(
            train,
            val,
            kernels,
            normalizer,
            vocab,
            replace(cfg, ablation=mode),
            provider=provider,
            cache=cache,
        )
        best_record = result.history["records"][result.best_iteration]
        makespans = [e["makespan"] for e in best_record["evals"]]
        feasible = sum(1 for e in best_record["evals"] if e["feasible"])
        out["modes"][mode] = {
            "best_expr": result.history["best"]["expr"],
            "best_iteration": result.best_iteration,
            "mean_score": result.history["best"]["mean_score"],
            "mean_val_makespan": sum(makespans) / len(makespans) if makespans else 0.0,
            "feasible": feasible,
            "history": result.history,
        }
    return out


def sign_test_p(better: int, worse: int) -> float:
    """Exact two-sided sign-test p of ``better`` wins against ``worse``
    losses (ties dropped): twice the Binomial(n, 1/2) tail at the smaller
    count, capped at 1."""
    n = better + worse
    tail = sum(comb(n, i) for i in range(min(better, worse) + 1))
    return min(1.0, 2 * tail / 2**n)


def _paired_row(better: int, worse: int, tied: int) -> dict:
    return {"better": better, "worse": worse, "tied": tied, "p": sign_test_p(better, worse)}


def ablation_summary(report: dict, seed: int) -> dict:
    """What a :func:`run_ablation` report says about each mode: its winner's
    mean validation makespan, gain in percent over the level baseline and
    expression, and ``paired`` against the ``no_retrieval`` and
    ``random_kernel`` winners (when the report has them): on how many
    validation graphs it schedules shorter, longer or the same, with the
    sign-test p of those wins and losses."""
    modes = report["modes"]
    # Every mode schedules the same validation graphs under the same baseline.
    base_evals = next(iter(modes.values()))["history"]["baseline"]["evals"]
    base_ms = sum(e["makespan"] for e in base_evals) / len(base_evals)

    def winner_makespans(mode: str) -> list:
        row = modes[mode]
        return [e["makespan"] for e in row["history"]["records"][row["best_iteration"]]["evals"]]

    def paired(mode: str, reference: str) -> dict:
        pairs = list(zip(winner_makespans(mode), winner_makespans(reference)))
        better = sum(1 for ours, theirs in pairs if ours < theirs)
        worse = sum(1 for ours, theirs in pairs if ours > theirs)
        return _paired_row(better, worse, len(pairs) - better - worse)

    references = [ref for ref in ("no_retrieval", "random_kernel") if ref in modes]
    return {
        "seed": seed,
        "baseline_mean_makespan": base_ms,
        "modes": {
            mode: {
                "mean_val_makespan": row["mean_val_makespan"],
                "gain_pct": 100.0 * (base_ms - row["mean_val_makespan"]) / base_ms,
                "best_expr": row["best_expr"],
                "paired": {ref: paired(mode, ref) for ref in references if ref != mode},
            }
            for mode, row in modes.items()
        },
    }


def pool_summaries(summaries: Sequence[dict]) -> dict:
    """The seeds of several :func:`ablation_summary` results, and their
    paired counts summed over those seeds with the sign-test p of the sums."""
    totals: dict = {}
    for summary in summaries:
        for mode, row in summary["modes"].items():
            for ref, counts in row["paired"].items():
                total = totals.setdefault(mode, {}).setdefault(ref, [0, 0, 0])
                for i, key in enumerate(("better", "worse", "tied")):
                    total[i] += counts[key]
    return {
        "seeds": [summary["seed"] for summary in summaries],
        "paired": {mode: {ref: _paired_row(*total) for ref, total in row.items()} for mode, row in totals.items()},
    }
