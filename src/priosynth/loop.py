"""Iterative synthesis of priority expressions, with retrieval and ablations.

Each iteration samples a training batch, retrieves matching kernels, renders
a deterministic prompt, and obtains one candidate expression either from a
completion provider or from the built-in deterministic synthesizer.  The
candidate is scored on the validation set; feedback about its worst
regressions against the level baseline is folded into the next prompt.  The
loop returns the best-scoring candidate across iterations (earliest wins on
ties).

With ``runtime_mode="zero"`` every measured runtime is 0.0, so a whole run
is a pure function of (corpus, library, config) and its history serializes
to identical bytes on every execution.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

from .dsl import ExprError, PriorityExpr, eval_expr, make_expr, parse_expr, print_expr
from .embedding import Normalizer, apply_normalizer, embed
from .graph import Dag
from .kernels import (
    TEMPLATE_FAMILIES,
    Kernel,
    default_template,
    retrieve_kernels,
)
from .providers import ProviderError, ProviderSpec, make_provider, provider_spec_to_document
from .scheduler import baseline_expr_text, list_schedule

ABLATIONS = ("full", "no_retrieval", "no_motif", "random_kernel")

_PROVIDER_ATTEMPTS = 3


@dataclass(frozen=True)
class LoopConfig:
    """Hyperparameters of one synthesis run.

    ``runtime_weight`` is the score penalty per millisecond of scheduler
    runtime; ``infeasibility_penalty`` is charged once per infeasible
    schedule.  ``runtime_mode`` "zero" disables wall-clock measurement so
    runs are byte-reproducible; "wall" measures for real.
    """

    iterations: int = 3
    top_m: int = 5
    batch_size: int = 8
    runtime_weight: float = 0.01
    infeasibility_penalty: float = 5000.0
    seed: int = 0
    ablation: str = "full"
    runtime_mode: str = "zero"
    fallback_on_error: bool = True
    provider: ProviderSpec = field(default_factory=ProviderSpec)

    def __post_init__(self):
        if self.ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation mode {self.ablation!r}")
        if self.runtime_mode not in ("zero", "wall"):
            raise ValueError(f"unknown runtime mode {self.runtime_mode!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.top_m < 0:
            raise ValueError("top_m must be nonnegative")


def loop_config_to_document(cfg: LoopConfig) -> dict:
    return {
        "iterations": cfg.iterations,
        "top_m": cfg.top_m,
        "batch_size": cfg.batch_size,
        "runtime_weight": cfg.runtime_weight,
        "infeasibility_penalty": cfg.infeasibility_penalty,
        "seed": cfg.seed,
        "ablation": cfg.ablation,
        "runtime_mode": cfg.runtime_mode,
        "fallback_on_error": cfg.fallback_on_error,
        "provider": provider_spec_to_document(cfg.provider),
    }


@dataclass(frozen=True)
class GraphEval:
    graph: str
    makespan: int
    feasible: bool
    runtime_ms: float
    score: float


@dataclass(frozen=True)
class RunRecord:
    iteration: int
    source: str
    expr: str
    mean_score: float
    evals: tuple[GraphEval, ...]
    feedback: str


@dataclass(frozen=True)
class RunResult:
    best_expr: PriorityExpr
    best_iteration: int
    history: dict


def score_schedule(cfg: LoopConfig, makespan: int, runtime_ms: float, feasible: bool) -> float:
    """Higher is better: negated makespan minus weighted runtime, minus a
    flat penalty when the schedule is infeasible."""
    value = -float(makespan) - cfg.runtime_weight * runtime_ms
    if not feasible:
        value -= cfg.infeasibility_penalty
    return value


def evaluate_heuristic(expr: PriorityExpr, dags: Sequence[Dag], cfg: LoopConfig) -> list[GraphEval]:
    """Schedule every graph under ``expr``, in the order of ``dags``."""
    measure = cfg.runtime_mode == "wall"

    def one(dag: Dag) -> GraphEval:
        schedule = list_schedule(dag, eval_expr(expr, dag), measure=measure)
        return GraphEval(
            graph=dag.name or "",
            makespan=schedule.makespan,
            feasible=schedule.feasible,
            runtime_ms=schedule.runtime_ms,
            score=score_schedule(cfg, schedule.makespan, schedule.runtime_ms, schedule.feasible),
        )

    return [one(dag) for dag in dags]


def mean_score(evals: Sequence[GraphEval]) -> float:
    if not evals:
        return 0.0
    return sum(e.score for e in evals) / len(evals)


def whole_graph_kernels(train: Sequence[Dag], normalizer: Normalizer, vocab: Sequence[str]) -> list[Kernel]:
    """Substitute library for the no_motif ablation: one kernel per training
    graph, signature = that graph's own embedding, no budget applied."""
    kernels = []
    for index, dag in enumerate(train):
        vec = apply_normalizer(normalizer, embed(dag, vocab))
        kernels.append(
            Kernel(
                id=f"whole_graph-{index:04d}",
                category="whole_graph",
                signature=tuple(float(x) for x in vec),
                template=default_template("fanout_aware"),
                support=1,
            )
        )
    return kernels


def select_kernels(
    batch: Sequence[Dag],
    kernels: Sequence[Kernel],
    normalizer: Normalizer,
    vocab: Sequence[str],
    cfg: LoopConfig,
    iteration: int,
) -> list[tuple[Dag, list[Kernel]]]:
    """Per-graph kernel choice under the configured ablation mode."""
    if cfg.ablation == "no_retrieval":
        return [(dag, []) for dag in batch]
    if cfg.ablation == "random_kernel":
        pool = sorted(kernels, key=lambda kern: kern.id)
        out = []
        for dag in batch:
            rng = random.Random(f"{cfg.seed}:random-kernel:{iteration}:{dag.name}")
            out.append((dag, rng.sample(pool, min(cfg.top_m, len(pool)))))
        return out
    return [
        (dag, [kern for kern, _ in retrieve_kernels(dag, kernels, normalizer, vocab, cfg.top_m)])
        for dag in batch
    ]


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
    vocab: Sequence[str],
) -> str:
    """Render the full deterministic prompt for one iteration."""
    parts: list[str] = ["# Task", _TASK_TEXT, "", "# Batch"]
    for dag in batch:
        stats = dag.stats()
        counts = Counter(rec.op_type for rec in dag.nodes)
        types_text = ", ".join(f"{op}:{counts[op]}" for op in vocab if counts.get(op))
        pressure_text = ", ".join(f"{op}={stats.pressure[op]:.3f}" for op in sorted(stats.pressure))
        parts.append(
            f"- {dag.name}: |V|={len(dag)}, |E|={len(dag.edges)}, cp={stats.cp_length}, "
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
                f"support {kern.support}): suggested form {print_expr(kern.template.default_expr())}"
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


# Fixed sign conventions for the deterministic synthesizer: pull work that
# unlocks depth and parallelism forward, push slack and shallow level back.
_FEATURE_SIGNS = {
    "crit": 1.0,
    "duration": 1.0,
    "fanin": 1.0,
    "fanout": 1.0,
    "level": -1.0,
    "pressure": 1.0,
    "reconv": 1.0,
    "slack": -1.0,
}

_CORE_FEATURES = ("crit", "fanout", "level")

_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)

_MAX_PASSES = 3


def fallback_synthesize(
    selections: Sequence[tuple[Dag, Sequence[Kernel]]],
    batch: Sequence[Dag],
    cfg: LoopConfig,
) -> PriorityExpr:
    """Deterministic template-merge synthesizer.

    The basis is the union of features named by the retrieved kernel
    templates plus an always-present core (crit, fanout, level).  Coordinate
    descent over a fixed magnitude grid maximizes the mean batch score, run
    from three starts: the signed mean of template defaults, a hand-written
    critical-path start, and that same start restricted to the core basis.
    No randomness and no wall-clock input anywhere.
    """
    contributions: dict[str, list[float]] = {}
    for _, kerns in selections:
        for kern in kerns:
            defaults = dict(kern.template.defaults)
            for feature, sign in TEMPLATE_FAMILIES[kern.template.family]:
                contributions.setdefault(feature, []).append(sign * defaults.get(feature, 1.0))
    basis = sorted(set(contributions) | set(_CORE_FEATURES))

    def objective(weights: dict[str, float]) -> float:
        expr = make_expr(weights)
        total = 0.0
        for dag in batch:
            schedule = list_schedule(dag, eval_expr(expr, dag), measure=False)
            total += score_schedule(cfg, schedule.makespan, 0.0, schedule.feasible)
        return total / max(1, len(batch))

    def descend(start: dict[str, float], features: Sequence[str]) -> tuple[dict[str, float], float]:
        weights = dict(start)
        best = objective(weights)
        for _ in range(_MAX_PASSES):
            improved = False
            for feature in features:
                kept = weights[feature]
                for magnitude in _GRID:
                    candidate = _FEATURE_SIGNS[feature] * magnitude
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
                weights[feature] = kept
            if not improved:
                break
        return weights, best

    template_start = {}
    for feature in basis:
        if feature in contributions:
            values = contributions[feature]
            template_start[feature] = sum(values) / len(values)
        else:
            template_start[feature] = _FEATURE_SIGNS[feature]
    core_start_full = {feature: 0.0 for feature in basis}
    for feature in _CORE_FEATURES:
        core_start_full[feature] = _FEATURE_SIGNS[feature]
    core_start_only = {feature: _FEATURE_SIGNS[feature] for feature in _CORE_FEATURES}

    best_weights, best_value = descend(template_start, basis)
    for start, features in (
        (core_start_full, basis),
        (core_start_only, sorted(_CORE_FEATURES)),
    ):
        weights, value = descend(start, features)
        if value > best_value:
            best_weights, best_value = weights, value
    return make_expr(best_weights)


def make_feedback(
    evals: Sequence[GraphEval],
    baseline_evals: Sequence[GraphEval],
    dags: Sequence[Dag],
) -> str:
    """Summarize where the candidate lost to the baseline: up to five worst
    makespan regressions with a structural profile, plus infeasible graphs."""
    lines: list[str] = []
    infeasible = sorted(e.graph for e in evals if not e.feasible)
    if infeasible:
        lines.append("infeasible on: " + ", ".join(infeasible))
    regressions = []
    for dag, cand, base in zip(dags, evals, baseline_evals):
        if cand.feasible and base.feasible and cand.makespan > base.makespan:
            regressions.append((cand.makespan - base.makespan, cand.graph, dag, cand, base))
    regressions.sort(key=lambda row: (-row[0], row[1]))
    if regressions:
        lines.append("worst regressions vs the level baseline:")
        for delta, name, dag, cand, base in regressions[:5]:
            stats = dag.stats()
            hot = max(stats.pressure, key=lambda op: (stats.pressure[op], op))
            lines.append(
                f"- {name}: makespan {base.makespan} -> {cand.makespan} (+{delta}); "
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


def _eval_to_document(e: GraphEval) -> dict:
    return {
        "graph": e.graph,
        "makespan": e.makespan,
        "feasible": e.feasible,
        "runtime_ms": e.runtime_ms,
        "score": e.score,
    }


def run_loop(
    train: Sequence[Dag],
    val: Sequence[Dag],
    kernels: Sequence[Kernel],
    normalizer: Normalizer,
    vocab: Sequence[str],
    cfg: LoopConfig,
    provider=None,
) -> RunResult:
    """Execute the full synthesis loop and return the winner plus history.

    ``provider`` overrides the one implied by ``cfg.provider`` (tests inject
    scripted providers this way).  Provider failures and unparseable replies
    are retried up to three attempts total, then the deterministic
    synthesizer takes over; with ``fallback_on_error=False`` the error
    propagates instead.
    """
    if provider is None:
        provider = make_provider(cfg.provider)
    active_kernels: Sequence[Kernel] = kernels
    if cfg.ablation == "no_motif":
        active_kernels = whole_graph_kernels(train, normalizer, vocab)

    baseline = parse_expr(baseline_expr_text())
    baseline_evals = evaluate_heuristic(baseline, val, cfg)

    feedback_history: list[str] = []
    records: list[RunRecord] = []
    for iteration in range(cfg.iterations):
        batch = sample_batch(train, cfg, iteration)
        selections = select_kernels(batch, active_kernels, normalizer, vocab, cfg, iteration)
        prompt = build_prompt(batch, selections, feedback_history, vocab)

        expr: PriorityExpr | None = None
        source = "fallback"
        last_error: Exception | None = None
        if provider is not None:
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
            expr = fallback_synthesize(selections, batch, cfg)
            source = "fallback"

        evals = evaluate_heuristic(expr, val, cfg)
        feedback = make_feedback(evals, baseline_evals, val)
        feedback_history.append(feedback)
        records.append(
            RunRecord(
                iteration=iteration,
                source=source,
                expr=print_expr(expr),
                mean_score=mean_score(evals),
                evals=tuple(evals),
                feedback=feedback,
            )
        )

    best = max(records, key=lambda record: (record.mean_score, -record.iteration))
    history = {
        "config": loop_config_to_document(cfg),
        "baseline": {
            "expr": print_expr(baseline),
            "mean_score": mean_score(baseline_evals),
            "evals": [_eval_to_document(e) for e in baseline_evals],
        },
        "records": [
            {
                "iteration": record.iteration,
                "source": record.source,
                "expr": record.expr,
                "mean_score": record.mean_score,
                "evals": [_eval_to_document(e) for e in record.evals],
                "feedback": record.feedback,
            }
            for record in records
        ],
        "best": {
            "iteration": best.iteration,
            "expr": best.expr,
            "mean_score": best.mean_score,
        },
    }
    return RunResult(best_expr=parse_expr(best.expr), best_iteration=best.iteration, history=history)


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
    and report per-mode winners with mean validation makespans."""
    out: dict = {"modes": {}}
    for mode in modes:
        if mode not in ABLATIONS:
            raise ValueError(f"unknown ablation mode {mode!r}")
        result = run_loop(train, val, kernels, normalizer, vocab, replace(cfg, ablation=mode), provider=provider)
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
