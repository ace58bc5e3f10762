"""Which package functions the traced run wraps, and the per-layer metrics
derived from the spans.

Each per-layer metric, with the end-to-end metric and workload it should
move, is listed in README.md.  Unit ``ratio`` is a dimensionless share.
"""

from __future__ import annotations

from collections import defaultdict

from priosynth import bench, dsl, embedding, graph, kernels, loop, scheduler

from spans import Span, Tracer, aggregate, under

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("graph.dag_init.s", "s"),
    ("graph.stats.calls", "count"),
    ("graph.stats.computed", "count"),
    ("graph.stats.hit_ratio", "ratio"),
    ("graph.stats.s", "s"),
    ("graph.compute_reconv.s", "s"),
    ("dsl.eval_expr.calls", "count"),
    ("dsl.eval_expr.self_s", "s"),
    ("scheduler.list_schedule.calls", "count"),
    ("scheduler.list_schedule.s", "s"),
    ("scheduler.verify_schedule.calls", "count"),
    ("scheduler.verify_schedule.s", "s"),
    ("scheduler.infeasible", "count"),
    ("embedding.embed.calls", "count"),
    ("embedding.embed.s", "s"),
    ("embedding.cosine_sim.calls", "count"),
    ("embedding.retrieve_top_m.calls", "count"),
    ("embedding.retrieve_top_m.s", "s"),
    ("kernels.mine_motifs.s", "s"),
    ("kernels.motifs", "count"),
    ("kernels.induced_subdag.s", "s"),
    ("kernels.cluster_motifs.s", "s"),
    ("kernels.kept", "count"),
    ("kernels.cosine_per_motif", "ratio"),
    ("kernels.retrieve_kernels.calls", "count"),
    ("kernels.retrieve_kernels.s", "s"),
    ("loop.run_loop.s", "s"),
    ("loop.fallback_synthesize.calls", "count"),
    ("loop.fallback_synthesize.self_s", "s"),
    ("loop.fallback.schedules", "count"),
    ("loop.evaluate_heuristic.s", "s"),
    ("loop.select_kernels.s", "s"),
    ("loop.build_prompt.s", "s"),
    ("loop.fallback.unique_ratio", "ratio"),
    ("loop.modes_differ", "count"),
    ("bench.generate_graph.s", "s"),
    ("bench.run_campaign.s", "s"),
    ("trace.overhead_s", "s"),
)


def _size(dag, *_):
    return (len(dag),)


def targets() -> list[tuple]:
    """``(owner, attr, span name, kind, meta, result)`` for :func:`spans.install`.

    ``meta`` sees the call's positional arguments; every graph-taking span
    records the graph's node count first.  ``Dag.stats`` reads the private
    cache slot to tell a computing call from a cached one.  ``cosine_sim``
    runs millions of times on ``desk``, so it is only counted."""
    return [
        (graph.Dag, "__init__", "graph.dag_init", "span", None, None),
        (graph.Dag, "stats", "graph.stats", "span", lambda dag: (len(dag), dag._stats is None), None),
        (graph, "compute_reconv", "graph.compute_reconv", "span", _size, None),
        (dsl, "eval_expr", "dsl.eval_expr", "span", lambda expr, dag: (len(dag), id(dag), expr.terms), None),
        (scheduler, "list_schedule", "scheduler.list_schedule", "span", _size, lambda s: s.feasible),
        (scheduler, "verify_schedule", "scheduler.verify_schedule", "span", _size, len),
        (embedding, "embed", "embedding.embed", "span", None, None),
        (embedding, "cosine_sim", "embedding.cosine_sim", "count", None, None),
        (embedding, "retrieve_top_m", "embedding.retrieve_top_m", "span", None, None),
        (kernels, "mine_motifs", "kernels.mine_motifs", "span", None, len),
        (kernels, "induced_subdag", "kernels.induced_subdag", "span", None, None),
        (kernels, "cluster_motifs", "kernels.cluster_motifs", "span", lambda entries, *_: len(entries), len),
        (kernels, "build_kernel_library", "kernels.build_kernel_library", "span", None, None),
        (kernels, "retrieve_kernels", "kernels.retrieve_kernels", "span", None, None),
        (loop, "run_ablation", "loop.run_ablation", "span", None, None),
        (loop, "run_loop", "loop.run_loop", "span", None, None),
        (loop, "fallback_synthesize", "loop.fallback_synthesize", "span", None, None),
        (loop, "evaluate_heuristic", "loop.evaluate_heuristic", "span", None, None),
        (loop, "select_kernels", "loop.select_kernels", "span", None, None),
        (loop, "build_prompt", "loop.build_prompt", "span", None, None),
        (bench, "generate_graph", "bench.generate_graph", "span", None, None),
        (bench, "run_campaign", "bench.run_campaign", "span", None, None),
    ]


def per_layer(tracer: Tracer, modes_differ: int, overhead_s: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run."""
    spans = tracer.spans
    table = aggregate(spans)

    def get(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    stats_calls = get("graph.stats", "calls")
    stats_computed = sum(1 for s in spans if s.name == "graph.stats" and s.meta[1])
    in_fallback = under(spans, "loop.fallback_synthesize")
    fallback_evals = [s.meta for s, inside in zip(spans, in_fallback) if inside and s.name == "dsl.eval_expr"]
    motifs = sum(s.result for s in spans if s.name == "kernels.mine_motifs")
    clustered = sum(s.meta for s in spans if s.name == "kernels.cluster_motifs")
    infeasible = sum(
        1
        for s in spans
        if (s.name == "scheduler.list_schedule" and not s.result)
        or (s.name == "scheduler.verify_schedule" and s.result)
    )
    values = {
        "graph.dag_init.s": get("graph.dag_init", "s"),
        "graph.stats.calls": stats_calls,
        "graph.stats.computed": stats_computed,
        "graph.stats.hit_ratio": ratio(stats_calls - stats_computed, stats_calls),
        "graph.stats.s": get("graph.stats", "s"),
        "graph.compute_reconv.s": get("graph.compute_reconv", "s"),
        "dsl.eval_expr.calls": get("dsl.eval_expr", "calls"),
        "dsl.eval_expr.self_s": get("dsl.eval_expr", "self_s"),
        "scheduler.list_schedule.calls": get("scheduler.list_schedule", "calls"),
        "scheduler.list_schedule.s": get("scheduler.list_schedule", "s"),
        "scheduler.verify_schedule.calls": get("scheduler.verify_schedule", "calls"),
        "scheduler.verify_schedule.s": get("scheduler.verify_schedule", "s"),
        "scheduler.infeasible": infeasible,
        "embedding.embed.calls": get("embedding.embed", "calls"),
        "embedding.embed.s": get("embedding.embed", "s"),
        "embedding.cosine_sim.calls": sum(n for (name, _), n in tracer.counts.items() if name == "embedding.cosine_sim"),
        "embedding.retrieve_top_m.calls": get("embedding.retrieve_top_m", "calls"),
        "embedding.retrieve_top_m.s": get("embedding.retrieve_top_m", "s"),
        "kernels.mine_motifs.s": get("kernels.mine_motifs", "s"),
        "kernels.motifs": motifs,
        "kernels.induced_subdag.s": get("kernels.induced_subdag", "s"),
        "kernels.cluster_motifs.s": get("kernels.cluster_motifs", "s"),
        "kernels.kept": sum(s.result for s in spans if s.name == "kernels.cluster_motifs"),
        "kernels.cosine_per_motif": ratio(tracer.counts[("embedding.cosine_sim", "kernels.cluster_motifs")], clustered),
        "kernels.retrieve_kernels.calls": get("kernels.retrieve_kernels", "calls"),
        "kernels.retrieve_kernels.s": get("kernels.retrieve_kernels", "s"),
        "loop.run_loop.s": get("loop.run_loop", "s"),
        "loop.fallback_synthesize.calls": get("loop.fallback_synthesize", "calls"),
        "loop.fallback_synthesize.self_s": get("loop.fallback_synthesize", "self_s"),
        "loop.fallback.schedules": sum(
            1 for s, inside in zip(spans, in_fallback) if inside and s.name == "scheduler.list_schedule"
        ),
        "loop.evaluate_heuristic.s": get("loop.evaluate_heuristic", "s"),
        "loop.select_kernels.s": get("loop.select_kernels", "s"),
        "loop.build_prompt.s": get("loop.build_prompt", "s"),
        "loop.fallback.unique_ratio": ratio(len({meta[1:] for meta in fallback_evals}), len(fallback_evals)),
        "loop.modes_differ": modes_differ,
        "bench.generate_graph.s": get("bench.generate_graph", "s"),
        "bench.run_campaign.s": get("bench.run_campaign", "s"),
        "trace.overhead_s": overhead_s,
    }
    return {name: values[name] for name, _ in PER_LAYER}


def split_lines(tracer: Tracer, traced_s: float) -> list[str]:
    """Where the traced run's time went: inclusive and self seconds per span
    name as a share of the traced setup plus body, then, for each campaign
    graph, how much of the time spent on it was ``compute_reconv``."""
    spans = tracer.spans
    table = aggregate(spans)
    lines = [f"{'span':32s} {'calls':>9s} {'incl s':>10s} {'incl %':>7s} {'self s':>10s} {'self %':>7s}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["s"]):
        lines.append(
            f"{name:32s} {row['calls']:9d} {row['s']:10.4f} {100 * row['s'] / traced_s:7.2f} "
            f"{row['self_s']:10.4f} {100 * row['self_s'] / traced_s:7.2f}"
        )
    campaign = {i for i, s in enumerate(spans) if s.name == "bench.run_campaign"}
    on_graph: dict[int, float] = defaultdict(float)
    reconv: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent in campaign and s.meta:
            on_graph[s.meta[0]] += s.end - s.start
        if s.name == "graph.compute_reconv":
            reconv[s.meta[0]] += s.end - s.start
    for size in sorted(on_graph):
        lines.append(
            f"campaign graph |V|={size}: compute_reconv {reconv[size]:.4f} s of {on_graph[size]:.4f} s "
            f"spent on it ({100 * reconv[size] / on_graph[size]:.1f}%)"
        )
    return lines


def trace_document(spans: list[Span], counts) -> dict:
    """Spans as ``[name index, start, end, parent]`` rows plus the counters."""
    names = sorted({s.name for s in spans})
    index = {name: i for i, name in enumerate(names)}
    return {
        "names": names,
        "spans": [[index[s.name], s.start, s.end, s.parent] for s in spans],
        "counts": [[name, parent, n] for (name, parent), n in sorted(counts.items())],
    }
