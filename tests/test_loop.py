import hashlib
import io
import random
from collections import Counter
from dataclasses import replace

import pytest

from helpers import random_dag, reference_fallback_synthesize
from priosynth import kernels as kernels_module
from priosynth import config, loop
from priosynth.dsl import ExprError, eval_expr, make_expr, parse_expr, print_expr
from priosynth.embedding import build_vocab
from priosynth.graph import canonical_json, load_dag
from priosynth.kernels import CATEGORY_FEATURES, Kernel, build_kernel_library
from priosynth.loop import (
    ABLATIONS,
    LoopConfig,
    build_prompt,
    evaluate_heuristic,
    fallback_basis,
    fallback_synthesize,
    make_feedback,
    mean_score,
    parse_reply,
    run_ablation,
    run_loop,
    sample_batch,
    score_schedule,
    select_kernels,
    whole_graph_kernels,
)
from priosynth.providers import HttpProvider, ProviderError, ProviderSpec, ScriptedProvider
from priosynth.scheduler import list_schedule, type_order


def corpus(seed=11, count=20, n_lo=6, n_hi=16):
    rng = random.Random(seed)
    dags = []
    for i in range(count):
        dag = random_dag(rng, rng.randint(n_lo, n_hi), types=("a", "b"))
        dag.name = f"g-{i:03d}"
        dags.append(dag)
    return dags


# sha256 of canonical_json of the provider-sourced history in
# ``test_provider_history_bytes_are_pinned``.
PROVIDER_HISTORY_SHA256 = "b35c66875463dbaaa88fc9eabc6a3485e5dad32389c8642e879e751a537b4f96"


@pytest.fixture(scope="module")
def setup():
    train = corpus(seed=1, count=20)
    val = corpus(seed=2, count=8)
    vocab = build_vocab(train + val)
    kernels, normalizer = build_kernel_library(train, vocab=vocab)
    return train, val, vocab, kernels, normalizer


class TestScoring:
    def test_score_formula(self):
        cfg = LoopConfig()
        assert score_schedule(cfg, 10, True) == -10.0
        assert score_schedule(cfg, 10, False) == -5010.0

    def test_evaluate_follows_input_order(self, setup):
        train, val, vocab, kernels, normalizer = setup
        evals = evaluate_heuristic(parse_expr("1*crit"), val, LoopConfig())
        assert [e["graph"] for e in evals] == [dag.name for dag in val]

    def test_mean_score(self):
        cfg = LoopConfig()
        dag = corpus(count=1)[0]
        evals = evaluate_heuristic(parse_expr("1*crit"), [dag], cfg)
        assert mean_score(evals) == evals[0]["score"]
        assert mean_score([]) == 0.0


class TestBatching:
    def test_batch_is_deterministic_and_sorted(self, setup):
        train, *_ = setup
        cfg = LoopConfig(seed=5, batch_size=6)
        a = sample_batch(train, cfg, 0)
        b = sample_batch(train, cfg, 0)
        assert [d.name for d in a] == [d.name for d in b]
        names = [d.name for d in a]
        assert names == sorted(names)
        assert len(a) == 6

    def test_batches_differ_across_iterations(self, setup):
        train, *_ = setup
        cfg = LoopConfig(seed=5, batch_size=6)
        names0 = [d.name for d in sample_batch(train, cfg, 0)]
        names1 = [d.name for d in sample_batch(train, cfg, 1)]
        assert names0 != names1

    def test_small_corpus_uses_everything(self, setup):
        train, *_ = setup
        cfg = LoopConfig(batch_size=100)
        assert sample_batch(train, cfg, 0) == list(train)


class TestSelection:
    def test_full_uses_similarity(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(ablation="full", top_m=3)
        picks = select_kernels(train[:2], kernels, normalizer, vocab, cfg, 0)
        assert len(picks) == 2
        for _, kerns in picks:
            assert len(kerns) == 3

    def test_no_retrieval_empty(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(ablation="no_retrieval")
        for _, kerns in select_kernels(train[:3], kernels, normalizer, vocab, cfg, 0):
            assert kerns == []

    def test_random_kernel_seeded(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(ablation="random_kernel", top_m=4, seed=9)
        a = select_kernels(train[:3], kernels, normalizer, vocab, cfg, 1)
        b = select_kernels(train[:3], kernels, normalizer, vocab, cfg, 1)
        assert [[k.id for k in ks] for _, ks in a] == [[k.id for k in ks] for _, ks in b]
        c = select_kernels(train[:3], kernels, normalizer, vocab, cfg, 2)
        assert [[k.id for k in ks] for _, ks in a] != [[k.id for k in ks] for _, ks in c]

    def test_whole_graph_kernels_one_per_graph(self, setup):
        train, val, vocab, kernels, normalizer = setup
        whole = whole_graph_kernels(train, normalizer, vocab)
        assert len(whole) == len(train)
        assert all(k.category == "whole_graph" for k in whole)
        assert all(CATEGORY_FEATURES[k.category] == ("crit", "fanout") for k in whole)


class TestPrompt:
    def test_sections_in_order(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(top_m=2)
        batch = train[:3]
        selections = select_kernels(batch, kernels, normalizer, vocab, cfg, 0)
        prompt = build_prompt(batch, selections, ["earlier feedback"], vocab)
        order = [
            prompt.index("# Task"),
            prompt.index("# Batch"),
            prompt.index("# Retrieved kernels"),
            prompt.index("# Grammar"),
            prompt.index("# Feedback"),
        ]
        assert order == sorted(order)
        assert "earlier feedback" in prompt
        for dag in batch:
            assert dag.name in prompt

    def test_kernel_section_omitted_when_empty(self, setup):
        train, val, vocab, kernels, normalizer = setup
        prompt = build_prompt(train[:2], [(d, []) for d in train[:2]], [], vocab)
        assert "# Retrieved kernels" not in prompt

    def test_prompt_is_deterministic(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(top_m=2)
        batch = train[:3]
        selections = select_kernels(batch, kernels, normalizer, vocab, cfg, 0)
        assert build_prompt(batch, selections, [], vocab) == build_prompt(batch, selections, [], vocab)


class TestReplyParsing:
    def test_plain_line(self):
        assert parse_reply("2*crit - 1*level") == parse_expr("2*crit - 1*level")

    def test_skips_fences_and_prose_comments(self):
        reply = "```\n# my answer\n1*crit + 1*fanout\n```\n"
        assert parse_reply(reply) == parse_expr("1*crit + 1*fanout")

    def test_skips_unparseable_prose(self):
        reply = "Sure thing!\n\n0.5*crit - 2*slack\n"
        assert parse_reply(reply) == parse_expr("0.5*crit - 2*slack")

    def test_no_expression_raises(self):
        with pytest.raises(ExprError):
            parse_reply("I cannot help with that.")


class TestFallback:
    def test_no_kernels_still_synthesizes(self, setup):
        train, *_ = setup
        cfg = LoopConfig()
        batch = train[:6]
        expr = fallback_synthesize(fallback_basis([(d, []) for d in batch]), batch, cfg)
        names = set(expr.features())
        assert names  # non-empty canonical expression
        assert names <= {"crit", "fanout", "level", "const"}

    def test_beats_or_matches_baseline_on_batch(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(top_m=3)
        batch = train[:8]
        selections = select_kernels(batch, kernels, normalizer, vocab, cfg, 0)
        expr = fallback_synthesize(fallback_basis(selections), batch, cfg)
        base = parse_expr("1*crit + 1*fanout - 1*level")

        def batch_score(e):
            return mean_score(evaluate_heuristic(e, batch, cfg))

        assert batch_score(expr) >= batch_score(base)

    def test_deterministic(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(top_m=3)
        batch = train[:8]
        selections = select_kernels(batch, kernels, normalizer, vocab, cfg, 0)
        basis = fallback_basis(selections)
        assert fallback_synthesize(basis, batch, cfg) == fallback_synthesize(basis, batch, cfg)

    @pytest.mark.parametrize("mode", ABLATIONS)
    def test_matches_reference_synthesizer(self, setup, mode):
        train, val, vocab, kernels, normalizer = setup
        if mode == "no_motif":
            kernels = whole_graph_kernels(train, normalizer, vocab)
        for iteration in range(3):
            cfg = LoopConfig(seed=iteration, top_m=2 + iteration, batch_size=4 + 3 * iteration, ablation=mode)
            batch = sample_batch(train, cfg, iteration)
            selections = select_kernels(batch, kernels, normalizer, vocab, cfg, iteration)
            expected = reference_fallback_synthesize(selections, batch, cfg)
            # The reference still searches pressure; its winner equals ours
            # once the per-type terms are dropped.
            expected = make_expr(
                {name: weight for weight, name in expected.terms if name not in ("pressure", "const")}
            )
            assert fallback_synthesize(fallback_basis(selections), batch, cfg) == expected

    def test_reads_only_the_features_of_the_selection(self, setup):
        # hub and whole_graph kernels name the same features, so these
        # selections differ in kernel ids, categories, signatures (hence
        # similarities) and counts, but give one basis.
        train, *_ = setup
        batch = train[:6]
        hub = Kernel(id="hub-000", category="hub", signature=(1.0, 0.0), support=5)
        whole = Kernel(id="whole_graph-0003", category="whole_graph", signature=(-1.0, 2.0), support=1)
        chains = [
            Kernel(id=f"chain-{i:03d}", category="chain", signature=(float(i), 1.0), support=i + 1) for i in range(3)
        ]
        first = [(dag, [hub, chains[0]]) for dag in batch]
        second = [(dag, [chains[1 + index % 2], whole, whole]) for index, dag in enumerate(batch)]
        assert fallback_basis(first) == fallback_basis(second) == ("crit", "fanout", "level", "slack")
        # Without a reconvergent or chain kernel the basis is the core alone.
        core = ("crit", "fanout", "level")
        assert fallback_basis([(dag, [hub]) for dag in batch]) == core
        assert fallback_basis([(dag, [whole, whole]) for dag in batch]) == core
        assert fallback_basis([(dag, []) for dag in batch]) == core

    def test_core_basis_runs_one_descent(self, setup, monkeypatch):
        # With the core alone, the two core starts equal the template start,
        # so their descents are skipped.  The one descent left is the last
        # of the three that a basis holding reconv runs.
        train, *_ = setup
        cfg = LoopConfig()
        batch = train[:8]
        real_make_expr = loop.make_expr

        def candidates(basis):
            made = []

            def recording_make_expr(weights):
                made.append(dict(weights))
                return real_make_expr(weights)

            monkeypatch.setattr(loop, "make_expr", recording_make_expr)
            fallback_synthesize(basis, batch, cfg)
            monkeypatch.undo()
            return made[:-1]  # the last call builds the winner

        core = candidates(("crit", "fanout", "level"))
        wider = candidates(("crit", "fanout", "level", "reconv"))
        assert core[0] == {"crit": 1.0, "fanout": 1.0, "level": -1.0}
        assert len(wider) > len(core)
        assert wider[-len(core) :] == core

    def test_every_template_feature_is_searchable(self):
        # A template naming a per-type feature such as pressure would hand
        # the search a term that cannot reorder a ready heap.
        for category, features in kernels_module.CATEGORY_FEATURES.items():
            for feature in features:
                assert feature in kernels_module.FEATURE_SIGNS, (category, feature)
        assert set(loop._CORE_FEATURES) <= set(kernels_module.FEATURE_SIGNS)
        assert not {"pressure", "const"} & set(kernels_module.FEATURE_SIGNS)

    def test_never_scores_per_type_features(self, setup, monkeypatch):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(top_m=3)
        batch = train[:8]
        selections = select_kernels(batch, kernels, normalizer, vocab, cfg, 0)
        assert all(kerns for _, kerns in selections)
        candidates = []
        real_make_expr = loop.make_expr

        def recording_make_expr(weights):
            expr = real_make_expr(weights)
            candidates.append(expr)
            return expr

        monkeypatch.setattr(loop, "make_expr", recording_make_expr)
        fallback_synthesize(fallback_basis(selections), batch, cfg)
        assert candidates
        for expr in candidates:
            assert not {"pressure", "const"} & set(expr.features()), print_expr(expr)

    def test_repeated_candidate_skips_the_memo(self, setup, monkeypatch):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(top_m=3)
        batch = train[:8]
        selections = select_kernels(batch, kernels, normalizer, vocab, cfg, 0)
        candidates = []
        real_make_expr = loop.make_expr

        def recording_make_expr(weights):
            expr = real_make_expr(weights)
            candidates.append(expr.terms)
            return expr

        class CountingMemo(dict):
            def __init__(self):
                super().__init__()
                self.lookups = Counter()

            def get(self, key, default=None):
                self.lookups[key] += 1
                return super().get(key, default)

        monkeypatch.setattr(loop, "make_expr", recording_make_expr)
        memo = CountingMemo()
        fallback_synthesize(fallback_basis(selections), batch, cfg, memo)
        distinct = set(candidates)
        assert len(distinct) < len(candidates)
        # Each distinct candidate is looked up by its terms once per graph,
        # and a repeat is not looked up at all.  The memo starts empty, so
        # every terms lookup misses and makes exactly one type-order lookup.
        by_terms = Counter({key: n for key, n in memo.lookups.items() if key[1] in distinct})
        assert by_terms == Counter({(dag, terms): 1 for terms in distinct for dag in batch})
        assert memo.lookups.total() == 2 * len(distinct) * len(batch)


class TestFeedback:
    def test_mentions_worst_regressions(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig()
        base = evaluate_heuristic(parse_expr("1*level"), val, cfg)
        cand = evaluate_heuristic(parse_expr("-1*crit"), val, cfg)
        text = make_feedback(cand, base, val)
        if any(c["makespan"] > b["makespan"] for c, b in zip(cand, base)):
            assert "regressions" in text
            assert "->" in text

    def test_clean_candidate_reported(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig()
        base = evaluate_heuristic(parse_expr("1*level"), val, cfg)
        text = make_feedback(base, base, val)
        assert "matched or beat" in text

    def test_at_most_five_regression_lines(self):
        train = corpus(seed=31, count=30, n_lo=10, n_hi=16)
        cfg = LoopConfig()
        base = evaluate_heuristic(parse_expr("1*crit + 1*fanout - 1*level"), train, cfg)
        cand = evaluate_heuristic(parse_expr("-1*crit - 1*fanout + 1*level"), train, cfg)
        regressed = sum(1 for c, b in zip(cand, base) if c["makespan"] > b["makespan"])
        assert regressed > 5  # the scenario really has many regressions
        text = make_feedback(cand, base, train)
        assert sum(1 for line in text.splitlines() if line.startswith("- ")) == 5


class TestRunLoop:
    def test_fallback_history_shape(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3)
        result = run_loop(train, val, kernels, normalizer, vocab, cfg)
        history = result.history
        assert len(history["records"]) == cfg.iterations
        assert history["best"]["expr"] == result.history["records"][result.best_iteration]["expr"]
        assert all(record["source"] == "fallback" for record in history["records"])
        assert len(history["records"][0]["evals"]) == len(val)
        assert history["config"]["seed"] == 3

    def test_fallback_run_builds_no_prompt(self, setup, monkeypatch):
        train, val, vocab, kernels, normalizer = setup

        def no_prompt(*args, **kwargs):
            raise AssertionError("a run without a provider rendered a prompt")

        monkeypatch.setattr(loop, "build_prompt", no_prompt)
        result = run_loop(train, val, kernels, normalizer, vocab, LoopConfig(seed=3, iterations=2))
        assert [r["source"] for r in result.history["records"]] == ["fallback", "fallback"]

    def test_byte_identical_reruns(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3)
        a = run_loop(train, val, kernels, normalizer, vocab, cfg)
        b = run_loop(train, val, kernels, normalizer, vocab, cfg)
        assert canonical_json(a.history) == canonical_json(b.history)

    def test_provider_history_bytes_are_pinned(self, setup):
        # A valid reply, then an unparseable one followed by a valid retry,
        # then an exhausted script: provider and fallback records, each with
        # feedback, the first of it on regressions.
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3, iterations=3)
        provider = ScriptedProvider(["-2*crit", "garbage", "2*crit - 1*level"])
        history = run_loop(train, val, kernels, normalizer, vocab, cfg, provider=provider).history
        assert [r["source"] for r in history["records"]] == ["provider", "provider", "fallback"]
        assert "worst regressions" in history["records"][0]["feedback"]
        digest = hashlib.sha256(canonical_json(history).encode("utf-8")).hexdigest()
        assert digest == PROVIDER_HISTORY_SHA256

    def test_scripted_provider_wins(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3, iterations=2)
        provider = ScriptedProvider(["3*crit - 1*level", "1*crit + 1*fanout - 1*level"])
        result = run_loop(train, val, kernels, normalizer, vocab, cfg, provider=provider)
        assert [r["source"] for r in result.history["records"]] == ["provider", "provider"]
        assert len(provider.calls) == 2
        assert "# Task" in provider.calls[0]

    def test_bad_replies_retry_then_fallback(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3, iterations=1)
        provider = ScriptedProvider(["garbage", "more garbage", "still no"])
        result = run_loop(train, val, kernels, normalizer, vocab, cfg, provider=provider)
        assert result.history["records"][0]["source"] == "fallback"
        assert len(provider.calls) == 3

    def test_partial_garbage_recovers_on_retry(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3, iterations=1)
        provider = ScriptedProvider(["garbage", "2*crit - 1*level"])
        result = run_loop(train, val, kernels, normalizer, vocab, cfg, provider=provider)
        assert result.history["records"][0]["source"] == "provider"
        assert result.history["records"][0]["expr"] == "2*crit - 1*level"

    def test_non_string_http_content_retries_then_fallback(self, setup, monkeypatch):
        import urllib.request

        class NullReply(io.BytesIO):
            status = 200

        requests = []

        def fake_urlopen(request, timeout):
            requests.append(request)
            return NullReply(b'{"choices": [{"message": {"content": null}}]}')

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3, iterations=1)
        provider = HttpProvider("http://provider.invalid/v1/chat/completions")
        result = run_loop(train, val, kernels, normalizer, vocab, cfg, provider=provider)
        assert result.history["records"][0]["source"] == "fallback"
        assert len(requests) == 3
        with pytest.raises(ProviderError, match="provider failed after 3 attempts: malformed provider response"):
            run_loop(train, val, kernels, normalizer, vocab, replace(cfg, fallback_on_error=False), provider=provider)

    def test_fallback_on_error_false_raises(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3, iterations=1, fallback_on_error=False)
        provider = ScriptedProvider([])
        with pytest.raises(ProviderError):
            run_loop(train, val, kernels, normalizer, vocab, cfg, provider=provider)

    def test_best_breaks_ties_toward_earliest(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3, iterations=3)
        same = "1*crit + 1*fanout - 1*level"
        provider = ScriptedProvider([same, same, same])
        result = run_loop(train, val, kernels, normalizer, vocab, cfg, provider=provider)
        assert result.best_iteration == 0

    def test_feedback_flows_into_later_prompts(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3, iterations=2)
        provider = ScriptedProvider(["-2*crit", "1*crit"])
        run_loop(train, val, kernels, normalizer, vocab, cfg, provider=provider)
        assert "# Feedback" not in provider.calls[0]
        assert "# Feedback" in provider.calls[1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoopConfig(ablation="bogus")
        with pytest.raises(ValueError):
            LoopConfig(iterations=0)
        for penalty in (float("nan"), float("inf"), -float("inf"), -1.0):
            with pytest.raises(ValueError, match="infeasibility_penalty must be finite and nonnegative"):
                LoopConfig(infeasibility_penalty=penalty)
        assert LoopConfig(infeasibility_penalty=0.0).infeasibility_penalty == 0.0


class TestAblation:
    def test_all_modes_present_and_deterministic(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=4)
        report = run_ablation(train, val, kernels, normalizer, vocab, cfg)
        assert set(report["modes"]) == set(ABLATIONS)
        again = run_ablation(train, val, kernels, normalizer, vocab, cfg)
        assert canonical_json(report) == canonical_json(again)
        for row in report["modes"].values():
            assert row["feasible"] == len(val)

    def test_no_motif_picks_what_no_retrieval_picks(self, setup):
        # Whole-graph kernels name only core features, so under the fallback
        # no_motif searches the basis no_retrieval does in every iteration.
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=4, iterations=4)
        report = run_ablation(train, val, kernels, normalizer, vocab, cfg, modes=("no_retrieval", "no_motif"))
        records = {mode: report["modes"][mode]["history"]["records"] for mode in ("no_retrieval", "no_motif")}
        assert [r["source"] for r in records["no_motif"]] == ["fallback"] * cfg.iterations
        assert [r["expr"] for r in records["no_motif"]] == [r["expr"] for r in records["no_retrieval"]]

    def test_unknown_mode_rejected(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig()
        with pytest.raises(ValueError):
            run_ablation(train, val, kernels, normalizer, vocab, cfg, modes=("nope",))

    @pytest.mark.parametrize(
        ("modes", "message"),
        [
            (("full", "full"), "^ablation mode 'full' is listed twice$"),
            (("full", "nope"), "^unknown ablation mode 'nope'$"),
        ],
    )
    def test_bad_mode_list_runs_no_mode(self, setup, monkeypatch, modes, message):
        train, val, vocab, kernels, normalizer = setup
        runs = []
        monkeypatch.setattr(loop, "run_loop", lambda *args, **kwargs: runs.append(args))
        with pytest.raises(ValueError, match=message):
            run_ablation(train, val, kernels, normalizer, vocab, LoopConfig(), modes=modes)
        assert runs == []


class TestScheduleMemo:
    """One run evaluates each (graph, expression) pair once and schedules
    each (graph, per-type priority order) once, and reuses the results; the
    train and val corpora share graph names, so a memo keyed by name would
    mix them up."""

    def test_ablation_schedules_each_pair_once(self, setup, monkeypatch):
        train, val, vocab, kernels, normalizer = setup
        evaluated, orders, scheduled = [], set(), []
        real_eval, real_schedule = loop.eval_expr, loop.list_schedule

        def counting_eval(expr, dag):
            evaluated.append((dag, expr.terms))
            priority = real_eval(expr, dag)
            orders.add((dag, type_order(dag, priority)))
            return priority

        def counting_schedule(dag, priority, measure=True):
            scheduled.append((dag, type_order(dag, priority)))
            return real_schedule(dag, priority, measure=measure)

        monkeypatch.setattr(loop, "eval_expr", counting_eval)
        monkeypatch.setattr(loop, "list_schedule", counting_schedule)
        run_ablation(train, val, kernels, normalizer, vocab, LoopConfig(seed=4))
        assert len(set(evaluated)) == len(evaluated) > 0
        assert all(order is not None for _, order in orders)
        # Once per distinct (graph, order), and no schedule for anything else.
        assert Counter(scheduled) == Counter(orders)
        assert len(scheduled) < len(evaluated)

    def test_graphs_with_one_order_stay_apart(self):
        # Two graphs with the same ids and types give the same type order;
        # only the graph in the key keeps their schedules apart.
        def chain(durations):
            return load_dag(
                {
                    "nodes": [{"id": v, "type": "a", "duration": d} for v, d in enumerate(durations)],
                    "edges": [[0, 1]],
                    "capacities": {"a": 1},
                }
            )

        short, long = chain([1, 5]), chain([2, 5])
        expr = parse_expr("1*crit")
        assert type_order(short, eval_expr(expr, short)) == type_order(long, eval_expr(expr, long))
        memo = {}
        assert loop._schedule(expr, short, memo) == (6, True)
        assert loop._schedule(expr, long, memo) == (7, True)

    def test_orders_that_differ_by_rounding_stay_apart(self):
        # The rounding case of the ``_CORE_FEATURES`` comment: on this graph
        # a pressure term, constant per type, still reorders two nodes of one
        # type, so the two sums must not share a memo entry.
        doc = config.default_run_config_document(5)
        doc["train"]["count"] = 24
        doc["val"]["count"] = 200
        _, val = config.build_corpora(config.load_run_config(doc))
        (dag,) = [dag for dag in val if dag.name == "layered-0138"]
        with_pressure = parse_expr("1*crit + 1*fanout - 1*level + 1*pressure + 1*reconv")
        without = parse_expr("1*crit + 1*fanout - 1*level + 1*reconv")
        assert type_order(dag, eval_expr(with_pressure, dag)) != type_order(dag, eval_expr(without, dag))
        for first, second in ((with_pressure, without), (without, with_pressure)):
            memo = {}
            loop._schedule(first, dag, memo)
            loop._schedule(second, dag, memo)
            assert loop._schedule(with_pressure, dag, memo) == (34, True)
            assert loop._schedule(without, dag, memo) == (32, True)

    def test_shared_memo_leaks_nothing_between_modes(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=4)
        report = run_ablation(train, val, kernels, normalizer, vocab, cfg)
        for mode in ABLATIONS:
            alone = run_loop(train, val, kernels, normalizer, vocab, replace(cfg, ablation=mode))
            assert canonical_json(report["modes"][mode]["history"]) == canonical_json(alone.history)

    def test_recorded_evals_match_a_direct_replay(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3, infeasibility_penalty=7.5)
        history = run_loop(train, val, kernels, normalizer, vocab, cfg).history
        for row in [history["baseline"], *history["records"]]:
            expr = parse_expr(row["expr"])
            for dag, recorded in zip(val, row["evals"], strict=True):
                schedule = list_schedule(dag, eval_expr(expr, dag), measure=False)
                assert recorded == {
                    "graph": dag.name,
                    "makespan": schedule.makespan,
                    "feasible": schedule.feasible,
                    "score": score_schedule(cfg, schedule.makespan, schedule.feasible),
                }


class TestQueryVectors:
    """One run embeds each query graph once and stacks each library once; the
    shared vectors must not change any mode's history."""

    def test_ablation_embeds_each_query_graph_once(self, setup, monkeypatch):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=4, batch_size=8)
        selecting: list[str] = []
        embedded: Counter = Counter()
        real_select, real_embed = loop.select_kernels, kernels_module.embed

        def tracking_select(batch, library, normalizer, vocab, cfg, iteration, *rest):
            selecting.append(cfg.ablation)
            try:
                return real_select(batch, library, normalizer, vocab, cfg, iteration, *rest)
            finally:
                selecting.pop()

        def counting_embed(dag, vocab):
            if selecting:
                embedded[(selecting[-1], dag)] += 1
            return real_embed(dag, vocab)

        monkeypatch.setattr(loop, "select_kernels", tracking_select)
        monkeypatch.setattr(kernels_module, "embed", counting_embed)
        report = run_ablation(train, val, kernels, normalizer, vocab, cfg)
        monkeypatch.undo()
        assert embedded and max(embedded.values()) == 1
        for mode in ABLATIONS:
            alone = run_loop(train, val, kernels, normalizer, vocab, replace(cfg, ablation=mode))
            assert canonical_json(report["modes"][mode]["history"]) == canonical_json(alone.history)
