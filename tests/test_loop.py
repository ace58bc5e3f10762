import random
from collections import Counter
from dataclasses import replace

import pytest

from helpers import random_dag, reference_fallback_synthesize
from priosynth import kernels as kernels_module
from priosynth import loop
from priosynth.dsl import ExprError, eval_expr, make_expr, parse_expr, print_expr
from priosynth.embedding import build_vocab
from priosynth.graph import canonical_json
from priosynth.kernels import build_kernel_library
from priosynth.loop import (
    ABLATIONS,
    LoopConfig,
    build_prompt,
    evaluate_heuristic,
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
from priosynth.providers import ProviderError, ProviderSpec, ScriptedProvider
from priosynth.scheduler import list_schedule


def corpus(seed=11, count=20, n_lo=6, n_hi=16):
    rng = random.Random(seed)
    dags = []
    for i in range(count):
        dag = random_dag(rng, rng.randint(n_lo, n_hi), types=("a", "b"))
        dag.name = f"g-{i:03d}"
        dags.append(dag)
    return dags


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
        assert [e.graph for e in evals] == [dag.name for dag in val]

    def test_mean_score(self):
        cfg = LoopConfig()
        dag = corpus(count=1)[0]
        evals = evaluate_heuristic(parse_expr("1*crit"), [dag], cfg)
        assert mean_score(evals) == evals[0].score
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
        assert all(k.template.family == "fanout_aware" for k in whole)


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
        expr = fallback_synthesize([(d, []) for d in batch], batch, cfg)
        names = set(expr.features())
        assert names  # non-empty canonical expression
        assert names <= {"crit", "fanout", "level", "const"}

    def test_beats_or_matches_baseline_on_batch(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(top_m=3)
        batch = train[:8]
        selections = select_kernels(batch, kernels, normalizer, vocab, cfg, 0)
        expr = fallback_synthesize(selections, batch, cfg)
        base = parse_expr("1*crit + 1*fanout - 1*level")

        def batch_score(e):
            return mean_score(evaluate_heuristic(e, batch, cfg))

        assert batch_score(expr) >= batch_score(base)

    def test_deterministic(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(top_m=3)
        batch = train[:8]
        selections = select_kernels(batch, kernels, normalizer, vocab, cfg, 0)
        assert fallback_synthesize(selections, batch, cfg) == fallback_synthesize(selections, batch, cfg)

    @pytest.mark.parametrize("mode", ["full", "no_retrieval", "random_kernel"])
    def test_matches_reference_synthesizer(self, setup, mode):
        train, val, vocab, kernels, normalizer = setup
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
            assert fallback_synthesize(selections, batch, cfg) == expected

    def test_every_template_feature_is_searchable(self):
        # A family naming a per-type feature such as pressure would hand the
        # search a term that cannot reorder a ready heap.
        for family, terms in kernels_module.TEMPLATE_FAMILIES.items():
            for feature, _ in terms:
                assert feature in loop._FEATURE_SIGNS, (family, feature)

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
        fallback_synthesize(selections, batch, cfg)
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
            lookups = 0

            def get(self, key, default=None):
                self.lookups += 1
                return super().get(key, default)

        monkeypatch.setattr(loop, "make_expr", recording_make_expr)
        memo = CountingMemo()
        fallback_synthesize(selections, batch, cfg, memo)
        assert len(set(candidates)) < len(candidates)
        assert memo.lookups == len(set(candidates)) * len(batch)


class TestFeedback:
    def test_mentions_worst_regressions(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig()
        base = evaluate_heuristic(parse_expr("1*level"), val, cfg)
        cand = evaluate_heuristic(parse_expr("-1*crit"), val, cfg)
        text = make_feedback(cand, base, val)
        if any(c.makespan > b.makespan for c, b in zip(cand, base)):
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
        regressed = sum(1 for c, b in zip(cand, base) if c.makespan > b.makespan)
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
    """One run schedules each (graph, expression) pair once and reuses the
    result; the train and val corpora share graph names, so a memo keyed by
    name would mix them up."""

    def test_ablation_schedules_each_pair_once(self, setup, monkeypatch):
        train, val, vocab, kernels, normalizer = setup
        evaluated, scheduled = [], []
        real_eval, real_schedule = loop.eval_expr, loop.list_schedule

        def counting_eval(expr, dag):
            evaluated.append((dag, expr.terms))
            return real_eval(expr, dag)

        def counting_schedule(dag, priority, measure=True):
            scheduled.append(dag)
            return real_schedule(dag, priority, measure=measure)

        monkeypatch.setattr(loop, "eval_expr", counting_eval)
        monkeypatch.setattr(loop, "list_schedule", counting_schedule)
        run_ablation(train, val, kernels, normalizer, vocab, LoopConfig(seed=4))
        assert len(scheduled) == len(evaluated) > 0
        assert len(set(evaluated)) == len(evaluated)

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
